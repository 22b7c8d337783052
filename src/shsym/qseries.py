"""Truncated formal power series in q with exact rational coefficients.

A series carries an explicit truncation order N and stores the
coefficients of q^0 ... q^N exactly.  Arithmetic never claims precision
beyond the smaller operand order, and equality is likewise defined up to
the common truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from operator import mul
from typing import Iterable, Union

from .partitions import count_partitions, enumerate_partitions
from .ssym import Monomial, SSPoly, beta, format_signed_sum

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


class QSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            if len(cs) < order + 1:
                cs += [_ZERO] * (order + 1 - len(cs))
            else:
                cs = cs[: order + 1]
        elif not cs:
            cs = [_ZERO]
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls([1], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.coeffs[: order + 1])

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return QSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return QSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs])

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            n = min(self.order, other.order)
            out = [_ZERO] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return QSeries(out)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return QSeries([a * c for a in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        a0 = self.coeffs[0]
        if not a0:
            raise ZeroDivisionError("series has no inverse: constant term is 0")
        n = self.order
        out = [_ZERO] * (n + 1)
        out[0] = 1 / a0
        for m in range(1, n + 1):
            out[m] = -sum(self.coeffs[i] * out[m - i] for i in range(1, m + 1)) / a0
        return QSeries(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    __hash__ = None  # equality is order-relative

    def __repr__(self) -> str:
        return f"QSeries({self})"

    def __str__(self) -> str:
        body = format_signed_sum(
            (c, "" if n == 0 else "q" if n == 1 else f"q^{n}")
            for n, c in enumerate(self.coeffs)
            if c
        )
        return f"{body} + O(q^{self.order + 1})"


def partition_gf(order: int) -> QSeries:
    """Generating function of the partition counts, exactly."""
    return QSeries([count_partitions(n) for n in range(order + 1)])


@lru_cache(maxsize=None)
def _inverse_gf(order: int) -> QSeries:
    return partition_gf(order).inverse()


def sigma(k: int, n: int) -> int:
    """Divisor power sum over the divisors of n, by trial division."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
        d += 1
    return total


_EISENSTEIN_FACTOR = {2: (-24, 1), 4: (240, 3), 6: (-504, 5)}


@lru_cache(maxsize=None)
def eisenstein(k: int, order: int) -> QSeries:
    """Weight-k series for k in {2, 4, 6}, in the classical normalization
    with constant term 1."""
    if k not in _EISENSTEIN_FACTOR:
        raise ValueError("weight must be one of 2, 4, 6")
    factor, power = _EISENSTEIN_FACTOR[k]
    coeffs = [Fraction(1)] + [
        Fraction(factor * sigma(power, n)) for n in range(1, order + 1)
    ]
    return QSeries(coeffs)


def d_series(a: QSeries) -> QSeries:
    """The derivation q d/dq: coefficient c_n goes to n c_n."""
    return QSeries([n * c for n, c in enumerate(a.coeffs)])


# The bracket numerator is summed in integers.  For a generator Q_k with
# k != 2, Q_k(lambda) = beta_k + S_k(lambda) / (2^(k-1) (k-1)!) with the row sum
# S_k(lambda) = sum_i (2 lambda_i - 2i + 1)^(k-1) - (1 - 2i)^(k-1), i from 1,
# so D_k Q_k(lambda) is an integer for D_k = lcm(den beta_k, 2^(k-1) (k-1)!).
# Q2 never touches partitions: Q2(lambda) = |lambda| - 1/24.


@lru_cache(maxsize=32)
def _generator_values(k: int, order: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D_k, values) with values[n] = D_k Q_k(lambda) over the partitions of
    n in enumeration order, for every n <= order."""
    b = beta(k)
    scale = 2 ** (k - 1) * factorial(k - 1)
    denom = lcm(b.denominator, scale)
    base = b.numerator * (denom // b.denominator)
    unit = denom // scale
    # rows[i][p]: the row-sum term of part p in row i + 1
    rows = [
        [(2 * (p - i) - 1) ** (k - 1) - (-2 * i - 1) ** (k - 1) for p in range(order + 1)]
        for i in range(order)
    ]
    row_term = list.__getitem__
    values = tuple(
        tuple(base + unit * sum(map(row_term, rows, lam)) for lam in enumerate_partitions(n))
        for n in range(order + 1)
    )
    return denom, values


@lru_cache(maxsize=1024)
def _monomial_series(mono: Monomial, order: int) -> tuple[Fraction, ...]:
    """Sum of the monomial over the partitions of each size n <= order."""
    q2_power = 0
    factors = []
    for k, e2 in mono.items2():
        if k == 2:
            q2_power = e2 // 2
        else:
            factors.append((_generator_values(k, order), e2 // 2))
    denom = 24**q2_power * prod(d**e for (d, _), e in factors)
    out = []
    for n in range(order + 1):
        if factors:
            column = None
            for (_, values), e in factors:
                powered = values[n] if e == 1 else [v**e for v in values[n]]
                column = powered if column is None else list(map(mul, column, powered))
            total = sum(column)
        else:
            total = count_partitions(n)
        out.append(Fraction(total * (24 * n - 1) ** q2_power, denom))
    return tuple(out)


def check_bracket_input(f: SSPoly, order: int) -> None:
    """Raise ValueError unless q_bracket(f, order) is defined."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if not f.in_r():
        raise ValueError("q-bracket requires non-negative integer exponents")


def q_bracket(f: SSPoly, order: int) -> QSeries:
    """Partition average of f as a truncated series: the sum of
    f(lambda) q^|lambda| divided by the partition generating function.

    The projection killing Q1 is applied first.
    """
    check_bracket_input(f, order)
    num = [_ZERO] * (order + 1)
    for mono, c in f.pr().terms():
        series = _monomial_series(mono, order)
        for i in range(order + 1):
            num[i] += c * series[i]
    return QSeries(num) * _inverse_gf(order)
