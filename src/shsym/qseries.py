"""Truncated formal power series in q with exact rational coefficients.

A series carries an explicit truncation order N and stores the
coefficients of q^0 ... q^N as integer numerators over one positive
denominator, in lowest terms; a coefficient becomes a Fraction only when it
is read out.  Arithmetic never claims precision beyond the smaller operand
order, and equality is likewise defined up to the common truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import factorial, gcd, lcm, prod
from operator import add, mul, sub
from typing import Iterable, Union

from .partitions import count_partitions, enumerate_partitions, pentagonal_terms
from .ssym import SSPoly, beta, format_signed_sum

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


class QSeries:
    """The series sum num[n] q^n / den over n <= order, kept in lowest
    terms: den > 0 and gcd(den, *num) == 1."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None, den: int = 1):
        cs = list(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            cs = cs[: order + 1] + [0] * (order + 1 - len(cs))
        if den <= 0:
            raise ValueError("denominator must be positive")
        scale = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (scale // c.denominator) for c in cs] or [0]
        g = gcd(den * scale, *num)
        self.num = tuple(n // g for n in num)
        self.den = den * scale // g

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls([1], order)

    @property
    def order(self) -> int:
        return len(self.num) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return Fraction(self.num[n], self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def _common(self, other: "QSeries") -> tuple[list[int], list[int], int]:
        """Both numerators to the smaller order, over the lcm of the two
        denominators."""
        den = lcm(self.den, other.den)
        n = min(self.order, other.order) + 1
        s, t = den // self.den, den // other.den
        return [a * s for a in self.num[:n]], [b * t for b in other.num[:n]], den

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, den = self._common(other)
        return QSeries(map(add, a, b), den=den)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, den = self._common(other)
        return QSeries(map(sub, a, b), den=den)

    def __neg__(self) -> "QSeries":
        return QSeries([-n for n in self.num], den=self.den)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            n = min(self.order, other.order) + 1
            a, b = self.num[:n], other.num[:n]
            out = [sum(map(mul, a[: m + 1], b[m::-1])) for m in range(n)]
            return QSeries(out, den=self.den * other.den)
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return QSeries([a * c for a in self.num], den=self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        cs = self.coeffs
        a0 = cs[0]
        if not a0:
            raise ZeroDivisionError("series has no inverse: constant term is 0")
        n = self.order
        out = [_ZERO] * (n + 1)
        out[0] = 1 / a0
        for m in range(1, n + 1):
            out[m] = -sum(cs[i] * out[m - i] for i in range(1, m + 1)) / a0
        return QSeries(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, _ = self._common(other)
        return a == b

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


def eisenstein(k: int, order: int) -> QSeries:
    """Weight-k series for k in {2, 4, 6}, in the classical normalization
    with constant term 1."""
    if k not in _EISENSTEIN_FACTOR:
        raise ValueError("weight must be one of 2, 4, 6")
    factor, power = _EISENSTEIN_FACTOR[k]
    return QSeries([1] + [factor * sigma(power, n) for n in range(1, order + 1)])


def d_series(a: QSeries) -> QSeries:
    """The derivation q d/dq: coefficient c_n goes to n c_n."""
    return QSeries([n * c for n, c in enumerate(a.num)], den=a.den)


def check_bracket_input(f: SSPoly, order: int) -> None:
    """Raise ValueError unless q_bracket(f, order) is defined."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if not f.in_r():
        raise ValueError("q-bracket requires non-negative integer exponents")


# Production sums Sturm prefixes, orders <= 3, where an entry is at most 7
# integers and rebuilding one costs microseconds.  A deep entry holds about
# 215k integers at order 40 (8-12 MB); `verify --max-weight 16 -N 40` keeps
# 11 of them, which 32 entries hold among its shallow ones.
@lru_cache(maxsize=32)
def _generator_values(k: int, order: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D_k, values) with values[n] = D_k Q_k(lambda) over the partitions of
    n in enumeration order, for every n <= order, from the row sums
    S_k(lambda) = sum_i (2 lambda_i - 2i + 1)^(k-1) - (1 - 2i)^(k-1), i from 1,
    with Q_k(lambda) = beta_k + S_k(lambda) / (2^(k-1) (k-1)!), so that
    D_k = lcm(den beta_k, 2^(k-1) (k-1)!) makes each value an integer."""
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


def q_bracket(f: SSPoly, order: int) -> QSeries:
    """Partition average of f as a truncated series, by its definition: the
    sum of f(lambda) q^|lambda| over every partition of size <= order,
    divided by the partition generating function.

    The projection killing Q1 is applied first.  The sum goes column by
    column: each generator's integer values over the partitions of a size,
    each power of it once, and one product of columns per monomial.
    """
    check_bracket_input(f, order)
    f = f.pr()
    terms = [([(k, e2 // 2) for k, e2 in mono], c) for mono, c in f.num.items()]
    columns = {k: _generator_values(k, order) for exps, _ in terms for k, _ in exps}
    denoms = [prod(columns[k][0] ** e for k, e in exps) for exps, _ in terms]
    # one integer numerator over a common denominator
    denom = lcm(*denoms)
    terms = [(exps, c * (denom // d)) for (exps, c), d in zip(terms, denoms)]
    num = []
    for n in range(order + 1):
        powers = {}  # (k, e): the column of (D_k Q_k)^e over the partitions of n
        total = 0
        for exps, c in terms:
            cols = []
            for k, e in exps:
                if (k, e) not in powers:
                    values = columns[k][1][n]
                    powers[k, e] = values if e == 1 else [v**e for v in values]
                cols.append(powers[k, e])
            total += c * (sum(reduce(partial(map, mul), cols)) if cols else count_partitions(n))
        num.append(total)
    # dividing by the generating function multiplies by Euler's product
    euler = list(pentagonal_terms(order))
    return QSeries(
        [sum(sign * num[n - g] for g, sign in euler if g <= n) for n in range(order + 1)],
        den=denom * f.den,
    )
