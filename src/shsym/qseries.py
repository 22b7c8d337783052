"""Truncated formal power series in q with exact rational coefficients.

A series carries an explicit truncation order N and stores the
coefficients of q^0 ... q^N exactly.  Arithmetic never claims precision
beyond the smaller operand order, and equality is likewise defined up to
the common truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, factorial, isqrt, lcm, prod
from operator import add, mul
from typing import Iterable, Union

from .partitions import count_partitions
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


@lru_cache(maxsize=128)  # the three weights at every order <= 40
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


# The bracket numerator is summed in integers over Frobenius coordinates.
# A partition of n has d arms x_1 > ... > x_d and d legs y_1 > ... > y_d,
# doubled (x = 2a + 1, y = 2b + 1, all odd), with sum x + sum y = 2n.  For
# a generator Q_k with k != 2, Q_k(lambda) = beta_k + S_k / (2^(k-1) (k-1)!)
# with S_k = A_k + (-1)^k B_k, A_k = sum x^(k-1), B_k = sum y^(k-1), so
# D_k Q_k(lambda) is an integer for D_k = lcm(den beta_k, 2^(k-1) (k-1)!).
# Q2 never touches partitions: Q2(lambda) = |lambda| - 1/24.


def _apply_axes(cols: list, axes: list) -> list:
    """Apply one small matrix per axis to a flat moment vector whose entries
    are lists, so that the whole map is their tensor product.  `axes` holds
    (stride, rows): entry i with digit b on that axis becomes the sum of
    c * entry(i with digit a) over the nonzero (a, c) pairs of rows[b]."""
    for stride, rows in axes:
        size = len(rows)
        out = []
        for i in range(len(cols)):
            digit = i // stride % size
            low = i - digit * stride
            (a, c), *rest = rows[digit]
            acc = cols[low + a * stride]
            if c != 1:
                acc = [c * x for x in acc]
            for a, c in rest:
                acc = [y + c * x for y, x in zip(acc, cols[low + a * stride])]
            out.append(acc)
        cols = out
    return cols


def _arm_moments(gens: list[tuple[int, int]], order: int) -> list:
    """The 0/1 knapsack over the odd values 1, 3, ..., 2 order - 1.

    table[d][i][s] is the sum, over the sets X of d distinct odd values with
    sum s, of prod_j A_kj(X)^(i_j), where i is a mixed-radix index with
    digits i_j <= e_j for gens = [(k_j, e_j)].  A set of arms is kept only
    while d legs can still fit: d^2 <= s <= 2 order - d^2.
    """
    strides = [prod(e + 1 for _, e in gens[:j]) for j in range(len(gens))]
    size = prod(e + 1 for _, e in gens)
    top = isqrt(order)
    width = 2 * order + 1
    table = [[[0] * width for _ in range(size)] for _ in range(top + 1)]
    table[0][0][0] = 1
    reach = [0] + [-1] * top  # the largest sum stored for each d
    for v in range(1, 2 * order, 2):
        # adding v to a set adds v^(k-1) to A_k: a binomial shift per axis
        shift = []
        for (k, e), stride in zip(gens, strides):
            w = v ** (k - 1)
            rows = [[(b, 1)] + [(a, comb(b, a) * w ** (b - a)) for a in range(b)] for b in range(e + 1)]
            shift.append((stride, rows))
        # Every d is shifted in one pass, from the table as it was before v,
        # so each set takes v at most once.  Sums of d odd values have the
        # parity of d, so only every other sum is read and written.
        spans = []
        for d in range(top):
            lo = d * d
            hi = min(reach[d], 2 * order - (d + 1) ** 2 - v)
            if hi >= lo:
                spans.append((d, lo, hi))
        if not spans:
            continue
        cols = [
            list(chain.from_iterable(table[d][i][lo : hi + 1 : 2] for d, lo, hi in spans))
            for i in range(size)
        ]
        cols = _apply_axes(cols, shift)
        start = 0
        for d, lo, hi in spans:
            stop = start + (hi - lo) // 2 + 1
            for row, col in zip(table[d + 1], cols):
                row[lo + v : hi + v + 1 : 2] = map(add, row[lo + v : hi + v + 1 : 2], col[start:stop])
            start = stop
            reach[d + 1] = max(reach[d + 1], hi + v)
    return table


@lru_cache(maxsize=1024)
def _moment_knapsack(mono: Monomial, order: int) -> tuple[int, tuple[int, ...]]:
    """(D, totals) with totals[n] = D times the sum of the Q2-free, Q1-free
    monomial over the partitions of n, for every n <= order.

    Arms and legs draw on one table from _arm_moments.  At equal d they are
    joined by the multinomial expansion of
    prod_k (base_k + unit_k (A_k + (-1)^k B_k))^(e_k), one axis at a time.
    """
    gens = [(k, e2 // 2) for k, e2 in mono.items2()]
    table = _arm_moments(gens, order)
    denom = 1
    join = []
    stride = 1
    for k, e in gens:
        b = beta(k)
        scale = 2 ** (k - 1) * factorial(k - 1)
        d_k = lcm(b.denominator, scale)
        base = b.numerator * (d_k // b.denominator)
        unit = d_k // scale
        denom *= d_k**e
        # leg digit j gathers the arm digits a <= e - j, each with its term
        # of the multinomial expansion (base_k is 0 for odd k)
        rows = []
        for j in range(e + 1):
            terms = [
                (a, comb(e, a) * comb(e - a, j) * base ** (e - a - j) * unit ** (a + j) * (-1) ** (k * j))
                for a in range(e + 1 - j)
            ]
            rows.append([(a, c) for a, c in terms if c])
        join.append((stride, rows))
        stride *= e + 1
    totals = [0] * (order + 1)
    for d, arms in enumerate(table):
        lo = d * d
        # position p holds the sum lo + 2p
        legs = [row[lo : 2 * order - lo + 1 : 2] for row in arms]
        joined = _apply_axes(legs, join)
        for u, t in zip(joined, legs):
            for n in range(lo, order + 1):
                m = n - lo
                totals[n] += sum(map(mul, u[: m + 1], t[m::-1]))
    return denom, tuple(totals)


def _without_q2(mono: Monomial) -> Monomial:
    return Monomial(t for t in mono.items2() if t[0] != 2)


def knapsack_count(f: SSPoly) -> int:
    """How many distinct Q2-free monomials q_bracket(f, order) sums, one
    moment knapsack each."""
    return len({_without_q2(mono) for mono in f.pr()._terms})


def _monomial_series(mono: Monomial, order: int) -> tuple[int, list[int]]:
    """(D, totals): the sum of the monomial over the partitions of each size
    n <= order is totals[n] / D."""
    q2_power = mono.exponent2(2) // 2
    denom, totals = _moment_knapsack(_without_q2(mono), order)
    return denom * 24**q2_power, [t * (24 * n - 1) ** q2_power for n, t in enumerate(totals)]


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
    terms = [(c, _monomial_series(mono, order)) for mono, c in f.pr().terms()]
    # one integer numerator over a common denominator
    denom = lcm(*(c.denominator * d for c, (d, _) in terms))
    num = [0] * (order + 1)
    for c, (d, totals) in terms:
        scale = c.numerator * (denom // (c.denominator * d))
        for n, t in enumerate(totals):
            num[n] += scale * t
    # dividing by the generating function multiplies by Euler's product
    # prod (1 - q^n) = sum over j in Z of (-1)^j q^(j (3j - 1) / 2)
    euler = [(0, 1)]
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        euler += [(g, (-1) ** j) for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if g <= order]
        j += 1
    return QSeries(
        Fraction(sum(sign * num[n - g] for g, sign in euler if g <= n), denom)
        for n in range(order + 1)
    )
