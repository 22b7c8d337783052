"""Truncated formal power series in q with exact rational coefficients.

A series carries an explicit truncation order N and stores the
coefficients of q^0 ... q^N as integer numerators over one positive
denominator, in lowest terms; a coefficient becomes a Fraction only when it
is read out.  Arithmetic never claims precision beyond the smaller operand
order, and equality is likewise defined up to the common truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, isqrt, lcm, prod
from operator import add, mul, sub
from typing import Iterable, Union

from .partitions import count_partitions, pentagonal_terms
from .ssym import Monomial, SSPoly, beta, format_signed_sum

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


@lru_cache(maxsize=128)  # the three weights at every order <= 40
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


# The bracket numerator is summed in integers over Frobenius coordinates.
# A partition of n has d arms x_1 > ... > x_d and d legs y_1 > ... > y_d,
# doubled (x = 2a + 1, y = 2b + 1, all odd), with sum x + sum y = 2n.  For
# a generator Q_k with k != 2, Q_k(lambda) = beta_k + S_k / (2^(k-1) (k-1)!)
# with S_k = A_k + (-1)^k B_k, A_k = sum x^(k-1), B_k = sum y^(k-1), so
# D_k Q_k(lambda) is an integer for D_k = lcm(den beta_k, 2^(k-1) (k-1)!).
# Q2 never touches partitions: Q2(lambda) = |lambda| - 1/24.


def _mix_axes(cols: list[int], axes: list) -> list[int]:
    """Apply one small matrix per axis to a flat moment vector of packed
    rows, so that the whole map is their tensor product.  `axes` holds
    (stride, rows): entry i with digit b on that axis becomes the sum of
    c * entry(i with digit a) over the (a, c) pairs of rows[b]."""
    for stride, rows in axes:
        size = len(rows)
        out = []
        for i in range(len(cols)):
            digit = i // stride % size
            low = i - digit * stride
            (a, c), *rest = rows[digit]
            acc = cols[low + a * stride]
            if c != 1:
                acc = c * acc
            for a, c in rest:
                acc += c * cols[low + a * stride]
            out.append(acc)
        cols = out
    return cols


def unpack_signed(x: int, width: int, count: int) -> list[int]:
    """c_0 ... c_(count-1) of x = sum c_n 2^(width n), read slot by slot
    with a borrow; each of them must satisfy |c_n| < 2^(width - 1)."""
    x &= (1 << width * count) - 1
    out = []
    for _ in range(count):
        c = x & ((1 << width) - 1)
        c -= c >> (width - 1) << width  # a set top bit makes the slot negative
        out.append(c)
        x = (x - c) >> width
    return out


@lru_cache(maxsize=1024)
def _moment_knapsack(mono: Monomial, order: int) -> tuple[int, tuple[int, ...]]:
    """(D, totals) with totals[n] = D times the sum of the Q2-free, Q1-free
    monomial over the partitions of n, for every n <= order.

    A 0/1 knapsack over the odd values 1, 3, ..., 2 order - 1 fills, for
    each mixed-radix moment index i with digits i_j <= e_j, one integer
    table[i].  Its region d holds, over the sets X of d distinct odd values
    with sum s, the sum of prod_j A_kj(X)^(i_j) in the `width`-bit slot p
    with s = d^2 + 2p (sums of d odd values have the parity of d).  A set is
    kept only while d legs still fit: s <= 2 order - d^2.  Arms and legs
    draw on the same table; at equal d they are joined by the multinomial
    expansion of prod_k (base_k + unit_k (A_k + (-1)^k B_k))^(e_k), one axis
    at a time, and one product per moment index convolves arm and leg sums.
    """
    gens = [(k, e2 // 2) for k, e2 in mono]
    strides = [prod(e + 1 for _, e in gens[:j]) for j in range(len(gens))]
    size = prod(e + 1 for _, e in gens)
    top = isqrt(order)
    denom = 1
    join = []
    bound = count_partitions(order)
    for (k, e), stride in zip(gens, strides):
        b = beta(k)
        scale = 2 ** (k - 1) * factorial(k - 1)
        d_k = lcm(b.denominator, scale)
        base = b.numerator * (d_k // b.denominator)
        unit = d_k // scale
        denom *= d_k**e
        bound *= (abs(base) + unit * (2 * order) ** (k - 1)) ** e
        # leg digit j gathers the arm digits a <= e - j, each with its term
        # of the multinomial expansion (base_k is 0 for odd k)
        rows = [
            [
                (a, c)
                for a in range(e + 1 - j)
                if (c := comb(e, a) * comb(e - a, j) * base ** (e - a - j) * unit ** (a + j) * (-1) ** (k * j))
            ]
            for j in range(e + 1)
        ]
        join.append((stride, rows))
    # Slot width.  Slot n of the joined sum is totals[n], a sum over the
    # p(n) partitions of n of prod_k (D_k Q_k)^(e_k), where
    # |D_k Q_k| <= |base_k| + unit_k (2n)^(k-1) as |A_k +- B_k| <=
    # (sum x + sum y)^(k-1): below `bound`, with one more bit for the sign.
    # An arm slot fits too: the (x - 1) / 2 of a set are distinct and sum to
    # at most order, so at most p(order) sets share a slot, each with
    # A_k <= (2 order)^(k-1), and unit_k >= 1 (order 0 stores only a 1).
    width = bound.bit_length() + 1
    # Region d (order - d^2 + 1 slots) starts at (order + 1) d + d (d - 1) / 2,
    # past region d - 1, so that moving a set from d to d + 1 as it takes v
    # is one shift by order + 1 + (v - 1) / 2 slots.
    start = [(order + 1) * d + d * (d - 1) // 2 for d in range(top + 1)]
    table = [int(i == 0) for i in range(size)]
    for v in range(1, 2 * order, 2):
        # keep the slots whose sets still fit once v is added; every region
        # moves from the table as it was before v, so each set takes v once
        fits = 0
        for d in range(min(top, v // 2 + 1)):
            keep = order - (d + 1) ** 2 + 1 - (v - 1) // 2 + d
            if keep > 0:
                fits |= ((1 << width * keep) - 1) << width * start[d]
        if not fits:
            break
        # adding v to a set adds v^(k-1) to A_k: a binomial shift per axis
        shift = [
            (stride, [[(b, 1)] + [(a, comb(b, a) * v ** ((k - 1) * (b - a))) for a in range(b)] for b in range(e + 1)])
            for (k, e), stride in zip(gens, strides)
        ]
        moved = _mix_axes([x & fits for x in table], shift)
        step = width * (order + 1 + (v - 1) // 2)
        table = [x + (y << step) for x, y in zip(table, moved)]
    joined = 0
    for d in range(top + 1):
        cap = (1 << width * (order - d * d + 1)) - 1
        legs = [x >> width * start[d] & cap for x in table]
        joined += sum(map(mul, _mix_axes(legs, join), legs)) << width * d * d
    return denom, tuple(unpack_signed(joined, width, order + 1))


def _without_q2(mono: Monomial) -> Monomial:
    return Monomial(t for t in mono if t[0] != 2)


def knapsack_count(f: SSPoly) -> int:
    """How many distinct Q2-free monomials q_bracket(f, order) sums, one
    moment knapsack each."""
    return len({_without_q2(mono) for mono in f.pr().num})


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
    f = f.pr()
    terms = [(c, _monomial_series(mono, order)) for mono, c in f.num.items()]
    # one integer numerator over a common denominator
    denom = lcm(*(d for _, (d, _) in terms))
    num = [0] * (order + 1)
    for c, (d, totals) in terms:
        scale = c * (denom // d)
        for n, t in enumerate(totals):
            num[n] += scale * t
    # dividing by the generating function multiplies by Euler's product
    euler = list(pentagonal_terms(order))
    return QSeries(
        [sum(sign * num[n - g] for g, sign in euler if g <= n) for n in range(order + 1)],
        den=denom * f.den,
    )
