"""Harmonic shifted symmetric polynomials.

A polynomial f in the Q1-free ring is harmonic when the projection of its
laplacian vanishes.  Every weight-n element splits uniquely as
f = h_0 + Q2 h_1 + ... + Q2^(n') h_(n') with harmonic slots.  `decompose`
peels one slot at a time: the g with T(g) = pr laplacian(f), where
T(g) = pr laplacian(Q2 g), solves a sparse lower-triangular integer system
by forward substitution, and f - Q2 g is the harmonic slot, which
`is_harmonic` checks once on the operator laplacian.

The explicit basis of the weight-n harmonic space is indexed by partitions
of n with all parts >= 3.  Its element h_lambda, the projected Kelvin image
of delta_lambda applied to the Kelvin unit, is c_n Q_lambda modulo Q2 with
c_n = n! (3/2)_n, so it is the harmonic slot of c_n Q_lambda: the same
triangular solve builds it.  `verify` keeps the Kelvin/delta_lambda
composition as the independent oracle of that identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Iterable, NamedTuple

from .operators import (
    _pr_laplacian_image,
    delta_lambda,
    kelvin,
    laplacian,
    pr_laplacian,
)
from .partitions import (
    Partition,
    check_partition,
    count_partitions,
    enumerate_min_part,
)
from .ssym import LinearSolveError, Monomial, SSPoly


class Decomposition(NamedTuple):
    """Slots (h_0, ..., h_p) with the input equal to sum of Q2^r * h_r."""

    components: tuple[SSPoly, ...]

    def reconstruct(self) -> SSPoly:
        # multiplying by Q2^r shifts each exponent of Q2 by r
        acc: dict[Monomial, Fraction] = {}
        for r, h in enumerate(self.components):
            for m, c in h._terms.items():
                key = m.shift({2: 2 * r})
                acc[key] = acc.get(key, 0) + c
        return SSPoly(acc)

    @property
    def depth(self) -> int:
        top = 0
        for r, h in enumerate(self.components):
            if not h.is_zero:
                top = r
        return top


class HarmonicBasis(NamedTuple):
    weight: int
    elements: dict[Partition, SSPoly]


def _require_lambda_star(f: SSPoly, what: str) -> None:
    if not f.in_lambda_star():
        raise ValueError(f"{what} requires a Q1-free element with integer exponents")


def is_harmonic(f: SSPoly) -> bool:
    """True when the projected laplacian of f vanishes exactly."""
    _require_lambda_star(f, "harmonicity test")
    return laplacian(f).pr().is_zero


def lambda_star_basis(n: int) -> tuple[SSPoly, ...]:
    """Monomial basis of the weight-n slice: products over partitions of n
    with all parts >= 2, in the deterministic enumeration order."""
    if n < 0:
        return ()
    return tuple(
        SSPoly({Monomial.from_partition(lam): 1}) for lam in enumerate_min_part(n, 2)
    )


_TRow = tuple[Monomial, Monomial, int, tuple[tuple[int, int], ...]]


# Every weight up to the CLI's cap of 20: `decompose` at weight w solves on
# each slice of weight <= w - 2, and `basis n` reuses the slice n - 2.
@lru_cache(maxsize=32)
def _t_inverse(n: int) -> tuple[_TRow, ...]:
    """The map T(g) = pr laplacian(Q2 g) on the weight-n slice, as sparse
    lower-triangular integer rows, numerators over the denominator 8 of
    `pr_laplacian`, in solve order, one per unknown.

    Unknowns Q_mu are ordered by (len(mu), mu).  Every term of T(Q_mu) other
    than Q_mu itself has more parts, or as many parts and a lexicographically
    larger partition, so row i holds the unknown's monomial Q_mu, its
    product Q2 Q_mu, its nonzero diagonal entry and the (j, entry) pairs of
    earlier unknowns j < i.  Raises LinearSolveError if that structure fails.
    """
    mus = sorted(enumerate_min_part(n, 2), key=lambda mu: (len(mu), mu))
    monos = [Monomial.from_partition(mu) for mu in mus]
    shifted = [m.shift({2: 2}) for m in monos]
    index = {m: i for i, m in enumerate(monos)}
    entries: list[dict[int, int]] = [{} for _ in monos]
    for j, m in enumerate(shifted):
        for mono, c in _pr_laplacian_image(m):
            i = index[mono]
            if i < j:
                raise LinearSolveError("not lower-triangular")
            entries[i][j] = c
    rows = []
    for i, m in enumerate(monos):
        diagonal = entries[i].pop(i, None)
        if diagonal is None:
            raise LinearSolveError("singular")
        rows.append((m, shifted[i], diagonal, tuple(entries[i].items())))  # j ascending
    return tuple(rows)


def _solve_t(n: int, rhs: SSPoly) -> tuple[list[int], int]:
    """The weight-n g with T(g) = rhs, by forward substitution in integers,
    as numerators v_i over one denominator D: the coefficient of row i's
    monomial in g is 8 v_i / D.  Terms of rhs outside the weight-n slice
    are ignored.

    With rhs = N / den, the rows R = 8 T solve R y = N and g = 8 y / den.
    y is kept as integer numerators over one running denominator, which
    grows only when a division by a diagonal entry is inexact.
    """
    terms = rhs.terms()
    den = lcm(*(c.denominator for _, c in terms))
    numerators = {m: c.numerator * (den // c.denominator) for m, c in terms}
    rows = _t_inverse(n)
    scale = 1  # y = values / scale
    values: list[int] = []
    for mono, _, diagonal, lower in rows:
        s = numerators.get(mono, 0) * scale
        for j, entry in lower:
            s -= entry * values[j]
        q, r = divmod(s, diagonal)
        if r:
            step = diagonal // gcd(s, diagonal)
            scale *= step
            values = [v * step for v in values]
            q = s * step // diagonal
        values.append(q)
    return values, den * scale


def _peel(f: SSPoly, n: int) -> tuple[SSPoly, SSPoly]:
    """The split f = h + Q2 g of a weight-n element, with h the harmonic slot:
    g solves T(g) = pr laplacian(f), and Q2 g is written on the rows'
    Q2-shifted monomials."""
    values, den = _solve_t(n - 2, pr_laplacian(f))
    g: dict[Monomial, Fraction] = {}
    h = dict(f._terms)
    for (mono, q2_mono, _, _), v in zip(_t_inverse(n - 2), values):
        if v:
            c = g[mono] = Fraction(8 * v, den)
            s = h.get(q2_mono, 0) - c
            if s:
                h[q2_mono] = s
            else:
                del h[q2_mono]
    return SSPoly._wrap(h), SSPoly._wrap(g)


def _decompose_homogeneous(f: SSPoly, n: int) -> list[SSPoly]:
    slots = n // 2 + 1
    if f.is_zero:
        return [SSPoly.zero()] * slots
    if n < 2:
        return [f]
    h0, g = _peel(f, n)
    if not is_harmonic(h0):
        raise LinearSolveError("inconsistent")  # impossible unless buggy
    return [h0] + _decompose_homogeneous(g, n - 2)


def decompose(f: SSPoly) -> Decomposition:
    """Split f into harmonic slots; non-homogeneous input is decomposed per
    weight component and the slots are summed."""
    _require_lambda_star(f, "decomposition")
    merged: list[SSPoly] = [SSPoly.zero()]
    for w, fw in f.weight_components().items():
        part = _decompose_homogeneous(fw, w)
        while len(merged) < len(part):
            merged.append(SSPoly.zero())
        for i, h in enumerate(part):
            merged[i] = merged[i] + h
    dec = Decomposition(tuple(merged))
    if dec.reconstruct() != f:
        raise LinearSolveError("inconsistent")  # impossible unless buggy
    return dec


def basis_element(lam: Partition) -> SSPoly:
    """The harmonic element attached to a partition: the projected,
    Kelvin-conjugated image of delta_lambda applied to the Kelvin unit.

    It is c_n (Q_lambda - Q2 g) with c_n = n! (3/2)_n, where g solves
    T(g) = pr laplacian(Q_lambda): the harmonic slot of c_n Q_lambda, since
    the element is c_n Q_lambda modulo Q2 and harmonic elements are fixed by
    their Q2-free part.  A part 1 or 2 gives zero, since delta_1 vanishes
    and the projection of delta_2 on the Kelvin unit Q2^(3/2) does.
    """
    lam = check_partition(lam)
    if not lam:
        return SSPoly.one()
    if lam[-1] <= 2:
        return SSPoly.zero()
    n = sum(lam)
    mono = Monomial.from_partition(lam)
    values, den = _solve_t(n - 2, pr_laplacian(SSPoly({mono: 1})))
    # c_n Q_lambda, and -c_n * 8 v / den on each Q2-shifted row; Q_lambda
    # has no Q2, so no two terms share a monomial
    c = leading_term_scale(n)
    num, den = -8 * c.numerator, den * c.denominator
    terms = {mono: c}
    for row, v in zip(_t_inverse(n - 2), values):
        if v:
            terms[row[1]] = Fraction(num * v, den)
    return SSPoly._wrap(terms)


def harmonic_basis(n: int) -> HarmonicBasis:
    """Basis of the weight-n harmonic space, indexed by partitions of n
    with all parts >= 3, in deterministic enumeration order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    elements = {lam: basis_element(lam) for lam in enumerate_min_part(n, 3)}
    return HarmonicBasis(weight=n, elements=elements)


def dim_h(n: int) -> int:
    """Dimension of the weight-n harmonic space via the partition counts."""
    if n < 0:
        return 0
    return (
        count_partitions(n)
        - count_partitions(n - 1)
        - count_partitions(n - 2)
        + count_partitions(n - 3)
    )


def depth_ss(f: SSPoly) -> int:
    """Largest slot index with a nonzero harmonic component; 0 for 0."""
    _require_lambda_star(f, "depth")
    if not f.is_homogeneous():
        raise ValueError("depth requires weight-homogeneous input")
    return decompose(f).depth


def q_lambda(lam: Iterable[int]) -> SSPoly:
    """The monomial with one generator factor per part."""
    return SSPoly({Monomial.from_partition(check_partition(lam)): 1})


def leading_term_scale(n: int) -> Fraction:
    """Normalization n! (3/2)_n carried by the leading monomial, in
    integers: (3/2)_n = (3)(1)(-1)...(5 - 2n) / 2^n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    num = factorial(n)
    for i in range(n):
        num *= 3 - 2 * i
    return Fraction(num, 1 << n)


def leading_term_check(lam: Iterable[int]) -> bool:
    """The basis element minus its scaled leading monomial is divisible by Q2."""
    lam = check_partition(lam)
    if any(p < 3 for p in lam):
        raise ValueError("basis partitions need all parts >= 3")
    n = sum(lam)
    diff = basis_element(lam) - q_lambda(lam) * leading_term_scale(n)
    return all(mono.exponent2(2) >= 2 for mono, _ in diff.terms())


def dualize_apply_multinomial(f: SSPoly, g: SSPoly) -> SSPoly:
    """Dualization sending each monomial to the partition-indexed operator.

    Unlike dualize_apply, the delta_lambda multinomial prefactor is kept;
    this is the normalization under which the reproduction identity below
    holds for every harmonic element.
    """
    if not f.in_r():
        raise ValueError("dualization requires non-negative integer exponents")
    acc = SSPoly.zero()
    for mono, c in f.terms():
        acc = acc + delta_lambda(mono.partition(), g) * c
    return acc


def unusual_identity_check(h: SSPoly, n: int) -> bool:
    """Reproduction identity: a weight-n harmonic element equals its own
    dualized action on the Kelvin unit, up to the leading normalization."""
    if n < 1:
        raise ValueError("n must be positive")
    if not is_harmonic(h):
        raise ValueError("input must be harmonic")
    if not h.is_zero and h.weight() != n:
        raise ValueError(f"input is not weight-{n} homogeneous")
    rhs = kelvin(dualize_apply_multinomial(h, kelvin(SSPoly.one())).pr())
    return h * leading_term_scale(n) == rhs
