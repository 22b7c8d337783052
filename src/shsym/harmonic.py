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
    falling_factorial,
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
        q2 = SSPoly.gen(2)
        acc = SSPoly.zero()
        power = SSPoly.one()
        for h in self.components:
            acc = acc + power * h
            power = power * q2
        return acc

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


_TRow = tuple[Monomial, int, tuple[tuple[int, int], ...]]


# Every weight up to the CLI's cap of 20: `decompose` at weight w solves on
# each slice of weight <= w - 2, and `basis n` reuses the slice n - 2.
@lru_cache(maxsize=32)
def _t_inverse(n: int) -> tuple[_TRow, ...]:
    """The map T(g) = pr laplacian(Q2 g) on the weight-n slice, as sparse
    lower-triangular integer rows, numerators over the denominator 8 of
    `pr_laplacian`, in solve order, one per unknown.

    Unknowns Q_mu are ordered by (len(mu), mu).  Every term of T(Q_mu) other
    than Q_mu itself has more parts, or as many parts and a lexicographically
    larger partition, so row i holds the unknown's monomial, its nonzero
    diagonal entry and the (j, entry) pairs of earlier unknowns j < i.
    Raises LinearSolveError if that structure fails.
    """
    mus = sorted(enumerate_min_part(n, 2), key=lambda mu: (len(mu), mu))
    monos = [Monomial.from_partition(mu) for mu in mus]
    index = {m: i for i, m in enumerate(monos)}
    entries: list[dict[int, int]] = [{} for _ in monos]
    for j, m in enumerate(monos):
        for mono, c in _pr_laplacian_image(m.shift({2: 2})):
            i = index[mono]
            if i < j:
                raise LinearSolveError("not lower-triangular")
            entries[i][j] = c
    rows = []
    for i, m in enumerate(monos):
        diagonal = entries[i].pop(i, None)
        if diagonal is None:
            raise LinearSolveError("singular")
        rows.append((m, diagonal, tuple(entries[i].items())))  # j ascending
    return tuple(rows)


def _solve_t(n: int, rhs: SSPoly) -> SSPoly:
    """The weight-n g with T(g) = rhs, by forward substitution in integers;
    terms of rhs outside the weight-n slice are ignored.

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
    for mono, diagonal, lower in rows:
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
    den *= scale
    return SSPoly({row[0]: Fraction(8 * v, den) for row, v in zip(rows, values) if v})


def _peel(f: SSPoly, n: int) -> tuple[SSPoly, SSPoly]:
    """The split f = h + Q2 g of a weight-n element, with h the harmonic slot:
    g solves T(g) = pr laplacian(f)."""
    g = _solve_t(n - 2, pr_laplacian(f))
    return f - SSPoly.gen(2) * g, g


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
    h, _ = _peel(q_lambda(lam), n)
    return h * leading_term_scale(n)


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
    """Normalization n! (3/2)_n carried by the leading monomial."""
    return factorial(n) * falling_factorial(Fraction(3, 2), n)


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
