"""Harmonic shifted symmetric polynomials.

A polynomial f in the Q1-free ring is harmonic when the projection of its
laplacian vanishes.  Every weight-n element splits uniquely as
f = h_0 + Q2 h_1 + ... + Q2^(n') h_(n') with harmonic slots; the explicit
basis of the weight-n harmonic space is indexed by partitions of n with
all parts >= 3 and built from the Kelvin transform and the delta_lambda
operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable

from . import linalg
from .operators import delta_lambda, falling_factorial, kelvin, laplacian
from .partitions import (
    Partition,
    check_partition,
    count_partitions,
    enumerate_min_part,
)
from .ssym import Monomial, SSPoly


@dataclass(frozen=True)
class Decomposition:
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


@dataclass(frozen=True)
class HarmonicBasis:
    weight: int
    elements: dict[Partition, SSPoly]


def _require_lambda_star(f: SSPoly, what: str) -> None:
    if not f.in_lambda_star():
        raise ValueError(f"{what} requires a Q1-free element with integer exponents")


def is_harmonic(f: SSPoly) -> bool:
    """True when the projected laplacian of f vanishes exactly."""
    _require_lambda_star(f, "harmonicity test")
    return laplacian(f).pr().is_zero


@lru_cache(maxsize=None)
def lambda_star_basis(n: int) -> tuple[SSPoly, ...]:
    """Monomial basis of the weight-n slice: products over partitions of n
    with all parts >= 2, in the deterministic enumeration order."""
    if n < 0:
        return ()
    return tuple(
        SSPoly({Monomial.from_partition(lam): 1}) for lam in enumerate_min_part(n, 2)
    )


def _basis_index(n: int) -> dict[Monomial, int]:
    return {
        poly.terms()[0][0]: i for i, poly in enumerate(lambda_star_basis(n))
    }


def _coords(f: SSPoly, n: int) -> list[Fraction]:
    index = _basis_index(n)
    vec = [Fraction(0)] * len(index)
    for mono, c in f.terms():
        try:
            vec[index[mono]] = c
        except KeyError:
            raise ValueError(f"polynomial has a term outside the weight-{n} slice")
    return vec


@lru_cache(maxsize=None)
def _t_inverse(n: int) -> list[list[Fraction]]:
    # T(g) = projected laplacian of Q2*g on the weight-n slice; bijective.
    basis = lambda_star_basis(n)
    q2 = SSPoly.gen(2)
    columns = [_coords(laplacian(q2 * b).pr(), n) for b in basis]
    matrix = [[columns[j][i] for j in range(len(basis))] for i in range(len(basis))]
    return linalg.invert(matrix)


def _decompose_homogeneous(f: SSPoly, n: int) -> list[SSPoly]:
    slots = n // 2 + 1
    if f.is_zero:
        return [SSPoly.zero()] * slots
    if n < 2:
        return [f]
    rhs = laplacian(f).pr()
    g_coords = linalg.mat_vec(_t_inverse(n - 2), _coords(rhs, n - 2))
    basis = lambda_star_basis(n - 2)
    g = SSPoly.zero()
    for c, b in zip(g_coords, basis):
        if c:
            g = g + b * c
    h0 = f - SSPoly.gen(2) * g
    if not laplacian(h0).pr().is_zero:
        raise linalg.LinearSolveError("inconsistent")  # impossible unless buggy
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
        raise linalg.LinearSolveError("inconsistent")  # impossible unless buggy
    return dec


@lru_cache(maxsize=None)
def basis_element(lam: Partition) -> SSPoly:
    """The harmonic element attached to a partition: the projected,
    Kelvin-conjugated image of delta_lambda applied to the Kelvin unit."""
    lam = check_partition(lam)
    seed = kelvin(SSPoly.one())
    h = kelvin(delta_lambda(lam, seed).pr())
    if not h.in_lambda_star():
        raise AssertionError(f"basis element for {lam} left the Q1-free ring")
    return h


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
