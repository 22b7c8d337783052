"""Harmonic shifted symmetric polynomials.

A polynomial f in the Q1-free ring is harmonic when the projection of its
laplacian vanishes.  Every weight-n element splits uniquely as
f = h_0 + Q2 h_1 + ... + Q2^(n') h_(n') with harmonic slots.  `_peel`
splits off one slot: g = T^-1 pr laplacian(f), where
T(g) = pr laplacian(Q2 g) is inverted in closed form from the sl2 relation
of Q2 and the projected laplacian, f - Q2 g is the harmonic slot, and g is
the remainder the next slot is peeled from.  The projected laplacian is a
closed form in integers over the denominator 8, `_pr_laplacian_image`,
whose powers build g, and with which `decompose` checks each returned slot
once.  The operator laplacian is its independent reference:
`verify.suite_pr_laplacian_oracle` proves the two equal on every Q1-free
monomial a CLI job can meet, so on every input the CLI admits.  Elsewhere
a caller checks slots with `is_harmonic`; it and the reproduction
identity alone load `operators`.

The explicit basis of the weight-n harmonic space is indexed by partitions
of n with all parts >= 3.  Its element h_lambda, the projected Kelvin image
of delta_lambda applied to the Kelvin unit, is c_n Q_lambda modulo Q2 with
c_n = n! (3/2)_n, so it is the harmonic slot of c_n Q_lambda: the same peel
builds it.  `verify` keeps the Kelvin/delta_lambda composition as the
independent oracle of that identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Iterable, NamedTuple

from .partitions import Partition, check_partition, count_partitions, enumerate_min_part
from .ssym import LinearSolveError, Monomial, SSPoly, _linear_numerators


class Decomposition(NamedTuple):
    """Slots (h_0, ..., h_p) with the input equal to sum of Q2^r * h_r."""

    components: tuple[SSPoly, ...]

    def reconstruct(self) -> SSPoly:
        # multiplying by Q2^r shifts each exponent of Q2 by r
        acc = SSPoly.zero()
        for r, h in enumerate(self.components):
            acc = acc + SSPoly._make({m.shift({2: 2 * r}): n for m, n in h.num.items()}, h.den)
        return acc

    @property
    def depth(self) -> int:
        return max((r for r, h in enumerate(self.components) if not h.is_zero), default=0)


class HarmonicBasis(NamedTuple):
    weight: int
    elements: dict[Partition, SSPoly]


def _require_lambda_star(f: SSPoly, what: str) -> None:
    if not f.in_lambda_star():
        raise ValueError(f"{what} requires a Q1-free element with integer exponents")


def is_harmonic(f: SSPoly) -> bool:
    """True when the projected laplacian of f vanishes exactly, on the
    operator laplacian, which shares nothing with the closed form."""
    from .operators import laplacian  # a certificate; the solve needs none

    _require_lambda_star(f, "harmonicity test")
    return laplacian(f).pr().is_zero


def lambda_star_basis(n: int) -> tuple[SSPoly, ...]:
    """Monomial basis of the weight-n slice: products over partitions of n
    with all parts >= 2, in the deterministic enumeration order."""
    if n < 0:
        return ()
    return tuple(SSPoly({Monomial.from_partition(lam): 1}) for lam in enumerate_min_part(n, 2))


# All 4,889 Q1-free monomials a CLI job can meet (verify.proof_monomials)
# fit, in about 18 MB, so a job computes each image once.
@lru_cache(maxsize=5120)
def _pr_laplacian_image(mono: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """pr laplacian(mono) of a Q1-free monomial, as (monomial, numerator)
    pairs over the denominator 8.

    The laplacian is half of d_op_n(2) - d_op^2.  Every Q1 it emits is a
    factor of its own, so on the Q1-free ring, with d_k the formal
    derivative in Q_k and ordered pairs k, l >= 2,

        2 pr laplacian = sum (C(k+l-2, k-1) Q_(k+l-2) - [k, l >= 3] Q_(k-1) Q_(l-1)) d_k d_l
                         - d_2 - sum_(k >= 4) Q_(k-2) d_k.

    On doubled exponents e, d_k d_l gives e_k e_l / 4 (e_k (e_k - 2) / 4 for
    k = l) and d_k gives e_k / 2; an unordered pair k < l counts twice.
    """
    acc: dict[Monomial, int] = {}

    def add(num: int, *changes: tuple[int, int]):
        m = Monomial(mono + changes)
        acc[m] = acc.get(m, 0) + num

    for a, (k, ek) in enumerate(mono):
        if k == 2:
            add(-2 * ek, (2, -2))
        elif k >= 4:
            add(-2 * ek, (k, -2), (k - 2, 2))
        for l, el in mono[a:]:
            num = ek * (ek - 2) if l == k else 2 * ek * el
            if not num:
                continue
            add(comb(k + l - 2, k - 1) * num, (k, -2), (l, -2), (k + l - 2, 2))
            if k >= 3:
                add(-num, (k, -2), (l, -2), (k - 1, 2), (l - 1, 2))
    return tuple((m, s) for m, s in acc.items() if s)


def pr_laplacian(f: SSPoly) -> SSPoly:
    """pr laplacian(f), the Q1-free part of the laplacian, from its closed
    form.  The laplacian commutes with multiplication by Q1, so the Q1 terms
    of f are dropped first."""
    return _linear_numerators(_pr_laplacian_image, f.pr(), 8)


def _t_inverse(m: int) -> tuple[Fraction, ...]:
    """The inverse of T(g) = pr laplacian(Q2 g) on the weight-m slice, in
    closed form: the floor(m/2) + 1 rationals a_i with
    T^-1 = sum_i a_i Q2^i Y^i, Y = pr laplacian.

    On the Q1-free ring, with X the product by Q2 and H the weight minus
    1/2, [Y, X] = H, as in the sl2 triple of the classical harmonic
    polynomials.  So the harmonic part of a weight-(m + 2) element f is
    sum_j c_j X^j Y^j f with c_0 = 1 and c_j = c_(j-1) (-2) / (j (2m + 1 - 2j)),
    whose factor 2m + 1 - 2j is odd, never zero; f minus it is X T^-1 Y f,
    and a_i = -c_(i+1).
    """
    coeffs = []
    den = 1  # c_j = (-2)^j / den
    for j in range(1, m // 2 + 2):
        den *= j * (2 * m + 1 - 2 * j)
        coeffs.append(Fraction(-((-2) ** j), den))
    return tuple(coeffs)


def _times_q2(mono: Monomial, e2: int) -> Monomial:
    """mono * Q2^(e2/2), e2 > 0, for a Q1-free monomial with non-negative
    exponents: Q2 is its first generator if it has one, and no exponent
    check of the Monomial constructor can fail, so the tuple is built
    directly."""
    if mono and mono[0][0] == 2:
        return tuple.__new__(Monomial, ((2, mono[0][1] + e2), *mono[1:]))
    return tuple.__new__(Monomial, ((2, e2), *mono))


def _peel(f: SSPoly, n: int) -> tuple[SSPoly, SSPoly]:
    """(h, g): a weight-n element split as f = h + Q2 g, with h the
    harmonic slot, both as elements.

    g = T^-1 pr laplacian(f) = sum_i a_i Q2^i Y^(i+1) f, with the a_i of
    `_t_inverse(n - 2)`.  Each power Y^(i+1) f is kept as integer numerators
    over 8^(i+1) f.den; g is summed from them over one common denominator,
    and h = f - Q2 g over the same one.
    """
    coeffs = _t_inverse(n - 2)
    top = len(coeffs)
    scale = lcm(*(a.denominator for a in coeffs)) << 3 * top  # den / f.den
    g: dict[Monomial, int] = {}
    power = f.num
    for i, a in enumerate(coeffs):
        nxt: dict[Monomial, int] = {}
        for mono, s in power.items():
            for key, c in _pr_laplacian_image(mono):
                nxt[key] = nxt.get(key, 0) + s * c
        power = {key: s for key, s in nxt.items() if s}
        if not power:
            break
        weight = a.numerator * scale // (a.denominator << 3 * (i + 1))  # a_i / 8^(i+1)
        for mono, s in power.items():
            key = _times_q2(mono, 2 * i) if i else mono
            g[key] = g.get(key, 0) + weight * s
    h = {mono: s * scale for mono, s in f.num.items()}
    for mono, s in g.items():
        key = _times_q2(mono, 2)
        h[key] = h.get(key, 0) - s
    den = f.den * scale
    return SSPoly._make(h, den), SSPoly._make(g, den)


def decompose(f: SSPoly) -> Decomposition:
    """Split f into harmonic slots.  Each weight component w is peeled one
    slot at a time: slot r gets the harmonic part of the weight-(w - 2r)
    remainder, the peel's g is the next remainder, and the last slot keeps
    what is left."""
    _require_lambda_star(f, "decomposition")
    parts = f.weight_components()
    slots = [SSPoly.zero()] * (max(parts, default=0) // 2 + 1)
    for w, rest in parts.items():
        for r in range(w // 2):
            if rest.is_zero:
                break
            h, rest = _peel(rest, w - 2 * r)
            slots[r] = slots[r] + h
        slots[w // 2] = slots[w // 2] + rest
    dec = Decomposition(tuple(slots))
    # A slot holds at most one part per weight component, and the laplacian
    # keeps weights apart, so a slot is harmonic exactly when each part is:
    # one check per returned slot certifies every peel.  verify's
    # pr_laplacian oracle proves the closed form equal to the operator
    # laplacian on every monomial the CLI meets.
    if dec.reconstruct() != f or not all(pr_laplacian(h).is_zero for h in dec.components):
        raise LinearSolveError("inconsistent")  # impossible unless buggy
    return dec


def basis_element(lam: Partition) -> SSPoly:
    """The harmonic element attached to a partition: the projected,
    Kelvin-conjugated image of delta_lambda applied to the Kelvin unit.

    It is the harmonic slot of c_n Q_lambda, c_n = n! (3/2)_n, that `_peel`
    splits off, since the element is c_n Q_lambda modulo Q2 and harmonic
    elements are fixed by their Q2-free part.  A part 1 or 2 gives zero,
    since delta_1 vanishes and the projection of delta_2 on the Kelvin unit
    Q2^(3/2) does.
    """
    lam = check_partition(lam)
    if not lam:
        return SSPoly.one()
    if lam[-1] <= 2:
        return SSPoly.zero()
    n = sum(lam)
    return _peel(SSPoly({Monomial.from_partition(lam): leading_term_scale(n)}), n)[0]


def harmonic_basis(n: int) -> HarmonicBasis:
    """Basis of the weight-n harmonic space, indexed by partitions of n
    with all parts >= 3, in deterministic enumeration order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    elements = {lam: basis_element(lam) for lam in enumerate_min_part(n, 3)}
    return HarmonicBasis(weight=n, elements=elements)


def dim_h(n: int) -> int:
    """Dimension of the weight-n harmonic space via the partition counts,
    which are zero at negative sizes."""
    p = count_partitions
    return p(n) - p(n - 1) - p(n - 2) + p(n - 3)


def depth_ss(f: SSPoly) -> int:
    """Largest slot index with a nonzero harmonic component; 0 for 0."""
    _require_lambda_star(f, "depth")
    if not f.is_homogeneous():
        raise ValueError("depth requires weight-homogeneous input")
    return decompose(f).depth


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
    diff = basis_element(lam) - SSPoly({Monomial.from_partition(lam): leading_term_scale(n)})
    return all(mono.exponent2(2) >= 2 for mono, _ in diff.terms())


def unusual_identity_check(h: SSPoly, n: int) -> bool:
    """Reproduction identity: a weight-n harmonic element equals its own
    dualized action on the Kelvin unit, up to the leading normalization."""
    from .operators import dualize_apply, kelvin, multinomial

    if n < 1:
        raise ValueError("n must be positive")
    if not is_harmonic(h):
        raise ValueError("input must be harmonic")
    if not h.is_zero and h.weight() != n:
        raise ValueError(f"input is not weight-{n} homogeneous")
    # each monomial Q_lambda of h acts as delta_lambda, which is
    # multinomial(lambda) times the composition that dualize_apply applies
    dual = SSPoly._make({m: n * multinomial(m.partition()) for m, n in h.num.items()}, h.den)
    rhs = kelvin(dualize_apply(dual, kelvin(SSPoly.one())).pr())
    return h * leading_term_scale(n) == rhs
