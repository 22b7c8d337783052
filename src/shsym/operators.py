"""Differential operators on the ring of shifted symmetric polynomials.

All operators act linearly, term by term, with the formal power rule on
the (possibly half-integer) exponents of Q2.  The n-th order operator
`d_op_n` is linear over per-monomial images: the image of one monomial
comes from enumerating multisets of derivative slots drawn from its
support (the defining sum over ordered index vectors has only finitely
many nonzero terms on any polynomial), with integer numerators over the
fixed denominator 2^n.  The lowering operator `d_op` is its order-1 case.
`delta_n` is linear over images of the same kind, each built in integers
from the `d_op_n` images, and the laplacian is half of `delta_n(2)`.
Images are cached per (order, monomial) in bounded LRU caches, since the
Kelvin/delta_lambda composition expands the same monomials many times; a
call combines them in integers and divides once per output monomial.

`pr_laplacian`, the Q1-free part of the laplacian, has a closed form of
its own in integers over the denominator 8, which builds the harmonic
projection behind the basis and the decomposition.  It shares nothing
with the images, so `laplacian(f).pr()` stays an independent check of it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Callable, Iterable

from .partitions import check_partition
from .ssym import Monomial, SSPoly

Operator = Callable[[SSPoly], SSPoly]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def falling_factorial(x: Fraction | int, n: int) -> Fraction:
    """(x)_n = x (x-1) ... (x-n+1); the empty product is 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    x = Fraction(x)
    out = Fraction(1)
    for i in range(n):
        out *= x - i
    return out


def multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod(part!)."""
    parts = list(parts)
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def euler_op(f: SSPoly) -> SSPoly:
    """Multiply each weight-homogeneous component by its weight."""
    return SSPoly({m: c * m.weight() for m, c in f.terms()})


# Entries kept by each of the two caches below; the Kelvin/delta_lambda
# composition of every partition of 18 with parts >= 3 (the oracle of
# `shsym basis 18`) and a weight-18 decomposition fit without an eviction.
_IMAGE_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=_IMAGE_CACHE_SIZE)
def _d_op_n_image(n: int, mono: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """d_op_n(n, mono) as (monomial, numerator) pairs over the denominator 2^n.

    Each multiset of derivative slots {Q_k^t_k} with sum t_k = n contributes
    n!/prod t_k! arrangements, the hook multinomial
    (sum (k-1) t_k)!/prod (k-1)!^t_k and the falling factorials of the
    halved exponents, (e2/2)_t = prod_{i<t} (e2 - 2i) / 2^t.
    """
    acc: dict[Monomial, int] = {}
    support = mono.items2()
    n_fact = factorial(n)

    def add_term(chosen: tuple[tuple[int, int, int], ...]):
        arrangements = n_fact
        hook_weight = 0
        deriv = 1
        changes: dict[int, int] = {}
        for k, e2, t in chosen:
            arrangements //= factorial(t)
            hook_weight += (k - 1) * t
            for i in range(t):
                deriv *= e2 - 2 * i
            changes[k] = -2 * t
        if not deriv:
            return
        inner = factorial(hook_weight)
        for k, _, t in chosen:
            inner //= factorial(k - 1) ** t
        if hook_weight >= 1:
            changes[hook_weight] = changes.get(hook_weight, 0) + 2
        m = mono.shift(changes)
        s = acc.get(m, 0) + arrangements * inner * deriv
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)

    def walk(idx: int, remaining: int, chosen: tuple[tuple[int, int, int], ...]):
        if remaining == 0:
            add_term(chosen)
            return
        if idx == len(support):
            return
        k, e2 = support[idx]
        if k == 2 and (e2 < 0 or e2 % 2):
            cap = remaining  # formal powers of Q2 never exhaust
        else:
            cap = min(remaining, e2 // 2)
        for t in range(cap + 1):
            walk(idx + 1, remaining - t, chosen + ((k, e2, t),) if t else chosen)

    walk(0, n, ())
    return tuple(acc.items())


@lru_cache(maxsize=_IMAGE_CACHE_SIZE)
def _delta_n_image(n: int, mono: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """delta_n(n, mono) as (monomial, numerator) pairs over the denominator 2^n.

    The i-th summand (-1)^i C(n, i) d_op_n(n - i, d_op^i mono) is built from
    the order-1 and order-(n - i) images: d_op^i mono has numerators over
    2^i and each order-(n - i) image over 2^(n - i), so every product is
    over 2^n.  The last two summands are both multiples of d_op^n mono,
    the last lowering, and merge into (-1)^(n-1) (n - 1) d_op^n mono.
    """
    acc: dict[Monomial, int] = {}
    power = {mono: 1}  # d_op^i mono, over 2^i
    for i in range(n):
        if i < n - 1:
            scale = -comb(n, i) if i % 2 else comb(n, i)
            for m, c in power.items():
                for m2, num in _d_op_n_image(n - i, m):
                    acc[m2] = acc.get(m2, 0) + scale * c * num
        lowered: dict[Monomial, int] = {}
        for m, c in power.items():
            for m2, num in _d_op_n_image(1, m):
                lowered[m2] = lowered.get(m2, 0) + c * num
        power = {m: c for m, c in lowered.items() if c}
        if not power:
            break
    scale = n - 1 if n % 2 else 1 - n
    for m, c in power.items():
        acc[m] = acc.get(m, 0) + scale * c
    return tuple((m, s) for m, s in acc.items() if s)


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
    support = mono.items2()

    def add(num: int, *changes: tuple[int, int]):
        m = Monomial(support + changes)
        s = acc.get(m, 0) + num
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)

    for a, (k, ek) in enumerate(support):
        if k == 2:
            add(-2 * ek, (2, -2))
        elif k >= 4:
            add(-2 * ek, (k, -2), (k - 2, 2))
        for l, el in support[a:]:
            num = ek * (ek - 2) if l == k else 2 * ek * el
            if not num:
                continue
            add(comb(k + l - 2, k - 1) * num, (k, -2), (l, -2), (k + l - 2, 2))
            if k >= 3:
                add(-num, (k, -2), (l, -2), (k - 1, 2), (l - 1, 2))
    return tuple(acc.items())


def _apply_images(image, shift: int, f: SSPoly) -> SSPoly:
    """Extend a per-monomial image with numerators over 2^shift linearly to f.

    The coefficients of f are brought to one common denominator, so the
    images combine in integers and each output coefficient is divided once.
    """
    terms = f._terms.items()
    den = lcm(*(c.denominator for _, c in terms))
    acc: dict[Monomial, int] = {}
    for mono, coeff in terms:
        scale = coeff.numerator * (den // coeff.denominator)
        for m, num in image(mono):
            acc[m] = acc.get(m, 0) + scale * num
    den <<= shift
    return SSPoly._wrap({m: Fraction(s, den) for m, s in acc.items() if s})


def _apply_order_n(image, n: int, f: SSPoly) -> SSPoly:
    """An order-n image, over 2^n, applied to f; order 0 is the identity."""
    if n < 0:
        raise ValueError("order must be non-negative")
    if n == 0:
        return f
    return _apply_images(lambda mono: image(n, mono), n, f)


def d_op_n(n: int, f: SSPoly) -> SSPoly:
    """The order-n operator; order 1 is the lowering operator d_op and
    order 0 the identity.  On weight-homogeneous input the weight drops
    by n."""
    return _apply_order_n(_d_op_n_image, n, f)


def d_op(f: SSPoly) -> SSPoly:
    """First-order lowering operator: each Q_k derivative slot emits Q_{k-1}."""
    return d_op_n(1, f)


def delta_n(n: int, f: SSPoly) -> SSPoly:
    """Alternating binomial combination sum_i (-1)^i C(n, i) d_op_n(n - i) d_op^i.

    delta_n(0) is the identity, delta_n(1) vanishes identically and
    delta_n(2) is twice the laplacian.
    """
    return _apply_order_n(_delta_n_image, n, f)


def pr_laplacian(f: SSPoly) -> SSPoly:
    """pr laplacian(f), the Q1-free part of the laplacian, from its closed
    form.  The laplacian commutes with multiplication by Q1, so the Q1 terms
    of f are dropped first."""
    return _apply_images(_pr_laplacian_image, 3, f.pr())


def laplacian(f: SSPoly) -> SSPoly:
    """Half of delta_n(2): half the difference of the order-2 operator and
    the squared lowering, as the delta_n(2) images over 2^3."""
    return _apply_images(lambda mono: _delta_n_image(2, mono), 3, f)


def delta_lambda(lam: Iterable[int], f: SSPoly) -> SSPoly:
    """Multinomial prefactor times the composition of delta_n over the parts.

    The factors commute, so the order of composition is irrelevant; parts
    are applied largest-first, which keeps intermediate supports small.
    """
    lam = check_partition(lam)
    g = f
    for part in lam:
        g = delta_n(part, g)
    return g * multinomial(lam)


def kelvin(f: SSPoly) -> SSPoly:
    """Weight-graded involution: a weight-n component is shifted to weight 3-n.

    Acts componentwise by multiplying with the half-power of Q2 of exponent
    3/2 - n; input must be free of Q1.
    """
    if f.has_q1():
        raise ValueError("Kelvin transform requires input free of Q1")
    acc: dict[Monomial, Fraction] = {}
    for mono, c in f.terms():
        m = mono.shift({2: 3 - 2 * mono.weight()})
        acc[m] = acc.get(m, _ZERO) + c
    return SSPoly(acc)


def dualize_apply(f: SSPoly, g: SSPoly) -> SSPoly:
    """Apply the operator obtained from f by replacing each Q_k with delta_n(k).

    Each monomial of f becomes the composition of the corresponding
    operators (order irrelevant since they commute), scaled by its
    coefficient, and the results are summed.
    """
    if not f.in_r():
        raise ValueError("dualization requires non-negative integer exponents")
    acc = SSPoly.zero()
    for mono, c in f.terms():
        h = g
        for k, e2 in mono.items2():
            for _ in range(e2 // 2):
                h = delta_n(k, h)
        acc = acc + h * c
    return acc


# -- operator combinators and distinguished operators -------------------------


def commutator(a: Operator, b: Operator, f: SSPoly) -> SSPoly:
    """[a, b] applied to f: a(b(f)) - b(a(f))."""
    return a(b(f)) - b(a(f))


def q2_hat(f: SSPoly) -> SSPoly:
    """Multiplication by Q2 - Q1^2/2, the raising member of the sl2 triple."""
    shift = SSPoly.gen(2) - SSPoly.gen(1) * SSPoly.gen(1) * _HALF
    return shift * f


def e_hat(f: SSPoly) -> SSPoly:
    """Shifted weight operator, the Cartan member of the sl2 triple."""
    return euler_op(f) - SSPoly.gen(1) * d_op(f) - f * _HALF
