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
Kelvin/delta_lambda composition expands the same monomials many times.
A call combines them with the input's integer numerators
(`ssym._linear_numerators`): the result is an element over the input's
denominator times the image's, reduced to lowest terms once.

This is the operator algebra by definition, and no CLI job but `verify`
runs it.  The harmonic layer solves and certifies with its own closed form
of the projected laplacian, which shares nothing with the images;
`laplacian(f).pr()` is its independent reference, which `verify` compares
with it on every Q1-free monomial of weight <= `ssym.MAX_WEIGHT`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterable

from .partitions import check_partition
from .ssym import Monomial, SSPoly, _linear_numerators

Operator = Callable[[SSPoly], SSPoly]

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
    return f._make({m: n * m.weight() for m, n in f.num.items()}, f.den)


# Entries kept by each of the two caches below; the Kelvin/delta_lambda
# composition of every partition of 18 with parts >= 3 (the oracle of
# `shsym basis 18`) fits without an eviction, as does a default `verify`.
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
        if idx == len(mono):
            return
        k, e2 = mono[idx]
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


def _apply_order_n(image, n: int, f: SSPoly) -> SSPoly:
    """An order-n image, over 2^n, applied to f; order 0 is the identity."""
    if n < 0:
        raise ValueError("order must be non-negative")
    if n == 0:
        return f
    return _linear_numerators(lambda mono: image(n, mono), f, 1 << n)


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


def laplacian(f: SSPoly) -> SSPoly:
    """Half of delta_n(2): half the difference of the order-2 operator and
    the squared lowering, as the delta_n(2) images over 2^3."""
    return _linear_numerators(lambda mono: _delta_n_image(2, mono), f, 8)


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
    acc: dict[Monomial, int] = {}
    for mono, n in f.num.items():
        m = mono.shift({2: 3 - 2 * mono.weight()})
        acc[m] = acc.get(m, 0) + n
    return f._make(acc, f.den)


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
        for k, e2 in mono:
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
