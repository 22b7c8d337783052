import random
from fractions import Fraction

import pytest

from shsym.operators import (
    commutator,
    d_op,
    d_op_n,
    delta_lambda,
    delta_n,
    dualize_apply,
    e_hat,
    euler_op,
    falling_factorial,
    kelvin,
    laplacian,
    multiply_by,
    q2_hat,
)
from shsym.ssym import Monomial, SSPoly, format_poly, parse_poly
from shsym.verify import oracle_d_op, oracle_d_op_n, oracle_delta_n, random_laurent

Q1, Q2, Q3, Q4 = (SSPoly.gen(k) for k in (1, 2, 3, 4))
HALF = Fraction(1, 2)


def random_poly(rng, max_gen=5, max_terms=4, half=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = {}
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(1, max_gen)
            exps[k] = exps.get(k, 0) + rng.randint(1, 2)
        if half and rng.random() < 0.5:
            exps[2] = exps.get(2, 0) + Fraction(rng.choice([-3, -1, 1, 3]), 2)
        terms[Monomial.from_exponents(exps)] = Fraction(rng.randint(-6, 6))
    return SSPoly(terms)


def test_d_op_examples():
    assert d_op(Q3) == Q2
    assert d_op(SSPoly.one()).is_zero
    assert d_op(Q2**2) == 2 * Q1 * Q2
    assert d_op(Q1) == SSPoly.one()


def test_d_op_is_a_derivation():
    rng = random.Random(3)
    for _ in range(10):
        f, g = random_poly(rng, half=True), random_poly(rng, half=True)
        assert d_op(f * g) == d_op(f) * g + f * d_op(g)


def test_euler_examples():
    assert euler_op(Q3 * Q4) == 7 * Q3 * Q4
    assert euler_op(SSPoly.one()).is_zero
    assert euler_op(parse_poly("Q2^(3/2)")) == 3 * parse_poly("Q2^(3/2)")


def test_d_op_n_examples():
    assert d_op_n(2, Q2**2) == 4 * Q2
    assert d_op_n(3, Q4).is_zero
    rng = random.Random(5)
    for _ in range(10):
        f = random_poly(rng, half=True)
        assert d_op_n(1, f) == oracle_d_op(f)
        assert d_op_n(0, f) == f


def test_d_op_n_matches_ordered_tuple_oracle():
    rng = random.Random(11)
    for _ in range(12):
        f = random_poly(rng, max_gen=4, max_terms=2, half=True)
        # rational coefficients with unequal denominators
        f = SSPoly({m: c / rng.randint(1, 6) for m, c in f.terms()})
        for n in range(6):
            assert d_op_n(n, f) == oracle_d_op_n(n, f), (n, format_poly(f))


def test_d_op_n_image_cache_is_bounded():
    from shsym.harmonic import basis_element
    from shsym.operators import _d_op_n_image, _delta_n_image, _shared
    from shsym.partitions import enumerate_min_part

    caches = (_d_op_n_image, _delta_n_image, _shared)
    for cache in caches:
        cache.cache_clear()
    build = basis_element.__wrapped__  # bypass the per-partition cache
    for lam in enumerate_min_part(18, 3):
        build(lam)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None
        # `shsym basis 18` fits without an eviction
        assert info.currsize == info.misses < info.maxsize


def test_d_op_n_image_cache_is_thread_safe():
    import sys
    import threading

    from shsym.harmonic import basis_element
    from shsym.operators import _d_op_n_image, _delta_n_image, _shared
    from shsym.partitions import enumerate_min_part

    build = basis_element.__wrapped__  # bypass the per-partition cache
    lams = enumerate_min_part(12, 3)
    caches = (_d_op_n_image, _delta_n_image, _shared)
    for cache in caches:
        cache.cache_clear()
    serial = [build(lam) for lam in lams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for cache in caches:
                cache.cache_clear()
            start = threading.Barrier(4, timeout=30)
            results = [None] * 4

            def work(slot):
                start.wait()
                # each thread starts at a different partition
                order = list(range(len(lams)))
                order = order[slot:] + order[:slot]
                got = [None] * len(lams)
                for i in order:
                    got[i] = build(lams[i])
                results[slot] = got

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [serial] * 4
    finally:
        sys.setswitchinterval(interval)


def test_weight_drop():
    rng = random.Random(13)
    for w in range(2, 11):
        f = SSPoly.zero()
        while f.is_zero:
            f = random_poly(rng).weight_components().get(w, SSPoly.zero())
            if f.is_zero:
                f = SSPoly.from_monomial({w: 1})
        for n in range(6):
            g = d_op_n(n, f)
            if not g.is_zero:
                assert g.weight() == w - n


# -- the laplacian ----------------------------------------------------------------


def oracle_two_variable_laplacian(poly):
    """Independent laplacian on the subring generated by Q1 and Q2.

    States are dicts {(a, b): coeff} for Q1^a Q2^b; the two second-order
    parts are assembled directly from explicit partial derivatives.
    """

    def d1(p):
        return {(a - 1, b): c * a for (a, b), c in p.items() if a}

    def d2(p):
        return {(a, b - 1): c * b for (a, b), c in p.items() if b}

    def mul_q(p, da, db):
        return {(a + da, b + db): c for (a, b), c in p.items()}

    def add(*ps):
        out = {}
        for p in ps:
            for key, c in p.items():
                out[key] = out.get(key, Fraction(0)) + c
        return {k: c for k, c in out.items() if c}

    def lower(p):  # Q0 d/dQ1 + Q1 d/dQ2
        return add(d1(p), mul_q(d2(p), 1, 0))

    curly = add(d1(d1(poly)), mul_q(d2(d1(poly)), 1, 0), mul_q(d1(d2(poly)), 1, 0),
                mul_q(d2(d2(poly)), 0, 1), mul_q(d2(d2(poly)), 0, 1))
    square = lower(lower(poly))
    return {
        k: (curly.get(k, Fraction(0)) - square.get(k, Fraction(0))) / 2
        for k in set(curly) | set(square)
    }


def to_q1q2(poly_dict):
    return sum(
        (
            SSPoly.from_monomial({1: a, 2: b}, c)
            for (a, b), c in poly_dict.items()
            if c
        ),
        SSPoly.zero(),
    )


def test_laplacian_examples():
    assert laplacian(Q3) == Q1 * Fraction(-1, 2)
    assert laplacian(Q2) == SSPoly.constant(Fraction(-1, 2))
    assert laplacian(Q2**2) == Q2 - Q1**2


def test_laplacian_q2_powers_closed_form_and_oracle():
    # regression for the published closed form: the squared-Q1 coefficient
    # is -n(n-1)/2, confirmed by the independent two-variable oracle
    for n in range(1, 7):
        got = laplacian(Q2**n)
        closed = Q2 ** (n - 1) * Fraction(2 * n - 3, 2) * n
        if n >= 2:
            closed = closed - Q1**2 * Q2 ** (n - 2) * Fraction(n * (n - 1), 2)
        assert got == closed, n
        oracle = to_q1q2(oracle_two_variable_laplacian({(0, n): Fraction(1)}))
        assert got == oracle, n


def test_laplacian_matches_oracle_on_q1_q2_ring():
    rng = random.Random(17)
    for _ in range(15):
        state = {
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5))
            for _ in range(3)
        }
        state = {k: c for k, c in state.items() if c}
        f = to_q1q2(state)
        assert laplacian(f) == to_q1q2(oracle_two_variable_laplacian(state))


# -- the alternating family --------------------------------------------------------


def test_delta_n_normalizations():
    rng = random.Random(19)
    for _ in range(10):
        f = random_poly(rng, half=True)
        assert delta_n(0, f) == f
        assert delta_n(1, f).is_zero
        assert delta_n(2, f) == 2 * laplacian(f)


def test_delta_n_defining_sum():
    # the binomial sum over the two oracle primitives
    rng = random.Random(23)
    for _ in range(6):
        f = random_poly(rng, max_terms=2, half=True)
        for n in range(5):
            assert delta_n(n, f) == oracle_delta_n(n, f)
    samples = [SSPoly.zero(), kelvin(SSPoly.one())]
    # rational coefficients, extra Q2 powers in {-3, -5/2, ..., 3}
    samples += [random_laurent(rng, 5) for _ in range(8)]
    for f in samples:
        for n in range(7):
            assert delta_n(n, f) == oracle_delta_n(n, f), (n, format_poly(f))


def test_delta_lambda_examples():
    rng = random.Random(29)
    f = random_poly(rng, half=True)
    assert delta_lambda((), f) == f
    assert delta_lambda((2,), f) == 2 * laplacian(f)
    seed = parse_poly("Q2^(3/2)")
    expected = parse_poly(
        "-9/4*Q2^(-3/2)*Q3 + 9/4*Q1*Q2^(-1/2) - 3/4*Q1^3*Q2^(-3/2)"
    )
    assert delta_lambda((3,), seed) == expected


def test_delta_lambda_prefactor():
    f = parse_poly("Q2^(3/2)")
    assert delta_lambda((2, 2), f) == 6 * delta_n(2, delta_n(2, f))
    assert delta_lambda((3, 2), f) == 10 * delta_n(3, delta_n(2, f))


def test_higher_operators_commute():
    rng = random.Random(31)
    for _ in range(4):
        f = random_poly(rng, half=True)
        for n in range(1, 6):
            for m in range(n + 1, 6):
                assert d_op_n(n, d_op_n(m, f)) == d_op_n(m, d_op_n(n, f))


def test_delta_lambda_q1_commutation():
    rng = random.Random(37)
    lams = [(2,), (3,), (2, 2), (4,), (3, 2), (5,), (2, 2, 2), (6,), (3, 3)]
    for _ in range(3):
        f = random_poly(rng)
        for lam in lams:
            assert delta_lambda(lam, Q1 * f) == Q1 * delta_lambda(lam, f)


# -- kelvin -----------------------------------------------------------------------


def test_kelvin_examples():
    k1 = kelvin(SSPoly.one())
    assert k1 == parse_poly("Q2^(3/2)")
    assert kelvin(k1) == SSPoly.one()
    assert kelvin(Q3) == parse_poly("Q2^(-3/2)*Q3")


def test_kelvin_is_weight_graded_involution():
    rng = random.Random(41)
    for _ in range(10):
        f = random_poly(rng, half=True)
        if f.has_q1():
            with pytest.raises(ValueError):
                kelvin(f)
            continue
        assert kelvin(kelvin(f)) == f


def test_kelvin_preserves_harmonicity():
    rng = random.Random(43)
    for _ in range(8):
        f = random_poly(rng, half=True)
        f = SSPoly({m: c for m, c in f.terms() if not m.has_q1()})
        if f.is_zero:
            continue
        if laplacian(f).pr().is_zero:
            assert laplacian(kelvin(f)).pr().is_zero


def test_kelvin_rejects_q1():
    with pytest.raises(ValueError):
        kelvin(Q1)


# -- dualization --------------------------------------------------------------------


def test_dualize_examples():
    rng = random.Random(47)
    g = random_poly(rng, half=True)
    assert dualize_apply(Q3, g) == delta_n(3, g)
    assert dualize_apply(SSPoly.one(), g) == g
    assert dualize_apply(Q2**2, g) == 4 * laplacian(laplacian(g))


def test_dualize_rejects_half_exponents():
    with pytest.raises(ValueError):
        dualize_apply(parse_poly("Q2^(1/2)"), SSPoly.one())


# -- commutators -------------------------------------------------------------------


def test_commutator_examples():
    rng = random.Random(53)
    for _ in range(8):
        f = random_poly(rng)
        assert commutator(d_op, multiply_by(Q1), f) == f
        assert commutator(euler_op, d_op, f) == -d_op(f)
        assert commutator(laplacian, multiply_by(Q2), f) == (
            euler_op(f) - Q1 * d_op(f) - f * HALF
        )


def test_full_commutator_table():
    rng = random.Random(59)
    q1m, q2m = multiply_by(Q1), multiply_by(Q2)
    for _ in range(12):
        f = random_poly(rng)
        assert commutator(laplacian, d_op, f).is_zero
        assert commutator(laplacian, euler_op, f) == 2 * laplacian(f)
        assert commutator(laplacian, q1m, f).is_zero
        assert commutator(laplacian, q2m, f) == euler_op(f) - Q1 * d_op(f) - f * HALF
        assert commutator(d_op, euler_op, f) == d_op(f)
        assert commutator(d_op, q1m, f) == f
        assert commutator(d_op, q2m, f) == Q1 * f
        assert commutator(euler_op, q1m, f) == Q1 * f
        assert commutator(euler_op, q2m, f) == 2 * Q2 * f
        assert commutator(q1m, q2m, f).is_zero


def test_sl2_triple():
    rng = random.Random(61)
    for _ in range(12):
        f = random_poly(rng)
        assert commutator(e_hat, q2_hat, f) == 2 * q2_hat(f)
        assert commutator(e_hat, laplacian, f) == -2 * laplacian(f)
        assert commutator(laplacian, q2_hat, f) == e_hat(f)


def test_q2_power_commutator_identity():
    rng = random.Random(67)
    for n in range(1, 7):
        for _ in range(4):
            f = random_poly(rng)
            got = laplacian(Q2**n * f) - Q2**n * laplacian(f)
            want = n * Q2 ** (n - 1) * (euler_op(f) + Fraction(2 * n - 3, 2) * f)
            want = want - n * Q1 * Q2 ** (n - 1) * d_op(f)
            if n >= 2:
                want = want - Fraction(n * (n - 1), 2) * Q1**2 * Q2 ** (n - 2) * f
            assert got == want, n


def test_falling_factorial():
    assert falling_factorial(Fraction(3, 2), 0) == 1
    assert falling_factorial(Fraction(3, 2), 3) == Fraction(-3, 8)
    assert falling_factorial(5, 3) == 60
    with pytest.raises(ValueError):
        falling_factorial(2, -1)
