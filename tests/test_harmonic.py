import random
from fractions import Fraction

import pytest

from shsym.harmonic import (
    Decomposition,
    basis_element,
    decompose,
    depth_ss,
    dim_h,
    harmonic_basis,
    is_harmonic,
    lambda_star_basis,
    leading_term_check,
    leading_term_scale,
    unusual_identity_check,
)
from shsym.linalg import matrix_rank
from shsym.operators import laplacian
from shsym.partitions import count_partitions, enumerate_min_part
from shsym.ssym import SSPoly, format_poly, parse_poly
from shsym.verify import random_harmonic, random_homogeneous

Q1, Q2, Q3, Q4 = (SSPoly.gen(k) for k in (1, 2, 3, 4))
H4 = parse_poly("27/4*Q2^2 + 27/2*Q4")


def test_lambda_star_basis_examples():
    assert [format_poly(b) for b in lambda_star_basis(4)] == ["Q4", "Q2^2"]
    assert [format_poly(b) for b in lambda_star_basis(5)] == ["Q5", "Q2*Q3"]
    assert [format_poly(b) for b in lambda_star_basis(2)] == ["Q2"]
    assert lambda_star_basis(0) == (SSPoly.one(),)
    assert lambda_star_basis(1) == ()
    assert lambda_star_basis(-2) == ()


def test_lambda_star_dimension():
    for n in range(2, 18):
        assert len(lambda_star_basis(n)) == count_partitions(n) - count_partitions(n - 1)


def test_is_harmonic_examples():
    assert is_harmonic(Q3)
    assert not is_harmonic(Q2)
    assert is_harmonic(H4)
    with pytest.raises(ValueError):
        is_harmonic(Q1 * Q3)
    with pytest.raises(ValueError):
        is_harmonic(parse_poly("Q2^(3/2)"))


def test_decompose_examples():
    assert decompose(Q2**2).components == (SSPoly.zero(), SSPoly.zero(), SSPoly.one())
    assert decompose(Q4).components == (
        parse_poly("1/2*Q2^2 + Q4"),
        SSPoly.zero(),
        SSPoly.constant(Fraction(-1, 2)),
    )
    assert decompose(H4).components == (H4, SSPoly.zero(), SSPoly.zero())


def test_decompose_reconstructs_every_monomial():
    for n in range(15):
        for b in lambda_star_basis(n):
            dec = decompose(b)
            assert len(dec.components) == n // 2 + 1
            assert dec.reconstruct() == b
            for h in dec.components:
                assert is_harmonic(h)


def test_decompose_uniqueness():
    rng = random.Random(71)
    for n in (4, 6, 8, 10):
        for _ in range(4):
            h = random_harmonic(rng, n)
            g = random_homogeneous(rng, n - 2, min_part=2)
            dec = decompose(h + Q2 * g)
            assert dec.components[0] == h
            tail = Decomposition(dec.components[1:])
            assert tail.reconstruct() == g


def test_decompose_mixed_weights():
    f = Q2**2 + Q3
    dec = decompose(f)
    assert dec.reconstruct() == f
    assert dec.components[0] == Q3
    assert dec.components[2] == SSPoly.one()


def test_decompose_rejects_q1_and_half_powers():
    with pytest.raises(ValueError):
        decompose(Q1 * Q2)
    with pytest.raises(ValueError):
        decompose(parse_poly("Q2^(1/2)"))


def test_dim_examples():
    assert dim_h(10) == 5
    assert dim_h(2) == 0
    assert dim_h(0) == 1
    assert dim_h(-1) == 0
    assert dim_h(3) == 1


def test_depth_examples():
    assert depth_ss(H4) == 0
    assert depth_ss(Q2**2) == 2
    assert depth_ss(Q4) == 2
    assert depth_ss(SSPoly.zero()) == 0


def test_depth_of_shifted_harmonics():
    rng = random.Random(79)
    for r in range(5):
        for n in (3, 4, 6):
            h = sum(
                (basis_element(lam) * rng.randint(1, 3) for lam in enumerate_min_part(n, 3)),
                SSPoly.zero(),
            )
            assert depth_ss(Q2**r * h) == r


def test_harmonic_basis_small_weights():
    assert harmonic_basis(3).elements == {(3,): parse_poly("-9/4*Q3")}
    assert harmonic_basis(4).elements == {(4,): H4}
    hb6 = harmonic_basis(6)
    assert hb6.elements[(6,)] == parse_poly("225/4*(63*Q6 + 9*Q2*Q4 + Q2^3)")
    assert hb6.elements[(3, 3)] == parse_poly("225/4*(63*Q3^2 - 108*Q2*Q4 + 2*Q2^3)")
    assert harmonic_basis(2).elements == {}
    assert harmonic_basis(0).elements == {(): SSPoly.one()}


def test_basis_counts_and_independence():
    for n in range(15):
        hb = harmonic_basis(n)
        assert len(hb.elements) == dim_h(n)
        rows = []
        monos = set()
        for h in hb.elements.values():
            assert is_harmonic(h)
            assert h.in_lambda_star()
            assert h.weight() == n or h.is_zero
            coords = dict(h.terms())
            rows.append(coords)
            monos |= set(coords)
        ordered = sorted(monos, key=lambda m: m.sort_key())
        matrix = [[row.get(m, Fraction(0)) for m in ordered] for row in rows]
        assert matrix_rank(matrix) == len(rows)


def test_leading_term_examples():
    assert leading_term_check(())
    assert leading_term_check((3,))
    assert leading_term_check((4,))
    assert leading_term_scale(3) == Fraction(-9, 4)
    assert leading_term_scale(4) == Fraction(27, 2)
    assert leading_term_scale(0) == 1
    # n! (3/2)_n with the falling factorial in Fractions, to every weight
    # a basis element can have and past it
    from math import factorial

    from shsym.operators import falling_factorial

    for n in range(41):
        assert leading_term_scale(n) == factorial(n) * falling_factorial(Fraction(3, 2), n), n
    with pytest.raises(ValueError):
        leading_term_scale(-1)
    with pytest.raises(ValueError):
        leading_term_check((2, 1))


def test_unusual_identity_examples():
    assert unusual_identity_check(basis_element((3,)), 3)
    assert unusual_identity_check(H4, 4)
    assert unusual_identity_check(basis_element((3, 3)), 6)
    with pytest.raises(ValueError):
        unusual_identity_check(Q2, 2)


def test_unusual_identity_on_random_harmonics():
    rng = random.Random(83)
    for n in (6, 8):
        h = random_harmonic(rng, n)
        if h.is_zero:
            continue
        assert unusual_identity_check(h, n)


def test_closed_form_peel_matches_dense_inverse():
    from shsym.harmonic import _peel
    from shsym.verify import oracle_t_solve

    rng = random.Random(101)
    for n in range(17):
        monos = [b.terms()[0][0] for b in lambda_star_basis(n + 2)]
        f = SSPoly({m: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for m in monos})
        h, g = _peel(f, n + 2)
        assert all(type(v) is int for v in g.num.values()) and type(g.den) is int, n
        assert g == oracle_t_solve(n, laplacian(f).pr()), n
        assert f == h + Q2 * g, n
        assert is_harmonic(h), n


def test_decompose_raises_on_a_perturbed_peel(monkeypatch):
    from shsym import harmonic
    from shsym.ssym import LinearSolveError

    f = parse_poly("Q4^2 + Q2*Q3^2 - 2*Q2^4")
    t_inverse = harmonic._t_inverse

    def perturbed(m):
        # the coefficient of Y in T^-1 off by one: g is wrong
        first, *rest = t_inverse(m)
        return (first + 1, *rest)

    monkeypatch.setattr(harmonic, "_t_inverse", perturbed)
    h, g = harmonic._peel(f, 8)
    # the split still adds up, so only the harmonicity check can catch it
    assert f == h + Q2 * g and not is_harmonic(h)
    with pytest.raises(LinearSolveError):
        decompose(f)


def test_basis_element_equals_the_kelvin_composition():
    from shsym.verify import suite_basis_oracle

    # every partition of weight <= 18, parts 1 and 2 included, where both
    # are zero
    ok, detail = suite_basis_oracle(random.Random(1), 18, 30)
    assert ok, detail
    for lam in ((1,), (2,), (2, 2), (5, 3, 1), (4, 2), (3, 3, 2, 1)):
        assert basis_element(lam).is_zero, lam


def test_harmonic_caches_are_bounded_and_cover_the_cli_caps():
    from shsym.harmonic import _pr_laplacian_image
    from shsym.verify import proof_monomials

    # a CLI job meets only the Q1-free monomials on which verify proves the
    # closed forms, of weight <= MAX_WEIGHT or of an even weight qbracket
    # decomposes: every one of them fits, so no job computes an image twice
    monomials = len(proof_monomials()[0])
    assert monomials == 4889
    assert monomials <= _pr_laplacian_image.cache_info().maxsize < 2 * monomials
