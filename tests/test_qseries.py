import random
from fractions import Fraction

import pytest

from shsym.harmonic import basis_element
from shsym.operators import e_hat, laplacian, q2_hat
from shsym.partitions import enumerate_min_part, enumerate_partitions
from shsym.qseries import (
    QSeries,
    d_series,
    eisenstein,
    partition_gf,
    q_bracket,
    sigma,
)
from shsym.ssym import Monomial, SSPoly, parse_poly
from shsym.qseries import _moment_knapsack
from shsym.reference import rows_up_to
from shsym.verify import oracle_brackets, oracle_row_sums, random_element

Q2 = SSPoly.gen(2)


def test_series_arithmetic_examples():
    one_plus_q = QSeries([1, 1], 6)
    assert (one_plus_q - one_plus_q).is_zero
    geom = QSeries([1] * 7)
    assert QSeries([1, -1], 6) * geom == QSeries.one(6)
    assert QSeries([2, 4], 5) * Fraction(1, 2) == QSeries([1, 2], 5)


def test_series_equality_uses_common_order():
    assert QSeries([1, 1], 3) == QSeries([1, 1], 9)
    assert QSeries([1, 1], 3) != QSeries([1, 2], 9)


def test_series_order_shrinks_to_smaller_operand():
    a = QSeries([1, 2, 3], 2)
    b = QSeries([1, 1], 1)
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_series_str():
    assert str(QSeries([1, -24, -72], 2)) == "1 - 24*q - 72*q^2 + O(q^3)"
    assert str(QSeries.zero(4)) == "0 + O(q^5)"
    assert str(QSeries([Fraction(-1, 24), 1], 1)) == "-1/24 + q + O(q^2)"


@pytest.mark.parametrize(
    "coeffs,order,text",
    [
        ([], 3, "0 + O(q^4)"),
        ([-2, 1, 0, Fraction(-1, 3), -1], 5, "-2 + q - 1/3*q^3 - q^4 + O(q^6)"),
        ([0, 1, -1, 2], None, "q - q^2 + 2*q^3 + O(q^4)"),
        ([0, -1], None, "-q + O(q^2)"),
    ],
)
def test_series_str_golden(coeffs, order, text):
    assert str(QSeries(coeffs, order)) == text


def test_inverse():
    gf = partition_gf(15)
    assert gf * gf.inverse() == QSeries.one(15)
    with pytest.raises(ZeroDivisionError):
        QSeries([0, 1], 3).inverse()


def test_partition_gf_examples():
    assert partition_gf(3) == QSeries([1, 1, 2, 3])
    assert partition_gf(0) == QSeries([1])
    assert partition_gf(10).coeff(10) == 42


def test_sigma_by_direct_divisor_sums():
    for n in range(1, 40):
        for k in (1, 3, 5):
            assert sigma(k, n) == sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_eisenstein_leading_coefficients():
    p = eisenstein(2, 6)
    q = eisenstein(4, 6)
    r = eisenstein(6, 6)
    assert p.coeffs[:3] == (1, -24, -72)
    assert q.coeffs[:3] == (1, 240, 2160)
    assert r.coeffs[:3] == (1, -504, -16632)
    with pytest.raises(ValueError):
        eisenstein(8, 6)


def test_d_series_examples():
    assert d_series(QSeries.one(5)).is_zero
    assert d_series(QSeries([0, 1], 5)) == QSeries([0, 1], 5)


def test_q_bracket_examples():
    assert q_bracket(SSPoly.one(), 10) == QSeries.one(10)
    assert q_bracket(Q2, 20) == eisenstein(2, 20) * Fraction(-1, 24)
    assert q_bracket(basis_element((3,)), 25).is_zero


def test_q_bracket_against_direct_definition():
    rng = random.Random(97)
    fs = [random_element(rng, 6) for _ in range(5)]
    for f, want in zip(fs, oracle_brackets(fs, 12)):
        assert q_bracket(f, 12) == want


def random_kernel_input(rng):
    """Random monomials of weight <= 12 plus a Q2-power term, a Q1 term and
    a constant, with small nonzero coefficients."""
    terms = {Monomial(()): rng.randint(1, 9)}
    with_q1 = rng.choice(enumerate_partitions(rng.randint(0, 6))) + (1,)
    terms[Monomial.from_partition(with_q1)] = 5
    q2_free = rng.choice(enumerate_min_part(rng.choice([0, 3, 4, 6]), 3))
    terms[Monomial.from_partition(q2_free + (2,) * rng.randint(1, 3))] = -3
    for _ in range(4):
        lam = rng.choice(enumerate_min_part(rng.randint(2, 12), 2))
        terms[Monomial.from_partition(lam)] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
    return SSPoly(terms)


@pytest.mark.parametrize("order", [0, 1, 12, 24])
def test_q_bracket_kernel_equals_direct_summation(order):
    rng = random.Random(1000 + order)
    fs = [random_kernel_input(rng) for _ in range(4)]
    for f, want in zip(fs, oracle_brackets(fs, order)):
        assert q_bracket(f, order) == want, format(f)


def random_generator_product(rng):
    """A product of up to 4 generators from Q3..Q8 with exponents up to 4."""
    gens = rng.sample(range(3, 9), rng.randint(1, 4))
    return Monomial((k, 2 * rng.randint(1, 4)) for k in gens)


@pytest.mark.parametrize("order", [0, 1, 12, 24, 36])
def test_knapsack_equals_row_sums(order):
    rng = random.Random(2000 + order)
    monos = {
        Monomial(t for t in m.items2() if t[0] != 2)
        for lam, _, _ in rows_up_to(10)
        for m, _ in basis_element(lam).pr().terms()
    }
    monos |= {random_generator_product(rng) for _ in range(4)}
    for m in sorted(monos, key=Monomial.sort_key):
        assert _moment_knapsack(m, order) == oracle_row_sums(m, order), m


@pytest.mark.parametrize("expr", ["Q3^10", "Q32", "Q16^2", "Q8*Q7*Q6*Q5*Q4*Q3", "Q4^4*Q3^5"])
def test_knapsack_widest_slots_equal_row_sums(expr):
    # the monomials whose packed slots are widest at order 30
    [(m, _)] = parse_poly(expr).terms()
    assert _moment_knapsack(m, 30) == oracle_row_sums(m, 30)


def test_q_bracket_never_lists_partitions(monkeypatch):
    import sys

    from shsym import partitions

    def refuse(*args):
        raise AssertionError("q_bracket listed partitions")

    for name in ("enumerate_partitions", "enumerate_min_part"):
        original = getattr(partitions, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "shsym" or mod_name.startswith("shsym."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, refuse)
    _moment_knapsack.cache_clear()
    f = parse_poly("1 + Q2^3 - 2/3*Q6 + Q2*Q4^2 + Q3^2*Q5 + Q1*Q3")
    assert not q_bracket(f, 36).is_zero


def test_q2_bracket_is_minus_p_over_24_at_order_30():
    want = eisenstein(2, 30) * Fraction(-1, 24)
    assert q_bracket(Q2, 30).coeffs == want.coeffs
    assert oracle_brackets([Q2], 30)[0].coeffs == want.coeffs


def test_q_bracket_rejects_bad_exponents():
    with pytest.raises(ValueError):
        q_bracket(parse_poly("Q2^(1/2)"), 10)


def test_sl2_images_under_bracket_vanish_consistently():
    # odd-weight input: every bracket in sight vanishes
    f = parse_poly("Q3 + Q2*Q1")
    for g in (f, q2_hat(f).pr(), laplacian(f).pr(), e_hat(f).pr()):
        assert q_bracket(g.pr(), 15).is_zero
