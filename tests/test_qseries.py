import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from shsym.harmonic import basis_element
from shsym.operators import e_hat, laplacian, q2_hat
from shsym.partitions import enumerate_min_part, enumerate_partitions
from shsym.qseries import QSeries, d_series, eisenstein, partition_gf, q_bracket, sigma
from shsym.reference import rows_up_to
from shsym.ssym import Monomial, SSPoly, eval_at, parse_poly
from shsym.verify import (
    _moment_knapsack,
    knapsack_bracket,
    proof_monomials,
    random_element,
    unpack_signed,
)

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


def test_series_equality_across_orders_that_reduce_differently():
    half = QSeries([Fraction(1, 2)])
    assert half == QSeries([Fraction(1, 2), Fraction(1, 3)])  # denominators 2 and 6
    assert half == QSeries([Fraction(1, 2), 5])
    assert QSeries([Fraction(1, 2), Fraction(1, 3)]) != QSeries([Fraction(1, 2), 5])
    assert QSeries([Fraction(1, 2), Fraction(1, 3)], 0) == QSeries([Fraction(1, 2), 5], 0)


def test_series_stay_in_lowest_terms():
    rng = random.Random(3)

    def draw():
        return QSeries(
            Fraction(rng.randint(-9, 9) * rng.randint(0, 1), rng.choice((1, 2, 3, 6, 35)))
            for _ in range(rng.randint(1, 12))
        )

    for _ in range(40):
        a, b = draw(), draw()
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        results = [a, -a, a + b, a - b, a * b, a * c, c * b, d_series(a)]
        if a.num[0]:
            results.append(a.inverse())
        for s in results:
            assert s.den > 0 and gcd(s.den, *s.num) == 1, s
    assert (QSeries([Fraction(1, 2), Fraction(3, 2)]) * 2).den == 1
    assert (QSeries([Fraction(1, 3), 1]) - QSeries([Fraction(1, 3), 0])).den == 1
    assert QSeries.zero(3).den == 1
    with pytest.raises(ValueError):
        QSeries([1], den=0)


def _in_lowest_terms(f):
    return f.den > 0 and all(f.num.values()) and gcd(f.den, *f.num.values()) == 1


def test_polynomials_stay_in_lowest_terms():
    from shsym.harmonic import _slots, pr_laplacian
    from shsym.quasimodular import QMForm, frak_d, recognize
    from shsym.verify import random_homogeneous, random_qmform

    rng = random.Random(4)

    def scalar():
        return Fraction(rng.choice((-6, -3, -2, 1, 2, 4, 35)), rng.choice((1, 2, 3, 6, 35)))

    def draw(make, weights):
        # over denominators that share factors, so that sums and products reduce
        parts = [make(rng, w) * scalar() for w in weights]
        return sum(parts[1:], parts[0])

    for _ in range(20):
        n = 2 * rng.randint(2, 5)
        a = draw(random_homogeneous, (n, rng.randint(0, 6)))
        b = draw(random_homogeneous, (n, rng.randint(0, 6)))
        f = draw(lambda r, w: random_homogeneous(r, w, 2), (n, n))
        x = draw(random_qmform, (2 * rng.randint(0, 4), 2 * rng.randint(0, 4)))
        y = draw(random_qmform, (2 * rng.randint(0, 4),))
        c = scalar()
        results = [a + b, a - b, a - a, -a, a * b, a * c, c * b, a * 6, a / c, a.pr(), pr_laplacian(a)]
        results += [x + y, x - y, x - x, -x, x * y, x * c, c * y, x * 6, x / c, frak_d(x)]
        results += [*a.weight_components().values(), *x.weight_components().values(), *_slots(f, n)]
        results += _slots(Q2 * c, 2)  # slots 0 and c: pr laplacian(Q2) = -1/2
        results.append(recognize(knapsack_bracket(f, 30), n))
        for g in results:
            assert _in_lowest_terms(g), repr(g)
    half = SSPoly.constant(Fraction(1, 2))
    assert (half * 2).den == 1 and (half - half).den == 1 and SSPoly.zero().den == 1
    assert (QMForm.gen("P") * Fraction(5, 6) * Fraction(6, 5)).den == 1


def test_polynomials_read_out_the_same_fractions():
    # the terms, Fraction types included, pinned by a digest of their repr
    # from when every coefficient was stored as a Fraction
    from shsym.harmonic import decompose, harmonic_basis
    from shsym.quasimodular import recognize

    got = [(lam, h.terms()) for lam, h in harmonic_basis(12).elements.items()]
    got += [h.terms() for h in decompose(parse_poly("5/3*Q4*Q12 + 4/5*Q2^2*Q3^2*Q6 + 4/3*Q16 - 1*Q2^8")).components]
    for e, w in (("Q4^2", 8), ("Q3^2 - 1/2*Q2*Q4", 6), ("Q6 + 1/3*Q2^3 - 5/7*Q3^2", 6)):
        got.append(recognize(knapsack_bracket(parse_poly(e), 30), w).terms())
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == "064bd04a3b7ab7d619cb91c249fa41cfc29a409d401437d2268d8eef40375602"


def test_coeffs_read_out_the_same_fractions():
    # the coefficient tuples, Fraction types included, pinned by a digest of
    # their repr from when every coefficient was stored as a Fraction
    exprs = ("Q3^2*Q5*Q7", "Q4^3 + Q2*Q3^2", "1 - 2/3*Q6 + Q2*Q4^2", "Q2")
    got = [knapsack_bracket(parse_poly(e), 30).coeffs for e in exprs]
    got += [eisenstein(k, 40).coeffs for k in (2, 4, 6)]
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == "b10dca6d152241930ac0cc0e77a49579b36ae9b7e6396cf5e217a0cd714aa5f3"


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
    # f(lambda) evaluated one partition at a time, not by generator columns
    rng = random.Random(97)
    order = 12
    for f in [random_element(rng, 6) for _ in range(5)]:
        total = QSeries([sum(eval_at(f, lam) for lam in enumerate_partitions(n)) for n in range(order + 1)])
        assert q_bracket(f, order) == total * partition_gf(order).inverse(), format(f)


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


@pytest.mark.parametrize("order", [0, 1, 12, 24, 36])
def test_q_bracket_kernel_equals_direct_summation(order):
    # the knapsack, which lists no partition, against the definition
    rng = random.Random(1000 + order)
    fs = [random_kernel_input(rng) for _ in range(4)]
    for f in fs:
        assert q_bracket(f, order) == knapsack_bracket(f, order), format(f)


def test_q_bracket_equals_direct_summation_on_every_sturm_prefix():
    # Every slot a CLI job brackets has even weight k <= 32, so it is summed
    # to its Sturm order k // 12 + 1 <= 3, and every term of it is one of
    # proof_monomials.  q_bracket is linear, and a lower order is a prefix
    # of order 3, so this proves every bracket a CLI job computes.
    monomials, _ = proof_monomials()
    assert len(monomials) == 4889
    for m in monomials:
        assert q_bracket(m, 3) == knapsack_bracket(m, 3), m


def test_q_bracket_rejects_bad_exponents():
    with pytest.raises(ValueError):
        q_bracket(parse_poly("Q2^(1/2)"), 10)


def test_sl2_images_under_bracket_vanish_consistently():
    # odd-weight input: every bracket in sight vanishes
    f = parse_poly("Q3 + Q2*Q1")
    for g in (f, q2_hat(f).pr(), laplacian(f).pr(), e_hat(f).pr()):
        assert q_bracket(g.pr(), 15).is_zero


# -- the knapsack oracle of shsym.verify ----------------------------------------


def random_generator_product(rng):
    """A product of up to 4 generators from Q3..Q8 with exponents up to 4."""
    gens = rng.sample(range(3, 9), rng.randint(1, 4))
    return Monomial((k, 2 * rng.randint(1, 4)) for k in gens)


@pytest.mark.parametrize("order", [0, 1, 12, 24, 36])
def test_knapsack_equals_row_sums(order):
    rng = random.Random(2000 + order)
    monos = {
        Monomial(t for t in m if t[0] != 2)
        for lam, _, _ in rows_up_to(10)
        for m, _ in basis_element(lam).pr().terms()
    }
    monos |= {random_generator_product(rng) for _ in range(4)}
    for m in sorted(monos, key=Monomial.sort_key):
        f = SSPoly({m: 1})
        assert knapsack_bracket(f, order) == q_bracket(f, order), m


@pytest.mark.parametrize("expr", ["Q3^10", "Q32", "Q16^2", "Q8*Q7*Q6*Q5*Q4*Q3", "Q4^4*Q3^5"])
def test_knapsack_widest_slots_equal_row_sums(expr):
    # the monomials whose packed slots are widest at order 30
    f = parse_poly(expr)
    assert knapsack_bracket(f, 30) == q_bracket(f, 30)


def test_knapsack_equals_row_sums_on_every_table_monomial_at_order_30():
    # The knapsack numerator is linear in the Q2-free monomials it sums, so
    # agreeing on each one proves knapsack_bracket on every `tables` row at
    # order 30, where forms.theorem_path compares the rows' forms with it
    # (order 30 only; at -N 40 the verify suite samples).
    from shsym.ssym import MAX_TABLE_WEIGHT

    monos = [Monomial.from_partition(lam) for w in range(MAX_TABLE_WEIGHT + 1) for lam in enumerate_min_part(w, 3)]
    assert len(monos) == 96
    for m in monos:
        f = SSPoly({m: 1})
        assert knapsack_bracket(f, 30) == q_bracket(f, 30), m
    # Conjugating partitions maps Q_k to (-1)^k Q_k, so an odd-weight
    # monomial sums to zero at every size.  With Q2 a factor and Q1 terms
    # dropped, this proves that the bracket of every odd-weight input whose
    # Q2-free monomials have parts >= 3 and weight <= 16 vanishes at order
    # 30, as bracket_form assumes when it leaves odd components out.
    odd = [m for m in monos if m.weight() % 2]
    assert len(odd) == 41
    for m in odd:
        assert not any(_moment_knapsack(m, 30)[1]), m


def test_knapsack_bracket_never_lists_partitions(monkeypatch):
    import sys

    from shsym import partitions

    def refuse(*args):
        raise AssertionError("knapsack_bracket listed partitions")

    for name in ("enumerate_partitions", "enumerate_min_part"):
        original = getattr(partitions, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "shsym" or mod_name.startswith("shsym."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, refuse)
    _moment_knapsack.cache_clear()
    f = parse_poly("1 + Q2^3 - 2/3*Q6 + Q2*Q4^2 + Q3^2*Q5 + Q1*Q3")
    assert not knapsack_bracket(f, 36).is_zero


def test_q2_bracket_is_minus_p_over_24_at_order_30():
    want = eisenstein(2, 30) * Fraction(-1, 24)
    assert knapsack_bracket(Q2, 30).coeffs == want.coeffs
    assert q_bracket(Q2, 30).coeffs == want.coeffs


def test_unpack_signed_reads_slots_that_need_the_sign_bit():
    # slots of one sign as large as the width allows set the top bit of
    # each slot, so only the sign convention tells them from their carries
    for width in (2, 7, 13):
        big = 2 ** (width - 1) - 1
        for n in range(1, 20):
            for cs in ([big] * n, [-big] * n, [big, -big] * n, [-1, 0] * n):
                x = sum(c << width * i for i, c in enumerate(cs))
                assert unpack_signed(x, width, len(cs)) == cs
    # bits above the slots read are ignored
    assert unpack_signed(3 + (-2 << 8) + (7 << 16), 8, 2) == [3, -2]
