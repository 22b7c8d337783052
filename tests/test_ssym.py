import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shsym.partitions import enumerate_partitions
from shsym.ssym import (
    Monomial,
    ParseError,
    SSPoly,
    beta,
    eval_at,
    eval_qk,
    format_poly,
    format_poly_latex,
    parse_poly,
)
from shsym.verify import oracle_beta, proof_monomials

Q1, Q2, Q3, Q4 = (SSPoly.gen(k) for k in (1, 2, 3, 4))


def test_beta_values():
    assert beta(0) == 1
    assert beta(1) == 0
    assert beta(2) == Fraction(-1, 24)
    assert beta(3) == 0
    assert beta(4) == Fraction(7, 5760)


def test_beta_matches_independent_inversion():
    # every generator a CLI job can bracket: q_bracket and the knapsack
    # share beta, so only the Bernoulli route checks it
    monomials, _ = proof_monomials()
    top = max(k for m in monomials for mono in m.num for k, _ in mono)
    for k in range(top + 1):
        assert beta(k) == oracle_beta(k), k


def test_eval_qk_examples():
    for lam in [(), (1,), (3, 2), (5, 5, 1)]:
        assert eval_qk(1, lam) == 0
    assert eval_qk(2, (2, 1)) == Fraction(71, 24)
    assert eval_qk(3, (1,)) == 0
    assert eval_qk(0, (4, 2)) == 1


def test_eval_qk_q2_is_size_shift():
    for n in range(10):
        for lam in enumerate_partitions(n):
            assert eval_qk(2, lam) == n - Fraction(1, 24)


def test_eval_examples():
    assert eval_at(Q2, ()) == Fraction(-1, 24)
    assert eval_at(SSPoly.one(), (5, 2)) == 1
    assert eval_at(Q2**2, (1,)) == Fraction(529, 576)


def test_eval_applies_projection_first():
    f = Q1 * Q3 + Q4
    for lam in [(), (2, 1), (4,)]:
        assert eval_at(f, lam) == eval_at(Q4, lam)


def test_eval_rejects_bad_exponents():
    with pytest.raises(ValueError):
        eval_at(parse_poly("Q2^(3/2)"), (1,))
    with pytest.raises(ValueError):
        eval_at(parse_poly("Q2^-1"), (1,))


def test_eval_is_multiplicative():
    rng = random.Random(7)
    for _ in range(15):
        f = random_poly(rng)
        g = random_poly(rng)
        for lam in [(), (1,), (3, 1), (2, 2, 1)]:
            assert eval_at(f * g, lam) == eval_at(f, lam) * eval_at(g, lam)


def test_eval_sums_over_the_lcm_of_the_denominators():
    # many terms with unequal denominators, term by term in Fractions
    rng = random.Random(11)
    for _ in range(10):
        f = sum((random_poly(rng, max_gen=12, max_terms=8) for _ in range(5)), SSPoly.zero())
        f = SSPoly({m: c / rng.randint(1, 30) for m, c in f.terms()})
        for lam in [(), (1,), (4, 2), (7, 3, 3, 1)]:
            want = Fraction(0)
            for mono, c in f.terms():
                for k, e2 in mono:
                    c *= eval_qk(k, lam) ** (e2 // 2) if k != 1 else 0
                want += c
            assert eval_at(f, lam) == want


def test_eval_bounds_the_integers_it_builds():
    from shsym.ssym import MAX_EVAL_DIGITS, MAX_EVAL_WORK_DIGITS

    lam = (30, 20, 10)
    # one monomial whose every factor is within the parse limits
    product = parse_poly("*".join(f"Q{k}^100" for k in range(3, 101)))
    with pytest.raises(ValueError, match=f"more than {MAX_EVAL_DIGITS} digits before"):
        eval_at(product, lam)
    # monomials that share most factors, so their lcm stays within the first limit
    total = parse_poly(
        "*".join(f"Q{k}^100" for k in range(3, 16)) + "*(" + "+".join(f"Q{k}" for k in range(30, 70)) + ")^2"
    )
    with pytest.raises(ValueError, match=f"more than {MAX_EVAL_WORK_DIGITS} digits of monomials"):
        eval_at(total, lam)
    # well inside both: the largest product of the CLI test that still prints
    assert eval_at(parse_poly("Q20^10"), (5, 3)).denominator > 1


# -- ring structure ------------------------------------------------------------


def random_poly(rng, max_gen=5, max_terms=4, half=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(1, max_gen)
            exps[k] = exps.get(k, 0) + rng.randint(1, 2)
        if half and rng.random() < 0.4:
            exps[2] = exps.get(2, 0) + Fraction(rng.choice([-3, -1, 1, 3]), 2)
        terms[Monomial.from_exponents(exps)] = Fraction(
            rng.randint(-8, 8), rng.randint(1, 3)
        )
    return SSPoly(terms)


def test_additive_inverse():
    assert (Q2 + (-1) * Q2).is_zero


def test_half_exponent_multiplication():
    root = parse_poly("Q2^(1/2)")
    assert root * root == Q2
    assert parse_poly("Q2^(-1/2)") * parse_poly("Q2^(3/2)") == Q2


def test_difference_of_squares():
    assert (Q2 + Q3) * (Q2 - Q3) == Q2**2 - Q3**2


def test_monomial_rules():
    with pytest.raises(ValueError):
        Monomial.from_exponents({3: Fraction(1, 2)})
    with pytest.raises(ValueError):
        Monomial.from_exponents({4: -1})
    with pytest.raises(ValueError):
        Monomial.from_exponents({0: 1})
    m = Monomial.from_exponents({2: Fraction(-3, 2)})
    assert m.exponent2(2) == -3
    assert m.weight() == -3
    # shift and mul merge the exponents once and store them through the
    # constructor's checks, with the same messages
    import re

    q3 = Monomial(((3, 2),))
    for make, message in (
        (lambda: Monomial(((0, 2),)), "generator index must be >= 1, got Q0"),
        (lambda: q3.shift({0: 2}), "generator index must be >= 1, got Q0"),
        (lambda: q3.shift({3: -4}), "only Q2 may carry negative or half-integer exponents (Q3^(-2/2))"),
        (lambda: q3.shift({4: 1}), "only Q2 may carry negative or half-integer exponents (Q4^(1/2))"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()
    assert q3.shift({3: -2, 2: -3}) == Monomial(((2, -3),))
    assert q3.mul(m).mul(q3) == Monomial(((3, 4), (2, -3)))


def test_monomial_is_its_sorted_tuple_of_pairs():
    import pickle

    from shsym.ssym import MONO_ONE

    assert issubclass(Monomial, tuple) and Monomial.__slots__ == ()
    for name in ("_e2", "_hash", "_store", "_from_merged", "items2", "__init__"):
        assert name not in vars(Monomial), name
    assert "__eq__" not in vars(Monomial) and "__hash__" not in vars(Monomial)
    pairs = ((4, 2), (2, -3), (3, 4), (7, 2))
    m = Monomial(pairs)
    assert tuple(m) == tuple(sorted(pairs)) and len(m) == 4
    assert hash(m) == hash(tuple(m))
    # pairs in any order, and split pairs of one generator, build one monomial
    rng = random.Random(3)
    for _ in range(10):
        shuffled = list(pairs) + [(3, 0), (4, 2), (4, -2)]
        rng.shuffle(shuffled)
        assert Monomial(shuffled) == m and hash(Monomial(shuffled)) == hash(m)
    assert Monomial(((5, 2), (5, -2))) == MONO_ONE == Monomial(()) and not MONO_ONE
    copy = pickle.loads(pickle.dumps(m))
    assert type(copy) is Monomial and copy == m
    assert repr(m) == "Monomial(Q2^(-3/2)*Q3^2*Q4*Q7)"


st_scalar = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)
st_mono = st.dictionaries(
    st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=3), max_size=3
)
st_poly = st.builds(
    lambda pairs: sum(
        (SSPoly({Monomial.from_exponents(m): c}) for m, c in pairs), SSPoly.zero()
    ),
    st.lists(st.tuples(st_mono, st_scalar), max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(st_poly, st_poly, st_poly)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)


@settings(max_examples=40, deadline=None)
@given(st_poly, st_poly)
def test_projection_is_ring_homomorphism(f, g):
    assert f.pr().pr() == f.pr()
    assert (f * g).pr() == f.pr() * g.pr()
    assert (f + g).pr() == f.pr() + g.pr()


def test_projection_examples():
    assert (Q1 * Q3 + Q4).pr() == Q4
    assert (Q2**2).pr() == Q2**2
    assert (Q1**2).pr().is_zero


# -- grading ---------------------------------------------------------------------


def test_weight_components_examples():
    f = Q2**2 + 2 * Q4
    assert f.weight_components() == {4: f}
    g = SSPoly.one() + Q3
    assert g.weight_components() == {0: SSPoly.one(), 3: Q3}
    half = parse_poly("Q2^(3/2)")
    assert half.weight_components() == {3: half}


def test_weight_of_homogeneous():
    assert (Q3 * Q4).weight() == 7
    assert parse_poly("Q2^(-1/2)").weight() == -1
    with pytest.raises(ValueError):
        (SSPoly.one() + Q3).weight()


# -- text form --------------------------------------------------------------------


def test_parse_examples():
    h4 = parse_poly("27/4*Q2^2 + 27/2*Q4")
    assert h4 == Q2**2 * Fraction(27, 4) + Q4 * Fraction(27, 2)
    assert parse_poly("Q2^(3/2)") == SSPoly({Monomial(((2, 3),)): 1})
    with pytest.raises(ParseError):
        parse_poly("Q3^(1/2)")


def test_parse_error_carries_position():
    try:
        parse_poly("Q2 + Q3^(1/2)")
    except ParseError as exc:
        assert exc.position == 8
    else:
        raise AssertionError("expected a parse error")


def test_parse_rejects_garbage():
    for bad in ["", "Q", "2 +", "(Q2", "Q2^^2", "Q2^(1/3)", "1/0", "x"]:
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_parse_accepts_grammar_variants():
    assert parse_poly("Q0") == SSPoly.one()
    assert parse_poly("(Q2+Q3)^2") == (Q2 + Q3) ** 2
    assert parse_poly("2^-1*Q2") == Q2 * Fraction(1, 2)
    assert parse_poly("-Q3") == -Q3
    assert parse_poly("Q2^-2") == SSPoly({Monomial(((2, -4),)): 1})
    assert parse_poly(" 27/4 * Q2 ^ 2 ") == Q2**2 * Fraction(27, 4)


def test_parse_bounds_the_expansion_of_products_and_powers():
    from shsym.ssym import MAX_TERMS

    a = "+".join(f"Q{k}" for k in range(1, 101))
    b = "+".join(f"Q{k}^3" for k in range(1, 101))  # Q_i * Q_j^3 are all distinct
    assert MAX_TERMS == 100 * 100
    assert len(parse_poly(f"({a})*({b})")) == MAX_TERMS
    assert parse_poly("(1+Q2)^100") == (SSPoly.one() + Q2) ** 100
    # a sum is bounded by the terms it holds, not by how many it adds
    assert len(parse_poly(f"({a})*({b}) + Q1^4 - Q1^4 + Q1^4")) == MAX_TERMS
    for bad in (f"({a})*({b}+Q1^5)", "(Q1+Q2+Q3+Q4+Q5+Q6+Q7+Q8+Q9)^100", f"({a})*({b}) + 1"):
        with pytest.raises(ParseError, match="expansion larger than"):
            parse_poly(bad)


def test_power_of_a_sum_is_bounded_at_each_successive_product():
    from math import comb

    from shsym.ssym import MAX_TERMS

    # (1+Q3+Q4)^k has C(k+2, 2) terms, and the power is multiplied out one
    # factor at a time: ^81 is admitted (its last product bounds 3321 * 3
    # terms) and ^82 refused at its last product (3403 * 3)
    f = parse_poly("(1+Q3+Q4)^81")
    assert len(f) == comb(83, 2)
    assert f.coeff(Monomial(((3, 80), (4, 82)))) == comb(81, 40)
    with pytest.raises(ParseError) as exc:
        parse_poly("(1+Q3+Q4)^82")
    assert str(exc.value) == f"expansion larger than {MAX_TERMS} terms (at position 10)"


def test_parse_of_a_sum_equals_the_sum_of_its_terms():
    # few monomials, so terms repeat and cancel; one sum in four cancels out
    rng = random.Random(7)
    monos = {"1": SSPoly.one(), "Q3": Q3, "Q2^2*Q4": Q2**2 * Q4, "Q2^(-1/2)": SSPoly({Monomial(((2, -1),)): 1})}
    for trial in range(200):
        terms = []
        for _ in range(rng.randint(1, 12)):
            c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            text, f = rng.choice(list(monos.items()))
            terms.append((rng.choice("+-"), f"{c}*{text}", f * c))
        if trial % 4 == 0:
            terms += [("-" if sign == "+" else "+", text, f) for sign, text, f in terms]
        expr, want = "", SSPoly.zero()
        for sign, text, f in terms:
            expr += f" {sign} {text}" if expr or sign == "-" else text
            want = want + f if sign == "+" else want - f
        got = parse_poly(expr)
        assert got == want, expr
        assert all(got.num.values()), expr  # no term cancelled to zero is kept
        if trial % 4 == 0:
            assert got.is_zero, expr


def test_parse_bounds_the_generator_index():
    from shsym.ssym import MAX_GENERATOR

    assert parse_poly(f"Q{MAX_GENERATOR}") == SSPoly.gen(MAX_GENERATOR)
    for bad in (f"Q{MAX_GENERATOR + 1}", "Q3000", "2*Q" + "9" * 5000):
        with pytest.raises(ParseError, match=f"generator index larger than {MAX_GENERATOR}"):
            parse_poly(bad)


def test_parse_bounds_the_exponents_and_constants_a_product_reaches():
    from shsym.ssym import MAX_CONSTANT_DIGITS, MAX_EXPONENT

    assert parse_poly("Q2^100*Q2^-1") == Q2**99
    assert parse_poly("Q2^60*Q3^60") == Q2**60 * Q3**60
    assert parse_poly("(2^100)^10") == SSPoly.constant(2**1000)
    assert parse_poly("9" * MAX_CONSTANT_DIGITS) == SSPoly.constant(int("9" * MAX_CONSTANT_DIGITS))
    for bad in ("Q2^100*Q2", "Q2^(-199/2)*Q2^-1", "(Q3^10)^11"):
        with pytest.raises(ParseError, match=f"product exponent of Q[23] larger than {MAX_EXPONENT}"):
            parse_poly(bad)
    for bad in ("(10^100)^10", "(1/10^100)^10", "(2^100)^-100"):
        with pytest.raises(ParseError, match=f"constant longer than {MAX_CONSTANT_DIGITS} digits"):
            parse_poly(bad)
    with pytest.raises(ParseError, match="number longer than"):
        parse_poly("1" * (MAX_CONSTANT_DIGITS + 1))


def test_format_examples():
    assert format_poly(SSPoly.zero()) == "0"
    assert format_poly(-Q3) == "-Q3"
    assert format_poly(parse_poly("Q2^(-1/2)")) == "Q2^(-1/2)"
    assert format_poly(Q2**2 * Fraction(27, 4) + Q4 * Fraction(27, 2)) == (
        "27/4*Q2^2 + 27/2*Q4"
    )


@pytest.mark.parametrize(
    "expr,text,latex",
    [
        ("-3/2*Q3 + 5 + Q2", "5 + Q2 - 3/2*Q3", r"5 + Q_2 - \frac{3}{2} Q_3"),
        ("-2*Q3 + 1", "1 - 2*Q3", r"1 - 2 Q_3"),
        ("-Q4 - 7/2", "-7/2 - Q4", r"-\frac{7}{2} - Q_4"),
        ("Q2^(-1/2)", "Q2^(-1/2)", r"Q_2^{-1/2}"),
        ("Q2^(3/2)", "Q2^(3/2)", r"Q_2^{3/2}"),
        ("-Q12 + 7/3*Q3^10", "-Q12 + 7/3*Q3^10", r"-Q_{12} + \frac{7}{3} Q_3^{10}"),
        (
            "Q2^10*Q12^2 - 1/4*Q2^(-3/2)",
            "-1/4*Q2^(-3/2) + Q2^10*Q12^2",
            r"-\frac{1}{4} Q_2^{-3/2} + Q_2^{10} Q_{12}^2",
        ),
        ("-2 + Q2^-1", "Q2^-1 - 2", r"Q_2^{-1} - 2"),
        ("0", "0", "0"),
    ],
)
def test_format_poly_golden(expr, text, latex):
    f = parse_poly(expr)
    assert format_poly(f) == text
    assert format_poly_latex(f) == latex


def test_format_order_is_weight_major():
    f = Q4 + Q2 + SSPoly.constant(3)
    assert format_poly(f) == "3 + Q2 + Q4"


def test_roundtrip_random():
    rng = random.Random(99)
    for _ in range(60):
        f = random_poly(rng, half=True)
        assert parse_poly(format_poly(f)) == f
