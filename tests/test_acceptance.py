"""Acceptance criteria, every comparison exact: the paper's tables row by
row, and criteria checked at larger weights or on more samples than their
`verify` suites check them.

The other criteria are tested once: 04 the commutator table and power
identity (suites operators.commutator_table and
operators.q2_power_commutator in tests/test_verify.py), 06 sl2
equivariance (forms.equivariance), 08 the decomposition round trip
(harmonic.direct_sum), 09 the leading terms and the reproduction
identity of every basis element of weight <= 12 (harmonic.basis).
Criterion 10 checks the closed form of the
laplacian on every half-integer power of Q2 from -4 to 12; its comparison
with a two-variable oracle for n <= 6 is
tests/test_operators.py::test_laplacian_q2_powers_closed_form_and_oracle.

Each test prints a single pass line on success; run with `pytest -v
tests/test_acceptance.py` (add -s to see the lines inline).
"""

import random
from fractions import Fraction

from shsym.harmonic import basis_element, harmonic_basis
from shsym.linalg import matrix_rank
from shsym.operators import d_op_n, delta_lambda, laplacian
from shsym.partitions import count_partitions, enumerate_partitions
from shsym.quasimodular import QMForm, depth, is_modular_bracket, recognize
from shsym.reference import even_rows, rows_up_to
from shsym.ssym import Monomial, SSPoly, parse_poly
from shsym.verify import knapsack_bracket, random_element, random_homogeneous

ORDER = 30
SEED = 1729

Q1 = SSPoly.gen(1)


def test_criterion_01_even_table_exact():
    rows = even_rows(10)
    assert len(rows) == 12
    for lam, expr, bracket in rows:
        n = sum(lam)
        h = basis_element(lam)
        assert h == parse_poly(expr), lam
        assert harmonic_basis(n).elements[lam] == h
        coeff, triple = bracket
        assert recognize(knapsack_bracket(h, ORDER), n) == QMForm({triple: coeff}), lam
    print("criterion 1: PASS (12 even rows, polynomials and averages exact)")


def test_criterion_02_odd_table_exact():
    rows = [row for row in rows_up_to(9) if sum(row[0]) % 2]
    assert len(rows) == 8
    for lam, expr, bracket in rows:
        assert bracket is None
        h = basis_element(lam)
        assert h == parse_poly(expr), lam
        assert knapsack_bracket(h, ORDER).is_zero, lam
    print("criterion 2: PASS (8 odd rows, polynomials exact, averages vanish)")


def test_criterion_03_dimension_and_rank():
    p = count_partitions
    for n in range(17):
        hb = harmonic_basis(n)
        expected = p(n) - p(n - 1) - p(n - 2) + p(n - 3)
        assert len(hb.elements) == expected, n
        rows = [dict(h.terms()) for h in hb.elements.values()]
        monos = sorted({m for row in rows for m in row}, key=lambda m: m.sort_key())
        matrix = [[row.get(m, Fraction(0)) for m in monos] for row in rows]
        assert matrix_rank(matrix) == len(rows), n
    print("criterion 3: PASS (counts and full rank for n <= 16)")


def test_criterion_05_higher_operator_commutation():
    rng = random.Random(SEED + 1)
    lams = [lam for n in range(7) for lam in enumerate_partitions(n)]
    for _ in range(10):
        f = random_element(rng, 8)
        for n in range(1, 6):
            for m in range(n, 6):
                assert d_op_n(n, d_op_n(m, f)) == d_op_n(m, d_op_n(n, f))
        q1f = Q1 * f
        for lam in lams:
            assert delta_lambda(lam, q1f) == Q1 * delta_lambda(lam, f), lam
    print("criterion 5: PASS (orders <= 5 commute; partition operators fix Q1)")


def test_criterion_07_modularity_criterion():
    rng = random.Random(SEED + 3)
    for trial in range(20):
        w = 2 * (trial % 5) + 2
        f = random_homogeneous(rng, w, min_part=2)
        modular, form, dec = is_modular_bracket(f, ORDER)
        # the theorem's form against the knapsack and recognize
        assert form == recognize(knapsack_bracket(f, ORDER), w)
        tail_zero = all(knapsack_bracket(h, ORDER).is_zero for h in dec.components[1:])
        assert modular == (depth(form) == 0) == tail_zero
    print("criterion 7: PASS (20 seeded samples, even weights <= 10)")


def test_criterion_10_laplacian_power_regression():
    # the published closed form with the squared-Q1 coefficient -n(n-1)/2,
    # on negative and half-integer exponents as well as positive ones
    for k in range(-8, 25):
        n = Fraction(k, 2)
        got = laplacian(SSPoly({Monomial.from_exponents({2: n}): 1}))
        closed = SSPoly(
            {
                Monomial.from_exponents({2: n - 1}): n * (2 * n - 3) / 2,
                Monomial.from_exponents({1: 2, 2: n - 2}): -n * (n - 1) / 2,
            }
        )
        assert got == closed, n
    print("criterion 10: PASS (closed form on Q2^n, n in {-4, -7/2, ..., 12})")
