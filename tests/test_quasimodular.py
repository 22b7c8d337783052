import random
from fractions import Fraction

import pytest

from shsym import linalg, quasimodular, verify
from shsym.harmonic import basis_element, decompose
from shsym.linalg import LinearSolveError
from shsym.partitions import enumerate_min_part
from shsym.qseries import QSeries, d_series, eisenstein, partition_gf
from shsym.quasimodular import (
    InsufficientOrderError,
    QMForm,
    RecognitionError,
    bracket_form,
    check_recognizable,
    d_hat,
    depth,
    expand,
    format_qmform,
    format_qmform_latex,
    frak_d,
    is_modular_bracket,
    monomials_of_weight,
    ramanujan_d,
    recognize,
    slots_form,
    w_hat,
)
from shsym.reference import ROWS
from shsym.ssym import SSPoly
from shsym.verify import knapsack_bracket, oracle_recognize, random_qmform

P = QMForm.gen("P")
Q = QMForm.gen("Q")
R = QMForm.gen("R")


def test_monomials_of_weight():
    assert monomials_of_weight(0) == [(0, 0, 0)]
    assert monomials_of_weight(4) == [(2, 0, 0), (0, 1, 0)]
    assert len(monomials_of_weight(12)) == 7
    assert monomials_of_weight(3) == []
    for k in range(0, 21, 2):
        for (a, b, c) in monomials_of_weight(k):
            assert 2 * a + 4 * b + 6 * c == k


def test_recognize_order_check_counts_the_weight_monomials():
    from shsym.quasimodular import RECOGNITION_MARGIN

    for k in range(0, 201, 2):
        needed = len(monomials_of_weight(k)) + RECOGNITION_MARGIN
        with pytest.raises(InsufficientOrderError, match=f"needs at least {needed} coeff"):
            recognize(QSeries.zero(needed - 2), k)
        if k <= 12:
            assert recognize(QSeries.zero(needed - 1), k).is_zero


def test_expand_examples():
    assert expand(QMForm.one(), 8) == QSeries.one(8)
    assert expand(P, 8) == eisenstein(2, 8)
    s = expand(Q * Fraction(9, 320), 8)
    assert s.coeff(0) == Fraction(9, 320)


def test_expand_is_multiplicative():
    rng = random.Random(3)
    for _ in range(6):
        m1 = random_qmform(rng, 4)
        m2 = random_qmform(rng, 6)
        assert expand(m1 * m2, 15) == expand(m1, 15) * expand(m2, 15)


def test_recognize_table_rows():
    h4 = basis_element((4,))
    assert recognize(knapsack_bracket(h4, 30), 4) == QMForm({(0, 1, 0): Fraction(9, 320)})
    h33 = basis_element((3, 3))
    assert recognize(knapsack_bracket(h33, 30), 6) == QMForm({(0, 0, 1): Fraction(115, 384)})
    assert recognize(knapsack_bracket(SSPoly.gen(2), 30), 2) == QMForm(
        {(1, 0, 0): Fraction(-1, 24)}
    )


def test_recognize_rejects_non_quasimodular():
    with pytest.raises(RecognitionError):
        recognize(partition_gf(30), 2)


def test_recognize_insufficient_order():
    with pytest.raises(InsufficientOrderError):
        recognize(QSeries.one(5), 2)


def test_recognize_rejects_odd_weight():
    with pytest.raises(ValueError):
        recognize(QSeries.zero(30), 3)


def test_recognize_expand_roundtrip():
    rng = random.Random(5)
    for w in range(0, 13, 2):
        for _ in range(3):
            m = random_qmform(rng, w)
            assert recognize(expand(m, 30), w) == m


def _outcome(recognizer, s, k):
    try:
        return recognizer(s, k)
    except (ValueError, LinearSolveError) as exc:
        return type(exc), str(exc)


def _admitted(k, order):
    return order + 1 >= len(monomials_of_weight(k)) + quasimodular.RECOGNITION_MARGIN


def test_recognize_equals_oracle():
    for lam, _, bracket in ROWS:
        k = sum(lam)
        s = knapsack_bracket(basis_element(lam), 30)
        got = _outcome(recognize, s, k)
        assert got == _outcome(oracle_recognize, s, k), lam
        if bracket is not None:
            coeff, triple = bracket
            assert got == QMForm({triple: coeff}), lam
    rng = random.Random(11)
    for k in range(0, 33, 2):
        smallest = next(n for n in range(200) if _admitted(k, n))
        for order in sorted({smallest, 30, 40}):
            if not _admitted(k, order):
                continue
            m = random_qmform(rng, k)
            s = expand(m, order)
            assert recognize(s, k) == oracle_recognize(s, k) == m, (k, order)
            if k == 0 or order != smallest:
                continue  # a constant stays a constant
            # row 0 is a pivot row of every weight; the last row is margin
            for row in (0, order):
                coeffs = list(s.coeffs)
                coeffs[row] += Fraction(1, 7)
                bad = QSeries(coeffs)
                got = _outcome(recognize, bad, k)
                assert got == _outcome(oracle_recognize, bad, k)
                assert got == (RecognitionError, f"not quasimodular of weight {k} at this order")
    for s, k in ((QSeries.one(5), 2), (QSeries.one(30), -2)):
        assert _outcome(recognize, s, k) == _outcome(oracle_recognize, s, k)


def test_every_recognition_the_cli_admits_is_full_rank():
    # recognize raises LinearSolveError("underdetermined"), which the
    # command line does not catch, when its columns do not pin down a form.
    # At the least admitted order of each weight -N admits, every triple
    # has a pivot; more rows cannot lower the rank.
    from shsym.ssym import MAX_ORDER

    with pytest.raises(InsufficientOrderError):
        check_recognizable(34, MAX_ORDER)
    for k in range(0, 33, 2):
        order = next(n for n in range(MAX_ORDER + 1) if _admitted(k, n))
        check_recognizable(k, order)
        with pytest.raises(InsufficientOrderError):
            check_recognizable(k, order - 1)
        columns = quasimodular._columns(k, order)
        assert list(columns) == monomials_of_weight(k)
        assert linalg.matrix_rank([list(row) for row in zip(*columns.values())]) == len(columns), k


def test_rank_deficient_columns_are_underdetermined(monkeypatch):
    # With E4 replaced by E2^2 the weight-4 columns P^2 and Q coincide
    e2 = eisenstein(2, 30)
    fake = {2: e2, 4: e2 * e2, 6: eisenstein(6, 30)}
    quasimodular._columns.cache_clear()
    for module in (quasimodular, verify):
        monkeypatch.setattr(module, "eisenstein", lambda k, order: fake[k])
    try:
        for recognizer in (recognize, oracle_recognize):
            assert _outcome(recognizer, e2 * e2 * 3, 4) == (LinearSolveError, "linear system is underdetermined")
            assert _outcome(recognizer, e2 * e2 + QSeries([0, 1], 30), 4) == (
                RecognitionError,
                "not quasimodular of weight 4 at this order",
            )
    finally:
        monkeypatch.undo()
        quasimodular._columns.cache_clear()


def test_ramanujan_identities():
    twelve_dp = ramanujan_d(P) * 12
    assert twelve_dp == P * P - Q
    assert ramanujan_d(Q) * 3 == P * Q - R
    assert ramanujan_d(R) * 2 == P * R - Q * Q
    assert ramanujan_d(QMForm.one()).is_zero
    assert ramanujan_d(Q * Q) == Q * (P * Q - R) * Fraction(2, 3)


def test_ramanujan_d_matches_series_derivative():
    for m in (P, Q, R, P * Q, Q * R, P * P * P):
        assert expand(ramanujan_d(m), 25) == d_series(expand(m, 25))


def test_frak_d_examples():
    assert frak_d(P) == QMForm.constant(12)
    assert frak_d(Q).is_zero
    assert frak_d(P * P * Q) == P * Q * 24


def test_hat_operators():
    dh1 = d_hat(QMForm.one())
    assert format_qmform(dh1) == "-1/24*P"
    assert depth(dh1) == 1
    assert w_hat(Q) == Q * Fraction(7, 2)
    assert depth(d_hat(dh1)) == 2
    with pytest.raises(ValueError):
        w_hat(QMForm.one() + Q)


def test_depth_examples():
    assert depth(P * P * Q) == 2
    assert depth(Q * Fraction(9, 320)) == 0
    assert depth(QMForm.zero()) == 0


def test_depth_raising():
    rng = random.Random(7)
    for w in range(0, 11, 2):
        for _ in range(4):
            m = random_qmform(rng, w)
            if m.is_zero:
                continue
            assert depth(d_hat(m)) == depth(m) + 1


def test_qm_sl2_triple():
    rng = random.Random(11)
    for w in range(0, 11, 2):
        m = random_qmform(rng, w)
        assert w_hat(d_hat(m)) - d_hat(w_hat(m)) == 2 * d_hat(m)
        assert w_hat(frak_d(m)) - frak_d(w_hat(m)) == -2 * frak_d(m)
        assert frak_d(d_hat(m)) - d_hat(frak_d(m)) == w_hat(m)


def test_format_examples():
    assert format_qmform(QMForm.zero()) == "0"
    assert format_qmform(Q * Fraction(9, 320)) == "9/320*Q"
    assert format_qmform(P * Fraction(-1, 24)) == "-1/24*P"
    assert format_qmform(Q * Q * Fraction(19173, 4096)) == "19173/4096*Q^2"
    assert format_qmform(Q * R * Fraction(7759395, 1024)) == "7759395/1024*Q*R"


@pytest.mark.parametrize(
    "terms,text,latex",
    [
        (
            {(12, 0, 0): Fraction(-1, 3), (0, 10, 1): 2, (0, 0, 0): 5},
            "-1/3*P^12 + 2*Q^10*R + 5",
            r"-\frac{1}{3} P^{12} + 2 Q^{10} R + 5",
        ),
        ({(0, 0, 0): -1}, "-1", "-1"),
        ({(1, 0, 0): Fraction(-1, 24)}, "-1/24*P", r"-\frac{1}{24} P"),
        ({(0, 9, 0): 3, (0, 0, 1): -1}, "3*Q^9 - R", "3 Q^9 - R"),
        ({}, "0", "0"),
    ],
)
def test_format_qmform_golden(terms, text, latex):
    m = QMForm(terms)
    assert format_qmform(m) == text
    assert format_qmform_latex(m) == latex


def test_is_modular_bracket_examples():
    h4 = basis_element((4,))
    ok, form, dec = is_modular_bracket(h4, 30)
    assert ok and form == QMForm({(0, 1, 0): Fraction(9, 320)})
    assert dec.components[0] == h4

    ok, form, dec = is_modular_bracket(SSPoly.gen(2), 30)
    assert not ok and format_qmform(form) == "-1/24*P"
    assert [str(h) for h in dec.components] == ["0", "1"]

    ok, form, dec = is_modular_bracket(SSPoly.gen(3), 30)
    assert ok and form.is_zero
    assert dec.components[0] == SSPoly.gen(3)


def test_is_modular_bracket_in_a_process_that_loaded_only_recognition():
    # is_modular_bracket loads the harmonic layer when it is called
    import os
    import subprocess
    import sys

    import shsym

    script = (
        "import sys\n"
        "import shsym.quasimodular as qm\n"
        "assert 'shsym.harmonic' not in sys.modules\n"
        "ok, form, dec = qm.is_modular_bracket(qm.SSPoly.gen(2), 30)\n"
        "print(ok, qm.format_qmform(form), [str(h) for h in dec.components])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shsym.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False -1/24*P ['0', '1']\n"


def test_is_modular_bracket_rejects_bad_input():
    with pytest.raises(ValueError):
        is_modular_bracket(SSPoly.gen(1), 30)
    with pytest.raises(ValueError):
        is_modular_bracket(SSPoly.gen(2) + SSPoly.gen(3), 30)
    # refused as bracket_form refuses, before the decomposition is solved
    with pytest.raises(ValueError, match="^order must be non-negative$"):
        is_modular_bracket(SSPoly.gen(4), -1)
    with pytest.raises(InsufficientOrderError, match="^insufficient order: weight 4 needs at least 12 coefficients, got 6$"):
        is_modular_bracket(SSPoly.gen(4), 5)


def test_slots_form_refuses_every_shifted_basis_element_as_one_slot():
    # Q2^r h is not harmonic, and its bracket d_hat^r(<h>_q) is not modular;
    # only the spare coefficient past the Sturm prefix can show it, so a
    # solve that keeps no spare row returns a form here
    q2 = SSPoly.gen(2)
    refused = 0
    for n in range(4, 15, 2):
        for lam in enumerate_min_part(n, 3):
            for r in (1, 2):
                with pytest.raises(RecognitionError, match=f"^not modular of weight {n + 2 * r} at this order$"):
                    slots_form((q2**r * basis_element(lam),), n + 2 * r, 40)
                refused += 1
    assert refused == 66


def test_slots_form_raises_each_tail_slot_by_d_hat():
    h4 = basis_element((4,))
    zero = SSPoly.zero()
    # <Q2 h_(4)>_q = d_hat(9/320 Q) = 21/2560 P Q - 3/320 R
    assert slots_form((zero, h4), 6, 30) == QMForm({(1, 1, 0): Fraction(21, 2560), (0, 0, 1): Fraction(-3, 320)})
    assert slots_form((zero, SSPoly.one()), 2, 30) == P * Fraction(-1, 24)
    assert slots_form((zero, zero, h4), 8, 30) == d_hat(d_hat(Q * Fraction(9, 320)))
    rng = random.Random(25)
    for w in (2, 4, 6, 8, 10, 12, 14, 16):
        f = verify.random_homogeneous(rng, w, min_part=2)
        assert slots_form(decompose(f).components, w, 40) == recognize(knapsack_bracket(f, 40), w), w


def test_slots_form_refuses_what_bracket_form_refuses():
    def outcome(call):
        try:
            return call()
        except (ValueError, InsufficientOrderError) as exc:
            return type(exc), str(exc)

    for lam in ((), (3,), (4,), (7,), (8,), (13, 3), (16,)):
        h, n = basis_element(lam), sum(lam)
        for order in (-1, 0, 9, 10, 13, 18, 19):
            want = outcome(lambda: bracket_form(h, order, n)[1])
            if isinstance(want, QMForm):  # admitted: the form by the knapsack and recognize
                want = recognize(knapsack_bracket(h, order), n) if n % 2 == 0 else QMForm.zero()
            assert outcome(lambda: slots_form((h,), n, order)) == want, (lam, order)


def test_bracket_form_refuses_a_negative_weight_of_either_parity():
    # refused before the other checks, here a negative order and one too short
    for k, weight, order in ((3, -3, 30), (4, -3, 30), (4, -2, 30), (4, -1, -1), (5, -4, 2)):
        with pytest.raises(ValueError, match="^recognition weight must be non-negative$"):
            bracket_form(SSPoly.gen(k), order, weight)


def test_modular_plus_kernel_shift_stays_modular():
    # adding a bracket-kernel element must not change modularity
    h = basis_element((4,))
    k = SSPoly.gen(2) * basis_element((3,))  # odd slot, zero bracket
    ok, _, _ = is_modular_bracket(h + k * 0, 30)
    assert ok


def test_depth_bound_for_shifted_harmonics():
    rng = random.Random(17)
    q2 = SSPoly.gen(2)
    for w, p in ((8, 2), (10, 3), (6, 1)):
        f = SSPoly.zero()
        for r in range(p + 1):
            for lam in enumerate_min_part(w - 2 * r, 3):
                f = f + q2**r * basis_element(lam) * rng.randint(-3, 3)
        if f.is_zero:
            continue
        form = recognize(knapsack_bracket(f, 30), w)
        assert depth(form) <= p
