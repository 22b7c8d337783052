"""Every `verify` suite as its own test, named after the suite, at the
defaults of `shsym verify` and with its seed.  This is where each identity
a suite checks is tested; other modules keep only the tests that go
further than their suite.
"""

import random

import pytest

from shsym import verify
from shsym.cli import build_parser, main

DEFAULTS = build_parser().parse_args(["verify"])


@pytest.mark.parametrize(
    "suite", [suite for _, suite in verify.SUITES], ids=[name for name, _ in verify.SUITES]
)
def test_suite(suite):
    ok, detail = suite(random.Random(verify.DEFAULT_SEED), DEFAULTS.max_weight, DEFAULTS.order)
    assert ok, detail


def test_knapsack_oracle_reaches_above_the_table(monkeypatch):
    # The table rows stop at weight 10, so a knapsack wrong only on heavier
    # monomials must fail the suite through its drawn basis elements.
    ok, detail = verify.suite_knapsack_oracle(random.Random(verify.DEFAULT_SEED), 12, 20)
    assert ok, detail
    assert detail.endswith("one basis element at each weight 11..12, 22 monomials, order 20")
    knapsack = verify._moment_knapsack

    def wrong_above_the_table(mono, order):
        denom, totals = knapsack(mono, order)
        return (denom + 1 if mono.weight() > 10 else denom), totals

    monkeypatch.setattr(verify, "_moment_knapsack", wrong_above_the_table)
    ok, detail = verify.suite_knapsack_oracle(random.Random(verify.DEFAULT_SEED), 12, 20)
    assert not ok
    assert detail.startswith("knapsack differs from the row sums at (")


def test_linalg_is_exact_on_int_input():
    from fractions import Fraction

    from shsym import linalg

    x = linalg.solve([[2, 1], [1, 3]], [1, 2])
    assert x == [Fraction(1, 5), Fraction(3, 5)] and all(type(v) is Fraction for v in x)
    inverse = linalg.invert([[2, 1], [1, 3]])
    assert inverse == [[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]
    assert all(type(v) is Fraction for row in inverse for v in row)
    # the third row is twice the sum of the others; in floats it keeps a
    # rounding residue and counts as a third pivot
    assert linalg.matrix_rank([[2, 10, 1], [10, 1, 3], [24, 22, 8]]) == 2


@pytest.mark.parametrize("max_weight", [0, 1])
def test_weighted_draws_pass_when_nothing_is_drawable(max_weight):
    # both suites draw weights from 2 up; below that they pass and say so
    for suite in (verify.suite_weight_drop, verify.suite_q2_multiples_not_harmonic):
        ok, detail = suite(random.Random(verify.DEFAULT_SEED), max_weight, 20)
        assert ok and detail == f"nothing to draw: max weight {max_weight} is below 2"


# At the defaults (max weight 10) the three recognizing suites recognize at
# weights up to 10, which order 15 admits (weight 12 needs order 16); they
# check only the weights check_recognizable admits, so none at order 0.  The
# other four take their forms from the paper's theorem, recognize nothing,
# and check every input at every order.
RECOGNIZING = {"forms.depth_bound", "forms.recognize_roundtrip", "forms.recognize_oracle"}
AT_ORDER_15 = {
    "forms.equivariance": "20 samples, weights <= 8",
    "forms.depth_bound": "6 samples",
    "forms.recognize_roundtrip": "12 samples, weights <= 10",
    "forms.recognize_oracle": "18 series at even weights <= 10, order 15",
    "forms.modularity_criterion": "8 samples (internal cross-check)",
    "forms.theorem_path": "20 basis rows and 12 inputs, weights <= 10, order 15",
    "goldens.tables": "20 table rows",
}


@pytest.mark.parametrize("order", [0, 15])
@pytest.mark.parametrize("name", sorted(AT_ORDER_15))
def test_recognizing_suites_check_only_the_admitted_weights(name, order):
    suite = dict(verify.SUITES)[name]
    ok, detail = suite(random.Random(verify.DEFAULT_SEED), DEFAULTS.max_weight, order)
    assert ok, detail
    if order == 0 and name in RECOGNIZING:
        assert detail.startswith("nothing to draw: order 0 admits no "), detail
    else:
        assert detail == AT_ORDER_15[name].replace("order 15", f"order {order}")


def test_verify_at_order_5_recognizes_only_in_the_recognition_suites(capsys):
    # order 5 admits no recognition at any weight; the suites whose forms
    # come from the paper's theorem still check every input
    code = main(["verify", "-N", "5"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    lines = dict(line.removeprefix("[PASS] ").split(": ", 1) for line in out.splitlines())
    idle = {name for name, detail in lines.items() if detail.startswith("nothing to draw")}
    assert idle == RECOGNIZING
    assert lines["forms.theorem_path"] == "20 basis rows and 12 inputs, weights <= 10, order 5"
    assert lines["forms.equivariance"] == "20 samples, weights <= 8"
    assert lines["forms.modularity_criterion"] == "8 samples (internal cross-check)"
    assert lines["goldens.tables"] == "20 table rows"


@pytest.mark.parametrize(
    "name, draw, max_weight, detail",
    [
        ("forms.equivariance", "random_homogeneous", 4, "20 samples, weights <= 4"),
        ("forms.equivariance", "random_homogeneous", 1, "nothing to draw: max weight 1 is below 2"),
        ("forms.depth_bound", "random_harmonic", 8, "6 samples, weights <= 8"),
        ("forms.depth_bound", "random_harmonic", 5, "nothing to draw: max weight 5 is below 6"),
        ("forms.recognize_roundtrip", "random_qmform", 4, "12 samples, weights <= 4"),
        ("forms.recognize_roundtrip", "random_qmform", 0, "12 samples, weights <= 0"),
        ("forms.modularity_criterion", "random_homogeneous", 4,
         "8 samples, weights <= 4 (internal cross-check)"),
        ("forms.modularity_criterion", "random_homogeneous", 1, "nothing to draw: max weight 1 is below 2"),
    ],
)
def test_recognizing_suites_draw_no_weight_above_the_max_weight(monkeypatch, name, draw, max_weight, detail):
    weights = []
    real = getattr(verify, draw)

    def recording(rng, weight, *args, **kwargs):
        weights.append(weight)
        return real(rng, weight, *args, **kwargs)

    monkeypatch.setattr(verify, draw, recording)
    ok, got = dict(verify.SUITES)[name](random.Random(verify.DEFAULT_SEED), max_weight, 30)
    assert ok and got == detail
    assert max(weights, default=0) <= max_weight
    assert bool(weights) == (not detail.startswith("nothing to draw"))
