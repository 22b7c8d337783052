"""Every `verify` suite as its own test, named after the suite, at the
defaults of `shsym verify` and with its seed.  This is where each identity
a suite checks is tested; other modules keep only the tests that go
further than their suite.
"""

import random

import pytest

from shsym import verify
from shsym.cli import build_parser

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
