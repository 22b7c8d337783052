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
