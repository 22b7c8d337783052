"""Fuzz test of the command-line contract: whatever the argv and stdin,
`shsym` exits 0, 1 or 2, writes at most one line to stderr, and raises no
exception of its own; a successful `--format json` request prints JSON in
the layout json.dumps gives it (indented by 2, but one line for `eval`).
Sizes are cheap (orders <= 12, weights <= 8) except at each limit and just
past it; examples are derandomized, so every run tries the same ones.
"""

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from shsym import cli, verify
from shsym.ssym import MAX_CONSTANT_DIGITS, MAX_EXPONENT, MAX_GENERATOR, MAX_NESTING


def small_or_at_limit(low, high, limit):
    return st.integers(low, high) | st.sampled_from([limit, limit + 1])


ORDERS = small_or_at_limit(-1, 12, cli.MAX_ORDER)
TABLE_WEIGHTS = small_or_at_limit(-1, 8, cli.MAX_TABLE_WEIGHT)
WEIGHTS = st.integers(-1, 8) | st.just(2_000_000)  # recognition weights
FORMATS = st.sampled_from(["text", "latex", "json", "yaml"])

POWERS = st.one_of(
    small_or_at_limit(0, 6, MAX_GENERATOR).map("Q{}".format),
    st.integers(0, 50).map(str),
    st.sampled_from(["1/0", "3/4", "9" * MAX_CONSTANT_DIGITS, "9" * (MAX_CONSTANT_DIGITS + 1)]),
)
EXPONENTS = small_or_at_limit(-2, 4, MAX_EXPONENT).map(str) | st.sampled_from(["(3/2)", "(-1/2)", "(1/3)"])
# a group takes a small exponent only: a sum raised to MAX_EXPONENT is
# admitted and slow to expand, which is not what this test is about
WELL_FORMED = st.recursive(
    st.builds("{}^{}".format, POWERS, EXPONENTS) | POWERS,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map("*".join),
        st.lists(inner, min_size=2, max_size=3).map(" + ".join),
        st.builds("{} - {}".format, inner, inner),
        st.builds("-{}".format, inner),
        st.builds("({})^{}".format, inner, st.integers(0, 3)),
    ),
    max_leaves=6,
)
NESTED = st.builds(lambda depth, x: "(" * depth + x + ")" * depth, st.sampled_from([MAX_NESTING, MAX_NESTING + 1]), WELL_FORMED)
FREE_TEXT = st.text(alphabet="Q0123456789+-*/^() \n", max_size=30) | st.text(max_size=8)
EXPRESSIONS = WELL_FORMED | NESTED | FREE_TEXT
PARTITIONS = st.lists(st.integers(-1, 12) | st.just(10**6), max_size=5).map(
    lambda parts: "(" + ",".join(map(str, parts)) + ")"
) | st.text(alphabet="()0123456789, -", max_size=12)
COEFFICIENTS = st.lists(st.integers(-300, 300).map(str) | st.sampled_from(["1/0", "-7/2", "0.5", "x"]), max_size=45).map(
    " ".join
) | st.text(alphabet="0123456789-/, \n", max_size=30)

# per subcommand: the positional argument (read from stdin when it may be
# omitted), then the options, each given or not
FORMAT = ("--format", FORMATS)
COMMANDS = {
    "basis": (small_or_at_limit(-1, 8, cli.MAX_WEIGHT).map(str), False, [("--min-part", st.integers(0, 4)), FORMAT]),
    "decompose": (EXPRESSIONS, True, [FORMAT]),
    "qbracket": (EXPRESSIONS, True, [("-N", ORDERS), ("--weight", WEIGHTS), FORMAT]),
    "recognize": (COEFFICIENTS, True, [("--weight", WEIGHTS), ("-N", ORDERS), FORMAT]),
    "eval": (st.tuples(EXPRESSIONS, PARTITIONS).map(list), False, [FORMAT]),
    "verify": (None, False, [("--max-weight", TABLE_WEIGHTS), ("-N", ORDERS)]),
    "tables": (None, False, [("--max-weight", TABLE_WEIGHTS), ("--min-part", st.integers(0, 4)), ("-N", ORDERS), FORMAT]),
}


@st.composite
def invocations(draw, json_only=False):
    """An argv and stdin; with json_only, a request for JSON without a stray
    token, from the subcommands that print JSON."""
    commands = [c for c in sorted(COMMANDS) if not json_only or FORMAT in COMMANDS[c][2]]
    command = draw(st.sampled_from(commands))
    positional, from_stdin, options = COMMANDS[command]
    argv, stdin = [command], ""
    if positional is not None:
        value = draw(positional)
        if from_stdin and draw(st.booleans()):
            stdin = value
        else:
            argv += value if isinstance(value, list) else [value]
    for flag, values in options:
        if json_only and flag == "--format":
            argv += [flag, "json"]
        elif draw(st.booleans()):
            argv += [flag, str(draw(values))]
    if not json_only and draw(st.integers(0, 9)) == 0:  # a stray token anywhere
        argv.insert(draw(st.integers(0, len(argv))), draw(FREE_TEXT | st.sampled_from(["-N", "--", "-h"])))
    return argv, stdin


# `verify` runs three cheap suites that read both sizes; every suite is
# tested on its own in test_verify.py
CHEAP_SUITES = tuple(
    (name, suite) for name, suite in verify.SUITES if name in ("series.euler_product", "harmonic.q2_multiples", "operators.kelvin")
)


def _check(capsys, argv, stdin):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(stdin))
        mp.setattr(verify, "SUITES", CHEAP_SUITES)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's way out: --help or a usage error
            code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert err.count("\n") <= 1, (argv, err)
    if code == 0:
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:  # --help, printed as text
            return
        if getattr(args, "format", None) == "json":
            indent = None if args.command == "eval" else 2
            assert out == json.dumps(json.loads(out), indent=indent) + "\n", argv


SETTINGS = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@settings(SETTINGS, max_examples=300)
@given(invocations())
def test_any_invocation_keeps_the_cli_contract(capsys, invocation):
    _check(capsys, *invocation)


@settings(SETTINGS, max_examples=150)
@given(invocations(json_only=True))
def test_json_requests_keep_the_cli_contract(capsys, invocation):
    _check(capsys, *invocation)
