import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import shsym
from shsym.cli import main

# the environment of a fresh interpreter that imports the shsym under test
ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shsym.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_text(capsys):
    code, out, _ = run(capsys, "basis", "4")
    assert code == 0
    assert out.strip() == "(4): 27/4*Q2^2 + 27/2*Q4"


def test_basis_empty_weight(capsys):
    code, out, _ = run(capsys, "basis", "2")
    assert code == 0
    assert out.strip() == ""


def test_basis_json_weight_nine(capsys):
    code, out, _ = run(capsys, "basis", "9", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["lambda"] for row in rows] == [[9], [6, 3], [5, 4], [3, 3, 3]]
    for row in rows:
        for term in row["h"]:
            assert set(term) == {"coeff", "monomial"}
            assert all(isinstance(k, str) for k in term["monomial"])


def test_basis_min_part_flag(capsys):
    code, out, _ = run(capsys, "basis", "4", "--min-part", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("(4):")
    assert lines[1].startswith("(2,2):")


def test_basis_latex(capsys):
    code, out, _ = run(capsys, "basis", "4", "--format", "latex")
    assert code == 0
    assert out.splitlines() == [
        r"\begin{array}{ll}",
        r"\lambda & h_\lambda \\ \hline",
        r"(4) & \frac{27}{4} Q_2^2 + \frac{27}{2} Q_4 \\",
        r"\end{array}",
    ]


def test_qbracket_even(capsys):
    code, out, _ = run(capsys, "qbracket", "27/4*Q2^2 + 27/2*Q4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("series: 9/320 + ")
    assert lines[-1] == "9/320*Q"


def test_qbracket_q2(capsys):
    code, out, _ = run(capsys, "qbracket", "Q2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "-1/24*P"


def test_qbracket_odd_is_zero(capsys):
    code, out, _ = run(capsys, "qbracket", "Q3")
    assert code == 0
    assert out.strip().splitlines()[-1] == "0"


def test_qbracket_mixed_weights_without_weight_flag(capsys):
    code, out, _ = run(capsys, "qbracket", "1 + Q2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "-1/24*P + 1"


def test_qbracket_explicit_weight(capsys):
    code, out, _ = run(capsys, "qbracket", "Q2", "--weight", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "-1/24*P"


def test_qbracket_json(capsys):
    code, out, _ = run(capsys, "qbracket", "Q2", "--format", "json", "-N", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["order"] == 12
    assert payload["series"]["coefficients"][0] == "-1/24"
    assert payload["q_bracket"] == [{"coeff": "-1/24", "P": 1, "Q": 0, "R": 0}]


def test_qbracket_insufficient_order(capsys):
    # the margin bounds a declared weight only: the form alone needs no order
    code, _, err = run(capsys, "qbracket", "Q2", "--weight", "2", "-N", "5")
    assert code == 1
    assert "insufficient order" in err
    code, out, _ = run(capsys, "qbracket", "Q2", "-N", "5")
    assert code == 0 and out.splitlines()[1] == "-1/24*P"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "qbracket", "Q3^(1/2)")
    assert code == 2
    assert "parse error" in err


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "Q4")
    assert code == 0
    assert out.splitlines() == [
        "h0: 1/2*Q2^2 + Q4   [harmonic]",
        "h1: 0   [harmonic]",
        "h2: -1/2   [harmonic]",
        "depth: 2",
    ]


def test_decompose_checks_each_slot_once(capsys, monkeypatch):
    from shsym import harmonic

    calls = []
    pr_laplacian = harmonic.pr_laplacian

    def counted(f):
        calls.append(f)
        return pr_laplacian(f)

    # decompose reads the closed-form laplacian from its module at each call
    monkeypatch.setattr(harmonic, "pr_laplacian", counted)
    code, out, _ = run(capsys, "decompose", "Q4^2 + Q2*Q3^2 - 2*Q2^4", "--format", "json")
    assert code == 0
    assert json.loads(out)["harmonic"] == [True] * 5
    # one harmonicity check per returned slot, at weights 8, 6, 4, 2 and 0
    assert len(calls) == 5


def test_decompose_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("Q2^2"))
    code, out, _ = run(capsys, "decompose")
    assert code == 0
    assert out.splitlines()[-1] == "depth: 2"


def test_decompose_rejects_q1(capsys):
    code, _, err = run(capsys, "decompose", "Q1*Q2")
    assert code == 2
    assert "error" in err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "Q2^2", "(1)")
    assert code == 0
    assert out.strip() == "529/576"


def test_eval_empty_partition(capsys):
    code, out, _ = run(capsys, "eval", "Q2", "()")
    assert code == 0
    assert out.strip() == "-1/24"


def test_recognize(capsys):
    coeffs = " ".join(str(c) for c in (1, -24, -72, -96, -168, -144, -288,
                                       -192, -360, -312, -432, -288, -672))
    code, out, _ = run(capsys, "recognize", coeffs, "--weight", "2")
    assert code == 0
    assert out.strip() == "P"


def test_recognize_failure(capsys):
    coeffs = " ".join(str(c) for c in (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77))
    code, _, err = run(capsys, "recognize", coeffs, "--weight", "2")
    assert code == 1
    assert "not quasimodular" in err


def test_tables_json_schema(capsys):
    code, out, _ = run(capsys, "tables", "--max-weight", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[2]["lambda"] == [4]
    assert rows[2]["h"] == [
        {"coeff": "27/4", "monomial": {"2": 2}},
        {"coeff": "27/2", "monomial": {"4": 1}},
    ]
    assert rows[2]["q_bracket"] == [{"coeff": "9/320", "P": 0, "Q": 1, "R": 0}]
    assert rows[1]["q_bracket"] == []


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "tables", "--max-weight", "6")
    _, second, _ = run(capsys, "tables", "--max-weight", "6")
    assert first == second


def _verify_with(monkeypatch, capsys, suites, *argv):
    """`shsym verify` over the given (name, suite) pairs.  The suites
    themselves are tested one by one in test_verify.py; these tests cover
    what the subcommand adds: exit codes and one line per suite."""
    from shsym import verify

    monkeypatch.setattr(verify, "SUITES", suites)
    return run(capsys, "verify", *argv)


def _passing(rng, max_weight, order):
    return True, f"max weight {max_weight}, order {order}"


def test_verify_small(capsys, monkeypatch):
    from shsym.verify import SUITES

    names = [name for name, _ in SUITES]
    suites = tuple((name, _passing) for name in names)
    code, out, err = _verify_with(monkeypatch, capsys, suites, "--max-weight", "4", "-N", "20")
    assert code == 0 and err == ""
    assert out.splitlines() == [f"[PASS] {name}: max weight 4, order 20" for name in names]


def test_verify_insufficient_order_fails(capsys, monkeypatch):
    from shsym.quasimodular import check_recognizable

    def recognizes_at_weight_12(rng, max_weight, order):
        check_recognizable(12, order)  # refused below order 16
        return True, "recognized"

    suites = (
        ("first", _passing),
        ("recognizes", recognizes_at_weight_12),
        ("counterexample", lambda rng, max_weight, order: (False, "fails on Q3")),
        ("last", _passing),
    )
    code, out, err = _verify_with(monkeypatch, capsys, suites, "-N", "5")
    assert code == 1 and err == ""
    first, raised, failed, last = out.splitlines()
    assert first.startswith("[PASS] first") and last.startswith("[PASS] last")
    # an exception is the suite's failure line, not a crash
    assert raised.startswith("[FAIL] recognizes: InsufficientOrderError: insufficient order: weight 12")
    assert failed == "[FAIL] counterexample: fails on Q3"


def test_declared_weight_decides_by_the_sum_not_by_its_parity(capsys):
    # Odd components are left out of a bracket because they vanish, not
    # because the declared weight is odd: the even part of f must still be
    # summed and refused when it does not vanish.
    from shsym.quasimodular import RecognitionError, bracket_form
    from shsym.ssym import parse_poly

    code, out, err = run(capsys, "qbracket", "Q4", "--weight", "3")
    assert (code, out, err) == (1, "", "recognition error: odd weight 3 requires a vanishing series\n")
    with pytest.raises(RecognitionError, match="odd weight 3 requires a vanishing series"):
        bracket_form(parse_poly("Q4"), 30, 3)
    code, out, err = run(capsys, "qbracket", "Q3+Q4", "--weight", "4")
    assert code == 0 and err == ""
    assert (code, out, err) == run(capsys, "qbracket", "Q4")
    assert out.splitlines()[1] == "1/1152*P^2 + 1/2880*Q"


def test_tables_latex_weight10_byte_golden(capsys):
    from pathlib import Path

    golden = Path(__file__).parent / "data" / "tables_weight10.tex"
    code, out, _ = run(capsys, "tables", "--max-weight", "10", "--format", "latex")
    assert code == 0
    assert out == golden.read_text()


def test_verify_is_deterministic(capsys, monkeypatch):
    def draw(rng, max_weight, order):
        return True, str(rng.random())

    suites = (("a", draw), ("b", draw))
    first = _verify_with(monkeypatch, capsys, suites)
    assert first == _verify_with(monkeypatch, capsys, suites)
    # every suite starts from the same seed, whatever ran before it
    a, b = first[1].splitlines()
    assert a.split(": ")[1] == b.split(": ")[1]


def test_tables_min_part_flag(capsys):
    code, out, _ = run(capsys, "tables", "--max-weight", "4", "--min-part", "2")
    assert code == 0
    lines = out.strip().splitlines()
    labels = [line.split("\t")[0] for line in lines]
    assert labels == ["()", "(2)", "(3)", "(4)", "(2,2)"]
    # small-part rows give the zero element, matching the parts >= 3 indexing
    assert lines[1] == "(2)\t0\t0"
    assert lines[4] == "(2,2)\t0\t0"


def test_recognize_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1, 240, 2160, 6720, 17520, "
                                                 "30240, 60480, 82560, 140400, "
                                                 "181680, 272160, 319680"))
    code, out, _ = run(capsys, "recognize", "--weight", "4")
    assert code == 0
    assert out.strip() == "Q"


def test_qbracket_odd_weight_flag(capsys):
    code, out, _ = run(capsys, "qbracket", "Q3", "--weight", "3")
    assert code == 0
    assert out.strip().splitlines()[-1] == "0"


def test_qbracket_latex_form(capsys):
    code, out, _ = run(capsys, "qbracket", "27/4*Q2^2 + 27/2*Q4", "--format", "latex")
    assert code == 0
    assert out.strip().splitlines()[-1] == r"\frac{9}{320} Q"


def test_tables_text_weight6_byte_golden(capsys):
    code, out, _ = run(capsys, "tables", "--max-weight", "6")
    assert code == 0
    assert out == (
        "()\t1\t1\n"
        "(3)\t-9/4*Q3\t0\n"
        "(4)\t27/4*Q2^2 + 27/2*Q4\t9/320*Q\n"
        "(5)\t-135/4*Q2*Q3 - 675/4*Q5\t0\n"
        "(6)\t2025/4*Q2*Q4 + 225/4*Q2^3 + 14175/4*Q6\t-55/384*R\n"
        "(3,3)\t-6075*Q2*Q4 + 225/2*Q2^3 + 14175/4*Q3^2\t115/384*R\n"
    )


def test_qbracket_negative_order_is_usage_error(capsys):
    code, out, err = run(capsys, "qbracket", "Q2", "-N", "-1")
    assert code == 2 and out == ""
    assert err == "error: order must be non-negative\n"


def test_tables_negative_order_is_usage_error(capsys):
    code, out, err = run(capsys, "tables", "-N", "-1")
    assert code == 2 and out == ""
    assert err == "error: order must be non-negative\n"


def test_recognize_zero_denominator_is_parse_error(capsys):
    code, _, err = run(capsys, "recognize", "1/0 2", "--weight", "2")
    assert code == 2
    assert err.startswith("parse error: bad coefficient") and err.count("\n") == 1


def test_recognize_reads_every_spelling_of_a_coefficient(capsys):
    from shsym.cli import _coefficient
    from shsym.ssym import MAX_CONSTANT_DIGITS

    for tok in ("1/2", "-3/4", "0.5", "5.", ".5", "1e3", "+2.5E-3", "1e-999", "9" * MAX_CONSTANT_DIGITS):
        assert _coefficient(tok) == Fraction(tok), tok
    spelled = "1e0 -2.4e1 -72.0 -96/1 -168 -144 -288 -192 -3.6E+2 -312 -432 -288 -672"
    code, out, _ = run(capsys, "recognize", spelled, "--weight", "2")
    assert code == 0 and out == "P\n"


def test_recognize_names_a_bad_coefficient_at_its_own_position(capsys):
    for text, position, reason in (
        ("1 2 1/0", 4, "zero denominator"),
        ("1,2, 1_2", 5, "not a number"),  # Fraction would read 12
        ("1_000", 0, "not a number"),
        ("1 2 x 4", 4, "not a number"),
        ("1 1/1e1001 3", 2, "not a number"),
        ("1  2\n\t3 .e5", 8, "not a number"),
        ("1 2 -1e10000000", 4, "longer than 1000 digits"),
    ):
        code, out, err = run(capsys, "recognize", text, "--weight", "2")
        assert code == 2 and out == "", text
        assert err == f"parse error: bad coefficient: {reason} (at position {position})\n", text


def test_recognize_refuses_a_long_coefficient_before_converting_it():
    # Fraction("1e10000000") alone took 11.7 s
    from shsym.ssym import MAX_CONSTANT_DIGITS

    for tok in ("1e10000000", "-2.5E+99999999999999999999", "1e-1000", "1" * (MAX_CONSTANT_DIGITS + 1), "1/1e1001"):
        proc = _run_cli_within(10, "recognize", f"1 {tok} 3", "--weight", "2")
        assert proc.returncode == 2 and proc.stdout == "", tok
        assert proc.stderr.startswith("parse error: bad coefficient: ") and proc.stderr.count("\n") == 1, tok


def test_recognize_negative_weight_is_usage_error(capsys):
    code, _, err = run(capsys, "recognize", "1 2 3", "--weight", "-2")
    assert code == 2
    assert err == "error: recognition weight must be non-negative\n"


def test_qbracket_negative_weight_is_usage_error(capsys):
    # an odd one too: Q3 at -3 printed the form 0, Q4 at -3 failed recognition
    for expr, weight in (("Q3", "-3"), ("Q4", "-3"), ("Q4", "-2")):
        code, out, err = run(capsys, "qbracket", expr, "--weight", weight)
        assert code == 2 and out == "", (expr, weight)
        assert err == "error: recognition weight must be non-negative\n", (expr, weight)


def test_recognize_negative_order_is_usage_error(capsys):
    code, out, err = run(capsys, "recognize", "1 2 3", "--weight", "2", "-N", "-1")
    assert code == 2 and out == ""
    assert err == "error: order must be non-negative\n"


def test_long_sum_on_stdin_is_parse_error(capsys, monkeypatch):
    import io

    from shsym.ssym import MAX_TERMS

    # one past the limit, every monomial distinct
    monos = (f"Q3^{i // 101}*Q4^{i % 101}" for i in range(MAX_TERMS + 1))
    monkeypatch.setattr("sys.stdin", io.StringIO(" + ".join(monos)))
    code, out, err = run(capsys, "qbracket")
    assert code == 2 and out == ""
    assert err.startswith(f"parse error: expansion larger than {MAX_TERMS} terms") and err.count("\n") == 1


def test_argument_errors_are_one_line(capsys):
    # argparse printed its usage first, and the stray argument's newline
    for argv in (("qbracket", "-Q2"), ("qbracket", "Q2", "-N", "x"), ("bogus",), (), ("eval", "Q2", "()", "a\nb")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_eval_nesting_at_limit(capsys):
    from shsym.ssym import MAX_NESTING

    nested = "(" * MAX_NESTING + "Q2" + ")" * MAX_NESTING
    code, out, _ = run(capsys, "eval", nested, "()")
    assert code == 0 and out == "-1/24\n"


def test_eval_deep_nesting_is_parse_error(capsys):
    for expr in ("(" * 3000 + "Q2" + ")" * 3000, "2*" + "-" * 3000 + "3"):
        code, out, err = run(capsys, "eval", expr, "()")
        assert code == 2 and out == ""
        assert err.startswith("parse error: nesting deeper than 100 levels")
        assert err.count("\n") == 1


def test_limits_admit_the_benchmark_sizes():
    from shsym import cli
    from shsym.ssym import MAX_EXPONENT

    assert cli.MAX_ORDER >= 36  # one limit for every -N, verify's included
    assert cli.MAX_WEIGHT >= 18 and cli.MAX_TABLE_WEIGHT >= 10
    assert MAX_EXPONENT >= 9  # a weight-18 decompose input may hold Q2^9


def test_every_cache_is_bounded():
    import importlib
    import pkgutil
    import re

    caches = {}
    for info in pkgutil.iter_modules(shsym.__path__):
        module = importlib.import_module(f"shsym.{info.name}")
        caches.update(
            (f"{info.name}.{name}", f)
            for name, f in vars(module).items()
            if hasattr(f, "cache_parameters") and f.__module__ == module.__name__
        )
    # the rows of the README cache table: each cache with its bound
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        table = fh.read().split("| cache | entries |", 1)[1].split("\n\n", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+\.\w+)` \| ([\d,]+) \|", table, re.M))
    assert set(caches) == set(rows)
    for name, f in caches.items():
        assert f.cache_parameters()["maxsize"] == int(rows[name].replace(",", "")), name


def test_every_limit_row_holds_its_value():
    import re

    from shsym import ssym

    # the rows of the README limits table: each names an ssym constant with
    # its value, so a limit removed or changed cannot leave a stale row
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        table = fh.read().split("| limit (`shsym.ssym`, read by `shsym.cli`) | value |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([\d,]+) \|", table, re.M)
    assert {name for name, _ in rows} >= {"MAX_ORDER", "MAX_WEIGHT", "MAX_TABLE_WEIGHT", "MAX_BRACKET_WEIGHT"}
    for name, value in rows:
        assert getattr(ssym, name, None) == int(value.replace(",", "")), name


def test_readme_counts_every_verify_suite():
    import re

    from shsym import verify

    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        counts = re.findall(r"`shsym\.verify\.SUITES`, (\d+) of them", fh.read())
    assert counts == [str(len(verify.SUITES))]


def _assert_one_line_usage_error(capsys, *argv, prefix="error: "):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_exponent_over_limit_is_parse_error(capsys):
    from shsym.ssym import MAX_EXPONENT

    code, out, _ = run(capsys, "eval", f"Q2^{MAX_EXPONENT}", "()")
    assert code == 0 and out
    for expr in ("Q2^99999999", f"Q2^(-{2 * MAX_EXPONENT + 1}/2)", f"(1+Q3)^{MAX_EXPONENT + 1}"):
        _assert_one_line_usage_error(capsys, "eval", expr, "(1)", prefix="parse error: exponent")


def test_order_over_limit_is_usage_error(capsys):
    from shsym.cli import MAX_ORDER

    too_high = str(MAX_ORDER + 1)
    _assert_one_line_usage_error(capsys, "qbracket", "Q2", "-N", too_high)
    _assert_one_line_usage_error(capsys, "recognize", "1 2 3", "--weight", "2", "-N", too_high)
    _assert_one_line_usage_error(capsys, "tables", "-N", too_high)
    for command in ("tables", "verify"):
        _assert_one_line_usage_error(capsys, command, "-N", "-1")


def test_verify_order_over_limit_is_usage_error(capsys):
    from shsym.cli import MAX_ORDER

    _assert_one_line_usage_error(capsys, "verify", "-N", str(MAX_ORDER + 1))


def test_weight_over_limit_is_usage_error(capsys):
    from shsym.cli import MAX_WEIGHT

    too_high = MAX_WEIGHT + 1
    _assert_one_line_usage_error(capsys, "basis", str(too_high))
    _assert_one_line_usage_error(capsys, "decompose", f"Q3 + Q{too_high}")


def test_min_part_below_one_is_usage_error(capsys):
    for argv in (("basis", "0", "--min-part", "0"), ("tables", "--min-part", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: --min-part must be at least 1, got {argv[-1]}\n", argv


def test_max_weight_over_limit_is_usage_error(capsys):
    from shsym.cli import MAX_TABLE_WEIGHT

    too_high = str(MAX_TABLE_WEIGHT + 1)
    _assert_one_line_usage_error(capsys, "tables", "--max-weight", too_high)
    _assert_one_line_usage_error(capsys, "verify", "--max-weight", too_high)
    for command in ("tables", "verify"):
        _assert_one_line_usage_error(capsys, command, "--max-weight", "-1")


def test_bracket_weight_over_limit_is_usage_error(capsys):
    from shsym.ssym import MAX_BRACKET_WEIGHT

    top = MAX_BRACKET_WEIGHT
    # a component or a declared odd weight over the cap, at any order
    for argv, weight in (
        ((f"Q{top + 1}", "-N", "40"), top + 1),
        ((f"Q3 + Q{top + 1}", "-N", "0"), top + 1),
        (("Q3", "--weight", str(top + 2)), top + 2),
    ):
        code, out, err = run(capsys, "qbracket", *argv)
        assert (code, out, err) == (2, "", f"error: weight {weight} is above the limit of {top}\n"), argv
    code, out, _ = run(capsys, "qbracket", f"Q{top}", "-N", "0")
    assert code == 0 and out == "series: 0 + O(q^1)\n0\n"


def test_huge_recognition_weight_is_refused_at_once(capsys):
    # listing the weight-k triples would take O(k^2) time and memory
    for argv in (("recognize", "1 2 3", "--weight", "2000000"), ("qbracket", "Q2", "--weight", "2000000")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("recognition error: insufficient order") and err.count("\n") == 1


def _run_cli_within(seconds, *argv, stdin=None):
    """Run the CLI in a fresh interpreter, with stdin as its standard input;
    TimeoutExpired fails the test."""
    return subprocess.run(
        [sys.executable, "-m", "shsym.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=ENV,
        timeout=seconds,
    )


def _distinct_long_denominators(count, digits):
    # odd numbers of the given length less than 2 * count apart; the gcd of
    # any two divides their difference, so their lcm is almost twice as long
    # as either
    return [10 ** (digits - 1) + 2 * i + 1 for i in range(count)]


def test_recognize_converts_only_the_recognized_prefix():
    # over one lcm, 200 of them took 30.8 s and 400 more than 70 s
    junk = " ".join(f"1/{d}" for d in _distinct_long_denominators(800, 999))
    proc = _run_cli_within(10, "recognize", "--weight", "2", stdin=junk)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "recognition error: not quasimodular of weight 2 at this order\n"
    e2 = "1 -24 -72 -96 -168 -144 -288 -192 -360 -312 -432 -288 -672"
    proc = _run_cli_within(10, "recognize", "--weight", "2", "-N", "12", stdin=f"{e2} {junk}")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "P\n", "")


def test_sum_over_a_long_common_denominator_is_parse_error_before_multiplying():
    # the 400-term sum times (Q1+Q2) took 22.8 s over its 400,000-digit lcm
    from shsym.ssym import MAX_CONSTANT_DIGITS

    dens = _distinct_long_denominators(400, MAX_CONSTANT_DIGITS)
    total = " + ".join(f"1/{d}*Q3^{i // 20}*Q4^{i % 20}" for i, d in enumerate(dens))
    proc = _run_cli_within(10, "eval", "-", "(3)", stdin=f"({total})*(Q1+Q2)")
    assert proc.returncode == 2 and proc.stdout == ""
    # refused at the second summand
    second = total.index(" + ") + 1
    assert proc.stderr == (
        f"parse error: common denominator longer than {MAX_CONSTANT_DIGITS} digits (at position {second + 1})\n"
    )


def test_decompose_over_a_long_common_denominator_is_parse_error():
    # weight 20 ran for more than 70 s; weight 14 ended after 4.5 s with
    # the interpreter's limit on integer string conversion
    from shsym.partitions import enumerate_min_part
    from shsym.ssym import MAX_CONSTANT_DIGITS

    for w in (14, 20):
        lams = enumerate_min_part(w, 2)
        dens = _distinct_long_denominators(len(lams), MAX_CONSTANT_DIGITS)
        f = " + ".join(f"1/{d}*" + "*".join(f"Q{p}" for p in lam) for lam, d in zip(lams, dens))
        proc = _run_cli_within(10, "decompose", stdin=f)
        assert proc.returncode == 2 and proc.stdout == "", w
        assert proc.stderr.startswith(f"parse error: common denominator longer than {MAX_CONSTANT_DIGITS} digits"), w
        assert proc.stderr.count("\n") == 1, w


def _bracket_input(lams, q2_power, extra):
    """Each monomial Q_lam, alone and times Q2^q2_power, then the extra terms."""
    monos = ("*".join(f"Q{p}" for p in lam) for lam in lams)
    return " + ".join([t for m in monos for t in (m, f"{m}*Q2^{q2_power}")] + list(extra))


def _many_monomials():
    """374 distinct Q2-free monomials, of weights 3 to 22, and the terms that
    add none once Q1 terms are dropped and Q2 factored out."""
    from shsym.partitions import enumerate_min_part

    return [lam for w in range(3, 23) for lam in enumerate_min_part(w, 3)], ("Q1*Q5", "Q2^3", "5")


def test_bracket_of_many_monomials_is_admitted_as_the_sum_of_its_halves():
    # each harmonic slot is summed on its Sturm prefix only, so the cost of a
    # bracket follows the terms and weights of its input, not its count of
    # distinct monomials: weights <= 26 are admitted at -N 40 whatever that
    # count, and the bracket is linear, so it is the sum of the brackets of
    # two halves of at most 300 monomials each
    from shsym.qseries import QSeries
    from shsym.quasimodular import QMForm, bracket_form, format_qmform
    from shsym.ssym import parse_poly

    lams, extra = _many_monomials()
    assert len(lams) > 300
    proc = _run_cli_within(10, "qbracket", "-N", "40", stdin=_bracket_input(lams, 2, extra))
    assert proc.returncode == 0 and proc.stderr == ""
    series, form = QSeries.zero(40), QMForm.zero()
    half = len(lams) // 2
    for part, terms in ((lams[:half], extra), (lams[half:], ())):
        assert len(part) <= 300
        s, m = bracket_form(parse_poly(_bracket_input(part, 2, terms)), 40)
        series, form = series + s, form + m
    assert proc.stdout == f"series: {series}\n{format_qmform(form)}\n"


def test_bracket_of_many_monomials_past_the_order_is_refused():
    # the same shape times Q2^6 reaches weight 34, above the bracket weight cap
    lams, extra = _many_monomials()
    proc = _run_cli_within(10, "qbracket", "-N", "40", stdin=_bracket_input(lams, 6, extra))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: weight 34 is above the limit of 33\n"


def test_generator_index_over_limit_is_parse_error():
    # beta(3000) would invert a 3000-term series of Fractions
    from shsym.ssym import MAX_GENERATOR

    proc = _run_cli_within(10, "eval", "Q3000", "()")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"parse error: generator index larger than {MAX_GENERATOR}")
    assert proc.stderr.count("\n") == 1


def test_eval_at_a_ten_digit_part_costs_what_its_parts_cost():
    # the Frobenius coordinates follow the number of parts, not the largest
    # part: Q3 of (n) is n (n - 1) / 2
    proc = _run_cli_within(10, "eval", "Q3", "(1000000000)")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "499999999500000000\n"


def test_eval_value_too_long_to_print_is_usage_error(capsys):
    from shsym.ssym import MAX_CONSTANT_DIGITS

    limit = sys.get_int_max_str_digits()
    _assert_one_line_usage_error(
        capsys,
        "eval",
        "Q20^100*Q19^100*Q18^100",
        "(5,3)",
        prefix=f"error: value at (5,3) has a numerator or denominator longer than {MAX_CONSTANT_DIGITS} digits",
    )
    assert sys.get_int_max_str_digits() == limit
    code, out, _ = run(capsys, "eval", "Q20^10", "(5,3)")
    assert code == 0 and len(out) > 100


def test_huge_product_is_refused_before_it_is_multiplied():
    # multiplied out, this one monomial took 14 s to be refused for printing
    from shsym.ssym import MAX_EVAL_DIGITS, MAX_EVAL_WORK_DIGITS

    product = "*".join(f"Q{k}^100" for k in range(3, 101))
    total = "+".join("*".join(f"Q{k}^100" for k in range(j, j + 20)) for j in range(3, 80))
    for expr, message in (
        (product, f"may need more than {MAX_EVAL_DIGITS} digits before it is reduced"),
        (total, f"needs more than {MAX_EVAL_WORK_DIGITS} digits of monomials"),
    ):
        proc = _run_cli_within(10, "eval", expr, "(30,20,10)")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: value at (30,20,10) {message}")
        assert proc.stderr.count("\n") == 1


def test_cli_import_leaves_the_verify_suites_unloaded():
    # each subcommand loads the layers it runs and no others; -S keeps the
    # site hooks of the interpreter out of the module list
    script = (
        "import contextlib, io, sys\n"
        "import shsym\n"
        "loaded = sorted(sys.modules)\n"
        "import shsym.cli\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert shsym.cli.main(sys.argv[1:]) == 0\n"
        "    loaded = sorted(sys.modules)\n"
        "assert not hasattr(sys.modules.get('shsym.qseries'), '_moment_knapsack')\n"
        "print(*loaded, sep='\\n')\n"
    )
    base = ["shsym", "shsym.cli", "shsym.partitions", "shsym.ssym"]
    harmonic = ["shsym.harmonic"]
    forms = ["shsym.qseries", "shsym.quasimodular"]
    for argv, want in (
        ((), ["shsym"]),  # the bare package loads no module
        (("eval", "Q3*Q2", "(2,1)", "--format", "json"), base),
        # an even component is decomposed into harmonic slots; odd ones
        # bracket to zero and need no slots
        (("qbracket", "Q4", "-N", "12", "--format", "json"), base + harmonic + forms),
        (("qbracket", "Q3+Q1*Q4", "-N", "12"), base + forms),
        (("recognize", "1" + " 0" * 10, "--weight", "0"), base + forms),
        (("basis", "8", "--format", "latex"), base + harmonic),
        # the closed form certifies each returned slot, so no operators
        (("decompose", "Q2*Q4", "--format", "json"), base + harmonic),
        (("tables", "--max-weight", "4", "-N", "14"), base + harmonic + forms),
    ):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, *argv], capture_output=True, text=True, env=ENV, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert [m for m in loaded if m.split(".")[0] == "shsym"] == sorted(want), argv
        assert "shsym.verify" not in loaded, argv
        assert "dataclasses" not in loaded and "inspect" not in loaded, argv
        # JSON is written by the CLI itself
        assert "json" not in loaded, argv


def test_verify_import_leaves_the_cli_unloaded():
    # the request limits live in ssym, so the suites need no command line
    script = "import sys, shsym.verify; print('shsym.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=ENV, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_runaway_expansion_is_parse_error():
    # C(108, 8) terms if expanded
    expr = "(" + "+".join(f"Q{k}" for k in range(1, 10)) + ")^100"
    proc = _run_cli_within(20, "eval", expr, "()")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("parse error: expansion larger than")
    assert proc.stderr.count("\n") == 1


def test_unrecognizable_weight_is_refused_before_summing():
    # weight 2700 is far above the cap; summing its series first took 21 s
    proc = _run_cli_within(10, "qbracket", "Q10^100*Q9^100*Q8^100", "-N", "40")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: weight 2700 is above the limit of 33\n"


def test_declared_weight_does_not_lift_the_bound_on_the_real_weights():
    # the sum costs what f's own weights cost, whatever weight is declared:
    # each is bounded by the cap, and a declared even weight by the margin
    for argv, code, err in (
        (("Q10^100*Q9^100*Q8^100", "--weight", "2"), 2, "error: weight 2700 is above the limit of 33\n"),
        (("Q2 + Q10^100*Q9^100*Q8^100", "--weight", "2"), 2, "error: weight 2700 is above the limit of 33\n"),
        (("Q5^4*Q6^4*Q7^4*Q8^4", "--weight", "104"), 1, "recognition error: insufficient order: weight 104"),
    ):
        proc = _run_cli_within(10, "qbracket", "-N", "40", *argv)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr.startswith(err) and proc.stderr.count("\n") == 1


def test_odd_part_too_heavy_for_the_order_is_refused_before_summing():
    # summing the weight-2593 series first took 15 s, only to print zero
    proc = _run_cli_within(10, "qbracket", "Q10^100*Q9^100*Q7^99", "-N", "40")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: weight 2593 is above the limit of 33\n"


def test_odd_part_is_bounded_as_the_even_weight_below_it(capsys):
    # at every order the largest admitted odd weight is 33, as the largest
    # even one is 32
    for order in ("0", "9", "40"):
        code, out, _ = run(capsys, "qbracket", "Q3^11", "-N", order)
        assert code == 0 and out.strip().splitlines()[-1] == "0"
        code, out, err = run(capsys, "qbracket", "Q3^10*Q5", "-N", order)
        assert (code, out, err) == (2, "", "error: weight 35 is above the limit of 33\n")
    code, out, _ = run(capsys, "qbracket", "Q3", "-N", "9")
    assert code == 0 and out.strip().splitlines()[-1] == "0"


def test_nested_powers_are_parse_errors():
    for expr, message in (
        ("((Q2^100)^100)^100", "product exponent of Q2 larger than 100"),
        ("(Q2^100)^100", "product exponent of Q2 larger than 100"),
        ("((2^100)^100)^100", "constant longer than 1000 digits"),
    ):
        proc = _run_cli_within(10, "eval", expr, "(1)")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"parse error: {message}")
        assert proc.stderr.count("\n") == 1


def test_closed_stdout_exits_1_without_a_traceback():
    for argv in (("basis", "12"), ("qbracket", "Q4", "-N", "30", "--format", "json")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "shsym.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=ENV,
        )
        proc.stdout.close()  # the reader leaves before the first write
        _, err = proc.communicate(timeout=10)
        assert proc.returncode == 1
        assert err == b""


# -- JSON output: the writer against json.dumps(..., indent=2) ------------------


def _terms_json(f):
    return [
        {"coeff": str(c), "monomial": {str(k): e2 // 2 for k, e2 in m}}
        for m, c in f.terms()
    ]


def _form_terms_json(form):
    return [{"coeff": str(c), "P": a, "Q": b, "R": r} for (a, b, r), c in form.terms()]


def _assert_prints_json(capsys, payload, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0, argv
    assert out == json.dumps(payload, indent=2) + "\n", argv


def test_json_writer_equals_json_dumps():
    from shsym.cli import _write_json

    values = [
        0, -7, 10**40, True, False, None, "", "-3/4*Q2 (x)~", [], {}, (),
        [[]], [{}], {"": []}, {"k": {"n": [1, [2, {}]], "s": "x"}}, (1, (2, "3")),
        [True, None, {"deep": [[[0]]]}],
    ]
    for value in values:
        out = []
        _write_json(value, "", out)
        assert "".join(out) == json.dumps(value, indent=2), value
    with pytest.raises(TypeError):
        _write_json(0.5, "", [])
    # a string that would need escaping is refused, not escaped
    for text in ('"', "\\", "\n", "\x7f", "é"):
        with pytest.raises(TypeError):
            _write_json({"k": text}, "", [])


def test_basis_json_equals_json_dumps(capsys):
    from shsym.harmonic import basis_element
    from shsym.partitions import enumerate_min_part

    # an empty payload at weights 1 and 2 (min part 3), and the constant
    # term of weight 0, whose "monomial" is {}
    for n in range(15):
        code, out, _ = run(capsys, "basis", str(n), "--min-part", "0", "--format", "json")
        assert code == 2 and out == ""
        for min_part in range(1, 4):
            payload = [
                {"lambda": list(lam), "h": _terms_json(basis_element(lam))}
                for lam in enumerate_min_part(n, min_part)
            ]
            _assert_prints_json(capsys, payload, "basis", str(n), "--min-part", str(min_part), "--format", "json")


def test_decompose_json_equals_json_dumps(capsys):
    from shsym.harmonic import decompose
    from shsym.ssym import parse_poly

    # zero, a constant, slots that are all zero but one, and a mixed sum
    for expr in ("0", "1", "Q2^3", "Q3^2 + Q2*Q4"):
        dec = decompose(parse_poly(expr))
        payload = {
            "components": [_terms_json(h) for h in dec.components],
            "harmonic": [True] * len(dec.components),
            "depth": dec.depth,
        }
        _assert_prints_json(capsys, payload, "decompose", expr, "--format", "json")


def test_forms_json_equals_json_dumps(capsys):
    from shsym.harmonic import basis_element
    from shsym.partitions import enumerate_min_part
    from shsym.qseries import QSeries
    from shsym.quasimodular import QMForm, recognize
    from shsym.ssym import parse_poly
    from shsym.verify import knapsack_bracket

    # the forms by the knapsack and recognize; an odd weight brackets to zero
    def form_of(series, weight):
        return recognize(series, weight) if weight % 2 == 0 else QMForm.zero()

    rows = []
    for n in range(7):
        for lam in enumerate_min_part(n, 3):
            h = basis_element(lam)
            form = form_of(knapsack_bracket(h, 30), n)
            rows.append({"lambda": list(lam), "h": _terms_json(h), "q_bracket": _form_terms_json(form)})
    _assert_prints_json(capsys, rows, "tables", "--format", "json", "--max-weight", "6")

    for expr, weight in (("Q3^2 + 1/2*Q2*Q4", 6), ("Q3", 3)):
        series = knapsack_bracket(parse_poly(expr), 14)
        form = form_of(series, weight)
        payload = {
            "series": {"order": series.order, "coefficients": [str(c) for c in series.coeffs]},
            "q_bracket": _form_terms_json(form),
        }
        _assert_prints_json(capsys, payload, "qbracket", expr, "-N", "14", "--format", "json")

    coeffs = "1 -24 -72 -96 -168 -144 -288 -192 -360 -312 -432"  # E2
    form = recognize(QSeries([Fraction(c) for c in coeffs.split()]), 2)
    _assert_prints_json(capsys, {"q_bracket": _form_terms_json(form)}, "recognize", coeffs, "--weight", "2", "--format", "json")
