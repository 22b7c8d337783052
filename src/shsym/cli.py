"""Command-line surface.

Subcommands: basis, decompose, qbracket, recognize, eval, verify, tables.
Expressions come from an argument or stdin, results go to stdout,
diagnostics to stderr.  Exit codes: 0 ok, 1 verification or recognition
failure, 2 usage or parse error.

Each process runs one subcommand, so this module imports only the ring
(`ssym`) and the partitions at its top, and each subcommand imports the
layers it runs: eval nothing more, basis and decompose the harmonic layer,
which certifies its slots with its own closed-form laplacian, recognize
the series and recognition, qbracket and tables the harmonic layer as well
(qbracket for an even-weight component only), and verify its suites and
oracles too, the operator algebra among them.  JSON is written here, so
no subcommand loads `json`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .partitions import enumerate_min_part, format_partition, parse_partition
from .ssym import (
    MAX_BRACKET_WEIGHT,
    MAX_CONSTANT_DIGITS,
    MAX_ORDER,
    MAX_TABLE_WEIGHT,
    MAX_WEIGHT,
    InsufficientOrderError,
    ParseError,
    RecognitionError,
    SSPoly,
    eval_at,
    format_poly,
    format_poly_latex,
    parse_poly,
)

if TYPE_CHECKING:
    from .qseries import QSeries
    from .quasimodular import QMForm

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _check_limit(what: str, value: int, limit: int) -> None:
    if value < 0:
        raise ValueError(f"{what} must be non-negative")
    if value > limit:
        raise ValueError(f"{what} {value} is above the limit of {limit}")


def _check_min_part(value: int) -> None:
    if value < 1:
        raise ValueError(f"--min-part must be at least 1, got {value}")


def _read_expr(arg: str | None) -> str:
    if arg is None or arg == "-":
        return sys.stdin.read()
    return arg


def _json_string(text: str) -> str:
    """A JSON string of text that needs no escaping: every string the CLI
    writes is one of its own key names or the text of a number."""
    if not (text.isascii() and text.isprintable()) or '"' in text or "\\" in text:
        raise TypeError(f"cannot write {text!r} as JSON without escaping it")
    return f'"{text}"'


def _write_json(value, pad: str, out: list[str]) -> None:
    """Append the text of json.dumps(value, indent=2) at the indentation pad.

    A polynomial is written as its term list, each term a "coeff" and a
    "monomial" mapping each generator to its exponent, straight from its
    terms.  Python's C encoder ignores `indent`, so json.dumps would
    encode every indented payload in pure Python instead.
    """
    inner = pad + "  "
    if isinstance(value, str):
        out.append(_json_string(value))
    elif value is True or value is False or value is None:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif not isinstance(value, (SSPoly, dict, list, tuple)):
        raise TypeError(f"cannot write {type(value).__name__} as JSON")
    elif not value:  # an empty container or polynomial
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, SSPoly):
        term = inner + "  "
        sep = "[\n" + inner
        for mono, coeff in value.terms():
            exponents = ",\n".join(f'{term}  "{k}": {e2 // 2}' for k, e2 in mono)
            monomial = f"{{\n{exponents}\n{term}}}" if exponents else "{}"
            out.append(f'{sep}{{\n{term}"coeff": "{coeff!s}",\n{term}"monomial": {monomial}\n{inner}}}')
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(value, dict):
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(f"{sep}{_json_string(key)}: ")
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")


def _print_json(payload) -> None:
    """Print payload as json.dumps(payload, indent=2) would, polynomials
    written as their term lists."""
    out: list[str] = []
    _write_json(payload, "", out)
    print("".join(out))


def _form_json(m: QMForm) -> list[dict]:
    return [
        {"coeff": str(c), "P": a, "Q": b, "R": r} for (a, b, r), c in m.terms()
    ]


def _series_json(s: QSeries) -> dict:
    return {"order": s.order, "coefficients": [str(c) for c in s.coeffs]}


def cmd_basis(args) -> int:
    from .harmonic import basis_element

    _check_limit("weight", args.n, MAX_WEIGHT)
    _check_min_part(args.min_part)
    rows = [(lam, basis_element(lam)) for lam in enumerate_min_part(args.n, args.min_part)]
    if args.format == "json":
        _print_json([{"lambda": list(lam), "h": h} for lam, h in rows])
    elif args.format == "latex":
        print(r"\begin{array}{ll}")
        print(r"\lambda & h_\lambda \\ \hline")
        for lam, h in rows:
            print(f"{format_partition(lam)} & {format_poly_latex(h)} \\\\")
        print(r"\end{array}")
    else:
        for lam, h in rows:
            print(f"{format_partition(lam)}: {format_poly(h)}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    from .harmonic import decompose

    f = parse_poly(_read_expr(args.expr))
    if f.in_lambda_star():  # anything else is rejected by decompose
        _check_limit("weight", max(f.weight_components(), default=0), MAX_WEIGHT)
    # decompose raises unless every slot it returns is harmonic
    dec = decompose(f)
    if args.format == "json":
        payload = {
            "components": dec.components,
            "harmonic": [True] * len(dec.components),
            "depth": dec.depth,
        }
        _print_json(payload)
    else:
        render = format_poly_latex if args.format == "latex" else format_poly
        for r, h in enumerate(dec.components):
            print(f"h{r}: {render(h)}   [harmonic]")
        print(f"depth: {dec.depth}")
    return EXIT_OK


def cmd_qbracket(args) -> int:
    from .quasimodular import bracket_form, format_qmform, format_qmform_latex

    _check_limit("order", args.order, MAX_ORDER)
    f = parse_poly(_read_expr(args.expr))
    series, form = bracket_form(f, args.order, args.weight)
    if args.format == "json":
        _print_json({"series": _series_json(series), "q_bracket": _form_json(form)})
    else:
        render = format_qmform_latex if args.format == "latex" else format_qmform
        print(f"series: {series}")
        print(render(form))
    return EXIT_OK


# A coefficient: an optionally signed integer, ratio of integers, or decimal
# with an optional exponent.  Underscores between digits, which Fraction
# would also read, are refused, as parse_poly refuses them.  Compiled on
# first use (re caches it), so that other subcommands do not pay for it.
_COEFFICIENT = r"[-+]?(?:(?P<num>\d+)/(?P<den>\d+)|(?P<mantissa>\d+\.?\d*|\.\d+)(?:[eE](?P<exp>[-+]?\d+))?)"


def _coefficient(tok: str) -> Fraction:
    """A coefficient read from its text, refused when its numerator or
    denominator could be longer than MAX_CONSTANT_DIGITS before any integer
    is built: Fraction("1e10000000") would build a ten-million-digit one."""
    m = re.fullmatch(_COEFFICIENT, tok)
    if m is None:
        raise ValueError("not a number")
    if m["num"] is not None:
        digits = max(len(m["num"]), len(m["den"]))
    else:
        digits = sum(ch != "." for ch in m["mantissa"])
        exponent = (m["exp"] or "").lstrip("+-").lstrip("0")
        if len(exponent) > len(str(MAX_CONSTANT_DIGITS)):
            digits = MAX_CONSTANT_DIGITS + 1
        else:
            digits += int(exponent or 0)
    if digits > MAX_CONSTANT_DIGITS:
        raise ValueError(f"longer than {MAX_CONSTANT_DIGITS} digits")
    if m["den"] is not None and not int(m["den"]):
        raise ValueError("zero denominator")
    return Fraction(tok)


def cmd_recognize(args) -> int:
    from .qseries import QSeries
    from .quasimodular import format_qmform, format_qmform_latex, recognize

    _check_limit("order", args.order, MAX_ORDER)
    text = _read_expr(args.coefficients)
    coeffs = []
    for tok in re.finditer(r"[^\s,]+", text):
        try:
            coeffs.append(_coefficient(tok[0]))
        except ValueError as exc:
            raise ParseError(f"bad coefficient: {exc}", tok.start()) from None
    if not coeffs:
        raise ParseError("no coefficients given", 0)
    # only the recognized prefix goes over one common denominator
    series = QSeries(coeffs[: args.order + 1])
    form = recognize(series, args.weight)
    if args.format == "json":
        _print_json({"q_bracket": _form_json(form)})
    else:
        render = format_qmform_latex if args.format == "latex" else format_qmform
        print(render(form))
    return EXIT_OK


def cmd_eval(args) -> int:
    f = parse_poly(_read_expr(args.expr))
    lam = parse_partition(args.partition)
    value = eval_at(f, lam)
    # refused before printing: the interpreter will not convert an integer
    # this long to text, and its limit is not ours to change
    if max(abs(value.numerator), value.denominator) >= 10**MAX_CONSTANT_DIGITS:
        raise ValueError(
            f"value at {format_partition(lam)} has a numerator or denominator"
            f" longer than {MAX_CONSTANT_DIGITS} digits"
        )
    if args.format == "json":
        print(f'{{"value": {_json_string(str(value))}}}')
    else:
        print(value)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_limit("order", args.order, MAX_ORDER)
    _check_limit("max weight", args.max_weight, MAX_TABLE_WEIGHT)
    from .verify import run_all

    ok = run_all(max_weight=args.max_weight, order=args.order)
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_tables(args) -> int:
    from .harmonic import basis_element
    from .quasimodular import format_qmform, format_qmform_latex, slots_form

    # -N is refused past its limit as elsewhere, but no form depends on it
    _check_limit("order", args.order, MAX_ORDER)
    _check_limit("max weight", args.max_weight, MAX_TABLE_WEIGHT)
    _check_min_part(args.min_part)
    rows = []
    for n in range(args.max_weight + 1):
        for lam in enumerate_min_part(n, args.min_part):
            # a basis element is harmonic: it is its own one slot
            h = basis_element(lam)
            rows.append((lam, h, slots_form((h,), n)))
    if args.format == "json":
        _print_json(
            [{"lambda": list(lam), "h": h, "q_bracket": _form_json(form)} for lam, h, form in rows]
        )
    elif args.format == "latex":
        print(r"\begin{array}{lll}")
        print(r"\lambda & h_\lambda & \langle h_\lambda\rangle_q \\ \hline")
        for lam, h, form in rows:
            print(
                f"{format_partition(lam)} & {format_poly_latex(h)}"
                f" & {format_qmform_latex(form)} \\\\"
            )
        print(r"\end{array}")
    else:
        for lam, h, form in rows:
            print(f"{format_partition(lam)}\t{format_poly(h)}\t{format_qmform(form)}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, with a usage error reported on one line, as every other
    error is (argparse prints the usage first, and an unrecognized argument
    as written, newlines included)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {' '.join(message.splitlines())} (see {self.prog} --help)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="shsym",
        description=(
            "Exact computations with shifted symmetric polynomials: harmonic "
            "bases and decompositions, partition averages as q-series, and "
            "their quasimodular forms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, order="series truncation order", fmt=True):
        if order:
            p.add_argument("-N", "--order", type=int, default=30, help=f"{order} (at most {MAX_ORDER})")
        if fmt:
            p.add_argument(
                "--format",
                choices=("text", "latex", "json"),
                default="text",
                help="output format",
            )

    p = sub.add_parser("basis", help="harmonic basis of a given weight")
    p.add_argument("n", type=int, help=f"weight (at most {MAX_WEIGHT})")
    p.add_argument("--min-part", type=int, default=3, help="smallest allowed part")
    add_common(p, order=False)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("decompose", help="harmonic decomposition of an expression")
    p.add_argument(
        "expr", nargs="?", help=f"expression of weight at most {MAX_WEIGHT} (stdin if omitted)"
    )
    add_common(p, order=False)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("qbracket", help="partition average of an expression")
    p.add_argument(
        "expr", nargs="?", help=f"expression of weights at most {MAX_BRACKET_WEIGHT} (stdin if omitted)"
    )
    p.add_argument("--weight", type=int, help="recognition weight (inferred if omitted)")
    add_common(p)
    p.set_defaults(func=cmd_qbracket)

    p = sub.add_parser("recognize", help="identify a series as a form of given weight")
    p.add_argument(
        "coefficients", nargs="?", help="series coefficients c0 c1 ... (stdin if omitted)"
    )
    p.add_argument("--weight", type=int, required=True, help="target weight")
    add_common(p)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("eval", help="evaluate an expression at a partition")
    p.add_argument("expr", help="expression")
    p.add_argument("partition", help='partition, e.g. "(4,3,3)" or "()"')
    add_common(p, order=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument(
        "--max-weight",
        type=int,
        default=10,
        help=f"largest random weight (at most {MAX_TABLE_WEIGHT})",
    )
    add_common(p, fmt=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tables", help="full basis/average tables up to a weight")
    p.add_argument(
        "--max-weight", type=int, default=10, help=f"largest weight (at most {MAX_TABLE_WEIGHT})"
    )
    p.add_argument("--min-part", type=int, default=3, help="smallest allowed part")
    add_common(p, order="checked and ignored: the table does not depend on the order")
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        # a closed pipe shows here, while it can still be handled
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit does not fail
        # again; the reader left, so nothing more is reported.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_FAILURE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RecognitionError, InsufficientOrderError) as exc:
        print(f"recognition error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
