"""Exact computer algebra for shifted symmetric polynomials: the generator
ring with its differential operators, harmonic decomposition and explicit
harmonic basis, partition averages as truncated q-series, and recognition
of the resulting quasimodular forms.

The public names are loaded on first use (PEP 562): importing the package
or one of its modules compiles only the modules that are needed, and
`from shsym import decompose` loads the harmonic layer and what it imports.
"""

import importlib

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "harmonic": (
        "Decomposition", "HarmonicBasis", "basis_element", "decompose", "depth_ss", "dim_h",
        "harmonic_basis", "is_harmonic", "lambda_star_basis", "leading_term_check",
        "unusual_identity_check",
    ),
    "operators": (
        "commutator", "d_op", "d_op_n", "delta_lambda", "delta_n", "dualize_apply", "e_hat",
        "euler_op", "falling_factorial", "kelvin", "laplacian", "q2_hat",
    ),
    "partitions": (
        "FrobeniusCoords", "Partition", "c_set", "count_partitions", "enumerate_min_part",
        "enumerate_partitions", "format_partition", "frobenius", "parse_partition",
    ),
    "qseries": ("QSeries", "d_series", "eisenstein", "partition_gf", "q_bracket"),
    "quasimodular": (
        "QMForm", "RecognitionError", "InsufficientOrderError", "bracket_form", "d_hat", "depth",
        "expand", "format_qmform", "frak_d", "is_modular_bracket", "monomials_of_weight",
        "ramanujan_d", "recognize", "w_hat",
    ),
    "ssym": (
        "Monomial", "ParseError", "SSPoly", "beta", "eval_at", "eval_qk", "format_poly",
        "parse_poly",
    ),
}

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
