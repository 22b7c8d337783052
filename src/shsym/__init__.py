"""Exact computer algebra for shifted symmetric polynomials: the generator
ring with its differential operators, harmonic decomposition and explicit
harmonic basis, partition averages as truncated q-series, and recognition
of the resulting quasimodular forms."""

from .harmonic import (
    Decomposition,
    HarmonicBasis,
    basis_element,
    decompose,
    depth_ss,
    dim_h,
    harmonic_basis,
    is_harmonic,
    lambda_star_basis,
    leading_term_check,
    unusual_identity_check,
)
from .operators import (
    commutator,
    d_op,
    d_op_n,
    delta_lambda,
    delta_n,
    dualize_apply,
    e_hat,
    euler_op,
    falling_factorial,
    kelvin,
    laplacian,
    q2_hat,
)
from .partitions import (
    FrobeniusCoords,
    Partition,
    c_set,
    count_partitions,
    enumerate_min_part,
    enumerate_partitions,
    format_partition,
    frobenius,
    parse_partition,
)
from .qseries import QSeries, d_series, eisenstein, partition_gf, q_bracket
from .quasimodular import (
    QMForm,
    RecognitionError,
    InsufficientOrderError,
    bracket_form,
    d_hat,
    depth,
    expand,
    format_qmform,
    frak_d,
    is_modular_bracket,
    monomials_of_weight,
    ramanujan_d,
    recognize,
    w_hat,
)
from .ssym import (
    Monomial,
    ParseError,
    SSPoly,
    beta,
    eval_at,
    eval_qk,
    format_poly,
    parse_poly,
)

__version__ = "0.1.0"
