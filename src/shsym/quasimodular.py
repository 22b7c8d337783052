"""Quasimodular forms as exact polynomials in the three weight-graded
generators P (weight 2), Q (weight 4) and R (weight 6).

Depth is the degree in P; the depth-0 elements are the modular ones.
Recognition identifies a truncated q-series as the unique weight-k
combination of generator monomials, with an overdetermination margin that
certifies the result at the stated order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING, Mapping, NamedTuple, Union

from .qseries import QSeries, check_bracket_input, eisenstein, q_bracket, unpack_signed
from .ssym import InsufficientOrderError, LinearSolveError, RecognitionError, SSPoly, SparseTerms
from .ssym import _latex_power, format_signed_sum

if TYPE_CHECKING:
    from .harmonic import Decomposition

Scalar = Union[int, Fraction]
Triple = tuple[int, int, int]

RECOGNITION_MARGIN = 10


class CrossCheckError(RuntimeError):
    """Internal disagreement between the recognized depth and the harmonic
    slot brackets; indicates an implementation bug."""


class QMForm(SparseTerms):
    """Map from exponent triples (a, b, c) to nonzero rational coefficients,
    representing the sum of c_abc * P^a Q^b R^c, ordered by descending
    (a, b, c)."""

    __slots__ = ()

    _UNIT = (0, 0, 0)

    @staticmethod
    def _key_mul(s: Triple, t: Triple) -> Triple:
        return (s[0] + t[0], s[1] + t[1], s[2] + t[2])

    @staticmethod
    def _key_weight(t: Triple) -> int:
        return 2 * t[0] + 4 * t[1] + 6 * t[2]

    @staticmethod
    def _key_order(t: Triple) -> Triple:
        return (-t[0], -t[1], -t[2])

    def __init__(self, terms: Mapping[Triple, Scalar] | None = None):
        if terms and any(e < 0 for t in terms for e in t):
            raise ValueError("exponents must be non-negative")
        super().__init__(terms)

    @classmethod
    def gen(cls, name: str) -> "QMForm":
        try:
            triple = {"P": (1, 0, 0), "Q": (0, 1, 0), "R": (0, 0, 1)}[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None
        return cls({triple: 1})

    def __str__(self) -> str:
        return format_qmform(self)


def depth(m: QMForm) -> int:
    """Degree in the weight-2 generator; the zero form has depth 0."""
    return max((a for (a, _, _) in m._terms), default=0)


def monomials_of_weight(k: int) -> list[Triple]:
    """All exponent triples of weight k, in descending lexicographic order."""
    if k < 0 or k % 2:
        return []
    out = []
    for a in range(k // 2, -1, -1):
        rem = k - 2 * a
        for b in range(rem // 4, -1, -1):
            rem2 = rem - 4 * b
            if rem2 % 6 == 0:
                out.append((a, b, rem2 // 6))
    out.sort(reverse=True)
    return out


# A recognition at weight k <= 32 (the most an order <= 40 admits) uses at
# most 32 powers per order: P^0..P^16, Q^0..Q^8 and R^0..R^5.
@lru_cache(maxsize=1024)
def _gen_power(name: str, e: int, order: int) -> QSeries:
    if e == 0:
        return QSeries.one(order)
    base = eisenstein({"P": 2, "Q": 4, "R": 6}[name], order)
    return _gen_power(name, e - 1, order) * base


def expand(m: QMForm, order: int) -> QSeries:
    """Exact q-expansion of a form to the given order."""
    acc = QSeries.zero(order)
    for (a, b, c), coeff in m.terms():
        term = _gen_power("P", a, order) * _gen_power("Q", b, order)
        term = term * _gen_power("R", c, order)
        acc = acc + term * coeff
    return acc


def check_recognizable(k: int, order: int) -> None:
    """Raise unless a series to `order` can be recognized at weight k:
    ValueError for a negative or odd weight, InsufficientOrderError when
    order + 1 is below the number of weight-k triples plus the margin.
    """
    if k < 0:
        raise ValueError("recognition weight must be non-negative")
    if k % 2:
        raise ValueError("recognition weight must be even; odd-weight series must vanish")
    _check_order(k, order)


def _check_order(k: int, order: int) -> None:
    """Raise InsufficientOrderError when order + 1 is below the number of
    triples of weight 2 (k // 2) plus the margin.

    The triples are the partitions of k // 2 into parts <= 3, counted in
    closed form, so that a weight too large for the order is refused before
    its O(k^2) triples are listed or its series is summed.
    """
    needed = ((k // 2 + 3) ** 2 + 6) // 12 + RECOGNITION_MARGIN
    if order + 1 < needed:
        raise InsufficientOrderError(
            f"insufficient order: weight {k} needs at least {needed} coefficients, got {order + 1}"
        )


# Recognition works in integers: P, Q and R have integer coefficients, so
# every column P^a Q^b R^c does, and a fraction-free elimination of the
# columns (Bareiss, "Sylvester's identity and multistep integer-preserving
# Gaussian elimination", Math. Comp. 22, 1968) is done once per (weight,
# order).  `expand` and `_gen_power` stay in Fractions; verify keeps the
# Fraction solve over their columns as the oracle.


def _int_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two integer series of equal length, truncated to it: one
    integer product of the two packed series, whose slot n holds a sum of
    at most len(a) products, so that it fits the width below with a sign."""
    width = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + len(a).bit_length() + 1
    x = y = 0
    for s, t in zip(reversed(a), reversed(b)):
        x = (x << width) + s
        y = (y << width) + t
    return tuple(unpack_signed(x * y, width, len(a)))


class _Elimination(NamedTuple):
    """A weight-k system A x = b with rows 0..order, eliminated for any b.

    With `det` the last pivot, each row of `solve` is an integer vector u
    with u A = det * e_c for its pivot column c, so x_c = u b / det.  Each
    row of `null` is an integer vector v with v A = 0, one per row of A
    outside the pivot rows; b is consistent exactly when every v b is 0.
    Vectors are sparse, as (row index, value) pairs.
    """

    det: int
    pivots: tuple[int, ...]
    solve: tuple[tuple[tuple[int, int], ...], ...]
    null: tuple[tuple[tuple[int, int], ...], ...]


def _sparse(row: list[int]) -> tuple[tuple[int, int], ...]:
    return tuple((i, v) for i, v in enumerate(row) if v)


# A CLI request recognizes at one order, at the even weights <= 32 it admits
# (17 at most); the bound holds every weight at three orders.
@lru_cache(maxsize=64)
def _elimination(k: int, order: int) -> _Elimination:
    """Fraction-free Gauss-Jordan elimination of [A | I], where column
    (a, b, c) of A is P^a Q^b R^c to `order`.

    Step j divides by the previous pivot; the quotient is exact by
    Sylvester's identity, so every entry stays an integer.
    """
    def powers(weight: int) -> list[tuple[int, ...]]:
        # the generator of this weight to the powers 0 .. k // weight
        base = tuple(c.numerator for c in eisenstein(weight, order).coeffs)
        out = [(1,) + (0,) * order]
        for _ in range(k // weight):
            out.append(_int_mul(out[-1], base))
        return out

    p, q, r = powers(2), powers(4), powers(6)
    columns = [_int_mul(_int_mul(p[a], q[b]), r[c]) for a, b, c in monomials_of_weight(k)]
    n_rows, n_cols = order + 1, len(columns)
    rows = [
        [col[i] for col in columns] + [int(i == j) for j in range(n_rows)]
        for i in range(n_rows)
    ]
    pivots: list[int] = []
    prev = 1
    for c in range(n_cols):
        r = len(pivots)
        found = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(n_rows):
            if i != r:
                row, f = rows[i], rows[i][c]
                rows[i] = [(p * v - f * w) // prev for v, w in zip(row, pivot_row)]
        pivots.append(c)
        prev = p
    r = len(pivots)
    return _Elimination(
        det=prev,
        pivots=tuple(pivots),
        solve=tuple(_sparse(row[n_cols:]) for row in rows[:r]),
        null=tuple(_sparse(row[n_cols:]) for row in rows[r:]),
    )


def recognize(s: QSeries, k: int, order: int | None = None) -> QMForm:
    """Identify a truncated series as the unique weight-k form.

    Requires order + 1 >= number of weight-k monomials + margin; the extra
    rows turn the solve into an overdetermined consistency check.  Raises
    RecognitionError when the coefficients to `order` are not those of a
    weight-k form, and LinearSolveError("underdetermined") when they do not
    pin one down.
    """
    if order is None:
        order = s.order
    if order > s.order:
        raise InsufficientOrderError(
            f"series order {s.order} is below the requested order {order}"
        )
    check_recognizable(k, order)
    elim = _elimination(k, order)
    rhs = s.coeffs[: order + 1]
    den = lcm(*(c.denominator for c in rhs))
    b = [c.numerator * (den // c.denominator) for c in rhs]
    for v in elim.null:
        if sum(x * b[i] for i, x in v):
            raise RecognitionError(f"not quasimodular of weight {k} at this order")
    triples = monomials_of_weight(k)
    if len(elim.pivots) < len(triples):
        raise LinearSolveError("underdetermined")
    scale = elim.det * den
    return QMForm(
        {
            triples[c]: Fraction(sum(x * b[i] for i, x in u), scale)
            for c, u in zip(elim.pivots, elim.solve)
        }
    )


# -- derivations ---------------------------------------------------------------

_D_OF_GEN = {
    "P": QMForm({(2, 0, 0): Fraction(1, 12), (0, 1, 0): Fraction(-1, 12)}),
    "Q": QMForm({(1, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(-1, 3)}),
    "R": QMForm({(1, 0, 1): Fraction(1, 2), (0, 2, 0): Fraction(-1, 2)}),
}


def ramanujan_d(m: QMForm) -> QMForm:
    """The derivation q d/dq expressed on the generators, extended by the
    Leibniz rule; raises weight by 2."""
    acc = QMForm.zero()
    for (a, b, c), coeff in m.terms():
        if a:
            acc = acc + QMForm({(a - 1, b, c): coeff * a}) * _D_OF_GEN["P"]
        if b:
            acc = acc + QMForm({(a, b - 1, c): coeff * b}) * _D_OF_GEN["Q"]
        if c:
            acc = acc + QMForm({(a, b, c - 1): coeff * c}) * _D_OF_GEN["R"]
    return acc


def frak_d(m: QMForm) -> QMForm:
    """Twelve times the partial derivative in the weight-2 generator;
    lowers weight by 2 and depth by 1."""
    return QMForm(
        {(a - 1, b, c): 12 * a * coeff for (a, b, c), coeff in m._terms.items() if a}
    )


def d_hat(m: QMForm) -> QMForm:
    """Shifted derivation: the raising member of the sl2 triple; increases
    depth by exactly 1."""
    return ramanujan_d(m) - QMForm.gen("P") * m * Fraction(1, 24)


def w_hat(m: QMForm) -> QMForm:
    """Shifted weight operator (k - 1/2 on weight-k input), the Cartan
    member of the sl2 triple; rejects non-homogeneous input."""
    return m * (Fraction(m.weight()) - Fraction(1, 2))


# -- the modularity decision ---------------------------------------------------


def bracket_form(
    f: SSPoly, order: int, weight: int | None = None
) -> tuple[QSeries, QMForm]:
    """Partition average of f and the form it is recognized as.

    Without `weight`, each weight component is bracketed once and
    recognized at its own weight; the series is the sum of the component
    series.  With `weight`, the whole bracket is recognized at that weight.
    An odd weight must give the zero series.
    """
    components = f.weight_components()
    parts = components if weight is None else {weight: f}
    # Check every part before bracketing any: input q_bracket rejects is
    # reported as such rather than as a recognition failure, and a weight
    # too large for the order is refused before its series is summed.  An
    # odd part is bounded as the even weight below it would be.  The real
    # weights of f are bounded even when another weight is declared, since
    # they, not the declared one, set the cost of the sum.
    check_bracket_input(f, order)
    for w in parts:
        if w % 2 == 0:
            check_recognizable(w, order)
        else:
            _check_order(w, order)
    for w in components:
        _check_order(w, order)
    brackets = {w: q_bracket(fw, order) for w, fw in parts.items()}
    series, form = QSeries.zero(order), QMForm.zero()
    for w, s in brackets.items():
        if w % 2 == 0:
            form = form + recognize(s, w)
        elif not s.is_zero:
            raise RecognitionError(f"odd weight {w} requires a vanishing series")
        series = series + s
    return series, form


def is_modular_bracket(
    f: SSPoly, order: int
) -> tuple[bool, QMForm, Decomposition]:
    """Decide whether the partition average of a weight-homogeneous Q1-free
    element is modular (depth 0 once recognized).

    Also cross-checks the structural criterion: modularity must coincide
    with the vanishing, to the stated order, of the bracket of every
    harmonic slot beyond the first.
    """
    if not f.in_lambda_star():
        raise ValueError("input must be Q1-free with integer exponents")
    if not f.is_homogeneous():
        raise ValueError("input must be weight-homogeneous")
    # imported here: recognition alone does not need the harmonic layer
    from .harmonic import decompose

    _, form = bracket_form(f, order, f.weight())
    modular = depth(form) == 0
    dec = decompose(f)
    tail_vanishes = all(q_bracket(h, order).is_zero for h in dec.components[1:])
    if tail_vanishes != modular:
        raise CrossCheckError(
            "recognized depth disagrees with the harmonic slot brackets"
        )
    return modular, form, dec


# -- text form -----------------------------------------------------------------

_GEN_NAMES = ("P", "Q", "R")


def _form_factors(triple: Triple, latex: bool) -> str:
    factors = []
    for name, e in zip(_GEN_NAMES, triple):
        if e == 1:
            factors.append(name)
        elif e:
            factors.append(_latex_power(name, str(e)) if latex else f"{name}^{e}")
    return (" " if latex else "*").join(factors)


def format_qmform(m: QMForm) -> str:
    """Signed sum of c*P^a*Q^b*R^c, omitting unit exponents and coefficients."""
    return format_signed_sum((c, _form_factors(t, False)) for t, c in m.terms())


def format_qmform_latex(m: QMForm) -> str:
    return format_signed_sum(
        ((c, _form_factors(t, True)) for t, c in m.terms()), latex=True
    )
