"""Quasimodular forms as exact polynomials in the three weight-graded
generators P (weight 2), Q (weight 4) and R (weight 6).

Depth is the degree in P; the depth-0 elements are the modular ones.
The bracket of a harmonic element is modular (the source paper's
theorem), so `slots_form` solves each harmonic slot in the modular forms
of its weight from the Sturm prefix of its bracket, and every bracket
takes its form from it, whatever its order, up to the weight cap
ssym.MAX_BRACKET_WEIGHT.  Recognition identifies a truncated q-series as
the unique weight-k combination of generator monomials, with an
overdetermination margin that certifies the result at the stated order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Sequence, Union

from .qseries import QSeries, check_bracket_input, eisenstein, q_bracket
from .ssym import MAX_BRACKET_WEIGHT, InsufficientOrderError, LinearSolveError, RecognitionError, SSPoly, SparseTerms
from .ssym import _latex_power, format_signed_sum

if TYPE_CHECKING:
    from .harmonic import Decomposition

Scalar = Union[int, Fraction]
Triple = tuple[int, int, int]

RECOGNITION_MARGIN = 10


class QMForm(SparseTerms):
    """The sum of c_abc * P^a Q^b R^c, keyed by exponent triples (a, b, c),
    its terms ordered by descending (a, b, c)."""

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
    return max((a for (a, _, _) in m.num), default=0)


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


def check_recognizable(k: int, order: int) -> None:
    """Raise unless a series to `order` can be recognized at weight k:
    ValueError for a negative or odd weight, InsufficientOrderError when
    order + 1 is below the number of weight-k triples plus the margin.

    The triples are the partitions of k / 2 into parts <= 3, counted in
    closed form, so that a weight too large for the order is refused before
    its O(k^2) triples are listed or its series is summed.
    """
    if k < 0:
        raise ValueError("recognition weight must be non-negative")
    if k % 2:
        raise ValueError("recognition weight must be even; odd-weight series must vanish")
    needed = ((k // 2 + 3) ** 2 + 6) // 12 + RECOGNITION_MARGIN
    if order + 1 < needed:
        raise InsufficientOrderError(
            f"insufficient order: weight {k} needs at least {needed} coefficients, got {order + 1}"
        )


# Recognition works in integers: P, Q and R have integer coefficients, so
# every column P^a Q^b R^c is a tuple of integers, and each series is
# recognized by a fraction-free elimination of [A | b] (Bareiss,
# "Sylvester's identity and multistep integer-preserving Gaussian
# elimination", Math. Comp. 22, 1968).  verify keeps a Fraction solve over
# columns of its own as the oracle.


# A CLI request recognizes or expands at one order, at the even weights <= 32
# it admits (17 at most), and solves each even slot weight at its own Sturm
# order k // 12 + 1 (17 more).  verify also recognizes at the run's order
# and at 40, and expands at 100 and 200, at fewer weights.
@lru_cache(maxsize=64)
def _columns(k: int, order: int) -> dict[Triple, tuple[int, ...]]:
    """The integer coefficients of P^a Q^b R^c to `order`, keyed by the
    triples of monomials_of_weight(k) in its order.  The dict is shared by
    every caller and must not be changed."""
    triples = monomials_of_weight(k)
    powers = []
    for i, w in enumerate((2, 4, 6)):
        base, ps = eisenstein(w, order), [QSeries.one(order)]
        for _ in range(max((t[i] for t in triples), default=0)):
            ps.append(ps[-1] * base)
        powers.append(ps)
    return {(a, b, c): (powers[0][a] * powers[1][b] * powers[2][c]).num for a, b, c in triples}


def expand(m: QMForm, order: int) -> QSeries:
    """Exact q-expansion of a form to the given order."""
    num = [0] * (order + 1)
    for t, c in m.num.items():
        column = _columns(QMForm._key_weight(t), order)[t]
        num = [n + c * x for n, x in zip(num, column)]
    return QSeries(num, order, den=m.den)


def recognize(s: QSeries, k: int) -> QMForm:
    """Identify a truncated series as the unique weight-k form.

    Requires s.order + 1 >= number of weight-k monomials + margin; the
    extra rows turn the solve into an overdetermined consistency check.
    Raises RecognitionError when the coefficients to s.order are not those
    of a weight-k form, and LinearSolveError("underdetermined") when they do
    not pin one down.
    """
    check_recognizable(k, s.order)
    return _solve(_columns(k, s.order), s, f"quasimodular of weight {k}")


def _solve(columns: Mapping[Triple, tuple[int, ...]], s: QSeries, what: str) -> QMForm:
    """The form sum x_t P^a Q^b R^c, t = (a, b, c), whose columns to s.order
    sum to s, by fraction-free Gauss-Jordan elimination of [A | b]: step j
    divides by the previous pivot, exactly by Sylvester's identity.

    Raises RecognitionError ("not <what> at this order") unless every row
    outside the pivot rows ends in 0, then LinearSolveError("underdetermined")
    unless every column has a pivot.
    """
    rows = [list(row) for row in zip(*columns.values(), s.num)]
    n_rows, n_cols = s.order + 1, len(columns)
    rank, prev = 0, 1
    for c in range(n_cols):
        found = next((i for i in range(rank, n_rows) if rows[i][c]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[c]
        for i in range(n_rows):
            if i != rank:
                row, f = rows[i], rows[i][c]
                rows[i] = [(p * v - f * w) // prev for v, w in zip(row, pivot_row)]
        rank += 1
        prev = p
    # b is consistent exactly when the rows outside the pivot rows end in 0
    if any(row[-1] for row in rows[rank:]):
        raise RecognitionError(f"not {what} at this order")
    if rank < n_cols:
        raise LinearSolveError("underdetermined")
    # at full rank, the pivot row of column j ends in prev * x_j
    sign = 1 if prev > 0 else -1
    return QMForm._make(
        {t: sign * row[-1] for t, row in zip(columns, rows)}, abs(prev) * s.den
    )


# -- derivations ---------------------------------------------------------------

_D_OF_GEN = {
    "P": QMForm({(2, 0, 0): Fraction(1, 12), (0, 1, 0): Fraction(-1, 12)}),
    "Q": QMForm({(1, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(-1, 3)}),
    "R": QMForm({(1, 0, 1): Fraction(1, 2), (0, 2, 0): Fraction(-1, 2)}),
}


def _partial(m: QMForm, i: int) -> QMForm:
    """The partial derivative in generator i (0, 1, 2 for P, Q, R)."""
    return QMForm._make(
        {t[:i] + (t[i] - 1,) + t[i + 1 :]: t[i] * n for t, n in m.num.items() if t[i]}, m.den
    )


def ramanujan_d(m: QMForm) -> QMForm:
    """The derivation q d/dq expressed on the generators, extended by the
    Leibniz rule; raises weight by 2."""
    acc = QMForm.zero()
    for i, name in enumerate(_GEN_NAMES):
        acc = acc + _partial(m, i) * _D_OF_GEN[name]
    return acc


def frak_d(m: QMForm) -> QMForm:
    """Twelve times the partial derivative in the weight-2 generator;
    lowers weight by 2 and depth by 1."""
    return _partial(m, 0) * 12


def d_hat(m: QMForm) -> QMForm:
    """Shifted derivation: the raising member of the sl2 triple; increases
    depth by exactly 1."""
    return ramanujan_d(m) - QMForm.gen("P") * m * Fraction(1, 24)


def w_hat(m: QMForm) -> QMForm:
    """Shifted weight operator (k - 1/2 on weight-k input), the Cartan
    member of the sl2 triple; rejects non-homogeneous input."""
    return m * (Fraction(m.weight()) - Fraction(1, 2))


# -- the modularity decision ---------------------------------------------------


def _check_weight_cap(w: int) -> None:
    """Raise ValueError when a bracket weight is above ssym.MAX_BRACKET_WEIGHT,
    the weights whose slots verify proves."""
    if w > MAX_BRACKET_WEIGHT:
        raise ValueError(f"weight {w} is above the limit of {MAX_BRACKET_WEIGHT}")


def bracket_form(
    f: SSPoly, order: int, weight: int | None = None
) -> tuple[QSeries, QMForm]:
    """Partition average of f to `order` and its form.

    The form is, by the source paper's theorem, the sum over the even-weight
    components f_w of slots_form of the harmonic slots of pr(f_w), and the
    series is its expansion.  Conjugating partitions maps Q_k to (-1)^k Q_k,
    so an odd-weight component brackets to zero.  With `weight`, the series
    is recognized at that weight instead: an odd weight must give the zero
    series, and a negative one is refused whatever its parity.
    """
    if weight is not None and weight < 0:
        raise ValueError("recognition weight must be non-negative")
    # Check every weight before solving any: input q_bracket rejects is
    # reported as such rather than as a recognition failure, and a declared
    # even weight is refused by the recognition margin before the slots are
    # solved.  The weights of f, and a declared odd weight, are bounded by
    # the cap alone, so that a refusal does not depend on the order or on
    # which components are summed.
    check_bracket_input(f, order)
    if weight is not None and weight % 2 == 0:
        check_recognizable(weight, order)
    components = f.weight_components()
    declared_odd = [weight] if weight is not None and weight % 2 else []
    for w in declared_odd + list(components):
        _check_weight_cap(w)
    even = {w: fw.pr() for w, fw in components.items() if w % 2 == 0}
    form = QMForm.zero()
    if any(not fw.is_zero for fw in even.values()):
        from .harmonic import decompose  # odd components need no slots

        for w, fw in even.items():
            form = form + slots_form(decompose(fw).components, w)
    series = expand(form, order)
    if weight is not None and weight % 2 and not series.is_zero:
        raise RecognitionError(f"odd weight {weight} requires a vanishing series")
    if weight is not None:
        form = recognize(series, weight) if weight % 2 == 0 else QMForm.zero()
    return series, form


def slots_form(slots: Sequence[SSPoly], weight: int) -> QMForm:
    """The form of the partition average of sum_r Q2^r h_r, from harmonic
    slots h_r of weight `weight` - 2r (as `decompose` returns them), by the
    source paper's theorem rather than a sum over the partitions of every
    size up to an order; the form does not depend on one.

    The bracket of a harmonic h of weight k is modular of weight k, and
    <Q2 f>_q = d_hat(<f>_q), so the average is sum_r d_hat^r(m_r) with m_r
    in M_(weight - 2r).  A form in M_k is fixed by its coefficients
    0..k // 12 (the Sturm bound), on which the Q^b R^c columns have full
    rank; m_r is solved from q_bracket(h_r, k // 12 + 1), which sums h_r
    over the at most 7 partitions of size <= 3 for every k up to the cap,
    and the spare coefficient must agree, or RecognitionError is raised.
    An odd-weight slot brackets to zero by conjugation.  Slots with other
    than non-negative integer exponents, and a weight above the cap, are
    refused as `bracket_form` refuses them.
    """
    for h in slots:
        check_bracket_input(h, 0)  # its exponents: no order is summed here
    _check_weight_cap(weight)
    form = QMForm.zero()
    # Horner's rule: sum_r d_hat^r(m_r) = m_0 + d_hat(m_1 + d_hat(m_2 + ...))
    for r in range(len(slots) - 1, -1, -1):
        if not form.is_zero:
            form = d_hat(form)
        k = weight - 2 * r
        if k % 2 == 0 and not slots[r].is_zero:
            sturm = k // 12 + 1
            modular = {t: col for t, col in _columns(k, sturm).items() if not t[0]}
            form = form + _solve(modular, q_bracket(slots[r], sturm), f"modular of weight {k}")
    return form


def is_modular_bracket(f: SSPoly) -> tuple[bool, QMForm, Decomposition]:
    """Decide whether the partition average of a weight-homogeneous Q1-free
    element is modular (depth 0 once recognized), with its form and its
    harmonic decomposition f = sum_r Q2^r h_r.

    The form is slots_form of the slots, sum_r d_hat^r(m_r) with each m_r
    modular; d_hat raises depth by exactly one, so the average is modular
    exactly when every m_r with r >= 1 is zero.
    """
    if not f.in_lambda_star():
        raise ValueError("input must be Q1-free with integer exponents")
    if not f.is_homogeneous():
        raise ValueError("input must be weight-homogeneous")
    # refused as bracket_form would, before the decomposition is solved
    _check_weight_cap(f.weight())
    # imported here: recognition alone does not need the harmonic layer
    from .harmonic import decompose

    dec = decompose(f)
    form = slots_form(dec.components, f.weight())
    return depth(form) == 0, form, dec


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
