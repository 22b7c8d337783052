"""Sparse exact polynomials in the generators Q1, Q2, Q3, ...

The ring carries a weight grading (Q_k has weight k).  Q2 alone may carry
half-integer and negative exponents; every other generator is restricted
to non-negative integer exponents, which keeps all weights integral.  A
monomial is the sorted tuple of its (generator, doubled exponent) pairs,
compared and hashed as that tuple.  Coefficients are exact rationals
throughout.  An element stores them as integer numerators over one
denominator, in lowest terms, as a series does; a coefficient becomes a
Fraction only when it is read out.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Iterable, Mapping, Union

from .partitions import Partition, c_set, check_partition, format_partition

Scalar = Union[int, Fraction]
ExponentLike = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_exponent2(k: int, e: ExponentLike) -> int:
    """Convert an exponent to its doubled integer storage form."""
    e = Fraction(e)
    e2 = e * 2
    if e2.denominator != 1:
        raise ValueError(f"exponent {e} of Q{k} is not a half-integer")
    return int(e2)


class Monomial(tuple):
    """A product of generator powers such as Q2^2*Q4: the tuple of its
    (generator, doubled exponent) pairs, sorted by generator, compared and
    hashed as that tuple.

    Exponents are stored doubled so that half-integer powers of Q2 stay in
    exact integer arithmetic; generators other than Q2 must carry positive
    even stored exponents (i.e. positive integer powers).  The unit
    MONO_ONE is the empty tuple, so it is falsy.
    """

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[int, int]]) -> "Monomial":
        """The product of the given powers: the pairs of one generator are
        merged, zero exponents dropped and the rest sorted."""
        merged: dict[int, int] = {}
        for k, e2 in pairs:
            merged[k] = merged.get(k, 0) + e2
        items = sorted((k, e2) for k, e2 in merged.items() if e2)
        for k, e2 in items:
            if k < 1:
                raise ValueError(f"generator index must be >= 1, got Q{k}")
            if k != 2 and (e2 < 0 or e2 % 2):
                raise ValueError(
                    f"only Q2 may carry negative or half-integer exponents (Q{k}^({e2}/2))"
                )
        return tuple.__new__(cls, items)

    @classmethod
    def from_exponents(cls, exponents: Mapping[int, ExponentLike]) -> "Monomial":
        return cls((k, _as_exponent2(k, e)) for k, e in exponents.items())

    @classmethod
    def from_partition(cls, lam: Iterable[int]) -> "Monomial":
        """The product of Q_p over the parts p of lam."""
        return cls((part, 2) for part in lam)

    def partition(self) -> Partition:
        """Inverse of from_partition: each generator repeated by its integer
        exponent, largest first."""
        return tuple(k for k, e2 in reversed(self) for _ in range(e2 // 2))

    def exponent2(self, k: int) -> int:
        for gen, e2 in self:
            if gen == k:
                return e2
        return 0

    def shift(self, changes: Mapping[int, int]) -> "Monomial":
        """New monomial with doubled exponents adjusted by `changes`."""
        return Monomial((*self, *changes.items()))

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(self + other)

    def weight(self) -> int:
        w2 = sum(k * e2 for k, e2 in self)
        if w2 % 2:
            raise ValueError(f"monomial {self} has non-integer weight")
        return w2 // 2

    def has_q1(self) -> bool:
        return bool(self) and self[0][0] == 1

    def in_r(self) -> bool:
        """Non-negative integer exponents only (Q1 allowed)."""
        return all(e2 >= 0 and e2 % 2 == 0 for _, e2 in self)

    def in_lambda_star(self) -> bool:
        return self.in_r() and not self.has_q1()

    def sort_key(self) -> tuple:
        return (self.weight(), self)

    def __repr__(self) -> str:
        return f"Monomial({format_monomial(self) or '1'})"


MONO_ONE = Monomial(())


def _add_into(out: dict, f: "SparseTerms", sign: int) -> None:
    """Add sign * f into a map of Fractions, in place, dropping every key
    whose sum cancels to zero."""
    den = f.den
    for key, n in f.num.items():
        s = out.get(key, _ZERO) + Fraction(sign * n, den)
        if s:
            out[key] = s
        else:
            out.pop(key, None)


def _lowest(num: dict, den: int) -> tuple[dict, int]:
    """Integer numerators over den > 0 in lowest terms: zero numerators
    dropped, and num and den divided by their gcd."""
    if not all(num.values()):
        num = {key: n for key, n in num.items() if n}
    g = gcd(den, *num.values())
    if g != 1:
        num = {key: n // g for key, n in num.items()}
        den //= g
    return num, den


def _linear_numerators(image, f: "SparseTerms", den: int):
    """Extend a per-key image of (key, integer numerator) pairs, numerators
    over den, linearly to f: the element over f.den * den."""
    acc: dict = {}
    for key, scale in f.num.items():
        for k, n in image(key):
            acc[k] = acc.get(k, 0) + scale * n
    return f._make(acc, f.den * den)


class SparseTerms:
    """Sparse sum of terms with exact rational coefficients, with its ring
    operations.  It stores `num`, a map from hashable keys to nonzero
    integer numerators, over one denominator `den`, in lowest terms:
    den > 0 and gcd(den, *num.values()) == 1, the format of a QSeries.  A
    coefficient becomes a Fraction only when it is read out, by `terms` or
    `coeff`.

    A subclass names the key of the constant term (`_UNIT`) and supplies
    three key hooks: how two keys multiply (`_key_mul`), a key's weight
    (`_key_weight`) and the canonical term order (`_key_order`).
    """

    __slots__ = ("num", "den")

    _UNIT: object

    def __init__(self, terms: Mapping | None = None):
        coeffs = [(key, Fraction(c)) for key, c in terms.items()] if terms else []
        den = lcm(*(c.denominator for _, c in coeffs))
        self.num, self.den = _lowest({key: c.numerator * (den // c.denominator) for key, c in coeffs}, den)

    @classmethod
    def _make(cls, num: dict, den: int):
        """The element num / den of integer numerators over den > 0."""
        res = cls.__new__(cls)
        res.num, res.den = _lowest(num, den)
        return res

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def constant(cls, c: Scalar):
        c = Fraction(c)
        return cls._make({cls._UNIT: c.numerator}, c.denominator)

    def terms(self) -> list:
        """(key, Fraction) terms in the canonical order of the subclass."""
        order, den = self._key_order, self.den
        return sorted(((key, Fraction(n, den)) for key, n in self.num.items()), key=lambda kv: order(kv[0]))

    def coeff(self, key) -> Fraction:
        return Fraction(self.num.get(key, 0), self.den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __len__(self) -> int:
        return len(self.num)

    def __add__(self, other, sign: int = 1):
        if not isinstance(other, type(self)):
            return NotImplemented
        # self + sign * other, over the lcm of the two denominators
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        out = dict(self.num) if s == 1 else {key: n * s for key, n in self.num.items()}
        for key, n in other.num.items():
            out[key] = out.get(key, 0) + n * t
        return self._make(out, den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self._make({key: -n for key, n in self.num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            key_mul = self._key_mul
            right = list(other.num.items())
            acc: dict = {}
            for k1, n1 in self.num.items():
                for k2, n2 in right:
                    key = key_mul(k1, k2)
                    acc[key] = acc.get(key, 0) + n1 * n2
            return self._make(acc, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return self._make({key: n * c for key, n in self.num.items()}, self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (_ONE / Fraction(scalar))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((frozenset(self.num.items()), self.den))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def weight_components(self) -> dict:
        """Split into weight-homogeneous parts, keyed by weight, ascending."""
        key_weight = self._key_weight
        buckets: dict[int, dict] = {}
        for key, n in self.num.items():
            buckets.setdefault(key_weight(key), {})[key] = n
        return {w: self._make(buckets[w], self.den) for w in sorted(buckets)}

    def weight(self) -> int:
        """Weight of a homogeneous element; 0 for zero."""
        weights = {self._key_weight(key) for key in self.num}
        if len(weights) > 1:
            raise ValueError(f"polynomial is not weight-homogeneous: {self}")
        return weights.pop() if weights else 0

    def is_homogeneous(self) -> bool:
        return len({self._key_weight(key) for key in self.num}) <= 1


class SSPoly(SparseTerms):
    """Sparse polynomial keyed by Monomial, its terms ordered weight-major,
    then exponent-lexicographically."""

    __slots__ = ()

    _UNIT = MONO_ONE
    _key_mul = staticmethod(Monomial.mul)
    _key_weight = staticmethod(Monomial.weight)
    _key_order = staticmethod(Monomial.sort_key)

    @classmethod
    def gen(cls, k: int) -> "SSPoly":
        """The generator Q_k; Q0 is the constant 1."""
        if k == 0:
            return cls.one()
        return cls._make({Monomial(((k, 2),)): 1}, 1)

    def __str__(self) -> str:
        return format_poly(self)

    def pr(self) -> "SSPoly":
        """Projection killing every monomial divisible by Q1."""
        return self._make({m: n for m, n in self.num.items() if not m.has_q1()}, self.den)

    def in_r(self) -> bool:
        return all(m.in_r() for m in self.num)

    def in_lambda_star(self) -> bool:
        return all(m.in_lambda_star() for m in self.num)

    def has_q1(self) -> bool:
        return any(m.has_q1() for m in self.num)


# -- evaluation on partitions ------------------------------------------------


# Keys are 8, 16, 32, ...: beta(k) reads the list of the first key >= k, so
# a new k redoes the O(k^2) inversion only when it doubles the largest yet.
# Parsed generators stop at MAX_GENERATOR = 100, which the keys up to 128
# cover with five entries; the rest is room for library callers.
@lru_cache(maxsize=8)
def _beta_list(upto: int) -> tuple[Fraction, ...]:
    # Invert g(z) = sum_j z^(2j) / (4^j (2j+1)!), the odd-part series of
    # the hook generating function divided by z.  g(0) = 1.
    g = [_ZERO] * (upto + 1)
    j = 0
    while 2 * j <= upto:
        g[2 * j] = Fraction(1, 4**j * factorial(2 * j + 1))
        j += 1
    b = [_ZERO] * (upto + 1)
    b[0] = _ONE
    for n in range(1, upto + 1):
        b[n] = -sum(g[i] * b[n - i] for i in range(1, n + 1))
    return tuple(b)


def beta(k: int) -> Fraction:
    """Constant term sequence of the empty-partition evaluation of Q_k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    upto = 8
    while upto < k:
        upto *= 2
    return _beta_list(upto)[k]


# `eval` reads each generator once per partition, and q_bracket sums the
# row-sum columns of qseries instead, so only the oracles reuse an entry
# (520 hits to 3,017 misses in `shsym verify`).  The cache stays because
# perfbench/traced_job.py times this function through its `__wrapped__`.
@lru_cache(maxsize=1024)
def eval_qk(k: int, lam: Partition) -> Fraction:
    """Exact value of the generator Q_k on a partition."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return _ONE
    # sgn(c) * c^(k-1) with c stored doubled: sgn(c2) * c2^(k-1) / 2^(k-1);
    # c_set validates lam
    s = 0
    for c2 in c_set(lam):
        term = c2 ** (k - 1)
        s += term if c2 > 0 else -term
    return beta(k) + Fraction(s, 2 ** (k - 1) * factorial(k - 1))


def eval_at(f: SSPoly, lam: Iterable[int]) -> Fraction:
    """Evaluate an element of the plain ring (integer exponents) at a partition.

    The projection killing Q1 is applied first; on partitions Q1 vanishes,
    so this is consistent.  Before multiplying anything, the sizes of the
    integers the evaluation builds are bounded from bit lengths, and a
    ValueError is raised past MAX_EVAL_DIGITS or MAX_EVAL_WORK_DIGITS.
    """
    lam = check_partition(lam)
    if not f.in_r():
        raise ValueError("evaluation requires non-negative integer exponents")
    f = f.pr()
    terms = [(mono, Fraction(n, f.den)) for mono, n in f.num.items()]
    values: dict[int, Fraction] = {}
    top: dict[int, int] = {}  # largest exponent of each generator
    num_bits = work_bits = 0
    for mono, coeff in terms:
        n_bits, d_bits = coeff.numerator.bit_length(), coeff.denominator.bit_length()
        for k, e2 in mono:
            q = values.get(k)
            if q is None:
                q = values[k] = eval_qk(k, lam)
            n_bits += e2 // 2 * q.numerator.bit_length()
            d_bits += e2 // 2 * q.denominator.bit_length()
            top[k] = max(top.get(k, 0), e2 // 2)
        num_bits = max(num_bits, n_bits)
        work_bits += n_bits + d_bits
    if work_bits > _EVAL_WORK_BITS:
        raise ValueError(
            f"value at {format_partition(lam)} needs more than {MAX_EVAL_WORK_DIGITS}"
            " digits of monomials before it is reduced"
        )
    # The running denominator is the lcm of the monomials' denominators, so
    # it divides the lcm of the coefficients' denominators times each
    # generator's denominator to its largest exponent; the running
    # numerator is at most the number of terms times that times the
    # longest monomial numerator.
    den_bits = f.den.bit_length() + sum(
        e * values[k].denominator.bit_length() for k, e in top.items()
    )
    if den_bits + num_bits + len(terms).bit_length() > _EVAL_BITS:
        raise ValueError(
            f"value at {format_partition(lam)} may need more than {MAX_EVAL_DIGITS}"
            " digits before it is reduced"
        )
    total_num, total_den = 0, 1
    for mono, coeff in terms:
        num, den = coeff.numerator, coeff.denominator
        for k, e2 in mono:
            q = values[k]
            num *= q.numerator ** (e2 // 2)
            den *= q.denominator ** (e2 // 2)
        g = gcd(total_den, den)
        total_num = total_num * (den // g) + num * (total_den // g)
        total_den = total_den // g * den
    return Fraction(total_num, total_den)


# -- text form ---------------------------------------------------------------


def _format_exponent(e2: int) -> str:
    if e2 % 2 == 0:
        return str(e2 // 2)
    return f"({e2}/2)"


def _latex_power(base: str, e: str) -> str:
    """base^e in LaTeX; an exponent longer than one character is braced."""
    return f"{base}^{e}" if len(e) == 1 else f"{base}^{{{e}}}"


def format_monomial(mono: Monomial) -> str:
    return "*".join(
        f"Q{k}" if e2 == 2 else f"Q{k}^{_format_exponent(e2)}"
        for k, e2 in mono
    )


def format_monomial_latex(mono: Monomial) -> str:
    factors = []
    for k, e2 in mono:
        base = f"Q_{k}" if k < 10 else f"Q_{{{k}}}"
        e = str(e2 // 2) if e2 % 2 == 0 else f"{e2}/2"
        factors.append(base if e2 == 2 else _latex_power(base, e))
    return " ".join(factors)


def format_fraction_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c)
    sign = "-" if c < 0 else ""
    return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def format_signed_sum(terms: Iterable[tuple[Fraction, str]], latex: bool = False) -> str:
    """Join (coefficient, factor string) pairs into a signed sum.

    The first sign is attached, later ones join as " + " / " - "; a unit
    coefficient is dropped before a non-empty factor string, and the empty
    sum is "0".  Text writes "c*x", LaTeX writes "c x" with fractions as
    \\frac.
    """
    chunks = []
    for coeff, factors in terms:
        mag = abs(coeff)
        if mag == 1 and factors:
            body = factors
        else:
            body = format_fraction_latex(mag) if latex else str(mag)
            if factors:
                body += f" {factors}" if latex else f"*{factors}"
        if chunks:
            chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
        else:
            chunks.append(body if coeff > 0 else f"-{body}")
    return "".join(chunks) or "0"


def format_poly(f: SSPoly) -> str:
    """Deterministic text form; inverse of parse_poly on normalized input."""
    return format_signed_sum((c, format_monomial(m)) for m, c in f.terms())


def format_poly_latex(f: SSPoly) -> str:
    return format_signed_sum(
        ((c, format_monomial_latex(m)) for m, c in f.terms()), latex=True
    )


class LinearSolveError(RuntimeError):
    """An exact linear system that is singular, inconsistent or does not
    pin down every unknown.  It lives here, in the module every solving
    layer loads; `linalg` re-exports it."""

    def __init__(self, kind: str):
        super().__init__(f"linear system is {kind}")
        self.kind = kind


# The recognition errors live here too, so that the command line can catch
# them by class without loading the recognition layer.
class RecognitionError(ValueError):
    """A series that is not a form of the requested weight to its order."""


class InsufficientOrderError(ValueError):
    """A series too short to pin down a form of the requested weight."""


# -- parser ------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or rule violation in an expression, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"Q(?P<gen>\d+)|(?P<num>\d+)|(?P<op>[-+*/^()])")

# Deepest nesting of parentheses and unary minus signs parse_poly accepts.
# The parser recurses once per level, so the limit keeps it well inside the
# interpreter's recursion limit.
MAX_NESTING = 100

# Largest generator index parse_poly accepts.  The constant term beta(k) of
# Q_k inverts a series of length k in Fractions: 0.03 s at k = 100, 1 s at
# k = 400.  Brackets and decompositions bound weights far below this.
MAX_GENERATOR = 100

# Largest magnitude of an exponent parse_poly accepts (half-integer exponents
# of Q2 included).  Evaluation raises exact rationals to these powers, so an
# unbounded exponent is an unbounded request.
MAX_EXPONENT = 100

# Largest number of terms a product, power or sum in an expression may
# expand to.  A product or power is bounded before multiplying, by the
# product of the factors' term counts: (Q1+...+Q9)^100 has C(108, 8) terms.
# A sum is bounded by the terms it holds, checked after each addition.
MAX_TERMS = 10_000

# Most decimal digits in a numerator or denominator of a constant, written
# or reached by multiplying, and in the lcm of the denominators of a sum or
# product.  Nested powers such as ((2^100)^100)^100 would otherwise build
# numbers far past what can be printed, and products and operators put all
# coefficients over that lcm, whose length grows with the term count.
MAX_CONSTANT_DIGITS = 1000
_CONSTANT_BOUND = 10**MAX_CONSTANT_DIGITS

# Limits of eval_at, checked from bit lengths before multiplying: the most
# decimal digits in a numerator or denominator it builds before reducing the
# value, and in all its monomials' numerators and denominators together.
# The limits above bound each factor of a monomial, not a product or a sum
# of many: Q3^100*Q4^100*...*Q100^100 at (30,20,10) needs 1.9 million
# digits.  The slowest admitted evaluation measured takes 0.55 s on a
# 2-vCPU host.
MAX_EVAL_DIGITS = 100_000
MAX_EVAL_WORK_DIGITS = 10_000_000
_EVAL_BITS = int(MAX_EVAL_DIGITS / 0.30103)
_EVAL_WORK_BITS = int(MAX_EVAL_WORK_DIGITS / 0.30103)

# Request-size limits of the command line, which imports them; a request
# over one is a usage error.  At the largest sizes they admit, the slowest
# request is verify --max-weight 16 -N 40, in about 27 s on a 2-vCPU host.
# qbracket has no size limit of its own: it decomposes each even-weight
# component into harmonic slots and sums each slot over the partitions of
# its Sturm prefix only, so its cost follows the terms and weights of its
# input, which the parse limits above and the order bound of the weights
# (33 at -N 40) already hold.  The slowest admitted input measured, every
# Q1-free monomial of even weight <= 32 (4,624 terms), takes 1.5 s at
# -N 40.  The slots are built in closed form from the powers of the
# projected laplacian, by the sl2 relation, and certified with the
# closed-form laplacian; verify proves both on every Q1-free monomial a CLI
# job meets.
MAX_ORDER = 40  # -N of qbracket, recognize, tables and verify
MAX_WEIGHT = 20  # n of basis, the weight of a decompose input
MAX_TABLE_WEIGHT = 16  # --max-weight of tables and verify


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, object, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            if m.lastgroup == "gen":
                digits = m.group("gen")
                if len(digits) > MAX_CONSTANT_DIGITS or int(digits) > MAX_GENERATOR:
                    raise ParseError(f"generator index larger than {MAX_GENERATOR}", pos)
                self.tokens.append(("gen", int(digits), pos))
            elif m.lastgroup == "num":
                if len(m.group("num")) > MAX_CONSTANT_DIGITS:
                    raise ParseError(f"number longer than {MAX_CONSTANT_DIGITS} digits", pos)
                self.tokens.append(("num", int(m.group("num")), pos))
            else:
                self.tokens.append(("op", m.group("op"), pos))
            pos = m.end()
        self.tokens.append(("end", None, len(text)))
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def at_op(self, *ops: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def enter(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self) -> SSPoly:
        negate = False
        if self.at_op("-"):
            self.next()
            negate = True
        _, _, pos = self.peek()
        first = self.term()
        den = self.common_denominator(1, first, pos)
        if not self.at_op("+", "-"):
            return -first if negate else first
        # The sum adds Fractions: over one growing denominator every step
        # would rescale every term.  den is a multiple of each of their
        # denominators.
        acc: dict = {}
        _add_into(acc, first, -1 if negate else 1)
        while self.at_op("+", "-"):
            _, op, pos = self.next()
            t = self.term()
            den = self.common_denominator(den, t, pos)
            _add_into(acc, t, 1 if op == "+" else -1)
            if len(acc) > MAX_TERMS:
                raise ParseError(f"expansion larger than {MAX_TERMS} terms", pos)
        return SSPoly._make({key: c.numerator * (den // c.denominator) for key, c in acc.items()}, den)

    # term := factor ('*' factor)*
    def term(self) -> SSPoly:
        acc = self.factor()
        while self.at_op("*"):
            _, _, pos = self.next()
            acc = self.product(acc, self.factor(), pos)
        return acc

    def product(self, a: SSPoly, b: SSPoly, pos: int) -> SSPoly:
        if len(a) * len(b) > MAX_TERMS:
            raise ParseError(f"expansion larger than {MAX_TERMS} terms", pos)
        return self.bounded(a * b, pos)

    def bounded(self, f: SSPoly, pos: int) -> SSPoly:
        """f, unless a product made one of its exponents, its constants or
        their common denominator too large; nested powers reach each one
        step at a time."""
        den = f.den
        for mono, n in f.num.items():
            for k, e2 in mono:
                if abs(e2) > 2 * MAX_EXPONENT:
                    raise ParseError(f"product exponent of Q{k} larger than {MAX_EXPONENT} in magnitude", pos)
            # a constant in lowest terms is no longer than n / den
            if abs(n) >= _CONSTANT_BOUND or den >= _CONSTANT_BOUND:
                g = gcd(n, den)
                if abs(n) // g >= _CONSTANT_BOUND or den // g >= _CONSTANT_BOUND:
                    raise ParseError(f"constant longer than {MAX_CONSTANT_DIGITS} digits", pos)
        self.common_denominator(1, f, pos)
        return f

    def common_denominator(self, den: int, f: SSPoly, pos: int) -> int:
        """The lcm of den and the denominators of f, refused past
        MAX_CONSTANT_DIGITS digits.  f.den, in lowest terms, is the lcm of
        its reduced coefficients' denominators."""
        den = lcm(den, f.den)
        if den >= _CONSTANT_BOUND:
            raise ParseError(f"common denominator longer than {MAX_CONSTANT_DIGITS} digits", pos)
        return den

    # factor := atom ('^' exponent)?
    def factor(self) -> SSPoly:
        kind, value, pos = self.peek()
        if kind == "gen":
            self.next()
            k = value
            if self.at_op("^"):
                self.next()
                e2, epos = self.exponent()
                if k == 0:
                    return SSPoly.one()
                if k != 2 and e2 % 2:
                    raise ParseError(
                        f"half-integer exponent is only allowed on Q2, not Q{k}", epos
                    )
                if k != 2 and e2 < 0:
                    raise ParseError(
                        f"negative exponent is only allowed on Q2, not Q{k}", epos
                    )
                if e2 == 0:
                    return SSPoly.one()
                return SSPoly._make({Monomial(((k, e2),)): 1}, 1)
            return SSPoly.gen(k)
        base = self.atom()
        if self.at_op("^"):
            self.next()
            e2, epos = self.exponent()
            if e2 % 2:
                raise ParseError("half-integer exponent is only allowed on Q2", epos)
            e = e2 // 2
            if e < 0:
                # negative powers only make sense for nonzero constants
                if base.is_zero:
                    raise ParseError("zero has no negative powers", epos)
                if len(base) == 1 and base.terms()[0][0] == MONO_ONE:
                    c = base.terms()[0][1]
                    return self.bounded(SSPoly.constant(c**e), epos)
                raise ParseError("negative exponent is only allowed on Q2", epos)
            power = SSPoly.one()
            for _ in range(e):
                power = self.product(power, base, epos)
            return power
        return base

    # atom := rational | '(' expr ')'   (generators handled in factor)
    def atom(self) -> SSPoly:
        kind, value, pos = self.peek()
        if kind == "num":
            return SSPoly.constant(self.rational())
        if kind == "op" and value == "(":
            self.next()
            self.enter(pos)
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            # unary minus inside a term, e.g. "2*-3"
            self.next()
            self.enter(pos)
            inner = -self.factor()
            self.depth -= 1
            return inner
        raise ParseError("expected a number, generator or '('", pos)

    def rational(self) -> Fraction:
        kind, value, pos = self.next()
        if kind != "num":
            raise ParseError("expected a number", pos)
        num = value
        if self.at_op("/"):
            save = self.i
            self.next()
            kind, den, dpos = self.peek()
            if kind == "num":
                self.next()
                if den == 0:
                    raise ParseError("division by zero", dpos)
                return Fraction(num, den)
            self.i = save
        return Fraction(num)

    # exponent := '-'? digits | '(' '-'? digits ('/' digits)? ')'
    # The parenthesized denominator must be 1 or 2; the value is returned
    # doubled, with the position of its first token.
    def exponent(self) -> tuple[int, int]:
        e2, pos = self._exponent()
        if abs(e2) > 2 * MAX_EXPONENT:
            raise ParseError(f"exponent larger than {MAX_EXPONENT} in magnitude", pos)
        return e2, pos

    def _exponent(self) -> tuple[int, int]:
        kind, value, pos = self.peek()
        if kind == "num":
            self.next()
            return 2 * value, pos
        if kind == "op" and value == "-":
            self.next()
            kind, value, npos = self.next()
            if kind != "num":
                raise ParseError("expected digits after '-' in exponent", npos)
            return -2 * value, pos
        if kind == "op" and value == "(":
            self.next()
            sign = 1
            if self.at_op("-"):
                self.next()
                sign = -1
            kind, num, npos = self.next()
            if kind != "num":
                raise ParseError("expected digits in exponent", npos)
            e2 = 2 * num
            if self.at_op("/"):
                self.next()
                kind, den, dpos = self.next()
                if kind != "num" or den not in (1, 2):
                    raise ParseError("exponent denominator must be 1 or 2", dpos)
                e2 = num * (2 // den)
            self.expect_op(")")
            return sign * e2, pos
        raise ParseError("expected an exponent", pos)


def parse_poly(text: str) -> SSPoly:
    """Parse an expression in the Q-generator grammar into a polynomial."""
    parser = _Parser(text)
    poly = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return poly
