"""Sparse exact polynomials in the generators Q1, Q2, Q3, ...

The ring carries a weight grading (Q_k has weight k).  Q2 alone may carry
half-integer and negative exponents; every other generator is restricted
to non-negative integer exponents, which keeps all weights integral.
Coefficients are exact rationals throughout.
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


class Monomial:
    """A product of generator powers such as Q2^2*Q4.

    Exponents are stored doubled so that half-integer powers of Q2 stay in
    exact integer arithmetic; generators other than Q2 must carry positive
    even stored exponents (i.e. positive integer powers).
    """

    __slots__ = ("_e2", "_hash")

    def __init__(self, e2_items: Iterable[tuple[int, int]]):
        merged: dict[int, int] = {}
        for k, e2 in e2_items:
            merged[k] = merged.get(k, 0) + e2
        self._store(merged)

    @classmethod
    def _from_merged(cls, merged: dict[int, int]) -> "Monomial":
        """The monomial of a map with one doubled exponent per generator."""
        mono = cls.__new__(cls)
        mono._store(merged)
        return mono

    def _store(self, merged: dict[int, int]) -> None:
        items = tuple(sorted((k, e2) for k, e2 in merged.items() if e2))
        for k, e2 in items:
            if k < 1:
                raise ValueError(f"generator index must be >= 1, got Q{k}")
            if k != 2 and (e2 < 0 or e2 % 2):
                raise ValueError(
                    f"only Q2 may carry negative or half-integer exponents (Q{k}^({e2}/2))"
                )
        self._e2 = items
        self._hash = hash(items)

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
        return tuple(k for k, e2 in reversed(self._e2) for _ in range(e2 // 2))

    def items2(self) -> tuple[tuple[int, int], ...]:
        """The (generator, doubled exponent) pairs, sorted by generator."""
        return self._e2

    def exponent2(self, k: int) -> int:
        for gen, e2 in self._e2:
            if gen == k:
                return e2
        return 0

    def shift(self, changes: Mapping[int, int]) -> "Monomial":
        """New monomial with doubled exponents adjusted by `changes`."""
        merged = dict(self._e2)
        for k, delta in changes.items():
            merged[k] = merged.get(k, 0) + delta
        return Monomial._from_merged(merged)

    def mul(self, other: "Monomial") -> "Monomial":
        merged = dict(self._e2)
        for k, e2 in other._e2:
            merged[k] = merged.get(k, 0) + e2
        return Monomial._from_merged(merged)

    def weight(self) -> int:
        w2 = sum(k * e2 for k, e2 in self._e2)
        if w2 % 2:
            raise ValueError(f"monomial {self} has non-integer weight")
        return w2 // 2

    def has_q1(self) -> bool:
        return bool(self._e2) and self._e2[0][0] == 1

    def in_r(self) -> bool:
        """Non-negative integer exponents only (Q1 allowed)."""
        return all(e2 >= 0 and e2 % 2 == 0 for _, e2 in self._e2)

    def in_lambda_star(self) -> bool:
        return self.in_r() and not self.has_q1()

    def sort_key(self) -> tuple:
        return (self.weight(), self._e2)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._e2 == other._e2

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Monomial({format_monomial(self) or '1'})"


MONO_ONE = Monomial(())


def _add_into(out: dict, terms: Mapping) -> None:
    """Add the terms of one sparse map into another, in place, dropping
    every key whose sum cancels to zero."""
    for key, c in terms.items():
        s = out.get(key, _ZERO) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)


class SparseTerms:
    """Sparse map from hashable keys to nonzero exact rationals, with the
    ring operations of its sum of terms.

    A subclass names the key of the constant term (`_UNIT`) and supplies
    three key hooks: how two keys multiply (`_key_mul`), a key's weight
    (`_key_weight`) and the canonical term order (`_key_order`).
    """

    __slots__ = ("_terms",)

    _UNIT: object

    def __init__(self, terms: Mapping | None = None):
        clean: dict = {}
        if terms:
            for key, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    clean[key] = c
        self._terms = clean

    @classmethod
    def _wrap(cls, terms: dict):
        # terms already holds nonzero Fractions under valid keys
        res = cls.__new__(cls)
        res._terms = terms
        return res

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def constant(cls, c: Scalar):
        return cls({cls._UNIT: c})

    def terms(self) -> list:
        """Terms in the canonical order of the subclass."""
        order = self._key_order
        return sorted(self._terms.items(), key=lambda kv: order(kv[0]))

    def coeff(self, key) -> Fraction:
        return self._terms.get(key, _ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self._terms)
        _add_into(out, other._terms)
        return self._wrap(out)

    def __neg__(self):
        return self._wrap({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            # integer numerators over each factor's common denominator, so
            # that each output term divides once
            key_mul = self._key_mul
            den1 = lcm(*(c.denominator for c in self._terms.values()))
            den2 = lcm(*(c.denominator for c in other._terms.values()))
            right = [(k2, c2.numerator * (den2 // c2.denominator)) for k2, c2 in other._terms.items()]
            acc: dict = {}
            for k1, c1 in self._terms.items():
                n1 = c1.numerator * (den1 // c1.denominator)
                for k2, n2 in right:
                    key = key_mul(k1, k2)
                    acc[key] = acc.get(key, 0) + n1 * n2
            den = den1 * den2
            return self._wrap({key: Fraction(s, den) for key, s in acc.items() if s})
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.zero()
            return self._wrap({key: v * c for key, v in self._terms.items()})
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
        return isinstance(other, type(self)) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def weight_components(self) -> dict:
        """Split into weight-homogeneous parts, keyed by weight, ascending."""
        key_weight = self._key_weight
        buckets: dict[int, dict] = {}
        for key, c in self._terms.items():
            buckets.setdefault(key_weight(key), {})[key] = c
        return {w: self._wrap(buckets[w]) for w in sorted(buckets)}

    def weight(self) -> int:
        """Weight of a homogeneous element; 0 for zero."""
        weights = {self._key_weight(key) for key in self._terms}
        if len(weights) > 1:
            raise ValueError(f"polynomial is not weight-homogeneous: {self}")
        return weights.pop() if weights else 0

    def is_homogeneous(self) -> bool:
        return len({self._key_weight(key) for key in self._terms}) <= 1


class SSPoly(SparseTerms):
    """Sparse polynomial: a map from Monomial to nonzero exact rationals,
    ordered weight-major, then exponent-lexicographically."""

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
        return cls({Monomial(((k, 2),)): _ONE})

    def __str__(self) -> str:
        return format_poly(self)

    def pr(self) -> "SSPoly":
        """Projection killing every monomial divisible by Q1."""
        return self._wrap({m: c for m, c in self._terms.items() if not m.has_q1()})

    def in_r(self) -> bool:
        return all(m.in_r() for m in self._terms)

    def in_lambda_star(self) -> bool:
        return all(m.in_lambda_star() for m in self._terms)

    def has_q1(self) -> bool:
        return any(m.has_q1() for m in self._terms)


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


# `eval` reads each generator once per partition; the reuse is in the oracles,
# which evaluate many products on a few partitions.
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
    terms = [(mono, coeff) for mono, coeff in f._terms.items() if not mono.has_q1()]
    values: dict[int, Fraction] = {}
    top: dict[int, int] = {}  # largest exponent of each generator
    num_bits = work_bits = 0
    for mono, coeff in terms:
        n_bits, d_bits = coeff.numerator.bit_length(), coeff.denominator.bit_length()
        for k, e2 in mono.items2():
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
    den_bits = lcm(*{coeff.denominator for _, coeff in terms}).bit_length() + sum(
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
        for k, e2 in mono.items2():
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
        for k, e2 in mono.items2()
    )


def format_monomial_latex(mono: Monomial) -> str:
    factors = []
    for k, e2 in mono.items2():
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
# or reached by multiplying.  Nested powers such as ((2^100)^100)^100 would
# otherwise build numbers far past what can be printed.
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
        first = self.term()
        acc = dict((-first if negate else first)._terms)
        while self.at_op("+", "-"):
            _, op, pos = self.next()
            t = self.term()
            _add_into(acc, (t if op == "+" else -t)._terms)
            if len(acc) > MAX_TERMS:
                raise ParseError(f"expansion larger than {MAX_TERMS} terms", pos)
        return SSPoly._wrap(acc)

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
        """f, unless a product made one of its exponents or constants too
        large; nested powers reach either one step at a time."""
        for mono, c in f._terms.items():
            for k, e2 in mono.items2():
                if abs(e2) > 2 * MAX_EXPONENT:
                    raise ParseError(f"product exponent of Q{k} larger than {MAX_EXPONENT} in magnitude", pos)
            if abs(c.numerator) >= _CONSTANT_BOUND or c.denominator >= _CONSTANT_BOUND:
                raise ParseError(f"constant longer than {MAX_CONSTANT_DIGITS} digits", pos)
        return f

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
                return SSPoly({Monomial(((k, e2),)): _ONE})
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
                if len(base) == 1 and not base.terms()[0][0].items2():
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
