"""Integer partitions: enumeration, counting, and Frobenius coordinates.

Partitions are plain tuples of non-increasing positive integers; the empty
tuple is the unique partition of 0.  The signed half-integers attached to
the diagonal hooks are kept exact by storing their doubled values.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]


class FrobeniusCoords(NamedTuple):
    """Arm and leg lengths of the diagonal cells of a Young diagram."""

    arms: tuple[int, ...]
    legs: tuple[int, ...]


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate an iterable of parts and return it as a canonical tuple."""
    lam = tuple(int(p) for p in parts)
    prev = None
    for p in lam:
        if p < 1:
            raise ValueError(f"parts must be positive integers: {lam!r}")
        if prev is not None and p > prev:
            raise ValueError(f"parts must be non-increasing: {lam!r}")
        prev = p
    return lam


def _reverse_lex(n: int) -> Iterator[Partition]:
    # Iterative successor rule (Zoghbi and Stojmenovic's ZS1): parts live in
    # `x`, whose cells past the last part > 1 always hold 1; the last part
    # h > 1 drops by one and the freed cells are refilled with copies of it.
    if n == 0:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m = 1  # number of parts
    h = 0  # index of the last part > 1
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            r = x[h] - 1
            t = m - h  # the freed total: one from x[h] plus the trailing ones
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


# Partition lists are cached per size.  The CLI lists sizes <= 20 (basis,
# tables, the weight of a decompose input); verify and the bracket oracles
# list every size up to their order, at most 40.  64 entries hold them all.
@lru_cache(maxsize=64)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(_reverse_lex(n))


# A CLI request lists sizes <= 20 with its own smallest part and with 2
# (the monomial basis behind harmonic); verify uses 1, 2 and 3 at sizes
# <= 25.  256 entries hold sizes <= 25 for nine smallest parts.
@lru_cache(maxsize=256)
def enumerate_min_part(n: int, m: int) -> tuple[Partition, ...]:
    """Partitions of n whose every part is >= m, lexicographically decreasing."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if m < 1:
        raise ValueError("m must be positive")
    # the smallest part is the last one
    return tuple(lam for lam in enumerate_partitions(n) if not lam or lam[-1] >= m)


# Counting uses the pentagonal-number recurrence.  The table is append-only
# and extended under a lock, so concurrent callers each see a correct prefix.
_P_TABLE = [1]
_P_LOCK = threading.Lock()


def count_partitions(n: int) -> int:
    """The number p(n) of partitions of n; zero for negative n."""
    if n < 0:
        return 0
    if len(_P_TABLE) <= n:
        with _P_LOCK:
            while len(_P_TABLE) <= n:
                m = len(_P_TABLE)
                total = 0
                k = 1
                while True:
                    g1 = k * (3 * k - 1) // 2
                    g2 = k * (3 * k + 1) // 2
                    if g1 > m:
                        break
                    sign = 1 if k % 2 else -1
                    total += sign * _P_TABLE[m - g1]
                    if g2 <= m:
                        total += sign * _P_TABLE[m - g2]
                    k += 1
                _P_TABLE.append(total)
    return _P_TABLE[n]


def conjugate(lam: Iterable[int]) -> Partition:
    """Transpose of the Young diagram."""
    return _conjugate(check_partition(lam))


def _conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    cols = [0] * lam[0]
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def frobenius(lam: Iterable[int]) -> FrobeniusCoords:
    """Frobenius coordinates: arm/leg lengths a_i, b_i of the diagonal cells.

    The i-th diagonal cell (0-indexed) exists while lam[i] > i; its arm is
    the number of cells strictly to the right, its leg the number strictly
    below.
    """
    lam = check_partition(lam)
    conj = _conjugate(lam)
    arms = []
    legs = []
    for i, part in enumerate(lam):
        if part <= i:
            break
        arms.append(part - i - 1)
        legs.append(conj[i] - i - 1)
    return FrobeniusCoords(tuple(arms), tuple(legs))


def c_set(lam: Iterable[int]) -> tuple[int, ...]:
    """Signed half-integers of the diagonal hooks, doubled, in ascending order.

    Entry 2c is stored for each c in {-b_i - 1/2} followed by {a_i + 1/2}.
    """
    arms, legs = frobenius(lam)
    neg = tuple(-2 * b - 1 for b in legs)
    pos = tuple(2 * a + 1 for a in reversed(arms))
    return neg + pos


def format_partition(lam: Iterable[int]) -> str:
    """Textual form "(4,3,3)"; the empty partition is "()"."""
    return "(" + ",".join(str(p) for p in lam) + ")"


def parse_partition(text: str) -> Partition:
    """Inverse of format_partition."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"partition must look like (4,3,3): {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return ()
    try:
        parts = [int(tok) for tok in inner.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from None
    return check_partition(parts)
