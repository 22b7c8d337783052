from shsym.partitions import (
    c_set,
    check_partition,
    conjugate,
    count_partitions,
    enumerate_min_part,
    enumerate_partitions,
    format_partition,
    frobenius,
    parse_partition,
)

import pytest


def brute_partitions(n, min_part=1, max_part=None):
    """Independent recursive enumeration used as the counting oracle."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(1, min(n, max_part) + 1):
        if first < min_part:
            continue
        for tail in brute_partitions(n - first, min_part, first):
            out.append((first,) + tail)
    return out


def brute_frobenius(lam):
    """Arm/leg lengths read off the cell set of the Young diagram."""
    cells = {(i, j) for i, part in enumerate(lam) for j in range(part)}
    width = lam[0] if lam else 0
    height = len(lam)
    arms, legs = [], []
    d = 0
    while (d, d) in cells:
        arms.append(sum(1 for j in range(d + 1, width) if (d, j) in cells))
        legs.append(sum(1 for i in range(d + 1, height) if (i, d) in cells))
        d += 1
    return tuple(arms), tuple(legs)


def test_enumerate_zero():
    assert enumerate_partitions(0) == ((),)


@pytest.mark.parametrize("n,count", [(4, 5), (10, 42)])
def test_enumerate_matches_oracle(n, count):
    got = enumerate_partitions(n)
    assert len(got) == count
    assert set(got) == set(brute_partitions(n))


def test_enumeration_order_is_lex_decreasing():
    for n in range(11):
        parts = enumerate_partitions(n)
        assert list(parts) == sorted(parts, reverse=True)


def test_enumeration_order_matches_recursive_reference():
    # brute_partitions lists lexicographically increasing, so its reverse is
    # the order the iterative enumerator must produce
    for n in range(31):
        want = tuple(reversed(brute_partitions(n)))
        assert enumerate_partitions(n) == want, n
        for m in (1, 2, 3):
            assert enumerate_min_part(n, m) == tuple(reversed(brute_partitions(n, m))), (n, m)


def test_count_small_values():
    assert count_partitions(-1) == 0
    assert count_partitions(0) == 1
    assert count_partitions(8) == 22
    for n in range(26):
        assert count_partitions(n) == len(brute_partitions(n))


def test_count_partitions_is_thread_safe():
    import sys
    import threading

    from shsym import partitions

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            del partitions._P_TABLE[1:]
            start = threading.Barrier(4, timeout=30)
            results = []

            def work():
                start.wait()
                results.append(count_partitions(200))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert results == [3972999029388] * 4
    finally:
        sys.setswitchinterval(interval)
        del partitions._P_TABLE[1:]


def test_count_matches_enumeration():
    for n in range(26):
        assert len(enumerate_partitions(n)) == count_partitions(n)


def test_min_part_examples():
    assert enumerate_min_part(6, 3) == ((6,), (3, 3))
    assert enumerate_min_part(10, 3) == ((10,), (7, 3), (6, 4), (5, 5), (4, 3, 3))
    assert enumerate_min_part(2, 3) == ()


def test_min_part_one_is_plain_enumeration():
    for n in range(13):
        assert set(enumerate_min_part(n, 1)) == set(enumerate_partitions(n))


def test_min_part_three_count_identity():
    p = count_partitions
    for n in range(26):
        assert len(enumerate_min_part(n, 3)) == p(n) - p(n - 1) - p(n - 2) + p(n - 3)


def test_frobenius_examples():
    assert frobenius((1,)) == ((0,), (0,))
    assert frobenius(()) == ((), ())
    assert frobenius((2, 1)) == ((1,), (1,))


def test_frobenius_against_diagram_oracle():
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert tuple(frobenius(lam)) == brute_frobenius(lam)


def test_frobenius_hooks_tile_the_diagram():
    for n in range(16):
        for lam in enumerate_partitions(n):
            arms, legs = frobenius(lam)
            assert sum(a + b + 1 for a, b in zip(arms, legs)) == n


def test_c_set_examples():
    assert c_set(()) == ()
    assert c_set((1,)) == (-1, 1)
    assert c_set((2, 1)) == (-3, 3)


def test_c_set_structure():
    for n in range(16):
        for lam in enumerate_partitions(n):
            cs = c_set(lam)
            assert len(cs) % 2 == 0
            neg = [c for c in cs if c < 0]
            pos = [c for c in cs if c > 0]
            assert len(neg) == len(pos) == len(cs) // 2
            assert all(c % 2 for c in cs)  # doubled half-integers are odd
            assert list(cs) == sorted(cs)


def test_conjugate_is_involution():
    for n in range(12):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((3, 0))


def test_format_parse_roundtrip():
    assert format_partition((4, 3, 3)) == "(4,3,3)"
    assert format_partition(()) == "()"
    for n in range(9):
        for lam in enumerate_partitions(n):
            assert parse_partition(format_partition(lam)) == lam
    with pytest.raises(ValueError):
        parse_partition("4,3")
    with pytest.raises(ValueError):
        parse_partition("(3,4)")
