"""The walks step by direct successor rules: every production must come out
in the order of a frozen copy of the search-based successors they replaced.
Placements walk `itertools.permutations`, pinned here to the frozen
next-permutation order."""

from itertools import permutations, product

import pytest

from vcstream.enumeration import AT_MOST, EXACTLY, multisets, subsets


# --- frozen copy of the search-based successors, on positions -------------

def _next_combination(pos, n):
    out = list(pos)
    size = len(out)
    for j in reversed(range(size)):
        if out[j] < n - (size - j):
            out[j] += 1
            for t in range(j + 1, size):
                out[t] = out[t - 1] + 1
            return tuple(out)
    return None


def frozen_subsets(n, k, mode):
    if mode == AT_MOST:
        pos = ()
    elif k <= n:
        pos = tuple(range(k))
    else:
        return
    while pos is not None:
        yield pos
        nxt = _next_combination(pos, n)
        if nxt is None and mode == AT_MOST and len(pos) < k and len(pos) < n:
            nxt = tuple(range(len(pos) + 1))
        pos = nxt


def _suffix_caps(caps):
    out = [0] * (len(caps) + 1)
    for i in reversed(range(len(caps))):
        out[i] = out[i + 1] + caps[i]
    return out


def _first_exact(caps, total, start):
    if total == 0:
        return ()
    suffix = _suffix_caps(caps)
    for p in range(start, len(caps)):
        if caps[p] == 0:
            continue
        for cnt in range(1, min(caps[p], total) + 1):
            if total - cnt <= suffix[p + 1]:
                tail = _first_exact(caps, total - cnt, p + 1)
                if tail is not None:
                    return ((p, cnt),) + tail
    return None


def _next_exact(caps, seq, total):
    suffix = _suffix_caps(caps)
    for j in reversed(range(len(seq))):
        prefix = seq[:j]
        budget = total - sum(c for _, c in prefix)
        p, c = seq[j]
        candidates = [(p, c2) for c2 in range(c + 1, caps[p] + 1)]
        for p2 in range(p + 1, len(caps)):
            candidates.extend((p2, c2) for c2 in range(1, caps[p2] + 1))
        for p2, c2 in candidates:
            if c2 <= budget and budget - c2 <= suffix[p2 + 1]:
                tail = _first_exact(caps, budget - c2, p2 + 1)
                if tail is not None:
                    return prefix + ((p2, c2),) + tail
    return None


def frozen_multisets(caps, k):
    seq = ()
    while seq is not None:
        yield seq
        total = sum(c for _, c in seq)
        nxt = _next_exact(caps, seq, total)
        if nxt is None:
            for t in range(total + 1, k + 1):
                if t > sum(caps):
                    break
                nxt = _first_exact(caps, t, 0)
                if nxt is not None:
                    break
        seq = nxt


def frozen_permutations(n):
    seq = list(range(n))
    while True:
        yield tuple(seq)
        j = n - 2
        while j >= 0 and seq[j] >= seq[j + 1]:
            j -= 1
        if j < 0:
            return
        t = n - 1
        while seq[t] <= seq[j]:
            t -= 1
        seq[j], seq[t] = seq[t], seq[j]
        seq[j + 1:] = reversed(seq[j + 1:])


# --- the walks against the frozen orders ----------------------------------

UNIVERSE = "abcdefg"


@pytest.mark.parametrize("mode", [AT_MOST, EXACTLY])
def test_subset_order_matches_frozen(mode):
    for n in range(8):
        u = tuple(UNIVERSE[:n])
        for k in range(9):
            want = [tuple(u[i] for i in pos) for pos in frozen_subsets(n, k, mode)]
            assert list(subsets(u, k, mode)) == want, (n, k)


def test_permutation_order_matches_frozen():
    for n in range(8):
        u = tuple(UNIVERSE[:n])
        want = [tuple(u[i] for i in seq) for seq in frozen_permutations(n)]
        assert list(permutations(u)) == want, n


def named(seq):
    return tuple((UNIVERSE[p], c) for p, c in seq)


@pytest.mark.parametrize("m", range(6))
def test_multiset_order_matches_frozen(m):
    """Every capacity vector over m classes in 0..3 and every k up to the
    capacity sum + 1.  The frozen walk reads k only when it starts the next
    total, so its run at k is its run at the capacity sum + 1 cut after the
    last production of total k; the cut is checked against a per-k frozen
    run while there are at most three classes."""
    for caps in product(range(4), repeat=m):
        classes = tuple(zip(UNIVERSE, caps))
        full = [named(s) for s in frozen_multisets(caps, sum(caps) + 1)]
        for k in range(sum(caps) + 2):
            want = [v for v in full if sum(c for _, c in v) <= k]
            if m <= 3:
                assert want == [named(s) for s in frozen_multisets(caps, k)]
            assert list(multisets(classes, k)) == want, (caps, k)


def test_walks_that_end_at_once():
    """EXACTLY with k > n, no classes and no items: at most the empty
    production."""
    assert list(subsets("ab", 3, EXACTLY)) == []
    assert list(subsets((), 2, AT_MOST)) == [()]
    assert list(multisets((), 2)) == [()]
    assert list(multisets((("a", 0), ("b", 2)), 0)) == [()]
    assert list(permutations(())) == [()]
