from itertools import combinations, permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcstream.enumeration import (
    AT_MOST,
    EXACTLY,
    MultisetCursor,
    PermutationCursor,
    SubsetCursor,
    cursor_values,
    multiset_first,
    multiset_next,
    permutation_first,
    permutation_next,
    subset_first,
    subset_next,
)
from vcstream.errors import AdvancePastEnd, BadParams


def collect_subsets(universe, k, mode=AT_MOST):
    return list(cursor_values(subset_first(universe, k, mode)))


def test_subset_spec_examples():
    assert collect_subsets(("a", "b", "c"), 2) == [
        (), ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"),
    ]
    assert collect_subsets(("a", "b"), 2, EXACTLY) == [("a", "b")]
    assert collect_subsets((), 3) == [()]


def test_subset_advance_past_end():
    c = subset_first((), 3)
    c = subset_next(c)
    assert c.at_end
    with pytest.raises(AdvancePastEnd):
        subset_next(c)


def test_subset_counts_closed_form():
    universe = tuple(range(6))
    for n in range(7):
        u = universe[:n]
        for k in range(7):
            assert len(collect_subsets(u, k)) == sum(comb(n, i) for i in range(k + 1))
            assert len(collect_subsets(u, k, EXACTLY)) == comb(n, k)


def test_subset_matches_itertools_order_free():
    u = tuple("abcde")
    for k in range(6):
        expected = {frozenset(c) for i in range(k + 1) for c in combinations(u, i)}
        got = [frozenset(s) for s in collect_subsets(u, k)]
        assert len(got) == len(set(got))
        assert set(got) == expected


def rest_of(cursor, step):
    out = []
    while not cursor.at_end:
        out.append(cursor.current)
        cursor = step(cursor)
    return out


def test_subset_statelessness():
    """A cursor rebuilt from its fields at any point finishes the sequence
    the same way; for subset, multiset and permutation cursors."""
    cases = [
        (subset_first(tuple(range(5)), 3, mode), subset_next,
         lambda c: SubsetCursor(c.universe, c.k, c.mode, c.current))
        for mode in (AT_MOST, EXACTLY)
    ] + [
        (multiset_first(tuple(zip("ABCD", caps)), k), multiset_next,
         lambda c: MultisetCursor(c.classes, c.k, c.current))
        for caps, k in (((1, 2), 2), ((2, 0, 3, 1), 5), ((3, 1, 2), 6))
    ] + [
        (permutation_first(tuple("wxyz")), permutation_next,
         lambda c: PermutationCursor(c.items, c.current)),
    ]
    for cursor, step, rebuild in cases:
        steps = 0
        while not cursor.at_end:
            assert rest_of(rebuild(cursor), step) == rest_of(cursor, step), cursor.current
            cursor, steps = step(cursor), steps + 1
        assert steps > 1


def test_multiset_spec_examples():
    vals = list(cursor_values(multiset_first((("A", 1), ("B", 2)), 2)))
    assert vals == [
        (),
        (("A", 1),), (("B", 1),),
        (("A", 1), ("B", 1)), (("B", 2),),
    ]
    vals = list(cursor_values(multiset_first((("A", 3),), 2)))
    assert vals == [(), (("A", 1),), (("A", 2),)]
    vals = list(cursor_values(multiset_first((), 5)))
    assert vals == [()]


def test_multiset_exhaustive_vs_brute():
    for caps in [(1, 1, 1), (2, 2), (3, 1, 2), (0, 2, 1)]:
        classes = tuple((chr(65 + i), cap) for i, cap in enumerate(caps))
        for k in range(5):
            got = list(cursor_values(multiset_first(classes, k)))
            brute = set()
            for counts in product(*(range(cap + 1) for cap in caps)):
                if sum(counts) <= k:
                    brute.add(tuple(
                        (chr(65 + i), c) for i, c in enumerate(counts) if c > 0
                    ))
            assert len(got) == len(set(got))
            assert set(got) == brute
            # size-then-lex order
            keys = [(sum(c for _, c in v), v) for v in got]
            assert keys == sorted(keys)


def test_multiset_distinct_keys_required():
    with pytest.raises(BadParams):
        multiset_first((("A", 1), ("A", 2)), 2)


def test_permutation_spec_examples():
    vals = list(cursor_values(permutation_first((1, 2, 3))))
    assert vals == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    ]
    assert list(cursor_values(permutation_first(()))) == [()]
    assert list(cursor_values(permutation_first((7,)))) == [(7,)]


def test_permutation_counts():
    for n in range(6):
        items = tuple(range(n))
        vals = list(cursor_values(permutation_first(items)))
        assert len(vals) == factorial(n)
        assert set(vals) == set(permutations(items))


def test_permutation_advance_past_end():
    c = permutation_first((1,))
    c = permutation_next(c)
    with pytest.raises(AdvancePastEnd):
        permutation_next(c)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(0, 6),
    k=st.integers(0, 6),
    mode=st.sampled_from([AT_MOST, EXACTLY]),
)
def test_subset_cursor_properties(n, k, mode):
    u = tuple(range(n))
    got = collect_subsets(u, k, mode)
    assert len(got) == len(set(got))
    if mode == AT_MOST:
        assert len(got) == sum(comb(n, i) for i in range(k + 1))
        sizes = [len(s) for s in got]
        assert sizes == sorted(sizes)
    else:
        assert len(got) == comb(n, k)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=0, max_size=4), st.integers(0, 5))
def test_multiset_cursor_properties(caps, k):
    classes = tuple((i, cap) for i, cap in enumerate(caps))
    got = list(cursor_values(multiset_first(classes, k)))
    assert len(got) == len(set(got))
    for pick in got:
        assert sum(c for _, c in pick) <= k
        assert all(1 <= c <= caps[key] for key, c in pick)
