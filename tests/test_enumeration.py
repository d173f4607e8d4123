from itertools import combinations, permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcstream.enumeration import AT_MOST, EXACTLY, multisets, subsets
from vcstream.errors import BadParams


def collect_subsets(universe, k, mode=AT_MOST):
    return list(subsets(universe, k, mode))


def test_subset_spec_examples():
    assert collect_subsets(("a", "b", "c"), 2) == [
        (), ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"),
    ]
    assert collect_subsets(("a", "b"), 2, EXACTLY) == [("a", "b")]
    assert collect_subsets((), 3) == [()]


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


def test_subset_resume_after_every_production():
    """A walk resumed after any of its productions yields the rest of the
    walk: the resume that lets a branching search keep one stored subset."""
    for mode, n, k in product((AT_MOST, EXACTLY), range(8), range(9)):
        u = tuple("abcdefg"[:n])
        walk = collect_subsets(u, k, mode)
        for i, p in enumerate(walk):
            assert list(subsets(u, k, mode, after=p)) == walk[i + 1:], (mode, n, k, p)


def test_bad_subset_parameters():
    """A walk checks its parameters when it starts."""
    for universe, k, mode in (("aba", 1, AT_MOST), ("ab", -1, AT_MOST), ("ab", 1, "some")):
        with pytest.raises(BadParams):
            list(subsets(universe, k, mode))


def test_multiset_spec_examples():
    vals = list(multisets((("A", 1), ("B", 2)), 2))
    assert vals == [
        (),
        (("A", 1),), (("B", 1),),
        (("A", 1), ("B", 1)), (("B", 2),),
    ]
    vals = list(multisets((("A", 3),), 2))
    assert vals == [(), (("A", 1),), (("A", 2),)]
    vals = list(multisets((), 5))
    assert vals == [()]


def test_multiset_exhaustive_vs_brute():
    for caps in [(1, 1, 1), (2, 2), (3, 1, 2), (0, 2, 1)]:
        classes = tuple((chr(65 + i), cap) for i, cap in enumerate(caps))
        for k in range(5):
            got = list(multisets(classes, k))
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
        list(multisets((("A", 1), ("A", 2)), 2))
    for classes, k in (((("A", 1),), -1), ((("A", -1),), 1)):
        with pytest.raises(BadParams):
            list(multisets(classes, k))


def test_permutation_spec_examples():
    """Placements walk `itertools.permutations`, whose order is the items'
    rank order."""
    vals = list(permutations((1, 2, 3)))
    assert vals == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    ]
    assert list(permutations(())) == [()]
    assert list(permutations((7,))) == [(7,)]


def test_permutation_counts():
    for n in range(6):
        vals = list(permutations(range(n)))
        assert len(vals) == factorial(n)
        assert len(set(vals)) == len(vals)


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
    got = list(multisets(classes, k))
    assert len(got) == len(set(got))
    for pick in got:
        assert sum(c for _, c in pick) <= k
        assert all(1 <= c <= caps[key] for key, c in pick)
