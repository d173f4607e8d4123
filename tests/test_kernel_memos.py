"""The streaming kernels decide an outside vertex from its cover mask alone,
through one split table and its per-mask matcher: the matcher must agree
with the set-based rules, and each kernel's pass over the twin-class index
must keep what its in-memory reference keeps and trip a budget below its
peak with nothing left charged."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcstream.errors import MemoryBudgetExceeded
from vcstream.graph import Graph, VertexCover
from vcstream.kernel_adjacency import reduce_in_memory, reduce_str
from vcstream.kernel_lowrank import (
    F2Basis,
    basis_insert,
    incidence_pair_index,
    incidence_vector,
    low_rank_reduce_in_memory,
    low_rank_reduce_str,
    mask_vector,
    matching_splits,
    pair_masks,
)
from vcstream.meters import MemoryMeter
from vcstream.streams import AL, cover_bits, make_stream


def spread_cover(K):
    # non-contiguous ids, so a member's bit is not its id
    return VertexCover(tuple(range(3, 3 + 2 * K, 2)))


def neighbours_of(mask, X):
    bit_of = cover_bits(X.members)
    return {v for v in X.members if mask & bit_of[v]}


@pytest.mark.parametrize("K", range(6))
@pytest.mark.parametrize("c", range(4))
def test_mask_vector_equals_incidence_vector(K, c):
    """The shared matcher against low_rank_reduce_str's set rule."""
    X = spread_cover(K)
    index = incidence_pair_index(X, c)
    splits = pair_masks(X, index)
    for mask in range(1 << K):
        expected = incidence_vector(neighbours_of(mask, X), X, c, index)
        assert mask_vector(mask, splits) == expected


@pytest.mark.parametrize("K", range(6))
@pytest.mark.parametrize("c", range(4))
def test_matching_entries_equal_set_rule(K, c):
    """The shared matcher against reduce_str's rule, as reduce_in_memory
    reads it: the table holds every (Y+, Y-) split of a cover subset of size
    at most c once, and a vertex matches a split when it sees all of Y+ and
    none of Y-."""
    X = spread_cover(K)
    index = incidence_pair_index(X, c)
    splits = pair_masks(X, index)
    reference = {
        (frozenset(plus), frozenset(subset) - frozenset(plus))
        for size in range(min(c, K) + 1)
        for subset in combinations(X.members, size)
        for plus_size in range(size + 1)
        for plus in combinations(subset, plus_size)
    }
    table = [(frozenset(r_part), frozenset(q_part)) for q_part, r_part in index]
    assert len(table) == len(reference) and set(table) == reference
    for mask in range(1 << K):
        nbrs = neighbours_of(mask, X)
        expected = [i for i, (plus, minus) in enumerate(table)
                    if plus <= nbrs and not minus & nbrs]
        assert matching_splits(mask, splits) == expected


def _frozen_pair_masks(X, index):
    """The split table as it was: each (Q, R) pair as two cover masks."""
    bit_of = cover_bits(X.members)
    return [(sum(bit_of[v] for v in q), sum(bit_of[v] for v in r)) for q, r in index]


def _frozen_matching_splits(mask, splits):
    """The matcher as it was: one test per split of the table."""
    return [i for i, (q_mask, r_mask) in enumerate(splits)
            if not mask & q_mask and mask & r_mask == r_mask]


@pytest.mark.parametrize("K", range(9))
@pytest.mark.parametrize("c", range(4))
def test_matching_splits_one_per_cover_subset(K, c):
    """Up to K = 8: the matched indices ascend, name each cover subset of
    size at most min(c, K) exactly once, and equal the per-split scan."""
    X = spread_cover(K)
    index = incidence_pair_index(X, c)
    splits = pair_masks(X, index)
    frozen = _frozen_pair_masks(X, index)
    subsets = {frozenset(s) for size in range(min(c, K) + 1)
               for s in combinations(X.members, size)}
    assert len(subsets) == sum(comb(K, i) for i in range(min(c, K) + 1))
    for mask in range(1 << K):
        hits = matching_splits(mask, splits)
        assert hits == sorted(hits)
        assert len(hits) == len(subsets)
        assert {frozenset(index[i][0] + index[i][1]) for i in hits} == subsets
        assert hits == _frozen_matching_splits(mask, frozen)


@pytest.mark.parametrize("K, c", [(K, c) for K in range(7) for c in range(K + 2)])
def test_mask_vectors_rank_one_per_cover_subset(K, c):
    """The rank at which low_rank_reduce_str stops inserting: the vectors of
    all 2^K masks span one dimension per cover subset of size at most c."""
    X = spread_cover(K)
    splits = pair_masks(X, incidence_pair_index(X, c))
    basis = F2Basis(len(splits))
    for mask in range(1 << K):
        basis_insert(basis, mask_vector(mask, splits), mask)
    assert basis.rank == len(splits.subsets) == sum(comb(K, i) for i in range(min(c, K) + 1))


@st.composite
def covered_graphs(draw):
    """n <= 40, K <= 5; outside vertices draw their cover masks from a pool of
    at most four, so repeated masks are the norm.  Returns (g, X, order)."""
    K = draw(st.integers(0, 5))
    n = draw(st.integers(max(K, 1), 40))
    cover = draw(st.lists(st.integers(0, n - 1), min_size=K, max_size=K, unique=True))
    X = VertexCover(tuple(cover))
    pool = draw(st.lists(st.integers(0, (1 << K) - 1), min_size=1, max_size=4))
    outside = [v for v in range(n) if v not in set(cover)]
    picks = draw(st.lists(st.sampled_from(pool), min_size=len(outside), max_size=len(outside)))
    edges = [(v, w) for v, mask in zip(outside, picks) for w in neighbours_of(mask, X)]
    members = X.members
    inner = [(members[i], members[j]) for i in range(K) for j in range(i + 1, K)]
    keep = draw(st.lists(st.booleans(), min_size=len(inner), max_size=len(inner)))
    edges += [e for e, k in zip(inner, keep) if k]
    order = draw(st.permutations(range(n)))
    g = Graph(n, edges)
    return g, VertexCover.validated(g, cover), tuple(order)


def assert_trips_clean(run, peak):
    meter = MemoryMeter(budget_words=peak - 1)
    with pytest.raises(MemoryBudgetExceeded):
        run(meter)
    assert meter.live_words == 0


@settings(max_examples=60, deadline=None)
@given(covered_graphs(), st.integers(0, 3), st.integers(0, 3))
def test_reduce_str_matches_in_memory(instance, r, c):
    g, X, order = instance
    out = reduce_str(make_stream(g, AL, order), X, r, c)
    assert out.kept_vertices == reduce_in_memory(g, X, r, c, order)
    assert out.passes == 1
    assert_trips_clean(lambda m: reduce_str(make_stream(g, AL, order), X, r, c, m),
                       out.peak_words)


@settings(max_examples=60, deadline=None)
@given(covered_graphs(), st.integers(1, 3), st.integers(0, 3))
def test_low_rank_reduce_str_matches_in_memory(instance, ell, c):
    g, X, order = instance
    out = low_rank_reduce_str(make_stream(g, AL, order), X, ell, c)
    assert out.kept_vertices == low_rank_reduce_in_memory(g, X, ell, c, order)
    assert out.passes == ell + 1
    assert_trips_clean(
        lambda m: low_rank_reduce_str(make_stream(g, AL, order), X, ell, c, m),
        out.peak_words,
    )
