import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import all_covers, atlas_graphs
from vcstream.errors import (
    BadParams,
    DimensionMismatch,
    NeighborOutsideCover,
    NotALModel,
)
from vcstream.graph import VertexCover, path_graph, star_graph
from vcstream.instances import PlantedSpec, gen_planted
from vcstream.kernel_lowrank import (
    F2Basis,
    IncidenceVector,
    basis_insert,
    incidence_pair_index,
    incidence_vector,
    kernel_by_rank,
    low_rank_reduce_in_memory,
    low_rank_reduce_str,
)
from vcstream.meters import MemoryMeter
from vcstream.streams import AL, EA, filtered_substream, make_stream


def bits_tuple(vec):
    return tuple((vec.bits >> i) & 1 for i in range(vec.length))


def test_pair_index_order_and_size():
    X = VertexCover((0,))
    assert incidence_pair_index(X, 1) == (((), ()), ((0,), ()), ((), (0,)))
    for K in range(4):
        for c in range(4):
            X = VertexCover(tuple(range(K)))
            assert len(incidence_pair_index(X, c)) == sum(
                comb(K, i) * 2 ** i for i in range(c + 1)
            )


def test_incidence_vector_examples():
    X = VertexCover((0,))
    assert bits_tuple(incidence_vector([0], X, 1)) == (1, 0, 1)
    assert bits_tuple(incidence_vector([], X, 1)) == (1, 1, 0)
    assert bits_tuple(incidence_vector([0], X, 0)) == (1,)
    with pytest.raises(NeighborOutsideCover):
        incidence_vector([5], X, 1)


def test_basis_insert_examples():
    b = F2Basis(3)
    b, indep = basis_insert(b, IncidenceVector(0b101, 3), 10)
    assert indep and b.rank == 1 and b.chosen == [10]
    b2, indep = basis_insert(b, IncidenceVector(0b101, 3), 11)
    assert not indep and b2.rank == 1
    b3, indep = basis_insert(b, IncidenceVector(0b010, 3), 12)
    assert indep
    _, indep = basis_insert(b3, IncidenceVector(0b111, 3), 13)
    assert not indep  # 101 ^ 010 = 111
    with pytest.raises(DimensionMismatch):
        basis_insert(b, IncidenceVector(0b1, 5), 14)
    _, indep = basis_insert(F2Basis(3), IncidenceVector(0, 3), 15)
    assert not indep  # zero vector is never independent


def brute_in_span(rows, bits):
    sums = {0}
    for row in rows:
        sums |= {s ^ row for s in sums}
    return bits in sums


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_basis_matches_brute_span(data):
    length = data.draw(st.integers(1, 16))
    vecs = data.draw(
        st.lists(st.integers(0, 2 ** length - 1), min_size=0, max_size=8)
    )
    basis = F2Basis(length)
    independent_rows = []
    for i, v in enumerate(vecs):
        expected = not brute_in_span(independent_rows, v)
        basis, indep = basis_insert(basis, IncidenceVector(v, length), i)
        assert indep == expected
        if indep:
            independent_rows.append(v)
    assert basis.rank == len(independent_rows)


def _frozen_basis_insert(b, vec, v):
    """basis_insert as it was: a fully reduced copy of `b`, every row cleared
    at the new pivot and the pivot map rebuilt on each insert."""
    if vec.length != b.dim:
        raise DimensionMismatch(f"vector length {vec.length} != basis dim {b.dim}")
    residual = b.reduce(vec.bits)
    if residual == 0:
        return b, False
    top = residual.bit_length() - 1
    rows = [r ^ residual if r >> top & 1 else r for r in b.rows]
    rows.append(residual)
    pivots = {row.bit_length() - 1: idx for idx, row in enumerate(rows)}
    return F2Basis(b.dim, rows, pivots, b.chosen + [v]), True


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_echelon_basis_matches_frozen_reduced_basis(data):
    """The echelon basis agrees with the fully reduced one, at dimensions up
    to 129 (the c = 2, K = 8 table), on rank, chosen vertices and every
    independence flag; every inserted vector reduces to 0 against it."""
    dim = data.draw(st.integers(1, 129))
    rank = data.draw(st.integers(1, dim))
    # a pool of at most `rank` generators, so later draws are often dependent
    pool = data.draw(st.lists(st.integers(0, (1 << dim) - 1), min_size=1, max_size=rank))
    picks = data.draw(st.lists(st.lists(st.sampled_from(range(len(pool))), max_size=4),
                               max_size=2 * rank + 4))
    vecs = []
    for pick in picks:
        bits = 0
        for j in pick:
            bits ^= pool[j]
        vecs.append(bits)
    basis, frozen = F2Basis(dim), F2Basis(dim)
    for v, bits in enumerate(vecs):
        vec = IncidenceVector(bits, dim)
        basis, indep = basis_insert(basis, vec, v)
        frozen, frozen_indep = _frozen_basis_insert(frozen, vec, v)
        assert indep == frozen_indep
    assert basis.rank == frozen.rank
    assert basis.chosen == frozen.chosen
    assert all(basis.reduce(bits) == 0 for bits in vecs)


def test_star_examples():
    g = star_graph(3)
    X = VertexCover.validated(g, [0])
    h = make_stream(g, AL)
    out = low_rank_reduce_str(h, X, 1, 1)
    assert out.kept_vertices == (0, 1)
    assert out.passes == 2
    out = low_rank_reduce_str(make_stream(g, AL), X, 2, 1)
    assert out.kept_vertices == (0, 1, 2)
    assert out.passes == 3


def test_no_outside_vertices():
    g = path_graph(3)
    X = VertexCover.validated(g, [0, 1, 2])
    out = low_rank_reduce_str(make_stream(g, AL), X, 2, 1)
    assert set(out.kept_vertices) == {0, 1, 2}
    assert out.passes == 3


def test_pass_exactness():
    for ell in (1, 2, 4):
        g, X = gen_planted(PlantedSpec(20, 4, 0.4, 5))
        h = make_stream(g, AL)
        out = low_rank_reduce_str(h, X, ell, 1)
        assert out.passes == ell + 1
        assert h.pass_meter.passes == ell + 1


def test_stream_matches_in_memory():
    rng = random.Random(17)
    for g in atlas_graphs(2, 6)[::3]:
        covers = all_covers(g, 4)[:4]
        for cover in covers:
            X = VertexCover.validated(g, cover)
            orders = [tuple(range(g.n)), tuple(reversed(range(g.n)))]
            shuffled = list(range(g.n))
            rng.shuffle(shuffled)
            orders.append(tuple(shuffled))
            for order in orders:
                for ell, c in ((1, 1), (2, 1), (2, 2)):
                    out = low_rank_reduce_str(make_stream(g, AL, order), X, ell, c)
                    assert out.kept_vertices == low_rank_reduce_in_memory(
                        g, X, ell, c, order
                    )


def test_round_vectors_lie_in_round_span():
    # after each round every scanned vector reduces to zero against that
    # round's basis
    for g in atlas_graphs(3, 6)[::7]:
        covers = all_covers(g, 3)
        if not covers:
            continue
        X = VertexCover.validated(g, covers[-1])
        cover_set = X.member_set()
        index = incidence_pair_index(X, 1)
        kept: set[int] = set()
        for _ in range(2):
            basis = F2Basis(len(index))
            scanned = []
            for v in range(g.n):
                if v in cover_set or v in kept:
                    continue
                vec = incidence_vector(g.neighbors(v) & cover_set, X, 1, index)
                scanned.append(vec)
                basis, indep = basis_insert(basis, vec, v)
                if indep:
                    kept.add(v)
            for vec in scanned:
                assert brute_in_span(basis.rows, vec.bits)


def test_kernel_size_bound():
    for seed in range(3):
        g, X = gen_planted(PlantedSpec(50, 5, 0.35, seed))
        for ell, c in ((1, 1), (3, 1), (2, 2)):
            out = low_rank_reduce_str(make_stream(g, AL), X, ell, c)
            dim = len(incidence_pair_index(X, c))
            assert len(out.kept_vertices) <= X.K + ell * dim


def test_output_stream_is_al_of_kernel():
    g, X = gen_planted(PlantedSpec(12, 3, 0.5, 2))
    h = make_stream(g, AL, random.Random(2).sample(range(g.n), g.n))
    out = low_rank_reduce_str(h, X, 2, 1)
    kept = set(out.kept_vertices)
    edge_events = [(e.u, e.v) for e in filtered_substream(h, kept).events()
                   if e.kind == "edge"]
    # the kernel's AL stream shows every edge twice; each is emitted once, at
    # its first sight
    assert len(edge_events) == 2 * len(out.edges)
    assert list(out.edges) == list(dict.fromkeys(edge_events))
    assert {*out.edges} == {e for e in g.edges if e[0] in kept and e[1] in kept}


def test_kernel_by_rank_delegation():
    g, X = gen_planted(PlantedSpec(15, 3, 0.4, 9))
    a = kernel_by_rank(make_stream(g, AL), X, 0, 1, 1)
    assert a.passes == 3  # ell = 0 + 1 + 1
    b = low_rank_reduce_str(make_stream(g, AL), X, 2, 1)
    assert a.kept_vertices == b.kept_vertices
    with pytest.raises(BadParams):
        kernel_by_rank(make_stream(g, AL), X, -1, 1, 1)
    with pytest.raises(BadParams):
        low_rank_reduce_str(make_stream(g, AL), X, 0, 1)
    with pytest.raises(NotALModel):
        low_rank_reduce_str(make_stream(g, EA), X, 1, 1)


def test_meter_balance_and_bound():
    g, X = gen_planted(PlantedSpec(25, 4, 0.4, 11))
    meter = MemoryMeter()
    out = low_rank_reduce_str(make_stream(g, AL), X, 2, 1, meter)
    assert meter.live_words == 0
    dim = len(incidence_pair_index(X, 1))
    rows_bound = dim * (max(1, (dim + 63) // 64) + 2)
    a_bound = 2 * dim
    assert out.peak_words <= X.K + a_bound + rows_bound + X.K + dim + 4
