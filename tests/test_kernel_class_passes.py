"""Both streaming kernels against frozen copies of their per-block forms.

`_frozen_reduce_str` and `_frozen_low_rank_reduce_str` are the kernels as
they were before they read the twin-class index: every pass walks every
block of `reference_view`, and a per-mask memo stands in for the class.  The
class-index kernels must keep the same vertices, emit the same edges in the
same order, and take the same passes and peak words.  Under every word budget
from 0 to the peak they must trip, or not, in the same pass, and leave no
word live.  `saturating_graphs` draws streams on which the kernels stop
matching part way through a pass: every split fills, or the basis reaches
full rank, before the last blocks.  On those and on the smaller draws, which
seldom saturate, each kernel matches a class at most once in all its passes.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kernel_memos import covered_graphs, neighbours_of

from corpus import reference_view
from vcstream.errors import MemoryBudgetExceeded
from vcstream import kernel_adjacency, kernel_lowrank
from vcstream.graph import Graph, VertexCover, canonical_edge
from vcstream.kernel_adjacency import _entry_words, reduce_str
from vcstream.kernel_lowrank import (
    F2Basis,
    _basis_words,
    basis_insert,
    incidence_pair_index,
    low_rank_reduce_str,
    mask_vector,
    matching_splits,
    pair_masks,
)
from vcstream.meters import MemoryMeter, MeteredSet, words_for_bits
from vcstream.results import KernelOutput
from vcstream.streams import AL, EDGE, filtered_substream, make_stream


# --- frozen per-block kernels ----------------------------------------------

def _view(h, members):
    """The per-block view of `members` on `h`, from its graph and order."""
    return reference_view(h.source, h.blocks, members)


def _frozen_reduce_str(h, X, r, c, meter):
    h.require_cover(X.members)
    passes_before = h.pass_meter.passes
    splits = pair_masks(X, incidence_pair_index(X, c))
    counts = [0] * len(splits)
    matches = {}
    marked = []
    out_edges = []

    with meter.scope(X.K), meter.scope(len(splits) * _entry_words(X.K)):
        seen_cover = MeteredSet(meter)

        def pass_fn(view):
            for v, bit, m, nbrs in view:
                if bit:
                    out_edges.extend(canonical_edge(v, w) for w in nbrs if w in seen_cover)
                    seen_cover.add(v)
                    continue
                meter.allocate(len(nbrs))
                hits = matches.get(m)
                if hits is None:
                    hits = matches[m] = matching_splits(m, splits)
                hit = False
                for i in hits:
                    if counts[i] < r:
                        counts[i] += 1
                        hit = True
                if hit:
                    marked.append(v)
                    out_edges.extend(canonical_edge(v, w) for w in nbrs)
                else:
                    matches[m] = []
                meter.release(len(nbrs))

        try:
            h.run_pass(lambda: pass_fn(_view(h, X.members)))
        finally:
            seen_cover.close()

    kept = tuple(sorted(set(X.members) | set(marked)))
    return KernelOutput(kept, tuple(out_edges),
                        h.pass_meter.passes - passes_before, meter.peak_words)


def _frozen_low_rank_reduce_str(h, X, ell, c, meter):
    h.require_cover(X.members)
    passes_before = h.pass_meter.passes
    cover_set = X.member_set()
    index = incidence_pair_index(X, c)
    dim = len(index)
    vec_words = max(1, words_for_bits(dim))
    splits = pair_masks(X, index)
    vectors = {}
    kept_outside = []

    with meter.scope(X.K):
        charged_a = 0
        charged_basis = 0
        try:
            for _ in range(ell):
                basis_box = [F2Basis(dim)]
                skip = cover_set | set(kept_outside)
                scanned = set()

                def scan(view, basis_box=basis_box, skip=skip, scanned=scanned):
                    nonlocal charged_a, charged_basis
                    for v, _, m, nbrs in view:
                        if v in skip:
                            continue
                        meter.allocate(len(nbrs))
                        try:
                            meter.allocate(vec_words)
                            try:
                                independent = False
                                if m not in scanned:
                                    scanned.add(m)
                                    vec = vectors.get(m)
                                    if vec is None:
                                        vec = vectors[m] = mask_vector(m, splits)
                                    new_basis, independent = basis_insert(basis_box[0], vec, v)
                            finally:
                                meter.release(vec_words)
                            if independent:
                                basis_box[0] = new_basis
                                grown = _basis_words(new_basis)
                                meter.allocate(grown - charged_basis)
                                charged_basis = grown
                                kept_outside.append(v)
                                meter.allocate(1)
                                charged_a += 1
                        finally:
                            meter.release(len(nbrs))

                h.run_pass(lambda scan=scan: scan(_view(h, X.members)))
                meter.release(charged_basis)
                charged_basis = 0

            kept = cover_set | set(kept_outside)
            # the kernel's AL events, each edge kept at its first sight
            sub = filtered_substream(h, kept)
            out_events = sub.run_pass(lambda: list(sub.events()))
            out_edges = list(
                dict.fromkeys((ev.u, ev.v) for ev in out_events if ev.kind == EDGE)
            )
        finally:
            meter.release(charged_a + charged_basis)

    return KernelOutput(tuple(sorted(kept)), tuple(out_edges),
                        h.pass_meter.passes - passes_before, meter.peak_words)


# --- harness -----------------------------------------------------------------

def _run(kernel, h, X, a, c, budget=None):
    """The kernel's output, or on a budget trip the passes it took and the
    words it left live."""
    meter = MemoryMeter(budget)
    passes_before = h.pass_meter.passes
    try:
        return ("ok", kernel(h, X, a, c, meter))
    except MemoryBudgetExceeded:
        return ("trip", h.pass_meter.passes - passes_before, meter.live_words)


def _agree(g, X, order, frozen, current, a, c):
    h = make_stream(g, AL, order)
    expected = _run(frozen, h, X, a, c)
    assert _run(current, h, X, a, c) == expected
    for budget in range(expected[1].peak_words + 1):
        trip = _run(current, h, X, a, c, budget)
        assert trip == _run(frozen, h, X, a, c, budget)
        assert trip[0] == "trip" or budget == expected[1].peak_words
        assert trip[0] == "ok" or trip[2] == 0


# one member between two twins: the peak falls at the later twin, the last of
# its class, as the member is held by then
LAST_TWIN_PEAKS = (Graph(3, [(0, 1), (0, 2)]), VertexCover((0,)), (1, 0, 2))


@settings(max_examples=80, deadline=None)
@given(covered_graphs(), st.integers(0, 3), st.integers(0, 3))
@example(LAST_TWIN_PEAKS, 1, 0)
def test_reduce_str_matches_per_block(instance, r, c):
    g, X, order = instance
    _agree(g, X, order, _frozen_reduce_str, reduce_str, r, c)


@settings(max_examples=80, deadline=None)
@given(covered_graphs(), st.integers(1, 3), st.integers(0, 3))
@example(LAST_TWIN_PEAKS, 1, 0)
def test_low_rank_reduce_str_matches_per_block(instance, ell, c):
    g, X, order = instance
    _agree(g, X, order, _frozen_low_rank_reduce_str, low_rank_reduce_str, ell, c)


@st.composite
def saturating_graphs(draw, least):
    """K in 1..3, a in least..3 and c in 0..K+1.  Every cover mask lies on
    a + 1 or a + 2 outside vertices.  By the a-th twin of every mask,
    reduce_str at r = a has filled every split, and each round of
    low_rank_reduce_str at ell = a has reached full rank; a later twin of
    some mask and a member's block come after that point.  Returns
    (g, X, order, a, c)."""
    K = draw(st.integers(1, 3))
    a = draw(st.integers(least, 3))
    c = draw(st.integers(0, K + 1))
    copies = [draw(st.integers(a + 1, a + 2)) for _ in range(1 << K)]
    n = K + sum(copies)
    cover = draw(st.lists(st.integers(0, n - 1), min_size=K, max_size=K, unique=True))
    X = VertexCover(tuple(cover))
    outside = [v for v in range(n) if v not in set(cover)]
    masks = dict(zip(outside, [mask for mask, k in enumerate(copies) for _ in range(k)]))
    edges = [(v, w) for v, mask in masks.items() for w in neighbours_of(mask, X)]
    members = X.members
    inner = [(members[i], members[j]) for i in range(K) for j in range(i + 1, K)]
    edges += [e for e, k in zip(inner, draw(st.lists(st.booleans(), min_size=len(inner),
                                                     max_size=len(inner)))) if k]
    stream = draw(st.permutations(sorted(masks)))
    seen = [0] * (1 << K)
    settled = 0  # blocks of the stream up to the a-th twin of every mask
    for i, v in enumerate(stream):
        seen[masks[v]] += 1
        if seen[masks[v]] == a:
            settled = i + 1
    late = draw(st.sampled_from(members))
    for v in sorted(members, key=lambda v: v != late):  # later inserts keep `late` late
        slot = draw(st.integers(settled if v == late else 0, len(stream)))
        stream.insert(slot, v)
    g = Graph(n, edges)
    return g, VertexCover.validated(g, cover), tuple(stream), a, c


@settings(max_examples=40, deadline=None)
@given(saturating_graphs(0))
def test_reduce_str_stops_matching_when_splits_fill(instance):
    g, X, order, r, c = instance
    _agree(g, X, order, _frozen_reduce_str, reduce_str, r, c)


@settings(max_examples=40, deadline=None)
@given(saturating_graphs(1))
def test_low_rank_reduce_str_stops_inserting_at_full_rank(instance):
    g, X, order, ell, c = instance
    _agree(g, X, order, _frozen_low_rank_reduce_str, low_rank_reduce_str, ell, c)


def _either_draw(least):
    """A `covered_graphs` draw with a in least..3 and c in 0..3, or a
    `saturating_graphs` one; as (g, X, order, a, c)."""
    return st.one_of(st.tuples(covered_graphs(), st.integers(least, 3), st.integers(0, 3))
                     .map(lambda t: (*t[0], t[1], t[2])), saturating_graphs(least))


def _masks_matched(module, name, kernel, instance):
    """The masks that `kernel` passes to `module.name`, in call order."""
    g, X, order, a, c = instance
    real, masks = getattr(module, name), []
    setattr(module, name, lambda m, splits: masks.append(m) or real(m, splits))
    try:
        kernel(make_stream(g, AL, order), X, a, c)
    finally:
        setattr(module, name, real)
    return masks


@settings(max_examples=60, deadline=None)
@given(_either_draw(0))
def test_reduce_str_matches_each_class_at_most_once(instance):
    masks = _masks_matched(kernel_adjacency, "matching_splits", reduce_str, instance)
    assert len(masks) == len(set(masks))


@settings(max_examples=60, deadline=None)
@given(_either_draw(1))
def test_low_rank_reduce_str_builds_each_vector_at_most_once(instance):
    masks = _masks_matched(kernel_lowrank, "mask_vector", low_rank_reduce_str, instance)
    assert len(masks) == len(set(masks))
