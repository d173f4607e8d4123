"""Both streaming kernels against frozen copies of their per-block forms.

`_frozen_reduce_str` and `_frozen_low_rank_reduce_str` are the kernels as
they were before they read the twin-class index: every pass walks every
block of `reference_view`, and a per-mask memo stands in for the class.  The
class-index kernels must keep the same vertices, emit the same edges in the
same order, and take the same passes and peak words.  Under every word budget
from 0 to the peak they must trip, or not, in the same pass, and leave no
word live.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kernel_memos import covered_graphs

from corpus import reference_view
from vcstream.errors import MemoryBudgetExceeded
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
