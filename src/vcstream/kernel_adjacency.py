"""One-pass streaming kernel for covers: mark, per adjacency pattern toward
small cover subsets, the first r matching outside vertices in stream order,
and emit the kernel as an EA edge stream.

The in-memory variant with the same marking rule is kept alongside for
differential testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BadParams, InvalidCover, NotALModel
from .graph import Graph, VertexCover, canonical_edge
from .meters import MemoryMeter, MeteredSet, words_for_bits
from .properties import AdjacencyCharacterization
from .results import KernelOutput
from .streams import AL, PASS_END_EVENT, StreamHandle, cover_bits, edge_event


@dataclass
class PartitionEntry:
    """One (Y+, Y-) split of a small cover subset, with x_count = vertices
    marked so far (capped at r).  An outside vertex matches the entry when
    it sees all of Y+ and none of Y-."""

    y_plus: frozenset[int]
    y_minus: frozenset[int]
    x_count: int = 0


def build_mark_table(cover: VertexCover, c: int) -> list[PartitionEntry]:
    """All partitioned subsets of the cover with at most c elements."""
    if c < 0:
        raise BadParams("c must be non-negative")
    entries = []
    members = cover.members
    for size in range(min(c, len(members)) + 1):
        for subset in combinations(members, size):
            for bits in range(1 << size):
                plus = frozenset(subset[i] for i in range(size) if bits >> i & 1)
                minus = frozenset(subset) - plus
                entries.append(PartitionEntry(plus, minus))
    return entries


def mark_table_size(K: int, c: int) -> int:
    from math import comb

    return sum(comb(K, i) * (1 << i) for i in range(c + 1))


def _entry_words(K: int) -> int:
    # Y+ and Y- as K-bit masks, plus x_count and the per-vertex match counter
    # of the one-pass rule (the mask test below stands in for the latter).
    return 2 * max(1, words_for_bits(K)) + 2


def reduce_str(h: StreamHandle, X: VertexCover, r: int, c: int,
               meter: MemoryMeter | None = None) -> KernelOutput:
    """Single-pass kernel; output could equally be produced by the in-memory
    rule with marking order equal to stream order."""
    if h.model != AL:
        raise NotALModel("reduce_str requires an AL stream")
    if r < 0 or c < 0:
        raise BadParams("r and c must be non-negative")
    if not h.source.is_cover(X.members):
        raise InvalidCover("X does not cover the streamed graph")
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes

    bits = cover_bits(X.members)
    table = build_mark_table(X, c)
    entry_masks = [
        (sum(bits[y] for y in e.y_plus), sum(bits[y] for y in e.y_plus | e.y_minus))
        for e in table
    ]
    marked: list[int] = []
    out_edges: list[tuple[int, int]] = []

    with meter.scope(X.K), meter.scope(len(table) * _entry_words(X.K)):
        seen_cover = MeteredSet(meter)

        def pass_fn(view):
            for v, bit, m, nbrs in view:
                if bit:
                    out_edges.extend(canonical_edge(v, w) for w in nbrs if w in seen_cover)
                    seen_cover.add(v)
                    continue
                meter.allocate(len(nbrs))  # the block's buffered edges
                hit = False
                for entry, (plus, split) in zip(table, entry_masks):
                    if entry.x_count < r and m & split == plus:
                        entry.x_count += 1
                        hit = True
                if hit:
                    marked.append(v)
                    out_edges.extend(canonical_edge(v, w) for w in nbrs)
                meter.release(len(nbrs))

        try:
            h.run_cover_pass(X.members, pass_fn)
        finally:
            seen_cover.close()

    kept = tuple(sorted(set(X.members) | set(marked)))
    events = tuple(edge_event(u, v) for u, v in out_edges) + (PASS_END_EVENT,)
    return KernelOutput(
        kept_vertices=kept,
        edges=tuple(out_edges),
        events=events,
        passes=h.pass_meter.passes - passes_before,
        peak_words=meter.peak_words,
    )


def reduce_in_memory(g: Graph, X: VertexCover, r: int, c: int,
                     candidate_order: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Reference marking rule on an in-memory graph: per partitioned subset,
    mark the first r matching outside vertices in candidate order."""
    if r < 0 or c < 0:
        raise BadParams("r and c must be non-negative")
    if not g.is_cover(X.members):
        raise InvalidCover("X does not cover g")
    cover_set = X.member_set()
    order = candidate_order if candidate_order is not None else tuple(range(g.n))
    outside = [v for v in order if v not in cover_set]
    marked: set[int] = set()
    for size in range(min(c, X.K) + 1):
        for subset in combinations(X.members, size):
            for bits in range(1 << size):
                plus = {subset[i] for i in range(size) if bits >> i & 1}
                minus = set(subset) - plus
                hits = 0
                for v in outside:
                    if hits >= r:
                        break
                    nbrs = g.neighbors(v)
                    if plus <= nbrs and not (minus & nbrs):
                        marked.add(v)
                        hits += 1
    return tuple(sorted(cover_set | marked))


def kernel_pifree(h: StreamHandle, X: VertexCover, ell: int,
                  char: AdjacencyCharacterization,
                  meter: MemoryMeter | None = None,
                  pi_has_edges: bool = True) -> KernelOutput:
    """Deletion kernel: keep ell + p(K) witnesses per pattern, c_pi-wide."""
    if not pi_has_edges:
        raise BadParams("kernel requires every member of the family to have an edge")
    if ell < 0:
        raise BadParams("ell must be non-negative")
    return reduce_str(h, X, ell + char.p_of(X.K), char.c_pi, meter)


def kernel_largest_induced(h: StreamHandle, X: VertexCover,
                           char: AdjacencyCharacterization,
                           meter: MemoryMeter | None = None) -> KernelOutput:
    """Kernel for finding a largest induced occurrence: p(K) witnesses suffice."""
    return reduce_str(h, X, char.p_of(X.K), char.c_pi, meter)


def kernel_partition_q(h: StreamHandle, X: VertexCover, q: int,
                       char: AdjacencyCharacterization,
                       meter: MemoryMeter | None = None) -> KernelOutput:
    """Kernel for partitioning into q colour classes: scale both parameters by q."""
    if q < 1:
        raise BadParams("q must be at least 1")
    return reduce_str(h, X, q * char.p_of(X.K), q * char.c_pi, meter)
