"""One-pass streaming kernel for covers: mark, per adjacency pattern toward
small cover subsets, the first r matching outside vertices in stream order,
and emit the kernel as an EA edge stream.

The in-memory variant with the same marking rule is kept alongside for
differential testing.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BadParams
from .graph import Graph, VertexCover, canonical_edge, require_cover
from .kernel_lowrank import incidence_pair_index, matching_splits, pair_masks
from .meters import MemoryMeter, MeteredSet, words_for_bits
from .properties import AdjacencyCharacterization
from .results import KernelOutput
from .streams import StreamHandle


def mark_table_size(K: int, c: int) -> int:
    from math import comb

    return sum(comb(K, i) * (1 << i) for i in range(c + 1))


def _entry_words(K: int) -> int:
    # Q and R as K-bit masks, plus the split's mark count and the per-vertex
    # match counter of the one-pass rule (the mask test stands in for the latter).
    return 2 * max(1, words_for_bits(K)) + 2


def reduce_str(h: StreamHandle, X: VertexCover, r: int, c: int,
               meter: MemoryMeter | None = None) -> KernelOutput:
    """Single-pass kernel; output could equally be produced by the in-memory
    rule with marking order equal to stream order.  Once every split holds
    r marks (at once when r = 0), no later block can mark, so the pass stops
    matching; its visits still make every charge."""
    if r < 0 or c < 0:
        raise BadParams("r and c must be non-negative")
    h.require_cover(X.members)
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes

    # the mark table: one (Q, R) split per entry, marked by a vertex that sees
    # none of Q and all of R; counts[i] is split i's marks so far (capped at r)
    splits = pair_masks(X, incidence_pair_index(X, c))
    counts = [0] * len(splits)
    open_splits = len(splits) if r else 0  # splits with fewer than r marks
    matches: dict[int, list[int]] = {}  # per class, filled at its first open visit
    marked: list[int] = []
    out_edges: list[tuple[int, int]] = []

    with (meter.scope(X.K), meter.scope(len(splits) * _entry_words(X.K)),
          MeteredSet(meter) as seen_cover):
        def pass_fn(index):
            # A class's block past its first r matches only splits that its r
            # earlier twins have filled, so it never marks.  Of those blocks
            # only the last is visited, for its charge: kept state only grows,
            # so the class's largest charge falls there.
            nonlocal open_splits
            visits = [(pos, None) for pos in index.member_positions]
            for m, positions in index.classes.items():
                visits += [(pos, m) for pos in
                           positions[:r] + positions[max(r, len(positions) - 1):]]
            visits.sort()
            order, members, blocks = index.order, index.members, h.blocks
            for pos, m in visits:
                if m is None:
                    # the members seen so far are the first ones in stream order
                    v, _, m = members[len(seen_cover)]
                    out_edges.extend(canonical_edge(v, w)
                                     for w, bit, _ in members[:len(seen_cover)] if m & bit)
                    seen_cover.add(v)
                    continue
                v = order[pos]
                nbrs = blocks[v]
                meter.allocate(len(nbrs))  # the block's buffered edges
                hit = False
                if open_splits:
                    hits = matches.get(m)
                    if hits is None:
                        hits = matches[m] = matching_splits(m, splits)
                    for i in hits:
                        if counts[i] < r:
                            counts[i] += 1
                            hit = True
                            if counts[i] == r:
                                open_splits -= 1
                if hit:
                    marked.append(v)
                    out_edges.extend(canonical_edge(v, w) for w in nbrs)
                meter.release(len(nbrs))

        h.run_class_pass(X.members, pass_fn)

    return KernelOutput(
        kept_vertices=tuple(sorted(set(X.members) | set(marked))),
        edges=tuple(out_edges),
        passes=h.pass_meter.passes - passes_before,
        peak_words=meter.peak_words,
    )


def reduce_in_memory(g: Graph, X: VertexCover, r: int, c: int,
                     candidate_order: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Reference marking rule on an in-memory graph: per partitioned subset,
    mark the first r matching outside vertices in candidate order."""
    if r < 0 or c < 0:
        raise BadParams("r and c must be non-negative")
    require_cover(g, X)
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
                  meter: MemoryMeter | None = None) -> KernelOutput:
    """Deletion kernel: keep ell + p(K) witnesses per pattern, c_pi-wide."""
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
