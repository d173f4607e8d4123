"""Incidence vectors over GF(2), incremental basis maintenance, and the
(ell+1)-pass low-rank streaming kernel.

Each outside vertex is summarized by a bit per disjoint pair (Q, R) of small
cover subsets: the bit is set when the vertex avoids all of Q and dominates
all of R.  Per round, vertices whose vectors are independent of the round's
basis survive into the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import (
    BadParams,
    DimensionMismatch,
    InvalidCover,
    NeighborOutsideCover,
    NotALModel,
)
from .graph import Graph, VertexCover
from .meters import MemoryMeter, words_for_bits
from .results import KernelOutput
from .streams import AL, EDGE, StreamHandle, cover_bits, filtered_substream


def incidence_pair_index(X: VertexCover, c: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Canonical coordinate order: by |Q|+|R|, then the combined subset, then
    growing R within it."""
    if c < 0:
        raise BadParams("c must be non-negative")
    members = X.members
    pairs = []
    for size in range(min(c, len(members)) + 1):
        for subset in combinations(members, size):
            for r_size in range(size + 1):
                for r_part in combinations(subset, r_size):
                    q_part = tuple(v for v in subset if v not in r_part)
                    pairs.append((q_part, r_part))
    return tuple(pairs)


class IncidenceVector(NamedTuple):
    bits: int
    length: int


def incidence_vector(neighbors_in_X: Iterable[int], X: VertexCover, c: int,
                     index: tuple | None = None) -> IncidenceVector:
    nbrs = frozenset(neighbors_in_X)
    if not nbrs <= X.member_set():
        raise NeighborOutsideCover(f"{sorted(nbrs - X.member_set())} not in cover")
    pairs = index if index is not None else incidence_pair_index(X, c)
    bits = 0
    for i, (q_part, r_part) in enumerate(pairs):
        if nbrs.isdisjoint(q_part) and nbrs.issuperset(r_part):
            bits |= 1 << i
    return IncidenceVector(bits, len(pairs))


def _mask_vector(mask: int, pair_masks) -> IncidenceVector:
    """`incidence_vector` of a vertex whose cover neighbours are `mask`, with
    each (Q, R) pair given as two masks over the same cover bits."""
    bits = 0
    for i, (q_mask, r_mask) in enumerate(pair_masks):
        if not mask & q_mask and mask & r_mask == r_mask:
            bits |= 1 << i
    return IncidenceVector(bits, len(pair_masks))


@dataclass
class F2Basis:
    """Reduced GF(2) basis with a pivot map and one chosen vertex per row."""

    dim: int
    rows: list[int] = field(default_factory=list)
    pivots: dict[int, int] = field(default_factory=dict)  # pivot bit -> row index
    chosen: list[int] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, bits: int) -> int:
        while bits:
            top = bits.bit_length() - 1
            row = self.pivots.get(top)
            if row is None:
                return bits
            bits ^= self.rows[row]
        return 0


def basis_insert(b: F2Basis, vec: IncidenceVector, v: int) -> tuple[F2Basis, bool]:
    """Insert if independent; returns the updated basis and the independence flag."""
    if vec.length != b.dim:
        raise DimensionMismatch(f"vector length {vec.length} != basis dim {b.dim}")
    residual = b.reduce(vec.bits)
    if residual == 0:
        return b, False
    top = residual.bit_length() - 1
    rows = [r ^ residual if r >> top & 1 else r for r in b.rows]
    rows.append(residual)
    pivots = {}
    for idx, row in enumerate(rows):
        pivots[row.bit_length() - 1] = idx
    return F2Basis(b.dim, rows, pivots, b.chosen + [v]), True


def _basis_words(b: F2Basis) -> int:
    # row bits plus one word per chosen vertex and pivot entry
    return b.rank * (max(1, words_for_bits(b.dim)) + 2)


def low_rank_reduce_str(h: StreamHandle, X: VertexCover, ell: int, c: int,
                        meter: MemoryMeter | None = None) -> KernelOutput:
    """ell scanning passes (fresh basis each), one output pass; keeps the
    cover plus every round's chosen vertices."""
    if h.model != AL:
        raise NotALModel("low_rank_reduce_str requires an AL stream")
    if ell < 1:
        raise BadParams("ell must be at least 1")
    if not h.source.is_cover(X.members):
        raise InvalidCover("X does not cover the streamed graph")
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes

    cover_set = X.member_set()
    index = incidence_pair_index(X, c)
    dim = len(index)
    vec_words = max(1, words_for_bits(dim))
    bit_of = cover_bits(X.members)
    pair_masks = [(sum(bit_of[v] for v in q), sum(bit_of[v] for v in r)) for q, r in index]
    kept_outside: list[int] = []

    with meter.scope(X.K):
        charged_a = 0
        charged_basis = 0
        try:
            for _ in range(ell):
                basis_box = [F2Basis(dim)]
                skip = cover_set | set(kept_outside)

                def scan(view, basis_box=basis_box, skip=skip):
                    nonlocal charged_a, charged_basis
                    for v, _, m, nbrs in view:
                        if v in skip:
                            continue
                        meter.allocate(len(nbrs))  # the block's buffered neighbours
                        with meter.scope(vec_words):
                            vec = _mask_vector(m, pair_masks)
                            new_basis, independent = basis_insert(basis_box[0], vec, v)
                        if independent:
                            meter.release(charged_basis)
                            basis_box[0] = new_basis
                            charged_basis = _basis_words(new_basis)
                            meter.allocate(charged_basis)
                            kept_outside.append(v)
                            meter.allocate(1)
                            charged_a += 1
                        meter.release(len(nbrs))

                h.run_cover_pass(X.members, scan)
                meter.release(charged_basis)
                charged_basis = 0

            kept = cover_set | set(kept_outside)
            out_events = filtered_substream(h, kept.__contains__).run_pass(list)
            out_edges = list(
                dict.fromkeys((ev.u, ev.v) for ev in out_events if ev.kind == EDGE)
            )
        finally:
            meter.release(charged_a + charged_basis)

    return KernelOutput(
        kept_vertices=tuple(sorted(kept)),
        edges=tuple(out_edges),
        events=tuple(out_events),
        passes=h.pass_meter.passes - passes_before,
        peak_words=meter.peak_words,
    )


def low_rank_reduce_in_memory(g: Graph, X: VertexCover, ell: int, c: int,
                              candidate_order: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Reference rounds on an in-memory graph, greedy in candidate order."""
    if ell < 1:
        raise BadParams("ell must be at least 1")
    if not g.is_cover(X.members):
        raise InvalidCover("X does not cover g")
    cover_set = X.member_set()
    order = candidate_order if candidate_order is not None else tuple(range(g.n))
    index = incidence_pair_index(X, c)
    dim = len(index)
    kept: set[int] = set()
    for _ in range(ell):
        basis = F2Basis(dim)
        for v in order:
            if v in cover_set or v in kept:
                continue
            vec = incidence_vector(g.neighbors(v) & cover_set, X, c, index)
            basis, independent = basis_insert(basis, vec, v)
            if independent:
                kept.add(v)
    return tuple(sorted(cover_set | kept))


def kernel_by_rank(h: StreamHandle, X: VertexCover, k: int, p_of_K: int, c: int,
                   meter: MemoryMeter | None = None) -> KernelOutput:
    """Deletion kernel under a rank-c closure hypothesis on the family.

    The hypothesis quantifies over all graphs, so it is not checkable from a
    finite input; callers supply it and the run reports echo that."""
    if k < 0 or p_of_K < 1:
        raise BadParams("need k >= 0 and p_of_K >= 1")
    return low_rank_reduce_str(h, X, k + 1 + p_of_K, c, meter)
