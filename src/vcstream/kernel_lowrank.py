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

from .errors import BadParams, DimensionMismatch, NeighborOutsideCover, NotALModel
from .graph import Graph, VertexCover, canonical_edge, require_cover
from .meters import MemoryMeter, words_for_bits
from .results import KernelOutput
from .streams import AL, StreamHandle, cover_bits


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


@dataclass(frozen=True)
class SplitTable:
    """The split table both streaming kernels match cover masks against.  A
    vertex sees none of Q and all of R exactly when mask & (Q | R) == R, so it
    matches one split of each cover subset S = Q | R, and one lookup of
    mask & S per S finds every match.  Per S, in table order: S as a mask
    over `X`'s `cover_bits`, then each split's index and its bit, by R.
    `len` is `size`, the number of splits."""

    subsets: tuple[tuple[int, dict[int, int], dict[int, int]], ...]
    size: int

    def __len__(self) -> int:
        return self.size


def pair_masks(X: VertexCover, index) -> SplitTable:
    """The table of `index`, whose splits of one subset are adjacent."""
    bit_of = cover_bits(X.members)
    by_subset: dict[int, dict[int, int]] = {}
    for i, (q, r) in enumerate(index):
        r_mask = sum(bit_of[v] for v in r)
        by_subset.setdefault(r_mask + sum(bit_of[v] for v in q), {})[r_mask] = i
    return SplitTable(tuple((s, sub, {r: 1 << i for r, i in sub.items()})
                            for s, sub in by_subset.items()), len(index))


def matching_splits(mask: int, splits: SplitTable) -> list[int]:
    """The indices, ascending, of the splits that a vertex whose cover
    neighbours are `mask` matches: it sees none of Q and all of R."""
    return [sub[mask & s] for s, sub, _ in splits.subsets]


def mask_vector(mask: int, splits: SplitTable) -> IncidenceVector:
    """`incidence_vector` of a vertex whose cover neighbours are `mask`."""
    return IncidenceVector(sum([bits[mask & s] for s, _, bits in splits.subsets]), len(splits))


@dataclass
class F2Basis:
    """Echelon GF(2) basis with a pivot map and one chosen vertex per row."""

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
    """Insert `vec`, chosen by `v`, if it is independent of `b`; returns `b`
    and the independence flag.  Mutates `b` in place: the residual's top bit
    is no row's pivot, so appending it as a row keeps the pivots distinct."""
    if vec.length != b.dim:
        raise DimensionMismatch(f"vector length {vec.length} != basis dim {b.dim}")
    residual = b.reduce(vec.bits)
    if residual == 0:
        return b, False
    b.pivots[residual.bit_length() - 1] = len(b.rows)
    b.rows.append(residual)
    b.chosen.append(v)
    return b, True


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
    h.require_cover(X.members)
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes

    cover_set = X.member_set()
    splits = pair_masks(X, incidence_pair_index(X, c))
    dim = len(splits)
    vec_words = max(1, words_for_bits(dim))
    index = h.class_index(X.members)
    order = index.order
    # per class: its incidence vector, and how many of its blocks the rounds
    # have kept.  Only a round's first unskipped twin can be independent, so
    # the kept blocks of a class are always its first ones.
    vectors = {m: mask_vector(m, splits) for m in index.classes}
    taken = dict.fromkeys(index.classes, 0)
    kept_positions: list[int] = []

    with meter.scope(X.K):
        charged_a = charged_basis = 0

        def scan(index):
            # A class's first unskipped block is inserted; its later twins are
            # dependent, as the round's span holds their vector.  Of those only
            # the last is visited, for its charge: live words only grow within
            # a round.
            nonlocal charged_a, charged_basis
            visits = []
            for m, positions in index.classes.items():
                first, last = taken[m], len(positions) - 1
                if first <= last:  # the class has an unskipped block
                    visits += [(positions[j], m, j == first) for j in {first, last}]
            visits.sort()
            for pos, m, head in visits:
                v = order[pos]
                nbrs = h.blocks[v]
                meter.allocate(len(nbrs))  # the block's buffered neighbours
                try:
                    meter.allocate(vec_words)
                    try:
                        independent = head and basis_insert(basis, vectors[m], v)[1]
                    finally:
                        meter.release(vec_words)
                    if independent:
                        grown = _basis_words(basis)
                        meter.allocate(grown - charged_basis)
                        charged_basis = grown
                        kept_positions.append(pos)
                        taken[m] += 1
                        meter.allocate(1)
                        charged_a += 1
                finally:
                    meter.release(len(nbrs))

        try:
            for _ in range(ell):
                basis = F2Basis(dim)
                h.run_class_pass(X.members, scan)
                meter.release(charged_basis)
                charged_basis = 0

            # the output pass: each kept edge at its first kept block
            kept = cover_set | {order[pos] for pos in kept_positions}
            kept_order = map(order.__getitem__,
                             sorted(index.member_positions + tuple(kept_positions)))
            out_edges = h.run_pass(lambda: tuple(dict.fromkeys(
                canonical_edge(v, w) for v in kept_order for w in h.blocks[v] if w in kept)))
        finally:
            meter.release(charged_a + charged_basis)

    return KernelOutput(
        kept_vertices=tuple(sorted(kept)),
        edges=out_edges,
        passes=h.pass_meter.passes - passes_before,
        peak_words=meter.peak_words,
    )


def low_rank_reduce_in_memory(g: Graph, X: VertexCover, ell: int, c: int,
                              candidate_order: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Reference rounds on an in-memory graph, greedy in candidate order."""
    if ell < 1:
        raise BadParams("ell must be at least 1")
    require_cover(g, X)
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
