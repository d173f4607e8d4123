"""Streaming Cluster Vertex Deletion: branch on the cover part of the
solution, then per branch eliminate induced P3s by a three-phase case split.

Phase 0 rejects branches whose kept cover part Y already contains a P3.
Phase 1 deletes the forced outside vertex of any P3 with two vertices in Y.
Phase 2, per y in Y, keeps y's first outside neighbour in stream order and
deletes the rest (any two outside neighbours of y would form a P3).

Phases 0 and 1 are interleaved per cover pair: the pair's Phase-0 pass also
records whether the pair is an edge, which is the single bit Phase 1 needs.
"""

from __future__ import annotations

from .enumeration import EXACTLY, subsets
from .graph import VertexCover
from .meters import MemoryMeter, MeteredSet
from .results import SolveOutcome, branch_on_cover
from .streams import StreamHandle, cover_bits, cover_edges


def _pair_scan(index, b1: int, b2: int, rest: int):
    """One pass: does some cover vertex in `rest` form a P3 with the pair
    (bits b1, b2), and is the pair itself an edge?  Reads member blocks only."""
    pair_edge = both_exists = one_exists = False
    for _, bit, m in index.members:
        if bit == b1:
            pair_edge = bool(m & b2)
        elif bit & rest:
            if m & b1 and m & b2:
                both_exists = True
            elif m & b1 or m & b2:
                one_exists = True
    p3_in_y = one_exists if pair_edge else both_exists
    return p3_in_y, pair_edge


def solve_cvd(h: StreamHandle, X: VertexCover, ell: int,
              meter: MemoryMeter | None = None,
              cache_cover: bool = False) -> SolveOutcome:
    def branch(s_branch, y_set, meter):
        return _run_branch(h, meter, X, y_set, s_branch, ell, cache_cover)

    # X, the current S, Y
    return branch_on_cover(h, X, ell, "solve_cvd", 3 * X.K, branch, meter)


def _run_branch(h, meter, X, y_set, s_branch, ell, cache_cover):
    members = X.members
    bits = cover_bits(members)
    y_mask = sum(bits[y] for y in y_set)
    deletions = MeteredSet(meter, s_branch)
    cached_words = 0
    try:
        if cache_cover:
            edge_bits = cover_edges(h, X, y_set, meter)
            cached_words = len(edge_bits)
            if _p3_within(y_set, edge_bits):
                return None
            pair_results = edge_bits
        else:
            pair_results = None

        y_sorted = tuple(sorted(y_set))

        # Phases 0 and 1, per unordered pair of Y.
        with meter.scope(2):
            for y1, y2 in subsets(y_sorted, 2, EXACTLY):
                b1, b2 = bits[y1], bits[y2]
                if pair_results is None:
                    p3_in_y, pair_edge = h.run_class_pass(
                        members, lambda index: _pair_scan(index, b1, b2, y_mask & ~(b1 | b2))
                    )
                    if p3_in_y:
                        return None
                else:
                    pair_edge = (y1, y2) in pair_results

                h.run_class_pass(
                    members,
                    lambda index: _phase1_pass(index, b1, b2, pair_edge, deletions, ell),
                )
                if len(deletions) > ell:
                    return None

        # Phase 2: per y, keep the first outside neighbour, delete the rest.
        for y in y_sorted:
            h.run_class_pass(
                members, lambda index: _phase2_pass(index, bits[y], deletions, ell)
            )
            if len(deletions) > ell:
                return None

        if len(deletions) <= ell:
            return deletions.snapshot()
        return None
    finally:
        meter.release(cached_words)
        deletions.close()


def _phase1_pass(index, b1, b2, pair_edge, deletions, ell):
    """Delete, in stream order, the outside vertices that a P3 with the pair
    (bits b1, b2) forces out, until more than ell are deleted."""
    pair = b1 | b2
    seen = (b1, b2) if pair_edge else (pair,)  # what a forced vertex sees of the pair
    keys = [m for m in index.classes if (m & pair) in seen]
    order = index.order
    for pos in index.first(keys, ell + 1 - len(deletions), deletions):
        deletions.add(order[pos])


def _phase2_pass(index, by, deletions, ell):
    """Keep y's first outside neighbour in stream order and delete the rest,
    until more than ell are deleted."""
    keys = [m for m in index.classes if m & by]
    order = index.order
    for pos in index.first(keys, ell + 2 - len(deletions), deletions)[1:]:
        deletions.add(order[pos])


def _p3_within(y_set, edge_bits):
    y_list = sorted(y_set)
    for i, a in enumerate(y_list):
        for b in y_list[i + 1:]:
            for v in y_list:
                if v in (a, b):
                    continue
                ab = (a, b) in edge_bits
                av = (min(a, v), max(a, v)) in edge_bits
                bv = (min(b, v), max(b, v)) in edge_bits
                if ab + av + bv == 2:
                    return True
    return False
