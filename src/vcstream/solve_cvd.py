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

from .enumeration import AT_MOST, EXACTLY, subset_first, subset_next
from .errors import NotALModel
from .graph import VertexCover, require_cover
from .meters import MemoryMeter, MeteredSet
from .results import SolveOutcome
from .streams import AL, StreamHandle, cover_bits, induced_edges


def _pair_scan(view, b1: int, b2: int, rest: int):
    """One pass: does some cover vertex in `rest` form a P3 with the pair
    (bits b1, b2), and is the pair itself an edge?"""
    pair_edge = both_exists = one_exists = False
    for _, bit, m, _ in view:
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
    if h.model != AL:
        raise NotALModel("solve_cvd requires an AL stream")
    require_cover(h.source, X)
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes

    cover_set = X.member_set()
    K = X.K

    with meter.scope(K), meter.scope(K), meter.scope(K):  # X, S cursor, Y
        cursor = subset_first(X.members, min(ell, K), AT_MOST)
        while not cursor.at_end:
            s_branch = frozenset(cursor.current)
            y_set = cover_set - s_branch
            solution = _run_branch(h, meter, X.members, y_set, s_branch, ell, cache_cover)
            if solution is not None:
                return SolveOutcome(
                    feasible=True,
                    solution=tuple(sorted(solution)),
                    passes=h.pass_meter.passes - passes_before,
                    peak_words=meter.peak_words,
                )
            cursor = subset_next(cursor)

    return SolveOutcome(
        feasible=False,
        solution=(),
        passes=h.pass_meter.passes - passes_before,
        peak_words=meter.peak_words,
    )


def _run_branch(h, meter, members, y_set, s_branch, ell, cache_cover):
    bits = cover_bits(members)
    y_mask = sum(bits[y] for y in y_set)
    deletions = MeteredSet(meter, s_branch)
    cached_words = 0
    try:
        if cache_cover:
            edge_bits = induced_edges(h, y_set)
            cached_words = len(edge_bits)
            meter.allocate(cached_words)
            if _p3_within(y_set, edge_bits):
                return None
            pair_results = edge_bits
        else:
            pair_results = None

        y_sorted = tuple(sorted(y_set))

        # Phases 0 and 1, per unordered pair of Y.
        pair_cursor = subset_first(y_sorted, 2, EXACTLY)
        with meter.scope(2):
            while not pair_cursor.at_end:
                y1, y2 = pair_cursor.current
                b1, b2 = bits[y1], bits[y2]
                if pair_results is None:
                    p3_in_y, pair_edge = h.run_cover_pass(
                        members, lambda view: _pair_scan(view, b1, b2, y_mask & ~(b1 | b2))
                    )
                    if p3_in_y:
                        return None
                else:
                    pair_edge = (y1, y2) in pair_results

                h.run_cover_pass(
                    members,
                    lambda view: _phase1_pass(view, b1, b2, pair_edge, deletions, ell),
                )
                if len(deletions) > ell:
                    return None
                pair_cursor = subset_next(pair_cursor)

        # Phase 2: per y, keep the first outside neighbour, delete the rest.
        for y in y_sorted:
            h.run_cover_pass(
                members, lambda view: _phase2_pass(view, bits[y], deletions, ell)
            )
            if len(deletions) > ell:
                return None

        if len(deletions) <= ell:
            return deletions.snapshot()
        return None
    finally:
        meter.release(cached_words)
        deletions.close()


def _phase1_pass(view, b1, b2, pair_edge, deletions, ell):
    pair = b1 | b2
    for v, bit, m, _ in view:
        if not bit and v not in deletions:
            seen = m & pair
            forced = seen in (b1, b2) if pair_edge else seen == pair
            if forced and len(deletions) <= ell:
                deletions.add(v)


def _phase2_pass(view, by, deletions, ell):
    kept_one = False
    for v, bit, m, _ in view:
        if not bit and m & by and v not in deletions:
            if kept_one:
                if len(deletions) <= ell:
                    deletions.add(v)
            else:
                kept_one = True


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
