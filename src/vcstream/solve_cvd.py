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
from .streams import AL, EDGE, VERTEX_BEGIN, VERTEX_END, StreamHandle, induced_edges


def _pair_scan(events, y1: int, y2: int, y_rest: frozenset[int]):
    """One pass: does some v in y_rest form a P3 with the pair, and is the
    pair itself an edge?"""
    pair_edge = False
    both_exists = False
    one_exists = False
    cur = None
    tracked = False
    a1 = a2 = False
    for ev in events:
        kind = ev.kind
        if kind == EDGE:
            u, v = ev.u, ev.v
            if (u == y1 and v == y2) or (u == y2 and v == y1):
                pair_edge = True
            elif tracked:
                other = v if u == cur else u
                if other == y1:
                    a1 = True
                elif other == y2:
                    a2 = True
        elif kind == VERTEX_BEGIN:
            cur = ev.u
            tracked = cur in y_rest
            a1 = a2 = False
        elif kind == VERTEX_END:
            if tracked:
                if a1 and a2:
                    both_exists = True
                elif a1 or a2:
                    one_exists = True
            tracked = False
    p3_in_y = (pair_edge and one_exists) or (not pair_edge and both_exists)
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
            solution = _run_branch(h, meter, cover_set, y_set, s_branch, ell, cache_cover)
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


def _run_branch(h, meter, cover_set, y_set, s_branch, ell, cache_cover):
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
                if pair_results is None:
                    p3_in_y, pair_edge = h.run_pass(
                        lambda evs: _pair_scan(evs, y1, y2, y_set - {y1, y2})
                    )
                    if p3_in_y:
                        return None
                else:
                    pair_edge = (y1, y2) in pair_results

                h.run_pass(
                    lambda evs: _phase1_pass(
                        evs, y1, y2, pair_edge, cover_set, deletions, ell
                    )
                )
                if len(deletions) > ell:
                    return None
                pair_cursor = subset_next(pair_cursor)

        # Phase 2: per y, keep the first outside neighbour, delete the rest.
        for y in y_sorted:
            h.run_pass(lambda evs: _phase2_pass(evs, y, cover_set, deletions, ell))
            if len(deletions) > ell:
                return None

        if len(deletions) <= ell:
            return deletions.snapshot()
        return None
    finally:
        meter.release(cached_words)
        deletions.close()


def _phase1_pass(events, y1, y2, pair_edge, cover_set, deletions, ell):
    cur = None
    tracked = False
    a1 = a2 = False
    for ev in events:
        kind = ev.kind
        if kind == EDGE:
            if tracked:
                other = ev.v if ev.u == cur else ev.u
                if other == y1:
                    a1 = True
                elif other == y2:
                    a2 = True
        elif kind == VERTEX_BEGIN:
            cur = ev.u
            tracked = cur not in cover_set and cur not in deletions
            a1 = a2 = False
        elif kind == VERTEX_END:
            if tracked:
                forced = (a1 != a2) if pair_edge else (a1 and a2)
                if forced and len(deletions) <= ell:
                    deletions.add(cur)
            tracked = False


def _phase2_pass(events, y, cover_set, deletions, ell):
    cur = None
    tracked = False
    hit = False
    kept_one = False
    for ev in events:
        kind = ev.kind
        if kind == EDGE:
            if tracked:
                other = ev.v if ev.u == cur else ev.u
                if other == y:
                    hit = True
        elif kind == VERTEX_BEGIN:
            cur = ev.u
            tracked = cur not in cover_set and cur not in deletions
            hit = False
        elif kind == VERTEX_END:
            if tracked and hit:
                if kept_one:
                    if len(deletions) <= ell:
                        deletions.add(cur)
                else:
                    kept_one = True
            tracked = False


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
