"""Streaming Odd Cycle Transversal: guess the deleted cover part and a
2-colouring of the rest; one pass per guess validates the colouring inside
the cover and force-deletes outside vertices seeing both colours.

The component variant spends one pass caching the cover-internal edges, then
only enumerates colourings that are proper per connected component.  With
--low-mem it instead finds components and colours by propagation passes,
staying at O(K) words.
"""

from __future__ import annotations

from .enumeration import AT_MOST, subset_first, subset_next
from .errors import NotALModel
from .graph import VertexCover, require_cover
from .meters import MemoryMeter, MeteredSet
from .results import SolveOutcome
from .streams import AL, StreamHandle, cover_bits, induced_edges


def _colour_pass(view, y_mask, y1_mask, deletions, ell, check_cover):
    """One pass: validate the colouring y1_mask / y_mask - y1_mask on Y
    (optional) and force outside deletions; completes the pass regardless of
    early failure."""
    y2_mask = y_mask & ~y1_mask
    success = True
    for v, bit, m, _ in view:
        if not bit:
            if m & y1_mask and m & y2_mask:
                if len(deletions) < ell:
                    deletions.add(v)
                else:
                    success = False
        elif check_cover and bit & y_mask:
            if m & (y1_mask if bit & y1_mask else y2_mask):
                success = False
    return success


def solve_oct(h: StreamHandle, X: VertexCover, ell: int,
              meter: MemoryMeter | None = None) -> SolveOutcome:
    if h.model != AL:
        raise NotALModel("solve_oct requires an AL stream")
    require_cover(h.source, X)
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes
    cover_set = X.member_set()
    bits = cover_bits(X.members)
    K = X.K

    with meter.scope(K), meter.scope(K), meter.scope(K), meter.scope(K):
        s_cursor = subset_first(X.members, min(ell, K), AT_MOST)
        while not s_cursor.at_end:
            s_branch = frozenset(s_cursor.current)
            y_sorted = tuple(sorted(cover_set - s_branch))
            y_mask = sum(bits[v] for v in y_sorted)
            colour_cursor = subset_first(y_sorted, len(y_sorted), AT_MOST)
            while not colour_cursor.at_end:
                y1_mask = sum(bits[v] for v in colour_cursor.current)
                deletions = MeteredSet(meter, s_branch)
                try:
                    ok = h.run_cover_pass(
                        X.members,
                        lambda view: _colour_pass(view, y_mask, y1_mask, deletions, ell, True),
                    )
                    if ok and len(deletions) <= ell:
                        return SolveOutcome(
                            True,
                            tuple(sorted(deletions)),
                            h.pass_meter.passes - passes_before,
                            meter.peak_words,
                        )
                finally:
                    deletions.close()
                colour_cursor = subset_next(colour_cursor)
            s_cursor = subset_next(s_cursor)

    return SolveOutcome(
        False, (), h.pass_meter.passes - passes_before, meter.peak_words
    )


def _cached_components(h, meter, y_set):
    """One pass caching G[Y]'s edges, then in-memory components and a base
    2-colouring; returns None when G[Y] is odd (branch rejected)."""
    edges = induced_edges(h, y_set)
    meter.allocate(len(edges))
    try:
        adj = {v: set() for v in y_set}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        colour: dict[int, int] = {}
        comp: dict[int, int] = {}
        roots: list[int] = []
        for root in sorted(y_set):
            if root in colour:
                continue
            roots.append(root)
            colour[root] = 0
            comp[root] = root
            stack = [root]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in colour:
                        colour[w] = 1 - colour[v]
                        comp[w] = root
                        stack.append(w)
                    elif colour[w] == colour[v]:
                        return None
        return roots, colour, comp
    finally:
        meter.release(len(edges))


def _propagated_components(h, meter, members, y_set, y_mask):
    """Low-memory variant: one union pass, then colour-propagation passes."""
    parent = {v: v for v in y_set}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union_pass(view):
        for v, bit, _, nbrs in view:
            if bit & y_mask:
                for w in nbrs:
                    if w in y_set:
                        ra, rb = find(v), find(w)
                        if ra != rb:
                            parent[max(ra, rb)] = min(ra, rb)

    with meter.scope(len(y_set)):
        h.run_cover_pass(members, union_pass)
        comp = {v: find(v) for v in y_set}
        roots = sorted(set(comp.values()))

        colour = {root: 0 for root in roots}
        conflict = False

        def propagate(view):
            nonlocal conflict
            progress = False
            for v, bit, _, nbrs in view:
                if bit & y_mask:
                    for w in nbrs:
                        if w in y_set:
                            cv, cw = colour.get(v), colour.get(w)
                            if cv is None and cw is not None:
                                colour[v] = 1 - cw
                                progress = True
                            elif cw is None and cv is not None:
                                colour[w] = 1 - cv
                                progress = True
                            elif cv is not None and cv == cw:
                                conflict = True
            return progress

        with meter.scope(len(y_set)):
            rounds = 0
            while len(colour) < len(y_set) and rounds <= len(y_set) + 1:
                if not h.run_cover_pass(members, propagate):
                    break
                rounds += 1
            # one verification pass with the final colouring
            h.run_cover_pass(members, propagate)
            if conflict:
                return None
            return roots, dict(colour), comp


def solve_oct_cc(h: StreamHandle, X: VertexCover, ell: int,
                 meter: MemoryMeter | None = None,
                 low_mem: bool = False) -> SolveOutcome:
    if h.model != AL:
        raise NotALModel("solve_oct_cc requires an AL stream")
    require_cover(h.source, X)
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes
    cover_set = X.member_set()
    bits = cover_bits(X.members)
    K = X.K

    with meter.scope(K), meter.scope(K), meter.scope(K):
        s_cursor = subset_first(X.members, min(ell, K), AT_MOST)
        while not s_cursor.at_end:
            s_branch = frozenset(s_cursor.current)
            y_set = cover_set - s_branch
            y_mask = sum(bits[v] for v in y_set)
            found = (
                _propagated_components(h, meter, X.members, y_set, y_mask)
                if low_mem
                else _cached_components(h, meter, y_set)
            )
            if found is not None:
                roots, colour, comp = found
                with meter.scope(2 * len(y_set) + len(roots)):
                    flip_cursor = subset_first(tuple(roots), len(roots), AT_MOST)
                    while not flip_cursor.at_end:
                        flips = frozenset(flip_cursor.current)
                        y1_mask = sum(
                            bits[v] for v in y_set
                            if colour[v] ^ (1 if comp[v] in flips else 0) == 0
                        )
                        deletions = MeteredSet(meter, s_branch)
                        try:
                            ok = h.run_cover_pass(
                                X.members,
                                lambda view: _colour_pass(
                                    view, y_mask, y1_mask, deletions, ell, False
                                ),
                            )
                            if ok and len(deletions) <= ell:
                                return SolveOutcome(
                                    True,
                                    tuple(sorted(deletions)),
                                    h.pass_meter.passes - passes_before,
                                    meter.peak_words,
                                )
                        finally:
                            deletions.close()
                        flip_cursor = subset_next(flip_cursor)
            s_cursor = subset_next(s_cursor)

    return SolveOutcome(
        False, (), h.pass_meter.passes - passes_before, meter.peak_words
    )
