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
from .streams import AL, EDGE, VERTEX_BEGIN, VERTEX_END, StreamHandle, induced_edges


def _colour_pass(events, y_set, y1_set, s_dead, deletions, ell, check_cover):
    """One pass: validate the colouring on Y (optional) and force outside
    deletions; completes the pass regardless of early failure."""
    success = True
    cur = None
    kind_of_cur = 0  # 0 skip, 1 cover-kept, 2 outside
    saw_y1 = saw_y2 = False
    for ev in events:
        kind = ev.kind
        if kind == EDGE:
            if kind_of_cur:
                other = ev.v if ev.u == cur else ev.u
                if other in y_set:
                    if other in y1_set:
                        saw_y1 = True
                    else:
                        saw_y2 = True
        elif kind == VERTEX_BEGIN:
            cur = ev.u
            if cur in s_dead or cur in deletions:
                kind_of_cur = 0
            elif cur in y_set:
                kind_of_cur = 1 if check_cover else 0
            else:
                kind_of_cur = 2
            saw_y1 = saw_y2 = False
        elif kind == VERTEX_END:
            if kind_of_cur == 1:
                same = saw_y1 if cur in y1_set else saw_y2
                if same:
                    success = False
            elif kind_of_cur == 2:
                if saw_y1 and saw_y2:
                    if len(deletions) < ell:
                        deletions.add(cur)
                    else:
                        success = False
            kind_of_cur = 0
    return success


def solve_oct(h: StreamHandle, X: VertexCover, ell: int,
              meter: MemoryMeter | None = None) -> SolveOutcome:
    if h.model != AL:
        raise NotALModel("solve_oct requires an AL stream")
    require_cover(h.source, X)
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes
    cover_set = X.member_set()
    K = X.K

    with meter.scope(K), meter.scope(K), meter.scope(K), meter.scope(K):
        s_cursor = subset_first(X.members, min(ell, K), AT_MOST)
        while not s_cursor.at_end:
            s_branch = frozenset(s_cursor.current)
            y_set = cover_set - s_branch
            y_sorted = tuple(sorted(y_set))
            colour_cursor = subset_first(y_sorted, len(y_sorted), AT_MOST)
            while not colour_cursor.at_end:
                y1_set = frozenset(colour_cursor.current)
                deletions = MeteredSet(meter, s_branch)
                try:
                    ok = h.run_pass(
                        lambda evs: _colour_pass(
                            evs, y_set, y1_set, s_branch, deletions, ell, True
                        )
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


def _propagated_components(h, meter, y_set):
    """Low-memory variant: one union pass, then colour-propagation passes."""
    parent = {v: v for v in y_set}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union_pass(events):
        cur = None
        tracked = False
        for ev in events:
            kind = ev.kind
            if kind == EDGE:
                if tracked:
                    other = ev.v if ev.u == cur else ev.u
                    if other in y_set:
                        ra, rb = find(cur), find(other)
                        if ra != rb:
                            parent[max(ra, rb)] = min(ra, rb)
            elif kind == VERTEX_BEGIN:
                cur = ev.u
                tracked = cur in y_set
            elif kind == VERTEX_END:
                tracked = False

    with meter.scope(len(y_set)):
        h.run_pass(union_pass)
        comp = {v: find(v) for v in y_set}
        roots = sorted(set(comp.values()))

        colour = {root: 0 for root in roots}
        conflict = [False]

        def propagate(events):
            progress = [False]
            cur = None
            tracked = False

            def relate(a, b):
                ca, cb = colour.get(a), colour.get(b)
                if ca is None and cb is not None:
                    colour[a] = 1 - cb
                    progress[0] = True
                elif cb is None and ca is not None:
                    colour[b] = 1 - ca
                    progress[0] = True
                elif ca is not None and ca == cb:
                    conflict[0] = True

            for ev in events:
                kind = ev.kind
                if kind == EDGE:
                    if tracked:
                        other = ev.v if ev.u == cur else ev.u
                        if other in y_set:
                            relate(cur, other)
                elif kind == VERTEX_BEGIN:
                    cur = ev.u
                    tracked = cur in y_set
                elif kind == VERTEX_END:
                    tracked = False
            return progress[0]

        with meter.scope(len(y_set)):
            rounds = 0
            while len(colour) < len(y_set) and rounds <= len(y_set) + 1:
                if not h.run_pass(propagate):
                    break
                rounds += 1
            # one verification pass with the final colouring
            h.run_pass(propagate)
            if conflict[0]:
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
    K = X.K

    with meter.scope(K), meter.scope(K), meter.scope(K):
        s_cursor = subset_first(X.members, min(ell, K), AT_MOST)
        while not s_cursor.at_end:
            s_branch = frozenset(s_cursor.current)
            y_set = cover_set - s_branch
            found = (
                _propagated_components(h, meter, y_set)
                if low_mem
                else _cached_components(h, meter, y_set)
            )
            if found is not None:
                roots, colour, comp = found
                with meter.scope(2 * len(y_set) + len(roots)):
                    flip_cursor = subset_first(tuple(roots), len(roots), AT_MOST)
                    while not flip_cursor.at_end:
                        flips = frozenset(flip_cursor.current)
                        y1_set = frozenset(
                            v for v in y_set
                            if colour[v] ^ (1 if comp[v] in flips else 0) == 0
                        )
                        deletions = MeteredSet(meter, s_branch)
                        try:
                            ok = h.run_pass(
                                lambda evs: _colour_pass(
                                    evs, y_set, y1_set, s_branch, deletions, ell, False
                                )
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
