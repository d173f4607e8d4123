"""Streaming Odd Cycle Transversal: guess the deleted cover part and a
2-colouring of the rest; one pass per guess validates the colouring inside
the cover and force-deletes outside vertices seeing both colours.

The component variant spends one pass caching the cover-internal edges, then
only enumerates colourings that are proper per connected component.  With
--low-mem it instead finds components and colours by propagation passes,
staying at O(K) words.
"""

from __future__ import annotations

from .enumeration import AT_MOST, subsets
from .graph import VertexCover
from .meters import MemoryMeter, MeteredSet
from .results import SolveOutcome, branch_on_cover
from .streams import StreamHandle, cover_bits, cover_edges


def _colour_pass(index, y_mask, y1_mask, deletions, ell, check_cover):
    """One pass: validate the colouring y1_mask / y_mask - y1_mask on Y
    (optional) and force-delete, in stream order, the outside vertices of
    every class that sees both colours.  The pass is charged in full even
    when it fails early."""
    y2_mask = y_mask & ~y1_mask
    success = True
    if check_cover:
        for _, bit, m in index.members:
            if bit & y_mask and m & (y1_mask if bit & y1_mask else y2_mask):
                success = False
    for pos in index.first(lambda m: m & y1_mask and m & y2_mask, ell + 1):
        if len(deletions) >= ell:
            return False
        deletions.add(index.order[pos])
    return success


def _first_colouring(h, members, s_branch, y_mask, y1_masks, ell, check_cover, meter):
    """One colour pass per candidate Y1 in `y1_masks`; the deletions of the
    first that succeeds, or None."""
    for y1_mask in y1_masks:
        with MeteredSet(meter, s_branch) as deletions:
            ok = h.run_class_pass(
                members,
                lambda index: _colour_pass(index, y_mask, y1_mask, deletions, ell, check_cover),
            )
            if ok and len(deletions) <= ell:
                return deletions.snapshot()
    return None


def solve_oct(h: StreamHandle, X: VertexCover, ell: int,
              meter: MemoryMeter | None = None) -> SolveOutcome:
    bits = cover_bits(X.members)

    def branch(s_branch, y_set, meter):
        y_sorted = tuple(sorted(y_set))
        y_mask = sum(bits[v] for v in y_sorted)
        y1_masks = (sum(bits[v] for v in y1)
                    for y1 in subsets(y_sorted, len(y_sorted), AT_MOST))
        return _first_colouring(h, X.members, s_branch, y_mask, y1_masks, ell, True, meter)

    return branch_on_cover(h, X, ell, 4 * X.K, branch, meter)


def _cached_components(h, meter, X, y_set):
    """One pass caching G[Y]'s edges, then in-memory components and a base
    2-colouring; returns None when G[Y] is odd (branch rejected)."""
    edges = cover_edges(h, X, y_set, meter)
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

    def y_nbrs(index):
        """Each Y member v with each of its Y neighbours w, both in stream
        order, read off the member masks."""
        ys = [(v, bit, m) for v, bit, m in index.members if bit & y_mask]
        return ((v, w) for v, _, m in ys for w, bit, _ in ys if bit & m)

    def union_pass(index):
        for v, w in y_nbrs(index):
            ra, rb = find(v), find(w)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    with meter.scope(len(y_set)):
        h.run_class_pass(members, union_pass)
        comp = {v: find(v) for v in y_set}
        roots = sorted(set(comp.values()))

        colour = {root: 0 for root in roots}
        conflict = False

        def propagate(index):
            nonlocal conflict
            progress = False
            for v, w in y_nbrs(index):
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
                if not h.run_class_pass(members, propagate):
                    break
                rounds += 1
            # one verification pass with the final colouring
            h.run_class_pass(members, propagate)
            if conflict:
                return None
            return roots, dict(colour), comp


def solve_oct_cc(h: StreamHandle, X: VertexCover, ell: int,
                 meter: MemoryMeter | None = None,
                 low_mem: bool = False) -> SolveOutcome:
    bits = cover_bits(X.members)

    def branch(s_branch, y_set, meter):
        y_mask = sum(bits[v] for v in y_set)
        found = (
            _propagated_components(h, meter, X.members, y_set, y_mask)
            if low_mem
            else _cached_components(h, meter, X, y_set)
        )
        if found is None:
            return None
        roots, colour, comp = found
        y1_masks = (
            sum(bits[v] for v in y_set if colour[v] ^ (1 if comp[v] in flips else 0) == 0)
            for flips in map(frozenset, subsets(roots, len(roots), AT_MOST))
        )
        with meter.scope(2 * len(y_set) + len(roots)):
            return _first_colouring(h, X.members, s_branch, y_mask, y1_masks, ell, False, meter)

    return branch_on_cover(h, X, ell, 3 * X.K, branch, meter)
