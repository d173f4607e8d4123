"""Find-and-branch deletion solver for an explicit forbidden family, on a
stream or in memory; a single pattern is the family of one.

A branch fixes the deleted part of the cover; occurrences of the pattern are
then searched with an escalating number i of vertices outside the cover.
The i outside vertices of an occurrence must be pairwise non-adjacent in the
pattern (outside-cover vertices are independent), the rest must embed into
the kept cover part Y as an induced subgraph, and outside candidates are
matched by their exact adjacency profile toward the placed part.  Branch
sets are recomputed when returning out of recursion instead of stored, which
keeps each recursion frame at O(1) words.
"""

from __future__ import annotations

from itertools import combinations

from .enumeration import (
    AT_MOST,
    EXACTLY,
    permutation_first,
    permutation_next,
    subset_first,
    subset_next,
)
from .errors import BadI, NotALModel, PreconditionViolated
from .graph import Graph, VertexCover, canonical_edge, require_cover
from .meters import MemoryMeter, MeteredSet
from .properties import (
    AdjacencyCharacterization,
    ExplicitFamily,
    PatternGraph,
    bounded_members,
    vertex_minimal_members,
)
from .results import SolveOutcome
from .streams import AL, StreamHandle, cover_bits, induced_edges


def _independent_role_sets(H: PatternGraph, i: int) -> list[tuple[int, ...]]:
    """Role sets of size i that may lie outside the cover: independent in H."""
    g = H.graph
    return [
        combo
        for combo in combinations(range(g.n), i)
        if not any(g.has_edge(a, b) for a, b in combinations(combo, 2))
    ]


def _placement_pairs(H: PatternGraph, inside_roles: tuple[int, ...]):
    """Required adjacency among the placed roles, as (index pair, is_edge)."""
    g = H.graph
    return [
        ((a, b), g.has_edge(inside_roles[a], inside_roles[b]))
        for a, b in combinations(range(len(inside_roles)), 2)
    ]


def _role_requirements(H: PatternGraph, outside_roles: tuple[int, ...],
                       inside_roles: tuple[int, ...], placement: tuple[int, ...]):
    """For each outside role, the exact set of placed vertices it must see."""
    g = H.graph
    reqs = []
    for w in outside_roles:
        needed = frozenset(
            placement[idx] for idx, r in enumerate(inside_roles) if g.has_edge(w, r)
        )
        reqs.append(needed)
    return reqs


def check_h_in_y(source: StreamHandle | Graph, H: PatternGraph, Y) -> bool:
    """Does G[Y] contain the pattern as an induced subgraph?  On a stream,
    one pass per candidate placement."""
    y_sorted = tuple(sorted(Y))
    h = H.h
    if h > len(y_sorted):
        return False
    pairs = _placement_pairs(H, tuple(range(h)))
    subset_cursor = subset_first(y_sorted, h, EXACTLY)
    while not subset_cursor.at_end:
        chosen = subset_cursor.current
        perm_cursor = permutation_first(chosen)
        while not perm_cursor.at_end:
            placement = perm_cursor.current
            observed = induced_edges(source, placement)
            if all((canonical_edge(placement[a], placement[b]) in observed) == want
                   for (a, b), want in pairs):
                return True
            perm_cursor = permutation_next(perm_cursor)
        subset_cursor = subset_next(subset_cursor)
    return False


def find_h(source: StreamHandle | Graph, X: VertexCover, S, Y, i: int,
           H: PatternGraph, strict_induced: bool = True,
           meter: MemoryMeter | None = None) -> tuple[int, ...]:
    """Find one induced occurrence of H avoiding S and X - Y, with exactly i
    vertices outside the cover; returns those outside vertices, or ()."""
    h = H.h
    if i < 1 or i > h:
        raise BadI(f"i must be in 1..{h}")
    s_set = frozenset(S)
    y_sorted = tuple(sorted(Y))
    cover_set = X.member_set()
    bits = cover_bits(X.members)
    in_memory = isinstance(source, Graph)
    inside_count = h - i
    meter = meter if meter is not None else MemoryMeter()

    with meter.scope(3 * h * h + 4 * h + 4):  # placement, profiles, scratch
        for outside_roles in _independent_role_sets(H, i):
            inside_roles = tuple(r for r in range(h) if r not in outside_roles)
            if inside_count > len(y_sorted):
                continue
            subset_cursor = subset_first(y_sorted, inside_count, EXACTLY)
            while not subset_cursor.at_end:
                chosen = subset_cursor.current
                perm_cursor = permutation_first(chosen)
                while not perm_cursor.at_end:
                    placement = perm_cursor.current
                    pairs = _placement_pairs(H, inside_roles)
                    reqs = _role_requirements(H, outside_roles, inside_roles, placement)
                    if in_memory:
                        assignment = _find_in_memory(
                            source, cover_set, s_set, placement, pairs, reqs
                        )
                    else:
                        assignment = source.run_cover_pass(
                            X.members,
                            lambda view: _find_pass(view, bits, s_set, placement, pairs, reqs),
                        )
                    if assignment:
                        if not strict_induced or _witness_is_induced(
                            source, H, outside_roles, inside_roles, placement, assignment
                        ):
                            return tuple(v for v, _ in assignment)
                    perm_cursor = permutation_next(perm_cursor)
                subset_cursor = subset_next(subset_cursor)
    return ()


def _find_in_memory(g: Graph, cover_set, s_set, placement, pairs, reqs):
    placed_set = frozenset(placement)
    if not all(g.has_edge(placement[a], placement[b]) == want for (a, b), want in pairs):
        return ()
    unmatched = list(range(len(reqs)))
    assigned = []
    for v in range(g.n):
        if v in cover_set or v in s_set:
            continue
        profile = g.neighbors(v) & placed_set
        for pos, role_idx in enumerate(unmatched):
            if reqs[role_idx] == profile:
                assigned.append((v, role_idx))
                unmatched.pop(pos)
                break
        if not unmatched:
            return tuple(assigned)
    return ()


def _find_pass(view, bits, s_set, placement, pairs, reqs):
    """Single pass: validate the placement inside the cover and greedily match
    outside vertices to the remaining roles by exact profile."""
    placed = [bits[v] for v in placement]
    placed_mask = sum(placed)
    wanted = [sum(bits[v] for v in req) for req in reqs]
    placed_nbrs: dict[int, int] = {}  # placed vertex bit -> its cover mask
    unmatched = list(range(len(reqs)))
    assigned: list[tuple[int, int]] = []  # (vertex, outside-role index)
    for v, bit, m, _ in view:
        if bit & placed_mask:
            placed_nbrs[bit] = m
        elif not bit and unmatched and v not in s_set:
            profile = m & placed_mask
            for pos, role_idx in enumerate(unmatched):
                if wanted[role_idx] == profile:
                    assigned.append((v, role_idx))
                    unmatched.pop(pos)
                    break
    if unmatched:
        return ()
    for (a, b), want in pairs:
        if bool(placed_nbrs[placed[a]] & placed[b]) != want:
            return ()
    return tuple(assigned)


def _witness_is_induced(source, H, outside_roles, inside_roles, placement, assignment) -> bool:
    """Full-occurrence check: the placed and matched vertices together induce
    exactly H.  Outside-outside non-edges hold automatically under a valid
    cover; this pass re-verifies the whole occurrence anyway."""
    mapping = {}
    for idx, role in enumerate(inside_roles):
        mapping[role] = placement[idx]
    for v, role_idx in assignment:
        mapping[outside_roles[role_idx]] = v
    observed = induced_edges(source, mapping.values())
    g = H.graph
    return all(
        (canonical_edge(mapping[a], mapping[b]) in observed) == g.has_edge(a, b)
        for a, b in combinations(range(g.n), 2)
    )


def _require_edge(H: PatternGraph) -> None:
    if H.graph.m < 1:
        raise PreconditionViolated("pattern must contain at least one edge")


def solve_hfree_fpt(g: Graph, X: VertexCover, ell: int, H: PatternGraph,
                    meter: MemoryMeter | None = None,
                    strict_induced: bool = True) -> SolveOutcome:
    """In-memory find-and-branch; the reference for the streaming variant."""
    _require_edge(H)
    return solve_pifree_explicit(g, X, ell, ExplicitFamily((H,)), None, meter,
                                 strict_induced)


def solve_hfree_stream(h: StreamHandle, X: VertexCover, ell: int, H: PatternGraph,
                       meter: MemoryMeter | None = None,
                       strict_induced: bool = True) -> SolveOutcome:
    """The one-member case of `solve_pifree_explicit`."""
    if h.model != AL:
        raise NotALModel("solve_hfree_stream requires an AL stream")
    _require_edge(H)
    return solve_pifree_explicit(h, X, ell, ExplicitFamily((H,)), None, meter,
                                 strict_induced)


def _branch_family(source, X, Y, members, deletions, ell, strict, meter) -> bool:
    """A branch succeeds only when no member occurs; on a hit, branch over
    the occurrence's outside vertices and restart from the first member."""
    for H in members:
        for i in range(1, H.h + 1):
            witness = find_h(source, X, deletions.snapshot(), Y, i, H, strict, meter)
            if not witness:
                continue
            if len(deletions) >= ell:
                return False
            for idx in range(len(witness)):
                if idx > 0:
                    witness = find_h(
                        source, X, deletions.snapshot(), Y, i, H, strict, meter
                    )
                v = witness[idx]
                deletions.add(v)
                if _branch_family(source, X, Y, members, deletions, ell, strict, meter):
                    return True
                deletions.discard(v)
            return False
    return True


def solve_pifree_explicit(h: StreamHandle | Graph, X: VertexCover, ell: int,
                          f: ExplicitFamily,
                          char: AdjacencyCharacterization | None = None,
                          meter: MemoryMeter | None = None,
                          strict_induced: bool = True) -> SolveOutcome:
    """Family solver: prune to vertex-minimal members (and to members small
    enough for the cover when a characterization is supplied), then search
    every surviving member inside each branch."""
    if isinstance(h, StreamHandle) and h.model != AL:
        raise NotALModel("solve_pifree_explicit requires an AL stream")
    for p in f.members:
        if p.graph.m < 1:
            raise PreconditionViolated("every member must contain at least one edge")
    require_cover(h if isinstance(h, Graph) else h.source, X)
    meter = meter if meter is not None else MemoryMeter()
    members = vertex_minimal_members(f)
    if char is not None:
        members = bounded_members(members, char, X.K)
    ordered = tuple(sorted(members.members, key=lambda p: p.h))

    passes_of = (lambda: 0) if isinstance(h, Graph) else (lambda: h.pass_meter.passes)
    passes_before = passes_of()
    cover_set = X.member_set()
    K = X.K
    pattern_words = sum(p.h * p.h + p.h for p in ordered)

    with meter.scope(K), meter.scope(pattern_words), meter.scope(K), meter.scope(K):
        s_cursor = subset_first(X.members, min(ell, K), AT_MOST)
        while not s_cursor.at_end:
            s_branch = frozenset(s_cursor.current)
            y_set = cover_set - s_branch
            if not any(check_h_in_y(h, H, y_set) for H in ordered):
                deletions = MeteredSet(meter, s_branch)
                try:
                    if _branch_family(h, X, y_set, ordered, deletions, ell,
                                      strict_induced, meter):
                        return SolveOutcome(
                            True,
                            tuple(sorted(deletions)),
                            passes_of() - passes_before,
                            meter.peak_words,
                        )
                finally:
                    deletions.close()
            s_cursor = subset_next(s_cursor)

    return SolveOutcome(False, (), passes_of() - passes_before, meter.peak_words)
