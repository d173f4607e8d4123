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

from itertools import combinations, permutations

from .enumeration import EXACTLY, subsets
from .errors import BadI, NotALModel, PreconditionViolated
from .graph import Graph, VertexCover, canonical_edge
from .meters import MemoryMeter, MeteredSet
from .properties import (
    AdjacencyCharacterization,
    ExplicitFamily,
    PatternGraph,
    bounded_members,
    vertex_minimal_members,
)
from .results import SolveOutcome, branch_on_cover
from .streams import AL, StreamHandle, cover_bits, cover_edges, induced_edges


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


def _placements(y_sorted: tuple[int, ...], size: int):
    """Every sequence of `size` distinct members of `y_sorted`: the
    permutations of each subset, subsets in dictionary order; nothing when
    `size` exceeds the members."""
    for chosen in subsets(y_sorted, size, EXACTLY):
        yield from permutations(chosen)


def check_h_in_y(source: StreamHandle | Graph, X: VertexCover, H: PatternGraph, Y) -> bool:
    """Does G[Y], Y inside the cover X, contain the pattern as an induced
    subgraph?  On a stream, one class pass per candidate placement."""
    pairs = _placement_pairs(H, tuple(range(H.h)))
    for placement in _placements(tuple(sorted(Y)), H.h):
        observed = cover_edges(source, X, placement)
        if all((canonical_edge(placement[a], placement[b]) in observed) == want
               for (a, b), want in pairs):
            return True
    return False


def find_h(source: StreamHandle | Graph, X: VertexCover, S, Y, i: int,
           H: PatternGraph, meter: MemoryMeter | None = None) -> tuple[int, ...]:
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
    meter = meter if meter is not None else MemoryMeter()

    with meter.scope(3 * h * h + 4 * h + 4):  # placement, profiles, scratch
        for outside_roles in _independent_role_sets(H, i):
            inside_roles = tuple(r for r in range(h) if r not in outside_roles)
            pairs = _placement_pairs(H, inside_roles)
            for placement in _placements(y_sorted, h - i):
                reqs = _role_requirements(H, outside_roles, inside_roles, placement)
                if in_memory:
                    assignment = _find_in_memory(source, cover_set, s_set, placement, pairs, reqs)
                else:
                    assignment = source.run_class_pass(
                        X.members,
                        lambda index: _find_pass(index, bits, s_set, placement, pairs, reqs),
                    )
                if assignment and _witness_is_induced(
                    source, H, outside_roles, inside_roles, placement, assignment
                ):
                    return tuple(v for v, _ in assignment)
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


def _find_pass(index, bits, s_set, placement, pairs, reqs):
    """Single pass: match each outside role to the first vertices outside
    `s_set`, in stream order, whose profile toward the placement is the
    role's (roles of one profile in role order), then validate the placement
    inside the cover."""
    placed = [bits[v] for v in placement]
    placed_mask = sum(placed)
    roles_of: dict[int, list[int]] = {}  # wanted profile -> its role indices
    for role_idx, req in enumerate(reqs):
        roles_of.setdefault(sum(bits[v] for v in req), []).append(role_idx)
    keys_of: dict[int, list[int]] = {}  # wanted profile -> the classes showing it
    for m in index.classes:
        if (m & placed_mask) in roles_of:
            keys_of.setdefault(m & placed_mask, []).append(m)
    assigned: list[tuple[int, int]] = []  # (stream position, role index)
    for profile, roles in roles_of.items():
        found = index.first(keys_of.get(profile, ()), len(roles), s_set)
        if len(found) < len(roles):
            return ()
        assigned += zip(found, roles)
    placed_nbrs = {bit: m for _, bit, m in index.members if bit & placed_mask}
    for (a, b), want in pairs:
        if bool(placed_nbrs[placed[a]] & placed[b]) != want:
            return ()
    order = index.order
    return tuple((order[pos], role) for pos, role in sorted(assigned))


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


def solve_hfree_fpt(g: Graph, X: VertexCover, ell: int, H: PatternGraph,
                    meter: MemoryMeter | None = None) -> SolveOutcome:
    """In-memory find-and-branch; the reference for the streaming variant."""
    return solve_pifree_explicit(g, X, ell, ExplicitFamily((H,)), None, meter)


def solve_hfree_stream(h: StreamHandle, X: VertexCover, ell: int, H: PatternGraph,
                       meter: MemoryMeter | None = None) -> SolveOutcome:
    """The one-member case of `solve_pifree_explicit`."""
    if h.model != AL:
        raise NotALModel("solve_hfree_stream requires an AL stream")
    return solve_pifree_explicit(h, X, ell, ExplicitFamily((H,)), None, meter)


def _branch_family(source, X, Y, members, deletions, ell, meter) -> bool:
    """A branch succeeds only when no member occurs; on a hit, branch over
    the occurrence's outside vertices and restart from the first member."""
    for H in members:
        for i in range(1, H.h + 1):
            witness = find_h(source, X, deletions.snapshot(), Y, i, H, meter)
            if not witness:
                continue
            if len(deletions) >= ell:
                return False
            for idx in range(len(witness)):
                if idx > 0:
                    witness = find_h(source, X, deletions.snapshot(), Y, i, H, meter)
                v = witness[idx]
                deletions.add(v)
                if _branch_family(source, X, Y, members, deletions, ell, meter):
                    return True
                deletions.discard(v)
            return False
    return True


def solve_pifree_explicit(h: StreamHandle | Graph, X: VertexCover, ell: int,
                          f: ExplicitFamily,
                          char: AdjacencyCharacterization | None = None,
                          meter: MemoryMeter | None = None) -> SolveOutcome:
    """Family solver: prune to vertex-minimal members (and to members small
    enough for the cover when a characterization is supplied), then search
    every surviving member inside each branch."""
    for p in f.members:
        if p.graph.m < 1:
            raise PreconditionViolated("every member must contain at least one edge")
    members = vertex_minimal_members(f)
    if char is not None:
        members = bounded_members(members, char, X.K)
    ordered = tuple(sorted(members.members, key=lambda p: p.h))

    def branch(s_branch, y_set, meter):
        if any(check_h_in_y(h, X, H, y_set) for H in ordered):
            return None
        deletions = MeteredSet(meter, s_branch)
        try:
            found = _branch_family(h, X, y_set, ordered, deletions, ell, meter)
            return deletions.snapshot() if found else None
        finally:
            deletions.close()

    # X, the patterns, the current S, Y
    words = 3 * X.K + sum(p.h * p.h + p.h for p in ordered)
    return branch_on_cover(h, X, ell, "solve_pifree_explicit", words, branch, meter)
