"""Find-and-branch deletion solver for an explicit forbidden family, on an
AL stream; a single pattern is the family of one.

A branch fixes the deleted part of the cover; occurrences of the pattern are
then searched with an escalating number i of vertices outside the cover.
The i outside vertices of an occurrence must be pairwise non-adjacent in the
pattern (outside-cover vertices are independent), the rest must embed into
the kept cover part Y as an induced subgraph, and outside candidates are
matched by their exact adjacency profile toward the placed part.  Every
placement test, the i = 0 check of G[Y] included, is one class pass of
`_find_pass` from one walk, `_placement_passes`.  Branch sets are
recomputed when returning out of recursion instead of stored, which keeps
each recursion frame at O(1) words.

`solve_hfree_fpt` is the in-memory reference for one pattern, and shares
none of this search: a plain h^ell search tree over induced copies.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .enumeration import EXACTLY, subsets
from .errors import BadI, PreconditionViolated
from .graph import Graph, VertexCover, canonical_edge, require_cover
from .meters import MemoryMeter, MeteredSet
from .properties import (
    AdjacencyCharacterization,
    ExplicitFamily,
    PatternGraph,
    bounded_members,
    induced_copy,
    vertex_minimal_members,
)
from .results import SolveOutcome, branch_on_cover
from .streams import StreamHandle, cover_bits, induced_edges


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


def _placements(y_sorted: tuple[int, ...], size: int):
    """Every sequence of `size` distinct members of `y_sorted`: the
    permutations of each subset, subsets in dictionary order; nothing when
    `size` exceeds the members."""
    for chosen in subsets(y_sorted, size, EXACTLY):
        yield from permutations(chosen)


def _placement_passes(source: StreamHandle, X: VertexCover, H: PatternGraph, Y,
                      i: int, s_set):
    """One class pass of `_find_pass` per placement: for each set of i
    independent roles left outside the cover, each placement of the other
    roles in Y, in `_placements` order.  Yields (outside roles, inside roles,
    placement, the pass's assignment or None); the walk stops when the
    caller does."""
    g, y_sorted, bits = H.graph, tuple(sorted(Y)), cover_bits(X.members)
    for outside_roles in _independent_role_sets(H, i):
        inside_roles = tuple(r for r in range(H.h) if r not in outside_roles)
        pairs = _placement_pairs(H, inside_roles)
        seen = [[idx for idx, r in enumerate(inside_roles) if g.has_edge(w, r)]
                for w in outside_roles]  # per outside role, the placed indices it sees
        for placement in _placements(y_sorted, len(inside_roles)):
            placed = [bits[v] for v in placement]
            profiles = [sum(placed[idx] for idx in need) for need in seen]
            found = source.run_class_pass(
                X.members, lambda index: _find_pass(index, placed, profiles, pairs, s_set))
            yield outside_roles, inside_roles, placement, found


def check_h_in_y(h: StreamHandle, X: VertexCover, H: PatternGraph, Y) -> bool:
    """Does G[Y], Y inside the cover X, contain the pattern as an induced
    subgraph?  The i = 0 case of the placement passes: one class pass per
    placement of every role, up to the first that matches."""
    return any(found is not None
               for *_, found in _placement_passes(h, X, H, Y, 0, frozenset()))


def find_h(source: StreamHandle, X: VertexCover, S, Y, i: int,
           H: PatternGraph, meter: MemoryMeter | None = None) -> tuple[int, ...]:
    """Find one induced occurrence of H avoiding S and X - Y, with exactly i
    vertices outside the cover; returns those outside vertices, or ().  Each
    placement that the class pass matches is confirmed by one witness pass."""
    h = H.h
    if i < 1 or i > h:
        raise BadI(f"i must be in 1..{h}")
    meter = meter if meter is not None else MemoryMeter()

    with meter.scope(3 * h * h + 4 * h + 4):  # placement, profiles, scratch
        for outside_roles, inside_roles, placement, found in _placement_passes(
                source, X, H, Y, i, frozenset(S)):
            if found and _witness_is_induced(
                    source, H, outside_roles, inside_roles, placement, found):
                return tuple(v for v, _ in found)
    return ()


def _find_pass(index, placed, profiles, pairs, s_set):
    """Single pass: match each outside role to the first vertices outside
    `s_set`, in stream order, whose mask toward the `placed` bits is the
    role's profile (roles of one profile in role order), then validate the
    placement inside the cover against `pairs`.  Returns the (vertex, role)
    pairs in stream order, empty when there is no outside role, or None
    when the placement fails."""
    placed_mask = sum(placed)
    roles_of: dict[int, list[int]] = {}  # wanted profile -> its role indices
    for role_idx, profile in enumerate(profiles):
        roles_of.setdefault(profile, []).append(role_idx)
    assigned: list[tuple[int, int]] = []  # (stream position, role index)
    for profile, roles in roles_of.items():
        found = index.first(lambda m: m & placed_mask == profile, len(roles), s_set)
        if len(found) < len(roles):
            return None
        assigned += zip(found, roles)
    placed_nbrs = {bit: m for _, bit, m in index.members if bit & placed_mask}
    for (a, b), want in pairs:
        if bool(placed_nbrs[placed[a]] & placed[b]) != want:
            return None
    return tuple((index.order[pos], role) for pos, role in sorted(assigned))


def _witness_is_induced(source: StreamHandle, H, outside_roles, inside_roles, placement,
                        assignment) -> bool:
    """Full-occurrence check: the placed and matched vertices together induce
    exactly H.  Outside-outside non-edges hold automatically under a valid
    cover; this pass re-verifies the whole occurrence anyway."""
    mapping = dict(zip(inside_roles, placement))
    mapping.update((outside_roles[role_idx], v) for v, role_idx in assignment)
    observed = induced_edges(source, mapping.values())
    return all((canonical_edge(mapping[a], mapping[b]) in observed) == H.graph.has_edge(a, b)
               for a, b in combinations(range(H.h), 2))


def solve_hfree_fpt(g: Graph, X: VertexCover, ell: int, H: PatternGraph) -> SolveOutcome:
    """In-memory reference for the stream solvers: after the cover check,
    find one induced copy of H in what is left of g and branch on deleting
    each of its vertices, at most ell deep.  Counts no pass and no word."""
    require_cover(g, X)

    def search(deleted: tuple[int, ...]) -> tuple[int, ...] | None:
        residual, old = g.induced(v for v in range(g.n) if v not in deleted)
        copy = induced_copy(residual, H)
        if copy is None:
            return deleted
        if len(deleted) < ell:
            for v in copy:
                found = search(deleted + (old[v],))
                if found is not None:
                    return found
        return None

    solution = search(())
    return SolveOutcome(solution is not None, tuple(sorted(solution or ())), 0, 0)


def solve_hfree_stream(h: StreamHandle, X: VertexCover, ell: int, H: PatternGraph,
                       meter: MemoryMeter | None = None) -> SolveOutcome:
    """The one-member case of `solve_pifree_explicit`."""
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


def solve_pifree_explicit(h: StreamHandle, X: VertexCover, ell: int,
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
        with MeteredSet(meter, s_branch) as deletions:
            found = _branch_family(h, X, y_set, ordered, deletions, ell, meter)
            return deletions.snapshot() if found else None

    # X, the patterns, the current S, Y
    words = 3 * X.K + sum(p.h * p.h + p.h for p in ordered)
    return branch_on_cover(h, X, ell, words, branch, meter)
