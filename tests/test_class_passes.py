"""The twin-class passes against frozen copies of their per-block forms.

Each `_frozen_*` function below is the consumer a class pass replaced, as it
was: it walks every block of `reference_view`, the per-block form of the
class index, built from the graph and the stream's order.  A class pass
must return the same value and make the same `deletions.add` calls in the
same order, so a word budget trips at the same word, with the same message
and live words.

The `_frozen_*_solver` functions are the solvers that read G[Y] from the
members' whole blocks through `induced_edges`, as they were.  A solver that
reads it off the class index must give the same verdict, solution, passes
and peak words, and trip where they trip.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import planted_covers, reference_view
from vcstream.enumeration import AT_MOST, EXACTLY, subsets
from vcstream.errors import MemoryBudgetExceeded
from vcstream.graph import canonical_edge, complete_graph, cycle_graph, path_graph
from vcstream.meters import MemoryMeter, MeteredSet
from vcstream.properties import ExplicitFamily, PatternGraph, vertex_minimal_members
from vcstream.results import branch_on_cover
from vcstream.solve_cvd import _p3_within, _pair_scan, _phase1_pass, _phase2_pass, solve_cvd
from vcstream.solve_hfree import (
    _branch_family,
    _find_pass,
    _placement_pairs,
    _placements,
    solve_pifree_explicit,
)
from vcstream.solve_oct import (
    _colour_pass,
    _first_colouring,
    _propagated_components,
    solve_oct_cc,
)
from vcstream.solve_oracle import compute_equivalence_classes
from vcstream.streams import AL, cover_bits, filtered_substream, induced_edges, make_stream


# --- frozen per-block consumers ------------------------------------------

def _view(h, members):
    """The per-block view of `members` on `h`, from its graph and order."""
    return reference_view(h.source, h.blocks, members)


def _frozen_colour_pass(view, y_mask, y1_mask, deletions, ell, check_cover):
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


def _frozen_pair_scan(view, b1, b2, rest):
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


def _frozen_phase1_pass(view, b1, b2, pair_edge, deletions, ell):
    pair = b1 | b2
    for v, bit, m, _ in view:
        if not bit and v not in deletions:
            seen = m & pair
            forced = seen in (b1, b2) if pair_edge else seen == pair
            if forced and len(deletions) <= ell:
                deletions.add(v)


def _frozen_phase2_pass(view, by, deletions, ell):
    kept_one = False
    for v, bit, m, _ in view:
        if not bit and m & by and v not in deletions:
            if kept_one:
                if len(deletions) <= ell:
                    deletions.add(v)
            else:
                kept_one = True


def _frozen_find_pass(view, bits, s_set, placement, pairs, reqs):
    placed = [bits[v] for v in placement]
    placed_mask = sum(placed)
    wanted = [sum(bits[v] for v in req) for req in reqs]
    placed_nbrs = {}
    unmatched = list(range(len(reqs)))
    assigned = []
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


def _frozen_propagated_components(h, meter, members, y_set, y_mask):
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
        h.run_pass(lambda: union_pass(_view(h, members)))
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
                if not h.run_pass(lambda: propagate(_view(h, members))):
                    break
                rounds += 1
            h.run_pass(lambda: propagate(_view(h, members)))
            if conflict:
                return None
            return roots, dict(colour), comp


def _frozen_equivalence_classes(h, Y, exclude, meter):
    y_order = tuple(sorted(Y))
    skip = frozenset(Y) | frozenset(exclude)
    counts = {}

    def tally(view):
        for v, _, key, _ in view:
            if v not in skip:
                if key in counts:
                    counts[key] += 1
                else:
                    meter.allocate(2)
                    counts[key] = 1

    try:
        h.run_pass(lambda: tally(_view(h, y_order)))
    except MemoryBudgetExceeded:
        meter.release(2 * len(counts))
        raise
    return dict(sorted(counts.items()))


# --- frozen solvers that read G[Y] from the members' blocks ----------------

def _frozen_cvd_cached_solver(h, X, ell, meter):
    members = X.members
    bits = cover_bits(members)

    def branch(s_branch, y_set, meter):
        deletions = MeteredSet(meter, s_branch)
        cached_words = 0
        try:
            edge_bits = induced_edges(h, y_set, meter)
            cached_words = len(edge_bits)
            if _p3_within(y_set, edge_bits):
                return None
            y_sorted = tuple(sorted(y_set))
            with meter.scope(2):
                for y1, y2 in subsets(y_sorted, 2, EXACTLY):
                    b1, b2 = bits[y1], bits[y2]
                    pair_edge = (y1, y2) in edge_bits
                    h.run_class_pass(
                        members,
                        lambda index: _phase1_pass(index, b1, b2, pair_edge, deletions, ell),
                    )
                    if len(deletions) > ell:
                        return None
            for y in y_sorted:
                h.run_class_pass(
                    members, lambda index: _phase2_pass(index, bits[y], deletions, ell)
                )
                if len(deletions) > ell:
                    return None
            return deletions.snapshot()
        finally:
            meter.release(cached_words)
            deletions.close()

    return branch_on_cover(h, X, ell, 3 * X.K, branch, meter)


def _frozen_cached_components(h, meter, y_set):
    edges = induced_edges(h, y_set, meter)
    try:
        adj = {v: set() for v in y_set}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        colour, comp, roots = {}, {}, []
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


def _frozen_oct_cc_solver(h, X, ell, meter, low_mem):
    bits = cover_bits(X.members)

    def branch(s_branch, y_set, meter):
        y_mask = sum(bits[v] for v in y_set)
        found = (
            _frozen_propagated_components(h, meter, X.members, y_set, y_mask)
            if low_mem
            else _frozen_cached_components(h, meter, y_set)
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


def _frozen_check_h_in_y(source, H, Y):
    pairs = _placement_pairs(H, tuple(range(H.h)))
    for placement in _placements(tuple(sorted(Y)), H.h):
        observed = induced_edges(source, placement)
        if all((canonical_edge(placement[a], placement[b]) in observed) == want
               for (a, b), want in pairs):
            return True
    return False


def _frozen_pifree_solver(h, X, ell, f, meter):
    ordered = tuple(sorted(vertex_minimal_members(f).members, key=lambda p: p.h))

    def branch(s_branch, y_set, meter):
        if any(_frozen_check_h_in_y(h, H, y_set) for H in ordered):
            return None
        deletions = MeteredSet(meter, s_branch)
        try:
            found = _branch_family(h, X, y_set, ordered, deletions, ell, meter)
            return deletions.snapshot() if found else None
        finally:
            deletions.close()

    words = 3 * X.K + sum(p.h * p.h + p.h for p in ordered)
    return branch_on_cover(h, X, ell, words, branch, meter)


# --- harness ---------------------------------------------------------------

class _LoggedSet(MeteredSet):
    """A MeteredSet that records every `add` call, in order."""

    def __init__(self, meter, items=()):
        self.calls = []
        super().__init__(meter, items)

    def add(self, x):
        self.calls.append(x)
        super().add(x)


def _outcome(g, order, run, prefill, budget=None):
    """Run `run(handle, deletions, meter)` on a fresh stream: its value, the
    add calls after the prefill, the set left, the passes and the peak; or,
    on a budget trip, the message, live words and passes."""
    h = make_stream(g, AL, order)
    meter = MemoryMeter(budget)
    try:
        deletions = _LoggedSet(meter, prefill)
        start = len(deletions.calls)
        value = run(h, deletions, meter)
        return ("ok", value, deletions.calls[start:], deletions.snapshot(),
                h.pass_meter.passes, meter.peak_words)
    except MemoryBudgetExceeded as exc:
        return ("trip", str(exc), meter.live_words, h.pass_meter.passes)


def _agree(g, order, frozen, current, prefill=()):
    """Same outcome unbudgeted, and at a budget one word below the peak."""
    expected = _outcome(g, order, frozen, prefill)
    assert _outcome(g, order, current, prefill) == expected
    peak = expected[-1]
    if peak > 0:
        assert (_outcome(g, order, current, prefill, peak - 1)
                == _outcome(g, order, frozen, prefill, peak - 1))


def _view_run(members, consumer):
    return lambda h, deletions, meter: h.run_pass(
        lambda: consumer(_view(h, members), deletions))


def _class_run(members, consumer):
    return lambda h, deletions, meter: h.run_class_pass(
        members, lambda index: consumer(index, deletions))


def _branch(case, rnd):
    """A guessed deleted cover part S, its Y, and deletions pre-filled with S
    and up to two outside vertices."""
    g, X, order = case
    s_set = frozenset(x for x in X.members if rnd.random() < 0.3)
    y_sorted = tuple(x for x in X.members if x not in s_set)
    outside = [v for v in range(g.n) if v not in X.member_set()]
    prefill = s_set | set(rnd.sample(outside, min(len(outside), rnd.randint(0, 2))))
    return y_sorted, prefill


def _submasks(mask):
    """Every submask of `mask`."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


CASES = planted_covers(max_n=60, max_k=5)
RANDOMS = st.randoms(use_true_random=False)


@settings(max_examples=150, deadline=None)
@given(CASES, RANDOMS, st.integers(0, 3), st.booleans())
def test_colour_pass_matches_per_block(case, rnd, ell, check_cover):
    g, X, order = case
    y_sorted, prefill = _branch(case, rnd)
    bits = cover_bits(X.members)
    y_mask = sum(bits[y] for y in y_sorted)
    for y1_mask in _submasks(y_mask):
        def colour(consumer, view_or_index, deletions, y1_mask=y1_mask):
            return consumer(view_or_index, y_mask, y1_mask, deletions, ell, check_cover)

        _agree(g, order,
               _view_run(X.members, lambda v, d: colour(_frozen_colour_pass, v, d)),
               _class_run(X.members, lambda i, d: colour(_colour_pass, i, d)),
               prefill)


@settings(max_examples=150, deadline=None)
@given(CASES, RANDOMS, st.integers(0, 3))
def test_cvd_passes_match_per_block(case, rnd, ell):
    g, X, order = case
    y_sorted, prefill = _branch(case, rnd)
    bits = cover_bits(X.members)
    y_mask = sum(bits[y] for y in y_sorted)
    for k, y1 in enumerate(y_sorted):
        for y2 in y_sorted[k + 1:]:
            b1, b2 = bits[y1], bits[y2]
            rest = y_mask & ~(b1 | b2)
            _agree(g, order,
                   _view_run(X.members, lambda v, d: _frozen_pair_scan(v, b1, b2, rest)),
                   _class_run(X.members, lambda i, d: _pair_scan(i, b1, b2, rest)))
            for edge in (False, True):
                _agree(g, order,
                       _view_run(X.members,
                                 lambda v, d: _frozen_phase1_pass(v, b1, b2, edge, d, ell)),
                       _class_run(X.members,
                                  lambda i, d: _phase1_pass(i, b1, b2, edge, d, ell)),
                       prefill)
    for y in y_sorted:
        by = bits[y]
        _agree(g, order,
               _view_run(X.members, lambda v, d: _frozen_phase2_pass(v, by, d, ell)),
               _class_run(X.members, lambda i, d: _phase2_pass(i, by, d, ell)),
               prefill)


@settings(max_examples=150, deadline=None)
@given(CASES, RANDOMS)
def test_find_pass_matches_per_block(case, rnd):
    g, X, order = case
    y_sorted, prefill = _branch(case, rnd)
    if not y_sorted:
        return
    bits = cover_bits(X.members)
    for _ in range(8):
        placement = tuple(rnd.sample(y_sorted, rnd.randint(1, min(3, len(y_sorted)))))
        reqs = [frozenset(v for v in placement if rnd.random() < 0.5)
                for _ in range(rnd.randint(1, 3))]
        pairs = [((a, b), rnd.random() < 0.5)
                 for a in range(len(placement)) for b in range(a + 1, len(placement))]
        args = (bits, frozenset(prefill), placement, pairs, reqs)
        placed = [bits[v] for v in placement]
        profiles = [sum(bits[v] for v in req) for req in reqs]
        _agree(g, order,
               _view_run(X.members, lambda v, d: _frozen_find_pass(v, *args)),
               _class_run(X.members, lambda i, d: _find_pass(
                   i, placed, profiles, pairs, frozenset(prefill)) or ()))


@settings(max_examples=150, deadline=None)
@given(CASES, RANDOMS)
def test_propagation_matches_per_block(case, rnd):
    g, X, order = case
    y_sorted, _ = _branch(case, rnd)
    bits = cover_bits(X.members)
    y_set = frozenset(y_sorted)
    y_mask = sum(bits[y] for y in y_sorted)
    _agree(g, order,
           lambda h, d, m: _frozen_propagated_components(h, m, X.members, y_set, y_mask),
           lambda h, d, m: _propagated_components(h, m, X.members, y_set, y_mask))


@settings(max_examples=150, deadline=None)
@given(CASES, RANDOMS)
def test_tally_matches_per_block(case, rnd):
    g, X, order = case
    y_sorted, prefill = _branch(case, rnd)
    exclude = (frozenset(X.members) - frozenset(y_sorted)) | prefill
    _agree(g, order,
           lambda h, d, m: _frozen_equivalence_classes(h, y_sorted, exclude, m),
           lambda h, d, m: compute_equivalence_classes(h, y_sorted, exclude, m))


FAMILIES = [
    ExplicitFamily((PatternGraph(path_graph(3)),)),
    ExplicitFamily((PatternGraph(complete_graph(3)),)),
    ExplicitFamily((PatternGraph(path_graph(4)), PatternGraph(cycle_graph(4)))),
]
SOLVERS = {
    "cvd-cached": (lambda h, X, ell, m, f: solve_cvd(h, X, ell, m, cache_cover=True),
                   lambda h, X, ell, m, f: _frozen_cvd_cached_solver(h, X, ell, m)),
    "oct-cc": (lambda h, X, ell, m, f: solve_oct_cc(h, X, ell, m),
               lambda h, X, ell, m, f: _frozen_oct_cc_solver(h, X, ell, m, False)),
    "oct-cc-low-mem": (lambda h, X, ell, m, f: solve_oct_cc(h, X, ell, m, low_mem=True),
                       lambda h, X, ell, m, f: _frozen_oct_cc_solver(h, X, ell, m, True)),
    "pifree": (lambda h, X, ell, m, f: solve_pifree_explicit(h, X, ell, f, None, m),
               lambda h, X, ell, m, f: _frozen_pifree_solver(h, X, ell, f, m)),
}


def _solve_outcome(g, order, keep, solve, budget=None):
    """`solve(handle, meter)` on a fresh substream of the kept vertices: the
    verdict, solution, passes and peak words; or, on a budget trip, the
    message, live words and passes."""
    h = filtered_substream(make_stream(g, AL, order), keep)
    meter = MemoryMeter(budget)
    try:
        out = solve(h, meter)
        return ("ok", out.verdict, out.solution, out.passes, out.peak_words)
    except MemoryBudgetExceeded as exc:
        return ("trip", str(exc), meter.live_words, h.pass_meter.passes)


@settings(max_examples=200, deadline=None)
@given(planted_covers(max_n=24, max_k=5), RANDOMS, st.integers(0, 2),
       st.sampled_from(sorted(SOLVERS)), st.sampled_from(FAMILIES))
def test_cover_reading_solvers_match_block_reading(case, rnd, ell, name, family):
    g, X, order = case
    # a substream that drops some outside vertices, so X still covers it
    keep = frozenset(v for v in range(g.n) if v in X.member_set() or rnd.random() < 0.8)
    current, frozen = SOLVERS[name]
    expected = _solve_outcome(g, order, keep, lambda h, m: frozen(h, X, ell, m, family))
    assert _solve_outcome(g, order, keep,
                          lambda h, m: current(h, X, ell, m, family)) == expected
    peak = expected[-1]
    for budget in {peak - 1, rnd.randint(0, peak)} - {-1}:
        assert (_solve_outcome(g, order, keep, lambda h, m: current(h, X, ell, m, family), budget)
                == _solve_outcome(g, order, keep, lambda h, m: frozen(h, X, ell, m, family),
                                  budget))
