"""a1's search against a frozen copy of its earlier form.

`_search_a1` used to rebuild `multisets(classes, nu - |J|)` for every cover
subset J of a frame, as dicts, and read the members of every (J, pick) with
its own `_materialize_from_classes` pass (`frozen_search_a1` below).  Now a
frame walks its picks once, as (key, count) pairs ordered by total, and
keeps each pick's members beside it once read; a later use of the pick still
spends its counted pass.  The frozen copies below are the earlier search,
verbatim but for names and type annotations.  On planted covers and planted
twin classes, both must give the same verdict, solution, passes and peak
words, ask the oracle about the same kept sets in the same order, and, at
every word budget below the peak, trip with the same message after the same
passes, releasing every word.
"""

from __future__ import annotations

from unittest import mock

import pytest
from corpus import planted_covers, twin_classes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcstream import solve_oracle
from vcstream.enumeration import AT_MOST, multisets, subsets
from vcstream.errors import MemoryBudgetExceeded, OracleFault
from vcstream.graph import Graph, VertexCover, cycle_graph, path_graph
from vcstream.meters import MemoryMeter
from vcstream.properties import ExplicitFamily, family_oracle
from vcstream.solve_oracle import _checked_answer, solve_with_a1
from vcstream.streams import AL, make_stream

FAMILIES = {
    "P3": ExplicitFamily.from_graphs([path_graph(3)]),
    "P3C4": ExplicitFamily.from_graphs([path_graph(3), cycle_graph(4)]),
    "P4C4": ExplicitFamily.from_graphs([path_graph(4), cycle_graph(4)]),
}


def frozen_first_members(index, picks, skip):
    """Per class key, its first `picks[key]` members not in `skip`, all in
    stream order."""
    order = index.order
    chosen = []  # stream positions
    for key, want in picks.items():
        for pos in index.classes.get(key, ()):
            if want <= 0:
                break
            v = order[pos]
            if v not in skip:
                chosen.append(pos)
                want -= 1
    chosen.sort()
    return [order[pos] for pos in chosen]


def frozen_materialize_from_classes(h, index, picks, excluded):
    """One pass choosing, per class key of `index`, a class index of h, its
    first `picks[key]` members not in `excluded`, in stream order.  No cover
    vertex needs excluding beyond that: a1's `excluded` holds the deleted
    cover part, and the cover's own index files no cover vertex in a class."""
    chosen = h.run_pass(lambda: frozen_first_members(index, picks, excluded))
    if len(chosen) < sum(picks.values()):
        raise OracleFault("class table out of sync with the stream")
    return tuple(chosen)


def frozen_search_a1(h, a1, y_order, index, deletions, ec, ell, nu, meter):
    """Returns the completed deletion set on success, None on failure.  Every
    pick is read off `index`, the class index of `y_order`, held for the
    whole search."""
    classes = tuple(sorted(ec.items()))
    for j_part in map(frozenset, subsets(y_order, nu, AT_MOST)):
        for picks in map(dict, multisets(classes, max(0, nu - len(j_part)))):
            with meter.scope(3 * nu + 2):
                if picks:
                    chosen = frozen_materialize_from_classes(h, index, picks, deletions.items)
                else:
                    chosen = ()
                hit = _checked_answer(a1, h, j_part.union(chosen), meter)
            if hit:
                if len(deletions) >= ell:
                    return None
                for key, count in sorted(picks.items()):
                    val = ec[key]
                    need = val - (count - 1)
                    if len(deletions) + need > ell:
                        continue
                    with meter.scope(nu + 1):
                        removed = frozen_materialize_from_classes(h, index, {key: need},
                                                                  deletions.items)
                    ec_next = dict(ec)
                    if count - 1 > 0:
                        ec_next[key] = count - 1
                    else:
                        del ec_next[key]
                    for v in removed:
                        deletions.add(v)
                    found = frozen_search_a1(h, a1, y_order, index, deletions, ec_next, ell,
                                             nu, meter)
                    if found is not None:
                        return found
                    for v in removed:
                        deletions.discard(v)
                return None
    return deletions.snapshot()


class RecordingOracle:
    """Forwards to a family oracle, recording each kept set it is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.declared_passes = inner.declared_passes
        self.keeps: list[frozenset[int]] = []

    def answer(self, handle, meter=None):
        self.keeps.append(handle.keep)
        return self.inner.answer(handle, meter)


def run_a1(frozen, case, ell, nu, family, budget=None):
    """One a1 run on a fresh stream, with the current or the frozen search:
    its outcome, or its budget trip's message, passes and live words, plus
    the kept sets the oracle saw."""
    g, X, order = case
    h = make_stream(g, AL, order)
    oracle = RecordingOracle(family_oracle(family, "a1"))
    meter = MemoryMeter(budget_words=budget)
    search = frozen_search_a1 if frozen else solve_oracle._search_a1
    with mock.patch.object(solve_oracle, "_search_a1", search):
        try:
            out = solve_with_a1(h, X, ell, nu, oracle, meter)
        except MemoryBudgetExceeded as trip:
            return ("trip", str(trip), h.pass_meter.passes, meter.live_words), oracle.keeps
    return (out.verdict, out.solution, out.passes, out.peak_words), oracle.keeps


CASES = st.one_of(planted_covers(max_n=40, max_k=4), twin_classes(max_n=40, max_k=4))

# cover {0, 3}; 1 sees 0 and 2 sees 0 and 3.  At ell 1 the P3 1-0-2 is the
# first hit, on a pick of two classes: deleting 1 leaves the P3 0-2-3, so a1
# fails there and then succeeds by deleting 2, and the order it tries the
# pick's classes in shows in its passes
TWO_CLASS_HIT = (Graph(4, [(0, 1), (0, 2), (2, 3)]), VertexCover((0, 3)), (0, 1, 2, 3))


@pytest.mark.parametrize("fam", FAMILIES)
@settings(max_examples=50, deadline=None)
@given(case=CASES, ell=st.integers(0, 2), nu=st.integers(2, 4))
@example(case=TWO_CLASS_HIT, ell=1, nu=3)
def test_a1_search_matches_frozen_search(fam, case, ell, nu):
    family = FAMILIES[fam]
    ell = min(ell, case[1].K)
    now = run_a1(False, case, ell, nu, family)
    assert now == run_a1(True, case, ell, nu, family)
    peak = now[0][3]
    for budget in range(peak):
        (kind, message, passes, live), keeps = run_a1(False, case, ell, nu, family, budget)
        assert (kind, live) == ("trip", 0)
        assert ((kind, message, passes, live), keeps) == run_a1(True, case, ell, nu, family,
                                                                budget)
