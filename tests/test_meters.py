import random

import pytest

from vcstream.errors import MemoryBudgetExceeded, MeterUnderflow
from vcstream.graph import Graph, VertexCover, cycle_graph, path_graph
from vcstream.kernel_adjacency import reduce_str
from vcstream.kernel_lowrank import low_rank_reduce_str
from vcstream.meters import MemoryMeter, MeteredSet, PassMeter, words_for_bits
from vcstream.properties import ExplicitFamily, family_oracle
from vcstream.solve_cvd import solve_cvd
from vcstream.solve_hfree import solve_pifree_explicit
from vcstream.solve_oct import solve_oct, solve_oct_cc
from vcstream.solve_oracle import solve_equivclass_enum, solve_with_a1, solve_with_a2
from vcstream.streams import AL, make_stream


def test_pass_meter_counts():
    m = PassMeter()
    m.increment()
    m.increment()
    assert m.passes == 2


def test_memory_meter_peak_and_balance():
    m = MemoryMeter()
    m.allocate(5)
    m.allocate(3)
    m.release(4)
    assert m.live_words == 4
    assert m.peak_words == 8
    m.release(4)
    assert m.live_words == 0


def test_budget_enforced():
    m = MemoryMeter(budget_words=4)
    m.allocate(4)
    with pytest.raises(MemoryBudgetExceeded):
        m.allocate(1)
    assert (m.live_words, m.peak_words) == (4, 4)


def test_underflow_detected():
    m = MemoryMeter()
    m.allocate(1)
    with pytest.raises(MeterUnderflow):
        m.release(2)


def test_scope_restores_on_error():
    m = MemoryMeter()
    with pytest.raises(RuntimeError):
        with m.scope(7):
            assert m.live_words == 7
            raise RuntimeError("boom")
    assert m.live_words == 0
    assert m.peak_words == 7


def test_scope_trip_on_entry_leaves_meter_as_it_was():
    m = MemoryMeter(budget_words=5)
    m.allocate(3)
    m.release(1)
    with pytest.raises(MemoryBudgetExceeded, match="live 6 words exceeds budget 5"):
        with m.scope(4):
            pytest.fail("the body runs only after the scope's words are charged")
    assert (m.live_words, m.peak_words) == (2, 3)


def test_nested_scopes():
    m = MemoryMeter()
    with m.scope(2):
        with m.scope(3), m.scope(1):
            assert m.live_words == 6
        assert m.live_words == 2
        with m.scope(0):
            assert m.live_words == 2
    assert (m.live_words, m.peak_words) == (0, 6)


def test_scope_releases_after_budget_trip_in_body():
    m = MemoryMeter(budget_words=5)
    with pytest.raises(MemoryBudgetExceeded):
        with m.scope(4):
            m.allocate(2)
    assert (m.live_words, m.peak_words) == (0, 4)


def test_scope_never_entered_charges_nothing():
    m = MemoryMeter(budget_words=1)
    scope = m.scope(5)
    assert (m.live_words, m.peak_words) == (0, 0)
    with pytest.raises(MemoryBudgetExceeded):
        with scope:
            pass
    assert (m.live_words, m.peak_words) == (0, 0)


def test_metered_set():
    m = MemoryMeter()
    s = MeteredSet(m, [1, 2])
    s.add(3)
    s.add(3)  # no double charge
    assert m.live_words == 3
    s.discard(1)
    assert m.live_words == 2
    s.close()
    assert m.live_words == 0
    tight = MemoryMeter(budget_words=1)
    with pytest.raises(MemoryBudgetExceeded):
        MeteredSet(tight, [1, 2])
    assert tight.live_words == 0


def test_words_for_bits():
    assert words_for_bits(0) == 0
    assert words_for_bits(1) == 1
    assert words_for_bits(64) == 1
    assert words_for_bits(65) == 2


P3_FAM = ExplicitFamily.from_graphs([path_graph(3)])
P4C4_FAM = ExplicitFamily.from_graphs([path_graph(4), cycle_graph(4)])

RUNS = {
    "solve_cvd": lambda h, X, m: solve_cvd(h, X, 1, m),
    "solve_cvd_cache_cover": lambda h, X, m: solve_cvd(h, X, 1, m, cache_cover=True),
    "solve_oct": lambda h, X, m: solve_oct(h, X, 2, m),
    "solve_oct_cc": lambda h, X, m: solve_oct_cc(h, X, 2, m),
    "solve_pifree_explicit": lambda h, X, m: solve_pifree_explicit(h, X, 2, P4C4_FAM, None, m),
    "solve_with_a1": lambda h, X, m: solve_with_a1(h, X, 1, 3, family_oracle(P3_FAM, "a1"), m),
    "solve_with_a2":
        lambda h, X, m: solve_with_a2(h, X, 1, 3, family_oracle(P3_FAM, "a2"), "plain", m),
    "solve_equivclass_enum":
        lambda h, X, m: solve_equivclass_enum(h, X, family_oracle(P3_FAM, "a2"), 2, m),
    "reduce_str": lambda h, X, m: reduce_str(h, X, 2, 2, m),
    "low_rank_reduce_str": lambda h, X, m: low_rank_reduce_str(h, X, 2, 2, m),
}


@pytest.mark.parametrize("name", RUNS)
def test_budget_trip_leaves_nothing_live(name):
    """Under budget peak_words - 1 the run trips, and every word it charged
    is released on the way out."""
    rng = random.Random(3)
    k, n = 4, 12
    g = Graph(n, [(u, v) for u in range(k) for v in range(u + 1, n) if rng.random() < 0.5])
    X = VertexCover.validated(g, range(k))
    run = RUNS[name]
    peak = run(make_stream(g, AL), X, MemoryMeter()).peak_words
    meter = MemoryMeter(budget_words=peak - 1)
    with pytest.raises(MemoryBudgetExceeded):
        run(make_stream(g, AL), X, meter)
    assert meter.live_words == 0
