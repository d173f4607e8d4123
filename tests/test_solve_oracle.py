import pytest

from corpus import all_covers, atlas_graphs, disconnected_sample, minimum_cover
from vcstream.brute import brute_is_pi_free, brute_min_deletion
from vcstream.errors import BadParams, MemoryBudgetExceeded, NotALModel, OracleFault
from vcstream.graph import (
    Graph,
    VertexCover,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from vcstream.meters import MemoryMeter
from vcstream.properties import ExplicitFamily, family_oracle
from vcstream.solve_oracle import (
    compute_equivalence_classes,
    solve_equivclass_enum,
    solve_with_a1,
    solve_with_a2,
)
from vcstream.streams import AL, EA, make_stream

P3_FAM = ExplicitFamily.from_graphs([path_graph(3)])
C3_FAM = ExplicitFamily.from_graphs([complete_graph(3)])
MIXED_FAM = ExplicitFamily.from_graphs([path_graph(3), cycle_graph(4)])


def stream(g, order=None):
    return make_stream(g, AL, order)


class CountingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.declared_passes = inner.declared_passes
        self.calls = 0

    def answer(self, handle, meter=None):
        self.calls += 1
        return self.inner.answer(handle, meter)


def test_equivalence_classes_examples():
    g = star_graph(3)
    t = compute_equivalence_classes(stream(g), [0])
    assert t == {1: 3}

    g = Graph(4, [(0, 1), (1, 2)])  # P3 plus isolated vertex 3
    t = compute_equivalence_classes(stream(g), [1])
    assert list(t.items()) == [(0, 1), (1, 2)]

    with pytest.raises(NotALModel):
        compute_equivalence_classes(make_stream(g, EA), [1])


@pytest.mark.parametrize("budget", [1, 3])
def test_equivalence_classes_charge_rows_as_they_grow(budget):
    # P3 plus an isolated vertex has classes {0: 1, 1: 2} toward Y = {1}: the
    # first row's 2 words trip budget 1, the second row's trip budget 3
    g = Graph(4, [(0, 1), (1, 2)])
    h = stream(g, (3, 0, 1, 2))
    meter = MemoryMeter(budget_words=budget)
    with pytest.raises(MemoryBudgetExceeded):
        compute_equivalence_classes(h, [1], meter=meter)
    assert meter.live_words == 0
    assert h.pass_meter.passes == 1

    meter = MemoryMeter()
    t = compute_equivalence_classes(stream(g), [1], meter=meter)
    assert (meter.live_words, meter.peak_words) == (2 * len(t), 2 * len(t))


def test_equivalence_classes_match_in_memory():
    for g in atlas_graphs(2, 6)[::4]:
        for cover in all_covers(g, 3)[:4]:
            t = compute_equivalence_classes(stream(g), cover)
            expected: dict[int, int] = {}
            y_sorted = sorted(cover)
            for v in range(g.n):
                if v in cover:
                    continue
                key = sum(
                    1 << i for i, y in enumerate(y_sorted) if g.has_edge(v, y)
                )
                expected[key] = expected.get(key, 0) + 1
            assert t == expected and list(t) == sorted(expected)


def test_a1_example_triangle_with_pendant():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    X = VertexCover.validated(g, [0, 2])
    a1 = family_oracle(C3_FAM, "a1")
    out = solve_with_a1(stream(g), X, 1, 3, a1)
    assert out.feasible
    residual, _ = g.induced([v for v in range(4) if v not in set(out.solution)])
    assert brute_is_pi_free(residual, C3_FAM)
    assert not solve_with_a1(stream(g), X, 0, 3, family_oracle(C3_FAM, "a1")).feasible


P9_FAM = ExplicitFamily.from_graphs([path_graph(9)])


@pytest.fixture(scope="module")
def p10_min_deletion():
    return brute_min_deletion(path_graph(10), P9_FAM)[0]


@pytest.mark.parametrize("solver", [
    lambda h, X, ell: solve_with_a1(h, X, ell, 9, family_oracle(P9_FAM, "a1")),
    lambda h, X, ell: solve_with_a2(h, X, ell, 9, family_oracle(P9_FAM, "a1"), "a1_subsets"),
    lambda h, X, ell: solve_with_a2(h, X, ell, 9, family_oracle(P9_FAM, "a2")),
    lambda h, X, ell: solve_equivclass_enum(h, X, family_oracle(P9_FAM, "a2"), ell),
], ids=["a1", "a1sub", "a2", "ecenum"])
def test_member_above_canonical_limit(solver, p10_min_deletion):
    # membership of a 9-vertex member is decided by the matcher, not by
    # canonical forms, which stop at 8 vertices
    g = path_graph(10)
    X = VertexCover.validated(g, minimum_cover(g))
    assert p10_min_deletion == 1
    assert [solver(stream(g), X, ell).feasible for ell in (0, 1)] == [False, True]


def test_a1_bipartite_trivial():
    g = cycle_graph(4)
    X = VertexCover.validated(g, [0, 2])
    out = solve_with_a1(stream(g), X, 1, 3, family_oracle(C3_FAM, "a1"))
    assert out.feasible and set(out.solution) <= {0, 2}


def test_kind_checks():
    g = path_graph(3)
    X = VertexCover.validated(g, [1])
    with pytest.raises(BadParams):
        solve_with_a1(stream(g), X, 1, 3, family_oracle(P3_FAM, "a2"))
    with pytest.raises(BadParams):
        solve_with_a2(stream(g), X, 1, 3, family_oracle(P3_FAM, "a1"), "plain")
    with pytest.raises(BadParams):
        solve_with_a2(stream(g), X, 1, 3, family_oracle(P3_FAM, "a2"), "a1_subsets")
    with pytest.raises(BadParams):
        solve_equivclass_enum(stream(g), X, family_oracle(P3_FAM, "a1"), 1)
    with pytest.raises(BadParams):
        solve_equivclass_enum(stream(g), X, family_oracle(P3_FAM, "a2"), 2)  # ell > K


def test_oracle_fault_detected():
    g = path_graph(3)
    X = VertexCover.validated(g, [1])
    bad = family_oracle(P3_FAM, "a1")
    bad.declared_passes = 2
    with pytest.raises(OracleFault):
        solve_with_a1(stream(g), X, 1, 3, bad)


def test_a2_call_count_on_free_instance():
    # family-free input, ell=0: one outer call plus one call per candidate I
    g = complete_graph(3)  # P3-free
    X = VertexCover.validated(g, [0, 1])
    a2 = CountingOracle(family_oracle(P3_FAM, "a2"))
    out = solve_with_a2(stream(g), X, 0, 3, a2)
    assert out.feasible and out.solution == ()
    outside = g.n - X.K
    from math import comb

    expected = 1 + sum(comb(outside, i) for i in range(min(3, outside) + 1))
    assert a2.calls == expected


def test_ecenum_examples():
    g = path_graph(4)
    X = VertexCover.validated(g, [1, 2])
    out = solve_equivclass_enum(stream(g), X, family_oracle(P3_FAM, "a2"), 1)
    assert out.feasible
    residual, _ = g.induced([v for v in range(4) if v not in set(out.solution)])
    assert brute_is_pi_free(residual, P3_FAM)

    a2 = CountingOracle(family_oracle(P3_FAM, "a2"))
    g = complete_graph(3)
    X = VertexCover.validated(g, [0, 1])
    assert solve_equivclass_enum(stream(g), X, a2, 0).feasible
    assert a2.calls == 1


def corpus_small():
    return atlas_graphs(2, 5) + disconnected_sample(5)


def test_three_way_differential():
    for g in corpus_small()[::2]:
        for fam in (P3_FAM, C3_FAM, MIXED_FAM):
            brute_size, _ = brute_min_deletion(g, fam)
            nu = 4
            for cover in all_covers(g, 3)[:4]:
                X = VertexCover.validated(g, cover)
                for ell in range(min(X.K, 2) + 1):
                    expected = brute_size <= ell
                    o1 = solve_with_a1(stream(g), X, ell, nu, family_oracle(fam, "a1"))
                    o2 = solve_with_a2(stream(g), X, ell, nu, family_oracle(fam, "a2"))
                    osub = solve_with_a2(
                        stream(g), X, ell, nu, family_oracle(fam, "a1"), "a1_subsets"
                    )
                    oe = solve_equivclass_enum(
                        stream(g), X, family_oracle(fam, "a2"), ell
                    )
                    got = (o1.feasible, o2.feasible, osub.feasible, oe.feasible)
                    assert got == (expected,) * 4, (g.edges, cover, ell)
                    for out in (o1, o2, osub, oe):
                        if out.feasible:
                            keep = [
                                v for v in range(g.n) if v not in set(out.solution)
                            ]
                            residual, _ = g.induced(keep)
                            assert brute_is_pi_free(residual, fam)


def test_twin_interchangeability():
    # swapping a deleted outside vertex for a same-class one keeps validity
    for g in corpus_small()[::5]:
        for cover in all_covers(g, 3)[:2]:
            X = VertexCover.validated(g, cover)
            out = solve_with_a2(
                stream(g), X, min(X.K, 2), 4, family_oracle(P3_FAM, "a2")
            )
            if not out.feasible:
                continue
            deleted = set(out.solution)
            outside_deleted = [v for v in deleted if v not in X.member_set()]
            for v in outside_deleted:
                key = frozenset(g.neighbors(v) & X.member_set())
                for twin in range(g.n):
                    if twin in deleted or twin in X.member_set():
                        continue
                    if frozenset(g.neighbors(twin) & X.member_set()) != key:
                        continue
                    swapped = (deleted - {v}) | {twin}
                    keep = [u for u in range(g.n) if u not in swapped]
                    residual, _ = g.induced(keep)
                    assert brute_is_pi_free(residual, P3_FAM)


def _buffer_bound(vertices):
    # reference-oracle buffer: ids plus at most all pairs
    return vertices + vertices * (vertices + 1) // 2


def test_memory_bounds():
    # a1 is dominated by the class table, a2 by the saved branch path, the
    # class-enumeration solver by the oracle's whole-residual buffer
    nu = 4
    for g in atlas_graphs(2, 6)[::3]:
        for fam in (P3_FAM, MIXED_FAM):
            for cover in all_covers(g, 3)[:3]:
                X = VertexCover.validated(g, cover)
                k = X.K
                a1_budget = (
                    2 * 2 ** k + _buffer_bound(k + nu) + 4 * nu * (k + 2) + 6 * k + 16
                )
                a2_budget = 4 * nu * (k + 2) + _buffer_bound(k + nu) + 6 * k + 16
                ec_budget = k * k + 6 * k + 16 + 2 * (g.n + g.m)
                for ell in range(min(k, 2) + 1):
                    meter = MemoryMeter(budget_words=a1_budget)
                    solve_with_a1(stream(g), X, ell, nu, family_oracle(fam, "a1"), meter)
                    meter = MemoryMeter(budget_words=a2_budget)
                    solve_with_a2(
                        stream(g), X, ell, nu, family_oracle(fam, "a2"), "plain", meter
                    )
                    meter = MemoryMeter(budget_words=ec_budget)
                    solve_equivclass_enum(
                        stream(g), X, family_oracle(fam, "a2"), ell, meter
                    )


def test_meter_balance():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 4)])
    X = VertexCover.validated(g, [1, 2])
    for run in (
        lambda m: solve_with_a1(stream(g), X, 1, 3, family_oracle(C3_FAM, "a1"), m),
        lambda m: solve_with_a2(stream(g), X, 1, 3, family_oracle(C3_FAM, "a2"), "plain", m),
        lambda m: solve_equivclass_enum(stream(g), X, family_oracle(C3_FAM, "a2"), 1, m),
    ):
        meter = MemoryMeter()
        run(meter)
        assert meter.live_words == 0
