"""Acceptance suite: one test per criterion, exact tolerances, desk scale.

Scales used here (chosen to keep the whole suite in the minutes range and
recorded per test): exhaustive sweeps run over every connected graph on up
to 6 vertices (one representative per isomorphism class, via the atlas)
plus a fixed sample of disconnected ones; covers are enumerated up to the
stated sizes; the n=6 sweeps for the pass-heavy solvers subsample the
connected 6-vertex classes at the stated stride.
"""

import random
from itertools import combinations, permutations
from math import comb, factorial

from corpus import all_covers, atlas_graphs, disconnected_sample
from vcstream.brute import brute_is_pi_free, brute_min_deletion, brute_min_oct
from vcstream.enumeration import AT_MOST, EXACTLY, multisets, subsets
from vcstream.graph import VertexCover, complete_graph, cycle_graph, path_graph
from vcstream.instances import DoubleFanSpec, PlantedSpec, gen_double_fan, gen_planted
from vcstream.kernel_adjacency import (
    kernel_pifree,
    mark_table_size,
    reduce_in_memory,
    reduce_str,
)
from vcstream.kernel_lowrank import (
    F2Basis,
    IncidenceVector,
    basis_insert,
    low_rank_reduce_in_memory,
    low_rank_reduce_str,
)
from vcstream.meters import MemoryMeter
from vcstream.properties import (
    AdjacencyCharacterization,
    ExplicitFamily,
    PatternGraph,
    family_oracle,
)
from vcstream.solve_cvd import solve_cvd
from vcstream.solve_hfree import solve_hfree_fpt, solve_hfree_stream
from vcstream.solve_oct import solve_oct, solve_oct_cc
from vcstream.solve_oracle import solve_equivclass_enum, solve_with_a1, solve_with_a2
from vcstream.streams import AL, EA, EDGE, PASS_END, VA, filtered_substream, make_stream

P3 = PatternGraph(path_graph(3), "P3")
P4 = PatternGraph(path_graph(4), "P4")
C3 = PatternGraph(cycle_graph(3), "C3")
C4 = PatternGraph(cycle_graph(4), "C4")
K3 = PatternGraph(complete_graph(3), "K3")

HFREE_PATTERNS = [P3, P4, C3, C4, K3]

P3_FAM = ExplicitFamily.from_graphs([path_graph(3)])
C3_FAM = ExplicitFamily.from_graphs([cycle_graph(3)])
MIXED_FAM = ExplicitFamily.from_graphs([path_graph(3), cycle_graph(4)])

CVD_CHAR = AdjacencyCharacterization(2, lambda k: 3, connected_only=True)
TRIANGLE_CHAR = AdjacencyCharacterization(2, lambda k: 3, connected_only=True)

# ledger constants for the metered budgets
CVD_BUDGET = lambda K: 6 * K + 8
OCT_BUDGET = lambda K: 6 * K + 8
OCT_CC_BUDGET = lambda K: K * K + 6 * K + 8
HFREE_BUDGET = lambda K, h: 8 * (K + h * h) + 16


def stream(g, order=None):
    return make_stream(g, AL, order)


def full_corpus():
    return atlas_graphs(2, 6) + disconnected_sample(6)


def small_corpus():
    return atlas_graphs(2, 5) + disconnected_sample(5)


def residual(g, solution):
    keep = [v for v in range(g.n) if v not in set(solution)]
    return g.induced(keep)[0]


def test_criterion_01_exhaustive_verdict_equivalence():
    # cvd / oct / oct_cc: connected <= 6 plus disconnected sample, covers <= 4
    for g in full_corpus():
        cvd_size, _ = brute_min_deletion(g, P3_FAM)
        oct_size, _ = brute_min_oct(g)
        for cover in all_covers(g, 4):
            X = VertexCover.validated(g, cover)
            for ell in range(X.K + 1):
                out = solve_cvd(stream(g), X, ell, MemoryMeter(CVD_BUDGET(X.K)))
                assert out.feasible == (cvd_size <= ell), ("cvd", g.edges, cover, ell)
                o1 = solve_oct(stream(g), X, ell, MemoryMeter(OCT_BUDGET(X.K)))
                o2 = solve_oct_cc(stream(g), X, ell, MemoryMeter(OCT_CC_BUDGET(X.K)))
                assert o1.feasible == o2.feasible == (oct_size <= ell), (
                    "oct", g.edges, cover, ell,
                )

    # hfree: all five patterns; full sweep <= 5 vertices, strided n=6 sweep
    def hfree_sweep(graphs, max_ell):
        for g in graphs:
            for H in HFREE_PATTERNS:
                fam = ExplicitFamily.from_graphs([H.graph])
                size, _ = brute_min_deletion(g, fam)
                for cover in all_covers(g, 3):
                    X = VertexCover.validated(g, cover)
                    for ell in range(min(X.K, max_ell) + 1):
                        meter = MemoryMeter(HFREE_BUDGET(X.K, H.h))
                        out = solve_hfree_stream(stream(g), X, ell, H, meter)
                        assert out.feasible == (size <= ell), (
                            "hfree", g.edges, cover, ell, H.name,
                        )
                        if out.feasible:
                            assert brute_is_pi_free(residual(g, out.solution), fam)

    hfree_sweep(small_corpus(), max_ell=3)
    hfree_sweep(atlas_graphs(6, 6)[::3], max_ell=2)

    # oracle solvers: three families, nu=4; full <= 5, strided n=6
    def oracle_sweep(graphs, max_ell):
        for g in graphs:
            for fam in (P3_FAM, C3_FAM, MIXED_FAM):
                size, _ = brute_min_deletion(g, fam)
                for cover in all_covers(g, 3):
                    X = VertexCover.validated(g, cover)
                    for ell in range(min(X.K, max_ell) + 1):
                        expected = size <= ell
                        o1 = solve_with_a1(
                            stream(g), X, ell, 4, family_oracle(fam, "a1")
                        )
                        o2 = solve_with_a2(
                            stream(g), X, ell, 4, family_oracle(fam, "a2")
                        )
                        oe = solve_equivclass_enum(
                            stream(g), X, family_oracle(fam, "a2"), ell
                        )
                        assert (o1.feasible, o2.feasible, oe.feasible) == (
                            expected,
                        ) * 3, ("oracle", g.edges, cover, ell)

    oracle_sweep(small_corpus()[::2], max_ell=2)
    oracle_sweep(atlas_graphs(6, 6)[::4], max_ell=1)


def test_criterion_02_pass_count_exactness():
    # reduce_str: exactly one pass, low_rank_reduce_str: exactly ell + 1
    for g in atlas_graphs(2, 6)[::5]:
        covers = all_covers(g, 4)
        if not covers:
            continue
        X = VertexCover.validated(g, covers[-1])
        h = stream(g)
        reduce_str(h, X, 2, 1)
        assert h.pass_meter.passes == 1
        for ell in (1, 2, 4):
            h = stream(g)
            low_rank_reduce_str(h, X, ell, 1)
            assert h.pass_meter.passes == ell + 1

    # solve_oct <= 3^K + 1 measured passes for K up to 6
    for n, k, seed in ((10, 5, 1), (12, 6, 2)):
        g, X = gen_planted(PlantedSpec(n, k, 0.45, seed))
        for ell in (0, 1, 2):
            out = solve_oct(stream(g), X, ell)
            assert out.passes <= 3 ** X.K + 1
    for g in full_corpus()[::4]:
        for cover in all_covers(g, 4)[:4]:
            X = VertexCover.validated(g, cover)
            for ell in range(X.K + 1):
                out = solve_oct(stream(g), X, ell)
                assert out.passes <= 3 ** X.K + 1

    # solve_cvd <= 2^K (K^2 + K) + 1 for K up to 5
    g, X = gen_planted(PlantedSpec(11, 5, 0.4, 3))
    for ell in (0, 1, 2):
        out = solve_cvd(stream(g), X, ell)
        assert out.passes <= 2 ** X.K * (X.K ** 2 + X.K) + 1
    for g in full_corpus()[::4]:
        for cover in all_covers(g, 4)[:4]:
            X = VertexCover.validated(g, cover)
            for ell in range(X.K + 1):
                out = solve_cvd(stream(g), X, ell)
                assert out.passes <= 2 ** X.K * (X.K ** 2 + X.K) + 1


def test_criterion_03_memory_budgets():
    # enforced caps; any violation raises MemoryBudgetExceeded and fails here
    for g in full_corpus()[::2]:
        for cover in all_covers(g, 4)[:6]:
            X = VertexCover.validated(g, cover)
            for ell in range(X.K + 1):
                out = solve_cvd(stream(g), X, ell, MemoryMeter(CVD_BUDGET(X.K)))
                assert out.peak_words <= CVD_BUDGET(X.K)
                out = solve_oct(stream(g), X, ell, MemoryMeter(OCT_BUDGET(X.K)))
                assert out.peak_words <= OCT_BUDGET(X.K)
                out = solve_oct_cc(stream(g), X, ell, MemoryMeter(OCT_CC_BUDGET(X.K)))
                assert out.peak_words <= OCT_CC_BUDGET(X.K)
    for g in small_corpus()[::3]:
        for cover in all_covers(g, 3)[:4]:
            X = VertexCover.validated(g, cover)
            for H in (P3, P4):
                meter = MemoryMeter(HFREE_BUDGET(X.K, H.h))
                out = solve_hfree_stream(stream(g), X, min(X.K, 2), H, meter)
                assert out.peak_words <= HFREE_BUDGET(X.K, H.h)


def test_criterion_04_kernel_answer_preservation():
    # families with their supplied characterizations; exhaustive <= 6 plus a
    # strided connected n=7 sweep over instances admitting covers of size <= 3
    cases = [(P3_FAM, CVD_CHAR), (C3_FAM, TRIANGLE_CHAR)]

    def check(g):
        for fam, char in cases:
            orig, _ = brute_min_deletion(g, fam)
            for cover in all_covers(g, 3):
                X = VertexCover.validated(g, cover)
                for ell in range(X.K + 1):
                    out = kernel_pifree(stream(g), X, ell, char)
                    kernel_graph, _ = out.kernel_graph()
                    kern, _ = brute_min_deletion(kernel_graph, fam)
                    assert (kern <= ell) == (orig <= ell), (g.edges, cover, ell)

    for g in atlas_graphs(3, 6) + disconnected_sample(6):
        check(g)
    for g in atlas_graphs(7, 7)[::15]:
        if all_covers(g, 3):
            check(g)


def test_criterion_05_kernel_size_bounds():
    for n, k, prob, seed in ((200, 6, 0.15, 0), (200, 8, 0.3, 1), (120, 5, 0.5, 2)):
        g, X = gen_planted(PlantedSpec(n, k, prob, seed))
        for r, c in ((1, 1), (3, 1), (2, 2), (5, 0)):
            out = reduce_str(stream(g), X, r, c)
            assert len(out.kept_vertices) <= X.K + r * mark_table_size(X.K, c)
        for ell, c in ((1, 1), (3, 1), (2, 2)):
            out = low_rank_reduce_str(stream(g), X, ell, c)
            assert len(out.kept_vertices) <= X.K + ell * mark_table_size(X.K, c)


def test_criterion_06_streaming_in_memory_equivalence():
    rng = random.Random(23)
    for g in full_corpus()[::2]:
        covers = all_covers(g, 4)[:4]
        for cover in covers:
            X = VertexCover.validated(g, cover)
            orders = [tuple(range(g.n)), tuple(reversed(range(g.n)))]
            shuffled = list(range(g.n))
            rng.shuffle(shuffled)
            orders.append(tuple(shuffled))
            for order in orders:
                for r, c in ((1, 1), (2, 2)):
                    out = reduce_str(stream(g, order), X, r, c)
                    assert out.kept_vertices == reduce_in_memory(g, X, r, c, order)
                for ell, c in ((1, 1), (2, 1)):
                    out = low_rank_reduce_str(stream(g, order), X, ell, c)
                    assert out.kept_vertices == low_rank_reduce_in_memory(
                        g, X, ell, c, order
                    )
    for g in small_corpus()[::2]:
        for H in (P3, P4, C4):
            for cover in all_covers(g, 3)[:4]:
                X = VertexCover.validated(g, cover)
                for ell in range(min(X.K, 2) + 1):
                    a = solve_hfree_fpt(g, X, ell, H)
                    b = solve_hfree_stream(stream(g), X, ell, H)
                    assert a.feasible == b.feasible


def test_criterion_07_gf2_basis_oracle_equivalence():
    # exhaustive: every set of at most 4 distinct vectors of length 6,
    # inserted in sorted order
    for size in range(1, 5):
        for combo in combinations(range(64), size):
            basis = F2Basis(6)
            sums = {0}
            for v in combo:
                expected_indep = v not in sums
                basis, indep = basis_insert(basis, IncidenceVector(v, 6), v)
                assert indep == expected_indep
                if indep:
                    sums |= {s ^ v for s in sums}

    # randomized: 10^4 insertion sequences of vectors of length <= 16
    rng = random.Random(1234)
    for _ in range(10_000):
        length = rng.randint(1, 16)
        count = rng.randint(0, 8)
        basis = F2Basis(length)
        sums = {0}
        for _ in range(count):
            v = rng.randrange(1 << length)
            expected_indep = v not in sums
            basis, indep = basis_insert(basis, IncidenceVector(v, length), v)
            assert indep == expected_indep
            if indep:
                sums |= {s ^ v for s in sums}


def test_criterion_08_double_fan_fidelity():
    p4_fam = ExplicitFamily.from_graphs([path_graph(4)])
    for n in range(1, 5):
        for xm in range(1 << n):
            x_bits = format(xm, f"0{n}b")
            for ym in range(1 << n):
                y_bits = format(ym, f"0{n}b")
                spec = DoubleFanSpec(P4, 1, n, x_bits, y_bits)
                g, cover, expected = gen_double_fan(spec)
                size, _ = brute_min_deletion(g, p4_fam)
                assert expected == (size == 0), (x_bits, y_bits)
                assert g.is_cover(cover.members)


def test_criterion_09_enumeration_closed_forms():
    for n in range(7):
        universe = tuple(range(n))
        for k in range(7):
            at_most = list(subsets(universe, k, AT_MOST))
            assert len(at_most) == sum(comb(n, i) for i in range(k + 1))
            exactly = list(subsets(universe, k, EXACTLY))
            assert len(exactly) == comb(n, k)
    for n in range(6):
        perms = list(permutations(range(n)))
        assert len(perms) == factorial(n)
    # multiset totals against direct enumeration
    for caps in ((1, 2), (2, 2, 1), (3,)):
        classes = tuple((i, c) for i, c in enumerate(caps))
        for k in range(5):
            got = len(list(multisets(classes, k)))
            want = 0
            from itertools import product

            for counts in product(*(range(c + 1) for c in caps)):
                if sum(counts) <= k:
                    want += 1
            assert got == want


def test_criterion_10_stream_model_laws():
    rng = random.Random(42)
    all_graphs = atlas_graphs(1, 7, connected=False)
    for g in all_graphs:
        orders = [tuple(range(g.n)), tuple(reversed(range(g.n)))]
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        orders.append(tuple(shuffled))
        for order in orders:
            for model, mult in ((AL, 2), (EA, 1), (VA, 1)):
                h = make_stream(g, model, order)
                counts = {}
                for ev in h.events():
                    if ev.kind == EDGE:
                        counts[(ev.u, ev.v)] = counts.get((ev.u, ev.v), 0) + 1
                assert set(counts) == set(g.edges)
                assert all(c == mult for c in counts.values())
                assert list(h.events()) == list(h.events())  # replay determinism

    # filtered substream == stream of the induced subgraph
    def expected_filtered(g, model, order, keep):
        sub, old = g.induced(keep)
        back = dict(enumerate(old))
        fwd = {v: i for i, v in back.items()}
        rest = [fwd[v] for v in order if v in fwd]
        out = []
        for ev in make_stream(sub, model, rest).events():
            if ev.kind == EDGE:
                u, v = back[ev.u], back[ev.v]
                out.append((EDGE, min(u, v), max(u, v)))
            elif ev.kind == PASS_END:
                out.append((PASS_END, None, None))
            else:
                out.append((ev.kind, back[ev.u], None))
        return out

    for g in atlas_graphs(1, 5, connected=False):
        order = tuple(range(g.n))
        for model in (AL, EA, VA):
            h = make_stream(g, model, order)
            for mask in range(1 << g.n):
                keep = {v for v in range(g.n) if mask >> v & 1}
                got = [tuple(e) for e in filtered_substream(h, keep).events()]
                assert got == expected_filtered(g, model, order, keep)
    for g in atlas_graphs(6, 7, connected=False)[::7]:
        order = tuple(range(g.n))
        h = make_stream(g, AL, order)
        for _ in range(8):
            keep = {v for v in range(g.n) if rng.random() < 0.5}
            got = [tuple(e) for e in filtered_substream(h, keep).events()]
            assert got == expected_filtered(g, AL, order, keep)
