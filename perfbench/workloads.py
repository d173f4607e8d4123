"""The benchmark's workloads: instance shapes, jobs, twin groups and the
independent checks of every outcome.

Each job calls the public sequence that `vcstream solve` and `vcstream
kernelize` use: `instances.load_instance` -> `streams.make_stream(AL)` ->
one solver or kernel, with a fresh `MemoryMeter`.  The shape seeds were
picked from a scan of seeds 0-59 for a mix of verdicts at about one second
a round; BENCHMARK.json says why each workload is there, and golden.json
records every job's outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from vcstream.graph import Graph, VertexCover
from vcstream.instances import parse_family
from vcstream.kernel_adjacency import kernel_pifree, reduce_in_memory
from vcstream.kernel_lowrank import low_rank_reduce_in_memory, low_rank_reduce_str
from vcstream.properties import (
    AdjacencyCharacterization,
    family_oracle,
    is_induced_subgraph,
)
from vcstream.solve_cvd import solve_cvd
from vcstream.solve_hfree import solve_hfree_stream, solve_pifree_explicit
from vcstream.solve_oct import solve_oct, solve_oct_cc
from vcstream.solve_oracle import solve_equivclass_enum, solve_with_a1, solve_with_a2

from gen import Planted, Shape

# Family files in the CLI's `.fam` text format.
P3_FAM = "h 3 2\ne 0 1\ne 1 2\n"
P4_C4_FAM = "h 4 3\ne 0 1\ne 1 2\ne 2 3\nh 4 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n"

LOWRANK_ELL = 3
# The (c_pi, p) pair `vcstream bench` uses for its reduce_str row.
KERNEL_CPI, KERNEL_P = 2, 3


@dataclass(frozen=True)
class InstanceSpec:
    name: str
    shape: Shape
    jobs: tuple[str, ...]  # run and timed in every round
    check_jobs: tuple[str, ...] = ()  # run once per run, untimed, as NO twins


# a2 does not run on "yes": a YES makes it call the oracle on every outside
# subset of size <= 4, about 60k passes.
WORKLOADS = {
    "scan-large": (
        InstanceSpec("L", Shape(10000, 6, 0.3, 2, 44),
                     ("oct_cc", "cvd", "cvd_cache"), ("p3",)),
        InstanceSpec("M", Shape(600, 6, 0.3, 2, 13), ("oct", "oct_cc", "cvd", "p3")),
    ),
    "branch-small": (
        InstanceSpec("no", Shape(40, 4, 0.15, 2, 28), ("a1", "a2", "ecenum", "pifree")),
        InstanceSpec("yes", Shape(40, 4, 0.15, 2, 34), ("a1", "ecenum", "pifree")),
    ),
    "kernel-onepass": (
        InstanceSpec("K8", Shape(5000, 8, 0.3, 2, 0),
                     ("kernel_pifree", "lowrank_c1", "lowrank_c2")),
    ),
}


@dataclass(frozen=True)
class Job:
    layer: str  # the vcstream module the call goes into
    run: Callable  # (handle, instance, meter, families) -> SolveOutcome | KernelOutput
    check: str  # independent check of a YES/kernel answer


def _char() -> AdjacencyCharacterization:
    return AdjacencyCharacterization(KERNEL_CPI, lambda _k: KERNEL_P, connected_only=True)


JOBS = {
    "oct": Job("solve_oct", lambda h, i, m, f: solve_oct(h, i.cover, i.ell, m), "bipartite"),
    "oct_cc": Job("solve_oct", lambda h, i, m, f: solve_oct_cc(h, i.cover, i.ell, m),
                  "bipartite"),
    "cvd": Job("solve_cvd", lambda h, i, m, f: solve_cvd(h, i.cover, i.ell, m), "cluster"),
    "cvd_cache": Job("solve_cvd",
                     lambda h, i, m, f: solve_cvd(h, i.cover, i.ell, m, cache_cover=True),
                     "cluster"),
    "p3": Job("solve_hfree",
              lambda h, i, m, f: solve_hfree_stream(h, i.cover, i.ell, f["p3"].members[0], m),
              "cluster"),
    "a1": Job("solve_oracle",
              lambda h, i, m, f: solve_with_a1(h, i.cover, i.ell, f["p4c4"].nu,
                                               family_oracle(f["p4c4"], "a1"), m),
              "p4c4_free"),
    "a2": Job("solve_oracle",
              lambda h, i, m, f: solve_with_a2(h, i.cover, i.ell, f["p4c4"].nu,
                                               family_oracle(f["p4c4"], "a2"), "plain", m),
              "p4c4_free"),
    "ecenum": Job("solve_oracle",
                  lambda h, i, m, f: solve_equivclass_enum(h, i.cover,
                                                           family_oracle(f["p4c4"], "a2"),
                                                           i.ell, m),
                  "p4c4_free"),
    "pifree": Job("solve_hfree",
                  lambda h, i, m, f: solve_pifree_explicit(h, i.cover, i.ell, f["p4c4"],
                                                           None, m),
                  "p4c4_free"),
    "kernel_pifree": Job("kernel_adjacency",
                         lambda h, i, m, f: kernel_pifree(h, i.cover, i.ell, _char(), m),
                         "reduce_ref"),
    "lowrank_c1": Job("kernel_lowrank",
                      lambda h, i, m, f: low_rank_reduce_str(h, i.cover, LOWRANK_ELL, 1, m),
                      "lowrank_ref"),
    "lowrank_c2": Job("kernel_lowrank",
                      lambda h, i, m, f: low_rank_reduce_str(h, i.cover, LOWRANK_ELL, 2, m),
                      "lowrank_ref"),
}

# Jobs on one instance that decide the same question; their verdicts must agree.
TWINS = (("oct", "oct_cc"), ("cvd", "cvd_cache", "p3"), ("a1", "a2", "ecenum", "pifree"))


def families() -> dict:
    return {"p3": parse_family(P3_FAM), "p4c4": parse_family(P4_C4_FAM)}


def summarize(out) -> tuple[list, tuple[int, ...]]:
    """Golden row [verdict, |solution|, passes, peak_words] and the solution;
    a kernel's "solution" is its kept vertex set."""
    if hasattr(out, "kept_vertices"):
        return ["KERNEL", len(out.kept_vertices), out.passes, out.peak_words], out.kept_vertices
    return [out.verdict, len(out.solution), out.passes, out.peak_words], out.solution


def _residual_adj(p: Planted, removed) -> dict[int, set[int]]:
    gone = set(removed)
    adj = {v: set() for v in range(p.n) if v not in gone}
    for u, v in p.edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _bipartite(adj) -> bool:
    side: dict[int, int] = {}
    for root in adj:
        if root in side:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def _cluster(adj) -> bool:
    """Every vertex's closed neighbourhood equals each neighbour's."""
    return all(adj[v] | {v} == adj[w] | {w} for v in adj for w in adj[v])


def _p4c4_free(adj, fams) -> bool:
    ids = {v: i for i, v in enumerate(adj)}
    g = Graph(len(ids), [(ids[u], ids[v]) for u in adj for v in adj[u] if u < v])
    return not any(is_induced_subgraph(g, pat) for pat in fams["p4c4"].members)


def check_instance(p: Planted, outcomes: dict, fams) -> list[str]:
    """Check one instance's outcomes (job -> outcome) independently of the
    golden table: each answer on its own, then the twins against each other.
    Returns what failed."""
    failures, verdicts = [], {}
    for job, out in outcomes.items():
        row, solution = summarize(out)
        verdicts[job] = row[0]
        if not _answer_holds(job, p, row[0], solution, fams):
            failures.append(f"{job}: {row[0]} answer fails its independent check")
    for group in TWINS:
        seen = {j: verdicts[j] for j in group if j in verdicts}
        if len(set(seen.values())) > 1:
            failures.append(f"twin verdicts disagree: {seen}")
    return failures


def _answer_holds(job: str, p: Planted, verdict: str, solution, fams) -> bool:
    """NO answers are left to the twins."""
    kind = JOBS[job].check
    if kind in ("reduce_ref", "lowrank_ref"):
        g = Graph(p.n, p.edges)
        cover = VertexCover.validated(g, p.cover)
        if kind == "reduce_ref":
            ref = reduce_in_memory(g, cover, p.ell + KERNEL_P, KERNEL_CPI)
        else:
            ref = low_rank_reduce_in_memory(g, cover, LOWRANK_ELL, int(job[-1]))
        return tuple(solution) == ref
    if verdict != "YES":
        return True
    if len(solution) > p.ell:
        return False
    adj = _residual_adj(p, solution)
    if kind == "bipartite":
        return _bipartite(adj)
    if kind == "cluster":
        return _cluster(adj)
    return _p4c4_free(adj, fams)
