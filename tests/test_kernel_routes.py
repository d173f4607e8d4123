"""The kernel routes against the branching routes, past desk scale.

A kernel route solves exactly on a kernel graph, of `kernel_pifree` or of
the low-rank `kernel_by_rank` at c = 2 (c_pi for both P3 and K3):
`brute_min_deletion` when the kernel has at most `PI_FREE_LIMIT` vertices
(the brute refuses more), else the in-memory `solve_hfree_fpt` with the
cover carried over.  The branching routes run on the full instance: the
stream solver (`solve_cvd` for P3, `solve_pifree_explicit` for K3) and the
in-memory `solve_hfree_fpt`.  All must give the same verdict.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import planted_covers
from vcstream.brute import PI_FREE_LIMIT, brute_min_deletion
from vcstream.graph import VertexCover, complete_graph, path_graph
from vcstream.kernel_adjacency import kernel_pifree
from vcstream.kernel_lowrank import kernel_by_rank
from vcstream.properties import AdjacencyCharacterization, ExplicitFamily
from vcstream.solve_cvd import solve_cvd
from vcstream.solve_hfree import solve_hfree_fpt, solve_pifree_explicit
from vcstream.streams import AL, make_stream

CVD_CHAR = AdjacencyCharacterization(2, lambda k: 3, connected_only=True)
TRIANGLE_CHAR = AdjacencyCharacterization(2, lambda k: 3, connected_only=True)
P3_FAM = ExplicitFamily.from_graphs([path_graph(3)])
K3_FAM = ExplicitFamily.from_graphs([complete_graph(3)])


def _kernel_verdict(out, X, ell, fam) -> bool:
    kernel, old = out.kernel_graph()
    if kernel.n <= PI_FREE_LIMIT:
        return brute_min_deletion(kernel, fam)[0] <= ell
    new_id = {v: i for i, v in enumerate(old)}
    kernel_cover = VertexCover.validated(kernel, [new_id[x] for x in X.members])
    return solve_hfree_fpt(kernel, kernel_cover, ell, fam.members[0]).feasible


def _check_routes(case, ell, fam, kernel, stream_solver):
    g, X, order = case
    verdicts = {
        "kernel": _kernel_verdict(kernel(make_stream(g, AL, order), X, ell), X, ell, fam),
        "stream": stream_solver(make_stream(g, AL, order), X, ell).feasible,
        "in_memory": solve_hfree_fpt(g, X, ell, fam.members[0]).feasible,
    }
    if g.n <= PI_FREE_LIMIT:
        verdicts["brute"] = brute_min_deletion(g, fam)[0] <= ell
    assert len(set(verdicts.values())) == 1, verdicts


# half the draws at desk scale, where a single forced deletion decides
CASES = st.one_of(planted_covers(max_n=10, max_k=5), planted_covers(max_n=40, max_k=5))


@settings(max_examples=200, deadline=None)
@given(CASES, st.integers(0, 3))
def test_cvd_kernel_route_agrees_with_branching(case, ell):
    _check_routes(case, ell, P3_FAM, lambda h, X, ell: kernel_pifree(h, X, ell, CVD_CHAR),
                  lambda h, X, ell: solve_cvd(h, X, ell))


@settings(max_examples=200, deadline=None)
@given(CASES, st.integers(0, 3))
def test_triangle_kernel_route_agrees_with_branching(case, ell):
    _check_routes(case, ell, K3_FAM, lambda h, X, ell: kernel_pifree(h, X, ell, TRIANGLE_CHAR),
                  lambda h, X, ell: solve_pifree_explicit(h, X, ell, K3_FAM))


# the rank-c kernel at p(K) = 3 and c = 2, which is c_pi for both families: a
# triangle's outside vertex sees two cover vertices
def _rank_kernel(h, X, ell):
    return kernel_by_rank(h, X, ell, 3, 2)


@settings(max_examples=200, deadline=None)
@given(CASES, st.integers(0, 3))
def test_cvd_low_rank_route_agrees_with_branching(case, ell):
    _check_routes(case, ell, P3_FAM, _rank_kernel, lambda h, X, ell: solve_cvd(h, X, ell))


@settings(max_examples=200, deadline=None)
@given(CASES, st.integers(0, 3))
def test_triangle_low_rank_route_agrees_with_branching(case, ell):
    _check_routes(case, ell, K3_FAM, _rank_kernel,
                  lambda h, X, ell: solve_pifree_explicit(h, X, ell, K3_FAM))
