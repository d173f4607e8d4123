import pytest

from vcstream.errors import InvalidCover, NotALModel
from vcstream.graph import VertexCover, cycle_graph, path_graph
from vcstream.kernel_adjacency import reduce_str
from vcstream.kernel_lowrank import low_rank_reduce_str
from vcstream.properties import ExplicitFamily, family_oracle
from vcstream.solve_cvd import solve_cvd
from vcstream.solve_hfree import solve_pifree_explicit
from vcstream.solve_oct import solve_oct, solve_oct_cc
from vcstream.solve_oracle import solve_equivclass_enum, solve_with_a1, solve_with_a2
from vcstream.streams import AL, EA, VA, make_stream

P3_FAM = ExplicitFamily.from_graphs([path_graph(3)])

SOLVERS = {
    "solve_cvd": lambda h, X: solve_cvd(h, X, 1),
    "solve_oct": lambda h, X: solve_oct(h, X, 1),
    "solve_oct_cc": lambda h, X: solve_oct_cc(h, X, 1),
    "solve_pifree_explicit": lambda h, X: solve_pifree_explicit(h, X, 1, P3_FAM),
    "solve_with_a1": lambda h, X: solve_with_a1(h, X, 1, 3, family_oracle(P3_FAM, "a1")),
    "solve_with_a2": lambda h, X: solve_with_a2(h, X, 1, 3, family_oracle(P3_FAM, "a2")),
    "solve_equivclass_enum":
        lambda h, X: solve_equivclass_enum(h, X, family_oracle(P3_FAM, "a2"), 1),
}


@pytest.mark.parametrize("name", SOLVERS)
def test_solver_preconditions(name):
    """Every branching solver rejects EA/VA streams before its first pass and
    a cover that misses an edge."""
    solve = SOLVERS[name]
    g = cycle_graph(4)
    for model in (EA, VA):
        h = make_stream(g, model)
        with pytest.raises(NotALModel):
            solve(h, VertexCover.validated(g, [0, 2]))
        assert h.pass_meter.passes == 0
    h = make_stream(g, AL)
    with pytest.raises(InvalidCover):
        solve(h, VertexCover((0,)))
    assert h.pass_meter.passes == 0


CHECKED = {
    **SOLVERS,
    "reduce_str": lambda h, X: reduce_str(h, X, 1, 1),
    "low_rank_reduce_str": lambda h, X: low_rank_reduce_str(h, X, 1, 1),
}


@pytest.mark.parametrize("name", CHECKED)
@pytest.mark.parametrize("prime", ["fresh", "index", "other_index"])
def test_cover_check_sees_edge_between_outside_vertices(name, prime):
    """X = {1} misses only P4's edge (2, 3), whose ends are both outside X.
    Every AL solver and both streaming kernels reject it before a pass, also
    when the handle already holds a class index of X or of a different
    member set."""
    g = path_graph(4)
    X = VertexCover((1,))
    h = make_stream(g, AL)
    if prime == "index":
        assert not h.class_index(X.members).covers
    elif prime == "other_index":
        assert h.class_index((1, 2)).covers
    with pytest.raises(InvalidCover, match="X does not cover the graph"):
        CHECKED[name](h, X)
    assert h.pass_meter.passes == 0
    # the check follows the index's key back to a cover
    CHECKED[name](h, VertexCover((1, 2)))
