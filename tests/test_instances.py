import gc
import random
import re

import pytest
from corpus import BAD_INSTANCES, planted_covers
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcstream.brute import brute_min_deletion
from vcstream.errors import (
    BadParams,
    DuplicateEdge,
    HTooSmall,
    InvalidCover,
    NotDegreeTwo,
    ParseError,
)
from vcstream.graph import Graph, VertexCover, cycle_graph, path_graph
from vcstream.instances import (
    DoubleFanSpec,
    PlantedSpec,
    format_family,
    format_instance,
    gen_double_fan,
    gen_planted,
    load_family,
    load_instance,
    parse_family,
    parse_instance,
    write_instance,
)
from vcstream.properties import ExplicitFamily, PatternGraph


def test_round_trip_smallest():
    g = path_graph(3)
    cover = VertexCover.validated(g, [1])
    text = format_instance(g, cover, 1, ["note"])
    inst = parse_instance(text)
    assert inst.graph == g and inst.cover.members == (1,) and inst.ell == 1
    assert format_instance(inst.graph, inst.cover, inst.ell, inst.comments) == text


@pytest.mark.parametrize("load", [load_instance, load_family], ids=["vcs", "fam"])
def test_non_utf8_file_is_parse_error(tmp_path, load):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ParseError, match="not UTF-8"):
        load(path)


def test_line_ends_reach_the_parser(tmp_path):
    """Files are read as bytes, so CRLF and CR line ends reach `parse_instance`
    as written; it reads them line by line to the same instance."""
    g, cover = gen_planted(PlantedSpec(30, 4, 0.3, 5))
    text = format_instance(g, cover, 1, ["line ends"])
    path = tmp_path / "ends.vcs"
    for end in ("\r\n", "\r"):
        path.write_bytes(text.replace("\n", end).encode())
        assert load_instance(path) == parse_instance(text)


def test_round_trip_file(tmp_path):
    g, cover = gen_planted(PlantedSpec(200, 8, 0.2, 123))
    path = tmp_path / "big.vcs"
    write_instance(g, cover, 3, path, ["seed=123"])
    inst = load_instance(path)
    reread = format_instance(inst.graph, inst.cover, inst.ell, inst.comments)
    assert reread == path.read_text()


def test_parse_errors():
    for _case, text, error, message in BAD_INSTANCES:
        with pytest.raises(error, match=re.escape(message)):
            parse_instance(text)


SORTED_P3 = "p vcstream 3 2 1 1\nx 1\ne 0 1\ne 1 2\n"
# a comment line among the edges sends the file to the line loop, and the
# edges out of order to Graph's edge-by-edge checks
LINE_LOOP_P3 = "p vcstream 3 2 1 1\nx 1\ne 1 2\nc between\ne 1 0\n"


@pytest.fixture
def collector_state():
    """Put the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("text, error", [
    (SORTED_P3, None),
    (LINE_LOOP_P3, None),
    ("x 1\ne 0 1\ne 1 2\n", ParseError),
    ("p vcstream 3 2 1 1\nx 1\ne 0 1\ne 1 0\n", DuplicateEdge),
    ("p vcstream 3 2 1 1\nx 0\ne 0 1\ne 1 2\n", InvalidCover),
], ids=["sorted", "line-loop", "no-header", "duplicate-edge", "uncovered"])
def test_parse_leaves_the_collector_as_it_found_it(collector_state, text, error, enabled):
    (gc.enable if enabled else gc.disable)()
    if error is None:
        assert parse_instance(text).graph == path_graph(3)
    else:
        with pytest.raises(error):
            parse_instance(text)
    assert gc.isenabled() is enabled


@pytest.fixture(scope="module")
def big_text():
    """A 20000-vertex instance in the sorted layout."""
    return format_instance(*gen_planted(PlantedSpec(20000, 6, 0.3, 1)), 2)


def test_parse_runs_no_collection(collector_state, big_text):
    runs = []

    def count(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    gc.enable()
    gc.callbacks.append(count)
    try:
        parse_instance(big_text)
        inside = len(runs)
    finally:
        gc.callbacks.remove(count)
    assert inside == 0


def test_parse_makes_no_cycle(collector_state, big_text):
    # what makes the paused collector safe: with it off, all that a parse
    # made, kept or raised is freed by reference counts alone
    gc.disable()
    gc.collect()
    for text in (big_text, LINE_LOOP_P3):
        parse_instance(text)  # the instance is dropped at once
        assert gc.collect() == 0
    try:
        parse_instance("p vcstream 3 2 1 1\nx 0\ne 0 1\ne 1 2\n")
    except InvalidCover:
        pass
    assert gc.collect() == 0


def test_write_refuses_uncovered():
    g = path_graph(3)
    with pytest.raises(InvalidCover):
        format_instance(g, VertexCover((0,)), 0)


def test_planted_properties():
    g, cover = gen_planted(PlantedSpec(5, 0, 0.9, 1))
    assert g.m == 0
    g, cover = gen_planted(PlantedSpec(5, 5, 0.5, 1))
    assert cover.K == 5
    a = gen_planted(PlantedSpec(30, 6, 0.4, 99))
    b = gen_planted(PlantedSpec(30, 6, 0.4, 99))
    assert format_instance(a[0], a[1], 2) == format_instance(b[0], b[1], 2)
    g, cover = gen_planted(PlantedSpec(30, 6, 0.4, 7))
    members = cover.member_set()
    for u, v in g.edges:
        assert u in members or v in members
    with pytest.raises(BadParams):
        gen_planted(PlantedSpec(4, 5, 0.5, 0))


def planted_by_pair_scan(spec: PlantedSpec):
    """The O(n^2) loop `gen_planted` used to run, frozen: one draw for each
    pair u < v that touches the cover, in (u, v) order."""
    rng = random.Random(spec.seed)
    members = tuple(sorted(rng.sample(range(spec.n), spec.k)))
    member_set = set(members)
    edges = []
    for u in range(spec.n):
        for v in range(u + 1, spec.n):
            if (u in member_set or v in member_set) and rng.random() < spec.edge_prob:
                edges.append((u, v))
    g = Graph(spec.n, edges)
    return g, VertexCover.validated(g, members)


planted_specs = st.integers(0, 60).flatmap(lambda n: st.builds(
    PlantedSpec, st.just(n), st.integers(0, n), st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    st.integers(0, 2**32)))


@settings(max_examples=60, deadline=None)
@given(planted_specs)
@example(PlantedSpec(10, 2, 0.9, 1))
@example(PlantedSpec(200, 8, 0.2, 123))
@example(PlantedSpec(50, 50, 0.5, 3))  # k = n
@example(PlantedSpec(30, 0, 0.5, 2))  # k = 0
@example(PlantedSpec(40, 5, 0.0, 4))  # p = 0
@example(PlantedSpec(40, 5, 1.0, 5))  # p = 1
@example(PlantedSpec(1, 1, 1.0, 0))
@example(PlantedSpec(0, 0, 0.5, 0))
def test_planted_matches_pair_scan(spec):
    want = planted_by_pair_scan(spec)
    assert format_instance(*gen_planted(spec), 2) == format_instance(*want, 2)


def p4_pattern():
    return PatternGraph(path_graph(4), "p4")


def test_double_fan_examples():
    spec = DoubleFanSpec(p4_pattern(), 1, 3, "101", "010")
    g, cover, expected = gen_double_fan(spec)
    assert expected is True
    assert brute_min_deletion(g, ExplicitFamily.from_graphs([path_graph(4)]))[0] == 0

    overlap = DoubleFanSpec(p4_pattern(), 1, 3, "101", "100")
    g, cover, expected = gen_double_fan(overlap)
    assert expected is False
    assert brute_min_deletion(g, ExplicitFamily.from_graphs([path_graph(4)]))[0] > 0

    zeros = DoubleFanSpec(p4_pattern(), 1, 4, "0000", "1111")
    _, _, expected = gen_double_fan(zeros)
    assert expected is True


def test_double_fan_cover_size():
    from vcstream.graph import minimum_vertex_cover

    spec = DoubleFanSpec(p4_pattern(), 1, 4, "1010", "0101")
    g, cover, _ = gen_double_fan(spec)
    assert cover.K <= len(minimum_vertex_cover(path_graph(4))) + 1


def test_double_fan_errors():
    with pytest.raises(NotDegreeTwo):
        gen_double_fan(DoubleFanSpec(p4_pattern(), 0, 3, "101", "010"))  # degree 1
    tri = PatternGraph(cycle_graph(3))
    with pytest.raises(HTooSmall):
        gen_double_fan(DoubleFanSpec(PatternGraph(path_graph(3)), 1, 2, "10", "01"))
    # C3 has 3 edges and all degree-2 vertices: allowed
    g, cover, _ = gen_double_fan(DoubleFanSpec(tri, 0, 2, "11", "00"))
    assert g.n == 2 + 2
    with pytest.raises(BadParams):
        gen_double_fan(DoubleFanSpec(p4_pattern(), 1, 3, "10", "010"))


def test_attach_all_neighbors_variant():
    # split a degree-3 vertex: the extra neighbour attaches to every center
    claw_plus = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    spec = DoubleFanSpec(PatternGraph(claw_plus), 0, 2, "10", "01",
                         attach_all_neighbors=True)
    g, cover, _ = gen_double_fan(spec)
    centers = [3, 4]
    third = 2  # vertex 3 of the pattern, relabelled
    assert all(g.has_edge(third, c) for c in centers)
    with pytest.raises(NotDegreeTwo):
        gen_double_fan(DoubleFanSpec(PatternGraph(claw_plus), 0, 2, "10", "01"))


def test_double_fan_c4_pendant_all_pairs():
    # C4 with a pendant, split at a degree-2 cycle vertex; every bit pair
    pattern = PatternGraph(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]))
    fam = ExplicitFamily.from_graphs([pattern.graph])
    n = 3
    for xm in range(1 << n):
        for ym in range(1 << n):
            x_bits = format(xm, f"0{n}b")
            y_bits = format(ym, f"0{n}b")
            g, cover, expected = gen_double_fan(
                DoubleFanSpec(pattern, 2, n, x_bits, y_bits)
            )
            assert g.is_cover(cover.members)
            size, _ = brute_min_deletion(g, fam)
            assert expected == (size == 0), (x_bits, y_bits)


def test_family_round_trip():
    f = ExplicitFamily.from_graphs([path_graph(3), cycle_graph(4)])
    text = format_family(f)
    back = parse_family(text)
    assert back.q == 2 and back.nu == 4
    with pytest.raises(ParseError):
        parse_family("e 0 1\n")


@pytest.mark.parametrize("comment", ["c two patterns", "c", "c   "])
def test_family_comment_lines(comment):
    f = ExplicitFamily.from_graphs([path_graph(3), cycle_graph(4)])
    head, *rest = format_family(f).splitlines()
    back = parse_family("\n".join([comment, head, comment, *rest, comment]) + "\n")
    assert format_family(back) == format_family(f)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_round_trip_random(data):
    n = data.draw(st.integers(1, 8))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(data.draw(st.sets(st.sampled_from(possible))) if possible else [])
    g = Graph(n, edges)
    members = sorted({u for u, _ in edges} | set(data.draw(st.sets(st.integers(0, n - 1)))))
    if not g.is_cover(members):
        members = sorted(set(range(n)))
    cover = VertexCover.validated(g, members)
    ell = data.draw(st.integers(0, n))
    text = format_instance(g, cover, ell)
    inst = parse_instance(text)
    assert format_instance(inst.graph, inst.cover, inst.ell) == text


def fstring_instance(g, cover, ell, comments=()):
    """`format_instance` as it was: one f-string per edge line."""
    lines = [f"p vcstream {g.n} {g.m} {cover.K} {ell}"]
    lines.extend(f"c {c}" for c in comments)
    lines.append("x" + "".join(f" {v}" for v in cover.members))
    lines.extend(f"e {u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(planted_covers(max_n=60, max_k=6), st.integers(0, 3),
       st.lists(st.text(st.characters(blacklist_categories=("Cs", "Cc")) | st.sampled_from("%d"),
                        max_size=8), max_size=2))
def test_edge_lines_formatted_as_per_edge_strings(case, ell, comments):
    g, cover, _ = case
    for notes in ((), comments):
        assert format_instance(g, cover, ell, notes) == fstring_instance(g, cover, ell, notes)
