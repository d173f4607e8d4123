"""The setup path from `.vcs` text to stream blocks, against frozen copies of
its earlier forms.

`parse_instance` used to check every edge line for range, self-loop and
duplicates before `Graph` checked the same edges again, and `make_stream`
sorted every block by a position key even for the identity order.  Then
`Graph` alone checked the edges, in file order, against a set of canonical
edges, and the cover check walked that set (`head_parse_instance` below).
Now `Graph` keeps one sorted neighbour tuple per vertex, finds a repeat as a
neighbour listed twice and only then rescans the edges in file order to name
the first bad one; the cover check reads the tuples, and the identity order
shares them as its blocks.  A file in the sorted layout that
`format_instance` writes has its edge block read in bulk, and its edges,
ascending with u < v, checked by C-level passes; the cover is checked by a
degree sum.  The frozen copies below are the earlier paths, verbatim but for
names; on any valid instance, whatever the order and orientation of its
lines, they must build the same graph, cover, blocks and events.  Where edge
lines are spoiled, the first path must raise the same exception class, and
the second the same class and message.
"""

from __future__ import annotations

from bisect import bisect_right

import pytest
from corpus import planted_covers
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vcstream.errors import (
    BadParams,
    BadPermutation,
    DuplicateEdge,
    InvalidCover,
    ParseError,
    VCStreamError,
)
from vcstream.graph import VertexCover, canonical_edge
from vcstream.instances import CHUNK, _edge_block, format_instance, parse_instance
from vcstream.meters import PassMeter
from vcstream.streams import MODELS, StreamHandle, make_stream


class FrozenGraph:
    """`Graph.__init__` as it was, with the two methods the setup path reads;
    its check loop is the one both earlier paths ran."""

    def __init__(self, n, edges=()):
        if n < 0:
            raise ParseError("negative vertex count")
        adj = [set() for _ in range(n)]
        canon = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex id out of range: ({u},{v})")
            if u == v:
                raise ParseError(f"self-loop at {u}")
            e = canonical_edge(u, v)
            if e in canon:
                raise DuplicateEdge(f"duplicate edge {e}")
            canon.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.edges = frozenset(canon)
        self._adj = tuple(frozenset(s) for s in adj)

    def neighbors(self, v):
        return self._adj[v]


def frozen_validated(g, members):
    """`VertexCover.validated` as it was: the first uncovered edge in the
    edge set's iteration order is named."""
    cover = VertexCover(tuple(members))
    for v in cover.members:
        if not 0 <= v < g.n:
            raise InvalidCover(f"cover vertex {v} out of range")
    s = cover.member_set()
    for u, v in g.edges:
        if u not in s and v not in s:
            raise InvalidCover(f"edge ({u},{v}) not covered")
    return cover


def frozen_parse_instance(text):
    """`parse_instance` as it was: every edge line checked here, then again
    by the graph.  Returns (graph, cover, ell, comments)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("p vcstream "):
        raise ParseError("missing 'p vcstream' header")
    head = lines[0].split()
    if len(head) != 6:
        raise ParseError(f"malformed header: {lines[0]!r}")
    try:
        n, m, k, ell = (int(t) for t in head[2:])
    except ValueError as exc:
        raise ParseError(f"non-integer header field: {lines[0]!r}") from exc
    if ell < 0:
        raise ParseError("budget must be non-negative")

    comments = []
    cover_ids = None
    edges = []
    seen = set()
    for ln in lines[1:]:
        tag, _, rest = ln.partition(" ")
        if tag == "c":
            comments.append(rest)
        elif tag == "x":
            if cover_ids is not None:
                raise ParseError("duplicate cover line")
            try:
                cover_ids = [int(t) for t in rest.split()]
            except ValueError as exc:
                raise ParseError(f"malformed cover line: {ln!r}") from exc
        elif tag == "e":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError(f"malformed edge line: {ln!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"malformed edge line: {ln!r}") from exc
            if u == v:
                raise ParseError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge endpoint out of range: {ln!r}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DuplicateEdge(f"duplicate edge {key}")
            seen.add(key)
            edges.append(key)
        else:
            raise ParseError(f"unknown line tag {tag!r}")
    if cover_ids is None:
        raise ParseError("missing cover line")
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    if len(cover_ids) != k:
        raise ParseError(f"header declares cover size {k}, found {len(cover_ids)}")
    graph = FrozenGraph(n, edges)
    cover = frozen_validated(graph, cover_ids)
    return graph, cover, ell, tuple(comments)


def head_parse_instance(text):
    """`parse_instance` as it was next: each edge line split and parsed on
    its own, every edge checked once, by the graph, in file order.  Returns
    (graph, cover, ell, comments)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("p vcstream "):
        raise ParseError("missing 'p vcstream' header")
    head = lines[0].split()
    if len(head) != 6:
        raise ParseError(f"malformed header: {lines[0]!r}")
    try:
        n, m, k, ell = (int(t) for t in head[2:])
    except ValueError as exc:
        raise ParseError(f"non-integer header field: {lines[0]!r}") from exc
    if ell < 0:
        raise ParseError("budget must be non-negative")

    comments = []
    cover_ids = None
    edges = []
    for ln in lines[1:]:
        tag, _, rest = ln.partition(" ")
        if tag == "e":
            try:
                u, v = rest.split()
                edges.append((int(u), int(v)))
            except ValueError as exc:
                raise ParseError(f"malformed edge line: {ln!r}") from exc
        elif tag == "c":
            comments.append(rest)
        elif tag == "x":
            if cover_ids is not None:
                raise ParseError("duplicate cover line")
            try:
                cover_ids = [int(t) for t in rest.split()]
            except ValueError as exc:
                raise ParseError(f"malformed cover line: {ln!r}") from exc
        else:
            raise ParseError(f"unknown line tag {tag!r}")
    if cover_ids is None:
        raise ParseError("missing cover line")
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    if len(cover_ids) != k:
        raise ParseError(f"header declares cover size {k}, found {len(cover_ids)}")
    seen = set()
    for x in cover_ids:
        if x in seen:
            raise ParseError(f"repeated cover vertex {x}")
        seen.add(x)
    graph = FrozenGraph(n, edges)
    cover = frozen_validated(graph, cover_ids)
    return graph, cover, ell, tuple(comments)


def frozen_make_stream(g, model, order=None):
    """`make_stream` as it was: every order, the identity too, checked and
    sorted by a position key."""
    order = tuple(order) if order is not None else tuple(range(g.n))
    if sorted(order) != list(range(g.n)):
        raise BadPermutation(f"order is not a permutation of 0..{g.n - 1}")
    if model not in MODELS:
        raise BadParams(f"unknown stream model {model!r}")
    pos = {v: i for i, v in enumerate(order)}
    blocks = {v: tuple(sorted(g.neighbors(v), key=pos.__getitem__)) for v in order}
    return StreamHandle(g, model, blocks, PassMeter())


LAYOUTS = ("shuffled", "sorted")


def vcs_lines(g, cover, ell, rnd, layout="shuffled"):
    """A `.vcs` text of (g, cover): in the sorted layout `format_instance`
    writes, or with its edge and cover ids shuffled and each edge written in a
    random orientation."""
    if layout == "sorted":
        return format_instance(g, cover, ell, ("sorted",)).splitlines()
    edges = [(u, v) if rnd.random() < 0.5 else (v, u) for u, v in sorted(g.edges)]
    rnd.shuffle(edges)
    ids = list(cover.members)
    rnd.shuffle(ids)
    return ([f"p vcstream {g.n} {g.m} {cover.K} {ell}", "c shuffled",
             "x" + "".join(f" {x}" for x in ids)]
            + [f"e {u} {v}" for u, v in edges])


@settings(max_examples=80, deadline=None)
@given(planted_covers(max_n=60, max_k=5), st.randoms(use_true_random=False),
       st.integers(0, 3), st.sampled_from(LAYOUTS))
def test_setup_matches_frozen_path(case, rnd, ell, layout):
    g0, cover0, order = case
    text = "\n".join(vcs_lines(g0, cover0, ell, rnd, layout)) + "\n"
    if layout == "sorted" and g0.m:  # the bulk read is the path under test
        assert list(zip(*_edge_block(text, text.index("\ne ") + 1))) == g0.sorted_edges()
    inst = parse_instance(text)
    old_graph, old_cover, old_ell, old_comments = frozen_parse_instance(text)
    g = inst.graph
    assert g.n == old_graph.n and g.edges == old_graph.edges
    assert all(g.neighbors(v) == old_graph.neighbors(v) for v in range(g.n))
    assert (inst.cover, inst.ell, inst.comments) == (old_cover, old_ell, old_comments)
    for stream_order in (None, order):
        for model in MODELS:
            h = make_stream(g, model, stream_order)
            old = frozen_make_stream(old_graph, model, stream_order)
            assert list(h.blocks.items()) == list(old.blocks.items())
            assert list(h.events()) == list(old.events())


def spoil(lines, kinds, rnd):
    """Replace one edge line of a valid text per entry of `kinds` by a bad
    one of that kind, at distinct lines; the edge count stays as the header
    declares it."""
    edge_at = [i for i, ln in enumerate(lines) if ln.startswith("e ")]
    n = int(lines[0].split()[2])
    out = list(lines)
    for i, kind in zip(rnd.sample(edge_at, len(kinds)), kinds):
        u, v = (int(t) for t in lines[i].split()[1:])
        if kind == "self_loop":
            bad = f"e {u} {u}"
        elif kind == "negative":
            bad = f"e {u} -1"
        elif kind == "at_n":
            bad = f"e {n} {v}"
        elif kind == "duplicate":
            other = lines[rnd.choice([j for j in edge_at if j != i])]
            a, b = other.split()[1:]
            bad = rnd.choice([f"e {a} {b}", f"e {b} {a}"])
        elif kind == "one_field":
            bad = f"e {u}"
        elif kind == "three_fields":
            bad = f"e {u} {v} {v}"
        else:
            bad = f"e {u} z"
        out[i] = bad
    return out


SPOILS = ["self_loop", "negative", "at_n", "duplicate", "one_field", "three_fields",
          "non_integer"]


@settings(max_examples=80, deadline=None)
@given(planted_covers(max_n=30, max_k=5), st.randoms(use_true_random=False),
       st.sampled_from(SPOILS))
def test_spoiled_edge_raises_as_before(case, rnd, kind):
    g0, cover0, _ = case
    assume(g0.m >= 2)
    text = "\n".join(spoil(vcs_lines(g0, cover0, 1, rnd), [kind], rnd)) + "\n"
    with pytest.raises(VCStreamError) as new:
        parse_instance(text)
    with pytest.raises(VCStreamError) as old:
        frozen_parse_instance(text)
    assert type(new.value) is type(old.value)


def same_outcome(text):
    """`parse_instance` and `head_parse_instance` on `text` either raise the
    same class with the same message or build the same instance."""
    try:
        old = head_parse_instance(text)
    except VCStreamError as exc:
        with pytest.raises(type(exc)) as new:
            parse_instance(text)
        assert type(new.value) is type(exc) and str(new.value) == str(exc)
        return
    inst = parse_instance(text)
    assert (inst.graph.n, inst.graph.edges) == (old[0].n, old[0].edges)
    assert (inst.cover, inst.ell, inst.comments) == old[1:]


@settings(max_examples=150, deadline=None)
@given(planted_covers(max_n=30, max_k=5), st.randoms(use_true_random=False),
       st.lists(st.sampled_from(SPOILS), min_size=1, max_size=3), st.sampled_from(LAYOUTS))
def test_spoiled_edges_raise_as_at_head(case, rnd, kinds, layout):
    """Up to three spoiled lines of any kinds, e.g. a repeat before a
    self-loop: the first bad line in file order is named, as before."""
    g0, cover0, _ = case
    assume(g0.m >= len(kinds) + 1)
    same_outcome("\n".join(spoil(vcs_lines(g0, cover0, 1, rnd, layout), kinds, rnd)) + "\n")


P3 = "p vcstream 3 2 1 1\nx 1\n"
S4 = "p vcstream 4 3 1 1\nx 1\n"
H2 = "p vcstream 6 2 2 1\nx 1 3\n"


@pytest.mark.parametrize("text", [
    P3 + "e  0 1\ne 1 2\n",  # two spaces after the tag
    P3 + "e 0 1 \ne 1 2\n",  # a trailing space
    P3 + "e 0\t1\ne 1 2\n",  # a tab between the ids
    P3 + "e\t0 1\ne 1 2\n",  # a tab after the tag: not an edge line
    P3 + "e\ne 1 2\n",  # a lone tag
    P3.replace("\n", "\r\n") + "e 0 1\r\ne 1 2\r\n",
    P3 + "e 0 1\n\n  \ne 1 2",  # blank lines, no final newline
    P3 + "e 0\ne 1 2 0\n",  # one id, then three
    P3 + "e 0 1\ne 1 +2\n",  # int() reads a sign
    P3 + "e 0 1\ne 1 2\ne 0 x\n",  # a malformed line past the declared count
    P3 + "e 0 x\ne 1 2\ne 0 1\n",  # ... before it
    P3 + "e 0\nq 1 2\n",  # a malformed edge line, then an unknown tag
    "p vcstream 3 2 1 1\ne 0 z\nx 1\nx 1\ne 1 2\n",  # ... then a second cover line
    "p vcstream 3 2 1 1\ne 0 1\ne 1 3\nx 1 1\n",  # out of range and a repeated cover id
    P3 + "e 1 0\ne 2 2\ne 0 1\n",  # wrong count and a self-loop
    "p vcstream 4 3 1 1\nx 1\ne 0 1\ne 1 0\ne 2 2\n",  # a repeat before a self-loop
    "p vcstream 4 3 1 1\nx 1\ne 0 1\ne 3 3\ne 1 0\n",  # a self-loop before a repeat
    "p vcstream 4 3 1 1\nx 1\ne 2 2\ne 0 4\ne 1 2\n",  # a self-loop before out of range
    "p vcstream 4 3 1 1\nx 1\ne 0 4\ne 2 2\ne 1 2\n",  # out of range before a self-loop
    "p vcstream 4 3 1 1\nx 1\ne 0 1\ne 0 -1\ne 1 0\n",  # negative before a repeat
    "p vcstream 3 2 1 1\nx 1\ne 0 1\ne 3 3\n",  # a self-loop out of range
    # sorted files that look canonical but are not
    S4 + "e 0 1\ne 0 1\ne 1 2\n",  # a repeated adjacent line
    S4 + "e 0 1\ne 1 3\ne 2 1\n",  # a sorted `e 2 1`
    S4 + "e 0 1\ne 1 2\ne 1 3\nc late\n",  # a comment after the edges
    "p vcstream 4 3 1 1\ne 0 1\ne 1 2\ne 1 3\nx 1\n",  # the cover line after them
    S4 + "e 0 1\n\ne 1 2\ne 1 3\n",  # a blank line inside the block
    S4 + "e 0 1\ne 1 2\ne 1 3",  # no final newline
    "p vcstream 4 2 1 1\nx 1\ne 0 1\ne 2\n3",  # ... after a line cut in two
    S4 + "e 0 1\ne\t1 2\ne 1 3\n",  # a tab after a later tag
    S4 + "e 0 1\ne1 2 3\ne 1 3\n",  # a tag run into an id: three tokens, one an `e1`
    S4 + "e 0 1\ne 1 2\ne 1e3\n",  # an `e` among the ids
    (S4 + "e 0 1\ne 1 2\ne 1 3\n").replace("\n", "\r\n"),
    S4 + "e 0 1\ne 01 2\ne 1 3\n",  # int() reads a leading zero
    S4 + "e 0 1\ne 1_0 2\ne 1 3\n",  # ... an underscore
    S4 + "e 0 1\ne +1 2\ne 1 3\n",  # ... a sign
    S4 + "e 0 1\ne \u0661 2\ne 1 3\n",  # ... a non-ASCII digit
    S4 + "e 0 1\ne 1 " + "2" * 5000 + "\ne 1 3\n",  # ... but not 5000 digits
    "p vcstream 4 2 1 1\nx 1\ne 0 1\ne 1 2 e 1\n3\n",  # three tokens a line, but not by line
    "x 1\ne 0 1\ne 1 2\n",  # no header before the edges
    # sorted files that pass the bulk read's byte tests, or fail only one
    H2 + "e 1 2\n5e 3 4\n",  # a digit before a later line's tag
    H2 + "e 1 2\ne3 4 5\n",  # a later tag run into an id
    H2 + "e 1 \n2e 3 4\n",  # an empty id, its digit moved before the next tag
    H2 + "e 1 2\ne 3 4\n5",  # a digit after the last newline
    H2 + "e 1 2\ne 3 \n4",  # ... the last id, moved past it
    H2 + "e 1 2\ne 3 4\n56\n",  # ... and a line of digits
    H2 + "e  2\ne 3 4\n",  # an empty id
    H2 + "e 1 2\ne 3 \n",  # ... the second one
    H2 + "e 01 2\ne 3 4\n",  # a leading zero: JSON refuses it, int() reads it
    "p vcstream 6 2 2 1\nx 0 3\ne 00 1\ne 3 4\n",  # ... a zero written twice
    H2 + "e 1 2 \ne 3 4\n",  # a trailing space
    H2 + "e 1\t2\ne 3 4\n",  # a tab between the ids
    H2 + "e 1 " + "2" * 4301 + "\ne 3 4\n",  # an id one digit past int()'s limit
    H2 + "e 1E3 2\ne 3 4\n",  # JSON reads an exponent
    H2 + "e -1 2\ne 3 4\n",  # ... a sign
    H2 + "e NaN 2\ne 3 4\n",  # ... NaN
    H2 + "e Infinity 2\ne 3 4\n",  # ... Infinity
])
def test_edge_line_variants_as_at_head(text):
    same_outcome(text)


@settings(max_examples=400, deadline=None)
@given(planted_covers(max_n=12, max_k=3), st.lists(
    st.tuples(st.floats(0, 1, exclude_max=True),
              st.sampled_from("0123456789 e\n") | st.sampled_from([-3, -2, -1, 1, 2, 3])),
    min_size=1, max_size=3))
def test_edited_edge_block_as_at_head(case, edits):
    """A sorted-layout text with up to three edits in its edge block, each a
    byte inserted (a digit, space, tag or newline) or one moved up to three
    places: so an id's digits may cross a separator, a tag or a line end."""
    g0, cover0, _ = case
    text = format_instance(g0, cover0, 1)
    start = text.find("\ne ") + 1
    assume(start)
    for at, edit in edits:
        i = start + int(at * (len(text) - start))
        if isinstance(edit, int):  # move text[i] by `edit` places
            edit, text, i = text[i:i + 1], text[:i] + text[i + 1:], max(start, i + edit)
        text = text[:i] + edit + text[i:]
    same_outcome(text)


def big_sorted_text():
    """A sorted-layout star whose edge lines, all ten bytes long, span three
    chunks of the bulk read."""
    text = "p vcstream 30000 20000 1 0\nx 0\n" + "".join(
        f"e 0 {v}\n" for v in range(10000, 30000))
    start = text.index("\ne ") + 1
    assert len(text) - start > 2 * CHUNK
    return text, start


# Each spoil keeps the line's length, so the chunks keep their bounds.
CHUNK_SPOILS = {
    "non_integer": lambda ln, prev: ln[:-2] + "x" + ln[-1],
    "three_fields": lambda ln, prev: ln[:-2] + " " + ln[-1],
    "one_field": lambda ln, prev: "e " + ln[4:] + "00",
    "duplicate": lambda ln, prev: prev,
    "self_loop": lambda ln, prev: "e 1 00001",
    "at_n": lambda ln, prev: "e 0 99999",
    "negative": lambda ln, prev: ln[:4] + "-" + ln[5:],
    "reversed": lambda ln, prev: f"e {ln[4:]} 0",  # valid, but not ascending
    "cover_line": lambda ln, prev: "x" + ln[1:],
    "leading_space": lambda ln, prev: " " + ln[:-1],
    "tag_run_into_id": lambda ln, prev: "e" + ln[4:6] + " 0 " + ln[6:],  # `e12 0 345`
    "digits_before_tag": lambda ln, prev: ln[4:7] + "e 0 " + ln[7:],  # `123e 0 45`
}


@pytest.mark.parametrize("where", ["chunk_end", "chunk_start", "later_chunk"])
@pytest.mark.parametrize("kind", sorted(CHUNK_SPOILS))
def test_spoiled_line_in_a_later_chunk_as_at_head(kind, where):
    """A block of three chunks with one line spoiled: the last line of the
    first chunk, the first of the second, or one inside the third."""
    text, start = big_sorted_text()
    line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"][:-1]
    end = text.index("\n", start + CHUNK)  # the first chunk ends with this newline
    at = {"chunk_end": bisect_right(line_starts, end) - 1,
          "chunk_start": bisect_right(line_starts, end),
          "later_chunk": bisect_right(line_starts, start + 2 * CHUNK) + 100}[where]
    lines = text.splitlines()
    bad = CHUNK_SPOILS[kind](lines[at], lines[at - 1])
    assert len(bad) == len(lines[at]) and bad != lines[at]
    lines[at] = bad
    same_outcome("\n".join(lines) + "\n")


def test_block_of_several_chunks_is_read_in_bulk():
    text, start = big_sorted_text()
    assert list(zip(*_edge_block(text, start))) == [(0, v) for v in range(10000, 30000)]
    same_outcome(text)
