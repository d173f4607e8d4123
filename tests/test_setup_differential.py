"""The setup path from `.vcs` text to stream blocks, against a frozen copy of
its earlier form.

`parse_instance` used to check every edge line for range, self-loop and
duplicates before `Graph` checked the same edges again, and `make_stream`
sorted every block by a position key even for the identity order.  Now
`Graph` alone checks the edges and the identity order needs no key.  The
frozen copies below are that earlier path, verbatim but for names; on any
valid instance, whatever the order and orientation of its lines, both must
build the same graph, cover, blocks and events, and where one edge line is
spoiled both must raise the same exception class.
"""

from __future__ import annotations

import pytest
from corpus import planted_covers
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vcstream.errors import (
    BadParams,
    BadPermutation,
    DuplicateEdge,
    ParseError,
    VCStreamError,
)
from vcstream.graph import VertexCover, canonical_edge
from vcstream.instances import parse_instance
from vcstream.meters import PassMeter
from vcstream.streams import MODELS, StreamHandle, make_stream


class FrozenGraph:
    """`Graph.__init__` as it was, with the two methods the setup path reads."""

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
    cover = VertexCover.validated(graph, cover_ids)
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


def vcs_lines(g, cover, ell, rnd):
    """A `.vcs` text of (g, cover) with its edge and cover ids shuffled and
    each edge written in a random orientation."""
    edges = [(u, v) if rnd.random() < 0.5 else (v, u) for u, v in sorted(g.edges)]
    rnd.shuffle(edges)
    ids = list(cover.members)
    rnd.shuffle(ids)
    return ([f"p vcstream {g.n} {g.m} {cover.K} {ell}", "c shuffled",
             "x" + "".join(f" {x}" for x in ids)]
            + [f"e {u} {v}" for u, v in edges])


@settings(max_examples=80, deadline=None)
@given(planted_covers(max_n=60, max_k=5), st.randoms(use_true_random=False),
       st.integers(0, 3))
def test_setup_matches_frozen_path(case, rnd, ell):
    g0, cover0, order = case
    text = "\n".join(vcs_lines(g0, cover0, ell, rnd)) + "\n"
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


def spoil(lines, kind, rnd):
    """Replace one edge line of a valid text by a bad one of `kind`; the
    edge count stays as the header declares it."""
    edge_at = [i for i, ln in enumerate(lines) if ln.startswith("e ")]
    n = int(lines[0].split()[2])
    i = rnd.choice(edge_at)
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
    return lines[:i] + [bad] + lines[i + 1:]


SPOILS = ["self_loop", "negative", "at_n", "duplicate", "one_field", "three_fields",
          "non_integer"]


@settings(max_examples=80, deadline=None)
@given(planted_covers(max_n=30, max_k=5), st.randoms(use_true_random=False),
       st.sampled_from(SPOILS))
def test_spoiled_edge_raises_as_before(case, rnd, kind):
    g0, cover0, _ = case
    assume(g0.m >= 2)
    text = "\n".join(spoil(vcs_lines(g0, cover0, 1, rnd), kind, rnd)) + "\n"
    with pytest.raises(VCStreamError) as new:
        parse_instance(text)
    with pytest.raises(VCStreamError) as old:
        frozen_parse_instance(text)
    assert type(new.value) is type(old.value)

