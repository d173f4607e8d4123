"""Instance and family file I/O plus generators: planted covers and the
two-fan disjointness gadget.

An instance file in the sorted layout that `format_instance` writes, where
every line from the first edge line on is `e <id> <id>`, has its edge block
read into two id columns, a 64 KB chunk at a time: byte tests check each
chunk's lines and one `json.loads` parses its ids, with no tuple per edge.
Any other layout, or an id JSON refuses (a leading zero), is read line by
line.  Both give the same instance, or the same error naming the same line.
A parse runs with the cyclic garbage collector paused: it makes no reference
cycle, so a collection during it could free nothing."""

from __future__ import annotations

import gc
import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    BadParams,
    HTooSmall,
    NotDegreeTwo,
    ParseError,
)
from .graph import EdgeColumns, Graph, VertexCover, minimum_vertex_cover
from .properties import ExplicitFamily, PatternGraph

HEADER_TAG = "p vcstream"


@dataclass(frozen=True)
class Instance:
    graph: Graph
    cover: VertexCover
    ell: int
    comments: tuple[str, ...] = ()


def format_instance(g: Graph, cover: VertexCover, ell: int, comments=()) -> str:
    """Canonical text form: header, comments, cover line, sorted edge lines.
    The edge lines are one `%` format over the flat ids, not a string each."""
    VertexCover.validated(g, cover.members)
    lines = [f"{HEADER_TAG} {g.n} {g.m} {cover.K} {ell}"]
    lines.extend(f"c {c}" for c in comments)
    lines.append("x" + "".join(f" {v}" for v in cover.members))
    ids = tuple([x for u, nbrs in enumerate(g.nbrs) for v in nbrs if u < v for x in (u, v)])
    return "\n".join(lines) + "\n" + "e %d %d\n" * g.m % ids


# The ASCII digits, which the edge block's byte test deletes; the table that
# turns its spaces into commas and its tags and newlines into JSON whitespace;
# its chunk length.
DIGITS = b"0123456789"
JSON_IDS = bytes.maketrans(b" e\n", b",  ")
CHUNK = 1 << 16


def _edge_block(text: str, start: int) -> EdgeColumns | None:
    """The edges of `text[start:]` as id columns when each of its lines is
    `e <id> <id>`, the ids plain JSON integers of ASCII digits, and ends in a
    newline; else None.  Read in chunks of whole lines: each is checked by
    C-level byte tests and its ids parsed by one `json.loads`, so no token
    or tuple is built per edge."""
    us: list[int] = []
    vs: list[int] = []
    while start < len(text):
        stop = text.find("\n", start + CHUNK) + 1 or len(text)
        chunk = text[start:stop].encode()
        start = stop
        # The chunk starts `e ` and ends with a newline, every newline but
        # the last is followed by `e `, and with the digits gone each line is
        # `e  \n`: so each line is `e <digits> <digits>\n`.  JSON refuses an
        # empty id and a leading zero.
        lines = chunk.count(b"\n")
        if (chunk[:2] != b"e " or chunk[-1:] != b"\n" or chunk.count(b"\ne ") != lines - 1
                or chunk.translate(None, DIGITS) != b"e  \n" * lines):
            return None
        try:  # also a ValueError: an id past int()'s digit limit
            ids = json.loads(b"[" + chunk[2:].translate(JSON_IDS) + b"]")
        except ValueError:
            return None
        us += ids[::2]
        vs += ids[1::2]
    return EdgeColumns(us, vs)


def parse_instance(text: str) -> Instance:
    """The instance a `.vcs` text holds, with every edge and the cover
    checked; ParseError (or DuplicateEdge, InvalidCover) names the first
    fault.  The cyclic garbage collector is paused for the whole parse and
    switched back on afterwards only if it was on, also when the parse
    raises.  A parse makes only strings, and lists, tuples and dicts of ints,
    so it makes no cycle and a collection during it could free nothing; yet
    the neighbour lists and tuples `Graph` makes would set off a young
    collection every 700 or so containers, each walking what the parse holds
    (26 on a 10000-vertex file on CPython 3.11).  The next young collection
    after the parse untracks the neighbour tuples it keeps."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_instance(text)
    finally:
        if enabled:
            gc.enable()


def _parse_instance(text: str) -> Instance:
    start = text.find("\ne ") + 1  # the first edge line, unless it is the first line
    block = _edge_block(text, start) if start else None
    lines = [ln for ln in (text if block is None else text[:start]).splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(HEADER_TAG + " "):
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

    comments: list[str] = []
    cover_ids: list[int] | None = None
    us: list[int] = []
    vs: list[int] = []
    for ln in lines[1:]:
        tag, _, rest = ln.partition(" ")
        if tag == "e":  # checked by Graph: range, self-loop, duplicate
            try:
                u, v = map(int, rest.split())
            except ValueError as exc:
                raise ParseError(f"malformed edge line: {ln!r}") from exc
            us.append(u)
            vs.append(v)
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
    if block is not None:
        us += block.us
        vs += block.vs
    if cover_ids is None:
        raise ParseError("missing cover line")
    if len(us) != m:
        raise ParseError(f"header declares {m} edges, found {len(us)}")
    if len(cover_ids) != k:
        raise ParseError(f"header declares cover size {k}, found {len(cover_ids)}")
    seen: set[int] = set()
    for x in cover_ids:
        if x in seen:
            raise ParseError(f"repeated cover vertex {x}")
        seen.add(x)
    graph = Graph(n, EdgeColumns(us, vs))
    cover = VertexCover.validated(graph, cover_ids)
    return Instance(graph, cover, ell, tuple(comments))


def _read_text(path: str | Path) -> str:
    """The file's text; ParseError when it is not UTF-8.  Read as bytes in
    one unbuffered read and decoded at once: a text-mode read costs about
    twice as much on a small file.  Line ends stay as written, for the
    parsers' `splitlines`."""
    with open(path, "rb", buffering=0) as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_instance(path: str | Path) -> Instance:
    return parse_instance(_read_text(path))


def write_instance(g: Graph, cover: VertexCover, ell: int, path: str | Path, comments=()) -> None:
    Path(path).write_text(format_instance(g, cover, ell, comments))


def format_family(f: ExplicitFamily) -> str:
    lines = []
    for p in f.members:
        lines.append(f"h {p.graph.n} {p.graph.m}")
        lines.extend(f"e {u} {v}" for u, v in p.graph.sorted_edges())
    return "\n".join(lines) + "\n"


def _int_pair(line: str, rest: str, what: str) -> tuple[int, int]:
    try:
        a, b = (int(t) for t in rest.split())  # also ValueError on a wrong count
    except ValueError as exc:
        raise ParseError(f"malformed {what}: {line!r}") from exc
    return a, b


def parse_patterns(text: str) -> list[Graph]:
    """A family file's patterns as written: file order, duplicates kept."""
    graphs: list[Graph] = []
    n = None
    expected = 0
    edges: list[tuple[int, int]] = []

    def flush():
        if n is not None:
            if len(edges) != expected:
                raise ParseError(f"pattern declares {expected} edges, found {len(edges)}")
            graphs.append(Graph(n, edges))

    for ln in text.splitlines():
        ln = ln.strip()
        tag, _, rest = ln.partition(" ")
        if not ln or tag == "c":
            continue
        if tag == "h":
            flush()
            n, expected = _int_pair(ln, rest, "pattern header")
            edges = []
        elif tag == "e":
            if n is None:
                raise ParseError("edge line before any pattern header")
            edges.append(_int_pair(ln, rest, "edge line"))
        else:
            raise ParseError(f"unknown line tag {tag!r}")
    flush()
    if not graphs:
        raise ParseError("family file contains no patterns")
    return graphs


def parse_family(text: str) -> ExplicitFamily:
    return ExplicitFamily.from_graphs(parse_patterns(text))


def load_patterns(path: str | Path) -> list[Graph]:
    return parse_patterns(_read_text(path))


def load_family(path: str | Path) -> ExplicitFamily:
    return ExplicitFamily.from_graphs(load_patterns(path))


@dataclass(frozen=True)
class PlantedSpec:
    """Random instance whose edges all touch a planted cover of size k."""

    n: int
    k: int
    edge_prob: float
    seed: int
    ell: int = 0


def gen_planted(spec: PlantedSpec) -> tuple[Graph, VertexCover]:
    if not (0 <= spec.k <= spec.n) or not (0.0 <= spec.edge_prob <= 1.0):
        raise BadParams(f"bad planted spec {spec}")
    rng = random.Random(spec.seed)
    members = tuple(sorted(rng.sample(range(spec.n), spec.k)))
    member_set = set(members)
    us: list[int] = []
    vs: list[int] = []
    for u in range(spec.n):  # only pairs that touch the cover draw, in canonical order
        later = range(u + 1, spec.n) if u in member_set else members[bisect_right(members, u):]
        for v in later:
            if rng.random() < spec.edge_prob:
                us.append(u)
                vs.append(v)
    g = Graph(spec.n, EdgeColumns(us, vs))
    return g, VertexCover.validated(g, members)


@dataclass(frozen=True)
class DoubleFanSpec:
    """Adversarial gadget: a degree-2 vertex of the pattern is expanded into
    n parallel centers whose two fans encode a pair of bit strings."""

    pattern: PatternGraph
    split_vertex: int
    n_centers: int
    x_bits: str
    y_bits: str
    attach_all_neighbors: bool = False


def gen_double_fan(spec: DoubleFanSpec) -> tuple[Graph, VertexCover, bool]:
    h = spec.pattern.graph
    if h.m < 3 or not h.is_connected():
        raise HTooSmall("pattern must be connected with at least 3 edges")
    z = spec.split_vertex
    if not 0 <= z < h.n:
        raise BadParams(f"split vertex {z} out of range")
    deg = h.degree(z)
    if spec.attach_all_neighbors:
        if deg < 2:
            raise NotDegreeTwo(f"split vertex must have degree >= 2, has {deg}")
    elif deg != 2:
        raise NotDegreeTwo(f"split vertex must have degree exactly 2, has {deg}")
    n = spec.n_centers
    if n < 1 or len(spec.x_bits) != n or len(spec.y_bits) != n:
        raise BadParams("bit strings must match the center count")
    if set(spec.x_bits + spec.y_bits) - {"0", "1"}:
        raise BadParams("bit strings must be binary")

    kept = [v for v in range(h.n) if v != z]
    relabel = {v: i for i, v in enumerate(kept)}
    centers = list(range(len(kept), len(kept) + n))
    nbrs = sorted(h.neighbors(z))
    side_a, side_b = relabel[nbrs[0]], relabel[nbrs[1]]
    others = [relabel[w] for w in nbrs[2:]]

    edges = [(relabel[u], relabel[v]) for u, v in h.edges if z not in (u, v)]
    for i, cv in enumerate(centers):
        if spec.x_bits[i] == "1":
            edges.append((side_a, cv))
        if spec.y_bits[i] == "1":
            edges.append((side_b, cv))
        for w in others:
            edges.append((w, cv))
    g = Graph(len(kept) + n, edges)

    base_cover = set(minimum_vertex_cover(h))
    base_cover.discard(z)
    members = {relabel[v] for v in base_cover} | {side_a, side_b} | set(others)
    cover = VertexCover.validated(g, sorted(members))
    expected = not any(a == b == "1" for a, b in zip(spec.x_bits, spec.y_bits))
    return g, cover, expected
