"""Deterministic EA/VA/AL event streams over a graph, with pass metering.

A handle replays a byte-identical event sequence for a fixed (graph, model,
order).  In the AL model every edge is emitted twice per pass (once inside
each endpoint's block); in EA and VA exactly once.  PassEnd is an explicit
event so consumers never need to know n in advance.

Given a vertex cover X, an outside vertex is fully described by N(v) & X.  An
AL handle therefore also offers a cover view: one (v, bit, mask, nbrs) tuple
per block, where `mask` holds N(v) & members as bits in ascending member
order.  Consumers that only need per-block neighbourhoods read the view
through `run_cover_pass`, which charges one pass like `run_pass`.  Raw events
remain the interface for EA/VA streams, for consumers that must see the
event sequence itself (edge-only scans, oracles) and for substreams that
produce events.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import BadParams, BadPermutation, NotALModel
from .graph import Edge, Graph, canonical_edge
from .meters import PassMeter

EA = "EA"
VA = "VA"
AL = "AL"
MODELS = (EA, VA, AL)

VERTEX_BEGIN = "begin"
EDGE = "edge"
VERTEX_END = "end"
PASS_END = "pass_end"


class StreamEvent(NamedTuple):
    kind: str
    u: int | None = None
    v: int | None = None


def vertex_begin(v: int) -> StreamEvent:
    return StreamEvent(VERTEX_BEGIN, v)


def vertex_end(v: int) -> StreamEvent:
    return StreamEvent(VERTEX_END, v)


def edge_event(u: int, v: int) -> StreamEvent:
    a, b = canonical_edge(u, v)
    return StreamEvent(EDGE, a, b)


PASS_END_EVENT = StreamEvent(PASS_END)

CoverBlock = tuple[int, int, int, tuple[int, ...]]  # (v, bit, mask, nbrs)


def cover_bits(members: Iterable[int]) -> dict[int, int]:
    """Each member's bit in a cover view of `members`: ascending member order."""
    return {x: 1 << i for i, x in enumerate(sorted(members))}


class StreamHandle:
    """Replayable, single-consumer view of a graph in one arrival model.

    Subclasses that produce their own events override `events()` and call
    this `__init__` with their parent's source, model, order and meter."""

    __slots__ = ("source", "model", "order", "pass_meter", "_events",
                 "_view_members", "_view")

    def __init__(self, source: Graph, model: str, order: tuple[int, ...],
                 pass_meter: PassMeter, events: tuple[StreamEvent, ...] = ()):
        self.source = source
        self.model = model
        self.order = order
        self.pass_meter = pass_meter
        self._events = events
        self._view_members: tuple[int, ...] | None = None
        self._view: tuple[CoverBlock, ...] = ()

    def events(self) -> Iterable[StreamEvent]:
        """One pass worth of events; does not touch the pass meter."""
        return self._events

    def run_pass(self, consumer: Callable[[Iterator[StreamEvent]], object]):
        """Feed one full pass to `consumer`; the pass is counted even on failure."""
        try:
            return consumer(iter(self.events()))
        finally:
            self.pass_meter.increment()

    def cover_view(self, members: Iterable[int]) -> tuple[CoverBlock, ...]:
        """One (v, bit, mask, nbrs) per AL block of `events()`, in stream
        order: v's own bit in `members` (0 for a non-member), N(v) & members
        as bits, and v's neighbours in stream order.  Only the view of the
        last `members` is kept; building it is not a pass."""
        if self.model != AL:
            raise NotALModel("the cover view requires an AL stream")
        key = tuple(sorted(members))
        if key != self._view_members:
            bit_of = cover_bits(key)
            blocks: list[CoverBlock] = []
            cur = None
            nbrs: list[int] = []
            for ev in self.events():
                kind = ev.kind
                if kind == EDGE:
                    nbrs.append(ev.v if ev.u == cur else ev.u)
                elif kind == VERTEX_BEGIN:
                    cur = ev.u
                    nbrs = []
                elif kind == VERTEX_END:
                    mask = 0
                    for w in nbrs:
                        mask |= bit_of.get(w, 0)
                    blocks.append((cur, bit_of.get(cur, 0), mask, tuple(nbrs)))
            self._view_members, self._view = key, tuple(blocks)
        return self._view

    def run_cover_pass(self, members: Iterable[int],
                       consumer: Callable[[tuple[CoverBlock, ...]], object]):
        """Feed the cover view of `members` to `consumer` as one `run_pass`."""
        view = self.cover_view(members)
        return self.run_pass(lambda _events: consumer(view))


class _FilteredHandle(StreamHandle):
    """Induced-substream view; every pass is charged to the parent's meter."""

    __slots__ = ("parent", "keep")

    def __init__(self, parent: StreamHandle, keep: Callable[[int], bool]):
        super().__init__(parent.source, parent.model, parent.order, parent.pass_meter)
        self.parent = parent
        self.keep = keep

    def events(self) -> Iterator[StreamEvent]:
        keep = self.keep
        for ev in self.parent.events():
            kind = ev.kind
            if kind == EDGE:
                if keep(ev.u) and keep(ev.v):
                    yield ev
            elif kind == PASS_END:
                yield ev
            elif keep(ev.u):
                yield ev


def _build_events(g: Graph, model: str, order: tuple[int, ...]) -> tuple[StreamEvent, ...]:
    pos = {v: i for i, v in enumerate(order)}
    events: list[StreamEvent] = []
    if model == AL:
        for v in order:
            events.append(vertex_begin(v))
            for w in sorted(g.neighbors(v), key=pos.__getitem__):
                events.append(edge_event(v, w))
            events.append(vertex_end(v))
    elif model == VA:
        for v in order:
            events.append(vertex_begin(v))
            seen_earlier = [w for w in g.neighbors(v) if pos[w] < pos[v]]
            for w in sorted(seen_earlier, key=pos.__getitem__):
                events.append(edge_event(v, w))
            events.append(vertex_end(v))
    elif model == EA:
        ranked = sorted(
            g.edges, key=lambda e: (min(pos[e[0]], pos[e[1]]), max(pos[e[0]], pos[e[1]]))
        )
        events.extend(edge_event(u, v) for u, v in ranked)
    else:
        raise BadParams(f"unknown stream model {model!r}")
    events.append(PASS_END_EVENT)
    return tuple(events)


def make_stream(g: Graph, model: str, order: Iterable[int] | None = None) -> StreamHandle:
    """Build a replayable stream of `g` in the given model and vertex order."""
    order = tuple(order) if order is not None else tuple(range(g.n))
    if sorted(order) != list(range(g.n)):
        raise BadPermutation(f"order is not a permutation of 0..{g.n - 1}")
    return StreamHandle(g, model, order, PassMeter(), _build_events(g, model, order))


def filtered_substream(h: StreamHandle, keep: Callable[[int], bool]) -> StreamHandle:
    """Induced-subgraph view of `h` on {v : keep(v)}; passes charge h's meter."""
    return _FilteredHandle(h, keep)


def induced_edges(source: StreamHandle | Graph, vertices: Iterable[int]) -> frozenset[Edge]:
    """Canonical edge set of G[vertices]: one pass on a handle, none on a Graph."""
    keep = frozenset(vertices)
    if isinstance(source, Graph):
        return frozenset(
            canonical_edge(u, w) for u in keep for w in source.neighbors(u) & keep
        )
    edges = set()

    def consume(events):
        for ev in events:
            if ev.kind == EDGE and ev.u in keep and ev.v in keep:
                edges.add((ev.u, ev.v))

    source.run_pass(consume)
    return frozenset(edges)
