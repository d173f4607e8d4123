"""Deterministic EA/VA/AL event streams over a graph, with pass metering.

A handle replays a byte-identical event sequence for a fixed (graph, model,
order).  In the AL model every edge is emitted twice per pass (once inside
each endpoint's block); in EA and VA exactly once.  PassEnd is an explicit
event so consumers never need to know n in advance.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import BadParams, BadPermutation
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


class StreamHandle:
    """Replayable, single-consumer view of a graph in one arrival model."""

    __slots__ = ("source", "model", "order", "pass_meter", "_events")

    def __init__(self, source: Graph, model: str, order: tuple[int, ...],
                 pass_meter: PassMeter, events: tuple[StreamEvent, ...]):
        self.source = source
        self.model = model
        self.order = order
        self.pass_meter = pass_meter
        self._events = events

    def events(self) -> Iterable[StreamEvent]:
        """One pass worth of events; does not touch the pass meter."""
        return self._events

    def run_pass(self, consumer: Callable[[Iterator[StreamEvent]], object]):
        """Feed one full pass to `consumer`; the pass is counted even on failure."""
        try:
            return consumer(iter(self.events()))
        finally:
            self.pass_meter.increment()


class _FilteredHandle(StreamHandle):
    """Induced-substream view; every pass is charged to the parent's meter."""

    __slots__ = ("parent", "keep")

    def __init__(self, parent: StreamHandle, keep: Callable[[int], bool]):
        self.parent = parent
        self.keep = keep
        self.source = parent.source
        self.model = parent.model
        self.order = parent.order
        self.pass_meter = parent.pass_meter

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
