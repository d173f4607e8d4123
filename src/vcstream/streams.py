"""Deterministic EA/VA/AL event streams over a graph, with pass metering.

A handle stores one block per vertex: the vertex's neighbours in stream
order, with the blocks themselves in stream order.  That is the AL model's
unit of arrival.  A pass is one counted read of the blocks: `run_pass(read)`
runs `read()` and counts the pass even when it fails, and what `read`
computes must be a pure function of what one pass shows.  `events()` is that
pass as each model shows it, a byte-identical event sequence for a fixed
(graph, model, order): in AL every edge is emitted twice per pass (once
inside each endpoint's block); VA keeps an edge only in its later
endpoint's block, and EA emits it alone, at its earlier endpoint, with no
vertex events.  PassEnd is an explicit event so a reader never needs to
know n in advance.  An induced substream is a handle over the kept blocks,
charging its passes to the parent's meter.

Given a vertex cover X, an outside vertex is fully described by N(v) & X,
and outside vertices with one such mask are twins.  So an AL handle ORs
each member's bit into its neighbours' masks, then groups the blocks in one
walk over positions into a class index: the member blocks as
(v, bit, mask, nbrs) tuples, where `mask` holds N(v) & members as bits in
ascending member order, and per mask the stream positions of its outside
blocks, read through `run_class_pass`; a pass over it visits the K member
blocks and a few blocks per class, at most 2^K classes, not every block.
The member masks also answer G[Y] for Y inside the members: `cover_edges`
reads it in one class pass at O(K) per member of Y, whatever the degrees.
`induced_edges` reads the blocks of the vertices it keeps, members or not,
and the family oracle buffers the graph a pass shows, in any model (an EA
pass shows no vertex without an edge).
"""

from __future__ import annotations

import heapq
from typing import Callable, Container, Iterable, Iterator, NamedTuple

from .errors import BadParams, BadPermutation, InvalidCover, MemoryBudgetExceeded, NotALModel
from .graph import Edge, Graph, VertexCover, canonical_edge
from .meters import MemoryMeter, PassMeter

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

Blocks = dict[int, tuple[int, ...]]  # v -> neighbours in stream order, in stream order
CoverBlock = tuple[int, int, int, tuple[int, ...]]  # (v, bit, mask, nbrs)


class ClassIndex(NamedTuple):
    """A stream's blocks grouped by a member set X: the vertex at each stream
    position, the member blocks and their positions, and per mask the stream
    positions of the outside blocks whose N(v) & X it is; positions ascend.
    `covers` says whether the members cover the handle's graph: every
    outside block's neighbours are all members."""

    order: tuple[int, ...]
    members: tuple[CoverBlock, ...]
    member_positions: tuple[int, ...]
    classes: dict[int, list[int]]
    covers: bool

    def outside(self, keys: Iterable[int], skip: Container[int] = ()) -> Iterator[int]:
        """The outside vertices not in `skip` of the classes `keys`, in
        stream order; `skip` is read as the walk reaches each vertex."""
        order, classes = self.order, self.classes
        merged = heapq.merge(*(classes.get(key, ()) for key in keys))
        return (v for v in map(order.__getitem__, merged) if v not in skip)

    def member_edges(self, mask: int) -> Iterator[Edge]:
        """The edges among the members whose bits are in `mask`, read off the
        member masks.  Bits ascend with member id, so each edge comes out
        canonical, from its lower member's mask."""
        vertex_of = {bit: v for v, bit, _, _ in self.members if bit & mask}
        for v, bit, m, _ in self.members:
            if bit & mask:
                higher = m & mask & -(bit << 1)  # mask's neighbours above v
                while higher:
                    low = higher & -higher
                    yield v, vertex_of[low]
                    higher ^= low


def cover_bits(members: Iterable[int]) -> dict[int, int]:
    """Each member's bit in a class index of `members`: ascending member order."""
    return {x: 1 << i for i, x in enumerate(sorted(members))}


class StreamHandle:
    """Replayable, single-consumer view of a graph in one arrival model."""

    __slots__ = ("source", "model", "blocks", "pass_meter", "_index_members", "_index",
                 "_positions")

    def __init__(self, source: Graph, model: str, blocks: Blocks, pass_meter: PassMeter):
        self.source = source
        self.model = model
        self.blocks = blocks
        self.pass_meter = pass_meter
        self._index_members: tuple[int, ...] | None = None
        self._index: ClassIndex | None = None
        self._positions: dict[int, int] | None = None

    def events(self) -> Iterator[StreamEvent]:
        """One pass worth of events; does not touch the pass meter."""
        model = self.model
        seen: set[int] = set()
        for v, nbrs in self.blocks.items():
            if model != AL:
                # VA: earlier neighbours, EA: later ones
                nbrs = [w for w in nbrs if (w in seen) == (model == VA)]
                seen.add(v)
            if model != EA:
                yield vertex_begin(v)
            for w in nbrs:
                yield edge_event(v, w)
            if model != EA:
                yield vertex_end(v)
        yield PASS_END_EVENT

    def run_pass(self, read: Callable[[], object]):
        """Run `read()` as one pass; the pass is counted even on failure."""
        try:
            return read()
        finally:
            self.pass_meter.increment()

    def class_index(self, members: Iterable[int]) -> ClassIndex:
        """The class index of `members`, built from the member blocks and one
        walk over positions.  Only the index of the last `members` is kept;
        building it is not a pass."""
        if self.model != AL:
            raise NotALModel("the class index requires an AL stream")
        key = tuple(sorted(members))
        if key != self._index_members:
            bit_of = cover_bits(key)
            masks = dict.fromkeys(self.blocks, 0)  # v -> N(v) & members, from the member side
            for x, bit in bit_of.items():
                for w in self.blocks.get(x, ()):
                    masks[w] |= bit
            member_blocks: list[CoverBlock] = []
            member_positions: list[int] = []
            classes: dict[int, list[int]] = {}
            covers = True
            for pos, ((v, nbrs), mask) in enumerate(zip(self.blocks.items(), masks.values())):
                bit = bit_of.get(v, 0)
                if bit:
                    member_blocks.append((v, bit, mask, nbrs))
                    member_positions.append(pos)
                    continue
                positions = classes.get(mask)
                if positions is None:
                    positions = classes[mask] = []
                positions.append(pos)
                if covers and len(nbrs) != mask.bit_count():
                    covers = False
            self._index_members = key
            self._index = ClassIndex(tuple(self.blocks), tuple(member_blocks),
                                     tuple(member_positions), classes, covers)
        return self._index

    def positions(self) -> dict[int, int]:
        """Each vertex's stream position, built on first use and kept; like
        the class index, it is stream machinery, not a pass."""
        if self._positions is None:
            self._positions = {v: pos for pos, v in enumerate(self.blocks)}
        return self._positions

    def require_cover(self, members: Iterable[int]) -> None:
        """Raise InvalidCover unless `members` cover the handle's graph, read
        off the class index; no pass."""
        if not self.class_index(members).covers:
            raise InvalidCover("X does not cover the graph")

    def run_class_pass(self, members: Iterable[int],
                       consumer: Callable[[ClassIndex], object]):
        """Feed the class index of `members` to `consumer` as one `run_pass`."""
        index = self.class_index(members)
        return self.run_pass(lambda: consumer(index))


def make_stream(g: Graph, model: str, order: Iterable[int] | None = None) -> StreamHandle:
    """Build a replayable stream of `g` in the given model and vertex order."""
    if order is None:  # the identity: Graph's ascending tuples are the blocks
        blocks = dict(enumerate(g.nbrs))
    else:
        order = tuple(order)
        if sorted(order) != list(range(g.n)):
            raise BadPermutation(f"order is not a permutation of 0..{g.n - 1}")
        pos = {v: i for i, v in enumerate(order)}
        blocks = {v: tuple(sorted(g.nbrs[v], key=pos.__getitem__)) for v in order}
    if model not in MODELS:
        raise BadParams(f"unknown stream model {model!r}")
    return StreamHandle(g, model, blocks, PassMeter())


def filtered_substream(h: StreamHandle, vertices: Iterable[int]) -> StreamHandle:
    """Induced-subgraph view of `h` on `vertices` (those not in `h` are
    ignored), in any order: blocks for the kept vertices only, put in stream
    order by `h.positions()`, each keeping its kept neighbours in stream
    order.  Passes charge h's meter."""
    keep = frozenset(vertices)
    position, blocks = h.positions(), h.blocks
    kept = sorted(filter(position.__contains__, keep), key=position.__getitem__)
    return StreamHandle(h.source, h.model,
                        {v: tuple(filter(keep.__contains__, blocks[v])) for v in kept},
                        h.pass_meter)


def induced_edges(source: StreamHandle | Graph, vertices: Iterable[int],
                  meter: MemoryMeter | None = None) -> frozenset[Edge]:
    """Canonical edge set of G[vertices]: one pass on a handle, reading the
    whole block of every kept vertex, none on a Graph.  With a meter, each
    edge is charged one word as it is found; if the budget trips, the call
    releases what it charged.  For vertices inside a cover, `cover_edges`
    reads the same edges off the class index."""
    keep = frozenset(vertices)
    if isinstance(source, Graph):
        return _charged(_edges_among(keep, source.neighbors), meter)
    blocks = source.blocks
    return source.run_pass(
        lambda: _charged(_edges_among(keep, lambda v: blocks.get(v, ())), meter))


def cover_edges(source: StreamHandle | Graph, X: VertexCover, vertices: Iterable[int],
                meter: MemoryMeter | None = None) -> frozenset[Edge]:
    """`induced_edges` for vertices among X's members: on a handle, one class
    pass reading the member masks of X's class index; on a Graph, the
    in-memory path.  Charges and releases as `induced_edges` does."""
    if isinstance(source, Graph):
        return induced_edges(source, vertices, meter)
    keep = frozenset(vertices)

    def read(index: ClassIndex) -> frozenset[Edge]:
        mask = sum(bit for v, bit, _, _ in index.members if v in keep)
        return _charged(index.member_edges(mask), meter)

    return source.run_class_pass(X.members, read)


def _edges_among(keep: frozenset[int], nbrs_of: Callable[[int], Iterable[int]]) -> Iterator[Edge]:
    for u in keep:
        for w in nbrs_of(u):
            if u < w and w in keep:
                yield u, w


def _charged(found: Iterable[Edge], meter: MemoryMeter | None) -> frozenset[Edge]:
    """The edges of `found`, one word charged to `meter` as each arrives; on
    a budget trip, what was charged is released before the error goes on."""
    edges: set[Edge] = set()
    try:
        for edge in found:
            if meter is not None:
                meter.allocate(1)
            edges.add(edge)
    except MemoryBudgetExceeded:
        meter.release(len(edges))
        raise
    return frozenset(edges)
