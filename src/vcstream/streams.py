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
know n in advance.  An induced substream copies the kept blocks into a new
handle; a `KeptStream` re-generates it on the fly from the handle's blocks.

Given a vertex cover X, an outside vertex is fully described by N(v) & X,
and outside vertices with one such mask are twins, whose blocks are equal.
So an AL handle files its positions by block in one walk, one lookup each,
and reads N(v) & members once per distinct block, into a class index: the
member blocks as (v, bit, mask) tuples, where `mask` holds N(v) & members as
bits in ascending member order, and per mask the stream positions of its
outside blocks, read through `run_class_pass`; a pass over it visits the K
member blocks and a few blocks per class, at most 2^K classes, not every
block.
A pass that deletes or matches outside vertices takes the first few of its
chosen classes with `ClassIndex.first`, which walks classes by first position
and stops at the first one that starts past the count-th position taken.
The member masks also answer G[Y] for Y inside the members: `cover_edges`
reads it in one class pass at O(K) per member of Y, whatever the degrees.
`induced_edges` reads the blocks of the vertices it keeps, members or not,
and the family oracle buffers the graph a pass shows of its kept vertices,
in any model (an EA pass shows no vertex without a kept neighbour).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Container, Iterable, Iterator, NamedTuple

from .errors import BadParams, BadPermutation, InvalidCover, NotALModel
from .graph import Edge, Graph, VertexCover, canonical_edge
from .meters import MemoryMeter, MeteredSet, PassMeter

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
CoverBlock = tuple[int, int, int]  # (v, bit, mask)


class ClassIndex(NamedTuple):
    """A stream's blocks grouped by a member set X: the vertex at each stream
    position, the member blocks and their positions, and per mask the stream
    positions of the outside blocks whose N(v) & X it is; positions ascend,
    and classes come in the order of their first positions, which `first`,
    taking the first few outside vertices of chosen classes, relies on.
    `covers` says whether the members cover the handle's graph: every
    outside block's neighbours are all members, tested once per distinct
    outside block."""

    order: tuple[int, ...]
    members: tuple[CoverBlock, ...]
    member_positions: tuple[int, ...]
    classes: dict[int, list[int]]
    covers: bool

    def first(self, wanted: Callable[[int], object], count: int,
              skip: Container[int] = ()) -> list[int]:
        """The stream positions of the first `count` outside vertices not in
        `skip` of the classes whose masks satisfy `wanted`, ascending.  Once
        `count` are taken, a class that starts past the last of them, like
        every later class, gives none of the first `count`: the walk stops."""
        if count <= 0:
            return []
        order = self.order
        taken: list[int] = []
        last = len(order)  # the count-th position taken, once there are count
        for key, positions in self.classes.items():
            if positions[0] > last:
                break
            if wanted(key):
                want = count
                for pos in positions:
                    if order[pos] not in skip:
                        taken.append(pos)
                        want -= 1
                        if not want:
                            break
                taken.sort()
                del taken[count:]
                if len(taken) == count:
                    last = taken[-1]
        return taken

    def member_edges(self, mask: int) -> Iterator[Edge]:
        """The edges among the members whose bits are in `mask`, read off the
        member masks.  Bits ascend with member id, so each edge comes out
        canonical, from its lower member's mask."""
        vertex_of = {bit: v for v, bit, _ in self.members if bit & mask}
        for v, bit, m in self.members:
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
        """The class index of `members`, from one walk over positions that
        files each under its block: outside twins have equal blocks, their
        neighbours in stream order.  Then, once per distinct block, N(v) &
        members and whether the members hold all of it.  Each member leaves
        its block's list, which may move that list's head, so the classes
        are put back in first-position order; blocks with one mask, which
        happen when the members do not cover, are merged.  Only the index of
        the last `members` is kept; building it is not a pass."""
        if self.model != AL:
            raise NotALModel("the class index requires an AL stream")
        key = tuple(sorted(members))
        if key != self._index_members:
            blocks = self.blocks
            order = tuple(blocks)
            filed: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
            for pos, block in enumerate(blocks.values()):
                filed[block].append(pos)
            bit_of = cover_bits(key)
            members_at = []
            for x in bit_of.keys() & blocks.keys():
                positions = filed[blocks[x]]
                pos = order.index(x, positions[0])
                positions.remove(pos)
                members_at.append((pos, x))
            members_at.sort()
            classes: dict[int, list[int]] = {}
            merged = set()
            covers = True
            for block, positions in filed.items():
                if positions:
                    seen = bit_of.keys() & block
                    covers = covers and len(seen) == len(block)
                    mask = sum(map(bit_of.__getitem__, seen))
                    if mask in classes:
                        classes[mask] += positions
                        merged.add(mask)
                    else:
                        classes[mask] = positions
            for mask in merged:
                classes[mask].sort()
            self._index_members = key
            self._index = ClassIndex(
                order,
                tuple((x, bit_of[x], sum(map(bit_of.__getitem__, bit_of.keys() & blocks[x])))
                      for _, x in members_at),
                tuple(pos for pos, _ in members_at),
                dict(sorted(classes.items(), key=lambda item: item[1][0])), covers)
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


class KeptStream(NamedTuple):
    """The substream of `handle` induced by `keep`, re-generated on the fly: a
    reader takes the kept blocks in the handle's own pass, skipping the rest."""

    handle: StreamHandle
    keep: frozenset[int]

    def vertices(self) -> list[int]:
        """The kept vertices of the handle in stream order; ids in `keep`
        that the handle lacks are ignored."""
        handle, keep = self
        position = handle.positions()
        return sorted(filter(position.__contains__, keep), key=position.__getitem__)


def filtered_substream(h: StreamHandle, vertices: Iterable[int]) -> StreamHandle:
    """Induced-subgraph copy of `h` on `vertices`, in any order: the blocks of
    `KeptStream(h, vertices).vertices()`, each cut to its kept neighbours in
    stream order.  Passes charge h's meter."""
    keep, blocks = frozenset(vertices), h.blocks
    return StreamHandle(h.source, h.model,
                        {v: tuple(filter(keep.__contains__, blocks[v]))
                         for v in KeptStream(h, keep).vertices()},
                        h.pass_meter)


def induced_edges(h: StreamHandle, vertices: Iterable[int],
                  meter: MemoryMeter | None = None) -> frozenset[Edge]:
    """Canonical edge set of G[vertices]: one pass, reading the whole block
    of every kept vertex.  With a meter, the edges fill a `MeteredSet`, one
    word each as it is found, which releases what it charged if the budget
    trips.  For vertices inside a cover, `cover_edges` reads the same edges
    off the class index."""
    keep, blocks = frozenset(vertices), h.blocks

    def read() -> frozenset[Edge]:
        edges = ((u, w) for u in keep for w in blocks.get(u, ()) if u < w and w in keep)
        return frozenset(edges) if meter is None else MeteredSet(meter, edges).snapshot()

    return h.run_pass(read)


def cover_edges(h: StreamHandle, X: VertexCover, vertices: Iterable[int],
                meter: MemoryMeter | None = None) -> frozenset[Edge]:
    """`induced_edges` for vertices among X's members: one class pass,
    reading the member masks of X's class index.  Charges and releases as
    `induced_edges` does."""
    keep = frozenset(vertices)

    def read(index: ClassIndex) -> frozenset[Edge]:
        edges = index.member_edges(sum(bit for v, bit, _ in index.members if v in keep))
        return frozenset(edges) if meter is None else MeteredSet(meter, edges).snapshot()

    return h.run_class_pass(X.members, read)
