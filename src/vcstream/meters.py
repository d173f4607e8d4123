"""Pass and working-memory accounting.

Memory is counted in words: one word per vertex id, edge pair, or counter,
and ceil(bits/64) words for a bit vector.  Only algorithm working state is
charged; the instance, the stream machinery (a handle's blocks and its
class index), and output sinks are free.  A consumer pays for what it keeps
of a block.  The kernels skip a twin only when an earlier twin fixed its
outcome and a later visited one takes at least its charge.  State is
charged as it grows, one allocation per item found, so a budget trips at
the first word past it.
"""

from __future__ import annotations

from .errors import MemoryBudgetExceeded, MeterUnderflow


def words_for_bits(bits: int) -> int:
    return (bits + 63) // 64


class PassMeter:
    """Counts completed passes over a stream."""

    __slots__ = ("passes",)

    def __init__(self):
        self.passes = 0

    def increment(self) -> None:
        self.passes += 1

    def __repr__(self) -> str:
        return f"PassMeter(passes={self.passes})"


class MemoryMeter:
    """Accountant for live working words, with peak tracking and an optional cap."""

    __slots__ = ("live_words", "peak_words", "budget_words")

    def __init__(self, budget_words: int | None = None):
        self.live_words = 0
        self.peak_words = 0
        self.budget_words = budget_words

    def allocate(self, words: int = 1) -> None:
        if words < 0:
            raise ValueError("cannot allocate a negative word count")
        live = self.live_words + words
        if self.budget_words is not None and live > self.budget_words:
            raise MemoryBudgetExceeded(f"live {live} words exceeds budget {self.budget_words}")
        self.live_words = live
        if live > self.peak_words:
            self.peak_words = live

    def release(self, words: int = 1) -> None:
        if words < 0:
            raise ValueError("cannot release a negative word count")
        self.live_words -= words
        if self.live_words < 0:
            raise MeterUnderflow("released more words than allocated")

    def scope(self, words: int) -> "MeterScope":
        """`with meter.scope(words):` holds `words` for the body."""
        return MeterScope(self, words)

    def __repr__(self) -> str:
        return f"MemoryMeter(live={self.live_words}, peak={self.peak_words})"


class MeterScope:
    """Allocates its words on entry and releases them on exit, whatever the
    body raises; a budget trip on entry charges nothing."""

    __slots__ = ("meter", "words")

    def __init__(self, meter: MemoryMeter, words: int):
        self.meter = meter
        self.words = words

    def __enter__(self) -> None:
        self.meter.allocate(self.words)

    def __exit__(self, *exc) -> None:
        self.meter.release(self.words)


class MeteredSet:
    """Mutable set charged to a meter, one word per item."""

    __slots__ = ("_meter", "_items")

    def __init__(self, meter: MemoryMeter, items=()):
        self._meter = meter
        self._items: set = set()
        try:
            for x in items:
                self.add(x)
        except MemoryBudgetExceeded:
            self.close()
            raise

    def add(self, x) -> None:
        if x not in self._items:
            self._meter.allocate(1)
            self._items.add(x)

    def discard(self, x) -> None:
        if x in self._items:
            self._items.discard(x)
            self._meter.release(1)

    def close(self) -> None:
        self._meter.release(len(self._items))
        self._items.clear()

    def snapshot(self) -> frozenset:
        return frozenset(self._items)

    def __contains__(self, x) -> bool:
        return x in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)
