"""Pass and working-memory accounting.

Memory is counted in words: one word per vertex id, edge pair, or counter,
and ceil(bits/64) words for a bit vector.  Only algorithm working state is
charged; the instance, the stream machinery, and output sinks are free.  The
cover view a stream handle caches (`StreamHandle.cover_view`) is stream
machinery: a consumer pays for what it keeps of a block, not for the view.
"""

from __future__ import annotations

from contextlib import contextmanager

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
        self.live_words += words
        if self.live_words > self.peak_words:
            self.peak_words = self.live_words
        if self.budget_words is not None and self.live_words > self.budget_words:
            raise MemoryBudgetExceeded(
                f"live {self.live_words} words exceeds budget {self.budget_words}"
            )

    def release(self, words: int = 1) -> None:
        if words < 0:
            raise ValueError("cannot release a negative word count")
        self.live_words -= words
        if self.live_words < 0:
            raise MeterUnderflow("released more words than allocated")

    @contextmanager
    def scope(self, words: int):
        self.allocate(words)
        try:
            yield
        finally:
            self.release(words)

    def __repr__(self) -> str:
        return f"MemoryMeter(live={self.live_words}, peak={self.peak_words})"


class MeteredSet:
    """Mutable set whose cardinality is charged to a meter, per-item."""

    __slots__ = ("_meter", "_items", "_wpi")

    def __init__(self, meter: MemoryMeter, items=(), words_per_item: int = 1):
        self._meter = meter
        self._items: set = set()
        self._wpi = words_per_item
        for x in items:
            self.add(x)

    def add(self, x) -> None:
        if x not in self._items:
            self._meter.allocate(self._wpi)
            self._items.add(x)

    def discard(self, x) -> None:
        if x in self._items:
            self._items.discard(x)
            self._meter.release(self._wpi)

    def close(self) -> None:
        self._meter.release(self._wpi * len(self._items))
        self._items.clear()

    def snapshot(self) -> frozenset:
        return frozenset(self._items)

    def __contains__(self, x) -> bool:
        return x in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)
