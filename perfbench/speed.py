"""Host-speed yardstick for the benchmark's time metrics.

On a shared host the same round can take 25-45 % longer for minutes at a
time.  `reference_s` times a fixed piece of benchmark-owned Python work in
the program's style: iterating event tuples, testing set membership,
updating a dict, building small frozensets and calling a function.  It runs
between rounds, so each round's time can be scaled to a host on which the
reference takes exactly REF_S seconds.  The program never runs this code, so
a change to the program moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import time
from typing import NamedTuple

REF_S = 0.015


class _Event(NamedTuple):
    kind: str
    u: int
    v: int


_EVENTS = tuple(_Event("edge" if i % 4 else "begin", i % 997, i * 7 % 991)
                for i in range(6000))
_KEEP = frozenset(range(0, 997, 3))


def _bump(x: int) -> int:
    return x + 1


def reference_s() -> float:
    start = time.perf_counter()
    for _ in range(8):
        counts: dict[int, int] = {}
        pairs = []
        for ev in _EVENTS:
            if ev.kind == "edge":
                if ev.u in _KEEP and ev.v not in _KEEP:
                    counts[ev.u] = counts.get(ev.u, 0) + _bump(ev.v)
            else:
                pairs.append(frozenset((ev.u, ev.v)))
    return time.perf_counter() - start
