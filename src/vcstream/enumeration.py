"""Dictionary-order walks over subsets and bounded multisets, as generators.

Each walk keeps only its current production, and each step is a pure
function of the walk's parameters and that production.  So a branching
algorithm that stores one production can resume a walk after returning from
recursion: `subsets(..., after=p)` yields the productions that follow p,
which is how `solve_with_a2` keeps one stored subset per level.  Parameters
are checked when the walk starts, at its first `next()`.  Permutations come
from `itertools.permutations`, whose order is the items' rank order.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import BadParams

AT_MOST = "at_most"
EXACTLY = "exactly"


def subsets(universe, k: int, mode: str = AT_MOST, after: tuple | None = None):
    """The subsets of `universe` of size k (EXACTLY) or of every size up to k
    (AT_MOST, by size), each a tuple in universe order, lexicographic on
    positions within a size; with `after`, those after that production.
    A step advances the rightmost element that is not at its last position
    and packs the rest right after it; else it starts the next size."""
    u = tuple(universe)
    if len(set(u)) != len(u):
        raise BadParams("universe elements must be distinct")
    if k < 0 or mode not in (AT_MOST, EXACTLY):
        raise BadParams("bad subset parameters")
    n, top = len(u), min(k, len(u))
    position = {x: p for p, x in enumerate(u)}
    if after is None:
        if mode == EXACTLY and k > n:
            return
        after = u[:k] if mode == EXACTLY else ()
        yield after
    cur = tuple(after)
    while True:
        size = len(cur)
        j = size - 1
        while j >= 0 and cur[j] == u[n - size + j]:
            j -= 1
        if j >= 0:
            p = position[cur[j]] + 1
            cur = cur[:j] + u[p:p + size - j]
        elif mode == AT_MOST and size < top:
            cur = u[:size + 1]
        else:
            return
        yield cur


def multisets(classes, k: int):
    """Picks from keyed classes with per-class capacities and a total bound k.

    Each production is a tuple of (key, count) pairs ordered by class
    position, each count between 1 and the class capacity, total at most k.
    Productions are ordered by total size, then lexicographically on the
    (position, count) pair sequence.  A step raises the rightmost pair's
    count, or moves it to a later class, when the rest of its total still
    fits in the classes after it; else it starts the next total.  The tail is
    filled greedily, each non-empty class taking the least count that leaves
    the remainder within the capacity after it."""
    classes = tuple((key, int(cap)) for key, cap in classes)
    keys = [key for key, _ in classes]
    if len(set(keys)) != len(keys):
        raise BadParams("class keys must be distinct")
    caps = [cap for _, cap in classes]
    if k < 0 or any(cap < 0 for cap in caps):
        raise BadParams("bad multiset parameters")
    room = list(accumulate(reversed(caps), initial=0))[::-1]  # room[p]: caps from p on
    position = {key: p for p, key in enumerate(keys)}
    last = min(k, room[0])  # the largest total
    cur: tuple = ()
    while True:
        yield cur
        rest = 0  # the total of cur[j:]
        for j in reversed(range(len(cur))):
            key, cnt = cur[j]
            p = position[key]
            rest += cnt
            if cnt < min(caps[p], rest):
                head, rest, p = cur[:j] + ((key, cnt + 1),), rest - cnt - 1, p + 1
                break
            if rest <= room[p + 1]:
                head, p = cur[:j], p + 1
                break
        else:
            if rest >= last:
                return
            head, rest, p = (), rest + 1, 0
        tail = []
        while rest:
            if caps[p]:
                cnt = max(1, rest - room[p + 1])
                tail.append((keys[p], cnt))
                rest -= cnt
            p += 1
        cur = head + tuple(tail)
