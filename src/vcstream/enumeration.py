"""Dictionary-order walks over subsets and bounded multisets, as generators.

The productions after any one follow from the walk's parameters and that
production alone, so a branching algorithm that stores one production can
resume a walk after returning from recursion: `subsets(..., after=p)` yields
the productions that follow p, which is how `solve_with_a2` keeps one stored
subset per level.  Parameters are checked when the walk starts, at its first
`next()`.  Permutations come from `itertools.permutations`, whose order is
the items' rank order.
"""

from __future__ import annotations

from itertools import accumulate, combinations

from .errors import BadParams

AT_MOST = "at_most"
EXACTLY = "exactly"


def subsets(universe, k: int, mode: str = AT_MOST, after: tuple | None = None):
    """The subsets of `universe` of size k (EXACTLY) or of every size up to k
    (AT_MOST, by size), each a tuple in universe order, lexicographic on
    positions within a size, from `itertools.combinations`; with `after`,
    those after that production: first those of its size that keep a prefix
    p[:j] and take a later element than p[j], longest prefix first."""
    u = tuple(universe)
    if len(set(u)) != len(u):
        raise BadParams("universe elements must be distinct")
    if k < 0 or mode not in (AT_MOST, EXACTLY):
        raise BadParams("bad subset parameters")
    top = min(k, len(u))
    if after is None:
        sizes = range(k, k + 1) if mode == EXACTLY else range(top + 1)
    else:
        p = tuple(after)
        for j in reversed(range(len(p))):
            for rest in combinations(u[u.index(p[j]) + 1:], len(p) - j):
                yield p[:j] + rest
        sizes = range(len(p) + 1, top + 1) if mode == AT_MOST else ()
    for size in sizes:
        yield from combinations(u, size)


def multisets(classes, k: int):
    """Picks from keyed classes with per-class capacities and a total bound k.

    Each production is a tuple of (key, count) pairs ordered by class
    position, each count between 1 and the class capacity, total at most k.
    Productions are ordered by total size, then lexicographically on the
    (position, count) pair sequence.  A pick of total t takes its first
    class q in position order while the classes from q on can hold t, then
    each count c of q that leaves t - c within the classes after q, then
    every pick of t - c from those classes."""
    classes = tuple((key, int(cap)) for key, cap in classes)
    if len({key for key, _ in classes}) != len(classes):
        raise BadParams("class keys must be distinct")
    caps = [cap for _, cap in classes]
    if k < 0 or any(cap < 0 for cap in caps):
        raise BadParams("bad multiset parameters")
    room = list(accumulate(reversed(caps), initial=0))[::-1]  # room[p]: caps from p on

    def picks(q: int, t: int):
        while room[q] >= t:
            key, cap = classes[q]
            for c in range(max(1, t - room[q + 1]), min(cap, t) + 1):
                if c == t:
                    yield ((key, c),)
                else:
                    for tail in picks(q + 1, t - c):
                        yield ((key, c),) + tail
            q += 1

    yield ()
    for t in range(1, min(k, room[0]) + 1):
        yield from picks(0, t)
