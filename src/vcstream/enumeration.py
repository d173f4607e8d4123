"""Stateless dictionary-order cursors over subsets, bounded multisets, and permutations.

Next is a pure function of the cursor's parameters and current element, so a
branching algorithm that stores only the current element can resume an
enumeration after returning from recursion.  The end state is a distinguished
sentinel END, reached after exactly the closed-form number of productions.

Each cursor kind has one successor rule, which reads tables derived from the
cursor's fields: element positions (subset), capacities, suffix room and key
positions (multiset), ranks (permutation).  `*_next(c)` derives them from
`c` and takes one step, so it stays a pure function of the fields;
`cursor_values` derives them once per walk and steps bare productions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Hashable

from .errors import AdvancePastEnd, BadParams

AT_MOST = "at_most"
EXACTLY = "exactly"


class _End:
    __slots__ = ()

    def __repr__(self) -> str:
        return "END"


END = _End()


@dataclass(frozen=True)
class SubsetCursor:
    universe: tuple
    k: int
    mode: str
    current: object  # tuple of elements, in universe order, or END

    @property
    def at_end(self) -> bool:
        return self.current is END

    def next(self) -> "SubsetCursor":
        return subset_next(self)

    def _successor(self) -> Callable[[tuple], object]:
        """Advance the rightmost element that is not at its last position and
        pack the rest right after it; else start the next size (AT_MOST)."""
        u, mode = self.universe, self.mode
        n, top = len(u), min(self.k, len(u))
        position = {x: p for p, x in enumerate(u)}

        def step(cur: tuple) -> object:
            size = len(cur)
            j = size - 1
            while j >= 0 and cur[j] == u[n - size + j]:
                j -= 1
            if j >= 0:
                p = position[cur[j]] + 1
                return cur[:j] + u[p:p + size - j]
            if mode == AT_MOST and size < top:
                return u[:size + 1]
            return END

        return step


def subset_first(universe, k: int, mode: str = AT_MOST) -> SubsetCursor:
    universe = tuple(universe)
    if len(set(universe)) != len(universe):
        raise BadParams("universe elements must be distinct")
    if k < 0 or mode not in (AT_MOST, EXACTLY):
        raise BadParams("bad subset cursor parameters")
    if mode == AT_MOST:
        current: object = ()
    else:
        current = universe[:k] if k <= len(universe) else END
    return SubsetCursor(universe, k, mode, current)


def subset_next(c: SubsetCursor) -> SubsetCursor:
    if c.current is END:
        raise AdvancePastEnd("subset cursor already at END")
    return SubsetCursor(c.universe, c.k, c.mode, c._successor()(c.current))


@dataclass(frozen=True)
class MultisetCursor:
    """Picks from keyed classes with per-class capacities and a total bound k.

    The current element is a tuple of (key, count) pairs ordered by class
    position, each count between 1 and the class capacity, total at most k.
    Productions are ordered by total size, then lexicographically on the
    (position, count) pair sequence.
    """

    classes: tuple[tuple[Hashable, int], ...]
    k: int
    current: object  # tuple of (key, count) pairs or END

    @property
    def at_end(self) -> bool:
        return self.current is END

    def next(self) -> "MultisetCursor":
        return multiset_next(self)

    def _successor(self) -> Callable[[tuple], object]:
        """Raise the rightmost pair's count, or move it to a later class, when
        the rest of its total still fits in the classes after it; else start
        the next total.  The tail is filled greedily, each non-empty class
        taking the least count that leaves the remainder within the capacity
        after it."""
        keys = [key for key, _ in self.classes]
        caps = [cap for _, cap in self.classes]
        room = list(accumulate(reversed(caps), initial=0))[::-1]  # room[p]: caps from p on
        position = {key: p for p, key in enumerate(keys)}
        last = min(self.k, room[0])  # the largest total

        def step(cur: tuple) -> object:
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
                    return END
                head, rest, p = (), rest + 1, 0
            tail = []
            while rest:
                if caps[p]:
                    cnt = max(1, rest - room[p + 1])
                    tail.append((keys[p], cnt))
                    rest -= cnt
                p += 1
            return head + tuple(tail)

        return step


def multiset_first(classes, k: int) -> MultisetCursor:
    classes = tuple((key, int(cap)) for key, cap in classes)
    keys = [key for key, _ in classes]
    if len(set(keys)) != len(keys):
        raise BadParams("class keys must be distinct")
    if k < 0 or any(cap < 0 for _, cap in classes):
        raise BadParams("bad multiset cursor parameters")
    return MultisetCursor(classes, k, ())


def multiset_next(c: MultisetCursor) -> MultisetCursor:
    if c.current is END:
        raise AdvancePastEnd("multiset cursor already at END")
    return MultisetCursor(c.classes, c.k, c._successor()(c.current))


@dataclass(frozen=True)
class PermutationCursor:
    items: tuple
    current: object  # tuple permutation of items, or END

    @property
    def at_end(self) -> bool:
        return self.current is END

    def next(self) -> "PermutationCursor":
        return permutation_next(self)

    def _successor(self) -> Callable[[tuple], object]:
        """The next permutation in the items' rank order."""
        rank = {x: i for i, x in enumerate(self.items)}

        def step(cur: tuple) -> object:
            seq = list(cur)
            j = len(seq) - 2
            while j >= 0 and rank[seq[j]] > rank[seq[j + 1]]:
                j -= 1
            if j < 0:
                return END
            t = len(seq) - 1
            while rank[seq[t]] < rank[seq[j]]:
                t -= 1
            seq[j], seq[t] = seq[t], seq[j]
            seq[j + 1:] = reversed(seq[j + 1:])
            return tuple(seq)

        return step


def permutation_first(items) -> PermutationCursor:
    items = tuple(items)
    if len(set(items)) != len(items):
        raise BadParams("items must be distinct")
    return PermutationCursor(items, items)


def permutation_next(c: PermutationCursor) -> PermutationCursor:
    if c.current is END:
        raise AdvancePastEnd("permutation cursor already at END")
    return PermutationCursor(c.items, c._successor()(c.current))


def cursor_values(cursor):
    """Yield every production of a cursor, from its current element on,
    stepping the cursor's successor rule on tables derived once.  Every
    solver walks its enumerations with this loop; only `solve_with_a2`
    restarts one, from a kept production, to resume it after recursion."""
    step = cursor._successor()
    current = cursor.current
    while current is not END:
        yield current
        current = step(current)
