"""Deletion solving against a black-box family oracle, without storing the
family explicitly.

Outside vertices with the same neighbourhood in the kept cover part are
twins, hence interchangeable in solutions; the solvers therefore enumerate
candidate occurrences as (cover subset, multiset of equivalence classes) and
delete whole class surpluses at a time.  Every oracle call costs one full
pass of the outer stream per declared oracle pass, because the oracle input
substream is re-generated on the fly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import (
    AT_MOST,
    multiset_first,
    multiset_next,
    subset_first,
    subset_next,
)
from .errors import BadParams, NotALModel, OracleFault
from .graph import VertexCover, require_cover
from .meters import MemoryMeter, MeteredSet
from .properties import ORACLE_FREENESS, ORACLE_MEMBERSHIP, StreamOracle
from .results import SolveOutcome
from .streams import (
    AL,
    PASS_END_EVENT,
    StreamHandle,
    edge_event,
    filtered_substream,
    vertex_begin,
    vertex_end,
)


@dataclass(frozen=True)
class EquivalenceClassTable:
    """Counts of untouched outside vertices per adjacency key toward Y; a key
    is a bitmask over Y's members in ascending order."""

    y_order: tuple[int, ...]
    rows: tuple[tuple[int, int], ...]  # (key, count), key-sorted, every count >= 1

    def as_dict(self) -> dict[int, int]:
        return dict(self.rows)


def compute_equivalence_classes(h: StreamHandle, Y, exclude=frozenset(),
                                meter: MemoryMeter | None = None) -> EquivalenceClassTable:
    """One pass tallying, for every vertex outside Y and exclude, its
    adjacency bitstring toward Y.  Callers pass the deleted cover part (and
    any deleted outside vertices) via exclude."""
    y_order = tuple(sorted(Y))
    skip = frozenset(Y) | frozenset(exclude)
    counts: dict[int, int] = {}

    def tally(view):
        for v, _, key, _ in view:
            if v not in skip:
                counts[key] = counts.get(key, 0) + 1

    h.run_cover_pass(y_order, tally)
    return EquivalenceClassTable(y_order, tuple(sorted(counts.items())))


def _materialize_from_classes(h: StreamHandle, y_order, picks: dict[int, int],
                              excluded) -> tuple[int, ...]:
    """One pass choosing, per class key, its first `picks[key]` remaining
    members in stream order."""
    skip = frozenset(excluded)
    remaining = dict(picks)
    chosen: list[int] = []

    def pick(view):
        for v, _, key, _ in view:
            if v not in skip:
                want = remaining.get(key, 0)
                if want > 0:
                    chosen.append(v)
                    remaining[key] = want - 1

    h.run_cover_pass(y_order, pick)
    if any(v > 0 for v in remaining.values()):
        raise OracleFault("class table out of sync with the stream")
    return tuple(chosen)


def _call_oracle(h: StreamHandle, oracle: StreamOracle, keep: frozenset[int],
                 meter: MemoryMeter | None) -> bool:
    """Run the oracle on the induced substream of `keep`, verifying that it
    consumed exactly its declared pass count."""
    sub = filtered_substream(h, keep.__contains__)
    before = h.pass_meter.passes
    answer = oracle.answer(sub, meter)
    used = h.pass_meter.passes - before
    if used != oracle.declared_passes:
        raise OracleFault(
            f"oracle consumed {used} passes, declared {oracle.declared_passes}"
        )
    return answer


def solve_with_a1(h: StreamHandle, X: VertexCover, ell: int, nu: int,
                  a1: StreamOracle, meter: MemoryMeter | None = None) -> SolveOutcome:
    """Branch on the deleted cover part; inside a branch, enumerate candidate
    occurrences as a cover subset J plus a class multiset I and ask the
    membership oracle about the induced subgraph on J plus picked twins."""
    if h.model != AL:
        raise NotALModel("solve_with_a1 requires an AL stream")
    require_cover(h.source, X)
    if nu < 1:
        raise BadParams("nu must be at least 1")
    if a1.kind != ORACLE_MEMBERSHIP:
        raise BadParams("solve_with_a1 needs a membership (a1) oracle")
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes
    cover_set = X.member_set()
    K = X.K

    with meter.scope(K), meter.scope(K), meter.scope(K):
        s_cursor = subset_first(X.members, min(ell, K), AT_MOST)
        while not s_cursor.at_end:
            s_branch = frozenset(s_cursor.current)
            y_order = tuple(sorted(cover_set - s_branch))

            if not _cover_part_hits(h, a1, y_order, meter):
                table = compute_equivalence_classes(h, y_order, s_branch, meter)
                ec = table.as_dict()
                rows_words = 2 * len(ec)
                meter.allocate(rows_words)
                deletions = MeteredSet(meter, s_branch)
                try:
                    solution = _search_a1(
                        h, a1, cover_set, y_order, deletions, ec, ell, nu, meter
                    )
                    if solution is not None:
                        return SolveOutcome(
                            True,
                            tuple(sorted(solution)),
                            h.pass_meter.passes - passes_before,
                            meter.peak_words,
                        )
                finally:
                    deletions.close()
                    meter.release(rows_words)
            s_cursor = subset_next(s_cursor)

    return SolveOutcome(False, (), h.pass_meter.passes - passes_before, meter.peak_words)


def _cover_part_hits(h, a1, y_order, meter) -> bool:
    """Literal rejection step: one membership call per subset of Y."""
    yp_cursor = subset_first(y_order, len(y_order), AT_MOST)
    while not yp_cursor.at_end:
        if _call_oracle(h, a1, frozenset(yp_cursor.current), meter):
            return True
        yp_cursor = subset_next(yp_cursor)
    return False


def _search_a1(h, a1, cover_set, y_order, deletions, ec, ell, nu, meter):
    """Returns the completed deletion set on success, None on failure."""
    j_cursor = subset_first(y_order, min(nu, len(y_order)), AT_MOST)
    while not j_cursor.at_end:
        j_part = frozenset(j_cursor.current)
        classes = tuple(sorted(ec.items()))
        i_cursor = multiset_first(classes, max(0, nu - len(j_part)))
        while not i_cursor.at_end:
            picks = dict(i_cursor.current)
            with meter.scope(3 * nu + 2):
                if picks:
                    chosen = _materialize_from_classes(
                        h, y_order, picks, cover_set | set(deletions)
                    )
                else:
                    chosen = ()
                hit = _call_oracle(h, a1, j_part | set(chosen), meter)
            if hit:
                if len(deletions) >= ell:
                    return None
                for key, count in sorted(picks.items()):
                    val = ec[key]
                    need = val - (count - 1)
                    if len(deletions) + need > ell:
                        continue
                    with meter.scope(nu + 1):
                        removed = _materialize_from_classes(
                            h, y_order, {key: need}, cover_set | set(deletions)
                        )
                    ec_next = dict(ec)
                    if count - 1 > 0:
                        ec_next[key] = count - 1
                    else:
                        del ec_next[key]
                    for v in removed:
                        deletions.add(v)
                    found = _search_a1(
                        h, a1, cover_set, y_order, deletions, ec_next, ell, nu, meter
                    )
                    if found is not None:
                        return found
                    for v in removed:
                        deletions.discard(v)
                return None
            i_cursor = multiset_next(i_cursor)
        j_cursor = subset_next(j_cursor)
    return deletions.snapshot()


def solve_with_a2(h: StreamHandle, X: VertexCover, ell: int, nu: int,
                  oracle: StreamOracle, variant: str = "plain",
                  meter: MemoryMeter | None = None) -> SolveOutcome:
    """Grow candidate outside sets in dictionary order; the first set whose
    union with Y is not family-free pinpoints occurrences that each single
    deletion inside it repairs, so branch on those deletions and resume."""
    if h.model != AL:
        raise NotALModel("solve_with_a2 requires an AL stream")
    require_cover(h.source, X)
    if nu < 1:
        raise BadParams("nu must be at least 1")
    if variant not in ("plain", "a1_subsets"):
        raise BadParams(f"unknown variant {variant!r}")
    want_kind = ORACLE_FREENESS if variant == "plain" else ORACLE_MEMBERSHIP
    if oracle.kind != want_kind:
        raise BadParams(f"variant {variant!r} needs a {want_kind} oracle")
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes
    cover_set = X.member_set()
    K = X.K
    outside = tuple(v for v in range(h.source.n) if v not in cover_set)

    def is_free(y_set: frozenset[int], i_part: tuple[int, ...]) -> bool:
        if variant == "plain":
            return _call_oracle(h, oracle, y_set | set(i_part), meter)
        bound = max(0, nu - len(i_part))
        j_cursor = subset_first(tuple(sorted(y_set)), min(bound, len(y_set)), AT_MOST)
        while not j_cursor.at_end:
            if _call_oracle(h, oracle, frozenset(j_cursor.current) | set(i_part), meter):
                return False
            j_cursor = subset_next(j_cursor)
        return True

    def search(deletions: MeteredSet, y_set: frozenset[int], cursor):
        cursor = (
            subset_first(outside, min(nu, len(outside)), AT_MOST)
            if cursor is None
            else subset_next(cursor)
        )
        while not cursor.at_end:
            i_part = cursor.current
            if any(v in deletions for v in i_part):
                cursor = subset_next(cursor)
                continue
            with meter.scope(nu):
                free = is_free(y_set, i_part)
            if free:
                cursor = subset_next(cursor)
                continue
            if len(deletions) >= ell:
                return None
            for v in i_part:
                deletions.add(v)
                with meter.scope(nu + 1):  # saved branch set along the path
                    found = search(deletions, y_set, cursor)
                if found is not None:
                    return found
                deletions.discard(v)
            return None
        return deletions.snapshot()

    with meter.scope(K), meter.scope(K), meter.scope(K):
        s_cursor = subset_first(X.members, min(ell, K), AT_MOST)
        while not s_cursor.at_end:
            s_branch = frozenset(s_cursor.current)
            y_set = cover_set - s_branch
            if is_free(y_set, ()):
                deletions = MeteredSet(meter, s_branch)
                try:
                    solution = search(deletions, y_set, None)
                    if solution is not None:
                        return SolveOutcome(
                            True,
                            tuple(sorted(solution)),
                            h.pass_meter.passes - passes_before,
                            meter.peak_words,
                        )
                finally:
                    deletions.close()
            s_cursor = subset_next(s_cursor)

    return SolveOutcome(False, (), h.pass_meter.passes - passes_before, meter.peak_words)


class _ClassSkipHandle(StreamHandle):
    """Residual-graph stream: drops a chosen cover subset and, per picked
    class (a key over the whole cover), its first `count` members in stream
    order.  Each edge is emitted once: a cover-internal edge from the later
    cover block, any other edge from its outside endpoint's block, so the
    decision for an outside vertex can wait until its own block."""

    __slots__ = ("parent", "cover", "picks", "drop_cover")

    def __init__(self, parent: StreamHandle, cover, picks, drop_cover):
        super().__init__(parent.source, parent.model, parent.order, parent.pass_meter)
        self.parent = parent
        self.cover = tuple(cover)
        self.picks = dict(picks)
        self.drop_cover = frozenset(drop_cover)

    def events(self):
        remaining = dict(self.picks)
        drop = self.drop_cover
        seen_cover: set[int] = set()
        for v, bit, key, nbrs in self.parent.cover_view(self.cover):
            if bit:
                if v not in drop:
                    yield vertex_begin(v)
                    for w in nbrs:
                        if w in seen_cover and w not in drop:
                            yield edge_event(v, w)
                    yield vertex_end(v)
                seen_cover.add(v)
            elif remaining.get(key, 0) > 0:
                remaining[key] -= 1
            else:
                yield vertex_begin(v)
                for w in nbrs:
                    if w not in drop:
                        yield edge_event(v, w)
                yield vertex_end(v)
        yield PASS_END_EVENT


def solve_equivclass_enum(h: StreamHandle, X: VertexCover, a2: StreamOracle,
                          ell: int, meter: MemoryMeter | None = None) -> SolveOutcome:
    """Enumerate candidate solutions as cover deletions plus per-class
    deletion counts (classes toward the full cover), streaming each residual
    graph through the freeness oracle."""
    if h.model != AL:
        raise NotALModel("solve_equivclass_enum requires an AL stream")
    require_cover(h.source, X)
    if a2.kind != ORACLE_FREENESS:
        raise BadParams("solve_equivclass_enum needs a freeness (a2) oracle")
    if ell > X.K:
        raise BadParams("budget above the cover size is trivial; require ell <= K")
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes
    cover_set = X.member_set()
    K = X.K

    table = compute_equivalence_classes(h, X.members, frozenset(), meter)
    rows_words = 2 * len(table.rows)

    with meter.scope(K), meter.scope(rows_words), meter.scope(K):
        sx_cursor = subset_first(X.members, min(ell, K), AT_MOST)
        while not sx_cursor.at_end:
            drop_cover = frozenset(sx_cursor.current)
            remaining_budget = ell - len(drop_cover)
            classes = tuple(
                (key, min(count, remaining_budget)) for key, count in table.rows
            )
            pick_cursor = multiset_first(classes, remaining_budget)
            while not pick_cursor.at_end:
                picks = dict(pick_cursor.current)
                with meter.scope(2 * K + 2):
                    residual = _ClassSkipHandle(h, table.y_order, picks, drop_cover)
                    before = h.pass_meter.passes
                    free = a2.answer(residual, meter)
                    used = h.pass_meter.passes - before
                    if used != a2.declared_passes:
                        raise OracleFault(
                            f"oracle consumed {used} passes, declared {a2.declared_passes}"
                        )
                if free:
                    chosen = (
                        _materialize_from_classes(h, table.y_order, picks, cover_set)
                        if picks
                        else ()
                    )
                    return SolveOutcome(
                        True,
                        tuple(sorted(drop_cover | set(chosen))),
                        h.pass_meter.passes - passes_before,
                        meter.peak_words,
                    )
                pick_cursor = multiset_next(pick_cursor)
            sx_cursor = subset_next(sx_cursor)

    return SolveOutcome(False, (), h.pass_meter.passes - passes_before, meter.peak_words)
