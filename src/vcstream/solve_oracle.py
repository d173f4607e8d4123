"""Deletion solving against a black-box family oracle, without storing the
family explicitly.

Outside vertices with the same neighbourhood in the kept cover part are
twins, hence interchangeable in solutions; the solvers therefore enumerate
candidate occurrences as (cover subset, multiset of equivalence classes) and
delete whole class surpluses at a time.  Every oracle call costs one full
pass of the outer stream per declared oracle pass, because the oracle input
substream is re-generated on the fly from the outer stream (`KeptStream`).
Picks are the (key, count) pairs that `multisets` yields; a1 reads a pick's
members once per search frame and keeps them, one counted pass per use.
"""

from __future__ import annotations

from .enumeration import AT_MOST, multisets, subsets
from .errors import BadParams, MemoryBudgetExceeded, OracleFault
from .graph import VertexCover
from .meters import MemoryMeter, MeteredSet
from .properties import ORACLE_FREENESS, ORACLE_MEMBERSHIP, StreamOracle
from .results import SolveOutcome, branch_on_cover
from .streams import ClassIndex, KeptStream, StreamHandle


def compute_equivalence_classes(h: StreamHandle, Y, exclude=frozenset(),
                                meter: MemoryMeter | None = None) -> dict[int, int]:
    """One pass tallying, for every vertex outside Y and exclude, its
    adjacency bitstring toward Y (a bitmask over Y's members in ascending
    order): per twin class of the class index of Y, its members not in
    exclude.  Returns the nonzero counts, sorted by key.  Callers pass the
    deleted cover part (and any deleted outside vertices) via exclude.  Each
    row (key and count) is charged 2 words as it appears; the caller
    releases 2 words per row."""
    meter = meter if meter is not None else MemoryMeter()
    y_order = tuple(sorted(Y))
    gone = frozenset(exclude)
    counts: dict[int, int] = {}

    def tally(index):
        order = index.order
        for key, positions in index.classes.items():
            count = sum(order[pos] not in gone for pos in positions)
            if count:
                meter.allocate(2)
                counts[key] = count

    try:
        h.run_class_pass(y_order, tally)
    except MemoryBudgetExceeded:
        meter.release(2 * len(counts))
        raise
    return dict(sorted(counts.items()))


def _first_members(index: ClassIndex, picks, skip) -> list[int]:
    """Per (key, count) pair of `picks`, the class's first `count` members not
    in `skip`, all in stream order."""
    order = index.order
    chosen: list[int] = []  # stream positions
    for key, want in picks:
        for pos in index.classes.get(key, ()):
            if want <= 0:
                break
            v = order[pos]
            if v not in skip:
                chosen.append(pos)
                want -= 1
    chosen.sort()
    return [order[pos] for pos in chosen]


def _materialize_from_classes(h: StreamHandle, index: ClassIndex, picks,
                              excluded) -> tuple[int, ...]:
    """One pass choosing, per (key, count) pair of `picks`, a class key of
    `index` (a class index of h), its first `count` members not in
    `excluded`, in stream order.  No cover vertex needs excluding beyond
    that: a1's `excluded` holds the deleted cover part, and the cover's own
    index files no cover vertex in a class."""
    chosen = h.run_pass(lambda: _first_members(index, picks, excluded))
    if len(chosen) < sum(count for _, count in picks):
        raise OracleFault("class table out of sync with the stream")
    return tuple(chosen)


def _checked_answer(oracle: StreamOracle, h: StreamHandle, keep: frozenset[int],
                    meter: MemoryMeter | None) -> bool:
    """Ask the oracle about the substream of h induced by `keep`, verifying
    that it used exactly its declared passes of h."""
    before = h.pass_meter.passes
    answer = oracle.answer(KeptStream(h, keep), meter)
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
    if nu < 1:
        raise BadParams("nu must be at least 1")
    if a1.kind != ORACLE_MEMBERSHIP:
        raise BadParams("solve_with_a1 needs a membership (a1) oracle")

    def branch(s_branch, y_set, meter):
        y_order = tuple(sorted(y_set))
        # literal rejection step: one membership call per subset of Y
        if _any_subset_hit(h, a1, y_order, len(y_order), frozenset(), meter):
            return None
        ec = compute_equivalence_classes(h, y_order, s_branch, meter)
        try:
            with MeteredSet(meter, s_branch) as deletions:
                return _search_a1(h, a1, y_order, h.class_index(y_order), deletions, ec,
                                  ell, nu, meter)
        finally:
            meter.release(2 * len(ec))

    return branch_on_cover(h, X, ell, 3 * X.K, branch, meter)


def _any_subset_hit(h, oracle, y_order, bound, fixed, meter) -> bool:
    """Ask the oracle about J | fixed for each J of at most `bound` members of
    Y, in subset order, up to the first yes."""
    return any(_checked_answer(oracle, h, frozenset(j_part) | fixed, meter)
               for j_part in subsets(y_order, bound, AT_MOST))


def _search_a1(h, a1, y_order, index, deletions, ec, ell, nu, meter):
    """Returns the completed deletion set on success, None on failure.  Every
    pick is read off `index`, the class index of `y_order`, held for the
    whole search.  `deletions` holds still until the frame returns, so the
    frame walks its picks once, as a table ordered by total: a cover subset
    J takes the prefix of total at most nu - |J|.  Each row keeps its pick's
    members once read, with the out-of-sync check; a later use still spends
    its counted pass.  The table is free, like the verdict cache."""
    walk = [[sum(count for _, count in picks), picks, None if picks else ()]
            for picks in multisets(tuple(sorted(ec.items())), nu)]
    for j_part in map(frozenset, subsets(y_order, nu, AT_MOST)):
        room = nu - len(j_part)
        for row in walk:
            total, picks, chosen = row
            if total > room:
                break
            with meter.scope(3 * nu + 2):
                if chosen is None:
                    chosen = row[2] = _materialize_from_classes(h, index, picks,
                                                                deletions.items)
                elif picks:
                    h.run_pass(lambda: chosen)
                hit = _checked_answer(a1, h, j_part.union(chosen), meter)
            if hit:
                if len(deletions) >= ell:
                    return None
                for key, count in picks:
                    val = ec[key]
                    need = val - (count - 1)
                    if len(deletions) + need > ell:
                        continue
                    with meter.scope(nu + 1):
                        removed = _materialize_from_classes(h, index, ((key, need),),
                                                            deletions.items)
                    ec_next = dict(ec)
                    if count - 1 > 0:
                        ec_next[key] = count - 1
                    else:
                        del ec_next[key]
                    for v in removed:
                        deletions.add(v)
                    found = _search_a1(h, a1, y_order, index, deletions, ec_next, ell, nu,
                                       meter)
                    if found is not None:
                        return found
                    for v in removed:
                        deletions.discard(v)
                return None
    return deletions.snapshot()


def solve_with_a2(h: StreamHandle, X: VertexCover, ell: int, nu: int,
                  oracle: StreamOracle, variant: str = "plain",
                  meter: MemoryMeter | None = None) -> SolveOutcome:
    """Grow candidate outside sets in dictionary order; the first set whose
    union with Y is not family-free pinpoints occurrences that each single
    deletion inside it repairs, so branch on those deletions and resume."""
    if nu < 1:
        raise BadParams("nu must be at least 1")
    if variant not in ("plain", "a1_subsets"):
        raise BadParams(f"unknown variant {variant!r}")
    want_kind = ORACLE_FREENESS if variant == "plain" else ORACLE_MEMBERSHIP
    if oracle.kind != want_kind:
        raise BadParams(f"variant {variant!r} needs a {want_kind} oracle")
    cover_set = X.member_set()
    outside = tuple(sorted(v for v in h.blocks if v not in cover_set))
    top = min(nu, len(outside))

    def branch(s_branch, y_set, meter):
        def is_free(i_part: tuple[int, ...]) -> bool:
            if variant == "plain":
                return _checked_answer(oracle, h, y_set.union(i_part), meter)
            return not _any_subset_hit(h, oracle, tuple(sorted(y_set)),
                                       max(0, nu - len(i_part)), frozenset(i_part), meter)

        def search(deletions: MeteredSet, walk):
            for i_part in walk:
                if any(v in deletions for v in i_part):
                    continue
                with meter.scope(nu):
                    free = is_free(i_part)
                if free:
                    continue
                if len(deletions) >= ell:
                    return None
                for v in i_part:
                    deletions.add(v)
                    with meter.scope(nu + 1):  # saved branch set along the path
                        found = search(deletions, subsets(outside, top, AT_MOST, after=i_part))
                    if found is not None:
                        return found
                    deletions.discard(v)
                return None
            return deletions.snapshot()

        if not is_free(()):
            return None
        with MeteredSet(meter, s_branch) as deletions:
            return search(deletions, subsets(outside, top, AT_MOST))

    return branch_on_cover(h, X, ell, 3 * X.K, branch, meter)


def _residual(h: StreamHandle, cover, picks, drop_cover) -> frozenset[int]:
    """The residual graph's vertices: all but a chosen cover subset and, per
    (key, count) pair of `picks` (a key over the whole cover), its first
    `count` members in stream order.  The classes are read off the cover's
    class index, which the oracle's own pass over the kept blocks is charged
    for."""
    index = h.class_index(cover)
    return frozenset(index.order).difference(drop_cover, _first_members(index, picks, ()))


def solve_equivclass_enum(h: StreamHandle, X: VertexCover, a2: StreamOracle,
                          ell: int, meter: MemoryMeter | None = None) -> SolveOutcome:
    """Enumerate candidate solutions as cover deletions plus per-class
    deletion counts (classes toward the full cover), streaming each residual
    graph through the freeness oracle."""
    if a2.kind != ORACLE_FREENESS:
        raise BadParams("solve_equivclass_enum needs a freeness (a2) oracle")
    if ell > X.K:
        raise BadParams("budget above the cover size is trivial; require ell <= K")
    meter = meter if meter is not None else MemoryMeter()
    cover_set = X.member_set()
    K = X.K
    tables: list[dict[int, int]] = []  # built by the first branch

    def branch(drop_cover, _, meter):
        if not tables:
            tables.append(compute_equivalence_classes(h, X.members, frozenset(), meter))
        table = tables[0]
        remaining_budget = ell - len(drop_cover)
        classes = tuple((key, min(count, remaining_budget)) for key, count in table.items())
        for picks in multisets(classes, remaining_budget):
            with meter.scope(2 * K + 2):
                free = _checked_answer(a2, h, _residual(h, cover_set, picks, drop_cover),
                                       meter)
            if free:
                chosen = (_materialize_from_classes(h, h.class_index(X.members), picks, ())
                          if picks else ())
                return drop_cover | set(chosen)
        return None

    try:
        # X and the current S
        return branch_on_cover(h, X, ell, 2 * K, branch, meter)
    finally:
        meter.release(sum(2 * len(t) for t in tables))
