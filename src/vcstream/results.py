"""Result records shared by kernels and solvers, and the solvers' common
outer search over the deleted cover part."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .enumeration import AT_MOST, subsets
from .graph import Graph, VertexCover
from .meters import MemoryMeter
from .streams import StreamHandle


@dataclass(frozen=True)
class SolveOutcome:
    """Verdict plus the instrumentation record of the run that produced it."""

    feasible: bool
    solution: tuple[int, ...]
    passes: int
    peak_words: int

    @property
    def verdict(self) -> str:
        return "YES" if self.feasible else "NO"


def branch_on_cover(h: StreamHandle, X: VertexCover, ell: int, words: int,
                    branch: Callable[[frozenset, frozenset, MemoryMeter], Iterable[int] | None],
                    meter: MemoryMeter | None = None) -> SolveOutcome:
    """Guess the deleted cover part S, |S| <= min(ell, K), in subset order
    (S = {} first), and return the first `branch(S, X - S, meter)` that is
    not None as the solution.  `words` is the solver's fixed state, held for
    the whole search.  Passes count from this call.  Before any pass,
    `StreamHandle.require_cover` raises NotALModel on an EA or VA stream and
    InvalidCover when X does not cover the graph."""
    h.require_cover(X.members)
    meter = meter if meter is not None else MemoryMeter()
    passes_before = h.pass_meter.passes
    cover_set = X.member_set()
    with meter.scope(words):
        for s in subsets(X.members, min(ell, X.K), AT_MOST):
            s_branch = frozenset(s)
            solution = branch(s_branch, cover_set - s_branch, meter)
            if solution is not None:
                return SolveOutcome(True, tuple(sorted(solution)),
                                    h.pass_meter.passes - passes_before, meter.peak_words)
    return SolveOutcome(False, (), h.pass_meter.passes - passes_before, meter.peak_words)


@dataclass(frozen=True)
class KernelOutput:
    """Kept vertex set and the emitted kernel: its edges as an EA stream, in
    emission order."""

    kept_vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    passes: int
    peak_words: int

    def kernel_graph(self) -> tuple[Graph, tuple[int, ...]]:
        """Kernel as a dense graph, edges sorted, with its vertices' original ids."""
        old = tuple(sorted(self.kept_vertices))
        index = {v: i for i, v in enumerate(old)}
        return Graph(len(old), sorted((index[u], index[v]) for u, v in self.edges)), old
