"""Vertex-cover-parameterized streaming kernels and deletion solvers.

Graphs arrive as replayable EA/VA/AL event streams; every algorithm charges
its passes to a PassMeter and its working state, in words, to a MemoryMeter,
so the pass/memory trade-off between one-pass kernels and many-pass low-
memory branching solvers is a measured, testable quantity.
"""

__version__ = "0.1.0"

from .graph import Graph, VertexCover
from .instances import load_instance, write_instance
from .meters import MemoryMeter, PassMeter
from .properties import (
    AdjacencyCharacterization,
    ExplicitFamily,
    PatternGraph,
    family_oracle,
    is_induced_subgraph,
)
from .results import KernelOutput, SolveOutcome
from .streams import AL, EA, VA, filtered_substream, make_stream

__all__ = [
    "AL",
    "EA",
    "VA",
    "AdjacencyCharacterization",
    "ExplicitFamily",
    "Graph",
    "KernelOutput",
    "MemoryMeter",
    "PassMeter",
    "PatternGraph",
    "SolveOutcome",
    "VertexCover",
    "family_oracle",
    "filtered_substream",
    "is_induced_subgraph",
    "load_instance",
    "make_stream",
    "write_instance",
    "__version__",
]
