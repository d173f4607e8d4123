"""Seeded planted-cover instances as `.vcs` text, in O(K*n).

An instance has a fixed *shape* and a seeded *layout*.  The shape seed draws
the edges inside the cover (over cover ranks) and, for every outside vertex
in stream order, its neighbourhood in the cover: one draw per cover vertex,
so O(K*n) work where `vcstream gen planted` is O(n^2).  The last outside
vertex always sees the whole cover.  The layout seed (the benchmark's
`--seed`) chooses which ids the cover takes, never the last id.

Every solver and kernel in vcstream depends on its input only through the
cover-internal graph over cover ranks, the sequence of outside
neighbourhoods in stream order, and the number of cover vertices seen before
each outside vertex.  Only `reduce_str` reads the last of these, and its peak
always falls on the final full-neighbourhood vertex, with all K cover
vertices seen.  So every seed gives each job the same verdict, |solution|,
passes and peak_words, and the golden table holds one row per job, valid
for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    n: int
    k: int
    p: float
    ell: int
    shape_seed: int


@dataclass(frozen=True)
class Planted:
    n: int
    cover: tuple[int, ...]
    ell: int
    edges: tuple[tuple[int, int], ...]  # u < v, sorted


def planted(shape: Shape, seed: int) -> Planted:
    n, k, p = shape.n, shape.k, shape.p
    if not 1 <= k < n - 1:
        raise ValueError(f"bad shape {shape}")
    draw = random.Random(shape.shape_seed).random
    cover_edges = [(a, b) for a in range(k) for b in range(a + 1, k) if draw() < p]
    masks = [[r for r in range(k) if draw() < p] for _ in range(n - k - 1)]
    masks.append(list(range(k)))

    cover = sorted(random.Random(seed).sample(range(n - 1), k))
    cover_set = set(cover)
    outside = [v for v in range(n) if v not in cover_set]

    edges = [(cover[a], cover[b]) for a, b in cover_edges]
    for v, ranks in zip(outside, masks):
        for r in ranks:
            c = cover[r]
            edges.append((c, v) if c < v else (v, c))
    edges.sort()
    return Planted(n, tuple(cover), shape.ell, tuple(edges))


def vcs_text(inst: Planted, comment: str) -> str:
    lines = [
        f"p vcstream {inst.n} {len(inst.edges)} {len(inst.cover)} {inst.ell}",
        f"c {comment}",
        "x " + " ".join(map(str, inst.cover)),
    ]
    lines.extend(f"e {u} {v}" for u, v in inst.edges)
    return "\n".join(lines) + "\n"
