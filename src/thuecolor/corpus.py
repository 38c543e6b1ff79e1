"""Built-in graph corpus and the path-count dominance sweep.

The corpus is the fixed set used by the acceptance checks: small named
graphs plus twenty seeded random graphs with maximum degree at most 4
on at most 10 vertices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    ElementId,
    GeneralizedGraph,
    PATH_BOUNDS,
    PathKind,
    complete_graph,
    count_paths_containing,
    cycle_graph,
    from_standard,
    path_graph,
    petersen_graph,
)

CORPUS_SEED = 20240917
_RANDOM_COUNT = 20


def random_bounded_graph(
    rng: np.random.Generator, max_n: int = 10, max_degree: int = 4
) -> GeneralizedGraph:
    """A random graph with at least one edge and degrees capped."""
    n = int(rng.integers(4, max_n + 1))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    order = rng.permutation(len(pairs))
    degree = [0] * n
    edges: list[tuple[int, int]] = []
    target = int(rng.integers(n - 1, 2 * n + 1))
    for k in order:
        if len(edges) >= target:
            break
        u, w = pairs[int(k)]
        if degree[u] < max_degree and degree[w] < max_degree:
            edges.append((u, w))
            degree[u] += 1
            degree[w] += 1
    return from_standard(n, sorted(edges))


def builtin_corpus(seed: int = CORPUS_SEED) -> list[tuple[str, GeneralizedGraph]]:
    """Named graphs plus the seeded random members."""
    named = [
        ("P6", path_graph(6)),
        ("C6", cycle_graph(6)),
        ("K4", complete_graph(4)),
        ("K5", complete_graph(5)),
        ("petersen", petersen_graph()),
    ]
    root = np.random.SeedSequence(seed)
    for t, child in enumerate(root.spawn(_RANDOM_COUNT)):
        rng = np.random.Generator(np.random.PCG64(child))
        named.append((f"random{t:02d}", random_bounded_graph(rng)))
    return named


@dataclass(frozen=True)
class DominanceRecord:
    graph: str
    element: ElementId
    kind: PathKind
    total_form: bool
    half_length: int
    count: int
    bound: int

    @property
    def holds(self) -> bool:
        return self.count <= self.bound


def path_dominance_records(
    name: str, g: GeneralizedGraph, max_half: int = 4
) -> list[DominanceRecord]:
    """Compare the path counts through every element to the bounds.

    Counts come from one tally per kind and length, which agrees with
    per-element enumeration but enumerates no path.
    """
    if max_half < 1:
        raise ValueError(f"max_half must be at least 1, got {max_half}")
    delta = g.max_degree
    if delta < 1:
        raise ValueError(f"graph {name} has no incidences; bounds need Delta >= 1")
    lengths = [2 * i for i in range(1, max_half + 1)]
    tallies = {
        kind: count_paths_containing(g, kind, lengths)
        for kind in (PathKind.VERTEX, PathKind.EDGE, PathKind.MIXED)
    }
    records = []
    for x in sorted(g.elements):
        for (x_kind, kind, total_form), bound in PATH_BOUNDS.items():
            if x_kind is not x.kind:
                continue
            for i in range(1, max_half + 1):
                records.append(
                    DominanceRecord(
                        graph=name,
                        element=x,
                        kind=kind,
                        total_form=total_form,
                        half_length=i,
                        count=tallies[kind][2 * i].get(x, 0),
                        bound=bound(delta, i),
                    )
                )
    return records
