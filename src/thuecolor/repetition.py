"""Square detection in color sequences and in colorings of generalized graphs.

A square is a sequence s1..s2n whose halves agree position by position
(s_i = s_{i+n} for every i).  A coloring is non-repetitive under a
regime when no path of the regime's kinds induces a square.  Vertex and
edge palettes are shared, and mixed-path squares of odd half-length
(which compare vertex colors with edge colors) count as violations.
"""
from __future__ import annotations

from enum import Enum
from typing import Mapping, Sequence

from .graphs import (
    ElementId,
    ElementKind,
    GeneralizedGraph,
    Path,
    PathKind,
    walk,
)

Color = int
Coloring = Mapping[ElementId, Color]


def find_square(seq: Sequence) -> tuple[int, int] | None:
    """Locate the shortest, then leftmost, square factor of a sequence.

    Returns (start, half_length) or None when the sequence is
    square-free.  Elements only need equality comparison, so strings,
    byte strings, and integer sequences all work.
    """
    n = len(seq)
    for half in range(1, n // 2 + 1):
        for start in range(0, n - 2 * half + 1):
            if all(seq[start + k] == seq[start + half + k] for k in range(half)):
                return (start, half)
    return None


def is_square_colors(colors: Sequence[Color]) -> bool:
    n = len(colors)
    if n == 0 or n % 2:
        return False
    half = n // 2
    return all(colors[k] == colors[half + k] for k in range(half))


class Regime(Enum):
    """Which paths must be square-free and which elements carry colors."""

    VERTEX = "vertex"
    EDGE = "edge"
    WEAK_TOTAL = "weak-total"
    STRONG_TOTAL = "strong-total"

    @property
    def path_kinds(self) -> tuple[PathKind, ...]:
        if self is Regime.VERTEX:
            return (PathKind.VERTEX,)
        if self is Regime.EDGE:
            return (PathKind.EDGE,)
        if self is Regime.WEAK_TOTAL:
            return (PathKind.MIXED,)
        return (PathKind.VERTEX, PathKind.EDGE, PathKind.MIXED)

    @property
    def element_kinds(self) -> tuple[ElementKind, ...]:
        if self is Regime.VERTEX:
            return (ElementKind.VERTEX,)
        if self is Regime.EDGE:
            return (ElementKind.EDGE,)
        return (ElementKind.VERTEX, ElementKind.EDGE)

    def kinds_through(self, x_kind: ElementKind) -> tuple[PathKind, ...]:
        """Path kinds that can pass through an element of the given kind."""
        mine = PathKind.VERTEX if x_kind is ElementKind.VERTEX else PathKind.EDGE
        return tuple(k for k in self.path_kinds if k in (mine, PathKind.MIXED))


def relevant_elements(g: GeneralizedGraph, regime: Regime) -> list[ElementId]:
    """Colored elements of the regime, vertices before edges, by index."""
    out: list[ElementId] = []
    if ElementKind.VERTEX in regime.element_kinds:
        out.extend(sorted(g.vertices))
    if ElementKind.EDGE in regime.element_kinds:
        out.extend(sorted(g.edges))
    return out


def find_violating_path(
    g: GeneralizedGraph,
    coloring: Coloring,
    regime: Regime,
    must_contain: ElementId | None = None,
) -> Path | None:
    """Search colored elements for a square path, shortest half-length first.

    Ties at the same half-length break on path kind (vertex, edge,
    mixed) and then on the canonical element sequence, so the result is
    deterministic.  Only paths all of whose elements are colored are
    considered; ``must_contain`` restricts the search to paths through
    that element.
    """
    colored = frozenset(x for x in coloring if x in g)
    if must_contain is not None:
        if must_contain not in g:
            raise ValueError(f"element not in graph: {must_contain}")
        if must_contain not in colored:
            return None
    max_half = 0
    for kind in regime.path_kinds:
        max_half = max(max_half, len(g.domain(kind) & colored) // 2)
    for half in range(1, max_half + 1):
        for kind in regime.path_kinds:
            hits = list(
                walk(g, kind, 2 * half, through=must_contain, allowed=colored, echo=coloring)
            )
            if hits:
                return Path(kind, min(hits))
    return None


def has_square_through(
    g: GeneralizedGraph, coloring: Coloring, regime: Regime, x: ElementId
) -> bool:
    """True when some fully colored square path of the regime passes through x."""
    return find_violating_path(g, coloring, regime, x) is not None


def is_valid(g: GeneralizedGraph, coloring: Coloring, regime: Regime) -> bool:
    """True when the coloring is total on the regime's elements and square-free."""
    missing = [x for x in relevant_elements(g, regime) if x not in coloring]
    if missing:
        raise ValueError(
            f"coloring is partial for regime {regime.value}: missing {missing[0]}"
        )
    return find_violating_path(g, coloring, regime) is None


def interleaved_sequence(g: GeneralizedGraph, coloring: Coloring, n: int) -> list[Color]:
    """Colors along a standard path graph read v0, e0, v1, e1, ..., v_{n-1}."""
    from .graphs import edge, vertex

    seq: list[Color] = []
    for i in range(n):
        seq.append(coloring[vertex(i)])
        if i < n - 1:
            seq.append(coloring[edge(i)])
    return seq
