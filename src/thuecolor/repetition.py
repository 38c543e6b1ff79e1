"""Square detection in color sequences and in colorings of generalized graphs.

A square is a sequence s1..s2n whose halves agree position by position
(s_i = s_{i+n} for every i).  A coloring is non-repetitive under a
regime when no path of the regime's kinds induces a square.  Vertex and
edge palettes are shared, and mixed-path squares of odd half-length
(which compare vertex colors with edge colors) count as violations.

``find_violating_path`` does not enumerate paths: it grows them one
element per level, grouped by the color word they spell, so a single
pass covers every half-length (``square_levels``); ``find_squares_through``
runs the same levels on the ball around a few elements.
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
) -> Path | None:
    """Search colored elements for a square path, shortest half-length first.

    Ties at the same half-length break on path kind (vertex, edge,
    mixed) and then on the canonical element sequence, so the result is
    deterministic.  Only paths all of whose elements are colored are
    considered.

    One level-synchronous pass covers every half-length.  Level h holds,
    per path kind, the directed simple paths of h colored elements,
    grouped by the color word they spell; a square of half h is a pair
    A, B from one group with B[0] adjacent to A[-1] and A, B disjoint.
    The two halves of a square end at distinct elements at every level,
    so a group whose paths all end at one element is dropped, and the
    groups die out on a square-free coloring.
    """
    levels = square_levels(g, coloring, regime)
    return next((min(squares, key=Path.sort_key) for squares in levels if squares), None)


def square_levels(g: GeneralizedGraph, coloring: Coloring, regime: Regime):
    """Every square path of half 1, 2, ...: one list per level, while groups remain."""
    colored = g.elements.intersection(coloring)
    level = []
    for kind in regime.path_kinds:
        domain = g.domain(kind) & colored
        adj = g._neighbor_table(kind)
        if adj.keys() != domain:  # uncolored or isolated elements
            adj = {x: tuple(y for y in adj.get(x, ()) if y in domain) for x in domain}
        classes: dict[Color, list[tuple[ElementId, ...]]] = {}
        for x in domain:
            classes.setdefault(coloring[x], []).append((x,))
        level.append((kind, adj, _split_ends(classes.values())))
    while level:
        yield [Path(kind, s) for kind, adj, groups in level for s in _squares(adj, groups)]
        level = [
            (kind, adj, nxt)
            for kind, adj, groups in level
            if (nxt := _next_groups(adj, coloring, groups))
        ]


def _split_ends(groups):
    """The groups whose paths end at two or more distinct elements."""
    return [grp for grp in groups if any(p[-1] != grp[0][-1] for p in grp)]


def _next_groups(adj, coloring: Coloring, groups):
    """Extend every path by one element, splitting each group by its color."""
    out = []
    for grp in groups:
        children: dict[Color, list[tuple[ElementId, ...]]] = {}
        for p in grp:
            for y in adj[p[-1]]:
                if y not in p:
                    children.setdefault(coloring[y], []).append(p + (y,))
        out.extend(_split_ends(children.values()))
    return out


def _squares(adj, groups):
    """Every A + B over the pairs of one group that form a square, canonical."""
    for grp in groups:
        starts: dict[ElementId, list[tuple[ElementId, ...]]] = {}
        for p in grp:
            starts.setdefault(p[0], []).append(p)
        for a in grp:
            for y in adj[a[-1]]:
                for b in starts.get(y, ()):
                    if a[0] < b[-1] and set(a).isdisjoint(b):
                        yield a + b


def find_squares_through(
    g: GeneralizedGraph, coloring: Coloring, regime: Regime, half: int, near: set[ElementId]
) -> list[Path]:
    """Every square path of half-length ``half`` with an element in ``near``.

    Such a path lies within 2 * half - 1 steps of ``near``, so the levels of
    ``find_violating_path`` run on that ball, with the neighbour tables cut to it.
    """
    out = []
    for kind in regime.path_kinds:
        adj = g._neighbor_table(kind)  # isolated elements lie on no square
        ball = frontier = {x for x in near if x in adj and x in coloring}
        for _ in range(2 * half - 1):
            frontier = {y for x in frontier for y in adj[x] if y in coloring} - ball
            ball |= frontier
        cut = {x: tuple(y for y in adj[x] if y in ball) for x in ball}
        classes: dict[Color, list[tuple[ElementId, ...]]] = {}
        for x in ball:
            classes.setdefault(coloring[x], []).append((x,))
        groups = _split_ends(classes.values())
        for _ in range(half - 1):
            groups = _next_groups(cut, coloring, groups)
        out.extend(Path(kind, s) for s in _squares(cut, groups) if not near.isdisjoint(s))
    return out


def require_total(g: GeneralizedGraph, coloring: Coloring, regime: Regime) -> None:
    """Raise ValueError unless every element the regime colors has a color."""
    missing = [x for x in relevant_elements(g, regime) if x not in coloring]
    if missing:
        raise ValueError(
            f"coloring is partial for regime {regime.value}: missing {missing[0]}"
        )


def is_valid(g: GeneralizedGraph, coloring: Coloring, regime: Regime) -> bool:
    """True when the coloring is total on the regime's elements and square-free."""
    require_total(g, coloring, regime)
    return find_violating_path(g, coloring, regime) is None
