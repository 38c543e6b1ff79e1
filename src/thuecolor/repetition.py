"""Square detection in color sequences and in colorings of generalized graphs.

A square is a sequence s1..s2n whose halves agree position by position
(s_i = s_{i+n} for every i).  A coloring is non-repetitive under a
regime when no path of the regime's kinds induces a square.  Vertex and
edge palettes are shared, and mixed-path squares of odd half-length
(which compare vertex colors with edge colors) count as violations.

``find_violating_path`` does not enumerate paths: it grows them one
element per level, grouped by the color word they spell, so a single
pass covers every half-length (``square_levels``); ``find_squares_through``
grows the squares of one half from the few elements they must pass through.
Both run on the graph's one indexed board: elements as their sorted indices,
and colors as a list by index, so index order is element order.
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

    Per half h, one scan counts the run of positions i that agree with
    i + h; the first run to reach h ends the leftmost square of that half.
    """
    n = len(seq)
    for half in range(1, n // 2 + 1):
        run = 0
        for i in range(n - half):
            if seq[i] == seq[i + half]:
                run += 1
                if run == half:
                    return (i - half + 1, half)
            else:
                run = 0
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
    groups die out on a square-free coloring.  The pass runs on the
    graph's board; the coloring is read onto it once.
    """
    order = g._order
    colors = [coloring.get(x) for x in order]
    least = next((min(keys) for keys in square_levels(g, colors, regime) if keys), None)
    if least is None:
        return None
    _, rank, s = least
    return Path(regime.path_kinds[rank], tuple(order[i] for i in s))


def square_levels(g: GeneralizedGraph, colors: Sequence[Color | None], regime: Regime):
    """Every square of half 1, 2, ...: one list of keys per level, while groups remain.

    ``colors[i]`` colors board element i, None when uncolored.  A key is
    ``(2h, kind's place in regime.path_kinds, indices)``; keys sort as ``Path.sort_key``.
    """
    level = []
    for rank, kind in enumerate(regime.path_kinds):
        nbrs = g._board(kind)
        domain = [i for i, nb in enumerate(nbrs) if nb and colors[i] is not None]
        if len(domain) < g._linked[kind]:  # uncolored elements
            nbrs = [tuple(y for y in nb if colors[y] is not None) for nb in nbrs]
        level.append((rank, nbrs, _groups(domain, colors)))
    while level:
        yield [(len(s), rank, s) for rank, nbrs, groups in level for s in _squares(nbrs, groups)]
        level = [
            (rank, nbrs, nxt)
            for rank, nbrs, groups in level
            if (nxt := _next_groups(nbrs, colors, groups))
        ]


def _groups(elements, colors):
    """The one-element paths, grouped by color, whose ends are not all one."""
    classes: dict[Color, list[tuple[int, ...]]] = {}
    for x in elements:
        classes.setdefault(colors[x], []).append((x,))
    return _split_ends(classes.values())


def _split_ends(groups):
    """The groups whose paths end at two or more distinct elements."""
    out = []
    for grp in groups:
        end = grp[0][-1]
        for p in grp:
            if p[-1] != end:
                out.append(grp)
                break
    return out


def _next_groups(nbrs, colors, groups):
    """Extend every path by one element, splitting each group by its color."""
    out = []
    for grp in groups:
        children: dict[Color, list[tuple[int, ...]]] = {}
        for p in grp:
            for y in nbrs[p[-1]]:
                if y not in p:
                    children.setdefault(colors[y], []).append(p + (y,))
        out.extend(_split_ends(children.values()))
    return out


def _squares(nbrs, groups):
    """Every A + B over the pairs of one group that form a square, canonical."""
    for grp in groups:
        starts: dict[int, list[tuple[int, ...]]] = {}
        for p in grp:
            starts.setdefault(p[0], []).append(p)
        for a in grp:
            for y in nbrs[a[-1]]:
                for b in starts.get(y, ()):
                    if a[0] < b[-1] and set(a).isdisjoint(b):
                        yield a + b


def find_squares_through(
    g: GeneralizedGraph, colors: Sequence[Color], regime: Regime, half: int, near: set[int]
) -> list[tuple]:
    """Keys of every square of half-length ``half`` with an element in ``near``,
    grown from ``near`` alone (``_anchored``).  ``colors`` is on the board and
    must color every element of the regime.
    """
    plan = g._searches.get(regime)
    if plan is None:  # per kind: rank, board, grown paths
        plan = g._searches[regime] = [
            (rank, g._board(kind), {}) for rank, kind in enumerate(regime.path_kinds)]
    out = []
    for rank, nbrs, paths in plan:
        out += _anchored(nbrs, colors, half, near, (2 * half, rank), paths)
    return out


def _anchored(nbrs, colors, half, near, key, paths) -> set[tuple]:
    """``key + (indices,)`` for every square of ``half`` through ``near``, once.

    Put x in the first half: its echo h places on has its color, and so does
    the echo inside that segment of each of the h - 1 further elements.
    ``paths[half][x]`` keeps x's directed paths of h elements once grown.
    """
    found = set()
    back = half - 1
    starts = paths.get(half) or paths.setdefault(half, [None] * len(nbrs))
    for x in near:
        if starts[x] is None:
            starts[x] = [(x,)]
            for _ in range(back):
                starts[x] = [p + (y,) for p in starts[x] for y in nbrs[p[-1]] if y not in p]
        for p in starts[x]:
            for e in nbrs[p[-1]]:
                if colors[e] != colors[x] or e in p:
                    continue
                level = [(p + (e,), True)]  # add after the segment, then before it
                for _ in range(back):
                    grown = []
                    for q, appending in level:
                        if appending:
                            for y in nbrs[q[-1]]:
                                if colors[y] == colors[q[-half]] and y not in q:
                                    grown.append((q + (y,), True))
                        for y in nbrs[q[0]]:
                            if colors[y] == colors[q[back]] and y not in q:
                                grown.append(((y,) + q, False))
                    level = grown
                for q, _ in level:
                    found.add(key + (q if q[0] < q[-1] else q[::-1],))
    return found


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
