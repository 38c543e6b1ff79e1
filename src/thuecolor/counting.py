"""Exact counting and enumeration of square-free list colorings.

Counts are exact Python integers produced by backtracking over the
regime's elements in a fixed order.  Validity is hereditary under
deletion, so every invalid branch is cut at the element that completes
its first square: the square's last element in the order.  Candidate
square paths are precomputed per instance and indexed by that element
d, each as the position of d's echo partner and the square's other index
pairs.  A square whose other pairs already agree forbids exactly one
color of d, its partner's; this is the paper's one forbidden color per
path.  At each node the counter collects these banned colors once and
skips them, so a color costs one set lookup however many squares end at
d.  The last two elements are counted in closed form at the node of the
second-to-last one, pen, without trying a color of either.  A square
ending at the last element either misses pen and, if its pairs agree,
bans a fixed color; or has pen as the partner and bans pen's color c; or
pairs pen with an earlier b and bans its partner's color e exactly when
c is b's color.  So the node counts pen's allowed colors times the last
list less the fixed bans, less each allowed c that the second kind bans
there, less each distinct (c, e) of the third kind that bans one more.

The counter does not visit every coloring.  Whether a coloring is
square-free depends only on which elements share a color.  So at depth
d, two colors that no earlier element uses and that belong to exactly
the same lists among the elements d, d+1, ... are interchangeable:
swapping them maps the valid completions of one choice onto those of
the other.  The counter groups each palette by that membership once per
depth, descends into one unused color per group and multiplies the
subtree count by the number of unused colors in the group; colors in
use are tried one by one unless banned.  A banned color is the color of
an earlier element, so an unused color is never banned and every unused
color of a group has the same subtree.  Each coloring lies in exactly
one subtree and is counted once, by an integer weight, so the count
stays exact.  Uniform lists give one group per depth.

The enumerator shares no table with the counter, for cross-validation
on small instances: it is the search-cut route, which colors one element
at a time and drops a partial coloring as soon as the independent square
search finds a square in it.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import (
    ElementId,
    ElementKind,
    GeneralizedGraph,
    _walk_board,
    delete,
    edge,
    is_int,
    vertex,
)
from .repetition import (
    Color,
    Regime,
    find_violating_path,
    relevant_elements,
)


# Uniform lists are materialized as one frozenset, so a size near 10^30
# would exhaust memory instead of failing.  Every value of the closed-form
# bounds up to Delta = 300 is below this (the largest is 138,080).
MAX_UNIFORM_SIZE = 2**20


@dataclass(frozen=True)
class ListAssignment:
    """A color list per element.  Lists are immutable frozensets of ints."""

    lists: Mapping[ElementId, frozenset[int]]

    def colors(self, x: ElementId) -> frozenset[int]:
        try:
            return self.lists[x]
        except KeyError:
            raise ValueError(f"no color list for element {x}") from None

    def min_size(self, elements: Iterable[ElementId]) -> int:
        sizes = [len(self.colors(x)) for x in elements]
        return min(sizes) if sizes else 0

    @staticmethod
    def uniform(g: GeneralizedGraph, size: int) -> ListAssignment:
        """Colors 0..size-1 on every element of the graph."""
        if size < 0:
            raise ValueError("list size must be nonnegative")
        if size > MAX_UNIFORM_SIZE:
            raise ValueError(
                f"list size {size} exceeds the limit of {MAX_UNIFORM_SIZE} colors"
            )
        palette = frozenset(range(size))
        return ListAssignment({x: palette for x in g.elements})

    @staticmethod
    def from_map(mapping: Mapping[ElementId, Iterable[int]]) -> ListAssignment:
        return ListAssignment({x: frozenset(cs) for x, cs in mapping.items()})


def lists_from_json(obj, g: GeneralizedGraph) -> ListAssignment:
    """Parse either {"uniform": k} or a per-element list array."""
    if isinstance(obj, Mapping):
        if set(obj) != {"uniform"}:
            raise ValueError("list assignment object must be {\"uniform\": k}")
        k = obj["uniform"]
        if not is_int(k) or k < 0:
            raise ValueError("uniform list size must be a nonnegative integer")
        return ListAssignment.uniform(g, k)
    if not isinstance(obj, list):
        raise ValueError("list assignment JSON must be an object or an array")
    lists: dict[ElementId, frozenset[int]] = {}
    for entry in obj:
        if not isinstance(entry, Mapping):
            raise ValueError(f"list entry must be an object: {entry!r}")
        elem = element_from_json(entry.get("element"))
        if elem not in g:
            raise ValueError(f"list for element {elem} not in graph")
        colors = entry.get("colors")
        if not isinstance(colors, list) or not all(is_int(c) for c in colors):
            raise ValueError(f"colors for {elem} must be an integer array")
        if elem in lists:
            raise ValueError(f"duplicate list for element {elem}")
        lists[elem] = frozenset(colors)
    return ListAssignment(lists)


def lists_to_json(lists: ListAssignment) -> list[dict]:
    return [
        {"element": element_to_json(x), "colors": sorted(cs)}
        for x, cs in sorted(lists.lists.items())
    ]


def element_from_json(obj) -> ElementId:
    if not isinstance(obj, Mapping) or set(obj) != {"kind", "index"}:
        raise ValueError(f"malformed element reference: {obj!r}")
    kind, index = obj["kind"], obj["index"]
    if kind not in ("v", "e") or not is_int(index):
        raise ValueError(f"malformed element reference: {obj!r}")
    return vertex(index) if kind == "v" else edge(index)


def element_to_json(x: ElementId) -> dict:
    return {"kind": "v" if x.kind is ElementKind.VERTEX else "e", "index": x.index}


def coloring_from_json(obj) -> dict[ElementId, Color]:
    if not isinstance(obj, list):
        raise ValueError("coloring JSON must be an array")
    out: dict[ElementId, Color] = {}
    for entry in obj:
        if not isinstance(entry, Mapping):
            raise ValueError(f"coloring entry must be an object: {entry!r}")
        elem = element_from_json(entry.get("element"))
        color = entry.get("color")
        if not is_int(color):
            raise ValueError(f"color for {elem} must be an integer")
        if elem in out:
            raise ValueError(f"duplicate color entry for element {elem}")
        out[elem] = color
    return out


def coloring_to_json(coloring: Mapping[ElementId, Color]) -> list[dict]:
    return [
        {"element": element_to_json(x), "color": c}
        for x, c in sorted(coloring.items())
    ]


# ---------------------------------------------------------------------------
# compiled backtracking
# ---------------------------------------------------------------------------

# Only the counter recurses, once per element to color but the last; this
# many frames of the interpreter's recursion limit are left to its callers.
_CALLER_FRAMES = 100


def _compile(
    g: GeneralizedGraph,
    lists: ListAssignment,
    regime: Regime,
    order: Sequence[ElementId] | None,
) -> tuple[list[tuple[int, ...]], list[tuple]]:
    """The palettes and the squares of a count, by depth in the counting order.

    ``squares[d]`` holds the candidate squares whose last element is d, each
    as (p, pairs): p is the position of d's echo partner and pairs are the
    square's other index pairs, all before d; a half-1 square is (p, ()).
    """
    relevant = relevant_elements(g, regime)
    if order is None:
        elems = relevant
    else:
        elems = list(order)
        if len(elems) != len(set(elems)) or set(elems) != set(relevant):
            raise ValueError("order must list each relevant element exactly once")
    depth_limit = sys.getrecursionlimit() - _CALLER_FRAMES
    if len(elems) > depth_limit:
        raise ValueError(
            f"{len(elems)} elements to color exceed the counter's depth limit of "
            f"{depth_limit} (the recursion limit less {_CALLER_FRAMES} frames)"
        )
    depth: list[int] = [0] * len(g._order)  # by board index
    for d, x in enumerate(elems):
        depth[g._index[x]] = d
    palettes = [tuple(sorted(lists.colors(x))) for x in elems]
    squares: list[dict[tuple, None]] = [dict() for _ in elems]
    for kind in regime.path_kinds:
        domain = g.domain(kind)
        for length in range(2, len(domain) + 1, 2):
            half = length // 2
            found = False
            for seq in _walk_board(g, kind, length):
                found = True
                idx = [depth[i] for i in seq]
                # each pair as (later, earlier), the pair of the last element
                # first; a path and its reverse give the same entry
                pairs = sorted(
                    (max(ab), min(ab)) for ab in zip(idx[:half], idx[half:])
                )[::-1]
                (last, p), rest = pairs[0], tuple(pairs[1:])
                squares[last].setdefault((p, rest))
            if not found:
                # a path of L + 2 elements holds one of L, so none is longer
                break
    return palettes, [tuple(s) for s in squares]


def _count_symmetric(palettes: list[tuple[int, ...]], squares: list[tuple]) -> int:
    m = len(palettes)
    if m < 2:
        return len(palettes[0]) if m else 1
    # remap colors to 0..K-1 so that "used" is a flat list
    index = {c: i for i, c in enumerate(set().union(*palettes))}
    pen, last = m - 2, m - 1
    # classes[d]: palette d grouped by the positions d..m-1 whose palettes
    # hold each color, collected from the last position backwards; the
    # last two positions are counted in closed form and need no classes
    held: list[tuple[int, ...]] = [()] * len(index)
    for d in (last, pen):
        for c in palettes[d]:
            held[index[c]] += (d,)
    classes: list[list[list[int]]] = [[] for _ in range(pen)]
    for d in range(pen - 1, -1, -1):
        groups: dict[tuple[int, ...], list[int]] = {}
        for c in palettes[d]:
            i = index[c]
            held[i] += (d,)
            groups.setdefault(held[i], []).append(i)
        classes[d] = list(groups.values())
    colors = [0] * m
    used = [False] * len(index)
    pen_list = {index[c] for c in palettes[pen]}
    last_list = {index[c] for c in palettes[last]}
    # the squares ending at the last element as (p, b, pairs): pen is p, or
    # is paired with b (it lies in at most one pair, the first, as pairs run
    # later first), or b is -1 and the square misses pen
    tail = [
        (p, pairs[0][1], pairs[1:]) if pairs and pairs[0][0] == pen else (p, -1, pairs)
        for p, pairs in squares[last]
    ]

    def rec(d: int) -> int:
        # the colors that complete a square ending at d: a square whose
        # other pairs all agree forbids one color, its echo partner's
        banned = set()
        for p, pairs in squares[d]:
            for a, b in pairs:
                if colors[a] != colors[b]:
                    break
            else:
                banned.add(colors[p])
        if d == pen:
            allowed = pen_list - banned
            if not allowed:
                return 0
            # pen's color c and the last color in closed form: the last
            # element loses the fixed bans, c if pen is an agreeing square's
            # partner, and colors[p] if c is colors[b] and the rest agree
            fixed, keyed, echo = set(), set(), False
            for p, b, pairs in tail:
                for a, a2 in pairs:
                    if colors[a] != colors[a2]:
                        break
                else:
                    if p == pen:
                        echo = True
                    elif b < 0:
                        fixed.add(colors[p])
                    else:
                        keyed.add((colors[b], colors[p]))
            # an unused color of pen is no partner's and no b's, so counting
            # pen's allowed colors one by one matches the classes' weights
            free = last_list - fixed
            total = len(allowed) * len(free) - echo * len(allowed & free)
            for c, e in keyed:
                if c in allowed and e in free and not (echo and e == c):
                    total -= 1
            return total
        total = 0
        for cls in classes[d]:
            fresh = 0
            for c in cls:
                if not used[c]:
                    if not fresh:
                        rep = c
                    fresh += 1
                elif c not in banned:
                    colors[d] = c
                    total += rec(d + 1)
            if fresh:
                # every unused color of the class has the same subtree, and
                # a banned color is some partner's, so in use
                colors[d] = rep
                used[rep] = True
                total += fresh * rec(d + 1)
                used[rep] = False
        return total

    # rec reaches itself through its closure; dropping it frees the tables
    # now instead of at the collector's next run
    try:
        return rec(0)
    finally:
        del rec


def count_colorings(
    g: GeneralizedGraph,
    lists: ListAssignment,
    regime: Regime,
    order: Sequence[ElementId] | None = None,
) -> int:
    """Exact number of square-free list colorings under the regime.

    The empty graph has exactly one coloring.  The result does not
    depend on ``order``, which only directs the backtracking.
    """
    return _count_symmetric(*_compile(g, lists, regime, order))


def enumerate_colorings(
    g: GeneralizedGraph,
    lists: ListAssignment,
    regime: Regime,
) -> Iterator[dict[ElementId, Color]]:
    """Yield every valid coloring, in lexicographic order of its colors.

    The elements of ``relevant_elements`` are colored one at a time, and
    a partial coloring is dropped as soon as the square search finds a
    square in it, which is exact because a square among colored elements
    survives every extension.  Nothing is shared with the counter's
    compiled tables, so the two are independent routes to the count.
    """
    elems = relevant_elements(g, regime)
    palettes = [sorted(lists.colors(x), reverse=True) for x in elems]
    stack: list[dict[ElementId, Color]] = [{}]
    while stack:
        partial = stack.pop()
        d = len(partial)
        if d == len(elems):
            yield partial
            continue
        for c in palettes[d]:  # descending, so the least color pops first
            grown = {**partial, elems[d]: c}
            if find_violating_path(g, grown, regime) is None:
                stack.append(grown)


def count_violations(
    g: GeneralizedGraph, lists: ListAssignment, regime: Regime, x: ElementId
) -> int:
    """Count colorings valid without ``x`` that every color of ``x`` breaks.

    Concretely: pairs (coloring of g minus x, color for x) whose
    extension has a square through x, which is the last term of the
    deletion identity
    ``count(g) = |lists(x)| * count(g minus x) - count_violations``.
    It is computed from that identity by two counts.  This is exact
    because ``delete`` changes presence only and keeps every edge's ends,
    so survivors stay linked exactly as in g and the paths of g minus x
    are exactly the paths of g that avoid x.  A
    coloring of g is therefore valid exactly when it extends a valid
    coloring of g minus x by a color that completes no square through
    x, and the extensions that do complete one number the difference.
    """
    if x not in g:
        raise ValueError(f"element not in graph: {x}")
    if x.kind not in regime.element_kinds:
        return 0
    without = count_colorings(delete(g, {x}), lists, regime)
    return len(lists.colors(x)) * without - count_colorings(g, lists, regime)
