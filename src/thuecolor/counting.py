"""Exact counting and enumeration of square-free list colorings.

Counts are exact Python integers produced by backtracking over the
regime's elements in a fixed order.  Validity is hereditary under
deletion, so every invalid branch is cut at the element that completes
its first square: the square's last element in the order.  Candidate
square paths are found once per graph, regime and order, kept with the
graph, and indexed by that element d, each as the position of d's echo
partner and the square's other index pairs.  A square whose other pairs
already agree forbids exactly one color of d, its partner's; this is the
paper's one forbidden color per path.  Each color of a count is one bit
of an int, so at each node the counter ORs these banned colors into one
mask and takes them off d's palette in one operation, however many
squares end at d.  The last two elements are counted in closed form at
the node of the second-to-last one, pen, without trying a color of
either.  A square ending at the last element either misses pen and, if
its pairs agree, bans a fixed color; or has pen as the partner and bans
pen's color c; or pairs pen with an earlier b and bans its partner's
color e exactly when c is b's color.  So the node counts pen's allowed
colors times the last list less the fixed bans, less each allowed c that
the second kind bans there, less each distinct (c, e) of the third kind
that bans one more.

The counter does not visit every coloring.  Whether a coloring is
square-free depends only on which elements share a color.  So at depth
d, two colors that no earlier element uses and that belong to exactly
the same lists among the elements d, d+1, ... are interchangeable:
swapping them maps the valid completions of one choice onto those of
the other.  The counter groups each palette by that membership once per
count: colors held by exactly the same lists get consecutive bits, so a
group is a mask.  It descends into one unused color per group and
multiplies the subtree count by the number of unused colors in the
group; colors in use are tried one by one unless banned.  A banned
color is the color of an earlier element, so an unused color is never
banned and every unused color of a group has the same subtree.  Each
coloring lies in exactly one subtree and is counted once, by an integer
weight, so the count stays exact.  Uniform lists give one group per
depth.

The enumerator shares no table with the counter, for cross-validation
on small instances: it is the search-cut route, which colors one element
at a time and drops a partial coloring as soon as the independent square
search finds a square in it.
"""
from __future__ import annotations

import sys
from collections import Counter
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
) -> tuple[list[frozenset[int]], tuple]:
    """The palettes of a count, by depth in the counting order, and the
    graph's square table for the regime and the order.

    The table depends on the graph, the regime and the order, not on the
    lists, so it is kept with the graph (``GeneralizedGraph._tables``),
    keyed by regime and order, and a count of the same graph on other lists
    only reads it.  It is (elems, partners, checked, echoes, keyed):
    ``partners[d]`` holds the echo partner of each half-1 square ending at
    d, which always bans; ``checked[d]`` each other square ending at d as
    (p, pairs), p the position of d's echo partner and pairs the square's
    other index pairs, all before d, later first.  At the last element the
    squares through the second-to-last one, pen, are kept apart:
    ``echoes`` holds the pairs of each square whose partner is pen, and
    ``keyed`` each square pairing pen with an earlier b as (p, b, pairs).
    """
    key = (regime, order if order is None else tuple(order))
    table = g._tables.get(key)
    if table is not None:
        elems = table[0]
    elif order is None:
        elems = tuple(relevant_elements(g, regime))
    else:
        elems = key[1]
        if len(elems) != len(set(elems)) or set(elems) != set(relevant_elements(g, regime)):
            raise ValueError("order must list each relevant element exactly once")
    depth_limit = sys.getrecursionlimit() - _CALLER_FRAMES
    if len(elems) > depth_limit:
        raise ValueError(
            f"{len(elems)} elements to color exceed the counter's depth limit of "
            f"{depth_limit} (the recursion limit less {_CALLER_FRAMES} frames)"
        )
    if table is None:
        table = g._tables[key] = _square_table(g, regime, elems)
    return [lists.colors(x) for x in elems], table


def _square_table(g: GeneralizedGraph, regime: Regime, elems: tuple[ElementId, ...]) -> tuple:
    """Walk the regime's paths of even length once and file each candidate
    square under its last element in ``elems``, split by shape (see
    ``_compile``)."""
    depth: list[int] = [0] * len(g._order)  # by board index
    for d, x in enumerate(elems):
        depth[g._index[x]] = d
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
    pen, last = len(elems) - 2, len(elems) - 1
    partners: list[list[int]] = [[] for _ in elems]
    checked: list[list[tuple]] = [[] for _ in elems]
    echoes, keyed = [], []
    for d, found in enumerate(squares):
        for p, pairs in found:
            # pen lies in at most one pair of a square ending at the last
            # element, the first, as pairs run later first
            if d == last and p == pen:
                echoes.append(pairs)
            elif d == last and pairs and pairs[0][0] == pen:
                keyed.append((p, pairs[0][1], pairs[1:]))
            elif pairs:
                checked[d].append((p, pairs))
            else:
                partners[d].append(p)
    return (
        elems, [tuple(s) for s in partners], [tuple(s) for s in checked],
        tuple(echoes), tuple(keyed),
    )


def _count_symmetric(palettes: list[frozenset[int]], table: tuple) -> int:
    m = len(palettes)
    if m < 2:
        return len(palettes[0]) if m else 1
    _, partners, checked, echoes, keyed = table
    pen, last = m - 2, m - 1
    # held[c]: the depths whose palettes hold c, as a mask.  Colors held at
    # the same depths are interchangeable everywhere, so each such class
    # gets a block of consecutive bits, one per color, and the count never
    # reads a color's value again.
    held: dict[int, int] = {}
    for d, palette in enumerate(palettes):
        at = 1 << d
        for c in palette:
            held[c] = held.get(c, 0) | at
    # classes[d]: palette d as masks of colors held at the same depths
    # d..m-1; the last two depths are counted in closed form and need none
    groups: list[dict[int, int]] = [{} for _ in range(pen)]
    pen_mask = last_mask = start = 0
    for depths, n in Counter(held.values()).items():
        block = ((1 << n) - 1) << start
        start += n
        if depths >> pen & 1:
            pen_mask |= block
        if depths >> last:
            last_mask |= block
        rest = depths & ((1 << pen) - 1)
        while rest:
            d = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            suffix = depths >> d
            groups[d][suffix] = groups[d].get(suffix, 0) | block
    classes = [tuple(s.values()) for s in groups]
    spans = [sum(cs) for cs in classes]  # palette d as one mask
    last_partners, last_checked = partners[last], checked[last]
    # pen and the last element are linked: pen's color is always banned last
    linked = () in echoes
    colors = [0] * m  # colors[d]: the bit of the color at depth d
    unused = (1 << start) - 1

    def rec(d: int) -> int:
        nonlocal unused
        # the colors that complete a square ending at d: a square whose
        # other pairs all agree forbids one color, its echo partner's
        banned = 0
        for p in partners[d]:
            banned |= colors[p]
        for p, pairs in checked[d]:
            for a, b in pairs:
                if colors[a] != colors[b]:
                    break
            else:
                banned |= colors[p]
        if d == pen:
            allowed = pen_mask & ~banned
            if not allowed:
                return 0
            # pen's color c and the last color in closed form: the last
            # element loses the fixed bans, c if pen is an agreeing square's
            # partner, and colors[p] if c is colors[b] and the rest agree
            fixed = 0
            for p in last_partners:
                fixed |= colors[p]
            for p, pairs in last_checked:
                for a, b in pairs:
                    if colors[a] != colors[b]:
                        break
                else:
                    fixed |= colors[p]
            echo = linked
            if not echo:
                for pairs in echoes:
                    for a, b in pairs:
                        if colors[a] != colors[b]:
                            break
                    else:
                        echo = True
                        break
            # an unused color of pen is no partner's and no b's, so counting
            # pen's allowed colors one by one matches the classes' weights
            free = last_mask & ~fixed
            total = allowed.bit_count() * free.bit_count()
            if echo:
                total -= (allowed & free).bit_count()
            # each distinct (c, colors[p]) that c bans at the last element
            # and that the count above has not yet taken off
            bans = set()
            for p, b, pairs in keyed:
                c = colors[b]
                if c & allowed:
                    e = colors[p]
                    if e & free and not (echo and e == c):
                        for a, a2 in pairs:
                            if colors[a] != colors[a2]:
                                break
                        else:
                            bans.add((c, e))
            return total - len(bans)
        # the colors in use are tried one by one unless banned; a banned
        # color is some partner's, so in use
        total = 0
        tried = spans[d] & ~(unused | banned)
        while tried:
            c = tried & -tried
            tried ^= c
            colors[d] = c
            total += rec(d + 1)
        for cls in classes[d]:
            fresh = cls & unused
            if fresh:
                # every unused color of the class has the same subtree
                c = fresh & -fresh
                colors[d] = c
                unused ^= c
                total += fresh.bit_count() * rec(d + 1)
                unused ^= c
        return total

    # rec reaches itself through its closure; dropping it frees the count's
    # masks now instead of at the collector's next run
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
