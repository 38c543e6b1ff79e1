"""Reference routes that the tests compare the package against; nothing in
the package calls them."""
import functools
import itertools

from thuecolor.counting import ListAssignment
from thuecolor.graphs import ElementId, ElementKind, GeneralizedGraph, Path, PathKind
from thuecolor.repetition import Regime, is_valid, relevant_elements


def count_colorings_bruteforce(
    g: GeneralizedGraph, lists: ListAssignment, regime: Regime
) -> int:
    """Filter every total assignment through the independent square search.

    Exponential; only for cross-validating the pruned counter on tiny
    instances.
    """
    elems = relevant_elements(g, regime)
    palettes = [sorted(lists.colors(x)) for x in elems]
    total = 0
    for combo in itertools.product(*palettes):
        if is_valid(g, dict(zip(elems, combo)), regime):
            total += 1
    return total


def squares_by_depth(table) -> list[tuple]:
    """The squares of ``counting._compile``'s table, each filed under its
    last element as (p, pairs): p the position of that element's echo
    partner, pairs the square's other index pairs, later first."""
    _, partners, checked, echoes, keyed = table
    pen = len(partners) - 2
    squares = [
        tuple((p, ()) for p in ps) + cs for ps, cs in zip(partners, checked)
    ]
    if squares:
        squares[-1] += tuple((pen, pairs) for pairs in echoes) + tuple(
            (p, ((pen, b),) + pairs) for p, b, pairs in keyed
        )
    return squares


def count_with_sets(palettes, table) -> int:
    """The counter's kernel before colors became bits: the same search over
    the same compiled table, with banned colors and the last element's
    closed form kept in sets.  Only the table's layout is read differently,
    so a disagreement with ``counting._count_symmetric`` is the kernel's."""
    squares = squares_by_depth(table)
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


@functools.lru_cache(maxsize=4096)  # path_is_valid asks once per step of every path
def neighbors_from_ends(
    g: GeneralizedGraph, x: ElementId, kind: PathKind
) -> tuple[ElementId, ...]:
    """The elements that can follow ``x`` in a path of ``kind``, in sorted
    order, read straight from the edge ends and the present sets by the
    rule of ``GeneralizedGraph``: two present vertices are adjacent when
    they are the ends of an edge, present or deleted; two present edges
    when they share an end, present or not; a present vertex and a present
    edge when the vertex is an end of the edge."""
    if x not in g.domain(kind):
        return ()
    if kind is PathKind.VERTEX:
        out = {
            w for ends in g.ends.values() if x in ends for w in ends
            if w != x and w in g.vertices
        }
    elif kind is PathKind.EDGE:
        out = {e for e in g.edges if e != x and set(g.ends[e]) & set(g.ends[x])}
    elif x in g.vertices:
        out = {e for e in g.edges if x in g.ends[e]}
    else:
        out = {v for v in g.ends[x] if v in g.vertices}
    return tuple(sorted(out))


def path_is_valid(g: GeneralizedGraph, path: Path) -> bool:
    """Check the path invariants against ``neighbors_from_ends``."""
    elems = path.elements
    if len(set(elems)) != len(elems):
        return False
    domain = g.domain(path.kind)
    if any(x not in domain for x in elems):
        return False
    if path.kind is PathKind.MIXED:
        for a, b in zip(elems, elems[1:]):
            if a.kind == b.kind:
                return False
    for a, b in zip(elems, elems[1:]):
        if b not in neighbors_from_ends(g, a, path.kind):
            return False
    return True


# the element kinds that each path kind reads off the total sequence
_PROJECTED = {
    PathKind.VERTEX: {ElementKind.VERTEX},
    PathKind.EDGE: {ElementKind.EDGE},
    PathKind.MIXED: {ElementKind.VERTEX, ElementKind.EDGE},
}


def paths_of_g(
    g: GeneralizedGraph, kind: PathKind, length: int
) -> set[tuple[ElementId, ...]]:
    """The paths of the paper: every factor of ``length`` elements, projected
    to ``kind``, of the total sequence v1 e1 v2 ... vk of a simple vertex path
    of the original G, with every element of the factor present; each once,
    in the orientation that is not above its reverse.

    The original G is every vertex and edge that ``ends`` names, present or
    deleted, plus the present vertices.  Directed vertex paths of G are grown
    from every vertex, and at each step the factors that end at the newly
    added projected elements are read off.  A path with more vertices than a
    factor can span adds no factor that a path from its second vertex lacks,
    so growth stops at ``length`` vertices for the vertex kind, ``length + 1``
    for the edge kind and ``length // 2 + 2`` for the mixed kind.
    """
    at: dict[ElementId, list[tuple[ElementId, ElementId]]] = {v: [] for v in g.vertices}
    for e, (u, w) in g.ends.items():
        at.setdefault(u, []).append((w, e))
        at.setdefault(w, []).append((u, e))
    kinds = _PROJECTED[kind]
    most = {PathKind.VERTEX: length, PathKind.EDGE: length + 1, PathKind.MIXED: length // 2 + 2}[kind]
    present = g.vertices | g.edges
    found: set[tuple[ElementId, ...]] = set()

    def read_off(projected: list[ElementId], added: int) -> None:
        for end in range(max(length, len(projected) - added + 1), len(projected) + 1):
            factor = tuple(projected[end - length:end])
            if present.issuperset(factor):
                found.add(min(factor, factor[::-1]))

    def grow(tip: ElementId, on_path: set[ElementId], projected: list[ElementId]) -> None:
        if len(on_path) == most:
            return
        for w, e in at[tip]:
            if w in on_path:
                continue
            added = [x for x in (e, w) if x.kind in kinds]
            projected += added
            on_path.add(w)
            read_off(projected, len(added))
            grow(w, on_path, projected)
            on_path.discard(w)
            del projected[len(projected) - len(added):]

    for v in at:
        projected = [v] if v.kind in kinds else []
        read_off(projected, len(projected))
        grow(v, {v}, projected)
    return found


def directed_credits_by_search(nbrs, length: int) -> list[int]:
    """``graphs._directed_credits`` before its memo and its third closed
    level: per board index, the directed paths of ``length`` elements (even,
    at least 4) that hold it at a position p < length/2.

    A depth-first search over prefixes of at most ``length - 3`` elements
    counts each one's completions, an unused neighbour y of the end taking
    position ``length - 3`` with ``free[z] - 1`` completions per unused
    neighbour z of y, and credits them to the prefix's end while it lies in
    the first half.  Every order of a first half walks its own tails, so it
    reaches counts that the walker cannot enumerate in test time.
    """
    half = length // 2
    closed = length - 3
    credit = [0] * len(nbrs)
    used = [False] * len(nbrs)
    free = [len(nb) for nb in nbrs]
    for s, nb in enumerate(nbrs):
        used[s] = True
        for z in nb:
            free[z] -= 1
        path, stack, completions = [s], [iter(nb)], [0]
        while stack:
            for y in stack[-1]:
                if used[y]:
                    continue
                if len(path) == closed:
                    c = sum(free[z] - 1 for z in nbrs[y] if not used[z])
                    credit[y] += c if closed < half else 0
                    completions[-1] += c
                    continue
                used[y] = True
                for z in nbrs[y]:
                    free[z] -= 1
                path.append(y)
                stack.append(iter(nbrs[y]))
                completions.append(0)
                break
            else:
                x = path.pop()
                used[x] = False
                for z in nbrs[x]:
                    free[z] += 1
                stack.pop()
                c = completions.pop()
                credit[x] += c if len(path) < half else 0
                if completions:
                    completions[-1] += c
    return credit


def root_cubic(tol: float = 1e-12) -> float:
    """The unique real root above 1 of 4x^3 - 20x^2 - 4x - 3.

    This is the closed-form value of the weak-total optimization
    minimum; bisection is plenty at this scale.
    """
    def p(x: float) -> float:
        return ((4 * x - 20) * x - 4) * x - 3

    a, b = 1.0, 16.0
    if p(a) >= 0 or p(b) <= 0:
        raise RuntimeError("root bracket lost")
    while b - a > tol:
        mid = (a + b) / 2
        if p(mid) < 0:
            a = mid
        else:
            b = mid
    return (a + b) / 2
