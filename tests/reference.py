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
