"""Generalized graphs whose vertices and edges are independently deletable.

A graph is the ends of every edge it was built with plus the elements
still present, and deleting elements changes presence only.  Which
present elements are linked is read from the ends by one rule, stated
on ``GeneralizedGraph``, so links persist when elements are deleted:
removing a vertex leaves its two edges linked, removing an edge leaves
its endpoints linked.  A path is a sequence of distinct present elements,
each linked to the next, of one of three kinds:

* vertex paths: vertices only,
* edge paths: edges only (an edge path may pass through one vertex of
  G more than once),
* mixed paths: strictly alternating vertices and edges.

A path of length L has L elements.  Paths are undirected: a sequence
and its reverse denote the same path, canonicalized to the
lexicographically smaller element sequence.

Each kind has one neighbour table, the graph's board
(``GeneralizedGraph._board``): per element, by its place in sorted
order, the sorted places of the elements that can follow it.  Every
path search reads it: ``_walk_board`` (the paths of a kind and length,
or those through one element, as board indices), ``count_paths_containing``
(the paths of an even length through every element, counted without
building them), the counter's compiler and the square search of
``repetition``.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple


class ElementKind(IntEnum):
    VERTEX = 0
    EDGE = 1


class ElementId(NamedTuple):
    kind: ElementKind
    index: int

    def __str__(self) -> str:
        return ("v" if self.kind is ElementKind.VERTEX else "e") + str(self.index)


def vertex(index: int) -> ElementId:
    return ElementId(ElementKind.VERTEX, index)


def edge(index: int) -> ElementId:
    return ElementId(ElementKind.EDGE, index)


class PathKind(Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    MIXED = "mixed"


_KIND_RANK = {PathKind.VERTEX: 0, PathKind.EDGE: 1, PathKind.MIXED: 2}


@dataclass(frozen=True, eq=False)
class GeneralizedGraph:
    """Immutable generalized graph.

    It stores its present ``vertices`` and ``edges`` and the ``ends`` of
    every edge it was built with: two vertices in sorted order, present or
    deleted, that deletion never changes.  Adjacency follows from these by
    one rule, ends restricted to present elements:

    * two present vertices are linked when they are the ends of an edge,
      present or deleted;
    * two present edges are linked when they share an end, present or not;
    * a present edge is linked to each of its present ends.

    The board (``_board``) is the rule's only derivation.  Equality
    compares the present elements and the adjacency; hashing reads the
    present elements alone.
    """

    vertices: frozenset[ElementId]
    edges: frozenset[ElementId]
    ends: Mapping[ElementId, tuple[ElementId, ElementId]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneralizedGraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and all(self._board(kind) == other._board(kind) for kind in PathKind)
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    @property
    def elements(self) -> frozenset[ElementId]:
        return self.vertices | self.edges

    def __contains__(self, x: ElementId) -> bool:
        return x in self.vertices or x in self.edges

    @cached_property
    def _order(self) -> tuple[ElementId, ...]:
        """Every element in sorted order; board index i is element ``_order[i]``."""
        return tuple(sorted(self.elements))

    @cached_property
    def _index(self) -> dict[ElementId, int]:
        """Board index of every element, its place in ``_order``; keys in order."""
        return {x: i for i, x in enumerate(self._order)}

    @cached_property
    def _boards(self) -> dict[PathKind, tuple[tuple[int, ...], ...]]:
        return {}

    @cached_property
    def _linked(self) -> dict[PathKind, int]:
        """Per path kind, how many elements have a neighbour; ``_board`` fills it."""
        return {}

    @cached_property
    def _searches(self) -> dict:
        """Per regime, what ``repetition.find_squares_through`` keeps of this graph."""
        return {}

    def _board(self, kind: PathKind) -> tuple[tuple[int, ...], ...]:
        """Per board index, the sorted indices of the elements that can follow it in
        a path of ``kind``: the graph's one neighbour table, read by every path search."""
        if kind not in self._boards:
            vs = self.vertices
            if kind is PathKind.VERTEX:
                pairs = [p for p in self.ends.values() if p[0] in vs and p[1] in vs]
            elif kind is PathKind.MIXED:
                pairs = [(v, e) for e in self.edges for v in self.ends[e] if v in vs]
            else:
                at_end: dict[ElementId, list[ElementId]] = {}
                for e in self.edges:
                    for v in self.ends[e]:
                        at_end.setdefault(v, []).append(e)
                pairs = [p for es in at_end.values() for p in itertools.combinations(es, 2)]
            index = self._index
            rows: list[list[int]] = [[] for _ in index]
            for a, b in pairs:
                rows[index[a]].append(index[b])
                rows[index[b]].append(index[a])
            self._boards[kind] = tuple(tuple(sorted(row)) for row in rows)
            self._linked[kind] = sum(1 for row in rows if row)
        return self._boards[kind]

    def neighbors(self, x: ElementId, kind: PathKind) -> tuple[ElementId, ...]:
        """Elements that can follow ``x`` in a path of the given kind."""
        i = self._index.get(x)
        return () if i is None else tuple(map(self._order.__getitem__, self._board(kind)[i]))

    def degree(self, v: ElementId) -> int:
        """Number of edges incident to the vertex ``v``."""
        if v not in self.vertices:
            raise ValueError(f"not a vertex of this graph: {v}")
        return len(self._board(PathKind.MIXED)[self._index[v]])

    @property
    def max_degree(self) -> int:
        if not self.vertices:
            return 0
        return max(self.degree(v) for v in self.vertices)

    def domain(self, kind: PathKind) -> frozenset[ElementId]:
        """Elements that may appear in a path of the given kind."""
        if kind is PathKind.VERTEX:
            return self.vertices
        if kind is PathKind.EDGE:
            return self.edges
        return self.elements


def from_standard(
    n_vertices: int, edge_list: Iterable[tuple[int, int]]
) -> GeneralizedGraph:
    """Build a generalized graph from an ordinary simple graph.

    Vertices are 0..n-1; edge ``j`` of ``edge_list`` becomes the edge
    element with index ``j``, whose ends are its two vertices.
    """
    if n_vertices < 0:
        raise ValueError("vertex count must be nonnegative")
    ends: dict[ElementId, tuple[ElementId, ElementId]] = {}
    seen: set[tuple[ElementId, ElementId]] = set()
    for j, (u, w) in enumerate(edge_list):
        if not (0 <= u < n_vertices and 0 <= w < n_vertices):
            raise ValueError(f"edge endpoint out of range: ({u}, {w})")
        if u == w:
            raise ValueError(f"self-loop rejected: ({u}, {w})")
        pair = (vertex(min(u, w)), vertex(max(u, w)))
        if pair in seen:
            raise ValueError(f"duplicate edge rejected: ({u}, {w})")
        seen.add(pair)
        ends[edge(j)] = pair
    return GeneralizedGraph(frozenset(map(vertex, range(n_vertices))), frozenset(ends), ends)


def delete(g: GeneralizedGraph, removed: Iterable[ElementId]) -> GeneralizedGraph:
    """Remove elements.  Only the present sets shrink and ``ends`` is
    shared, so survivors stay linked exactly as they were and no link is
    added.
    """
    gone = frozenset(removed)
    missing = gone - g.elements
    if missing:
        raise ValueError(f"cannot delete elements absent from the graph: {sorted(missing)}")
    return GeneralizedGraph(g.vertices - gone, g.edges - gone, g.ends)


@dataclass(frozen=True)
class Path:
    """An undirected simple path, stored in canonical orientation."""

    kind: PathKind
    elements: tuple[ElementId, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("a path has at least one element")
        rev = self.elements[::-1]
        if rev < self.elements:
            object.__setattr__(self, "elements", rev)

    def __len__(self) -> int:
        return len(self.elements)

    def sort_key(self) -> tuple:
        return (len(self.elements), _KIND_RANK[self.kind], self.elements)


def _walk_board(
    g: GeneralizedGraph, kind: PathKind, length: int, through: ElementId | None = None
) -> Iterator[list[int]]:
    """Each simple path of ``kind`` with ``length`` elements, once, canonically,
    as board indices: one list, refilled per path, so read each before the next.

    A simple path has distinct ends, so it is yielded in the orientation
    with ``seq[0] <= seq[-1]``.  Without ``through`` the walk starts at
    every element in sorted order; with ``through=x`` it places x at each
    position in turn, grows the part after x, then the reversed part
    before x.  Neighbours are tried in index order on the graph's board,
    which is element order.
    """
    if length < 1:
        raise ValueError("path length must be positive")
    domain = g.domain(kind)
    if length > len(domain):
        return
    if through is None:
        firsts, positions = sorted(map(g._index.__getitem__, domain)), (0,)
    elif through in domain:
        firsts, positions = (g._index[through],), range(length)
    else:
        return
    nbrs = g._board(kind)
    seq = [0] * length
    used = [False] * len(nbrs)
    for j in positions:
        # the first element at j, then the positions after j, then those
        # before it, each grown from its placed neighbour
        plan = [(j, None)] + [(p, p - 1) for p in range(j + 1, length)]
        plan += [(p, p + 1) for p in range(j - 1, -1, -1)]
        # depth-first with one candidate iterator per placed position, so
        # the length of a path costs no interpreter recursion
        stack = [iter(firsts)]
        while stack:
            t = len(stack) - 1
            for y in stack[t]:
                if not used[y]:
                    break
            else:
                stack.pop()
                if t:
                    used[seq[plan[t - 1][0]]] = False
                continue
            seq[plan[t][0]] = y
            if t == length - 1:
                if seq[0] <= seq[-1]:
                    yield seq
            else:
                used[y] = True
                stack.append(iter(nbrs[seq[plan[t + 1][1]]]))


def enumerate_paths_through(
    g: GeneralizedGraph, x: ElementId, kind: PathKind, length: int
) -> set[Path]:
    """All simple paths of the given kind with ``length`` elements through ``x``."""
    if x not in g:
        raise ValueError(f"element not in graph: {x}")
    element = g._order.__getitem__
    return {Path(kind, tuple(map(element, seq))) for seq in _walk_board(g, kind, length, x)}


def count_paths_containing(
    g: GeneralizedGraph, kind: PathKind, lengths: Iterable[int]
) -> dict[int, Counter]:
    """Tally how many canonical paths of each even length contain each element.

    Only even lengths of at least 2 are taken, the lengths of squares; any
    other raises ``ValueError``.  The totals match ``enumerate_paths_through``
    exactly, but no path is built: a depth-first search over directed
    simple paths from every start counts, per prefix, its directed
    completions, and credits that count to the element the prefix ends
    with.  A path of an even number L of elements has distinct ends, so it
    is exactly two directed sequences, and reversal sends position p to
    L-1-p: exactly one of the two holds a given element at a position
    p < L/2.  Hence the paths through x number the directed sequences that
    hold x in their first half, and only those positions are credited.
    For L >= 4 none of them lies in the last two, so those two levels are
    counted in closed form from each element's number of neighbours
    outside the prefix: no prefix longer than L - 3 is visited.  Elements
    on no path get no entry.
    """
    n_domain = len(g.domain(kind))
    out: dict[int, Counter] = {}
    for length in lengths:
        if length < 2 or length % 2:
            raise ValueError(f"path length must be even and at least 2: {length}")
        if length > n_domain:
            out[length] = Counter()
        else:
            credit = _directed_credits(g._board(kind), length)
            out[length] = Counter({x: c for x, c in zip(g._order, credit) if c})
    return out


def _directed_credits(nbrs: tuple[tuple[int, ...], ...], length: int) -> list[int]:
    """Per element index: the directed paths of ``length`` elements, an even
    number, that hold it at a position p < length/2.

    Length 2 is the degree.  Beyond it the depth-first search pushes
    prefixes of at most ``length - 3`` elements and keeps ``free[z]``, the
    number of neighbours of z outside the prefix.  An unused neighbour y
    of the end of a prefix that long takes position ``length - 3``, and
    each unused neighbour z of y completes it ``free[z] - 1`` ways: y is a
    neighbour of z outside the prefix but cannot follow z.  Positions
    ``length - 2`` and ``length - 1`` carry no weight, so they are never
    visited.
    """
    deg = [len(nb) for nb in nbrs]
    if length == 2:
        return deg
    half = length // 2
    weight = [1] * half + [0] * half
    closed = length - 3  # prefixes this long count their last two levels
    credit = [0] * len(nbrs)
    used = [False] * len(nbrs)
    free = deg[:]
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
                    c = 0
                    for z in nbrs[y]:
                        if not used[z]:
                            c += free[z] - 1
                    credit[y] += weight[closed] * c
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
                credit[x] += weight[len(path)] * c
                if completions:
                    completions[-1] += c
    return credit


# Closed-form upper bounds on the number of paths of 2i elements through an
# element at maximum degree Delta, keyed by (element kind, path kind,
# total_form); the order is the order of the corpus sweep's records.
# total_form selects the coarser vertex-path bound used when vertices and
# edges are colored together.
PATH_BOUNDS: dict[tuple[ElementKind, PathKind, bool], Callable[[int, int], int]] = {
    (ElementKind.VERTEX, PathKind.VERTEX, False): lambda d, i: i * d * (d - 1) ** (2 * i - 2),
    (ElementKind.VERTEX, PathKind.VERTEX, True): lambda d, i: i * d ** (2 * i - 1),
    (ElementKind.VERTEX, PathKind.MIXED, False): lambda d, i: i * d**i,
    (ElementKind.EDGE, PathKind.EDGE, False): lambda d, i: 2 * i * d ** (2 * i - 1),
    (ElementKind.EDGE, PathKind.MIXED, False): lambda d, i: 2 * i * d ** (i - 1),
}


def count_paths_bound(
    delta: int,
    x_kind: ElementKind,
    kind: PathKind,
    i: int,
    total_form: bool = False,
) -> int:
    """Upper bound on the number of length-2i paths of ``kind`` through an element.

    Reads ``PATH_BOUNDS``; ``total_form`` counts only for vertex paths.
    """
    if delta < 1:
        raise ValueError("bound requires maximum degree at least 1")
    if i < 1:
        raise ValueError("half-length must be positive")
    try:
        bound = PATH_BOUNDS[x_kind, kind, total_form and kind is PathKind.VERTEX]
    except KeyError:
        raise ValueError(
            f"no bound for {kind.value} paths through a {x_kind.name.lower()}"
        ) from None
    return bound(delta, i)


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------

def path_graph(n: int) -> GeneralizedGraph:
    """The path on n vertices."""
    return from_standard(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> GeneralizedGraph:
    """The cycle on n vertices (n >= 3)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return from_standard(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> GeneralizedGraph:
    return from_standard(n, list(itertools.combinations(range(n), 2)))


def petersen_graph() -> GeneralizedGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_standard(10, outer + spokes + inner)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def graph_to_json(g: GeneralizedGraph) -> dict:
    """Canonical JSON object: sorted ids, each edge with both of its ends.

    Incidence follows from the ends, so it is not written.  A deleted graph
    adds ``absent_vertices``, the deleted vertices that an edge ends at, and
    ``absent_edges``; a graph with nothing deleted writes neither key.
    """
    def edges_json(es: Iterable[ElementId]) -> list[dict]:
        return [{"id": e.index, "ends": [v.index for v in g.ends[e]]} for e in sorted(es)]

    absent_vertices = {v for vs in g.ends.values() for v in vs} - g.vertices
    obj = {
        "vertices": sorted(v.index for v in g.vertices),
        "edges": edges_json(g.edges),
        "absent_vertices": sorted(v.index for v in absent_vertices),
        "absent_edges": edges_json(g.ends.keys() - g.edges),
    }
    return {key: value for key, value in obj.items() if value or key in ("vertices", "edges")}


def is_int(value) -> bool:
    """True for an integer that is not a bool (JSON ``true`` parses as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _array(value, what: str, of_ints: bool = False) -> list:
    if not isinstance(value, list) or (of_ints and not all(map(is_int, value))):
        raise ValueError(f"{what} must be an {'integer ' if of_ints else ''}array: {value!r}")
    return value


def graph_from_json(obj: Mapping) -> GeneralizedGraph:
    """Parse the canonical JSON object produced by ``graph_to_json``.

    Each edge, present or absent, needs two distinct listed ends; unknown
    keys, repeated ids and parallel edges are rejected.
    """
    if not isinstance(obj, Mapping):
        raise ValueError("graph JSON must be an object")
    unknown = set(obj) - {"vertices", "edges", "absent_vertices", "absent_edges"}
    if unknown:
        raise ValueError(f"graph JSON has unknown keys {sorted(unknown)}")
    try:
        vert_idx = _array(obj["vertices"], "vertices", of_ints=True)
        edge_objs = _array(obj["edges"], "edges")
    except KeyError as missing:
        raise ValueError(f"graph JSON lacks required key {missing}") from None
    absent_idx = _array(obj.get("absent_vertices", []), "absent_vertices", of_ints=True)
    absent_objs = _array(obj.get("absent_edges", []), "absent_edges")
    listed = frozenset(map(vertex, vert_idx + absent_idx))
    if len(listed) != len(vert_idx) + len(absent_idx):
        raise ValueError("duplicate vertex index")
    ends: dict[ElementId, tuple[ElementId, ElementId]] = {}
    for eo in edge_objs + absent_objs:
        if not isinstance(eo, Mapping) or not is_int(eo.get("id")) or "ends" not in eo:
            raise ValueError(f"malformed edge entry: {eo!r}")
        e = edge(eo["id"])
        if e in ends:
            raise ValueError(f"duplicate edge id {eo['id']}")
        idx = _array(eo["ends"], f"ends of edge {eo['id']}", of_ints=True)
        if len(idx) != 2 or idx[0] == idx[1] or not listed.issuperset(map(vertex, idx)):
            raise ValueError(f"edge {eo['id']} ends {idx!r} are not two listed vertices")
        ends[e] = (vertex(min(idx)), vertex(max(idx)))
    if len(set(ends.values())) != len(ends):
        raise ValueError("two edges join the same two vertices")
    present = frozenset(edge(eo["id"]) for eo in edge_objs)
    return GeneralizedGraph(frozenset(map(vertex, vert_idx)), present, ends)
