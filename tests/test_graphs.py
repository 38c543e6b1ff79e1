"""Generalized graphs: construction, deletion, path enumeration, bounds."""
import hashlib
import json
import random
from collections import Counter

import pytest

from thuecolor.corpus import builtin_corpus
from thuecolor.graphs import (
    ElementKind,
    GeneralizedGraph,
    PATH_BOUNDS,
    Path,
    PathKind,
    _walk_board,
    complete_graph,
    count_paths_bound,
    count_paths_containing,
    cycle_graph,
    delete,
    edge,
    enumerate_paths_through,
    from_standard,
    graph_from_json,
    graph_to_json,
    path_graph,
    petersen_graph,
    vertex,
)
from thuecolor.repetition import Regime, find_violating_path

from reference import neighbors_from_ends, path_is_valid, paths_of_g


def _rand_graph(rnd, n_max=7, extra=0.5):
    n = rnd.randint(2, n_max)
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    m = rnd.randint(1, len(pairs))
    return from_standard(n, sorted(rnd.sample(pairs, m)))


def _links(g, kind):
    """The unordered pairs of elements that can follow each other in a path of ``kind``."""
    return {frozenset((x, y)) for x in g.domain(kind) for y in g.neighbors(x, kind)}


def test_single_edge():
    g = from_standard(2, [(0, 1)])
    assert g.vertices == {vertex(0), vertex(1)}
    assert g.edges == {edge(0)}
    assert g.neighbors(vertex(0), PathKind.VERTEX) == (vertex(1),)
    # symmetry surfaces through the neighbor lookups
    assert g.neighbors(vertex(1), PathKind.VERTEX) == (vertex(0),)
    assert g.neighbors(edge(0), PathKind.EDGE) == ()
    assert g.max_degree == 1


def test_k4_relations():
    g = complete_graph(4)
    assert g.max_degree == 3
    # 6 edges, each meeting 4 others: 12 unordered adjacent pairs
    assert len(_links(g, PathKind.EDGE)) == 12


def test_p3_edge_adjacency():
    g = path_graph(3)
    assert _links(g, PathKind.EDGE) == {frozenset({edge(0), edge(1)})}


def test_from_standard_rejects_bad_edges():
    with pytest.raises(ValueError, match="0, 5"):
        from_standard(3, [(0, 5)])
    with pytest.raises(ValueError, match="1, 1"):
        from_standard(3, [(1, 1)])
    with pytest.raises(ValueError, match="1, 0"):
        from_standard(3, [(0, 1), (1, 0)])


def test_petersen_shape():
    g = petersen_graph()
    assert len(g.vertices) == 10
    assert len(g.edges) == 15
    assert all(g.degree(v) == 3 for v in g.vertices)


def test_delete_keeps_surviving_relations():
    g = path_graph(3)
    h = delete(g, {vertex(1)})
    # the two edges stay adjacent through the deleted vertex
    assert edge(1) in h.neighbors(edge(0), PathKind.EDGE)
    # the endpoints do not become adjacent
    assert vertex(2) not in h.neighbors(vertex(0), PathKind.VERTEX)
    assert vertex(1) not in h


def test_delete_edge_keeps_vertex_adjacency():
    g = from_standard(2, [(0, 1)])
    h = delete(g, {edge(0)})
    assert h.edges == frozenset()
    assert vertex(1) in h.neighbors(vertex(0), PathKind.VERTEX)


def test_delete_empty_is_identity():
    g = complete_graph(4)
    assert delete(g, set()) == g


def test_equality_is_presence_and_adjacency():
    # the deleted P3 keeps e0 as an absent edge, the parsed graph never had
    # it, yet both link the same survivors the same way
    deleted = delete(path_graph(3), {vertex(1), edge(0)})
    parsed = graph_from_json({
        "vertices": [0, 2], "edges": [{"id": 1, "ends": [1, 2]}], "absent_vertices": [1],
    })
    assert graph_to_json(deleted) != graph_to_json(parsed)
    assert deleted == parsed and hash(deleted) == hash(parsed)
    # the same present elements linked differently are different graphs
    assert from_standard(3, [(0, 1)]) != from_standard(3, [(1, 2)])


def test_delete_unknown_element_rejected():
    with pytest.raises(ValueError):
        delete(path_graph(2), {vertex(7)})


def test_delete_exactness_and_composition():
    rnd = random.Random(1003)
    for _ in range(40):
        g = _rand_graph(rnd)
        els = sorted(g.elements)
        s1 = set(rnd.sample(els, rnd.randint(0, len(els) // 2)))
        rest = [x for x in els if x not in s1]
        s2 = set(rnd.sample(rest, rnd.randint(0, len(rest) // 2)))
        h = delete(g, s1 | s2)
        assert h.elements == g.elements - s1 - s2
        assert delete(delete(g, s1), s2) == h
        # linked pairs survive iff both elements do
        for kind in PathKind:
            links = _links(h, kind)
            for pair in _links(g, kind):
                assert (pair <= h.elements) == (pair in links)


def test_paths_through_k4_vertex():
    g = complete_graph(4)
    assert len(enumerate_paths_through(g, vertex(0), PathKind.VERTEX, 2)) == 3
    # every 4-vertex path of K4 passes through every vertex: 4!/2 = 12
    assert len(enumerate_paths_through(g, vertex(0), PathKind.VERTEX, 4)) == 12


def test_paths_through_single_edge_mixed():
    g = from_standard(2, [(0, 1)])
    paths = enumerate_paths_through(g, vertex(0), PathKind.MIXED, 2)
    assert paths == {Path(PathKind.MIXED, (vertex(0), edge(0)))}


def test_paths_empty_when_none_exist():
    g = path_graph(2)
    assert enumerate_paths_through(g, vertex(0), PathKind.VERTEX, 6) == set()


def test_enumerated_paths_satisfy_invariants():
    rnd = random.Random(77)
    for _ in range(20):
        g = _rand_graph(rnd, n_max=6)
        for x in sorted(g.elements):
            for kind in PathKind:
                if x not in g.domain(kind):
                    continue
                for length in (2, 4):
                    for p in enumerate_paths_through(g, x, kind, length):
                        assert path_is_valid(g, p)
                        assert x in p.elements
                        assert len(p.elements) == length
                        # canonical orientation: not above its reversal
                        assert tuple(p.elements) <= tuple(reversed(p.elements))


def test_paths_are_undirected_objects():
    g = path_graph(4)
    p = Path(PathKind.VERTEX, (vertex(3), vertex(2), vertex(1), vertex(0)))
    q = Path(PathKind.VERTEX, (vertex(0), vertex(1), vertex(2), vertex(3)))
    assert p == q


WALK_GRAPHS = {
    "K5": complete_graph(5),
    "petersen": petersen_graph(),
    "C7": cycle_graph(7),
    "P9": path_graph(9),
}


def _walk(g, kind, length, through=None):
    """The walker's paths as element sequences."""
    return [tuple(map(g._order.__getitem__, seq)) for seq in _walk_board(g, kind, length, through)]


def _full_walk(g, kind, length):
    """The unanchored, unpruned walk: the reference the other modes are filtered from."""
    seqs = _walk(g, kind, length)
    assert len(seqs) == len(set(seqs))
    for s in seqs:
        assert s[0] <= s[-1] and s <= s[::-1]
        assert len(s) == length and path_is_valid(g, Path(kind, s))
    return set(seqs)


@pytest.mark.parametrize("kind", list(PathKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", list(WALK_GRAPHS))
def test_walk_through_matches_filtered_full_walk(name, kind):
    g = WALK_GRAPHS[name]
    for length in range(1, 9):
        full = _full_walk(g, kind, length)
        for x in sorted(g.domain(kind)):
            seqs = _walk(g, kind, length, x)
            assert len(seqs) == len(set(seqs))
            assert set(seqs) == {s for s in full if x in s}


def test_count_paths_containing_matches_enumeration():
    """The counting tally against a tally over the walker.

    Lengths 2-8 take in lengths beyond the domain, which have no paths;
    an odd length or one below 2 is refused.
    """
    rnd = random.Random(5150)
    graphs = [complete_graph(4), path_graph(5)] + [_rand_graph(rnd, 6) for _ in range(6)]
    graphs += WALK_GRAPHS.values()
    lengths = (2, 4, 6, 8)
    for g in graphs:
        for kind in PathKind:
            tally = count_paths_containing(g, kind, lengths)
            assert list(tally) == list(lengths)
            for length in lengths:
                assert tally[length] == _walk_tally(g, kind, length), (kind, length)
                # Counter equality ignores zeros: an element on no path has no entry
                assert 0 not in tally[length].values()
    for length in (0, 1, 3):
        with pytest.raises(ValueError, match="even"):
            count_paths_containing(complete_graph(4), PathKind.VERTEX, [length])
    # the whole of P1100 is its one path of 1100 vertices
    g = path_graph(1100)
    tally = count_paths_containing(g, PathKind.VERTEX, [1100])[1100]
    assert tally == Counter(g.vertices) and set(tally.values()) == {1}


def _walk_tally(g, kind, length):
    return Counter(x for seq in _walk(g, kind, length) for x in seq)


def test_count_paths_containing_on_deleted_graphs():
    """The tally against the walker on seeded deletions of random graphs.

    Deletion leaves vv pairs through a deleted edge, ee pairs through a
    deleted vertex and elements with no neighbour, which the free-neighbour
    counts of the tally's last two levels must handle like any other element.
    """
    rnd = random.Random(2718)
    lengths = (2, 4, 6, 8)
    seen = Counter()
    for _ in range(30):
        g = _rand_graph(rnd, 6)
        els = sorted(g.elements)
        g = delete(g, rnd.sample(els, rnd.randint(1, len(els) // 3)))
        seen["vv via deleted edge"] += any(
            e not in g.edges for e, (u, w) in g.ends.items()
            if w in g.neighbors(u, PathKind.VERTEX)
        )
        seen["ee via deleted vertex"] += any(
            set(g.ends[a]) & set(g.ends[b]) - g.vertices
            for a in g.edges for b in g.neighbors(a, PathKind.EDGE)
        )
        for kind in PathKind:
            seen["isolated"] += any(not g.neighbors(x, kind) for x in g.domain(kind))
            tally = count_paths_containing(g, kind, lengths)
            for length in lengths:
                assert tally[length] == _walk_tally(g, kind, length), (kind, length)
                assert 0 not in tally[length].values()
    assert seen["vv via deleted edge"] and seen["ee via deleted vertex"] and seen["isolated"]


def _assert_board_matches_ends(g):
    """Every board row, ``neighbors`` and ``degree`` against the ends."""
    order = g._order
    assert list(order) == sorted(g.elements)
    assert g._index == {x: i for i, x in enumerate(order)}
    for kind in PathKind:
        board = g._board(kind)
        assert len(board) == len(order)
        linked = 0
        for x, row in zip(order, board):
            expected = neighbors_from_ends(g, x, kind)
            assert row == tuple(g._index[y] for y in expected), (kind, x)
            assert g.neighbors(x, kind) == expected, (kind, x)
            linked += bool(expected)
        assert g._linked[kind] == linked, kind
    for v in g.vertices:
        assert g.degree(v) == sum(v in g.ends[e] for e in g.edges), v


@pytest.mark.parametrize("name", [name for name, _ in builtin_corpus()])
def test_board_matches_ends_on_the_corpus(name):
    _assert_board_matches_ends(dict(builtin_corpus())[name])


def test_board_matches_ends_on_deleted_graphs():
    rnd = random.Random(1618)
    seen = Counter()
    for _ in range(40):
        g = _rand_graph(rnd, 6)
        els = sorted(g.elements)
        g = delete(g, rnd.sample(els, rnd.randint(1, len(els) // 2)))
        seen["vv via deleted edge"] += any(
            e not in g.edges and set(vs) <= g.vertices for e, vs in g.ends.items()
        )
        seen["ee via deleted vertex"] += any(
            set(g.ends[a]) & set(g.ends[b]) - g.vertices
            for a in g.edges for b in g.edges if a < b
        )
        seen["isolated"] += any(
            not neighbors_from_ends(g, x, kind) for kind in PathKind for x in g.domain(kind)
        )
        _assert_board_matches_ends(g)
    assert seen["vv via deleted edge"] and seen["ee via deleted vertex"] and seen["isolated"]


def _seeded_deletion(seed):
    """A corpus graph less a seeded sample of elements, one of them a vertex
    that lies inside a path of G."""
    rnd = random.Random(seed)
    _, g = rnd.choice(builtin_corpus())
    inner = rnd.choice([v for v in sorted(g.vertices) if g.degree(v) >= 2])
    els = sorted(g.elements - {inner})
    return delete(g, [inner] + rnd.sample(els, rnd.randint(1, len(els) // 4)))


ORACLE_GRAPHS = dict(builtin_corpus()) | {f"deleted{s}": _seeded_deletion(s) for s in range(12)}


@pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
def test_walker_against_paths_of_g(name):
    """The oracle equals the walker for vertex paths and lies inside it for
    edge and mixed paths, whose walks may also repeat a vertex of G; the
    vertex tally is a tally over the oracle."""
    g = ORACLE_GRAPHS[name]
    for length in range(1, 7):
        walked = {kind: set(_walk(g, kind, length)) for kind in PathKind}
        assert paths_of_g(g, PathKind.VERTEX, length) == walked[PathKind.VERTEX], length
        assert paths_of_g(g, PathKind.EDGE, length) <= walked[PathKind.EDGE], length
        assert paths_of_g(g, PathKind.MIXED, length) <= walked[PathKind.MIXED], length
    tally = count_paths_containing(g, PathKind.VERTEX, (2, 4, 6))
    for length in (2, 4, 6):
        oracle = Counter(x for seq in paths_of_g(g, PathKind.VERTEX, length) for x in seq)
        assert tally[length] == oracle, length


def test_seeded_deletions_cut_paths_of_g():
    # some oracle paths pass a deleted vertex or edge: two edges whose
    # shared end is gone, two vertices whose edge is gone
    seen = Counter()
    for s in range(12):
        g = ORACLE_GRAPHS[f"deleted{s}"]
        seen["edges via a deleted vertex"] += any(
            set(g.ends[a]) & set(g.ends[b]) - g.vertices
            for a, b in paths_of_g(g, PathKind.EDGE, 2)
        )
        linked_by = {vs: e for e, vs in g.ends.items()}
        seen["vertices via a deleted edge"] += any(
            linked_by[pair] not in g.edges for pair in paths_of_g(g, PathKind.VERTEX, 2)
        )
    assert seen["edges via a deleted vertex"] and seen["vertices via a deleted edge"], seen


@pytest.mark.parametrize(
    "g, kind, length, walked",
    [
        # the star K1,3: any two of its edges meet, but no path of G holds three
        (from_standard(4, [(0, 1), (0, 2), (0, 3)]), PathKind.EDGE, 3, 3),
        # C3: v0 e0 v1 e1 v2 e2 closes the cycle through v0
        (cycle_graph(3), PathKind.MIXED, 6, 6),
    ],
    ids=["K13-edge-3", "C3-mixed-6"],
)
def test_walker_takes_walks_that_are_not_paths_of_g(g, kind, length, walked):
    assert len(_walk(g, kind, length)) == walked
    assert paths_of_g(g, kind, length) == set()


@pytest.mark.parametrize(
    "g, length, expected",
    [
        # length 2 is the degree
        (path_graph(5), 2, [1, 2, 2, 2, 1]),
        # the paw: triangle 0 1 2 with 3 hung on 0
        (from_standard(4, [(0, 1), (1, 2), (0, 2), (0, 3)]), 2, [3, 2, 2, 1]),
        # length 4 pushes only the start; its neighbour is credited in closed form
        (path_graph(5), 4, [1, 2, 2, 2, 1]),
        (from_standard(4, [(0, 1), (1, 2), (0, 2), (0, 3)]), 4, [2, 2, 2, 2]),
        (complete_graph(4), 4, [12, 12, 12, 12]),
        # length 6: the closed level lies in the second half and is not credited
        (path_graph(7), 6, [1, 2, 2, 2, 2, 2, 1]),
        (complete_graph(6), 6, [360] * 6),
    ],
)
def test_count_paths_containing_closed_levels(g, length, expected):
    """Hand counts of vertex paths at the lengths the closed levels cover."""
    tally = count_paths_containing(g, PathKind.VERTEX, [length])[length]
    assert tally == Counter({vertex(i): c for i, c in enumerate(expected)})
    assert tally == _walk_tally(g, PathKind.VERTEX, length)


# each regime is checked once, under the last of its path kinds
REGIMES_ENDING_IN = {
    PathKind.VERTEX: (Regime.VERTEX,),
    PathKind.EDGE: (Regime.EDGE,),
    PathKind.MIXED: (Regime.WEAK_TOTAL, Regime.STRONG_TOTAL),
}
ORACLE_MAX_HALF = 4


@pytest.mark.parametrize("colors", [2, 3])
@pytest.mark.parametrize("kind", list(PathKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", list(WALK_GRAPHS))
def test_walk_echo_matches_filtered_squares(name, kind, colors):
    """find_violating_path against the squares filtered from the full walk.

    The oracle is the least square by half, then kind, then sequence,
    over halves up to ORACLE_MAX_HALF; one coloring of each case leaves
    some elements uncolored.
    """
    g = WALK_GRAPHS[name]
    rnd = random.Random(f"{name}:{kind.value}:{colors}")
    colorings = [{x: rnd.randrange(colors) for x in sorted(g.elements)} for _ in range(3)]
    for x in rnd.sample(sorted(g.elements), len(g.elements) // 5):
        del colorings[-1][x]
    walks = {
        (k, half): _full_walk(g, k, 2 * half)
        for k in REGIMES_ENDING_IN[kind][-1].path_kinds
        for half in range(1, ORACLE_MAX_HALF + 1)
    }
    for c in colorings:
        squares = {
            key: [
                s for s in sorted(seqs)
                if all(y in c for y in s) and [c[y] for y in s[: key[1]]] == [c[y] for y in s[key[1]:]]
            ]
            for key, seqs in walks.items()
        }
        for regime in REGIMES_ENDING_IN[kind]:
            found = find_violating_path(g, c, regime)
            expected = next(
                (
                    Path(k, s)
                    for half in range(1, ORACLE_MAX_HALF + 1)
                    for k in regime.path_kinds
                    for s in squares[k, half]
                ),
                None,
            )
            if expected is not None or found is None:
                assert found == expected, regime
                continue
            # no square up to the oracle's halves: any answer is longer
            half = len(found) // 2
            assert half > ORACLE_MAX_HALF and path_is_valid(g, found)
            assert all(y in c for y in found.elements)
            assert [c[y] for y in found.elements[:half]] == [
                c[y] for y in found.elements[half:]
            ]


def test_count_paths_bound_values():
    assert count_paths_bound(3, ElementKind.VERTEX, PathKind.VERTEX, 1) == 3
    assert count_paths_bound(3, ElementKind.EDGE, PathKind.MIXED, 2) == 12
    assert count_paths_bound(2, ElementKind.EDGE, PathKind.EDGE, 1) == 4
    # total-coloring form for vertex paths: i * Delta^(2i-1)
    assert count_paths_bound(3, ElementKind.VERTEX, PathKind.VERTEX, 2, total_form=True) == 54
    assert count_paths_bound(2, ElementKind.VERTEX, PathKind.MIXED, 3) == 24


def test_count_paths_bound_rejects_unsupported():
    with pytest.raises(ValueError):
        count_paths_bound(3, ElementKind.VERTEX, PathKind.EDGE, 1)
    with pytest.raises(ValueError):
        count_paths_bound(3, ElementKind.EDGE, PathKind.VERTEX, 1)
    with pytest.raises(ValueError):
        count_paths_bound(0, ElementKind.VERTEX, PathKind.VERTEX, 1)


def test_applicable_path_kinds():
    def bounded(x_kind):
        return [(kind, total) for xk, kind, total in PATH_BOUNDS if xk is x_kind]

    assert bounded(ElementKind.VERTEX) == [
        (PathKind.VERTEX, False),
        (PathKind.VERTEX, True),
        (PathKind.MIXED, False),
    ]
    assert bounded(ElementKind.EDGE) == [
        (PathKind.EDGE, False),
        (PathKind.MIXED, False),
    ]


def test_json_round_trip_plain_and_deleted():
    """A graph read back from JSON has the same edge ends and relations as
    the one written, through a round trip and a second deletion after it."""
    rnd = random.Random(909)
    graphs = [path_graph(4), complete_graph(4), petersen_graph()]
    graphs += [_rand_graph(rnd, 6) for _ in range(8)]
    seen = Counter()
    for g in graphs:
        assert graph_from_json(graph_to_json(g)) == g
        els = sorted(g.elements)
        s1 = set(rnd.sample(els, rnd.randint(1, len(els) - 1)))
        h = delete(g, s1)
        # deleted graphs list what deletion left behind
        obj = graph_to_json(h)
        seen.update(key for key in ("absent_vertices", "absent_edges") if key in obj)
        read = graph_from_json(obj)
        assert read == h
        assert read.ends == g.ends
        # deletion changes presence only: it builds no relation set
        assert h.ends is g.ends
        rest = sorted(h.elements)
        s2 = set(rnd.sample(rest, rnd.randint(0, len(rest) - 1)))
        direct, via_json = delete(g, s1 | s2), delete(read, s2)
        assert via_json == direct
        assert graph_to_json(via_json) == graph_to_json(direct)
        assert hash(via_json) == hash(direct)
        for kind in PathKind:
            for x in sorted(g.elements):
                assert via_json.neighbors(x, kind) == direct.neighbors(x, kind)
    assert seen["absent_vertices"] and seen["absent_edges"]


# sha256 of the sorted-key JSON text of graph_to_json over the 25 corpus
# graphs, and over four seeded deletions from each; 87 of the 100 deleted
# objects carry absent_vertices and 92 absent_edges.  Any change to the
# bytes that graph_to_json writes changes them.  Plain graphs write no
# absent keys, and their hash is the one the earlier format gave, so the
# CLI benchmark's input files keep their bytes.
CORPUS_PLAIN_JSON_SHA256 = "1ce47c960b408852ea3faed07367b3afa567483edecef8eaccc93834380331a7"
CORPUS_DELETED_JSON_SHA256 = "6428fbc4c44c777a23e813a78aefbb5aff33453645c0b4a93244184b785a0866"


def test_corpus_graph_json_is_pinned():
    rnd = random.Random(20240917)
    plain, deleted = [], []
    for _, g in builtin_corpus():
        els = sorted(g.elements)
        deletions = [delete(g, rnd.sample(els, rnd.randint(1, len(els) - 1))) for _ in range(4)]
        for h in [g] + deletions:
            obj = graph_to_json(h)
            read = graph_from_json(obj)
            assert read == h and read.ends == h.ends
            (plain if h is g else deleted).append(obj)
    for objs, digest in (
        (plain, CORPUS_PLAIN_JSON_SHA256),
        (deleted, CORPUS_DELETED_JSON_SHA256),
    ):
        blob = json.dumps(objs, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_json_is_stable_text():
    g = delete(path_graph(3), {vertex(1)})
    blob = json.dumps(graph_to_json(g), sort_keys=True)
    assert json.dumps(graph_to_json(g), sort_keys=True) == blob


def test_graph_from_json_validates():
    with pytest.raises(ValueError):
        graph_from_json({"vertices": [0], "edges": [{"id": 0, "ends": [0, 5]}]})
    with pytest.raises(ValueError):
        graph_from_json({"edges": []})


def test_improper_edge_io():
    # an edge whose ends are both deleted still serializes and returns
    g = delete(path_graph(2), {vertex(0), vertex(1)})
    assert g.edges == {edge(0)}
    obj = graph_to_json(g)
    assert obj == {"vertices": [], "edges": [{"id": 0, "ends": [0, 1]}], "absent_vertices": [0, 1]}
    read = graph_from_json(obj)
    assert read == g and read.ends == g.ends


def test_cycle_and_path_shapes():
    assert len(cycle_graph(6).edges) == 6
    assert len(path_graph(6).edges) == 5
    assert cycle_graph(3).max_degree == 2
    g = path_graph(1)
    assert len(g.vertices) == 1 and not g.edges and g.max_degree == 0
