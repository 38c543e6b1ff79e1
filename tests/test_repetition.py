"""Square detection in sequences and along paths of colored graphs."""
import itertools
import random

import pytest

from reference import neighbors_from_ends
from thuecolor.graphs import (
    ElementKind,
    Path,
    PathKind,
    complete_graph,
    cycle_graph,
    delete,
    edge,
    from_standard,
    path_graph,
    vertex,
)
from thuecolor.repetition import (
    Regime,
    find_square,
    find_squares_through,
    find_violating_path,
    is_valid,
    relevant_elements,
    square_levels,
)


def interleaved_sequence(coloring, n):
    """Colors along the path graph on n vertices, read v0, e0, v1, e1, ..., v_{n-1}."""
    seq = []
    for i in range(n):
        seq.append(coloring[vertex(i)])
        if i < n - 1:
            seq.append(coloring[edge(i)])
    return seq


def _brute_square(seq):
    """The first square by slice comparison in (half, start) order."""
    return next(
        ((s, h)
         for h in range(1, len(seq) // 2 + 1)
         for s in range(len(seq) - 2 * h + 1)
         if tuple(seq[s:s + h]) == tuple(seq[s + h:s + 2 * h])),
        None,
    )


def test_find_square_words():
    assert find_square("hotshots") == (0, 4)
    assert find_square("repetitive") == (4, 2)
    assert find_square("alfalfa") == (0, 3)
    assert find_square("total") is None
    assert find_square("minimize") is None


def test_find_square_any_sequence_type():
    assert find_square([1, 2, 1, 2]) == (0, 2)
    assert find_square((0, 1, 0)) is None
    assert find_square(b"abab") == (0, 2)
    assert find_square("") is None
    assert find_square("x") is None


def test_find_square_prefers_shortest_then_leftmost():
    # both "abab" (half 2) and "cc" (half 1) occur; the repeat wins
    assert find_square("ababcc") == (4, 1)
    # equal halves: leftmost start wins
    assert find_square("aabb") == (0, 1)


def test_find_square_exhaustive_small():
    # contract sweep: every ternary sequence up to length 12
    for n in range(0, 13):
        for seq in itertools.product(range(3), repeat=n):
            assert find_square(seq) == _brute_square(seq), seq


def test_find_square_random_longer():
    rnd = random.Random(8128)
    for _ in range(10_000):
        n = rnd.randint(13, 40)
        seq = tuple(rnd.randrange(3) for _ in range(n))
        assert find_square(seq) == _brute_square(seq), seq


def test_regime_kinds():
    assert Regime.VERTEX.path_kinds == (PathKind.VERTEX,)
    assert Regime.EDGE.path_kinds == (PathKind.EDGE,)
    assert Regime.WEAK_TOTAL.path_kinds == (PathKind.MIXED,)
    assert Regime.STRONG_TOTAL.path_kinds == (
        PathKind.VERTEX,
        PathKind.EDGE,
        PathKind.MIXED,
    )
    assert Regime.VERTEX.element_kinds == (ElementKind.VERTEX,)
    assert Regime.EDGE.element_kinds == (ElementKind.EDGE,)
    assert Regime.STRONG_TOTAL.element_kinds == (ElementKind.VERTEX, ElementKind.EDGE)


def test_relevant_elements_order():
    g = path_graph(3)
    assert relevant_elements(g, Regime.VERTEX) == [vertex(0), vertex(1), vertex(2)]
    assert relevant_elements(g, Regime.WEAK_TOTAL) == [
        vertex(0), vertex(1), vertex(2), edge(0), edge(1),
    ]
    assert relevant_elements(g, Regime.EDGE) == [edge(0), edge(1)]


def _vcolor(*colors):
    return {vertex(i): c for i, c in enumerate(colors)}


def test_violating_path_basic():
    g = path_graph(4)
    p = find_violating_path(g, _vcolor(1, 2, 1, 2), Regime.VERTEX)
    assert p == Path(PathKind.VERTEX, (vertex(0), vertex(1), vertex(2), vertex(3)))
    assert find_violating_path(g, _vcolor(1, 2, 3, 1), Regime.VERTEX) is None


def test_violating_path_shortest_first():
    g = path_graph(4)
    # half-length 1 at the right end beats the half-length 2 square on the left
    p = find_violating_path(g, _vcolor(1, 2, 1, 1), Regime.VERTEX)
    assert p == Path(PathKind.VERTEX, (vertex(2), vertex(3)))


def test_violating_path_kind_order():
    # vertex square (v0,v1) and edge square (e0,e1) both at half 1;
    # the strong regime reports the vertex one first
    g = path_graph(3)
    coloring = {vertex(0): 1, vertex(1): 1, vertex(2): 2, edge(0): 5, edge(1): 5}
    p = find_violating_path(g, coloring, Regime.STRONG_TOTAL)
    assert p == Path(PathKind.VERTEX, (vertex(0), vertex(1)))
    q = find_violating_path(g, coloring, Regime.EDGE)
    assert q == Path(PathKind.EDGE, (edge(0), edge(1)))


def test_mixed_square_even_half():
    g = path_graph(3)
    coloring = {vertex(0): 1, vertex(1): 1, vertex(2): 2, edge(0): 5, edge(1): 5}
    # colors along v0,e0,v1,e1 read 1,5,1,5
    p = find_violating_path(g, coloring, Regime.WEAK_TOTAL)
    assert p == Path(PathKind.MIXED, (vertex(0), edge(0), vertex(1), edge(1)))


def test_mixed_square_odd_half_counts():
    # vertex and edge palettes are shared, so (v0, e0) colored (c, c)
    # is a square mixed path of half-length 1
    g = path_graph(2)
    coloring = {vertex(0): 3, vertex(1): 1, edge(0): 3}
    p = find_violating_path(g, coloring, Regime.WEAK_TOTAL)
    assert p == Path(PathKind.MIXED, (vertex(0), edge(0)))
    assert not is_valid(g, coloring, Regime.WEAK_TOTAL)


def test_closed_walks_are_not_squares():
    # u v w u v w spells 1 2 3 1 2 3 around either triangle but repeats
    # its elements; the second triangle keeps the word's group alive
    g = from_standard(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    coloring = _vcolor(1, 2, 3, 1, 2, 3)
    assert is_valid(g, coloring, Regime.VERTEX)


def test_partial_colorings_searched_on_colored_part_only():
    g = path_graph(4)
    # v3 uncolored: the 1,2,1,2 square cannot be reported
    coloring = {vertex(0): 1, vertex(1): 2, vertex(2): 1}
    assert find_violating_path(g, coloring, Regime.VERTEX) is None
    coloring[vertex(2)] = 2
    assert find_violating_path(g, coloring, Regime.VERTEX) == Path(
        PathKind.VERTEX, (vertex(1), vertex(2))
    )


def test_is_valid_requires_total_coloring():
    g = path_graph(3)
    with pytest.raises(ValueError, match="partial"):
        is_valid(g, {vertex(0): 1}, Regime.VERTEX)
    with pytest.raises(ValueError, match="partial"):
        # vertex colors alone do not cover a total regime
        is_valid(g, _vcolor(1, 2, 3), Regime.WEAK_TOTAL)


def test_weak_total_on_paths_equals_interleaved_word():
    rnd = random.Random(4001)
    for _ in range(200):
        n = rnd.randint(2, 6)
        g = path_graph(n)
        coloring = {x: rnd.randrange(4) for x in relevant_elements(g, Regime.WEAK_TOTAL)}
        word = interleaved_sequence(coloring, n)
        assert is_valid(g, coloring, Regime.WEAK_TOTAL) == (find_square(word) is None)


def test_strong_total_on_paths_equals_three_words():
    rnd = random.Random(4002)
    for _ in range(200):
        n = rnd.randint(2, 6)
        g = path_graph(n)
        coloring = {x: rnd.randrange(4) for x in relevant_elements(g, Regime.STRONG_TOTAL)}
        vseq = [coloring[vertex(i)] for i in range(n)]
        eseq = [coloring[edge(i)] for i in range(n - 1)]
        word = interleaved_sequence(coloring, n)
        expected = all(find_square(s) is None for s in (vseq, eseq, word))
        assert is_valid(g, coloring, Regime.STRONG_TOTAL) == expected


def test_vertex_regime_on_cycles_matches_rotated_words():
    # on a cycle every vertex path is an arc; check against direct arcs
    rnd = random.Random(4003)
    for _ in range(60):
        n = rnd.randint(3, 6)
        g = cycle_graph(n)
        colors = [rnd.randrange(3) for _ in range(n)]
        coloring = {vertex(i): colors[i] for i in range(n)}
        arcs_clean = True
        doubled = colors + colors
        for start in range(n):
            for length in range(2, n + 1):
                arc = doubled[start:start + length]
                if find_square(arc) is not None:
                    arcs_clean = False
        assert is_valid(g, coloring, Regime.VERTEX) == arcs_clean


def _check_squares_through(g, regime, colors, halves, nears):
    """find_squares_through against level h of one full square_levels pass,
    restricted to the squares that meet ``near``; sorted lists, so a key
    returned twice fails.  Returns how many near sets held an isolated element."""
    levels = list(itertools.islice(square_levels(g, colors, regime), max(halves)))
    levels += [[]] * (max(halves) - len(levels))
    isolated = 0
    for half in halves:
        for near in nears:
            keys = find_squares_through(g, colors, regime, half, near)
            expected = [key for key in levels[half - 1] if not near.isdisjoint(key[2])]
            assert sorted(keys) == sorted(expected), (regime, half, near)
            isolated += any(not any(neighbors_from_ends(g, g._order[i], kind)
                                    for kind in regime.path_kinds) for i in near)
    return isolated


def test_squares_through_match_the_full_pass():
    # seeded gnp graphs on 4 to 10 vertices, half of them with deletions, in
    # every regime; near sets of 1 to 4 colored elements, some isolated
    rnd = random.Random(4242)
    isolated = cases = 0
    for trial in range(96):
        n = rnd.randint(4, 10)
        p = rnd.choice((0.2, 0.35))
        g = from_standard(n, [(u, w) for u in range(n) for w in range(u + 1, n) if rnd.random() < p])
        if trial % 2:
            g = delete(g, [x for x in sorted(g.elements) if rnd.random() < 0.15])
        regime = list(Regime)[trial % 4]
        board = [g._index[x] for x in relevant_elements(g, regime)]
        if not board:
            continue
        colors = [None] * len(g._order)
        for i in board:
            colors[i] = rnd.randint(1, 3)
        nears = [set(rnd.sample(board, min(len(board), rnd.randint(1, 4)))) for _ in range(3)]
        isolated += _check_squares_through(g, regime, colors, (1, 2, 3, 4), nears)
        cases += 4 * len(nears)
    assert cases > 1000 and isolated > 100, (cases, isolated)


def test_squares_through_on_the_k5_line_graph():
    # the edge regime on K5 is the dense board: every edge has six neighbours
    rnd = random.Random(55)
    g = complete_graph(5)
    board = [g._index[x] for x in sorted(g.edges)]
    for _ in range(4):
        colors = [None] * len(g._order)
        for i in board:
            colors[i] = rnd.randint(1, 3)
        nears = [set(rnd.sample(board, rnd.randint(1, 3))) for _ in range(2)]
        _check_squares_through(g, Regime.EDGE, colors, (1, 2, 3, 4, 5), nears)
