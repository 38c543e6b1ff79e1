"""Exact counting of square-free list colorings and the deletion identity."""
import gc
import itertools
import math
import random
import sys
import types

import pytest

import thuecolor.counting
from thuecolor.bounds import BOUNDS, eval_bound
from thuecolor.counting import (
    MAX_UNIFORM_SIZE,
    ListAssignment,
    coloring_from_json,
    coloring_to_json,
    count_colorings,
    count_violations,
    element_from_json,
    element_to_json,
    enumerate_colorings,
    lists_from_json,
    lists_to_json,
)
from thuecolor.graphs import (
    _walk_board,
    complete_graph,
    cycle_graph,
    delete,
    edge,
    from_standard,
    path_graph,
    petersen_graph,
    vertex,
)
from thuecolor.growth import check_growth, claim_family
from thuecolor.repetition import Regime, is_valid, relevant_elements

from reference import count_colorings_bruteforce


def _rand_graph(rnd, n_max=5):
    n = rnd.randint(2, n_max)
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    m = rnd.randint(1, len(pairs))
    return from_standard(n, sorted(rnd.sample(pairs, m)))


def test_list_assignment_basics():
    g = path_graph(2)
    u = ListAssignment.uniform(g, 3)
    assert u.colors(vertex(0)) == frozenset({0, 1, 2})
    assert u.colors(edge(0)) == frozenset({0, 1, 2})
    assert vertex(1) in u.lists and vertex(2) not in u.lists
    assert u.min_size([vertex(0), edge(0)]) == 3
    fm = ListAssignment.from_map({vertex(0): [5, 5, 6]})
    assert fm.colors(vertex(0)) == frozenset({5, 6})
    with pytest.raises(ValueError):
        fm.colors(vertex(1))


def test_uniform_size_limit():
    # every list size the bounds give up to Delta = 300 stays below the limit
    largest = max(eval_bound(n, d) for n, f in BOUNDS.items() for d in range(f.min_delta, 301))
    assert math.ceil(largest) == 138_080 < MAX_UNIFORM_SIZE == 2**20
    g = path_graph(1)
    assert len(ListAssignment.uniform(g, MAX_UNIFORM_SIZE).colors(vertex(0))) == 2**20
    with pytest.raises(ValueError, match="exceeds the limit of 1048576 colors"):
        ListAssignment.uniform(g, MAX_UNIFORM_SIZE + 1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        lists_from_json({"uniform": 10**30}, g)


def test_small_path_counts():
    for n, expected in [(1, 4), (2, 12), (3, 36), (4, 96)]:
        g = path_graph(n)
        L = ListAssignment.uniform(g, 4)
        assert count_colorings(g, L, Regime.VERTEX) == expected


def test_counts_match_bruteforce_across_regimes():
    cases = [
        (path_graph(3), 3, Regime.WEAK_TOTAL, 30),
        (path_graph(2), 4, Regime.STRONG_TOTAL, 24),
        (cycle_graph(4), 3, Regime.VERTEX, 12),
        (path_graph(4), 3, Regime.VERTEX, 18),
        (cycle_graph(3), 2, Regime.EDGE, 0),
        (cycle_graph(3), 3, Regime.EDGE, 6),
    ]
    for g, q, regime, expected in cases:
        L = ListAssignment.uniform(g, q)
        got = count_colorings(g, L, regime)
        assert got == expected
        assert got == count_colorings_bruteforce(g, L, regime)


def test_counts_match_bruteforce_random():
    rnd = random.Random(60601)
    for _ in range(25):
        g = _rand_graph(rnd, n_max=4)
        regime = rnd.choice(list(Regime))
        q = rnd.randint(2, 3)
        L = ListAssignment.uniform(g, q)
        assert count_colorings(g, L, regime) == count_colorings_bruteforce(g, L, regime)


def test_larger_frozen_counts():
    # weak total on P3 with 12 colors per element
    g = path_graph(3)
    assert count_colorings(g, ListAssignment.uniform(g, 12), Regime.WEAK_TOTAL) == 172920
    # strong total on P2 with 32 colors
    g = path_graph(2)
    assert count_colorings(g, ListAssignment.uniform(g, 32), Regime.STRONG_TOTAL) == 29760
    # weak total on C6 with 12 colors, as counted by the counter that tried
    # every used color against every square
    g = cycle_graph(6)
    assert count_colorings(g, ListAssignment.uniform(g, 12), Regime.WEAK_TOTAL) == 2_838_578_240_520


def test_ternary_square_free_words():
    # counts of ternary square-free words of lengths 1..12 and 30
    expected = [3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264]
    for n, want in zip(range(1, 13), expected):
        g = path_graph(n)
        assert count_colorings(g, ListAssignment.uniform(g, 3), Regime.VERTEX) == want
    g = path_graph(30)
    assert count_colorings(g, ListAssignment.uniform(g, 3), Regime.VERTEX) == 34422


def test_count_independent_of_order():
    rnd = random.Random(31337)
    for _ in range(8):
        g = _rand_graph(rnd, n_max=4)
        regime = rnd.choice([Regime.VERTEX, Regime.WEAK_TOTAL, Regime.STRONG_TOTAL])
        L = ListAssignment.uniform(g, 3)
        base = count_colorings(g, L, regime)
        elems = relevant_elements(g, regime)
        for _ in range(3):
            order = elems[:]
            rnd.shuffle(order)
            assert count_colorings(g, L, regime, order=order) == base


def test_branch_sum_identity():
    # total count = sum over colors of the first element pinned to that color
    for g, regime, q in [
        (path_graph(4), Regime.VERTEX, 4),
        (path_graph(3), Regime.WEAK_TOTAL, 3),
    ]:
        L = ListAssignment.uniform(g, q)
        first = relevant_elements(g, regime)[0]
        total = count_colorings(g, L, regime)
        split = 0
        for c in sorted(L.colors(first)):
            pinned = dict(L.lists)
            pinned[first] = frozenset({c})
            split += count_colorings(g, ListAssignment(pinned), regime)
        assert split == total


def _reference_violations(g, lists, regime, x):
    """Enumerate every valid coloring of g minus x and test each color of x
    against the echo pairs of every square candidate through x."""
    if x.kind not in regime.element_kinds:
        return 0
    echo_pairs = []
    for kind in regime.path_kinds:  # a kind whose domain misses x walks nothing
        for half in range(1, len(g.domain(kind)) // 2 + 1):
            for seq in _walk_board(g, kind, 2 * half, x):
                seq = tuple(map(g._order.__getitem__, seq))
                echo_pairs.append(tuple(zip(seq[:half], seq[half:])))
    bad = 0
    for coloring in enumerate_colorings(delete(g, {x}), lists, regime):
        for c in sorted(lists.colors(x)):
            coloring[x] = c
            if any(all(coloring[a] == coloring[b] for a, b in pairs) for pairs in echo_pairs):
                bad += 1
    return bad


def _brute_violations(g, lists, regime, x):
    """Filter every assignment of g minus x, and then every extension by a
    color of x, through the square search; neither counts nor walks."""
    g_minus = delete(g, {x})
    elems = relevant_elements(g_minus, regime)
    bad = 0
    for combo in itertools.product(*(sorted(lists.colors(y)) for y in elems)):
        coloring = dict(zip(elems, combo))
        if is_valid(g_minus, coloring, regime):
            for c in sorted(lists.colors(x)):
                bad += not is_valid(g, {**coloring, x: c}, regime)
    return bad


def test_deletion_identity_on_paths():
    # count(P_{n+1}) = 4 * count(P_n) - violations at the appended vertex
    for n in range(1, 6):
        g = path_graph(n + 1)
        L = ListAssignment.uniform(g, 4)
        x = vertex(n)
        c_with = count_colorings(g, L, Regime.VERTEX)
        c_without = count_colorings(delete(g, {x}), L, Regime.VERTEX)
        bad = count_violations(g, L, Regime.VERTEX, x)
        assert c_with == 4 * c_without - bad
        assert bad == _reference_violations(g, L, Regime.VERTEX, x)


def test_deletion_identity_random():
    rnd = random.Random(2718)
    for _ in range(20):
        g = _rand_graph(rnd, n_max=4)
        regime = rnd.choice(list(Regime))
        q = rnd.randint(2, 4)
        L = ListAssignment.uniform(g, q)
        elems = relevant_elements(g, regime)
        if not elems:
            continue
        x = rnd.choice(elems)
        c_with = count_colorings(g, L, regime)
        c_without = count_colorings(delete(g, {x}), L, regime)
        bad = count_violations(g, L, regime, x)
        assert c_with == q * c_without - bad
        assert bad == _reference_violations(g, L, regime, x)


def test_violations_match_brute_force():
    rnd = random.Random(4242)
    checked = 0
    while checked < 40:
        g = _rand_graph(rnd, n_max=4)
        regime = rnd.choice(list(Regime))
        L = _shared_lists(rnd, g, list(range(4)))
        elems = relevant_elements(g, regime)
        if math.prod(len(L.colors(y)) for y in elems) > 20000:
            continue
        x = rnd.choice(elems)
        assert count_violations(g, L, regime, x) == _brute_violations(g, L, regime, x)
        checked += 1


def test_count_violations_frozen_and_irrelevant():
    g = path_graph(2)
    L = ListAssignment.uniform(g, 4)
    assert count_violations(g, L, Regime.VERTEX, vertex(1)) == 4
    # an edge never matters to the vertex regime
    assert count_violations(g, L, Regime.VERTEX, edge(0)) == 0
    with pytest.raises(ValueError):
        count_violations(g, L, Regime.VERTEX, vertex(5))


def test_compile_stops_at_the_first_length_without_a_path(monkeypatch):
    # a path of L + 2 elements holds one of L, so on isolated vertices the
    # walk at length 2 is the only one
    lengths = []
    real_walk = thuecolor.counting._walk_board

    def counted(g, kind, length, **kw):
        lengths.append(length)
        return real_walk(g, kind, length, **kw)

    monkeypatch.setattr(thuecolor.counting, "_walk_board", counted)
    g = from_standard(200, [])
    one = ListAssignment.uniform(g, 1)
    assert count_colorings(g, one, Regime.VERTEX) == 1
    assert lengths == [2]
    lengths.clear()
    assert count_violations(g, one, Regime.VERTEX, vertex(199)) == 0
    assert lengths == [2, 2]


def test_empty_graph_and_empty_lists():
    g0 = from_standard(0, [])
    assert count_colorings(g0, ListAssignment.from_map({}), Regime.VERTEX) == 1
    g1 = path_graph(1)
    assert count_colorings(g1, ListAssignment.uniform(g1, 0), Regime.VERTEX) == 0
    with pytest.raises(ValueError):
        # no list at all for a relevant element
        count_colorings(g1, ListAssignment.from_map({}), Regime.VERTEX)


@pytest.mark.parametrize(
    "g, size, regime",
    [
        (path_graph(6), 3, Regime.VERTEX),
        (petersen_graph(), 5, Regime.VERTEX),
        (path_graph(3), 12, Regime.WEAK_TOTAL),
    ],
    ids=["P6-vertex", "petersen-vertex", "P3-weak-total"],
)
def test_a_count_leaves_no_cyclic_garbage(g, size, regime):
    # a count's tables are freed when it returns, not at the collector's
    # next run, so the memory a run of counts holds does not depend on it
    lists = ListAssignment.uniform(g, size)
    count_colorings(g, lists, regime)  # builds the graph's boards
    gc.collect()
    gc.disable()
    try:
        count_colorings(g, lists, regime)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_orders_deeper_than_the_recursion_limit_are_rejected(monkeypatch):
    # the check reads the interpreter's limit; 150 leaves a depth of 50
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: 150)
    deepest = from_standard(50, [])
    lists = ListAssignment.uniform(deepest, 1)
    assert count_colorings(deepest, lists, Regime.VERTEX) == 1
    g = from_standard(51, [])
    one = ListAssignment.uniform(g, 1)
    # the enumerator keeps an explicit stack, so the limit does not apply
    assert list(enumerate_colorings(g, one, Regime.VERTEX)) == [{vertex(i): 0 for i in range(51)}]
    g52 = from_standard(52, [])  # its violations at v51 count the colorings of g
    calls = [
        lambda: count_colorings(g, one, Regime.VERTEX),
        lambda: count_violations(g52, ListAssignment.uniform(g52, 1), Regime.VERTEX, vertex(51)),
        # the path claim needs four colors
        lambda: check_growth(g, ListAssignment.uniform(g, 4), claim_family("path").at(2), vertex(0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="51 elements to color exceed the counter's depth limit of 50"):
            call()


def test_enumerate_colorings():
    g = path_graph(2)
    L = ListAssignment.from_map({vertex(0): [1, 2], vertex(1): [1, 2]})
    got = list(enumerate_colorings(g, L, Regime.VERTEX))
    assert got == [
        {vertex(0): 1, vertex(1): 2},
        {vertex(0): 2, vertex(1): 1},
    ]


def test_enumerator_shares_no_tables_with_the_counter(monkeypatch):
    # a walker that misses every path of 4 or more elements corrupts the
    # counter's tables; the enumerator searches the coloring itself
    real_walk = thuecolor.counting._walk_board

    def short_walk(g, kind, length, **kw):
        return real_walk(g, kind, length, **kw) if length < 4 else iter(())

    monkeypatch.setattr(thuecolor.counting, "_walk_board", short_walk)
    g = path_graph(4)
    two = ListAssignment.uniform(g, 2)
    assert count_colorings(g, two, Regime.VERTEX) == 2  # 0101 and 1010 slip through
    assert list(enumerate_colorings(g, two, Regime.VERTEX)) == []


def test_enumerate_agrees_with_count_and_validates():
    rnd = random.Random(509)
    for _ in range(10):
        g = _rand_graph(rnd, n_max=4)
        regime = rnd.choice(list(Regime))
        L = ListAssignment.uniform(g, 3)
        seen = list(enumerate_colorings(g, L, regime))
        assert len(seen) == count_colorings(g, L, regime)
        for coloring in seen[:5]:
            assert is_valid(g, coloring, regime)


def test_json_round_trips():
    g = path_graph(2)
    L = ListAssignment.from_map({vertex(0): [1, 2], vertex(1): [3], edge(0): [1, 3]})
    assert lists_from_json(lists_to_json(L), g).lists == L.lists
    assert lists_from_json({"uniform": 3}, g).lists == ListAssignment.uniform(g, 3).lists
    x = edge(4)
    assert element_from_json(element_to_json(x)) == x
    coloring = {vertex(0): 7, edge(0): 1}
    assert coloring_from_json(coloring_to_json(coloring)) == coloring
    with pytest.raises(ValueError):
        element_from_json({"kind": "w", "index": 0})
    with pytest.raises(ValueError):
        lists_from_json({"uniform": -1}, g)


def _shared_lists(rnd, g, pool):
    """Per-element lists drawn from one pool: a common core plus extras, so
    color classes are neither all singletons nor a single class."""
    core = rnd.sample(pool, rnd.randint(0, len(pool)))
    rest = [c for c in pool if c not in core]
    return ListAssignment.from_map(
        {x: core + rnd.sample(rest, rnd.randint(0, len(rest))) for x in g.elements}
    )


def test_counts_match_reference_backtracker():
    rnd = random.Random(80551)
    pools = [list(range(4)), [-5, 7, 10**9], [-5, 7, 10**9, 3, -1], list(range(8))]
    checked = 0
    while checked < 40:
        g = _rand_graph(rnd, n_max=5)
        regime = rnd.choice(list(Regime))
        L = _shared_lists(rnd, g, rnd.choice(pools))
        got = count_colorings(g, L, regime)
        if got > 10**5 or len(relevant_elements(g, regime)) > 9:
            continue
        assert got == sum(1 for _ in enumerate_colorings(g, L, regime))
        order = relevant_elements(g, regime)
        rnd.shuffle(order)
        assert count_colorings(g, L, regime, order=order) == got
        checked += 1


def test_uniform_sparse_palette_matches_reference():
    # uniform lists give one class per depth; colors far from 0..k-1
    # exercise the remapping
    g = cycle_graph(5)
    L = ListAssignment.from_map({x: [-5, 7, 10**9] for x in g.elements})
    for regime in Regime:
        got = count_colorings(g, L, regime)
        assert got == sum(1 for _ in enumerate_colorings(g, L, regime))
        order = relevant_elements(g, regime)[::-1]
        assert count_colorings(g, L, regime, order=order) == got


def test_empty_palette_anywhere_gives_zero():
    g = path_graph(4)
    for empty in range(4):
        L = ListAssignment.from_map(
            {vertex(i): [] if i == empty else [1, 2, 3] for i in range(4)}
        )
        assert count_colorings(g, L, Regime.VERTEX) == 0
        order = [vertex(i) for i in (2, 0, 3, 1)]
        assert count_colorings(g, L, Regime.VERTEX, order=order) == 0


def test_closed_forms():
    # in K_n every two vertices are adjacent, so a vertex coloring is
    # square-free exactly when it is injective: the falling factorial
    for n in range(1, 7):
        g = complete_graph(n)
        for k in (n - 1, n, n + 3, 40):
            want = math.perm(k, n)
            assert count_colorings(g, ListAssignment.uniform(g, k), Regime.VERTEX) == want
    g = path_graph(3)
    k = 1000
    assert count_colorings(g, ListAssignment.uniform(g, k), Regime.VERTEX) == k * (k - 1) ** 2


def _assert_counts(g, lists, regime, order, want):
    assert count_colorings(g, lists, regime, order=order) == want
    assert count_colorings_bruteforce(g, lists, regime) == want
    assert sum(1 for _ in enumerate_colorings(g, lists, regime)) == want


def test_banned_colors_at_the_last_element():
    # P4's middle edge colored last: both neighbouring edges ban color 1,
    # once between them
    g = path_graph(4)
    order = [edge(0), edge(2), edge(1)]
    lists = ListAssignment.from_map({edge(0): [1], edge(2): [1], edge(1): [1, 2]})
    _assert_counts(g, lists, Regime.EDGE, order, 1)
    lists = ListAssignment.from_map({edge(0): [1, 2], edge(2): [1, 3], edge(1): [1, 2, 3, 4]})
    _assert_counts(g, lists, Regime.EDGE, order, 9)
    # strong total on P3 with e1 last: v2 and e0 are never echo partners,
    # so both may hold 5, and each bans it at e1 (e1 v2 and e0 e1); v1 e1,
    # v0 e0 v1 e1 and e0 v1 e1 v2 are the other squares ending at e1
    g = path_graph(3)
    order = [vertex(0), vertex(1), vertex(2), edge(0), edge(1)]
    lists = ListAssignment.from_map({
        vertex(0): [1, 5], vertex(1): [2, 3], vertex(2): [5, 1],
        edge(0): [5, 3], edge(1): [1, 2, 3, 5, 6],
    })
    _assert_counts(g, lists, Regime.STRONG_TOTAL, order, 18)
    # v0's color is banned at v1 but missing from v1's list
    g = path_graph(2)
    lists = ListAssignment.from_map({vertex(0): [3], vertex(1): [1, 2]})
    _assert_counts(g, lists, Regime.VERTEX, None, 2)


def test_last_element_edge_cases():
    # one element: its whole list, nothing banned
    g = path_graph(1)
    _assert_counts(g, ListAssignment.from_map({vertex(0): [5, 6, 7]}), Regime.VERTEX, None, 3)
    # an empty last list, with a color banned at it
    g = path_graph(3)
    lists = ListAssignment.from_map({vertex(0): [1, 2], vertex(1): [1, 2], vertex(2): []})
    _assert_counts(g, lists, Regime.VERTEX, None, 0)
    # the last element lies on no candidate square
    g = from_standard(3, [(0, 1)])
    lists = ListAssignment.from_map({vertex(0): [1, 2], vertex(1): [1, 2], vertex(2): [1, 2, 3]})
    _assert_counts(g, lists, Regime.VERTEX, None, 6)


def test_squares_at_the_last_element_by_how_they_meet_the_penultimate():
    v = vertex
    # v4 is isolated and colored second to last, so both squares ending at
    # v3 (v2 v3 and v0 v1 v2 v3) miss it: 2 colors of v4 times 18 words
    g = from_standard(5, [(0, 1), (1, 2), (2, 3)])
    lists = ListAssignment.from_map({**{v(i): [0, 1, 2] for i in range(4)}, v(4): [5, 6]})
    _assert_counts(g, lists, Regime.VERTEX, [v(0), v(1), v(2), v(4), v(3)], 36)
    # P8 plus the chord v0 v2, with v0 then v2 last: v0 v2 bans v0's color 0
    # at v2, and so does v0..v7 once v0 = v4 and v5 = v1, v7 = v3, since
    # v2's partner v6 has color 0 too; the one ban leaves v2 = 3
    g = from_standard(8, [(i, i + 1) for i in range(7)] + [(0, 2)])
    lists = ListAssignment.from_map({
        v(0): [0], v(1): [1], v(3): [2], v(4): [0], v(5): [1], v(6): [0], v(7): [2],
        v(2): [0, 3],
    })
    _assert_counts(g, lists, Regime.VERTEX, [v(1), v(3), v(4), v(5), v(6), v(7), v(0), v(2)], 1)
    # P5 with v1 then v2 last: v0 v1 v2 v3 and v1 v2 v3 v4 both ban 0 at v2
    # when v1 = v3 = 1, one color between them
    g = path_graph(5)
    order = [v(4), v(0), v(3), v(1), v(2)]
    lists = ListAssignment.from_map({v(0): [0], v(4): [0], v(3): [1], v(1): [1, 2], v(2): [0, 3]})
    _assert_counts(g, lists, Regime.VERTEX, order, 3)
    # P5 with v1 then v4 last: v1 v2 v3 v4 would ban 1 at v4 with v1 = v3 = 0,
    # but v0 v1 already bans 0 at v1
    order = [v(0), v(3), v(2), v(1), v(4)]
    lists = ListAssignment.from_map({v(0): [0], v(3): [0, 1], v(2): [1], v(1): [0, 1, 2], v(4): [1, 2]})
    _assert_counts(g, lists, Regime.VERTEX, order, 2)
    # unused colors at v1: 2 and 3 are in v2's list and banned there by
    # v1 v2, 5 is not
    g = path_graph(3)
    lists = ListAssignment.from_map({v(0): [1], v(1): [1, 2, 3, 5], v(2): [1, 2, 3]})
    _assert_counts(g, lists, Regime.VERTEX, None, 7)
    # an empty list second to last
    lists = ListAssignment.from_map({v(0): [1, 2], v(1): [], v(2): [1, 2]})
    _assert_counts(g, lists, Regime.VERTEX, None, 0)


def test_two_and_three_elements_match_brute_force():
    # the second-to-last element is the root or the root's child here
    rnd = random.Random(2023)
    for regime in Regime:
        for m in (2, 3):
            checked = 0
            while checked < 8:
                n = rnd.randint(1, 4)
                pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
                g = from_standard(n, sorted(rnd.sample(pairs, rnd.randint(0, len(pairs)))))
                order = relevant_elements(g, regime)
                if len(order) != m:
                    continue
                rnd.shuffle(order)
                L = _shared_lists(rnd, g, [-5, 7, 10**9])
                assert count_colorings(g, L, regime, order=order) == count_colorings_bruteforce(g, L, regime)
                checked += 1


def _deepest_counter_frame(g, lists, regime):
    """The count, and the most nested frames of the counter's recursive
    inner function seen at once."""
    inner, = (
        c for c in thuecolor.counting._count_symmetric.__code__.co_consts
        if isinstance(c, types.CodeType) and not c.co_name.startswith("<")
    )
    deepest = 0

    def profile(frame, event, arg):
        nonlocal deepest
        if event == "call" and frame.f_code is inner:
            depth = 0
            while frame is not None:
                depth += frame.f_code is inner
                frame = frame.f_back
            deepest = max(deepest, depth)

    sys.setprofile(profile)
    try:
        count = count_colorings(g, lists, regime)
    finally:
        sys.setprofile(None)
    return count, deepest


def test_the_recursion_stops_at_the_second_to_last_element():
    # the last two elements are counted in closed form, so no frame is
    # opened for a child of the node at depth m - 2
    for g, k, frames in [(path_graph(6), 4, 5), (path_graph(2), 3, 1), (path_graph(1), 3, 0)]:
        lists = ListAssignment.uniform(g, k)
        assert _deepest_counter_frame(g, lists, Regime.VERTEX) == (
            count_colorings_bruteforce(g, lists, Regime.VERTEX), frames
        )


def _square_free_word_counts(lists):
    """Words w with w[i] in lists[i] and no factor uu, counted per length.
    A square in a word that has none must end at the new letter."""
    counts = [0] * len(lists)
    stack = [()]
    while stack:
        word = stack.pop()
        n = len(word)
        if n == len(lists):
            continue
        for c in lists[n]:
            grown = word + (c,)
            if any(grown[-2 * h:-h] == grown[-h:] for h in range(1, (n + 1) // 2 + 1)):
                continue
            counts[n] += 1
            stack.append(grown)
    return counts


def test_random_list_batch_matches_square_free_words():
    # growth-sweep's batch shape: 4-of-8 lists on P1..P8, each prefix
    # counted on its own path
    rnd = random.Random(17)
    for _ in range(20):
        chosen = [rnd.sample(range(8), 4) for _ in range(8)]
        counts = [
            count_colorings(
                path_graph(k),
                ListAssignment.from_map({vertex(i): chosen[i] for i in range(k)}),
                Regime.VERTEX,
            )
            for k in range(1, 9)
        ]
        assert counts == _square_free_word_counts(chosen)
