"""Randomized colorer: determinism, resampling semantics, success profiles."""
import hashlib
import json
import signal

import numpy as np
import pytest

import thuecolor.resample
from thuecolor.bounds import ceil_snapped, eval_bound
from thuecolor.counting import ListAssignment
from thuecolor.graphs import (complete_graph, cycle_graph, delete, from_standard, path_graph,
                              vertex)
from thuecolor.growth import claim_family
from thuecolor.repetition import Regime, find_violating_path, is_valid, relevant_elements
from thuecolor.resample import (
    KEPT_HALF,
    RNG_ALGORITHM,
    RandomGraphSpec,
    ResampleRun,
    _kept_bound,
    resample_color,
    success_profile,
)


def test_run_is_deterministic():
    g = path_graph(6)
    lists = ListAssignment.uniform(g, 4)
    a = resample_color(g, lists, Regime.VERTEX, seed=42, max_steps=1000)
    b = resample_color(g, lists, Regime.VERTEX, seed=42, max_steps=1000)
    assert a == b
    assert a.outcome == "success"
    assert a.algorithm == RNG_ALGORITHM == "pcg64"
    assert is_valid(g, a.coloring, Regime.VERTEX)


def test_different_seeds_differ_somewhere():
    g = path_graph(8)
    lists = ListAssignment.uniform(g, 4)
    runs = [resample_color(g, lists, Regime.VERTEX, seed=s, max_steps=1000) for s in range(20)]
    assert all(r.outcome == "success" for r in runs)
    assert len({tuple(sorted(r.coloring.items())) for r in runs}) > 1


def test_forced_coloring_succeeds_in_zero_steps():
    g = path_graph(4)
    lists = ListAssignment.from_map(
        {vertex(0): {1}, vertex(1): {2}, vertex(2): {3}, vertex(3): {1}}
    )
    run = resample_color(g, lists, Regime.VERTEX, seed=7, max_steps=10)
    assert run.outcome == "success"
    assert run.steps_used == 0
    assert run.coloring == {vertex(0): 1, vertex(1): 2, vertex(2): 3, vertex(3): 1}


def test_impossible_lists_exhaust():
    g = path_graph(4)
    lists = ListAssignment.from_map({vertex(i): {1} for i in range(4)})
    run = resample_color(g, lists, Regime.VERTEX, seed=7, max_steps=25)
    assert run.outcome == "exhausted"
    assert run.steps_used == 25
    assert run.coloring is None


def test_only_second_half_is_redrawn():
    # v0 and v1 can only clash as the square (v0 v1); its second half is
    # v1, so v0 keeps its forced color and only v1 ever moves
    g = path_graph(4)
    lists = ListAssignment.from_map(
        {vertex(0): {1}, vertex(1): {1, 4}, vertex(2): {2}, vertex(3): {3}}
    )
    run = resample_color(g, lists, Regime.VERTEX, seed=3, max_steps=200)
    assert run.outcome == "success"
    assert run.coloring[vertex(0)] == 1
    assert run.coloring[vertex(1)] == 4
    assert run.coloring[vertex(2)] == 2
    assert run.coloring[vertex(3)] == 3


def _digest(coloring):
    rows = sorted([x.kind, x.index, c] for x, c in coloring.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _cubic(n, seed):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return RandomGraphSpec("regular", n, 3).sample(rng)


GOLDEN_GRAPHS = {
    "P100": (lambda: path_graph(100), 4, Regime.VERTEX),
    "C60": (lambda: cycle_graph(60), 8, Regime.WEAK_TOTAL),
    "cubic26": (lambda: _cubic(26, 26), 9, Regime.VERTEX),
}


@pytest.mark.parametrize(
    "name, seed, steps, digest",
    [
        ("P100", 0, 71, "92c949c46852e39e"),
        ("P100", 1, 86, "38a8d549f58e670e"),
        ("P100", 2, 72, "8dc8b892165ff452"),
        ("C60", 0, 20, "cf61fac1150d570f"),
        ("C60", 1, 25, "8a9307927fb3ae93"),
        ("C60", 2, 19, "a6cf864ca955924d"),
        ("cubic26", 0, 6, "5887a8571cf0f7ba"),
        ("cubic26", 1, 21, "a948d33d08d1a651"),
        ("cubic26", 2, 6, "a2bb79ff954288ec"),
    ],
)
def test_golden_trajectories(name, seed, steps, digest):
    # every step redraws the square the search returns, so these pin the
    # search's tie-break (shortest half, then kind, then sequence) too
    build, k, regime = GOLDEN_GRAPHS[name]
    g = build()
    run = resample_color(g, ListAssignment.uniform(g, k), regime, seed, max_steps=100_000)
    assert run.outcome == "success"
    assert (run.steps_used, _digest(run.coloring)) == (steps, digest)


def test_large_cubic_graph_succeeds():
    g = _cubic(200, 200)
    run = resample_color(g, ListAssignment.uniform(g, 9), Regime.VERTEX, seed=0, max_steps=10_000)
    assert run.outcome == "success"
    assert is_valid(g, run.coloring, Regime.VERTEX)


def _reference_resample(g, lists, regime, seed, max_steps):
    """The resampler with a full scan on every step, plus the halves tally."""
    elems = relevant_elements(g, regime)
    palettes = {x: tuple(sorted(lists.colors(x))) for x in elems}
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    coloring = {x: palettes[x][int(rng.integers(len(palettes[x])))] for x in elems}
    steps = 0
    halves = []
    while True:
        violation = find_violating_path(g, coloring, regime)
        if violation is None:
            return ResampleRun(seed, max_steps, steps, "success", dict(coloring), tuple(halves))
        if steps >= max_steps:
            return ResampleRun(seed, max_steps, steps, "exhausted", None, tuple(halves))
        half = len(violation.elements) // 2
        halves.extend([0] * (half - len(halves)))
        halves[half - 1] += 1
        for x in violation.elements[half:]:
            coloring[x] = palettes[x][int(rng.integers(len(palettes[x])))]
        steps += 1


@pytest.mark.parametrize(
    "build, k, regime, seeds, max_steps",
    [
        (lambda: path_graph(100), 3, Regime.VERTEX, (0, 1), 600),
        (lambda: path_graph(100), 4, Regime.VERTEX, (0, 1, 2), 100_000),
        # weak-total squares of one length tie on the kind rank
        (lambda: cycle_graph(60), 8, Regime.WEAK_TOTAL, (0, 1, 2), 100_000),
        (lambda: _cubic(200, 200), 9, Regime.VERTEX, (0,), 100_000),
        (lambda: cycle_graph(12), 5, Regime.STRONG_TOTAL, (0, 1, 2), 100_000),
        (lambda: complete_graph(5), 7, Regime.EDGE, (0,), 2_000),
    ],
    ids=["P100-k3", "P100-k4", "C60-weak-total", "cubic200", "C12-strong-total", "K5-edge"],
)
def test_matches_the_full_scan_loop(build, k, regime, seeds, max_steps):
    g = build()
    lists = ListAssignment.uniform(g, k)
    for seed in seeds:
        run = resample_color(g, lists, regime, seed, max_steps)
        assert run == _reference_resample(g, lists, regime, seed, max_steps)


def test_matches_the_full_scan_loop_on_random_graphs():
    # seeded gnp graphs with seeded deletions and lists of 3 to 6 colors
    # drawn from 1..7, in every regime; a third of the runs exhaust their
    # budget, and some steps redraw squares of half 4 to 7
    regimes = list(Regime)
    for trial in range(100):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, trial])))
        g = RandomGraphSpec("gnp", int(rng.integers(8, 20)), p=0.2).sample(rng)
        elements = sorted(g.elements)
        cut = rng.random(len(elements)) < 0.1
        g = delete(g, [x for x, c in zip(elements, cut) if c])
        lists = ListAssignment.from_map({
            x: {int(c) + 1 for c in rng.choice(7, size=int(rng.integers(3, 7)), replace=False)}
            for x in sorted(g.elements)
        })
        regime = regimes[trial % 4]
        run = resample_color(g, lists, regime, trial, 300)
        assert run == _reference_resample(g, lists, regime, trial, 300)


def test_halves_bound_the_full_scans(monkeypatch):
    # a full scan runs once per step that redraws a square of half 4 or
    # more, plus the last scan that finds none
    scans = []
    full_scan = thuecolor.resample.find_violating_path

    def counted(*args):
        scans.append(1)
        return full_scan(*args)

    monkeypatch.setattr(thuecolor.resample, "find_violating_path", counted)
    g = path_graph(100)
    for seed in range(3):
        scans.clear()
        run = resample_color(g, ListAssignment.uniform(g, 4), Regime.VERTEX, seed, 100_000)
        assert run.outcome == "success"
        assert sum(run.halves) == run.steps_used
        assert len(scans) <= 1 + sum(run.halves[3:])


def _spy_calls(monkeypatch):
    """Record, in order, the searches that resample_color makes.  A seeding
    pass is recorded with the number of levels it was asked for, a search
    through the redrawn elements with its half."""
    calls = []
    levels = thuecolor.resample.square_levels
    through = thuecolor.resample.find_squares_through
    full_scan = thuecolor.resample.find_violating_path

    def seeding(*args):
        calls.append(["square_levels", 0])
        record = calls[-1]
        for level in levels(*args):
            record[1] += 1
            yield level

    def search(g, colors, regime, half, near):
        calls.append(("find_squares_through", half))
        return through(g, colors, regime, half, near)

    monkeypatch.setattr(thuecolor.resample, "square_levels", seeding)
    monkeypatch.setattr(thuecolor.resample, "find_squares_through", search)
    monkeypatch.setattr(thuecolor.resample, "find_violating_path",
                        lambda *args: calls.append("find_violating_path") or full_scan(*args))
    return calls


def _forced_path(word):
    g = path_graph(len(word))
    return g, ListAssignment.from_map({vertex(i): {c} for i, c in enumerate(word)})


@pytest.mark.parametrize("word, outcome, steps, halves", [
    ((1, 2, 3, 1, 3, 2, 1, 2), "success", 0, ()),  # square-free
    ((1, 2, 3, 4, 1, 2, 3, 4), "exhausted", 1, (0, 0, 0, 1)),  # one square, of half 4
])
def test_start_without_short_squares(monkeypatch, word, outcome, steps, halves):
    calls = _spy_calls(monkeypatch)
    g, lists = _forced_path(word)
    run = resample_color(g, lists, Regime.VERTEX, seed=0, max_steps=steps)
    assert (run.outcome, run.steps_used, run.halves) == (outcome, steps, halves)
    # the three kept halves come from levels 1 to 3 of one pass, and one
    # full scan follows it; no search through redrawn elements runs before
    # the first step
    assert calls[:2] == [["square_levels", 3], "find_violating_path"]
    if steps == 0:
        assert calls[2:] == []
        return
    # P8's bound is 3, so the scan's half-4 square is not kept: after the
    # step the three kept halves are refreshed through v4..v7, and a full
    # scan finds the square again
    assert calls[2:] == [("find_squares_through", h) for h in (1, 2, 3)] + [
        "find_violating_path"]


def test_start_with_a_short_square_seeds_up_to_it(monkeypatch):
    calls = _spy_calls(monkeypatch)
    g, lists = _forced_path((1, 2, 1, 2, 3, 1, 3, 2))
    run = resample_color(g, lists, Regime.VERTEX, seed=0, max_steps=0)
    assert (run.outcome, run.halves) == ("exhausted", ())
    assert calls == [["square_levels", 2]]  # 1 2 1 2 has half 2; no scan
    # the square survives the forced redraw of its second half: the searches
    # of halves 1 and 2 through it find it again, and half 3 stays stale
    calls.clear()
    run = resample_color(g, lists, Regime.VERTEX, seed=0, max_steps=1)
    assert (run.outcome, run.halves) == ("exhausted", (0, 1))
    assert calls == [["square_levels", 2], ("find_squares_through", 1),
                     ("find_squares_through", 2)]


def test_hit_scans_bound_by_the_long_halves(monkeypatch):
    # a full scan that hits a square finds a half above the kept ones, which
    # is kept from then on: such scans number at most the distinct halves of
    # 4 or more redrawn (P100 at 3 colors reaches half 6 within 600 steps)
    hits = []
    full_scan = thuecolor.resample.find_violating_path

    def counted(*args):
        found = full_scan(*args)
        if found is not None:
            hits.append(len(found) // 2)
        return found

    monkeypatch.setattr(thuecolor.resample, "find_violating_path", counted)
    g = path_graph(100)
    for seed in (0, 1):
        hits.clear()
        run = resample_color(g, ListAssignment.uniform(g, 3), Regime.VERTEX, seed, 600)
        assert run.outcome == "exhausted" and len(run.halves) == 6
        long_halves = {h for h, n in enumerate(run.halves, 1) if h > KEPT_HALF and n}
        assert 1 <= len(hits) <= len(long_halves)
        assert set(hits) <= long_halves


def test_kept_halves_stay_within_the_bound(monkeypatch):
    # the bound of this cubic graph on 400 vertices is 7: the halves above 3
    # that its run redraws, up to 6, are kept and searched through the
    # redrawn elements, and no search asks for a half above 7
    g = _cubic(400, 400)
    lists = ListAssignment.uniform(g, 9)
    calls = _spy_calls(monkeypatch)
    run = resample_color(g, lists, Regime.VERTEX, 2, 100_000)
    asked = {c[1] for c in calls if c[0] == "find_squares_through"}
    assert _kept_bound(g, Regime.VERTEX) == 7
    assert max(asked) == len(run.halves) == 6
    monkeypatch.undo()
    assert run == _reference_resample(g, lists, Regime.VERTEX, 2, 100_000)


def _within(seconds, fn, *args):
    """``fn(*args)``, failing instead of hanging if it runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__} ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


KEPT_BOUNDS = {
    "P8": (lambda: path_graph(8), Regime.VERTEX, 3),
    "P100": (lambda: path_graph(100), Regime.VERTEX, 49),
    "C60-weak": (lambda: cycle_graph(60), Regime.WEAK_TOTAL, 59),
    "C12-strong": (lambda: cycle_graph(12), Regime.STRONG_TOTAL, 5),
    "K5-edge": (lambda: complete_graph(5), Regime.EDGE, 1),
    "cubic26-a": (lambda: _cubic(26, 26), Regime.VERTEX, 3),
    "cubic26-b": (lambda: _cubic(26, 7), Regime.VERTEX, 3),
    **{f"cubic{n}": (lambda n=n: _cubic(n, 0), Regime.VERTEX, h)
       for n, h in ((200, 6), (400, 7), (1000, 8), (2000, 9), (5000, 10))},
    # rows of one neighbour never reach the whole graph: half the matching
    "matching50": (lambda: from_standard(100, [(2 * i, 2 * i + 1) for i in range(50)]),
                   Regime.VERTEX, 50),
    # no room for a square in any regime
    **{f"{name}-{regime.value}": (graph, regime, 0)
       for name, graph in (("empty", lambda: from_standard(0, [])),
                           ("isolated5", lambda: from_standard(5, [])),
                           ("P2", lambda: path_graph(2)))
       for regime in Regime},
}


@pytest.mark.parametrize("name", KEPT_BOUNDS)
def test_kept_bound(name):
    graph, regime, bound = KEPT_BOUNDS[name]
    assert _within(10, _kept_bound, graph(), regime) == bound


def test_zero_step_budget():
    g = path_graph(2)
    lists = ListAssignment.from_map({vertex(0): {1}, vertex(1): {1}})
    run = resample_color(g, lists, Regime.VERTEX, seed=0, max_steps=0)
    assert run.outcome == "exhausted"
    assert run.steps_used == 0


def test_input_validation():
    g = path_graph(2)
    with pytest.raises(ValueError, match="max_steps"):
        resample_color(g, ListAssignment.uniform(g, 4), Regime.VERTEX, seed=0, max_steps=-1)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        resample_color(g, ListAssignment.uniform(g, 4), Regime.VERTEX, seed=-1, max_steps=10)
    bad = ListAssignment.from_map({vertex(0): {1}, vertex(1): set()})
    with pytest.raises(ValueError, match="empty color list"):
        resample_color(g, bad, Regime.VERTEX, seed=0, max_steps=10)


def test_regular_graph_sampler():
    rng = np.random.Generator(np.random.PCG64(5))
    gen = RandomGraphSpec(model="regular", n=10, degree=3)
    for _ in range(5):
        g = gen.sample(rng)
        assert len(g.vertices) == 10
        assert len(g.edges) == 15
        assert g.max_degree == 3
        assert {g.degree(v) for v in g.vertices} == {3}


def test_regular_sampler_rejects_impossible():
    rng = np.random.Generator(np.random.PCG64(5))
    with pytest.raises(ValueError, match="3-regular graph on 5"):
        RandomGraphSpec(model="regular", n=5, degree=3).sample(rng)
    with pytest.raises(ValueError):
        RandomGraphSpec(model="regular", n=3, degree=3).sample(rng)
    with pytest.raises(ValueError):
        RandomGraphSpec(model="regular", n=4, degree=0).sample(rng)


def test_gnp_sampler():
    rng = np.random.Generator(np.random.PCG64(11))
    g = RandomGraphSpec(model="gnp", n=12, p=0.5).sample(rng)
    assert len(g.vertices) == 12
    assert 0 < len(g.edges) < 66
    empty = RandomGraphSpec(model="gnp", n=6, p=0.0).sample(rng)
    assert len(empty.edges) == 0
    full = RandomGraphSpec(model="gnp", n=6, p=1.0).sample(rng)
    assert len(full.edges) == 15
    with pytest.raises(ValueError):
        RandomGraphSpec(model="gnp", n=6, p=1.5).sample(rng)
    with pytest.raises(ValueError):
        RandomGraphSpec(model="unknown", n=6).sample(rng)


def test_profile_no_trials():
    prof = success_profile(
        RandomGraphSpec(model="regular", n=6, degree=2),
        claim_family("path").at(2),
        trials=0,
        seed=1,
    )
    assert prof.trials == 0
    assert prof.success_rate is None
    assert prof.median_steps is None
    assert prof.p90_steps is None
    assert prof.max_steps_used is None
    with pytest.raises(ValueError, match="trials"):
        success_profile(
            RandomGraphSpec(model="regular", n=6, degree=2),
            claim_family("path").at(2),
            trials=-1,
            seed=1,
        )


def test_profile_reproducible():
    gen = RandomGraphSpec(model="regular", n=8, degree=2)
    claim = claim_family("thue_choice").at(2)
    a = success_profile(gen, claim, trials=6, seed=99, max_steps=5000)
    b = success_profile(gen, claim, trials=6, seed=99, max_steps=5000)
    assert a == b
    assert a.successes == a.trials == 6
    assert a.algorithm == "pcg64"


def test_profile_on_small_cubic_graphs():
    # degree 3 needs the Delta=3 list size; 28 colors is the ceiling of
    # the closed-form bound at Delta=3
    k = ceil_snapped(eval_bound("thue_choice", 3))
    assert k == 28
    gen = RandomGraphSpec(model="regular", n=12, degree=3)
    claim = claim_family("thue_choice").at(3)
    prof = success_profile(gen, claim, trials=4, seed=7, max_steps=20_000, colors=k)
    assert prof.trials == 4
    assert prof.successes == 4
    assert prof.max_steps_used is not None
    assert prof.p90_steps >= prof.median_steps
