"""Randomized list coloring by resampling violating squares.

Draw every color uniformly from its list, then repeatedly locate the
shortest violating square path and redraw the colors of its second half
(the later elements in the path's canonical orientation).  Runs are
reproducible: all randomness flows from a 64-bit seed through PCG64
streams split with SeedSequence.

Each step redraws the least square by ``Path.sort_key`` (half, then kind,
then elements), the one a full ``find_violating_path`` scan returns.  The
loop works on the graph's indexed board and keeps the current squares of
every half up to the longest seen, at least KEPT_HALF, seeded by one
``square_levels`` pass up to the first half with a square.  Lazily, shortest
half first, it swaps those through elements redrawn since the last refresh
for the squares through them (``find_squares_through``), and it scans the
whole graph only when every set is empty.  A scan that finds a longer half
keeps it, from one more pass, and the halves below it, empty, unless it lies
above the graph's bound (``_kept_bound``), set once per run: past it, one
element's ball of radius h can hold every linked element, and growing the
paths of h elements from each redrawn element can cost more than the full
scans that find those halves instead.  This is exact:

* a square that avoids the redrawn elements keeps its colors;
* a scan returns the least square, and keys order by length first.
"""
from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass

import numpy as np

from .counting import ListAssignment
from .graphs import ElementId, GeneralizedGraph, from_standard
from .repetition import (Color, Regime, find_squares_through, find_violating_path,
                         relevant_elements, square_levels)

RNG_ALGORITHM = "pcg64"
KEPT_HALF = 3  # squares of half up to this are kept current between steps


@dataclass(frozen=True)
class ResampleRun:
    seed: int
    max_steps: int
    steps_used: int
    outcome: str  # "success" or "exhausted"
    coloring: dict[ElementId, Color] | None
    halves: tuple[int, ...]  # halves[i]: steps that redrew a square of half i + 1
    algorithm: str = RNG_ALGORITHM


def resample_color(
    g: GeneralizedGraph,
    lists: ListAssignment,
    regime: Regime,
    seed: int,
    max_steps: int,
) -> ResampleRun:
    """Run the resampling colorer until valid or ``max_steps`` resamples."""
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    elems = relevant_elements(g, regime)
    board = [g._index[x] for x in elems]
    palettes: list[tuple[Color, ...]] = [()] * len(g._index)  # by board index
    for x, i in zip(elems, board):
        palettes[i] = tuple(sorted(lists.colors(x)))
        if not palettes[i]:
            raise ValueError(f"empty color list for element {x}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    colors: list[Color | None] = [None] * len(g._index)
    for i in board:
        colors[i] = palettes[i][int(rng.integers(len(palettes[i])))]
    steps = 0
    halves: list[int] = []
    live: list[set[tuple]] = [set() for _ in range(KEPT_HALF)]  # square keys, half h + 1
    stale = [set(board) for _ in range(KEPT_HALF)]  # redrawn since live[h] was refreshed
    cap = max(KEPT_HALF, _kept_bound(g, regime)) + 1  # halves from cap up are never kept
    levels = square_levels(g, colors, regime)
    for h in range(KEPT_HALF):  # seed up to the first half with a square
        live[h] = set(next(levels, []))
        stale[h].clear()
        if live[h]:
            break
    while True:
        violation = None
        for h in range(len(live)):
            if stale[h]:
                found = find_squares_through(g, colors, regime, h + 1, stale[h])
                live[h] = {key for key in live[h] if stale[h].isdisjoint(key[2])}.union(found)
                stale[h].clear()
            if live[h]:
                violation = min(live[h])[2]
                break
        if violation is None:
            coloring = {x: colors[i] for x, i in zip(elems, board)}
            found = find_violating_path(g, coloring, regime)
            if found is None:
                return ResampleRun(seed, max_steps, steps, "success", coloring, tuple(halves))
            violation = tuple(g._index[x] for x in found.elements)
            half = len(violation) // 2
            if len(live) < half < cap:  # keep every half up to it; those between are empty
                *_, last = itertools.islice(square_levels(g, colors, regime), half)
                live += [set() for _ in range(len(live), half - 1)] + [set(last)]
                stale += [set() for _ in range(len(stale), half)]
        if steps >= max_steps:
            return ResampleRun(seed, max_steps, steps, "exhausted", None, tuple(halves))
        half = len(violation) // 2
        halves.extend([0] * (half - len(halves)))
        halves[half - 1] += 1
        for i in violation[half:]:
            colors[i] = palettes[i][int(rng.integers(len(palettes[i])))]
        for redrawn in stale:
            redrawn.update(violation[half:])
        steps += 1


def _kept_bound(g: GeneralizedGraph, regime: Regime) -> int:
    """The longest half above KEPT_HALF that the resampler keeps: the largest h
    such that, on every path kind, at least 2h elements have a neighbour and
    more of them than the most elements (``reach``) within h steps of one, on
    rows no longer than the kind's longest.  Past it, one redrawn element's
    ball can hold the whole graph."""
    bound = len(g._order)
    for kind in regime.path_kinds:
        widest = max(map(len, g._board(kind)), default=0)
        linked = g._linked[kind]
        h, reach, ring = 0, 1, widest  # ring: the most elements h + 1 steps away
        while 2 * h + 2 <= linked and reach + ring < linked:
            h, reach, ring = h + 1, reach + ring, ring * (widest - 1)
        bound = min(bound, h)
    return bound


# ---------------------------------------------------------------------------
# random graph models and the success profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomGraphSpec:
    """Random graph model: d-regular pairing or bounded-degree binomial."""

    model: str  # "regular" or "gnp"
    n: int
    degree: int = 0
    p: float = 0.0

    def sample(self, rng: np.random.Generator) -> GeneralizedGraph:
        if self.model == "regular":
            return _sample_regular(self.n, self.degree, rng)
        if self.model == "gnp":
            return _sample_gnp(self.n, self.p, rng)
        raise ValueError(f"unknown random graph model {self.model!r}")


def _sample_regular(n: int, d: int, rng: np.random.Generator) -> GeneralizedGraph:
    """Pairing model with rejection; retries until the pairing is simple."""
    if n * d % 2 or d >= n or d < 1:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(10_000):
        perm = rng.permutation(len(stubs))
        pairs = set()
        ok = True
        for k in range(0, len(stubs), 2):
            u, w = stubs[perm[k]], stubs[perm[k + 1]]
            key = (min(u, w), max(u, w))
            if u == w or key in pairs:
                ok = False
                break
            pairs.add(key)
        if ok:
            return from_standard(n, sorted(pairs))
    raise RuntimeError(f"pairing model failed to produce a simple {d}-regular graph")


def _sample_gnp(n: int, p: float, rng: np.random.Generator) -> GeneralizedGraph:
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    edges = [
        (u, w)
        for u in range(n)
        for w in range(u + 1, n)
        if rng.random() < p
    ]
    return from_standard(n, edges)


@dataclass(frozen=True)
class SuccessProfile:
    trials: int
    successes: int
    success_rate: float | None  # None when trials == 0
    median_steps: float | None  # over successful runs
    p90_steps: float | None
    max_steps_used: int | None
    algorithm: str = RNG_ALGORITHM


def success_profile(
    generator: RandomGraphSpec,
    claim,
    trials: int,
    seed: int,
    max_steps: int = 100_000,
    colors: int | None = None,
) -> SuccessProfile:
    """Sample graphs and run the colorer at the claim's list size.

    ``colors`` overrides the list size, e.g. to use a theorem's bound
    instead of the underlying claim's.  Per-trial seeds are split from
    ``seed``, so profiles are reproducible end to end.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    k = claim.list_size if colors is None else colors
    root = np.random.SeedSequence(seed)
    steps_ok: list[int] = []
    successes = 0
    for child in root.spawn(trials):
        graph_ss, run_ss = child.spawn(2)
        g = generator.sample(np.random.Generator(np.random.PCG64(graph_ss)))
        run_seed = int(run_ss.generate_state(1)[0])
        run = resample_color(g, ListAssignment.uniform(g, k), claim.regime, run_seed, max_steps)
        if run.outcome == "success":
            successes += 1
            steps_ok.append(run.steps_used)
    return SuccessProfile(
        trials=trials,
        successes=successes,
        success_rate=None if trials == 0 else successes / trials,
        median_steps=statistics.median(steps_ok) if steps_ok else None,
        p90_steps=_quantile(steps_ok, 0.9) if steps_ok else None,
        max_steps_used=max(steps_ok) if steps_ok else None,
    )


def _quantile(values: list[int], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
