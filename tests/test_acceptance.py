"""End-to-end acceptance checks.

Each test exercises one advertised property of the package at its stated
tolerance and runtime budget, and prints a single PASS or FAIL line so a
full run reads as a checklist.
"""
import contextlib
import signal
import time
from fractions import Fraction

from thuecolor.bounds import (
    SERIES_PRESETS,
    certify_delta_inequalities,
    optimize,
    sum_weighted_geometric,
)
from thuecolor.corpus import builtin_corpus, path_dominance_records
from thuecolor.counting import ListAssignment, count_colorings, count_violations
from thuecolor.graphs import cycle_graph, path_graph, vertex
from thuecolor.growth import check_growth, claim_family
from thuecolor.repetition import Regime, find_square, is_valid, relevant_elements
from thuecolor.resample import resample_color

import random

from reference import root_cubic


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {verdict} - {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@contextlib.contextmanager
def _deadline(num: int, label: str, bound: float):
    """Run the block under a real-time timer that stops it at ``bound``
    seconds, so that a criterion whose work runs away fails at its bound
    instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, bound)
    try:
        yield
    except TimeoutError as stop:
        # pytest cannot print the interrupted frame if it has no line number
        stop.__traceback__ = None
        _report(num, label, False, f"stopped at the {bound:g}s bound")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_criterion_01_square_oracle():
    repetitive = ["hotshots", "repetitive", "alfalfa"]
    square_free = ["total", "minimize"]
    find_square("warmup")
    start = time.perf_counter()
    hits = [find_square(w) for w in repetitive]
    misses = [find_square(w) for w in square_free]
    elapsed = time.perf_counter() - start
    ok = all(h is not None for h in hits) and all(m is None for m in misses)
    ok = ok and elapsed < 1e-3
    _report(1, "square oracle", ok, f"5 words classified in {elapsed * 1e6:.0f}us")


def test_criterion_02_path_master_identity():
    start = time.perf_counter()
    with _deadline(2, "path master identity", 10.0):
        identity_ok = True
        growth_ok = True
        for n in range(1, 10):
            small = path_graph(n)
            big = path_graph(n + 1)
            lists_small = ListAssignment.uniform(small, 4)
            lists_big = ListAssignment.uniform(big, 4)
            c_n = count_colorings(small, lists_small, Regime.VERTEX)
            c_n1 = count_colorings(big, lists_big, Regime.VERTEX)
            broken = count_violations(big, lists_big, Regime.VERTEX, vertex(n))
            identity_ok = identity_ok and (c_n1 == 4 * c_n - broken)
            growth_ok = growth_ok and (c_n1 >= 2 * c_n)
    elapsed = time.perf_counter() - start
    ok = identity_ok and growth_ok and elapsed < 10.0
    _report(
        2,
        "path master identity",
        ok,
        f"n=1..9: identity exact={identity_ok}, doubling={growth_ok}, {elapsed:.2f}s",
    )


def test_criterion_03_list_robustness():
    start = time.perf_counter()
    with _deadline(3, "list robustness", 60.0):
        rnd = random.Random(20240917)
        palette = list(range(8))
        worst = float("inf")
        for _ in range(100):
            chosen = [frozenset(rnd.sample(palette, 4)) for _ in range(8)]
            prev = None
            for k in range(1, 9):
                g = path_graph(k)
                lists = ListAssignment.from_map(
                    {vertex(i): chosen[i] for i in range(k)}
                )
                c = count_colorings(g, lists, Regime.VERTEX)
                if prev is not None:
                    worst = min(worst, c / prev)
                prev = c
    elapsed = time.perf_counter() - start
    ok = worst >= 2.0 and elapsed < 60.0
    _report(
        3,
        "list robustness",
        ok,
        f"100 random 4-of-8 assignments on P8, min prefix ratio {worst:.3f}, {elapsed:.2f}s",
    )


def test_criterion_04_thue_number_of_paths():
    start = time.perf_counter()
    with _deadline(4, "thue number of paths", 10.0):
        ok = True
        for n in range(4, 13):
            g = path_graph(n)
            two = count_colorings(g, ListAssignment.uniform(g, 2), Regime.VERTEX)
            three = count_colorings(g, ListAssignment.uniform(g, 3), Regime.VERTEX)
            ok = ok and two == 0 and three > 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(
        4,
        "thue number of paths",
        ok,
        f"P4..P12 need exactly 3 colors, {elapsed:.2f}s",
    )


def test_criterion_05_ternary_witness():
    start = time.perf_counter()
    with _deadline(5, "ternary witness", 60.0):
        g = path_graph(30)
        n = count_colorings(g, ListAssignment.uniform(g, 3), Regime.VERTEX)
    elapsed = time.perf_counter() - start
    ok = n > 0 and elapsed < 60.0
    _report(5, "ternary witness", ok, f"P30 with 3 colors has {n} colorings, {elapsed:.2f}s")


def test_criterion_06_path_count_dominance():
    start = time.perf_counter()
    with _deadline(6, "path-count dominance", 120.0):
        violations = []
        checks = 0
        for name, g in builtin_corpus():
            for rec in path_dominance_records(name, g, max_half=4):
                checks += 1
                if not rec.holds:
                    violations.append(rec)
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120.0
    if violations:
        worst = max(violations, key=lambda r: r.count / r.bound)
        detail = (
            f"{len(violations)}/{checks} checks exceed the closed-form count; "
            f"worst {worst.graph} {worst.element} edge-path half {worst.half_length}: "
            f"{worst.count} > {worst.bound} "
            "(edge paths may revisit vertices, so each end has up to 2(Delta-1) "
            f"continuations, not Delta), {elapsed:.2f}s"
        )
    else:
        detail = f"{checks} checks all within bounds, {elapsed:.2f}s"
    _report(6, "path-count dominance", ok, detail)


def test_criterion_07_optimizer_presets():
    start = time.perf_counter()
    path_res = optimize(SERIES_PRESETS["path"])
    weak_res = optimize(SERIES_PRESETS["weak-total"])
    cubic = root_cubic()
    elapsed = time.perf_counter() - start
    ok = (
        abs(path_res.alpha - 2.0) < 1e-6
        and abs(path_res.gamma - 4.0) < 1e-6
        and abs(weak_res.gamma - 5.21914) < 1e-3
        and abs(weak_res.gamma - cubic) < 1e-3
        and elapsed < 1.0
    )
    _report(
        7,
        "optimizer presets",
        ok,
        f"path ({path_res.alpha:.6f}, {path_res.gamma:.6f}), "
        f"weak-total gamma {weak_res.gamma:.6f} vs cubic root {cubic:.6f}, {elapsed:.3f}s",
    )


def test_criterion_08_geometric_identity():
    sum_weighted_geometric(Fraction(1, 2))
    start = time.perf_counter()
    value = sum_weighted_geometric(Fraction(1, 3))
    elapsed = time.perf_counter() - start
    ok = value == Fraction(9, 4) and elapsed < 1e-3
    _report(8, "geometric identity", ok, f"sum i/3^(i-1) = {value} in {elapsed * 1e6:.0f}us")


def test_criterion_09_large_degree_certification():
    start = time.perf_counter()
    passes = {d: certify_delta_inequalities(d).holds for d in (300, 301, 1000, 10**6)}
    at_100 = certify_delta_inequalities(100)
    elapsed = time.perf_counter() - start
    ok = (
        all(passes.values())
        and not at_100.edge_rate.holds
        and not at_100.holds
        and elapsed < 1.0
    )
    _report(
        9,
        "large-degree certification",
        ok,
        f"holds at 300/301/1000/10^6, edge rate fails at 100 "
        f"(margin {at_100.edge_rate.margin:.4f}), {elapsed:.3f}s",
    )


def test_criterion_10_growth_sweeps():
    start = time.perf_counter()

    def sweep_min_ratio(claim, graphs, regime):
        worst = float("inf")
        all_hold = True
        for g in graphs:
            lists = ListAssignment.uniform(g, claim.list_size)
            for x in sorted(relevant_elements(g, regime)):
                rep = check_growth(g, lists, claim, x)
                all_hold = all_hold and rep.holds
                worst = min(worst, rep.ratio)
        return worst, all_hold

    with _deadline(10, "growth sweeps", 600.0):
        vertex_claim = claim_family("thue_choice").at(2)
        vertex_graphs = [cycle_graph(n) for n in range(3, 7)] + [
            path_graph(n) for n in range(3, 7)
        ]
        v_min, v_ok = sweep_min_ratio(vertex_claim, vertex_graphs, Regime.VERTEX)

        weak_claim = claim_family("weak_total").at(2)
        weak_graphs = [path_graph(2), path_graph(3), cycle_graph(3), path_graph(4)]
        w_min, w_ok = sweep_min_ratio(weak_claim, weak_graphs, Regime.WEAK_TOTAL)

        strong_claim = claim_family("total_thue").at(2)
        strong_graphs = [path_graph(2), path_graph(3)]
        s_min, s_ok = sweep_min_ratio(strong_claim, strong_graphs, Regime.STRONG_TOTAL)

    elapsed = time.perf_counter() - start
    strong_rate = 4 * (1 + 2 ** (1 / 3))
    ok = (
        v_ok and v_min >= 4.0
        and w_ok and w_min >= 6.0
        and s_ok and s_min >= strong_rate
        and elapsed < 600.0
    )
    _report(
        10,
        "growth sweeps",
        ok,
        f"min ratios: vertex {v_min:.3f} (>=4), weak total {w_min:.3f} (>=6), "
        f"strong total {s_min:.3f} (>={strong_rate:.3f}), {elapsed:.1f}s",
    )


def test_criterion_11_resampler_smoke():
    start = time.perf_counter()
    with _deadline(11, "resampler smoke", 60.0):
        g = path_graph(100)
        lists = ListAssignment.uniform(g, 4)
        successes = 0
        revalidated = True
        for seed in range(20):
            run = resample_color(g, lists, Regime.VERTEX, seed=seed, max_steps=100_000)
            if run.outcome == "success":
                successes += 1
                revalidated = revalidated and is_valid(g, run.coloring, Regime.VERTEX)
    elapsed = time.perf_counter() - start
    ok = successes >= 19 and revalidated and elapsed < 60.0
    _report(
        11,
        "resampler smoke",
        ok,
        f"{successes}/20 seeds colored P100 with 4 colors, all revalidated, {elapsed:.1f}s",
    )


def test_criterion_12_circular_square_free_words():
    # Currie, "There are ternary circular square-free words of length n for
    # n >= 18", Electron. J. Combin. 9 (2002) #N10: such words exist for
    # every n except 5, 7, 9, 10, 14 and 17
    start = time.perf_counter()
    with _deadline(12, "circular square-free words", 10.0):
        zero = []
        for n in range(3, 25):
            g = cycle_graph(n)
            if count_colorings(g, ListAssignment.uniform(g, 3), Regime.VERTEX) == 0:
                zero.append(n)
    elapsed = time.perf_counter() - start
    ok = zero == [5, 7, 9, 10, 14, 17] and elapsed < 10.0
    _report(
        12,
        "circular square-free words",
        ok,
        f"C3..C24 with 3 colors have none exactly at n = {zero}, {elapsed:.2f}s",
    )
