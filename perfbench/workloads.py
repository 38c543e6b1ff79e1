"""The three workloads: fixed job lists built from the workload seed.

A job is one call into the package's public interface.  Its ``call`` is
timed; ``answer`` turns the output into a small JSON value that is
compared against the pinned answers and across passes; ``check`` tests
the output without any pinned answer and returns an error message or
None.  Both run outside the timed region.

Every pass runs in a fresh process (see run.py), so nothing one pass
computes can be served to a later pass from a cache in memory.

Jobs whose inputs do not depend on the seed have ``seeded=False``; their
pinned answers apply on every seed.  A job with ``pinned=False`` has no
pinned answer at all.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import thuecolor.cli
import thuecolor.counting
import thuecolor.graphs
import thuecolor.growth
import thuecolor.repetition
import thuecolor.resample
from thuecolor.counting import ListAssignment, coloring_to_json, lists_to_json
from thuecolor.graphs import (
    complete_graph,
    cycle_graph,
    edge,
    graph_to_json,
    path_graph,
    petersen_graph,
    vertex,
)
from thuecolor.growth import claim_family
from thuecolor.repetition import Regime
from thuecolor.resample import RandomGraphSpec

# Pinned for every seed: the corpus of `thuecolor corpus` at its defaults.
CORPUS_GRAPHS = 25
CORPUS_CHECKS = 3760

# P100 at 3 colors needs 700 to 2,500 resamples depending on the seed.
# Budgets below that range make the cost of those jobs independent of the
# seed; the expected outcome is "exhausted" with the whole budget used.
P100_THREE_COLOR_BUDGETS = {600: 7, 200: 3}  # budget -> runs per pass
MAX_STEPS = 100_000


@dataclass
class Job:
    id: str
    call: Callable[[], object]
    answer: Callable[[object], object]
    check: Callable[[object], str | None]
    seeded: bool
    pinned: bool = True  # False: answers are compared across passes only


# ---------------------------------------------------------------------------
# independent reference checks (no thuecolor code)
# ---------------------------------------------------------------------------

def word_square_free(word) -> bool:
    n = len(word)
    return not any(
        word[i:i + h] == word[i + h:i + 2 * h]
        for h in range(1, n // 2 + 1)
        for i in range(n - 2 * h + 1)
    )


def cycle_total_square_free(n: int, coloring) -> bool:
    """Weak-total check on the cycle C_n: mixed paths are the factors of
    the cyclic word v0 e0 v1 e1 ... of length at most 2n."""
    word = [coloring[x] for i in range(n) for x in (vertex(i), edge(i))]
    ring = word + word
    return not any(
        ring[i:i + h] == ring[i + h:i + 2 * h]
        for h in range(1, n + 1)
        for i in range(2 * n)
    )


def ends_in_square(word: list[int]) -> bool:
    last = word[-1]
    return any(
        last == word[-1 - h] and word[-h:] == word[-2 * h:-h]
        for h in range(1, len(word) // 2 + 1)
    )


def path_prefix_counts(lists: list[list[int]]) -> list[int]:
    """Square-free words w with w[i] in lists[i], counted per prefix length."""
    counts = [0] * len(lists)
    word: list[int] = []

    def grow(d: int) -> None:
        for c in lists[d]:
            word.append(c)
            if not ends_in_square(word):
                counts[d] += 1
                if d + 1 < len(lists):
                    grow(d + 1)
            word.pop()

    grow(0)
    return counts


def square_free_word(rng: random.Random, n: int, k: int) -> list[int]:
    """A square-free word over k letters, found by seeded backtracking."""
    word: list[int] = []

    def grow() -> bool:
        if len(word) == n:
            return True
        letters = list(range(k))
        rng.shuffle(letters)
        for c in letters:
            word.append(c)
            if not ends_in_square(word):
                if grow():
                    return True
            word.pop()
        return False

    if not grow():
        raise ValueError(f"no square-free word of length {n} over {k} letters")
    return word


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

def uniform(g, k: int) -> ListAssignment:
    return ListAssignment.from_map({x: range(k) for x in g.elements})


def numpy_rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def random_lists(seed: int, assignments: int, length: int) -> list[list[list[int]]]:
    """Seeded 4-of-8 color lists, one list per position."""
    rnd = random.Random(f"lists:{seed}")
    return [
        [sorted(rnd.sample(range(8), 4)) for _ in range(length)]
        for _ in range(assignments)
    ]


# ---------------------------------------------------------------------------
# growth-sweep
# ---------------------------------------------------------------------------

def growth_sweep(seed: int) -> list[Job]:
    jobs: list[Job] = []

    def check_growth_job(name, g, claim, x) -> Job:
        lists = uniform(g, claim.list_size)
        return Job(
            id=f"check_growth/{claim.name}/{name}/{x}",
            call=lambda: thuecolor.growth.check_growth(g, lists, claim, x),
            answer=lambda r: [r.lhs, r.count_without],
            check=lambda r: None if r.holds and r.count_without > 0 else f"claim fails: {r}",
            seeded=False,
        )

    thue = claim_family("thue_choice").at(2)
    for name, g in [(f"C{n}", cycle_graph(n)) for n in range(3, 7)] + [
        (f"P{n}", path_graph(n)) for n in range(3, 7)
    ]:
        for x in sorted(g.vertices):
            jobs.append(check_growth_job(name, g, thue, x))

    weak = claim_family("weak_total").at(2)
    for n in (2, 3):
        g = path_graph(n)
        for x in sorted(g.elements):
            jobs.append(check_growth_job(f"P{n}", g, weak, x))
    c3 = cycle_graph(3)
    jobs.append(check_growth_job("C3", c3, weak, vertex(0)))
    jobs.append(check_growth_job("C3", c3, weak, edge(0)))

    total = claim_family("total_thue").at(2)
    p2 = path_graph(2)
    for x in sorted(p2.elements):
        jobs.append(check_growth_job("P2", p2, total, x))

    for n in range(3, 11):
        g = path_graph(n)
        lists = uniform(g, 4)
        last = vertex(n - 1)

        def identity(r, g=g, lists=lists, last=last) -> str | None:
            # deletion identity: C(G) = |L(x)| * C(G - x) - violations(x)
            with_x = thuecolor.counting.count_colorings(g, lists, Regime.VERTEX)
            without = thuecolor.counting.count_colorings(
                thuecolor.graphs.delete(g, {last}), lists, Regime.VERTEX
            )
            if with_x != 4 * without - r:
                return f"deletion identity fails: {with_x} != 4*{without} - {r}"
            return None

        jobs.append(Job(
            id=f"count_violations/P{n}/{last}",
            call=lambda g=g, lists=lists, last=last: thuecolor.counting.count_violations(
                g, lists, Regime.VERTEX, last),
            answer=lambda r: r,
            check=identity,
            seeded=False,
        ))

    # criterion-3 batch: many small counts on non-uniform lists.  One job
    # counts one assignment's prefixes P1..P8, so job_p50_s sits on a
    # group of jobs of equal size instead of between P4 and P5 counts.
    paths = [path_graph(k) for k in range(1, 9)]
    for a, chosen in enumerate(random_lists(seed, 100, 8)):
        prefixes = [
            (g, ListAssignment.from_map(
                {vertex(i): chosen[i] for i in range(k)}))
            for k, g in enumerate(paths, start=1)
        ]

        def check(counts, a=a, chosen=chosen, prefixes=prefixes) -> str | None:
            # Paths with 4-element lists at least double their count per
            # vertex (criterion 3); every tenth assignment is also counted
            # by the independent reference, which is too slow for all 100.
            if counts[0] != 4 or any(c < 2 * b for b, c in zip(counts, counts[1:])):
                return f"counts {counts} do not double per vertex"
            if a % 10 == 0 and counts != path_prefix_counts(chosen):
                return f"counts {counts} differ from reference {path_prefix_counts(chosen)}"
            # deletion identity on the smaller prefixes, where it is cheap
            for k in range(2, 7):
                g, lists = prefixes[k - 1]
                broken = thuecolor.counting.count_violations(
                    g, lists, Regime.VERTEX, vertex(k - 1))
                if counts[k - 1] != len(chosen[k - 1]) * counts[k - 2] - broken:
                    return f"deletion identity fails at P{k}"
            return None

        jobs.append(Job(
            id=f"count_colorings/lists{a:02d}/P1-P8",
            call=lambda prefixes=prefixes: [
                thuecolor.counting.count_colorings(g, lists, Regime.VERTEX)
                for g, lists in prefixes
            ],
            answer=lambda counts: counts,
            check=check,
            seeded=True,
        ))
    return jobs


# ---------------------------------------------------------------------------
# color-verify
# ---------------------------------------------------------------------------

def color_verify(seed: int) -> list[Job]:
    jobs: list[Job] = []

    def resample_job(name, g, k, regime, run_seed, max_steps, expect) -> Job:
        lists = uniform(g, k)

        def answer(run):
            if run.coloring is None:
                return [run.outcome, run.steps_used, None]
            colors = sorted([x.kind, x.index, c] for x, c in run.coloring.items())
            return [run.outcome, run.steps_used, digest(colors)]

        def check(run) -> str | None:
            if run.outcome == "exhausted":
                if expect != "exhausted":
                    return f"exhausted after {run.steps_used} steps"
                if run.steps_used != max_steps:
                    return f"exhausted after {run.steps_used} of {max_steps} steps"
                return None
            if not thuecolor.repetition.is_valid(g, run.coloring, regime):
                return "returned coloring has a square"
            if name.startswith("P"):
                word = [run.coloring[vertex(i)] for i in range(len(g.vertices))]
                if not word_square_free(word):
                    return "returned path coloring spells a square"
            if name.startswith("C") and not cycle_total_square_free(len(g.vertices), run.coloring):
                return "returned cycle coloring has a mixed square"
            return None

        suffix = "" if max_steps == MAX_STEPS else f"/budget{max_steps}"
        return Job(
            id=f"resample/{name}/{regime.value}/k{k}/seed{run_seed}{suffix}",
            call=lambda: thuecolor.resample.resample_color(g, lists, regime, run_seed, max_steps),
            answer=answer,
            check=check,
            seeded=True,
        )

    # The job list is built in three cost levels so that job_tail_s and
    # job_p50_s each fall inside a level of jobs that cost about the same
    # on every seed, rather than between levels or on one seeded graph:
    # six C60 weak-total runs (about 0.7 s; the graph is fixed and the
    # final scan dominates) hold the 18 slowest executions of three
    # passes; the seven 600-step P100 3-color runs and four P100 4-color
    # runs (about 0.25 s each) hold the median; the cubic graphs float
    # between them and the three 200-step runs sit below.
    p100 = path_graph(100)
    runs = 0
    for budget, count in P100_THREE_COLOR_BUDGETS.items():
        for _ in range(count):
            jobs.append(resample_job("P100", p100, 3, Regime.VERTEX, 10 * seed + runs,
                                     budget, "exhausted"))
            runs += 1
    for i in range(4):
        jobs.append(resample_job("P100", p100, 4, Regime.VERTEX, 4 * seed + i,
                                 MAX_STEPS, "success"))
    cubic = RandomGraphSpec("regular", 26, 3).sample(numpy_rng(seed, 26))
    for k in (9, 6):
        jobs.append(resample_job("cubic26", cubic, k, Regime.VERTEX, seed, MAX_STEPS, "success"))
    c60 = cycle_graph(60)
    for i in range(6):
        jobs.append(resample_job("C60", c60, 8, Regime.WEAK_TOTAL, 6 * seed + i,
                                 MAX_STEPS, "success"))
    return jobs


# ---------------------------------------------------------------------------
# cli-sweep
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = thuecolor.cli.run(argv)
    return code, out.getvalue()


def cli_sweep(seed: int, workdir: str) -> list[Job]:
    rnd = random.Random(f"cli:{seed}")

    def write(name: str, obj) -> str:
        # The jobs run with ``workdir`` as the current directory and name
        # files relative to it: `ratio` prints the graph path it was given.
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return name

    cubic = RandomGraphSpec("regular", 12, 3).sample(numpy_rng(seed, 12))
    graphs = {
        "petersen": write("petersen.json", graph_to_json(petersen_graph())),
        "K4": write("k4.json", graph_to_json(complete_graph(4))),
        "cubic12": write("cubic12.json", graph_to_json(cubic)),
    }
    p4 = write("p4.json", graph_to_json(path_graph(4)))
    p6 = write("p6.json", graph_to_json(path_graph(6)))
    p5 = write("p5.json", graph_to_json(path_graph(5)))
    p7 = write("p7.json", graph_to_json(path_graph(7)))
    p8 = write("p8.json", graph_to_json(path_graph(8)))
    p10 = write("p10.json", graph_to_json(path_graph(10)))
    p20 = write("p20.json", graph_to_json(path_graph(20)))
    p30 = write("p30.json", graph_to_json(path_graph(30)))
    c6 = write("c6.json", graph_to_json(cycle_graph(6)))
    c8 = write("c8.json", graph_to_json(cycle_graph(8)))
    chosen = random_lists(seed, 1, 6)[0]
    p6_lists = write("p6-lists.json", lists_to_json(
        ListAssignment.from_map({vertex(i): chosen[i] for i in range(6)})))
    word = square_free_word(rnd, 20, 3)
    valid = write("p20-valid.json", coloring_to_json({vertex(i): c for i, c in enumerate(word)}))
    broken = list(word)
    cut = rnd.randrange(19)
    broken[cut + 1] = broken[cut]
    square = write("p20-square.json", coloring_to_json({vertex(i): c for i, c in enumerate(broken)}))
    seq_word = square_free_word(rnd, 12, 3)
    seq_square = seq_word[:6] + seq_word[:6]

    jobs: list[Job] = []

    def add(name: str, argv: list[str], expect_exit: int | None, seeded: bool,
            check: Callable[[int, str], str | None] | None = None, pinned: bool = True) -> None:
        def check_output(result) -> str | None:
            code, out = result
            if expect_exit is not None and code != expect_exit:
                return f"exit {code}, expected {expect_exit}"
            return None if check is None else check(code, out)

        jobs.append(Job(
            id=f"cli/{name}",
            call=lambda: run_cli(argv),
            answer=lambda result: [result[0], len(result[1].encode()), digest(result[1])],
            check=check_output,
            seeded=seeded,
            pinned=pinned,
        ))

    def corpus_check(code: int, out: str) -> str | None:
        payload = json.loads(out)
        if payload["graphs"] != CORPUS_GRAPHS or payload["checks"] != CORPUS_CHECKS:
            return f"corpus swept {payload['graphs']} graphs with {payload['checks']} checks"
        if any(v["count"] <= v["bound"] for v in payload["violations"]):
            return "a reported violation is within its bound"
        if code != (1 if payload["violations"] else 0) or payload["ok"] == bool(payload["violations"]):
            return "exit code or ok flag disagrees with the violation list"
        return None

    # The corpus walk reports the edge-path violations of criterion 6 and
    # exits 1.  Only invariants are checked and nothing is pinned, so that
    # vertex-simple edge paths (no violations, exit 0) stay correct.
    add("corpus", ["corpus"], None, seeded=False, check=corpus_check, pinned=False)

    def paths_check(code: int, out: str) -> str | None:
        payload = json.loads(out)
        if payload["count"] != len(payload["paths"]):
            return "path count differs from the listed paths"
        return None

    # Edge kind is never asked for on these graphs: their maximum degree is
    # 3, where edge paths of the line graph and of G differ.
    for gname, gpath in graphs.items():
        n_vertices = {"petersen": 10, "K4": 4, "cubic12": 12}[gname]
        v1, v2, v3 = rnd.sample(range(n_vertices), 3)
        anchors = [
            ("vertex", f"v:{v1}"),
            ("vertex", f"v:{v2}"),
            ("mixed", f"v:{v3}"),
            ("mixed", f"e:{rnd.randrange(n_vertices * 3 // 2)}"),
        ]
        for kind, anchor in anchors:
            for length in (2, 4, 6, 8):
                add(f"paths/{gname}/{kind}/{anchor}/len{length}",
                    ["paths", gpath, "--through", anchor, "--kind", kind,
                     "--length", str(length), "--list"],
                    0, seeded=True, check=paths_check)

    def count_equals(expected: int) -> Callable[[int, str], str | None]:
        def check(code: int, out: str) -> str | None:
            got = int(json.loads(out)["count"])
            return None if got == expected else f"count {got}, reference {expected}"
        return check

    add("count/p6-lists", ["count", p6, "--regime", "vertex", "--lists", p6_lists], 0,
        seeded=True, check=count_equals(path_prefix_counts(chosen)[5]))
    add("count/p6-uniform4", ["count", p6, "--regime", "vertex", "--uniform", "4"], 0,
        seeded=False, check=count_equals(path_prefix_counts([[0, 1, 2, 3]] * 6)[5]))
    add("count/c6-edge4", ["count", c6, "--regime", "edge", "--uniform", "4"], 0, seeded=False)
    # Seven seed-independent counts of about 40-50 ms, no two of them
    # mirror images, are the slowest calls after the corpus; their 21
    # executions in three passes hold job_tail_s, so it does not fall on a
    # seeded call.  EDGE and STRONG_TOTAL only on graphs of maximum degree 2.
    add("count/p4-strong6", ["count", p4, "--regime", "strong-total", "--uniform", "6"], 0,
        seeded=False)
    add("count/p5-weak4", ["count", p5, "--regime", "weak-total", "--uniform", "4"], 0,
        seeded=False)
    add("count/p10-uniform4", ["count", p10, "--regime", "vertex", "--uniform", "4"], 0,
        seeded=False)
    for gname, gpath, element in (("p8", p8, "v:7"), ("p8", p8, "v:1"), ("p7", p7, "v:3"),
                                  ("c8", c8, "v:0")):
        add(f"violations/{gname}-{element.replace(':', '')}",
            ["violations", gpath, "--regime", "vertex", "--uniform", "4", "--element", element],
            0, seeded=False)
    add("ratio/p6-lists", ["ratio", p6, "--claim", "path", "--delta", "2", "--element", "v:5",
                           "--lists", p6_lists], 0, seeded=True)

    def coloring_check(g, word_check: bool) -> Callable[[int, str], str | None]:
        def check(code: int, out: str) -> str | None:
            payload = json.loads(out)
            if payload["outcome"] != "success":
                return f"outcome {payload['outcome']}"
            coloring = thuecolor.counting.coloring_from_json(payload["coloring"])
            if not thuecolor.repetition.is_valid(g, coloring, Regime.VERTEX):
                return "returned coloring has a square"
            if word_check and not word_square_free([coloring[vertex(i)] for i in range(30)]):
                return "returned path coloring spells a square"
            return None
        return check

    add("color/p30-k4", ["color", p30, "--regime", "vertex", "--colors", "4",
                         "--seed", str(rnd.randrange(2**32))], 0, seeded=True,
        check=coloring_check(path_graph(30), True))
    add("color/cubic12-k9", ["color", graphs["cubic12"], "--regime", "vertex", "--colors", "9",
                             "--seed", str(rnd.randrange(2**32))], 0, seeded=True,
        check=coloring_check(cubic, False))

    def verdict(valid_expected: bool) -> Callable[[int, str], str | None]:
        def check(code: int, out: str) -> str | None:
            payload = json.loads(out)
            if "valid" in payload:
                return None if payload["valid"] == valid_expected else "wrong verdict"
            return None if (payload["square"] is None) == valid_expected else "wrong verdict"
        return check

    add("verify/p20-valid", ["verify", p20, "--coloring", valid, "--regime", "vertex"], 0,
        seeded=True, check=verdict(True))
    add("verify/p20-square", ["verify", p20, "--coloring", square, "--regime", "vertex"], 1,
        seeded=True, check=verdict(False))
    add("verify/sequence-free", ["verify", "--sequence", json.dumps(seq_word)], 0,
        seeded=True, check=verdict(True))
    add("verify/sequence-square", ["verify", "--sequence", json.dumps(seq_square)], 1,
        seeded=True, check=verdict(False))

    def table_check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        return None if len(lines) == 301 and lines[0].startswith("delta,") else "bad table"

    add("bounds/table", ["bounds", "--table", "1", "300"], 0, seeded=False, check=table_check)
    add("bounds/weak_total-7", ["bounds", "--name", "weak_total", "--delta", "7"], 0,
        seeded=False)
    add("certify/300", ["certify", "--delta", "300"], 0, seeded=False)
    add("optimize/weak-total", ["optimize", "weak-total"], 0, seeded=False)
    return jobs


def build(workload: str, seed: int, pass_index: int, workdir: str) -> list[Job]:
    """The job list of one pass.  The jobs must run with ``workdir`` as the
    current directory.

    Each pass runs its jobs in a fixed shuffled order that depends on the
    pass index but not on the seed.  Jobs of one kind are then spread over
    the whole pass, so a change in the shared machine's speed during a
    pass affects every kind alike instead of, say, only the 100 small
    counts at its end.
    """
    if workload == "growth-sweep":
        jobs = growth_sweep(seed)
    elif workload == "color-verify":
        jobs = color_verify(seed)
    elif workload == "cli-sweep":
        jobs = cli_sweep(seed, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{workload}:{pass_index}").shuffle(jobs)
    return jobs
