"""Benchmark for thuecolor: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload growth-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
of that checkout and nothing else.  Every pass over the workload's job
list runs in a fresh worker process (this script with ``--worker``), so
no pass can be answered from a cache that an earlier pass filled.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it carries the machine facts and sample counts; the
same, with every failure, goes to ``perfbench/out/``.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pinned.json"
DEFAULT_SEED = 0  # the seed whose answers pinned.json holds

# One pass of each job list takes about this long on the reference machine
# (see README.md).  An untraced run makes round(seconds / pass time)
# passes, at least two, so the amount of work, and with it the sample
# count behind every percentile, does not depend on how fast the code
# under test is.
PASS_SECONDS = {"growth-sweep": 11.0, "color-verify": 7.5, "cli-sweep": 7.0}
MIN_PASSES = 2
# A traced run: untraced and traced passes in a balanced order, so that a
# drift of the machine's speed during the run falls on both alike.
TRACE_ORDER = (False, True, True, False)
SETUP_SAMPLES = 5  # set-ups timed per run: one per pass, topped up by set-up-only workers
TAIL_BEYOND = 10  # job_tail_s: highest percentile with at least this many executions beyond
RUN_LIMIT_S = 170.0  # every worker of a run must end within this


class SetupError(Exception):
    pass


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(PASS_SECONDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="store this run's answers as the pinned ones "
                             "(default seed, all checks passing)")
    parser.add_argument("--worker", type=int, metavar="PASS",
                        help="internal: run pass PASS of the job list and print its record")
    parser.add_argument("--check", action="store_true",
                        help="internal, with --worker: also run the seed-free checks")
    parser.add_argument("--setup-only", action="store_true",
                        help="internal, with --worker: only set up and print the set-up time")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pass_plan(args) -> list[bool]:
    """Whether each pass of the run is traced, in running order."""
    if args.trace:
        return list(TRACE_ORDER)
    return [False] * max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))


# ---------------------------------------------------------------------------
# worker: one pass in its own process
# ---------------------------------------------------------------------------

def set_up(args, workdir: str):
    """Import the package from this checkout and build the pass's jobs."""
    t0 = time.perf_counter()
    if not (SRC / "thuecolor" / "__init__.py").is_file():
        raise SetupError(f"no thuecolor package under {SRC}")
    sys.path.insert(0, str(SRC))
    import thuecolor

    if Path(thuecolor.__file__).resolve().parent != (SRC / "thuecolor").resolve():
        raise SetupError(f"imported thuecolor from {thuecolor.__file__}, not from {SRC}")
    import workloads

    jobs = workloads.build(args.workload, args.seed, args.worker, workdir)
    return jobs, time.perf_counter() - t0


def run_pass(args, jobs) -> dict:
    """Run every job once, timed; then answers, checks and spans, untimed."""
    from spans import Tracer, layer_metrics

    traced = bool(args.trace)
    tracer = Tracer() if traced else None
    gc.collect()
    if tracer:
        tracer.install()
    results = []
    try:
        for job in jobs:
            if tracer:
                tracer.job = job.id
            t0 = time.perf_counter()
            try:
                out, err = job.call(), None
            except Exception as exc:  # a raising job is a failed job; keep going
                out, err = None, f"raised {exc!r}"
            results.append((job, out, time.perf_counter() - t0, err))
            if tracer:
                tracer.job = None
    finally:
        if tracer:
            tracer.uninstall()

    record: dict = {"traced": traced, "jobs": []}
    for job, out, seconds, err in results:
        answer = None
        if err is None:
            answer = job.answer(out)
            if args.check:
                err = job.check(out)
        record["jobs"].append({"id": job.id, "s": seconds, "answer": answer, "error": err,
                               "seeded": job.seeded, "pinned": job.pinned})
    if tracer:
        cli_bytes = sum(
            len(out[1].encode()) for job, out, _, err in results
            if err is None and job.id.startswith("cli/")
        )
        record["layer_times"], record["layer_counts"] = layer_metrics(tracer.spans, cli_bytes)
        with open(OUT / f"{stem(args)}-spans.jsonl", "a", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps({"pass": args.worker, **span.to_json()}) + "\n")
    return record


def worker(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        try:
            jobs, setup_s = set_up(args, workdir)
        except (SetupError, ImportError) as err:
            print(f"error: set-up failed: {err}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        os.chdir(workdir)
        record = run_pass(args, jobs)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_s"] = setup_s
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# the run: passes in workers, checks and metrics
# ---------------------------------------------------------------------------

def run_worker(args, pass_index: int, traced: bool, deadline: float, *,
               check: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(traced)),
           "--worker", str(pass_index)]
    cmd += ["--check"] if check else []
    cmd += ["--setup-only"] if setup_only else []
    env = dict(os.environ)
    env.pop("THUECOLOR_JOBS", None)  # the package's thread knob stays at its default
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SetupError("the run's time limit is used up")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise SetupError(f"pass {pass_index} did not end within the run's time limit") from None
    if proc.returncode != 0:
        raise SetupError(f"pass {pass_index} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def load_pins(workload: str) -> dict:
    if not PINS.is_file():
        return {}
    return json.loads(PINS.read_text()).get(workload, {})


def find_failures(args, records: list[dict]) -> list[dict]:
    """Pass 0 ran the seed-free checks; its answers must match the pinned
    ones, and every later pass's answers must match pass 0's."""
    pins = load_pins(args.workload)
    default_seed = args.seed == DEFAULT_SEED
    first: dict[str, object] = {}
    verdict: dict[str, str | None] = {}
    failures = []
    for p, record in enumerate(records):
        for job in record["jobs"]:
            job_id, answer, err = job["id"], job["answer"], job["error"]
            if err is None:
                if p == 0:
                    first[job_id] = answer
                    pinned = pins.get(job_id)
                    if pinned is not None and (default_seed or not job["seeded"]) \
                            and answer != pinned:
                        err = f"answer {answer} differs from pinned {pinned}"
                    verdict[job_id] = err
                elif answer != first.get(job_id):
                    err = f"answer {answer} differs from pass 0's {first.get(job_id)}"
                else:
                    err = verdict.get(job_id)
            if err is not None:
                failures.append({"pass": p, "job": job_id, "error": err})
    return failures


def job_samples(records: list[dict]) -> dict[str, list[float]]:
    """Every job's times, one per pass."""
    samples: dict[str, list[float]] = {}
    for record in records:
        for job in record["jobs"]:
            samples.setdefault(job["id"], []).append(job["s"])
    return samples


def tail_rank(n: int) -> tuple[int, float]:
    """Of n sorted executions, the index of the highest percentile that has
    TAIL_BEYOND executions beyond it, and that percentile."""
    if n <= TAIL_BEYOND:
        return n - 1, 100.0
    return n - TAIL_BEYOND - 1, 100.0 * (n - TAIL_BEYOND) / n


def job_times(records: list[dict]) -> dict[str, float]:
    """wall_s, job_p50_s and job_tail_s of the given passes.

    A job's time is the median of its executions, one per pass; wall_s is
    the sum of those over the job list.  job_tail_s is taken over every
    single execution.
    """
    samples = job_samples(records)
    medians = [statistics.median(ts) for ts in samples.values()]
    executions = sorted(t for ts in samples.values() for t in ts)
    return {"wall_s": sum(medians), "job_p50_s": statistics.median(medians),
            "job_tail_s": executions[tail_rank(len(executions))[0]]}


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    # Without a .git of its own the checkout is not a repository, whatever
    # git would find in the directories above it.
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown (not a git checkout)"


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        return worker(args)

    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem(args)}-spans.jsonl").unlink(missing_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    plan = pass_plan(args)
    try:
        records = [run_worker(args, p, traced, deadline, check=p == 0)
                   for p, traced in enumerate(plan)]
        setup_samples = [r["setup_s"] for r in records] + [
            run_worker(args, len(plan) + i, False, deadline, setup_only=True)["setup_s"]
            for i in range(SETUP_SAMPLES - len(records))
        ]
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    failures = find_failures(args, records)
    attempted = sum(len(r["jobs"]) for r in records)
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    executions = sum(len(r["jobs"]) for r in untraced)
    _, tail_q = tail_rank(executions)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "passes": len(records),
        "pass_traced": plan,
        "jobs_per_pass": len(records[0]["jobs"]),
        "samples": {
            "setup_s": len(setup_samples),
            "wall_s": len(untraced),
            "job_p50_s": len(untraced[0]["jobs"]),
            "job_tail_s": executions,
        },
        "job_tail_percentile": tail_q,
        "setup_samples_s": setup_samples,
        "pass_walls_s": [sum(j["s"] for j in r["jobs"]) for r in records],
        "failures": failures,
    }
    correct = not failures
    if args.trace:
        counts = traced[0]["layer_counts"]
        if any(r["layer_counts"] != counts for r in traced):
            correct = False
            info["count_mismatch"] = [r["layer_counts"] for r in traced]
        previous = check_counts_repeat(args, counts)
        if previous is not None:
            correct = False
            info["count_mismatch_previous_run"] = previous
        values = {
            name: statistics.median(r["layer_times"][name] for r in traced)
            for name in traced[0]["layer_times"]
        }
        values.update(counts)
        values["trace.overhead_ratio"] = (
            sum(j["s"] for r in traced for j in r["jobs"])
            / sum(j["s"] for r in untraced for j in r["jobs"])
        )
        info["layer_counts"] = counts
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            **job_times(untraced),
            "ok_ratio": 1.0 - len(failures) / attempted,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        }
    units = declared_units(bool(args.trace))
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    (OUT / f"{stem(args)}.json").write_text(json.dumps(
        {**info, "metrics": metrics, "job_times_s": job_samples(records)}, indent=1))
    if args.write_pins:
        write_pins(args, records[0], correct)

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def check_counts_repeat(args, counts: dict) -> dict | None:
    """Compare with the last traced run of this workload and seed on the same
    package and benchmark source; return the earlier counts if they differ.
    Remembers these."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "thuecolor").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    key = f"{args.workload}:{args.seed}:{digest.hexdigest()}"
    store = OUT / "trace-counts.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    earlier = seen.get(key)
    seen[key] = counts
    store.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return earlier if earlier is not None and earlier != counts else None


def write_pins(args, first_pass: dict, correct: bool) -> None:
    if args.seed != DEFAULT_SEED or not correct:
        raise SystemExit("--write-pins needs the default seed and a correct run")
    data = json.loads(PINS.read_text()) if PINS.is_file() else {}
    data[args.workload] = {j["id"]: j["answer"] for j in first_pass["jobs"] if j["pinned"]}
    PINS.write_text(format_pins(data))


def format_pins(data: dict) -> str:
    """JSON with one line per job, so a changed answer reads as a one-line diff."""
    blocks = []
    for workload, answers in sorted(data.items()):
        lines = ",\n".join(
            f"  {json.dumps(job)}: {json.dumps(answer)}" for job, answer in sorted(answers.items())
        )
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
