"""Spans around the public functions of each thuecolor layer.

The traced run patches module attributes of the imported package, so no
file under ``src/`` has to know about tracing.  A layer that imports a
name from another layer holds its own reference, so every such reference
is patched too (``thuecolor.growth.count_colorings`` next to
``thuecolor.counting.count_colorings``); that is what gives the spans
their nesting.  Spans are kept in memory and only written out when the
pass ends.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: str
    start: float
    end: float = 0.0
    busy: float = 0.0  # time spent inside the call; a generator is not busy while suspended
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "job": self.job,
            "start": self.start,
            "end": self.end,
            "busy": self.busy,
            **self.info,
        }


def _find_violating_path_info(path) -> dict:
    return {"half": 0 if path is None else len(path.elements) // 2}


def _walk_info(result) -> dict:
    if isinstance(result, set):  # enumerate_paths_through
        return {"paths": len(result)}
    # count_paths_containing: each canonical path of length L adds L tallies
    return {"paths": sum(sum(tally.values()) // length for length, tally in result.items())}


# (module, attribute, span name, info from the result).  Several entries
# share a span name when a layer re-imports another layer's function.
TARGETS = (
    ("counting", "count_colorings", "counting.count_colorings", lambda r: {"counted": r}),
    ("growth", "count_colorings", "counting.count_colorings", lambda r: {"counted": r}),
    ("cli", "count_colorings", "counting.count_colorings", lambda r: {"counted": r}),
    ("counting", "count_violations", "counting.count_violations", None),
    ("cli", "count_violations", "counting.count_violations", None),
    ("counting", "enumerate_colorings", "counting.enumerate_colorings", None),
    ("growth", "check_growth", "growth.check_growth", None),
    ("cli", "check_growth", "growth.check_growth", None),
    ("graphs", "delete", "graphs.delete", None),
    ("growth", "delete", "graphs.delete", None),
    ("counting", "delete", "graphs.delete", None),
    ("repetition", "find_violating_path", "repetition.find_violating_path", _find_violating_path_info),
    ("resample", "find_violating_path", "repetition.find_violating_path", _find_violating_path_info),
    ("cli", "find_violating_path", "repetition.find_violating_path", _find_violating_path_info),
    ("resample", "resample_color", "resample.resample_color",
     lambda r: {"steps": r.steps_used, "success": r.outcome == "success"}),
    ("cli", "resample_color", "resample.resample_color",
     lambda r: {"steps": r.steps_used, "success": r.outcome == "success"}),
    ("graphs", "enumerate_paths_through", "graphs.walk", _walk_info),
    ("cli", "enumerate_paths_through", "graphs.walk", _walk_info),
    ("graphs", "count_paths_containing", "graphs.walk", _walk_info),
    ("corpus", "count_paths_containing", "graphs.walk", _walk_info),
    ("corpus", "path_dominance_records", "corpus.records", lambda r: {"records": len(r)}),
    ("cli", "run", "cli.run", lambda r: {"exit": r}),
    ("bounds", "eval_bound", "bounds.eval_bound", None),
    ("bounds", "optimize", "bounds.optimize", None),
    ("bounds", "certify_delta_inequalities", "bounds.certify_delta_inequalities", None),
)
GENERATORS = {"counting.enumerate_colorings"}


class Tracer:
    """Records spans while ``job`` is set; calls outside a job pass through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.job, time.perf_counter())
        self.spans.append(span)
        return span

    def _wrap(self, fn, name: str, info):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.busy = span.end - span.start
                tracer.stack.pop()
            if info is not None:
                span.info = info(result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if tracer.job is None:
                yield from gen
                return
            span = tracer._open(name)
            try:
                while True:
                    tracer.stack.append(span)
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        span.busy += time.perf_counter() - t0
                        tracer.stack.pop()
                    yield item
            finally:
                gen.close()
                span.end = time.perf_counter()

        return traced

    def install(self) -> None:
        for module_name, attr, name, info in TARGETS:
            module = importlib.import_module(f"thuecolor.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if name in GENERATORS:
                setattr(module, attr, self._wrap_generator(original, name))
            else:
                setattr(module, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def layer_metrics(spans: list[Span], stdout_bytes: int) -> tuple[dict, dict]:
    """Per-layer (times, deterministic counts) from one traced pass."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_busy: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_busy[s.parent] += s.busy

    def total(name: str) -> float:
        return sum(s.busy for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(s.busy - child_busy[s.id] for s in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    by_id = {s.id: s for s in spans}

    def calls_under(name: str, parent_name: str) -> int:
        return sum(
            1 for s in by_name[name]
            if s.parent is not None and by_id[s.parent].name == parent_name
        )

    scans = by_name["repetition.find_violating_path"]
    # a call that raised has no info and counts as neither
    clean = [s for s in scans if s.info.get("half") == 0]
    hits = [s for s in scans if s.info.get("half", 0) > 0]
    runs = by_name["resample.resample_color"]
    steps = sum(s.info.get("steps", 0) for s in runs)
    counted = sum(s.info.get("counted", 0) for s in by_name["counting.count_colorings"])
    count_s = total("counting.count_colorings")
    checks = calls("growth.check_growth")
    bounds_names = [n for n in by_name if n.startswith("bounds.")]

    counts = {
        "counting.count_colorings_calls": calls("counting.count_colorings"),
        "counting.colorings_counted": counted,
        "growth.check_growth_calls": checks,
        "repetition.clean_scans": len(clean),
        "repetition.hit_scans": len(hits),
        "repetition.hits_half_1": sum(1 for s in hits if s.info["half"] == 1),
        "repetition.hits_half_2": sum(1 for s in hits if s.info["half"] == 2),
        "repetition.hits_half_3": sum(1 for s in hits if s.info["half"] == 3),
        "repetition.hits_half_4plus": sum(1 for s in hits if s.info["half"] >= 4),
        "resample.steps": steps,
        "graphs.walk_calls": calls("graphs.walk"),
        "graphs.paths_returned": sum(s.info.get("paths", 0) for s in by_name["graphs.walk"]),
        "corpus.records": sum(s.info.get("records", 0) for s in by_name["corpus.records"]),
        "cli.calls": calls("cli.run"),
        "cli.stdout_bytes": stdout_bytes,
    }
    times = {
        "counting.count_colorings_s": count_s,
        "counting.colorings_per_s": counted / count_s if count_s else 0.0,
        "counting.count_violations_s": total("counting.count_violations"),
        "counting.enumerate_colorings_s": total("counting.enumerate_colorings"),
        "growth.check_growth_s": total("growth.check_growth"),
        "growth.self_s": self_time("growth.check_growth"),
        "growth.counts_per_check": (
            calls_under("counting.count_colorings", "growth.check_growth") / checks
            if checks else 0.0
        ),
        "graphs.delete_s": total("graphs.delete"),
        "repetition.clean_scan_s": sum(s.busy for s in clean),
        "repetition.hit_scan_s": sum(s.busy for s in hits),
        "resample.resample_color_s": total("resample.resample_color"),
        "resample.self_s": self_time("resample.resample_color"),
        "resample.scans_per_step": (
            calls_under("repetition.find_violating_path", "resample.resample_color") / steps
            if steps else 0.0
        ),
        "resample.success_ratio": (
            sum(1 for s in runs if s.info.get("success")) / len(runs) if runs else 0.0
        ),
        "graphs.walk_s": total("graphs.walk"),
        "corpus.records_s": total("corpus.records"),
        "cli.run_s": total("cli.run"),
        "cli.self_s": self_time("cli.run"),
        "bounds.s": sum(total(n) for n in bounds_names),
    }
    return times, counts
