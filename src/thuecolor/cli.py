"""Command line interface.

Outputs one JSON document on stdout (canonical key order; --pretty
indents), or CSV for ``bounds --table``.  Exit codes: 0 on success, 1
when a property violation was found (a square, a failed bound, a failed
certification), 2 for any input the program cannot accept (usage
errors, parse errors and out-of-range values), which ``run`` decides in
one place from the ``ValueError`` or ``OverflowError`` that such input
raises, before it writes anything to stdout.

The parser is built on the first ``run`` and reused; ``run`` keeps no other
state between calls, and each call reads its input files anew.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import asdict

from . import bounds as bounds_mod
from . import corpus as corpus_mod
from .counting import (
    ListAssignment,
    coloring_from_json,
    coloring_to_json,
    count_colorings,
    count_violations,
    lists_from_json,
)
from .graphs import (
    ElementId,
    GeneralizedGraph,
    count_paths_bound,
    edge,
    enumerate_paths_through,
    graph_from_json,
    is_int,
    PathKind,
    vertex,
)
from .growth import check_growth, claim_family
from .repetition import Regime, find_square, find_violating_path, require_total
from .resample import resample_color

class PropertyViolation(Exception):
    """Raised with the payload when the checked property fails."""

    def __init__(self, payload: dict):
        super().__init__("property violation")
        self.payload = payload


def _load(path: str, what: str, parse):
    """``parse`` applied to the JSON in ``path``; its errors name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err.strerror}") from None
    except json.JSONDecodeError as err:
        raise ValueError(
            f"parse error in {path} at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    except UnicodeDecodeError as err:
        raise ValueError(f"cannot read {path}: not UTF-8 text ({err.reason})") from None
    try:
        return parse(obj)
    except ValueError as err:
        raise ValueError(f"bad {what} in {path}: {err}") from None


def _load_graph(path: str) -> GeneralizedGraph:
    return _load(path, "graph", graph_from_json)


def _load_lists(args, g: GeneralizedGraph, flag: str = "--uniform") -> ListAssignment:
    """The lists of ``args.uniform`` (given as ``flag``) or of ``args.lists``."""
    if args.uniform is not None and args.lists:
        raise ValueError(f"give either {flag} or --lists, not both")
    if args.uniform is not None:
        if args.uniform < 0:
            raise ValueError(f"{flag} must be nonnegative")
        return ListAssignment.uniform(g, args.uniform)
    if args.lists:
        return _load(args.lists, "list assignment", lambda obj: lists_from_json(obj, g))
    raise ValueError(f"a list assignment is required ({flag} or --lists)")


def _parse_regime(text: str) -> Regime:
    try:
        return Regime(text)
    except ValueError:
        raise ValueError(
            f"unknown regime {text!r}; use vertex, edge, weak-total or strong-total"
        ) from None


def _parse_element(text: str) -> ElementId:
    kind, sep, idx = text.partition(":")
    if sep and kind in ("v", "e") and re.fullmatch("-?[0-9]+", idx):
        try:
            return vertex(int(idx)) if kind == "v" else edge(int(idx))
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"malformed element {text!r}; use v:<index> or e:<index>")


def _parse_sequence(text: str):
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        return text  # plain ASCII word, bytes as colors
    if isinstance(parsed, list):
        if not all(map(is_int, parsed)):
            raise ValueError("sequence array must contain only integers")
        return parsed
    if isinstance(parsed, str):
        return parsed
    raise ValueError("sequence must be a JSON integer array or a string")


def _path_json(path) -> dict:
    return {
        "kind": path.kind.value,
        "elements": [str(x) for x in path.elements],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> dict:
    if args.sequence is not None:
        seq = _parse_sequence(args.sequence)
        hit = find_square(seq)
        payload = {
            "square": None if hit is None else {"start": hit[0], "half_length": hit[1]}
        }
        if hit is not None:
            raise PropertyViolation(payload)
        return payload
    if args.graph is None or args.coloring is None:
        raise ValueError("verify needs either --sequence or a graph with --coloring")
    g = _load_graph(args.graph)
    coloring = _load(args.coloring, "coloring", coloring_from_json)
    for x in coloring:
        if x not in g:
            raise ValueError(f"bad coloring in {args.coloring}: element {x} not in graph")
    regime = _parse_regime(args.regime)
    require_total(g, coloring, regime)
    violation = find_violating_path(g, coloring, regime)
    if violation is not None:
        raise PropertyViolation({"valid": False, "violating_path": _path_json(violation)})
    return {"valid": True, "violating_path": None}


def _cmd_count(args) -> dict:
    g = _load_graph(args.graph)
    lists = _load_lists(args, g)
    regime = _parse_regime(args.regime)
    n = count_colorings(g, lists, regime)
    return {"count": str(n)}


def _cmd_violations(args) -> dict:
    g = _load_graph(args.graph)
    lists = _load_lists(args, g)
    regime = _parse_regime(args.regime)
    x = _parse_element(args.element)
    n = count_violations(g, lists, regime, x)
    return {"count": str(n)}


def _cmd_ratio(args) -> dict:
    g = _load_graph(args.graph)
    lists = _load_lists(args, g)
    x = _parse_element(args.element)
    claim = claim_family(args.claim).at(args.delta)
    report = check_growth(g, lists, claim, x)
    payload = {
        "graph": args.graph,
        "element": str(x),
        "C_G": str(report.lhs),
        "C_Gminus": str(report.count_without),
        # C(G - x) = 0 makes the ratio infinite, which JSON cannot hold
        "ratio": report.ratio if report.count_without else None,
        "bound": claim.growth,
        "holds": report.holds,
    }
    if not report.holds:
        raise PropertyViolation(payload)
    return payload


def _cmd_paths(args) -> dict:
    g = _load_graph(args.graph)
    x = _parse_element(args.through)
    try:
        kind = PathKind(args.kind)
    except ValueError:
        raise ValueError(f"unknown path kind {args.kind!r}") from None
    if args.length < 1:
        raise ValueError("--length must be positive")
    paths = enumerate_paths_through(g, x, kind, args.length)
    bound = None
    if args.length % 2 == 0:
        try:
            bound = count_paths_bound(
                g.max_degree, x.kind, kind, args.length // 2, args.total_form
            )
        except ValueError:
            bound = None
    payload: dict = {
        "count": len(paths),
        "bound": bound,
        "holds": None if bound is None else len(paths) <= bound,
    }
    if args.list:
        payload["paths"] = [
            _path_json(p) for p in sorted(paths, key=lambda p: p.sort_key())
        ]
    if payload["holds"] is False:
        raise PropertyViolation(payload)
    return payload


def _cmd_bounds(args) -> dict | str:
    if args.table is not None:
        lo, hi = args.table
        if lo > hi or lo < 1:
            raise ValueError("--table needs 1 <= MIN <= MAX")
        table = io.StringIO()
        writer = csv.writer(table, lineterminator="\n")
        names = list(bounds_mod.BOUNDS)
        writer.writerow(["delta"] + names)
        for d in range(lo, hi + 1):
            row: list = [d]
            for name in names:
                try:
                    row.append(bounds_mod.eval_bound(name, d))
                except ValueError:
                    row.append("")
            writer.writerow(row)
        return table.getvalue()
    if args.name is None or args.delta is None:
        raise ValueError("bounds needs --name with --delta, or --table MIN MAX")
    value = bounds_mod.eval_bound(args.name, args.delta)
    return {"name": args.name, "delta": args.delta, "value": value}


def _cmd_optimize(args) -> dict:
    preset = bounds_mod.SERIES_PRESETS.get(args.preset)
    if preset is None:
        raise ValueError(
            f"unknown preset {args.preset!r}; use path or weak-total"
        )
    result = bounds_mod.optimize(preset, tol=args.tol)
    payload = {"alpha": result.alpha, "gamma": result.gamma}
    if not result.interior:
        payload["interior"] = False
    return payload


def _cmd_certify(args) -> dict:
    report = bounds_mod.certify_delta_inequalities(args.delta)
    payload = asdict(report)
    if not report.holds:
        raise PropertyViolation(payload)
    return payload


def _cmd_color(args) -> dict:
    g = _load_graph(args.graph)
    lists = _load_lists(args, g, "--colors")
    regime = _parse_regime(args.regime)
    run = resample_color(g, lists, regime, args.seed, args.max_steps)
    payload: dict = {
        "outcome": run.outcome,
        "steps": run.steps_used,
        "algorithm": run.algorithm,
        "seed": run.seed,
    }
    if run.coloring is not None:
        payload["coloring"] = coloring_to_json(run.coloring)
    return payload


def _cmd_corpus(args) -> dict:
    members = corpus_mod.builtin_corpus(args.seed)
    checks = 0
    violations = []
    for name, g in members:
        for rec in corpus_mod.path_dominance_records(name, g, max_half=args.max_half):
            checks += 1
            if not rec.holds:
                violations.append(
                    {**asdict(rec), "element": str(rec.element), "kind": rec.kind.value}
                )
    payload = {
        "graphs": len(members),
        "checks": checks,
        "violations": violations,
        "ok": not violations,
    }
    if violations:
        raise PropertyViolation(payload)
    return payload


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache  # built once per process, on the first run
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thuecolor",
        description="Square-free graph coloring: exact counts, bounds, and checks.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a sequence or a coloring for squares")
    p.add_argument("graph", nargs="?", help="graph JSON file")
    p.add_argument("--sequence", help="JSON integer array or ASCII word")
    p.add_argument("--coloring", help="coloring JSON file")
    p.add_argument("--regime", default="vertex")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="count square-free list colorings")
    p.add_argument("graph")
    p.add_argument("--regime", required=True)
    p.add_argument("--uniform", type=int)
    p.add_argument("--lists")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("violations", help="count colorings broken only at one element")
    p.add_argument("graph")
    p.add_argument("--regime", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--uniform", type=int)
    p.add_argument("--lists")
    p.set_defaults(func=_cmd_violations)

    p = sub.add_parser("ratio", help="check a growth claim on one instance")
    p.add_argument("graph")
    p.add_argument("--claim", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--uniform", type=int)
    p.add_argument("--lists")
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("paths", help="enumerate paths through an element")
    p.add_argument("graph")
    p.add_argument("--through", required=True)
    p.add_argument("--kind", required=True, help="vertex, edge or mixed")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--total-form", action="store_true", dest="total_form")
    p.add_argument("--list", action="store_true", help="include the paths themselves")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("bounds", help="evaluate a named bound or emit a CSV table")
    p.add_argument("--name")
    p.add_argument("--delta", type=int)
    p.add_argument("--table", nargs=2, type=int, metavar=("MIN", "MAX"))
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("optimize", help="minimize a preset alpha/gamma objective")
    p.add_argument("preset", help="path or weak-total")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("certify", help="check the large-degree constant inequalities")
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("color", help="run the resampling colorer")
    p.add_argument("graph")
    p.add_argument("--regime", required=True)
    p.add_argument("--colors", type=int, dest="uniform")
    p.add_argument("--lists")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=100_000, dest="max_steps")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("corpus", help="path-count dominance sweep over the corpus")
    p.add_argument("--seed", type=int, default=corpus_mod.CORPUS_SEED)
    p.add_argument("--max-half", type=int, default=4, dest="max_half")
    p.set_defaults(func=_cmd_corpus)

    return parser


def _render(payload: dict | str, pretty: bool) -> str:
    """The stdout text of a payload: CSV text as it is, else one JSON document."""
    if isinstance(payload, str):
        return payload
    text = json.dumps(payload, indent=2 if pretty else None, sort_keys=True, allow_nan=False)
    return text + "\n"


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if not exc.code else 2
    try:
        try:
            payload, code = args.func(args), 0
        except PropertyViolation as violation:
            payload, code = violation.payload, 1
        # json.dumps refuses integers of more than 4,300 digits and, with
        # allow_nan=False, any NaN or infinite float
        text = _render(payload, args.pretty)
    except (ValueError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
