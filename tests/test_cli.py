"""CLI behavior: exit codes, JSON payloads, deterministic output."""
import hashlib
import json
import os
import resource
import subprocess
import sys

import pytest

import thuecolor
import thuecolor.cli
import thuecolor.repetition
from thuecolor.cli import run
from thuecolor.counting import coloring_to_json, lists_to_json, ListAssignment
from thuecolor.graphs import complete_graph, from_standard, graph_to_json, path_graph, vertex
from thuecolor.repetition import Regime, find_violating_path


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(graph_to_json(g)))
    return str(path)


def _cap_memory():
    # a runaway allocation fails inside the child instead of starving the host
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


def run_module(*argv, timeout=60):
    """``python -m thuecolor.cli`` in a fresh interpreter, on this checkout's package."""
    src = os.path.dirname(os.path.dirname(thuecolor.__file__))
    return subprocess.run(
        [sys.executable, "-m", "thuecolor.cli", *argv],
        capture_output=True, text=True, timeout=timeout, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_verify_sequence_clean(capsys):
    code, out, _ = invoke(capsys, "verify", "--sequence", "hotsho")
    assert code == 0
    assert json.loads(out) == {"square": None}


def test_verify_sequence_square(capsys):
    code, out, _ = invoke(capsys, "verify", "--sequence", "hotshots")
    assert code == 1
    assert json.loads(out) == {"square": {"start": 0, "half_length": 4}}
    code, out, _ = invoke(capsys, "verify", "--sequence", "[1, 2, 1, 2]")
    assert code == 1
    assert json.loads(out)["square"] == {"start": 0, "half_length": 2}


def test_verify_coloring(capsys, tmp_path):
    g = path_graph(3)
    gpath = write_graph(tmp_path, g)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(coloring_to_json({vertex(0): 1, vertex(1): 2, vertex(2): 3})))
    code, out, _ = invoke(capsys, "verify", gpath, "--coloring", str(good), "--regime", "vertex")
    assert code == 0
    assert json.loads(out) == {"valid": True, "violating_path": None}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(coloring_to_json({vertex(0): 1, vertex(1): 2, vertex(2): 2})))
    code, out, _ = invoke(capsys, "verify", gpath, "--coloring", str(bad), "--regime", "vertex")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violating_path"]["kind"] == "vertex"
    assert payload["violating_path"]["elements"] == ["v1", "v2"]


def test_count_path4(capsys, tmp_path):
    gpath = write_graph(tmp_path, path_graph(4))
    code, out, _ = invoke(capsys, "count", gpath, "--regime", "vertex", "--uniform", "4")
    assert code == 0
    assert json.loads(out) == {"count": "96"}


def test_count_with_lists_file(capsys, tmp_path):
    g = path_graph(2)
    gpath = write_graph(tmp_path, g)
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps(lists_to_json(ListAssignment.uniform(g, 3))))
    code, out, _ = invoke(
        capsys, "count", gpath, "--regime", "strong-total", "--lists", str(lists)
    )
    assert code == 0
    assert json.loads(out) == {"count": "6"}


def test_count_flag_conflicts(capsys, tmp_path):
    gpath = write_graph(tmp_path, path_graph(2))
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"uniform": 3}))
    code, _, err = invoke(
        capsys, "count", gpath, "--regime", "vertex", "--uniform", "3", "--lists", str(lists)
    )
    assert code == 2
    assert "not both" in err
    code, _, err = invoke(capsys, "count", gpath, "--regime", "vertex")
    assert code == 2
    assert "required" in err
    code, _, err = invoke(capsys, "count", gpath, "--regime", "postmodern", "--uniform", "3")
    assert code == 2
    assert "unknown regime" in err


def test_count_deeper_than_the_recursion_limit_exits_two(capsys, tmp_path):
    # 1,100 isolated vertices have one coloring from one color, but the
    # counter would recurse once per vertex, past the interpreter's limit
    gpath = write_graph(tmp_path, from_standard(1100, []))
    code, out, err = invoke(capsys, "count", gpath, "--regime", "vertex", "--uniform", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: 1100 elements to color exceed the counter's depth limit")


def test_violations_subcommand(capsys, tmp_path):
    gpath = write_graph(tmp_path, path_graph(2))
    code, out, _ = invoke(
        capsys, "violations", gpath, "--regime", "vertex", "--uniform", "4",
        "--element", "v:1",
    )
    assert code == 0
    assert json.loads(out) == {"count": "4"}
    code, _, err = invoke(
        capsys, "violations", gpath, "--regime", "vertex", "--uniform", "4",
        "--element", "w:1",
    )
    assert code == 2
    assert "malformed element" in err


def test_ratio_subcommand(capsys, tmp_path):
    gpath = write_graph(tmp_path, path_graph(4), "p4.json")
    code, out, _ = invoke(
        capsys, "ratio", gpath, "--claim", "path", "--delta", "2",
        "--element", "v:3", "--uniform", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["C_G"] == "96"
    assert payload["C_Gminus"] == "36"
    assert payload["holds"] is True
    assert payload["bound"] == 2.0
    # interior deletion that genuinely breaks the ratio exits 1
    gpath9 = write_graph(tmp_path, path_graph(9), "p9.json")
    code, out, _ = invoke(
        capsys, "ratio", gpath9, "--claim", "path", "--delta", "2",
        "--element", "v:7", "--uniform", "4",
    )
    assert code == 1
    assert json.loads(out)["holds"] is False


def _strict_json(text):
    """Parse JSON, refusing the NaN and Infinity constants that it lacks."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_ratio_without_colorings_prints_null(capsys, tmp_path):
    # K6 needs six colors, so 4 give C(G) = C(G - x) = 0 and an infinite ratio
    gpath = write_graph(tmp_path, complete_graph(6))
    code, out, _ = invoke(
        capsys, "ratio", gpath, "--claim", "path", "--delta", "5",
        "--element", "v:0", "--uniform", "4",
    )
    assert code == 0
    payload = _strict_json(out)
    assert payload["C_G"] == payload["C_Gminus"] == "0"
    assert payload["ratio"] is None
    assert payload["holds"] is True


def test_paths_subcommand(capsys, tmp_path):
    gpath = write_graph(tmp_path, complete_graph(4))
    code, out, _ = invoke(
        capsys, "paths", gpath, "--through", "v:0", "--kind", "vertex", "--length", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["bound"] == 3
    assert payload["holds"] is True
    code, out, _ = invoke(
        capsys, "paths", gpath, "--through", "v:0", "--kind", "vertex",
        "--length", "2", "--list",
    )
    listed = json.loads(out)["paths"]
    assert len(listed) == 3
    assert all(p["kind"] == "vertex" and len(p["elements"]) == 2 for p in listed)


def test_paths_longer_than_the_graph_are_none(tmp_path):
    # a path cannot outgrow the element set, whatever --length asks for
    gpath = write_graph(tmp_path, path_graph(3))
    done = run_module("paths", gpath, "--through", "v:0", "--kind", "vertex", "--length", "100000")
    assert done.returncode == 0
    assert json.loads(done.stdout) == {"bound": 100000, "count": 0, "holds": True}


def test_paths_on_an_edgeless_graph_have_no_bound(capsys, tmp_path):
    # the bounds need Delta >= 1; with none the payload says so and exits 0
    gpath = write_graph(tmp_path, path_graph(1))
    code, out, err = invoke(
        capsys, "paths", gpath, "--through", "v:0", "--kind", "vertex", "--length", "2"
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"bound": None, "count": 0, "holds": None}


def test_paths_longer_than_the_recursion_limit(tmp_path):
    # the walker keeps its own stack, so P1100 yields its one full-length path
    gpath = write_graph(tmp_path, path_graph(1100))
    done = run_module("paths", gpath, "--through", "v:0", "--kind", "vertex", "--length", "1100")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"bound": 1100, "count": 1, "holds": True}


def test_paths_counterexample_exits_one(capsys, tmp_path):
    gpath = write_graph(tmp_path, complete_graph(5))
    code, out, _ = invoke(
        capsys, "paths", gpath, "--through", "e:0", "--kind", "edge", "--length", "4"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["count"] == 264
    assert payload["bound"] == 256
    assert payload["holds"] is False


def test_bounds_value(capsys):
    code, out, _ = invoke(capsys, "bounds", "--name", "weak_total", "--delta", "7")
    assert code == 0
    assert json.loads(out) == {"delta": 7, "name": "weak_total", "value": 42}


def test_bounds_errors(capsys):
    code, _, err = invoke(capsys, "bounds", "--name", "nope", "--delta", "3")
    assert code == 2
    assert "unknown bound" in err
    code, _, err = invoke(capsys, "bounds", "--name", "improved_weak_total", "--delta", "100")
    assert code == 2
    assert "requires Delta >= 300" in err
    code, _, err = invoke(capsys, "bounds")
    assert code == 2


def test_bounds_table(capsys):
    code, out, _ = invoke(capsys, "bounds", "--table", "1", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "delta,thue_choice,thue_choice_refined,weak_total,"
        "improved_weak_total,total_thue,edge_thue_choice"
    )
    assert len(lines) == 4
    row1 = lines[1].split(",")
    assert row1[0] == "1"
    assert row1[4] == ""  # improved bound undefined below 300
    code, _, err = invoke(capsys, "bounds", "--table", "5", "2")
    assert code == 2


def test_optimize_presets(capsys):
    code, out, _ = invoke(capsys, "optimize", "path")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["alpha"] - 2.0) < 1e-6
    assert abs(payload["gamma"] - 4.0) < 1e-9
    code, out, _ = invoke(capsys, "optimize", "weak-total")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["gamma"] - 5.219136248741364) < 1e-9
    code, _, err = invoke(capsys, "optimize", "banana")
    assert code == 2
    assert "unknown preset" in err


@pytest.mark.parametrize("tol", ["1e73", "1e100", "1e300"])
@pytest.mark.parametrize("preset", ["path", "weak-total"])
def test_optimize_huge_tol_stays_interior(capsys, preset, tol):
    # the bracket search halves from the tolerance down to its floor, so a
    # huge tolerance still finds the interior minimum
    code, out, _ = invoke(capsys, "optimize", preset, "--tol", tol)
    assert code == 0
    assert "interior" not in _strict_json(out)


def test_certify(capsys):
    code, out, _ = invoke(capsys, "certify", "--delta", "300")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["edge_rate"]["holds"] is True
    assert payload["vertex_rate"]["holds"] is True
    code, out, _ = invoke(capsys, "certify", "--delta", "100")
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["edge_rate"]["margin"] < 0


def test_color_subcommand(capsys, tmp_path):
    gpath = write_graph(tmp_path, path_graph(6))
    code, out, _ = invoke(
        capsys, "color", gpath, "--regime", "vertex", "--colors", "4", "--seed", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "success"
    assert payload["algorithm"] == "pcg64"
    assert payload["seed"] == 5
    assert len(payload["coloring"]) == 6
    code, out2, _ = invoke(
        capsys, "color", gpath, "--regime", "vertex", "--colors", "4", "--seed", "5"
    )
    assert out2 == out


def test_color_rejects_negative_colors(capsys, tmp_path):
    gpath = write_graph(tmp_path, path_graph(3))
    code, out, err = invoke(capsys, "color", gpath, "--regime", "vertex", "--colors", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --colors must be nonnegative\n"


def test_color_rejects_negative_seed(capsys, tmp_path):
    gpath = write_graph(tmp_path, path_graph(6))
    code, out, err = invoke(
        capsys, "color", gpath, "--regime", "vertex", "--colors", "4", "--seed", "-1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: seed must be nonnegative\n"


def test_color_rejects_colors_with_lists(capsys, tmp_path):
    gpath = write_graph(tmp_path, path_graph(6))
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"uniform": 4}))
    code, out, err = invoke(
        capsys, "color", gpath, "--regime", "vertex", "--colors", "4", "--lists", str(lists)
    )
    assert code == 2
    assert out == ""
    assert err == "error: give either --colors or --lists, not both\n"


@pytest.mark.parametrize("command, flag", [("count", "--uniform"), ("color", "--colors")])
def test_huge_uniform_lists_exit_two(tmp_path, command, flag):
    # a list of 10^30 colors cannot be built; it must be refused, not tried
    gpath = write_graph(tmp_path, path_graph(6))
    done = run_module(command, gpath, "--regime", "vertex", flag, str(10**30), timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error:")
    assert "exceeds the limit of 1048576 colors" in done.stderr


def test_verify_searches_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return find_violating_path(*args, **kwargs)

    monkeypatch.setattr(thuecolor.cli, "find_violating_path", counted)
    monkeypatch.setattr(thuecolor.repetition, "find_violating_path", counted)
    gpath = write_graph(tmp_path, path_graph(3))
    for colors, code in (((1, 2, 2), 1), ((1, 2, 3), 0)):
        calls.clear()
        coloring = tmp_path / "c.json"
        coloring.write_text(json.dumps(coloring_to_json(
            {vertex(i): c for i, c in enumerate(colors)}
        )))
        assert invoke(capsys, "verify", gpath, "--coloring", str(coloring))[0] == code
        assert len(calls) == 1


def test_corpus_finds_the_edge_violations(capsys):
    code, out, _ = invoke(capsys, "corpus", "--max-half", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["graphs"] == 25
    assert payload["ok"] is False
    assert payload["violations"]
    for v in payload["violations"]:
        assert v["kind"] == "edge"
        assert v["element"].startswith("e")
        assert v["count"] > v["bound"]


def test_corpus_determinism_across_jobs(capsys):
    code1, out1, _ = invoke(capsys, "corpus", "--max-half", "2")
    code2, out2, _ = invoke(capsys, "corpus", "--max-half", "2")
    assert (code1, out1) == (code2, out2)


# sha256 of the stdout of `thuecolor corpus`; both runs exit 1 on the
# criterion-6 edge-path violations.  Making edge paths vertex-simple
# (ROADMAP item 3) changes these bytes on purpose and re-pins them.
CORPUS_STDOUT_SHA256 = {
    (): "e6aeef0e4d79309452de1dd945ed6d27fff022c08c938ebeb8537d41dbe7881b",
    ("--max-half", "2"): "7c08be3d21d693d973a1028abafd070c09c09520b65a3e78f52d3866704f6e2d",
}


@pytest.mark.parametrize(
    "options", list(CORPUS_STDOUT_SHA256), ids=lambda o: " ".join(o) or "defaults"
)
def test_corpus_bytes_are_pinned(capsys, options):
    code, out, _ = invoke(capsys, "corpus", *options)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS_STDOUT_SHA256[options]


# (argv, exit code, sha256 of stdout) of small calls whose payloads are
# built from closed forms; graph files are named relative to the working
# directory because `ratio` prints the path it was given
_K4_PATHS = ["paths", "k4.json", "--length", "4", "--total-form", "--through"]
CALL_STDOUT_SHA256 = {
    "certify/1": (["certify", "--delta", "1"], 1,
                  "1a9047be7441139f07070f40842f982da6c13cab5254acfd435452c1b669aea5"),
    "certify/100": (["certify", "--delta", "100"], 1,
                    "c4659e0a8770a2594b23e195834963a16a6e181974131df36dd3460679be768f"),
    "certify/300": (["certify", "--delta", "300"], 0,
                    "3f9ea8e134f26d712d1b8644af675ffbd1b15dd31389c14da96dddf9abc3a148"),
    "certify/10**6": (["certify", "--delta", "1000000"], 0,
                      "3843563e19075b077786a8da51029169952dc5e3dce9420f31840966bd644aa2"),
    "ratio/weak_total/v0": (
        ["ratio", "p3.json", "--claim", "weak_total", "--delta", "2", "--element", "v:0",
         "--uniform", "12"], 0,
        "dd46df2a7ea261f57320832204079af0953d7a862638a0dc78fec296dc082f64"),
    "ratio/weak_total/e0": (
        ["ratio", "p3.json", "--claim", "weak_total", "--delta", "2", "--element", "e:0",
         "--uniform", "12"], 0,
        "905c66be1fb7c4ad596f850116e4db882fe05d1e9ba68ea311e1f1bea1ca51a0"),
    "ratio/total_thue/v0": (
        ["ratio", "p2.json", "--claim", "total_thue", "--delta", "2", "--element", "v:0",
         "--uniform", "32"], 0,
        "6594e3e57df507ea5acd101cba7b1323f2a981b0f1792d2580fc094486abf068"),
    "ratio/total_thue/e0": (
        ["ratio", "p2.json", "--claim", "total_thue", "--delta", "2", "--element", "e:0",
         "--uniform", "32"], 0,
        "2956a718a21f6416fab8ac35f0c67e4592f706c48653d77d8625135535c066b0"),
    "paths/K4/v0/vertex": (_K4_PATHS + ["v:0", "--kind", "vertex"], 0,
                           "4e0922d85c7fefafb5418a78e76776f4b654d84e8670c216c3969d490abcfd81"),
    "paths/K4/v0/edge": (_K4_PATHS + ["v:0", "--kind", "edge"], 0,
                         "94f9822449ef46056a6faef82b11341eb0657cc7c875b44b03f06be26de4068f"),
    "paths/K4/v0/mixed": (_K4_PATHS + ["v:0", "--kind", "mixed"], 0,
                          "bb0c3a14046dc55381ccbe6f8da3a1a1a93a5f38536dd9e3d54d6fd2b95670ab"),
    "paths/K4/e0/vertex": (_K4_PATHS + ["e:0", "--kind", "vertex"], 0,
                           "94f9822449ef46056a6faef82b11341eb0657cc7c875b44b03f06be26de4068f"),
    "paths/K4/e0/edge": (_K4_PATHS + ["e:0", "--kind", "edge"], 0,
                         "3713f1699ef1e274aaab7011764b1799dfaf55065a223ccde752f85c13d2720d"),
    "paths/K4/e0/mixed": (_K4_PATHS + ["e:0", "--kind", "mixed"], 0,
                          "11ac6c7b86965327e6bc2d20c7c84b37a38d359b569883234f1395043c0e1d89"),
}


@pytest.mark.parametrize("case", list(CALL_STDOUT_SHA256))
def test_call_bytes_are_pinned(capsys, tmp_path, monkeypatch, case):
    argv, expected_code, digest = CALL_STDOUT_SHA256[case]
    for name, g in (("p2.json", path_graph(2)), ("p3.json", path_graph(3)),
                    ("k4.json", complete_graph(4))):
        write_graph(tmp_path, g, name)
    monkeypatch.chdir(tmp_path)
    code, out, _ = invoke(capsys, *argv)
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_importing_the_cli_builds_no_parser():
    src = os.path.dirname(os.path.dirname(thuecolor.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import thuecolor.cli as c; print(c._build_parser.cache_info().misses)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_parser_reuse_keeps_no_state(capsys, tmp_path, monkeypatch):
    for name, g in (("p2.json", path_graph(2)), ("p3.json", path_graph(3)),
                    ("k4.json", complete_graph(4))):
        write_graph(tmp_path, g, name)
    (tmp_path / "bad-lists.json").write_text("[1]")
    monkeypatch.chdir(tmp_path)
    bounds = ["bounds", "--name", "weak_total", "--delta", "7"]
    calls = [
        (["nosuchcommand"], 2), (["--help"], 0), ([], 2),
        (["count", "p3.json", "--regime", "vertex", "--lists", "bad-lists.json"], 2),
        (["verify", "--sequence", "[1, 2, 1, 2]"], 1),
        (["--pretty"] + bounds, 0), (bounds, 0),
    ]
    pinned = len(calls)
    calls += [(argv, code) for argv, code, _ in CALL_STDOUT_SHA256.values()]
    # each call alone on a freshly built parser, in reverse order, so that
    # no call follows the one it follows below
    alone = {}
    for i in reversed(range(len(calls))):
        thuecolor.cli._build_parser.cache_clear()
        alone[i] = invoke(capsys, *calls[i][0])
    thuecolor.cli._build_parser.cache_clear()
    for i, (argv, code) in enumerate(calls):
        assert invoke(capsys, *argv) == alone[i], argv
        assert alone[i][0] == code, argv
    assert thuecolor.cli._build_parser.cache_info().misses == 1
    assert alone[pinned - 1][1] == '{"delta": 7, "name": "weak_total", "value": 42}\n'
    for i, (_, _, digest) in enumerate(CALL_STDOUT_SHA256.values(), start=pinned):
        assert hashlib.sha256(alone[i][1].encode()).hexdigest() == digest


def test_parse_error_reporting(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n!finis\n}")
    code, _, err = invoke(capsys, "count", str(bad), "--regime", "vertex", "--uniform", "3")
    assert code == 2
    assert "parse error in" in err
    assert "line 2 column 1" in err
    code, _, err = invoke(
        capsys, "count", str(tmp_path / "absent.json"), "--regime", "vertex", "--uniform", "3"
    )
    assert code == 2
    assert "no such file" in err
    bad.write_bytes(b"\xff{}")
    code, _, err = invoke(capsys, "count", str(bad), "--regime", "vertex", "--uniform", "3")
    assert code == 2
    assert err.startswith(f"error: cannot read {bad}: not UTF-8 text")


def _entry(kind, index):
    return {"element": {"kind": kind, "index": index}, "color": 1, "colors": [1]}


@pytest.mark.parametrize("command", ["count", "verify"])
@pytest.mark.parametrize(
    "content",
    [
        "[1]",
        '[{"element": {"kind": "v", "index": 0}, "color": 1, "colors": [1]}, "x"]',
        None,
        # well-formed entries, one for an element the graph lacks
        pytest.param(json.dumps([_entry("v", 0), _entry("v", 1), _entry("e", 0), _entry("e", 99)]),
                     id="absent-e99"),
        pytest.param(json.dumps([_entry("v", 0), _entry("v", 1), _entry("e", 0), _entry("v", 9)]),
                     id="absent-v9"),
    ],
)
def test_bad_input_files_exit_two(capsys, tmp_path, command, content):
    gpath = write_graph(tmp_path, path_graph(2))
    if content is None:
        target = tmp_path / "a_directory"
        target.mkdir()
    else:
        target = tmp_path / "input.json"
        target.write_text(content)
    if command == "count":
        argv = ["count", gpath, "--regime", "vertex", "--lists", str(target)]
    else:
        argv = ["verify", gpath, "--regime", "vertex", "--coloring", str(target)]
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "graph",
    [
        {"vertices": 5, "edges": []},
        {"vertices": [0, 1], "edges": [{"id": 0, "ends": 7}]},
        {"vertices": [0, 1], "edges": [{"id": [1], "ends": [0, 1]}]},
        {"vertices": [0, 1], "edges": [], "absent_vertices": [[1]]},
        {"vertices": [0, 1], "edges": [{"id": "0", "ends": [0, 1]}]},
        {"vertices": [0, True], "edges": []},
        # parallel edges: from_standard rejects them as duplicates
        {"vertices": [0, 1], "edges": [{"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [1, 0]}]},
        # the old format's extra pairs: ignoring them would lose relations
        {"vertices": [0, 1], "edges": [], "extra_vv": [[0, 1]]},
        # every edge has two ends, present or absent
        {"vertices": [0], "edges": [{"id": 0, "ends": [0]}]},
    ],
)
def test_malformed_graph_exits_two(capsys, tmp_path, graph):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, out, err = invoke(capsys, "count", str(path), "--regime", "vertex", "--uniform", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad graph in ")


@pytest.mark.parametrize(
    "option, content",
    [
        ("--lists", {"uniform": True}),
        ("--lists", [{"element": {"kind": "v", "index": 0}, "colors": [True, 2]}]),
        ("--lists", [{"element": {"kind": "v", "index": False}, "colors": [1, 2]}]),
        ("--coloring", [{"element": {"kind": "v", "index": 0}, "color": True}]),
    ],
)
def test_bool_is_not_an_integer(capsys, tmp_path, option, content):
    gpath = write_graph(tmp_path, path_graph(1))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    command = "count" if option == "--lists" else "verify"
    code, out, err = invoke(capsys, command, gpath, "--regime", "vertex", option, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "command, argv",
    [
        ("paths", ["--through", "v:--1", "--kind", "vertex", "--length", "2"]),
        ("violations", ["--regime", "vertex", "--uniform", "3", "--element", "v:\u00b2"]),
        ("paths", ["--through", "e:" + "1" * 5000, "--kind", "edge", "--length", "2"]),
    ],
)
def test_malformed_element_index_exits_two(capsys, tmp_path, command, argv):
    # "--1" and a superscript two are not ASCII integers, though int() is
    # handed them if the check only strips signs or asks str.isdigit; int()
    # refuses 5,000 digits
    gpath = write_graph(tmp_path, path_graph(3))
    code, out, err = invoke(capsys, command, gpath, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed element")


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "path", "--tol", "0"],
        ["optimize", "path", "--tol", "-1"],
        ["optimize", "path", "--tol", "nan"],
        ["optimize", "path", "--tol", "inf"],
        ["corpus", "--seed", "-1"],
        ["corpus", "--max-half", "0"],
        ["certify", "--delta", str(10**400)],
        ["bounds", "--name", "thue_choice", "--delta", str(10**400)],
        # the CSV header row precedes the 401-digit row that fails
        ["bounds", "--table", str(10**400), str(10**400)],
        # 6 Delta has 4,301 digits, more than json.dumps writes
        ["bounds", "--name", "weak_total", "--delta", "9" * 4300],
    ],
    ids=lambda argv: " ".join(argv)[:40],
)
def test_out_of_range_values_exit_two(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_bound_too_long_to_write_exits_two(capsys, tmp_path):
    # K4 has Delta = 3, so the path bound at half 10,000 has about 6,000 digits
    gpath = write_graph(tmp_path, complete_graph(4))
    argv = ["--through", "v:0", "--kind", "vertex", "--length", "20000"]
    code, out, err = invoke(capsys, "paths", gpath, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_sequence_rejects_booleans(capsys):
    # JSON true parses as the int 1, which would make [1, true] a square
    code, out, err = invoke(capsys, "verify", "--sequence", "[1, true]")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_module_entry_point():
    done = run_module("bounds", "--name", "weak_total", "--delta", "7")
    assert done.returncode == 0
    assert json.loads(done.stdout) == {"delta": 7, "name": "weak_total", "value": 42}


def test_usage_exits(capsys):
    assert invoke(capsys, "nosuchcommand")[0] == 2
    assert invoke(capsys, "--help")[0] == 0
    assert invoke(capsys)[0] == 2


def test_pretty_output(capsys):
    code, out, _ = invoke(capsys, "--pretty", "bounds", "--name", "weak_total", "--delta", "7")
    assert code == 0
    assert out.startswith("{\n  ")
    assert json.loads(out) == {"delta": 7, "name": "weak_total", "value": 42}


def test_verify_requires_some_input(capsys):
    code, _, err = invoke(capsys, "verify")
    assert code == 2
    assert "either --sequence or a graph" in err
