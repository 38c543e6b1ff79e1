"""The CLI input contract as a property: ill-typed input files exit 2."""
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from thuecolor.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Well-formed inputs of each kind; every ill-typed variant of them must
# exit 2.  Dictionary keys drawn below are at most two characters long,
# so a replacement can never be the valid {"uniform": k} lists object.
_GOOD_INPUTS = {
    "graph": {
        "vertices": [0, 1, 2],
        "edges": [{"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [1, 2]}],
        # the deleted edge 0-2 keeps 0 and 2 adjacent: 6 colorings, not 12
        "absent_edges": [{"id": 2, "ends": [0, 2]}],
    },
    "lists": [
        {"element": {"kind": "v", "index": i}, "colors": [0, 1, 2]} for i in range(3)
    ],
    "coloring": [
        {"element": {"kind": "v", "index": i}, "color": c} for i, c in enumerate([0, 1, 2])
    ],
}
_OPTIONAL_KEYS = {"absent_vertices", "absent_edges"}
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


def _slots(doc, path=()):
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _slots(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _slots(value, path + (i,))


def _edited(doc, path, value=None, drop=False):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def _malformed(draw, doc):
    """A copy of ``doc`` with one value replaced by a value of another JSON
    type, or with one required key removed."""
    slots = list(_slots(doc))
    required = [
        path + (key,)
        for path, node in slots
        if isinstance(node, dict)
        for key in node
        if key not in _OPTIONAL_KEYS
    ]
    if draw(st.booleans()):
        return _edited(doc, draw(st.sampled_from(required)), drop=True)
    path, old = draw(st.sampled_from(slots))
    new = draw(_JSON.filter(lambda v: type(v) is not type(old)))
    return _edited(doc, path, new)


@settings(
    max_examples=100,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_malformed_input_always_exits_two(capsys, tmp_path, data):
    which = data.draw(st.sampled_from(sorted(_GOOD_INPUTS)))
    docs = dict(_GOOD_INPUTS, **{which: data.draw(_malformed(_GOOD_INPUTS[which]))})
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    g = str(tmp_path / "graph.json")
    if which == "coloring":
        argv = ["verify", g, "--regime", "vertex", "--coloring", str(tmp_path / "coloring.json")]
    else:
        argv = ["count", g, "--regime", "vertex", "--lists", str(tmp_path / "lists.json")]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_good_inputs_are_accepted(capsys, tmp_path):
    for name, doc in _GOOD_INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    g = str(tmp_path / "graph.json")
    code, out, _ = invoke(
        capsys, "count", g, "--regime", "vertex", "--lists", str(tmp_path / "lists.json")
    )
    assert code == 0 and json.loads(out) == {"count": "6"}
    code, out, _ = invoke(
        capsys, "verify", g, "--regime", "vertex", "--coloring", str(tmp_path / "coloring.json")
    )
    assert code == 0 and json.loads(out)["valid"] is True
