"""The built-in graph corpus and path-count dominance records."""
import pytest

from thuecolor.corpus import (
    CORPUS_SEED,
    builtin_corpus,
    path_dominance_records,
    random_bounded_graph,
)
from thuecolor.graphs import PathKind, complete_graph, from_standard

import numpy as np


def test_corpus_shape():
    corpus = builtin_corpus()
    names = [name for name, _ in corpus]
    assert len(corpus) == 25
    assert names[:5] == ["P6", "C6", "K4", "K5", "petersen"]
    assert names[5:] == [f"random{t:02d}" for t in range(20)]


def test_corpus_is_deterministic():
    a = builtin_corpus()
    b = builtin_corpus()
    for (na, ga), (nb, gb) in zip(a, b):
        assert na == nb
        assert ga == gb
    c = builtin_corpus(seed=CORPUS_SEED + 1)
    assert any(ga != gc for (_, ga), (_, gc) in zip(a, c))


def test_random_members_respect_caps():
    for name, g in builtin_corpus()[5:]:
        assert 4 <= len(g.vertices) <= 10, name
        assert g.max_degree <= 4, name
        assert len(g.edges) >= 1, name


def test_random_bounded_graph_direct():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(30):
        g = random_bounded_graph(rng, max_n=8, max_degree=3)
        assert len(g.vertices) <= 8
        assert g.max_degree <= 3
        assert len(g.edges) >= 1


def test_dominance_holds_on_low_degree_members():
    for name, g in [("P6", None), ("K4", None), ("petersen", None)]:
        g = dict(builtin_corpus())[name]
        records = path_dominance_records(name, g, max_half=3)
        assert records
        assert all(r.holds for r in records), name


def test_dominance_k5_edge_counterexample():
    # K5 has 264 four-edge paths through each edge against a bound of
    # 256, because edge paths may revisit vertices and each end extends
    # to 2(Delta-1) = 6 continuations, not Delta = 4
    records = path_dominance_records("K5", complete_graph(5), max_half=2)
    bad = [r for r in records if not r.holds]
    assert len(bad) == 10
    for r in bad:
        assert r.element.kind.name == "EDGE"
        assert r.kind is PathKind.EDGE
        assert not r.total_form
        assert r.half_length == 2
        assert (r.count, r.bound) == (264, 256)
    good = [r for r in records if r.holds]
    assert len(good) + len(bad) == len(records)
    assert all(r.holds for r in records if r.kind is not PathKind.EDGE)


def test_dominance_rejects_empty_graph():
    g = from_standard(0, [])
    with pytest.raises(ValueError, match="Delta >= 1"):
        path_dominance_records("empty", g)


def test_record_count_matches_applicable_kinds():
    # each vertex contributes 3 (kind, form) combos per half, each edge 2
    g = complete_graph(4)
    records = path_dominance_records("K4", g, max_half=2)
    assert len(records) == (4 * 3 + 6 * 2) * 2
