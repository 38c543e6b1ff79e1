"""Growth lemmas: claim constants, exact deletion checks, corpus sweeps."""
import math

import pytest

from thuecolor.bounds import ceil_snapped, eval_bound
from thuecolor.counting import ListAssignment, count_colorings
from thuecolor.graphs import (
    complete_graph,
    cycle_graph,
    edge,
    path_graph,
    petersen_graph,
    vertex,
)
from thuecolor.growth import (
    CLAIM_FAMILIES,
    GrowthClaim,
    check_growth,
    claim_family,
)
from thuecolor.repetition import ElementKind, Regime

CBRT2 = 2.0 ** (1.0 / 3.0)


def test_builtin_claim_constants():
    by_name = {name: fam.at(fam.min_delta) for name, fam in CLAIM_FAMILIES.items()}
    assert by_name["path"].list_size == 4
    assert by_name["path"].growth == 2.0
    assert by_name["path"].regime is Regime.VERTEX
    assert by_name["thue_choice"].list_size == 9
    assert by_name["thue_choice"].growth == 4.0
    assert by_name["weak_total"].list_size == 12
    assert by_name["weak_total"].growth == 6.0
    assert by_name["weak_total"].regime is Regime.WEAK_TOTAL
    assert by_name["total_thue"].list_size == 32
    assert math.isclose(by_name["total_thue"].growth, 4 * (1 + CBRT2))
    assert by_name["total_thue"].regime is Regime.STRONG_TOTAL


def test_family_scaling():
    fam = claim_family("thue_choice")
    c3 = fam.at(3)
    assert c3.list_size == 22
    assert math.isclose(c3.growth, 11.241482788417795)
    assert fam.at(2).list_size == 9
    with pytest.raises(ValueError, match="requires Delta >= 2, got 1"):
        fam.at(1)
    with pytest.raises(ValueError, match="unknown claim"):
        claim_family("nonsense")


def _total_thue_lists(d: int) -> int:
    """Delta^2 (1 + gamma Delta^(-1/3)) with gamma = 3/2^(1/3) + 8 Delta^(-1/3).

    The total_thue list size written apart from ``bounds._total_thue``.
    """
    gamma = 3.0 / CBRT2 + 8.0 * d ** (-1 / 3)
    return ceil_snapped(d * d * (1.0 + gamma * d ** (-1 / 3)))


@pytest.mark.parametrize(
    "family, reference, top",
    [
        pytest.param("thue_choice", lambda d: eval_bound("thue_choice_refined", d), 201,
                     id="thue_choice-thue_choice_refined"),
        pytest.param("weak_total", lambda d: eval_bound("weak_total", d), 201,
                     id="weak_total-weak_total"),
        pytest.param("total_thue", _total_thue_lists, 100_000, id="total_thue-reference"),
    ],
)
def test_family_list_sizes_are_the_bounds(family, reference, top):
    fam = claim_family(family)
    for d in range(fam.min_delta, top + 1):
        assert fam.at(d).list_size == reference(d)


def test_check_growth_on_paths():
    claim = claim_family("path").at(2)
    for n in range(1, 10):
        g = path_graph(n + 1)
        lists = ListAssignment.uniform(g, 4)
        rep = check_growth(g, lists, claim, vertex(n))
        assert rep.holds
        assert rep.lhs >= 2 * rep.count_without
    g = path_graph(4)
    rep = check_growth(g, ListAssignment.uniform(g, 4), claim, vertex(3))
    assert (rep.lhs, rep.count_without) == (96, 36)


def test_check_growth_single_vertex():
    g = path_graph(1)
    rep = check_growth(g, ListAssignment.uniform(g, 4), claim_family("path").at(2), vertex(0))
    assert rep.lhs == 4 and rep.count_without == 1
    assert rep.holds


def test_check_growth_weak_total_frozen():
    g = path_graph(3)
    lists = ListAssignment.uniform(g, 12)
    rep = check_growth(g, lists, claim_family("weak_total").at(2), vertex(1))
    assert rep.lhs == 172920
    assert rep.count_without == 17424
    assert math.isclose(rep.ratio, 9.924242424242424)
    assert rep.holds


def test_check_growth_rejects():
    g = path_graph(3)
    claim = claim_family("path").at(2)
    lists4 = ListAssignment.uniform(g, 4)
    with pytest.raises(ValueError, match="not in graph"):
        check_growth(g, lists4, claim, vertex(7))
    with pytest.raises(ValueError, match="deletes a vertex"):
        check_growth(g, lists4, claim, edge(0))
    with pytest.raises(ValueError, match="not colored under regime"):
        check_growth(
            g,
            ListAssignment.uniform(g, 9),
            GrowthClaim(
                name="edge_only",
                regime=Regime.EDGE,
                delta=2,
                list_size=9,
                growth=4.0,
            ),
            vertex(1),
        )
    degree_one = GrowthClaim(
        name="path1",
        regime=claim.regime,
        delta=1,
        list_size=claim.list_size,
        growth=claim.growth,
        element_kind=claim.element_kind,
    )
    p4 = path_graph(4)
    with pytest.raises(ValueError, match="exceeds the claim's Delta"):
        check_growth(p4, ListAssignment.uniform(p4, 4), degree_one, vertex(0))
    with pytest.raises(ValueError, match="smallest list has 3"):
        check_growth(g, ListAssignment.uniform(g, 3), claim, vertex(1))


def test_zero_denominator_counts_as_holding():
    # with 1-color lists the deleted graph already has no valid coloring
    g = path_graph(3)
    claim = GrowthClaim(
        name="tiny",
        regime=Regime.VERTEX,
        delta=2,
        list_size=1,
        growth=2.0,
        element_kind=ElementKind.VERTEX,
    )
    rep = check_growth(g, ListAssignment.uniform(g, 1), claim, vertex(2))
    assert rep.count_without == 0
    assert rep.holds
    assert rep.ratio == math.inf


def test_tight_flag():
    g = path_graph(1)
    claim = GrowthClaim(
        name="near",
        regime=Regime.VERTEX,
        delta=2,
        list_size=4,
        growth=3.9,
        element_kind=ElementKind.VERTEX,
    )
    rep = check_growth(g, ListAssignment.uniform(g, 4), claim, vertex(0))
    assert rep.ratio == 4.0
    assert rep.holds


def test_sweep_path_endpoints():
    # the claim models extending a coloring one vertex at a time, so the
    # deleted vertex must be an endpoint; deleting an interior vertex
    # splits the path and the product of the two halves breaks the ratio
    claim = claim_family("path").at(2)
    corpus = []
    for n in range(1, 10):
        g = path_graph(n)
        lists = ListAssignment.uniform(g, 4)
        ends = {vertex(0), vertex(n - 1)}
        for x in sorted(ends):
            corpus.append((g, lists, x))
    reports = [check_growth(g, lists, claim, x) for g, lists, x in corpus]
    assert all(r.holds for r in reports)
    assert min(r.ratio for r in reports) >= 2.0
    assert len(reports) == 1 + 2 * 8


def test_interior_deletion_can_break_the_ratio():
    claim = claim_family("path").at(2)
    g = path_graph(9)
    lists = ListAssignment.uniform(g, 4)
    rep = check_growth(g, lists, claim, vertex(7))
    assert not rep.holds
    assert rep.ratio < 2.0


def test_sweep_cycles_thue_choice():
    claim = claim_family("thue_choice").at(2)
    corpus = []
    for n in range(3, 7):
        g = cycle_graph(n)
        lists = ListAssignment.uniform(g, 9)
        corpus.append((g, lists, vertex(0)))
    reports = [check_growth(g, lists, claim, x) for g, lists, x in corpus]
    assert all(r.holds for r in reports)
    assert min(r.ratio for r in reports) >= 4.0


def test_families_registry():
    assert set(CLAIM_FAMILIES) == {
        "path",
        "thue_choice",
        "weak_total",
        "total_thue",
    }
    for fam in CLAIM_FAMILIES.values():
        ref = fam.at(fam.min_delta)
        assert ref.delta == fam.min_delta


def test_report_consistent_with_direct_counts():
    g = cycle_graph(4)
    lists = ListAssignment.uniform(g, 9)
    claim = claim_family("thue_choice").at(2)
    rep = check_growth(g, lists, claim, vertex(2))
    assert rep.lhs == count_colorings(g, lists, Regime.VERTEX)
    from thuecolor.graphs import delete

    assert rep.count_without == count_colorings(delete(g, {vertex(2)}), lists, Regime.VERTEX)


def test_growth_checks_at_delta_three():
    # Delta = 3 is the degree the paper is about.  Petersen at weak_total's
    # 18 colors is left out: its count did not finish in ten minutes.
    thue = claim_family("thue_choice").at(3)
    assert thue.list_size == 22
    for g, with_x in (
        (complete_graph(4), 22 * 21 * 20 * 19),
        (petersen_graph(), 11_622_692_077_920),
    ):
        lists = ListAssignment.uniform(g, thue.list_size)
        for x in sorted(g.vertices):
            report = check_growth(g, lists, thue, x)
            assert report.holds
            assert report.lhs == with_x
    weak = claim_family("weak_total").at(3)
    assert weak.list_size == 18
    k4 = complete_graph(4)
    lists = ListAssignment.uniform(k4, weak.list_size)
    for x in sorted(k4.elements):
        assert check_growth(k4, lists, weak, x).holds
