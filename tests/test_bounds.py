"""Closed-form bounds, series sums, the alpha/gamma optimizer, certificates."""
import math
import random
from fractions import Fraction

import pytest

from thuecolor.bounds import (
    BOUNDS,
    SERIES_PRESETS,
    SeriesBound,
    ceil_snapped,
    certify_delta_inequalities,
    eval_bound,
    optimize,
    sum_geometric,
    sum_weighted_geometric,
)
from thuecolor.growth import claim_family

from reference import root_cubic

CBRT2 = 2.0 ** (1.0 / 3.0)
CBRT4 = 2.0 ** (2.0 / 3.0)


def test_ceil_snapped():
    assert ceil_snapped(2.0) == 2
    assert ceil_snapped(2.0000000001) == 2
    assert ceil_snapped(2.1) == 3
    assert ceil_snapped(-1.0000000001) == -1
    assert ceil_snapped(0.0) == 0


def test_geometric_sums_exact_fraction():
    s = sum_weighted_geometric(Fraction(1, 3))
    assert s == Fraction(9, 4)
    assert isinstance(s, Fraction)
    assert sum_geometric(Fraction(1, 2)) == Fraction(2)
    assert sum_weighted_geometric(Fraction(1, 2)) == Fraction(4)


def test_geometric_sums_match_partial_plus_tail():
    # closed form == partial sum + exact tail, for a thousand random x
    rnd = random.Random(1729)
    for _ in range(1000):
        x = rnd.uniform(0.001, 0.97)
        n = rnd.randint(5, 60)
        partial = sum(i * x ** (i - 1) for i in range(1, n + 1))
        tail = x ** n * ((n + 1) - n * x) / (1 - x) ** 2
        assert math.isclose(sum_weighted_geometric(x), partial + tail, rel_tol=1e-9)
        partial_g = sum(x ** (i - 1) for i in range(1, n + 1))
        tail_g = x ** n / (1 - x)
        assert math.isclose(sum_geometric(x), partial_g + tail_g, rel_tol=1e-9)


def test_geometric_sums_domain():
    for bad in (1, -1, 1.5, Fraction(7, 5)):
        with pytest.raises(ValueError):
            sum_geometric(bad)
        with pytest.raises(ValueError):
            sum_weighted_geometric(bad)


def test_bound_names_and_values():
    assert set(BOUNDS) == {
        "thue_choice",
        "thue_choice_refined",
        "weak_total",
        "improved_weak_total",
        "total_thue",
        "edge_thue_choice",
    }
    assert math.isclose(eval_bound("thue_choice", 1), 4.477282626810509)
    assert eval_bound("thue_choice", 2) == 14.0
    assert eval_bound("thue_choice_refined", 2) == 9
    assert eval_bound("weak_total", 10) == 60
    assert eval_bound("improved_weak_total", 300) == 1275
    assert math.isclose(eval_bound("total_thue", 2), 32.71826309768721)


def test_edge_thue_choice_aliases_total_thue():
    for d in (1, 2, 3, 10, 100, 10**6):
        assert eval_bound("edge_thue_choice", d) == eval_bound("total_thue", d)


def test_improved_bound_needs_large_delta():
    with pytest.raises(ValueError, match="300"):
        eval_bound("improved_weak_total", 299)
    with pytest.raises(ValueError):
        eval_bound("nope", 3)
    with pytest.raises(ValueError):
        eval_bound("weak_total", 0)


def test_refined_equals_claim_list_size():
    # the ceil'd refined polynomial and the lemma's list size expression
    # are the same quantity written two ways
    fam = claim_family("thue_choice")
    for d in [*range(2, 10**4 + 1), 10**6]:
        assert eval_bound("thue_choice_refined", d) == fam.at(d).list_size


def test_refined_exact_where_integral():
    # at Delta = 2m^3, (4 Delta)^(1/3) = 2m and the refined value is the
    # integer Delta^2 + (Delta-1)(2m + 3m^2); float sums land above it
    fam = claim_family("thue_choice")
    for m in range(1, 61):
        d = 2 * m**3
        exact = d * d + (d - 1) * (2 * m + 3 * m * m)
        assert eval_bound("thue_choice_refined", d) == exact
        assert fam.at(d).list_size == exact


def test_refined_at_most_plain_theorem():
    for d in (1, 2, 3, 5, 10, 100, 10**4, 10**6):
        assert eval_bound("thue_choice_refined", d) <= ceil_snapped(
            eval_bound("thue_choice", d)
        )


def test_coefficient_arithmetic():
    # the refinement relies on 3/2^(2/3) + 2^(2/3) < 3/2^(1/3) + 8 and
    # friends; pin the raw constants once
    assert math.isclose(CBRT2 * CBRT2, CBRT4)
    assert 3.0 / CBRT2 < 2.0 ** (4.0 / 3.0)
    assert math.isclose(eval_bound("total_thue", 2), 4 + (3.0 / CBRT2) * 2 ** (5 / 3) + 8 * 2 ** (4 / 3) + 1)


def test_series_bound_objective():
    s = SeriesBound(geometric=2.0, weighted=3.0)
    a = 2.5
    want = a + 2.0 * (1 / (1 - 1 / a)) + 3.0 * (1 / (1 - 1 / a)) ** 2
    assert math.isclose(s.objective(a), want)
    assert s.domain_low == 1.0
    assert SeriesBound().domain_low == 0.0
    with pytest.raises(ValueError):
        s.objective(1.0)


def test_optimize_path_preset():
    res = optimize(SERIES_PRESETS["path"])
    assert abs(res.alpha - 2.0) < 1e-6
    assert abs(res.gamma - 4.0) < 1e-9
    assert res.interior


def test_optimize_weak_total_preset():
    res = optimize(SERIES_PRESETS["weak-total"])
    assert abs(res.gamma - 5.21914) < 1e-3
    assert abs(res.gamma - root_cubic()) < 1e-9


def test_optimize_known_closed_form():
    # alpha + 2*alpha/(alpha-1) has its minimum at 1+sqrt(2)
    res = optimize(SeriesBound(geometric=2.0))
    assert abs(res.alpha - (1 + math.sqrt(2))) < 1e-6
    assert abs(res.gamma - (3 + 2 * math.sqrt(2))) < 1e-9


def test_optimize_boundary_case():
    # the bare objective alpha grows in alpha: no interior minimum
    res = optimize(SeriesBound())
    assert not res.interior
    assert res.alpha < 1e-6
    assert abs(res.gamma) < 1e-6


def test_optimize_scan_check():
    # golden section is exact only for a unimodal objective: scan 1,000
    # points on both sides of the minimum and require one descent, then
    # one rise, and no point below the reported minimum
    for series in SERIES_PRESETS.values():
        res = optimize(series)
        lo, gap = series.domain_low, res.alpha - series.domain_low
        values = [series.objective(lo + gap * (0.125 + 7.875 * k / 999)) for k in range(1000)]
        rising = False
        for prev, cur in zip(values, values[1:]):
            assert not (rising and cur < prev), "objective is not unimodal"
            rising = rising or cur > prev
        assert min(values) >= res.gamma - 1e-9


def test_root_cubic():
    r = root_cubic()
    assert abs(r - 5.219136248741364) < 1e-9
    assert abs(4 * r**3 - 20 * r**2 - 4 * r - 3) < 1e-7


def test_certify_frozen_values():
    rep = certify_delta_inequalities(300)
    assert rep.holds
    assert math.isclose(rep.edge_rate.margin, 0.004484911550467707, abs_tol=1e-15)
    assert math.isclose(rep.vertex_rate.margin, 3.266072632257533e-05, abs_tol=1e-15)
    bad = certify_delta_inequalities(100)
    assert not bad.holds
    assert bad.vertex_rate.holds  # the vertex inequality never depends on Delta
    assert not bad.edge_rate.holds
    assert math.isclose(bad.edge_rate.margin, -0.08654526534859563, abs_tol=1e-12)


def test_certify_monotone_in_delta():
    margins = [certify_delta_inequalities(d).edge_rate.margin for d in (100, 200, 300, 1000, 10**6)]
    assert margins == sorted(margins)
    vm = {certify_delta_inequalities(d).vertex_rate.margin for d in (100, 300, 10**6)}
    assert len(vm) == 1
    with pytest.raises(ValueError):
        certify_delta_inequalities(0)
