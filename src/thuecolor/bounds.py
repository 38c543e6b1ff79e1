"""Closed-form color bounds and the alpha/gamma trade-off optimization.

Each bound is a function of the maximum degree Delta.  The generic
shape behind them: with lists of size gamma*f(Delta) one extra colored
element multiplies the count of valid colorings by alpha*f(Delta)
provided gamma >= alpha + sum_i a_i / alpha^(i-1), so the best constant
is gamma* = min over alpha of that expression.  The series here are
geometric or first-moment geometric and are always evaluated in closed
form, never by truncation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# exact expressions, not decimal approximations
CBRT2 = 2.0 ** (1.0 / 3.0)
CBRT4 = 2.0 ** (2.0 / 3.0)

# the improved_weak_total (IWT) triple: lists of 4.25 Delta colors give
# growth 1.62 Delta at a vertex and 4.2 Delta at an edge, for large Delta
IWT_LISTS = 4.25
IWT_VERTEX_RATE = 1.62
IWT_EDGE_RATE = 4.2


def ceil_snapped(x: float) -> int:
    """Ceiling that forgives float noise of up to 1e-9 above an integer.

    Formula values that are mathematically integral can land a few ulp
    above the integer; plain ceil would then overshoot by one.
    """
    return math.ceil(x - 1e-9)


def sum_geometric(x):
    """sum_{i>=1} x^(i-1) = 1/(1-x) for |x| < 1.  Exact on Fractions."""
    if abs(x) >= 1:
        raise ValueError("geometric series needs |x| < 1")
    return (1 - x) ** -1


def sum_weighted_geometric(x):
    """sum_{i>=1} i*x^(i-1) = (1-x)^-2 for |x| < 1.  Exact on Fractions."""
    if abs(x) >= 1:
        raise ValueError("weighted geometric series needs |x| < 1")
    return (1 - x) ** -2


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundFormula:
    """A named closed-form bound with its validity range in Delta."""

    name: str
    min_delta: int
    evaluate: Callable[[int], float | int]
    description: str


def _thue_choice(d: int) -> float:
    return d * d + (3.0 / CBRT4) * d ** (5.0 / 3.0) + CBRT4 * d ** (4.0 / 3.0)


def _thue_choice_refined(d: int) -> int:
    # the value is d^2 + (d-1)(t + 3t^2/4) with t = (4d)^(1/3); it is an
    # integer exactly when d = 2m^3, where float noise would push ceil up
    m = round((d / 2) ** (1.0 / 3.0))
    if 2 * m**3 == d:
        return d * d + (d - 1) * (2 * m + 3 * m * m)
    inner = 1.0 + (3.0 / CBRT4) * d ** (-1.0 / 3.0) + CBRT4 * d ** (-2.0 / 3.0) + 1.0 / d
    return ceil_snapped(d * (d - 1) * inner + 1.0)


def _weak_total(d: int) -> int:
    return 6 * d


def _improved_weak_total(d: int) -> int:
    return ceil_snapped(IWT_LISTS * d)


def _total_thue(d: int) -> float:
    return d * d + (3.0 / CBRT2) * d ** (5.0 / 3.0) + 8.0 * d ** (4.0 / 3.0) + 1.0


BOUNDS: dict[str, BoundFormula] = {
    f.name: f
    for f in (
        BoundFormula(
            "thue_choice",
            1,
            _thue_choice,
            "vertex list colorings, Delta^2 + (3/2^(2/3)) Delta^(5/3) + 2^(2/3) Delta^(4/3)",
        ),
        BoundFormula(
            "thue_choice_refined",
            1,
            _thue_choice_refined,
            "integral refinement ceil(Delta(Delta-1)(1 + ...) + 1) of thue_choice",
        ),
        BoundFormula(
            "weak_total",
            1,
            _weak_total,
            "vertices and edges together, mixed paths only: 6 Delta",
        ),
        BoundFormula(
            "improved_weak_total",
            300,
            _improved_weak_total,
            "mixed paths only, large degree: ceil(4.25 Delta)",
        ),
        BoundFormula(
            "total_thue",
            1,
            _total_thue,
            "list colorings of vertices and edges together, all three path kinds",
        ),
        BoundFormula(
            "edge_thue_choice",
            1,
            _total_thue,
            "edge list colorings; same expression as total_thue",
        ),
    )
}


def eval_bound(name: str, delta: int) -> float | int:
    """Evaluate a named bound at maximum degree ``delta``."""
    try:
        formula = BOUNDS[name]
    except KeyError:
        raise ValueError(f"unknown bound {name!r}; known: {', '.join(BOUNDS)}") from None
    if delta < formula.min_delta:
        raise ValueError(
            f"bound {name} requires Delta >= {formula.min_delta}, got {delta}"
        )
    return formula.evaluate(delta)


# ---------------------------------------------------------------------------
# alpha/gamma optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesBound:
    """Objective alpha + geometric*a/(a-1) + weighted*(a/(a-1))^2.

    ``geometric`` weights the series with a_i = 1, ``weighted`` the
    series with a_i = i.  The domain opens at the series' radius of
    convergence: alpha > 1 when either series is present, alpha > 0
    otherwise.
    """

    geometric: float = 0.0
    weighted: float = 0.0

    @property
    def domain_low(self) -> float:
        return 1.0 if (self.geometric or self.weighted) else 0.0

    def objective(self, alpha: float) -> float:
        if alpha <= self.domain_low:
            raise ValueError(f"alpha must exceed {self.domain_low}")
        value = alpha
        if self.geometric:
            value += self.geometric * sum_geometric(1.0 / alpha)
        if self.weighted:
            value += self.weighted * sum_weighted_geometric(1.0 / alpha)
        return value


SERIES_PRESETS: dict[str, SeriesBound] = {
    "path": SeriesBound(geometric=1.0),
    "weak-total": SeriesBound(weighted=1.0),
}


@dataclass(frozen=True)
class OptimizeResult:
    alpha: float
    gamma: float
    interior: bool


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# the bracket search starts at least this far from the domain edge and
# halves toward the edge until it is no further away than this
_LADDER_FLOOR = 1e-9


def optimize(series: SeriesBound, tol: float = 1e-9) -> OptimizeResult:
    """Minimize the series objective by golden section over a doubling bracket.

    Returns the argmin and minimum to within ``tol``.  When the
    objective increases all the way down to the domain edge the infimum
    sits at the boundary and the result is flagged non-interior.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    lo = series.domain_low
    f = series.objective

    t1 = max(tol, _LADDER_FLOOR)
    t2 = 2 * t1
    f1, f2 = f(lo + t1), f(lo + t2)
    if f1 > f2:
        # descending: climb the doubling ladder until the objective rises
        t_prev, t_cur, f_cur = t1, t2, f2
        while True:
            t_next = 2 * t_cur
            if t_next > 2.0**200:
                raise ValueError("no bracket found within configured range")
            f_next = f(lo + t_next)
            if f_next > f_cur:
                a, b = t_prev, t_next
                break
            t_prev, t_cur, f_cur = t_cur, t_next, f_next
    else:
        # rising here; the minimum, if interior, hides between the
        # boundary and t2.  Halve toward the boundary looking for a rise.
        while True:
            if t1 <= _LADDER_FLOOR:
                return OptimizeResult(alpha=lo + t1, gamma=f1, interior=False)
            t_half = t1 / 2
            f_half = f(lo + t_half)
            if f_half > f1:
                a, b = t_half, t2
                break
            t2, t1, f1 = t1, t_half, f_half

    xatol = max(tol * 1e-3, 5e-14 * max(1.0, lo + b))
    a, b = lo + a, lo + b
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xatol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    alpha = (a + b) / 2
    return OptimizeResult(alpha=alpha, gamma=f(alpha), interior=True)


# ---------------------------------------------------------------------------
# certification of the large-degree weak-total constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateCheck:
    """One inequality lhs >= rate: its left side, lhs - rate, and whether it holds."""

    lhs: float
    margin: float
    holds: bool


@dataclass(frozen=True)
class CertifyReport:
    """Inequalities certifying the (4.25, 1.62, 4.2) constant triple.

    ``edge_rate``: 4.25 - (2/Delta) * sum_i i/1.62^(i-1) >= 4.2, the
    Delta-dependent requirement for edge growth.
    ``vertex_rate``: 4.25 - sum_i i * (1.62*4.2)^(-(i-1)/2) >= 1.62,
    constant in Delta.
    """

    delta: int
    edge_rate: RateCheck
    vertex_rate: RateCheck
    holds: bool


def certify_delta_inequalities(delta: int) -> CertifyReport:
    if delta < 1:
        raise ValueError("Delta must be positive")
    lists, v_rate, e_rate = IWT_LISTS, IWT_VERTEX_RATE, IWT_EDGE_RATE
    edge_lhs = lists - (2.0 / delta) * sum_weighted_geometric(1.0 / v_rate)
    vertex_lhs = lists - sum_weighted_geometric(1.0 / math.sqrt(v_rate * e_rate))
    edge = RateCheck(edge_lhs, edge_lhs - e_rate, edge_lhs >= e_rate)
    vertex = RateCheck(vertex_lhs, vertex_lhs - v_rate, vertex_lhs >= v_rate)
    return CertifyReport(delta, edge, vertex, edge.holds and vertex.holds)
