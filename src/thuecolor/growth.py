"""Growth claims: coloring one more element multiplies the count of valid
colorings by at least a stated rate, provided lists are large enough.

A claim fixes a regime, a maximum degree, a minimum list size, and the
growth rate.  Checking an instance (graph, lists, element) computes the
two exact counts and compares C(g) against rate * C(g minus x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .bounds import BOUNDS, CBRT2, CBRT4, ceil_snapped
from .counting import ListAssignment, count_colorings
from .graphs import ElementId, ElementKind, GeneralizedGraph, delete
from .repetition import Regime, relevant_elements


@dataclass(frozen=True)
class GrowthClaim:
    """A concrete growth statement at a fixed maximum degree."""

    name: str
    regime: Regime
    delta: int
    list_size: int
    growth: float
    element_kind: ElementKind | None = None  # None: any element kind


@dataclass(frozen=True)
class ClaimFamily:
    """A growth claim parameterized by the maximum degree."""

    name: str
    regime: Regime
    element_kind: ElementKind | None
    min_delta: int
    list_size: Callable[[int], int]
    growth: Callable[[int], float]

    def at(self, delta: int) -> GrowthClaim:
        if delta < self.min_delta:
            raise ValueError(
                f"claim {self.name} requires Delta >= {self.min_delta}, got {delta}"
            )
        return GrowthClaim(
            name=self.name,
            regime=self.regime,
            delta=delta,
            list_size=self.list_size(delta),
            growth=self.growth(delta),
            element_kind=self.element_kind,
        )


def _thue_choice_growth(d: int) -> float:
    return d * (d - 1) * (1.0 + CBRT2 * d ** (-1 / 3))


def _total_growth(d: int) -> float:
    return d * d * (1.0 + CBRT4 * d ** (-1 / 3))


CLAIM_FAMILIES: dict[str, ClaimFamily] = {
    fam.name: fam
    for fam in (
        # paths with 4-element lists double the count per vertex
        ClaimFamily(
            name="path",
            regime=Regime.VERTEX,
            element_kind=ElementKind.VERTEX,
            min_delta=2,
            list_size=lambda d: 4,
            growth=lambda d: 2.0,
        ),
        ClaimFamily(
            name="thue_choice",
            regime=Regime.VERTEX,
            element_kind=ElementKind.VERTEX,
            min_delta=2,
            list_size=BOUNDS["thue_choice_refined"].evaluate,
            growth=_thue_choice_growth,
        ),
        ClaimFamily(
            name="weak_total",
            regime=Regime.WEAK_TOTAL,
            element_kind=None,
            min_delta=2,
            list_size=BOUNDS["weak_total"].evaluate,
            growth=lambda d: 3.0 * d,
        ),
        ClaimFamily(
            name="total_thue",
            regime=Regime.STRONG_TOTAL,
            element_kind=None,
            min_delta=2,
            # the total_thue bound without its final + 1
            list_size=lambda d: ceil_snapped(BOUNDS["total_thue"].evaluate(d) - 1.0),
            growth=_total_growth,
        ),
    )
}


def claim_family(name: str) -> ClaimFamily:
    try:
        return CLAIM_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown claim {name!r}; known: {', '.join(CLAIM_FAMILIES)}"
        ) from None


@dataclass(frozen=True)
class GrowthReport:
    claim: GrowthClaim
    element: ElementId
    lhs: int  # count with x present
    count_without: int
    ratio: float  # lhs / count_without, inf when the smaller count is 0
    holds: bool


def check_growth(
    g: GeneralizedGraph,
    lists: ListAssignment,
    claim: GrowthClaim,
    x: ElementId,
) -> GrowthReport:
    """Exactly check one growth instance.

    The comparison C(g) >= rate * C(g minus x) is made in exact rational
    arithmetic against the binary value of the rate.
    """
    if x not in g:
        raise ValueError(f"element not in graph: {x}")
    if claim.element_kind is not None and x.kind is not claim.element_kind:
        raise ValueError(
            f"claim {claim.name} deletes a {claim.element_kind.name.lower()}, got {x}"
        )
    if x.kind not in claim.regime.element_kinds:
        raise ValueError(f"element {x} is not colored under regime {claim.regime.value}")
    if g.max_degree > claim.delta:
        raise ValueError(
            f"graph degree {g.max_degree} exceeds the claim's Delta {claim.delta}"
        )
    min_size = lists.min_size(relevant_elements(g, claim.regime))
    if min_size < claim.list_size:
        raise ValueError(
            f"smallest list has {min_size} colors, claim needs {claim.list_size}"
        )
    lhs = count_colorings(g, lists, claim.regime)
    without = count_colorings(delete(g, {x}), lists, claim.regime)
    if without == 0:
        holds = True
        ratio = math.inf
    else:
        holds = Fraction(lhs, without) >= Fraction(claim.growth)
        ratio = lhs / without
    return GrowthReport(
        claim=claim,
        element=x,
        lhs=lhs,
        count_without=without,
        ratio=ratio,
        holds=holds,
    )
