"""Rewrite arbitrary linear pseudo-Boolean constraints into the canonical
less-or-equal form with positive integer weights over distinct variables.

One pass sums each variable's net coefficient a_v, using w*~x = w - w*x to
move a negated literal's constant into the bound: sum(a_v * x_v) <rel> K.
A <= keeps that, a >= takes its negation sum(-a_v * x_v) <= -K, and an
equality splits into both.  Then a_v < 0 becomes |a_v| * ~x_v with the bound
raised by |a_v|, a_v = 0 drops, trivial outcomes are detected, and literals
whose weight alone exceeds the bound become forced units.  Weights are plain
Python integers, so sums cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import GE, LE, PBConstraint, Term


class OutcomeKind(Enum):
    NORMALIZED = "normalized"
    TRIVIALLY_TRUE = "trivially_true"
    TRIVIALLY_FALSE = "trivially_false"
    UNITS_ONLY = "units_only"
    EQUALITY_SPLIT = "equality_split"


@dataclass(frozen=True)
class NormalizationOutcome:
    kind: OutcomeKind
    constraint: PBConstraint | None = None
    # literals that must be 0; callers emit the unit clause of each negation
    forced_units: tuple[int, ...] = ()
    # for EQUALITY_SPLIT: the outcomes of the <= and >= halves, never splits
    parts: tuple["NormalizationOutcome", ...] = ()

    def flatten(self) -> tuple["NormalizationOutcome", ...]:
        return self.parts or (self,)


def normalize(c: PBConstraint) -> NormalizationOutcome:
    # net coefficient of each variable's positive literal, first occurrence first
    coef: dict[int, int] = {}
    k = c.bound
    for w, l in c.terms:
        if w:
            if l & 1:  # w*~x = w - w*x: the constant w moves into the bound
                k -= w
                w = -w
            coef[l >> 1] = coef.get(l >> 1, 0) + w
    if c.relation == LE:
        return _canonical(coef, k, 1)
    if c.relation == GE:
        return _canonical(coef, k, -1)
    return NormalizationOutcome(
        OutcomeKind.EQUALITY_SPLIT, parts=(_canonical(coef, k, 1), _canonical(coef, k, -1))
    )


def _canonical(coef: dict[int, int], k: int, sign: int) -> NormalizationOutcome:
    """The outcome of sign * sum(a_v * x_v) <= sign * k over positive weights."""
    k *= sign
    merged: list[Term] = []
    for v, a in coef.items():
        a *= sign
        if a > 0:
            merged.append(Term(a, 2 * v))
        elif a < 0:
            merged.append(Term(-a, 2 * v + 1))
            k -= a

    if k < 0:
        return NormalizationOutcome(OutcomeKind.TRIVIALLY_FALSE)
    if sum(w for w, _ in merged) <= k:
        return NormalizationOutcome(OutcomeKind.TRIVIALLY_TRUE)

    units = tuple(l for w, l in merged if w > k)
    kept = tuple(t for t in merged if t.weight <= k)
    if sum(w for w, _ in kept) <= k:
        # residual constraint is vacuous; only the forced units carry meaning
        return NormalizationOutcome(OutcomeKind.UNITS_ONLY, forced_units=units)
    return NormalizationOutcome(
        OutcomeKind.NORMALIZED, constraint=PBConstraint(kept, LE, k), forced_units=units
    )
