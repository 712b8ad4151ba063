"""Pareto analysis of the §5.4 dual objective.

The paper converts "maximize a(n) AND e(n)" into a constrained
scalarization.  The underlying structure is a Pareto front, and exposing
it is strictly more informative: every threshold A selects some point on
the front, and the front shows what each accuracy point costs in
throughput.  :func:`constrained_selection` and this module agree by
construction — the constrained winner is always a front member — which
the property tests assert.
"""

from __future__ import annotations

from typing import Sequence

from .constrained import CandidateProfile

__all__ = ["pareto_front", "dominates", "knee_point"]


def dominates(a: CandidateProfile, b: CandidateProfile) -> bool:
    """True when ``a`` is at least as good on both objectives and strictly
    better on one (accuracy up, efficiency up)."""
    at_least = a.accuracy >= b.accuracy and a.efficiency >= b.efficiency
    strictly = a.accuracy > b.accuracy or a.efficiency > b.efficiency
    return at_least and strictly


def pareto_front(profiles: Sequence[CandidateProfile]) -> list[CandidateProfile]:
    """Non-dominated candidates, sorted by accuracy ascending."""
    front = [
        p for p in profiles
        if not any(dominates(q, p) for q in profiles)
    ]
    # Deduplicate identical objective pairs (keep first).
    seen: set[tuple[float, float]] = set()
    unique = []
    for p in sorted(front, key=lambda p: (p.accuracy, p.efficiency)):
        key = (p.accuracy, p.efficiency)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


def knee_point(front: Sequence[CandidateProfile]) -> CandidateProfile:
    """The front member with the best normalized accuracy-efficiency sum —
    a threshold-free default pick when no accuracy constraint is given."""
    if not front:
        raise ValueError("empty front")
    accs = [p.accuracy for p in front]
    effs = [p.efficiency for p in front]
    a_lo, a_hi = min(accs), max(accs)
    e_lo, e_hi = min(effs), max(effs)

    def score(p: CandidateProfile) -> float:
        a = (p.accuracy - a_lo) / (a_hi - a_lo) if a_hi > a_lo else 1.0
        e = (p.efficiency - e_lo) / (e_hi - e_lo) if e_hi > e_lo else 1.0
        return a + e

    return max(front, key=score)
