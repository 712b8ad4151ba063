"""Pareto-front analysis of the dual objective."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import TABLE1_MODELS
from repro.nas import (
    CandidateProfile,
    constrained_selection,
    dominates,
    knee_point,
    pareto_front,
)

settings.register_profile("pareto", deadline=None, max_examples=40)
settings.load_profile("pareto")


def profile(name: str, accuracy: float, efficiency: float) -> CandidateProfile:
    return CandidateProfile(
        config=TABLE1_MODELS["Original SPP-Net"].with_name(name),
        accuracy=accuracy,
        sequential_latency_us=2e6 / efficiency,
        optimized_latency_us=1e6 / efficiency,
        batch=1,
    )


class TestDominance:
    def test_strict_dominance(self):
        assert dominates(profile("a", 0.9, 100), profile("b", 0.8, 90))

    def test_tradeoff_not_dominated(self):
        a = profile("a", 0.9, 50)
        b = profile("b", 0.8, 100)
        assert not dominates(a, b) and not dominates(b, a)

    def test_equal_profiles_do_not_dominate(self):
        a = profile("a", 0.9, 100)
        b = profile("b", 0.9, 100)
        assert not dominates(a, b)


class TestFront:
    def test_front_excludes_dominated(self):
        profiles = [profile("good", 0.95, 100), profile("bad", 0.90, 50),
                    profile("fast", 0.85, 200)]
        names = {p.config.name for p in pareto_front(profiles)}
        assert names == {"good", "fast"}

    def test_front_sorted_by_accuracy(self):
        profiles = [profile(f"p{i}", a, e) for i, (a, e) in
                    enumerate([(0.9, 100), (0.95, 50), (0.85, 200)])]
        front = pareto_front(profiles)
        accs = [p.accuracy for p in front]
        assert accs == sorted(accs)

    def test_knee_on_singleton(self):
        only = [profile("solo", 0.9, 100)]
        assert knee_point(pareto_front(only)).config.name == "solo"

    def test_knee_requires_front(self):
        with pytest.raises(ValueError):
            knee_point([])

    @given(st.lists(st.tuples(st.floats(0.5, 1.0), st.floats(10, 1000)),
                    min_size=1, max_size=12))
    def test_constrained_winner_always_on_front(self, pairs):
        """The winner's objective pair is always a front objective pair
        (ties between identical candidates may resolve to either name)."""
        profiles = [profile(f"p{i}", a, e) for i, (a, e) in enumerate(pairs)]
        front = pareto_front(profiles)
        threshold = min(p.accuracy for p in profiles) - 1e-9
        winner = constrained_selection(profiles, threshold)
        # With every candidate feasible, the scalarization maximizes
        # efficiency, so the winner ties the front's best efficiency
        # (names may differ when efficiencies tie exactly).
        assert winner.efficiency == pytest.approx(
            max(p.efficiency for p in front)
        )

    @given(st.lists(st.tuples(st.floats(0.5, 1.0), st.floats(10, 1000)),
                    min_size=1, max_size=12))
    def test_front_members_mutually_nondominated(self, pairs):
        profiles = [profile(f"p{i}", a, e) for i, (a, e) in enumerate(pairs)]
        front = pareto_front(profiles)
        for a in front:
            for b in front:
                assert not dominates(a, b)
