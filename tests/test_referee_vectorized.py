"""The vectorized referees against their retained reference implementations.

The perf overhaul rewrote the two exact worst-case kernels —
:func:`repro.core.game.guaranteed_adaptive_work` (level-batched minimax)
and :func:`repro.core.work.worst_case_nonadaptive_pattern` (vectorized
prefix top-(p−1) accounting) — while keeping the readable recursive/heap
formulations as references.  The adaptive pair is pinned bit for bit
(``==``) on random schedules, on every registered scheduler and on the
committed gap spec; the non-adaptive pair to 1e-9.
"""

import os
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.game as game_module
from repro import CycleStealingParams, EpisodeSchedule
from repro.core.exceptions import SchedulingError
from repro.core.game import (
    guaranteed_adaptive_work,
    guaranteed_adaptive_work_reference,
)
from repro.core.work import (
    nonadaptive_opportunity_work,
    worst_case_nonadaptive_pattern,
    worst_case_nonadaptive_pattern_reference,
)
from repro.experiments.grid import make_scheduler
from repro.registry import SCHEDULERS
from repro.schedules import (
    EqualizingAdaptiveScheduler,
    FixedPeriodScheduler,
    SinglePeriodScheduler,
)
from repro.specs import expand_payloads, load_spec

GAP_SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "specs", "guideline-gap.toml")


def _rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class _WeightedSplitScheduler:
    """Deterministic adaptive scheduler driven by an arbitrary weight list.

    Splits every residual into periods proportional to the (positive)
    weights — a pure function of ``(residual, p, c)`` as the referee
    protocol requires, yet with arbitrary, hypothesis-chosen period
    structure (including unproductive periods shorter than ``c``).
    """

    name = "weighted-split"

    def __init__(self, weights):
        self._weights = np.asarray(weights, dtype=float)

    def episode_schedule(self, residual, interrupts_remaining, setup_cost):
        take = max(1, min(self._weights.size,
                          1 + interrupts_remaining))
        weights = self._weights[:take]
        return EpisodeSchedule(residual * weights / weights.sum())


class _ScalarOnly:
    """An adaptive scheduler without ``episode_schedule_batch``."""

    def __init__(self, inner):
        self._inner = inner

    def episode_schedule(self, residual, interrupts_remaining, setup_cost):
        return self._inner.episode_schedule(residual, interrupts_remaining,
                                            setup_cost)


class _RaggedScheduler:
    """Period counts that swing across numpy's pairwise-sum block size.

    The count is a deterministic function of the residual, between 1 and
    260, so one lattice level mixes rows below and above 128 periods (the
    row sums' grouped path and its by-length path) and spans several
    padded prefix-sum chunks.  Level 0 is ragged too, so its values — the
    works if uninterrupted — feed every result.
    """

    def __init__(self):
        self._weights = np.random.default_rng(11).uniform(0.2, 5.0, 260)

    def episode_schedule(self, residual, interrupts_remaining, setup_cost):
        count = 1 + int(residual * 7.0) % 260
        weights = self._weights[:count]
        return EpisodeSchedule(residual * weights / weights.sum())


def _gap_spec_adaptive_points():
    points = []
    for point, _config in expand_payloads(load_spec(GAP_SPEC)):
        params = point.params()
        scheduler = make_scheduler(point.scheduler, params)
        if hasattr(scheduler, "episode_schedule"):
            points.append((point.scheduler, params))
    return points


class TestGuaranteedAdaptiveWorkEquivalence:
    """``guaranteed_adaptive_work`` equals the recursive oracle exactly."""

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(min_value=0.05, max_value=10.0),
                    min_size=1, max_size=8),
           st.integers(min_value=0, max_value=3),
           st.floats(min_value=25.0, max_value=5000.0),
           st.floats(min_value=0.0, max_value=4.0))
    def test_random_schedules_match_reference(self, weights, p, lifespan, c):
        scheduler = _WeightedSplitScheduler(weights)
        params = CycleStealingParams(lifespan=lifespan, setup_cost=c,
                                     max_interrupts=p)
        fast = guaranteed_adaptive_work(scheduler, params)
        reference = guaranteed_adaptive_work_reference(scheduler, params)
        assert fast == reference, (fast, reference)

    @pytest.mark.parametrize("name", sorted(SCHEDULERS.names()))
    @pytest.mark.parametrize("lifespan,p", [(777, 0), (200, 1), (400, 2),
                                            (801, 3)])
    def test_registered_schedulers_match_reference(self, name, lifespan, p):
        params = CycleStealingParams(lifespan=float(lifespan), setup_cost=1.0,
                                     max_interrupts=p)
        scheduler = make_scheduler(name, params)
        if not hasattr(scheduler, "episode_schedule"):
            pytest.skip(f"{name} is purely non-adaptive")
        fast = guaranteed_adaptive_work(scheduler, params)
        reference = guaranteed_adaptive_work_reference(scheduler, params)
        assert fast == reference, (name, fast, reference)

    def test_gap_spec_points_match_reference(self):
        points = _gap_spec_adaptive_points()
        assert len(points) == 48
        for name, params in points:
            scheduler = make_scheduler(name, params)
            fast = guaranteed_adaptive_work(scheduler, params)
            reference = guaranteed_adaptive_work_reference(
                make_scheduler(name, params), params)
            assert fast == reference, (name, params, fast, reference)

    def test_zero_interrupts_and_degenerate_lifespan(self):
        scheduler = _WeightedSplitScheduler([1.0, 2.0])
        p0 = CycleStealingParams(lifespan=50.0, setup_cost=1.0, max_interrupts=0)
        assert guaranteed_adaptive_work(scheduler, p0) == \
            guaranteed_adaptive_work_reference(scheduler, p0)

    @pytest.mark.parametrize("lifespan", [0.0, -5.0])
    def test_non_positive_lifespan_is_zero(self, lifespan):
        # CycleStealingParams rejects U <= 0, but the referees only read
        # the three fields, and both must agree on an empty opportunity.
        params = types.SimpleNamespace(lifespan=lifespan, setup_cost=1.0,
                                       max_interrupts=2)
        scheduler = EqualizingAdaptiveScheduler()
        assert guaranteed_adaptive_work(scheduler, params) == 0.0
        assert guaranteed_adaptive_work_reference(scheduler, params) == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_empty_level_zero(self, p):
        # One period per episode: every interrupt leaves nothing, so no
        # state survives to level 0 (and every lower level is empty).
        params = CycleStealingParams(lifespan=300.0, setup_cost=1.0,
                                     max_interrupts=p)
        fast = guaranteed_adaptive_work(SinglePeriodScheduler(), params)
        assert fast == guaranteed_adaptive_work_reference(
            SinglePeriodScheduler(), params) == 0.0

    def test_batch_construction_agrees_with_scalar_referee(self):
        """The episode_schedule_batch path must not change values."""
        params = CycleStealingParams(lifespan=3000.0, setup_cost=2.0,
                                     max_interrupts=3)
        batched = guaranteed_adaptive_work(EqualizingAdaptiveScheduler(), params)
        scalar = _ScalarOnly(EqualizingAdaptiveScheduler())
        assert not hasattr(scalar, "episode_schedule_batch")
        assert guaranteed_adaptive_work(scalar, params) == batched
        assert batched == guaranteed_adaptive_work_reference(
            EqualizingAdaptiveScheduler(), params)

    @pytest.mark.parametrize("lifespan,p,c", [(378.0, 2, 1.0),
                                              (380.0, 2, 0.5),
                                              (1200.5, 2, 30.0)])
    def test_period_counts_mixed_across_pairwise_block(self, lifespan, p, c):
        params = CycleStealingParams(lifespan=lifespan, setup_cost=c,
                                     max_interrupts=p)
        scheduler = _RaggedScheduler()
        below = lifespan - scheduler.episode_schedule(
            lifespan, p, c).finish_times[:-1]
        counts = [scheduler.episode_schedule(residual, p - 1, c).num_periods
                  for residual in below]
        assert min(counts) < 128 < max(counts)
        # The level below the top spans several padded prefix-sum chunks.
        assert len(counts) * (max(counts) + 1) > game_module._PREFIX_BLOCK_CELLS
        assert guaranteed_adaptive_work(scheduler, params) == \
            guaranteed_adaptive_work_reference(scheduler, params)

    @pytest.mark.parametrize("cells", [1, 7, 300])
    def test_level_spanning_many_prefix_chunks(self, cells, monkeypatch):
        # Shrinking the padded block forces every level through many row
        # chunks (down to one row per chunk); the result may not move.
        params = CycleStealingParams(lifespan=2000.0, setup_cost=1.0,
                                     max_interrupts=3)
        expected = {name: guaranteed_adaptive_work(make_scheduler(name, params),
                                                   params)
                    for name in ("equalizing-adaptive", "rosenberg-adaptive",
                                 "fixed-period")}
        monkeypatch.setattr(game_module, "_PREFIX_BLOCK_CELLS", cells)
        for name, value in expected.items():
            scheduler = make_scheduler(name, params)
            assert guaranteed_adaptive_work(scheduler, params) == value
            assert value == guaranteed_adaptive_work_reference(
                make_scheduler(name, params), params)


class TestLevelKernels:
    """The referee's per-level array passes against per-row scalars."""

    @staticmethod
    def _ragged_level(seed):
        rng = np.random.default_rng(seed)
        counts = rng.permutation(np.concatenate([np.arange(1, 401),
                                                 rng.integers(1, 400, 200)]))
        rows = [rng.uniform(0.01, 50.0, count) for count in counts]
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return rows, np.concatenate(rows), counts.astype(np.intp), starts

    @pytest.mark.parametrize("seed", [0, 1])
    def test_row_sums_equal_each_schedules_sums(self, seed):
        rows, flat, counts, starts = self._ragged_level(seed)
        totals, works = game_module._row_sums(flat, counts, starts, 2.5)
        for i, row in enumerate(rows):
            schedule = EpisodeSchedule(row)
            assert totals[i] == schedule.total_length, (i, row.size)
            assert works[i] == schedule.work_if_uninterrupted(2.5), (i, row.size)

    @pytest.mark.parametrize("cells", [1, 300, 1 << 13])
    def test_prefix_pass_equals_per_row_cumsum(self, cells, monkeypatch):
        monkeypatch.setattr(game_module, "_PREFIX_BLOCK_CELLS", cells)
        rows, flat, counts, starts = self._ragged_level(2)
        residuals = np.array([row.sum() * 1.5 for row in rows])
        children, prefix = game_module._prefix_pass(residuals, flat, counts,
                                                     starts, 2.5)
        for i, row in enumerate(rows):
            span = slice(starts[i], starts[i] + counts[i])
            schedule = EpisodeSchedule(row)
            assert np.array_equal(children[span],
                                  residuals[i] - schedule.finish_times)
            works = np.maximum(row - 2.5, 0.0)
            expected = np.concatenate(([0.0], np.cumsum(works[:-1])))
            assert np.array_equal(prefix[span], expected)


class _OvershootingScheduler:
    """Covers the residual, except that one state overshoots it."""

    def __init__(self, bad_residual, overshoot):
        self.bad_residual = bad_residual
        self.overshoot = overshoot

    def episode_schedule(self, residual, interrupts_remaining, setup_cost):
        extra = self.overshoot if residual == self.bad_residual else 0.0
        return EpisodeSchedule([residual / 2, residual / 2 + extra])


class TestRefereeChecksSchedules:
    def test_inadmissible_schedule_on_a_lower_level_raises(self):
        params = CycleStealingParams(lifespan=100.0, setup_cost=1.0,
                                     max_interrupts=2)
        # 50.0 is the residual after the first period's last instant.
        scheduler = _OvershootingScheduler(50.0, 1e-3)
        with pytest.raises(SchedulingError,
                           match="inadmissible schedule for residual 50.0"):
            guaranteed_adaptive_work(scheduler, params)
        with pytest.raises(SchedulingError,
                           match="inadmissible schedule for residual 50.0"):
            guaranteed_adaptive_work_reference(scheduler, params)

    def test_overshoot_within_tolerance_is_admissible(self):
        params = CycleStealingParams(lifespan=100.0, setup_cost=1.0,
                                     max_interrupts=2)
        scheduler = _OvershootingScheduler(50.0, 1e-7)
        assert guaranteed_adaptive_work(scheduler, params) == \
            guaranteed_adaptive_work_reference(scheduler, params)

    def test_non_schedule_return_raises(self):
        class Broken:
            def episode_schedule(self, residual, interrupts_remaining,
                                 setup_cost):
                return [residual]

        params = CycleStealingParams(lifespan=100.0, setup_cost=1.0,
                                     max_interrupts=1)
        with pytest.raises(SchedulingError, match="expected EpisodeSchedule"):
            guaranteed_adaptive_work(Broken(), params)


class TestFixedPeriodBatch:
    """The vectorized fixed-period builder equals the scalar one bit for bit."""

    @staticmethod
    def _assert_batch_matches_scalar(scheduler, residuals):
        batch = scheduler.episode_schedule_batch(residuals, 2, 1.0)
        assert len(batch) == len(residuals)
        for residual, schedule in zip(residuals, batch):
            scalar = scheduler.episode_schedule(residual, 2, 1.0)
            assert schedule.periods.tobytes() == scalar.periods.tobytes(), \
                (residual, schedule, scalar)

    @pytest.mark.parametrize("t", [10.0, 0.3, 1.0 / 3.0, 80.0])
    def test_edges_multiples_and_remainders(self, t):
        residuals = [t / 2, t, np.nextafter(t, 0.0), np.nextafter(t, 1e9)]
        for k in range(2, 40):
            residuals += [k * t, np.nextafter(k * t, 0.0),
                          np.nextafter(k * t, 1e9), k * t + t / 3]
        self._assert_batch_matches_scalar(FixedPeriodScheduler(t),
                                          [float(r) for r in residuals])

    @settings(deadline=None, max_examples=80)
    @given(st.floats(min_value=0.05, max_value=100.0),
           st.lists(st.floats(min_value=1e-3, max_value=5000.0),
                    min_size=1, max_size=40))
    def test_random_residuals(self, t, residuals):
        self._assert_batch_matches_scalar(FixedPeriodScheduler(t), residuals)

    def test_empty_batch_and_non_positive_residual(self):
        scheduler = FixedPeriodScheduler(10.0)
        assert scheduler.episode_schedule_batch([], 1, 1.0) == []
        with pytest.raises(SchedulingError, match="must be positive"):
            scheduler.episode_schedule_batch([5.0, 0.0], 1, 1.0)


class TestWorstCasePatternEquivalence:
    @settings(deadline=None, max_examples=120)
    @given(st.lists(st.floats(min_value=0.2, max_value=20.0),
                    min_size=1, max_size=14),
           st.integers(min_value=0, max_value=5),
           st.floats(min_value=0.0, max_value=3.0))
    def test_work_matches_reference(self, lengths, p, c):
        s = EpisodeSchedule(lengths)
        params = CycleStealingParams(lifespan=s.total_length, setup_cost=c,
                                     max_interrupts=p)
        pattern_fast, fast = worst_case_nonadaptive_pattern(s, params)
        pattern_ref, reference = worst_case_nonadaptive_pattern_reference(s, params)
        assert _rel_close(fast, reference), (fast, reference)
        # Both reported patterns must evaluate to their reported minimum.
        assert nonadaptive_opportunity_work(s, params, pattern_fast) == \
            pytest.approx(fast, abs=1e-6)
        assert nonadaptive_opportunity_work(s, params, pattern_ref) == \
            pytest.approx(reference, abs=1e-6)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.sampled_from([1.5, 1.5, 2.0, 2.0 + 1e-10, 4.0]),
                    min_size=2, max_size=10),
           st.integers(min_value=1, max_value=4))
    def test_duplicate_losses_attribute_distinct_periods(self, lengths, p):
        """Near-equal losses were mis-attributed by the old 1e-9 re-matching."""
        s = EpisodeSchedule(lengths)
        params = CycleStealingParams(lifespan=s.total_length, setup_cost=1.0,
                                     max_interrupts=p)
        for impl in (worst_case_nonadaptive_pattern,
                     worst_case_nonadaptive_pattern_reference):
            pattern, work = impl(s, params)
            indices = list(pattern.indices)
            assert len(indices) == len(set(indices))  # distinct periods
            assert all(1 <= i <= s.num_periods for i in indices)
            assert nonadaptive_opportunity_work(s, params, pattern) == \
                pytest.approx(work, abs=1e-6)

    def test_reference_heap_carries_indices(self):
        """Two exactly-equal large losses: the killed set stays valid."""
        s = EpisodeSchedule([5.0, 5.0, 1.2, 5.0, 1.2, 30.0])
        params = CycleStealingParams(lifespan=s.total_length, setup_cost=1.0,
                                     max_interrupts=3)
        pattern, work = worst_case_nonadaptive_pattern_reference(s, params)
        assert len(set(pattern.indices)) == pattern.count
        assert nonadaptive_opportunity_work(s, params, pattern) == \
            pytest.approx(work, abs=1e-9)

    def test_large_schedule_smoke(self):
        rng = np.random.default_rng(7)
        s = EpisodeSchedule(rng.uniform(0.5, 12.0, 4000))
        params = CycleStealingParams(lifespan=s.total_length, setup_cost=1.0,
                                     max_interrupts=7)
        _, fast = worst_case_nonadaptive_pattern(s, params)
        _, reference = worst_case_nonadaptive_pattern_reference(s, params)
        assert _rel_close(fast, reference)
