import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoise1d import (
    Family,
    FamilySpec,
    Role,
    Signal1D,
    analyze,
    check_range_preservation,
    count_sign_changes,
    explicit_step,
    make_role_function,
)
from denoise1d import stability
from denoise1d.diffusion import _states
from denoise1d.stability import _MAX_RECORDED_VIOLATIONS, _count_sign_changes, _observe

ALL_FAMILIES = tuple(Family)


def phi_of(family):
    return make_role_function(FamilySpec(family), Role.ACTIVATION)


class TestCountSignChanges:
    def test_alternating(self):
        assert count_sign_changes(Signal1D([1.0, -1.0, 1.0])) == 2

    def test_zeros_are_removed(self):
        assert count_sign_changes(Signal1D([1.0, 0.0, -1.0])) == 1

    def test_all_zero(self):
        assert count_sign_changes(Signal1D([0.0, 0.0, 0.0])) == 0

    def test_bounded_by_length(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            u = Signal1D(rng.normal(size=int(rng.integers(1, 30))))
            assert count_sign_changes(u) <= len(u) - 1

    def test_invariant_under_negation_and_scaling(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            x = rng.normal(size=int(rng.integers(1, 30)))
            c = count_sign_changes(Signal1D(x))
            assert count_sign_changes(Signal1D(-x)) == c
            assert count_sign_changes(Signal1D(3.5 * x)) == c


def _count_with_the_copy(x):
    # The count as it was before zero-free states skipped the copy, verbatim.
    s = x[x != 0.0]
    sg = np.sign(s)
    return int(np.count_nonzero(sg[1:] != sg[:-1]))


SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308)
SAMPLES = st.lists(st.one_of(st.floats(width=64), st.sampled_from(SPECIAL)), min_size=1, max_size=40)


class TestSignCountWithoutTheCopy:
    """Zero-free, NaN-free states count sign bits; the rest count as before."""

    @settings(max_examples=300, deadline=None)
    @given(SAMPLES)
    def test_matches_the_count_with_the_copy(self, values):
        x = np.array(values, dtype=np.float64)
        want = _count_with_the_copy(x)
        assert _count_sign_changes(x) == want
        assert _count_sign_changes(x, float(np.max(x))) == want
        if np.isfinite(x).all():
            assert count_sign_changes(Signal1D(x)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=12))
    def test_matches_on_special_values_alone(self, values):
        x = np.array(values, dtype=np.float64)
        assert _count_sign_changes(x) == _count_with_the_copy(x)

    @pytest.mark.parametrize("x", [[0.0] * 5, [-0.0, 0.0, -0.0], [1.0, -0.0, -1.0], [math.nan, 1.0, -1.0],
                                   [-math.inf, math.inf, 2.0, -3.0], [7.0]])
    def test_edge_states(self, x):
        x = np.array(x)
        assert _count_sign_changes(x) == _count_with_the_copy(x)

    def test_observe_counts_every_state_alike(self):
        rng = np.random.default_rng(43)
        f = Signal1D(rng.normal(size=64))
        states = [rng.normal(size=64), np.where(rng.random(64) < 0.3, 0.0, rng.normal(size=64)),
                  np.full(64, np.nan), np.zeros(64)]
        report = _observe(f, states, 1.0, 0.1)[0]
        assert report.sign_changes_in == _count_with_the_copy(f.values)
        assert report.sign_changes_per_step == [_count_with_the_copy(x) for x in states]


class TestRangePreservation:
    def test_trivial_trajectory(self):
        f = Signal1D([0.0, 1.0])
        ok, worst = check_range_preservation(f, [f])
        assert ok and worst == 0.0

    def test_stable_homogeneous_run(self):
        f = Signal1D([0.0, 1.0])
        phi = phi_of(Family.CONSTANT)
        traj = []
        u = f
        for _ in range(100):
            u = explicit_step(u, phi, 0.25)
            traj.append(u)
        ok, worst = check_range_preservation(f, traj)
        assert ok
        assert worst <= 1e-12

    def test_unstable_run_is_flagged(self):
        f = Signal1D([0.0, 1.0, 0.0])
        phi = phi_of(Family.CONSTANT)
        traj = []
        u = f
        for _ in range(10):
            u = explicit_step(u, phi, 0.75)
            traj.append(u)
        ok, worst = check_range_preservation(f, traj)
        assert not ok
        assert worst > 0.1
        report = _observe(f, [s.values for s in traj], 1.0, 0.75)[0]
        assert (ok, worst) == (report.range_ok, report.worst_overshoot)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            check_range_preservation(Signal1D([0.0]), [])

    def test_length_mismatch_rejected(self):
        f = Signal1D([0.0, 1.0])
        with pytest.raises(ValueError, match="trajectory states must match the input length"):
            check_range_preservation(f, [f, Signal1D([0.0, 1.0, 0.5])])

    def test_nan_state_is_out_of_range(self):
        f, u = _nan_step()
        ok, worst = check_range_preservation(f, [f, u, f])
        assert not ok
        assert math.isnan(worst)
        report = _observe(f, [f.values, u.values, f.values], 1.0, 0.1)[0]
        assert report.range_ok is ok and math.isnan(report.worst_overshoot)


def _nan_step():
    # The Perona-Malik step of a finite +-1e308 signal overflows to NaN.
    f = Signal1D([-1e308, 1e308, 0.0])
    with np.errstate(all="ignore"):
        u = explicit_step(f, phi_of(Family.PERONA_MALIK), 0.1)
    assert np.isnan(u.values[:2]).all() and u.values[2] == 0.0
    return f, u


class TestObserveNaN:
    def test_nan_state_is_reported(self):
        f, u = _nan_step()
        report, last = _observe(f, [u.values, f.values], 1.0, 0.1)
        assert last is f.values
        assert not report.range_ok
        assert math.isnan(report.worst_overshoot)
        assert [(k, i) for k, i, _ in report.violations] == [(1, 0), (1, 1)]
        assert all(math.isnan(v) for _, _, v in report.violations)

    def test_nan_violations_are_capped(self):
        x = np.full(_MAX_RECORDED_VIOLATIONS + 5, np.nan)
        report, _ = _observe(Signal1D(np.zeros(x.size)), [x], 1.0, 0.1)
        assert not report.range_ok
        assert len(report.violations) == _MAX_RECORDED_VIOLATIONS


def _violations_by_full_scan(f, states, slack=1e-12):
    # The violation record as _observe kept it when it scanned every
    # out-of-range index of every state, also past the cap.
    lo = float(np.min(f.values))
    hi = float(np.max(f.values))
    violations = []
    for k, x in enumerate(states, 1):
        top = float(np.max(x))
        bottom = float(np.min(x))
        if not (top <= hi + slack and bottom >= lo - slack):
            for i in np.flatnonzero(~((x <= hi + slack) & (x >= lo - slack))):
                if len(violations) < stability._MAX_RECORDED_VIOLATIONS:
                    violations.append((k, int(i), float(x[i])))
    return violations


class TestViolationCap:
    def overflowing_states(self):
        # constant family at tau = 0.75 is above every bound: the range
        # breaks at once and the error grows in every later state.  A run
        # overwrites its state at each step, so each state is copied as it
        # passes; states that alias one buffer would all equal the last.
        f = Signal1D(np.random.default_rng(44).uniform(-1, 1, 40))
        states = [x.copy() for x in _states(f.values, phi_of(Family.CONSTANT), 0.75, 30, 1.0)]
        assert not np.array_equal(states[0], states[-1])
        return f, states

    @pytest.mark.parametrize("cap", [1, 3, 7, 50, 10_000])
    def test_overflowing_run_matches_the_full_scan(self, monkeypatch, cap):
        monkeypatch.setattr(stability, "_MAX_RECORDED_VIOLATIONS", cap)
        f, states = self.overflowing_states()
        report = _observe(f, states, 1.0, 0.75)[0]
        expected = _violations_by_full_scan(f, states)
        assert report.violations == expected
        lo, hi = float(np.min(f.values)), float(np.max(f.values))
        outside = sum(int(np.count_nonzero((x > hi + 1e-12) | (x < lo - 1e-12))) for x in states)
        assert outside > 50 and len(expected) == min(cap, outside)
        # The overshoot still reads every state, also those past the cap.
        assert report.worst_overshoot == max(max(float(np.max(x)) - hi, lo - float(np.min(x))) for x in states)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_nan_states_match_the_full_scan(self, monkeypatch, cap):
        monkeypatch.setattr(stability, "_MAX_RECORDED_VIOLATIONS", cap)
        f, u = _nan_step()
        states = [u.values, np.full(3, np.nan), f.values]
        report = _observe(f, states, 1.0, 0.1)[0]
        expected = _violations_by_full_scan(f, states)
        assert [(k, i, repr(v)) for k, i, v in report.violations] == [(k, i, repr(v)) for k, i, v in expected]
        assert len(expected) == cap
        assert math.isnan(report.worst_overshoot) and not report.range_ok


class TestAnalyze:
    def test_stable_identity_run(self):
        rng = np.random.default_rng(43)
        f = Signal1D(rng.uniform(-1, 1, 20))
        report = analyze(f, phi_of(Family.CONSTANT), 0.25, 50)
        assert report.range_ok
        assert report.sign_stable
        assert report.worst_overshoot <= 1e-12
        assert report.violations == []

    def test_bounds_are_consistent(self):
        f = Signal1D(np.linspace(0, 1, 10))
        report = analyze(f, phi_of(Family.PERONA_MALIK), 0.25, 5)
        assert report.tau_sign == report.tau_maxmin / 2.0
        assert report.lipschitz > 0.0

    def test_unstable_run_reports_violations(self):
        report = analyze(Signal1D([0.0, 1.0, 0.0]), phi_of(Family.CONSTANT), 0.75, 10)
        assert not report.range_ok
        assert report.worst_overshoot > 0.1
        assert len(report.violations) > 0
        step, idx, value = report.violations[0]
        assert step >= 1 and 0 <= idx < 3

    def test_perona_malik_random_signals_stay_in_range(self):
        rng = np.random.default_rng(44)
        phi = phi_of(Family.PERONA_MALIK)
        for _ in range(20):
            f = Signal1D(rng.uniform(0, 1, 30))
            report = analyze(f, phi, 0.25, 100)
            assert report.range_ok

    def test_serialisation_is_flat_key_value(self):
        f = Signal1D([0.0, 1.0, 0.0])
        report = analyze(f, phi_of(Family.CONSTANT), 0.25, 3)
        lines = report.to_lines()
        assert all("=" in line for line in lines)
        parsed = dict(line.split("=", 1) for line in lines)
        assert parsed["range_ok"] == "true"
        assert float(parsed["tau_used"]) == 0.25
        assert parsed["sign_changes_in"] == "0"

    def test_argument_validation(self):
        f = Signal1D([0.0, 1.0])
        phi = phi_of(Family.CONSTANT)
        with pytest.raises(ValueError):
            analyze(f, phi, 0.25, 0)
        with pytest.raises(ValueError):
            analyze(f, phi, -0.1, 5)


class TestSignStableRegime:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_no_increase_and_no_violations(self, family):
        """1000 random trajectories of 100 steps at tau = h^2/(4 g_max):
        sign changes never grow and the range never breaks."""
        phi = phi_of(family)
        rng = np.random.default_rng(zlib.crc32(family.value.encode()))
        tau = 0.25  # h = 1, g_max = 1 at unit family parameters
        from denoise1d.diffusion import _flux_pass
        from denoise1d.stability import _count_sign_changes

        ev = phi.evaluator
        for _ in range(1000):
            x = rng.uniform(-1, 1, int(rng.integers(2, 33)))
            lo = float(np.min(x)) - 1e-12
            hi = float(np.max(x)) + 1e-12
            prev = _count_sign_changes(x)
            for _ in range(100):
                x = _flux_pass(ev, tau, 1.0)(x)
                cur = _count_sign_changes(x)
                assert cur <= prev
                prev = cur
            assert float(np.min(x)) >= lo
            assert float(np.max(x)) <= hi
