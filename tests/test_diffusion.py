import math
import os
import tempfile
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoise1d import (
    EnergySpec,
    Family,
    FamilySpec,
    Role,
    Signal1D,
    StepSizeMode,
    diffuse,
    explicit_step,
    make_role_function,
    max_stable_tau,
    minimize_by_diffusion,
    user_role_function,
)
from denoise1d import diffusion
from denoise1d.cli import StabilityViolation, main, read_signal_csv, write_signal_csv

ALL_FAMILIES = tuple(Family)


def phi_of(family):
    return make_role_function(FamilySpec(family), Role.ACTIVATION)


def random_signal(rng, n=None, lo=0.0, hi=1.0):
    n = n or int(rng.integers(2, 33))
    return Signal1D(rng.uniform(lo, hi, n))


class TestExplicitStep:
    def test_spike_identity_flux(self):
        u = Signal1D([0.0, 0.0, 1.0, 0.0, 0.0])
        out = explicit_step(u, phi_of(Family.CONSTANT), 0.25)
        np.testing.assert_array_equal(out.values, [0.0, 0.25, 0.5, 0.25, 0.0])

    def test_constant_signal_is_fixed_point(self):
        u = Signal1D(np.full(9, 3.7))
        for family in ALL_FAMILIES:
            out = explicit_step(u, phi_of(family), 0.25)
            np.testing.assert_array_equal(out.values, u.values)

    def test_two_sample_perona_malik(self):
        """One interior difference r=1; boundary fluxes vanish."""
        out = explicit_step(Signal1D([0.0, 1.0]), phi_of(Family.PERONA_MALIK), 0.25)
        e = math.exp(-0.5)
        np.testing.assert_allclose(out.values, [e / 4.0, 1.0 - e / 4.0], rtol=0, atol=1e-16)

    def test_mass_conservation(self):
        rng = np.random.default_rng(11)
        for family in ALL_FAMILIES:
            phi = phi_of(family)
            for _ in range(100):
                u = random_signal(rng)
                total = float(np.sum(u.values))
                for _ in range(5):
                    u = explicit_step(u, phi, 0.25)
                drift = abs(float(np.sum(u.values)) - total)
                assert drift <= 1e-10 * max(1.0, abs(total))

    def test_negation_commutes(self):
        rng = np.random.default_rng(12)
        for family in ALL_FAMILIES:
            phi = phi_of(family)
            u = random_signal(rng, lo=-1.0, hi=1.0)
            a = explicit_step(Signal1D(-u.values), phi, 0.25).values
            b = -explicit_step(u, phi, 0.25).values
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(x=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=64),
           h=st.sampled_from((1.0, 0.5)), tau=st.floats(1e-3, 0.25))
    def test_phi_of_zero_is_the_flux_through_both_walls(self, x, h, tau):
        """An activation with phi(0) != 0: the step must match the
        conservation stencil with phi(0) as the wall flux, bit for bit."""
        phi = user_role_function(Role.ACTIVATION, lambda r: r + 0.3)
        wall = 0.0 + 0.3
        flux = [wall] + [(x[i] - x[i - 1]) / h + 0.3 for i in range(1, len(x))] + [wall]
        want = np.array([x[i] + tau * ((flux[i + 1] - flux[i]) / h) for i in range(len(x))])
        got = explicit_step(Signal1D(x, h), phi, tau).values
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_rejects_non_activation(self):
        g = make_role_function(FamilySpec(Family.CONSTANT), Role.DIFFUSIVITY)
        with pytest.raises(ValueError):
            explicit_step(Signal1D([0.0, 1.0]), g, 0.25)


class TestMaxStableTau:
    def test_values(self):
        assert max_stable_tau(1.0, 1.0, StepSizeMode.MAXMIN) == 0.5
        assert max_stable_tau(1.0, 1.0, StepSizeMode.SIGN_STABLE) == 0.25
        assert max_stable_tau(2.0, 0.5, StepSizeMode.MAXMIN) == 0.0625

    def test_rejects_nonpositive_lipschitz(self):
        with pytest.raises(ValueError):
            max_stable_tau(0.0, 1.0, StepSizeMode.MAXMIN)
        with pytest.raises(ValueError):
            max_stable_tau(-1.0, 1.0, StepSizeMode.MAXMIN)

    @pytest.mark.parametrize("mode", tuple(StepSizeMode))
    def test_a_mode_value_selects_the_bound_of_its_member(self, mode):
        assert max_stable_tau(1.0, 1.0, mode.value) == max_stable_tau(1.0, 1.0, mode)

    @pytest.mark.parametrize("mode", (None, "bogus", "SIGN_STABLE", 0))
    def test_any_other_mode_raises(self, mode):
        with pytest.raises(ValueError):
            max_stable_tau(1.0, 1.0, mode)


class TestDiffuse:
    def test_zero_time_is_identity(self):
        f = Signal1D([1.0, 2.0, 0.5])
        out, plan = diffuse(f, phi_of(Family.CONSTANT), 0.0)
        np.testing.assert_array_equal(out.values, f.values)
        assert plan.steps == 0
        assert plan.stopping_time == 0.0

    def test_zero_time_returns_f_itself(self):
        f = Signal1D([1.0, 2.0, 0.5])
        assert diffuse(f, phi_of(Family.PERONA_MALIK), 0)[0] is f

    @pytest.mark.parametrize("role", (Role.DIFFUSIVITY, Role.REGULARISER, Role.SHRINKAGE))
    def test_a_role_other_than_activation_is_named_by_diffuse(self, role):
        # Checked before the stopping time and the Lipschitz grid, which
        # would name themselves.
        f = Signal1D([0.0, 1.0, 0.5, 0.25])
        fn = make_role_function(FamilySpec(Family.PERONA_MALIK), role)
        with pytest.raises(ValueError, match="^diffuse expects an activation function$"):
            diffuse(f, fn, 1.0)
        with pytest.raises(ValueError, match="^diffuse expects an activation function$"):
            diffuse(f, fn, -1.0)

    def test_time_whose_step_count_overflows_is_rejected(self):
        f = Signal1D([0.0, 1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match=r"^stopping time 1e\+308 needs a step count"):
            diffuse(f, phi_of(Family.PERONA_MALIK), 1e308)

    @pytest.mark.parametrize("h", (1e-200, 1e-160))
    def test_a_bound_that_underflows_is_rejected(self, h):
        # h^2/(4L) is 0.0 at h = 1e-200 and subnormal at h = 1e-160.
        f = Signal1D(np.linspace(0.0, 1.0, 16) ** 2, h=h)
        with pytest.raises(ValueError, match=r"^stopping time 1\.0 needs a step count that overflows"):
            diffuse(f, phi_of(Family.CONSTANT), 1.0)

    def test_a_mode_value_plans_like_its_member(self):
        f = Signal1D(np.linspace(0.0, 1.0, 16) ** 2)
        phi = phi_of(Family.PERONA_MALIK)
        by_value = diffuse(f, phi, 10.0, "sign-stable")[1]
        by_member = diffuse(f, phi, 10.0, StepSizeMode.SIGN_STABLE)[1]
        assert (by_value.steps, by_value.tau) == (by_member.steps, by_member.tau) == (40, 0.25)

    def test_a_plan_above_the_step_budget_raises_before_a_step(self):
        f = Signal1D([0.0, 1.0, 0.5, 0.25])
        no_step = mock.patch.object(diffusion, "_interface_pass", side_effect=AssertionError("a step was taken"))
        match = r"^the run needs m = \d+ steps, above the budget of 10000000$"
        with no_step, pytest.raises(StabilityViolation, match=match):
            diffuse(f, phi_of(Family.PERONA_MALIK), 1e300)
        assert diffusion.StabilityViolation is StabilityViolation

    def test_gradients_whose_grid_span_overflows_are_rejected(self):
        # 2 max|fd| = 1e308 is finite; the grid on [-1e308, 1e308] spans inf.
        f = Signal1D([0.0, 5e307])
        match = r"^the input's gradients overflow float64; rescale the signal$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                diffuse(f, phi_of(Family.PERONA_MALIK), 1.0)

    def test_gradients_just_inside_the_grid_span_still_run(self):
        f = Signal1D([0.0, 4e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, plan = diffuse(f, phi_of(Family.CONSTANT), 1.0, StepSizeMode.MAXMIN)
        assert plan.steps >= 1
        assert np.all(np.isfinite(out.values))

    def test_single_step_reduction(self):
        f = Signal1D([0.0, 0.0, 1.0, 0.0, 0.0])
        out, plan = diffuse(f, phi_of(Family.CONSTANT), 0.25, StepSizeMode.MAXMIN)
        assert plan.steps == 1
        assert plan.tau == 0.25
        np.testing.assert_array_equal(out.values, [0.0, 0.25, 0.5, 0.25, 0.0])

    def test_plan_schedule_is_exact(self):
        rng = np.random.default_rng(5)
        phi = phi_of(Family.PERONA_MALIK)
        for _ in range(10):
            f = random_signal(rng)
            T = float(rng.uniform(0.1, 5.0))
            mode = StepSizeMode.SIGN_STABLE if rng.random() < 0.5 else StepSizeMode.MAXMIN
            _, plan = diffuse(f, phi, T, mode)
            assert plan.stopping_time == plan.steps * plan.tau
            assert abs(plan.stopping_time - T) <= 4e-16 * max(1.0, T)

    def test_step_never_rounds_above_the_bound(self):
        """T = k tau_max, where T/k can round one ulp above tau_max
        (k = 5 for this input)."""
        f = Signal1D([1.8125, 0.015625])
        phi = phi_of(Family.TRUNCATED_QUADRATIC)
        tau_max = diffuse(f, phi, 0.0, StepSizeMode.MAXMIN)[1].tau
        for k in range(1, 100):
            _, plan = diffuse(f, phi, k * tau_max, StepSizeMode.MAXMIN)
            assert plan.tau <= tau_max

    def test_tiny_time_takes_one_step(self):
        """T/tau_max underflows to 0 here; the plan still takes one step."""
        f = Signal1D([0.0, 1.0, 0.0], h=10.0)
        _, plan = diffuse(f, phi_of(Family.CONSTANT), 5e-324, StepSizeMode.MAXMIN)
        assert plan.steps == 1 and plan.tau == 5e-324

    def test_long_time_converges_to_mean(self):
        f = Signal1D([0.3, -0.7, 1.4, 0.2, 0.9])
        out, _ = diffuse(f, phi_of(Family.CONSTANT), 1e6, StepSizeMode.MAXMIN)
        np.testing.assert_allclose(out.values, np.mean(f.values), rtol=0, atol=1e-6)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            diffuse(Signal1D([0.0, 1.0]), phi_of(Family.CONSTANT), -1.0)


class TestMaximumMinimumPrinciple:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_range_preserved_at_the_bound(self, family):
        """1000 random signals, 100 steps at tau = h^2/(2 g_max)."""
        rng = np.random.default_rng(zlib.crc32(family.value.encode()))
        phi = phi_of(family)
        tau = 0.5  # h = 1, g_max = 1 for every family at unit parameters
        for _ in range(1000):
            u = random_signal(rng)
            lo = float(np.min(u.values)) - 1e-12
            hi = float(np.max(u.values)) + 1e-12
            for _ in range(100):
                u = explicit_step(u, phi, tau)
                assert float(np.min(u.values)) >= lo
                assert float(np.max(u.values)) <= hi

    def test_violation_witness_above_the_bound(self):
        """tau = 0.75 > 1/2 overshoots the range of (0,1,0) within 10 steps."""
        u = Signal1D([0.0, 1.0, 0.0])
        phi = phi_of(Family.CONSTANT)
        escaped = False
        for _ in range(10):
            u = explicit_step(u, phi, 0.75)
            if float(np.min(u.values)) < 0.0 or float(np.max(u.values)) > 1.0:
                escaped = True
                break
        assert escaped


class TestWideGradientRange:
    """ROADMAP item 1: once max|fd| dwarfs phi's features near 0, the
    Lipschitz grid misses phi's slope there and ``diffuse`` plans an
    unstable step.  Strict xfails, so the change that certifies the bound
    has to turn them into passes.  Truncated quadratic is not pinned: the
    paper's proposition leaves its right bound open."""

    @pytest.mark.parametrize("family", [
        pytest.param(Family.PERONA_MALIK, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 1: the grid reads L = 0.135 (true 1); 6 steps overshoot by 3.19"))),
        pytest.param(Family.TRUNCATED_BFB, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 1: the grid reads L = 0.5 (true 1); 20 steps overshoot by 1.54"))),
    ])
    def test_the_planned_step_keeps_the_range(self, family):
        f = Signal1D([0.0, 1e5, 0.0, 0.0, 0.1, 0.0, 0.1, 0.0])
        u = diffuse(f, phi_of(family), 20.0, StepSizeMode.MAXMIN)[0].values
        assert float(np.min(u)) >= -1e-12
        assert float(np.max(u)) <= 1e5 + 1e-12

    L_ZERO = "^closed-form:truncated-quadratic\\(threshold=1\\) reads L = 0 on the input's gradient range$"

    def test_a_grid_that_reads_l_zero_is_a_stability_violation(self):
        # The truncated quadratic is flat past sqrt(2), and the grid's spacing
        # steps over its slope near 0.
        f = Signal1D([0.0, 1e5, 0.0, 0.0, 0.1, 0.0, 0.1, 0.0])
        psi = make_role_function(FamilySpec(Family.TRUNCATED_QUADRATIC), Role.REGULARISER)
        with pytest.raises(StabilityViolation, match=self.L_ZERO):
            diffuse(f, phi_of(Family.TRUNCATED_QUADRATIC), 1.0)
        with pytest.raises(StabilityViolation, match=self.L_ZERO):
            minimize_by_diffusion(f, EnergySpec(psi=psi, alpha=1.0), 4)

    @pytest.mark.parametrize("plan", (["diffusion", "--time", "1"], ["variational", "--steps", "4"]))
    def test_the_cli_exits_3_naming_the_family_and_writes_nothing(self, tmp_path, capsys, plan):
        sig, out = tmp_path / "f.csv", tmp_path / "o.csv"
        sig.write_text("0\n1e5\n0\n0\n0.1\n0\n0.1\n0\n")
        args = ["denoise", "--method", *plan, "--family", "truncated-quadratic",
                "--input", str(sig), "--out", str(out)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("stability violation: closed-form:truncated-quadratic(threshold=1) reads L = 0")
        assert not out.exists()
        assert not (tmp_path / "o.csv.report").exists()


class TestSharedLoop:
    """diffuse and ``denoise --method diffusion --steps m`` run the loop of
    the explicit scheme: bit-identical to m calls of explicit_step, sum
    conserving and range preserving at the max-min bound."""

    signals = st.builds(
        Signal1D,
        st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=64),
        st.sampled_from((1.0, 0.5)),
    )

    @staticmethod
    def check_against_explicit_steps(f, phi, tau, m, out):
        x = f.values
        slack = 1e-12 * max(1.0, float(np.max(np.abs(x))))
        drift = 1e-10 * max(1.0, float(np.sum(np.abs(x))))
        u = f
        for _ in range(m):
            u = explicit_step(u, phi, tau)
            assert abs(float(np.sum(u.values)) - float(np.sum(x))) <= drift
            assert float(np.min(u.values)) >= float(np.min(x)) - slack
            assert float(np.max(u.values)) <= float(np.max(x)) + slack
        np.testing.assert_array_equal(out, u.values)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @settings(max_examples=30, deadline=None)
    @given(f=signals, m=st.integers(1, 12))
    def test_diffuse(self, family, f, m):
        phi = phi_of(family)
        tau_max = diffuse(f, phi, 0.0, StepSizeMode.MAXMIN)[1].tau
        out, plan = diffuse(f, phi, m * tau_max, StepSizeMode.MAXMIN)
        assert plan.tau <= tau_max
        self.check_against_explicit_steps(f, phi, plan.tau, plan.steps, out.values)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @settings(max_examples=15, deadline=None)
    @given(f=signals, m=st.integers(1, 12))
    def test_denoise_steps(self, family, f, m):
        phi = phi_of(family)
        tau = diffuse(f, phi, 0.0, StepSizeMode.MAXMIN)[1].tau
        with tempfile.TemporaryDirectory() as tmp:
            sig, out = os.path.join(tmp, "f.csv"), os.path.join(tmp, "o.csv")
            write_signal_csv(sig, f)
            code = main(["denoise", "--method", "diffusion", "--input", sig, "--out", out,
                         "--family", family.value, "--steps", str(m), "--tau", repr(tau),
                         "--mode", "maxmin"])
            assert code == 0
            result = read_signal_csv(out).values
        self.check_against_explicit_steps(f, phi, tau, m, result)
