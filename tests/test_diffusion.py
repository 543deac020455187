import math
import os
import tempfile
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
    StepSizeMode,
    diffuse,
    explicit_step,
    make_role_function,
    max_stable_tau,
)
from denoise1d.cli import main, read_signal_csv, write_signal_csv

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


class TestDiffuse:
    def test_zero_time_is_identity(self):
        f = Signal1D([1.0, 2.0, 0.5])
        out, plan = diffuse(f, phi_of(Family.CONSTANT), 0.0)
        np.testing.assert_array_equal(out.values, f.values)
        assert plan.steps == 0
        assert plan.stopping_time == 0.0

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
