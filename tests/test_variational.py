import re
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
    discrete_energy,
    energy_gradient,
    euler_lagrange_residual,
    make_role_function,
    minimize_by_diffusion,
    tikhonov_solve_oracle,
)
from denoise1d import diffusion

ALL_FAMILIES = tuple(Family)

CONVEX = (Family.CONSTANT, Family.CHARBONNIER, Family.TRUNCATED_TV)


def psi_of(family, **kw):
    return make_role_function(FamilySpec(family, **kw), Role.REGULARISER)


def tikhonov(alpha):
    return EnergySpec(psi=psi_of(Family.CONSTANT), alpha=alpha)


class TestEnergySpec:
    def test_requires_regulariser_role(self):
        phi = make_role_function(FamilySpec(Family.CONSTANT), Role.ACTIVATION)
        with pytest.raises(ValueError):
            EnergySpec(psi=phi, alpha=1.0)

    def test_requires_positive_alpha(self):
        with pytest.raises(ValueError):
            EnergySpec(psi=psi_of(Family.CONSTANT), alpha=0.0)


class TestDiscreteEnergy:
    def test_zero_at_matching_constants(self):
        u = Signal1D(np.full(5, 2.0))
        assert discrete_energy(u, u, tikhonov(0.25)) == 0.0

    def test_regulariser_term_only(self):
        u = Signal1D([0.0, 1.0])
        assert discrete_energy(u, u, tikhonov(0.25)) == 0.25

    def test_data_term_only(self):
        u = Signal1D([0.0, 0.0])
        f = Signal1D([0.0, 1.0])
        assert discrete_energy(u, f, tikhonov(0.25)) == 1.0

    def test_mismatch_errors(self):
        spec = tikhonov(1.0)
        with pytest.raises(ValueError):
            discrete_energy(Signal1D([0.0]), Signal1D([0.0, 1.0]), spec)
        with pytest.raises(ValueError):
            discrete_energy(Signal1D([0.0, 1.0], h=2.0), Signal1D([0.0, 1.0]), spec)


class TestEulerLagrangeResidual:
    def test_zero_for_matching_constants(self):
        u = Signal1D(np.full(6, 1.5))
        r = euler_lagrange_residual(u, u, tikhonov(0.5))
        np.testing.assert_array_equal(r.values, np.zeros(6))

    def test_vanishes_at_the_oracle_solution(self):
        rng = np.random.default_rng(17)
        f = Signal1D(rng.uniform(0, 1, 24))
        u = tikhonov_solve_oracle(f, 0.8)
        r = euler_lagrange_residual(u, f, tikhonov(0.8))
        assert float(np.max(np.abs(r.values))) <= 1e-8

    def test_at_the_input_it_is_the_pure_divergence_term(self):
        rng = np.random.default_rng(18)
        f = Signal1D(rng.uniform(0, 1, 10))
        r = euler_lagrange_residual(f, f, tikhonov(0.25))
        assert float(np.max(np.abs(r.values))) > 1e-3  # nonzero for nonconstant f


class TestWindowedDivergence:
    # Up to 64 samples is one window at the real _CHUNK: the whole-array
    # path.  Patched to a few samples, every window edge and the carried
    # wall value show up; bit patterns are compared, so signed zeros count.
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from((1, 2, 3, 5)),
        st.sampled_from(ALL_FAMILIES),
        st.sampled_from((1.0, 0.5)),
        st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)), min_size=1, max_size=64),
    )
    def test_bit_identical_to_the_whole_array_path(self, chunk, family, h, pairs):
        u, f = (Signal1D([p[i] for p in pairs], h) for i in (0, 1))
        spec = EnergySpec(psi=psi_of(family), alpha=0.7)
        whole = (euler_lagrange_residual(u, f, spec).values, energy_gradient(u, f, spec))
        with mock.patch.object(diffusion, "_CHUNK", chunk):
            windowed = (euler_lagrange_residual(u, f, spec).values, energy_gradient(u, f, spec))
        for a, b in zip(windowed, whole):
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestTikhonovOracle:
    def test_hand_case(self):
        u = tikhonov_solve_oracle(Signal1D([0.0, 1.0]), 0.25)
        np.testing.assert_allclose(u.values, [1.0 / 6.0, 5.0 / 6.0], rtol=0, atol=1e-12)

    def test_small_alpha_returns_the_input(self):
        rng = np.random.default_rng(19)
        f = Signal1D(rng.uniform(0, 1, 16))
        u = tikhonov_solve_oracle(f, 1e-8)
        np.testing.assert_allclose(u.values, f.values, rtol=0, atol=1e-6)

    def test_large_alpha_returns_the_mean(self):
        rng = np.random.default_rng(20)
        f = Signal1D(rng.uniform(0, 1, 16))
        u = tikhonov_solve_oracle(f, 1e6)
        np.testing.assert_allclose(u.values, np.mean(f.values), rtol=0, atol=1e-3)

    def test_oracle_residual(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            f = Signal1D(rng.uniform(0, 1, int(rng.integers(1, 40))))
            alpha = float(rng.uniform(0.05, 2.0))
            u = tikhonov_solve_oracle(f, alpha)
            r = euler_lagrange_residual(u, f, tikhonov(alpha))
            assert float(np.max(np.abs(r.values))) <= 1e-10


class TestOracleSolvesItsSystem:
    """The oracle against (I + cL) u = f itself, c = alpha/h^2, with the
    reflecting Laplacian built as D^T D from the (N-1) x N forward
    difference D: no step code."""

    @staticmethod
    def system(n, c):
        d = (np.eye(n, k=1) - np.eye(n))[:-1]
        return np.eye(n) + c * (d.T @ d)

    @pytest.mark.parametrize("n", (1, 2, 3, 17, 64, 257))
    @pytest.mark.parametrize("h", (1.0, 0.5, 0.3))
    @pytest.mark.parametrize("alpha", (1e-8, 1e-2, 1.0, 1e2, 1e6))
    def test_residual_and_dense_solve(self, alpha, h, n):
        f = np.random.default_rng(n).uniform(0, 1, n)
        c = alpha / (h * h)
        a = self.system(n, c)
        u = tikhonov_solve_oracle(Signal1D(f, h), alpha).values
        assert float(np.max(np.abs(a @ u - f))) / (1.0 + 4.0 * c) <= 1e-14
        if alpha <= 1.0:
            np.testing.assert_allclose(u, np.linalg.solve(a, f), rtol=0, atol=1e-14)


class TestMinimizeByDiffusion:
    def test_single_homogeneous_step(self):
        f = Signal1D([0.0, 0.0, 1.0, 0.0, 0.0])
        out = minimize_by_diffusion(f, tikhonov(0.25), 1)
        np.testing.assert_allclose(out.values, [0.0, 0.25, 0.5, 0.25, 0.0], atol=1e-15)

    def test_constant_input_is_fixed(self):
        f = Signal1D(np.full(7, 0.3))
        for family in ALL_FAMILIES:
            spec = EnergySpec(psi=psi_of(family), alpha=1.0)
            out = minimize_by_diffusion(f, spec, 4)
            np.testing.assert_array_equal(out.values, f.values)

    def test_step_size_guard_reports_minimal_m(self):
        f = Signal1D([0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="m >= 4"):
            minimize_by_diffusion(f, tikhonov(2.0), 1)

    def test_the_advised_step_count_runs_and_one_fewer_does_not(self):
        # alpha/37 rounds one ulp above the bound, so the advice is m >= 38.
        f = Signal1D(np.linspace(0.0, 1.0, 16) ** 2, h=0.1)
        spec = tikhonov(0.18500000000000005)
        with pytest.raises(ValueError, match=r"use m >= \d+$") as info:
            minimize_by_diffusion(f, spec, 1)
        m = int(re.search(r"use m >= (\d+)$", str(info.value)).group(1))
        minimize_by_diffusion(f, spec, m)
        with pytest.raises(ValueError, match="exceeds the stability bound"):
            minimize_by_diffusion(f, spec, m - 1)

    @pytest.mark.parametrize("h", (1e-200, 1e-160))
    def test_a_bound_that_underflows_is_a_value_error(self, h):
        f = Signal1D(np.linspace(0.0, 1.0, 16) ** 2, h=h)
        with pytest.raises(ValueError, match="needs a step count that overflows float64"):
            minimize_by_diffusion(f, tikhonov(0.18500000000000005), 1)

    def test_more_steps_get_closer_to_the_oracle(self):
        rng = np.random.default_rng(23)
        f = Signal1D(rng.uniform(0, 1, 20))
        oracle = tikhonov_solve_oracle(f, 1.0).values
        spec = tikhonov(1.0)
        e4 = np.max(np.abs(minimize_by_diffusion(f, spec, 4).values - oracle))
        e40 = np.max(np.abs(minimize_by_diffusion(f, spec, 40).values - oracle))
        assert e40 < e4

    def test_error_decreases_monotonically_per_doubling(self):
        rng = np.random.default_rng(24)
        f = Signal1D(rng.uniform(0, 1, 32))
        oracle = tikhonov_solve_oracle(f, 0.25).values
        spec = tikhonov(0.25)
        errs = [
            float(np.max(np.abs(minimize_by_diffusion(f, spec, m).values - oracle)))
            for m in (4, 8, 16, 32, 64, 128, 256)
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestGradient:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_finite_differences(self, family):
        """Analytic energy gradient vs central differences, 1e-5 relative."""
        spec = EnergySpec(psi=psi_of(family, contrast=0.5, threshold=0.3), alpha=0.7)
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            h = float(rng.choice([0.5, 1.0, 2.0]))
            u = Signal1D(rng.uniform(0, 1, n), h=h)
            f = Signal1D(rng.uniform(0, 1, n), h=h)
            grad = energy_gradient(u, f, spec)
            fd = np.empty(n)
            d = 1e-6
            for i in range(n):
                up = u.values.copy()
                um = u.values.copy()
                up[i] += d
                um[i] -= d
                fd[i] = (
                    discrete_energy(Signal1D(up, h=h), f, spec)
                    - discrete_energy(Signal1D(um, h=h), f, spec)
                ) / (2.0 * d)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


class TestDescent:
    @pytest.mark.parametrize("family", CONVEX)
    def test_regulariser_energy_nonincreasing(self, family):
        """For convex regularisers the flow never increases the
        regulariser-only energy at an admissible step size."""
        psi = psi_of(family)
        rng = np.random.default_rng(26)
        for _ in range(100):
            n = int(rng.integers(2, 24))
            f = Signal1D(rng.uniform(0, 1, n))
            spec = EnergySpec(psi=psi, alpha=0.25)
            reg_only = lambda u: discrete_energy(u, u, spec)  # data term vanishes
            prev = reg_only(f)
            u = minimize_by_diffusion(f, spec, 1)
            cur = reg_only(u)
            assert cur <= prev + 1e-12 * max(1.0, abs(prev))

    @pytest.mark.parametrize("family", CONVEX)
    def test_full_energy_improves_on_the_input(self, family):
        psi = psi_of(family)
        rng = np.random.default_rng(27)
        for _ in range(50):
            f = Signal1D(rng.uniform(0, 1, int(rng.integers(2, 24))))
            spec = EnergySpec(psi=psi, alpha=0.25)
            out = minimize_by_diffusion(f, spec, 4)
            assert discrete_energy(out, f, spec) <= discrete_energy(f, f, spec) + 1e-12
