import math
import zlib

import numpy as np
import pytest

from denoise1d import (
    Family,
    FamilySpec,
    ResidualBlock,
    Role,
    Signal1D,
    apply_block,
    chain,
    count_sign_changes,
    eval_family,
    explicit_step,
    make_diffusion_block,
    make_role_function,
    relu,
    truncated_tv_via_relu,
)

SQRT2 = math.sqrt(2.0)
ALL_FAMILIES = tuple(Family)


def phi_of(family):
    return make_role_function(FamilySpec(family), Role.ACTIVATION)


def _zero(r):
    return np.zeros_like(r)


def _ident(r):
    return r


class TestApplyBlock:
    def test_zero_inner_nonlinearity_is_identity(self):
        block = ResidualBlock(w1=[0.0, 1.0, 0.0], sigma1=_zero, w2=[0.0, 1.0, 0.0])
        f = Signal1D([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(apply_block(block, f).values, f.values)

    def test_zero_outer_stencil_is_identity(self):
        block = ResidualBlock(w1=[0.0, 1.0, 0.0], sigma1=_ident, w2=[0.0, 0.0, 0.0])
        f = Signal1D([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(apply_block(block, f).values, f.values)

    def test_diffusion_wiring_on_the_spike(self):
        block = make_diffusion_block(phi_of(Family.CONSTANT), 0.25, 1.0)
        f = Signal1D([0.0, 0.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            apply_block(block, f).values, [0.0, 0.25, 0.5, 0.25, 0.0]
        )

    def test_bias_length_mismatch(self):
        block = ResidualBlock(
            w1=[0.0, 1.0, 0.0], sigma1=_ident, w2=[0.0, 1.0, 0.0], b1=np.ones(4)
        )
        with pytest.raises(ValueError):
            apply_block(block, Signal1D([0.0, 1.0]))

    def test_biases_are_applied(self):
        # u = f + W2(W1 f + b1) + b2 with identity stencils and sigmas
        block = ResidualBlock(
            w1=[0.0, 1.0, 0.0],
            sigma1=_ident,
            w2=[0.0, 1.0, 0.0],
            b1=np.array([1.0, 1.0]),
            b2=np.array([10.0, 20.0]),
        )
        out = apply_block(block, Signal1D([0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [11.0, 25.0])

    def test_even_stencil_rejected(self):
        with pytest.raises(ValueError):
            ResidualBlock(w1=[1.0, 1.0], sigma1=_ident, w2=[0.0, 1.0, 0.0])


class TestDiffusionBlockEquivalence:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_block_equals_explicit_step(self, family):
        """1000 random signals per family, agreement to 1e-14."""
        phi = phi_of(family)
        block = make_diffusion_block(phi, 0.25, 1.0)
        rng = np.random.default_rng(zlib.crc32(family.value.encode()))
        for _ in range(1000):
            f = Signal1D(rng.uniform(0, 1, int(rng.integers(1, 65))))
            a = apply_block(block, f).values
            b = explicit_step(f, phi, 0.25).values
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_non_unit_grid_and_step(self):
        phi = phi_of(Family.PERONA_MALIK)
        rng = np.random.default_rng(31)
        for tau, h in ((0.1, 1.0), (0.02, 0.5), (0.3, 2.0)):
            block = make_diffusion_block(phi, tau, h)
            f = Signal1D(rng.uniform(0, 1, 33), h=h)
            a = apply_block(block, f).values
            b = explicit_step(f, phi, tau).values
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_identity_flux_computes_the_laplacian_update(self):
        block = make_diffusion_block(phi_of(Family.CONSTANT), 0.2, 1.0)
        rng = np.random.default_rng(32)
        x = rng.uniform(0, 1, 12)
        lap = np.empty_like(x)
        lap[1:-1] = x[2:] - 2 * x[1:-1] + x[:-2]
        lap[0] = x[1] - x[0]
        lap[-1] = x[-2] - x[-1]
        out = apply_block(block, Signal1D(x)).values
        np.testing.assert_allclose(out, x + 0.2 * lap, rtol=0, atol=1e-15)

    def test_zero_step_is_identity(self):
        block = make_diffusion_block(phi_of(Family.PERONA_MALIK), 0.0, 1.0)
        f = Signal1D([0.3, 0.9, 0.1])
        np.testing.assert_array_equal(apply_block(block, f).values, f.values)

    def test_rejects_non_activation(self):
        g = make_role_function(FamilySpec(Family.CONSTANT), Role.DIFFUSIVITY)
        with pytest.raises(ValueError):
            make_diffusion_block(g, 0.25, 1.0)


class TestChain:
    def test_empty_chain_is_identity(self):
        f = Signal1D([1.0, 2.0])
        assert chain([], f) is f

    def test_chain_matches_iterated_steps(self):
        phi = phi_of(Family.PERONA_MALIK)
        block = make_diffusion_block(phi, 0.25, 1.0)
        rng = np.random.default_rng(33)
        f = Signal1D(rng.uniform(0, 1, 21))
        out = chain([block] * 50, f).values
        ref = f
        for _ in range(50):
            ref = explicit_step(ref, phi, 0.25)
        np.testing.assert_allclose(out, ref.values, rtol=0, atol=1e-14)

    def test_composition_is_associative(self):
        phi = phi_of(Family.CHARBONNIER)
        b1 = make_diffusion_block(phi, 0.25, 1.0)
        b2 = make_diffusion_block(phi, 0.1, 1.0)
        f = Signal1D(np.linspace(0, 1, 9))
        np.testing.assert_array_equal(
            chain([b1, b2], f).values, chain([b2], chain([b1], f)).values
        )

    def test_deep_sign_stable_chain_preserves_range(self):
        """500 blocks at the sign-stable step keep the output in range."""
        phi = phi_of(Family.PERONA_MALIK)
        block = make_diffusion_block(phi, 0.25, 1.0)
        rng = np.random.default_rng(34)
        f = Signal1D(rng.uniform(0, 1, 25))
        out = chain([block] * 500, f)
        assert float(np.min(out.values)) >= float(np.min(f.values)) - 1e-12
        assert float(np.max(out.values)) <= float(np.max(f.values)) + 1e-12

    def test_sign_changes_nonincreasing_along_a_chain(self):
        phi = phi_of(Family.TRUNCATED_TV)
        block = make_diffusion_block(phi, 0.25, 1.0)
        rng = np.random.default_rng(35)
        f = Signal1D(rng.uniform(-1, 1, 30))
        prev = count_sign_changes(f)
        out = f
        for _ in range(100):
            out = apply_block(block, out)
            cur = count_sign_changes(out)
            assert cur <= prev
            prev = cur


class TestRelu:
    def test_values(self):
        assert relu(-1.0) == 0.0
        assert relu(0.0) == 0.0
        assert relu(2.5) == 2.5

    def test_truncated_tv_identity_hand_cases(self):
        assert truncated_tv_via_relu(1.0, 0.5) == 0.5
        assert abs(truncated_tv_via_relu(1.0, 3.0) - SQRT2) < 1e-15
        assert abs(truncated_tv_via_relu(1.0, -3.0) + SQRT2) < 1e-15

    def test_truncated_tv_identity_dense(self):
        spec = FamilySpec(Family.TRUNCATED_TV, threshold=0.8)
        r = np.linspace(-6, 6, 100_001)
        want = eval_family(spec, Role.ACTIVATION, r)
        got = truncated_tv_via_relu(0.8, r)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            truncated_tv_via_relu(0.0, 1.0)
