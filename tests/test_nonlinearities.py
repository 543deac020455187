import math

import numpy as np
import pytest

from denoise1d import (
    CouplingParams,
    Family,
    FamilySpec,
    Role,
    estimate_lipschitz,
    eval_family,
    make_role_function,
    translate,
    user_role_function,
)

SQRT2 = math.sqrt(2.0)

ALL_ROLES = (Role.DIFFUSIVITY, Role.REGULARISER, Role.SHRINKAGE, Role.ACTIVATION)
ALL_FAMILIES = tuple(Family)
COUPLING = CouplingParams(tau=0.25, alpha=0.25, h=1.0)

MONOTONE = (Family.CONSTANT, Family.CHARBONNIER, Family.TRUNCATED_TV)
NONMONOTONE = (Family.PERONA_MALIK, Family.TRUNCATED_BFB, Family.TRUNCATED_QUADRATIC)


def spec_of(family):
    return FamilySpec(family, contrast=1.0, threshold=1.0)


class TestFamilyFormulas:
    def test_identity_activation(self):
        assert eval_family(spec_of(Family.CONSTANT), Role.ACTIVATION, 2.0) == 2.0

    def test_perona_malik_diffusivity_at_zero(self):
        assert eval_family(spec_of(Family.PERONA_MALIK), Role.DIFFUSIVITY, 0.0) == 1.0

    def test_truncated_tv_activation_saturates(self):
        got = eval_family(spec_of(Family.TRUNCATED_TV), Role.ACTIVATION, 3.0)
        assert abs(got - SQRT2) < 1e-15

    def test_charbonnier_shrinkage(self):
        got = eval_family(spec_of(Family.CHARBONNIER), Role.SHRINKAGE, 1.0)
        assert abs(got - (1.0 - 1.0 / math.sqrt(3.0))) < 1e-15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FamilySpec(Family.PERONA_MALIK, contrast=0.0)
        with pytest.raises(ValueError):
            FamilySpec(Family.TRUNCATED_TV, threshold=-1.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_diffusivity_symmetric_nonnegative_bounded_by_one(self, family):
        g = make_role_function(spec_of(family), Role.DIFFUSIVITY)
        r = np.linspace(-10, 10, 1001)
        vals = g(r)
        np.testing.assert_allclose(vals, g(-r), atol=0)
        assert np.all(vals >= 0.0)
        assert float(np.max(vals)) == 1.0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_activation_antisymmetric(self, family):
        phi = make_role_function(spec_of(family), Role.ACTIVATION)
        r = np.linspace(-10, 10, 1001)
        np.testing.assert_allclose(phi(-r), -phi(r), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_shrinkage_design_principle(self, family):
        """0 <= S(r) <= r for positive arguments."""
        s = make_role_function(spec_of(family), Role.SHRINKAGE)
        r = np.linspace(1e-6, 10, 997)
        vals = s(r)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= r)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_regulariser_vanishes_at_zero(self, family):
        psi = make_role_function(spec_of(family), Role.REGULARISER)
        assert abs(psi(0.0)) < 1e-15


class TestDictionary:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("src", ALL_ROLES)
    @pytest.mark.parametrize("dst", ALL_ROLES)
    def test_consistency_with_closed_forms(self, family, src, dst):
        """Every translation cell reproduces the family's closed form.

        Algebraic cells (including derivative cells, which carry analytic
        derivatives for closed-form regularisers) must agree to 1e-12;
        cells evaluated by quadrature to 1e-6.
        """
        if src is dst:
            return
        spec = spec_of(family)
        f = make_role_function(spec, src)
        translated = translate(f, dst, COUPLING)
        r = np.linspace(-10, 10, 100)
        tol = 1e-6 if dst is Role.REGULARISER else 1e-12
        np.testing.assert_allclose(
            translated(r), make_role_function(spec, dst)(r), rtol=0, atol=tol
        )

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("dst", (Role.DIFFUSIVITY, Role.SHRINKAGE, Role.ACTIVATION))
    def test_numeric_derivative_path(self, family, dst):
        """Stripping the analytic derivative falls back to the central
        difference and still matches the closed forms to 1e-6."""
        spec = spec_of(family)
        psi = make_role_function(spec, Role.REGULARISER)
        raw = user_role_function(Role.REGULARISER, psi.evaluator)
        translated = translate(raw, dst, COUPLING)
        r = np.linspace(-10, 10, 100)
        np.testing.assert_allclose(
            translated(r), make_role_function(spec, dst)(r), rtol=0, atol=1e-6
        )

    def test_identity_translation_returns_source(self):
        g = make_role_function(spec_of(Family.CHARBONNIER), Role.DIFFUSIVITY)
        assert translate(g, Role.DIFFUSIVITY) is g

    def test_zero_shrinkage_gives_constant_diffusivity(self):
        s0 = user_role_function(Role.SHRINKAGE, lambda r: np.zeros_like(r))
        g = translate(s0, Role.DIFFUSIVITY, CouplingParams(tau=0.25, alpha=0.25))
        r = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(g(r), 1.0, atol=0)

    def test_perona_malik_flux(self):
        g = make_role_function(spec_of(Family.PERONA_MALIK), Role.DIFFUSIVITY)
        phi = translate(g, Role.ACTIVATION)
        for r in (0.3, 1.0, -2.5):
            assert abs(phi(r) - r * math.exp(-r * r / 2.0)) < 1e-15

    def test_truncated_tv_diffusivity_to_soft_shrinkage(self):
        g = make_role_function(spec_of(Family.TRUNCATED_TV), Role.DIFFUSIVITY)
        s = translate(g, Role.SHRINKAGE, COUPLING)
        r = np.linspace(-6, 6, 201)
        soft = np.where(np.abs(r) <= 1.0, 0.0, r - np.sign(r))
        np.testing.assert_allclose(s(r), soft, rtol=0, atol=1e-12)

    def test_round_trip_activation_regulariser_activation(self):
        """psi = 2 * integral of phi, then phi = psi'/2, recovers phi."""
        phi = make_role_function(spec_of(Family.PERONA_MALIK), Role.ACTIVATION)
        back = translate(translate(phi, Role.REGULARISER), Role.ACTIVATION)
        r = np.linspace(-8, 8, 41)
        np.testing.assert_allclose(back(r), phi(r), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("src", ALL_ROLES)
    def test_translated_activations_antisymmetric(self, family, src):
        if src is Role.ACTIVATION:
            return
        phi = translate(make_role_function(spec_of(family), src), Role.ACTIVATION, COUPLING)
        r = np.linspace(-10, 10, 101)
        np.testing.assert_allclose(phi(-r), -phi(r), rtol=0, atol=1e-12)

    def test_missing_coupling_is_an_error(self):
        g = make_role_function(spec_of(Family.CONSTANT), Role.DIFFUSIVITY)
        with pytest.raises(ValueError):
            translate(g, Role.SHRINKAGE)

    def test_mixed_constants_rejected(self):
        """A chain consuming tau and then a different alpha must fail."""
        g = make_role_function(spec_of(Family.CHARBONNIER), Role.DIFFUSIVITY)
        s = translate(g, Role.SHRINKAGE, CouplingParams(tau=0.25, alpha=0.25))
        with pytest.raises(ValueError):
            translate(s, Role.REGULARISER, CouplingParams(tau=0.5, alpha=0.5))
        # equal constants stay legal
        translate(s, Role.REGULARISER, CouplingParams(tau=0.25, alpha=0.25))

    def test_ratio_cells_finite_at_zero(self):
        phi = make_role_function(spec_of(Family.CHARBONNIER), Role.ACTIVATION)
        g = translate(phi, Role.DIFFUSIVITY)
        for r in (0.0, 1e-10, -1e-9):
            assert abs(g(r) - 1.0) < 1e-9


class TestMonotoneSplit:
    @pytest.mark.parametrize("family", MONOTONE)
    def test_monotone_activations(self, family):
        phi = make_role_function(spec_of(family), Role.ACTIVATION)
        vals = phi(np.linspace(-10, 10, 4001))
        assert np.all(np.diff(vals) >= -1e-12)

    @pytest.mark.parametrize("family", NONMONOTONE)
    def test_nonmonotone_activations(self, family):
        """Somewhere the activation strictly decreases."""
        phi = make_role_function(spec_of(family), Role.ACTIVATION)
        vals = phi(np.linspace(-10, 10, 4001))
        assert np.min(np.diff(vals)) < -1e-9


class TestLipschitz:
    def test_identity(self):
        phi = make_role_function(spec_of(Family.CONSTANT), Role.ACTIVATION)
        assert estimate_lipschitz(phi, 5.0, 10_001) == 1.0

    def test_perona_malik(self):
        """sup |phi'| = phi'(0) = 1; dense quotients come within 1e-4."""
        phi = make_role_function(spec_of(Family.PERONA_MALIK), Role.ACTIVATION)
        assert abs(estimate_lipschitz(phi, 10.0, 1_000_001) - 1.0) < 1e-4

    def test_truncated_tv(self):
        phi = make_role_function(spec_of(Family.TRUNCATED_TV), Role.ACTIVATION)
        assert estimate_lipschitz(phi, 10.0, 100_001) == 1.0

    @pytest.mark.parametrize("r_max", (5e-324, 1e-320, 1e-318))
    def test_subnormal_range(self, r_max):
        """Samples that round together are merged, not divided by zero."""
        phi = make_role_function(spec_of(Family.TRUNCATED_QUADRATIC), Role.ACTIVATION)
        assert estimate_lipschitz(phi, r_max, 200_001) == 1.0

    def test_role_and_argument_validation(self):
        g = make_role_function(spec_of(Family.CONSTANT), Role.DIFFUSIVITY)
        with pytest.raises(ValueError):
            estimate_lipschitz(g, 1.0, 100)
        phi = make_role_function(spec_of(Family.CONSTANT), Role.ACTIVATION)
        with pytest.raises(ValueError):
            estimate_lipschitz(phi, 0.0, 100)
        with pytest.raises(ValueError):
            estimate_lipschitz(phi, 1.0, 1)
