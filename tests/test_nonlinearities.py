import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from denoise1d.nonlinearities import central_derivative

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


# |r| <= 60 on a dense grid, both signed zeros and subnormals of both signs.
_SUBNORMALS = np.geomspace(5e-324, 2.2250738585072009e-308, 2000)
GRID = np.concatenate([np.linspace(-60.0, 60.0, 1_400_001), [0.0, -0.0], _SUBNORMALS, -_SUBNORMALS])


def _analytic_dpsi(spec):
    # The hand-written psi' each family carried before it was taken as
    # 2 phi; kept verbatim as the reference.
    th, lam2 = spec.threshold, spec.contrast * spec.contrast
    s2t, th2 = SQRT2 * th, th * th
    return {
        Family.CONSTANT: lambda r: 2.0 * r,
        Family.CHARBONNIER: lambda r: 2.0 * r / np.sqrt(1.0 + r * r / lam2),
        Family.TRUNCATED_TV: lambda r: np.where(np.abs(r) <= s2t, 2.0 * r, 2.0 * s2t * np.sign(r)),
        Family.PERONA_MALIK: lambda r: 2.0 * r * np.exp(-r * r / (2.0 * lam2)),
        Family.TRUNCATED_BFB: lambda r: np.where(
            np.abs(r) <= s2t, 2.0 * r, 4.0 * th2 / np.where(np.abs(r) > s2t, r, 1.0)
        ),
        Family.TRUNCATED_QUADRATIC: lambda r: np.where(np.abs(r) <= s2t, 2.0 * r, 0.0),
    }[spec.family]


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestDictionaryRules:
    """psi' = 2 phi, the coupling rule and the breakpoint scaling."""

    # SHA-256 over every cell not fed by psi' (regulariser cells on every
    # 1000th grid point), per family at tau = alpha = 0.25, taken from
    # the translations as they were before these rules were stated once.
    PINNED = {
        Family.CONSTANT: "cc4a3c49a008d6cf228eebfb054c176a7057b265297617160563e66da4a141cc",
        Family.CHARBONNIER: "4d801f75b5098002d5e27786d00a523e749897c71af9195773dfac3cbd88cd39",
        Family.TRUNCATED_TV: "83e75d8cd4e6e1377f210a9d03daa23c46a737b5b594b0011813bbb1a120b2da",
        Family.PERONA_MALIK: "02a683eb4323dbaa64d62089283b3f76cddc9202c9f07b1f21eee5ef235bb24e",
        Family.TRUNCATED_BFB: "96ab1f49c17aa26b8353729615baf78c5097e769443ef18229e4269a5e48b827",
        Family.TRUNCATED_QUADRATIC: "541593545b59b77d2f5e4ce8c21450ca2aa380ea6751a0b3bee7eea97965bca2",
    }

    @staticmethod
    def cells_digest(family):
        h = hashlib.sha256()
        spec = spec_of(family)
        for src in (Role.DIFFUSIVITY, Role.SHRINKAGE, Role.ACTIVATION):
            f = make_role_function(spec, src)
            for dst in ALL_ROLES:
                if dst is not src:
                    r = GRID[::1000] if dst is Role.REGULARISER else GRID
                    with np.errstate(all="ignore"):
                        h.update(_bits(translate(f, dst, COUPLING).evaluator(r)).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_cells_without_psi_prime_are_unchanged(self, family):
        assert self.cells_digest(family) == self.PINNED[family]

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_psi_prime_cells_match_the_analytic_derivative(self, family):
        """2 phi and the analytic psi' give the same bits, except signed
        zeros (constant: 2 (r + 0) is +0 at r = -0) and results below
        2^-1021 in magnitude (Perona-Malik near |r| = 38, where the
        products round differently in the subnormal range)."""
        spec = spec_of(family)
        psi = make_role_function(spec, Role.REGULARISER)
        ref = dataclasses.replace(psi, derivative=_analytic_dpsi(spec))
        pairs = [(psi.derivative(GRID), ref.derivative(GRID))]
        for dst in (Role.DIFFUSIVITY, Role.SHRINKAGE, Role.ACTIVATION):
            with np.errstate(all="ignore"):
                pairs.append((translate(psi, dst, COUPLING).evaluator(GRID),
                              translate(ref, dst, COUPLING).evaluator(GRID)))
        for got, want in pairs:
            differ = _bits(got) != _bits(want)
            got, want = got[differ], want[differ]
            if family is Family.CONSTANT:
                assert np.all((got == 0.0) & (want == 0.0))
            elif family is Family.PERONA_MALIK:
                assert np.all(np.maximum(np.abs(got), np.abs(want)) < 2.0**-1021)
            else:
                assert got.size == 0

    @pytest.mark.parametrize("src", ALL_ROLES)
    @pytest.mark.parametrize("dst", ALL_ROLES)
    def test_coupling_and_breakpoint_rules(self, src, dst):
        f = make_role_function(spec_of(Family.TRUNCATED_TV), src)
        out = translate(f, dst, CouplingParams(tau=0.25, alpha=0.5))
        ends = {src, dst}
        if src is dst or Role.SHRINKAGE not in ends:
            assert out.constants == ()
            assert out.breakpoints == f.breakpoints
            assert translate(f, dst, CouplingParams(h=0.5)).constants == ()  # no constant read, no grid
            return
        name = "alpha" if Role.REGULARISER in ends else "tau"
        assert out.constants == ((name, 0.5 if name == "alpha" else 0.25),)
        scale = (lambda b: b / SQRT2) if dst is Role.SHRINKAGE else (lambda b: b * SQRT2)
        assert out.breakpoints == tuple(map(scale, f.breakpoints))
        with pytest.raises(ValueError, match=f"^translation requires coupling.{name}$"):
            translate(f, dst)
        # The six shrinkage cells are derived for the Haar pairing at h = 1.
        with pytest.raises(ValueError, match=r"^a translation into or out of shrinkage requires h = 1, got h = 0\.5$"):
            translate(f, dst, CouplingParams(tau=0.25, alpha=0.5, h=0.5))


# The formulas as they were before they took their cheapest exact form,
# verbatim.


def _old_truncated_tv_phi(spec):
    s2t = SQRT2 * spec.threshold

    def phi(r):
        return np.where(np.abs(r) <= s2t, r, s2t * np.sign(r))

    return phi


def _old_perona_malik(spec):
    lam2 = spec.contrast * spec.contrast

    def g(r):
        return np.exp(-r * r / (2.0 * lam2))

    def psi(r):
        return 2.0 * lam2 * (1.0 - np.exp(-r * r / (2.0 * lam2)))

    def shrink(r):
        return r * (1.0 - np.exp(-r * r / lam2))

    def phi(r):
        return r * np.exp(-r * r / (2.0 * lam2))

    return g, psi, shrink, phi


def _old_regulariser_to_activation(psi):
    e = psi.evaluator
    dpsi = psi.derivative or (lambda r: central_derivative(e, r))
    return lambda r: dpsi(r) / 2.0


def _rewritten_pairs(spec):
    # (new, old) evaluator pairs of every rewritten formula of spec's family.
    pairs = []
    if spec.family is Family.TRUNCATED_TV:
        pairs.append((make_role_function(spec, Role.ACTIVATION).evaluator, _old_truncated_tv_phi(spec)))
    if spec.family is Family.PERONA_MALIK:
        pairs += [(make_role_function(spec, role).evaluator, old)
                  for role, old in zip(ALL_ROLES, _old_perona_malik(spec))]
    for psi in (make_role_function(spec, Role.REGULARISER),
                user_role_function(Role.REGULARISER, make_role_function(spec, Role.REGULARISER).evaluator)):
        pairs.append((translate(psi, Role.ACTIVATION).evaluator, _old_regulariser_to_activation(psi)))
    return pairs


# Past the pinned grid: both infinities, the largest and the smallest
# magnitudes and both zeros.
EDGES = np.array([np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0])
SPECS = tuple(FamilySpec(f, contrast=c, threshold=c) for f in ALL_FAMILIES for c in (1.0, 0.3, 7.0))
FLOATS = st.lists(st.floats(width=64, allow_nan=False), min_size=1, max_size=64)


def _assert_same_bits(new, old, r):
    with np.errstate(all="ignore"):
        got, want = new(r), old(r)
    assert np.array_equal(_bits(got), _bits(want))


class TestCheapestExactForms:
    """The TV clamp, the Perona-Malik quotient with its sign in the divisor
    and the halving regulariser -> activation cell give the bits of the
    formulas they replaced."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
    def test_on_the_grid_and_its_edges(self, spec):
        r = np.concatenate([GRID, EDGES])
        for new, old in _rewritten_pairs(spec):
            _assert_same_bits(new, old, r)

    @settings(max_examples=200, deadline=None)
    @given(values=FLOATS, family=st.sampled_from(ALL_FAMILIES), p=st.floats(1e-3, 1e3))
    def test_on_any_floats(self, values, family, p):
        r = np.array(values, dtype=np.float64)
        for new, old in _rewritten_pairs(FamilySpec(family, contrast=p, threshold=p)):
            _assert_same_bits(new, old, r)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
    def test_nan_maps_to_nan(self, spec):
        """Every rewritten formula gives NaN exactly where the formula it
        replaced does: TV and Perona-Malik map NaN to NaN, and so do the
        truncated BFB and quadratic activations and their psi'/2."""
        r = np.array([np.nan, -np.nan, 1.0, np.nan])
        for new, old in _rewritten_pairs(spec):
            with np.errstate(all="ignore"):
                got, want = new(r), old(r)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            if spec.family in (Family.TRUNCATED_TV, Family.PERONA_MALIK):
                assert np.isnan(got[[0, 1, 3]]).all() and not np.isnan(got[2])
