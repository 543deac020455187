import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoise1d import (
    CouplingParams,
    Family,
    FamilySpec,
    HaarPair,
    Role,
    Signal1D,
    count_sign_changes,
    explicit_step,
    iterate_shrinkage,
    make_role_function,
    shift_invariant_step,
    shrink_pair,
    translate,
    user_role_function,
)
from denoise1d.shrinkage import _shift_invariant_by_pairs, _shift_invariant_values

SQRT2 = math.sqrt(2.0)
COUPLING = CouplingParams(tau=0.25, alpha=0.25, h=1.0)

ALL_FAMILIES = tuple(Family)


def shrink_of(family, **kw):
    return make_role_function(FamilySpec(family, **kw), Role.SHRINKAGE)


S_ZERO = user_role_function(Role.SHRINKAGE, lambda r: np.zeros_like(r), "zero")
S_ID = user_role_function(Role.SHRINKAGE, lambda r: r + 0.0, "identity")


class TestHaarPair:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_orthonormality(self, a, b):
        """The transform preserves the pair energy."""
        p = HaarPair.from_samples(a, b)
        lhs = a * a + b * b
        rhs = p.scaling**2 + p.wavelet**2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestShrinkPair:
    def test_zero_shrinkage_averages(self):
        a, b = shrink_pair(1.0, 3.0, S_ZERO)
        assert abs(a - 2.0) < 1e-15
        assert abs(b - 2.0) < 1e-15

    def test_identity_shrinkage_reconstructs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a0, b0 = rng.normal(size=2)
            a, b = shrink_pair(a0, b0, S_ID)
            assert abs(a - a0) <= 1e-14 * max(1.0, abs(a0))
            assert abs(b - b0) <= 1e-14 * max(1.0, abs(b0))

    def test_soft_threshold_hand_case(self):
        """(0,2) under soft shrinkage theta=1: w = sqrt2 shrinks to sqrt2 - 1."""
        a, b = shrink_pair(0.0, 2.0, shrink_of(Family.TRUNCATED_TV))
        want_a = (SQRT2 - (SQRT2 - 1.0)) / SQRT2  # = 1/sqrt2
        want_b = (SQRT2 + (SQRT2 - 1.0)) / SQRT2  # = 2 - 1/sqrt2
        assert abs(a - want_a) < 1e-15
        assert abs(b - want_b) < 1e-15
        assert abs((a + b) - 2.0) < 1e-15  # scaling coefficient untouched

    def test_rejects_non_shrinkage_role(self):
        phi = make_role_function(FamilySpec(Family.CONSTANT), Role.ACTIVATION)
        with pytest.raises(ValueError):
            shrink_pair(0.0, 1.0, phi)


class TestShiftInvariantStep:
    def test_zero_shrinkage_is_homogeneous_diffusion(self):
        u = Signal1D([0.0, 0.0, 1.0, 0.0, 0.0])
        out = shift_invariant_step(u, S_ZERO)
        np.testing.assert_allclose(out.values, [0.0, 0.25, 0.5, 0.25, 0.0], atol=1e-16)

    def test_identity_shrinkage_is_identity(self):
        rng = np.random.default_rng(4)
        u = Signal1D(rng.uniform(-1, 1, 13))
        out = shift_invariant_step(u, S_ID)
        np.testing.assert_allclose(out.values, u.values, rtol=0, atol=1e-15)

    def test_large_threshold_hard_equals_zero_shrinkage(self):
        rng = np.random.default_rng(5)
        u = Signal1D(rng.uniform(0, 1, 11))
        hard = shrink_of(Family.TRUNCATED_QUADRATIC, threshold=100.0)
        np.testing.assert_array_equal(
            shift_invariant_step(u, hard).values,
            shift_invariant_step(u, S_ZERO).values,
        )

    def test_rejects_non_unit_grid(self):
        with pytest.raises(ValueError):
            shift_invariant_step(Signal1D([0.0, 1.0], h=0.5), S_ZERO)

    def test_two_paths_agree(self):
        """Closed form vs literal analyse/shrink/synthesise/average."""
        rng = np.random.default_rng(6)
        for family in ALL_FAMILIES:
            ev = shrink_of(family).evaluator
            for _ in range(200):
                x = rng.uniform(-1, 1, int(rng.integers(1, 40)))
                np.testing.assert_allclose(
                    _shift_invariant_values(x, ev),
                    _shift_invariant_by_pairs(x, ev),
                    rtol=0,
                    atol=1e-14,
                )


class TestDiffusionEquivalence:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_equals_explicit_step(self, family):
        """One cycle-spun shrinkage step is one explicit diffusion step
        with the translated activation, tau = 1/4, h = 1."""
        shrink = shrink_of(family)
        phi = translate(shrink, Role.ACTIVATION, COUPLING)
        rng = np.random.default_rng(zlib.crc32(family.value.encode()))
        for _ in range(1000):
            u = Signal1D(rng.uniform(-1, 1, int(rng.integers(2, 129))))
            a = shift_invariant_step(u, shrink).values
            b = explicit_step(u, phi, 0.25).values
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestIterateShrinkage:
    def test_zero_steps(self):
        f = Signal1D([1.0, 2.0])
        assert iterate_shrinkage(f, S_ZERO, 0) is f

    def test_one_step(self):
        rng = np.random.default_rng(8)
        f = Signal1D(rng.uniform(0, 1, 9))
        np.testing.assert_array_equal(
            iterate_shrinkage(f, S_ZERO, 1).values,
            shift_invariant_step(f, S_ZERO).values,
        )

    def test_many_steps_reach_the_mean(self):
        rng = np.random.default_rng(9)
        f = Signal1D(rng.uniform(0, 1, 7))
        out = iterate_shrinkage(f, S_ZERO, 400)
        np.testing.assert_allclose(out.values, np.mean(f.values), rtol=0, atol=1e-6)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            iterate_shrinkage(Signal1D([0.0]), S_ZERO, -1)


class TestShrinkageStability:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_range_preserved_over_iteration(self, family):
        """-r <= S(r) <= r keeps iterated shrinkage inside the input range."""
        shrink = shrink_of(family)
        rng = np.random.default_rng(21)
        for _ in range(100):
            u = Signal1D(rng.uniform(0, 1, int(rng.integers(2, 40))))
            lo = float(np.min(u.values)) - 1e-12
            hi = float(np.max(u.values)) + 1e-12
            out = iterate_shrinkage(u, shrink, 20)
            assert float(np.min(out.values)) >= lo
            assert float(np.max(out.values)) <= hi

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_sign_changes_never_increase(self, family):
        """0 <= S(r) <= r gives a sign stable process."""
        shrink = shrink_of(family)
        rng = np.random.default_rng(22)
        for _ in range(1000):
            u = Signal1D(rng.uniform(-1, 1, int(rng.integers(2, 40))))
            before = count_sign_changes(u)
            after = count_sign_changes(shift_invariant_step(u, shrink))
            assert after <= before
