import math
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from denoise1d import diffusion
from denoise1d.nonlinearities import SQRT2 as _SQRT2
from denoise1d.shrinkage import _haar_pass
from denoise1d.signals import _fdiff

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
                    _haar_pass(ev)(x),
                    _shift_invariant_by_pairs(x, ev),
                    rtol=0,
                    atol=1e-14,
                )


def _shift_invariant_by_pairs(x, ev):
    # Reference path: explicit reconstructions from both pairings.
    n = x.size
    s = (x[:-1] + x[1:]) / SQRT2
    w = (x[1:] - x[:-1]) / SQRT2
    sw = ev(w)
    left = (s - sw) / SQRT2   # reconstruction of the pair's left member
    right = (s + sw) / SQRT2  # reconstruction of the pair's right member
    s0 = float(ev(np.float64(0.0)))  # phantom pairs carry a zero wavelet coeff
    out = np.empty_like(x)
    if n == 1:
        out[0] = x[0]
        return out
    out[0] = (x[0] + s0 / SQRT2 + left[0]) / 2.0
    out[-1] = (right[-1] + x[-1] - s0 / SQRT2) / 2.0
    if n > 2:
        out[1:-1] = (right[:-1] + left[1:]) / 2.0
    return out


def _bdiff(x, h):
    # (x[i] - x[i-1]) / h, zero at the left end (clamped neighbour).
    v = np.empty_like(x)
    np.subtract(x[1:], x[:-1], out=v[1:])
    v[0] = 0.0
    if h != 1.0:
        v /= h
    return v


def _two_evaluation_reference(x, ev):
    # The closed form as it was when S was evaluated on both difference
    # arrays (2N values per step); kept verbatim as the reference.
    fd = _fdiff(x, 1.0)
    bd = _bdiff(x, 1.0)
    shrunk = ev(np.stack((bd, fd)) / _SQRT2)
    return x + 0.25 * (fd - bd) + (shrunk[0] - shrunk[1]) / (2.0 * _SQRT2)


def assert_bit_identical(a, b):
    # Compares the bit patterns, so signed zeros count.
    assert a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def translated_shrink(family, tau):
    phi = make_role_function(FamilySpec(family), Role.ACTIVATION)
    return translate(phi, Role.SHRINKAGE, CouplingParams(tau=tau))


# S(0) != 0, so the wall value taken from the last interface is pinned.
S_OFFSET = user_role_function(Role.SHRINKAGE, lambda r: r + 0.3, "offset")


class _CountingEvaluator:
    # Records the number of values asked for in each call.
    def __init__(self, ev):
        self.ev = ev
        self.sizes = []

    def __call__(self, r):
        self.sizes.append(np.size(r))
        return self.ev(r)


class TestOneEvaluationPerInterface:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(ALL_FAMILIES),
        st.sampled_from((0.1, 0.25, 0.5)),
        st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=64),
    )
    # x + (fd - bd)/4 is -0.0 and S(bd/sqrt2) - S(fd/sqrt2) is 0.0 at the
    # middle sample, so the step gives 0.0 there.
    @example(Family.CONSTANT, 0.25, [-5e-324, -0.0, 0.0])
    @example(Family.PERONA_MALIK, 0.25, [0.0, -0.0, -5e-324])
    def test_bit_identical_to_two_evaluations(self, family, tau, values):
        x = np.array(values, dtype=np.float64)
        ev = translated_shrink(family, tau).evaluator
        assert_bit_identical(_haar_pass(ev)(x), _two_evaluation_reference(x, ev))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=64))
    def test_wall_value_with_nonzero_s0(self, values):
        x = np.array(values, dtype=np.float64)
        ev = S_OFFSET.evaluator
        assert_bit_identical(_haar_pass(ev)(x), _two_evaluation_reference(x, ev))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_bit_identical_at_two_to_the_twenty(self, family):
        rng = np.random.default_rng(zlib.crc32(family.value.encode()))
        x = rng.uniform(-4.0, 4.0, 2**20)
        ev = translated_shrink(family, 0.25).evaluator
        assert_bit_identical(_haar_pass(ev)(x), _two_evaluation_reference(x, ev))

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_step_asks_for_n_values_once(self, n):
        counter = _CountingEvaluator(shrink_of(Family.PERONA_MALIK).evaluator)
        u = Signal1D(np.linspace(0.0, 1.0, n) ** 2)
        shift_invariant_step(u, user_role_function(Role.SHRINKAGE, counter))
        assert counter.sizes == [n]

    @pytest.mark.parametrize("n, chunk", [(5, 2), (6, 3), (17, 4), (3, 1)])
    def test_windowed_step_asks_for_n_values_in_one_call_per_window(self, n, chunk):
        counter = _CountingEvaluator(shrink_of(Family.PERONA_MALIK).evaluator)
        u = Signal1D(np.linspace(0.0, 1.0, n) ** 2)
        with mock.patch.object(diffusion, "_CHUNK", chunk):
            shift_invariant_step(u, user_role_function(Role.SHRINKAGE, counter))
        windows = [(a, min(a + chunk, n)) for a in range(0, n, chunk)]
        assert counter.sizes == [min(b + 1, n) - max(a - 1, 0) for a, b in windows]

    def test_iteration_asks_for_m_times_n_values(self):
        counter = _CountingEvaluator(shrink_of(Family.CHARBONNIER).evaluator)
        f = Signal1D(np.random.default_rng(10).uniform(-1, 1, 23))
        iterate_shrinkage(f, user_role_function(Role.SHRINKAGE, counter), 7)
        assert sum(counter.sizes) == 7 * 23


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
