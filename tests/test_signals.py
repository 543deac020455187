import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denoise1d import Signal1D, backward_diff, forward_diff


class TestConstruction:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Signal1D([0.0, np.nan])
        with pytest.raises(ValueError):
            Signal1D([np.inf, 0.0])

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            Signal1D([1.0], h=0.0)
        with pytest.raises(ValueError):
            Signal1D([1.0], h=-1.0)
        with pytest.raises(ValueError):
            Signal1D([1.0], h=np.nan)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Signal1D([])

    def test_values_are_immutable(self):
        u = Signal1D([1.0, 2.0])
        with pytest.raises(ValueError):
            u.values[0] = 5.0


class TestForwardDiff:
    def test_hand_example(self):
        v = forward_diff(Signal1D([0.0, 1.0, 3.0]))
        np.testing.assert_array_equal(v.values, [1.0, 2.0, 0.0])

    def test_constant_is_zero(self):
        for h in (1.0, 0.5, 3.0):
            v = forward_diff(Signal1D(np.full(7, 4.2), h=h))
            np.testing.assert_array_equal(v.values, np.zeros(7))

    def test_spike(self):
        v = forward_diff(Signal1D([0.0, 0.0, 1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(v.values, [0.0, 1.0, -1.0, 0.0, 0.0])

    def test_grid_scaling(self):
        v = forward_diff(Signal1D([0.0, 1.0], h=0.5))
        np.testing.assert_array_equal(v.values, [2.0, 0.0])

    def test_single_sample(self):
        v = forward_diff(Signal1D([7.0]))
        np.testing.assert_array_equal(v.values, [0.0])


class TestBackwardDiff:
    def test_hand_example(self):
        v = backward_diff(Signal1D([0.0, 1.0, 3.0]))
        np.testing.assert_array_equal(v.values, [0.0, 1.0, 2.0])

    def test_constant_is_zero(self):
        v = backward_diff(Signal1D(np.full(5, -1.5)))
        np.testing.assert_array_equal(v.values, np.zeros(5))

    def test_laplacian_composition(self):
        """bd(fd(u)) is the clamped discrete Laplacian of the spike."""
        u = Signal1D([0.0, 0.0, 1.0, 0.0, 0.0])
        lap = backward_diff(forward_diff(u))
        np.testing.assert_array_equal(lap.values, [0.0, 1.0, -2.0, 1.0, 0.0])

    def test_single_sample(self):
        v = backward_diff(Signal1D([7.0]))
        np.testing.assert_array_equal(v.values, [0.0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=64),
        st.sampled_from((1.0, 0.5, 0.1)),
    )
    @example([-0.0, 0.0, -0.0], 0.5)  # 0 - (-0) = +0, but -0 - 0 = -0
    def test_bit_identical_to_its_own_stencil(self, xs, h):
        """The shifted forward difference is the backward stencil, bit
        for bit (signed zeros included)."""
        x = np.array(xs)
        want = np.empty_like(x)  # the backward stencil written out
        with np.errstate(over="ignore"):
            np.subtract(x[1:], x[:-1], out=want[1:])
            want[0] = 0.0
            if h != 1.0:
                want /= h
            got = backward_diff(Signal1D(x, h=h)).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestOperatorProperties:
    def test_forward_diff_telescopes(self):
        """sum of fd(u) collapses to (u[N] - u[1]) / h."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 40)
            h = float(rng.uniform(0.1, 3.0))
            u = Signal1D(rng.normal(size=n), h=h)
            total = float(np.sum(forward_diff(u).values))
            expect = (u.values[-1] - u.values[0]) / h
            assert abs(total - expect) < 1e-12 * max(1.0, abs(expect))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    def test_linearity(self, xs, ys, a, b):
        n = min(len(xs), len(ys))
        x = np.array(xs[:n])
        y = np.array(ys[:n])
        for op in (forward_diff, backward_diff):
            ox = op(Signal1D(x)).values
            oy = op(Signal1D(y)).values
            lhs = op(Signal1D(a * x + b * y)).values
            rhs = a * ox + b * oy
            # relative to the pre-cancellation operand scale
            scale = np.max(np.abs(a * ox)) + np.max(np.abs(b * oy)) + np.max(np.abs(x)) + np.max(np.abs(y))
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14 * max(scale, 1.0))
