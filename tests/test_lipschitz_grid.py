"""The Lipschitz grid, window by window, bit for bit.

``estimate_lipschitz`` generates and evaluates its grid in windows of
``_GRID_WINDOW`` points.  The reference below is the whole-array
estimate as it was before windowing, kept verbatim; L is compared as a
bit pattern, so a NaN or a signed zero counts.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoise1d import (
    Family,
    FamilySpec,
    Role,
    estimate_lipschitz,
    make_role_function,
    translate,
    user_role_function,
)
from denoise1d.nonlinearities import _GRID_WINDOW as W

SAMPLES = (2, 3, W, W + 1, W + 2, 200_001)


def _offset(r):
    return r + 0.3


def _nan_above_half(r):
    # NaN only in the last windows of a wide grid: Python's max would drop it.
    return np.where(r > 0.5, np.nan, r)


ACTIVATIONS = tuple(make_role_function(FamilySpec(f), Role.ACTIVATION) for f in Family) + (
    translate(make_role_function(FamilySpec(Family.PERONA_MALIK), Role.REGULARISER), Role.ACTIVATION),
    user_role_function(Role.ACTIVATION, _offset),
    user_role_function(Role.ACTIVATION, _nan_above_half),
)


def _whole_estimate_lipschitz(f, r_max, samples):
    x = np.linspace(-r_max, r_max, int(samples))
    if not np.diff(x).all():  # a subnormal r_max rounds neighbouring samples together
        x = np.unique(x)
    y = f.evaluator(x)
    return float(np.max(np.abs(np.diff(y) / np.diff(x))))


def _bits(v):
    return np.float64(v).view(np.int64)


def _recording(windows):
    def ev(r):
        windows.append(r.copy())
        return r

    return user_role_function(Role.ACTIVATION, ev)


class TestAgainstTheWholeGrid:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(ACTIVATIONS),
        st.floats(min_value=5e-324, max_value=1e308),
        st.sampled_from(SAMPLES),
    )
    def test_bit_identical(self, phi, r_max, samples):
        with np.errstate(all="ignore"):  # 2 r_max overflows past 8.99e307
            got = estimate_lipschitz(phi, r_max, samples)
            want = _whole_estimate_lipschitz(phi, r_max, samples)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize(
        "r_max", (5e-324, 1e-320, 2.2250738585072009e-308, 1.0, 1e307, 1.7e308, 4, 2**62 + 1, np.float32(1.5))
    )
    @pytest.mark.parametrize("samples", SAMPLES)
    def test_every_activation_at_the_edges(self, r_max, samples):
        for phi in ACTIVATIONS:
            with np.errstate(all="ignore"):
                got = estimate_lipschitz(phi, r_max, samples)
                want = _whole_estimate_lipschitz(phi, r_max, samples)
            assert _bits(got) == _bits(want), phi.provenance


class TestTheGrid:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-300, max_value=8e307), st.sampled_from(SAMPLES))
    def test_windows_stitch_into_linspace(self, r_max, samples):
        windows = []
        estimate_lipschitz(_recording(windows), r_max, samples)
        assert len(windows) == -(-(samples - 1) // W)  # one evaluator call per window
        assert all(w.size <= W + 1 for w in windows)
        for left, right in zip(windows, windows[1:]):
            assert _bits(left[-1]) == _bits(right[0])  # one shared point at each seam
        grid = np.concatenate([windows[0]] + [w[1:] for w in windows[1:]])
        want = np.linspace(-r_max, r_max, samples)
        assert np.array_equal(grid.view(np.int64), want.view(np.int64))

    def test_the_last_point_is_r_max(self):
        windows = []
        estimate_lipschitz(_recording(windows), 0.1, 200_001)
        assert windows[-1][-1] == 0.1 and windows[0][0] == -0.1

    def test_a_nan_in_a_later_window_propagates(self):
        phi = user_role_function(Role.ACTIVATION, _nan_above_half)
        assert np.isnan(estimate_lipschitz(phi, 1.0, 200_001))


class TestMemory:
    @pytest.mark.parametrize("samples", (200_001, 1_000_001))
    def test_the_estimate_holds_no_whole_grid(self, samples):
        phi = make_role_function(FamilySpec(Family.PERONA_MALIK), Role.ACTIVATION)
        estimate_lipschitz(phi, 4.0, samples)
        tracemalloc.start()
        try:
            estimate_lipschitz(phi, 4.0, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
