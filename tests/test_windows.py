"""Window edges of the step kernels, bit for bit.

A step over more than ``diffusion._CHUNK`` samples runs window by
window, each read with a halo.  The references below are the
whole-array kernels as they were before windowing, kept verbatim.  With
``_CHUNK`` patched to a few samples, every window edge, every halo and
the wall value show up in short signals; outputs are compared as bit
patterns, so signed zeros count.
"""

import math
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoise1d import (
    CouplingParams,
    EnergySpec,
    Family,
    FamilySpec,
    ResidualBlock,
    Role,
    RoleFunction,
    Signal1D,
    estimate_lipschitz,
    euler_lagrange_residual,
    make_diffusion_block,
    make_role_function,
    relu,
    translate,
    user_role_function,
)
from denoise1d import diffusion
from denoise1d.blocks import _apply
from denoise1d.diffusion import _LIPSCHITZ_SAMPLES, _flux_pass, _lipschitz
from denoise1d.nonlinearities import SQRT2
from denoise1d.shrinkage import _haar_pass
from denoise1d.signals import _fdiff
from denoise1d.variational import _divergence_of

CHUNKS = (1, 2, 3, 5)


def _offset(r):
    # phi(0) = S(0) = 0.3, so the wall value is not zero.
    return r + 0.3


ACTIVATIONS = tuple(make_role_function(FamilySpec(f), Role.ACTIVATION).evaluator for f in Family) + (
    _offset,
)
SHRINKAGES = tuple(
    translate(make_role_function(FamilySpec(f), Role.ACTIVATION), Role.SHRINKAGE, CouplingParams(tau=0.25)).evaluator
    for f in Family
) + (_offset,)
VALUES = st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=64).map(lambda v: np.array(v, dtype=np.float64))


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


# -- whole-array references, verbatim -----------------------------------------


def _whole_flux_divergence(x, ev, h):
    w = ev(_fdiff(x, h))
    div = np.empty_like(x)
    div[0] = w[0] - w[-1]
    np.subtract(w[1:], w[:-1], out=div[1:])
    if h != 1.0:
        div /= h
    return div


def _whole_flux_step(x, ev, tau, h):
    return x + tau * _whole_flux_divergence(x, ev, h)


def _whole_shift_invariant_values(x, ev):
    fd = _fdiff(x, 1.0)
    s = ev(fd / SQRT2)
    d = np.empty_like(fd)  # fd - bd
    d[0] = fd[0]
    np.subtract(fd[1:], fd[:-1], out=d[1:])
    e = np.empty_like(s)  # S(bd/sqrt2) - S(fd/sqrt2)
    e[0] = s[-1] - s[0]
    np.subtract(s[:-1], s[1:], out=e[1:])
    return x + 0.25 * d + e / (2.0 * SQRT2)


def _conv(x, taps, p, edge):
    n = x.size
    xp = np.empty(n + 2 * p)
    xp[p : p + n] = x
    xp[:p] = x[0] if edge else 0.0
    xp[p + n :] = x[-1] if edge else 0.0
    out = None
    for j, kj in taps:
        term = kj * xp[j : j + n]
        if out is None:
            out = term
        else:
            out += term
    return np.zeros_like(x) if out is None else out


def _whole_apply(block, x):
    inner = _conv(x, block._taps1, block._p1, edge=True)
    if block.b1.size:
        inner += block.b1
    mid = block.sigma1(inner)
    outer = _conv(mid, block._taps2, block._p2, edge=False)
    if block.b2.size:
        outer += block.b2
    return np.asarray(block.sigma2(x + outer), dtype=np.float64)


def _whole_lipschitz(phi, f):
    with np.errstate(over="ignore"):
        r = 2.0 * float(np.max(np.abs(_fdiff(f.values, f.h))))
    if not math.isfinite(r):
        raise ValueError("the input's gradients overflow float64; rescale the signal")
    return estimate_lipschitz(phi, r if r > 0.0 else 1.0, _LIPSCHITZ_SAMPLES)


def _chunk(c):
    return mock.patch.object(diffusion, "_CHUNK", c)


# -- the kernels against them ---------------------------------------------------


class TestWindowEdges:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(CHUNKS),
        VALUES,
        st.sampled_from(ACTIVATIONS),
        st.sampled_from((0.1, 0.25)),
        st.sampled_from((1.0, 0.5)),
    )
    def test_flux_step(self, chunk, x, ev, tau, h):
        with _chunk(chunk):
            out = _flux_pass(ev, tau, h)(x)
        assert_bit_identical(out, _whole_flux_step(x, ev, tau, h))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CHUNKS), VALUES, st.sampled_from(SHRINKAGES))
    def test_shrinkage_step(self, chunk, x, ev):
        with _chunk(chunk):
            out = _haar_pass(ev)(x)
        assert_bit_identical(out, _whole_shift_invariant_values(x, ev))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CHUNKS), VALUES, st.data())
    def test_block(self, chunk, x, data):
        n = x.size
        weight = st.sampled_from((0.0, 1.0, -1.0, 0.5, -0.3, 2.0))

        def stencil():
            return st.integers(0, 4).flatmap(lambda p: st.lists(weight, min_size=2 * p + 1, max_size=2 * p + 1))

        def bias():
            return st.one_of(st.just([]), st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))

        block = ResidualBlock(
            w1=data.draw(stencil()),
            sigma1=data.draw(st.sampled_from(ACTIVATIONS)),
            w2=data.draw(stencil()),
            sigma2=data.draw(st.sampled_from((lambda r: r, relu, np.tanh))),
            b1=data.draw(bias()),
            b2=data.draw(bias()),
        )
        with _chunk(chunk):
            out = _apply(block, x)
        assert_bit_identical(out, _whole_apply(block, x))

    @pytest.mark.parametrize("family", tuple(Family))
    def test_three_windows_and_a_few_samples_at_the_real_chunk(self, family):
        rng = np.random.default_rng(zlib.crc32(family.value.encode()))
        x = rng.uniform(-4.0, 4.0, 3 * diffusion._CHUNK + 7)
        ev = make_role_function(FamilySpec(family), Role.ACTIVATION).evaluator
        assert_bit_identical(_flux_pass(ev, 0.1, 0.5)(x), _whole_flux_step(x, ev, 0.1, 0.5))
        block = ResidualBlock(
            w1=[0.5, 0.0, -1.0, 1.0, 0.25], sigma1=ev, w2=[-0.2, 0.2, 0.0], b1=rng.uniform(-1, 1, x.size)
        )
        assert_bit_identical(_apply(block, x), _whole_apply(block, x))


class TestOneCallPerWindow:
    # Each window [a, b) asks for min(b + 1, n) - max(a - 1, 0) values: its
    # samples and a halo of one on each side, clamped to the signal.
    @pytest.mark.parametrize("n, chunk, sizes", [(5, 2, [3, 4, 2]), (6, 3, [4, 4]), (7, 1, [2] + [3] * 5 + [2])])
    def test_flux_step_asks_for_n_values_in_one_call_per_window(self, n, chunk, sizes):
        asked = []

        def counter(r):
            asked.append(r.size)
            return _offset(r)

        with _chunk(chunk):
            _flux_pass(counter, 0.1, 1.0)(np.linspace(0.0, 1.0, n) ** 2)
        assert asked == sizes


class TestGradientRange:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(CHUNKS), VALUES, st.sampled_from(tuple(Family)), st.sampled_from((1.0, 0.5)))
    def test_lipschitz_is_unchanged(self, chunk, x, family, h):
        phi = make_role_function(FamilySpec(family), Role.ACTIVATION)
        f = Signal1D(x, h)
        with _chunk(chunk):
            L = _lipschitz(phi, f)
        assert L == _whole_lipschitz(phi, f)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_overflow_at_a_window_edge_is_rejected(self, chunk):
        phi = user_role_function(Role.ACTIVATION, _offset)
        f = Signal1D([0.0, 0.0, 1e308, -1e308, 0.0])
        with _chunk(chunk), pytest.raises(ValueError, match="overflow"):
            _lipschitz(phi, f)


def _passes(family):
    # One flux, Haar, block and divergence pass of a closed-form family.
    spec = FamilySpec(family)
    phi = make_role_function(spec, Role.ACTIVATION)
    shrink = translate(phi, Role.SHRINKAGE, CouplingParams(tau=0.25)).evaluator
    energy = EnergySpec(make_role_function(spec, Role.REGULARISER), 0.3)
    block = make_diffusion_block(phi, 0.2, 1.0)
    return {
        "flux": lambda x: _flux_pass(phi.evaluator, 0.2, 1.0)(x),
        "haar": lambda x: _haar_pass(shrink)(x),
        "block": lambda x: _apply(block, x),
        "divergence": lambda x: _divergence_of(Signal1D._wrap(x, 1.0), energy),
    }


class TestMemory:
    """A long pass holds its output and window-sized temporaries, no
    whole-length temporary: at N = 2^20 (8 MiB per array) the traced peak
    is at most the output plus 2 MiB for each part running at once."""

    N = 1 << 20

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("family", tuple(Family), ids=lambda f: f.value)
    def test_no_whole_length_temporary(self, family, workers):
        x = np.random.default_rng(3).normal(0.0, 0.1, self.N)
        x.setflags(write=False)
        with mock.patch.object(diffusion, "_WORKERS", workers):
            assert len(diffusion._parts(self.N)) == workers
            for name, run in _passes(family).items():
                run(x)  # any one-time set-up before tracing
                tracemalloc.start()
                try:
                    out = run(x)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert out.nbytes == 8 * self.N
                assert peak <= out.nbytes + workers * (2 << 20), (name, peak)


# -- evaluators that return another dtype ---------------------------------------


def _in_float32(r):
    return np.tanh(r).astype(np.float32)


def _in_integers(r):
    return np.rint(4.0 * r).astype(np.int64)


def _divergence_in_dtype(w, h):
    # The divergence in the evaluator's own dtype, as the kernels took it
    # when every step returned x + tau * div(w).
    div = np.empty_like(w)
    div[0] = w[0] - w[-1]
    np.subtract(w[1:], w[:-1], out=div[1:])
    if h != 1.0:
        div /= h
    return div


class TestEvaluatorDtypes:
    """``RoleFunction.evaluator`` need only return arrays.  A float32 or
    integer evaluator gives the same float64 output at every length: its
    divergence is taken in its own dtype (float64 for integers) and the
    step is added in float64, and sigma1's values are correlated as
    float64, in one window as in many."""

    SIZES = (16, 2 * diffusion._CHUNK + 5)
    CASES = [(_in_float32, 1.0), (_in_float32, 0.5), (_in_integers, 1.0)]

    @staticmethod
    def _signal(n):
        return np.random.default_rng(n).normal(0.0, 0.3, n)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("ev, h", CASES)
    def test_flux_step(self, n, ev, h):
        x = self._signal(n)
        expected = x + 0.1 * _divergence_in_dtype(ev(_fdiff(x, h)), h)
        assert_bit_identical(_flux_pass(ev, 0.1, h)(x), expected)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("ev", (_in_float32, _in_integers))
    def test_shrinkage_step(self, n, ev):
        x = self._signal(n)
        fd = _fdiff(x, 1.0)
        s = ev(fd / SQRT2)
        expected = x + 0.25 * _divergence_in_dtype(fd, 1.0) + _divergence_in_dtype(-s, 1.0) / (2.0 * SQRT2)
        assert_bit_identical(_haar_pass(ev)(x), expected)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("ev", (_in_float32, _in_integers))
    def test_block(self, n, ev):
        x = self._signal(n)
        block = ResidualBlock(w1=[0.5, 0.0, -1.0, 1.0, 0.25], sigma1=ev, w2=[-0.2, 0.2, 0.3], sigma2=ev)
        assert_bit_identical(_apply(block, x), _whole_apply(block, x))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("ev, h", CASES)
    def test_euler_lagrange_residual(self, n, ev, h):
        x, f = self._signal(n), self._signal(n + 1)[:n]
        psi = RoleFunction(role=Role.REGULARISER, evaluator=lambda r: r * r, derivative=lambda r: ev(r) * 2)
        w = translate(psi, Role.ACTIVATION).evaluator(_fdiff(x, h))
        expected = (x - f) / 0.3 - _divergence_in_dtype(w, h)
        out = euler_lagrange_residual(Signal1D(x, h), Signal1D(f, h), EnergySpec(psi, 0.3))
        assert_bit_identical(out.values, expected)
