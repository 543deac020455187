"""The evaluators a step kernel calls write into one array, bit for bit.

The six activations write each ufunc after its first into the array
that one returned, a closed-form regulariser's psi' = 2 phi doubles
phi's result in place, and the activation -> shrinkage cell writes into
its transform's array: the step kernels call these on every window.
The other closed forms and the diffusivity and regulariser ->
shrinkage and shrinkage -> activation cells, which no step kernel calls
on an array, are the operator forms themselves.  The references below
are the operator forms, kept verbatim; every formula and the four
cells named here are checked against them.
Results are compared as bytes with their dtype and type, so signed
zeros, NaN payloads, numpy scalars and 0-d arrays count.  The one
intended change: the truncated-BFB and truncated-quadratic activations
map NaN to NaN, where the operator forms gave 2 theta^2 and 0.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoise1d import (
    CouplingParams,
    Family,
    FamilySpec,
    Role,
    RoleFunction,
    make_role_function,
    translate,
    user_role_function,
)
from denoise1d.diffusion import _CHUNK, _flux_pass
from denoise1d.nonlinearities import central_derivative

SQRT2 = math.sqrt(2.0)
ROLES = (Role.DIFFUSIVITY, Role.REGULARISER, Role.SHRINKAGE, Role.ACTIVATION)
# The formulas whose NaN behaviour was mended; elsewhere NaN bits count.
NAN_MENDED = {(Family.TRUNCATED_BFB, Role.ACTIVATION), (Family.TRUNCATED_QUADRATIC, Role.ACTIVATION)}


# -- the operator forms, verbatim -----------------------------------------------


def _constant_formulas(spec):
    return (
        lambda r: np.ones_like(r),
        lambda r: r * r,
        lambda r: np.zeros_like(r),
        lambda r: r + 0.0,
    )


def _charbonnier_formulas(spec):
    lam2 = spec.contrast * spec.contrast

    def g(r):
        return 1.0 / np.sqrt(1.0 + r * r / lam2)

    def psi(r):
        return 2.0 * lam2 * (np.sqrt(1.0 + r * r / lam2) - 1.0)

    def shrink(r):
        return r * (1.0 - 1.0 / np.sqrt(1.0 + 2.0 * r * r / lam2))

    def phi(r):
        return r / np.sqrt(1.0 + r * r / lam2)

    return g, psi, shrink, phi


def _truncated_tv_formulas(spec):
    th = spec.threshold
    s2t = SQRT2 * th

    def g(r):
        a = np.abs(r)
        return np.where(a <= s2t, 1.0, s2t / np.where(a > s2t, a, 1.0))

    def psi(r):
        a = np.abs(r)
        return np.where(a <= s2t, r * r, 2.0 * th * (SQRT2 * a - th))

    def shrink(r):
        a = np.abs(r)
        return np.where(a <= th, 0.0, r - th * np.sign(r))

    def phi(r):
        return r.clip(-s2t, s2t)

    return g, psi, shrink, phi


def _perona_malik_formulas(spec):
    lam2 = spec.contrast * spec.contrast

    def g(r):
        return np.exp(r * r / (-2.0 * lam2))

    def psi(r):
        return 2.0 * lam2 * (1.0 - np.exp(r * r / (-2.0 * lam2)))

    def shrink(r):
        return r * (1.0 - np.exp(r * r / -lam2))

    def phi(r):
        return r * np.exp(r * r / (-2.0 * lam2))

    return g, psi, shrink, phi


def _truncated_bfb_formulas(spec):
    th = spec.threshold
    th2 = th * th
    s2t = SQRT2 * th

    def g(r):
        a = np.abs(r)
        safe = np.where(a > s2t, r, 1.0)
        return np.where(a <= s2t, 1.0, 2.0 * th2 / (safe * safe))

    def psi(r):
        a = np.abs(r)
        safe = np.where(a > s2t, r * r / (2.0 * th2), 1.0)
        return np.where(a <= s2t, r * r, 2.0 * th2 * (np.log(safe) + 1.0))

    def shrink(r):
        a = np.abs(r)
        safe = np.where(a > th, r, 1.0)
        return np.where(a <= th, 0.0, r - th2 / safe)

    def phi(r):
        a = np.abs(r)
        safe = np.where(a > s2t, r, 1.0)
        return np.where(a <= s2t, r, 2.0 * th2 / safe)

    return g, psi, shrink, phi


def _truncated_quadratic_formulas(spec):
    th = spec.threshold
    s2t = SQRT2 * th

    def g(r):
        return np.where(np.abs(r) <= s2t, 1.0, 0.0)

    def psi(r):
        return np.where(np.abs(r) <= s2t, r * r, 2.0 * th * th)

    def shrink(r):
        return np.where(np.abs(r) <= th, 0.0, r)

    def phi(r):
        return np.where(np.abs(r) <= s2t, r, 0.0)

    return g, psi, shrink, phi


OPERATOR_FORMS = {
    Family.CONSTANT: _constant_formulas,
    Family.CHARBONNIER: _charbonnier_formulas,
    Family.TRUNCATED_TV: _truncated_tv_formulas,
    Family.PERONA_MALIK: _perona_malik_formulas,
    Family.TRUNCATED_BFB: _truncated_bfb_formulas,
    Family.TRUNCATED_QUADRATIC: _truncated_quadratic_formulas,
}


def _operator_cell(f, to, c):
    # The four cells that start from a transform of their argument.
    e = f.evaluator
    dpsi = f.derivative or (lambda r: central_derivative(e, r))
    D, R, S, A = ROLES
    return {
        (D, S): lambda r: r * (1.0 - 4.0 * c * e(SQRT2 * r)),
        (R, S): lambda r: r - SQRT2 * c * dpsi(SQRT2 * r),
        (S, A): lambda r: (r - SQRT2 * e(r / SQRT2)) / (4.0 * c),
        (A, S): lambda r: r - 2.0 * SQRT2 * c * e(SQRT2 * r),
    }[f.role, to]


# -- inputs ---------------------------------------------------------------------

_SUBNORMALS = np.array([5e-324, 1e-320, 2.2250738585072009e-308, 1e-310])
EDGES = np.concatenate([
    [np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0, np.nan, -np.nan],
    _SUBNORMALS, -_SUBNORMALS,
])
GRID = np.concatenate([np.linspace(-60.0, 60.0, 120_001), EDGES])
SPECS = tuple(FamilySpec(f, contrast=p, threshold=p) for f in Family for p in (1.0, 0.3, 7.0))
TAU = 0.3
COUPLING = CouplingParams(tau=TAU, alpha=TAU)


def _forms_of(values):
    # The argument forms an evaluator is called with: 1-d float64 and
    # float32 arrays, and one 0-d array, numpy float64 and float32 scalar
    # per value.
    values = np.asarray(values, dtype=np.float64)
    yield values
    yield values.astype(np.float32)
    for v in values[:: max(1, values.size // 24)]:
        yield np.asarray(v)
        yield np.float64(v)
        yield np.float32(v)


def _same(new, old, r, nan_mended=False):
    """new(r) and old(r) agree in type, dtype, shape and bits, and new
    leaves r as it was.  With nan_mended, a NaN argument maps to NaN and
    is exempt from the comparison."""
    before = np.asarray(r).tobytes()
    with np.errstate(all="ignore"):
        got = new(r)
        assert np.asarray(r).tobytes() == before, "wrote into its argument"
        want = old(r)
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    if nan_mended:
        nan = np.isnan(r)
        assert np.isnan(got[nan]).all()
        got, want = got[~nan], want[~nan]
    elif got.dtype != np.float64:
        # A float32 exp returns a NaN of its own sign, and numpy computes a
        # product with a temporary of 256 KiB or more in place, operands
        # swapped, so there the operator form's NaN sign depends on the size.
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        got, want = got[~nan], want[~nan]
    assert got.tobytes() == want.tobytes()


def _check_spec(spec, values):
    with np.errstate(all="ignore"):
        forms = list(_forms_of(values))
    old_forms = OPERATOR_FORMS[spec.family](spec)
    phi = make_role_function(spec, Role.ACTIVATION)
    for role, old in zip(ROLES, old_forms):
        new = make_role_function(spec, role)
        mended = (spec.family, role) in NAN_MENDED
        for r in forms:
            _same(new.evaluator, old, r, mended)
            if role is Role.REGULARISER:
                _same(new.derivative, lambda x: 2.0 * phi.evaluator(x), r)
    for f, to in ((phi, Role.SHRINKAGE), (make_role_function(spec, Role.DIFFUSIVITY), Role.SHRINKAGE),
                  (make_role_function(spec, Role.REGULARISER), Role.SHRINKAGE),
                  (make_role_function(spec, Role.SHRINKAGE), Role.ACTIVATION)):
        cell = translate(f, to, COUPLING).evaluator
        for r in forms:
            _same(cell, _operator_cell(f, to, TAU), r)


class TestOperatorForms:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
    def test_on_the_grid_and_its_edges(self, spec):
        _check_spec(spec, GRID)

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.floats(width=64), min_size=1, max_size=48),
        family=st.sampled_from(tuple(Family)),
        p=st.floats(1e-3, 1e3),
    )
    def test_on_any_floats(self, values, family, p):
        _check_spec(FamilySpec(family, contrast=p, threshold=p), values)

    @pytest.mark.parametrize("spec", SPECS[::3], ids=lambda s: s.label())
    def test_on_integers(self, spec):
        r = np.arange(-9, 10)
        for role, old in zip(ROLES, OPERATOR_FORMS[spec.family](spec)):
            _same(make_role_function(spec, role).evaluator, old, r)


def _in_float32(r):
    return np.tanh(r).astype(np.float32)


def _in_integers(r):
    return np.trunc(np.clip(r, -5.0, 5.0)).astype(np.int64)


def _the_argument(r):
    return r


def _its_argument_scaled(r):
    r *= 0.5
    return r


USER_EVALUATORS = (_in_float32, _in_integers, _the_argument, _its_argument_scaled, np.tanh)


class TestCellsOfUserEvaluators:
    """A user's evaluator may return float32, integers or the array it was
    given; the cell then writes into its own transform only when that
    keeps the operator form's dtype and bits."""

    @pytest.mark.parametrize("ev", USER_EVALUATORS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("src, dst", [
        (Role.ACTIVATION, Role.SHRINKAGE), (Role.DIFFUSIVITY, Role.SHRINKAGE),
        (Role.REGULARISER, Role.SHRINKAGE), (Role.SHRINKAGE, Role.ACTIVATION),
    ], ids=lambda r: r.value)
    def test_bit_identical(self, ev, src, dst):
        f = user_role_function(src, ev)
        cell = translate(f, dst, COUPLING).evaluator
        for r in _forms_of(GRID[::97]):
            _same(cell, _operator_cell(f, dst, TAU), r)

    @pytest.mark.parametrize("src, dst", [
        (Role.ACTIVATION, Role.SHRINKAGE), (Role.DIFFUSIVITY, Role.SHRINKAGE),
        (Role.REGULARISER, Role.SHRINKAGE), (Role.SHRINKAGE, Role.ACTIVATION),
    ], ids=lambda r: r.value)
    def test_the_evaluators_result_is_left_as_it_was(self, src, dst):
        kept = []

        def keeping(r):  # holds on to what it returns
            kept.append((np.tanh(r), np.tanh(r)))
            return kept[-1][0]

        translate(user_role_function(src, keeping), dst, COUPLING).evaluator(GRID[::97])
        assert kept and all(np.array_equal(given, copy) for given, copy in kept)

    def test_a_regulariser_derivative_of_another_dtype(self):
        f = user_role_function(Role.REGULARISER, np.abs)
        f = RoleFunction(role=f.role, evaluator=f.evaluator, derivative=_in_float32)
        cell = translate(f, Role.SHRINKAGE, COUPLING).evaluator
        for r in _forms_of(GRID[::97]):
            _same(cell, _operator_cell(f, Role.SHRINKAGE, TAU), r)


class TestNanSpreads:
    @pytest.mark.parametrize("family", tuple(Family), ids=lambda f: f.value)
    def test_flux_step_hands_the_nan_to_both_neighbours(self, family):
        phi = make_role_function(FamilySpec(family), Role.ACTIVATION)
        with np.errstate(all="ignore"):
            u = _flux_pass(phi.evaluator, 0.1, 1.0)(np.array([0.0, np.nan, 0.0, 0.0, 1.0]))
        assert np.isnan(u[:3]).all() and np.isfinite(u[3:]).all()


class TestOneArray:
    """The traced peak of one call on a window: the arrays the call must
    hold (its result, and in a cell also the activation's result), plus
    a quarter window for boolean masks and 4 KiB for small objects."""

    W = 8 * _CHUNK
    SLACK = W // 4 + 4096

    def _peak(self, fn, r):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn(r)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.nbytes == self.W
        return peak

    @pytest.mark.parametrize("family", tuple(Family), ids=lambda f: f.value)
    def test_an_activation_holds_one_window(self, family):
        r = np.random.default_rng(5).normal(0.0, 1.0, _CHUNK)
        phi = make_role_function(FamilySpec(family), Role.ACTIVATION).evaluator
        assert self._peak(phi, r) <= self.W + self.SLACK

    @pytest.mark.parametrize("family", tuple(Family), ids=lambda f: f.value)
    def test_a_regulariser_derivative_holds_one_window(self, family):
        # psi' = 2 phi, which minimize_by_diffusion calls on every window.
        r = np.random.default_rng(7).normal(0.0, 1.0, _CHUNK)
        dpsi = make_role_function(FamilySpec(family), Role.REGULARISER).derivative
        assert self._peak(dpsi, r) <= self.W + self.SLACK

    @pytest.mark.parametrize("family", tuple(Family), ids=lambda f: f.value)
    def test_an_activation_to_shrinkage_cell_holds_two_windows(self, family):
        r = np.random.default_rng(6).normal(0.0, 1.0, _CHUNK)
        phi = make_role_function(FamilySpec(family), Role.ACTIVATION)
        shrink = translate(phi, Role.SHRINKAGE, COUPLING).evaluator
        assert self._peak(shrink, r) <= 2 * self.W + self.SLACK
