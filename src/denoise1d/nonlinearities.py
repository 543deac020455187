"""Scalar nonlinearities and the translations between their four roles.

The same scalar function can act as a diffusivity ``g``, a regulariser
``psi``, a wavelet shrinkage function ``S``, or an activation / flux
function ``phi``, depending on which denoising method it is plugged
into.  This module provides

* six closed-form families (constant, Charbonnier, truncated TV,
  Perona-Malik, truncated BFB, truncated quadratic), each with all four
  role formulas, and
* :func:`translate`, which converts a function of one role into any
  other role.  Conversions that require an antiderivative use composite
  Simpson quadrature.  Conversions that require ``psi'`` use
  ``psi' = 2 phi``, built from the family's activation, when the source
  is a closed-form regulariser, and a central difference otherwise.
  Every cell that touches shrinkage consumes one coupling constant
  (``alpha`` with the regulariser, ``tau`` otherwise) and scales the
  breakpoints by sqrt(2).

The evaluators built here are numpy-vectorised, pure and reentrant, and
the step kernels call them from several threads at once, on different
windows of a long signal.  Those a step kernel calls on every window
(the activations, a closed-form ``psi' = 2 phi`` and the activation ->
shrinkage cell) compute into one float64 array of their own, bit for bit
the operator form (see ``_scratch``); the other formulas and cells are
plain operator forms.  Any other evaluator, a user's or a wrapper
around one built here, is called on the caller's thread only.
"""

from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SQRT2 = math.sqrt(2.0)

# Radius below which ratio-type translations (g = phi(r)/r and friends)
# switch to the symmetric difference-quotient limit at zero.
_ZERO_RADIUS = 1e-8

# Points per window of the Lipschitz grid.  A window's float64
# temporaries are 64 KiB each and stay in L2; the whole grid's peaked at
# 6.1 MiB at the 200,001 points a run asks for and 30.5 MiB at the
# default 1,000,001 (traced).
_GRID_WINDOW = 1 << 13

# Panels per smooth segment for the quadrature-backed translations.
SIMPSON_PANELS = 1024

_SIMPSON_T = np.linspace(0.0, 1.0, SIMPSON_PANELS + 1)
_SIMPSON_W = np.ones(SIMPSON_PANELS + 1)
_SIMPSON_W[1:-1:2] = 4.0
_SIMPSON_W[2:-1:2] = 2.0


class Role(enum.Enum):
    DIFFUSIVITY = "diffusivity"
    REGULARISER = "regulariser"
    SHRINKAGE = "shrinkage"
    ACTIVATION = "activation"


class Family(enum.Enum):
    CONSTANT = "constant"
    CHARBONNIER = "charbonnier"
    TRUNCATED_TV = "truncated-tv"
    PERONA_MALIK = "perona-malik"
    TRUNCATED_BFB = "truncated-bfb"
    TRUNCATED_QUADRATIC = "truncated-quadratic"


# Families parametrised by the contrast parameter lambda; the remaining
# three use the threshold theta.
_CONTRAST_FAMILIES = frozenset({Family.CHARBONNIER, Family.PERONA_MALIK})


@dataclass(frozen=True)
class FamilySpec:
    """A family plus its parameter (contrast lambda or threshold theta)."""

    family: Family
    contrast: float = 1.0
    threshold: float = 1.0

    def __post_init__(self):
        p = self.contrast if self.family in _CONTRAST_FAMILIES else self.threshold
        if self.family is Family.CONSTANT:
            return
        if not np.isfinite(p) or p <= 0.0:
            raise ValueError(
                f"{self.family.value} needs a positive finite parameter, got {p!r}"
            )

    def label(self):
        if self.family is Family.CONSTANT:
            return "constant"
        if self.family in _CONTRAST_FAMILIES:
            return f"{self.family.value}(contrast={self.contrast:g})"
        return f"{self.family.value}(threshold={self.threshold:g})"


@dataclass(frozen=True)
class CouplingParams:
    """Step/regularisation constants used by the role translations.

    Translations between shrinkage and the other roles involve the time
    step ``tau``; translations between shrinkage and regularisers
    involve the weight ``alpha``.  A chain that consumes both must use
    equal values (enforced by :func:`translate`).
    """

    tau: float = 0.25
    alpha: float = 0.25
    h: float = 1.0

    def __post_init__(self):
        for name in ("tau", "alpha", "h"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")


@dataclass(frozen=True, eq=False)
class RoleFunction:
    """A scalar nonlinearity tagged with the role it plays.

    ``evaluator`` maps float64 arrays to arrays elementwise; calling the
    RoleFunction accepts scalars too.  It must not mix samples: the step
    kernels call it on windows of a long signal, so an evaluator whose
    output at one index reads other indices (one that subtracts the
    mean, say) gives results that depend on the window.  On a long
    signal the evaluators this module builds are called from several
    threads at once; any other is called on the caller's thread only.
    The array an evaluator is given is reused after it returns, so it may
    return that array or a view of it, but must not keep it.
    ``provenance`` records how the function was obtained (closed form,
    translation chain, or user supplied).  ``derivative`` is an optional
    analytic d/dr used by the regulariser translations; ``breakpoints``
    lists the radii where the function is not smooth, so quadrature can
    split there.  ``constants`` records (name, value) pairs consumed by
    earlier translation hops.
    """

    role: Role
    evaluator: Callable
    provenance: tuple = ("user-supplied",)
    derivative: Optional[Callable] = None
    breakpoints: tuple = ()
    constants: tuple = ()

    def __call__(self, r):
        out = self.evaluator(np.asarray(r, dtype=np.float64))
        out = np.asarray(out)
        return float(out) if out.ndim == 0 else out


# The evaluators built in this package, which the step kernels may call
# from several threads at once.  A set and not a function attribute, which
# a user's functools.wraps wrapper would copy.
_REENTRANT = weakref.WeakSet()


def _reentrant(fn):
    _REENTRANT.add(fn)
    return fn


def _reentrant_if(fn, *sources):
    # fn, marked reentrant if every callable it calls is.
    return _reentrant(fn) if all(map(_is_reentrant, sources)) else fn


def _is_reentrant(fn):
    try:
        return fn in _REENTRANT
    except TypeError:  # an unhashable callable
        return False


def user_role_function(role, func, name="user-supplied"):
    """Wrap a numpy-vectorised callable as a RoleFunction of the given role.

    ``func`` must be elementwise: the step kernels call it on windows of
    a long signal, so one that mixes samples gives window-dependent
    results.  It is called on the caller's thread only, so it need not
    be reentrant.
    """
    return RoleFunction(role=role, evaluator=func, provenance=(name,))


# ---------------------------------------------------------------------------
# Closed-form families
# ---------------------------------------------------------------------------


_F64 = np.dtype(np.float64)


def _scratch(t, v=None):
    # The array a formula writes the ufuncs after its first into: t, the
    # fresh float64 array that first ufunc returned (or a cell's transform
    # of its argument), when the array v it is combined with, if any, is a
    # float64 array of t's shape too.  Otherwise None, so that each ufunc
    # returns a new result, as the operators do: for the numpy scalar a
    # ufunc returns for 0-d operands, and for any other dtype, whose
    # results written into t could change dtype or precision.
    if type(t) is np.ndarray and t.ndim and t.dtype is _F64:
        if v is None or (type(v) is np.ndarray and v.dtype is _F64 and v.shape == t.shape):
            return t
    return None


def _where(c, x, y, o):
    # np.where(c, x, y); into o, when the formula has one: y, unless it
    # is o already, then x where c holds.
    if o is None:
        return np.where(c, x, y)
    if y is not o:
        np.copyto(o, y)
    np.copyto(o, x, where=c)
    return o


def _constant_formulas(spec):
    return (
        lambda r: np.ones_like(r),
        lambda r: r * r,
        lambda r: np.zeros_like(r),
        lambda r: r + 0.0,
    ), ()


# Only phi, which the step kernels call on every window, computes into one
# array (see _scratch); g, psi and S, which no kernel calls on an array, are
# operator forms.  phi keeps the operator form's operations and operands in
# order, and np.where(c, x, y) becomes a copy of x into y where c holds (_where).
# Kept for phi: all-operator forms read long-signal 1.634e8 -> 1.546e8 sample steps/s.


def _charbonnier_formulas(spec):
    lam2 = spec.contrast * spec.contrast

    def g(r):
        return 1.0 / np.sqrt(1.0 + r * r / lam2)

    def psi(r):
        return 2.0 * lam2 * (np.sqrt(1.0 + r * r / lam2) - 1.0)

    def shrink(r):
        return r * (1.0 - 1.0 / np.sqrt(1.0 + 2.0 * r * r / lam2))

    def phi(r):  # r / sqrt(1 + r*r / lam2)
        t = r * r
        o = _scratch(t)
        return np.divide(r, np.sqrt(np.add(1.0, np.divide(t, lam2, out=o), out=o), out=o), out=o)

    return (g, psi, shrink, phi), ()


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
        # r, clamped to [-s2t, s2t]; the array's clip skips np.clip's wrapper.
        return r.clip(-s2t, s2t)

    return (g, psi, shrink, phi), (s2t, s2t, th, s2t)


def _perona_malik_formulas(spec):
    lam2 = spec.contrast * spec.contrast

    # -r*r / c as r*r / -c: the same bits, with no negation pass.
    def g(r):
        return np.exp(r * r / (-2.0 * lam2))

    def psi(r):
        return 2.0 * lam2 * (1.0 - np.exp(r * r / (-2.0 * lam2)))

    def shrink(r):
        return r * (1.0 - np.exp(r * r / -lam2))

    def phi(r):  # r exp(r*r / (-2 lam2))
        t = r * r
        o = _scratch(t)
        return np.multiply(r, np.exp(np.divide(t, -2.0 * lam2, out=o), out=o), out=o)

    return (g, psi, shrink, phi), ()


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

    def phi(r):  # 2 th^2 / r for |r| > s2t, else r (NaN included)
        # safe is r past s2t, 1.0 elsewhere; copysign(|r|, r) is r, bit for bit.
        a = np.abs(r)
        o = _scratch(a)
        rest = ~(a > s2t)
        safe = _where(rest, 1.0, np.copysign(a, r, out=o), o)
        return _where(rest, r, np.divide(2.0 * th2, safe, out=o), o)

    return (g, psi, shrink, phi), (s2t, s2t, th, s2t)


def _truncated_quadratic_formulas(spec):
    th = spec.threshold
    s2t = SQRT2 * th

    def g(r):
        return np.where(np.abs(r) <= s2t, 1.0, 0.0)

    def psi(r):
        return np.where(np.abs(r) <= s2t, r * r, 2.0 * th * th)

    def shrink(r):
        return np.where(np.abs(r) <= th, 0.0, r)

    def phi(r):  # 0 for |r| > s2t, else r (NaN included)
        a = np.abs(r)
        return _where(a > s2t, 0.0, r, _scratch(a))

    return (g, psi, shrink, phi), (s2t, s2t, th, s2t)


_FAMILY_BUILDERS = {
    Family.CONSTANT: _constant_formulas,
    Family.CHARBONNIER: _charbonnier_formulas,
    Family.TRUNCATED_TV: _truncated_tv_formulas,
    Family.PERONA_MALIK: _perona_malik_formulas,
    Family.TRUNCATED_BFB: _truncated_bfb_formulas,
    Family.TRUNCATED_QUADRATIC: _truncated_quadratic_formulas,
}


def make_role_function(spec: FamilySpec, role: Role) -> RoleFunction:
    """Build the closed-form RoleFunction of a family in the given role.

    A builder returns its four formulas, and its breakpoints if it has
    any, in the order of :class:`Role`.  A regulariser carries
    ``psi' = 2 phi`` from the family's own activation as its derivative.
    """
    formulas, breaks = _FAMILY_BUILDERS[spec.family](spec)
    i = list(Role).index(role)
    phi = formulas[-1]
    return RoleFunction(
        role=role,
        evaluator=_reentrant(formulas[i]),
        provenance=(f"closed-form:{spec.label()}", role.value),
        derivative=_reentrant(_doubled(phi)) if role is Role.REGULARISER else None,
        breakpoints=breaks[i : i + 1],
    )


def _doubled(phi):
    # psi' = 2 phi, doubling phi's fresh result in place; minimize_by_diffusion
    # calls it on every window through the regulariser -> activation cell.
    def dpsi(r):
        v = phi(r)
        return np.multiply(2.0, v, out=_scratch(v))

    return dpsi


def eval_family(spec: FamilySpec, role: Role, r):
    """Evaluate the closed-form formula of a family for the requested role."""
    return make_role_function(spec, role)(r)


# ---------------------------------------------------------------------------
# Numeric ingredients: quadrature and differentiation
# ---------------------------------------------------------------------------


def _simpson_segment(fn, lo, hi):
    # Composite Simpson on [lo, hi] with the fixed panel count; lo/hi are
    # 1D arrays of equal length (a segment per evaluation point).
    x = lo[:, None] + (hi - lo)[:, None] * _SIMPSON_T[None, :]
    y = fn(x)
    return ((hi - lo) / (3.0 * SIMPSON_PANELS)) * (y @ _SIMPSON_W)


def integral_from_zero(fn, r, breakpoints=()):
    """Signed integral of ``fn`` from 0 to each entry of ``r``.

    Deterministic composite Simpson with ``SIMPSON_PANELS`` panels per
    smooth segment.  ``breakpoints`` lists radii where ``fn`` loses
    smoothness; the integration range is split there (on both signs) so
    that piecewise formulas do not degrade the panel accuracy.
    """
    rr = np.asarray(r, dtype=np.float64)
    flat = rr.reshape(-1)
    cuts = sorted({abs(b) for b in breakpoints if b != 0.0})
    if not cuts:
        total = _simpson_segment(fn, np.zeros_like(flat), flat)
        return total.reshape(rr.shape)
    total = np.zeros_like(flat)
    lo = np.zeros_like(flat)
    sign = np.sign(flat)
    away = np.where(flat >= 0.0, np.inf, -np.inf)
    for c in cuts:
        clamped = np.abs(flat) > c
        hi = sign * np.where(clamped, c, np.abs(flat))
        total += _simpson_segment(fn, lo, hi)
        # Restart one ulp past the cut so a jump in fn is sampled on the
        # correct side at the new segment's first node.
        lo = np.where(clamped, np.nextafter(hi, away), hi)
    total += _simpson_segment(fn, lo, flat)
    return total.reshape(rr.shape)


def central_derivative(fn, r):
    """Central difference with step max(1e-6, 1e-6*|r|)."""
    rr = np.asarray(r, dtype=np.float64)
    d = np.maximum(1e-6, 1e-6 * np.abs(rr))
    return (fn(rr + d) - fn(rr - d)) / (2.0 * d)


def _ratio_with_limit(numer, r):
    # numer(r) / r, replaced for |r| < _ZERO_RADIUS by the limit value
    # numer'(0), computed as a symmetric difference quotient.  The limit
    # exists because the numerators here are antisymmetric.
    small = np.abs(r) < _ZERO_RADIUS
    safe = np.where(small, 1.0, r)
    out = numer(safe) / safe
    if np.any(small):
        d = 1e-6
        lim = (numer(np.float64(d)) - numer(np.float64(-d))) / (2.0 * d)
        out = np.where(small, lim, out)
    return out


# ---------------------------------------------------------------------------
# The translation dictionary
# ---------------------------------------------------------------------------


def _minus_scaled(r, k, ev, t):
    # r - k * ev(t), the activation -> shrinkage cell that shrinkage steps
    # call on every window, written into t, the cell's own transform of r,
    # when ev's result suits it (see _scratch); never into that result.
    v = ev(t)
    o = _scratch(t, v)
    return np.subtract(r, np.multiply(k, v, out=o), out=o)


def _coupling(f, to, coupling):
    # The constant the cell f.role -> to consumes, and f's record of
    # consumed constants with it added: alpha between regulariser and
    # shrinkage, tau between shrinkage and any other role, none for a
    # cell that does not touch shrinkage.
    ends = {f.role, to}
    if Role.SHRINKAGE not in ends:
        return None, f.constants
    name = "alpha" if Role.REGULARISER in ends else "tau"
    if coupling is None:
        raise ValueError(f"translation requires coupling.{name}")
    value = getattr(coupling, name)
    other = "alpha" if name == "tau" else "tau"
    for prev_name, prev_value in f.constants:
        if prev_name == other and prev_value != value:
            raise ValueError(
                f"translation chain mixes {prev_name}={prev_value!r} with "
                f"{name}={value!r}; the step and regularisation constants "
                "must be equal when a chain uses both"
            )
    return value, f.constants + ((name, value),)


def translate(f: RoleFunction, to: Role, coupling: CouplingParams = None) -> RoleFunction:
    """Translate a nonlinearity into another role.

    Implements the full 4x4 dictionary; the diagonal is the identity.
    Three rules hold for every cell:

    * a cell between regulariser and shrinkage consumes ``alpha``, any
      other cell that touches shrinkage consumes ``tau``, and the rest
      consume no constant; a chain may not mix unequal tau and alpha;
    * breakpoints are divided by sqrt(2) into shrinkage, multiplied by
      sqrt(2) out of it, and kept otherwise;
    * ``psi'`` is the regulariser's own derivative (``2 phi`` for the
      closed-form families), or a central difference when it has none.

    Antiderivatives are evaluated by quadrature (see
    :func:`integral_from_zero`).  Ratio cells handle the removable
    singularity at r = 0 via the symmetric difference-quotient limit.
    """
    if to is f.role:
        return f

    c, consumed = _coupling(f, to, coupling)
    if to is Role.SHRINKAGE:
        bp = tuple(b / SQRT2 for b in f.breakpoints)
    elif f.role is Role.SHRINKAGE:
        bp = tuple(b * SQRT2 for b in f.breakpoints)
    else:
        bp = f.breakpoints
    e = f.evaluator
    dpsi = f.derivative or (lambda r: central_derivative(e, r))

    D, R, S, A = Role  # one cell per (source, target) pair
    ev = {
        (D, R): lambda r: 2.0 * integral_from_zero(lambda x: e(x) * x, r, bp),
        (D, S): lambda r: r * (1.0 - 4.0 * c * e(SQRT2 * r)),
        (D, A): lambda r: e(r) * r,
        (R, D): lambda r: _ratio_with_limit(dpsi, r) / 2.0,
        (R, S): lambda r: r - SQRT2 * c * dpsi(SQRT2 * r),
        (R, A): lambda r: dpsi(r) * 0.5,  # halving is exact: the bits of / 2.0
        (S, D): lambda r: (
            1.0 - _ratio_with_limit(lambda x: SQRT2 * e(x / SQRT2), r)
        ) / (4.0 * c),
        (S, R): lambda r: (
            r * r - 2.0 * SQRT2 * integral_from_zero(lambda x: e(x / SQRT2), r, bp)
        ) / (4.0 * c),
        (S, A): lambda r: (r - SQRT2 * e(r / SQRT2)) / (4.0 * c),
        (A, D): lambda r: _ratio_with_limit(e, r),
        (A, R): lambda r: 2.0 * integral_from_zero(e, r, bp),
        (A, S): lambda r: _minus_scaled(r, 2.0 * SQRT2 * c, e, SQRT2 * r),
    }[f.role, to]

    return RoleFunction(
        role=to,
        evaluator=_reentrant_if(ev, e, f.derivative or e),
        provenance=f.provenance + (f"{f.role.value}->{to.value}",),
        breakpoints=bp,
        constants=consumed,
    )


def _largest_magnitude(v):
    # np.max(np.abs(v)) with no |v| array; abs() turns the -0.0 an all-zero
    # v can give into 0.0, and a NaN in v still gives NaN.
    return abs(max(v.max(), -v.min()))


def estimate_lipschitz(f: RoleFunction, r_max: float, samples: int = 1_000_001) -> float:
    """Largest difference quotient of an activation on [-r_max, r_max].

    The grid is ``np.linspace(-r_max, r_max, samples)``; each quotient
    is the central slope at the midpoint of two neighbouring points, so
    the estimate is second-order accurate for smooth activations.  The
    grid is generated and evaluated in windows of ``_GRID_WINDOW``
    points, one evaluator call each, so its memory does not grow with
    ``samples``.
    """
    if f.role is not Role.ACTIVATION:
        raise ValueError("Lipschitz estimation expects an activation function")
    if not np.isfinite(r_max) or r_max <= 0.0:
        raise ValueError(f"r_max must be positive, got {r_max!r}")
    if samples < 2:
        raise ValueError("need at least two samples")
    n = int(samples)
    stop = float(r_max)
    start = -stop
    step = (stop - start) / (n - 1)
    # linspace computes a float32 grid for a float32 r_max and warns of a
    # 2 r_max that overflows; those grids, and one with a zero difference,
    # take the whole-array path below.
    if np.result_type(r_max, 0.0) == np.float64 and 0.0 < step < math.inf:
        maxima = []
        for a in range(0, n - 1, _GRID_WINDOW):
            # Points a..b-1; the last is the next window's first, so every
            # neighbouring pair falls in exactly one window.
            b = min(a + _GRID_WINDOW + 1, n)
            x = np.arange(a, b, dtype=np.float64)  # linspace's own arithmetic
            x *= step
            x += start
            if b == n:
                x[-1] = stop
            dx = np.diff(x)
            if not dx.all():
                break
            q = np.diff(f.evaluator(x))
            maxima.append(_largest_magnitude(np.divide(q, dx, out=_scratch(q, dx))))
        else:
            return float(np.max(maxima))  # np.max, not max: a NaN propagates
    x = np.linspace(-r_max, r_max, n)
    if not np.diff(x).all():  # a subnormal r_max rounds neighbouring samples together
        x = np.unique(x)
    y = f.evaluator(x)
    return float(np.max(np.abs(np.diff(y) / np.diff(x))))
