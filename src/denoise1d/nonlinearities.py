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
  Simpson quadrature; conversions that require ``psi'`` use an analytic
  derivative when the source is a closed-form family and a central
  difference otherwise.

Evaluators are numpy-vectorised, pure, and reentrant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

SQRT2 = math.sqrt(2.0)

# Radius below which ratio-type translations (g = phi(r)/r and friends)
# switch to the symmetric difference-quotient limit at zero.
_ZERO_RADIUS = 1e-8

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
    RoleFunction accepts scalars too.  ``provenance`` records how the
    function was obtained (closed form, translation chain, or user
    supplied).  ``derivative`` is an optional analytic d/dr used by the
    regulariser translations; ``breakpoints`` lists the radii where the
    function is not smooth, so quadrature can split there.
    ``constants`` records (name, value) pairs consumed by earlier
    translation hops.
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


def user_role_function(role, func, name="user-supplied"):
    """Wrap a numpy-vectorised callable as a RoleFunction of the given role."""
    return RoleFunction(role=role, evaluator=func, provenance=(name,))


# ---------------------------------------------------------------------------
# Closed-form families
# ---------------------------------------------------------------------------


def _constant_formulas(spec):
    return {
        Role.DIFFUSIVITY: lambda r: np.ones_like(r),
        Role.REGULARISER: lambda r: r * r,
        Role.SHRINKAGE: lambda r: np.zeros_like(r),
        Role.ACTIVATION: lambda r: r + 0.0,
    }, (lambda r: 2.0 * r), ()


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

    def dpsi(r):
        return 2.0 * r / np.sqrt(1.0 + r * r / lam2)

    return {
        Role.DIFFUSIVITY: g,
        Role.REGULARISER: psi,
        Role.SHRINKAGE: shrink,
        Role.ACTIVATION: phi,
    }, dpsi, ()


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
        return np.where(np.abs(r) <= s2t, r, s2t * np.sign(r))

    def dpsi(r):
        return np.where(np.abs(r) <= s2t, 2.0 * r, 2.0 * s2t * np.sign(r))

    return {
        Role.DIFFUSIVITY: g,
        Role.REGULARISER: psi,
        Role.SHRINKAGE: shrink,
        Role.ACTIVATION: phi,
    }, dpsi, (s2t, s2t, th, s2t)


def _perona_malik_formulas(spec):
    lam2 = spec.contrast * spec.contrast

    def g(r):
        return np.exp(-r * r / (2.0 * lam2))

    def psi(r):
        return 2.0 * lam2 * (1.0 - np.exp(-r * r / (2.0 * lam2)))

    def shrink(r):
        return r * (1.0 - np.exp(-r * r / lam2))

    def phi(r):
        return r * np.exp(-r * r / (2.0 * lam2))

    def dpsi(r):
        return 2.0 * r * np.exp(-r * r / (2.0 * lam2))

    return {
        Role.DIFFUSIVITY: g,
        Role.REGULARISER: psi,
        Role.SHRINKAGE: shrink,
        Role.ACTIVATION: phi,
    }, dpsi, ()


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

    def dpsi(r):
        a = np.abs(r)
        safe = np.where(a > s2t, r, 1.0)
        return np.where(a <= s2t, 2.0 * r, 4.0 * th2 / safe)

    return {
        Role.DIFFUSIVITY: g,
        Role.REGULARISER: psi,
        Role.SHRINKAGE: shrink,
        Role.ACTIVATION: phi,
    }, dpsi, (s2t, s2t, th, s2t)


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

    def dpsi(r):
        return np.where(np.abs(r) <= s2t, 2.0 * r, 0.0)

    return {
        Role.DIFFUSIVITY: g,
        Role.REGULARISER: psi,
        Role.SHRINKAGE: shrink,
        Role.ACTIVATION: phi,
    }, dpsi, (s2t, s2t, th, s2t)


_FAMILY_BUILDERS = {
    Family.CONSTANT: _constant_formulas,
    Family.CHARBONNIER: _charbonnier_formulas,
    Family.TRUNCATED_TV: _truncated_tv_formulas,
    Family.PERONA_MALIK: _perona_malik_formulas,
    Family.TRUNCATED_BFB: _truncated_bfb_formulas,
    Family.TRUNCATED_QUADRATIC: _truncated_quadratic_formulas,
}

# Order of the per-role breakpoint tuples returned by the builders.
_BREAK_ORDER = (Role.DIFFUSIVITY, Role.REGULARISER, Role.SHRINKAGE, Role.ACTIVATION)


def make_role_function(spec: FamilySpec, role: Role) -> RoleFunction:
    """Build the closed-form RoleFunction of a family in the given role."""
    formulas, dpsi, breaks = _FAMILY_BUILDERS[spec.family](spec)
    if breaks:
        bp = (breaks[_BREAK_ORDER.index(role)],)
    else:
        bp = ()
    return RoleFunction(
        role=role,
        evaluator=formulas[role],
        provenance=(f"closed-form:{spec.label()}", role.value),
        derivative=dpsi if role is Role.REGULARISER else None,
        breakpoints=bp,
    )


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


def _require(coupling, name):
    if coupling is None:
        raise ValueError(f"translation requires coupling.{name}")
    return getattr(coupling, name)


def _check_constants(consumed, name, value):
    other = "alpha" if name == "tau" else "tau"
    for prev_name, prev_value in consumed:
        if prev_name == other and prev_value != value:
            raise ValueError(
                f"translation chain mixes {prev_name}={prev_value!r} with "
                f"{name}={value!r}; the step and regularisation constants "
                "must be equal when a chain uses both"
            )
    return consumed + ((name, value),)


def translate(f: RoleFunction, to: Role, coupling: CouplingParams = None) -> RoleFunction:
    """Translate a nonlinearity into another role.

    Implements the full 4x4 dictionary; the diagonal is the identity.
    Antiderivatives are evaluated by quadrature (see
    :func:`integral_from_zero`); the regulariser derivative uses the
    analytic form carried by closed-form regularisers and a central
    difference otherwise.  Ratio cells handle the removable singularity
    at r = 0 via the symmetric difference-quotient limit.
    """
    if to is f.role:
        return f

    e = f.evaluator
    bp = f.breakpoints
    consumed = f.constants
    src = f.role

    if src is Role.REGULARISER:
        dpsi = f.derivative if f.derivative is not None else (
            lambda r: central_derivative(e, r)
        )

    if src is Role.DIFFUSIVITY:
        if to is Role.REGULARISER:
            ev = lambda r: 2.0 * integral_from_zero(lambda x: e(x) * x, r, bp)
            new_bp = bp
        elif to is Role.SHRINKAGE:
            tau = _require(coupling, "tau")
            consumed = _check_constants(consumed, "tau", tau)
            ev = lambda r: r * (1.0 - 4.0 * tau * e(SQRT2 * r))
            new_bp = tuple(b / SQRT2 for b in bp)
        else:  # activation
            ev = lambda r: e(r) * r
            new_bp = bp
    elif src is Role.REGULARISER:
        if to is Role.DIFFUSIVITY:
            ev = lambda r: _ratio_with_limit(dpsi, r) / 2.0
            new_bp = bp
        elif to is Role.SHRINKAGE:
            alpha = _require(coupling, "alpha")
            consumed = _check_constants(consumed, "alpha", alpha)
            ev = lambda r: r - SQRT2 * alpha * dpsi(SQRT2 * r)
            new_bp = tuple(b / SQRT2 for b in bp)
        else:  # activation
            ev = lambda r: dpsi(r) / 2.0
            new_bp = bp
    elif src is Role.SHRINKAGE:
        if to is Role.DIFFUSIVITY:
            tau = _require(coupling, "tau")
            consumed = _check_constants(consumed, "tau", tau)
            numer = lambda r: SQRT2 * e(r / SQRT2)
            ev = lambda r: (1.0 - _ratio_with_limit(numer, r)) / (4.0 * tau)
            new_bp = tuple(b * SQRT2 for b in bp)
        elif to is Role.REGULARISER:
            alpha = _require(coupling, "alpha")
            consumed = _check_constants(consumed, "alpha", alpha)
            scaled_bp = tuple(b * SQRT2 for b in bp)
            ev = lambda r: (
                r * r
                - 2.0 * SQRT2 * integral_from_zero(lambda x: e(x / SQRT2), r, scaled_bp)
            ) / (4.0 * alpha)
            new_bp = scaled_bp
        else:  # activation
            tau = _require(coupling, "tau")
            consumed = _check_constants(consumed, "tau", tau)
            ev = lambda r: (r - SQRT2 * e(r / SQRT2)) / (4.0 * tau)
            new_bp = tuple(b * SQRT2 for b in bp)
    else:  # activation source
        if to is Role.DIFFUSIVITY:
            ev = lambda r: _ratio_with_limit(e, r)
            new_bp = bp
        elif to is Role.REGULARISER:
            ev = lambda r: 2.0 * integral_from_zero(e, r, bp)
            new_bp = bp
        else:  # shrinkage
            tau = _require(coupling, "tau")
            consumed = _check_constants(consumed, "tau", tau)
            ev = lambda r: r - 2.0 * SQRT2 * tau * e(SQRT2 * r)
            new_bp = tuple(b / SQRT2 for b in bp)

    return RoleFunction(
        role=to,
        evaluator=ev,
        provenance=f.provenance + (f"{src.value}->{to.value}",),
        breakpoints=new_bp,
        constants=consumed,
    )


def estimate_lipschitz(f: RoleFunction, r_max: float, samples: int = 1_000_001) -> float:
    """Largest difference quotient of an activation on [-r_max, r_max].

    Dense sampling over consecutive grid points; each quotient is the
    central slope at the midpoint, so the estimate is second-order
    accurate for smooth activations.
    """
    if f.role is not Role.ACTIVATION:
        raise ValueError("Lipschitz estimation expects an activation function")
    if not np.isfinite(r_max) or r_max <= 0.0:
        raise ValueError(f"r_max must be positive, got {r_max!r}")
    if samples < 2:
        raise ValueError("need at least two samples")
    x = np.linspace(-r_max, r_max, int(samples))
    if not np.diff(x).all():  # a subnormal r_max rounds neighbouring samples together
        x = np.unique(x)
    y = f.evaluator(x)
    return float(np.max(np.abs(np.diff(y) / np.diff(x))))
