"""Explicit scheme for 1D nonlinear diffusion and its step-size bounds.

One explicit step moves every sample by the difference of the flux
through its two cell interfaces,

    u_i <- u_i + (tau/h) * (phi(fd_i) - phi(bd_i)),

with fd/bd the clamped forward/backward differences.  Equivalently the
update is a conservation form: interface fluxes, with zero flux through
the reflecting walls, so the sample sum is preserved exactly up to
rounding.  Every method that takes explicit steps runs the step loop
and the Lipschitz guard defined here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .nonlinearities import Role, RoleFunction, estimate_lipschitz
from .signals import Signal1D, _fdiff

_LIPSCHITZ_SAMPLES = 200_001


class StepSizeMode(enum.Enum):
    """Which stability notion the step-size bound guarantees."""

    MAXMIN = "maxmin"
    SIGN_STABLE = "sign-stable"


@dataclass(frozen=True)
class DiffusionPlan:
    """The step schedule actually used by :func:`diffuse`."""

    phi: RoleFunction
    tau: float
    steps: int
    h: float
    stopping_time: float  # steps * tau, exactly


def max_stable_tau(L: float, h: float, mode: StepSizeMode) -> float:
    """Largest admissible time step: h^2/(2L), halved for sign stability."""
    if not np.isfinite(L) or L <= 0.0:
        raise ValueError(f"Lipschitz constant must be positive, got {L!r}")
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"grid size must be positive, got {h!r}")
    bound = h * h / (2.0 * L)
    if mode is StepSizeMode.SIGN_STABLE:
        bound /= 2.0
    return bound


def _flux_divergence(x, ev, phi0, h):
    # Difference of the interface fluxes ev(fd x) around each sample.
    # phi0 = phi(0) is the wall flux; it is zero for every antisymmetric
    # activation.
    w = ev(_fdiff(x, h))
    div = np.empty_like(x)
    div[0] = w[0] - phi0
    np.subtract(w[1:], w[:-1], out=div[1:])
    if h != 1.0:
        div /= h
    return div


def _flux_step(x, ev, phi0, tau, h):
    # One explicit step on raw samples.
    return x + tau * _flux_divergence(x, ev, phi0, h)


def _states(x, phi, tau, m, h):
    # The loop of the explicit scheme: yields each of the m states after x.
    ev = phi.evaluator
    phi0 = _phi_at_zero(phi)
    for _ in range(m):
        x = _flux_step(x, ev, phi0, tau, h)
        yield x


def _last(states, x):
    # Drains a state generator; its last state, x when it yields none.
    for x in states:
        pass
    return x


def _phi_at_zero(phi):
    return float(phi.evaluator(np.float64(0.0)))


def explicit_step(u: Signal1D, phi: RoleFunction, tau: float) -> Signal1D:
    """One explicit diffusion step with activation/flux ``phi``.

    Stability is the caller's responsibility; see :func:`max_stable_tau`
    and :func:`diffuse`.
    """
    if phi.role is not Role.ACTIVATION:
        raise ValueError("explicit_step expects an activation function")
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"time step must be positive, got {tau!r}")
    out = _flux_step(u.values, phi.evaluator, _phi_at_zero(phi), tau, u.h)
    return Signal1D._wrap(out, u.h)


def _lipschitz(phi, f):
    # L of phi sampled on the initial gradient range of f, padded x2.
    # Under an admissible step the gradients cannot leave this range.
    with np.errstate(over="ignore"):
        r = 2.0 * float(np.max(np.abs(_fdiff(f.values, f.h))))
    if not math.isfinite(r):
        raise ValueError("the input's gradients overflow float64; rescale the signal")
    return estimate_lipschitz(phi, r if r > 0.0 else 1.0, _LIPSCHITZ_SAMPLES)


def _schedule(f, phi, T, mode):
    # (L, tau, m) of diffuse: the smallest m with T/m within the bound.
    if not np.isfinite(T) or T < 0.0:
        raise ValueError(f"stopping time must be nonnegative, got {T!r}")
    L = _lipschitz(phi, f)
    tau_max = max_stable_tau(L, f.h, mode)
    if T == 0.0:
        return L, tau_max, 0
    m = max(1, int(math.ceil(T / tau_max)))  # T/tau_max can underflow to 0
    if T / m > tau_max:  # T/m can round one ulp above the bound
        m += 1
    return L, T / m, m


def diffuse(
    f: Signal1D,
    phi: RoleFunction,
    T: float,
    mode: StepSizeMode = StepSizeMode.SIGN_STABLE,
):
    """Diffuse ``f`` to stopping time ``T`` with a stable uniform step.

    The Lipschitz constant of ``phi`` is estimated on the (padded)
    gradient range of ``f``; the step count is the smallest m with
    T/m below the bound for ``mode``, and all m steps use tau = T/m.

    Returns the filtered signal and the :class:`DiffusionPlan` used.
    """
    _, tau, m = _schedule(f, phi, T, mode)
    if m == 0:
        return f, DiffusionPlan(phi=phi, tau=tau, steps=0, h=f.h, stopping_time=0.0)
    x = _last(_states(f.values, phi, tau, m, f.h), None)
    plan = DiffusionPlan(phi=phi, tau=tau, steps=m, h=f.h, stopping_time=m * tau)
    return Signal1D._wrap(x, f.h), plan
