"""Explicit scheme for 1D nonlinear diffusion and its step-size bounds.

One explicit step moves every sample by the difference of the flux
through its two cell interfaces,

    u_i <- u_i + (tau/h) * (phi(fd_i) - phi(bd_i)),

with fd/bd the clamped forward/backward differences.  Equivalently the
update is a conservation form: interface fluxes, with zero flux through
the reflecting walls, so the sample sum is preserved exactly up to
rounding.  Each method has its own state generator, and every run
finishes through the one drain, ``_last``, defined here.

Every step here and in :mod:`.shrinkage`, and the divergence of
:mod:`.variational`, is one ``_interface_pass``: it evaluates one value
per interface on the clamped forward differences fd and moves each
sample by an ``update`` of the values at its two interfaces.  The left
neighbour of sample 0 is the last entry of every interface array: fd[-1]
is exactly 0.0, so phi(0) and S(0) are the wall values.  A pass over more
than ``_CHUNK`` samples runs window by window, so that each window's
temporaries stay in cache; a window carries its left interface's values
from the one before, and sample 0 is finished last with the last ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .nonlinearities import Role, RoleFunction, estimate_lipschitz
from .signals import Signal1D, _fdiff

_LIPSCHITZ_SAMPLES = 200_001
# Samples per window of a step.  A window's temporaries (about 256 KiB)
# stay in L2 and on the heap, where whole-array temporaries at N = 2^20
# (8 MiB) are mapped fresh and page-faulted for every numpy operation.
_CHUNK = 1 << 15
# Most steps one run may take.  A flat input diffused to T = 1e9 plans
# 4e9 steps; a plan past the budget raises before it takes a step, not
# hangs.
_STEP_BUDGET = 10_000_000


class StabilityViolation(Exception):
    """A plan breaks a stability bound or needs more steps than the budget."""


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


def _windows(n):
    # Bounds (a, b) of the windows a pass over n samples runs in.  A pass
    # tests n <= _CHUNK itself first: one window then takes the
    # whole-array path, with no per-step loop or list.
    return [(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]


def _interface_pass(x, h, interface, update):
    # update(x, fd, v, fd_left, v_left) on each window, where v =
    # interface(fd) holds the values at the samples' right interfaces and
    # fd_left, v_left those at the interface left of the first sample.
    if x.size <= _CHUNK:
        fd = _fdiff(x, h)
        v = interface(fd)
        return update(x, fd, v, fd[-1], v[-1])
    out = np.empty_like(x)
    fd_left = v_left = 0.0  # sample 0 is finished below, with the wall values
    for a, b in _windows(x.size):
        fd = _fdiff(x[a : b + 1], h)[: b - a]
        v = interface(fd)
        out[a:b] = update(x[a:b], fd, v, fd_left, v_left)
        if a == 0:
            head = (fd[:1], v[:1])
        fd_left, v_left = fd[-1], v[-1]
    out[:1] = update(x[:1], *head, fd_left, v_left)
    return out


def _divergence(w, left, h):
    # Flux difference around each sample of a window: w holds the fluxes
    # through the samples' right interfaces, left the flux into the first.
    div = np.empty_like(w)
    div[0] = w[0] - left
    np.subtract(w[1:], w[:-1], out=div[1:])
    if h != 1.0:
        div /= h
    return div


def _flux_update(tau, h):
    # The explicit step as an update of _interface_pass on the fluxes w.
    return lambda x, fd, w, fd_left, w_left: x + tau * _divergence(w, w_left, h)


def _flux_step(x, ev, tau, h):
    # One explicit step on raw samples.
    return _interface_pass(x, h, ev, _flux_update(tau, h))


def _states(x, phi, tau, m, h):
    # The loop of the explicit scheme: yields each of the m states after x.
    ev, update = phi.evaluator, _flux_update(tau, h)
    for _ in range(m):
        x = _interface_pass(x, h, ev, update)
        yield x


def _last(states, f):
    # The one drain of a run: its last state as a Signal1D on f's grid,
    # f itself when the run takes no step.
    x = None
    for x in states:
        pass
    return f if x is None else Signal1D._wrap(x, f.h)


def explicit_step(u: Signal1D, phi: RoleFunction, tau: float) -> Signal1D:
    """One explicit diffusion step with activation/flux ``phi``.

    Stability is the caller's responsibility; see :func:`max_stable_tau`
    and :func:`diffuse`.
    """
    if phi.role is not Role.ACTIVATION:
        raise ValueError("explicit_step expects an activation function")
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"time step must be positive, got {tau!r}")
    out = _flux_step(u.values, phi.evaluator, tau, u.h)
    return Signal1D._wrap(out, u.h)


def _lipschitz(phi, f):
    # L of phi sampled on the initial gradient range of f, padded x2.
    # Under an admissible step the gradients cannot leave this range.
    x = f.values
    with np.errstate(over="ignore"):
        r = 2.0 * max(float(np.max(np.abs(_fdiff(x[a : b + 1], f.h)))) for a, b in _windows(x.size))
    if not math.isfinite(2.0 * r):  # the span of the grid on [-r, r]
        raise ValueError("the input's gradients overflow float64; rescale the signal")
    return estimate_lipschitz(phi, r if r > 0.0 else 1.0, _LIPSCHITZ_SAMPLES)


def _check_budget(m):
    if m > _STEP_BUDGET:
        raise StabilityViolation(f"the run needs m = {m} steps, above the budget of {_STEP_BUDGET}")


def _schedule(f, phi, T, mode):
    # (L, tau, m) of diffuse: the smallest m with T/m within the bound,
    # and within the step budget.
    if not np.isfinite(T) or T < 0.0:
        raise ValueError(f"stopping time must be nonnegative, got {T!r}")
    L = _lipschitz(phi, f)
    tau_max = max_stable_tau(L, f.h, mode)
    if T == 0.0:
        return L, tau_max, 0
    steps = T / tau_max
    if math.isinf(steps):
        raise ValueError(f"stopping time {T!r} needs a step count that overflows float64")
    m = max(1, int(math.ceil(steps)))  # T/tau_max can underflow to 0
    if T / m > tau_max:  # T/m can round one ulp above the bound
        m += 1
    _check_budget(m)
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
    A plan of more than ``_STEP_BUDGET`` steps raises
    :class:`StabilityViolation`, naming m, before any step is taken.

    Returns the filtered signal and the :class:`DiffusionPlan` used.
    """
    _, tau, m = _schedule(f, phi, T, mode)
    plan = DiffusionPlan(phi=phi, tau=tau, steps=m, h=f.h, stopping_time=m * tau)
    return _last(_states(f.values, phi, tau, m, f.h), f), plan
