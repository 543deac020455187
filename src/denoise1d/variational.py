"""First-order variational denoising and its diffusion approximation.

The discrete energy is

    E(u) = h * sum (u_i - f_i)^2  +  alpha * h * sum psi(fd_i)

with the clamped forward differences of :mod:`.signals` (the last
difference is zero).  Its minimiser satisfies a discrete
Euler-Lagrange equation whose right-hand side is the same flux
divergence as one explicit diffusion step with phi = psi'/2, so the
energy can be attacked by running that diffusion flow to time alpha.
For the quadratic (Whittaker-Tikhonov) regulariser the module also
ships an exact direct solve as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import StepSizeMode, _flux_divergence, _last, _lipschitz, _phi_at_zero, _states
from .diffusion import max_stable_tau
from .nonlinearities import Role, RoleFunction, translate
from .nonlinearities import estimate_lipschitz  # noqa: F401  traced by name (bench/tracing.py)
from .signals import Signal1D, _fdiff


@dataclass(frozen=True)
class EnergySpec:
    """Regulariser plus weight for the first-order energy."""

    psi: RoleFunction
    alpha: float

    def __post_init__(self):
        if self.psi.role is not Role.REGULARISER:
            raise ValueError("EnergySpec expects a regulariser")
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if abs(float(self.psi(0.0))) > 1e-12:
            raise ValueError("regulariser must satisfy psi(0) = 0")


def _check_pair(u, f):
    if len(u) != len(f):
        raise ValueError(f"signal lengths differ: {len(u)} vs {len(f)}")
    if u.h != f.h:
        raise ValueError(f"grid sizes differ: {u.h!r} vs {f.h!r}")


def discrete_energy(u: Signal1D, f: Signal1D, spec: EnergySpec) -> float:
    """Quadratic data term plus weighted regulariser of the gradient."""
    _check_pair(u, f)
    d = u.values - f.values
    data = float(np.sum(d * d))
    reg = float(np.sum(spec.psi.evaluator(_fdiff(u.values, u.h))))
    return u.h * data + spec.alpha * u.h * reg


def euler_lagrange_residual(u: Signal1D, f: Signal1D, spec: EnergySpec) -> Signal1D:
    """Pointwise residual (u - f)/alpha - div(psi'(fd u)/2).

    Zero (up to the derivative tolerance) exactly at energy minimisers.
    """
    _check_pair(u, f)
    phi = translate(spec.psi, Role.ACTIVATION)
    div = _flux_divergence(u.values, phi.evaluator, _phi_at_zero(phi), u.h)
    r = (u.values - f.values) / spec.alpha - div
    return Signal1D._wrap(r, u.h)


def energy_gradient(u: Signal1D, f: Signal1D, spec: EnergySpec) -> np.ndarray:
    """Analytic gradient of :func:`discrete_energy` with respect to u."""
    _check_pair(u, f)
    phi = translate(spec.psi, Role.ACTIVATION)
    div = _flux_divergence(u.values, phi.evaluator, _phi_at_zero(phi), u.h)
    return 2.0 * u.h * (u.values - f.values) - 2.0 * spec.alpha * u.h * div


def minimize_by_diffusion(f: Signal1D, spec: EnergySpec, m: int) -> Signal1D:
    """Approach the minimiser with m explicit diffusion steps, tau = alpha/m.

    Raises if alpha/m violates the max-min stability bound for
    phi = psi'/2; the message reports the smallest admissible m.
    """
    if m < 1:
        raise ValueError(f"need at least one step, got m = {m!r}")
    phi = translate(spec.psi, Role.ACTIVATION)
    tau = spec.alpha / m
    _check_step(_lipschitz(phi, f), f.h, spec.alpha, tau)
    return Signal1D._wrap(_last(_states(f.values, phi, tau, m, f.h), None), f.h)


def _check_step(L, h, alpha, tau):
    # The max-min guard of minimize_by_diffusion on a step tau for alpha.
    tau_max = max_stable_tau(L, h, StepSizeMode.MAXMIN)
    if tau > tau_max:
        m_min = int(math.ceil(alpha / tau_max))
        raise ValueError(
            f"tau = alpha/m = {tau:g} exceeds the stability bound {tau_max:g}; "
            f"use m >= {m_min}"
        )


def tikhonov_solve_oracle(f: Signal1D, alpha: float) -> Signal1D:
    """Exact minimiser for the quadratic regulariser psi(r) = r^2.

    Solves (u - f)/alpha = Lap(u) with the reflecting-boundary discrete
    Laplacian by a direct symmetric tridiagonal solve.  Independent of
    the explicit-step code path; used as a verification oracle.
    """
    from scipy.linalg import solveh_banded  # only this oracle needs scipy

    if not np.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    n = len(f)
    if n == 1:
        return f
    c = alpha / (f.h * f.h)
    ab = np.empty((2, n))
    ab[0, 0] = 0.0
    ab[0, 1:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[1, 0] = 1.0 + c
    ab[1, -1] = 1.0 + c
    u = solveh_banded(ab, f.values, lower=False)
    return Signal1D._wrap(u, f.h)
