"""First-order variational denoising and its diffusion approximation.

The discrete energy is

    E(u) = h * sum (u_i - f_i)^2  +  alpha * h * sum psi(fd_i)

with the clamped forward differences of :mod:`.signals` (the last
difference is zero).  Its minimiser satisfies a discrete
Euler-Lagrange equation whose right-hand side is the same flux
divergence as one explicit diffusion step with phi = psi'/2, so the
energy can be attacked by running that diffusion flow to time alpha.
For the quadratic (Whittaker-Tikhonov) regulariser the module also
ships an exact spectral solve as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import StepSizeMode, _divergence, _fewest_steps, _interface_pass, _last, _lipschitz
from .diffusion import _states, max_stable_tau
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


def _divergence_of(u, spec):
    # div(psi'(fd u)/2): the interface pass with the divergence as update.
    ev = translate(spec.psi, Role.ACTIVATION).evaluator

    def update(x, fd, w, keep, out, div):
        np.copyto(out, _divergence(w, u.h, out=div)[keep])

    return _interface_pass(u.h, ev, update)(u.values)


def euler_lagrange_residual(u: Signal1D, f: Signal1D, spec: EnergySpec) -> Signal1D:
    """Pointwise residual (u - f)/alpha - div(psi'(fd u)/2).

    Zero (up to the derivative tolerance) exactly at energy minimisers.
    """
    _check_pair(u, f)
    div = _divergence_of(u, spec)
    r = (u.values - f.values) / spec.alpha - div
    return Signal1D._wrap(r, u.h)


def energy_gradient(u: Signal1D, f: Signal1D, spec: EnergySpec) -> np.ndarray:
    """Analytic gradient of :func:`discrete_energy` with respect to u."""
    _check_pair(u, f)
    div = _divergence_of(u, spec)
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
    tau_max = max_stable_tau(_lipschitz(phi, f), f.h, StepSizeMode.MAXMIN)
    if tau > tau_max:
        raise ValueError(
            f"tau = alpha/m = {tau:g} exceeds the stability bound {tau_max:g}; "
            f"use m >= {_fewest_steps(spec.alpha, tau_max)}"
        )
    return _last(_states(f.values, phi, tau, m, f.h), f)


def tikhonov_solve_oracle(f: Signal1D, alpha: float) -> Signal1D:
    """Exact minimiser for the quadratic regulariser psi(r) = r^2.

    Solves (u - f)/alpha = Lap(u) with the reflecting-boundary discrete
    Laplacian in its eigenbasis: the real FFT of the even extension
    [f, f reversed] diagonalises -Lap, eigenvalues (2 - 2 cos(pi k/N))/h^2.
    Independent of the explicit-step code path; a verification oracle.
    """
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    n = len(f)
    if n == 1:
        return f
    c = alpha / (f.h * f.h)
    spectrum = np.fft.rfft(np.concatenate((f.values, f.values[::-1])))
    spectrum /= 1.0 + c * (2.0 - 2.0 * np.cos(np.pi / n * np.arange(n + 1)))
    u = np.fft.irfft(spectrum, 2 * n)[:n].copy()  # not a view that holds 2N samples
    return Signal1D._wrap(u, f.h)
