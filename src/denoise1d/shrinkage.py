"""Shift-invariant single-scale Haar wavelet shrinkage.

Every adjacent sample pair (a, b) is analysed into a scaling
coefficient s = (a+b)/sqrt(2) and a wavelet coefficient
w = (b-a)/sqrt(2); the shrinkage function is applied to w only, and the
pair is synthesised back.  Averaging each sample's two reconstructions
(cycle spinning over the two pairings, with reflected phantom pairs of
zero wavelet coefficient at the ends) gives one shift-invariant step.

The step is implemented twice: a closed-form update used everywhere,
and the literal analyse/shrink/synthesise/average path kept as an
independent cross-check of the algebra.  Grid size 1 is required; the
pairing of neighbouring samples has no scale parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import _last
from .nonlinearities import SQRT2, Role, RoleFunction
from .signals import Signal1D, _bdiff, _fdiff


@dataclass(frozen=True)
class HaarPair:
    """Orthonormal Haar coefficients of one adjacent sample pair."""

    scaling: float
    wavelet: float

    @classmethod
    def from_samples(cls, a, b):
        return cls(scaling=(a + b) / SQRT2, wavelet=(b - a) / SQRT2)


def shrink_pair(a: float, b: float, shrink: RoleFunction):
    """Analyse the pair, shrink the wavelet coefficient, synthesise back."""
    if shrink.role is not Role.SHRINKAGE:
        raise ValueError("shrink_pair expects a shrinkage function")
    s = (a + b) / SQRT2
    w = (b - a) / SQRT2
    sw = float(shrink(w))
    return (s - sw) / SQRT2, (s + sw) / SQRT2


def _shift_invariant_values(x, ev):
    # Closed form of the cycle-spun step:
    #   u + (fd - bd)/4 + (S(bd/sqrt2) - S(fd/sqrt2)) / (2 sqrt2)
    # with clamped differences, which is exactly the average of each
    # sample's two pair reconstructions.
    fd = _fdiff(x, 1.0)
    bd = _bdiff(x, 1.0)
    shrunk = ev(np.stack((bd, fd)) / SQRT2)
    return x + 0.25 * (fd - bd) + (shrunk[0] - shrunk[1]) / (2.0 * SQRT2)


def _shift_invariant_by_pairs(x, ev):
    # Reference path: explicit reconstructions from both pairings.
    n = x.size
    s = (x[:-1] + x[1:]) / SQRT2
    w = (x[1:] - x[:-1]) / SQRT2
    sw = ev(w)
    left = (s - sw) / SQRT2   # reconstruction of the pair's left member
    right = (s + sw) / SQRT2  # reconstruction of the pair's right member
    s0 = float(ev(np.float64(0.0)))  # phantom pairs carry a zero wavelet coeff
    out = np.empty_like(x)
    if n == 1:
        out[0] = x[0]
        return out
    out[0] = (x[0] + s0 / SQRT2 + left[0]) / 2.0
    out[-1] = (right[-1] + x[-1] - s0 / SQRT2) / 2.0
    if n > 2:
        out[1:-1] = (right[:-1] + left[1:]) / 2.0
    return out


def _require_unit_grid(h):
    if h != 1.0:
        raise ValueError(f"shift-invariant Haar shrinkage requires h = 1, got h = {h!r}")


def shift_invariant_step(u: Signal1D, shrink: RoleFunction) -> Signal1D:
    """One cycle-spun Haar shrinkage step (grid size 1 only)."""
    if shrink.role is not Role.SHRINKAGE:
        raise ValueError("shift_invariant_step expects a shrinkage function")
    _require_unit_grid(u.h)
    return Signal1D._wrap(_shift_invariant_values(u.values, shrink.evaluator), 1.0)


def iterate_shrinkage(f: Signal1D, shrink: RoleFunction, m: int) -> Signal1D:
    """m-fold composition of :func:`shift_invariant_step`."""
    if m < 0:
        raise ValueError(f"step count must be nonnegative, got {m!r}")
    if shrink.role is not Role.SHRINKAGE:
        raise ValueError("iterate_shrinkage expects a shrinkage function")
    _require_unit_grid(f.h)
    x = _last(_shrink_states(f.values, shrink.evaluator, m), None)
    return f if x is None else Signal1D._wrap(x, 1.0)


def _shrink_states(x, ev, m):
    # The shrinkage loop: yields each of the m states after x.
    for _ in range(m):
        x = _shift_invariant_values(x, ev)
        yield x
