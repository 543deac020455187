"""Shift-invariant single-scale Haar wavelet shrinkage.

Every adjacent sample pair (a, b) is analysed into a scaling
coefficient s = (a+b)/sqrt(2) and a wavelet coefficient
w = (b-a)/sqrt(2); the shrinkage function is applied to w only, and the
pair is synthesised back.  Averaging each sample's two reconstructions
(cycle spinning over the two pairings, with reflected phantom pairs of
zero wavelet coefficient at the ends) gives one shift-invariant step.

The step is implemented once, as a closed-form update; the tests keep
the literal analyse/shrink/synthesise/average path as an independent
cross-check of its algebra.  The closed form evaluates the shrinkage
function once per interface, on the N values fd/sqrt(2): the backward
difference is the forward difference shifted by one, and the clamped
forward difference is zero at the right wall, so its last value S(0)
is also the wall value the backward side needs.  Grid size 1
is required; the pairing of neighbouring samples has no scale parameter.

The step is an update of ``diffusion._interface_pass``, whose module
docstring states the halo rule of long passes: past one window, S is
evaluated on N + 2*(windows - 1) values.  :func:`iterate_shrinkage` runs
the step through ``diffusion._run``, the one state loop.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .diffusion import _interface_pass, _last, _run
from .nonlinearities import SQRT2, Role, RoleFunction, _reentrant_if
from .signals import Signal1D


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


def _haar_update(x, fd, s):
    # Closed form of the cycle-spun step:
    #   u + (fd - bd)/4 + (S(bd/sqrt2) - S(fd/sqrt2)) / (2 sqrt2)
    # with clamped differences, which is exactly the average of each
    # sample's two pair reconstructions.  fd and s = S(fd/sqrt2) belong to
    # the samples' right interfaces, and their last entries, the wall's, to
    # the interface left of the first, so bd and S(bd/sqrt2) are fd and s
    # rotated right by one.  Each entry below is the same scalar
    # subtraction as in fd - bd and S(bd/sqrt2) - S(fd/sqrt2).
    d = np.empty_like(fd)  # fd - bd
    d[0] = fd[0] - fd[-1]
    np.subtract(fd[1:], fd[:-1], out=d[1:])
    e = np.empty_like(s)  # S(bd/sqrt2) - S(fd/sqrt2)
    e[0] = s[-1] - s[0]
    np.subtract(s[:-1], s[1:], out=e[1:])
    return x + 0.25 * d + e / (2.0 * SQRT2)


def _haar_interface(ev):
    # S once per interface, on fd/sqrt2; S(0), its last value, is the wall's.
    # Reentrant when ev is.
    return _reentrant_if(lambda fd: ev(fd / SQRT2), ev)


def _haar_pass(ev):
    # The shrinkage step as an array -> array step of diffusion._run.
    return functools.partial(_interface_pass, 1.0, _haar_interface(ev), _haar_update)


def _shift_invariant_values(x, ev):
    return _haar_pass(ev)(x)


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
    return _last(_run(f.values, itertools.repeat(_haar_pass(shrink.evaluator), m)), f)
