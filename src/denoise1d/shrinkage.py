"""Shift-invariant single-scale Haar wavelet shrinkage.

Every adjacent sample pair (a, b) is analysed into a scaling
coefficient s = (a+b)/sqrt(2) and a wavelet coefficient
w = (b-a)/sqrt(2); the shrinkage function is applied to w only, and the
pair is synthesised back.  Averaging each sample's two reconstructions
(cycle spinning over the two pairings, with reflected phantom pairs of
zero wavelet coefficient at the ends) gives one shift-invariant step.

The step is implemented once, as a closed-form update, and that update
is two flux divergences of the diffusion step (``diffusion._divergence``):

    u + div(fd)/4 + div(-S(fd/sqrt2))/(2 sqrt2),

with fd the clamped forward differences.  The tests keep the literal
analyse/shrink/synthesise/average path as an independent cross-check of
its algebra.  The closed form evaluates the shrinkage function once per
interface, on the N values fd/sqrt(2): the backward difference is the
forward difference shifted by one, and the clamped forward difference is
zero at the right wall, so its last value S(0) is also the wall value
the backward side needs.  Grid size 1 is required; the pairing of
neighbouring samples has no scale parameter.

The step is an update of ``diffusion._interface_pass``, whose module
docstring states the halo rule of long passes: past one window, S is
evaluated on N + 2*(windows - 1) values.  :func:`iterate_shrinkage` runs
the step through ``diffusion._run``, the one state loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diffusion import _divergence, _flux_update, _interface_pass, _last, _run
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


# u + div(fd)/4: the flux update of phi(r) = r at tau 1/4.
_identity_step = _flux_update(0.25, 1.0)


def _haar_update(x, fd, s, keep, out, div):
    # Closed form of the cycle-spun step as two flux divergences,
    #   u + div(fd)/4 + div(-s)/(2 sqrt2),  s = S(fd/sqrt2),
    # that is u + (fd - bd)/4 + (S(bd/sqrt2) - S(fd/sqrt2)) / (2 sqrt2) with
    # clamped differences: exactly the average of each sample's two pair
    # reconstructions.  div(-s) is S(bd/sqrt2) - S(fd/sqrt2) bit for bit, with
    # no negation of s; subtracting div(s) would turn a 0.0 into -0.0
    # ([-5e-324, -0.0, 0.0]).  div(fd) is added before div(-s) reuses div.
    _identity_step(x, fd, fd, keep, out, div)
    e = _divergence(s, 1.0, negated=True, out=div)
    e /= 2.0 * SQRT2
    out += e[keep]


def _haar_interface(ev):
    # S once per interface, on fd/sqrt2; S(0), its last value, is the wall's.
    # Reentrant when ev is.
    return _reentrant_if(lambda fd: ev(fd / SQRT2), ev)


def _haar_pass(ev):
    # The shrinkage step as an array -> array step of one run.
    return _interface_pass(1.0, _haar_interface(ev), _haar_update)


def _require_unit_grid(h):
    if h != 1.0:
        raise ValueError(f"shift-invariant Haar shrinkage requires h = 1, got h = {h!r}")


def shift_invariant_step(u: Signal1D, shrink: RoleFunction) -> Signal1D:
    """One cycle-spun Haar shrinkage step (grid size 1 only)."""
    if shrink.role is not Role.SHRINKAGE:
        raise ValueError("shift_invariant_step expects a shrinkage function")
    _require_unit_grid(u.h)
    return Signal1D._wrap(_haar_pass(shrink.evaluator)(u.values), 1.0)


def iterate_shrinkage(f: Signal1D, shrink: RoleFunction, m: int) -> Signal1D:
    """m-fold composition of :func:`shift_invariant_step`."""
    if m < 0:
        raise ValueError(f"step count must be nonnegative, got {m!r}")
    if shrink.role is not Role.SHRINKAGE:
        raise ValueError("iterate_shrinkage expects a shrinkage function")
    _require_unit_grid(f.h)
    return _last(_run(f.values, itertools.repeat(_haar_pass(shrink.evaluator), m)), f)
