"""Residual blocks with difference-stencil convolutions.

A block computes  u = sigma2(f + W2 sigma1(W1 f + b1) + b2)  where W1
and W2 are centred odd-length stencils.  Boundary handling follows the
conservation form of the explicit diffusion scheme: the inner stencil
W1 reads the signal through reflected (edge-clamped) ghost samples,
while the outer stencil W2 reads its input as interface fluxes, whose
ghosts at the reflecting walls are zero.  With the diffusion wiring
(W1 the forward difference, W2 tau times the backward difference,
sigma1 the flux function, sigma2 the identity, no biases) a block
reproduces one explicit diffusion step to rounding.

Past ``diffusion._CHUNK`` samples a block runs in the windows and parts
of ``diffusion._parts``, not by the ring rule of the ``diffusion``
docstring: each window reads its input with a halo of p1 + p2 samples
(p the half-width of a stencil), which carries what it needs from its
neighbours: sigma1 is evaluated on the window's inner values plus p2 on
each side, so halo values are computed by both windows that read them,
and the windows are independent.  The windows run in parts on several
threads only when sigma1 and sigma2 are both built by this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import diffusion
from .diffusion import _last
from .nonlinearities import SQRT2, Role, RoleFunction, _reentrant
from .signals import Signal1D


@_reentrant
def _identity(r):
    return r


def _as_stencil(w):
    k = np.asarray(w, dtype=np.float64)
    if k.ndim != 1 or k.size % 2 == 0:
        raise ValueError("stencil must be a centred odd-length kernel")
    if not np.all(np.isfinite(k)):
        raise ValueError("stencil weights must be finite")
    return k


def _as_bias(b):
    bb = np.asarray(b, dtype=np.float64)
    if bb.ndim != 1:
        raise ValueError("bias must be a 1D sequence (empty for none)")
    if bb.size and not np.all(np.isfinite(bb)):
        raise ValueError("bias entries must be finite")
    return bb


def _correlate(x, taps, p, left, right, edge):
    # Centred correlation over the nonzero taps only, summed in stencil
    # order, of x read with ``left`` and ``right`` ghost samples past its
    # ends.  Ghosts are edge-clamped (reflecting samples) or zero
    # (reflecting walls seen by a flux array), depending on ``edge``.
    m = x.size
    xp = np.empty(left + m + right)
    xp[left : left + m] = x
    xp[:left] = x[0] if edge else 0.0
    xp[left + m :] = x[-1] if edge else 0.0
    n = left + m + right - 2 * p
    out = None
    for j, kj in taps:
        term = kj * xp[j : j + n]
        if out is None:
            out = term
        else:
            out += term
    return np.zeros(n) if out is None else out


def _nonzero_taps(k):
    return tuple((j, float(kj)) for j, kj in enumerate(k) if kj != 0.0)


@dataclass(frozen=True, eq=False)
class ResidualBlock:
    """One residual block (W1, sigma1, b1, W2, sigma2, b2)."""

    w1: np.ndarray
    sigma1: Callable
    w2: np.ndarray
    sigma2: Callable = _identity
    b1: np.ndarray = field(default_factory=lambda: np.empty(0))
    b2: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        object.__setattr__(self, "w1", _as_stencil(self.w1))
        object.__setattr__(self, "w2", _as_stencil(self.w2))
        object.__setattr__(self, "b1", _as_bias(self.b1))
        object.__setattr__(self, "b2", _as_bias(self.b2))
        object.__setattr__(self, "_taps1", _nonzero_taps(self.w1))
        object.__setattr__(self, "_taps2", _nonzero_taps(self.w2))
        object.__setattr__(self, "_p1", self.w1.size // 2)
        object.__setattr__(self, "_p2", self.w2.size // 2)


def apply_block(block: ResidualBlock, f: Signal1D) -> Signal1D:
    """Evaluate the block on a signal."""
    return Signal1D._wrap(_apply(block, f.values), f.h)


def _apply(block, x):
    # apply_block on raw samples.
    for b in (block.b1, block.b2):
        if b.size and b.size != x.size:
            raise ValueError(f"bias length {b.size} does not match signal length {x.size}")
    n, p1, p2 = x.size, block._p1, block._p2
    if n <= diffusion._CHUNK:
        return np.asarray(_residual(block, x, p1, p1, p2, p2, block.b1, block.b2, x), dtype=np.float64)
    out = np.empty_like(x)

    def part(windows):
        for a, b in windows:
            # The outer stencil reads inner values over [a - p2, b + p2); those
            # in [lo, hi) lie in the signal and read x over [s, t) plus ghosts.
            lo, hi = max(a - p2, 0), min(b + p2, n)
            s, t = max(lo - p1, 0), min(hi + p1, n)
            out[a:b] = _residual(
                block, x[s:t], s - lo + p1, hi + p1 - t, lo - a + p2, b + p2 - hi,
                block.b1[lo:hi], block.b2[a:b], x[a:b],
            )

    diffusion._run_parts(part, diffusion._parts(n, block.sigma1, block.sigma2))
    return out


def _residual(block, x_in, l1, r1, l2, r2, b1, b2, x_out):
    # The block on one window: W1 reads x_in with l1 and r1 edge-clamped
    # ghosts, W2 reads sigma1's values with l2 and r2 zero ghosts, and the
    # skip connection adds x_out.  Empty biases are skipped.
    inner = _correlate(x_in, block._taps1, block._p1, l1, r1, edge=True)
    if b1.size:
        inner += b1
    mid = block.sigma1(inner)
    outer = _correlate(mid, block._taps2, block._p2, l2, r2, edge=False)
    if b2.size:
        outer += b2
    return block.sigma2(x_out + outer)


def make_diffusion_block(phi: RoleFunction, tau: float, h: float) -> ResidualBlock:
    """Residual block equivalent to one explicit diffusion step.

    W1 is the forward-difference stencil (1/h)[0,-1,1], W2 the scaled
    backward-difference stencil (tau/h)[-1,1,0], sigma1 the flux
    function, sigma2 the identity, and both biases are zero.
    """
    if phi.role is not Role.ACTIVATION:
        raise ValueError("diffusion blocks take an activation function")
    if not np.isfinite(tau) or tau < 0.0:
        raise ValueError(f"time step must be nonnegative, got {tau!r}")
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"grid size must be positive, got {h!r}")
    return ResidualBlock(
        w1=np.array([0.0, -1.0 / h, 1.0 / h]),
        sigma1=phi.evaluator,
        w2=np.array([-tau / h, tau / h, 0.0]),
    )


def chain(blocks, f: Signal1D) -> Signal1D:
    """Left-to-right composition of blocks; an empty chain is the identity."""
    return _last(_chain_states(blocks, f.values), f)


def _chain_states(blocks, x):
    # The block loop: yields the state after each block.
    for block in blocks:
        x = _apply(block, x)
        yield x


@_reentrant
def relu(r):
    """max(0, r), elementwise."""
    return np.maximum(r, 0.0)


def truncated_tv_via_relu(theta: float, r):
    """The truncated total-variation activation written with two ReLUs:
    r - ReLU(r - sqrt(2)*theta) + ReLU(-r - sqrt(2)*theta)."""
    if not np.isfinite(theta) or theta <= 0.0:
        raise ValueError(f"threshold must be positive, got {theta!r}")
    c = SQRT2 * theta
    return r - relu(r - c) + relu(-r - c)
