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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diffusion import _last
from .nonlinearities import SQRT2, Role, RoleFunction
from .signals import Signal1D


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


def _conv(x, taps, p, edge):
    # Centred correlation over the nonzero taps only.  Ghost samples are
    # edge-clamped (reflecting samples) or zero (reflecting walls seen by
    # a flux array), depending on ``edge``.
    n = x.size
    xp = np.empty(n + 2 * p)
    xp[p : p + n] = x
    xp[:p] = x[0] if edge else 0.0
    xp[p + n :] = x[-1] if edge else 0.0
    out = None
    for j, kj in taps:
        term = kj * xp[j : j + n]
        if out is None:
            out = term
        else:
            out += term
    return np.zeros_like(x) if out is None else out


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
    inner = _conv(x, block._taps1, block._p1, edge=True)
    if block.b1.size:
        inner += block.b1
    mid = block.sigma1(inner)
    outer = _conv(mid, block._taps2, block._p2, edge=False)
    if block.b2.size:
        outer += block.b2
    return np.asarray(block.sigma2(x + outer), dtype=np.float64)


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
    x = _last(_chain_states(blocks, f.values), None)
    return f if x is None else Signal1D._wrap(x, f.h)


def _chain_states(blocks, x):
    # The block loop: yields the state after each block.
    for block in blocks:
        x = _apply(block, x)
        yield x


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
