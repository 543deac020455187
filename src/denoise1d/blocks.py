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

Past ``diffusion._CHUNK`` samples a block runs in the window loop of
every long pass, ``diffusion._windowed``, and may write into its own
input.  An output sample reads the input within q = p1 + p2 of it (p the
half-width of a stencil).  So before the pass the block computes its
samples within q of every window end, in one array with one column per
end (``_seams``); each window then computes its samples at least q from
its ends from its own samples alone, and the end samples are written
after the last window.  The windows run in parts on several threads only
when sigma1 and sigma2 are both built by this package.  :func:`chain`
runs one block after another through ``diffusion._run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import diffusion
from .diffusion import _last, _run
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
    # order, along the first axis of x, read with ``left`` and ``right``
    # ghost samples past its ends (x 1D when there are any).  Ghosts are
    # edge-clamped (reflecting samples) or zero (reflecting walls seen by a
    # flux array), depending on ``edge``.
    m = len(x)
    xp = x
    if left or right:  # a window inside the signal reads no ghost
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
    return np.zeros((n,) + x.shape[1:]) if out is None else out


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


def _apply(block, x, out=None):
    # apply_block on raw samples, into out: a fresh array when None, or x
    # itself.
    for b in (block.b1, block.b2):
        if b.size and b.size != x.size:
            raise ValueError(f"bias length {b.size} does not match signal length {x.size}")
    n, p1, p2 = x.size, block._p1, block._p2
    if n <= diffusion._CHUNK:
        out = np.empty_like(x) if out is None else out
        _residual(block, x, p1, p1, p2, p2, block.b1, block.b2, x, out)
        return out
    q = p1 + p2
    at, values = _seams(block, x)

    def step(a, b, out):
        # The samples at least q from the window's ends read only its own.
        if b - a > 2 * q:
            _residual(
                block, x[a:b], 0, 0, 0, 0, block.b1[a + p1 : b - p1], block.b2[a + q : b - q],
                x[a + q : b - q], out[q : b - a - q],
            )

    out = diffusion._windowed(x, step, block.sigma1, block.sigma2, out=out)
    out[at] = values
    return out


def _seams(block, x):
    # The block's samples within q = p1 + p2 of each window end e, as
    # (indices, values), computed before a pass writes into x, one column
    # per end: the arithmetic of _residual, with W1 reading x edge-clamped
    # and W2 reading zeros past the walls (sigma1's values there, on clamped
    # samples, are dropped).  The evaluators see 1D arrays.
    n, p1, p2 = x.size, block._p1, block._p2
    q, ends = p1 + p2, [*range(0, n, diffusion._CHUNK), n]
    at = np.add.outer(np.arange(-q, q), ends)
    centres = np.add.outer(np.arange(-q - p2, q + p2), ends)  # those W2 reads
    reads = x.take(np.add.outer(np.arange(-q - p2 - p1, q + p2 + p1), ends), mode="clip")
    inner = _correlate(reads, block._taps1, p1, 0, 0, edge=True)
    if block.b1.size:
        inner += block.b1.take(centres, mode="clip")
    mid = np.asarray(block.sigma1(inner.ravel()), dtype=np.float64).reshape(inner.shape)
    mid[(centres < 0) | (centres >= n)] = 0.0
    outer = _correlate(mid, block._taps2, p2, 0, 0, edge=False)
    if block.b2.size:
        outer += block.b2.take(at, mode="clip")
    outer += x.take(at, mode="clip")
    inside = (at >= 0) & (at < n)
    return at[inside], np.asarray(block.sigma2(outer.ravel())).reshape(at.shape)[inside]


def _residual(block, x_in, l1, r1, l2, r2, b1, b2, x_out, out):
    # The block on one window, into out: W1 reads x_in with l1 and r1
    # edge-clamped ghosts, W2 reads sigma1's values, as float64, with l2 and
    # r2 zero ghosts, and the skip connection adds x_out.  Empty biases are
    # skipped.
    inner = _correlate(x_in, block._taps1, block._p1, l1, r1, edge=True)
    if b1.size:
        inner += b1
    mid = np.asarray(block.sigma1(inner), dtype=np.float64)
    outer = _correlate(mid, block._taps2, block._p2, l2, r2, edge=False)
    if b2.size:
        outer += b2
    outer += x_out
    out[...] = block.sigma2(outer)


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
    # One step per block: _apply bound to the block as a method, which
    # costs no Python frame of its own.
    return _last(_run(f.values, map(_apply.__get__, blocks)), f)


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
