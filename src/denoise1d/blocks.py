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

import functools
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


def _reads(xp, taps, n):
    # The (weight, view) pairs of n outputs along xp's first axis; no tap reads one zero.
    reads = []
    for j, kj in taps:  # cheaper than a comprehension for a stencil's few taps
        reads.append((kj, xp[j : j + n]))
    return reads or [(0.0, np.zeros((n,) + xp.shape[1:]))]


def _tap_sum(reads, out=None, term=None):
    # The correlation, summed in stencil order into out, term for each later product.
    total = None
    for kj, r in reads:
        if total is None:
            total = np.multiply(kj, r, out)
        else:
            total += np.multiply(kj, r, term)
    return total


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
    # apply_block on raw samples, into out: a fresh array when None, or x.
    return _block_step(block, x.size, {})(x, out)


def _block_step(block, n, scratch):
    # One run's step over n samples: in one window, _residual bound to ``scratch``, shared by blocks of one shape.
    for b in (block.b1, block.b2):
        if b.size and b.size != n:
            raise ValueError(f"bias length {b.size} does not match signal length {n}")
    p1, p2 = block._p1, block._p2
    if n > diffusion._CHUNK:
        return functools.partial(_apply_windowed, block)
    clamp, pad1, pad2, acc, term = scratch.setdefault(
        (p1, p2), (np.arange(-p1, n + p1), np.empty(n + 2 * p1), np.zeros(n + 2 * p2), np.empty(n), np.empty(n))
    )
    reads1, inside2, reads2 = _reads(pad1, block._taps1, n), pad2[p2 : p2 + n], _reads(pad2, block._taps2, n)
    return functools.partial(_residual, block, clamp, pad1, reads1, block.b1, inside2, reads2, block.b2, acc, term)


def _apply_windowed(block, x, out=None):
    p1, p2 = block._p1, block._p2
    q = p1 + p2
    at, values = _seams(block, x)

    def step(a, b, out):
        # The samples at least q from the window's ends read only its own.
        if b - a > 2 * q:
            _residual(
                block, None, None, _reads(x[a:b], block._taps1, b - a - 2 * p1), block.b1[a + p1 : b - p1],
                None, None, block.b2[a + q : b - q], None, None, x[a + q : b - q], out[q : b - a - q],
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
    inner = _tap_sum(_reads(reads, block._taps1, reads.shape[0] - 2 * p1))
    if block.b1.size:
        inner += block.b1.take(centres, mode="clip")
    mid = np.asarray(block.sigma1(inner.ravel()), dtype=np.float64).reshape(inner.shape)
    mid[(centres < 0) | (centres >= n)] = 0.0
    outer = _tap_sum(_reads(mid, block._taps2, mid.shape[0] - 2 * p2))
    if block.b2.size:
        outer += block.b2.take(at, mode="clip")
    outer += x.take(at, mode="clip")
    inside = (at >= 0) & (at < n)
    return at[inside], np.asarray(block.sigma2(outer.ravel())).reshape(at.shape)[inside]


def _residual(block, clamp, pad1, reads1, b1, inside2, reads2, b2, acc, term, x, out=None):
    # The block into out (fresh when None), x its skip connection: W1 sums reads1, W2 sums reads2
    # over sigma1's values as float64, into acc with term (fresh when None); empty biases are skipped.
    # In one window, pad1 (which reads1 views) gets x edge-clamped, and inside2, the middle of the
    # zero-walled copy reads2 views, sigma1's values.
    if clamp is not None:
        x.take(clamp, None, pad1, "clip")
    inner = _tap_sum(reads1, acc, term)
    if b1.size:
        inner += b1
    mid = np.asarray(block.sigma1(inner), dtype=np.float64)
    if inside2 is None:
        reads2 = _reads(mid, block._taps2, mid.size - 2 * block._p2)
    else:
        inside2[...] = mid
    outer = _tap_sum(reads2, acc, term)
    if b2.size:
        outer += b2
    outer += x
    out = np.empty_like(x) if out is None else out
    out[...] = block.sigma2(outer)
    return out


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
    # One step per distinct block, bound for the run.
    n, scratch = len(f), {}
    return _last(_run(f.values, map(functools.cache(lambda b: _block_step(b, n, scratch)), blocks)), f)


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
