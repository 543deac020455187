"""Sampled 1D signals on a uniform grid with reflecting boundaries.

A :class:`Signal1D` stores the samples and the grid size ``h``.  The
reflecting boundary condition is realised by index clamping
(``u[0] := u[1]`` and ``u[N+1] := u[N]``), which makes the one-sided
differences at the corresponding end exactly zero.  All operations here
are pure functions on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Signal1D:
    """A finite sampled signal: sample values plus grid size.

    Parameters
    ----------
    values : array_like
        Sample values, length N >= 1, all finite.
    h : float
        Grid size, > 0.
    """

    values: np.ndarray
    h: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("signal must be a 1D sequence with at least one sample")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal samples must be finite")
        h = float(self.h)
        if not np.isfinite(h) or h <= 0.0:
            raise ValueError(f"grid size must be positive and finite, got {h!r}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "h", h)

    def __len__(self):
        return self.values.size

    @classmethod
    def _wrap(cls, values, h):
        # Fast path for freshly computed arrays; skips validation and copy.
        sig = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(sig, "values", values)
        object.__setattr__(sig, "h", h)
        return sig


def _fdiff(x, h):
    # (x[i+1] - x[i]) / h, zero at the right end (clamped neighbour).
    v = np.empty_like(x)
    np.subtract(x[1:], x[:-1], out=v[:-1])
    v[-1] = 0.0
    if h != 1.0:
        v /= h
    return v


def forward_diff(u: Signal1D) -> Signal1D:
    """One-sided difference (u[i+1] - u[i]) / h; the last entry is zero."""
    return Signal1D._wrap(_fdiff(u.values, u.h), u.h)


def backward_diff(u: Signal1D) -> Signal1D:
    """One-sided difference (u[i] - u[i-1]) / h; the first entry is zero.

    It is the forward difference shifted right by one: the forward
    difference's zero at the right wall becomes the left wall's zero.
    """
    return Signal1D._wrap(np.roll(_fdiff(u.values, u.h), 1), u.h)
