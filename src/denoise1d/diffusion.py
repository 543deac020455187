"""Explicit scheme for 1D nonlinear diffusion and its step-size bounds.

One explicit step moves every sample by the difference of the flux
through its two cell interfaces,

    u_i <- u_i + (tau/h) * (phi(fd_i) - phi(bd_i)),

with fd/bd the clamped forward/backward differences.  Equivalently the
update is a conservation form: interface fluxes, with zero flux through
the reflecting walls, so the sample sum is preserved exactly up to
rounding.  Every method runs through the one state loop, ``_run``.  A
run that returns a signal finishes through the one drain, ``_last``,
defined here; ``denoise``, ``analyze`` and ``check_range_preservation``
drain through ``stability._observe``, which reads the report off each
state as it passes.

Every step here and in :mod:`.shrinkage`, and the divergence of
:mod:`.variational`, is one ``_interface_pass``: it evaluates one value
per interface on the clamped forward differences fd and moves each
sample by an ``update`` of the values at its two interfaces.  The left
neighbour of sample 0 is the last entry of every interface array: fd[-1]
is exactly 0.0, so phi(0) and S(0) are the wall values.  A pass over more
than ``_CHUNK`` samples runs through the one window loop, ``_windowed``,
so that each window's temporaries stay in cache; its windows run in up
to ``_WORKERS`` contiguous parts of at least ``_PART_WINDOWS`` windows at
once, the first on the caller's thread and each other on a thread that
the pass starts and waits for.  Each window reads a halo: the interface
pass steps x[a-1:b+1] (clamped to the signal) as a whole array and
writes [a, b) straight into the pass's output, so a seam's interface is
evaluated by both windows beside it.  Only evaluators that
:mod:`.nonlinearities` builds run on several threads at once; a pass
that calls any other runs in one part.

A run holds one state.  Its first step writes a fresh array, so the
caller's samples are never written; every later step overwrites the
state it reads, so a yielded state stays valid only until the next step.
To write in place, a pass over more than one window first computes what
a window would read from its neighbours' samples: the interface pass the
differences x[b] - x[b-1] across the window ends, a block
(:mod:`.blocks`) its output samples near them.  Each window then reads
only its own samples and those values, so the windows write in any
order, and in parts at once, without a race.  A run also binds its
scratch once: in one window its step reuses the temporaries it binds on
its first call, and the views x[1:] and x[:-1] of each array it reads
(the input, then the state), so a step at N <= ``_CHUNK`` is its ufunc
and evaluator calls.  Scratch ends with its run and never sits on a
RoleFunction or block, which threads may share.
"""

from __future__ import annotations

import _thread
import contextvars
import enum
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .nonlinearities import Role, RoleFunction, _is_reentrant, _largest_magnitude, estimate_lipschitz
from .signals import Signal1D, _fdiff

_LIPSCHITZ_SAMPLES = 200_001
# Samples per window of a step.  A window's temporaries (about 256 KiB)
# stay in L2 and on the heap, where whole-array temporaries at N = 2^20
# (8 MiB) are mapped fresh and page-faulted for every numpy operation.
_CHUNK = 1 << 15
# Parts a pass over more than one window runs in at once: one per usable
# CPU.  numpy releases the GIL inside each window's ufuncs.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# Fewest windows in a part.  Handing a part to another thread (starting
# it, passing the GIL) costs about what a few windows' work saves: on a
# 2-vCPU VM, N = 1e5 (4 windows) ran 10% slower in two parts, and 16 or
# more windows ran faster.
_PART_WINDOWS = 8
# Most steps one run may take.  A flat input diffused to T = 1e9 plans
# 4e9 steps; a plan past the budget raises before it takes a step, not
# hangs.
_STEP_BUDGET = 10_000_000


class StabilityViolation(Exception):
    """A plan breaks a stability bound or needs more steps than the budget."""


class StepSizeMode(enum.Enum):
    """Which stability notion the step-size bound guarantees."""

    MAXMIN = "maxmin"
    SIGN_STABLE = "sign-stable"


@dataclass(frozen=True)
class DiffusionPlan:
    """The step schedule actually used by :func:`diffuse`."""

    phi: RoleFunction
    tau: float
    steps: int
    h: float
    stopping_time: float  # steps * tau, exactly


def max_stable_tau(L: float, h: float, mode: StepSizeMode) -> float:
    """Largest admissible time step: h^2/(2L), halved for sign stability.

    ``mode`` is a :class:`StepSizeMode` or one of its values.
    """
    if not np.isfinite(L) or L <= 0.0:
        raise ValueError(f"Lipschitz constant must be positive, got {L!r}")
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"grid size must be positive, got {h!r}")
    bound = h * h / (2.0 * L)
    if StepSizeMode(mode) is StepSizeMode.SIGN_STABLE:
        bound /= 2.0
    return bound


def _windows(n):
    # Bounds (a, b) of the windows a pass over n samples runs in.  A pass
    # tests n <= _CHUNK itself first: one window then takes the
    # whole-array path, with no per-step loop or list.
    return [(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]


def _parts(n, *evaluators):
    # The windows of a pass over n samples in at most _WORKERS contiguous
    # parts of at least _PART_WINDOWS windows (or one part), as even as
    # whole windows allow.  A pass that calls an evaluator from outside
    # this package runs in one part, on the caller's thread.
    w = _windows(n)
    k = max(1, min(_WORKERS, len(w) // _PART_WINDOWS)) if all(map(_is_reentrant, evaluators)) else 1
    return [w[i * len(w) // k : (i + 1) * len(w) // k] for i in range(k)]


class _Part:
    # run(part) in a copy of the caller's context, on a thread of its own.
    # ``done`` is held until the part has ended.

    def __init__(self, run, part):
        self.context, self.run, self.part = contextvars.copy_context(), run, part
        self.error = None
        self.done = _thread.allocate_lock()
        self.done.acquire()

    def __call__(self):
        try:
            self.context.run(self.run, self.part)
        except BaseException as exc:  # raised by the caller, in part order
            self.error = exc
        finally:
            self.done.release()


def _run_parts(run, parts):
    # run(part) for each part, the first on the calling thread and each
    # other on a thread started for it, in a copy of the caller's context
    # (numpy's errstate lives there).  Every part started has ended before
    # this returns or raises, and the first failure in part order is raised,
    # so a forked child or a pass started inside a part needs no rule.
    # _thread.start_new_thread does not wait for the new thread to run, as
    # threading.Thread.start does: that form read long-signal 1.69e8
    # sample-steps/s against 1.75e8 on a 2-vCPU VM (10 pairs, 2 of 10 won).
    rest = []
    try:
        for p in parts[1:]:
            part = _Part(run, p)
            _thread.start_new_thread(part, ())
            rest.append(part)
        run(parts[0])
    finally:
        for part in rest:
            part.done.acquire()
    for part in rest:
        if part.error is not None:
            raise part.error


def _windowed(x, step, *evaluators, out=None):
    # The one window loop of a long pass: step(a, b, out[a:b]) writes each
    # window [a, b) of its output, a fresh array when out is None, in the
    # parts of _parts(x.size, *evaluators).
    out = np.empty_like(x) if out is None else out

    def run(windows):
        for a, b in windows:
            step(a, b, out[a:b])

    _run_parts(run, _parts(x.size, *evaluators))
    return out


def _interface_pass(h, interface, update):
    # The interface pass as a step of one run, x -> out (fresh when None, or
    # x).  update(y, fd, v, keep, out, div) writes into out the step of y,
    # the samples ``keep`` of x and the only ones it reads, with v =
    # interface(fd) the values at the samples' right interfaces and v[-1],
    # the wall's, the one left of sample 0, and its divergence into div.
    # Past _CHUNK, window [a, b) steps x[a-1:b+1] (clamped) into out[a:b].
    read = fd = div = head = right = left = None

    def step(x, out=None):
        nonlocal read, fd, div, head, right, left
        if x is not read:
            if x.size > _CHUNK:
                return _windowed_pass(h, interface, update, x, out)
            if fd is None or fd.size != x.size:
                fd, div = np.empty_like(x), np.empty_like(x)
                head = fd[:-1]
            read, right, left = x, x[1:], x[:-1]
        out = np.empty_like(x) if out is None else out
        np.subtract(right, left, head)  # _fdiff of x, into fd
        fd[-1] = 0.0
        if h != 1.0:
            fd /= h
        update(x, fd, interface(fd), ..., out, div)
        return out

    return step


def _windowed_pass(h, interface, update, x, out):
    n = x.size
    seams = np.subtract(x[_CHUNK::_CHUNK], x[_CHUNK - 1 : n - 1 : _CHUNK])  # x[b] - x[b-1]

    def step(a, b, out):
        # _fdiff of x[a-1:b+1]: the entries across the window's ends from
        # seams, the rest from the window's own samples.
        k, s, t, own = a // _CHUNK, int(a > 0), int(b < n), x[a:b]
        fd = np.empty(s + own.size + t)
        fd[:s] = seams[k - s : k]
        np.subtract(own[1:], own[:-1], out=fd[s : s + own.size - 1])
        fd[s + own.size - 1 : -1] = seams[k : k + t]
        fd[-1] = 0.0
        if h != 1.0:
            fd /= h
        update(own, fd, interface(fd), slice(s, s + own.size), out, None)

    return _windowed(x, step, interface, out=out)


def _divergence(w, h, negated=False, out=None):
    # Flux difference around each sample: w holds the fluxes through the
    # samples' right interfaces, and w[-1], the wall's, that into the first.
    # ``negated`` gives div(-w) as the reversed difference, bit for bit:
    # IEEE (-a) - (-b) is b - a, signed zeros included.  It has w's dtype
    # when that is a float, so that it scales in place; float64 otherwise:
    # into out when out has w's dtype, else into a fresh array.
    if out is None or out.dtype is not w.dtype:
        out = np.empty_like(w, dtype=None if w.dtype.kind == "f" else np.float64)
    if negated:
        out[0] = w[-1] - w[0]
        np.subtract(w[:-1], w[1:], out[1:])
    else:
        out[0] = w[0] - w[-1]
        np.subtract(w[1:], w[:-1], out[1:])
    if h != 1.0:
        out /= h
    return out


def _flux_update(tau, h):
    # The explicit step's update: x + tau * div(w), scaled in place and
    # added for the kept samples.
    def update(x, fd, w, keep, out, div):
        d = _divergence(w, h, out=div)
        d *= tau
        np.add(x, d[keep], out)

    return update


def _flux_pass(ev, tau, h):
    # The explicit step as an array -> array step of one run.
    return _interface_pass(h, ev, _flux_update(tau, h))


def _run(x, steps):
    # The one state loop of every method: the state after each step, in
    # turn.  The first step writes a fresh array, so x, the caller's, is
    # never written; every later step overwrites the state it reads, so a
    # run holds one state and a yielded state is valid until the next step.
    out = None
    for step in steps:
        x = out = step(x, out)
        yield x


def _states(x, phi, tau, m, h):
    # The flux run of m steps: one pass, which binds its scratch for the run.
    return _run(x, itertools.repeat(_flux_pass(phi.evaluator, tau, h), m))


def _last(states, f):
    # The one drain of a run: its last state as a Signal1D on f's grid,
    # f itself when the run takes no step.
    x = None
    for x in states:
        pass
    return f if x is None else Signal1D._wrap(x, f.h)


def explicit_step(u: Signal1D, phi: RoleFunction, tau: float) -> Signal1D:
    """One explicit diffusion step with activation/flux ``phi``.

    Stability is the caller's responsibility; see :func:`max_stable_tau`
    and :func:`diffuse`.
    """
    if phi.role is not Role.ACTIVATION:
        raise ValueError("explicit_step expects an activation function")
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"time step must be positive, got {tau!r}")
    return Signal1D._wrap(_flux_pass(phi.evaluator, tau, u.h)(u.values), u.h)


def _lipschitz(phi, f):
    # L of phi sampled on the initial gradient range of f, padded x2.
    # Not a bound: admissible steps took Perona-Malik to 2.10x, truncated BFB to 4.49x (ROADMAP item 1).
    x = f.values
    with np.errstate(over="ignore"):
        r = 2.0 * max(float(_largest_magnitude(_fdiff(x[a : b + 1], f.h))) for a, b in _windows(x.size))
    if not math.isfinite(2.0 * r):  # the span of the grid on [-r, r]
        raise ValueError("the input's gradients overflow float64; rescale the signal")
    L = estimate_lipschitz(phi, r if r > 0.0 else 1.0, _LIPSCHITZ_SAMPLES)
    if L == 0.0:  # the grid saw no slope, so it bounds no step
        raise StabilityViolation(f"{phi.provenance[0]} reads L = 0 on the input's gradient range")
    return L


def _check_budget(m):
    if m > _STEP_BUDGET:
        raise StabilityViolation(f"the run needs m = {m} steps, above the budget of {_STEP_BUDGET}")


def _fewest_steps(T, tau_max):
    # The smallest m with T/m within tau_max, for T > 0.  A tau_max of 0
    # (h^2/(2L) underflows) needs infinitely many.
    steps = T / tau_max if tau_max > 0.0 else math.inf
    if math.isinf(steps):
        raise ValueError(f"stopping time {T!r} needs a step count that overflows float64")
    m = max(1, int(math.ceil(steps)))  # T/tau_max can underflow to 0
    if T / m > tau_max:  # T/m can round one ulp above the bound
        m += 1
    return m


def _schedule(f, phi, T, mode):
    # (L, tau, m) of diffuse: the fewest steps within the bound, and
    # within the step budget.
    if not np.isfinite(T) or T < 0.0:
        raise ValueError(f"stopping time must be nonnegative, got {T!r}")
    L = _lipschitz(phi, f)
    tau_max = max_stable_tau(L, f.h, mode)
    if T == 0.0:
        return L, tau_max, 0
    m = _fewest_steps(T, tau_max)
    _check_budget(m)
    return L, T / m, m


def diffuse(
    f: Signal1D,
    phi: RoleFunction,
    T: float,
    mode: StepSizeMode = StepSizeMode.SIGN_STABLE,
):
    """Diffuse ``f`` to stopping time ``T`` with a stable uniform step.

    The Lipschitz constant of ``phi`` is estimated on the (padded)
    gradient range of ``f``; the step count is the smallest m with
    T/m below the bound for ``mode``, and all m steps use tau = T/m.
    A plan of more than ``_STEP_BUDGET`` steps raises
    :class:`StabilityViolation`, naming m, before any step is taken, and
    so does an estimate of L = 0, naming phi.

    Returns the filtered signal and the :class:`DiffusionPlan` used.
    """
    _, tau, m = _schedule(f, phi, T, mode)
    plan = DiffusionPlan(phi=phi, tau=tau, steps=m, h=f.h, stopping_time=m * tau)
    return _last(_states(f.values, phi, tau, m, f.h), f), plan
