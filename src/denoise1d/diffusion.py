"""Explicit scheme for 1D nonlinear diffusion and its step-size bounds.

One explicit step moves every sample by the difference of the flux
through its two cell interfaces,

    u_i <- u_i + (tau/h) * (phi(fd_i) - phi(bd_i)),

with fd/bd the clamped forward/backward differences.  Equivalently the
update is a conservation form: interface fluxes, with zero flux through
the reflecting walls, so the sample sum is preserved exactly up to
rounding.  Each method has its own state generator, and every run
finishes through the one drain, ``_last``, defined here.

Every step here and in :mod:`.shrinkage`, and the divergence of
:mod:`.variational`, is one ``_interface_pass``: it evaluates one value
per interface on the clamped forward differences fd and moves each
sample by an ``update`` of the values at its two interfaces.  The left
neighbour of sample 0 is the last entry of every interface array: fd[-1]
is exactly 0.0, so phi(0) and S(0) are the wall values.  A pass over more
than ``_CHUNK`` samples runs window by window, so that each window's
temporaries stay in cache, and its windows run in up to ``_WORKERS``
contiguous parts of at least ``_PART_WINDOWS`` windows at once.  Within a
part, a window carries its left interface's values from the one before.
The parts form a ring closed by the wall: once all have run, the first
sample of each part is finished with the last values of the part before
it, and the part before part 0 is the last part, whose last values are
the wall values.  One part is the serial pass.  Only evaluators that
:mod:`.nonlinearities` builds run on several threads at once; a pass
that calls any other runs in one part.
"""

from __future__ import annotations

import collections
import contextvars
import enum
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .nonlinearities import Role, RoleFunction, _is_reentrant, estimate_lipschitz
from .signals import Signal1D, _fdiff

_LIPSCHITZ_SAMPLES = 200_001
# Samples per window of a step.  A window's temporaries (about 256 KiB)
# stay in L2 and on the heap, where whole-array temporaries at N = 2^20
# (8 MiB) are mapped fresh and page-faulted for every numpy operation.
_CHUNK = 1 << 15
# Parts a pass over more than one window runs in at once: one per usable
# CPU.  numpy releases the GIL inside each window's ufuncs.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# Fewest windows in a part.  Handing a part to a pool thread (waking it,
# passing the GIL) costs about what a few windows' work saves: on a 2-vCPU
# VM, N = 1e5 (4 windows) ran 10% slower in two parts, and 16 or more
# windows ran faster.
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
    """Largest admissible time step: h^2/(2L), halved for sign stability."""
    if not np.isfinite(L) or L <= 0.0:
        raise ValueError(f"Lipschitz constant must be positive, got {L!r}")
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"grid size must be positive, got {h!r}")
    bound = h * h / (2.0 * L)
    if mode is StepSizeMode.SIGN_STABLE:
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
    # run(part) in a copy of the caller's context, for a pool thread.
    # ``done`` is held until the part has ended.

    def __init__(self, run, part):
        self.context, self.run, self.part = contextvars.copy_context(), run, part
        self.value = self.error = None
        self.done = threading.Lock()
        self.done.acquire()

    def __call__(self):
        try:
            self.value = self.context.run(self.run, self.part)
        except BaseException as exc:  # raised by the caller, in part order
            self.error = exc
        finally:
            self.done.release()


class _Pool:
    # Daemon threads that run the parts put to them, first in first out;
    # ``put`` is called on the caller's thread, whose context it copies.
    # It starts a thread only when a pass has more parts beyond its first
    # than the pool has threads.

    def __init__(self):
        self.parts = collections.deque()
        self.queued = threading.Semaphore(0)
        self.threads = 0

    def grow(self, threads):
        for i in range(self.threads, threads):
            threading.Thread(target=self._serve, name=f"denoise1d-part-{i}", daemon=True).start()
        self.threads = max(self.threads, threads)

    def _serve(self):
        _on_pool.thread = True
        while True:
            self.queued.acquire()
            self.parts.popleft()()

    def put(self, run, part):
        job = _Part(run, part)
        self.parts.append(job)
        self.queued.release()
        return job


_pool = None
_pool_lock = threading.Lock()
_on_pool = threading.local()


def _pool_of(threads):
    # The pool, grown to at least ``threads`` threads; made on the first
    # pass with two parts, from threading alone.  A module first imported in
    # the middle of a run (concurrent.futures) leaves lasting allocations at
    # the heap's top, between the long arrays, which then no longer fit the
    # holes they leave.
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _Pool()
        _pool.grow(threads)
    return _pool


def _forget_pool():
    # A forked child has none of its parent's pool threads, and its one
    # thread is not one of them.
    global _pool, _pool_lock, _on_pool
    _pool, _pool_lock, _on_pool = None, threading.Lock(), threading.local()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_parts(run, parts):
    # [run(part) for part in parts], the first part on the calling thread
    # and the others on the pool, each in a copy of the caller's context
    # (numpy's errstate lives there).  Every part has ended before this
    # returns or raises, and the first failure in part order is raised.  A
    # pass started on a pool thread runs its parts there, one after the
    # other, so no pool thread ever waits on the pool.
    if len(parts) == 1 or getattr(_on_pool, "thread", False):
        return [run(p) for p in parts]
    pool = _pool_of(len(parts) - 1)
    rest = [pool.put(run, p) for p in parts[1:]]
    try:
        first = run(parts[0])
    finally:
        for part in rest:
            part.done.acquire()
    for part in rest:
        if part.error is not None:
            raise part.error
    return [first] + [part.value for part in rest]


def _interface_pass(x, h, interface, update):
    # update(x, fd, v, fd_left, v_left) on each window, where v =
    # interface(fd) holds the values at the samples' right interfaces and
    # fd_left, v_left those at the interface left of the first sample.
    if x.size <= _CHUNK:
        fd = _fdiff(x, h)
        v = interface(fd)
        return update(x, fd, v, fd[-1], v[-1])
    out = np.empty_like(x)

    def carry(windows):
        # One part; its first sample is finished below, from the part before.
        # Returns that sample's own interface values (copies, so that the
        # window's arrays are freed) and the part's last ones.
        head, left = None, (0.0, 0.0)
        for a, b in windows:
            fd = _fdiff(x[a : b + 1], h)[: b - a]
            v = interface(fd)
            out[a:b] = update(x[a:b], fd, v, *left)
            if head is None:
                head = fd[:1].copy(), v[:1].copy()
            left = fd[-1], v[-1]
        return head, left

    parts = _parts(x.size, interface)
    ends = _run_parts(carry, parts)
    for p, windows in enumerate(parts):
        a = windows[0][0]
        out[a : a + 1] = update(x[a : a + 1], *ends[p][0], *ends[p - 1][1])
    return out


def _divergence(w, left, h):
    # Flux difference around each sample of a window: w holds the fluxes
    # through the samples' right interfaces, left the flux into the first.
    div = np.empty_like(w)
    div[0] = w[0] - left
    np.subtract(w[1:], w[:-1], out=div[1:])
    if h != 1.0:
        div /= h
    return div


def _flux_update(tau, h):
    # The explicit step as an update of _interface_pass on the fluxes w.
    return lambda x, fd, w, fd_left, w_left: x + tau * _divergence(w, w_left, h)


def _flux_step(x, ev, tau, h):
    # One explicit step on raw samples.
    return _interface_pass(x, h, ev, _flux_update(tau, h))


def _states(x, phi, tau, m, h):
    # The loop of the explicit scheme: yields each of the m states after x.
    ev, update = phi.evaluator, _flux_update(tau, h)
    for _ in range(m):
        x = _interface_pass(x, h, ev, update)
        yield x


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
    out = _flux_step(u.values, phi.evaluator, tau, u.h)
    return Signal1D._wrap(out, u.h)


def _lipschitz(phi, f):
    # L of phi sampled on the initial gradient range of f, padded x2.
    # Under an admissible step the gradients cannot leave this range.
    x = f.values
    with np.errstate(over="ignore"):
        r = 2.0 * max(float(np.max(np.abs(_fdiff(x[a : b + 1], f.h)))) for a, b in _windows(x.size))
    if not math.isfinite(2.0 * r):  # the span of the grid on [-r, r]
        raise ValueError("the input's gradients overflow float64; rescale the signal")
    return estimate_lipschitz(phi, r if r > 0.0 else 1.0, _LIPSCHITZ_SAMPLES)


def _check_budget(m):
    if m > _STEP_BUDGET:
        raise StabilityViolation(f"the run needs m = {m} steps, above the budget of {_STEP_BUDGET}")


def _schedule(f, phi, T, mode):
    # (L, tau, m) of diffuse: the smallest m with T/m within the bound,
    # and within the step budget.
    if not np.isfinite(T) or T < 0.0:
        raise ValueError(f"stopping time must be nonnegative, got {T!r}")
    L = _lipschitz(phi, f)
    tau_max = max_stable_tau(L, f.h, mode)
    if T == 0.0:
        return L, tau_max, 0
    steps = T / tau_max
    if math.isinf(steps):
        raise ValueError(f"stopping time {T!r} needs a step count that overflows float64")
    m = max(1, int(math.ceil(steps)))  # T/tau_max can underflow to 0
    if T / m > tau_max:  # T/m can round one ulp above the bound
        m += 1
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
    :class:`StabilityViolation`, naming m, before any step is taken.

    Returns the filtered signal and the :class:`DiffusionPlan` used.
    """
    _, tau, m = _schedule(f, phi, T, mode)
    plan = DiffusionPlan(phi=phi, tau=tau, steps=m, h=f.h, stopping_time=m * tau)
    return _last(_states(f.values, phi, tau, m, f.h), f), plan
