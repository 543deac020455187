"""Empirical stability diagnostics for the explicit scheme.

Two notions are checked: the maximum-minimum principle (filtered values
never leave the range of the input) and sign stability (the number of
sign changes never grows).  Zeros are removed before counting sign
alternations; the count is then invariant under negation and positive
scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffusion import StepSizeMode, _lipschitz, _states, max_stable_tau
from .nonlinearities import Role, RoleFunction
from .nonlinearities import estimate_lipschitz  # noqa: F401  traced by name (bench/tracing.py)
from .signals import Signal1D

_MAX_RECORDED_VIOLATIONS = 1000


@dataclass
class StabilityReport:
    """Measured constants, admissible bounds, and per-step diagnostics."""

    lipschitz: float
    tau_maxmin: float
    tau_sign: float
    tau_used: float
    steps: int
    range_ok: bool
    worst_overshoot: float
    sign_changes_in: int
    sign_changes_per_step: list = field(default_factory=list)
    violations: list = field(default_factory=list)  # (step, index, value)

    @property
    def sign_changes_out(self):
        return self.sign_changes_per_step[-1] if self.sign_changes_per_step else self.sign_changes_in

    @property
    def sign_stable(self):
        counts = [self.sign_changes_in] + self.sign_changes_per_step
        return all(b <= a for a, b in zip(counts, counts[1:]))

    def to_lines(self):
        """Flat key=value serialisation."""
        return [
            f"lipschitz={self.lipschitz:.17g}",
            f"tau_maxmin={self.tau_maxmin:.17g}",
            f"tau_sign={self.tau_sign:.17g}",
            f"tau_used={self.tau_used:.17g}",
            f"steps={self.steps}",
            f"range_ok={'true' if self.range_ok else 'false'}",
            f"worst_overshoot={self.worst_overshoot:.17g}",
            f"sign_changes_in={self.sign_changes_in}",
            f"sign_changes_out={self.sign_changes_out}",
            f"sign_stable={'true' if self.sign_stable else 'false'}",
            "sign_changes_per_step=" + ",".join(str(c) for c in self.sign_changes_per_step),
            "violations=" + ";".join(f"{s}:{i}:{v:.17g}" for s, i, v in self.violations),
        ]


def _count_sign_changes(x, top=None):
    # top is np.max(x), if the caller has it.  With no NaN and no zero (nor
    # -0.0) the sign bits are the signs, and the zeros need no removing.
    if not math.isnan(np.max(x) if top is None else top) and x.all():
        sb = np.signbit(x)
        return int(np.count_nonzero(sb[1:] != sb[:-1]))
    sg = np.sign(x[x != 0.0])
    return int(np.count_nonzero(sg[1:] != sg[:-1]))


def count_sign_changes(u: Signal1D) -> int:
    """Strict sign alternations after removing zero samples."""
    return _count_sign_changes(u.values)


def check_range_preservation(f: Signal1D, trajectory, slack: float = 1e-12):
    """Whether every state stays inside [min f - slack, max f + slack].

    Returns (ok, worst_overshoot); the overshoot is the largest excursion
    beyond the input range, zero if there is none, and NaN once a state
    holds NaN, which counts as out of range.
    """
    states = [state.values for state in trajectory]
    if not states:
        raise ValueError("trajectory must contain at least one state")
    if any(x.size != len(f) for x in states):
        raise ValueError("trajectory states must match the input length")
    # L = tau = 1 only fill report fields that are not read here.
    report = _observe(f, states, 1.0, 1.0, slack)[0]
    return report.range_ok, report.worst_overshoot


def analyze(
    f: Signal1D,
    phi: RoleFunction,
    tau: float,
    steps: int,
    slack: float = 1e-12,
) -> StabilityReport:
    """Run the explicit scheme and fill a :class:`StabilityReport`.

    Flags any sample leaving the input range (with ``slack``) and any
    step whose sign-change count grows.
    """
    if phi.role is not Role.ACTIVATION:
        raise ValueError("analyze expects an activation function")
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps!r}")
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"time step must be positive, got {tau!r}")
    L = _lipschitz(phi, f)
    return _observe(f, _states(f.values, phi, tau, steps, f.h), L, tau, slack)[0]


def _observe(f, states, L, tau, slack=1e-12):
    # Reads a StabilityReport off the states of a run as they pass;
    # returns it with the last state (f's samples when there is none).
    lo = float(np.min(f.values))
    hi = float(np.max(f.values))
    counts = []
    violations = []
    worst = 0.0
    x = f.values
    for k, x in enumerate(states, 1):
        top = float(np.max(x))
        bottom = float(np.min(x))
        counts.append(_count_sign_changes(x, top))
        # Masks only for a state out of range while the record has room;
        # the negations catch NaN.
        room = _MAX_RECORDED_VIOLATIONS - len(violations)
        if room and not (top <= hi + slack and bottom >= lo - slack):
            for i in np.flatnonzero(~((x <= hi + slack) & (x >= lo - slack)))[:room]:
                violations.append((k, int(i), float(x[i])))
        # Python's max drops a NaN that is not its first argument, so a state
        # holding NaN (np.max and np.min propagate it) is made to give NaN,
        # which stays NaN in later steps and fails every bound.
        worst = math.nan if math.isnan(top) else max(worst, top - hi, lo - bottom)
    worst = max(worst, 0.0)
    report = StabilityReport(
        lipschitz=L,
        tau_maxmin=max_stable_tau(L, f.h, StepSizeMode.MAXMIN),
        tau_sign=max_stable_tau(L, f.h, StepSizeMode.SIGN_STABLE),
        tau_used=tau,
        steps=len(counts),
        range_ok=worst <= slack,
        worst_overshoot=worst,
        sign_changes_in=_count_sign_changes(f.values, hi),
        sign_changes_per_step=counts,
        violations=violations,
    )
    return report, x
