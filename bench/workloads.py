"""Workload definitions: seeded inputs, op schedules and output checks.

Why these three workloads:

* cli-file: a user runs ``denoise1d denoise`` on a signal file.  Each op
  is one process, so start-up, import, CSV parsing and writing, noise,
  the Lipschitz estimate and the stability report (which runs the scheme
  a second time) dominate; the step kernels are a minority.
* deep-batch: a library user takes many short signals thousands of steps
  deep.  Per-call overhead of the step kernels dominates; I/O, import
  and the report do no work here.
* long-signal: a library user takes one long signal a few steps.  Per
  call overhead is negligible and the cost per sample shows.  It is the
  counterweight to deep-batch: a fixed cost per call traded for speed on
  long arrays shows up as a loss on one and a gain on the other.

Nothing here imports denoise1d.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("cli-file", "deep-batch", "long-signal")
METHODS = ("diffusion", "wavelet", "variational", "resnet")
FAMILIES = (
    "constant", "charbonnier", "truncated-tv", "perona-malik",
    "truncated-bfb", "truncated-quadratic",
)

# Agreement of the four methods for one input and one set of constants
# (the paper's identity; about 1e-15 is measured).
AGREE_TOL = 1e-12
# Range slack at the max-min bound, as in the library's own diagnostics.
RANGE_SLACK = 1e-12
EPS = float(np.finfo(np.float64).eps)

# cli-file: N = 1e5 samples, gaussian noise added by the tool, max-min
# mode.  The stopping time plans 50 steps at the max-min bound h^2/(2L)
# with L = 1 (every family with unit parameters) and leaves a 1.2%
# margin below it, so the four methods can reuse the planned step.
CLI_N = 100_000
CLI_SIGMA = 0.05
CLI_TIME = 24.7

# deep-batch: N = 16, about 2000 steps per op; Perona-Malik at the
# max-min bound and truncated TV at the sign-stable bound, as in the
# library's acceptance criterion 4.
DEEP_N = 16
DEEP_DEPTH = 2000

# long-signal: N = 2^20 samples (8 MiB per array), about 6 steps per op.
LONG_N = 2 ** 20
LONG_STEPS = 6
LONG_SIGMA = 0.05


def smooth_signal(rng, n, sigma):
    """Three seeded sines plus gaussian noise.  Differences stay far below
    sqrt(2)/2, so the truncated-quadratic flux has no jump inside the
    Lipschitz sampling range and every family has L = 1."""
    i = np.arange(n) / n
    x = np.zeros(n)
    for k in (1, 3, 7):
        x += rng.uniform(0.2, 0.5) * np.sin(2.0 * np.pi * k * i + rng.uniform(0.0, 2.0 * np.pi))
    if sigma:
        x += rng.normal(0.0, sigma, n)
    return x


def cli_input(seed):
    """The clean N = 1e5 signal that every cli-file op reads."""
    return smooth_signal(np.random.default_rng([seed, 1]), CLI_N, 0.0)


def cli_round(seed, r):
    """(family, noise seed) of cli-file round r.  The family order does
    not depend on the seed, so runs of equal length do the same mix."""
    return FAMILIES[r % len(FAMILIES)], seed * 10_007 + r


def deep_round(seed, r):
    """(family, mode name, signal, stopping time) of deep-batch round r."""
    rng = np.random.default_rng([seed, 2, r])
    if r % 2 == 0:
        return "perona-malik", "maxmin", rng.uniform(0.0, 1.0, DEEP_N), (DEEP_DEPTH - 0.5) * 0.5
    return "truncated-tv", "sign-stable", rng.uniform(-1.0, 1.0, DEEP_N), (DEEP_DEPTH - 0.5) * 0.25


def long_input(seed):
    return smooth_signal(np.random.default_rng([seed, 3]), LONG_N, LONG_SIGMA)


def long_round(seed, r):
    """(family, mode name, stopping time) of long-signal round r."""
    return FAMILIES[r % len(FAMILIES)], "maxmin", (LONG_STEPS - 0.5) * 0.5


def sign_changes(x):
    """Strict sign alternations after dropping zero samples."""
    s = np.sign(x[x != 0.0])
    return int(np.count_nonzero(s[1:] != s[:-1]))


def check_output(x_in, x_out, steps, reference=None, mode=None):
    """Reasons an op's output is wrong; empty when it is right.

    The sample sum must be conserved up to rounding: at most 8 ulp-sized
    errors per sample-step, relative to the summed magnitude.  With a
    reference (the diffusion output for the same input and constants),
    the outputs must agree to AGREE_TOL.  ``mode`` "maxmin" asks for the
    input range to be kept, "sign-stable" for no new sign changes.
    """
    errors = []
    if x_out.shape != x_in.shape or not np.all(np.isfinite(x_out)):
        return ["output has the wrong shape or is not finite"]
    drift = abs(float(np.sum(x_out)) - float(np.sum(x_in)))
    if drift > 8.0 * EPS * max(steps, 1) * float(np.sum(np.abs(x_in))):
        errors.append(f"sample sum drifted by {drift:.3g}")
    if reference is not None:
        delta = float(np.max(np.abs(x_out - reference)))
        if delta > AGREE_TOL:
            errors.append(f"differs from diffusion by {delta:.3g}")
    if mode == "maxmin":
        over = max(float(np.max(x_out)) - float(np.max(x_in)),
                   float(np.min(x_in)) - float(np.min(x_out)))
        if over > RANGE_SLACK:
            errors.append(f"leaves the input range by {over:.3g}")
    elif mode == "sign-stable" and sign_changes(x_out) > sign_changes(x_in):
        errors.append("sign changes grew")
    return errors
