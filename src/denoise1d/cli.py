"""Command line interface: signal generation, noise, denoising, dictionary
translations, stability reports, and cross-method comparison.

Signals are stored as CSV: one sample per line, 17 significant digits,
with an optional ``# h=<value>`` header line (h defaults to 1).  Noise
is drawn from numpy's seeded PCG64 generator
(``numpy.random.default_rng(seed)``), so identical configurations give
byte-identical outputs.

Exit codes: 0 ok, 1 usage error, 2 I/O error, 3 stability violation.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .blocks import _block_step, make_diffusion_block
from .blocks import chain  # noqa: F401  traced by name (bench/tracing.py)
from .diffusion import StabilityViolation, StepSizeMode, _check_budget, _last, _lipschitz
from .diffusion import _run, _schedule, _states, _windows, max_stable_tau
from .diffusion import diffuse, explicit_step  # noqa: F401  traced by name (bench/tracing.py)
from .nonlinearities import (
    CouplingParams,
    Family,
    FamilySpec,
    Role,
    make_role_function,
    translate,
)
from .nonlinearities import estimate_lipschitz  # noqa: F401  traced by name (bench/tracing.py)
from .shrinkage import _haar_pass, _require_unit_grid
from .shrinkage import iterate_shrinkage  # noqa: F401  traced by name (bench/tracing.py)
from .signals import Signal1D
from .stability import _observe, analyze
from .variational import minimize_by_diffusion  # noqa: F401  traced by name (bench/tracing.py)

_METHODS = ("diffusion", "wavelet", "variational", "resnet")

# Characters of CSV text split and parsed at a time, cut at a line end:
# about 3,400 samples of 17 digits, so a block's row strings and floats
# (about 100 B a sample) take some 0.3 MiB, not 100 B for every sample
# of the file.
_CSV_BLOCK = 1 << 16


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise description: none, gaussian(sigma), or uniform(a)."""

    kind: str = "none"
    level: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "uniform"):
            raise ValueError(f"unknown noise model {self.kind!r}")
        if self.kind != "none" and (not np.isfinite(self.level) or self.level < 0.0):
            raise ValueError(f"noise level must be nonnegative, got {self.level!r}")


def generate_signal(kind: str, n: int, params=None) -> Signal1D:
    """Deterministic test signals.

    step: 0 for i < N//2, then 1.  spike: single 1 at index N//2.
    sine: sin(2*pi*i/N).  piecewise: constant levels (default
    0, 1, 0.25, 0.75) over equal segments, at least one sample each;
    params may override the levels, and no other kind takes params.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got N = {n!r}")
    if kind == "spike":
        x = np.zeros(n)
        x[n // 2] = 1.0
    elif kind == "step":
        x = np.where(np.arange(n) >= n // 2, 1.0, 0.0)
    elif kind == "sine":
        x = np.sin(2.0 * np.pi * np.arange(n) / n)
    elif kind == "piecewise":
        levels = (0.0, 1.0, 0.25, 0.75) if params is None else tuple(params)
        if not levels or not all(np.isfinite(v) for v in levels):
            raise ValueError("piecewise levels must be finite and nonempty")
        if n < len(levels):  # a level would get an empty segment
            raise ValueError(f"piecewise needs N >= {len(levels)} samples for {len(levels)} levels, got N = {n}")
        edges = np.linspace(0, n, len(levels) + 1).astype(int)
        x = np.empty(n)
        for lv, a, b in zip(levels, edges[:-1], edges[1:]):
            x[a:b] = lv
    else:
        raise ValueError(f"unknown signal kind {kind!r}")
    if params is not None and kind != "piecewise":
        raise ValueError(f"{kind} takes no params, got {params!r}")
    return Signal1D(x)


def add_noise(u: Signal1D, model: NoiseModel, seed=None) -> Signal1D:
    """Seeded additive perturbation; reproducible for a fixed seed."""
    if model.kind == "none":
        return u
    rng = np.random.default_rng(seed)
    if model.kind == "gaussian":
        pert = rng.normal(0.0, model.level, size=len(u)) if model.level > 0 else 0.0
    else:
        pert = rng.uniform(-model.level, model.level, size=len(u)) if model.level > 0 else 0.0
    return Signal1D(u.values + pert, u.h)


def read_signal_csv(path) -> Signal1D:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()  # whole, so a decode error wins over any bad token
    # The text is split and parsed in blocks of whole lines, and samples in
    # file order around each comment line, so the first bad token in the
    # file is the one reported.
    h = 1.0
    parts = [np.empty(0)]
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _CSV_BLOCK) + 1 or len(text)
        rows = [s for s in map(str.strip, text[pos:end].split("\n")) if s]
        pos = end
        start = 0
        for i in [i for i, s in enumerate(rows) if s[0] == "#"]:
            parts.append(np.fromiter(map(float, rows[start:i]), np.float64, i - start))
            start = i + 1
            body = rows[i][1:].strip()
            if body.startswith("h="):
                h = float(body[2:])
        parts.append(np.fromiter(map(float, rows[start:]), np.float64, len(rows) - start))
    return Signal1D(np.concatenate(parts), h)


def write_signal_csv(path, u: Signal1D):
    x = u.values
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# h={u.h:.17g}\n")
        for a, b in _windows(x.size):  # "%.17g" gives the bytes of "{:.17g}".format
            fh.write(("%.17g\n" * (b - a)) % tuple(x[a:b].tolist()))


def _family_spec(args) -> FamilySpec:
    try:
        family = Family(args.family)
    except ValueError:
        raise ValueError(f"unknown family {args.family!r}") from None
    return FamilySpec(family=family, contrast=args.contrast, threshold=args.threshold)


def _noise_model(args) -> NoiseModel:
    unread = {"none": ("sigma", "amplitude", "seed"), "gaussian": ("amplitude",), "uniform": ("sigma",)}
    for flag in unread[args.noise]:
        if getattr(args, flag) is not None:
            raise ValueError(f"--noise {args.noise} does not read --{flag}")
    if args.noise == "none":
        return NoiseModel()
    level = args.sigma if args.noise == "gaussian" else args.amplitude
    if level is None:
        flag = "--sigma" if args.noise == "gaussian" else "--amplitude"
        raise ValueError(f"{args.noise} noise needs {flag}")
    model = NoiseModel(kind=args.noise, level=level)
    if args.seed is None:
        raise ValueError("a seed is mandatory when noise is added")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    return model


def _check_plan(method, steps, stopping_time=None):
    # The schedule checks that need no input, so they fire before it is read.
    if (stopping_time is None) == (steps is None):
        raise ValueError("give exactly one of stopping time and step count")
    if stopping_time is not None and method != "diffusion":
        raise ValueError(f"method {method!r} needs --steps, not --time")
    least = 1 if method in ("variational", "stability") else 0
    if steps is not None and steps < least:
        raise ValueError(f"{method} needs --steps >= {least}, got {steps}")
    if steps is not None:
        _check_budget(steps)


def _denoise_signal(f: Signal1D, method, spec, tau, mode, steps=None, stopping_time=None):
    """Run one method's plan on f; returns (states, tau, L).

    The plan is ``steps`` steps or blocks at ``tau``, or for diffusion
    only a ``stopping_time`` that fixes tau and m.  ``states`` yields the
    state after each step or block as it is taken, so a caller runs the
    steps once however it observes them.  L is the run's one Lipschitz
    estimate.  Every ``steps`` plan has the one guard: tau against the
    ``mode`` bound for L of its phi.  The plan has passed ``_check_plan``.
    """
    phi = make_role_function(spec, Role.ACTIVATION)
    if stopping_time is not None:
        L, tau, m = _schedule(f, phi, stopping_time, mode)
        return _states(f.values, phi, tau, m, f.h), tau, L

    if method == "wavelet":
        _require_unit_grid(f.h)
    elif method == "variational":
        phi = translate(make_role_function(spec, Role.REGULARISER), Role.ACTIVATION)
    L = _lipschitz(phi, f)
    bound = max_stable_tau(L, f.h, mode)
    if tau > bound:
        raise StabilityViolation(
            f"tau = {tau:g} violates the {mode.value} bound {bound:g} (L = {L:g})"
        )
    if method == "wavelet":
        shrink = translate(phi, Role.SHRINKAGE, CouplingParams(tau=tau))
        return _run(f.values, itertools.repeat(_haar_pass(shrink.evaluator), steps)), tau, L
    if method == "resnet":
        block = _block_step(make_diffusion_block(phi, tau, f.h), len(f), {})
        return _run(f.values, itertools.repeat(block, steps)), tau, L
    return _states(f.values, phi, tau, steps, f.h), tau, L


def _cmd_generate(args):
    params = None
    if args.levels is not None:
        if args.kind != "piecewise":
            raise ValueError(f"--kind {args.kind} does not read --levels")
        params = tuple(float(s) for s in args.levels.split(",")) if args.levels else ()
    u = generate_signal(args.kind, args.n, params)
    write_signal_csv(args.out, u)


def _cmd_noise(args):
    model = _noise_model(args)
    u = read_signal_csv(args.input)
    write_signal_csv(args.out, add_noise(u, model, args.seed))


def _cmd_denoise(args):
    """Read, perturb, denoise, write; the report is read off the run's own states."""
    spec = _family_spec(args)
    tau = CouplingParams(tau=args.tau).tau  # positive and finite
    noise = _noise_model(args)
    _check_plan(args.method, args.steps, args.time)
    report_path = args.report or args.out + ".report"
    if os.path.realpath(report_path) == os.path.realpath(args.out):
        raise ValueError(f"--report {report_path} would overwrite --out {args.out}")
    f = add_noise(read_signal_csv(args.input), noise, args.seed)
    states, tau, L = _denoise_signal(
        f, args.method, spec, tau, StepSizeMode(args.mode), args.steps, args.time)
    report, x = _observe(f, states, L, tau)
    write_signal_csv(args.out, Signal1D._wrap(x, f.h))
    with open(report_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(report.to_lines()) + "\n")


def _cmd_translate(args):
    spec = _family_spec(args)
    fn = translate(
        make_role_function(spec, Role(args.from_role)),
        Role(args.to),
        CouplingParams(tau=args.tau, alpha=args.alpha, h=1.0),
    )
    points = [float(s) for s in args.at.split(",")]
    if not all(map(math.isfinite, points)):
        raise ValueError(f"evaluation points must be finite, got {args.at!r}")
    for r in points:
        print(f"{fn(r):.17g}")


def _cmd_stability(args):
    phi = make_role_function(_family_spec(args), Role.ACTIVATION)
    tau = CouplingParams(tau=args.tau).tau  # positive and finite
    _check_plan("stability", args.steps)
    f = read_signal_csv(args.input)
    report = analyze(f, phi, tau, args.steps)
    lines = report.to_lines()
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    if not report.range_ok:
        raise StabilityViolation(
            f"range violated; worst overshoot {report.worst_overshoot:g}"
        )


def _cmd_compare(args):
    """All four methods under equivalent parameters; reports max deltas."""
    spec = _family_spec(args)
    tau = CouplingParams(tau=args.tau).tau  # positive and finite
    for name in _METHODS:
        _check_plan(name, args.steps)
    f = read_signal_csv(args.input)
    if f.h != 1.0:
        raise ValueError("compare requires grid size h = 1 (wavelet pairing)")
    outputs = {}
    for name in _METHODS:
        states = _denoise_signal(f, name, spec, tau, StepSizeMode.MAXMIN, args.steps)[0]
        outputs[name] = _last(states, f)
    os.makedirs(args.outdir, exist_ok=True)
    for name, sig in outputs.items():
        write_signal_csv(os.path.join(args.outdir, f"{name}.csv"), sig)

    lines = []
    worst = 0.0
    for i, a in enumerate(_METHODS):
        for b in _METHODS[i + 1 :]:
            delta = float(np.max(np.abs(outputs[a].values - outputs[b].values)))
            worst = max(worst, delta)
            lines.append(f"delta_{a}_{b}={delta:.17g}")
    lines.append(f"delta_max={worst:.17g}")
    print("\n".join(lines))
    with open(os.path.join(args.outdir, "deltas.txt"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _add_family_flags(p):
    p.add_argument("--family", default="constant",
                   help="constant | charbonnier | truncated-tv | perona-malik | truncated-bfb | truncated-quadratic")
    p.add_argument("--contrast", type=float, default=1.0, help="lambda for charbonnier / perona-malik")
    p.add_argument("--threshold", type=float, default=1.0, help="theta for the truncated families")


def _add_noise_flags(p):
    p.add_argument("--noise", default="none", choices=("none", "gaussian", "uniform"))
    p.add_argument("--sigma", type=float, default=None, help="gaussian standard deviation")
    p.add_argument("--amplitude", type=float, default=None, help="uniform noise half-width")
    p.add_argument("--seed", type=int, default=None, help="rng seed (PCG64); mandatory with noise")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="denoise1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a deterministic test signal")
    p.add_argument("--kind", required=True, choices=("step", "sine", "piecewise", "spike"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--levels", default=None, help="comma-separated piecewise levels")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("noise", help="add seeded noise to a signal")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_noise_flags(p)
    p.set_defaults(fn=_cmd_noise)

    p = sub.add_parser("denoise", help="denoise with one of the four methods")
    p.add_argument("--method", required=True, choices=_METHODS)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--time", type=float, default=None, help="diffusion stopping time")
    p.add_argument("--steps", type=int, default=None, help="explicit step / block count")
    p.add_argument("--tau", type=float, default=0.25)
    p.add_argument("--mode", default="sign-stable", choices=[m.value for m in StepSizeMode])
    p.add_argument("--report", default=None, help="write a stability report here")
    _add_family_flags(p)
    _add_noise_flags(p)
    p.set_defaults(fn=_cmd_denoise)

    p = sub.add_parser("translate", help="evaluate a dictionary translation")
    p.add_argument("--from-role", default="diffusivity", choices=[r.value for r in Role])
    p.add_argument("--to", required=True, choices=[r.value for r in Role])
    p.add_argument("--at", required=True, help="comma-separated evaluation points")
    p.add_argument("--tau", type=float, default=0.25)
    p.add_argument("--alpha", type=float, default=0.25)
    _add_family_flags(p)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("stability", help="run the scheme and report diagnostics")
    p.add_argument("--input", required=True)
    p.add_argument("--tau", type=float, default=0.25)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", default=None)
    _add_family_flags(p)
    p.set_defaults(fn=_cmd_stability)

    p = sub.add_parser("compare", help="run all four methods and report deltas")
    p.add_argument("--input", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--tau", type=float, default=0.25)
    p.add_argument("--steps", type=int, default=1)
    _add_family_flags(p)
    p.set_defaults(fn=_cmd_compare)

    return parser


def _glue_lists(argv):
    # argparse takes "-1.5,2" for an option, so "--at -1.5,2" is passed on as
    # "--at=-1.5,2", as is "--lev -1,2" (--levels from --l on; --a is ambiguous
    # in translate); an option name in the value's place is left to argparse.
    names = ("--at",) + tuple("--levels"[:k] for k in range(3, 9))
    out = []
    for tok in argv:
        if out and out[-1] in names and tok[:2] != "--" and tok != "-h":
            tok = out.pop() + "=" + tok
        out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_lists(sys.argv[1:] if argv is None else argv))
        args.fn(args)
        return 0
    except (OSError, UnicodeDecodeError) as exc:  # a decode error is a ValueError too
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except StabilityViolation as exc:
        print(f"stability violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
