"""In-process step times of two checkouts, in alternating fresh processes.

    python3 scripts/kernel_pairs.py PARENT_DIR CHANGE_DIR --n N --steps M \\
        [--pairs P] [--repeats R]

Times, on one seeded signal of N samples and for the Perona-Malik and
truncated-TV activations:

* the M-step runs of the four entry points: ``diffuse`` (its stopping
  time plans M steps at the sign-stable bound, so the time includes its
  Lipschitz estimate), ``iterate_shrinkage``, ``minimize_by_diffusion``
  and ``chain`` of one diffusion block M times;
* M calls of each single step: ``explicit_step``,
  ``shift_invariant_step`` and ``apply_block``.

Each pair times every kernel once on each side, the two sides one after
the other, each in a fresh process that imports ``denoise1d`` from its
checkout's ``src``; the parent goes first in even pairs and the change in
odd ones.  Pairing per kernel keeps the two runs of a pair seconds apart,
since a shared host's speed can drift by up to 2x over tens of seconds.
A process's time is the least of R repeats (a slow phase only ever adds
time), divided by M: the time per step.  Prints every pair's times, then
per kernel each side's median and quartiles, the median and quartiles of
the paired ratios change/parent, and the number of pairs the change won.
The last line of standard output is one JSON object with every value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

FAMILIES = ("perona-malik", "truncated-tv")
KERNELS = ("diffuse", "iterate_shrinkage", "minimize_by_diffusion", "chain",
           "explicit_step", "shift_invariant_step", "apply_block")


def _child(kernel, family, n, steps, repeats):
    # Runs in a fresh process whose sys.path starts with a checkout's src.
    import numpy as np

    import denoise1d as d1

    rng = np.random.default_rng([n, steps])
    x = rng.uniform(0.0, 1.0, n) if n <= 64 else np.sin(np.linspace(0.0, 20.0, n)) + rng.normal(0.0, 0.05, n)
    f = d1.Signal1D(x)
    tau = 0.25  # the sign-stable bound for L = 1 at h = 1
    spec = d1.FamilySpec(d1.Family(family))
    phi = d1.make_role_function(spec, d1.Role.ACTIVATION)
    shrink = d1.translate(phi, d1.Role.SHRINKAGE, d1.CouplingParams(tau=tau))
    energy = d1.EnergySpec(d1.make_role_function(spec, d1.Role.REGULARISER), steps * tau)
    block = d1.make_diffusion_block(phi, tau, 1.0)

    def repeat(step):
        def run():
            u = f
            for _ in range(steps):
                u = step(u)
        return run

    def diffuse():
        _, plan = d1.diffuse(f, phi, (steps - 0.5) * tau, d1.StepSizeMode.SIGN_STABLE)
        if plan.steps != steps:
            raise SystemExit(f"diffuse planned {plan.steps} steps, not {steps}")

    call = {
        "diffuse": diffuse,
        "iterate_shrinkage": lambda: d1.iterate_shrinkage(f, shrink, steps),
        "minimize_by_diffusion": lambda: d1.minimize_by_diffusion(f, energy, steps),
        "chain": lambda: d1.chain([block] * steps, f),
        "explicit_step": repeat(lambda u: d1.explicit_step(u, phi, tau)),
        "shift_invariant_step": repeat(lambda u: d1.shift_invariant_step(u, shrink)),
        "apply_block": repeat(lambda u: d1.apply_block(block, u)),
    }[kernel]
    call()  # any one-time set-up before timing
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        runs.append(time.perf_counter() - start)
    print(min(runs) / steps * 1e6)


def run_once(checkout, kernel, family, n, steps, repeats):
    """Per-step microseconds of one kernel, from one fresh process."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2]); "
            "import kernel_pairs; kernel_pairs._child(sys.argv[3], sys.argv[4], *map(int, sys.argv[5:]))")
    cmd = [sys.executable, "-c", code, os.path.join(checkout, "src"), os.path.dirname(os.path.abspath(__file__)),
           kernel, family, str(n), str(steps), str(repeats)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: exited {done.returncode}: {done.stderr.strip()[-400:]}")
    return float(done.stdout.strip().splitlines()[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--steps", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    if args.n < 1 or args.steps < 1 or args.pairs < 1 or args.repeats < 1:
        ap.error("--n, --steps, --pairs and --repeats must be at least 1")
    dirs = {"parent": os.path.abspath(args.parent_dir), "change": os.path.abspath(args.change_dir)}
    keys = [(kernel, family) for family in FAMILIES for kernel in KERNELS]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        times = {"parent": {}, "change": {}}
        for kernel, family in keys:
            for side in order:
                times[side][f"{kernel}/{family}"] = run_once(dirs[side], kernel, family, args.n, args.steps,
                                                             args.repeats)
        for side in runs:
            runs[side].append(times[side])
        print(f"pair {i + 1} ({order[0]} first): " + "  ".join(
            f"{k} {times['parent'][k]:.4g} -> {times['change'][k]:.4g}" for k in times["parent"]), flush=True)

    summary = []
    for key in runs["parent"][0]:
        parent = [r[key] for r in runs["parent"]]
        change = [r[key] for r in runs["change"]]
        ratios = [c / p for p, c in zip(parent, change)]
        s = {"kernel": key, "unit": "us/step",
             "parent": dict(zip(("median", "q1", "q3"), (statistics.median(parent), *quartiles(parent)))),
             "change": dict(zip(("median", "q1", "q3"), (statistics.median(change), *quartiles(change)))),
             "ratio": dict(zip(("median", "q1", "q3"), (statistics.median(ratios), *quartiles(ratios)))),
             "wins": sum(c < p for p, c in zip(parent, change)), "pairs": len(parent)}
        summary.append(s)
        p, c, r = s["parent"], s["change"], s["ratio"]
        print(f"{key}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
              f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] us/step"
              f"  ratio {r['median']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}]  change won {s['wins']}/{s['pairs']}")
    print(json.dumps({"n": args.n, "steps": args.steps, "repeats": args.repeats, "runs": runs,
                      "summary": summary}), flush=True)


if __name__ == "__main__":
    main()
