"""One fresh interpreter per workload run.

    python3 bench/worker.py NAME

The worker imports denoise1d (denoise1d.cli for cli-file), builds the
workload's role functions, prints ``ready`` and reads one line.  ``exit``
ends it: that is a set-up probe.  A JSON line ``{"seed", "seconds",
"trace"}`` runs a library workload in this process and prints the op
records, and with tracing the spans, as one JSON line.  cli-file is
driven from run.py, which spawns one process per op.
"""

from __future__ import annotations

import os
import sys
import time

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Rounds of the fixed op lists that traced passes run, so that two
# passes do identical work and their counts can be compared.
TRACED_ROUNDS = {"deep-batch": 16, "long-signal": len(wl.FAMILIES)}

# Namespaces through which the library workloads reach the traced functions.
LIBRARY_MODULES = ("denoise1d", "denoise1d.diffusion", "denoise1d.variational")


def import_library(workload):
    import denoise1d

    expected = os.path.join(ROOT, "src", "denoise1d", "__init__.py")
    if os.path.abspath(denoise1d.__file__) != expected:
        sys.exit(f"denoise1d imported from {denoise1d.__file__}, not {expected}")
    if workload == "cli-file":
        import denoise1d.cli  # noqa: F401
    return denoise1d


def build_roles(d1, families):
    """Activation and regulariser of each family, unit parameters."""
    roles = {}
    for name in families:
        spec = d1.FamilySpec(d1.Family(name))
        roles[name] = (
            d1.make_role_function(spec, d1.Role.ACTIVATION),
            d1.make_role_function(spec, d1.Role.REGULARISER),
        )
    return roles


def _timed(call):
    t0 = time.perf_counter()
    try:
        out, err = call(), None
    except Exception as exc:  # an op that raises is a failed op
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, err


def library_round(d1, roles, family, mode, x, T, check_mode, tracer=None, first_id=0):
    """One input through all four public entry points with matched
    constants: diffuse plans (tau, m), the other three reuse them."""
    f = d1.Signal1D(x)
    phi, psi = roles[family]
    ops = []

    def record(method, seconds, steps, errors):
        ops.append({"id": first_id + len(ops), "method": method, "family": family,
                    "seconds": seconds, "sample_steps": x.size * steps,
                    "ok": not errors, "errors": errors})

    if tracer is not None:
        tracer.op = first_id
    res, dt, err = _timed(lambda: d1.diffuse(f, phi, T, d1.StepSizeMode(mode)))
    if err:
        record("diffusion", dt, 0, [err])
        for method in wl.METHODS[1:]:
            record(method, 0.0, 0, ["not run: diffusion failed"])
        return ops
    ref, plan = res
    m, tau = plan.steps, plan.tau
    record("diffusion", dt, m, wl.check_output(x, ref.values, m, None, check_mode))
    calls = {
        "wavelet": lambda: d1.iterate_shrinkage(
            f, d1.translate(phi, d1.Role.SHRINKAGE, d1.CouplingParams(tau=tau)), m),
        "variational": lambda: d1.minimize_by_diffusion(
            f, d1.EnergySpec(psi=psi, alpha=m * tau), m),
        "resnet": lambda: d1.chain([d1.make_diffusion_block(phi, tau, 1.0)] * m, f),
    }
    for method, call in calls.items():
        if tracer is not None:
            tracer.op = first_id + len(ops)
        out, dt, err = _timed(call)
        errors = [err] if err else wl.check_output(x, out.values, m, ref.values, check_mode)
        record(method, dt, m, errors)
    return ops


def round_inputs(workload, seed):
    """r -> (family, mode, signal, stopping time, check mode).  Range and
    sign checks apply to deep-batch, whose bounds are the point of it."""
    if workload == "deep-batch":
        def inputs(r):
            family, mode, x, T = wl.deep_round(seed, r)
            return family, mode, x, T, mode
    else:
        x = wl.long_input(seed)

        def inputs(r):
            family, mode, T = wl.long_round(seed, r)
            return family, mode, x, T, None
    return inputs


def run_library(d1, roles, workload, seed, seconds=None, rounds=None, tracer=None):
    """Rounds until ``seconds`` have passed, or exactly ``rounds`` rounds."""
    inputs = round_inputs(workload, seed)
    ops = []
    start = time.perf_counter()
    r = 0
    while (r < rounds) if rounds is not None else (time.perf_counter() - start < seconds):
        ops += library_round(d1, roles, *inputs(r), tracer, len(ops))
        r += 1
    return ops


def families_of(workload):
    return ("perona-malik", "truncated-tv") if workload == "deep-batch" else wl.FAMILIES


def main():
    workload = sys.argv[1]
    if workload not in wl.WORKLOADS:
        sys.exit(f"unknown workload {workload!r}")
    d1 = import_library(workload)
    roles = None if workload == "cli-file" else build_roles(d1, families_of(workload))
    print("ready", flush=True)

    line = sys.stdin.readline().strip()
    if line in ("", "exit"):
        return 0
    # Imported only now, so that a set-up probe pays only what a user pays.
    import json
    import resource

    cfg = json.loads(line)
    seed = cfg["seed"]
    if not cfg["trace"]:
        result = {"ops": run_library(d1, roles, workload, seed, seconds=cfg["seconds"])}
    else:
        rounds = TRACED_ROUNDS[workload]
        result = {"untraced": run_library(d1, roles, workload, seed, rounds=rounds), "traced": []}
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, LIBRARY_MODULES)
        roles = build_roles(d1, families_of(workload))
        for _ in range(2):
            ops = run_library(d1, roles, workload, seed, rounds=rounds, tracer=tracer)
            result["traced"].append({"ops": ops, "spans": tracer.take()})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
