"""Pure arithmetic behind the benchmark's numbers: percentiles, rates,
span self times and the per-layer metrics derived from spans.

Nothing here imports denoise1d, so the helpers can be tested alone.
"""

from __future__ import annotations

import statistics

# Full-length float64 array passes (one read or one write of an N-array)
# made per sample-step by each step kernel as written at this revision,
# not counting the nonlinearity, which is added from the measured number
# of evaluations (one read and one write per value).  The resulting
# bytes are computed, not measured: they are what the numpy operations
# touch, not what crosses the memory bus.
#   diffusion / variational: fdiff 3, flux difference 3, tau*div 2, x+ 3
#   shrinkage: fdiff 3, bdiff 3, stack 4, /sqrt2 4, (fd-bd)/4 5,
#              S difference 3, /(2 sqrt2) 2, two additions 6
#   blocks: each of the two stencils copies 2, two taps 4, accumulate 3;
#           residual addition 3
KERNEL_PASSES = {"diffusion": 11, "shrinkage": 30, "variational": 11, "blocks": 21}
BYTES_PER_PASS = 8
BYTES_PER_EVAL = 16


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values, beyond=10):
    """The highest percentile with at least ``beyond`` values above it.

    Returns (value, percentile, count_beyond).  The value at sorted index
    k has n-1-k values after it; the largest k with n-1-k >= beyond is
    k = n-1-beyond, reported as percentile 100*(k+1)/n.  With fewer than
    beyond+1 values no percentile qualifies, and the maximum is returned
    as percentile 100 with the number of values after it (zero).
    """
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    n = len(ordered)
    k = n - 1 - beyond
    if k < 0:
        return ordered[-1], 100.0, 0
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def sample_steps_per_s(ops):
    """Sum of N*m over ops that passed, divided by the summed op time.

    ``ops`` are dicts with ``seconds``, ``sample_steps`` and ``ok``.
    Failed ops add their time but no work.
    """
    wall = sum(op["seconds"] for op in ops)
    done = sum(op["sample_steps"] for op in ops if op["ok"])
    return done / wall if wall > 0 else 0.0


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    ``spans`` is a list of dicts with ``start``, ``end`` and ``parent``
    (an index into the same list, or None).  Returns a list of floats.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - covered(children[i], s["start"], s["end"])
        for i, s in enumerate(spans)
    ]


# Step-kernel spans per layer; diffusion is reached through diffuse on the
# library workloads and through explicit_step in the command line tool.
KERNELS = {
    "diffusion": ("diffusion.diffuse", "diffusion.explicit_step"),
    "shrinkage": ("shrinkage.iterate_shrinkage",),
    "variational": ("variational.minimize_by_diffusion",),
    "blocks": ("blocks.chain",),
}


def layer_metrics(spans, ops, import_s, import_scipy_s):
    """Per-layer metrics of one traced pass.

    ``spans`` as for :func:`self_times`, each also with ``name`` and a
    ``meta`` dict (``steps``, ``n``, ``bytes``, ``evals``); ``ops`` are
    the pass's op records.  Times are medians of per-call self times;
    counts are per op, so that two passes over the same ops give equal
    values.  A layer that does no work on the workload reads 0.
    """
    selfs = self_times(spans)
    n_ops = len(ops)
    op_steps = sum(op["sample_steps"] for op in ops)
    op_seconds = sum(op["seconds"] for op in ops)
    by_name = {}
    for s, t in zip(spans, selfs):
        by_name.setdefault(s["name"], []).append((s, t))

    def calls(*names):
        return [pair for name in names for pair in by_name.get(name, [])]

    def med_self(*names):
        return median([t for _, t in calls(*names)])

    def per_step(names, scale):
        return median([scale * t / s["meta"]["steps"] for s, t in calls(*names)
                       if s["meta"].get("steps")])

    out = {
        "cli.import_s": import_s,
        "variational.import_scipy_s": import_scipy_s,
        "cli.read_s": med_self("cli.read_signal_csv"),
        "cli.write_s": med_self("cli.write_signal_csv"),
        "cli.noise_s": med_self("cli.add_noise"),
        "cli.bytes_read": sum(s["meta"]["bytes"] for s, _ in calls("cli.read_signal_csv")) / n_ops,
        "cli.bytes_written": sum(s["meta"]["bytes"] for s, _ in calls("cli.write_signal_csv")) / n_ops,
        "stability.analyze_s": med_self("stability.analyze"),
        "stability.analyze_steps": sum(s["meta"]["steps"] for s, _ in calls("stability.analyze")) / n_ops,
        "stability.report_share": (
            sum(s["end"] - s["start"] for s, _ in calls("stability.analyze")) / op_seconds
            if op_seconds > 0 else 0.0
        ),
        "nonlinearities.lipschitz_calls": len(calls("nonlinearities.estimate_lipschitz")) / n_ops,
        "nonlinearities.lipschitz_s": med_self("nonlinearities.estimate_lipschitz"),
        "nonlinearities.evals_per_sample_step": (
            sum(s["meta"].get("evals", 0) for s in spans) / op_steps if op_steps else 0.0
        ),
        "diffusion.diffuse_s": med_self("diffusion.diffuse"),
        "diffusion.step_us": per_step(KERNELS["diffusion"], 1e6),
        "shrinkage.iterate_s": med_self("shrinkage.iterate_shrinkage"),
        "shrinkage.step_us": per_step(KERNELS["shrinkage"], 1e6),
        "variational.minimize_s": med_self("variational.minimize_by_diffusion"),
        "blocks.chain_s": med_self("blocks.chain"),
        "blocks.block_us": per_step(KERNELS["blocks"], 1e6),
    }
    for layer, names in KERNELS.items():
        pairs = calls(*names)
        work = sum(s["meta"]["steps"] * s["meta"]["n"] for s, _ in pairs)
        evals = sum(s["meta"].get("evals", 0) for s, _ in pairs)
        busy = sum(t for _, t in pairs)
        out[f"{layer}.ns_per_sample_step"] = 1e9 * busy / work if work else 0.0
        out[f"{layer}.bytes_per_sample_step"] = (
            BYTES_PER_PASS * KERNEL_PASSES[layer] + BYTES_PER_EVAL * evals / work
            if work else 0.0
        )
    return out


# Counts that must repeat exactly between two traced passes over the same ops.
EXACT_COUNTS = (
    "stability.analyze_steps",
    "nonlinearities.lipschitz_calls",
    "nonlinearities.evals_per_sample_step",
    "cli.bytes_read",
    "cli.bytes_written",
)


def parse_importtime(stderr, module):
    """(cumulative seconds of ``module``, seconds of scipy imported by
    denoise1d.variational) from ``python -X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cum) * 1e-6, name.strip()))
    module_s = scipy_s = 0.0
    for i, (depth, cum, name) in enumerate(rows):
        if name == module:
            module_s = cum
        if name == "denoise1d.variational":
            # Children precede their parent in the output, one level deeper.
            j = i - 1
            while j >= 0 and rows[j][0] > depth:
                d, c, child = rows[j]
                if d == depth + 1 and (child == "scipy" or child.startswith("scipy.")):
                    scipy_s += c
                j -= 1
    return module_s, scipy_s
