"""Alternating pairs of benchmark runs: a parent checkout against a change.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seed S --pairs N

Runs each checkout's own ``bench/run.py`` N times with the same
arguments, one run of each per pair, the parent first in even pairs and
the change first in odd ones.  Prints every pair's end-to-end metrics,
then each side's median and quartiles per metric and the number of
pairs the change won (ties count for neither side).  A gain is resolved
when there are at least ten pairs, the change wins at least nine tenths
of them and the medians differ by more than the parent's quartile
spread; a loss is resolved the same way, with the parent winning at
least nine tenths of the pairs, so that a regression inside the bound
shows too.  Two flags per metric check for a regression against the
metric's bound, a fraction of the parent's median: "worse beyond bound"
when the change's median is worse than the parent's by more than the
bound, and "unresolved" when the parent's quartile spread is wider than
the bound, so that a regression of that size could not show.  The run
length, the metric names, which way is better and the bounds come from
``BENCHMARK.json`` in CHANGE_DIR.  The last line of standard output is
one JSON object with every value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """The last JSON line of one ``bench/run.py`` run in checkout."""
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result["failed"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summarise(name, lower_is_better, bound, parent, change):
    """Medians, quartiles, wins and regression flags of one metric over
    paired runs; ``bound`` is the worsening allowed, as a fraction of the
    parent's median."""
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower_is_better else (c < p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    gained = (c_med < p_med) if lower_is_better else (c_med > p_med)
    lost = (c_med > p_med) if lower_is_better else (c_med < p_med)
    apart = len(parent) >= 10 and abs(c_med - p_med) > p_q3 - p_q1
    allowed = bound * abs(p_med)
    worsening = (c_med - p_med) if lower_is_better else (p_med - c_med)
    return {
        "metric": name, "better": "lower" if lower_is_better else "higher", "bound": bound,
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "wins": wins, "pairs": len(parent), "gain_resolved": bool(gained and apart and wins >= 0.9 * len(parent)),
        "loss_resolved": bool(lost and apart and losses >= 0.9 * len(parent)),
        "worse_beyond_bound": bool(worsening > allowed), "unresolved": bool(p_q3 - p_q1 > allowed),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    dirs = {"parent": os.path.abspath(args.parent_dir), "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(dirs["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]
    better = {m["name"]: m["better"] == "lower" for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    runs = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, bad = run_once(dirs[side], args.workload, args.seed, seconds)
            runs[side].append(values)
            failed[side] += bad
        print(f"pair {i + 1} ({order[0]} first): " + "  ".join(
            f"{name} {runs['parent'][-1].get(name, float('nan')):.6g} -> "
            f"{runs['change'][-1].get(name, float('nan')):.6g}" for name in better), flush=True)

    summary = []
    for name, lower in better.items():
        if all(name in r for side in runs.values() for r in side):
            s = summarise(name, lower, bounds[name], [r[name] for r in runs["parent"]],
                          [r[name] for r in runs["change"]])
            summary.append(s)
            p, c = s["parent"], s["change"]
            print(f"{name} ({s['better']} is better): parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                  f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                  f"  change won {s['wins']}/{s['pairs']}"
                  f"{'  gain resolved' if s['gain_resolved'] else ''}"
                  f"{'  loss resolved' if s['loss_resolved'] else ''}"
                  f"{'  worse beyond bound' if s['worse_beyond_bound'] else ''}"
                  f"{'  unresolved' if s['unresolved'] else ''}")
    print(f"failed ops: parent {failed['parent']}, change {failed['change']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": seconds,
                      "failed": failed, "runs": runs, "summary": summary}), flush=True)


if __name__ == "__main__":
    main()
