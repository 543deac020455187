"""denoise1d benchmark: three workloads, end-to-end metrics with tracing
off, per-layer metrics from a separate traced run.

    python3 bench/run.py --workload cli-file|deep-batch|long-signal|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src`` next to this
directory and nowhere else.  Each workload is one closed loop with one
client: the next op starts when the previous one has ended and been
checked.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it say the same for people, with the machine record.  Any failed
op makes the exit code 1.  Temporary files go to ``.bench_work`` in the
checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np

import metrics as mx
import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
# Set-up probes before and after the run, so that the median samples the
# machine at two times rather than one.
SETUP_PROBES = (4, 3)
IMPORTTIME_PROBES = 3
# Every process this run starts is killed once this many seconds have
# passed since it began, so the run ends well within three minutes.
DEADLINE_S = 170.0

_started = time.monotonic()
_procs = []


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _spawn(cmd, **kwargs):
    p = subprocess.Popen(cmd, env=_env(), **kwargs)
    _procs.append(p)
    watchdog = threading.Timer(max(DEADLINE_S - (time.monotonic() - _started), 1.0), p.kill)
    watchdog.daemon = True
    watchdog.start()
    return p


def _stop_all():
    for p in _procs:
        if p.poll() is None:
            p.kill()
            p.wait()


# ---------------------------------------------------------------------------
# set-up and import probes


def start_worker(workload):
    """Spawn a worker; returns (process, seconds until it reported ready)."""
    t0 = time.perf_counter()
    p = _spawn([sys.executable, os.path.join(BENCH, "worker.py"), workload],
               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = p.stdout.readline().strip()
    elapsed = time.perf_counter() - t0
    if line != "ready":
        p.wait()
        raise RuntimeError(f"{workload} worker did not start (exit code {p.returncode})")
    return p, elapsed


def measure_setup(workload, probes, keep_last=False):
    """Spawn-to-ready times of ``probes`` fresh workers.  With
    ``keep_last`` the last worker stays up to run the workload."""
    times = []
    for i in range(probes):
        p, t = start_worker(workload)
        times.append(t)
        if keep_last and i == probes - 1:
            return times, p
        p.communicate("exit\n")
    return times, None


def worker_result(p, seed, seconds, trace):
    """Have a ready worker run its library workload; returns its result."""
    out, _ = p.communicate(json.dumps({"seed": seed, "seconds": seconds, "trace": trace}) + "\n")
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed with exit code {p.returncode}")
    return json.loads(lines[-1])


def measure_imports():
    """Median (denoise1d.cli import, scipy under variational) seconds."""
    cli_s, scipy_s = [], []
    for _ in range(IMPORTTIME_PROBES):
        p = _spawn([sys.executable, "-X", "importtime", "-c", "import denoise1d.cli"],
                   stderr=subprocess.PIPE, text=True)
        _, err = p.communicate()
        if p.returncode != 0:
            raise RuntimeError("import denoise1d.cli failed:\n" + err)
        a, b = mx.parse_importtime(err, "denoise1d.cli")
        cli_s.append(a)
        scipy_s.append(b)
    return mx.median(cli_s), mx.median(scipy_s)


# ---------------------------------------------------------------------------
# cli-file: one denoise process per op


def _write_csv(path, x):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# h=1\n" + "\n".join(map("{:.17g}".format, x.tolist())) + "\n")


def _read_csv(path):
    with open(path, encoding="ascii") as fh:
        rows = [s for s in fh.read().split("\n") if s and not s.startswith("#")]
    return np.array(rows, dtype=np.float64)


def _read_report(path):
    with open(path, encoding="ascii") as fh:
        return dict(line.split("=", 1) for line in fh.read().splitlines() if "=" in line)


def cli_op(work, args, trace_path=None, op_id=0):
    """Run one denoise process; returns (start, seconds, exit code, peak
    RSS in MiB, stderr)."""
    cmd = [sys.executable, os.path.join(BENCH, "child.py")]
    if trace_path:
        cmd += ["--trace", trace_path, str(op_id)]
    err_path = os.path.join(work, "op.err")
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        p = _spawn(cmd + ["denoise"] + args, stdout=subprocess.DEVNULL, stderr=err, cwd=work)
        _, status, usage = os.wait4(p.pid, 0)
        seconds = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8") as fh:
        return t0, seconds, p.returncode, usage.ru_maxrss / 1024.0, fh.read().strip()


class CliFile:
    """The cli-file workload.  A round is one family and one noise seed:
    ``diffusion --time`` plans (tau, m), then the four methods run with
    ``--steps m --tau tau``.  All five outputs must agree and conserve
    the noisy input's sum, and every report must say range_ok=true."""

    def __init__(self, seed, work):
        from denoise1d import Signal1D
        from denoise1d.cli import NoiseModel, add_noise

        self.seed = seed
        self.work = work
        self.x = wl.cli_input(seed)
        _write_csv(os.path.join(work, "in.csv"), self.x)
        self._noisy = lambda noise_seed: add_noise(
            Signal1D(self.x), NoiseModel("gaussian", wl.CLI_SIGMA), noise_seed).values

    def _op(self, op_id, label, family, args, trace):
        out = os.path.join(self.work, f"out{op_id}.csv")
        trace_path = os.path.join(self.work, f"spans{op_id}.json") if trace else None
        start, seconds, code, rss, err = cli_op(
            self.work, args + ["--out", out], trace_path, op_id)
        op = {"id": op_id, "method": label, "family": family, "start": start,
              "seconds": seconds, "sample_steps": 0, "ok": False, "rss_mb": rss,
              "errors": [], "out": None, "report": {}, "spans": None}
        if code != 0:
            op["errors"].append(f"exit code {code}: {err}")
            return op
        op["out"] = out
        op["report"] = _read_report(out + ".report")
        if op["report"].get("range_ok") != "true":
            op["errors"].append("report has range_ok other than true")
        if trace:
            with open(trace_path, encoding="ascii") as fh:
                op["spans"] = json.load(fh)
        return op

    def round(self, r, first_id, trace=False):
        family, noise_seed = wl.cli_round(self.seed, r)
        common = ["--input", "in.csv", "--family", family, "--noise", "gaussian",
                  "--sigma", repr(wl.CLI_SIGMA), "--seed", str(noise_seed), "--mode", "maxmin"]
        first = self._op(first_id, "diffusion-time", family,
                         ["--method", "diffusion", "--time", repr(wl.CLI_TIME)] + common, trace)
        ops = [first]
        steps, tau = first["report"].get("steps"), first["report"].get("tau_used")
        for method in wl.METHODS:
            op_id = first_id + len(ops)
            if first["out"] is None:
                ops.append({"id": op_id, "method": method, "family": family, "start": 0.0,
                            "seconds": 0.0, "sample_steps": 0, "ok": False, "rss_mb": 0.0,
                            "errors": ["not run: diffusion --time failed"], "out": None,
                            "report": {}, "spans": None})
                continue
            ops.append(self._op(op_id, method, family,
                                ["--method", method, "--steps", steps, "--tau", tau] + common,
                                trace))
        self._check(ops, noise_seed, int(steps or 0))
        return ops

    def _check(self, ops, noise_seed, steps):
        noisy = self._noisy(noise_seed)
        ref = None
        for op in ops:
            out = op.pop("out")
            if out is None:
                continue
            y = _read_csv(out)
            os.remove(out)
            os.remove(out + ".report")
            op["errors"] += wl.check_output(noisy, y, steps, ref)
            ref = y if ref is None else ref
            op["sample_steps"] = wl.CLI_N * steps
            op["ok"] = not op["errors"]

    def run(self, seconds=None, rounds=None, trace=False):
        ops = []
        start = time.perf_counter()
        r = 0
        while (r < rounds) if rounds is not None else (time.perf_counter() - start < seconds):
            ops += self.round(r, len(ops), trace)
            r += 1
        return ops


def cli_spans(ops):
    """Child spans of traced cli-file ops, each under a span for its op."""
    spans = []
    for op in ops:
        anchor = len(spans)
        spans.append({"name": "op", "start": op["start"], "end": op["start"] + op["seconds"],
                      "parent": None, "op": op["id"], "meta": {}})
        for s in op["spans"] or []:
            s["parent"] = anchor if s["parent"] is None else s["parent"] + anchor + 1
            spans.append(s)
    return spans


# ---------------------------------------------------------------------------
# results


def machine_record(seed):
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    l3 = caches.get("L3", "")
    l3_mib = int(l3[:-1]) / 1024 if l3.endswith("K") and l3[:-1].isdigit() else 0.0
    array_mib = wl.LONG_N * 8 / 2 ** 20
    fits = 0 < 3 * array_mib < l3_mib  # a step keeps a few such arrays live
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2_per_core": caches.get("L2", "unknown"),
        "l3_shared": l3 or "unknown",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "seed": seed,
        "note": (
            f"long-signal arrays are {array_mib:g} MiB and "
            + (f"fit in the {l3_mib:g} MiB shared L3, so DRAM bandwidth is not measured; "
               if fits else "may not fit in L3; ")
            + "bytes per sample-step are computed, not measured"
        ),
    }


def end_to_end(ops, setup_s, rss_mb):
    ran = [op for op in ops if op["seconds"] > 0.0]
    times = [op["seconds"] for op in ran]
    tail, pct, beyond = mx.tail_percentile(times)
    values = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (mx.median(times), "s"),
        "op_s_tail": (tail, "s"),
        "sample_steps_per_s": (mx.sample_steps_per_s(ran), "1/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    notes = {"op_s_tail": f"p{pct:.1f} of {len(times)} ops, {beyond} beyond it"}
    return values, notes


UNITS = {
    "cli.import_s": "s", "variational.import_scipy_s": "s",
    "cli.read_s": "s", "cli.write_s": "s", "cli.noise_s": "s",
    "cli.bytes_read": "B/op", "cli.bytes_written": "B/op",
    "stability.analyze_s": "s", "stability.analyze_steps": "count/op",
    "stability.report_share": "ratio",
    "nonlinearities.lipschitz_calls": "count/op", "nonlinearities.lipschitz_s": "s",
    "nonlinearities.evals_per_sample_step": "count",
    "diffusion.diffuse_s": "s", "diffusion.step_us": "us",
    "shrinkage.iterate_s": "s", "shrinkage.step_us": "us",
    "variational.minimize_s": "s", "blocks.chain_s": "s", "blocks.block_us": "us",
    "trace.overhead_ratio": "ratio",
}
for _layer in mx.KERNELS:
    UNITS[f"{_layer}.ns_per_sample_step"] = "ns"
    UNITS[f"{_layer}.bytes_per_sample_step"] = "B"


def per_layer(untraced, passes, import_s, scipy_s):
    """Per-layer metrics from two traced passes over the same op list;
    returns (values, problems).  The counts must repeat exactly."""
    problems = []
    counts = [mx.layer_metrics(spans, ops, import_s, scipy_s) for spans, ops in passes]
    for name in mx.EXACT_COUNTS:
        if counts[0][name] != counts[1][name]:
            problems.append(f"{name} differs between traced passes: "
                            f"{counts[0][name]!r} != {counts[1][name]!r}")
    spans, ops = [], []
    for pass_spans, pass_ops in passes:
        offset = len(spans)
        spans += [dict(s, parent=None if s["parent"] is None else s["parent"] + offset)
                  for s in pass_spans]
        ops += pass_ops
    layer = mx.layer_metrics(spans, ops, import_s, scipy_s)
    layer["trace.overhead_ratio"] = (
        mx.median([op["seconds"] for op in ops])
        / mx.median([op["seconds"] for op in untraced])
    )
    return {name: (value, UNITS[name]) for name, value in layer.items()}, problems


def report(workload, values, notes, ops, problems, machine):
    # Counts that did not repeat are one more failed attempt.
    failed = sum(not op["ok"] for op in ops) + (1 if problems else 0)
    attempted = len(ops) + (1 if problems else 0)
    print(f"workload: {workload}")
    print("machine: " + json.dumps(machine))
    for name, (value, unit) in values.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {unit}{extra}")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for op in ops:
        for e in op["errors"]:
            print(f"  FAILED op {op['id']} {op['method']} {op['family']}: {e}")
    for p in problems:
        print(f"  FAILED: {p}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, work):
    machine = machine_record(seed)
    if not trace:
        before, after = SETUP_PROBES
        if workload == "cli-file":
            setup, _ = measure_setup(workload, before)
            ops = CliFile(seed, work).run(seconds=seconds)
            rss = max(op["rss_mb"] for op in ops)
        else:
            setup, p = measure_setup(workload, before, keep_last=True)
            result = worker_result(p, seed, seconds, False)
            ops, rss = result["ops"], result["peak_rss_mb"]
        setup_s = mx.median(setup + measure_setup(workload, after)[0])
        values, notes = end_to_end(ops, setup_s, rss)
        return report(workload, values, notes, ops, [], machine)

    import_s, scipy_s = measure_imports()
    if workload == "cli-file":
        bench = CliFile(seed, work)
        untraced = bench.run(rounds=1)
        passes = []
        for _ in range(2):
            ops = bench.run(rounds=1, trace=True)
            passes.append((cli_spans(ops), ops))
    else:
        p, _ = start_worker(workload)
        result = worker_result(p, seed, seconds, True)
        untraced = result["untraced"]
        passes = [(t["spans"], t["ops"]) for t in result["traced"]]
    values, problems = per_layer(untraced, passes, import_s, scipy_s)
    all_ops = untraced + [op for _, ops in passes for op in ops]
    return report(workload, values, {}, all_ops, problems, machine)


def run_all(args):
    """Every workload, each in its own fresh process, then one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        p = _spawn([sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        out, _ = p.communicate()
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if p.returncode in (0, 1) and lines else None
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "denoise1d", "__init__.py")):
        print(f"no denoise1d sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Turn SIGTERM into an exit, so that the clean-up below still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        try:
            return run_all(args)
        finally:
            _stop_all()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        _stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
