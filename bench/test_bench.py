"""Tests of the benchmark's own helpers.

    python3 -m pytest bench/test_bench.py
"""

import math

import numpy as np
import pytest

import metrics as mx
import tracing
import workloads as wl


def test_tail_percentile_keeps_ten_values_beyond():
    value, pct, beyond = mx.tail_percentile(list(range(100, 0, -1)))
    assert (value, pct, beyond) == (90, 90.0, 10)
    value, pct, beyond = mx.tail_percentile([float(v) for v in range(11)])
    assert (value, beyond) == (0.0, 10)
    assert math.isclose(pct, 100.0 / 11)


def test_tail_percentile_without_enough_values_is_the_maximum():
    assert mx.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        mx.tail_percentile([])


def _span(start, end, parent):
    return {"start": start, "end": end, "parent": parent}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0.0, 10.0, None),  # 0: covered by [1, 5] and [9, 10]
        _span(1.0, 3.0, 0),      # 1: overlaps span 3, has child 2
        _span(1.5, 2.0, 1),      # 2
        _span(2.0, 5.0, 0),      # 3
        _span(9.0, 12.0, 0),     # 4: runs past its parent
    ]
    assert mx.self_times(spans) == pytest.approx([5.0, 1.5, 0.5, 3.0, 3.0])


def test_sample_steps_per_s_counts_work_of_passed_ops_over_all_time():
    ops = [
        {"seconds": 1.0, "sample_steps": 100, "ok": True},
        {"seconds": 3.0, "sample_steps": 50, "ok": False},
        {"seconds": 0.5, "sample_steps": 200, "ok": True},
    ]
    assert mx.sample_steps_per_s(ops) == pytest.approx(300 / 4.5)


def test_layer_metrics_per_op_counts_and_per_step_times():
    spans = [
        {"name": "stability.analyze", "start": 0.0, "end": 2.0, "parent": None,
         "op": 0, "meta": {"steps": 50, "n": 10, "evals": 500}},
        {"name": "nonlinearities.estimate_lipschitz", "start": 0.0, "end": 0.5,
         "parent": 0, "op": 0, "meta": {}},
        {"name": "shrinkage.iterate_shrinkage", "start": 3.0, "end": 4.0, "parent": None,
         "op": 1, "meta": {"steps": 50, "n": 10, "evals": 1000}},
    ]
    ops = [{"seconds": 5.0, "sample_steps": 500, "ok": True},
           {"seconds": 5.0, "sample_steps": 500, "ok": True}]
    out = mx.layer_metrics(spans, ops, 0.5, 0.3)
    assert out["stability.analyze_steps"] == 25
    assert out["stability.analyze_s"] == pytest.approx(1.5)
    assert out["stability.report_share"] == pytest.approx(0.2)
    assert out["nonlinearities.lipschitz_calls"] == 0.5
    assert out["nonlinearities.evals_per_sample_step"] == 1.5
    assert out["shrinkage.step_us"] == pytest.approx(1e6 / 50)
    assert out["shrinkage.ns_per_sample_step"] == pytest.approx(1e9 / 500)
    assert out["shrinkage.bytes_per_sample_step"] == 8 * 30 + 16 * 2
    assert out["blocks.chain_s"] == 0.0


def test_tracer_nests_spans_and_charges_evaluations_to_the_open_span():
    tracer = tracing.Tracer()
    tracer.op = 7
    phi = tracer.counting(lambda r: 2.0 * r)
    shrink = tracer.counting(lambda r: phi(r) + 1.0)  # built from phi: counted once
    inner = tracer.span("inner", lambda x: shrink(x), None)
    lipschitz = tracer.span(tracing.LIPSCHITZ, lambda x: phi(x), None)

    def body(x):
        inner(x)
        lipschitz(x)
        return phi(x[:2])

    tracer.span("outer", body, None)(np.zeros(5))
    phi(np.zeros(3))  # outside any span: not counted
    spans = tracer.take()
    assert [s["name"] for s in spans] == ["outer", "inner", tracing.LIPSCHITZ]
    assert [s["parent"] for s in spans] == [None, 0, 0]
    assert {s["op"] for s in spans} == {7}
    assert [s["meta"].get("evals", 0) for s in spans] == [2, 5, 0]
    assert all(s["start"] <= s["end"] for s in spans)
    assert tracer.take() == []


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   numpy
import time:        50 |         50 |       scipy.linalg._misc
import time:       200 |        250 |     scipy.linalg
import time:        10 |         10 |     denoise1d.signals
import time:       300 |        560 |   denoise1d.variational
import time:       400 |       1060 | denoise1d.cli
"""


def test_parse_importtime_sums_scipy_under_variational():
    cli_s, scipy_s = mx.parse_importtime(IMPORTTIME, "denoise1d.cli")
    assert cli_s == pytest.approx(1060e-6)
    assert scipy_s == pytest.approx(250e-6)


def test_check_output_flags_each_broken_invariant():
    x = np.array([0.0, 1.0, -1.0, 0.5])
    assert wl.check_output(x, x.copy(), 1, x, "maxmin") == []
    assert wl.check_output(x, x + 1e-3, 1) != []                       # sum
    assert wl.check_output(x, x[::-1].copy(), 1, x) != []              # agreement
    assert wl.check_output(x, np.array([0.0, 1.5, -1.5, 0.5]), 1, None, "maxmin") != []
    assert wl.check_output(x, np.array([1.0, -1.0, 1.0, -0.5]), 1, None, "sign-stable") != []


def test_benchmark_json_names_the_metrics_the_runs_print():
    import json
    import os

    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ops = [{"seconds": 1.0, "sample_steps": 10, "ok": True}] * 3
    values, _ = run.end_to_end(ops, 0.5, 60.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in values.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
