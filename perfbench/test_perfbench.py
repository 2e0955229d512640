"""Tests of the benchmark itself: inputs, printed metrics, span arithmetic."""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_benchmark_json_lists_defined_workloads():
    catalogue = workloads.build()
    for entry in BENCHMARK["workloads"]:
        assert catalogue[entry["name"]].why == entry["why"]


@pytest.mark.parametrize("name", list(workloads.build()))
def test_inputs_are_a_pure_function_of_the_seed(name):
    workload = workloads.build()[name]
    for seed in (0, 1, 17, 2**31 + 5):
        assert _equal(workload.inputs(seed), workload.inputs(seed))
    seeds = range(4)
    distinct = {json.dumps(workload.inputs(s), default=lambda a: a.tolist()) for s in seeds}
    assert len(distinct) == len(seeds)


@pytest.mark.parametrize("name", ["null-n50-moments", "null-n20-ml", "power-n20-table2"])
def test_every_seed_has_a_reference(name):
    workload = workloads.build()[name]
    for seed in range(40):
        assert workload.expected(workload.inputs(seed)).startswith("statistic,")


def test_power_config_keeps_two_chunks_per_simulate_call():
    values = workloads._config_values(workloads.power_config_text(5, "x.csv"))
    assert values["seed"] == ["5"] and values["out"] == ["x.csv"]
    # Chunks hold 4096 replications at n <= 25; two or more keep the pool in use.
    assert int(values["n"][0]) <= 25
    assert int(values["reps"][0]) > 4096 and int(values["calibration-reps"][0]) > 4096


def test_csv_check_allows_last_digit_changes_only():
    want = "statistic,tuning,n,alpha,value,mc_std_error,excluded_reps\nT,3,50,0.05,0.72339,0.0175491,0\n"
    assert workloads.compare_csv(want, want) == []
    assert workloads.compare_csv(want.replace("0.72339,", "0.723391,"), want) == []
    assert workloads.compare_csv(want.replace("0.72339,", "0.723392,"), want)
    assert workloads.last_digit_close(0.999999, 1.0)
    assert not workloads.last_digit_close(0.0, 1e-300)
    assert workloads.compare_csv(want.replace(",0\n", ",1\n"), want)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(6.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_self_time_on_a_synthetic_trace():
    spans = [
        Span(0, None, 0, "montecarlo.simulate_statistics", 0.0, 10.0, {"reps": 100}),
        Span(1, 0, 0, "logistic_core.sample", 1.0, 2.0),
        Span(2, 0, 0, "estimation.moment_residuals_batch", 2.0, 3.0, {"rows": 100, "failures": 1}),
        Span(3, 0, 0, "_kernels.compute_batch", 3.0, 7.0),
        Span(4, 3, 0, "inner", 4.0, 5.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 1.0, 2: 1.0, 3: 3.0, 4: 1.0})

    tracer = Tracer()
    tracer.spans = spans
    values = layers.layer_metrics(tracer, calls=1, extras={})
    assert values["montecarlo.engine_self_us_per_rep"] == pytest.approx(4e4)
    assert values["_kernels.batch_us_per_rep"] == pytest.approx(4e4)
    assert values["logistic_core.sample_us_per_rep"] == pytest.approx(1e4)
    assert values["estimation.fit_us_per_rep"] == pytest.approx(1e4)
    assert values["estimation.fit_failures"] == 1
    assert values["estimation.fits_attempted"] == 100
    assert values["montecarlo.simulate_calls"] == 1


def test_missing_entry_point_is_reported_as_missing_not_zero():
    tracer = Tracer()
    assert not tracer._patch("logigof.montecarlo", "no_such_function", lambda fn: fn)
    tracer.missing.append("montecarlo.run_chunk")
    values = layers.layer_metrics(tracer, calls=1, extras={})
    assert values["montecarlo.chunks"] is None
    assert values["montecarlo.simulate_calls"] == 0


def test_layer_map_matches_benchmark_json():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers.LAYER_METRICS)
    for m in BENCHMARK["per_layer"]:
        unit, better, _, _ = layers.LAYER_METRICS[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_metric_is_printed(trace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda repeats=1: [0.5])
    workload = workloads.SingleSampleWorkload("tiny", "small n keeps the test quick", n=64)
    inputs = workload.inputs(3)
    if trace:
        out = run.run_traced(workload, inputs, 1, str(tmp_path), str(tmp_path / "s.gz"))
        names = [m["name"] for m in BENCHMARK["per_layer"]]
    else:
        out = run.run_end_to_end(workload, inputs, 1, str(tmp_path))
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert out["problems"] == []
    run.print_summary(workload, 3, trace, 1, out)
    print(run.result_line(True, len(out["records"]), 0, out["metrics"]))
    printed = capsys.readouterr().out
    result = _last_json(printed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == names
    for name in names:
        assert name in printed
    if trace:
        assert result["metrics"]["statistics.T_s"]["value"] > 0
        assert result["metrics"]["montecarlo.simulate_calls"]["value"] == 0
