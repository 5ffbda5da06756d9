"""Tests of the benchmark's own statistics, span arithmetic and oracle."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench.compare import compare
from perfbench.run import WORKLOADS as RUN_WORKLOADS
from perfbench.run import tail_percentile
from perfbench.tracer import Span, Tracer, layer_metrics, repeat_ratio, self_times
from perfbench.worker import PROBE_SHARE, Loop, SpeedProbe
from perfbench.workloads import WORKLOADS, ReportResult, ScrambledRandom


def test_tail_percentile_leaves_ten_samples_beyond():
    pct, value, beyond = tail_percentile([float(x) for x in range(1, 26)])
    assert (pct, value, beyond) == (60.0, 15.0, 10)
    pct, value, beyond = tail_percentile(list(range(1000, 0, -1)))
    assert (pct, value, beyond) == (99.0, 990, 10)


def test_tail_percentile_falls_back_to_the_median_with_few_samples():
    assert tail_percentile([5.0, 1.0, 3.0]) == (pytest.approx(200 / 3), 3.0, 1)
    assert tail_percentile([4.0, 1.0, 3.0, 2.0]) == (75.0, 3.0, 1)
    # 19 samples cannot leave ten beyond any rank at or above the median.
    pct, value, beyond = tail_percentile(list(range(1, 20)))
    assert (value, beyond) == (10, 9)


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("outer", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 4.0, 8.0, 0, 0),
        Span("inner", 5.0, 6.0, 2, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_repeat_ratio_counts_repeats_within_an_op_only():
    spans = [
        Span("spectral.eigh", 0, 1, None, 0, {"key": "x"}),
        Span("kernel", 0, 1, 0, 0, {"dim": 3, "sweeps": 2}),
        Span("spectral.eigvalsh", 1, 2, None, 0, {"key": "x"}),
        Span("spectral.eigh", 2, 3, None, 0, {"key": "y"}),
        Span("spectral.eigvalsh", 3, 4, None, 1, {"key": "x"}),
    ]
    assert repeat_ratio(spans) == 0.25
    assert repeat_ratio(spans[1:2]) == 0.0


def test_layer_metrics_count_nested_builders_once():
    spans = [
        Span("models.build", 0.0, 4.0, None, 0),
        Span("models.build", 1.0, 3.0, 0, 0),
        Span("kernel", 1.5, 2.5, 1, 0, {"dim": 4, "sweeps": 3}),
    ]
    m = layer_metrics(spans, n_ops=2)
    assert m["models.build.calls"][0] == 0.5
    assert m["models.build.busy_s"][0] == 2.0
    assert m["kernel.pair_visits"][0] == 3 * 6 / 2
    assert m["kernel.max_dim"][0] == 4


def test_tracer_restores_every_patched_attribute():
    import susyqm
    from susyqm import analysis, spectral

    before = (susyqm.eigvalsh, analysis.eigvalsh, spectral._kernel.jacobi_sweeps)
    tracer = Tracer()
    with tracer:
        assert analysis.eigvalsh is not before[1]
        susyqm.eigvalsh([[2.0, 1.0], [1.0, 2.0]])
    assert (susyqm.eigvalsh, analysis.eigvalsh,
            spectral._kernel.jacobi_sweeps) == before
    assert [s.name for s in tracer.spans] == ["spectral.eigvalsh", "kernel"]
    assert tracer.spans[1].parent == 0


class _WrongIndex(ScrambledRandom):
    """Small scrambled systems whose index report is off by two."""

    def __init__(self, workdir):
        self.inputs = [(3, 5, 11)]

    def op(self, inp):
        r = super().op(inp)
        return ReportResult(r.system, r.pair,
                            dataclasses.replace(r.index, index=r.index.index + 2))


def test_oracle_flags_a_wrong_index_as_a_failed_op(tmp_path):
    loop = Loop(_WrongIndex(tmp_path), SpeedProbe(8))
    loop.run_op(0)
    assert loop.failed == 1
    assert "index report gives index 0, Tr K = -2" in loop.failures[0]
    honest = Loop(ScrambledRandom(0, tmp_path), SpeedProbe(8))
    honest.workload.inputs = [(3, 5, 11)]
    honest.run_op(0)
    assert honest.failed == 0


def test_runner_and_worker_agree_on_workload_names():
    assert sorted(RUN_WORKLOADS) == sorted(WORKLOADS)


def test_compare_refuses_records_from_different_backends():
    def record(backend, value):
        return {"workload": "lattice_index", "seconds": 30, "trace": 0,
                "provenance": {"backend": backend},
                "metrics": {"latency_p50_s": {"value": value, "unit": "s"}}}

    lines = compare([record("python", 2.0)], [record("python", 1.0)])
    assert "change/base 0.5000" in lines[1]
    with pytest.raises(ValueError, match="different backends"):
        compare([record("python", 2.0)], [record("compiled", 0.2)])


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    names = set(layer_metrics([], n_ops=1)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_speed_probe_spends_its_share_of_op_time():
    probe = SpeedProbe(16)
    probe.after_op(0.5)
    assert sum(probe.times) >= PROBE_SHARE * 0.5
    assert sum(probe.times[:-1]) < PROBE_SHARE * 0.5
