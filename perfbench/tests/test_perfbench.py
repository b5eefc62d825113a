"""Tests of the benchmark's own code: statistics, span arithmetic, output
checks and the agreement of its metric lists and reference values.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import harness
import hostspeed
import run
import spans
import stats
from repro.runtime import InferenceSession

ROOT = Path(__file__).resolve().parents[2]


# -- the percentile rule --------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.tail(values) == (90, 90.0)
    value, pct = stats.tail([float(v) for v in range(1, 21)])
    assert (value, pct) == (10.0, 50.0)
    assert sum(v > value for v in range(1, 21)) == 10


def test_tail_needs_eleven_samples():
    assert stats.tail(list(range(10))) is None
    assert stats.tail(list(range(11))) == (0, pytest.approx(100 / 11))


# -- host-speed normalisation ----------------------------------------------------

def test_sampler_survives_reading_while_sampling(monkeypatch):
    monkeypatch.setattr(hostspeed, "PERIOD", 0.001)
    sampler = hostspeed.SpeedSampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            clock = sampler.clock()
            sampler.summary()
    finally:
        sampler.stop()
    assert len(sampler.samples) > 20
    t1 = time.perf_counter()
    assert 0 < clock(t0, t1) < 10 * (t1 - t0)


def test_import_probes_time_the_imports_in_fresh_interpreters():
    wall_s, normalised = run.probe_imports()
    assert 0 < wall_s < 60 and 0 < normalised < 60


# -- self-time arithmetic ---------------------------------------------------------

def test_self_times_subtract_direct_children_once():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    self_t = spans.self_times(start, end, parent)
    assert self_t.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert self_t.sum() == end[0] - start[0]


def test_recorder_nests_wrapped_calls_under_the_request():
    rec = spans.SpanRecorder()
    inner = spans._wrap(rec, rec.name_id("inner"), lambda: None)
    outer = spans._wrap(rec, rec.name_id("outer"), lambda: inner())
    with rec.request_span("p", "m", "warm"):
        outer()
        outer()
    arr = rec.arrays()
    names = [rec.names[i] for i in arr["name"]]
    assert names == ["request", "outer", "inner", "outer", "inner"]
    assert arr["parent"].tolist() == [-1, 0, 1, 0, 3]
    assert set(arr["request"].tolist()) == {0}
    self_t = spans.self_times(arr["start"], arr["end"], arr["parent"])
    assert self_t.sum() == pytest.approx(arr["end"][0] - arr["start"][0])


def traced_mm_fc(tmp_path):
    workload = harness.FunctionalWorkload((("mm_fc", "f1"), ("mm_fc", "f100")),
                                          seed=3, work_dir=tmp_path, disk=True)
    untraced = workload.run(0.0, rounds=1)
    workload.renew_sessions()
    rec = spans.SpanRecorder()
    saved = spans.install(rec)
    try:
        traced = workload.run(0.0, rec=rec, rounds=1)
    finally:
        spans.uninstall(saved)
    assert untraced.failed == traced.failed == 0
    return workload, untraced, traced, rec


def test_traced_rows_and_remainder_sum_to_wall_time(tmp_path):
    workload, untraced, traced, rec = traced_mm_fc(tmp_path)
    metrics, table, problem = run.layer_metrics(
        rec, traced, untraced, workload.plan_counts(), hostspeed.wall, 1.0,
        is_sim=False)
    assert problem is None
    assert set(table) == {"cold", "first", "warm", "restart"}
    for phase, rows in table.items():
        assert rows[run.WALL] == traced.total(hostspeed.wall, phase)
        parts = sum(v for k, v in rows.items() if k != run.WALL)
        assert parts == pytest.approx(rows[run.WALL], abs=2 * run.ACCOUNTING_SLACK)
    # decomposition under compile_program is counted once, in decomp.*
    first = table["first"]
    assert first["decomp.parallel_s"] > 0 and first["compile.walk_s"] > 0
    assert metrics["cache.load_s"] > 0 and metrics["cache.verify_s"] > 0
    assert metrics["compile.plan_steps"] > 0 and metrics["ops.calls"] > 0


def test_accounting_check_uses_the_harness_clock(tmp_path):
    workload, untraced, traced, rec = traced_mm_fc(tmp_path)
    # the harness timed 10 ms that no span covers
    ivs = next(iter(traced.intervals["warm"].values()))
    t0, t1 = ivs[0]
    ivs[0] = (t0 - 0.01, t1)
    _, _, problem = run.layer_metrics(
        rec, traced, untraced, workload.plan_counts(), hostspeed.wall, 1.0,
        is_sim=False)
    assert problem is not None and problem.startswith("warm: ")


# -- output checks -----------------------------------------------------------------

def test_replay_mismatch_of_one_element_is_counted(tmp_path, monkeypatch):
    call = InferenceSession.__call__

    def corrupt_replays(self, **inputs):
        out = call(self, **inputs)
        if self.plan is not None:
            (name, value), = out.items()
            out[name] = value.copy()
            out[name].flat[7] += 1e-12
        return out

    monkeypatch.setattr(InferenceSession, "__call__", corrupt_replays)
    workload = harness.FunctionalWorkload((("mm_fc", "f1"),), seed=1,
                                          work_dir=tmp_path, disk=True)
    res = workload.run(0.0, rounds=3)
    replays = 1 + 3 + 1  # first result, warm rounds, restart
    assert res.failed == replays
    assert all("1 of 480 elements differ" in e for e in res.errors)
    assert not res.rounds["warm"]


def test_cold_result_is_checked_against_run_reference(tmp_path):
    workload = harness.FunctionalWorkload((("matmul", "f1"),), seed=1,
                                          work_dir=tmp_path, disk=False)
    pair = workload.pairs[0]
    want = pair.reference()
    off = {k: v + 1e-3 for k, v in want.items()}
    assert harness.reference_mismatch(want, want) is None
    assert "off the reference" in harness.reference_mismatch(off, want)
    assert workload.run(0.0, rounds=1).failed == 0


def test_simulated_makespan_drift_is_counted():
    key = harness.pair_key("K-NN", "f1")
    reference = harness.load_reference()
    exact = harness.SimWorkload((("K-NN", "f1"),), seed=0,
                                reference={key: reference[key]})
    assert exact.run(0.0).failed == 0
    total_time, work, traffic = reference[key]
    drifted = {key: [np.nextafter(total_time, 1.0), work, traffic]}
    res = harness.SimWorkload((("K-NN", "f1"),), seed=0,
                              reference=drifted).run(0.0)
    assert res.failed == res.attempted == 1
    assert all(e.startswith(f"{key} ") and "total_time" in e for e in res.errors)


# -- recorded values and metric lists --------------------------------------------------

def test_f1_reference_values_agree_with_the_committed_baseline():
    baseline = json.loads((ROOT / "benchmarks" / "baselines"
                           / "BENCH_reference.json").read_text())
    rows = baseline["notes"]["benchmarks"]
    reference = harness.load_reference()
    assert len(rows) == 7
    for name, row in rows.items():
        total_time, work, traffic = reference[harness.pair_key(name, "f1")]
        assert total_time == row["total_time_s"]
        assert traffic == row["root_traffic_bytes"]
        assert work == pytest.approx(row["attained_ops"] * total_time, rel=1e-12)


def test_benchmark_json_lists_the_metrics_the_command_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.per_layer_catalog()
    assert [w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS)
