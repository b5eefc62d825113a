"""Cross-process tracing, worker telemetry shipping, and the run ledger."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import obs, telemetry
from repro.obs import (
    LEDGER_SCHEMA,
    RunLedger,
    TraceContext,
    WorkerTelemetry,
    build_wire,
    current_trace,
    ensure_trace,
    follow_events,
    format_top,
    get_ledger,
    ledger_enabled,
    merge_worker_telemetry,
    parse_exposition,
    record_report,
    record_run,
    trace_scope,
    worker_capture,
)
from repro.obs.worker import ledger_fields

pytestmark = pytest.mark.obs

#: one appender process: waits for the ``go`` file, then makes 200 ledger
#: records, each with one metric, under its own trace id.
_APPENDER = """
import os, sys, time
from repro.obs.ledger import RunLedger
directory, worker, go = sys.argv[1:4]
ledger = RunLedger(directory)
while not os.path.exists(go):
    time.sleep(0.001)
for i in range(200):
    ledger.record("run", trace_id="trace-" + worker, machine=worker,
                  metrics={"b": {"x": float(i)}})
"""


@pytest.fixture(autouse=True)
def clean_global_obs():
    """Every test starts and ends with disabled, empty global obs state."""
    log = obs.get_event_log()
    log.disable()
    log.reset()
    log.close_sink()
    telemetry.disable()
    telemetry.reset()
    yield
    log = obs.get_event_log()
    log.disable()
    log.reset()
    log.close_sink()
    telemetry.disable()
    telemetry.reset()


class TestTraceContext:
    def test_new_mints_distinct_ids(self):
        a, b = TraceContext.new(), TraceContext.new()
        assert len(a.trace_id) == 32 and len(a.span_id) == 16
        assert a.trace_id != b.trace_id

    def test_child_keeps_trace_new_span(self):
        parent = TraceContext.new()
        child = parent.child(worker=3)
        assert child.trace_id == parent.trace_id
        assert child.span_id != parent.span_id
        assert child.worker == 3

    def test_wire_round_trip(self):
        ctx = TraceContext.new().child(worker=1)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_scope_sets_and_restores(self):
        assert current_trace() is None
        ctx = TraceContext.new()
        with trace_scope(ctx):
            assert current_trace() == ctx
        assert current_trace() is None

    def test_scope_stamps_event_context(self):
        log = obs.get_event_log()
        log.enable()
        ctx = TraceContext.new().child(worker=2)
        with trace_scope(ctx):
            obs.log_event("sim", "tick")
        [rec] = log.events()
        assert rec["ctx"]["trace_id"] == ctx.trace_id
        assert rec["ctx"]["worker"] == 2

    def test_ensure_trace_reuses_enclosing(self):
        with ensure_trace() as outer:
            with ensure_trace() as inner:
                assert inner.trace_id == outer.trace_id
        assert current_trace() is None


class TestRunLedger:
    def test_record_stamps_schema_and_trace(self, tmp_path):
        ledger = RunLedger(tmp_path)
        with ensure_trace() as ctx:
            row = ledger.record("run", benchmark="mm_fc")
        assert row["schema"] == LEDGER_SCHEMA
        assert row["trace_id"] == ctx.trace_id
        [read] = ledger.rows()
        assert read["benchmark"] == "mm_fc"

    def test_rows_filter_by_trace(self, tmp_path):
        ledger = RunLedger(tmp_path)
        with ensure_trace() as ctx:
            ledger.record("run")
            ledger.record("run")
        ledger.record("run", trace_id="elsewhere")
        assert len(ledger.rows(trace_id=ctx.trace_id)) == 2
        assert len(ledger.rows()) == 3

    def test_traces_summary(self, tmp_path):
        ledger = RunLedger(tmp_path)
        with ensure_trace() as ctx:
            ledger.record("simulate", benchmark="K-NN", machine="f1")
            ledger.record("sweep-cell", benchmark="K-NN", machine="f1")
        summary = ledger.traces()[ctx.trace_id]
        assert summary["rows"] == 2
        assert summary["kinds"] == ["simulate", "sweep-cell"]
        assert summary["benchmarks"] == ["K-NN"]
        # one scan folds every row: first/last timestamps span the
        # trace, lists keep first-seen order, untraced rows count nowhere
        ledger.record("run", trace_id="t", ts=5.0, machine="f1")
        ledger.record("sweep-cell", trace_id="t", ts=3.0, benchmark="LVQ",
                      machine="f100")
        ledger.record("run", ts=9.0, benchmark="untraced")
        assert ledger.traces()["t"] == {
            "benchmarks": ["LVQ"], "first_ts": 3.0,
            "kinds": ["run", "sweep-cell"], "last_ts": 5.0,
            "machines": ["f1", "f100"], "rows": 2}
        assert set(ledger.traces()) == {ctx.trace_id, "t"}

    def test_two_processes_lose_no_rows_or_points(self, tmp_path):
        """Two processes append to one ledger at once: the per-trace
        summaries count every row in ``runs.jsonl``, each process keeps
        all 200 of its points, and the ledger is still one file."""
        go = tmp_path / "go"
        directory = tmp_path / "ledger"
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        procs = [subprocess.Popen([sys.executable, "-c", _APPENDER,
                                   str(directory), str(worker), str(go)],
                                  env=env)
                 for worker in range(2)]
        go.touch()
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        ledger = RunLedger(directory)
        per_trace = Counter(row["trace_id"] for row in ledger.rows())
        assert per_trace == {"trace-0": 200, "trace-1": 200}
        assert {t: s["rows"] for t, s in ledger.traces().items()} == per_trace
        series = ledger.series()
        assert {key: [v for _ts, v in points]
                for key, points in series.items()} == {
            ("b", str(worker), "x"): [float(i) for i in range(200)]
            for worker in range(2)}
        assert [p.name for p in directory.iterdir()] == ["runs.jsonl"]

    def test_torn_final_line_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record("run", benchmark="ok")
        with open(ledger.runs_path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.obs.ledger", "v": 1, "kind": "tor')
        rows = ledger.rows()
        assert len(rows) == 1 and rows[0]["benchmark"] == "ok"

    def test_torn_line_does_not_swallow_the_next_row(self, tmp_path):
        """A row recorded after a torn last line ends that line first, so
        only the fragment is lost."""
        ledger = RunLedger(tmp_path)
        ledger.record("run", benchmark="a")
        with open(ledger.runs_path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.obs.ledger", "v": 1, "kind": "tor')
        ledger.record("run", benchmark="b")
        ledger.record("run", benchmark="c")
        assert [r["benchmark"] for r in ledger.rows()] == ["a", "b", "c"]

    def test_rows_last_is_bounded_tail_and_skips_torn_lines(self, tmp_path):
        """``rows(last=N)`` streams through a bounded deque (PR 9
        satellite): the newest N decodable rows come back in order even
        with a torn trailing line, without materializing the full log."""
        ledger = RunLedger(tmp_path)
        for i in range(20):
            ledger.record("run", benchmark=f"b{i}")
        with open(ledger.runs_path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.obs.ledger", "v": 1, "kind": "tor')
        tail = ledger.rows(last=3)
        assert [r["benchmark"] for r in tail] == ["b17", "b18", "b19"]
        assert ledger.rows(last=0) == []
        assert len(ledger.rows(last=100)) == 20
        # composes with the trace filter
        with ensure_trace() as ctx:
            ledger.record("run", benchmark="traced1")
            ledger.record("run", benchmark="traced2")
        tail = ledger.rows(trace_id=ctx.trace_id, last=1)
        assert [r["benchmark"] for r in tail] == ["traced2"]

    @pytest.mark.parametrize("value", ["off", "0", "none", "disabled", ""])
    def test_off_values_disable(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", value)
        assert not ledger_enabled()
        assert get_ledger() is None
        assert record_run("run") is None

    def test_env_directory_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "custom"))
        row = record_run("run", benchmark="mm_fc")
        assert row is not None
        assert (tmp_path / "custom" / "runs.jsonl").exists()

    def test_record_run_fail_soft_on_unwritable_dir(self, tmp_path):
        target = tmp_path / "file-not-dir"
        target.write_text("x")
        assert record_run("run", directory=target / "sub") is None

    def test_record_run_directory_keeps_row_and_series_together(
            self, tmp_path, monkeypatch):
        """``directory=`` receives the row and the series it carries, in
        its one file; nothing is created under ``$REPRO_LEDGER``."""
        env_dir, target = tmp_path / "env", tmp_path / "target"
        monkeypatch.setenv("REPRO_LEDGER", str(env_dir))
        with ensure_trace():
            record_run("profile", directory=target, benchmark="mm_fc",
                       machine="tiny", makespan_s=0.5)
            record_report({"benchmark": "K-NN", "machine": "tiny",
                           "simulator": {"total_time_s": 0.25}},
                          directory=target)
        ledger = RunLedger(target)
        assert len(ledger.traces()) == 1
        assert {key: [v for _ts, v in points]
                for key, points in ledger.series().items()} == {
            ("mm_fc", "tiny", "makespan_s"): [0.5],
            ("K-NN", "tiny", "makespan_s"): [0.25],
        }
        assert [p.name for p in target.iterdir()] == ["runs.jsonl"]
        assert not env_dir.exists()

    def test_record_counts_when_registry_enabled(self, tmp_path):
        telemetry.enable()
        RunLedger(tmp_path).record("run")
        reg = telemetry.get_registry()
        assert reg.value("ledger.rows", {"kind": "run"}) == 1

    def test_record_report_extracts_provenance(self, tmp_path):
        telemetry.enable()
        with ensure_trace() as ctx:
            report = telemetry.build_run_report(
                benchmark="mm_fc", machine="tiny",
                registry=telemetry.get_registry(),
                tracer=telemetry.get_tracer())
            row = record_report(report, kind="profile", directory=tmp_path,
                                fingerprint="abcd1234")
        assert row["benchmark"] == "mm_fc"
        assert row["machine"] == "tiny"
        assert row["trace_id"] == ctx.trace_id
        assert row["fingerprint"] == "abcd1234"

    def test_record_report_fail_soft(self, tmp_path):
        assert record_report(object(), directory=tmp_path) is None


class TestWorkerTelemetry:
    def _wire(self, ctx=None, worker=1):
        telemetry.enable()
        obs.get_event_log().enable()
        return build_wire(ctx or TraceContext.new(), worker)

    def test_wire_carries_enable_flags(self):
        ctx = TraceContext.new()
        wire = self._wire(ctx)
        assert wire["counters"] and wire["tracing"] and wire["events"]
        assert TraceContext.from_wire(wire["trace"]) == ctx

    def test_capture_ships_deltas_not_absolutes(self):
        ctx = TraceContext.new()
        reg = telemetry.get_registry()
        telemetry.enable()
        reg.count("sim.cycles", 100)  # pre-existing (inherited on fork)
        wire = self._wire(ctx)
        with worker_capture(wire) as capture:
            reg.count("sim.cycles", 7)
        wt = capture.telemetry
        assert wt.trace_id == ctx.trace_id
        assert wt.worker == 1
        assert ("sim.cycles", (), 7) in wt.counters
        assert wt.wall_s >= 0

    def test_capture_ships_span_rollups_and_events(self):
        wire = self._wire()
        with worker_capture(wire) as capture:
            with telemetry.span("cell.simulate", cat="sim"):
                obs.log_event("sim", "cell.start")
        wt = capture.telemetry
        assert wt.spans["cell.simulate"]["count"] == 1
        assert wt.events_total == 1
        assert wt.events[0]["event"] == "cell.start"
        assert wt.events[0]["ctx"]["trace_id"] == wt.trace_id

    def test_merge_labels_series_with_worker(self):
        telemetry.enable()
        wt = WorkerTelemetry(
            worker=2, trace_id="t" * 32, span_id="s" * 16, wall_s=0.5,
            counters=[("sim.cycles", (("level", "0"),), 7.0)],
            gauges=[("obs.heartbeat", (), 3.0)],
            spans={"cell": {"cat": "sim", "count": 2, "total_s": 0.4,
                            "max_s": 0.3}},
            events_total=5)
        merge_worker_telemetry(wt)
        reg = telemetry.get_registry()
        assert reg.value("sim.cycles", {"level": "0", "worker": "2"}) == 7
        assert reg.value("worker.spans", {"name": "cell", "worker": "2"}) == 2
        assert reg.value("worker.wall_seconds", {"worker": "2"}) == 0.5
        assert reg.value("worker.events", {"worker": "2"}) == 5

    def test_merge_ingests_events_into_parent_log(self):
        log = obs.get_event_log()
        log.enable()
        wt = WorkerTelemetry(
            worker=0, trace_id="t" * 32, span_id="s" * 16,
            events=[{"schema": "repro.obs.event", "v": 1, "seq": 9,
                     "ts": 1.0, "severity": "info", "subsystem": "sim",
                     "event": "shipped"}])
        merge_worker_telemetry(wt)
        [rec] = log.events()
        assert rec["event"] == "shipped"
        assert rec["worker"] == 0
        assert rec["origin_seq"] == 9
        assert rec["seq"] == 1  # re-stamped by the parent log

    def test_ledger_fields_bounded(self):
        wt = WorkerTelemetry(
            worker=1, trace_id="t" * 32, span_id="s" * 16, wall_s=0.25,
            counters=[(f"c{i}", (), 1.0) for i in range(80)],
            events=[{"event": f"e{i}"} for i in range(40)],
            events_total=40)
        fields = ledger_fields(wt, max_series=64, max_events=20)
        assert fields["makespan_s"] == 0.25
        assert len(fields["counters"]) == 64
        assert fields["counters_truncated"] == 16
        assert len(fields["events"]) == 20


class TestEventIngestAndRotation:
    def test_ingest_requires_enabled(self):
        log = obs.get_event_log()
        assert log.ingest({"event": "x"}) is None

    def test_sink_rotation_rolls_once(self, tmp_path):
        log = obs.get_event_log()
        log.enable()
        path = tmp_path / "events.jsonl"
        log.attach_jsonl(str(path), max_bytes=300)
        for i in range(50):
            obs.log_event("sim", "tick", i=i)
        log.close_sink()
        assert log.sink_rotations > 0
        rolled = tmp_path / "events.jsonl.1"
        assert rolled.exists()
        assert path.stat().st_size <= 300
        # both files hold only whole, decodable lines
        for p in (path, rolled):
            with open(p, encoding="utf-8") as fh:
                assert all(rec is not None for rec, _ in obs.iter_jsonl(fh))

    def test_rotation_keeps_at_least_one_line_per_file(self, tmp_path):
        log = obs.get_event_log()
        log.enable()
        path = tmp_path / "events.jsonl"
        log.attach_jsonl(str(path), max_bytes=10)  # smaller than any line
        obs.log_event("sim", "tick")
        obs.log_event("sim", "tock")
        log.close_sink()
        with open(path, encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 1

    def test_unbounded_by_default(self, tmp_path):
        log = obs.get_event_log()
        log.enable()
        log.attach_jsonl(str(tmp_path / "e.jsonl"))
        for _ in range(100):
            obs.log_event("sim", "tick")
        log.close_sink()
        assert log.sink_rotations == 0


class TestFollowEvents:
    def test_yields_appended_records(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"event": "first"}\n')
        appended = {"done": False}

        def fake_sleep(_s):
            if not appended["done"]:
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write('{"event": "second"}\n')
                appended["done"] = True

        got = []
        stop = lambda: len(got) >= 2  # noqa: E731
        for rec in follow_events(path, poll_interval=0.01, stop=stop,
                                 _sleep=fake_sleep):
            got.append(rec["event"])
        assert got == ["first", "second"]

    def test_start_at_end_skips_existing(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"event": "old"}\n')
        state = {"appended": False}

        def fake_sleep(_s):
            if not state["appended"]:
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write('{"event": "new"}\n')
                state["appended"] = True

        got = []
        for rec in follow_events(path, poll_interval=0.01,
                                 stop=lambda: len(got) >= 1,
                                 start_at_end=True, _sleep=fake_sleep):
            got.append(rec["event"])
        assert got == ["new"]

    def test_truncation_resets_position(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b"}\n')
        state = {"step": 0}

        def fake_sleep(_s):
            if state["step"] == 0:  # simulate rotation: shrink the file
                path.write_text('{"event": "fresh"}\n')
            state["step"] += 1

        got = []
        for rec in follow_events(path, poll_interval=0.01,
                                 stop=lambda: len(got) >= 3,
                                 _sleep=fake_sleep):
            got.append(rec["event"])
        assert got == ["a", "b", "fresh"]


class TestTopParsing:
    def test_parse_exposition(self):
        text = ('# TYPE repro_sim_busy_seconds counter\n'
                'repro_sim_busy_seconds_total{level="0",stage="compute"} 1.5\n'
                'repro_obs_healthy 1\n')
        samples = parse_exposition(text)
        assert samples[("repro_sim_busy_seconds_total",
                        (("level", "0"), ("stage", "compute")))] == 1.5
        assert samples[("repro_obs_healthy", ())] == 1.0

    def test_format_top_sections(self):
        samples = {
            ("repro_obs_healthy", ()): 1.0,
            ("repro_sim_busy_seconds_total",
             (("level", "0"), ("stage", "compute"))): 2.0,
            ("repro_sim_idle_seconds_total",
             (("cause", "dma"), ("level", "0"))): 0.5,
            ("repro_worker_wall_seconds_total", (("worker", "1"),)): 0.25,
        }
        text = format_top(samples)
        assert "health=OK" in text
        assert "dma=0.5s" in text
        assert "worker" in text


class TestCliTraceCommands:
    def _seed_ledger(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
        with ensure_trace() as ctx:
            record_run("simulate", benchmark="K-NN", machine="f1",
                       makespan_s=0.5)
        return ctx.trace_id

    def test_trace_ls_json(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        trace_id = self._seed_ledger(tmp_path, monkeypatch)
        assert main(["trace", "ls", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.obs.trace_list"
        assert doc["traces"][0]["trace_id"] == trace_id

    def test_trace_show_prefix_json(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        trace_id = self._seed_ledger(tmp_path, monkeypatch)
        assert main(["trace", "show", trace_id[:8], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.obs.trace"
        assert doc["trace_id"] == trace_id
        assert doc["rows"][0]["benchmark"] == "K-NN"

    def test_trace_show_unknown_exits_1(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        self._seed_ledger(tmp_path, monkeypatch)
        assert main(["trace", "show", "ffff"]) == 1

    def test_trace_ls_disabled_exits_2(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_LEDGER", "off")
        assert main(["trace", "ls"]) == 2

    def test_plain_trace_still_writes_chrome_trace(self, tmp_path, capsys,
                                                   monkeypatch):
        from repro.cli import main
        monkeypatch.setenv("REPRO_LEDGER", "off")
        out = tmp_path / "t.json"
        assert main(["trace", "-m", "f1", "-b", "K-NN",
                     "-o", str(out)]) == 0
        assert out.exists()

    def test_plain_trace_without_benchmark_exits_2(self, capsys, monkeypatch):
        from repro.cli import main
        monkeypatch.setenv("REPRO_LEDGER", "off")
        assert main(["trace"]) == 2
