"""Observability layer tests: event log, flight recorder, RunReport v3.

Everything here carries the ``obs`` marker (registered in pyproject.toml)
and runs in tier-1.  The crash-bundle -> ``repro events tail`` triage
loop lives here too.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs, telemetry
from repro.core.executor import FractalExecutor
from repro.core.store import TensorStore
from repro.obs import (
    EventLog,
    FlightRecorder,
    crash_scope,
    filter_events,
    format_events,
    load_events,
    read_bundle_manifest,
)
from repro.workloads import matmul_workload, mm_fc_workload

from conftest import tiny_machine

pytestmark = pytest.mark.obs


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


def run_functional(workload, machine=None, seed=0):
    machine = machine or tiny_machine()
    rng = np.random.default_rng(seed)
    store = TensorStore()
    for t in list(workload.inputs.values()) + list(workload.params.values()):
        store.bind(t, rng.normal(size=t.shape))
    executor = FractalExecutor(machine, store)
    executor.run_program(workload.program)
    return executor


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_disabled_log_records_nothing(self):
        log = obs.get_event_log()
        assert obs.log_event("executor", "x") is None
        obs.logger("executor").info("ghost")
        assert log.events() == []
        assert log.summary()["total"] == 0

    def test_schema_fields_and_sequence(self):
        log = EventLog(enabled=True)
        r1 = log.emit("executor", "program.start", "info", instructions=3)
        r2 = log.emit("sim", "simulate.end", "info")
        assert r1["schema"] == obs.EVENT_SCHEMA and r1["v"] == 1
        assert r1["seq"] == 1 and r2["seq"] == 2
        assert r1["subsystem"] == "executor"
        assert r1["event"] == "program.start"
        assert r1["instructions"] == 3

    def test_context_propagation_and_nesting(self):
        log = EventLog(enabled=True)
        with obs.event_context(benchmark="mm_fc", machine="tiny"):
            with obs.event_context(instruction=3, opcode="MatMul"):
                rec = log.emit("ops", "dispatch.fail", "error", error="boom")
            outer = log.emit("executor", "program.end", "info")
        bare = log.emit("sim", "simulate.start", "info")
        assert rec["ctx"] == {"benchmark": "mm_fc", "machine": "tiny",
                              "instruction": 3, "opcode": "MatMul"}
        assert outer["ctx"] == {"benchmark": "mm_fc", "machine": "tiny"}
        assert "ctx" not in bare

    def test_inner_context_wins_on_collision(self):
        log = EventLog(enabled=True)
        with obs.event_context(phase="outer"):
            with obs.event_context(phase="inner"):
                rec = log.emit("sim", "x", "info")
        assert rec["ctx"]["phase"] == "inner"
        assert obs.current_context() == {}

    def test_min_severity_filters_and_counts(self):
        log = EventLog(enabled=True, min_severity="warn")
        assert log.emit("ops", "dispatch", "debug") is None
        assert log.emit("ops", "note", "info") is None
        assert log.emit("ops", "odd", "warn") is not None
        assert log.summary()["suppressed"] == 2
        assert log.summary()["total"] == 1

    def test_debug_sampling_keeps_first_of_each_name(self):
        log = EventLog(enabled=True, debug_sample=4)
        kept = [log.emit("ops", "dispatch", "debug", i=i) is not None
                for i in range(8)]
        assert kept == [True, False, False, False, True, False, False, False]
        # a different event name is independently sampled: first passes.
        assert log.emit("ops", "rare", "debug") is not None
        # info events are never sampled away.
        assert all(log.emit("ops", "hot", "info") is not None
                   for _ in range(5))

    def test_ring_eviction_counts_drops(self):
        log = EventLog(enabled=True, capacity=4)
        for i in range(10):
            log.emit("sim", "tick", "info", i=i)
        assert len(log.events()) == 4
        assert log.dropped == 6
        assert [e["i"] for e in log.events()] == [6, 7, 8, 9]
        assert log.summary() == {
            "total": 10, "retained": 4, "dropped": 6, "suppressed": 0,
            "by_severity": {"info": 10}, "by_subsystem": {"sim": 10}}

    def test_jsonl_sink_streams_and_survives_nonjson_fields(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(enabled=True)
        log.attach_jsonl(str(path))
        log.emit("executor", "start", "info", payload=object())
        log.emit("executor", "end", "info")
        log.close_sink()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["event"] == "start"

    def test_iter_jsonl_tolerates_corrupt_lines(self):
        lines = ['{"event": "ok"}', "{torn", "", '["not a dict"]']
        parsed = list(obs.iter_jsonl(lines))
        assert parsed[0] == ({"event": "ok"}, None)
        assert parsed[1][0] is None and parsed[2][0] is None

    def test_instrumented_run_emits_program_events(self):
        obs.get_event_log().enable()
        run_functional(mm_fc_workload())
        events = {e["event"] for e in obs.get_event_log().events()}
        assert "program.start" in events and "program.end" in events
        summary = obs.events_summary()
        assert summary["by_subsystem"].get("executor", 0) >= 2


class TestDisabledObsOverhead:
    def test_disabled_guard_cost_under_5_percent_of_matmul_run(self):
        """Same budget methodology as TestDisabledOverhead in
        test_telemetry.py: the disabled obs path is one flag check per
        site, and that guard budget must stay under 5% of the functional
        runtime."""
        assert not obs.get_event_log().enabled
        w = matmul_workload(24)
        machine = tiny_machine()
        rng = np.random.default_rng(0)
        arrays = {t: rng.normal(size=t.shape) for t in w.inputs.values()}

        best = float("inf")
        for _ in range(3):
            store = TensorStore()
            for t, arr in arrays.items():
                store.bind(t, arr)
            executor = FractalExecutor(machine, store)
            t0 = time.perf_counter()
            executor.run_program(w.program)
            best = min(best, time.perf_counter() - t0)

        stats = executor.stats
        # one guard per fractal node + kernel dispatch + fan-out.
        events = (sum(stats.instructions_per_level.values())
                  + 2 * stats.kernel_calls + stats.fanouts + 8)
        log = obs.get_event_log()
        t0 = time.perf_counter()
        for _ in range(events):
            if log.enabled:  # pragma: no cover
                raise AssertionError("event log unexpectedly enabled")
        guard_cost = time.perf_counter() - t0
        assert guard_cost < 0.05 * best, (
            f"disabled-obs guards cost {guard_cost * 1e3:.3f} ms vs "
            f"{best * 1e3:.3f} ms run ({guard_cost / best:.1%})")


class TestImportFootprint:
    def test_cli_and_obs_import_no_web_stack(self):
        """Nothing in ``repro`` serves or fetches over HTTP, so importing
        the CLI and the observability layer loads no web modules."""
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        code = ("import sys, repro.cli, repro.obs; "
                "print([m for m in ('http.server', 'socketserver', "
                "'urllib.request') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Flight recorder + crash bundles
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_marks_record_counter_deltas(self):
        with telemetry.enabled_scope() as (reg, _tr):
            rec = FlightRecorder(registry=reg)
            rec.mark("start")
            reg.count("executor.kernel_calls", 5)
            m = rec.mark("end")
        assert m["delta"] == {"executor.kernel_calls": 5.0}
        assert [x["label"] for x in rec.marks] == ["start", "end"]

    def test_manual_dump_bundle_layout(self, tmp_path):
        log = obs.get_event_log()
        log.enable()
        with telemetry.enabled_scope() as (reg, tr):
            with tr.span("host.profile", cat="host"):
                log.emit("executor", "program.start", "info")
            rec = FlightRecorder(event_log=log, registry=reg, tracer=tr)
            rec.report_context.update({"benchmark": "mm_fc",
                                       "machine": "tiny"})
            rec.mark("only")
            bundle = rec.dump(str(tmp_path), reason="manual-test")
        names = sorted(p.name for p in bundle.iterdir())
        assert names == ["MANIFEST.json", "config.json", "counters.json",
                         "events.jsonl", "marks.json", "report.json",
                         "spans.jsonl"]
        manifest = read_bundle_manifest(str(bundle))
        assert manifest["schema"] == obs.BUNDLE_SCHEMA
        assert manifest["reason"] == "manual-test"
        assert manifest["exception"] is None
        report = json.loads((bundle / "report.json").read_text())
        assert report["schema_version"] == 3
        assert report["notes"]["partial"] is True
        assert report["benchmark"] == "mm_fc"

    def test_crash_scope_dumps_and_reraises(self, tmp_path, capsys,
                                            monkeypatch):
        """Acceptance: an injected mid-run exception produces a crash
        bundle from which ``repro events tail`` reconstructs the failing
        instruction context."""
        from repro.core.isa import Opcode
        from repro.ops import dispatch

        log = obs.get_event_log()
        log.enable()
        w = mm_fc_workload()
        machine = tiny_machine()
        store = TensorStore()
        rng = np.random.default_rng(0)
        for t in list(w.inputs.values()) + list(w.params.values()):
            store.bind(t, rng.normal(size=t.shape))

        def poisoned(inputs, attrs):
            raise ValueError("injected kernel fault")

        # the activation follows the first MatMul, so the program dies
        # genuinely mid-run with instruction context on the stack.
        monkeypatch.setitem(dispatch._KERNELS, Opcode.ACT1D, poisoned)

        with telemetry.enabled_scope():
            with pytest.raises(ValueError, match="injected kernel fault"):
                with crash_scope(str(tmp_path), reason="injected",
                                 config={"benchmark": "mm_fc"}):
                    FractalExecutor(machine, store).run_program(w.program)
        err = capsys.readouterr().err
        assert "crash bundle written" in err
        (bundle,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert (bundle / "traceback.txt").exists()
        manifest = read_bundle_manifest(str(bundle))
        assert manifest["exception"] is not None

        # triage loop: load the bundle's events and find the failure ctx
        events, bad = load_events(str(bundle))
        failures = filter_events(events, min_severity="error")
        assert failures, "expected error events in the bundle"
        ctx = failures[-1].get("ctx", {})
        assert "instruction" in ctx and "opcode" in ctx
        text = format_events(failures)
        assert "instruction" in text and "error" in text

    def test_crash_scope_passes_keyboardinterrupt_through(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with crash_scope(str(tmp_path), reason="ctrlc"):
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []  # no bundle for Ctrl-C

    def test_failed_dump_never_masks_the_crash(self, tmp_path, capsys):
        target = tmp_path / "a-file-not-a-dir"
        target.write_text("occupied")
        with pytest.raises(ValueError, match="the real failure"):
            with crash_scope(str(target), reason="x"):
                raise ValueError("the real failure")
        assert "could not be written" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# RunReport v3 sections
# ---------------------------------------------------------------------------


class TestRunReportV3:
    def test_events_and_health_sections_validate(self):
        """No writer emits ``health`` any more, but a document written
        before the watchdog's removal still carries one and validates."""
        log = EventLog(enabled=True)
        log.emit("executor", "program.start", "info")
        report = telemetry.build_run_report(
            benchmark="mm_fc", machine="tiny", event_log=log)
        doc = report.to_dict()
        assert "health" not in doc
        doc["health"] = {"healthy": True, "heartbeat_age_s": 0.5,
                         "stall_after_s": 5.0, "uptime_s": 2.0}
        assert doc["schema_version"] == 3
        assert telemetry.validate_document(doc) == []
        assert doc["events"]["total"] == 1

    def test_v2_documents_without_obs_sections_still_validate(self):
        report = telemetry.build_run_report(benchmark="b", machine="m")
        doc = report.to_dict()
        doc["schema_version"] = 2
        doc.pop("events", None)
        doc.pop("health", None)
        assert telemetry.validate_document(doc) == []

    def test_validate_rejects_malformed_sections(self):
        doc = telemetry.build_run_report(benchmark="b",
                                         machine="m").to_dict()
        doc["events"] = {"total": -1}
        assert any("events" in p for p in telemetry.validate_document(doc))
        doc["events"] = None
        doc["health"] = {"healthy": "yes"}
        assert any("health" in p for p in telemetry.validate_document(doc))
