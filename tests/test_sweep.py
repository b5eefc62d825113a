"""Sweep utility tests."""

import csv
import io

import pytest

from repro import Instruction, Opcode, Tensor, custom_machine
from repro.core.machine import KB, MB
from repro.sim.sweep import (
    FEATURE_VARIANTS,
    format_table,
    run_sweep,
    to_csv,
)


def _machines():
    return {
        "small": custom_machine("small", [2], [MB, 64 * KB], [8e9] * 2,
                                core_peak_ops=50e9),
        "wide": custom_machine("wide", [8], [4 * MB, 64 * KB], [8e9] * 2,
                               core_peak_ops=50e9),
    }


def _workloads():
    def mm(n):
        a, b = Tensor("a", (n, n)), Tensor("b", (n, n))
        c = Tensor("c", (n, n))
        return [Instruction(Opcode.MATMUL, (a.region(), b.region()),
                            (c.region(),))]
    return {"mm64": mm(64), "mm128": mm(128)}


class TestRunSweep:
    def test_full_grid(self):
        records = run_sweep(_machines(), _workloads(),
                            {"baseline": {}, "no-ttt": {"use_ttt": False}})
        assert len(records) == 2 * 2 * 2
        cells = {(r.machine, r.variant, r.workload) for r in records}
        assert ("wide", "no-ttt", "mm128") in cells

    def test_default_variant(self):
        records = run_sweep(_machines(), _workloads())
        assert all(r.variant == "baseline" for r in records)

    def test_progress_callback(self):
        seen = []
        run_sweep({"small": _machines()["small"]}, _workloads(),
                  progress=seen.append)
        assert seen == ["small/baseline/mm64", "small/baseline/mm128"]

    def test_records_physical(self):
        for r in run_sweep(_machines(), _workloads()):
            assert r.total_time > 0
            assert 0 < r.peak_fraction <= 1.0
            assert r.root_traffic > 0

    def test_feature_variants_registry(self):
        assert "no-ttt" in FEATURE_VARIANTS
        assert FEATURE_VARIANTS["no-optimizations"]["use_ttt"] is False


class TestParallelSweep:
    def test_workers_match_serial_byte_identical(self):
        variants = {"baseline": {}, "no-ttt": {"use_ttt": False}}
        serial = run_sweep(_machines(), _workloads(), variants)
        parallel = run_sweep(_machines(), _workloads(), variants, workers=2)
        assert parallel == serial  # same records, same grid order
        assert to_csv(parallel) == to_csv(serial)

    def test_workers_progress_fires_per_cell_in_grid_order(self):
        seen = []
        run_sweep({"small": _machines()["small"]}, _workloads(),
                  {"baseline": {}, "no-ttt": {"use_ttt": False}},
                  progress=seen.append, workers=2)
        assert seen == [
            "small/baseline/mm64", "small/baseline/mm128",
            "small/no-ttt/mm64", "small/no-ttt/mm128",
        ]

    def test_workers_one_falls_back_to_serial(self):
        records = run_sweep({"small": _machines()["small"]}, _workloads(),
                            workers=1)
        assert len(records) == 2


class TestSweepObservability:
    """Trace propagation, worker telemetry shipping, and the run ledger."""

    @pytest.fixture(autouse=True)
    def clean_obs(self, tmp_path, monkeypatch):
        from repro import obs, telemetry
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
        log = obs.get_event_log()
        log.disable()
        log.reset()
        telemetry.disable()
        telemetry.reset()
        yield
        log = obs.get_event_log()
        log.disable()
        log.reset()
        telemetry.disable()
        telemetry.reset()

    def test_parallel_sweep_ships_worker_telemetry(self):
        from repro import obs, telemetry

        telemetry.enable()
        obs.get_event_log().enable()
        registry = telemetry.get_registry()
        seen = []

        def watch(_msg):
            # fires in the parent after each cell's telemetry is merged
            seen.append(registry.value("worker.wall_seconds",
                                       {"worker": "0"}))

        run_sweep({"small": _machines()["small"]}, _workloads(),
                  {"baseline": {}, "no-ttt": {"use_ttt": False}},
                  progress=watch, workers=2)
        # the first progress call, after the first merge, already sees
        # worker 0's series; both workers' series are merged by the end
        assert seen and seen[0] > 0
        assert registry.value("worker.wall_seconds", {"worker": "0"}) > 0
        assert registry.value("worker.wall_seconds", {"worker": "1"}) > 0

    def test_parallel_sweep_writes_one_trace(self):
        from repro import obs, telemetry

        telemetry.enable()
        run_sweep({"small": _machines()["small"]}, _workloads(),
                  {"baseline": {}, "no-ttt": {"use_ttt": False}},
                  workers=2)
        ledger = obs.get_ledger()
        rows = ledger.rows()
        # one row per cell plus the parent sweep row, all one trace
        assert [r["kind"] for r in rows] == ["sweep-cell", "sweep-cell",
                                             "sweep"]
        assert len({r["trace_id"] for r in rows}) == 1
        assert [r.get("worker") for r in rows] == [0, 1, None]
        cell = rows[0]
        assert cell["machine"] == "small" and cell["variant"] == "baseline"
        assert cell["makespan_s"] > 0
        [trace_id] = ledger.traces()
        assert trace_id == rows[0]["trace_id"]

    def test_serial_sweep_also_lands_in_ledger(self):
        from repro import obs

        run_sweep({"small": _machines()["small"]}, _workloads())
        rows = obs.get_ledger().rows()
        assert [r["kind"] for r in rows] == ["sweep-cell", "sweep"]
        assert len({r["trace_id"] for r in rows}) == 1

    def test_sweep_respects_disabled_ledger(self, monkeypatch, tmp_path):
        from repro import obs
        monkeypatch.setenv("REPRO_LEDGER", "off")
        records = run_sweep({"small": _machines()["small"]}, _workloads(),
                            workers=2)
        assert len(records) == 2
        assert obs.get_ledger() is None


class TestExport:
    def test_csv_round_trip(self):
        records = run_sweep({"small": _machines()["small"]}, _workloads())
        text = to_csv(records)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(records)
        assert parsed[0]["machine"] == "small"
        assert float(parsed[0]["total_time"]) > 0

    def test_csv_empty(self):
        assert to_csv([]) == ""

    def test_format_table(self):
        records = run_sweep({"small": _machines()["small"]}, _workloads())
        table = format_table(records)
        assert "mm64" in table and "of peak" in table
