"""Shared machinery for the reproduction benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper and
prints it (run ``pytest benchmarks/ --benchmark-only -s`` to see the
output).  Expensive simulations are shared through session-scoped fixtures
so the whole harness stays in the minutes range.

Every suite simulation also writes a machine-readable RunReport
(``BENCH_<machine>.json``, schema in docs/TELEMETRY.md) into
``$REPRO_BENCH_REPORT_DIR`` (default ``benchmarks/reports/``) -- the
artifact perf PRs diff against.

The suite runs under the observability layer (docs/OBSERVABILITY.md): the
structured event log is armed, a flight recorder checkpoints the counters
per benchmark, and an uncaught exception dumps a crash bundle under
``$REPRO_BENCH_CRASH_DIR`` (default ``benchmarks/reports/crash_bundles/``)
before the failure propagates to pytest.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import pytest

sys.stdout.reconfigure(line_buffering=True)

from repro import cambricon_f1, cambricon_f100, obs, telemetry

# Keep the suite's run-ledger rows next to its other artifacts unless
# the caller routed them elsewhere (or disabled them outright).  Each
# row carries its metrics, which `repro sentinel --ledger` reads as time
# series (docs/OBSERVABILITY.md), so they land at
# reports/ledger/runs.jsonl where CI persists them.
_bench_reports = Path(os.environ.get(
    "REPRO_BENCH_REPORT_DIR",
    str(Path(__file__).resolve().parent / "reports")))
os.environ.setdefault("REPRO_LEDGER", str(_bench_reports / "ledger"))
from repro.perf import attribute_report
from repro.sim import FractalSimulator
from repro.workloads import PAPER_BENCHMARKS, paper_benchmark


@dataclass
class BenchResult:
    """One (machine, benchmark) simulation outcome."""

    name: str
    machine: str
    total_time: float
    attained_ops: float
    operational_intensity: float
    root_traffic: int
    peak_fraction: float
    #: critical-path summary: {makespan_s, dominant, totals_s} (or None
    #: for reports predating attribution).
    attribution: Optional[Dict] = None


def _report_dir() -> Path:
    return Path(os.environ.get(
        "REPRO_BENCH_REPORT_DIR",
        str(Path(__file__).resolve().parent / "reports")))


def _plan_microbench(machine, benchmark: str = "mm_fc",
                     reps: int = 7) -> Dict[str, object]:
    """Cold recursive execution vs warm plan replay on one benchmark.

    Functional-scale subject (``mm_fc``), identical inputs.  The plan and
    its replay schedule are built outside the timing; then ``reps``
    repetitions each time one cold run and one replay back to back, so
    both legs see the same host state.  ``speedup`` is the median of the
    per-repetition ratios (cold / warm), and the two times are medians.
    It lands in the suite RunReport's notes and is what
    ``tools/perf_gate.py --min-replay-speedup`` gates on.
    """
    import statistics
    import time

    import numpy as np

    from repro.core.executor import FractalExecutor
    from repro.core.store import TensorStore
    from repro.plan import compile_program
    from repro.workloads import profile_benchmark

    w = profile_benchmark(benchmark)
    rng = np.random.default_rng(0)
    bound = list(w.inputs.values()) + list(w.params.values())
    arrays = {t.uid: rng.normal(size=t.shape) for t in bound}

    def fresh_store() -> TensorStore:
        store = TensorStore()
        for t in bound:
            store.bind(t, arrays[t.uid])
        return store

    def timed(plan=None) -> float:
        executor = FractalExecutor(machine, fresh_store())
        t0 = time.perf_counter()
        executor.run_program(w.program, plan=plan)
        return time.perf_counter() - t0

    plan = compile_program(machine, w.program)
    schedule = plan.replay_schedule()
    colds, warms = [], []
    for _ in range(reps):
        colds.append(timed())
        warms.append(timed(plan))
    return {
        "benchmark": benchmark,
        "reps": reps,
        "cold_recursive_s": statistics.median(colds),
        "warm_replay_s": statistics.median(warms),
        "speedup": statistics.median(
            cold / warm if warm > 0 else float("inf")
            for cold, warm in zip(colds, warms)),
        "batched_steps": schedule.batched_steps,
        "batched_lanes": schedule.batched_lanes,
        "arena_bytes": schedule.arena.nbytes,
        "plan_steps": plan.n_steps,
        "compile_s": plan.compile_seconds,
    }


def _write_suite_report(machine, results: Dict[str, BenchResult],
                        registry, tracer, event_log=None,
                        plan_microbench: Optional[Dict] = None) -> None:
    """One ``BENCH_<machine>.json`` RunReport for the whole suite."""
    report = telemetry.build_run_report(
        benchmark="paper-suite",
        machine=machine.name,
        registry=registry,
        tracer=tracer,
        event_log=event_log,
        notes={
            "command": "benchmarks/conftest",
            **({"plan_microbench": plan_microbench}
               if plan_microbench else {}),
            "benchmarks": {
                name: {
                    "total_time_s": r.total_time,
                    "attained_ops": r.attained_ops,
                    "operational_intensity": r.operational_intensity,
                    "root_traffic_bytes": r.root_traffic,
                    "peak_fraction": r.peak_fraction,
                    **({"attribution": r.attribution}
                       if r.attribution else {}),
                }
                for name, r in sorted(results.items())
            },
        },
    )
    out_dir = _report_dir()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        slug = machine.name.lower().replace(" ", "_").replace("-", "_")
        out_path = out_dir / f"BENCH_{slug}.json"
        report.write(str(out_path))
        obs.record_report(report, kind="bench-suite", out=str(out_path))
    except OSError as err:  # report writing must never fail the harness
        print(f"[bench] could not write suite RunReport: {err}")


def _crash_dir() -> str:
    return os.environ.get("REPRO_BENCH_CRASH_DIR",
                          str(_report_dir() / "crash_bundles"))


def _profile_hz() -> float:
    """Sampling rate requested via ``$REPRO_BENCH_PROFILE`` (0 = off).

    ``1``/``true`` arm the profiler at the default 200 Hz; any other
    number is taken as the rate itself (``REPRO_BENCH_PROFILE=500``).
    """
    raw = os.environ.get("REPRO_BENCH_PROFILE", "").strip().lower()
    if raw in ("", "0", "false", "off", "no"):
        return 0.0
    if raw in ("1", "true", "on", "yes"):
        return 200.0
    try:
        hz = float(raw)
    except ValueError:
        print(f"[bench] ignoring REPRO_BENCH_PROFILE={raw!r} (not a number)")
        return 0.0
    return hz if hz > 0 else 0.0


def _write_suite_profile(machine, profiler) -> None:
    """Profile JSON + flamegraph HTML next to the BENCH report (fail-soft)."""
    from repro.obs.flame import render_flamegraph_html
    from repro.obs.prof import record_profile

    slug = machine.name.lower().replace(" ", "_").replace("-", "_")
    doc = profiler.to_doc(benchmark="paper-suite", machine=machine.name,
                          meta={"command": "benchmarks/conftest"})
    out_dir = _report_dir()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        json_path = out_dir / f"profile_{slug}.json"
        with open(json_path, "w", encoding="utf-8") as f:
            import json

            json.dump(doc, f, indent=2)
            f.write("\n")
        with open(out_dir / f"flame_{slug}.html", "w", encoding="utf-8") as f:
            f.write(render_flamegraph_html(doc))
        record_profile(doc, path=json_path, command="benchmarks/conftest")
        print(f"[bench] wrote {json_path} ({doc['samples']} samples)")
    except OSError as err:  # profiling must never fail the harness
        print(f"[bench] could not write suite profile: {err}")


def _simulate_suite(machine) -> Dict[str, BenchResult]:
    out: Dict[str, BenchResult] = {}
    # Measure the compile/replay microbenchmark *before* arming telemetry:
    # the per-dispatch instrumentation is common to both paths and would
    # flatten the cold/warm ratio, and production replay runs untraced.
    try:
        microbench = _plan_microbench(machine)
    except Exception as err:  # noqa: BLE001 - informational only
        print(f"[bench] plan microbenchmark failed: {err}")
        microbench = None
    event_log = obs.get_event_log()
    prior_events = event_log.enabled
    event_log.reset()
    event_log.enable()
    recorder = obs.FlightRecorder(event_log=event_log)
    recorder.report_context.update({"benchmark": "paper-suite",
                                    "machine": machine.name})
    try:
        with telemetry.enabled_scope() as (registry, tracer), \
                obs.ensure_trace(suite="paper-suite"), \
                obs.event_context(suite="paper-suite", machine=machine.name), \
                obs.crash_scope(_crash_dir(),
                                reason=f"bench-suite-{machine.name}",
                                recorder=recorder):
            telemetry.reset()
            # Opt-in suite profiling ($REPRO_BENCH_PROFILE): sample the
            # whole simulation pass and drop profile_<machine>.json plus a
            # flamegraph next to the BENCH report.
            profiler = None
            hz = _profile_hz()
            if hz and obs.get_profiler() is None:
                profiler = obs.SamplingProfiler(hz=hz, tracer=tracer,
                                                registry=registry)
                profiler.start()
            try:
                recorder.mark("suite.start")
                for name in PAPER_BENCHMARKS:
                    _simulate_one(machine, name, out, recorder)
                recorder.mark("suite.end")
                # Write the report while the profiler is still live so
                # build_run_report embeds its summary as notes.profile
                # (diff-exempt; see repro.perf.diff._SKIPPED_PREFIXES).
                _write_suite_report(machine, out, registry, tracer,
                                    event_log=event_log,
                                    plan_microbench=microbench)
            finally:
                if profiler is not None and profiler.running:
                    profiler.stop()
            if profiler is not None:
                _write_suite_profile(machine, profiler)
    finally:
        event_log.enabled = prior_events
    return out


def _simulate_one(machine, name: str, out: Dict[str, BenchResult],
                  recorder) -> None:
    with obs.event_context(benchmark=name):
        w = paper_benchmark(name)
        sim = FractalSimulator(machine, collect_profiles=False)
        rep = sim.simulate(w.program)
        recorder.mark(f"bench.{name}")
        attr = attribute_report(rep) if rep.attribution else None
        out[name] = BenchResult(
            name=name,
            machine=machine.name,
            total_time=rep.total_time,
            attained_ops=rep.attained_ops,
            operational_intensity=rep.operational_intensity,
            root_traffic=rep.root_traffic,
            peak_fraction=rep.peak_fraction(machine.peak_ops),
            attribution=({
                "makespan_s": attr.makespan,
                "dominant": attr.dominant(),
                "classification": attr.classify(),
                "totals_s": attr.totals(),
            } if attr is not None else None),
        )


@pytest.fixture(scope="session")
def f1_suite():
    """All seven paper benchmarks simulated on Cambricon-F1."""
    return _simulate_suite(cambricon_f1())


@pytest.fixture(scope="session")
def f100_suite():
    """All seven paper benchmarks simulated on Cambricon-F100."""
    return _simulate_suite(cambricon_f100())


def show(title: str, rows) -> None:
    """Print a benchmark table with a recognizable banner."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}")
    for row in rows:
        print(row)
    print(bar)
