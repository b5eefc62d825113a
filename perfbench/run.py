#!/usr/bin/env python3
"""Repository benchmark: time to first result, warm replay, simulator host
time, and (with ``--trace 1``) a per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload mlalgos --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
record of the run (seed, environment, every metric, failures) is written
under ``.perfbench-out/``.  See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Only modules that leave numpy unloaded: BLAS threads are set first.
import hostspeed
import stats
from hostspeed import wall

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".perfbench-out")
#: accounting-table column total
WALL = "traced wall"

#: set-ups made per run; setup_s adds their median to the imports'
SETUPS = 3
#: fresh interpreters that time the imports; setup_s takes their median
IMPORT_PROBES = 3
#: what each of them runs: it prints how long ``import harness`` (numpy,
#: repro and the benchmark's own modules) takes, in wall and normalised
#: seconds.  The probe samples its own host speed: it may run on another
#: vCPU than this process.
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:]
import hostspeed
sampler = hostspeed.SpeedSampler()
sampler.start()
t0 = time.perf_counter()
import harness
t1 = time.perf_counter()
sampler.stop()
print(t1 - t0, sampler.clock()(t0, t1))
"""
#: accounting check: allowed difference per traced operation between its
#: spans and the harness's clock, which is read just inside the request span
ACCOUNTING_SLACK = 1e-3

END_TO_END = {
    "setup_s": "s",
    "cold_run_s": "s",
    "first_result_s": "s",
    "warm_replay_s": "s",
    "restart_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer rows, in the order they are printed
LAYER_ROWS = {
    "decomp.shrink_s": "s",
    "decomp.parallel_s": "s",
    "decomp.calls": "count",
    "compile.walk_s": "s",
    "compile.plan_steps": "count",
    "analysis_s": "s",
    "analysis.safe_step_frac": "ratio",
    "analysis.fused_step_frac": "ratio",
    "lowering_s": "s",
    "schedule_build_s": "s",
    "batch.lane_frac": "ratio",
    "batch.fallback_lanes": "count",
    "batch.view_gather_frac": "ratio",
    "arena_bytes": "bytes",
    "replay.kernel_s": "s",
    "replay.overhead_s": "s",
    "replay.batched_engine": "count",
    "cold.kernel_s": "s",
    "cold.overhead_s": "s",
    "ops.calls": "count",
    "store.zero_copy_frac": "ratio",
    "store.copied_reads": "count",
    "cache.store_s": "s",
    "cache.load_s": "s",
    "cache.verify_s": "s",
    "cache.doc_bytes": "bytes",
    "session.overhead_s": "s",
    "sim.self_s": "s",
    "sim.nodes_simulated": "count",
    "sim.sig_hit_rate": "ratio",
    "sim.plan_hit_rate": "ratio",
    "ctrl.sd_s": "s",
    "ctrl.pd_s": "s",
    "ctrl.dd_s": "s",
    "ctrl.rc_s": "s",
    "pipeline.schedule_s": "s",
    "attribution_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "warm_replay_tail_s": "s",
    "failed_frac": "ratio",
}

#: opcodes whose kernels the functional workloads call
OPS = ("Act1D", "Add1D", "Avg2D", "Count1D", "Cv2D", "Euclidian1D", "MatMul",
       "Max2D", "Merge1D", "Mul1D", "Sort1D", "Sub1D")

#: span name -> the per-layer row that receives its self time
SELF_ROWS = {
    "request": "trace.unattributed_s",
    "session.call": "session.overhead_s",
    "compile_program": "compile.walk_s",
    "annotate_plan": "analysis_s",
    "verify_plan": "analysis_s",
    "lower_plan": "lowering_s",
    "build_schedule": "schedule_build_s",
    "cache.store": "cache.store_s",
    "cache.load": "cache.load_s",
    "shrink_sequential": "decomp.shrink_s",
    "decompose_parallel": "decomp.parallel_s",
    "ctrl.sd": "ctrl.sd_s",
    "ctrl.pd": "ctrl.pd_s",
    "ctrl.dd": "ctrl.dd_s",
    "ctrl.rc": "ctrl.rc_s",
    "simulate": "sim.self_s",
    "schedule_pipeline": "pipeline.schedule_s",
    "attribute_schedule": "attribution_s",
    "attribute_report": "attribution_s",
}


def self_row(name: str, phase: str) -> str:
    """The per-layer row a span's self time belongs to."""
    if name == "run_program":
        return "cold.overhead_s" if phase == "cold" else "replay.overhead_s"
    if name.startswith("kernel:"):
        return "cold.kernel_s" if phase == "cold" else "replay.kernel_s"
    return SELF_ROWS[name]


def per_layer_catalog():
    """Every per-layer metric name with its unit, in a fixed order."""
    import harness  # deferred: pulls in numpy and repro

    out = dict(LAYER_ROWS)
    out.update({f"ops.kernel_s.{op}": "s" for op in OPS})
    for program, machine in harness.CONVNETS + harness.MLALGOS:
        key = harness.pair_key(program, machine)
        for metric in ("cold_run_s", "first_result_s", "warm_replay_s"):
            out[f"{metric}.{key}"] = "s"
    for program, machine in harness.SIM_PAPER:
        out[f"sim_host_s.{harness.pair_key(program, machine)}"] = "s"
    return out


def pin_blas_threads() -> int:
    """Run BLAS/OpenMP on one thread (before numpy is imported).

    One thread is within ``nproc`` on any host, matches the one client and
    the single-threaded calibration loop of :mod:`hostspeed`.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loop": "closed, 1 client",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_imports() -> tuple:
    """Time the imports in ``IMPORT_PROBES`` fresh interpreters, one after
    the other; returns the median wall and normalised seconds."""
    probes = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120)
        probes.append(tuple(map(float, done.stdout.split())))
    return tuple(statistics.median(col) for col in zip(*probes))


def end_to_end(name: str, res, clock, setup_s: float) -> dict:
    """The end-to-end metrics of one untraced pass, on ``clock``."""

    def median_round(phase):
        rounds = res.round_seconds(clock, phase)
        return statistics.median(rounds) if rounds else 0.0

    first = res.total(clock, "first")
    if name == "sim-paper":
        # The simulator has no compile step, keeps nothing on disk, and no
        # caller re-runs a simulator warm: every phase is the fresh pass.
        cold = warm = restart = first
    else:
        cold = median_round("cold")
        warm = median_round("warm")
        restart = (res.total(clock, "restart") if "restart" in res.intervals
                   else first)
    return {
        "setup_s": setup_s,
        "cold_run_s": cold,
        "first_result_s": first,
        "warm_replay_s": warm,
        "restart_s": restart,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(rec, traced, untraced, counts: dict, clock, scale: float,
                  is_sim: bool):
    """Per-layer metrics of the traced pass, plus the accounting table.

    Span self times are multiplied by ``scale`` (the traced pass's host
    speed, see :mod:`hostspeed`); per-pair rows and the tracing overhead
    use ``clock``.  Returns ``(metrics, table, problem)``: ``table`` maps
    phase -> row -> seconds, with the unattributed remainder and the
    traced wall time as the harness timed the phase's operations, and
    ``problem`` says why the rows do not sum to that time.
    """
    import numpy as np

    import spans

    arr = rec.arrays()
    self_t = spans.self_times(arr["start"], arr["end"], arr["parent"]) * scale
    dur = (arr["end"] - arr["start"]) * scale
    phases = sorted({req[2] for req in rec.requests})
    phase_of_request = np.array([phases.index(r[2]) for r in rec.requests]
                                + [-1], dtype=np.int64)
    span_phase = phase_of_request[arr["request"]]  # -1: outside requests
    metrics = dict.fromkeys(per_layer_catalog(), 0.0)
    table = {phase: {} for phase in phases}
    problem = None
    if np.any(span_phase < 0):
        problem = f"{int(np.sum(span_phase < 0))} spans outside any request"

    n_phases = len(phases)
    key = arr["name"].astype(np.int64) * n_phases + np.maximum(span_phase, 0)
    size = len(rec.names) * n_phases
    self_sum = np.bincount(key, weights=self_t, minlength=size)
    incl_sum = np.bincount(key, weights=dur, minlength=size)
    calls = np.bincount(key, minlength=size)
    for nid, name in enumerate(rec.names):
        for pid, phase in enumerate(phases):
            k = nid * n_phases + pid
            if not calls[k]:
                continue
            row = self_row(name, phase)
            metrics[row] += self_sum[k]
            table[phase][row] = table[phase].get(row, 0.0) + self_sum[k]
            if name.startswith("kernel:"):
                op_row = f"ops.kernel_s.{name[len('kernel:'):]}"
                if op_row in metrics:
                    metrics[op_row] += self_sum[k]
                metrics["ops.calls"] += calls[k]
            elif name in ("shrink_sequential", "decompose_parallel"):
                metrics["decomp.calls"] += calls[k]
            elif name == "verify_plan":
                metrics["cache.verify_s"] += incl_sum[k]

    # Self times sum to the request spans' durations only if every span
    # nests in its parent and carries its own request; the harness's
    # intervals are a second clock for the same operations.
    for phase in phases:
        ops = sum(map(len, traced.intervals.get(phase, {}).values()))
        table[phase][WALL] = traced.total(wall, phase) * scale
        attributed = sum(v for r, v in table[phase].items() if r != WALL)
        if problem is None and (abs(attributed - table[phase][WALL])
                                > ACCOUNTING_SLACK * max(ops, 1)):
            problem = (f"{phase}: layer rows sum to {attributed:.6f} s, the "
                       f"harness timed {table[phase][WALL]:.6f} s over {ops} "
                       "operations")

    # the traced operations against the same operations untraced
    reference = sum(untraced.total(clock, p) for p in ("first", "restart"))
    traced_s = sum(traced.total(clock, p) for p in ("first", "restart"))
    for phase in ("cold", "warm"):
        base = untraced.round_seconds(clock, phase)
        done = traced.round_seconds(clock, phase)
        reference += len(done) * statistics.median(base) if base else 0.0
        traced_s += sum(done)
    metrics["trace.overhead_frac"] = traced_s / reference - 1.0 if reference else 0.0

    for name, value in counts.items():
        if name in metrics:
            metrics[name] = value
    # store reads of replayed calls (every phase but the cold one)
    zero_copy = sum(r[0] for p, r in rec.store_reads.items() if p != "cold")
    copied = sum(r[1] for p, r in rec.store_reads.items() if p != "cold")
    metrics["store.zero_copy_frac"] = (zero_copy / (zero_copy + copied)
                                       if zero_copy + copied else 0.0)
    metrics["store.copied_reads"] = copied
    for kind in ("sig", "plan"):
        hits = counts.get(f"sim.{kind}_hits", 0)
        lookups = hits + counts.get(f"sim.{kind}_misses", 0)
        metrics[f"sim.{kind}_hit_rate"] = hits / lookups if lookups else 0.0

    # untraced per-pair times and the warm tail
    rows = ((("first", "sim_host_s"),) if is_sim else
            (("cold", "cold_run_s"), ("first", "first_result_s"),
             ("warm", "warm_replay_s")))
    for phase, metric in rows:
        for pair, seconds in untraced.per_pair(clock, phase).items():
            metrics[f"{metric}.{pair}"] = seconds
    tail = stats.tail(untraced.round_seconds(clock, "warm"))
    metrics["warm_replay_tail_s"] = tail[0] if tail else 0.0
    attempted = traced.attempted + untraced.attempted
    metrics["failed_frac"] = ((traced.failed + untraced.failed) / attempted
                              if attempted else 0.0)
    return metrics, table, problem


def print_end_to_end(name: str, values: dict, raw: dict, res, clock) -> None:
    n_pairs = len({k for phase in res.intervals.values() for k in phase})
    rounds = res.round_seconds(clock, "warm")
    notes = {
        "setup_s": (f"median of {IMPORT_PROBES} import probes + median of "
                    f"{SETUPS} set-ups"),
        "cold_run_s": (f"median of n={len(res.rounds['cold'])} rounds, 1 "
                       f"call per pair ({n_pairs} pairs)"),
        "first_result_s": f"sum over {n_pairs} pairs",
        "warm_replay_s": f"median of n={len(rounds)} rounds",
        "restart_s": (f"sum over {n_pairs} pairs" if "restart" in res.intervals
                      else "no disk tier: the first-result measurement"),
        "peak_rss_mb": "whole process",
    }
    if name == "sim-paper":
        notes["first_result_s"] = (f"simulate + attribute, {n_pairs} pairs, "
                                   "fresh simulators")
        for metric in ("cold_run_s", "warm_replay_s", "restart_s"):
            notes[metric] = "the fresh-simulator pass, = first_result_s"
    print(f"  {'metric':<20} {'normalised':>12} {'wall':>12}")
    for metric, value in values.items():
        print(f"  {metric:<20} {value:12.4f} {raw[metric]:12.4f} "
              f"{END_TO_END[metric]:<3} ({notes[metric]})")
    if name == "sim-paper":
        print(f"  {'sim_host_s':<20} {values['first_result_s']:12.4f} "
              f"{raw['first_result_s']:12.4f} s   (= first_result_s: 1 pass "
              f"of n={n_pairs} pairs)")
    tail = stats.tail(rounds)
    raw_tail = stats.tail(res.round_seconds(wall, "warm"))
    if tail:
        print(f"  {'warm_replay_tail_s':<20} {tail[0]:12.4f} {raw_tail[0]:12.4f} "
              f"s   (p{tail[1]:.1f} of n={len(rounds)} rounds)")
    else:
        print(f"  {'warm_replay_tail_s':<20} {'n/a':>12} {'n/a':>12} s   "
              f"(n={len(rounds)} rounds; a tail needs at least 11)")
    frac = res.failed / res.attempted if res.attempted else 0.0
    print(f"  {'failed_frac':<20} {frac:12.4f} {'':>12} ratio "
          f"({res.failed} of {res.attempted} operations)")


def print_table(table: dict) -> None:
    rows = sorted({r for t in table.values() for r in t if r != WALL},
                  key=lambda r: (r == "trace.unattributed_s", r))
    phases = list(table)
    print("  self time by phase (s); each column sums to its traced wall "
          "time, as the harness timed it")
    print("  " + f"{'row':<24}" + "".join(f"{p:>12}" for p in phases))
    for row in rows + [WALL]:
        label = "unattributed" if row == "trace.unattributed_s" else row
        print("  " + f"{label:<24}" + "".join(
            f"{table[p].get(row, 0.0):12.4f}" for p in phases))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("convnets", "mlalgos", "sim-paper"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the cold and the warm phase "
                        "(at least 1 and 3 rounds); sim-paper makes one "
                        "longer pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sampler = hostspeed.SpeedSampler()
    sampler.start()
    try:
        return run(args, nproc, sampler)
    finally:
        sampler.stop()


def run(args, nproc: int, sampler) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import spans
    from repro import telemetry

    if telemetry.get_registry().enabled or telemetry.get_tracer().enabled:
        print("perfbench: repro.telemetry must be off", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(nproc)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v!r}" for k, v in env.items()))

    imports_wall, imports = probe_imports()
    setups = []
    for _ in range(SETUPS):
        workload = None  # release the previous set-up first
        t0 = time.perf_counter()
        workload = harness.make_workload(args.workload, args.seed, OUT_DIR)
        setups.append((t0, time.perf_counter()))
    untraced = workload.run(args.seconds)

    traced = rec = None
    if args.trace:
        counts = dict(untraced.counts)
        if hasattr(workload, "renew_sessions"):
            workload.renew_sessions()
        rec = spans.SpanRecorder()
        saved = spans.install(rec)
        try:
            traced = workload.run(args.seconds, rec=rec,
                                  rounds=harness.TRACED_ROUNDS)
        finally:
            spans.uninstall(saved)
        if hasattr(workload, "plan_counts"):
            counts.update(workload.plan_counts())
        counts.update(traced.counts)

    clock = sampler.clock()
    env["host_speed"] = sampler.summary()
    print(f"host speed: {env['host_speed']}")

    e2e = end_to_end(args.workload, untraced, clock, imports
                     + statistics.median(clock(*iv) for iv in setups))
    raw = end_to_end(args.workload, untraced, wall, imports_wall
                     + statistics.median(wall(*iv) for iv in setups))
    print(f"end-to-end ({args.workload}, untraced; normalised to the "
          f"reference host speed, see hostspeed.py):")
    print_end_to_end(args.workload, e2e, raw, untraced, clock)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "end_to_end": e2e, "end_to_end_wall": raw,
              "errors": list(untraced.errors)}
    attempted, failed = untraced.attempted, untraced.failed
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    if traced is not None:
        t0 = rec.start[0] if len(rec) else 0.0
        t1 = max(rec.end) if len(rec) else 0.0
        scale = clock(t0, t1) / (t1 - t0) if t1 > t0 else 1.0
        layers, table, problem = layer_metrics(
            rec, traced, untraced, counts, clock, scale,
            args.workload == "sim-paper")
        attempted += traced.attempted
        failed += traced.failed
        record["errors"] += traced.errors
        if problem is not None:
            failed += 1
            record["errors"].append(f"accounting: {problem}")
        print(f"per-layer ({args.workload}, traced pass, {len(rec)} spans, "
              f"host-speed scale {scale:.3f}):")
        print_table(table)
        catalog = per_layer_catalog()
        for name, unit in catalog.items():
            print(f"  {name:<40} {layers[name]:14.6g} {unit}")
        metrics = {k: {"value": float(layers[k]), "unit": u}
                   for k, u in catalog.items()}
        record["per_layer"] = {k: v["value"] for k, v in metrics.items()}
        record["accounting"] = table
        rec.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")

    for message in record["errors"]:
        print(f"  FAILED: {message}")
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
