#!/usr/bin/env python3
"""Perf-regression gate: fresh paper-suite RunReport vs the committed baseline.

Re-simulates the seven Table-5 benchmarks on Cambricon-F1 (the same code
path as ``pytest benchmarks/``: :func:`conftest._simulate_suite`), writes
the suite RunReport into a temporary directory, and diffs it against
``benchmarks/baselines/BENCH_reference.json`` with
:func:`repro.perf.diff_documents`.  Only deterministic simulator metrics
are gated (simulated seconds, attribution, attained ops); wall-clock span
rollups are informational, so the gate is reproducible across hosts.

Exit codes (shared with ``repro diff``):

* **0** -- no gated metric regressed,
* **2** -- usage/IO error (missing baseline, simulation failure, ...),
* **3** -- at least one gated regression past the threshold.

Schema tolerance: fresh reports are RunReport **v3** (they may carry an
``events`` observability section; a baseline written before the stall
watchdog's removal may also carry ``health``) while the committed
baseline may still be v2.  :func:`repro.perf.diff.diff_documents` skips
both sections entirely, so the gate never flags them as noise and v2
baselines keep working until the next ``--update``.

After an intentional performance change, refresh the baseline with
``python tools/perf_gate.py --update`` and commit the new JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

DEFAULT_BASELINE = ROOT / "benchmarks" / "baselines" / "BENCH_reference.json"


def fresh_suite_document(machine_key: str) -> dict:
    """Simulate the paper suite and return the BENCH_<machine>.json dict."""
    # The suite's reports land in a throwaway tmp dir, but its ledger row
    # and the metrics it carries must outlive the gate so `repro sentinel`
    # accumulates a real time series: importing conftest before
    # $REPRO_BENCH_REPORT_DIR points at the tmp dir defaults
    # $REPRO_LEDGER to benchmarks/reports/ledger/.
    import conftest  # benchmarks/conftest.py (sys.path above)

    from repro import cambricon_f1, cambricon_f100

    machine = {"f1": cambricon_f1, "f100": cambricon_f100}[machine_key]()
    prev = os.environ.get("REPRO_BENCH_REPORT_DIR")
    with tempfile.TemporaryDirectory(prefix="perf_gate_") as tmp:
        os.environ["REPRO_BENCH_REPORT_DIR"] = tmp
        try:
            conftest._simulate_suite(machine)
        finally:
            if prev is None:
                os.environ.pop("REPRO_BENCH_REPORT_DIR", None)
            else:
                os.environ["REPRO_BENCH_REPORT_DIR"] = prev
        slug = machine.name.lower().replace(" ", "_").replace("-", "_")
        path = Path(tmp) / f"BENCH_{slug}.json"
        return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--machine", choices=("f1", "f100"), default="f1",
                        help="instance to re-simulate (default f1)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help=f"baseline RunReport (default {DEFAULT_BASELINE})")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="relative slip gated metrics may take "
                             "(default 0.05 = 5%%)")
    parser.add_argument("--update", action="store_true",
                        help="overwrite the baseline with the fresh report "
                             "and exit 0")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable diff")
    parser.add_argument("--min-replay-speedup", type=float, default=1.0,
                        metavar="X",
                        help="floor for the replay speedup recorded in "
                             "notes.plan_microbench (median over alternating "
                             "repetitions of cold recursive s / schedule "
                             "replay s); exit 3 below it.  Default 1.0 = "
                             "replay must never be slower; CI demands "
                             "4.0 on f100")
    parser.add_argument("--microbench-only", action="store_true",
                        help="skip the suite simulation + diff and gate only "
                             "the plan microbenchmark floor (fast CI mode)")
    args = parser.parse_args(argv)

    if args.microbench_only:
        return _microbench_gate(args)

    from repro.perf import DiffConfig, diff_documents
    from repro.telemetry import validate_document

    try:
        candidate = fresh_suite_document(args.machine)
    except Exception as err:  # noqa: BLE001 - gate must report, not crash
        print(f"perf_gate: suite simulation failed: {err}", file=sys.stderr)
        return 2

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(candidate, f, indent=2)
            f.write("\n")
        print(f"perf_gate: baseline updated -> {args.baseline}")
        return 0

    try:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
    except (OSError, ValueError) as err:
        print(f"perf_gate: cannot read baseline {args.baseline}: {err}\n"
              f"perf_gate: (bootstrap with: python tools/perf_gate.py --update)",
              file=sys.stderr)
        return 2
    for name, doc in (("baseline", baseline), ("candidate", candidate)):
        problems = validate_document(doc)
        if problems:
            print(f"perf_gate: {name} is not a valid RunReport: "
                  f"{'; '.join(problems)}", file=sys.stderr)
            return 2

    result = diff_documents(
        baseline, candidate,
        config=DiffConfig(rel_threshold=args.threshold),
        baseline_name=str(args.baseline),
        candidate_name=f"fresh {args.machine} suite",
    )
    if args.json:
        print(json.dumps(result.to_json_obj(), indent=2))
    else:
        print(result.format_table())

    # Plan-replay gate: wall-clock on this host (not diffed against the
    # baseline document, which may come from different hardware) -- the
    # candidate's own replay ratio must clear its floor.  Reports
    # predating the plan compiler simply skip it.
    micro = (candidate.get("notes") or {}).get("plan_microbench") or {}
    code = _gate_microbench(micro, args)
    if code:
        return code
    return result.exit_code


def _gate_microbench(micro: dict, args) -> int:
    """Apply the replay-speedup floor; 0 ok / 3 below it."""
    speedup = micro.get("speedup")
    if speedup is None:
        return 0
    verdict = "ok" if speedup >= args.min_replay_speedup else "REGRESSED"
    print(f"plan replay speedup: {speedup:.2f}x "
          f"(cold {micro.get('cold_recursive_s', 0) * 1e3:.1f} ms -> warm "
          f"{micro.get('warm_replay_s', 0) * 1e3:.1f} ms on "
          f"{micro.get('benchmark', '?')}, "
          f"{micro.get('batched_steps', 0)} batched step(s); floor "
          f"{args.min_replay_speedup:.2f}x) {verdict}")
    return 0 if speedup >= args.min_replay_speedup else 3


def _microbench_gate(args) -> int:
    """``--microbench-only``: run just the plan microbenchmark and gate it.

    Skips the full suite simulation and baseline diff, so CI can enforce
    the replay floor on the expensive machine (f100) in seconds instead of
    minutes.
    """
    import conftest  # benchmarks/conftest.py (sys.path above)

    from repro import cambricon_f1, cambricon_f100

    machine = {"f1": cambricon_f1, "f100": cambricon_f100}[args.machine]()
    try:
        micro = conftest._plan_microbench(machine)
    except Exception as err:  # noqa: BLE001 - gate must report, not crash
        print(f"perf_gate: plan microbenchmark failed: {err}",
              file=sys.stderr)
        return 2
    return _gate_microbench(micro, args)


if __name__ == "__main__":
    raise SystemExit(main())
