"""Command-line interface: ``python -m repro <command>``.

Commands::

    specs                           print the instance specifications (Table 6)
    simulate  -m f1 -b VGG-16       simulate a benchmark, print the report
    timeline  -m f100 -b K-NN       ASCII execution timeline (Fig 13)
    trace     -b K-NN -o t.json     Chrome/Perfetto trace of a simulation
    profile   mm_fc                 run + simulate with telemetry; RunReport
    flame     mm_fc --html f.html   sampling-profile the hot path; flamegraph
    flame-diff base.json cand.json  diff two profiles; exit 3 on regression
    diff      base.json cand.json   compare two RunReports; exit 3 on regression
    serve-metrics mm_fc --port 8000 run a workload under a live /metrics server
    events tail events.jsonl        filter/pretty-print a structured event log
    events tail --follow            same, but keep polling for appended events
    trace ls                        list recorded traces from the run ledger
    trace show <trace_id>           joined ledger rows/spans/events for a trace
    top                             live /metrics dashboard (curses-free)
    figures   -o figures/           render every paper figure as SVG
    dse                             Table-4 hierarchy sweep (costs only)
    assemble  prog.fisa -o prog.bin assemble FISA text to the binary format
    disasm    prog.bin              disassemble a FISA binary
    lint      prog.fisa             static analysis (shape/def-use/hazards)
    compile   mm_fc                 compile a fractal plan; print its stats
    plan-lint mm_fc                 dataflow-analyze a compiled plan (P1xx)
    run       prog.fisa             assemble + execute with random inputs

``simulate``, ``timeline`` and ``profile`` accept ``--json`` to emit the
schema-versioned RunReport document instead of human text (see
docs/TELEMETRY.md).  ``lint`` and ``plan-lint`` accept ``--json`` to emit
the shared schema-versioned ``repro.diag`` diagnostics document and use
the same exit-code contract: 0 = clean, 1 = findings gate, 2 = the input
could not be parsed.  ``diff`` implements the perf-gate exit-code
contract: 0 = pass, 2 = usage/IO error, 3 = gated regression.

``profile`` and ``simulate`` take the observability flags ``--serve PORT``
(live /metrics + /healthz + /events while the run is in flight),
``--events PATH`` (stream the structured event log as JSONL) and
``--crash-dir DIR`` (dump a flight-recorder crash bundle on an uncaught
exception) -- see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional

import numpy as np

from .core.machine import Machine, cambricon_f1, cambricon_f100

MACHINES = {"f1": cambricon_f1, "f100": cambricon_f100}


def _machine(args) -> Machine:
    machine = MACHINES[args.machine]()
    flags = {}
    if getattr(args, "no_ttt", False):
        flags["use_ttt"] = False
    if getattr(args, "no_broadcast", False):
        flags["use_broadcast"] = False
    if getattr(args, "no_concat", False):
        flags["use_concatenation"] = False
    return machine.with_features(**flags) if flags else machine


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-m", "--machine", choices=sorted(MACHINES), default="f1")
    p.add_argument("--no-ttt", action="store_true",
                   help="disable the tensor transposition table")
    p.add_argument("--no-broadcast", action="store_true",
                   help="disable data broadcasting")
    p.add_argument("--no-concat", action="store_true",
                   help="disable pipeline concatenation")


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """Observability flags shared by the long-running commands."""
    p.add_argument("--serve", type=int, metavar="PORT", default=None,
                   help="expose live /metrics, /healthz and /events on "
                        "127.0.0.1:PORT while the run is in flight "
                        "(0 = ephemeral port)")
    p.add_argument("--events", metavar="PATH",
                   help="stream the structured event log to PATH as JSONL "
                        "(read back with `repro events tail`)")
    p.add_argument("--crash-dir", metavar="DIR",
                   help="dump a flight-recorder crash bundle under DIR on "
                        "an uncaught exception")
    p.add_argument("--stall-after", type=float, default=30.0, metavar="S",
                   help="seconds without a progress beat before /healthz "
                        "reports stalled (default 30)")
    p.add_argument("--events-max-bytes", type=int, default=None,
                   metavar="N",
                   help="size-bound the --events JSONL sink: roll to "
                        "PATH.1 when the file would exceed N bytes "
                        "(default unbounded)")
    p.add_argument("--slo", action="append", metavar="RULE", default=None,
                   help="arm a live SLO rule, e.g. "
                        "'sim.sig_cache.hits > 100 for 5s as warm-cache' "
                        "(repeatable; fires alert events, the "
                        "repro_alerts_active gauge and /alerts; "
                        "syntax in docs/OBSERVABILITY.md)")


def _writable_error(path: str) -> Optional[str]:
    """Why ``path`` cannot be created/overwritten, or None if it can."""
    p = Path(path)
    if p.is_dir():
        return "is a directory"
    parent = p.parent if str(p.parent) else Path(".")
    if not parent.exists():
        return f"parent directory {parent} does not exist"
    if not parent.is_dir():
        return f"{parent} is not a directory"
    if not os.access(parent, os.W_OK):
        return f"parent directory {parent} is not writable"
    if p.exists() and not os.access(p, os.W_OK):
        return "exists and is not writable"
    return None


def _check_outputs(command: str, **paths) -> Optional[int]:
    """Validate output paths up front; returns 2 after printing a clear
    message when any is unwritable, else None (see ISSUE: no tracebacks
    for bad ``-o/--trace/--spans/--events`` targets)."""
    for flag, path in paths.items():
        if not path:
            continue
        problem = _writable_error(str(path))
        if problem:
            print(f"{command}: cannot write --{flag.replace('_', '-')} "
                  f"{path}: {problem}", file=sys.stderr)
            return 2
    return None


@contextmanager
def _observability(args, benchmark: str, machine_name: str, command: str):
    """Arm the obs layer for one CLI run per the --serve/--events/--crash-dir
    /--slo flags; yields a handle with the event log, watchdog, flight
    recorder, (optional) SLO engine and (optional) metrics server.
    Everything is restored on exit."""
    from . import obs, telemetry

    # Parse --slo rules before touching any state: a bad rule is a usage
    # error (exit 2), not a mid-run surprise.
    slo_rules = []
    for text in getattr(args, "slo", None) or []:
        try:
            slo_rules.append(obs.parse_slo_rule(text))
        except ValueError as err:
            print(f"{command}: {err}", file=sys.stderr)
            raise SystemExit(2)

    event_log = obs.get_event_log()
    prior_enabled = event_log.enabled
    event_log.reset()
    event_log.enable()
    if getattr(args, "events", None):
        event_log.attach_jsonl(args.events,
                               max_bytes=getattr(args, "events_max_bytes",
                                                 None))
    watchdog = obs.install_watchdog(
        obs.Watchdog(stall_after_s=getattr(args, "stall_after", 30.0)))
    recorder = obs.FlightRecorder(event_log=event_log,
                                  registry=telemetry.get_registry(),
                                  tracer=telemetry.get_tracer())
    recorder.config.update({"command": command, "benchmark": benchmark,
                            "machine": machine_name,
                            "argv": [str(a) for a in (sys.argv or [])]})
    recorder.report_context.update({"benchmark": benchmark,
                                    "machine": machine_name})
    slo_engine = (obs.SLOEngine(slo_rules, telemetry.get_registry(),
                                event_log=event_log)
                  if slo_rules else None)
    server = None
    try:
        if getattr(args, "serve", None) is not None:
            server = obs.MetricsServer(registry=telemetry.get_registry(),
                                       event_log=event_log,
                                       watchdog=watchdog,
                                       slo=slo_engine,
                                       port=int(args.serve)).start()
            print(f"[obs] serving {server.url}/metrics "
                  f"(/healthz, /events, /alerts)", file=sys.stderr)
        handle = SimpleNamespace(event_log=event_log, watchdog=watchdog,
                                 recorder=recorder, server=server,
                                 slo=slo_engine)
        crash_dir = getattr(args, "crash_dir", None)
        with obs.event_context(benchmark=benchmark, machine=machine_name):
            if crash_dir:
                with obs.crash_scope(crash_dir, f"{command}-{benchmark}",
                                     recorder=recorder):
                    recorder.mark("run.start")
                    yield handle
                    recorder.mark("run.end")
            else:
                recorder.mark("run.start")
                yield handle
                recorder.mark("run.end")
    finally:
        if slo_engine is not None:
            # Final pass so a run without a single /metrics scrape still
            # fires (and logs) any end-state violations.
            try:
                slo_engine.evaluate()
            except Exception:
                pass
        if server is not None:
            server.stop()
        obs.install_watchdog(None)
        event_log.close_sink()
        event_log.enabled = prior_enabled


def cmd_specs(args) -> int:
    for factory in (cambricon_f100, cambricon_f1):
        print(factory().describe())
        print()
    return 0


def _sim_run_report(args, machine, rep, obs_handle=None):
    """RunReport for one simulator-only CLI invocation (``--json``)."""
    from . import telemetry

    return telemetry.build_run_report(
        benchmark=args.benchmark,
        machine=machine.name,
        registry=telemetry.get_registry() if telemetry.get_registry().enabled
        else None,
        sim_report=rep,
        event_log=obs_handle.event_log if obs_handle is not None else None,
        health=(obs_handle.watchdog.health_section()
                if obs_handle is not None else None),
        notes={"command": args.command},
    )


def _wants_obs(args) -> bool:
    return (getattr(args, "serve", None) is not None
            or bool(getattr(args, "events", None))
            or bool(getattr(args, "crash_dir", None)))


def cmd_simulate(args) -> int:
    from .sim import FractalSimulator
    from .workloads import paper_benchmark

    machine = _machine(args)
    code = _check_outputs("simulate", events=getattr(args, "events", None))
    if code is not None:
        return code
    w = paper_benchmark(args.benchmark)
    from .obs import record_run
    if _wants_obs(args):
        from . import telemetry

        with telemetry.enabled_scope():
            with _observability(args, args.benchmark, machine.name,
                                "simulate") as handle:
                rep = FractalSimulator(
                    machine, collect_profiles=False).simulate(w.program)
            record_run("simulate", benchmark=args.benchmark,
                       machine=machine.name, makespan_s=rep.total_time)
            if getattr(args, "json", False):
                print(_sim_run_report(args, machine, rep, handle).to_json())
                return 0
    else:
        rep = FractalSimulator(machine,
                               collect_profiles=False).simulate(w.program)
        record_run("simulate", benchmark=args.benchmark, machine=machine.name,
                   makespan_s=rep.total_time)
    if getattr(args, "json", False):
        print(_sim_run_report(args, machine, rep).to_json())
        return 0
    print(f"{args.benchmark} on {machine.name}:")
    print(f"  time                {rep.total_time * 1e3:12.3f} ms")
    print(f"  attained            {rep.attained_ops / 1e12:12.2f} Tops "
          f"({rep.peak_fraction(machine.peak_ops):.1%} of peak)")
    print(f"  operational intensity {rep.operational_intensity:10.1f} ops/B")
    print(f"  root traffic        {rep.root_traffic / 2**20:12.1f} MiB")
    print(f"  TTT elided          {rep.stats.elided_bytes / 2**20:12.1f} MiB")
    print(f"  pre-assignable      {rep.stats.preassign_fraction:12.1%}")
    return 0


def cmd_timeline(args) -> int:
    from .sim import FractalSimulator
    from .sim.trace import render_ascii
    from .workloads import paper_benchmark

    machine = _machine(args)
    w = paper_benchmark(args.benchmark)
    rep = FractalSimulator(machine, collect_profiles=True).simulate(w.program)
    if getattr(args, "json", False):
        print(_sim_run_report(args, machine, rep).to_json())
        return 0
    names = [lv.name for lv in machine.levels]
    print(render_ascii(rep, width=args.width, max_depth=args.depth,
                       level_names=names))
    return 0


def cmd_verify(args) -> int:
    from .core.verify import verify_suite

    machine = _machine(args)
    reports = verify_suite(machine=machine, seed=args.seed)
    failed = 0
    for report in reports:
        print(report.summary())
        failed += not report.passed
    return 1 if failed else 0


def cmd_cost(args) -> int:
    from .cost.report import format_cost_report

    print(format_cost_report(_machine(args)))
    return 0


def cmd_trace(args) -> int:
    from .sim import FractalSimulator, write_chrome_trace
    from .workloads import paper_benchmark

    if not args.benchmark:
        print("trace: -b/--benchmark is required (or use `repro trace ls` / "
              "`repro trace show <trace_id>`)", file=sys.stderr)
        return 2
    machine = _machine(args)
    w = paper_benchmark(args.benchmark)
    rep = FractalSimulator(machine, collect_profiles=True).simulate(w.program)
    names = [lv.name for lv in machine.levels]
    write_chrome_trace(rep, args.out, level_names=names,
                       max_depth=args.depth)
    print(f"wrote {args.out} ({rep.total_time * 1e3:.3f} ms simulated; "
          f"open in chrome://tracing or Perfetto)")
    return 0


def cmd_figures(args) -> int:
    from .viz import render_all

    paths = render_all(args.out)
    for name, path in sorted(paths.items()):
        print(f"wrote {path}")
    return 0


def cmd_dse(args) -> int:
    from .cost.dse import explore_design_space

    print(f"{'hierarchy':16s} {'area mm2':>9s} {'power W':>8s}  per-level memory")
    for p in explore_design_space():
        mems = " ".join(f"{lv.mem_bytes / 2**20:.2f}M"
                        for lv in p.machine.levels)
        print(f"{p.hierarchy:16s} {p.area_mm2:9.1f} {p.power_w:8.2f}  [{mems}]")
    return 0


def cmd_assemble(args) -> int:
    from .frontend import assemble, encode_program

    with open(args.source, encoding="utf-8") as f:
        w = assemble(f.read(), name=args.source)
    data = encode_program(w.program)
    out = args.out or (args.source + ".bin")
    with open(out, "wb") as f:
        f.write(data)
    print(f"assembled {len(w.program)} instructions "
          f"({len(data)} bytes) -> {out}")
    return 0


def cmd_disasm(args) -> int:
    from .frontend import decode_program, disassemble

    with open(args.binary, "rb") as f:
        _, program = decode_program(f.read())
    sys.stdout.write(disassemble(program))
    return 0


def cmd_lint(args) -> int:
    """Statically analyze FISA programs; CI-friendly exit codes.

    0 = clean (warnings allowed unless --strict), 1 = analyzer errors,
    2 = parse failure.  With ``--json``, emits the schema-versioned
    ``repro.diag`` diagnostics document (shared with ``plan-lint``)
    instead of human text; parse failures go to stderr.
    """
    import json

    from .analysis import analyze_workload, diagnostics_document
    from .frontend import AssemblyError, assemble

    as_json = getattr(args, "json", False)
    results = []
    worst = 0
    for source in args.sources:
        try:
            with open(source, encoding="utf-8") as f:
                w = assemble(f.read(), name=source, lint=False)
        except AssemblyError as err:
            print(f"{source}: parse error: {err}",
                  file=sys.stderr if as_json else sys.stdout)
            worst = max(worst, 2)
            continue
        except OSError as err:
            print(f"{source}: {err}",
                  file=sys.stderr if as_json else sys.stdout)
            worst = max(worst, 2)
            continue
        result = analyze_workload(w)
        result.program_name = source
        results.append(result)
        gating = result.errors if not args.strict else result.diagnostics
        if not as_json:
            for d in result.diagnostics:
                print(d.format())
            print(f"{source}: {len(result.errors)} error(s), "
                  f"{len(result.warnings)} warning(s), "
                  f"{result.instructions} instruction(s)")
        if gating:
            worst = max(worst, 1)
    if as_json:
        print(json.dumps(diagnostics_document(results, tool="lint"),
                         indent=2))
    return worst


def cmd_profile(args) -> int:
    """Run a benchmark functionally AND through the timing simulator with
    telemetry enabled; write the merged, schema-versioned RunReport.

    Exit codes: **0** -- report written, **2** -- unknown benchmark or the
    report/trace could not be written.
    """
    from . import telemetry
    from .core.executor import FractalExecutor
    from .core.store import TensorStore
    from .sim import FractalSimulator, write_chrome_trace
    from .workloads import profile_benchmark, resolve_profile_benchmark

    machine = _machine(args)
    try:
        args.benchmark = resolve_profile_benchmark(args.benchmark)
    except KeyError as err:
        print(f"profile: {err.args[0]}")
        return 2
    out = args.out or f"runreport_{args.benchmark}.json"
    code = _check_outputs("profile", out=out, trace=args.trace,
                          spans=args.spans,
                          events=getattr(args, "events", None))
    if code is not None:
        return code
    w = profile_benchmark(args.benchmark)

    with telemetry.enabled_scope() as (registry, tracer):
        telemetry.reset()
        with _observability(args, args.benchmark, machine.name,
                            "profile") as handle:
            with tracer.span("host.profile", cat="host",
                             benchmark=args.benchmark, machine=machine.name):
                # Functional pass: real execution through the fractal
                # recursion.
                rng = np.random.default_rng(args.seed)
                store = TensorStore()
                for t in list(w.inputs.values()) + list(w.params.values()):
                    store.bind(t, rng.normal(size=t.shape))
                executor = FractalExecutor(machine, store)
                executor.run_program(w.program)
                handle.recorder.mark("functional.end")

                # Timing pass: the simulator's view of the same program.
                simulator = FractalSimulator(machine,
                                             collect_profiles=bool(args.trace))
                sim_report = simulator.simulate(w.program)

            report = telemetry.build_run_report(
                benchmark=args.benchmark,
                machine=machine.name,
                registry=registry,
                tracer=tracer,
                exec_stats=executor.stats,
                sim_report=sim_report,
                event_log=handle.event_log,
                health=handle.watchdog.health_section(),
                notes={"command": "profile", "seed": args.seed,
                       "program_instructions": len(w.program)},
            )
        try:
            report.write(out)
        except OSError as err:
            print(f"profile: cannot write {out}: {err}")
            return 2
        from .analysis.signatures import program_digest
        from .obs import record_report
        from .plan import fingerprint_digest, machine_fingerprint
        record_report(
            report, kind="profile", out=out,
            fingerprint=fingerprint_digest(machine_fingerprint(machine))[:16],
            program_digest=program_digest(w.program)[:16])

        if args.trace:
            names = [lv.name for lv in machine.levels]
            try:
                write_chrome_trace(sim_report, args.trace, level_names=names,
                                   spans=tracer.spans())
            except OSError as err:
                print(f"profile: cannot write {args.trace}: {err}")
                return 2
        if args.spans:
            try:
                n = tracer.export_jsonl(args.spans)
            except OSError as err:
                print(f"profile: cannot write {args.spans}: {err}")
                return 2
            print(f"wrote {n} spans -> {args.spans}")

    if report.spans_dropped:
        print(f"profile: warning: {report.spans_dropped} span(s) dropped from "
              f"the tracer ring buffer; rollups are incomplete "
              f"(raise Tracer max_spans or narrow the traced region)",
              file=sys.stderr)

    if getattr(args, "json", False):
        print(report.to_json())
        return 0

    stats = executor.stats
    cache = sim_report.cache
    print(f"profiled {args.benchmark} on {machine.name}:")
    print(f"  instructions        {sum(stats.instructions_per_level.values()):12d} "
          f"(depth {stats.max_depth_reached})")
    print(f"  fan-outs            {stats.fanouts:12d} -> {stats.fanout_parts} parts")
    print(f"  leaf kernels        {stats.kernel_calls:12d} "
          f"({', '.join(f'{k}:{v}' for k, v in sorted(stats.leaf_ops.items()))})")
    print(f"  bytes moved         {stats.bytes_read + stats.bytes_written:12d}")
    print(f"  sim sig-cache       {cache.sig_hits:6d} hits / "
          f"{cache.sig_misses} misses ({cache.sig_hit_rate:.0%})")
    print(f"  sim time            {sim_report.total_time * 1e3:12.3f} ms")
    if report.attribution:
        fracs = report.attribution.get("fractions", {})
        shares = " / ".join(f"{cat} {fracs.get(cat, 0.0):.0%}"
                            for cat in ("compute", "dma", "control", "reduction")
                            if fracs.get(cat, 0.0) > 0.005)
        print(f"  bottleneck          {report.attribution.get('classification', '?'):>12s} "
              f"({shares})")
    print(f"wrote {out}")
    if args.trace:
        print(f"wrote {args.trace} (open in Perfetto)")
    return 0


def cmd_diff(args) -> int:
    """Differentially profile two RunReport JSON documents.

    Exit codes: **0** -- no gated regression, **2** -- a document could not
    be read or fails :func:`repro.telemetry.validate_document`, **3** -- at
    least one gated metric regressed past the threshold.
    """
    import json

    from . import telemetry
    from .perf import DiffConfig, diff_documents

    docs = []
    for path in (args.baseline, args.candidate):
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as err:
            print(f"diff: cannot read {path}: {err}", file=sys.stderr)
            return 2
        problems = telemetry.validate_document(doc)
        if problems:
            print(f"diff: {path} is not a valid RunReport:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 2
        docs.append(doc)

    config = DiffConfig(rel_threshold=args.threshold,
                        gate_spans=args.gate_spans)
    result = diff_documents(docs[0], docs[1], config=config,
                            baseline_name=args.baseline,
                            candidate_name=args.candidate)
    if args.json:
        print(json.dumps(result.to_json_obj(), indent=2))
    else:
        print(result.format_table(limit=args.limit))
    return result.exit_code


def cmd_flame(args) -> int:
    """Sampling-profile a benchmark's hot path; write a profile doc.

    Runs the compile-once/replay-many loop under the statistical sampling
    profiler (``repro.obs.prof``), writes the schema-versioned
    ``repro.obs.profile`` JSON and -- with ``--html`` -- a self-contained
    flamegraph.  Exit codes: **0** profile written, **2** unknown
    benchmark or an output path is unwritable.
    """
    import json
    import time as _time

    from . import telemetry
    from .core.executor import FractalExecutor
    from .core.store import TensorStore
    from .obs.flame import format_top_table, render_flamegraph_html
    from .obs.prof import SamplingProfiler, record_profile
    from .workloads import profile_benchmark, resolve_profile_benchmark

    machine = _machine(args)
    try:
        args.benchmark = resolve_profile_benchmark(args.benchmark)
    except KeyError as err:
        print(f"flame: {err.args[0]}", file=sys.stderr)
        return 2
    if args.hz <= 0:
        print(f"flame: --hz must be positive (got {args.hz})",
              file=sys.stderr)
        return 2
    out = args.out or f"profile_{args.benchmark}.json"
    code = _check_outputs("flame", out=out, html=args.html)
    if code is not None:
        return code
    w = profile_benchmark(args.benchmark)

    with telemetry.enabled_scope() as (registry, tracer):
        telemetry.reset()
        rng = np.random.default_rng(args.seed)
        runs = 0
        profiler = SamplingProfiler(hz=args.hz, tracer=tracer,
                                    registry=registry)
        with profiler, tracer.span("host.flame", cat="host",
                                   benchmark=args.benchmark,
                                   machine=machine.name):
            deadline = _time.perf_counter() + args.duration
            while True:
                store = TensorStore()
                for t in list(w.inputs.values()) + list(w.params.values()):
                    store.bind(t, rng.normal(size=t.shape))
                executor = FractalExecutor(machine, store)
                # Compile + replay: samples attribute to "plan.compile" on
                # the cold pass and to step opcodes/levels on every replay.
                plan = executor.compile(w.program)
                executor.run_plan(plan)
                runs += 1
                if args.iterations and runs >= args.iterations:
                    break
                if not args.iterations and _time.perf_counter() >= deadline:
                    break
        doc = profiler.to_doc(
            benchmark=args.benchmark, machine=machine.name,
            meta={"command": "flame", "seed": args.seed, "runs": runs})

    try:
        with open(out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    except OSError as err:
        print(f"flame: cannot write {out}: {err}", file=sys.stderr)
        return 2
    if args.html:
        try:
            with open(args.html, "w", encoding="utf-8") as f:
                f.write(render_flamegraph_html(doc))
        except OSError as err:
            print(f"flame: cannot write {args.html}: {err}", file=sys.stderr)
            return 2
    record_profile(doc, path=out, command="flame", runs=runs)

    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    print(f"sampled {args.benchmark} on {machine.name}: "
          f"{doc['samples']} samples @ {args.hz:g} Hz over {runs} run(s), "
          f"{doc['duration_s']:.2f}s")
    print(format_top_table(doc, limit=args.limit))
    print(f"wrote {out}")
    if args.html:
        print(f"wrote {args.html} (self-contained flamegraph)")
    return 0


def cmd_flame_diff(args) -> int:
    """Diff two recorded profiles; gate on attribution-share growth.

    Exit codes (the ``repro diff`` contract): **0** -- no share grew past
    the threshold, **2** -- a document could not be read or is not a valid
    ``repro.obs.profile``, **3** -- gated regression.
    """
    import json

    from .obs.flame import diff_profiles
    from .obs.prof import validate_profile

    docs = []
    for path in (args.baseline, args.candidate):
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as err:
            print(f"flame-diff: cannot read {path}: {err}", file=sys.stderr)
            return 2
        problems = validate_profile(doc)
        if problems:
            print(f"flame-diff: {path} is not a valid profile:",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 2
        docs.append(doc)

    result = diff_profiles(docs[0], docs[1], threshold=args.threshold,
                           baseline_name=args.baseline,
                           candidate_name=args.candidate)
    if args.json:
        print(json.dumps(result.to_json_obj(), indent=2))
    else:
        print(result.format_table(limit=args.limit))
    return result.exit_code


def cmd_serve_metrics(args) -> int:
    """Run a workload in a loop under a live observability endpoint.

    Every iteration does one functional pass + one simulator pass of the
    benchmark while ``/metrics`` (OpenMetrics), ``/healthz`` (stall
    watchdog) and ``/events`` (recent structured events) are served on
    ``--port``.  With ``--hold`` the server keeps answering after the last
    iteration until interrupted -- handy for pointing Prometheus at a
    finished run.  Exit codes: 0 ok, 2 unknown benchmark / bad output path.
    """
    import time

    from . import telemetry
    from .core.executor import FractalExecutor
    from .core.store import TensorStore
    from .sim import FractalSimulator
    from .workloads import profile_benchmark, resolve_profile_benchmark

    machine = _machine(args)
    try:
        args.benchmark = resolve_profile_benchmark(args.benchmark)
    except KeyError as err:
        print(f"serve-metrics: {err.args[0]}", file=sys.stderr)
        return 2
    code = _check_outputs("serve-metrics",
                          events=getattr(args, "events", None))
    if code is not None:
        return code
    args.serve = args.port  # reuse the shared _observability plumbing
    w = profile_benchmark(args.benchmark)

    with telemetry.enabled_scope():
        telemetry.reset()
        with _observability(args, args.benchmark, machine.name,
                            "serve-metrics") as handle:
            rng = np.random.default_rng(args.seed)
            for i in range(args.iterations):
                store = TensorStore()
                for t in list(w.inputs.values()) + list(w.params.values()):
                    store.bind(t, rng.normal(size=t.shape))
                FractalExecutor(machine, store).run_program(w.program)
                FractalSimulator(machine,
                                 collect_profiles=False).simulate(w.program)
                handle.recorder.mark(f"iteration.{i}")
            from .obs import record_run
            record_run("serve-metrics", benchmark=args.benchmark,
                       machine=machine.name, iterations=args.iterations)
            print(f"served {args.iterations} iteration(s) of "
                  f"{args.benchmark} on {machine.name} at "
                  f"{handle.server.url}/metrics")
            if args.hold:
                print("holding; Ctrl-C to stop", file=sys.stderr)
                try:
                    while True:
                        time.sleep(0.5)
                except KeyboardInterrupt:
                    pass
    return 0


def cmd_events_tail(args) -> int:
    """Filter and pretty-print a structured event log (file or bundle dir).

    Exit codes: **0** events printed (possibly none matched), **2** the
    target could not be read.
    """
    import json

    from . import obs

    try:
        events, bad = obs.load_events(args.target)
    except OSError as err:
        if not args.follow:
            print(f"events tail: cannot read {args.target}: {err}",
                  file=sys.stderr)
            return 2
        events, bad = [], 0  # --follow waits for the file to appear
    pattern = None
    if getattr(args, "grep", None):
        import re

        try:
            pattern = re.compile(args.grep)
        except re.error as err:
            print(f"events tail: bad --grep pattern {args.grep!r}: {err}",
                  file=sys.stderr)
            return 2
    since = None
    if getattr(args, "since", None):
        try:
            since = obs.parse_since(args.since)
        except ValueError as err:
            print(f"events tail: {err}", file=sys.stderr)
            return 2
    picked = obs.filter_events(
        events,
        subsystem=args.subsystem,
        min_severity=args.severity,
        event_glob=args.event,
        last=args.last,
        pattern=pattern,
        since=since,
    )
    if args.json:
        for record in picked:
            print(json.dumps(record, default=repr))
    elif picked:
        print(obs.format_events(picked))
    shown = len(picked)
    total = len(events)
    if args.follow:
        # Poll-append mode: keep printing matching events as the writer
        # flushes them; Ctrl-C exits cleanly with the summary footer.
        base_ts = None
        for record in events:
            ts = record.get("ts")
            if isinstance(ts, (int, float)):
                base_ts = ts
                break
        sys.stdout.flush()
        limit = getattr(args, "follow_max", None)
        try:
            for record in obs.follow_events(args.target,
                                            poll_interval=args.poll,
                                            start_at_end=True):
                total += 1
                if not obs.filter_events([record],
                                         subsystem=args.subsystem,
                                         min_severity=args.severity,
                                         event_glob=args.event,
                                         pattern=pattern,
                                         since=since):
                    continue
                if base_ts is None:
                    ts = record.get("ts")
                    if isinstance(ts, (int, float)):
                        base_ts = ts
                if args.json:
                    print(json.dumps(record, default=repr), flush=True)
                else:
                    print(obs.format_event(record, base_ts=base_ts),
                          flush=True)
                shown += 1
                if limit is not None and shown >= limit:
                    break
        except KeyboardInterrupt:
            pass
    footer = (f"{shown} of {total} event(s) shown"
              + (f"; {bad} corrupt line(s) skipped" if bad else ""))
    print(footer, file=sys.stderr)
    return 0


def cmd_sentinel(args) -> int:
    """Statistical perf-trend verdict over the run ledger.

    Reads the metrics that ledger rows carry as
    ``(benchmark, machine, metric)`` time series, runs the rolling
    median/MAD regression detector on each, and prints a verdict table
    (``--json`` for the ``repro.obs.sentinel`` document, ``--html`` for
    the self-contained trend report).  Exit codes follow ``repro diff``:
    **0** no regression, **2** usage error (disabled/missing ledger,
    bad window/threshold/min-points, unwritable ``--html``), **3** at
    least one series regressed past the threshold.
    """
    import json

    from . import obs

    if args.window < 2:
        print(f"sentinel: --window must be at least 2 (got {args.window})",
              file=sys.stderr)
        return 2
    if args.threshold <= 0:
        print(f"sentinel: --threshold must be positive "
              f"(got {args.threshold})", file=sys.stderr)
        return 2
    if args.min_points < 1:
        print(f"sentinel: --min-points must be at least 1 "
              f"(got {args.min_points})", file=sys.stderr)
        return 2
    ledger = _open_ledger("sentinel", args.ledger)
    if ledger is None:
        return 2
    if not ledger.runs_path.exists():
        print(f"sentinel: no run ledger at {ledger.runs_path} "
              f"(runs record it automatically; see docs/OBSERVABILITY.md)",
              file=sys.stderr)
        return 2
    if args.html:
        code = _check_outputs("sentinel", html=args.html)
        if code is not None:
            return code
    config = obs.SentinelConfig(window=args.window,
                                threshold=args.threshold,
                                min_points=args.min_points)
    result = obs.analyze_history(ledger, config=config,
                                 benchmark=args.benchmark,
                                 machine=args.filter_machine,
                                 metric_glob=args.metric)
    doc = obs.sentinel_document(result)
    if args.html:
        try:
            with open(args.html, "w", encoding="utf-8") as f:
                f.write(obs.render_trend_html(result))
        except OSError as err:
            print(f"sentinel: cannot write --html {args.html}: {err}",
                  file=sys.stderr)
            return 2
        if not args.json:
            print(f"wrote {args.html}")
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(obs.format_table(result))
    obs.record_run("sentinel", directory=args.ledger,
                   series=len(result.entries),
                   regressions=len(result.regressions),
                   exit_code=result.exit_code)
    return result.exit_code


TRACE_LIST_SCHEMA = "repro.obs.trace_list"
TRACE_SHOW_SCHEMA = "repro.obs.trace"
TRACE_DOC_VERSION = 1


def _open_ledger(command: str, directory):
    """Shared `trace ls`/`trace show`/`sentinel` ledger resolution
    (None + msg on 2)."""
    from . import obs

    ledger = obs.get_ledger(directory)
    if ledger is None:
        print(f"{command}: the run ledger is disabled "
              f"(REPRO_LEDGER={os.environ.get('REPRO_LEDGER')!r})",
              file=sys.stderr)
    return ledger


def _age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.0f}h"
    return f"{seconds / 86400:.0f}d"


def cmd_trace_ls(args) -> int:
    """List recorded traces, newest last-activity first.

    Exit codes: **0** listed (possibly zero traces), **2** the ledger is
    disabled.  With ``--json``, emits a schema-versioned
    ``repro.obs.trace_list`` document.
    """
    import json
    import time as _time

    ledger = _open_ledger("trace ls", args.ledger)
    if ledger is None:
        return 2
    traces = ledger.traces()
    items = sorted(
        ({"trace_id": trace_id, **summary}
         for trace_id, summary in traces.items()),
        key=lambda item: -float(item.get("last_ts", 0.0)))
    if args.last is not None and args.last >= 0:
        items = items[:args.last]
    if args.json:
        print(json.dumps({
            "schema": TRACE_LIST_SCHEMA,
            "v": TRACE_DOC_VERSION,
            "ledger": str(ledger.directory),
            "traces": items,
        }, indent=2, default=repr))
        return 0
    if not items:
        print(f"no traces recorded under {ledger.directory}")
        return 0
    now = _time.time()
    print(f"{'trace':16s} {'rows':>5s} {'age':>5s}  kinds / benchmarks / machines")
    for item in items:
        kinds = ",".join(item.get("kinds") or []) or "-"
        benchmarks = ",".join(item.get("benchmarks") or []) or "-"
        machines = ",".join(item.get("machines") or []) or "-"
        age = _age(max(0.0, now - float(item.get("last_ts", now))))
        print(f"{str(item['trace_id'])[:16]:16s} {item.get('rows', 0):5d} "
              f"{age:>5s}  {kinds} / {benchmarks} / {machines}")
    return 0


def cmd_trace_show(args) -> int:
    """Show one trace: its ledger rows joined with shipped spans/events.

    ``trace_id`` may be a unique prefix.  Exit codes: **0** shown, **1**
    unknown (or ambiguous) trace id, **2** the ledger is disabled.
    """
    import json

    ledger = _open_ledger("trace show", args.ledger)
    if ledger is None:
        return 2
    traces = ledger.traces()
    matches = [tid for tid in traces if tid.startswith(args.trace_id)]
    if not matches:
        print(f"trace show: no trace {args.trace_id!r} in "
              f"{ledger.directory}", file=sys.stderr)
        return 1
    if len(matches) > 1:
        print(f"trace show: {args.trace_id!r} is ambiguous "
              f"({len(matches)} traces match)", file=sys.stderr)
        return 1
    trace_id = matches[0]
    rows = ledger.rows(trace_id=trace_id)

    # Join: merge per-worker span rollups and counters shipped in rows.
    spans: dict = {}
    counters: dict = {}
    events: list = []
    for row in rows:
        worker = row.get("worker")
        tag = f"worker={worker}" if worker is not None else "parent"
        for name, agg in (row.get("spans") or {}).items():
            spans.setdefault(tag, {})[name] = agg
        for series, value in (row.get("counters") or {}).items():
            counters.setdefault(tag, {})[series] = value
        row_events = row.get("events")
        if isinstance(row_events, list):
            events.extend(row_events)
    events.sort(key=lambda e: (e.get("ts") or 0.0))

    if args.json:
        print(json.dumps({
            "schema": TRACE_SHOW_SCHEMA,
            "v": TRACE_DOC_VERSION,
            "trace_id": trace_id,
            "ledger": str(ledger.directory),
            "summary": traces[trace_id],
            "rows": rows,
            "spans": spans,
            "counters": counters,
            "events": events,
        }, indent=2, default=repr))
        return 0

    from . import obs

    summary = traces[trace_id]
    print(f"trace {trace_id}")
    print(f"  rows       {summary.get('rows', len(rows))}")
    print(f"  kinds      {', '.join(summary.get('kinds') or []) or '-'}")
    print(f"  benchmarks {', '.join(summary.get('benchmarks') or []) or '-'}")
    print(f"  machines   {', '.join(summary.get('machines') or []) or '-'}")
    for row in rows:
        worker = row.get("worker")
        who = f" worker={worker}" if worker is not None else ""
        extras = []
        for key in ("benchmark", "machine", "variant", "classification",
                    "status", "crash_bundle"):
            if row.get(key):
                extras.append(f"{key}={row[key]}")
        makespan = row.get("makespan_s")
        if isinstance(makespan, (int, float)):
            extras.append(f"makespan={makespan * 1e3:.2f}ms")
        print(f"  [{row.get('kind', '?')}]{who} " + " ".join(extras))
    for tag in sorted(spans):
        print(f"  spans ({tag}):")
        for name, agg in sorted(spans[tag].items()):
            line = (f"    {name:32s} x{agg.get('count', 0):<6d} "
                    f"{float(agg.get('total_s', 0.0)) * 1e3:10.3f} ms")
            if "self_total_s" in agg:
                line += f"  self {float(agg['self_total_s']) * 1e3:10.3f} ms"
            print(line)
    if events:
        print(f"  events ({len(events)} shipped):")
        shown = obs.format_events(events[-args.events:])
        print("    " + shown.replace("\n", "\n    "))
    return 0


def cmd_top(args) -> int:
    """Live, curses-free dashboard over a running /metrics endpoint."""
    from .obs import run_top

    return run_top(args.url, interval=args.interval,
                   iterations=args.iterations, clear=not args.no_clear,
                   json_mode=args.json)


def cmd_compile(args) -> int:
    """Compile a profiling benchmark into a replayable fractal plan.

    Prints the plan's compile-time statistics (steps, kernel/LFU calls,
    bytes moved) and the cache keys it is stored under.  With ``--verify``
    the plan's steps and stats must equal a walk of the program without
    the compile's memo (:func:`_walk_mismatch`), and the plan reloaded
    through a fresh disk cache must equal the compiled one the same way,
    zero-copy flags included.  For both plans, the analysis and replay
    schedule derived span by span must equal those of the same plan
    without spans (:func:`repro.plan.analysis.spanless_mismatch`).  The
    plan rebound onto fresh clones of its externals (same names, shapes
    and dtypes, new uids) must equal the compiled one the same way, and
    derive by span what it derives without spans.  Then recursion,
    schedule replay, the reloaded plan and a compiled ``InferenceSession``
    (called first on other inputs) run on the same random inputs, and all
    three replays must match recursion bit for bit; the rebound plan's
    replay on the clones must match recursion on them.  Exit codes:
    **0** ok, **1** a ``--verify`` mismatch, **2** unknown benchmark.
    """
    import tempfile

    from .analysis.signatures import external_tensors
    from .core.executor import FractalExecutor
    from .core.isa import Instruction
    from .core.store import TensorStore
    from .core.tensor import Region, Tensor
    from .core.verify import bit_identical
    from .plan import (DiskPlanCache, compile_cached, fingerprint_digest,
                       machine_fingerprint, plan_key)
    from .plan.analysis import spanless_mismatch
    from .runtime import InferenceSession
    from .workloads import profile_benchmark, resolve_profile_benchmark

    machine = _machine(args)
    try:
        args.benchmark = resolve_profile_benchmark(args.benchmark)
    except KeyError as err:
        print(f"compile: {err.args[0]}", file=sys.stderr)
        return 2
    w = profile_benchmark(args.benchmark)
    plan = compile_cached(machine, w.program, disk_dir=args.plan_cache)
    stats = plan.stats
    from .obs import record_run
    record_run("compile", benchmark=args.benchmark, machine=machine.name,
               fingerprint=fingerprint_digest(machine_fingerprint(machine))[:16],
               program_digest=plan.signature_digest[:16],
               steps=plan.n_steps, compile_s=plan.compile_seconds)
    print(f"compiled {args.benchmark} on {machine.name}:")
    print(f"  steps               {plan.n_steps:12d} "
          f"({stats.kernel_calls} kernel, {stats.lfu_calls} LFU)")
    print(f"  instructions        "
          f"{sum(stats.instructions_per_level.values()):12d} "
          f"(depth {stats.max_depth_reached})")
    print(f"  fan-outs            {stats.fanouts:12d} "
          f"-> {stats.fanout_parts} parts")
    print(f"  bytes moved         "
          f"{stats.bytes_read + stats.bytes_written:12d}")
    print(f"  externals           {len(plan.externals):12d} tensors")
    print(f"  compile time        {plan.compile_seconds * 1e3:12.2f} ms")
    print(f"  machine fingerprint {fingerprint_digest(machine_fingerprint(machine))[:16]}")
    print(f"  program signature   {plan.signature_digest[:16]}")
    if args.plan_cache:
        print(f"  disk cache          {args.plan_cache}")
    if not args.verify:
        return 0

    mismatch = _walk_mismatch(machine, w.program, plan)
    if mismatch is not None:
        print(f"compile: --verify FAILED: {mismatch}", file=sys.stderr)
        return 1
    # Recursion is the reference; schedule replay, the plan reloaded
    # through a fresh disk cache (store, load, re-verify) and a compiled
    # session's second call, after one on other inputs, must match it
    # bit for bit.
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        disk = DiskPlanCache(tmp)
        fp, digest = plan_key(machine, w.program)
        disk.store(fp, digest, plan)
        loaded = disk.load(fp, digest, external_tensors(w.program))
    if loaded is None:
        print("compile: --verify FAILED: the plan did not survive the disk "
              "round trip", file=sys.stderr)
        return 1
    # The rebind leg: the plan over fresh clones of its externals.
    clones = {t.uid: Tensor(t.name, t.shape, t.dtype, space=t.space)
              for t in plan.externals}
    rebound = plan.rebind([clones[t.uid] for t in plan.externals])
    places = [(s.kind, s.level) for s in plan.steps]
    insts = [s.inst for s in plan.steps]
    for whose, candidate in (("reloaded", loaded), ("rebound", rebound)):
        mismatch = _steps_mismatch(candidate, places, insts, plan.stats,
                                   "the compiled plan's")
        if mismatch is None and not np.array_equal(candidate.steps.safe,
                                                    plan.steps.safe):
            mismatch = "zero-copy flags differ from the compiled plan's"
        if mismatch is not None:
            print(f"compile: --verify FAILED: the {whose} plan's {mismatch}",
                  file=sys.stderr)
            return 1
    for whose, candidate in (("compiled", plan), ("reloaded", loaded),
                             ("rebound", rebound)):
        mismatch = spanless_mismatch(candidate)
        if mismatch is not None:
            print(f"compile: --verify FAILED: the {whose} plan's {mismatch}",
                  file=sys.stderr)
            return 1
    rng = np.random.default_rng(args.seed)
    bound = list(w.inputs.values()) + list(w.params.values())
    arrays = {t.uid: rng.normal(size=t.shape) for t in bound}
    modes = (("recursion", None), ("schedule replay", plan),
             ("the disk round trip", loaded))
    results = []
    for _, use_plan in modes:
        store = TensorStore()
        for t in bound:
            store.bind(t, arrays[t.uid])
        FractalExecutor(machine, store).run_program(w.program, plan=use_plan)
        results.append({name: store.read(t.region())
                        for name, t in w.outputs.items()})
    session = InferenceSession(w, machine)
    session.load_parameters({name: arrays[t.uid]
                             for name, t in w.params.items()})
    session.compile()
    session(**{full.split(".")[-1]: rng.normal(size=t.shape)
               for full, t in w.inputs.items()})
    second = session(**{full.split(".")[-1]: arrays[t.uid]
                        for full, t in w.inputs.items()})
    modes += (("a bound session's second call", session.plan),)
    results.append({name: second[name.split(".")[-1]] for name in w.outputs})
    for (mode, _), candidate in zip(modes[1:], results[1:]):
        for name in results[0]:
            if not bit_identical(candidate[name], results[0][name]):
                print(f"compile: --verify FAILED: output {name!r} differs "
                      f"between recursion and {mode}", file=sys.stderr)
                return 1

    def on_clones(r):
        return Region(clones[r.tensor.uid], r.bounds)

    cloned = [Instruction(i.opcode, tuple(map(on_clones, i.inputs)),
                          tuple(map(on_clones, i.outputs)), dict(i.attrs),
                          i.loc) for i in w.program]
    on_clone_results = []
    for use_plan in (None, rebound):
        store = TensorStore()
        for t in bound:
            store.bind(clones[t.uid], arrays[t.uid])
        FractalExecutor(machine, store).run_program(cloned, plan=use_plan)
        on_clone_results.append({name: store.read(clones[t.uid].region())
                                 for name, t in w.outputs.items()})
    for name, want in on_clone_results[0].items():
        if not bit_identical(on_clone_results[1][name], want):
            print(f"compile: --verify FAILED: output {name!r} differs "
                  f"between recursion on fresh externals and the plan "
                  f"rebound onto them", file=sys.stderr)
            return 1
    schedule = plan.replay_schedule()
    print(f"  verify              steps and stats equal the walk without "
          f"a memo, and the reloaded and rebound plans' equal the plan's "
          f"own; all three plans' analysis and schedule by span equal "
          f"their spanless ones; recursion, schedule replay, the disk "
          f"round trip and a bound session's second call bit-identical, "
          f"and the plan rebound onto fresh externals bit-identical to "
          f"recursion on them ({len(results[0])} output(s), "
          f"{schedule.batched_steps} batched step(s))")
    return 0


def _walk_mismatch(machine, program, plan):
    """How ``plan`` differs from a walk of ``program`` with a recording
    sink and no memo, or ``None`` (:func:`_steps_mismatch`)."""
    from .core.executor import WalkStats, walk

    stats, places, insts = WalkStats(), [], []

    def record(kind, inst, level):
        places.append((kind, level))
        insts.append(inst)

    for inst in program:
        walk(inst, 0, machine, stats, record)
    return _steps_mismatch(plan, places, insts, stats, "the walk's")


def _steps_mismatch(plan, places, insts, stats, whose):
    """How ``plan`` differs from ``(kind, level)`` ``places``, ``insts``
    and ``stats``, or ``None``: kinds and levels step for step, the steps'
    :func:`~repro.analysis.program_signature`, chain ids one to one in
    order, and ``plan.stats``' walk counters field by field."""
    from dataclasses import fields

    from .analysis import program_signature
    from .core.executor import WalkStats

    if [(s.kind, s.level) for s in plan.steps] != places:
        return f"step kinds or levels differ from {whose}"
    if program_signature([s.inst for s in plan.steps]) != \
            program_signature(insts):
        return f"steps differ from {whose}"
    chains = {}
    for step, inst in zip(plan.steps, insts):
        got, want = step.inst.attrs.get("acc_chain"), inst.attrs.get("acc_chain")
        if chains.setdefault(got, want) != want:
            return f"chain ids are not one to one with {whose}"
    if len(set(chains.values())) != len(chains):
        return f"chain ids are not one to one with {whose}"
    for f in fields(WalkStats):
        if getattr(plan.stats, f.name) != getattr(stats, f.name):
            return f"plan.stats.{f.name} differs from {whose}"
    return None


def _plan_externals_from_doc(doc: dict) -> list:
    """Reconstruct a plan document's external tensors from its tensor
    table (entries with ``external >= 0``, in external order)."""
    from .core.tensor import DType, Tensor
    from .plan import PlanFormatError

    n = int(doc["n_externals"])
    externals: list = [None] * n
    for entry in doc["tensors"]:
        ext = int(entry["external"])
        if ext < 0:
            continue
        if ext >= n or externals[ext] is not None:
            raise PlanFormatError(f"bad external index {ext}")
        externals[ext] = Tensor(
            name=str(entry["name"]),
            shape=tuple(int(d) for d in entry["shape"]),
            dtype=DType.from_name(str(entry["dtype"])),
            space=str(entry["space"]))
    if any(t is None for t in externals):
        raise PlanFormatError("tensor table is missing external entries")
    return externals


def cmd_plan_lint(args) -> int:
    """Dataflow-analyze a compiled fractal plan; CI-friendly exit codes.

    The target is either a profiling benchmark name (compiled for
    ``--machine``, through the optional ``--plan-cache``) or a path to a
    serialized plan JSON document.  Exit codes match ``repro lint``:
    **0** clean (warnings allowed unless ``--strict``), **1** P1xx errors
    (any finding with ``--strict``), **2** unknown benchmark or a corrupt
    plan document (including one whose stored analysis products fail
    re-verification).
    """
    import json

    from .analysis import diagnostics_document
    from .core.gcpause import gc_paused
    from .plan import (PlanFormatError, analyze_plan, compile_cached,
                       plan_from_doc, verify_plan)

    target = args.target
    path = Path(target)
    if target.endswith(".json") or path.exists():
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as err:
            print(f"plan-lint: cannot read {target}: {err}", file=sys.stderr)
            return 2
        try:
            if not isinstance(doc, dict):
                raise PlanFormatError(
                    f"plan document is {type(doc).__name__}, expected object")
            # Rebuilt and re-verified as a disk-cache load does: with the
            # cyclic collector paused.  Stored products must match a
            # fresh analysis of the rebuilt steps -- a mismatch means the
            # file was tampered with or written by an incompatible
            # analyzer: corrupt, exit 2.
            with gc_paused():
                plan = plan_from_doc(doc, _plan_externals_from_doc(doc))
                analysis = verify_plan(plan)
        except (PlanFormatError, ValueError, KeyError, TypeError) as err:
            print(f"plan-lint: corrupt plan {target}: {err}", file=sys.stderr)
            return 2
        name = target
    else:
        machine = _machine(args)
        from .workloads import profile_benchmark, resolve_profile_benchmark

        try:
            target = resolve_profile_benchmark(target)
        except KeyError as err:
            print(f"plan-lint: {err.args[0]}", file=sys.stderr)
            return 2
        w = profile_benchmark(target)
        plan = compile_cached(machine, w.program, disk_dir=args.plan_cache)
        name = f"{target}@{machine.name}"
        analysis = analyze_plan(plan)

    result = analysis.result
    result.program_name = name
    gating = result.diagnostics if args.strict else result.errors

    # Batching summary: what the vectorization pass lowered and the arena
    # the schedule preallocates.
    schedule = plan.replay_schedule()
    batching = {
        "batched_steps": schedule.batched_steps,
        "batched_lanes": schedule.batched_lanes,
        "arena_bytes": schedule.arena.nbytes,
        "fully_batched": schedule.fully_batched,
    }

    if getattr(args, "json", False):
        doc = diagnostics_document([result], tool="plan-lint")
        doc["plan"] = {
            "steps": plan.n_steps,
            "signature_digest": plan.signature_digest,
            "fusion_groups": len(analysis.fusion_groups),
            "fused_steps": analysis.fused_steps,
            "safe_zero_copy_steps": analysis.n_safe_zero_copy,
            "peak_live_bytes": analysis.peak_live_bytes,
        }
        doc["plan"].update(batching)
        print(json.dumps(doc, indent=2))
        return 1 if gating else 0

    for d in result.diagnostics:
        print(d.format())
    print(f"{name}: {len(result.errors)} error(s), "
          f"{len(result.warnings)} warning(s) in {plan.n_steps} step(s)")
    print(f"  fusion groups       {len(analysis.fusion_groups):12d} "
          f"covering {analysis.fused_steps}/{plan.n_steps} steps")
    print(f"  safe zero-copy      {analysis.n_safe_zero_copy:12d}"
          f"/{plan.n_steps} steps")
    print(f"  peak live bytes     {analysis.peak_live_bytes:12d}")
    print(f"  batched steps       {batching['batched_steps']:12d} "
          f"covering {batching['batched_lanes']}/{plan.n_steps} steps")
    print(f"  arena bytes         {batching['arena_bytes']:12d}")
    return 1 if gating else 0


def cmd_run(args) -> int:
    from .core.executor import FractalExecutor
    from .core.store import TensorStore
    from .frontend import assemble

    machine = _machine(args)
    with open(args.source, encoding="utf-8") as f:
        w = assemble(f.read(), name=args.source)
    plan = None
    if getattr(args, "plan_cache", None) or getattr(args, "repeat", 1) > 1:
        from .plan import compile_cached

        plan = compile_cached(machine, w.program,
                              disk_dir=getattr(args, "plan_cache", None))
    rng = np.random.default_rng(args.seed)
    repeats = max(1, int(getattr(args, "repeat", 1)))
    for _ in range(repeats):
        store = TensorStore()
        for t in w.inputs.values():
            store.bind(t, rng.normal(size=t.shape))
        executor = FractalExecutor(machine, store)
        executor.run_program(w.program, plan=plan)
    from .analysis.signatures import program_digest
    from .obs import record_run
    record_run("run", benchmark=args.source, machine=machine.name,
               program_digest=program_digest(w.program)[:16],
               repeats=repeats, kernel_calls=executor.stats.kernel_calls,
               replayed=plan is not None)
    print(f"ran {len(w.program)} instructions on {machine.name} "
          f"({executor.stats.kernel_calls} leaf kernels"
          + (f", {repeats} repeats, replayed plan" if plan is not None else "")
          + ")")
    for name, t in w.outputs.items():
        arr = store.read(t.region())
        print(f"  {name}: shape {arr.shape}, "
              f"mean {arr.mean():.4g}, max {arr.max():.4g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Cambricon-F reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("specs", help="Table-6 instance specifications") \
        .set_defaults(fn=cmd_specs)

    p = sub.add_parser("simulate", help="simulate a paper benchmark")
    _add_machine_args(p)
    _add_obs_args(p)
    p.add_argument("-b", "--benchmark", required=True)
    p.add_argument("--json", action="store_true",
                   help="emit the RunReport JSON instead of human text")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("timeline", help="ASCII execution timeline (Fig 13)")
    _add_machine_args(p)
    p.add_argument("-b", "--benchmark", required=True)
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--json", action="store_true",
                   help="emit the RunReport JSON instead of human text")
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser("verify", help="differentially verify the benchmark "
                                      "suite (fractal vs reference kernels)")
    _add_machine_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cost", help="silicon cost breakdown per level")
    _add_machine_args(p)
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("trace", help="write a Chrome/Perfetto trace, or "
                                     "query the run ledger (trace ls/show)")
    _add_machine_args(p)
    p.add_argument("-b", "--benchmark")
    p.add_argument("-o", "--out", default="trace.json")
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(fn=cmd_trace)
    trace_sub = p.add_subparsers(dest="trace_command")
    p = trace_sub.add_parser("ls", help="list recorded traces from the run "
                                        "ledger, newest first")
    p.add_argument("--ledger", metavar="DIR",
                   help="ledger directory (default $REPRO_LEDGER or "
                        "~/.cache/repro/ledger)")
    p.add_argument("-n", "--last", type=int,
                   help="only the newest N traces")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.obs.trace_list JSON document")
    p.set_defaults(fn=cmd_trace_ls)
    p = trace_sub.add_parser("show", help="show one trace: ledger rows "
                                          "joined with shipped spans/events")
    p.add_argument("trace_id", help="full trace id or a unique prefix")
    p.add_argument("--ledger", metavar="DIR",
                   help="ledger directory (default $REPRO_LEDGER or "
                        "~/.cache/repro/ledger)")
    p.add_argument("--events", type=int, default=20, metavar="N",
                   help="newest shipped events to print (default 20)")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.obs.trace JSON document")
    p.set_defaults(fn=cmd_trace_show)

    p = sub.add_parser("figures", help="render every figure as SVG")
    p.add_argument("-o", "--out", default="figures")
    p.set_defaults(fn=cmd_figures)

    sub.add_parser("dse", help="Table-4 hierarchy sweep (costs)") \
        .set_defaults(fn=cmd_dse)

    p = sub.add_parser("assemble", help="FISA text -> binary")
    p.add_argument("source")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_assemble)

    p = sub.add_parser("disasm", help="FISA binary -> text")
    p.add_argument("binary")
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser("lint", help="statically analyze FISA programs "
                                    "(shape/dtype, def-use, hazards)")
    p.add_argument("sources", nargs="+",
                   help="one or more .fisa source files")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors for the exit code")
    p.add_argument("--json", action="store_true",
                   help="emit the schema-versioned repro.diag diagnostics "
                        "document instead of human text")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("plan-lint",
                       help="dataflow-analyze a compiled fractal plan "
                            "(P1xx races, dead steps, fusion legality)")
    _add_machine_args(p)
    p.add_argument("target",
                   help="profiling benchmark name (e.g. mm_fc, same names "
                        "as `repro profile`) or a serialized plan JSON file")
    p.add_argument("--plan-cache", metavar="DIR",
                   help="compile through the on-disk plan cache under DIR")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors for the exit code")
    p.add_argument("--json", action="store_true",
                   help="emit the schema-versioned repro.diag diagnostics "
                        "document (plus a plan summary section)")
    p.set_defaults(fn=cmd_plan_lint)

    p = sub.add_parser("profile", help="run + simulate a benchmark with "
                                       "telemetry; write a RunReport JSON")
    _add_machine_args(p)
    p.add_argument("benchmark",
                   help="profiling subject (e.g. mm_fc, matmul, VGG-16 "
                        "miniature) -- see docs/TELEMETRY.md")
    p.add_argument("-o", "--out",
                   help="RunReport path (default runreport_<benchmark>.json)")
    p.add_argument("--trace",
                   help="also write a merged Perfetto trace (functional "
                        "spans + simulator timeline)")
    p.add_argument("--spans", help="also export the raw span stream as JSONL")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="print the RunReport JSON instead of the summary")
    _add_obs_args(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("serve-metrics",
                       help="run a workload under a live /metrics + "
                            "/healthz + /events endpoint")
    _add_machine_args(p)
    p.add_argument("benchmark",
                   help="profiling subject (e.g. mm_fc) -- same registry "
                        "as `repro profile`")
    p.add_argument("--port", type=int, default=8000,
                   help="TCP port on 127.0.0.1 (0 = ephemeral; default 8000)")
    p.add_argument("--iterations", type=int, default=1,
                   help="functional+simulator passes to run (default 1)")
    p.add_argument("--hold", action="store_true",
                   help="keep serving after the last iteration until Ctrl-C")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", metavar="PATH",
                   help="stream the structured event log to PATH as JSONL")
    p.add_argument("--events-max-bytes", type=int, default=16 * 2**20,
                   metavar="N",
                   help="roll the --events sink to PATH.1 past N bytes "
                        "(default 16 MiB; 0 = unbounded)")
    p.add_argument("--crash-dir", metavar="DIR",
                   help="dump a crash bundle under DIR on an uncaught "
                        "exception")
    p.add_argument("--stall-after", type=float, default=30.0, metavar="S",
                   help="stall watchdog budget in seconds (default 30)")
    p.add_argument("--slo", action="append", metavar="RULE", default=None,
                   help="arm a live SLO rule, e.g. "
                        "'sim.sig_cache.hits > 100 for 5s as warm-cache' "
                        "(repeatable; fires alert events, the "
                        "repro_alerts_active gauge and /alerts; "
                        "syntax in docs/OBSERVABILITY.md)")
    p.set_defaults(fn=cmd_serve_metrics)

    p = sub.add_parser("events", help="structured event log tooling")
    events_sub = p.add_subparsers(dest="events_command", required=True)
    p = events_sub.add_parser(
        "tail", help="filter and pretty-print an events.jsonl file or a "
                     "crash-bundle directory")
    p.add_argument("target",
                   help="events.jsonl path or crash-bundle directory")
    p.add_argument("-s", "--subsystem",
                   help="only events from this subsystem (executor, sim, "
                        "runtime, ops, decompose)")
    p.add_argument("--severity", choices=("debug", "info", "warn", "error"),
                   help="minimum severity to show")
    p.add_argument("-e", "--event", metavar="GLOB",
                   help="event-name glob, e.g. 'instruction.*'")
    p.add_argument("-n", "--last", type=int,
                   help="only the newest N matching events")
    p.add_argument("--json", action="store_true",
                   help="re-emit matching records as JSONL instead of "
                        "pretty text")
    p.add_argument("-f", "--follow", action="store_true",
                   help="after the initial tail, keep polling the file and "
                        "print records as they are appended (Ctrl-C exits)")
    p.add_argument("--poll", type=float, default=0.5, metavar="S",
                   help="--follow poll interval in seconds (default 0.5)")
    p.add_argument("--follow-max", type=int, help=argparse.SUPPRESS)
    p.add_argument("-g", "--grep", metavar="PATTERN",
                   help="regex filter over the event name and rendered "
                        "fields (composes with --severity/--follow)")
    p.add_argument("--since", metavar="WHEN",
                   help="only events at or after WHEN -- an ISO-8601 "
                        "timestamp (2026-08-08T12:00:00) or epoch seconds; "
                        "composes with every other filter (triaging alert "
                        "windows)")
    p.set_defaults(fn=cmd_events_tail)

    p = sub.add_parser("top", help="live terminal dashboard over a running "
                                   "/metrics endpoint (see serve-metrics)")
    p.add_argument("url", nargs="?", default="127.0.0.1:8000",
                   help="metrics endpoint, host:port or full URL "
                        "(default 127.0.0.1:8000)")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="refresh interval in seconds (default 2)")
    p.add_argument("--iterations", type=int, metavar="N",
                   help="exit after N refreshes (default: run until Ctrl-C)")
    p.add_argument("--no-clear", action="store_true",
                   help="append frames instead of clearing the screen "
                        "(useful for piping)")
    p.add_argument("--json", action="store_true",
                   help="emit one repro.obs.top JSON object per frame "
                        "instead of the ANSI dashboard "
                        "(--json --iterations 1 for a one-shot scrape)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("diff", help="compare two RunReport JSON documents; "
                                    "exit 3 on gated regression")
    p.add_argument("baseline", help="baseline RunReport JSON")
    p.add_argument("candidate", help="candidate RunReport JSON")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="relative change gated metrics may slip "
                        "(default 0.05 = 5%%)")
    p.add_argument("--gate-spans", action="store_true",
                   help="also gate wall-clock span rollups (nondeterministic; "
                        "off by default)")
    p.add_argument("--limit", type=int, default=20,
                   help="rows per table section (default 20)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable diff instead of the table")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("sentinel",
                       help="statistical perf-trend verdict over the run "
                            "ledger; exit 3 on regression")
    p.add_argument("--ledger", metavar="DIR",
                   help="ledger directory (default $REPRO_LEDGER or "
                        "~/.cache/repro/ledger)")
    p.add_argument("--window", type=int, default=10, metavar="N",
                   help="rolling baseline size in points (default 10)")
    p.add_argument("--threshold", type=float, default=3.0, metavar="Z",
                   help="robust z-score past which a bad-direction move "
                        "is a regression (default 3.0)")
    p.add_argument("--min-points", type=int, default=5, metavar="N",
                   help="baseline points required before verdicts "
                        "(shorter series report warmup; default 5)")
    p.add_argument("-b", "--benchmark",
                   help="only series of this benchmark")
    p.add_argument("--filter-machine", metavar="MACHINE",
                   help="only series of this machine name")
    p.add_argument("--metric", metavar="GLOB",
                   help="metric-name glob, e.g. 'makespan_s' or '*_rate'")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.obs.sentinel document instead of "
                        "the table")
    p.add_argument("--html", metavar="OUT",
                   help="also write a self-contained HTML trend report "
                        "with per-metric sparklines")
    p.set_defaults(fn=cmd_sentinel)

    p = sub.add_parser("flame", help="sampling-profile a benchmark; write "
                                     "a profile JSON and flamegraph")
    _add_machine_args(p)
    p.add_argument("benchmark",
                   help="profiling subject (e.g. mm_fc) -- same names as "
                        "`repro profile`")
    p.add_argument("--hz", type=float, default=200.0,
                   help="sampling rate in Hz (default 200)")
    p.add_argument("-o", "--out",
                   help="profile doc path (default profile_<benchmark>.json)")
    p.add_argument("--html", metavar="OUT",
                   help="also write a self-contained HTML flamegraph")
    p.add_argument("--duration", type=float, default=1.0, metavar="S",
                   help="keep re-running the benchmark for about S seconds "
                        "(default 1.0)")
    p.add_argument("--iterations", type=int, default=0, metavar="N",
                   help="run exactly N passes instead of --duration")
    p.add_argument("--limit", type=int, default=15,
                   help="rows in the printed top table (default 15)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="print the repro.obs.profile document instead of "
                        "the summary")
    p.set_defaults(fn=cmd_flame)

    p = sub.add_parser("flame-diff", help="diff two recorded profiles; "
                                          "exit 3 on attribution regression")
    p.add_argument("baseline", help="baseline repro.obs.profile JSON")
    p.add_argument("candidate", help="candidate repro.obs.profile JSON")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="absolute share growth that gates, in fractions "
                        "of total samples (default 0.05 = 5 points)")
    p.add_argument("--limit", type=int, default=20,
                   help="rows in the printed table (default 20)")
    p.add_argument("--json", action="store_true",
                   help="emit the repro.obs.profile_diff document instead "
                        "of the table")
    p.set_defaults(fn=cmd_flame_diff)

    p = sub.add_parser("compile", help="compile a benchmark into a "
                                       "replayable fractal plan")
    _add_machine_args(p)
    p.add_argument("benchmark",
                   help="profiling subject (e.g. mm_fc) -- same names as "
                        "`repro profile`")
    p.add_argument("--plan-cache", metavar="DIR",
                   help="persist the compiled plan under DIR (versioned "
                        "JSON; see docs/PERFORMANCE.md)")
    p.add_argument("--verify", action="store_true",
                   help="replay the plan against recursive execution and "
                        "compare outputs bit-for-bit")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="assemble and execute a FISA program")
    _add_machine_args(p)
    p.add_argument("source")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plan-cache", metavar="DIR",
                   help="compile through the on-disk plan cache and replay "
                        "the plan instead of recursing")
    p.add_argument("--repeat", type=int, default=1,
                   help="execute the program N times (compiles once and "
                        "replays when N > 1; default 1)")
    p.set_defaults(fn=cmd_run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from .obs.trace import ensure_trace
    with ensure_trace(command=args.command):
        try:
            return args.fn(args)
        except SystemExit as exc:  # usage errors raised mid-command
            return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    raise SystemExit(main())
