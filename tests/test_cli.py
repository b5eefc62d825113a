"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSpecs:
    def test_prints_both_instances(self, capsys):
        code, out = run_cli(capsys, "specs")
        assert code == 0
        assert "Cambricon-F100" in out and "Cambricon-F1" in out
        assert "2048 cores" in out


class TestSimulate:
    def test_knn_on_f1(self, capsys):
        code, out = run_cli(capsys, "simulate", "-m", "f1", "-b", "K-NN")
        assert code == 0
        assert "attained" in out and "ops/B" in out

    def test_flags_accepted(self, capsys):
        code, out = run_cli(capsys, "simulate", "-m", "f1", "-b", "K-NN",
                            "--no-ttt", "--no-broadcast")
        assert code == 0

    def test_unknown_benchmark(self, capsys):
        with pytest.raises(KeyError):
            run_cli(capsys, "simulate", "-b", "nope")

    def test_unknown_machine_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "simulate", "-m", "tpu", "-b", "K-NN")


class TestTimeline:
    def test_renders(self, capsys):
        code, out = run_cli(capsys, "timeline", "-m", "f1", "-b", "K-NN",
                            "--width", "60")
        assert code == 0
        assert "timeline" in out and "|" in out


class TestJsonOutput:
    """--json on simulate/timeline emits a machine-readable RunReport."""

    def _load(self, out):
        import json

        from repro.telemetry import SCHEMA, SCHEMA_VERSION, validate_document
        doc = json.loads(out)
        assert doc["schema"] == SCHEMA
        assert doc["schema_version"] == SCHEMA_VERSION
        assert validate_document(doc) == []
        return doc

    def test_simulate_json(self, capsys):
        code, out = run_cli(capsys, "simulate", "-m", "f1", "-b", "K-NN",
                            "--json")
        assert code == 0
        doc = self._load(out)
        assert doc["benchmark"] == "K-NN"
        assert doc["machine"] == "Cambricon-F1"
        sim = doc["simulator"]
        assert sim["total_time_s"] > 0
        assert sim["work_ops"] > 0
        assert "cache" in sim and sim["cache"]["nodes_simulated"] > 0
        assert doc["notes"]["command"] == "simulate"

    def test_timeline_json(self, capsys):
        code, out = run_cli(capsys, "timeline", "-m", "f1", "-b", "K-NN",
                            "--json")
        assert code == 0
        doc = self._load(out)
        assert doc["notes"]["command"] == "timeline"
        assert doc["simulator"]["total_time_s"] > 0

    def test_json_is_pure(self, capsys):
        """The --json output must be parseable as-is (no banner lines)."""
        import json
        code, out = run_cli(capsys, "simulate", "-m", "f1", "-b", "K-NN",
                            "--json")
        assert code == 0
        json.loads(out)  # would raise on stray human-readable text


class TestProfile:
    def test_profile_writes_run_report(self, capsys, tmp_path):
        import json
        rr = tmp_path / "rr.json"
        code, out = run_cli(capsys, "profile", "mm_fc", "-o", str(rr))
        assert code == 0 and rr.exists()
        doc = json.loads(rr.read_text())

        from repro.telemetry import validate_document
        assert validate_document(doc) == []
        # executor counters, sim cache stats and span rollups all present
        counters = doc["counters"]
        assert any(k.startswith("executor.instructions") for k in counters)
        assert any(k.startswith("sim.sig_cache.") for k in counters)
        assert doc["spans"]  # rollups non-empty
        assert any(n.startswith("inst:") for n in doc["spans"])
        assert doc["notes"]["program_instructions"] >= 3

    def test_profile_trace_and_spans(self, capsys, tmp_path):
        import json
        rr = tmp_path / "rr.json"
        tr = tmp_path / "trace.json"
        sp = tmp_path / "spans.jsonl"
        code, out = run_cli(capsys, "profile", "mm_fc", "-o", str(rr),
                            "--trace", str(tr), "--spans", str(sp))
        assert code == 0
        trace = json.loads(tr.read_text())

        from repro.sim.chrometrace import FUNCTIONAL_PID
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert FUNCTIONAL_PID in pids          # merged functional spans
        assert pids - {FUNCTIONAL_PID}         # plus simulator tracks
        depths = {e["args"]["depth"] for e in trace["traceEvents"]
                  if e["pid"] == FUNCTIONAL_PID and e["ph"] == "X"}
        assert len(depths) >= 2                # >= 2 nested track levels
        lines = sp.read_text().strip().splitlines()
        assert lines and all(json.loads(ln) for ln in lines)

    def test_unknown_benchmark_exit_2(self, capsys):
        code, out = run_cli(capsys, "profile", "nope")
        assert code == 2
        assert "unknown" in out.lower() or "choices" in out.lower()

    def test_unknown_benchmark_lists_valid_names(self, capsys):
        from repro.workloads import profile_benchmark_names
        code, out = run_cli(capsys, "profile", "nope")
        assert code == 2
        for name in profile_benchmark_names():
            assert name in out  # the message names every valid subject

    def test_benchmark_name_case_insensitive(self, capsys, tmp_path):
        rr = tmp_path / "rr.json"
        code, out = run_cli(capsys, "profile", "MM_FC", "-o", str(rr))
        assert code == 0 and rr.exists()
        assert "mm_fc" in out  # resolved to the canonical suite key

    def test_profile_json_emits_current_report(self, capsys, tmp_path):
        """Acceptance: repro profile mm_fc --json is a RunReport v3 whose
        attribution fractions sum to the makespan."""
        import json
        rr = tmp_path / "rr.json"
        code, out = run_cli(capsys, "profile", "mm_fc", "-o", str(rr),
                            "--json")
        assert code == 0
        doc = json.loads(out)  # stdout is the document, nothing else
        from repro.telemetry import validate_document
        assert doc["schema_version"] == 3
        assert validate_document(doc) == []
        attr = doc["attribution"]
        total = sum(sum(cats.values())
                    for cats in attr["per_level_s"].values())
        assert total == pytest.approx(attr["makespan_s"], rel=1e-9)
        assert abs(sum(attr["fractions"].values()) - 1.0) < 1e-9

    def test_profile_summary_names_bottleneck(self, capsys, tmp_path):
        rr = tmp_path / "rr.json"
        code, out = run_cli(capsys, "profile", "mm_fc", "-o", str(rr))
        assert code == 0
        assert "bottleneck" in out and "-bound" in out


class TestDSE:
    def test_prints_all_hierarchies(self, capsys):
        code, out = run_cli(capsys, "dse")
        assert code == 0
        for name in ("1-512", "1-2-16-512", "1-4-16-64-512"):
            assert name in out


class TestVerifyAndCost:
    def test_verify_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "-m", "f1")
        assert code == 0
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    def test_cost_breakdown(self, capsys):
        code, out = run_cli(capsys, "cost", "-m", "f100")
        assert code == 0
        assert "Chip" in out and "cross-check" in out


class TestAssemblerPipeline:
    SOURCE = """
    input a 6 4
    input b 4 5
    tensor c 6 5
    MatMul c, a, b
    output c
    """

    def test_assemble_disasm_run(self, capsys, tmp_path):
        src = tmp_path / "prog.fisa"
        src.write_text(self.SOURCE)
        binary = tmp_path / "prog.bin"

        code, out = run_cli(capsys, "assemble", str(src), "-o", str(binary))
        assert code == 0 and binary.exists()
        assert "1 instructions" in out

        code, out = run_cli(capsys, "disasm", str(binary))
        assert code == 0
        assert "MatMul" in out

        code, out = run_cli(capsys, "run", str(src))
        assert code == 0
        assert "ran 1 instructions" in out
        assert "shape (6, 5)" in out

    def test_trace_command(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        code, text = run_cli(capsys, "trace", "-m", "f1", "-b", "K-NN",
                             "-o", str(out), "--depth", "1")
        assert code == 0 and out.exists()
        import json
        assert json.loads(out.read_text())["traceEvents"]

    def test_figures_command(self, capsys, tmp_path, monkeypatch):
        # patch render_all to avoid the heavy full-figure sweep
        import repro.viz as viz
        monkeypatch.setattr(viz, "render_all",
                            lambda out: {"fig": f"{out}/fig.svg"})
        code, out = run_cli(capsys, "figures", "-o", str(tmp_path))
        assert code == 0
        assert "wrote" in out


class TestCompileCommand:
    def test_compile_prints_plan_stats(self, capsys):
        code, out = run_cli(capsys, "compile", "mm_fc")
        assert code == 0
        assert "steps" in out and "compile time" in out
        assert "program signature" in out

    def test_compile_verify(self, capsys):
        code, out = run_cli(capsys, "compile", "mm_fc", "--verify")
        assert code == 0
        assert "bit-identical" in out

    def test_compile_plan_cache_persists(self, capsys, tmp_path):
        cache = tmp_path / "plans"
        code, out = run_cli(capsys, "compile", "mm_fc",
                            "--plan-cache", str(cache))
        assert code == 0
        assert list(cache.glob("plan-v*.json"))

    def test_compile_unknown_benchmark(self, capsys):
        assert main(["compile", "nope"]) == 2

    def test_run_repeat_replays_plan(self, capsys, tmp_path):
        src = tmp_path / "prog.fisa"
        src.write_text(TestAssemblerPipeline.SOURCE)
        code, out = run_cli(capsys, "run", str(src), "--repeat", "3")
        assert code == 0
        assert "replayed plan" in out
        assert "shape (6, 5)" in out


class TestObservabilityCLI:
    """serve-metrics, events tail, and the --serve/--events/--crash-dir
    flags (docs/OBSERVABILITY.md)."""

    def test_profile_unwritable_out_exits_2(self, capsys, tmp_path):
        code, out = run_cli(capsys, "profile", "mm_fc",
                            "-o", str(tmp_path / "no-such-dir" / "rr.json"))
        assert code == 2
        err = capsys.readouterr().err  # message went to stderr pre-run
        # run_cli drained stdout; the check happens before any run output
        assert out == ""

    def test_profile_unwritable_trace_exits_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "profile", "mm_fc",
                          "-o", str(tmp_path / "rr.json"),
                          "--trace", str(tmp_path / "nope" / "t.json"))
        assert code == 2
        assert not (tmp_path / "rr.json").exists()  # checked before running

    def test_profile_directory_target_exits_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "profile", "mm_fc", "-o", str(tmp_path))
        assert code == 2

    def test_profile_events_stream_and_tail(self, capsys, tmp_path):
        import json
        events = tmp_path / "events.jsonl"
        code, _ = run_cli(capsys, "profile", "mm_fc",
                          "-o", str(tmp_path / "rr.json"),
                          "--events", str(events))
        assert code == 0 and events.exists()
        doc = json.loads((tmp_path / "rr.json").read_text())
        assert doc["schema_version"] == 3
        assert doc["events"]["total"] > 0
        assert doc["health"]["healthy"] is True

        code, out = run_cli(capsys, "events", "tail", str(events),
                            "-s", "executor", "--severity", "info")
        assert code == 0
        assert "program.start" in out and "program.end" in out

    def test_events_tail_missing_target_exits_2(self, capsys, tmp_path):
        code, out = run_cli(capsys, "events", "tail",
                            str(tmp_path / "missing.jsonl"))
        assert code == 2

    def test_events_tail_json_mode_roundtrips(self, capsys, tmp_path):
        import json
        events = tmp_path / "e.jsonl"
        events.write_text(json.dumps(
            {"schema": "repro.obs.event", "v": 1, "seq": 1, "ts": 0.0,
             "subsystem": "sim", "event": "simulate.end",
             "severity": "info"}) + "\ngarbage-line\n")
        code, out = run_cli(capsys, "events", "tail", str(events), "--json")
        assert code == 0
        (line,) = out.strip().splitlines()
        assert json.loads(line)["event"] == "simulate.end"

    def test_serve_metrics_runs_and_scrapes(self, capsys, tmp_path):
        import urllib.request

        from repro import obs

        scraped = {}
        real_start = obs.MetricsServer.start

        def start_and_scrape(self):
            real_start(self)
            scraped["url"] = self.url
            return self

        # scrape while the server is live: patch stop to fetch first
        real_stop = obs.MetricsServer.stop

        def scrape_then_stop(self):
            if self._httpd is not None and "url" in scraped:
                with urllib.request.urlopen(
                        scraped["url"] + "/metrics", timeout=5) as resp:
                    scraped["metrics"] = resp.read().decode()
                with urllib.request.urlopen(
                        scraped["url"] + "/healthz", timeout=5) as resp:
                    scraped["health"] = resp.status
            real_stop(self)

        obs.MetricsServer.start = start_and_scrape
        obs.MetricsServer.stop = scrape_then_stop
        try:
            code, out = run_cli(capsys, "serve-metrics", "mm_fc",
                                "--port", "0", "--iterations", "2")
        finally:
            obs.MetricsServer.start = real_start
            obs.MetricsServer.stop = real_stop
        assert code == 0
        assert "served 2 iteration(s)" in out
        assert scraped["health"] == 200
        assert obs.check_openmetrics(scraped["metrics"]) == []
        assert "repro_executor_kernel_calls" in scraped["metrics"]
        assert "repro_sim_" in scraped["metrics"]

    def test_serve_metrics_unknown_benchmark_exits_2(self, capsys):
        code, _ = run_cli(capsys, "serve-metrics", "definitely-not-a-bench",
                          "--port", "0")
        assert code == 2

    def test_simulate_with_crash_dir_stays_clean_on_success(self, capsys,
                                                            tmp_path):
        crash = tmp_path / "bundles"
        code, out = run_cli(capsys, "simulate", "-b", "K-NN",
                            "--crash-dir", str(crash))
        assert code == 0
        assert not crash.exists() or list(crash.iterdir()) == []

    def test_events_tail_follow_picks_up_appends(self, capsys, tmp_path,
                                                 monkeypatch):
        import json
        events = tmp_path / "e.jsonl"

        def rec(seq, name):
            return json.dumps({"schema": "repro.obs.event", "v": 1,
                               "seq": seq, "ts": float(seq),
                               "subsystem": "sim", "event": name,
                               "severity": "info"}) + "\n"

        events.write_text(rec(1, "first"))

        from repro import obs
        real_follow = obs.follow_events

        def append_second(_s):
            # fires on the first idle poll, like a live writer flushing
            with open(events, "a", encoding="utf-8") as fh:
                fh.write(rec(2, "second"))

        def follow_with_append(target, **kwargs):
            kwargs["_sleep"] = append_second
            return real_follow(target, **kwargs)

        monkeypatch.setattr(obs, "follow_events", follow_with_append)
        code, out = run_cli(capsys, "events", "tail", str(events),
                            "--follow", "--poll", "0.01", "--follow-max", "1")
        assert code == 0
        assert "first" in out and "second" in out

    def test_events_tail_follow_waits_for_missing_file(self, capsys,
                                                       tmp_path, monkeypatch):
        import json
        events = tmp_path / "late.jsonl"

        from repro import obs
        real_follow = obs.follow_events

        def follow_with_create(target, **kwargs):
            events.write_text(json.dumps(
                {"schema": "repro.obs.event", "v": 1, "seq": 1, "ts": 0.0,
                 "subsystem": "sim", "event": "born",
                 "severity": "info"}) + "\n")
            kwargs["_sleep"] = lambda _s: None
            kwargs["start_at_end"] = False
            return real_follow(target, **kwargs)

        monkeypatch.setattr(obs, "follow_events", follow_with_create)
        code, out = run_cli(capsys, "events", "tail", str(events),
                            "--follow", "--follow-max", "1")
        assert code == 0
        assert "born" in out

    def test_top_renders_one_frame_against_live_server(self, capsys):
        from repro import obs, telemetry
        telemetry.enable()
        try:
            reg = telemetry.get_registry()
            reg.count("sim.busy_seconds", 1.0, {"level": "0",
                                                "stage": "compute"})
            with obs.MetricsServer(registry=reg, port=0) as server:
                code, out = run_cli(capsys, "top",
                                    f"127.0.0.1:{server.port}",
                                    "--iterations", "1", "--no-clear")
        finally:
            telemetry.disable()
            telemetry.reset()
        assert code == 0
        assert "repro top" in out
        assert "level" in out and "utilization" in out

    def test_top_unreachable_endpoint_exits_2(self, capsys):
        code, out = run_cli(capsys, "top", "127.0.0.1:9",  # discard port
                            "--iterations", "1", "--no-clear")
        assert code == 2


class TestLintJson:
    """`repro lint --json` emits a schema-versioned repro.diag document
    that round-trips through results_from_document (docs/ANALYSIS.md)."""

    def test_clean_program_document(self, capsys):
        import json

        from repro.analysis import (
            DIAG_SCHEMA,
            DIAG_SCHEMA_VERSION,
            results_from_document,
        )
        code, out = run_cli(capsys, "lint", "examples/programs/knn.fisa",
                            "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == DIAG_SCHEMA
        assert doc["version"] == DIAG_SCHEMA_VERSION
        assert doc["tool"] == "lint"
        results = results_from_document(doc)
        assert len(results) == 1
        assert results[0].diagnostics == []

    def test_negative_fixture_round_trips_diagnostics(self, capsys):
        import json

        from repro.analysis import results_from_document
        code, out = run_cli(capsys, "lint",
                            "tests/fixtures/overlap_hazard.fisa", "--json")
        assert code == 1
        doc = json.loads(out)
        (result,) = results_from_document(doc)
        assert result.diagnostics
        # Round-trip is lossless: re-serializing gives the same document.
        redoc = json.loads(json.dumps(doc))
        (again,) = results_from_document(redoc)
        assert [d.to_doc() for d in again.diagnostics] == \
            [d.to_doc() for d in result.diagnostics]


class TestPlanLint:
    """`repro plan-lint` exit-code contract: 0 clean, 1 findings, 2 corrupt
    (docs/ANALYSIS.md)."""

    def _write_plan_doc(self, tmp_path, mutate=None):
        import json

        from repro import cambricon_f1
        from repro.plan import compile_program
        from repro.workloads.suite import PROFILE_BENCHMARKS

        w = PROFILE_BENCHMARKS["mm_fc"]()
        plan = compile_program(cambricon_f1(), w.program)
        doc = plan.to_doc()
        if mutate is not None:
            mutate(doc)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        return path

    def test_clean_benchmark_exits_0(self, capsys):
        code, out = run_cli(capsys, "plan-lint", "mm_fc")
        assert code == 0
        assert "fusion group" in out
        assert "peak live bytes" in out

    def test_unknown_target_exits_2(self, capsys):
        code, _ = run_cli(capsys, "plan-lint", "definitely-not-a-bench")
        assert code == 2

    def test_clean_plan_file_exits_0(self, capsys, tmp_path):
        path = self._write_plan_doc(tmp_path)
        code, _ = run_cli(capsys, "plan-lint", str(path))
        assert code == 0

    def test_plan_file_is_analyzed_once(self, capsys, tmp_path,
                                        monkeypatch):
        import repro.plan
        from repro.plan import analysis as plan_analysis

        path = self._write_plan_doc(tmp_path)
        calls = []
        analyze = plan_analysis.analyze_plan

        def counted(plan, *args, **kwargs):
            calls.append(plan.n_steps)
            return analyze(plan, *args, **kwargs)

        # The CLI imports the package export; verify_plan looks the
        # function up in its own module.
        monkeypatch.setattr(repro.plan, "analyze_plan", counted)
        monkeypatch.setattr(plan_analysis, "analyze_plan", counted)
        code, out = run_cli(capsys, "plan-lint", str(path))
        assert code == 0
        assert "fusion group" in out
        assert len(calls) == 1

    def test_garbage_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "plan-lint", str(path))
        assert code == 2

    def test_tampered_safe_flag_exits_2(self, capsys, tmp_path):
        def flip(doc):
            doc["steps"][0]["safe"] = not doc["steps"][0]["safe"]
        path = self._write_plan_doc(tmp_path, mutate=flip)
        code, _ = run_cli(capsys, "plan-lint", str(path))
        assert code == 2

    def test_injected_race_exits_1_with_stable_code(self, capsys, tmp_path):
        import json

        from repro import Instruction, Opcode, Tensor
        from repro.core.tensor import Region
        from repro.plan import FractalPlan, PlanStats, PlanStep, annotate_plan

        x = Tensor("x", (8, 8))
        y = Tensor("y", (8, 8))
        steps = [
            PlanStep.from_instruction("kernel", Instruction(
                Opcode.ACT1D,
                (Region(x, ((0, 4), (0, 8))),),
                (Region(y, ((0, 4), (0, 8))),), {}), 1),
            PlanStep.from_instruction("kernel", Instruction(
                Opcode.ACT1D,
                (Region(x, ((4, 8), (0, 8))),),
                (Region(y, ((0, 4), (0, 8))),), {}), 1),
        ]
        # A plan document must declare its steps in its stats.
        plan = FractalPlan(machine_fingerprint=("test",),
                           signature_digest="f" * 64, steps=steps,
                           stats=PlanStats(kernel_calls=len(steps)),
                           externals=[x, y])
        annotate_plan(plan)  # digest matches the raced plan -> not "corrupt"
        path = tmp_path / "raced.json"
        path.write_text(json.dumps(plan.to_doc()))
        code, out = run_cli(capsys, "plan-lint", str(path))
        assert code == 1
        assert "P100" in out

    def test_json_document_shape(self, capsys):
        import json

        from repro.analysis import DIAG_SCHEMA, results_from_document
        code, out = run_cli(capsys, "plan-lint", "mm_fc", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == DIAG_SCHEMA
        assert doc["tool"] == "plan-lint"
        (result,) = results_from_document(doc)
        assert result.diagnostics == []
        plan_info = doc["plan"]
        assert plan_info["steps"] > 0
        assert plan_info["fusion_groups"] > 0
        assert plan_info["safe_zero_copy_steps"] == plan_info["steps"]
        assert plan_info["peak_live_bytes"] > 0
