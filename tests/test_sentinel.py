"""Perf-trend sentinel tests: ledger series, detector math, SLO alerts.

The PR 9 acceptance scenarios live here: ``repro sentinel`` exits 3 on a
synthetically injected >= 3-sigma makespan regression over a 10-run
seeded history and 0 without the injection; ``/alerts`` serves an active
alert (visible in ``repro top`` and as an ``alert`` event) while a
rule's bound is violated, and clears after recovery.  All series are
seeded/deterministic -- no wall-clock dependence in any verdict.
"""

import json

import numpy as np
import pytest

from repro import obs, telemetry
from repro.cli import main
from repro.obs import (
    MetricsServer,
    RunLedger,
    SentinelConfig,
    SLOEngine,
    Watchdog,
    analyze_history,
    detect_series,
    metric_polarity,
    parse_since,
    parse_slo_rule,
    sentinel_document,
)
from repro.obs.ledger import report_metrics
from repro.obs.sentinel import POLARITY_TABLE
from repro.telemetry.counters import CounterRegistry

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def clean_global_obs():
    log = obs.get_event_log()
    log.disable()
    log.reset()
    log.close_sink()
    obs.install_watchdog(None)
    telemetry.disable()
    telemetry.reset()
    yield
    log = obs.get_event_log()
    log.disable()
    log.reset()
    log.close_sink()
    obs.install_watchdog(None)
    telemetry.disable()
    telemetry.reset()


def seeded_history(tmp_path, values, metric="makespan_s",
                   benchmark="mm_fc", machine="Cambricon-F1"):
    """A RunLedger whose rows carry one deterministic series (appended to
    whatever the directory already holds)."""
    ledger = RunLedger(tmp_path)
    for i, v in enumerate(values):
        ledger.record("test", benchmark=benchmark, machine=machine,
                      ts=1000.0 + i, metrics={benchmark: {metric: v}})
    return ledger


def values_of(ledger, key=("mm_fc", "Cambricon-F1", "makespan_s")):
    return [v for _ts, v in ledger.series().get(key, [])]


def noisy_series(n=10, base=0.01, jitter=0.0005, seed=7):
    rng = np.random.default_rng(seed)
    return list(base + rng.uniform(-jitter, jitter, size=n))


# ---------------------------------------------------------------------------
# Run-ledger series
# ---------------------------------------------------------------------------


class TestRunHistory:
    def test_append_stamps_schema_and_groups_series(self, tmp_path):
        ledger = seeded_history(tmp_path, [1.0, 2.0])
        assert all(r["schema"] == obs.LEDGER_SCHEMA for r in ledger.rows())
        assert values_of(ledger) == [1.0, 2.0]
        assert [ts for ts, _v in ledger.series()[
            ("mm_fc", "Cambricon-F1", "makespan_s")]] == [1000.0, 1001.0]

    def test_non_finite_and_non_numeric_points_skipped(self, tmp_path):
        ledger = seeded_history(
            tmp_path, [1.0, float("nan"), float("inf"), "no", True, None])
        assert values_of(ledger) == [1.0]
        # a record_run row whose headline fields are not finite numbers
        # carries no metrics at all
        row = obs.record_run("simulate", directory=tmp_path,
                             benchmark="mm_fc", makespan_s=float("nan"),
                             compile_s=False)
        assert "metrics" not in row

    def test_torn_final_line_skipped(self, tmp_path):
        ledger = seeded_history(tmp_path, [1.0])
        with open(ledger.runs_path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.obs.ledger", "v": 1, "metr')
        assert values_of(ledger) == [1.0]

    def test_torn_line_does_not_swallow_the_next_point(self, tmp_path):
        """Rows appended after a torn last line end that line first, so
        only the fragment is lost."""
        ledger = seeded_history(tmp_path, [1.0])
        with open(ledger.runs_path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.obs.ledger", "v": 1, "metr')
        seeded_history(tmp_path, [2.0, 3.0])
        assert values_of(ledger) == [1.0, 2.0, 3.0]

    def test_record_run_hook_distills_numeric_fields(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path))
        row = obs.record_run("profile", benchmark="mm_fc", machine="tiny",
                             makespan_s=0.5, classification="compute")
        assert row["metrics"] == {"mm_fc": {"makespan_s": 0.5}}
        series = RunLedger(tmp_path).series()
        assert [v for _, v in series[("mm_fc", "tiny", "makespan_s")]] == [0.5]
        # non-numeric fields don't become series
        assert not any(k[2] == "classification" for k in series)

    def test_record_report_distills_once_not_twice(self, tmp_path,
                                                   monkeypatch):
        """A report row's top-level makespan_s and its metrics' makespan
        both come from the simulator section; the series reads only
        ``metrics`` -- one makespan point per run, not two."""
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path))
        telemetry.enable()
        report = telemetry.build_run_report(
            benchmark="mm_fc", machine="tiny",
            registry=telemetry.get_registry(),
            notes={"benchmarks": {"VGG-16": {"total_time_s": 1.5,
                                             "attained_ops": 2e12,
                                             "peak_fraction": 0.8}}})
        doc = {**report.to_dict(), "simulator": {"total_time_s": 0.25}}
        row = obs.record_report(doc, kind="bench-suite")
        assert row["makespan_s"] == 0.25
        series = RunLedger(tmp_path).series()
        assert [v for _, v in series[("mm_fc", "tiny", "makespan_s")]] \
            == [0.25]
        sub = series[("VGG-16", "tiny", "makespan_s")]
        assert [v for _, v in sub] == [1.5]
        assert [v for _, v in series[("VGG-16", "tiny", "peak_fraction")]] \
            == [0.8]

    #: every series one fixed sequence of writes leaves behind.
    PINNED_SERIES = {
        ("K-NN", "Cambricon-F1", "makespan_s"): [0.004, 0.0044, 0.005],
        ("K-NN", "Cambricon-F1", "attained_ops"): [1.1e13],
        ("K-NN", "Cambricon-F1", "peak_fraction"): [0.78],
        ("VGG-16", "Cambricon-F1", "makespan_s"): [0.079],
        ("VGG-16", "Cambricon-F1", "attained_ops"): [1.25e13],
        ("VGG-16", "Cambricon-F1", "peak_fraction"): [0.84],
        ("mm_fc", "Cambricon-F1", "compile_s"): [0.003],
        ("mm_fc", "Cambricon-F1", "peak_live_bytes"): [4096.0],
        ("mm_fc", "Cambricon-F1", "replay_speedup"): [5.9],
        ("mm_fc", "Cambricon-F1", "warm_replay_s"): [0.07],
        ("-", "Cambricon-F1", "makespan_s"): [0.25],
        ("paper-suite", "Cambricon-F1", "makespan_s"): [4.9],
        ("paper-suite", "Cambricon-F1", "attained_ops"): [1.2e13],
        ("paper-suite", "Cambricon-F1", "attr_compute_s"): [4.5],
        ("paper-suite", "Cambricon-F1", "attr_dma_s"): [0.4],
        ("paper-suite", "Cambricon-F1", "peak_live_bytes"): [8192.0],
        ("paper-suite", "Cambricon-F1", "sig_cache_hit_rate"): [0.75],
        ("paper-suite", "Cambricon-F1", "zero_copy_rate"): [0.8],
    }

    def test_series_pinned_across_every_writer(self, tmp_path, monkeypatch):
        """One fixed sequence of writes -- CLI rows, a sweep cell without
        a benchmark, a sentinel row, a suite report and a profile --
        yields exactly these series, each value once and in write order."""
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path))
        f1 = "Cambricon-F1"
        obs.record_run("simulate", benchmark="K-NN", machine=f1,
                       makespan_s=0.004)
        obs.record_run("simulate", benchmark="K-NN", machine=f1,
                       makespan_s=float("nan"))
        obs.record_run("compile", benchmark="mm_fc", machine=f1,
                       compile_s=0.003, peak_live_bytes=4096, steps=96)
        obs.record_run("sweep-cell", machine=f1, variant="base",
                       makespan_s=0.25)
        obs.record_report({
            "benchmark": "paper-suite", "machine": f1,
            "simulator": {"total_time_s": 4.9, "attained_ops": 1.2e13},
            "attribution": {"totals_s": {"compute": 4.5, "dma": 0.4}},
            "counters": {
                "sim.sig_cache.hits{machine=F1}": 30,
                "sim.sig_cache.misses{machine=F1}": 10,
                "store.zero_copy_reads": 6,
                "store.static_zero_copy": 2,
                "store.copied_reads": 2,
                "plan.peak_live_bytes": 8192,
            },
            "notes": {
                "plan_microbench": {"benchmark": "mm_fc", "speedup": 5.9,
                                    "warm_replay_s": 0.07},
                "benchmarks": {
                    "K-NN": {"total_time_s": 0.0044, "attained_ops": 1.1e13,
                             "peak_fraction": 0.78},
                    "VGG-16": {"total_time_s": 0.079,
                               "attained_ops": 1.25e13,
                               "peak_fraction": 0.84},
                },
            },
        }, kind="bench-suite")
        obs.record_run("simulate", benchmark="K-NN", machine=f1,
                       makespan_s=True)
        obs.record_run("simulate", benchmark="K-NN", machine=f1,
                       makespan_s=0.005)
        obs.record_run("sentinel", series=18, regressions=0, exit_code=0)
        obs.record_profile({"schema": "repro.obs.profile", "v": 1,
                            "hz": 200.0, "duration_s": 1.0, "samples": 8,
                            "stacks": [], "benchmark": "mm_fc",
                            "machine": f1},
                           path="p.json", command="flame", runs=3)
        series = RunLedger(tmp_path).series()
        assert {key: [v for _ts, v in points]
                for key, points in series.items()} == self.PINNED_SERIES

    def test_points_from_report_extracts_rates(self):
        doc = {
            "benchmark": "mm_fc", "machine": "tiny",
            "simulator": {"total_time_s": 0.25, "attained_ops": 1e12},
            "attribution": {"totals_s": {"compute": 0.2, "dma": 0.05}},
            "counters": {
                "sim.sig_cache.hits{machine=tiny}": 30,
                "sim.sig_cache.misses{machine=tiny}": 10,
                "store.zero_copy_reads": 8,
                "store.copied_reads": 2,
                "plan.peak_live_bytes": 4096,
            },
            "notes": {},
        }
        [points] = report_metrics(doc).values()
        assert points["makespan_s"] == 0.25
        assert points["sig_cache_hit_rate"] == pytest.approx(0.75)
        assert points["zero_copy_rate"] == pytest.approx(0.8)
        assert points["peak_live_bytes"] == 4096
        assert points["attr_compute_s"] == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Detector math (seeded, deterministic)
# ---------------------------------------------------------------------------


class TestDetectorMath:
    CONFIG = SentinelConfig(window=10, threshold=3.0, min_points=5)

    def test_step_change_flags_at_documented_threshold(self):
        """A 30% step on a low-noise series blows far past z=3."""
        values = noisy_series(10, jitter=0.0001) + [0.013]
        verdict = detect_series(values, self.CONFIG)
        assert verdict["status"] == "high"
        assert abs(verdict["step_z"]) > self.CONFIG.threshold

    def test_gradual_drift_flags_via_drift_detector(self):
        """A steady ramp never trips the step z (the MAD inflates with
        the drift) but accumulates in the half-vs-half drift score."""
        values = [0.01 * (1 + 0.03 * i) for i in range(12)]
        verdict = detect_series(values, self.CONFIG)
        assert verdict["status"] == "high"
        assert abs(verdict["drift_z"]) > self.CONFIG.threshold

    def test_noisy_but_stationary_does_not_flag(self):
        values = noisy_series(24, jitter=0.001, seed=11)
        verdict = detect_series(values, self.CONFIG)
        assert verdict["status"] == "ok"
        assert abs(verdict["step_z"]) <= self.CONFIG.threshold
        assert abs(verdict["drift_z"]) <= self.CONFIG.threshold

    def test_deterministic_flat_series_tolerates_float_jitter(self):
        """MAD=0 on a perfectly flat series must not turn 1e-9 jitter
        into a regression -- the sigma floor absorbs it."""
        values = [0.01] * 10 + [0.01 + 1e-9]
        assert detect_series(values, self.CONFIG)["status"] == "ok"

    def test_short_history_suppressed_as_warmup(self):
        values = [0.01, 0.01, 0.01, 100.0]  # wild value, but n too small
        verdict = detect_series(values, self.CONFIG)
        assert verdict["status"] == "warmup"

    def test_improvement_direction_is_low(self):
        values = [0.01] * 10 + [0.005]
        assert detect_series(values, self.CONFIG)["status"] == "low"

    def test_polarity_table_round_trip(self):
        """Every table entry maps a representative metric to its own
        polarity, and the documented headline metrics agree."""
        from fnmatch import fnmatchcase
        for pattern, polarity in POLARITY_TABLE:
            sample = pattern.replace("*", "sample")
            assert fnmatchcase(sample, pattern)
            assert metric_polarity(sample) == polarity
        assert metric_polarity("makespan_s") == "up_bad"
        assert metric_polarity("peak_live_bytes") == "up_bad"
        assert metric_polarity("sig_cache_hit_rate") == "down_bad"
        assert metric_polarity("zero_copy_rate") == "down_bad"
        assert metric_polarity("replay_speedup") == "down_bad"
        assert metric_polarity("some_unknown_metric") == "neutral"

    def test_polarity_maps_direction_to_verdict(self, tmp_path):
        # makespan up = regression; hit-rate up = improvement
        up = noisy_series(10) + [0.02]
        seeded_history(tmp_path, up, metric="makespan_s")
        hist = seeded_history(tmp_path, [0.5] * 10 + [0.9],
                              metric="sig_cache_hit_rate")
        statuses = {e.metric: e.status
                    for e in analyze_history(hist).entries}
        assert statuses["makespan_s"] == "regression"
        assert statuses["sig_cache_hit_rate"] == "improvement"

    def test_neutral_metrics_never_regress(self, tmp_path):
        hist = seeded_history(tmp_path, [1.0] * 10 + [50.0],
                              metric="some_unknown_metric")
        [entry] = analyze_history(hist).entries
        assert entry.status == "neutral"
        assert analyze_history(hist).exit_code == 0


# ---------------------------------------------------------------------------
# Sentinel over a run ledger + CLI
# ---------------------------------------------------------------------------


class TestSentinelAcceptance:
    def _seed(self, tmp_path, inject=False):
        values = noisy_series(10, base=0.01, jitter=0.00001, seed=3)
        if inject:
            values.append(0.013)  # +30%: >> 3 sigma on this series
        return seeded_history(tmp_path, values)

    def test_cli_exits_3_on_injected_regression(self, tmp_path, capsys,
                                                monkeypatch):
        """Acceptance: exit 3 with the injection, 0 without, same seed."""
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
        self._seed(tmp_path / "clean")
        assert main(["sentinel", "--ledger", str(tmp_path / "clean")]) == 0
        capsys.readouterr()
        self._seed(tmp_path / "bad", inject=True)
        code = main(["sentinel", "--ledger", str(tmp_path / "bad"),
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3
        assert doc["schema"] == obs.SENTINEL_SCHEMA
        assert doc["regressions"] == 1
        [entry] = [e for e in doc["entries"] if e["status"] == "regression"]
        assert entry["metric"] == "makespan_s"
        assert abs(entry["step_z"]) >= 3.0

    def test_cli_usage_errors_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
        assert main(["sentinel", "--ledger", str(tmp_path / "none")]) == 2
        assert main(["sentinel", "--window", "1"]) == 2
        assert main(["sentinel", "--threshold", "-1"]) == 2
        # below 1 the detector would take the median of an empty
        # baseline: rejected up front, even on a ledger with a series
        seeded_history(tmp_path / "one", [0.01])
        for bad in ("0", "-3"):
            assert main(["sentinel", "--ledger", str(tmp_path / "one"),
                         "--min-points", bad]) == 2
        assert "--min-points must be at least 1" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_LEDGER", "off")
        assert main(["sentinel"]) == 2
        capsys.readouterr()

    def test_cli_html_report_is_self_contained(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
        self._seed(tmp_path / "bad", inject=True)
        out = tmp_path / "trend.html"
        code = main(["sentinel", "--ledger", str(tmp_path / "bad"),
                     "--html", str(out)])
        capsys.readouterr()
        assert code == 3
        html = out.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html  # no-JS contract
        assert "<svg" in html and "regression" in html
        assert "makespan_s" in html

    def test_warmup_history_is_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
        seeded_history(tmp_path / "young", [0.01, 0.02, 5.0])
        assert main(["sentinel", "--ledger", str(tmp_path / "young")]) == 0
        assert "warmup" in capsys.readouterr().out

    def test_document_round_trips_config(self, tmp_path):
        hist = self._seed(tmp_path, inject=True)
        result = analyze_history(hist, SentinelConfig(window=8,
                                                      threshold=4.0))
        doc = sentinel_document(result)
        assert doc["config"] == {"window": 8, "threshold": 4.0,
                                 "min_points": 5}
        assert doc["exit_code"] == result.exit_code

    def test_registry_gauges_published_when_enabled(self, tmp_path):
        telemetry.enable()
        hist = self._seed(tmp_path, inject=True)
        analyze_history(hist)
        reg = telemetry.get_registry()
        assert reg.value("sentinel.series") == 1.0
        assert reg.value("sentinel.regressions") == 1.0


# ---------------------------------------------------------------------------
# SLO rules and live alerts
# ---------------------------------------------------------------------------


class TestSLORules:
    def test_parse_full_grammar(self):
        rule = parse_slo_rule(
            "sim.sig_cache.hits{machine=F1} >= 100 for 5s as warm-cache")
        assert rule.name == "warm-cache"
        assert rule.metric == "sim.sig_cache.hits"
        assert rule.op == ">="
        assert rule.bound == 100.0
        assert rule.labels == (("machine", "F1"),)
        assert rule.sustain_s == 5.0

    def test_parse_minimal_and_spec_round_trip(self):
        rule = parse_slo_rule("plan.peak_live_bytes < 2e9")
        assert rule.name == "plan.peak_live_bytes"
        assert rule.sustain_s == 0.0
        again = parse_slo_rule(rule.spec())
        assert again.metric == rule.metric and again.bound == rule.bound

    @pytest.mark.parametrize("bad", [
        "nonsense",
        "metric == 5",
        "metric < notanumber",
        "metric{k} < 5",
        "metric{k=v < 5",
        "metric < 5 for 3minutes",
        " < 5",
    ])
    def test_parse_errors_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            parse_slo_rule(bad)


class TestSLOEngine:
    def _engine(self, rule_text, sustain_clock=None):
        registry = CounterRegistry(enabled=True)
        log = obs.EventLog(enabled=True)
        engine = SLOEngine([parse_slo_rule(rule_text)], registry,
                           event_log=log,
                           clock=sustain_clock or (lambda: 0.0))
        return registry, log, engine

    def test_alert_fires_and_clears_with_events_and_gauge(self):
        """Acceptance: the alert is active (gauge + event) while the
        bound is violated and clears after recovery."""
        registry, log, engine = self._engine(
            "sim.sig_cache.hits > 100 as warm-cache")
        registry.set_gauge("sim.sig_cache.hits", 5.0)
        active = engine.evaluate(now=0.0)
        assert [a["rule"] for a in active] == ["warm-cache"]
        assert registry.value("alerts.active") == 1.0
        assert registry.value("alerts.firing", {"rule": "warm-cache"}) == 1.0
        registry.set_gauge("sim.sig_cache.hits", 500.0)
        assert engine.evaluate(now=1.0) == []
        assert registry.value("alerts.active") == 0.0
        slo_events = [(e["event"], e["severity"]) for e in log.events()
                      if e["subsystem"] == "slo"]
        assert slo_events == [("alert", "error"), ("alert.clear", "info")]

    def test_sustain_window_suppresses_blips(self):
        registry, _log, engine = self._engine(
            "executor.queue_depth < 10 for 5s as shallow-queue")
        registry.set_gauge("executor.queue_depth", 50.0)
        assert engine.evaluate(now=0.0) == []  # violating, not sustained
        assert engine.evaluate(now=3.0) == []
        registry.set_gauge("executor.queue_depth", 1.0)
        assert engine.evaluate(now=4.0) == []  # recovered before sustain
        registry.set_gauge("executor.queue_depth", 50.0)
        assert engine.evaluate(now=10.0) == []
        active = engine.evaluate(now=15.0)  # 5s sustained
        assert [a["rule"] for a in active] == ["shallow-queue"]

    def test_label_selector_scopes_series(self):
        registry, _log, engine = self._engine(
            "sim.busy_seconds{level=0} > 10 as busy-root")
        registry.counter("sim.busy_seconds",
                         labels={"level": 1, "stage": "dma"}).inc(1)
        assert engine.evaluate(now=0.0) == []  # other level doesn't match
        registry.counter("sim.busy_seconds",
                         labels={"level": 0, "stage": "pd"}).inc(1)
        active = engine.evaluate(now=1.0)
        assert "level=0" in active[0]["series"]

    def test_no_data_is_not_a_violation(self):
        _registry, log, engine = self._engine("missing.metric > 5")
        assert engine.evaluate(now=0.0) == []
        assert not [e for e in log.events() if e["subsystem"] == "slo"]

    def test_alerts_endpoint_and_top_strip(self):
        """Acceptance: /alerts serves the active alert; repro top shows
        the alerts strip from the same scrape."""
        from repro.obs.top import format_top, parse_exposition

        registry = CounterRegistry(enabled=True)
        log = obs.EventLog(enabled=True)
        engine = SLOEngine(
            [parse_slo_rule("sim.sig_cache.hits > 100 as warm-cache")],
            registry, event_log=log, clock=lambda: 0.0)
        registry.set_gauge("sim.sig_cache.hits", 5.0)
        server = MetricsServer(registry=registry, event_log=log,
                               watchdog=Watchdog(), slo=engine)
        # exercise the routing layer directly -- no socket needed
        status, ctype, body = server._route("/alerts")
        assert status == 200 and "json" in ctype
        doc = json.loads(body.decode("utf-8"))
        assert doc["schema"] == obs.ALERTS_SCHEMA
        assert [a["rule"] for a in doc["active"]] == ["warm-cache"]
        status, _, metrics = server._route("/metrics")
        text = metrics.decode("utf-8")
        assert "repro_alerts_active 1" in text
        samples = parse_exposition(text)
        frame = format_top(samples)
        assert "ALERTS (1 firing): warm-cache" in frame
        # index advertises the endpoint
        _, _, index = server._route("/")
        assert "/alerts" in index.decode("utf-8")
        # recovery clears the document and the strip
        registry.set_gauge("sim.sig_cache.hits", 500.0)
        _, _, body = server._route("/alerts")
        assert json.loads(body.decode("utf-8"))["active"] == []
        _, _, metrics = server._route("/metrics")
        frame = format_top(parse_exposition(metrics.decode("utf-8")))
        assert "ALERTS" not in frame

    def test_alerts_endpoint_without_engine_serves_empty_doc(self):
        server = MetricsServer(registry=CounterRegistry(enabled=True))
        status, _, body = server._route("/alerts")
        assert status == 200
        doc = json.loads(body.decode("utf-8"))
        assert doc["active"] == [] and doc["rules"] == []


# ---------------------------------------------------------------------------
# events tail --since
# ---------------------------------------------------------------------------


class TestSinceFilter:
    def test_parse_epoch_and_iso(self):
        assert parse_since("1722950000") == 1722950000.0
        assert parse_since("1722950000.5") == 1722950000.5
        from datetime import datetime
        want = datetime(2026, 8, 8, 12, 0).astimezone().timestamp()
        assert parse_since("2026-08-08T12:00:00") == want

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_since("not-a-time")

    def test_filter_composes_with_severity_and_last(self):
        events = [
            {"ts": 100.0, "severity": "info", "event": "a"},
            {"ts": 200.0, "severity": "error", "event": "b"},
            {"ts": 300.0, "severity": "error", "event": "c"},
            {"severity": "error", "event": "no-ts"},
        ]
        picked = obs.filter_events(events, min_severity="error",
                                   since=150.0, last=1)
        assert [e["event"] for e in picked] == ["c"]

    def test_cli_since_exit_codes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger"))
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"ts": 100.0, "subsystem": "sim", "event": "old", '
            '"severity": "info"}\n'
            '{"ts": 200.0, "subsystem": "sim", "event": "new", '
            '"severity": "info"}\n')
        assert main(["events", "tail", str(path), "--since", "150"]) == 0
        out = capsys.readouterr().out
        assert "new" in out and "old" not in out
        assert main(["events", "tail", str(path), "--since", "bogus"]) == 2
        capsys.readouterr()
