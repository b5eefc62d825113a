"""``repro.obs`` -- in-flight and post-mortem observability.

The telemetry layer (:mod:`repro.telemetry`) counts and times; this layer
makes a run **operable**: a schema-versioned structured event log with
propagated run context, a flight recorder that dumps crash bundles when a
run dies, a live ``/metrics`` + ``/healthz`` + ``/events`` + ``/alerts``
HTTP endpoint with a stall watchdog and SLO rule engine, and a
longitudinal layer -- the run ledger, whose rows carry their own
metrics, and the perf-trend sentinel that reads them -- that remembers
runs and flags statistical regressions across them.  See
docs/OBSERVABILITY.md for the event schema, the crash-bundle layout and
the watchdog semantics.

Like the registry and the tracer, the event log, flight recorder,
profiler and server are **disabled by default**, and the instrumented
hot paths pay a single flag check (the <5% overhead budget from
docs/TELEMETRY.md covers all three subsystems).  The run ledger is the
exception: CLI commands, sweeps and crash scopes append one row each to
``~/.cache/repro/ledger`` unless ``$REPRO_LEDGER`` points elsewhere or
turns it off (``REPRO_LEDGER=off``).

Quick start::

    from repro import obs, telemetry

    telemetry.enable()
    obs.get_event_log().enable()
    with obs.observed_run("mm_fc", machine="Cambricon-F1",
                          crash_dir="crash_bundles") as recorder:
        ...run the workload...
"""

from __future__ import annotations

from contextlib import contextmanager

from .events import (
    EVENT_SCHEMA,
    EVENT_SCHEMA_VERSION,
    SEVERITIES,
    SEVERITY_RANK,
    EventLog,
    SubsystemLogger,
    current_context,
    event_context,
    events_summary,
    get_event_log,
    iter_jsonl,
    log_event,
    logger,
)
from .flight import (
    BUNDLE_SCHEMA,
    BUNDLE_SCHEMA_VERSION,
    FlightRecorder,
    crash_scope,
    read_bundle_manifest,
)
from .ledger import (
    LEDGER_SCHEMA,
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    default_ledger_dir,
    get_ledger,
    ledger_enabled,
    record_report,
    record_run,
)
from .sentinel import (
    SENTINEL_SCHEMA,
    SENTINEL_SCHEMA_VERSION,
    POLARITY_TABLE,
    SentinelConfig,
    SentinelEntry,
    SentinelResult,
    analyze_history,
    detect_series,
    format_table,
    metric_polarity,
    render_trend_html,
    sentinel_document,
)
from .slo import (
    ALERTS_SCHEMA,
    ALERTS_SCHEMA_VERSION,
    SLOEngine,
    SLORule,
    empty_alerts_document,
    parse_slo_rule,
)
from .flame import (
    DEFAULT_DIFF_THRESHOLD,
    FLAME_DIFF_SCHEMA,
    FLAME_DIFF_SCHEMA_VERSION,
    FlameDiffEntry,
    FlameDiffResult,
    diff_profiles,
    format_top_table,
    render_flamegraph_html,
    top_table,
)
from .openmetrics import (
    METRIC_PREFIX,
    check_openmetrics,
    escape_label_value,
    metric_name,
    render_openmetrics,
)
from .server import (
    MetricsServer,
    Watchdog,
    beat,
    get_watchdog,
    install_watchdog,
)
from .prof import (
    PROFILE_SCHEMA,
    PROFILE_SCHEMA_VERSION,
    SamplingProfiler,
    active_profile_summary,
    clear_step,
    collapsed_lines,
    get_profiler,
    merge_profiles,
    profile_summary,
    profiling,
    record_profile,
    set_step,
    step_scope,
    validate_profile,
)
from .tail import (
    filter_events,
    follow_events,
    format_event,
    format_events,
    load_events,
    parse_since,
)
from .top import fetch_metrics, format_top, frame_doc, parse_exposition, run_top
from .trace import (
    TraceContext,
    current_trace,
    current_trace_id,
    ensure_trace,
    new_span_id,
    new_trace_id,
    trace_scope,
)
from .worker import (
    WorkerTelemetry,
    build_wire,
    merge_worker_telemetry,
    worker_capture,
)

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_SCHEMA_VERSION",
    "SEVERITIES",
    "SEVERITY_RANK",
    "EventLog",
    "SubsystemLogger",
    "current_context",
    "event_context",
    "events_summary",
    "get_event_log",
    "iter_jsonl",
    "log_event",
    "logger",
    "BUNDLE_SCHEMA",
    "BUNDLE_SCHEMA_VERSION",
    "FlightRecorder",
    "crash_scope",
    "read_bundle_manifest",
    "LEDGER_SCHEMA",
    "LEDGER_SCHEMA_VERSION",
    "RunLedger",
    "default_ledger_dir",
    "get_ledger",
    "ledger_enabled",
    "record_report",
    "record_run",
    "SENTINEL_SCHEMA",
    "SENTINEL_SCHEMA_VERSION",
    "POLARITY_TABLE",
    "SentinelConfig",
    "SentinelEntry",
    "SentinelResult",
    "analyze_history",
    "detect_series",
    "format_table",
    "metric_polarity",
    "render_trend_html",
    "sentinel_document",
    "ALERTS_SCHEMA",
    "ALERTS_SCHEMA_VERSION",
    "SLOEngine",
    "SLORule",
    "empty_alerts_document",
    "parse_slo_rule",
    "TraceContext",
    "current_trace",
    "current_trace_id",
    "ensure_trace",
    "new_span_id",
    "new_trace_id",
    "trace_scope",
    "WorkerTelemetry",
    "build_wire",
    "merge_worker_telemetry",
    "worker_capture",
    "PROFILE_SCHEMA",
    "PROFILE_SCHEMA_VERSION",
    "SamplingProfiler",
    "active_profile_summary",
    "clear_step",
    "collapsed_lines",
    "get_profiler",
    "merge_profiles",
    "profile_summary",
    "profiling",
    "record_profile",
    "set_step",
    "step_scope",
    "validate_profile",
    "DEFAULT_DIFF_THRESHOLD",
    "FLAME_DIFF_SCHEMA",
    "FLAME_DIFF_SCHEMA_VERSION",
    "FlameDiffEntry",
    "FlameDiffResult",
    "diff_profiles",
    "format_top_table",
    "render_flamegraph_html",
    "top_table",
    "frame_doc",
    "METRIC_PREFIX",
    "check_openmetrics",
    "escape_label_value",
    "metric_name",
    "render_openmetrics",
    "MetricsServer",
    "Watchdog",
    "beat",
    "get_watchdog",
    "install_watchdog",
    "filter_events",
    "follow_events",
    "format_event",
    "format_events",
    "load_events",
    "parse_since",
    "fetch_metrics",
    "format_top",
    "parse_exposition",
    "run_top",
    "observed_run",
]


@contextmanager
def observed_run(benchmark: str, machine: str = "unknown",
                 crash_dir: str = "crash_bundles", config=None):
    """One-stop scope for an operable run.

    Arms a :class:`FlightRecorder` (crash bundles under ``crash_dir``),
    stamps ``run``-level event context, and marks the registry before and
    after so the bundle's counter deltas bracket the run.  Telemetry and
    the event log keep their caller-chosen enabled states -- this scope
    only wires the pieces together.
    """
    recorder = FlightRecorder()
    recorder.report_context.update({"benchmark": benchmark, "machine": machine})
    with event_context(benchmark=benchmark, machine=machine):
        with crash_scope(crash_dir, reason=f"run-{benchmark}",
                         recorder=recorder, config=config):
            recorder.mark("run.start")
            yield recorder
            recorder.mark("run.end")
