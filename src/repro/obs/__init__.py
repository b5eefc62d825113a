"""``repro.obs`` -- in-flight and post-mortem observability.

The telemetry layer (:mod:`repro.telemetry`) counts and times; this layer
makes a run **operable**: a schema-versioned structured event log with
propagated run context, a flight recorder that dumps crash bundles when a
run dies, a sampling profiler, and a longitudinal layer -- the run
ledger, whose rows carry their own metrics, and the perf-trend sentinel
that reads them -- that remembers runs and flags statistical regressions
across them.  See docs/OBSERVABILITY.md for the event schema and the
crash-bundle layout.

Like the registry and the tracer, the event log, flight recorder and
profiler are **disabled by default**, and the instrumented hot paths pay
a single flag check (the <5% overhead budget from docs/TELEMETRY.md
covers all three subsystems).  The run ledger is the exception: CLI
commands, sweeps and crash scopes append one row each to
``~/.cache/repro/ledger`` unless ``$REPRO_LEDGER`` points elsewhere or
turns it off (``REPRO_LEDGER=off``).

Quick start::

    from repro import obs, telemetry

    telemetry.enable()
    log = obs.get_event_log()
    log.enable()
    log.attach_jsonl("events.jsonl")
    with obs.event_context(benchmark="mm_fc"):
        with obs.crash_scope("crash_bundles", reason="run-mm_fc"):
            ...run the workload...
"""

from __future__ import annotations

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
    "filter_events",
    "follow_events",
    "format_event",
    "format_events",
    "load_events",
    "parse_since",
]

