"""Machine-readable run reports.

A :class:`RunReport` is one schema-versioned JSON document merging

* the counter registry snapshot (``counters``),
* span rollups from the tracer (``spans``),
* functional-executor statistics (``executor``),
* timing-simulator statistics incl. cache hit rates (``simulator``), and
* (v2) the bottleneck ``attribution`` section plus ``spans_dropped``, and
* (v3) the structured-event ``events`` summary (see
  docs/OBSERVABILITY.md)

for one (benchmark, machine) run.  It is the artifact perf work diffs
against: ``repro profile`` writes one per invocation, the benchmark
harness writes one per machine (the ``BENCH_*.json`` trajectory), and
``repro diff`` / ``tools/perf_gate.py`` compare two of them.

Schema policy (documented in docs/TELEMETRY.md): ``schema`` names the
document type and never changes; ``schema_version`` is a monotonically
increasing integer bumped whenever a field is removed or its meaning
changes.  *Adding* fields does not bump the version -- consumers must
ignore unknown keys.  **v2** formalized the ``attribution`` section
(critical-path stall taxonomy, see docs/TELEMETRY.md) as a recognized,
validated section; **v3** formalizes the structured-event ``events``
summary and a stall-watchdog ``health`` section (docs/OBSERVABILITY.md).
No writer emits ``health`` any more, but :func:`validate_document` still
checks it in documents that carry one, since ``repro diff`` reads
documents written elsewhere.  :func:`validate_document` accepts v1
through v3, and the perf diff machinery ignores v3-only sections against
older baselines.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Dict, List, Optional

SCHEMA = "repro.telemetry.run_report"
SCHEMA_VERSION = 3

#: schema versions validate_document accepts (v1/v2 remain diffable).
SUPPORTED_VERSIONS = (1, 2, 3)

#: top-level keys every RunReport document carries.
REQUIRED_KEYS = ("schema", "schema_version", "created", "benchmark",
                 "machine", "counters", "spans")


@dataclass
class RunReport:
    """One run's merged telemetry (see module docstring for schema policy)."""

    benchmark: str
    machine: str
    counters: Dict[str, object] = field(default_factory=dict)
    spans: Dict[str, Dict[str, object]] = field(default_factory=dict)
    executor: Optional[Dict[str, object]] = None
    simulator: Optional[Dict[str, object]] = None
    #: v2: bottleneck attribution (repro.perf.attribution section).
    attribution: Optional[Dict[str, object]] = None
    #: v2: spans evicted from the tracer ring buffer (0 = rollups complete).
    spans_dropped: int = 0
    #: v3: structured-event summary (repro.obs EventLog.summary()).
    events: Optional[Dict[str, object]] = None
    notes: Dict[str, object] = field(default_factory=dict)
    created: str = ""

    def __post_init__(self):
        if not self.created:
            self.created = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "created": self.created,
            "benchmark": self.benchmark,
            "machine": self.machine,
            "counters": self.counters,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
        if self.executor is not None:
            doc["executor"] = self.executor
        if self.simulator is not None:
            doc["simulator"] = self.simulator
        if self.attribution is not None:
            doc["attribution"] = self.attribution
        if self.events is not None:
            doc["events"] = self.events
        if self.notes:
            doc["notes"] = self.notes
        return doc

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())
            f.write("\n")


def validate_document(doc: Dict[str, object]) -> List[str]:
    """Light structural validation; returns a list of problems (empty = ok).

    Meant for tests and for consumers (``repro diff``, the perf gate)
    deciding whether a ``BENCH_*.json`` they picked up is diffable against
    what they produce.  Accepts every version in
    :data:`SUPPORTED_VERSIONS`; v1 documents simply lack the v2 sections.
    """
    problems: List[str] = []
    for key in REQUIRED_KEYS:
        if key not in doc:
            problems.append(f"missing key {key!r}")
    if doc.get("schema") not in (None, SCHEMA):
        problems.append(f"unknown schema {doc.get('schema')!r}")
    version = doc.get("schema_version")
    if version is not None and (not isinstance(version, int) or version < 1):
        problems.append(f"bad schema_version {version!r}")
    if version is not None and isinstance(version, int) and version > SCHEMA_VERSION:
        problems.append(f"document is from the future (v{version} > v{SCHEMA_VERSION})")
    for key in ("counters", "spans"):
        if key in doc and not isinstance(doc[key], dict):
            problems.append(f"{key!r} must be an object")
    if "spans_dropped" in doc and (
            not isinstance(doc["spans_dropped"], int)
            or isinstance(doc["spans_dropped"], bool)
            or doc["spans_dropped"] < 0):
        problems.append(f"bad spans_dropped {doc['spans_dropped']!r}")
    problems.extend(_validate_attribution(doc.get("attribution")))
    problems.extend(_validate_events(doc.get("events")))
    problems.extend(_validate_health(doc.get("health")))
    return problems


def _validate_events(section) -> List[str]:
    """Structural checks for the v3 ``events`` summary (if present)."""
    if section is None:
        return []
    if not isinstance(section, dict):
        return ["'events' must be an object"]
    problems: List[str] = []
    for key in ("total", "dropped", "suppressed", "retained"):
        value = section.get(key)
        if value is not None and (not isinstance(value, int)
                                  or isinstance(value, bool) or value < 0):
            problems.append(f"bad events.{key} {value!r}")
    for key in ("by_severity", "by_subsystem"):
        value = section.get(key)
        if value is not None and not isinstance(value, dict):
            problems.append(f"'events.{key}' must be an object")
    return problems


def _validate_health(section) -> List[str]:
    """Structural checks for a v3 ``health`` section, which documents
    written before the stall watchdog's removal may carry."""
    if section is None:
        return []
    if not isinstance(section, dict):
        return ["'health' must be an object"]
    problems: List[str] = []
    healthy = section.get("healthy")
    if healthy is not None and not isinstance(healthy, bool):
        problems.append(f"bad health.healthy {healthy!r}")
    for key in ("heartbeat_age_s", "stall_after_s", "uptime_s"):
        value = section.get(key)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, (int, float))
                                  or value < 0):
            problems.append(f"bad health.{key} {value!r}")
    return problems


def _validate_attribution(section) -> List[str]:
    """Structural checks for the v2 ``attribution`` section (if present)."""
    if section is None:
        return []
    if not isinstance(section, dict):
        return ["'attribution' must be an object"]
    problems: List[str] = []
    per_level = section.get("per_level_s")
    if per_level is not None and not isinstance(per_level, dict):
        problems.append("'attribution.per_level_s' must be an object")
        per_level = None
    makespan = section.get("makespan_s")
    if makespan is not None and not isinstance(makespan, (int, float)):
        problems.append(f"bad attribution.makespan_s {makespan!r}")
        makespan = None
    if per_level and isinstance(makespan, (int, float)) and makespan > 0:
        total = 0.0
        for cats in per_level.values():
            if isinstance(cats, dict):
                total += sum(v for v in cats.values()
                             if isinstance(v, (int, float)))
        if abs(total - makespan) > 1e-6 * makespan:
            problems.append(
                f"attribution fractions do not sum to the makespan "
                f"({total!r} != {makespan!r})")
    return problems


# ---------------------------------------------------------------------------
# Section builders (duck-typed: no imports from repro.core / repro.sim here,
# keeping the telemetry package dependency-free and import-light).
# ---------------------------------------------------------------------------


def executor_section(stats) -> Dict[str, object]:
    """Serialize a :class:`repro.core.executor.ExecutionStats`."""
    per_level = {str(k): v for k, v in
                 sorted(stats.instructions_per_level.items())}
    return {
        "instructions": sum(stats.instructions_per_level.values()),
        "instructions_per_level": per_level,
        "kernel_calls": stats.kernel_calls,
        "lfu_calls": stats.lfu_calls,
        "max_depth_reached": stats.max_depth_reached,
        "fanouts": stats.fanouts,
        "fanout_parts": stats.fanout_parts,
        "seq_steps": stats.seq_steps,
        "leaf_ops": dict(sorted(stats.leaf_ops.items())),
        "bytes_read": stats.bytes_read,
        "bytes_written": stats.bytes_written,
        "bytes_moved": stats.bytes_read + stats.bytes_written,
    }


def simulator_section(report) -> Dict[str, object]:
    """Serialize a :class:`repro.sim.simulator.SimReport`."""
    stats = asdict(report.stats) if is_dataclass(report.stats) else dict(report.stats)
    section: Dict[str, object] = {
        "machine": report.machine_name,
        "total_time_s": report.total_time,
        "work_ops": report.work,
        "attained_ops": report.attained_ops,
        "root_traffic_bytes": report.root_traffic,
        "operational_intensity": (
            report.operational_intensity
            if report.root_traffic else None),
        "per_level_busy_s": {
            str(level): dict(busy)
            for level, busy in sorted(report.per_level_busy.items())
        },
        "stats": stats,
    }
    per_level_idle = getattr(report, "per_level_idle", None)
    if per_level_idle:
        section["per_level_idle_s"] = {
            str(level): dict(causes)
            for level, causes in sorted(per_level_idle.items())
        }
    cache = getattr(report, "cache", None)
    if cache is not None:
        section["cache"] = cache.as_dict() if hasattr(cache, "as_dict") \
            else dict(cache)
    return section


def build_run_report(
    benchmark: str,
    machine: str,
    registry=None,
    tracer=None,
    exec_stats=None,
    sim_report=None,
    attribution: Optional[Dict[str, object]] = None,
    event_log=None,
    notes: Optional[Dict[str, object]] = None,
) -> RunReport:
    """Assemble a RunReport from whichever telemetry sources exist.

    When ``sim_report`` carries per-node attribution (every simulation
    since RunReport v2 does) and no explicit ``attribution`` section is
    given, the section is built automatically via
    :func:`repro.perf.attribution.attribution_section`.

    ``event_log`` (a duck-typed ``repro.obs.EventLog``) contributes the
    v3 ``events`` summary.
    """
    if attribution is None and sim_report is not None:
        # Lazy import: repro.perf is import-light but the telemetry package
        # must stay loadable on its own (and free of import cycles).
        try:
            from ..perf.attribution import attribution_section
        except ImportError:  # pragma: no cover - perf always ships with repro
            attribution_section = None
        if attribution_section is not None:
            attribution = attribution_section(sim_report)
    notes = dict(notes or {})
    if "trace_id" not in notes:
        # Stamp the active trace so the run ledger and `repro trace show`
        # can join this report to its spans/events/counters.
        try:
            from ..obs.trace import current_trace
        except ImportError:  # pragma: no cover - obs ships with repro
            current_trace = None
        if current_trace is not None:
            ctx = current_trace()
            if ctx is not None:
                notes["trace_id"] = ctx.trace_id
                notes["span_id"] = ctx.span_id
    if "profile" not in notes:
        # A live sampling profiler contributes its headline summary; the
        # full profile doc stays an artifact, not a report section.
        try:
            from ..obs.prof import active_profile_summary
        except ImportError:  # pragma: no cover - obs ships with repro
            active_profile_summary = None
        if active_profile_summary is not None:
            summary = active_profile_summary()
            if summary is not None:
                notes["profile"] = summary
    return RunReport(
        benchmark=benchmark,
        machine=machine,
        counters=registry.snapshot() if registry is not None else {},
        spans=tracer.rollups() if tracer is not None else {},
        executor=executor_section(exec_stats) if exec_stats is not None else None,
        simulator=simulator_section(sim_report) if sim_report is not None else None,
        attribution=attribution,
        spans_dropped=int(getattr(tracer, "dropped", 0)) if tracer is not None else 0,
        events=event_log.summary() if event_log is not None else None,
        notes=notes,
    )
