"""Worker telemetry shipping: pool children report back to the parent.

``run_sweep(workers=N)`` fans sweep cells across a ``ProcessPoolExecutor``
-- and, before this module, every span, counter and event produced in a
child process died with it.  The fix is a compact, picklable
:class:`WorkerTelemetry` bundle that each cell returns alongside its
records:

* **counter/gauge deltas** rather than absolutes -- pool children are
  forked, so they inherit the parent registry's accumulated values and
  only the cell's own increments belong to the cell;
* **span rollups** (per-name count/total_s deltas) instead of raw spans,
  keeping the bundle a few KiB no matter how deep the fractal recursion;
* an **event-ring tail** (the newest records the cell emitted) for
  ``repro trace show``;
* the **plan-cache hits/misses** and **peak_live_bytes** headline
  numbers the sweep analyses care about.

In the child, :func:`worker_capture` snapshots the inherited telemetry,
re-enters the parent's trace as a ``worker=<n>`` child span (so every
event the cell emits carries the parent ``trace_id``), and computes the
deltas on exit.  In the parent, :func:`merge_worker_telemetry` folds a
bundle back into the live registries with ``worker=<n>`` labels, so
the merged series reach the parent's RunReport beside its own.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .trace import TraceContext, trace_scope

#: cap on the event-ring tail shipped per cell (keeps bundles small).
EVENT_TAIL_LIMIT = 100

#: flat picklable series: (dotted name, ((k, v), ...) labels, value).
SeriesDelta = Tuple[str, Tuple[Tuple[str, str], ...], float]


@dataclass
class WorkerTelemetry:
    """One pool child's telemetry, as plain picklable data."""

    worker: int
    trace_id: str
    span_id: str
    wall_s: float = 0.0
    counters: List[SeriesDelta] = field(default_factory=list)
    gauges: List[SeriesDelta] = field(default_factory=list)
    #: per-span-name rollup deltas: {name: {"cat", "count", "total_s", "max_s"}}
    spans: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: newest event records the cell emitted (<= EVENT_TAIL_LIMIT).
    events: List[Dict[str, object]] = field(default_factory=list)
    events_total: int = 0
    #: headline plan-cache traffic: {"hits_memory", "hits_disk", "misses"}.
    plan_cache: Dict[str, int] = field(default_factory=dict)
    peak_live_bytes: int = 0
    #: the cell's sampling profile (a ``repro.obs.profile`` doc), shipped
    #: only when the parent had a profiler live at submit time.
    profile: Optional[Dict[str, object]] = None


def build_wire(ctx: TraceContext, worker: int) -> Dict[str, object]:
    """The payload the parent ships to one pool child.

    Carries the parent trace plus the parent's enable flags, so a child
    arms exactly the subsystems the parent had live at submit time.
    """
    from ..telemetry import get_registry, get_tracer
    from .events import get_event_log
    from .prof import get_profiler
    profiler = get_profiler()
    return {
        "trace": ctx.to_wire(),
        "worker": int(worker),
        "counters": get_registry().enabled,
        "tracing": get_tracer().enabled,
        "events": get_event_log().enabled,
        # Parent profiling? Children sample themselves at the same rate and
        # ship the profile back for merge_worker_telemetry to ingest.
        "profile_hz": profiler.hz if profiler is not None else None,
    }


def _counter_state(registry) -> Dict[Tuple[str, Tuple], float]:
    return {(c.name, c.labels): c.value for c in registry._counters.values()}


def _gauge_state(registry) -> Dict[Tuple[str, Tuple], float]:
    return {(g.name, g.labels): g.value for g in registry._gauges.values()}


def _series_deltas(before: Dict, after: Dict,
                   gauges: bool = False) -> List[SeriesDelta]:
    out: List[SeriesDelta] = []
    for key, value in after.items():
        if gauges:
            # Gauges are last-write-wins: ship the final value whenever the
            # cell wrote it (changed or newly created).
            if key not in before or before[key] != value:
                out.append((key[0], key[1], value))
        else:
            delta = value - before.get(key, 0)
            if delta:
                out.append((key[0], key[1], delta))
    out.sort(key=lambda item: (item[0], item[1]))
    return out


def _rollup_deltas(before: Dict[str, Dict], after: Dict[str, Dict]) -> Dict:
    out: Dict[str, Dict[str, object]] = {}
    for name, agg in after.items():
        prev = before.get(name)
        count_d = int(agg["count"]) - (int(prev["count"]) if prev else 0)
        if count_d <= 0:
            continue
        total_d = float(agg["total_s"]) - (float(prev["total_s"]) if prev else 0.0)
        self_d = (float(agg.get("self_total_s", 0.0))
                  - (float(prev.get("self_total_s", 0.0)) if prev else 0.0))
        out[name] = {
            "cat": agg.get("cat", ""),
            "count": count_d,
            "total_s": total_d,
            "self_total_s": self_d,
            "max_s": float(agg.get("max_s", 0.0)),
        }
    return out


def _plan_cache_headline(counters: List[SeriesDelta]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for name, labels, value in counters:
        if name == "plan.compile_hits":
            tier = dict(labels).get("tier", "memory")
            out[f"hits_{tier}"] = out.get(f"hits_{tier}", 0) + int(value)
        elif name == "plan.compile_misses":
            out["misses"] = out.get("misses", 0) + int(value)
    return out


@contextmanager
def worker_capture(wire: Dict[str, object]):
    """Child-side scope: re-attach telemetry under the parent's trace.

    Arms the registry/tracer/event log per the parent's enable flags,
    installs the parent trace as a ``worker=<n>`` child context, and --
    after the body runs -- computes the deltas into the yielded holder's
    ``telemetry`` attribute (a :class:`WorkerTelemetry`).
    """
    from ..telemetry import get_registry, get_tracer
    from .events import get_event_log

    worker = int(wire.get("worker", 0))
    ctx = TraceContext.from_wire(wire.get("trace") or {}).child(worker=worker)

    registry = get_registry()
    tracer = get_tracer()
    log = get_event_log()
    if wire.get("counters"):
        registry.enable()
    if wire.get("tracing"):
        tracer.enable()
    if wire.get("events"):
        log.enable()

    counters0 = _counter_state(registry)
    gauges0 = _gauge_state(registry)
    rollups0 = tracer.rollups() if tracer.enabled else {}
    seq0 = log.total

    prof_child = None
    hz = wire.get("profile_hz")
    if hz:
        from .prof import SamplingProfiler, get_profiler
        if get_profiler() is None:  # a pool child never has one, but be safe
            prof_child = SamplingProfiler(hz=float(hz), tracer=tracer)
            prof_child.start()

    class _Holder:
        telemetry: Optional[WorkerTelemetry] = None

    holder = _Holder()
    t0 = time.perf_counter()
    try:
        with trace_scope(ctx):
            yield holder
    finally:
        if prof_child is not None and prof_child.running:
            prof_child.stop()
    wall = time.perf_counter() - t0

    profile_doc = None
    if prof_child is not None:
        profile_doc = prof_child.to_doc()
        # Stamp the cell's identity explicitly: to_doc reads the ambient
        # trace, but the worker scope has already exited by now.
        profile_doc["worker"] = worker
        profile_doc["trace_id"] = ctx.trace_id
        profile_doc["span_id"] = ctx.span_id

    counters = _series_deltas(counters0, _counter_state(registry))
    gauges = _series_deltas(gauges0, _gauge_state(registry), gauges=True)
    tail = [rec for rec in log.events() if int(rec.get("seq", 0)) > seq0]
    peak = registry.value("plan.peak_live_bytes")
    holder.telemetry = WorkerTelemetry(
        worker=worker,
        trace_id=ctx.trace_id,
        span_id=ctx.span_id,
        wall_s=wall,
        counters=counters,
        gauges=gauges,
        spans=_rollup_deltas(rollups0,
                             tracer.rollups() if tracer.enabled else {}),
        events=tail[-EVENT_TAIL_LIMIT:],
        events_total=log.total - seq0,
        plan_cache=_plan_cache_headline(counters),
        peak_live_bytes=int(peak) if isinstance(peak, (int, float)) else 0,
        profile=profile_doc,
    )


def ledger_fields(wt: WorkerTelemetry, max_series: int = 64,
                  max_events: int = 20) -> Dict[str, object]:
    """A bounded distillation of one bundle for its run-ledger row.

    Keeps the row a few KiB: the full span rollups (already aggregated),
    the first ``max_series`` counter series rendered as flat
    ``name{k=v}`` keys, and the newest ``max_events`` events -- enough
    for ``repro trace show`` to join spans+events+counters per worker
    without re-running anything.
    """
    from ..telemetry.counters import format_series
    fields: Dict[str, object] = {
        "worker": wt.worker,
        "makespan_s": wt.wall_s,
    }
    if wt.spans:
        fields["spans"] = wt.spans
    if wt.counters:
        fields["counters"] = {
            format_series(name, labels): value
            for name, labels, value in wt.counters[:max_series]
        }
        if len(wt.counters) > max_series:
            fields["counters_truncated"] = len(wt.counters) - max_series
    if wt.events:
        fields["events"] = wt.events[-max_events:]
    if wt.events_total:
        fields["events_total"] = wt.events_total
    if wt.plan_cache:
        fields["cache"] = wt.plan_cache
    if wt.peak_live_bytes:
        fields["peak_live_bytes"] = wt.peak_live_bytes
    if wt.profile:
        from .prof import profile_summary
        fields["profile"] = profile_summary(wt.profile)
    return fields


def merge_worker_telemetry(wt: WorkerTelemetry, registry=None,
                           event_log=None) -> None:
    """Parent-side merge: fold one bundle into the live registries.

    Every merged series gains a ``worker=<n>`` label, so the parent's own
    counters stay untouched and the registry holds per-worker series
    (``sim.busy_seconds{level="0",worker="1"}``) alongside them.  Shipped
    events are re-ingested into the parent's event log (stamped
    ``worker``), landing in the ring and the JSONL sink exactly like
    locally emitted ones.
    """
    if registry is None:
        from ..telemetry import get_registry
        registry = get_registry()
    if event_log is None:
        from .events import get_event_log
        event_log = get_event_log()

    tag = str(wt.worker)
    if registry.enabled:
        for name, labels, value in wt.counters:
            registry.count(name, value, {**dict(labels), "worker": tag})
        for name, labels, value in wt.gauges:
            registry.set_gauge(name, value, {**dict(labels), "worker": tag})
        for name, agg in wt.spans.items():
            registry.count("worker.spans", int(agg["count"]),
                           {"name": name, "worker": tag})
            registry.count("worker.span_seconds", float(agg["total_s"]),
                           {"name": name, "worker": tag})
        registry.count("worker.wall_seconds", wt.wall_s, {"worker": tag})
        if wt.events_total:
            registry.count("worker.events", wt.events_total, {"worker": tag})
        if wt.profile:
            registry.count("prof.samples", int(wt.profile.get("samples", 0)),
                           {"worker": tag})
    if event_log.enabled:
        for record in wt.events:
            event_log.ingest(record, worker=wt.worker)
    if wt.profile:
        from .prof import get_profiler
        parent_prof = get_profiler()
        if parent_prof is not None:
            parent_prof.ingest(wt.profile, worker=wt.worker)
