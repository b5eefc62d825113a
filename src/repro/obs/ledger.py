"""Persistent run ledger: an append-only history of every run.

Nothing in the stack remembered a run after its process exited -- crash
bundles capture failures and RunReports capture single runs on request,
but the ROADMAP's serving tier and surrogate-model sweeps both need a
*queryable history*: which programs ran on which machine fingerprints,
how long they took, where the time went, which cache tiers fired, and
which trace each row belongs to.

The ledger is a directory (``$REPRO_LEDGER``, else
``$XDG_CACHE_HOME/repro/ledger``, else ``~/.cache/repro/ledger``)
holding one file, ``runs.jsonl``: one schema-versioned JSON object per
row, append-only (open in ``"a"``, write one line, flush).  Rows are
never rewritten; corruption can only tear the final line, which readers
skip via :func:`repro.obs.events.iter_jsonl`.  Every reader
(:meth:`RunLedger.rows`, :meth:`RunLedger.traces`,
:meth:`RunLedger.series`) scans the rows, so concurrent appenders cannot
leave a stale summary behind.

Each row carries its own ``metrics``, ``{benchmark: {metric: value}}``,
distilled once when it is written: :func:`record_run` keeps the row's
numeric headline fields, :func:`record_report` the RunReport's
longitudinal headlines.  :meth:`RunLedger.series` groups them into the
``(benchmark, machine, metric)`` time series that the perf-trend
sentinel (:mod:`repro.obs.sentinel`) reads.

Row schema (``repro.obs.ledger`` v1)::

    {"schema": "repro.obs.ledger", "v": 1, "ts": 1722950000.1,
     "kind": "profile", "trace_id": "...", "span_id": "...",
     "benchmark": "mm_fc", "machine": "Cambricon-F1",
     "fingerprint": "9f2c...", "program_digest": "a11b...",
     "makespan_s": 0.012, "attribution": {"compulsory": 0.6, ...},
     "cache": {"plan.compile_hits{tier=memory}": 3, ...},
     "metrics": {"mm_fc": {"makespan_s": 0.012}},
     "crash_bundle": "crash_bundles/run-mm_fc-.../", ...}

Adding fields never bumps ``v`` (the RunReport policy); consumers ignore
unknown keys.  Set ``REPRO_LEDGER=off`` (or ``0``/``none``) to disable
persistence entirely; all module-level helpers are fail-soft so a
read-only cache directory can never take a run down.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .events import append_jsonl, iter_jsonl

LEDGER_SCHEMA = "repro.obs.ledger"
LEDGER_SCHEMA_VERSION = 1

#: $REPRO_LEDGER values that disable persistence entirely.
_OFF_VALUES = {"off", "0", "none", "disabled"}

#: per-trace summary fields accumulated in row order.
_TRACE_LIST_FIELDS = ("kinds", "benchmarks", "machines")

#: (benchmark, machine, metric)
SeriesKey = Tuple[str, str, str]

#: ``{benchmark: {metric: value}}`` -- one row's ``metrics`` field.
Metrics = Dict[str, Dict[str, float]]


def ledger_enabled() -> bool:
    """False when ``$REPRO_LEDGER`` explicitly turns the ledger off."""
    value = os.environ.get("REPRO_LEDGER")
    if value is None:
        return True
    return value.strip().lower() not in _OFF_VALUES and value.strip() != ""


def default_ledger_dir() -> Path:
    """``$REPRO_LEDGER`` > ``$XDG_CACHE_HOME/repro/ledger`` > ``~/.cache``."""
    env = os.environ.get("REPRO_LEDGER")
    if env and env.strip().lower() not in _OFF_VALUES:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "ledger"


def _finite(value) -> Optional[float]:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        return None
    return float(value)


class RunLedger:
    """Append-only JSONL run history; every reader scans the rows."""

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory is not None \
            else default_ledger_dir()
        self.runs_path = self.directory / "runs.jsonl"

    # -- writing ------------------------------------------------------------

    def record(self, kind: str, **fields) -> Dict[str, object]:
        """Append one row; returns the row as written.

        ``trace_id``/``span_id`` are stamped from the current
        :mod:`repro.obs.trace` context when the caller doesn't pass them,
        so any code running inside a ``trace_scope`` lands in the right
        trace for free.
        """
        row: Dict[str, object] = {
            "schema": LEDGER_SCHEMA,
            "v": LEDGER_SCHEMA_VERSION,
            "ts": time.time(),
            "kind": kind,
        }
        if "trace_id" not in fields or fields.get("trace_id") is None:
            from .trace import current_trace
            ctx = current_trace()
            if ctx is not None:
                fields.setdefault("trace_id", ctx.trace_id)
                fields.setdefault("span_id", ctx.span_id)
                if ctx.worker is not None:
                    fields.setdefault("worker", ctx.worker)
        for key, value in fields.items():
            if value is not None:
                row[key] = value
        self.directory.mkdir(parents=True, exist_ok=True)
        append_jsonl(self.runs_path, json.dumps(row, default=repr) + "\n")
        from ..telemetry import get_registry
        registry = get_registry()
        if registry.enabled:
            registry.count("ledger.rows", 1, {"kind": kind})
        return row

    # -- reading ------------------------------------------------------------

    def iter_rows(self):
        """Every decodable row of ``runs.jsonl``, oldest first."""
        try:
            with open(self.runs_path, encoding="utf-8") as fh:
                for record, _bad in iter_jsonl(fh):
                    if record is not None:
                        yield record
        except OSError:
            return

    def rows(self, trace_id: Optional[str] = None,
             last: Optional[int] = None) -> List[Dict[str, object]]:
        """Rows (optionally one trace's, optionally only the newest N).

        With ``last=N`` the scan holds at most N rows at a time (a
        bounded ``deque`` over :meth:`iter_rows`), so ``repro trace ls``
        stays cheap on long-lived ledgers instead of materializing the
        whole ``runs.jsonl``.
        """
        matching = (row for row in self.iter_rows()
                    if trace_id is None or row.get("trace_id") == trace_id)
        if last is not None and last >= 0:
            if last == 0:
                return []
            return list(deque(matching, maxlen=last))
        return list(matching)

    def traces(self) -> Dict[str, Dict[str, object]]:
        """Per-trace summaries (``{trace_id: {rows, first_ts, ...}}``),
        folded from every row in one scan."""
        traces: Dict[str, Dict[str, object]] = {}
        for row in self.iter_rows():
            trace_id = row.get("trace_id")
            if not trace_id:
                continue
            ts = float(row.get("ts", 0.0))
            entry = traces.get(str(trace_id))
            if entry is None:
                entry = traces[str(trace_id)] = {
                    "benchmarks": [],
                    "first_ts": ts,
                    "kinds": [],
                    "last_ts": ts,
                    "machines": [],
                    "rows": 0,
                }
            entry["rows"] += 1
            entry["first_ts"] = min(entry["first_ts"], ts)
            entry["last_ts"] = max(entry["last_ts"], ts)
            for field, key in zip(_TRACE_LIST_FIELDS,
                                  ("kind", "benchmark", "machine")):
                value = row.get(key)
                if value is not None and value not in entry[field]:
                    entry[field].append(value)
        return traces

    def series(
        self,
        benchmark: Optional[str] = None,
        machine: Optional[str] = None,
        metric: Optional[str] = None,
    ) -> Dict[SeriesKey, List[Tuple[float, float]]]:
        """Grouped ``{(benchmark, machine, metric): [(ts, value), ...]}``.

        Reads each row's ``metrics`` and nothing else: a report row's
        top-level ``makespan_s`` is already among them, so reading both
        would count it twice.  Points keep log order (appends are
        chronological); the optional filters match exactly.
        """
        out: Dict[SeriesKey, List[Tuple[float, float]]] = {}
        for row in self.iter_rows():
            metrics = row.get("metrics")
            mach = str(row.get("machine") or "-")
            if not isinstance(metrics, dict) or machine not in (None, mach):
                continue
            for bench, table in metrics.items():
                if not isinstance(table, dict) or benchmark not in (None, bench):
                    continue
                for name, value in table.items():
                    value = _finite(value)
                    if value is not None and metric in (None, name):
                        out.setdefault((bench, mach, name), []).append(
                            (float(row.get("ts", 0.0)), value))
        return out


def get_ledger(directory: Optional[os.PathLike] = None) -> Optional[RunLedger]:
    """A :class:`RunLedger`, or None when ``$REPRO_LEDGER`` disables it."""
    if directory is None and not ledger_enabled():
        return None
    return RunLedger(directory)


# ---------------------------------------------------------------------------
# Distillers: row fields and RunReport documents -> a row's ``metrics``
# ---------------------------------------------------------------------------

#: numeric row fields that :func:`record_run` keeps as metrics.
_ROW_METRICS = ("makespan_s", "compile_s", "peak_live_bytes")


def row_metrics(fields: Dict[str, object]) -> Metrics:
    """The finite numeric headline fields of one row, under its benchmark."""
    table = {}
    for metric in _ROW_METRICS:
        value = _finite(fields.get(metric))
        if value is not None:
            table[metric] = value
    return {str(fields.get("benchmark") or "-"): table} if table else {}


def _counter_sum(counters: Dict[str, object], prefix: str) -> Optional[float]:
    """Sum every ``name{labels}`` snapshot series starting with prefix."""
    total, seen = 0.0, False
    for key, value in counters.items():
        if key == prefix or key.startswith(prefix + "{"):
            fv = _finite(value)
            if fv is not None:
                total += fv
                seen = True
    return total if seen else None


def _rate(counters: Dict[str, object], hit_prefix: str,
          miss_prefix: str) -> Optional[float]:
    hits = _counter_sum(counters, hit_prefix)
    misses = _counter_sum(counters, miss_prefix)
    if hits is None and misses is None:
        return None
    hits, misses = hits or 0.0, misses or 0.0
    total = hits + misses
    return hits / total if total > 0 else None


def report_metrics(doc: Dict[str, object]) -> Metrics:
    """Distill one RunReport document into a row's ``metrics``.

    Pulls every longitudinal headline the stack already measures: the
    simulated makespan and attained throughput, the attribution taxonomy
    seconds, the plan-replay microbenchmark speedup, the static memory
    high-water mark, cache and zero-copy hit rates, and the per-benchmark
    tables of a BENCH suite report (each under its own benchmark).
    """
    bench = str(doc.get("benchmark") or "-")
    notes = doc.get("notes") or {}
    out: Metrics = {}

    def add(metric: str, value, benchmark=None) -> None:
        fv = _finite(value)
        if fv is not None:
            out.setdefault(str(benchmark or bench), {})[metric] = fv

    sim = doc.get("simulator") or {}
    add("makespan_s", sim.get("total_time_s"))
    add("attained_ops", sim.get("attained_ops"))
    attribution = doc.get("attribution") or {}
    for cat, seconds in sorted((attribution.get("totals_s") or {}).items()):
        add(f"attr_{cat}_s", seconds)

    counters = doc.get("counters") or {}
    add("peak_live_bytes", _counter_sum(counters, "plan.peak_live_bytes"))
    add("sig_cache_hit_rate", _rate(counters, "sim.sig_cache.hits",
                                    "sim.sig_cache.misses"))
    zero = (_counter_sum(counters, "store.zero_copy_reads") or 0.0) + \
        (_counter_sum(counters, "store.static_zero_copy") or 0.0)
    copied = _counter_sum(counters, "store.copied_reads")
    if zero or copied is not None:
        reads = zero + (copied or 0.0)
        if reads > 0:
            add("zero_copy_rate", zero / reads)

    micro = notes.get("plan_microbench") or {}
    if isinstance(micro, dict):
        add("replay_speedup", micro.get("speedup"), micro.get("benchmark"))
        add("warm_replay_s", micro.get("warm_replay_s"),
            micro.get("benchmark"))

    benchmarks = notes.get("benchmarks") or {}
    if isinstance(benchmarks, dict):
        for name, table in sorted(benchmarks.items()):
            if not isinstance(table, dict):
                continue
            add("makespan_s", table.get("total_time_s"), name)
            add("attained_ops", table.get("attained_ops"), name)
            add("peak_fraction", table.get("peak_fraction"), name)
    return out


# ---------------------------------------------------------------------------
# Fail-soft write helpers
# ---------------------------------------------------------------------------


def record_run(kind: str, directory: Optional[os.PathLike] = None,
               **fields) -> Optional[Dict[str, object]]:
    """Fail-soft append: never raises, returns the row or None.

    The write sites (CLI commands, sweeps, crash scopes) must keep
    working on read-only filesystems and with the ledger disabled.

    Unless the caller passes ``metrics`` (:func:`record_report` does),
    the row's numeric headline fields become them (:func:`row_metrics`).
    """
    ledger = get_ledger(directory)
    if ledger is None:
        return None
    if "metrics" not in fields:
        fields["metrics"] = row_metrics(fields) or None
    try:
        return ledger.record(kind, **fields)
    except (OSError, ValueError):
        return None


def _cache_tiers(counters: Dict[str, object]) -> Dict[str, object]:
    """Plan/signature cache series worth remembering per run."""
    out = {}
    for key, value in counters.items():
        if (key.startswith(("plan.compile_hits", "plan.compile_misses",
                            "sim.sig_cache."))
                and isinstance(value, (int, float)) and value):
            out[key] = value
    return out


def record_report(report, kind: str = "run",
                  directory: Optional[os.PathLike] = None,
                  **extra) -> Optional[Dict[str, object]]:
    """Fail-soft append of one row distilled from a RunReport.

    Pulls the stable provenance out of the (much larger) report document:
    benchmark/machine, trace ids from ``notes``, makespan from the
    simulator section, the attribution taxonomy fractions, any cache
    tiers that fired, and the report's :func:`report_metrics`.  Extra
    fields (fingerprint, program digest, crash bundle path) ride along
    verbatim.
    """
    try:
        doc = report.to_dict() if hasattr(report, "to_dict") else dict(report)
        fields: Dict[str, object] = {
            "benchmark": doc.get("benchmark"),
            "machine": doc.get("machine"),
            "metrics": report_metrics(doc) or None,
        }
        notes = doc.get("notes") or {}
        if notes.get("trace_id"):
            fields["trace_id"] = notes["trace_id"]
            fields["span_id"] = notes.get("span_id")
        sim = doc.get("simulator") or {}
        if sim.get("total_time_s") is not None:
            fields["makespan_s"] = sim["total_time_s"]
        attribution = doc.get("attribution") or {}
        if attribution.get("classification"):
            fields["classification"] = attribution["classification"]
        if attribution.get("fractions"):
            fields["attribution"] = attribution["fractions"]
        tiers = _cache_tiers(doc.get("counters") or {})
        if tiers:
            fields["cache"] = tiers
        fields.update(extra)
        return record_run(kind, directory=directory, **fields)
    except Exception:
        return None
