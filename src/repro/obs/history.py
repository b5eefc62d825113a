"""Run-history store: per-(benchmark, machine, metric) time series.

Eight PRs of instrumentation all measure *one run at a time* -- the
ledger remembers rows, RunReports snapshot counters, BENCH reports diff
against a single hand-committed baseline.  Nothing watches the numbers
**across** runs.  This module closes the time axis: every ledger row,
RunReport and BENCH suite report is distilled into flat metric points

    (benchmark, machine, metric) -> [(ts, value), ...]

appended to an append-only ``history.jsonl`` that the perf-trend
sentinel (:mod:`repro.obs.sentinel`) reads to detect statistical
regressions, replacing point-in-time baseline diffs with longitudinal
self-gating.

Storage follows the run-ledger contract exactly (docs/OBSERVABILITY.md):

* ``history.jsonl`` -- the only file: one schema-versioned JSON point
  per line, append-only; corruption can only tear the final line, which
  readers skip via :func:`repro.obs.events.iter_jsonl`.  Every reader
  (:meth:`RunHistory.series`, the sentinel) scans it, so concurrent
  appenders cannot leave a stale summary behind.

Point schema (``repro.obs.history`` v1)::

    {"schema": "repro.obs.history", "v": 1, "ts": 1722950000.1,
     "benchmark": "mm_fc", "machine": "Cambricon-F1",
     "metric": "makespan_s", "value": 0.012, "source": "profile",
     "trace_id": "..."}

Adding fields never bumps ``v`` (the RunReport policy); consumers ignore
unknown keys.  The directory resolves ``$REPRO_HISTORY`` first (with the
same ``off``/``0``/``none``/``disabled`` kill switch as the ledger) and
falls back to the run-ledger directory, so history rides wherever the
ledger already lives and the hermetic test fixture covers both.  Every
module-level helper is fail-soft: a read-only cache directory can never
take a run down.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .events import iter_jsonl
from .ledger import _OFF_VALUES, default_ledger_dir, ledger_enabled

HISTORY_SCHEMA = "repro.obs.history"
HISTORY_SCHEMA_VERSION = 1

#: (benchmark, machine, metric)
SeriesKey = Tuple[str, str, str]


def history_enabled() -> bool:
    """False when ``$REPRO_HISTORY`` (or, absent that, ``$REPRO_LEDGER``)
    explicitly turns history off."""
    value = os.environ.get("REPRO_HISTORY")
    if value is not None:
        return value.strip().lower() not in _OFF_VALUES and value.strip() != ""
    return ledger_enabled()


def default_history_dir() -> Path:
    """``$REPRO_HISTORY`` > the run-ledger directory."""
    env = os.environ.get("REPRO_HISTORY")
    if env and env.strip().lower() not in _OFF_VALUES:
        return Path(env).expanduser()
    return default_ledger_dir()


class RunHistory:
    """Append-only JSONL metric history."""

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory is not None \
            else default_history_dir()
        self.points_path = self.directory / "history.jsonl"

    # -- writing ------------------------------------------------------------

    def append(self, points: Iterable[Dict[str, object]]) -> List[Dict[str, object]]:
        """Append points (each needs benchmark/machine/metric/value).

        Stamps ``schema``/``v`` and -- when the caller didn't -- ``ts``,
        and skips points whose value is not a finite number.  The rows go
        out in one append-mode write, so another process's points land
        between batches, not inside a line.  Returns the rows as written.
        """
        rows: List[Dict[str, object]] = []
        now = time.time()
        for point in points:
            value = point.get("value")
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                continue
            row: Dict[str, object] = {
                "schema": HISTORY_SCHEMA,
                "v": HISTORY_SCHEMA_VERSION,
                "ts": point.get("ts", now),
                "benchmark": str(point.get("benchmark") or "-"),
                "machine": str(point.get("machine") or "-"),
                "metric": str(point.get("metric") or "-"),
                "value": float(value),
            }
            for key in ("source", "trace_id", "worker"):
                if point.get(key) is not None:
                    row[key] = point[key]
            rows.append(row)
        if not rows:
            return rows
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.points_path, "a", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(row, default=repr) + "\n"
                             for row in rows))
        from ..telemetry import get_registry
        registry = get_registry()
        if registry.enabled:
            for row in rows:
                registry.count("history.points",
                               labels={"source": row.get("source", "-")})
        return rows

    # -- reading ------------------------------------------------------------

    def iter_points(self):
        """Every decodable point of ``history.jsonl``, oldest first."""
        try:
            with open(self.points_path, encoding="utf-8") as fh:
                for record, _bad in iter_jsonl(fh):
                    if record is not None:
                        yield record
        except OSError:
            return

    def series(
        self,
        benchmark: Optional[str] = None,
        machine: Optional[str] = None,
        metric: Optional[str] = None,
    ) -> Dict[SeriesKey, List[Tuple[float, float]]]:
        """Grouped ``{(benchmark, machine, metric): [(ts, value), ...]}``.

        Points keep log order (appends are chronological); the optional
        filters match exactly.
        """
        out: Dict[SeriesKey, List[Tuple[float, float]]] = {}
        for row in self.iter_points():
            key = (str(row.get("benchmark", "-")),
                   str(row.get("machine", "-")),
                   str(row.get("metric", "-")))
            if benchmark is not None and key[0] != benchmark:
                continue
            if machine is not None and key[1] != machine:
                continue
            if metric is not None and key[2] != metric:
                continue
            value = row.get("value")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out.setdefault(key, []).append(
                    (float(row.get("ts", 0.0)), float(value)))
        return out


def get_history(directory: Optional[os.PathLike] = None) -> Optional[RunHistory]:
    """A :class:`RunHistory`, or None when the env disables it."""
    if directory is None and not history_enabled():
        return None
    return RunHistory(directory)


def record_points(points: Iterable[Dict[str, object]],
                  directory: Optional[os.PathLike] = None) -> int:
    """Fail-soft append: never raises, returns the number of points written."""
    history = get_history(directory)
    if history is None:
        return 0
    try:
        return len(history.append(points))
    except (OSError, ValueError):
        return 0


# ---------------------------------------------------------------------------
# Distillers: ledger rows and RunReport documents -> metric points
# ---------------------------------------------------------------------------

#: numeric ledger-row fields worth a time series, with their metric names.
_ROW_METRICS: Tuple[Tuple[str, str], ...] = (
    ("makespan_s", "makespan_s"),
    ("compile_s", "compile_s"),
    ("peak_live_bytes", "peak_live_bytes"),
)


def _finite(value) -> Optional[float]:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        return None
    return float(value)


def points_from_row(kind: str, row: Dict[str, object]) -> List[Dict[str, object]]:
    """Distill one ledger row (or its fields) into history points."""
    out: List[Dict[str, object]] = []
    base = {
        "benchmark": row.get("benchmark"),
        "machine": row.get("machine"),
        "source": kind,
    }
    if row.get("trace_id"):
        base["trace_id"] = row["trace_id"]
    for field, metric in _ROW_METRICS:
        value = _finite(row.get(field))
        if value is not None:
            out.append({**base, "metric": metric, "value": value})
    return out


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


def points_from_report(doc: Dict[str, object],
                       source: str = "report") -> List[Dict[str, object]]:
    """Distill one RunReport document into history points.

    Pulls every longitudinal headline the stack already measures: the
    simulated makespan and attained throughput, the attribution taxonomy
    seconds, the plan-replay microbenchmark speedup, the static memory
    high-water mark, cache and zero-copy hit rates, and the per-benchmark
    tables of a BENCH suite report (each as its own ``benchmark`` series).
    """
    points: List[Dict[str, object]] = []
    bench = doc.get("benchmark")
    machine = doc.get("machine")
    notes = doc.get("notes") or {}
    trace_id = notes.get("trace_id")

    def add(metric: str, value, benchmark=None) -> None:
        fv = _finite(value)
        if fv is None:
            return
        point = {"benchmark": benchmark or bench, "machine": machine,
                 "metric": metric, "value": fv, "source": source}
        if trace_id:
            point["trace_id"] = trace_id
        points.append(point)

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
        micro_bench = micro.get("benchmark") or bench
        add("replay_speedup", micro.get("speedup"), benchmark=micro_bench)
        add("warm_replay_s", micro.get("warm_replay_s"),
            benchmark=micro_bench)

    benchmarks = notes.get("benchmarks") or {}
    if isinstance(benchmarks, dict):
        for name, table in sorted(benchmarks.items()):
            if not isinstance(table, dict):
                continue
            add("makespan_s", table.get("total_time_s"), benchmark=name)
            add("attained_ops", table.get("attained_ops"), benchmark=name)
            add("peak_fraction", table.get("peak_fraction"), benchmark=name)
    return points


def record_row_history(kind: str, row: Dict[str, object],
                       directory: Optional[os.PathLike] = None) -> int:
    """Fail-soft: distill one ledger row into history points and append."""
    try:
        return record_points(points_from_row(kind, row), directory=directory)
    except Exception:
        return 0


def record_report_history(report, source: str = "report",
                          directory: Optional[os.PathLike] = None) -> int:
    """Fail-soft: distill one RunReport (object or dict) into history."""
    try:
        doc = report.to_dict() if hasattr(report, "to_dict") else dict(report)
        return record_points(points_from_report(doc, source=source),
                             directory=directory)
    except Exception:
        return 0
