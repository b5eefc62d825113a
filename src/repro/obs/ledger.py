"""Persistent run ledger: an append-only history of every run.

Nothing in the stack remembered a run after its process exited -- crash
bundles capture failures and RunReports capture single runs on request,
but the ROADMAP's serving tier and surrogate-model sweeps both need a
*queryable history*: which programs ran on which machine fingerprints,
how long they took, where the time went, which cache tiers fired, and
which trace each row belongs to.

The ledger is a directory (``$REPRO_LEDGER``, else
``$XDG_CACHE_HOME/repro/ledger``, else ``~/.cache/repro/ledger``)
holding:

* ``runs.jsonl`` -- the source of truth: one schema-versioned JSON
  object per row, append-only (open in ``"a"``, write one line, flush).
  Rows are never rewritten; corruption can only tear the final line,
  which readers skip via :func:`repro.obs.events.iter_jsonl`.
* ``index.json`` -- a derived per-trace summary (row counts, first/last
  timestamps, kinds, benchmarks, machines) for cheap ``repro trace ls``.
  It records the byte ``offset`` of ``runs.jsonl`` it covers, and every
  load folds in the complete rows past that offset, so an index that
  lost a race with a concurrent writer (or whose writer died before
  writing it) heals on the next load.  Written atomically (tmp +
  ``os.replace``); when it is missing or corrupt it is rebuilt from
  ``runs.jsonl``, with a warning when corrupt -- the index is a cache,
  never the truth.

Row schema (``repro.obs.ledger`` v1)::

    {"schema": "repro.obs.ledger", "v": 1, "ts": 1722950000.1,
     "kind": "profile", "trace_id": "...", "span_id": "...",
     "benchmark": "mm_fc", "machine": "Cambricon-F1",
     "fingerprint": "9f2c...", "program_digest": "a11b...",
     "makespan_s": 0.012, "attribution": {"compulsory": 0.6, ...},
     "cache": {"plan.compile_hits{tier=memory}": 3, ...},
     "crash_bundle": "crash_bundles/run-mm_fc-.../", ...}

Adding fields never bumps ``v`` (the RunReport policy); consumers ignore
unknown keys.  Set ``REPRO_LEDGER=off`` (or ``0``/``none``) to disable
persistence entirely; all module-level helpers are fail-soft so a
read-only cache directory can never take a run down.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional

from .events import iter_jsonl

LEDGER_SCHEMA = "repro.obs.ledger"
LEDGER_SCHEMA_VERSION = 1

INDEX_SCHEMA = "repro.obs.ledger.index"
#: v2 added ``offset``; a v1 index is rebuilt from the log.
INDEX_SCHEMA_VERSION = 2

#: $REPRO_LEDGER values that disable persistence entirely.
_OFF_VALUES = {"off", "0", "none", "disabled"}

#: index summary fields accumulated per trace, in row order.
_TRACE_LIST_FIELDS = ("kinds", "benchmarks", "machines")


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


class RunLedger:
    """Append-only JSONL run history with a derived atomic index."""

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory is not None \
            else default_ledger_dir()
        self.runs_path = self.directory / "runs.jsonl"
        self.index_path = self.directory / "index.json"

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
        with open(self.runs_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, default=repr) + "\n")
        # Loading folds every row past the index's offset: this one, and
        # any a concurrent writer appended.
        self._write_index(self._load_index())
        from ..telemetry import get_registry
        registry = get_registry()
        if registry.enabled:
            registry.count("ledger.rows", 1, {"kind": kind})
        return row

    # -- index maintenance --------------------------------------------------

    def _blank_index(self) -> Dict[str, object]:
        return {
            "schema": INDEX_SCHEMA,
            "v": INDEX_SCHEMA_VERSION,
            "rows": 0,
            "updated": 0.0,
            "offset": 0,
            "traces": {},
        }

    def _load_index(self) -> Dict[str, object]:
        """The index, brought up to date with ``runs.jsonl``.

        A missing index, or one from before ``offset``, is rebuilt from
        the whole log; a corrupt one too, with a warning.
        """
        index = None
        try:
            with open(self.index_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if not (isinstance(doc, dict)
                    and doc.get("schema") == INDEX_SCHEMA
                    and isinstance(doc.get("traces"), dict)):
                raise ValueError("unrecognized index document")
            if (doc.get("v") == INDEX_SCHEMA_VERSION
                    and isinstance(doc.get("offset"), int)):
                index = doc
        except FileNotFoundError:
            pass
        except (OSError, ValueError) as exc:
            warnings.warn(
                f"run ledger index {self.index_path} is corrupt ({exc}); "
                "rebuilding from runs.jsonl",
                RuntimeWarning, stacklevel=3,
            )
            from ..telemetry import get_registry
            registry = get_registry()
            if registry.enabled:
                registry.count("ledger.index_rebuilds", 1)
        if index is None:
            index = self._blank_index()
        self._fold_tail(index)
        return index

    def _fold_tail(self, index: Dict[str, object]) -> None:
        """Fold the complete rows of ``runs.jsonl`` past ``index["offset"]``
        into ``index`` and advance the offset past them."""
        try:
            with open(self.runs_path, "rb") as fh:
                size = fh.seek(0, os.SEEK_END)
                if index["offset"] > size:  # the log was truncated
                    index.clear()
                    index.update(self._blank_index())
                fh.seek(index["offset"])
                tail = fh.read()
        except FileNotFoundError:
            return
        complete = tail[:tail.rfind(b"\n") + 1]  # a torn last row waits
        lines = complete.decode("utf-8", errors="replace").splitlines()
        for record, _bad in iter_jsonl(lines):
            if record is not None:
                self._fold_row(index, record)
        index["offset"] += len(complete)

    def _fold_row(self, index: Dict[str, object], row: Dict[str, object]) -> None:
        index["rows"] = int(index.get("rows", 0)) + 1
        ts = float(row.get("ts", 0.0))
        index["updated"] = max(float(index.get("updated", 0.0)), ts)
        trace_id = row.get("trace_id")
        if not trace_id:
            return
        traces: Dict[str, Dict[str, object]] = index["traces"]
        entry = traces.get(str(trace_id))
        if entry is None:
            entry = traces[str(trace_id)] = {
                "rows": 0,
                "first_ts": ts,
                "last_ts": ts,
                "kinds": [],
                "benchmarks": [],
                "machines": [],
            }
        entry["rows"] = int(entry["rows"]) + 1
        entry["first_ts"] = min(float(entry["first_ts"]), ts)
        entry["last_ts"] = max(float(entry["last_ts"]), ts)
        for field, key in zip(_TRACE_LIST_FIELDS,
                              ("kind", "benchmark", "machine")):
            value = row.get(key)
            bucket = entry.setdefault(field, [])
            if value is not None and value not in bucket:
                bucket.append(value)

    def _write_index(self, index: Dict[str, object]) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(self.directory),
                                   prefix="index.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(index, fh, indent=2, sort_keys=True, default=repr)
                fh.write("\n")
            os.replace(tmp, self.index_path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

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
        """Per-trace index summaries (``{trace_id: {rows, first_ts, ...}}``),
        current with ``runs.jsonl`` even when ``index.json`` lags it."""
        return dict(self._load_index()["traces"])


def get_ledger(directory: Optional[os.PathLike] = None) -> Optional[RunLedger]:
    """A :class:`RunLedger`, or None when ``$REPRO_LEDGER`` disables it."""
    if directory is None and not ledger_enabled():
        return None
    return RunLedger(directory)


def record_run(kind: str, directory: Optional[os.PathLike] = None,
               history: bool = True,
               **fields) -> Optional[Dict[str, object]]:
    """Fail-soft append: never raises, returns the row or None.

    The write sites (CLI commands, sweeps, crash scopes) must keep
    working on read-only filesystems and with the ledger disabled.

    Numeric headline fields of the row (makespan_s, compile_s, ...) are
    also distilled into the run-history store for the perf-trend
    sentinel; pass ``history=False`` when the caller records richer
    history itself (:func:`record_report` does, to avoid double points).
    """
    ledger = get_ledger(directory)
    row: Optional[Dict[str, object]] = None
    if ledger is not None:
        try:
            row = ledger.record(kind, **fields)
        except (OSError, ValueError):
            row = None
    if history:
        from .history import record_row_history
        record_row_history(kind, row if row is not None else fields)
    return row


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
    simulator section, the attribution taxonomy fractions, and any cache
    tiers that fired.  Extra fields (fingerprint, program digest, crash
    bundle path) ride along verbatim.
    """
    try:
        doc = report.to_dict() if hasattr(report, "to_dict") else dict(report)
        fields: Dict[str, object] = {
            "benchmark": doc.get("benchmark"),
            "machine": doc.get("machine"),
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
        # The full report distills into richer history points than the
        # ledger row, so suppress the row-level hook and record from the
        # report document instead (one point per metric, not two).
        row = record_run(kind, directory=directory, history=False, **fields)
        from .history import record_report_history
        record_report_history(doc, source=kind)
        return row
    except Exception:
        return None
