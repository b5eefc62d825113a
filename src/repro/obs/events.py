"""Structured event log: schema-versioned JSONL events with run context.

Where the counter registry answers "how many" and the tracer answers "how
long", the event log answers **"what happened"**: discrete, timestamped,
machine-readable records -- a program started, an instruction failed, the
simulator memoized a level -- each stamped with whatever run context
(run id, benchmark, machine, instruction index, fractal level) was active
when it fired.

Design points, mirroring :mod:`repro.telemetry`:

* **Null-object disabled fast path.**  The process-wide log is disabled by
  default; every instrumented call site pays one attribute check
  (``log.enabled``) and nothing else, keeping the <5% telemetry overhead
  budget intact.
* **Context propagation via contextvars.**  :func:`event_context` pushes
  key/value pairs onto a :class:`contextvars.ContextVar`; every event
  emitted inside the ``with`` block carries the merged context in its
  ``ctx`` field.  Context stacking composes across call layers (runtime
  session -> executor program -> instruction) without threading arguments.
* **Per-subsystem loggers.**  :func:`logger` hands out cached
  :class:`SubsystemLogger` facades (``executor``, ``decompose``, ``sim``,
  ``runtime``, ``ops``) with ``debug/info/warn/error`` methods.
* **Severity + sampling controls.**  A minimum severity gates cheap events
  out entirely; per-``(subsystem, event)`` stride sampling thins repetitive
  debug streams while guaranteeing every distinct event name still appears.
* **Bounded memory.**  Retained events live in a ring (``deque`` with
  ``maxlen``); evictions are counted in ``dropped`` so consumers know the
  window is partial.  An optional JSONL sink streams every accepted event
  to disk for ``repro events tail``.

Event schema (one JSON object per line)::

    {"schema": "repro.obs.event", "v": 1, "seq": 17, "ts": 1722950000.123,
     "subsystem": "executor", "event": "instruction.fail",
     "severity": "error", "ctx": {"run": "...", "instruction": 3,
     "opcode": "MatMul"}, "error": "..."}

``schema``/``v`` follow the RunReport policy (docs/TELEMETRY.md): adding
fields never bumps ``v``; consumers ignore unknown keys.
"""

from __future__ import annotations

import contextvars
import json
import os
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

EVENT_SCHEMA = "repro.obs.event"
EVENT_SCHEMA_VERSION = 1

#: recognised severities, weakest first.
SEVERITIES = ("debug", "info", "warn", "error")
SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: run context propagated to every event emitted inside an
#: :func:`event_context` block.  Stored as a flat tuple of (key, value)
#: pairs: copying on push is one tuple concat, and ``dict()`` at emit time
#: resolves duplicate keys innermost-wins.
_CONTEXT: contextvars.ContextVar[Tuple[Tuple[str, object], ...]] = \
    contextvars.ContextVar("repro_obs_context", default=())


@contextmanager
def event_context(**fields):
    """Push context fields for the duration of the ``with`` block.

    Nested blocks merge; inner values win on key collision.  Restoring via
    the contextvar token keeps the stack correct across generators and
    threads.
    """
    token = _CONTEXT.set(_CONTEXT.get() + tuple(fields.items()))
    try:
        yield
    finally:
        _CONTEXT.reset(token)


def current_context() -> Dict[str, object]:
    """The merged context dict active right now (innermost wins)."""
    return dict(_CONTEXT.get())


def _json_safe(value):
    """Best-effort JSON coercion -- the event log must never raise."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


class EventLog:
    """Bounded, severity-filtered, sampled structured event log."""

    def __init__(
        self,
        enabled: bool = False,
        capacity: int = 2048,
        min_severity: str = "debug",
        debug_sample: int = 1,
        clock: Callable[[], float] = time.time,
    ):
        if min_severity not in SEVERITY_RANK:
            raise ValueError(f"unknown severity {min_severity!r}")
        self.enabled = enabled
        self.capacity = capacity
        self.min_severity = min_severity
        #: keep every N-th *debug* event per (subsystem, event) key.
        self.debug_sample = max(1, int(debug_sample))
        self._clock = clock
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        #: events evicted from the ring (the retained window is partial).
        self.dropped = 0
        #: events filtered by severity or sampled out (never recorded).
        self.suppressed = 0
        self._by_severity: Dict[str, int] = {}
        self._by_subsystem: Dict[str, int] = {}
        self._sample_state: Dict[Tuple[str, str], int] = {}
        self._sink = None  # optional open file object (JSONL)
        self._sink_path: Optional[str] = None

    # -- lifecycle ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop recorded events and counts (enabled flag and sink kept)."""
        self._ring.clear()
        self._seq = 0
        self.dropped = 0
        self.suppressed = 0
        self._by_severity = {}
        self._by_subsystem = {}
        self._sample_state = {}

    # -- sinks --------------------------------------------------------------

    def attach_jsonl(self, path: str) -> None:
        """Stream every accepted event to ``path`` as JSON lines.

        The handle is owned by the log; call :meth:`close_sink` (or use a
        ``try/finally``) when the run ends.  Re-attaching closes the
        previous sink first.
        """
        self.close_sink()
        self._sink = open(path, "w", encoding="utf-8")  # noqa: SIM115 - long-lived sink
        self._sink_path = path

    def close_sink(self) -> Optional[str]:
        """Close the JSONL sink (if any); returns its path."""
        path, sink = self._sink_path, self._sink
        self._sink = None
        self._sink_path = None
        if sink is not None:
            try:
                sink.close()
            except OSError:
                pass
        return path

    # -- emission -----------------------------------------------------------

    def emit(self, subsystem: str, event: str, severity: str = "info",
             **fields) -> Optional[Dict[str, object]]:
        """Record one event; returns the record, or None when filtered."""
        if not self.enabled:
            return None
        rank = SEVERITY_RANK.get(severity)
        if rank is None:
            severity, rank = "info", SEVERITY_RANK["info"]
        if rank < SEVERITY_RANK[self.min_severity]:
            self.suppressed += 1
            return None
        if severity == "debug" and self.debug_sample > 1:
            key = (subsystem, event)
            n = self._sample_state.get(key, 0)
            self._sample_state[key] = n + 1
            if n % self.debug_sample:
                self.suppressed += 1
                return None
        self._seq += 1
        record: Dict[str, object] = {
            "schema": EVENT_SCHEMA,
            "v": EVENT_SCHEMA_VERSION,
            "seq": self._seq,
            "ts": self._clock(),
            "subsystem": subsystem,
            "event": event,
            "severity": severity,
        }
        ctx = _CONTEXT.get()
        if ctx:
            record["ctx"] = _json_safe(dict(ctx))
        for key, value in fields.items():
            if key not in record:
                record[key] = _json_safe(value)
        self._accept(record)
        return record

    def _accept(self, record: Dict[str, object]) -> None:
        """Ring + accounting + sink for one accepted record."""
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)
        severity = str(record.get("severity", "info"))
        subsystem = str(record.get("subsystem", ""))
        self._by_severity[severity] = self._by_severity.get(severity, 0) + 1
        self._by_subsystem[subsystem] = self._by_subsystem.get(subsystem, 0) + 1
        if self._sink is not None:
            try:
                self._sink.write(json.dumps(record, default=repr) + "\n")
                self._sink.flush()
            except (OSError, ValueError):
                # A dead sink must never take the run down; drop it.
                self.close_sink()

    def ingest(self, record: Dict[str, object], **extra) -> Optional[Dict[str, object]]:
        """Adopt an externally produced event record (e.g. a pool worker's).

        The record is re-stamped with this log's own ``seq`` (its origin
        sequence number is preserved as ``origin_seq``), merged with any
        ``extra`` fields (``worker=<n>``), and then treated exactly like a
        locally emitted event: ring, accounting, JSONL sink.
        Severity filtering and sampling are *not* re-applied -- the origin
        log already made those calls.
        """
        if not self.enabled or not isinstance(record, dict):
            return None
        adopted = dict(record)
        origin_seq = adopted.get("seq")
        self._seq += 1
        adopted["seq"] = self._seq
        if origin_seq is not None:
            adopted["origin_seq"] = origin_seq
        for key, value in extra.items():
            adopted[key] = _json_safe(value)
        self._accept(adopted)
        return adopted

    # -- reading ------------------------------------------------------------

    @property
    def total(self) -> int:
        """Events accepted since the last reset (incl. evicted ones)."""
        return self._seq

    def events(self, last: Optional[int] = None) -> List[Dict[str, object]]:
        """Retained events, oldest first (at most ``last`` newest ones)."""
        out = list(self._ring)
        if last is not None and last >= 0:
            out = out[-last:] if last else []
        return out

    def summary(self) -> Dict[str, object]:
        """The RunReport v3 ``events`` section for this log."""
        return {
            "total": self._seq,
            "retained": len(self._ring),
            "dropped": self.dropped,
            "suppressed": self.suppressed,
            "by_severity": dict(sorted(self._by_severity.items())),
            "by_subsystem": dict(sorted(self._by_subsystem.items())),
        }


class SubsystemLogger:
    """Named facade over the process-wide log (``obs.logger("sim")``)."""

    __slots__ = ("subsystem",)

    def __init__(self, subsystem: str):
        self.subsystem = subsystem

    def debug(self, event: str, **fields):
        log = _LOG
        if log.enabled:
            log.emit(self.subsystem, event, "debug", **fields)

    def info(self, event: str, **fields):
        log = _LOG
        if log.enabled:
            log.emit(self.subsystem, event, "info", **fields)

    def warn(self, event: str, **fields):
        log = _LOG
        if log.enabled:
            log.emit(self.subsystem, event, "warn", **fields)

    def error(self, event: str, **fields):
        log = _LOG
        if log.enabled:
            log.emit(self.subsystem, event, "error", **fields)

    @property
    def enabled(self) -> bool:
        return _LOG.enabled


#: the process-wide event log (disabled by default, like the registry).
_LOG = EventLog(enabled=False)

_LOGGERS: Dict[str, SubsystemLogger] = {}


def get_event_log() -> EventLog:
    """The process-wide structured event log."""
    return _LOG


def logger(subsystem: str) -> SubsystemLogger:
    """A cached per-subsystem logger bound to the global log."""
    out = _LOGGERS.get(subsystem)
    if out is None:
        out = _LOGGERS[subsystem] = SubsystemLogger(subsystem)
    return out


def log_event(subsystem: str, event: str, severity: str = "info", **fields):
    """One-shot emission helper (no-op while the log is disabled)."""
    if _LOG.enabled:
        _LOG.emit(subsystem, event, severity, **fields)


def events_summary(log: Optional[EventLog] = None) -> Dict[str, object]:
    """Summary section for RunReport v3 (empty-log safe)."""
    return (log or _LOG).summary()


def append_jsonl(path, text: str) -> None:
    """Append ``text``, whole ``\\n``-terminated JSONL rows, to ``path``
    in one write.

    A torn last line (a writer killed mid-row) is ended first, so the new
    rows never join the fragment into one undecodable line.  Two writers
    racing to end the same fragment add at most one blank line, which
    :func:`iter_jsonl` skips.
    """
    data = text.encode("utf-8")
    with open(path, "a+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size:
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                data = b"\n" + data
        fh.write(data)


def iter_jsonl(lines: Iterable[str]):
    """Parse JSONL event lines, skipping blanks and corrupt records.

    Yields ``(record, None)`` for good lines and ``(None, line)`` for
    undecodable ones so callers can count corruption without dying on it
    (crash bundles are written mid-flight; a torn last line is expected).
    """
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            yield None, line
            continue
        if isinstance(obj, dict):
            yield obj, None
        else:
            yield None, line
