"""Offline event-log triage: filter and pretty-print JSONL event streams.

Backs the ``repro events tail`` CLI.  Input is either an ``events.jsonl``
file (written by ``--events`` on profiling runs or by the flight
recorder) or a crash-bundle directory, in which case the bundle's
``events.jsonl`` is read.  Corrupt lines -- expected in bundles written
mid-crash -- are counted, not fatal.
"""

from __future__ import annotations

import re
import time
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Pattern, Tuple, Union

from .events import SEVERITY_RANK, iter_jsonl


def resolve_events_path(target: str) -> Path:
    """Accept an events.jsonl file or a crash-bundle directory."""
    path = Path(target)
    if path.is_dir():
        candidate = path / "events.jsonl"
        if not candidate.exists():
            raise FileNotFoundError(
                f"{target}: directory holds no events.jsonl "
                f"(not a crash bundle?)")
        return candidate
    return path


def load_events(target: str) -> Tuple[List[Dict[str, object]], int]:
    """Read events from a file or bundle dir; returns (events, bad_lines)."""
    path = resolve_events_path(target)
    events: List[Dict[str, object]] = []
    bad = 0
    with open(path, encoding="utf-8") as f:
        for record, corrupt in iter_jsonl(f):
            if record is None:
                bad += 1
            else:
                events.append(record)
    return events, bad


def grep_blob(record: Dict[str, object]) -> str:
    """The text ``--grep`` matches against for one event.

    Mirrors what :func:`format_event` renders: subsystem, event name,
    the free-form ``k=v`` fields, and the propagated context values --
    but not the reserved envelope keys (schema/seq/ts/severity), so a
    pattern like ``3`` doesn't match every third sequence number.
    """
    parts = [str(record.get("subsystem", "")), str(record.get("event", ""))]
    parts += [f"{k}={record[k]}" for k in record if k not in _RESERVED]
    ctx = record.get("ctx")
    if isinstance(ctx, dict):
        parts += [f"{k}={v}" for k, v in ctx.items()]
    return " ".join(parts)


def parse_since(text: str) -> float:
    """``--since`` value -> epoch seconds.

    Accepts a raw epoch number (``1722950000`` / ``1722950000.5``) or an
    ISO-8601 timestamp (``2026-08-08T12:00:00``, with or without a
    timezone offset; naive stamps are taken in local time, matching how
    :func:`format_event` displays them).  Raises :class:`ValueError` on
    anything else -- the CLI maps that to exit 2.
    """
    raw = text.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    from datetime import datetime
    try:
        parsed = datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(
            f"--since {text!r}: expected an epoch number or ISO-8601 "
            "timestamp (e.g. 2026-08-08T12:00:00)")
    if parsed.tzinfo is None:
        parsed = parsed.astimezone()
    return parsed.timestamp()


def filter_events(
    events: Iterable[Dict[str, object]],
    subsystem: Optional[str] = None,
    min_severity: Optional[str] = None,
    event_glob: Optional[str] = None,
    last: Optional[int] = None,
    pattern: Optional[Union[str, Pattern[str]]] = None,
    since: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Apply tail filters (all optional) preserving order.

    ``pattern`` is an (uncompiled or precompiled) regex searched against
    :func:`grep_blob` -- the ``--grep`` filter.  ``since`` is an epoch
    lower bound on the event ``ts`` (events without a numeric timestamp
    are dropped when it is set) -- the ``--since`` filter.  Both compose with the other filters and are applied
    before ``last`` so "the newest N matching events" means what it says.
    """
    out = list(events)
    if subsystem:
        out = [e for e in out if e.get("subsystem") == subsystem]
    if min_severity:
        floor = SEVERITY_RANK.get(min_severity, 0)
        out = [e for e in out
               if SEVERITY_RANK.get(str(e.get("severity")), 1) >= floor]
    if event_glob:
        out = [e for e in out if fnmatch(str(e.get("event", "")), event_glob)]
    if since is not None:
        out = [e for e in out
               if isinstance(e.get("ts"), (int, float))
               and not isinstance(e.get("ts"), bool)
               and float(e["ts"]) >= since]
    if pattern is not None:
        rx = re.compile(pattern) if isinstance(pattern, str) else pattern
        out = [e for e in out if rx.search(grep_blob(e))]
    if last is not None and last >= 0:
        out = out[-last:] if last else []
    return out


def follow_events(
    target: str,
    poll_interval: float = 0.5,
    stop: Optional[Callable[[], bool]] = None,
    start_at_end: bool = False,
    _sleep: Callable[[float], None] = time.sleep,
) -> Iterable[Dict[str, object]]:
    """Yield events from ``target`` as they are appended (``tail -f``).

    Polls the file every ``poll_interval`` seconds, yielding each decoded
    record exactly once.  Robust to the writer's failure modes:

    * a **torn final line** (the sink flushes whole lines, but a reader
      can still race a partial write) is buffered until its newline lands;
    * **truncation or rotation** (the sink's ``.1`` rollover replaces the
      file) resets the read offset to the new file's start;
    * a **missing file** is simply waited on -- the run may not have
      attached its sink yet.

    ``stop`` is an optional callable checked once per poll; returning
    True ends the stream (the CLI maps Ctrl-C onto the same exit).  With
    ``start_at_end`` the existing contents are skipped, mirroring
    ``tail -n0 -f``.
    """
    path = resolve_events_path(target) if Path(target).is_dir() else Path(target)
    pos = 0
    if start_at_end:
        try:
            pos = path.stat().st_size
        except OSError:
            pos = 0
    pending = ""
    while True:
        if stop is not None and stop():
            return
        try:
            size = path.stat().st_size
        except OSError:
            size = None
        if size is not None:
            if size < pos:  # truncated or rotated underneath us
                pos = 0
                pending = ""
            if size > pos:
                with open(path, encoding="utf-8") as f:
                    f.seek(pos)
                    chunk = f.read()
                    pos = f.tell()
                pending += chunk
                *lines, pending = pending.split("\n")
                for record, _bad in iter_jsonl(lines):
                    if record is not None:
                        yield record
                continue  # drain before sleeping again
        _sleep(poll_interval)


_RESERVED = ("schema", "v", "seq", "ts", "subsystem", "event", "severity",
             "ctx")


def format_event(record: Dict[str, object], base_ts: Optional[float] = None) -> str:
    """One human-readable line per event, context included.

    ``+12.345s  [error] executor  instruction.fail  error=boom
    | instruction=3 opcode=MatMul machine=tiny``
    """
    ts = record.get("ts")
    if isinstance(ts, (int, float)) and base_ts is not None:
        stamp = f"+{ts - base_ts:9.3f}s"
    elif isinstance(ts, (int, float)):
        stamp = f"{ts:.3f}"
    else:
        stamp = "?"
    severity = str(record.get("severity", "?"))
    subsystem = str(record.get("subsystem", "?"))
    event = str(record.get("event", "?"))
    fields = " ".join(f"{k}={record[k]!r}" for k in record
                      if k not in _RESERVED)
    ctx = record.get("ctx")
    ctx_str = ""
    if isinstance(ctx, dict) and ctx:
        ctx_str = "  | " + " ".join(f"{k}={v}" for k, v in ctx.items())
    body = f"{stamp}  [{severity:<5s}] {subsystem:<10s} {event}"
    if fields:
        body += "  " + fields
    return body + ctx_str


def format_events(events: List[Dict[str, object]]) -> str:
    """Pretty-print a filtered stream with relative timestamps."""
    base = None
    for record in events:
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            base = ts
            break
    return "\n".join(format_event(e, base_ts=base) for e in events)
