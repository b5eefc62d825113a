"""Differential RunReport profiling: "did it get slower, and where?".

:func:`diff_documents` compares two RunReport JSON documents (schema v1 or
v2 -- see :mod:`repro.telemetry.report`) leaf by numeric leaf:

* **gated** metrics decide the verdict.  Time-like series (simulated
  total time, attribution seconds, per-level busy/idle seconds, the
  per-benchmark tables in ``notes.benchmarks``) regress when the
  candidate exceeds the baseline by more than the relative threshold;
  throughput-like series (``attained_ops``) regress in the other
  direction.  The defaults cover only *deterministic* simulator
  quantities, so the gate is reproducible run-to-run.
* **informational** metrics (everything else numeric, including the
  wall-clock span rollups) are reported but never fail the diff, unless
  span gating is explicitly enabled.

The result carries an exit code contract shared by ``repro diff`` and
``tools/perf_gate.py``: **0** pass, **3** regression (2 is reserved for
usage/IO errors at the CLI layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Optional, Tuple

#: metric path patterns where *larger candidate value = regression*.
DEFAULT_GATE_UP: Tuple[str, ...] = (
    "simulator.total_time_s",
    "simulator.per_level_busy_s.*",
    "attribution.makespan_s",
    "attribution.totals_s.*",
    "attribution.per_level_s.*",
    "counters.sim.busy_seconds*",
    "counters.sim.idle_seconds*",
    "counters.sim.attributed_seconds*",
    "notes.benchmarks.*.total_time_s",
    "notes.benchmarks.*.attribution.*_s*",
)

#: metric path patterns where *smaller candidate value = regression*.
DEFAULT_GATE_DOWN: Tuple[str, ...] = (
    "simulator.attained_ops",
    "notes.benchmarks.*.attained_ops",
    "notes.benchmarks.*.peak_fraction",
)

#: numeric leaves that are identity/bookkeeping, never compared.
_SKIPPED_PATHS: Tuple[str, ...] = ("schema_version", "spans_dropped")

#: whole sections that are observability metadata, not performance: the v3
#: ``events``/``health`` sections vary run to run (event counts depend on
#: sampling; reports written before the stall watchdog's removal carry
#: wall-clock heartbeat ages) and must neither gate nor show up as "added"
#: noise when diffing a v3 report against a v2 baseline.
#: ``notes.profile`` (the sampling profiler's summary) is sampled wall
#: clock too -- profile deltas gate through ``repro flame-diff``, not here.
_SKIPPED_PREFIXES: Tuple[str, ...] = ("events.", "health.", "notes.profile.")


def _skipped(path: str) -> bool:
    return path in _SKIPPED_PATHS or path.startswith(_SKIPPED_PREFIXES)


@dataclass
class DiffConfig:
    """Thresholds and gating patterns for one diff."""

    #: relative change that counts as a regression on gated metrics.
    rel_threshold: float = 0.05
    #: absolute change below which a metric can never regress (noise floor).
    abs_floor: float = 1e-12
    gate_up: Tuple[str, ...] = DEFAULT_GATE_UP
    gate_down: Tuple[str, ...] = DEFAULT_GATE_DOWN
    #: span rollups are wall-clock -- nondeterministic -- so they are
    #: informational unless explicitly gated (with their own threshold).
    gate_spans: bool = False
    span_threshold: float = 0.5


@dataclass
class DiffEntry:
    """One compared metric."""

    path: str
    baseline: Optional[float]
    candidate: Optional[float]
    status: str  # regression | improvement | changed | ok | added | removed
    gated: bool = False

    @property
    def delta(self) -> float:
        if self.baseline is None or self.candidate is None:
            return 0.0
        return self.candidate - self.baseline

    @property
    def rel(self) -> float:
        """Relative change vs the baseline (inf for 0 -> nonzero)."""
        if self.baseline is None or self.candidate is None:
            return 0.0
        if self.baseline == 0.0:
            if self.candidate > 0:
                return float("inf")
            return float("-inf") if self.candidate < 0 else 0.0
        return (self.candidate - self.baseline) / abs(self.baseline)


@dataclass
class DiffResult:
    """Outcome of one baseline/candidate comparison."""

    baseline_name: str
    candidate_name: str
    config: DiffConfig
    entries: List[DiffEntry] = field(default_factory=list)

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "regression"]

    @property
    def improvements(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "improvement"]

    @property
    def changed(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "changed"]

    @property
    def passed(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        """0 = pass, 3 = at least one gated regression."""
        return 0 if self.passed else 3

    def worst(self) -> Optional[DiffEntry]:
        """The gated regression with the largest relative slip."""
        regs = self.regressions
        if not regs:
            return None
        return max(regs, key=lambda e: abs(e.rel))

    # -- rendering ----------------------------------------------------------

    def to_json_obj(self) -> Dict[str, object]:
        worst = self.worst()
        return {
            "schema": "repro.perf.diff",
            "baseline": self.baseline_name,
            "candidate": self.candidate_name,
            "rel_threshold": self.config.rel_threshold,
            "passed": self.passed,
            "exit_code": self.exit_code,
            "worst_regression": worst.path if worst else None,
            "regressions": [_entry_obj(e) for e in self.regressions],
            "improvements": [_entry_obj(e) for e in self.improvements],
            "changed": [_entry_obj(e) for e in self.changed],
            "compared": sum(e.status not in ("added", "removed")
                            for e in self.entries),
        }

    def format_table(self, limit: int = 20) -> str:
        """Human-readable diff: regressions, improvements, notable changes."""
        lines = [
            f"perf diff: {self.baseline_name} -> {self.candidate_name} "
            f"(threshold {self.config.rel_threshold:.1%})"
        ]

        def block(title: str, entries: List[DiffEntry], cap: int) -> None:
            if not entries:
                return
            lines.append(f"{title} ({len(entries)}):")
            ranked = sorted(entries, key=lambda e: -abs(e.rel))
            for e in ranked[:cap]:
                lines.append(f"  {_fmt_entry(e)}")
            if len(ranked) > cap:
                lines.append(f"  ... and {len(ranked) - cap} more")

        block("REGRESSIONS", self.regressions, limit)
        block("improvements", self.improvements, limit)
        block("changed (informational)", self.changed, limit)
        added = [e for e in self.entries if e.status == "added"]
        removed = [e for e in self.entries if e.status == "removed"]
        if added or removed:
            lines.append(f"metrics only in candidate: {len(added)}, "
                         f"only in baseline: {len(removed)}")
        worst = self.worst()
        if worst is not None:
            lines.append(f"worst regression: {worst.path} ({_fmt_rel(worst.rel)})")
        lines.append("verdict: PASS" if self.passed
                     else "verdict: REGRESSED (exit 3)")
        return "\n".join(lines)


def _entry_obj(e: DiffEntry) -> Dict[str, object]:
    return {
        "path": e.path,
        "baseline": e.baseline,
        "candidate": e.candidate,
        "delta": e.delta,
        "rel": None if abs(e.rel) == float("inf") else e.rel,
        "status": e.status,
        "gated": e.gated,
    }


def _fmt_rel(rel: float) -> str:
    if rel == float("inf"):
        return "+inf%"
    if rel == float("-inf"):
        return "-inf%"
    return f"{rel:+.1%}"


def _fmt_entry(e: DiffEntry) -> str:
    return (f"{e.path:<52s} {e.baseline:>12.6g} -> {e.candidate:>12.6g}  "
            f"{_fmt_rel(e.rel)}")


# ---------------------------------------------------------------------------
# Flattening and comparison
# ---------------------------------------------------------------------------


def flatten_numeric(doc: Dict[str, object], prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts to ``{dotted.path: float}`` (bools excluded)."""
    out: Dict[str, float] = {}
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[path] = float(value)
        elif isinstance(value, dict):
            out.update(flatten_numeric(value, prefix=f"{path}."))
    return out


def _matches(path: str, patterns: Tuple[str, ...]) -> bool:
    return any(fnmatch(path, pattern) for pattern in patterns)


def _classify(path: str, base: float, cand: float,
              config: DiffConfig) -> Tuple[str, bool]:
    """(status, gated) for one metric present on both sides."""
    delta = cand - base
    if base != 0.0:
        rel = delta / abs(base)
    elif delta > 0:
        rel = float("inf")
    elif delta < 0:
        rel = float("-inf")
    else:
        rel = 0.0
    if path.startswith("spans."):
        if config.gate_spans:
            if rel > config.span_threshold and abs(delta) > config.abs_floor:
                return "regression", True
            if rel < -config.span_threshold:
                return "improvement", True
            return "ok", True
        return ("changed" if abs(rel) > config.rel_threshold else "ok"), False
    if _matches(path, config.gate_up):
        if rel > config.rel_threshold and abs(delta) > config.abs_floor:
            return "regression", True
        if rel < -config.rel_threshold and abs(delta) > config.abs_floor:
            return "improvement", True
        return "ok", True
    if _matches(path, config.gate_down):
        if rel < -config.rel_threshold and abs(delta) > config.abs_floor:
            return "regression", True
        if rel > config.rel_threshold and abs(delta) > config.abs_floor:
            return "improvement", True
        return "ok", True
    return ("changed" if abs(rel) > config.rel_threshold else "ok"), False


def diff_documents(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    config: Optional[DiffConfig] = None,
    baseline_name: str = "baseline",
    candidate_name: str = "candidate",
) -> DiffResult:
    """Compare two RunReport documents (already parsed; v1/v2/v3 all ok --
    v3-only sections are skipped, so v3 candidates diff cleanly against v2
    baselines)."""
    config = config or DiffConfig()
    result = DiffResult(baseline_name=baseline_name,
                        candidate_name=candidate_name, config=config)
    base_flat = {k: v for k, v in flatten_numeric(baseline).items()
                 if not _skipped(k)}
    cand_flat = {k: v for k, v in flatten_numeric(candidate).items()
                 if not _skipped(k)}
    for path in sorted(set(base_flat) | set(cand_flat)):
        base = base_flat.get(path)
        cand = cand_flat.get(path)
        if base is None:
            result.entries.append(DiffEntry(path, None, cand, "added"))
            continue
        if cand is None:
            result.entries.append(DiffEntry(path, base, None, "removed"))
            continue
        status, gated = _classify(path, base, cand, config)
        result.entries.append(DiffEntry(path, base, cand, status, gated))
    return result
