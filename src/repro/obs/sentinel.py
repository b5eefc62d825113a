"""Perf-trend sentinel: statistical regression detection over run history.

``tools/perf_gate.py`` diffs each run against a single hand-committed
baseline -- a point-in-time check that drifts stale and cannot tell a
one-off blip from a trend.  The sentinel instead reads the run-history
store (:mod:`repro.obs.history`) and asks, per
``(benchmark, machine, metric)`` series, whether the *latest* point is
statistically out of family with its own recent past:

* **Step detector** -- robust z-score of the latest value against the
  rolling median of the preceding window, with sigma = 1.4826 x MAD
  (the normal-consistent scaling).  Deterministic simulator metrics
  produce MAD = 0, so sigma is floored at
  ``max(rel_floor x |median|, abs_floor)`` -- a 5% step on a perfectly
  flat series still flags, femtosecond jitter does not.
* **Drift detector** -- a pure latest-vs-median z stays bounded (~1.6)
  on a steady ramp because the MAD inflates along with the drift, so the
  sentinel also compares the *newest half* of the window against the
  *oldest half* (median vs median, scaled by the oldest half's MAD).
  A gradual slope that never trips the step test accumulates here.

Both scores are direction-aware: each metric carries a **polarity**
(``up_bad`` for makespan/bytes/seconds, ``down_bad`` for
rates/throughput/speedups, ``neutral`` otherwise) so only movement in
the bad direction is a regression -- movement in the good direction is
reported as an improvement, never a failure.  Series shorter than the
warm-up floor are suppressed (``warmup``), so a fresh checkout with two
runs of history cannot cry wolf.

Exit contract mirrors ``repro diff`` / ``tools/perf_gate.py``:
0 = no regression, 2 = usage error, 3 = statistical regression.  The
result document (``repro.obs.sentinel`` v1) embeds the tail of each
series so the self-contained no-JS HTML report can draw sparklines.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Tuple

from .history import RunHistory

SENTINEL_SCHEMA = "repro.obs.sentinel"
SENTINEL_SCHEMA_VERSION = 1

#: normal-consistency constant: sigma ~= 1.4826 * MAD for Gaussian data.
MAD_SIGMA = 1.4826

#: metric-name glob -> polarity; first match wins.  ``up_bad`` means an
#: increase is a regression (time, bytes); ``down_bad`` means a decrease
#: is (rates, throughput, speedups); ``neutral`` is informational only.
POLARITY_TABLE: Tuple[Tuple[str, str], ...] = (
    ("makespan_s", "up_bad"),
    ("compile_s", "up_bad"),
    ("*_time_s", "up_bad"),
    ("attr_*_s", "up_bad"),
    ("peak_live_bytes", "up_bad"),
    ("root_traffic_bytes", "up_bad"),
    ("*_bytes", "up_bad"),
    ("attained_ops", "down_bad"),
    ("peak_fraction", "down_bad"),
    ("*_hit_rate", "down_bad"),
    ("*_rate", "down_bad"),
    ("*speedup", "down_bad"),
)


def metric_polarity(metric: str) -> str:
    """``up_bad`` / ``down_bad`` / ``neutral`` for a metric name."""
    for pattern, polarity in POLARITY_TABLE:
        if fnmatchcase(metric, pattern):
            return polarity
    return "neutral"


@dataclass(frozen=True)
class SentinelConfig:
    """Tunables for the detector (CLI: ``--window`` / ``--threshold``)."""

    #: how many preceding points form the rolling baseline.
    window: int = 10
    #: robust z-score above which a bad-direction move is a regression.
    threshold: float = 3.0
    #: minimum baseline points before verdicts are issued (warm-up
    #: suppression below this).
    min_points: int = 5
    #: sigma floor as a fraction of |median| (deterministic series).
    rel_floor: float = 1e-3
    #: absolute sigma floor (series whose median is ~0).
    abs_floor: float = 1e-12


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _mad(values: Sequence[float], center: Optional[float] = None) -> float:
    if center is None:
        center = _median(values)
    return _median([abs(v - center) for v in values])


def _sigma(mad: float, median: float, config: SentinelConfig) -> float:
    return max(MAD_SIGMA * mad, config.rel_floor * abs(median),
               config.abs_floor)


def detect_series(values: Sequence[float],
                  config: SentinelConfig = SentinelConfig()) -> Dict[str, object]:
    """Verdict for one series (oldest -> newest), polarity-agnostic.

    Returns ``{status, step_z, drift_z, median, mad, latest, n}`` where
    ``status`` is ``warmup`` (not enough baseline), ``ok`` (in family),
    or ``high`` / ``low`` (latest is out of family in that direction --
    the caller maps direction to regression/improvement via polarity).
    The z-scores are *signed*: positive means the newer data is higher.
    """
    n = len(values)
    if n < config.min_points + 1:
        return {"status": "warmup", "step_z": 0.0, "drift_z": 0.0,
                "median": _median(values) if values else 0.0,
                "mad": 0.0, "latest": values[-1] if values else 0.0, "n": n}
    latest = values[-1]
    baseline = list(values[max(0, n - 1 - config.window):n - 1])
    median = _median(baseline)
    mad = _mad(baseline, median)
    step_z = (latest - median) / _sigma(mad, median, config)

    # Drift: newest half (including the latest point) vs oldest half of
    # the same window+1 tail.
    tail = list(values[max(0, n - 1 - config.window):])
    half = len(tail) // 2
    drift_z = 0.0
    if half >= 2:
        old, new = tail[:half], tail[-half:]
        old_median = _median(old)
        old_sigma = _sigma(_mad(old, old_median), old_median, config)
        drift_z = (_median(new) - old_median) / old_sigma

    worst = step_z if abs(step_z) >= abs(drift_z) else drift_z
    if abs(worst) > config.threshold:
        status = "high" if worst > 0 else "low"
    else:
        status = "ok"
    return {"status": status, "step_z": step_z, "drift_z": drift_z,
            "median": median, "mad": mad, "latest": latest, "n": n}


#: how many trailing points each result entry embeds (sparkline data).
_TAIL_POINTS = 60


@dataclass
class SentinelEntry:
    """One series verdict, ready for table / JSON / HTML rendering."""

    benchmark: str
    machine: str
    metric: str
    polarity: str
    #: ``regression`` / ``improvement`` / ``ok`` / ``warmup`` / ``neutral``
    status: str
    step_z: float
    drift_z: float
    median: float
    latest: float
    n: int
    values: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "machine": self.machine,
            "metric": self.metric,
            "polarity": self.polarity,
            "status": self.status,
            "step_z": self.step_z,
            "drift_z": self.drift_z,
            "median": self.median,
            "latest": self.latest,
            "n": self.n,
            "values": self.values,
        }


@dataclass
class SentinelResult:
    """Every analyzed series plus the aggregate exit code."""

    entries: List[SentinelEntry]
    config: SentinelConfig

    @property
    def regressions(self) -> List[SentinelEntry]:
        return [e for e in self.entries if e.status == "regression"]

    @property
    def exit_code(self) -> int:
        return 3 if self.regressions else 0


def _verdict(polarity: str, raw_status: str) -> str:
    if raw_status in ("warmup", "ok"):
        return raw_status
    if polarity == "neutral":
        return "neutral"
    bad_high = polarity == "up_bad"
    if (raw_status == "high") == bad_high:
        return "regression"
    return "improvement"


def analyze_history(
    history: RunHistory,
    config: SentinelConfig = SentinelConfig(),
    benchmark: Optional[str] = None,
    machine: Optional[str] = None,
    metric_glob: Optional[str] = None,
) -> SentinelResult:
    """Run the detector over every matching series of a history store."""
    entries: List[SentinelEntry] = []
    for (bench, mach, metric), points in sorted(
            history.series(benchmark=benchmark, machine=machine).items()):
        if metric_glob and not fnmatchcase(metric, metric_glob):
            continue
        values = [v for _ts, v in points]
        verdict = detect_series(values, config)
        polarity = metric_polarity(metric)
        entries.append(SentinelEntry(
            benchmark=bench,
            machine=mach,
            metric=metric,
            polarity=polarity,
            status=_verdict(polarity, str(verdict["status"])),
            step_z=float(verdict["step_z"]),
            drift_z=float(verdict["drift_z"]),
            median=float(verdict["median"]),
            latest=float(verdict["latest"]),
            n=int(verdict["n"]),
            values=values[-_TAIL_POINTS:],
        ))
    result = SentinelResult(entries=entries, config=config)
    from ..telemetry import get_registry
    registry = get_registry()
    if registry.enabled:
        registry.set_gauge("sentinel.series", float(len(entries)))
        registry.set_gauge("sentinel.regressions",
                           float(len(result.regressions)))
    return result


def sentinel_document(result: SentinelResult) -> Dict[str, object]:
    """The ``repro.obs.sentinel`` v1 JSON document."""
    return {
        "schema": SENTINEL_SCHEMA,
        "v": SENTINEL_SCHEMA_VERSION,
        "config": {
            "window": result.config.window,
            "threshold": result.config.threshold,
            "min_points": result.config.min_points,
        },
        "series": len(result.entries),
        "regressions": len(result.regressions),
        "exit_code": result.exit_code,
        "entries": [e.to_dict() for e in result.entries],
    }


def format_table(result: SentinelResult) -> str:
    """Human-readable verdict table, regressions first."""
    order = {"regression": 0, "improvement": 1, "neutral": 2,
             "ok": 3, "warmup": 4}
    rows = sorted(result.entries,
                  key=lambda e: (order.get(e.status, 5), e.benchmark,
                                 e.metric))
    lines = [f"{'status':<12} {'benchmark':<16} {'machine':<16} "
             f"{'metric':<22} {'n':>4} {'step_z':>8} {'drift_z':>8} "
             f"{'median':>12} {'latest':>12}"]
    lines.append("-" * len(lines[0]))
    for e in rows:
        lines.append(
            f"{e.status:<12} {e.benchmark:<16.16} {e.machine:<16.16} "
            f"{e.metric:<22.22} {e.n:>4d} {e.step_z:>8.2f} "
            f"{e.drift_z:>8.2f} {e.median:>12.4g} {e.latest:>12.4g}")
    reg = len(result.regressions)
    lines.append("")
    lines.append(
        f"{len(result.entries)} series, {reg} regression"
        f"{'' if reg == 1 else 's'} "
        f"(window={result.config.window}, "
        f"threshold={result.config.threshold:g}, "
        f"warm-up below {result.config.min_points + 1} points)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# HTML trend report (self-contained, no JS -- the flamegraph idiom)
# ---------------------------------------------------------------------------

_STATUS_COLORS = {
    "regression": "#c0392b",
    "improvement": "#1e8449",
    "ok": "#566573",
    "warmup": "#95a5a6",
    "neutral": "#7d6608",
}


def _sparkline_svg(values: Sequence[float], color: str,
                   width: int = 220, height: int = 36) -> str:
    """Inline SVG polyline of a series, last point emphasized."""
    if len(values) < 2:
        return f'<svg width="{width}" height="{height}"></svg>'
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pad = 3
    n = len(values)
    coords = []
    for i, v in enumerate(values):
        x = pad + i * (width - 2 * pad) / (n - 1)
        y = height - pad - (v - lo) * (height - 2 * pad) / span
        coords.append(f"{x:.1f},{y:.1f}")
    last_x, last_y = coords[-1].split(",")
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline points="{" ".join(coords)}" fill="none" '
        f'stroke="{color}" stroke-width="1.5"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="2.5" fill="{color}"/>'
        "</svg>"
    )


def render_trend_html(result: SentinelResult,
                      title: str = "repro perf-trend sentinel") -> str:
    """Self-contained HTML trend report with per-metric sparklines."""
    order = {"regression": 0, "improvement": 1, "neutral": 2,
             "ok": 3, "warmup": 4}
    rows = sorted(result.entries,
                  key=lambda e: (order.get(e.status, 5), e.benchmark,
                                 e.metric))
    body: List[str] = []
    for e in rows:
        color = _STATUS_COLORS.get(e.status, "#566573")
        spark = _sparkline_svg(e.values, color)
        body.append(
            "<tr>"
            f'<td><span class="badge" style="background:{color}">'
            f"{html.escape(e.status)}</span></td>"
            f"<td>{html.escape(e.benchmark)}</td>"
            f"<td>{html.escape(e.machine)}</td>"
            f"<td><code>{html.escape(e.metric)}</code> "
            f'<span class="pol">({html.escape(e.polarity)})</span></td>'
            f'<td class="spark">{spark}</td>'
            f'<td class="num">{e.n}</td>'
            f'<td class="num">{e.step_z:.2f}</td>'
            f'<td class="num">{e.drift_z:.2f}</td>'
            f'<td class="num">{e.median:.4g}</td>'
            f'<td class="num">{e.latest:.4g}</td>'
            "</tr>")
    reg = len(result.regressions)
    summary = (f"{len(result.entries)} series &middot; {reg} regression"
               f"{'' if reg == 1 else 's'} &middot; "
               f"window={result.config.window}, "
               f"threshold={result.config.threshold:g}")
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>
body {{ font-family: system-ui, sans-serif; margin: 1.5rem; color: #1c2833; }}
h1 {{ font-size: 1.2rem; }}
.summary {{ color: #566573; margin-bottom: 1rem; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{ padding: 4px 10px; text-align: left; font-size: 0.85rem;
          border-bottom: 1px solid #eaecee; }}
td.num, th.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
td.spark svg {{ display: block; }}
.badge {{ color: #fff; border-radius: 3px; padding: 1px 7px;
          font-size: 0.75rem; }}
.pol {{ color: #95a5a6; font-size: 0.75rem; }}
code {{ font-size: 0.85rem; }}
</style>
</head>
<body>
<h1>{html.escape(title)}</h1>
<p class="summary">{summary}</p>
<table>
<thead><tr><th>status</th><th>benchmark</th><th>machine</th>
<th>metric</th><th>trend</th><th class="num">n</th>
<th class="num">step z</th><th class="num">drift z</th>
<th class="num">median</th><th class="num">latest</th></tr></thead>
<tbody>
{chr(10).join(body)}
</tbody>
</table>
</body>
</html>
"""
