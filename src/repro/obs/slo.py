"""Live SLO rule engine on the metrics path.

A rule states the *service-level objective* -- the condition that should
hold -- against one counter-registry metric::

    sim.sig_cache.hits{machine=Cambricon-F1} > 100 for 5s as warm-cache
    plan.peak_live_bytes < 2e9
    store.zero_copy_reads >= 1

Grammar (:func:`parse_slo_rule`)::

    <metric>[{k=v,...}] <op> <bound> [for <N>s] [as <name>]

``<op>`` is one of ``<``, ``<=``, ``>``, ``>=``; the label selector
matches any series whose labels *include* every listed pair (an empty
selector matches all series of the metric).  A rule with no matching
series is "no data", which is never a violation -- arming rules before
the workload starts must not page anyone.

:class:`SLOEngine` evaluates its rules against the live registry (the
:class:`~repro.obs.server.MetricsServer` calls :meth:`SLOEngine.evaluate`
on every scrape, so the alert path needs no extra thread).  A violation
must *sustain* for the rule's window before the alert fires -- one bad
scrape is a blip, not an incident.  On fire the engine emits an
``alert`` event into the event log (severity ``error``) and bumps
``alerts.fired{rule=}``; on recovery it emits ``alert.clear`` (severity
``info``) and bumps ``alerts.cleared{rule=}``.  Two gauges keep the
exposition honest at all times: ``alerts.active`` (currently-firing
count, the ``repro_alerts_active`` series the acceptance criteria name)
and per-rule ``alerts.firing{rule=}`` 0/1 flags that ``repro top`` turns
into its alerts strip.  :meth:`SLOEngine.document` renders the
``repro.obs.alerts`` v1 JSON served at ``/alerts``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..telemetry.counters import CounterRegistry, format_series

ALERTS_SCHEMA = "repro.obs.alerts"
ALERTS_SCHEMA_VERSION = 1

_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda v, b: v < b,
    "<=": lambda v, b: v <= b,
    ">": lambda v, b: v > b,
    ">=": lambda v, b: v >= b,
}


@dataclass(frozen=True)
class SLORule:
    """One declarative objective: ``metric{labels} op bound [for N s]``."""

    name: str
    metric: str
    op: str
    bound: float
    labels: Tuple[Tuple[str, str], ...] = ()
    sustain_s: float = 0.0

    def holds(self, value: float) -> bool:
        return _OPS[self.op](value, self.bound)

    def spec(self) -> str:
        """The rule back in its source syntax (round-trips via parse)."""
        selector = ""
        if self.labels:
            inner = ",".join(f"{k}={v}" for k, v in self.labels)
            selector = f"{{{inner}}}"
        text = f"{self.metric}{selector} {self.op} {self.bound:g}"
        if self.sustain_s:
            text += f" for {self.sustain_s:g}s"
        return text


def parse_slo_rule(text: str) -> SLORule:
    """Parse ``<metric>[{k=v,...}] <op> <bound> [for <N>s] [as <name>]``.

    Raises :class:`ValueError` with a pointed message on bad syntax (the
    CLI maps that to exit 2).
    """
    raw = text.strip()
    name: Optional[str] = None
    if " as " in raw:
        raw, _, name_part = raw.rpartition(" as ")
        name = name_part.strip()
        if not name:
            raise ValueError(f"SLO rule {text!r}: empty name after 'as'")
        raw = raw.strip()
    sustain_s = 0.0
    if " for " in raw:
        raw, _, sustain_part = raw.rpartition(" for ")
        sustain_part = sustain_part.strip()
        if not sustain_part.endswith("s"):
            raise ValueError(
                f"SLO rule {text!r}: sustain window must end in 's' "
                f"(got {sustain_part!r})")
        try:
            sustain_s = float(sustain_part[:-1])
        except ValueError:
            raise ValueError(
                f"SLO rule {text!r}: bad sustain window {sustain_part!r}")
        if sustain_s < 0:
            raise ValueError(f"SLO rule {text!r}: negative sustain window")
        raw = raw.strip()
    # operator: try two-char forms first so '<=' never parses as '<'.
    op = None
    for candidate in ("<=", ">=", "<", ">"):
        if f" {candidate} " in raw:
            op = candidate
            break
    if op is None:
        raise ValueError(
            f"SLO rule {text!r}: expected one of < <= > >= "
            "between metric and bound")
    selector_part, _, bound_part = raw.partition(f" {op} ")
    try:
        bound = float(bound_part.strip())
    except ValueError:
        raise ValueError(f"SLO rule {text!r}: bad bound {bound_part.strip()!r}")
    selector_part = selector_part.strip()
    labels: List[Tuple[str, str]] = []
    metric = selector_part
    if "{" in selector_part:
        if not selector_part.endswith("}"):
            raise ValueError(f"SLO rule {text!r}: unterminated label selector")
        metric, _, inner = selector_part[:-1].partition("{")
        for pair in filter(None, (p.strip() for p in inner.split(","))):
            key, eq, value = pair.partition("=")
            if not eq or not key.strip():
                raise ValueError(
                    f"SLO rule {text!r}: label selector entries must be "
                    f"k=v (got {pair!r})")
            labels.append((key.strip(), value.strip().strip('"')))
    if not metric:
        raise ValueError(f"SLO rule {text!r}: missing metric name")
    return SLORule(
        name=name or metric,
        metric=metric,
        op=op,
        bound=bound,
        labels=tuple(sorted(labels)),
        sustain_s=sustain_s,
    )


@dataclass
class _RuleState:
    violating_since: Optional[float] = None
    firing: bool = False
    fired_at: Optional[float] = None
    #: worst offending series at last evaluation: (series_key, value)
    worst: Optional[Tuple[str, float]] = None


class SLOEngine:
    """Evaluates SLO rules against a registry; fires/clears alert events."""

    def __init__(
        self,
        rules: Sequence[SLORule],
        registry: CounterRegistry,
        event_log=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rules = list(rules)
        self.registry = registry
        self.event_log = event_log
        self.clock = clock
        self._state: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules}

    # -- matching -----------------------------------------------------------

    def _violations(self, rule: SLORule) -> List[Tuple[str, float]]:
        """Every matching series whose value breaks the objective."""
        out: List[Tuple[str, float]] = []
        want = dict(rule.labels)
        for inst in self.registry.series(rule.metric):
            if inst.name != rule.metric:
                continue
            have = dict(inst.labels)
            if any(have.get(k) != v for k, v in want.items()):
                continue
            value = inst.snapshot()
            if isinstance(value, dict):  # histogram: judge the mean
                value = value.get("mean", 0.0)
            if not isinstance(value, (int, float)):
                continue
            if not rule.holds(float(value)):
                out.append((format_series(inst.name, inst.labels),
                            float(value)))
        return out

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, now: Optional[float] = None) -> List[Dict[str, object]]:
        """One evaluation pass; returns the currently active alerts."""
        now = self.clock() if now is None else now
        for rule in self.rules:
            state = self._state[rule.name]
            violations = self._violations(rule)
            if violations:
                # worst = farthest from the bound in the bad direction
                state.worst = max(
                    violations,
                    key=lambda sv: abs(sv[1] - rule.bound))
                if state.violating_since is None:
                    state.violating_since = now
                sustained = now - state.violating_since >= rule.sustain_s
                if sustained and not state.firing:
                    state.firing = True
                    state.fired_at = now
                    self._emit("alert", "error", rule, state)
                    if self.registry.enabled:
                        self.registry.count("alerts.fired",
                                            labels={"rule": rule.name})
            else:
                if state.firing:
                    self._emit("alert.clear", "info", rule, state)
                    if self.registry.enabled:
                        self.registry.count("alerts.cleared",
                                            labels={"rule": rule.name})
                state.violating_since = None
                state.firing = False
                state.fired_at = None
                state.worst = None
        self._publish_gauges()
        return self.active()

    def _emit(self, event: str, severity: str, rule: SLORule,
              state: _RuleState) -> None:
        if self.event_log is None:
            return
        series, value = state.worst or ("-", 0.0)
        try:
            self.event_log.emit(
                "slo", event, severity=severity,
                rule=rule.name, spec=rule.spec(),
                series=series, value=value, bound=rule.bound)
        except Exception:  # alerting must never take the run down
            pass

    def _publish_gauges(self) -> None:
        if not self.registry.enabled:
            return
        active = sum(1 for s in self._state.values() if s.firing)
        self.registry.set_gauge("alerts.active", float(active))
        for rule in self.rules:
            self.registry.set_gauge(
                "alerts.firing", 1.0 if self._state[rule.name].firing else 0.0,
                labels={"rule": rule.name})

    # -- reading ------------------------------------------------------------

    def active(self) -> List[Dict[str, object]]:
        """The currently firing alerts, oldest first."""
        out = []
        now = self.clock()
        for rule in self.rules:
            state = self._state[rule.name]
            if not state.firing:
                continue
            series, value = state.worst or ("-", 0.0)
            out.append({
                "rule": rule.name,
                "spec": rule.spec(),
                "series": series,
                "value": value,
                "bound": rule.bound,
                "firing_for_s": (now - state.fired_at)
                if state.fired_at is not None else 0.0,
            })
        out.sort(key=lambda a: -a["firing_for_s"])
        return out

    def document(self) -> Dict[str, object]:
        """The ``repro.obs.alerts`` v1 JSON served at ``/alerts``."""
        return {
            "schema": ALERTS_SCHEMA,
            "v": ALERTS_SCHEMA_VERSION,
            "ts": time.time(),
            "rules": [rule.spec() + (f" as {rule.name}"
                                     if rule.name != rule.metric else "")
                      for rule in self.rules],
            "active": self.active(),
        }


def empty_alerts_document() -> Dict[str, object]:
    """What ``/alerts`` serves when no SLO engine is armed."""
    return {
        "schema": ALERTS_SCHEMA,
        "v": ALERTS_SCHEMA_VERSION,
        "ts": time.time(),
        "rules": [],
        "active": [],
    }
