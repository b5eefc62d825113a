"""Bottleneck attribution: critical-path walks and stall taxonomy.

The timing simulator produces exact stage placements for every node of the
fractal hierarchy.  This module turns those placements into *answers*:

* :func:`critical_path` walks one node's pipeline schedule backwards from
  the final write-back and partitions the makespan into the stage that was
  executing on the critical path at every instant.  The walk is exact --
  the scheduler's forward recurrence guarantees every stage start equals
  one of its predecessors' ends (or t=0), so the returned segments tile
  ``[0, makespan]`` with no gaps.
* :func:`attribute_schedule` folds the walk into the four-way stall
  taxonomy of the paper's evaluation: **control** (ID / decoder),
  **dma** (LD + WB over the parent link), **compute** (EX on the FFUs)
  and **reduction** (RD on the LFUs), plus the EX seconds per
  instruction so the simulator can recursively expand a parent's
  compute-wait into the child level's own taxonomy.
* :class:`Attribution` wraps the resulting per-fractal-level breakdown
  (level seconds sum to the root makespan) together with per-level DMA
  bandwidth accounting and idle-cause rollups, and classifies the run
  (``dma``-bound, ``compute``-bound, ...).

Everything here is duck-typed against :mod:`repro.sim` dataclasses (the
same convention :mod:`repro.telemetry.report` uses), so this package
imports neither the simulator nor numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

#: the stall taxonomy (Fig-13 / Table-2 resources).  ``idle`` is a guard
#: bucket for float fallout of the walk; it is exactly 0.0 by construction.
CATEGORIES = ("control", "dma", "compute", "reduction", "idle")

#: pipeline stage -> taxonomy category
STAGE_CATEGORY = {
    "id": "control",
    "ld": "dma",
    "wb": "dma",
    "ex": "compute",
    "rd": "reduction",
}

#: predecessor candidates per stage: (stage, instruction-offset) pairs where
#: offset 0 means "same instruction" and -1 "previous instruction" (the
#: resource holder).  LD additionally considers the RAW-stall WB (handled
#: separately, it targets an arbitrary earlier instruction).
_PREDECESSORS = {
    "wb": (("rd", 0), ("wb", -1)),
    "rd": (("ex", 0), ("rd", -1)),
    "ex": (("ld", 0), ("ex", -1)),
    "ld": (("id", 0), ("ld", -1)),
    "id": (("id", -1),),
}


@dataclass(frozen=True)
class CriticalSegment:
    """One interval of the critical path: ``stage`` of instruction ``index``
    was the thing the makespan was waiting on during ``[start, end]``."""

    stage: str
    index: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


#: stage -> the reader of its placed interval on a scheduled instruction
_INTERVAL = {stage: attrgetter(f"{stage}_iv") for stage in _PREDECESSORS}


def _walk(instructions: Sequence, stages: Sequence
          ) -> List[Tuple[str, int, float, float]]:
    """The critical path, latest segment first, as ``(stage, index, start,
    end)`` tuples (an ``idle`` gap has index -1): :func:`critical_path`
    without its segment objects."""
    n = len(instructions)
    if not n:
        return []
    wb = _INTERVAL["wb"]
    index = max(range(n), key=lambda k: wb(instructions[k]).end)
    stage = "wb"
    reverse: List[Tuple[str, int, float, float]] = []
    guard = 6 * n + 8
    while guard > 0:
        guard -= 1
        iv = _INTERVAL[stage](instructions[index])
        start = iv.start
        reverse.append((stage, index, start, iv.end))
        if start <= 0.0:
            break
        candidates = [(pred_stage, index + offset)
                      for pred_stage, offset in _PREDECESSORS[stage]
                      if index + offset >= 0]
        if stage == "ld":
            stall_on = getattr(stages[index], "stall_on", None)
            if stall_on is not None and 0 <= stall_on < n:
                candidates.append(("wb", stall_on))
        chosen: Optional[Tuple[str, int]] = None
        best_end = float("-inf")
        best: Optional[Tuple[str, int]] = None
        for cand in candidates:
            end = _INTERVAL[cand[0]](instructions[cand[1]]).end
            if end == start and chosen is None:
                chosen = cand
            if end > best_end:
                best_end, best = end, cand
        if chosen is None:
            # Float-exactness guard: jump to the latest-finishing candidate
            # and book the (theoretical) gap as idle.
            if best is None or best_end >= start:
                break
            reverse.append(("idle", -1, best_end, start))
            chosen = best
        stage, index = chosen
    return reverse


def critical_path(instructions: Sequence, stages: Sequence) -> List[CriticalSegment]:
    """Exact critical path of one scheduled instruction stream.

    ``instructions`` are :class:`repro.sim.pipeline.InstructionSchedule`-like
    objects (``*_iv`` interval attributes); ``stages`` the matching
    :class:`StageTimes`-like inputs (only ``stall_on`` is read).  Returns
    segments ordered by time whose durations sum exactly to the makespan.
    """
    return [CriticalSegment(*segment)
            for segment in reversed(_walk(instructions, stages))]


def attribute_schedule(
    instructions: Sequence, stages: Sequence
) -> Tuple[Dict[str, float], List[Tuple[int, float]]]:
    """Fold the critical path into (taxonomy seconds, per-instruction EX).

    Returns ``(totals, exec_path)`` where ``totals`` maps every category in
    :data:`CATEGORIES` to critical-path seconds (summing to the makespan)
    and ``exec_path`` lists ``(instruction_index, seconds)`` for the EX
    segments -- the part a parent level can delegate to its child level.
    The fold runs over :func:`critical_path`'s segments in time order, as
    plain tuples.
    """
    totals = dict.fromkeys(CATEGORIES, 0.0)
    exec_path: List[Tuple[int, float]] = []
    for stage, index, start, end in reversed(_walk(instructions, stages)):
        duration = end - start
        totals[STAGE_CATEGORY.get(stage, "idle")] += duration
        if stage == "ex" and duration > 0.0:
            exec_path.append((index, duration))
    return totals, exec_path


def merge_scaled(
    dst: Dict[int, Dict[str, float]],
    src: Dict[int, Dict[str, float]],
    scales: Sequence[float],
) -> None:
    """``dst[level][cat] += scale * src[level][cat]`` for every entry, once
    per scale in ``scales``, in order (the sums are those of one call per
    scale)."""
    for level, cats in src.items():
        acc = dst.setdefault(level, dict.fromkeys(CATEGORIES, 0.0))
        for cat, seconds in cats.items():
            total = acc.get(cat, 0.0)
            for scale in scales:
                total = total + scale * seconds
            acc[cat] = total


# ---------------------------------------------------------------------------
# Whole-run attribution
# ---------------------------------------------------------------------------


@dataclass
class Attribution:
    """Makespan decomposition of one simulation, per fractal level.

    ``per_level[L][category]`` is critical-path seconds attributed to the
    taxonomy category at hierarchy level ``L``; summed over all levels and
    categories this equals ``makespan`` (to float precision).  ``dma``
    holds per-level DMA engine accounting (bytes over the parent link,
    busy seconds, effective bandwidth) and ``idle`` per-level idle-cause
    seconds -- both follow the simulator's representative-child semantics.
    """

    makespan: float
    per_level: Dict[int, Dict[str, float]] = field(default_factory=dict)
    dma: Dict[int, Dict[str, float]] = field(default_factory=dict)
    idle: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def totals(self) -> Dict[str, float]:
        """Taxonomy seconds summed over every level (sums to makespan)."""
        out = dict.fromkeys(CATEGORIES, 0.0)
        for cats in self.per_level.values():
            for cat, seconds in cats.items():
                out[cat] = out.get(cat, 0.0) + seconds
        return out

    def fractions(self) -> Dict[str, float]:
        """Taxonomy totals as fractions of the makespan."""
        if self.makespan <= 0.0:
            return dict.fromkeys(CATEGORIES, 0.0)
        return {cat: seconds / self.makespan
                for cat, seconds in self.totals().items()}

    def dominant(self) -> str:
        """The bounding resource: category with the largest share."""
        totals = self.totals()
        return max((c for c in CATEGORIES if c != "idle"),
                   key=lambda c: totals.get(c, 0.0))

    def classify(self) -> str:
        """Human tag, e.g. ``"dma-bound"`` (the Fig-13 vocabulary)."""
        return f"{self.dominant()}-bound"

    def dominant_per_level(self) -> Dict[int, str]:
        """Bounding category of each level's own attributed time."""
        out: Dict[int, str] = {}
        for level, cats in sorted(self.per_level.items()):
            if any(v > 0.0 for v in cats.values()):
                out[level] = max((c for c in CATEGORIES if c != "idle"),
                                 key=lambda c: cats.get(c, 0.0))
        return out

    def to_dict(self) -> Dict[str, object]:
        """The RunReport v2 ``attribution`` section."""
        return {
            "makespan_s": self.makespan,
            "dominant": self.dominant(),
            "classification": self.classify(),
            "totals_s": self.totals(),
            "fractions": self.fractions(),
            "per_level_s": {
                str(level): dict(cats)
                for level, cats in sorted(self.per_level.items())
            },
            "per_level_dominant": {
                str(level): cat
                for level, cat in self.dominant_per_level().items()
            },
            "dma": {
                str(level): dict(acc)
                for level, acc in sorted(self.dma.items())
            },
            "idle_s": {
                str(level): dict(causes)
                for level, causes in sorted(self.idle.items())
            },
        }


def attribute_report(sim_report) -> Attribution:
    """Build an :class:`Attribution` from a finished ``SimReport``.

    The simulator computes the per-level critical-path breakdown bottom-up
    during :meth:`simulate` (cached child nodes carry their own); this
    merely packages the root's view with the DMA/idle accounting.
    """
    root = sim_report.root
    per_level = {level: dict(cats)
                 for level, cats in getattr(root, "attribution", {}).items()}
    dma: Dict[int, Dict[str, float]] = {}
    for level, acc in getattr(root, "per_level_dma", {}).items():
        entry = dict(acc)
        bytes_moved = entry.get("load_bytes", 0.0) + entry.get("store_bytes", 0.0)
        entry["bytes"] = bytes_moved
        busy = entry.get("busy_s", 0.0)
        entry["effective_bandwidth"] = bytes_moved / busy if busy > 0 else 0.0
        if sim_report.total_time > 0:
            entry["busy_fraction_of_makespan"] = busy / sim_report.total_time
        dma[level] = entry
    idle = {level: dict(causes)
            for level, causes in getattr(root, "per_level_idle", {}).items()}
    return Attribution(
        makespan=sim_report.total_time,
        per_level=per_level,
        dma=dma,
        idle=idle,
    )


def attribution_section(sim_report) -> Optional[Dict[str, object]]:
    """RunReport section builder (None when the report predates attribution)."""
    if not getattr(getattr(sim_report, "root", None), "attribution", None):
        return None
    return attribute_report(sim_report).to_dict()
