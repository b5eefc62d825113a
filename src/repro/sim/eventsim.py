"""Discrete-event cross-validation of the pipeline scheduler.

``schedule_pipeline`` computes stage placements with a closed-form forward
recurrence.  This module re-derives the same schedule with an explicit
discrete-event simulation -- resources as FIFO servers, stage completions
as events on a heap -- and the test suite asserts the two agree exactly on
arbitrary stage streams.  If a future change to the recurrence violates
the queueing semantics, the property test catches it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .pipeline import StageTimes

#: stage name -> (resource it occupies, index in the per-instruction chain)
_STAGES = ("id", "ld", "ex", "rd", "wb")
_RESOURCE_OF = {"id": "decoder", "ld": "ld_channel", "ex": "ffu",
                "rd": "lfu", "wb": "wb_channel"}


@dataclass
class _Task:
    inst: int
    stage: str
    duration: float
    start: float = -1.0
    end: float = -1.0


class EventDrivenPipeline:
    """Explicit DES over the five-stage FISA pipeline."""

    def __init__(self, stages: List[StageTimes], use_concatenation: bool = True):
        self.stages = stages
        self.use_concatenation = use_concatenation

    def run(self) -> Dict[Tuple[int, str], Tuple[float, float]]:
        """Returns {(instruction, stage): (start, end)}."""
        tasks: Dict[Tuple[int, str], _Task] = {}
        for i, st in enumerate(self.stages):
            durations = {
                "id": st.decode,
                "ld": st.load,
                "ex": self._ex_duration(i, st),
                "rd": st.reduce,
                "wb": st.writeback,
            }
            for name in _STAGES:
                tasks[(i, name)] = _Task(i, name, durations[name])

        resource_free: Dict[str, float] = {r: 0.0 for r in _RESOURCE_OF.values()}
        done: Dict[Tuple[int, str], float] = {}
        counter = itertools.count()
        # Event heap of candidate start times; tasks are released in strict
        # (instruction, stage-chain) order per resource, matching the
        # in-order issue of the closed form.
        pending = sorted(tasks.values(), key=lambda t: (t.inst,
                                                        _STAGES.index(t.stage)))
        now = 0.0
        for task in pending:
            ready = self._ready_time(task, done)
            resource = _RESOURCE_OF[task.stage]
            start = max(ready, resource_free[resource])
            end = start + task.duration
            resource_free[resource] = end
            task.start, task.end = start, end
            done[(task.inst, task.stage)] = end
            now = max(now, end)
        return {key: (t.start, t.end) for key, t in tasks.items()}

    def _ex_duration(self, i: int, st: StageTimes) -> float:
        if self.use_concatenation and i > 0 and st.pre_assignable:
            return max(0.0, st.exec - st.exec_fill)
        return st.exec

    def _ready_time(self, task: _Task,
                    done: Dict[Tuple[int, str], float]) -> float:
        idx = _STAGES.index(task.stage)
        ready = 0.0
        if idx > 0:
            ready = done[(task.inst, _STAGES[idx - 1])]
        if task.stage == "ld":
            stall_on = self.stages[task.inst].stall_on
            if stall_on is not None and (stall_on, "wb") in done:
                ready = max(ready, done[(stall_on, "wb")])
        return ready

    def total_time(self) -> float:
        placements = self.run()
        return max((end for (_, stage), (_, end) in placements.items()
                    if stage == "wb"), default=0.0)

    def idle_causes(self) -> Dict[str, float]:
        """Per-resource idle seconds in front of real work, re-derived from
        the DES placements (same ``resource.cause`` keys as
        :attr:`repro.sim.pipeline.PipelineSchedule.idle_causes`)."""
        placements = self.run()
        out: Dict[str, float] = {}

        def charge(key: str, seconds: float) -> None:
            if seconds > 0.0:
                out[key] = out.get(key, 0.0) + seconds

        free: Dict[str, float] = {r: 0.0 for r in _RESOURCE_OF.values()}
        for i, st in enumerate(self.stages):
            id_end = placements[(i, "id")][1]
            ld_start = placements[(i, "ld")][0]
            if st.load > 0.0:
                stall_end = None
                if st.stall_on is not None and (st.stall_on, "wb") in placements:
                    stall_end = placements[(st.stall_on, "wb")][1]
                cause = ("dma_ld.raw_stall"
                         if stall_end is not None and stall_end >= id_end
                         else "dma_ld.decode_wait")
                charge(cause, ld_start - free["ld_channel"])
            if self._ex_duration(i, st) > 0.0:
                charge("ffu.operand_wait",
                       placements[(i, "ex")][0] - free["ffu"])
            if st.reduce > 0.0:
                charge("lfu.exec_wait", placements[(i, "rd")][0] - free["lfu"])
            if st.writeback > 0.0:
                charge("dma_wb.upstream_wait",
                       placements[(i, "wb")][0] - free["wb_channel"])
            for stage in _STAGES:
                free[_RESOURCE_OF[stage]] = placements[(i, stage)][1]
        return out


def cross_validate(stages: List[StageTimes],
                   use_concatenation: bool = True,
                   tolerance: float = 1e-9) -> Tuple[bool, float, float]:
    """Run both schedulers; returns (agree, closed_form_total, des_total)."""
    from .pipeline import schedule_pipeline

    closed = schedule_pipeline(stages, use_concatenation)
    des = EventDrivenPipeline(stages, use_concatenation)
    des_total = des.total_time()
    return (abs(closed.total_time - des_total) <= tolerance,
            closed.total_time, des_total)
