"""Reduction Controller (RC).

RC normally performs g(.) reduction operations on the node's LFUs during
the RD pipeline stage.  When it predicts a significantly shorter execution
on the FFUs -- or the node has no LFUs at all -- it instead writes the
operation into the commission register; PD appends the commissioned
operation to the FFU stream at the start of the next FISA cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence

from ..isa import Instruction


class ReductionTarget(enum.Enum):
    LFU = "lfu"
    COMMISSION = "commission"  # delegated to FFUs via the commission register


@dataclass(frozen=True)
class Commission:
    """RC's routing decision for the reductions of one FISA cycle."""

    target: ReductionTarget
    instructions: List[Instruction]
    predicted_lfu_time: float
    predicted_ffu_time: float

    @property
    def work(self) -> int:
        return sum(i.work() for i in self.instructions)


class ReductionController:
    """Routes reduction instructions between LFUs and FFUs.

    ``speedup_threshold`` is the factor by which the FFU path must beat the
    LFU path before RC pays the commission overhead (the paper only
    commissions for "significantly reduced execution time").
    """

    def __init__(
        self,
        lfu_ops_per_s: float,
        ffu_ops_per_s: float,
        speedup_threshold: float = 4.0,
    ):
        self.lfu_ops_per_s = lfu_ops_per_s
        self.ffu_ops_per_s = ffu_ops_per_s
        self.speedup_threshold = speedup_threshold

    def route(self, reductions: Sequence[Instruction]) -> Commission:
        """Decide where this cycle's g(.) instructions execute."""
        insts = list(reductions)
        work = sum(i.work() for i in insts)
        lfu_time = work / self.lfu_ops_per_s if self.lfu_ops_per_s > 0 else float("inf")
        ffu_time = work / self.ffu_ops_per_s if self.ffu_ops_per_s > 0 else float("inf")
        if not insts:
            return Commission(ReductionTarget.LFU, insts, 0.0, 0.0)
        lfu_unavailable = self.lfu_ops_per_s <= 0
        ffu_wins = ffu_time * self.speedup_threshold < lfu_time
        if lfu_unavailable or ffu_wins:
            return Commission(ReductionTarget.COMMISSION, insts, lfu_time, ffu_time)
        return Commission(ReductionTarget.LFU, insts, lfu_time, ffu_time)
