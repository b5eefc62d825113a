"""The 5-stage FISA pipeline scheduler (paper Section 3.4, Fig 7/8).

Stages per instruction: Instruction Decoding (ID), Loading (LD), Execution
(EX), Reduction (RD), Writing Back (WB).  Resources: the decoder serializes
ID; one DMA engine serializes LD, WB and broadcasts; the FFU array
serializes EX across successive instructions (all FFUs work on one FISA
instruction at a time); the LFUs serialize RD.

Pipeline concatenation (Section 3.6) pre-assigns the next instruction's
fractal parts to the FFUs one FISA cycle early, so the child pipelines do
not drain and refill at FISA-cycle boundaries: for pre-assignable
instructions the child's startup (fill) time is overlapped with the
previous EX, shortening the observed EX latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class StageTimes:
    """Input durations (seconds) for one instruction's five stages."""

    decode: float = 0.0
    load: float = 0.0
    exec: float = 0.0
    reduce: float = 0.0
    writeback: float = 0.0
    #: LD may not begin before the WB of this earlier instruction completes
    #: (an unforwarded read-after-write hazard found by DD).
    stall_on: Optional[int] = None
    #: portion of ``exec`` that is child pipeline fill, hidden when this
    #: instruction is pre-assigned (pipeline concatenation).
    exec_fill: float = 0.0
    pre_assignable: bool = True
    label: str = ""


@dataclass
class Interval:
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class InstructionSchedule:
    """Placed intervals of one instruction's stages."""

    index: int
    label: str
    id_iv: Interval
    ld_iv: Interval
    ex_iv: Interval
    rd_iv: Interval
    wb_iv: Interval


#: idle-cause keys recorded by :func:`schedule_pipeline`: ``resource.cause``
#: where the cause names what the resource was *waiting on* before a stage
#: with actual work could begin.
IDLE_CAUSES = (
    "dma_ld.raw_stall",      # LD held back by an unforwarded RAW hazard (WB)
    "dma_ld.decode_wait",    # LD channel starved behind the decoder
    "ffu.operand_wait",      # FFUs starved waiting for operands (LD)
    "lfu.exec_wait",         # LFUs starved waiting for EX results
    "dma_wb.upstream_wait",  # WB channel starved behind EX/RD completion
)


@dataclass
class PipelineSchedule:
    """Result of scheduling a node's instruction stream."""

    instructions: List[InstructionSchedule] = field(default_factory=list)
    total_time: float = 0.0
    dma_busy: float = 0.0
    ffu_busy: float = 0.0
    lfu_busy: float = 0.0
    decoder_busy: float = 0.0
    #: time until the first EX begins -- the node's own fill latency, which a
    #: *parent* applying concatenation can overlap away.
    startup_time: float = 0.0
    #: seconds each resource sat idle *in front of real work*, keyed by
    #: ``resource.cause`` (see :data:`IDLE_CAUSES`).  Gaps before zero-width
    #: stages are not charged -- an idle DMA channel with nothing queued is
    #: not a stall.
    idle_causes: Dict[str, float] = field(default_factory=dict)

    def utilization(self, resource: str = "ffu") -> float:
        busy = {"ffu": self.ffu_busy, "dma": self.dma_busy,
                "lfu": self.lfu_busy, "decoder": self.decoder_busy}[resource]
        return busy / self.total_time if self.total_time > 0 else 0.0


def schedule_pipeline(
    stages: List[StageTimes], use_concatenation: bool = True
) -> PipelineSchedule:
    """Greedy in-order scheduling of the FISA pipeline.

    Instructions issue in order; each stage starts when (a) the previous
    stage of the same instruction is done, (b) its resource is free from the
    previous instruction, and (c) any RAW stall is resolved.
    """
    out = PipelineSchedule()
    # The DMA engine is duplex: loads and write-backs ride separate
    # channels, each in FISA order.  A strictly single-FIFO DMA would chain
    # LD(i+1) behind WB(i) behind EX(i) and forfeit all load/compute
    # overlap, defeating the three recycled memory segments whose whole
    # purpose is to keep that many instructions in flight.
    dec_free = ld_free = wb_free = ffu_free = lfu_free = 0.0
    wb_end: Dict[int, float] = {}

    def charge_idle(key: str, seconds: float) -> None:
        if seconds > 0.0:
            out.idle_causes[key] = out.idle_causes.get(key, 0.0) + seconds

    for i, st in enumerate(stages):
        id_start = dec_free
        id_end = id_start + st.decode
        dec_free = id_end

        ld_ready = id_end
        stall_end: Optional[float] = None
        if st.stall_on is not None and st.stall_on in wb_end:
            stall_end = wb_end[st.stall_on]
            ld_ready = max(ld_ready, stall_end)
        ld_start = max(ld_ready, ld_free)
        if st.load > 0.0:
            cause = ("dma_ld.raw_stall"
                     if stall_end is not None and stall_end >= id_end
                     else "dma_ld.decode_wait")
            charge_idle(cause, ld_start - ld_free)
        ld_end = ld_start + st.load
        ld_free = ld_end

        ex_dur = st.exec
        if use_concatenation and i > 0 and st.pre_assignable:
            ex_dur = max(0.0, st.exec - st.exec_fill)
        ex_start = max(ld_end, ffu_free)
        if ex_dur > 0.0:
            charge_idle("ffu.operand_wait", ex_start - ffu_free)
        ex_end = ex_start + ex_dur
        ffu_free = ex_end

        rd_start = max(ex_end, lfu_free)
        if st.reduce > 0.0:
            charge_idle("lfu.exec_wait", rd_start - lfu_free)
        rd_end = rd_start + st.reduce
        lfu_free = rd_end

        wb_start = max(rd_end, wb_free)
        if st.writeback > 0.0:
            charge_idle("dma_wb.upstream_wait", wb_start - wb_free)
        wb_finish = wb_start + st.writeback
        wb_free = wb_finish
        wb_end[i] = wb_finish

        out.instructions.append(
            InstructionSchedule(
                index=i,
                label=st.label,
                id_iv=Interval(id_start, id_end),
                ld_iv=Interval(ld_start, ld_end),
                ex_iv=Interval(ex_start, ex_end),
                rd_iv=Interval(rd_start, rd_end),
                wb_iv=Interval(wb_start, wb_finish),
            )
        )
        out.decoder_busy += st.decode
        out.dma_busy += st.load + st.writeback
        out.ffu_busy += ex_dur
        out.lfu_busy += st.reduce

    if out.instructions:
        out.total_time = max(s.wb_iv.end for s in out.instructions)
        out.startup_time = out.instructions[0].ex_iv.start
    return out
