"""Sequential Decomposer (SD).

SD fetches instructions from the instruction queue (IQ) and decomposes each
into a sequentially-executed list regarding the hardware limitation -- here,
that one step's working set must fit a recycled memory segment.  SD runs
asynchronously ahead of the rest of the pipeline, filling the sub-level
queue (SQ).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional

from ..decomposition import shrink_sequential
from ..isa import Instruction


class SequentialDecomposer:
    """IQ -> SQ transformer bounded by a working-set capacity."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.iq: Deque[Instruction] = deque()
        self.sq: Deque[Instruction] = deque()

    def push(self, instructions: Iterable[Instruction]) -> None:
        """Load input instructions into IQ."""
        self.iq.extend(instructions)

    def pump(self) -> int:
        """Decompose everything currently in IQ into SQ; returns #steps added."""
        added = 0
        while self.iq:
            inst = self.iq.popleft()
            steps = self.decompose(inst)
            self.sq.extend(steps)
            added += len(steps)
        return added

    def decompose(self, inst: Instruction) -> List[Instruction]:
        """Sequentially decompose one instruction to capacity."""
        return shrink_sequential(inst, self.capacity_bytes)

    def next_step(self) -> Optional[Instruction]:
        return self.sq.popleft() if self.sq else None

    def __len__(self) -> int:
        return len(self.sq)
