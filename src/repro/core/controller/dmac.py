"""DMA Controller (DMAC).

One DMA engine per node moves operands between the node's local storage and
its parent's memory.  Requests are processed sequentially in list order
(matching the allocation-list design of Section 3.5); LD-stage loads,
WB-stage stores and broadcasts all contend for the same engine, which is
what the pipeline scheduler models as a single shared resource.

The DMAC also computes effective transfer rates: siblings share the parent
memory's bandwidth, so a private transfer runs at ``parent_bw / fanout``
(capped by the local memory's own bandwidth) while a broadcast pushes one
copy at the full parent rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .demotion import DMAKind, DMARequest


@dataclass
class TransferLog:
    """Aggregate traffic counters for one node over a simulation."""

    load_bytes: int = 0
    store_bytes: int = 0
    broadcast_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.load_bytes + self.store_bytes + self.broadcast_bytes


class DMAController:
    """Timing + accounting for one node's DMA engine."""

    def __init__(self, private_rate: float, broadcast_rate: float):
        if private_rate <= 0 or broadcast_rate <= 0:
            raise ValueError("rates must be positive")
        self.private_rate = private_rate
        self.broadcast_rate = broadcast_rate
        self.log = TransferLog()

    def transfer_time(self, requests: List[DMARequest]) -> float:
        """Seconds to service ``requests`` back-to-back on this engine."""
        seconds = 0.0
        for req in requests:
            if req.kind is DMAKind.BROADCAST:
                seconds += req.nbytes / self.broadcast_rate
                self.log.broadcast_bytes += req.nbytes
            elif req.kind is DMAKind.LOAD:
                seconds += req.nbytes / self.private_rate
                self.log.load_bytes += req.nbytes
            else:
                seconds += req.nbytes / self.private_rate
                self.log.store_bytes += req.nbytes
        return seconds
