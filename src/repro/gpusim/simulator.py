"""GPU kernel-stream timing.

Each kernel costs a fixed launch latency (driver + framework runtime,
serialized on the host) plus the larger of its compute and DRAM times at
the device's sustained rates.  Multi-GPU systems run data-parallel: device
work divides across GPUs, but launches stay serialized on the host and
per-batch inputs cross the host link.

This is deliberately first-principles: the control-flow penalty the paper
reports for K-Means/LVQ emerges from launch counts, not from tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..core.isa import Instruction
from .device import GPUDevice
from .kernels import lower_to_kernels


@dataclass
class GPUSimReport:
    """Timing outcome of one FISA program on a GPU system."""

    device: str
    n_gpus: int
    total_time: float
    work: float
    kernel_count: int
    launch_time: float
    compute_time: float
    memory_time: float
    host_transfer_time: float
    by_kind: Dict[str, float] = field(default_factory=dict)

    @property
    def attained_ops(self) -> float:
        return self.work / self.total_time if self.total_time else 0.0

    @property
    def launch_fraction(self) -> float:
        return self.launch_time / self.total_time if self.total_time else 0.0


class GPUSimulator:
    """Times FISA programs on a GPU device model."""

    def __init__(self, device: GPUDevice, n_gpus: int = 1,
                 host_bandwidth: Optional[float] = None):
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        self.device = device
        self.n_gpus = n_gpus
        #: host->device link; None means inputs are resident (single-card
        #: benchmarks against graphics memory, as in Fig 15a)
        self.host_bandwidth = host_bandwidth

    def simulate(self, program: Sequence[Instruction]) -> GPUSimReport:
        kernels = lower_to_kernels(list(program), self.device)
        launch_time = 0.0
        busy_time = 0.0
        compute_time = 0.0
        memory_time = 0.0
        by_kind: Dict[str, float] = {}
        work = 0.0
        for k in kernels:
            work += k.flops
            rate = (self.device.effective_gemm_ops() if k.kind == "gemm"
                    else self.device.effective_simt_ops())
            t_compute = k.flops / (rate * self.n_gpus)
            t_memory = k.dram_bytes / (self.device.effective_bandwidth()
                                       * self.n_gpus)
            t_busy = max(t_compute, t_memory)
            t_launch = k.launches * self.device.kernel_launch_latency
            launch_time += t_launch
            busy_time += t_busy
            compute_time += t_compute
            memory_time += t_memory
            by_kind[k.kind] = by_kind.get(k.kind, 0.0) + t_busy + t_launch

        host_time = 0.0
        if self.host_bandwidth:
            seen = set()
            in_bytes = 0
            for inst in program:
                for r in inst.inputs:
                    t = r.tensor
                    if t.space == "global" and t.uid not in seen:
                        seen.add(t.uid)
                        in_bytes += t.nbytes // 2 * 4  # fp16 -> fp32
            host_time = in_bytes / self.host_bandwidth

        # launches serialize on the host; device work overlaps the PCIe
        # stream but not the launch gaps
        total = launch_time + max(busy_time, host_time)
        return GPUSimReport(
            device=self.device.name,
            n_gpus=self.n_gpus,
            total_time=total,
            work=work,
            kernel_count=sum(k.launches for k in kernels),
            launch_time=launch_time,
            compute_time=compute_time,
            memory_time=memory_time,
            host_transfer_time=host_time,
            by_kind=by_kind,
        )
