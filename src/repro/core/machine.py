"""Cambricon-F machine instances (paper Table 6).

A machine is a list of :class:`LevelSpec` rows, top (L0) to leaf.  Every
node at level *i* has ``fanout`` FFU children that are level *i+1* nodes
with the same ISA -- the fractal von Neumann architecture.  Because all
siblings are identical, the whole machine is fully described by one row per
level, which is also what makes the recursive timing simulation cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

GB = 1 << 30
MB = 1 << 20
KB = 1 << 10
TOPS = 1e12
GOPS = 1e9


@dataclass(frozen=True)
class LevelSpec:
    """One hierarchy level (one row of Table 6).

    ``mem_bandwidth`` is the byte/s bandwidth of this node's local memory
    (which serves as the "global memory" of its children); ``peak_ops`` is
    the peak arithmetic throughput of the whole subtree rooted here.
    """

    name: str
    fanout: int  # number of FFU children; 0 marks the leaf accelerator
    n_lfus: int
    mem_bytes: int
    mem_bandwidth: float  # bytes / second
    peak_ops: float  # ops / second for the subtree

    @property
    def is_leaf(self) -> bool:
        return self.fanout == 0


@dataclass(frozen=True)
class Machine:
    """A Cambricon-F instance: hierarchy levels plus global toggles.

    The feature flags correspond to the Section 3.6 optimizations and exist
    so the ablation benchmarks can switch them off.
    """

    name: str
    levels: Sequence[LevelSpec]
    use_ttt: bool = True
    use_broadcast: bool = True
    use_concatenation: bool = True
    #: the paper's future work (Section 8): direct links between sibling
    #: FFUs.  When enabled, halo overlaps travel neighbour-to-neighbour and
    #: g(.) reductions run as a ring all-reduce among the FFUs instead of
    #: round-tripping through the parent's memory and LFUs.
    use_sibling_links: bool = False
    sibling_link_bandwidth: float = 64 * (1 << 30)  # bytes/s per link
    #: LFU throughput as a fraction of one child subtree's peak; LFUs are
    #: lightweight vector units, far below the FFU MAC arrays.
    lfu_relative_throughput: float = 0.25
    #: controller decode latency per instruction, seconds (1k cycles @1GHz).
    decode_latency: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("machine needs at least one level")
        if not self.levels[-1].is_leaf:
            raise ValueError("last level must be the leaf accelerator (fanout 0)")
        for lv in self.levels[:-1]:
            if lv.is_leaf:
                raise ValueError("only the last level may be a leaf")

    # -- structure ----------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, i: int) -> LevelSpec:
        return self.levels[i]

    def nodes_at(self, i: int) -> int:
        """Number of nodes at level ``i`` across the whole machine."""
        n = 1
        for lv in self.levels[:i]:
            n *= lv.fanout
        return n

    @property
    def total_cores(self) -> int:
        return self.nodes_at(self.depth - 1)

    @property
    def peak_ops(self) -> float:
        return self.levels[0].peak_ops

    @property
    def root_bandwidth(self) -> float:
        return self.levels[0].mem_bandwidth

    def with_features(self, **flags) -> "Machine":
        """Copy with Section-3.6 feature toggles changed (for ablations)."""
        return replace(self, **flags)

    def describe(self) -> str:
        rows = [f"{self.name}: {self.depth} levels, {self.total_cores} cores, "
                f"{self.peak_ops / TOPS:.1f} Tops peak"]
        for i, lv in enumerate(self.levels):
            rows.append(
                f"  L{i} {lv.name:<7} fanout={lv.fanout:<4} lfus={lv.n_lfus:<3} "
                f"mem={_fmt_bytes(lv.mem_bytes):>8} bw={lv.mem_bandwidth / GB:6.1f} GB/s "
                f"peak={lv.peak_ops / TOPS:8.3f} Tops"
            )
        return "\n".join(rows)


def _fmt_bytes(n: int) -> str:
    for unit, size in (("TB", 1 << 40), ("GB", GB), ("MB", MB), ("KB", KB)):
        if n >= size:
            return f"{n / size:.0f} {unit}"
    return f"{n} B"


#: Peak performance of one leaf Core: a 16x16 MAC array at 1 GHz, counting a
#: multiply and an add as two ops, derated to the paper's quoted 0.466 Tops
#: (956 Tops / 2048 cores -- the array loses a few percent to edge effects).
CORE_PEAK_OPS = 466.8e9


def cambricon_f1() -> Machine:
    """Cambricon-F1: the desktop-scale card (Table 6, bottom)."""
    return Machine(
        name="Cambricon-F1",
        levels=[
            LevelSpec("Chip", 1, 0, 32 * GB, 512 * GB, 32 * CORE_PEAK_OPS),
            LevelSpec("FMP", 32, 16, 8 * MB, 512 * GB, 32 * CORE_PEAK_OPS),
            LevelSpec("Core", 0, 0, 256 * KB, 80 * GB, CORE_PEAK_OPS),
        ],
    )


def cambricon_f100() -> Machine:
    """Cambricon-F100: the server-scale instance (Table 6, top)."""
    return Machine(
        name="Cambricon-F100",
        levels=[
            LevelSpec("Server", 4, 1, 1 << 40, 128 * GB, 2048 * CORE_PEAK_OPS),
            LevelSpec("Card", 2, 0, 32 * GB, 512 * GB, 512 * CORE_PEAK_OPS),
            LevelSpec("Chip", 8, 16, 256 * MB, 512 * GB, 256 * CORE_PEAK_OPS),
            LevelSpec("FMP", 32, 16, 8 * MB, 512 * GB, 32 * CORE_PEAK_OPS),
            LevelSpec("Core", 0, 0, 256 * KB, 80 * GB, CORE_PEAK_OPS),
        ],
    )


def custom_machine(
    name: str,
    fanouts: Sequence[int],
    mem_bytes: Sequence[int],
    bandwidths: Sequence[float],
    core_peak_ops: float = CORE_PEAK_OPS,
    n_lfus: Optional[Sequence[int]] = None,
) -> Machine:
    """Build an arbitrary hierarchy (used by the Table-4 design-space sweep).

    ``fanouts`` has one entry per non-leaf level; ``mem_bytes`` and
    ``bandwidths`` have one entry per level including the leaf.
    """
    depth = len(fanouts) + 1
    if len(mem_bytes) != depth or len(bandwidths) != depth:
        raise ValueError("mem_bytes and bandwidths must cover every level incl. leaf")
    lfus = list(n_lfus) if n_lfus is not None else [max(1, f // 2) for f in fanouts] + [0]
    cores_below = 1
    for f in fanouts:
        cores_below *= f
    levels: List[LevelSpec] = []
    remaining = cores_below
    for i, f in enumerate(fanouts):
        levels.append(
            LevelSpec(f"L{i}", f, lfus[i], int(mem_bytes[i]), float(bandwidths[i]),
                      remaining * core_peak_ops)
        )
        remaining //= f
    levels.append(
        LevelSpec("Core", 0, 0, int(mem_bytes[-1]), float(bandwidths[-1]), core_peak_ops)
    )
    return Machine(name=name, levels=levels)
