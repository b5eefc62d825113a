"""Recursive fractal timing simulator.

Every node runs the real controller components (SequentialDecomposer,
DemotionDecoder, ParallelDecomposer, ReductionController) against its level
spec, then schedules the resulting stage durations on the 5-stage FISA
pipeline.  A non-leaf instruction's EX latency is the total time of the
recursively simulated child node; since all FFUs of a node execute
structurally identical sub-instructions in lockstep, one representative
child is simulated per distinct instruction signature and the result cached,
making even the 2048-core Cambricon-F100 cheap to simulate.

Bandwidth model: a child's DMA engine moves operands between parent memory
and local storage at ``min(own memory bandwidth, parent bandwidth / parent
fanout)`` -- siblings contend for the parent port.  A *broadcast* operand
(shared by every sibling, identified by the parent's PD) is transferred once
at the full parent rate when data broadcasting is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import groupby
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union)

from .. import obs, telemetry
from ..core.controller.demotion import DemotionDecoder
from ..core.controller.parallel import ParallelDecomposer, ParallelPlan
from ..core.controller.reduction import ReductionController, ReductionTarget
from ..core.controller.sequential import SequentialDecomposer
from ..core.decomposition.base import _operand_moves, _template_key
from ..core.gcpause import gc_paused
from ..core.isa import Instruction
from ..core.machine import Machine
from ..core.memory.allocator import NodeMemoryManager
from ..core.memory.ttt import TensorTranspositionTable
from ..core.tensor import Region
from ..perf.attribution import CATEGORIES, attribute_schedule, merge_scaled
from .pipeline import PipelineSchedule, StageTimes, schedule_pipeline

#: bytes moved through local memory per reduction op (two reads + one write
#: of 2-byte elements) -- caps effective reduction throughput by bandwidth.
_REDUCTION_BYTES_PER_OP = 6.0
#: ops each lightweight LFU sustains (32-lane vector unit at 1 GHz).
LFU_OPS_EACH = 64e9
#: leaf decoder latency; leaves have trivial decoders.
_LEAF_DECODE = 1e-7
#: steps before the per-node plan-summary cache engages (lets the
#: residency/forwarding context reach steady state first).
_PLAN_WARMUP = 64


@dataclass
class NodeStats:
    """Aggregated controller statistics over one node simulation (and the
    representative child path below it)."""

    steps: int = 0
    preassignable: int = 0
    ttt_hits: int = 0
    ttt_lookups: int = 0
    elided_bytes: int = 0
    streamed_bytes: int = 0
    commissioned: int = 0
    raw_stalls: int = 0
    forwarded_stores: int = 0
    forwarded_store_bytes: int = 0

    def merge(self, other: "NodeStats", times: int = 1) -> None:
        """Add ``other``'s counts ``times`` over."""
        self.steps += other.steps * times
        self.preassignable += other.preassignable * times
        self.ttt_hits += other.ttt_hits * times
        self.ttt_lookups += other.ttt_lookups * times
        self.elided_bytes += other.elided_bytes * times
        self.streamed_bytes += other.streamed_bytes * times
        self.commissioned += other.commissioned * times
        self.raw_stalls += other.raw_stalls * times
        self.forwarded_stores += other.forwarded_stores * times
        self.forwarded_store_bytes += other.forwarded_store_bytes * times

    @property
    def preassign_fraction(self) -> float:
        return self.preassignable / self.steps if self.steps else 0.0


@dataclass
class NodeResult:
    """Timing of one node executing one (sub-)program."""

    level: int
    total_time: float
    startup_time: float
    load_bytes: int  # bytes pulled from the parent by this node
    store_bytes: int  # bytes written back to the parent
    work: int
    #: load bytes broken down by transfer class (broadcast vs private vs
    #: neighbour sibling links)
    bc_load_bytes: int = 0
    priv_load_bytes: int = 0
    sibling_load_bytes: int = 0
    #: bytes this node's memory port served to its children (fan-out aware:
    #: private transfers counted once per child, broadcasts once in total)
    served_bytes: int = 0
    per_level_busy: Dict[int, Dict[str, float]] = field(default_factory=dict)
    own_segments: List[Tuple[str, float, float]] = field(default_factory=list)
    child_embeds: List[Tuple[float, "NodeResult"]] = field(default_factory=list)
    stats: NodeStats = field(default_factory=NodeStats)
    #: critical-path stall taxonomy: {level: {category: seconds}} summing to
    #: ``total_time`` over all levels/categories (see repro.perf.attribution).
    attribution: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: DMA engine accounting per level: load/store bytes over the parent
    #: link and busy seconds (representative-child semantics, like
    #: ``per_level_busy``).
    per_level_dma: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: idle-cause seconds per level (keys from repro.sim.pipeline.IDLE_CAUSES).
    per_level_idle: Dict[int, Dict[str, float]] = field(default_factory=dict)


@dataclass
class CacheStats:
    """Hit/miss accounting for the simulator's two memoization layers.

    The *signature cache* memoizes whole child-node simulations keyed on
    structural instruction signatures (all FFUs run in lockstep, so one
    representative child stands for a whole level).  The *plan-summary
    cache* memoizes steady-state PD outcomes per step signature within one
    node.  These accumulate over the simulator's lifetime -- one simulator,
    one workload is the diffable configuration.
    """

    sig_hits: int = 0
    sig_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    #: node simulations actually performed (leaf subset broken out).
    nodes_simulated: int = 0
    leaf_nodes: int = 0

    @property
    def sig_lookups(self) -> int:
        return self.sig_hits + self.sig_misses

    @property
    def sig_hit_rate(self) -> float:
        return self.sig_hits / self.sig_lookups if self.sig_lookups else 0.0

    @property
    def plan_lookups(self) -> int:
        return self.plan_hits + self.plan_misses

    @property
    def plan_hit_rate(self) -> float:
        return self.plan_hits / self.plan_lookups if self.plan_lookups else 0.0

    @property
    def nodes_memoized(self) -> int:
        """Child simulations answered from the signature cache."""
        return self.sig_hits

    def as_dict(self) -> Dict[str, float]:
        return {
            "sig_hits": self.sig_hits,
            "sig_misses": self.sig_misses,
            "sig_hit_rate": self.sig_hit_rate,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_hit_rate": self.plan_hit_rate,
            "nodes_simulated": self.nodes_simulated,
            "nodes_memoized": self.nodes_memoized,
            "leaf_nodes": self.leaf_nodes,
        }


@dataclass
class SimReport:
    """Top-level simulation result for one FISA program on one machine."""

    machine_name: str
    total_time: float
    work: int
    root_load_bytes: int
    root_store_bytes: int
    per_level_busy: Dict[int, Dict[str, float]]
    stats: NodeStats
    root: NodeResult
    #: memoization hit/miss statistics (cumulative over the simulator).
    cache: Optional[CacheStats] = None

    @property
    def attained_ops(self) -> float:
        return self.work / self.total_time if self.total_time > 0 else 0.0

    @property
    def attribution(self) -> Dict[int, Dict[str, float]]:
        """Critical-path stall taxonomy per level (sums to the makespan)."""
        return self.root.attribution

    @property
    def per_level_dma(self) -> Dict[int, Dict[str, float]]:
        """DMA bytes/busy per memory level (representative-child totals)."""
        return self.root.per_level_dma

    @property
    def per_level_idle(self) -> Dict[int, Dict[str, float]]:
        """Idle-cause seconds per level (keys from pipeline.IDLE_CAUSES)."""
        return self.root.per_level_idle

    @property
    def root_traffic(self) -> int:
        """Bytes moved over the root memory port (what the level-1 nodes
        load from and store to the root's memory -- the Fig-15 traffic)."""
        return self.root.served_bytes

    @property
    def operational_intensity(self) -> float:
        """ops per byte of root-memory traffic (the Fig-15 x-axis)."""
        return self.work / self.root_traffic if self.root_traffic else float("inf")

    def peak_fraction(self, peak_ops: float) -> float:
        return self.attained_ops / peak_ops if peak_ops else 0.0


def _runs(pairs: Iterable[Tuple[object, object]]) -> Iterator[Tuple[object, List]]:
    """Consecutive ``(object, value)`` pairs that share their object, as
    (object, the values in order)."""
    for _, run in groupby(pairs, key=lambda pair: id(pair[0])):
        run = list(run)
        yield run[0][0], [value for _, value in run]


def _add_repeated(total: float, value: float, times: int) -> float:
    """``total + value + value + ...`` (``times`` additions, in order)."""
    for _ in range(times):
        total += value
    return total


def _key_contained(key: Tuple, regions: Sequence[Region]) -> bool:
    uid, bounds = key
    for reg in regions:
        if reg.tensor.uid != uid:
            continue
        if all(r_lo <= lo and hi <= r_hi
               for (lo, hi), (r_lo, r_hi) in zip(bounds, reg.bounds)):
            return True
    return False


def _moved_keys(slot_keys: List[frozenset], source: Instruction,
                copy: Instruction) -> List[frozenset]:
    """``slot_keys``, which name regions of ``source``'s plan, moved onto
    ``copy`` by :func:`_operand_moves`.  A key on any other tensor names a
    PD partial of the source's plan, which no other step's plan names; it
    is dropped, as a fresh key would match nothing."""
    to = {old.uid: (new.uid, shift)
          for old, new, shift in _operand_moves(source, copy)}
    out = []
    for keys in slot_keys:
        moved = []
        for uid, bounds in keys:
            target = to.get(uid)
            if target is not None:
                new_uid, shift = target
                moved.append((new_uid, tuple([(lo + d, hi + d) for (lo, hi), d
                                              in zip(bounds, shift)])))
        out.append(frozenset(moved))
    return out


#: one cycle's keys per child slot, or a function giving them
_SlotKeys = Union[List[frozenset], Callable[[], List[frozenset]]]


class _SeqContext:
    """Sliding two-cycle window of what each child slot has resident.

    Mirrors the two-bank TTT validity: a record written in FISA cycle i is
    usable in cycles i+1 and i+2 (the bank is reclaimed afterwards).  Slot j
    tracks the j-th part of each parallel split, which maps to the same
    physical FFU across cycles; shared (broadcast) operands appear in every
    slot's set, so they are covered implicitly.
    """

    WINDOW = 2

    def __init__(self):
        self._history: List[_SlotKeys] = []

    def push(self, slot_keys: _SlotKeys) -> None:
        """Record one cycle's keys per slot, or a function giving them,
        called once if they are read."""
        self._history.append(slot_keys)
        if len(self._history) > self.WINDOW:
            self._history.pop(0)

    def recent_for_slot(self, slot: int) -> frozenset:
        out: Set = set()
        for n, step_slots in enumerate(self._history):
            if callable(step_slots):
                step_slots = self._history[n] = step_slots()
            if slot < len(step_slots):
                out |= step_slots[slot]
        return frozenset(out)


@dataclass
class _PlanSummary:
    """Cached PD outcome for one step signature at one level: the EX latency
    (max over distinct child sub-instructions), the child fill time, the g(.)
    reduction instructions, and the representative child result."""

    ex_time: float
    ex_fill: float
    reduction: List[Instruction]
    child: Optional[NodeResult]
    #: bytes this step makes the node's memory port serve to its children
    served_bytes: int = 0
    #: child simulations the step looked up in the signature cache
    lookups: int = 0


@dataclass
class _StepOutcome:
    """What one decoded step did, for steps in the same state.

    Its stage times (``stall`` is the RAW stall as an offset back), the
    embedded child, the TTT records it wrote (``records`` as
    :meth:`DemotionDecoder.written` gives them, ``carried`` without the
    offsets), the reductions it left commissioned, the counters it added,
    and how many later steps took it.
    """

    stage: StageTimes
    stall: Optional[int]
    child: Optional[NodeResult]
    records: Tuple[Tuple[int, bool, int], ...]
    carried: Tuple[Tuple[int, bool], ...]
    reduction: Optional[List[Instruction]]
    delta: Tuple[int, ...]
    uses: int = 0


#: let a step SD re-emitted take its source step's outcome instead of
#: being decoded or planned, and PD move one plan per template; off, every
#: step runs the per-step path (the tests' oracle)
_REUSE_OUTCOMES = True

_RESULT_COUNTERS = ("load_bytes", "store_bytes", "bc_load_bytes",
                    "priv_load_bytes", "sibling_load_bytes", "served_bytes")
_STATS_COUNTERS = tuple(f.name for f in fields(NodeStats))
_CACHE_COUNTERS = ("sig_hits", "sig_misses", "plan_hits", "plan_misses",
                   "nodes_simulated", "leaf_nodes")


def _counter_fields(result: NodeResult, cache: CacheStats):
    return ((result, _RESULT_COUNTERS), (result.stats, _STATS_COUNTERS),
            (cache, _CACHE_COUNTERS))


def _read_counters(result: NodeResult, cache: CacheStats) -> Tuple[int, ...]:
    """Every integer counter a step of ``result``'s node adds to."""
    return tuple(getattr(obj, name)
                 for obj, names in _counter_fields(result, cache)
                 for name in names)


def _add_counters(result: NodeResult, cache: CacheStats,
                  delta: Tuple[int, ...], times: int) -> None:
    values = iter(delta)
    for obj, names in _counter_fields(result, cache):
        for name in names:
            value = next(values)
            if value:
                setattr(obj, name, getattr(obj, name) + value * times)


class FractalSimulator:
    """Simulates FISA programs on a :class:`Machine` for time and traffic."""

    def __init__(self, machine: Machine, collect_profiles: bool = True):
        self.machine = machine
        self.collect_profiles = collect_profiles
        self._cache: Dict[Tuple, NodeResult] = {}
        #: PD's plan per ``(template key, fan-out)``, the first one split;
        #: owned by one :meth:`simulate` call
        self._pd_memo: Optional[Dict[Tuple, ParallelPlan]] = None
        #: memoization accounting, exposed on every SimReport and mirrored
        #: into the telemetry registry after each simulate().
        self.cache_stats = CacheStats()

    # -- public API -----------------------------------------------------------

    def simulate(self, program: Sequence[Instruction]) -> SimReport:
        """Simulate the whole machine executing ``program`` from the root,
        with the cyclic collector paused
        (:func:`repro.core.gcpause.gc_paused`)."""
        with gc_paused():
            log = obs.logger("sim")
            log.info("simulate.start", machine=self.machine.name,
                     instructions=len(program))
            with telemetry.get_tracer().span("sim.simulate", cat="simulator",
                                             machine=self.machine.name,
                                             instructions=len(program)):
                self._pd_memo = {} if _REUSE_OUTCOMES else None
                try:
                    root = self._simulate_node(0, list(program),
                                               broadcast_regions=(),
                                               is_root=True)
                except Exception as err:
                    log.error("simulate.fail", machine=self.machine.name,
                              error=f"{type(err).__name__}: {err}")
                    raise
                finally:
                    self._pd_memo = None
            log.info("simulate.end", machine=self.machine.name,
                     total_time_s=root.total_time, work_ops=root.work,
                     nodes_simulated=self.cache_stats.nodes_simulated,
                     sig_hits=self.cache_stats.sig_hits)
            report = SimReport(
                machine_name=self.machine.name,
                total_time=root.total_time,
                work=root.work,
                root_load_bytes=root.load_bytes,
                root_store_bytes=root.store_bytes,
                per_level_busy=root.per_level_busy,
                stats=root.stats,
                root=root,
                cache=self.cache_stats,
            )
            self._publish_counters(report)
            return report

    def _publish_counters(self, report: SimReport) -> None:
        """Mirror this simulation's stats into the telemetry registry.

        Cache counters are cumulative on the simulator, so the registry is
        *set* (gauge semantics) rather than incremented for them; per-run
        quantities (busy time, traffic, work) are added as counters.
        """
        registry = telemetry.get_registry()
        if not registry.enabled:
            return
        cs = self.cache_stats
        for name, value in (
            ("sim.sig_cache.hits", cs.sig_hits),
            ("sim.sig_cache.misses", cs.sig_misses),
            ("sim.plan_cache.hits", cs.plan_hits),
            ("sim.plan_cache.misses", cs.plan_misses),
            ("sim.nodes_simulated", cs.nodes_simulated),
            ("sim.nodes_memoized", cs.nodes_memoized),
            ("sim.leaf_nodes", cs.leaf_nodes),
        ):
            registry.set_gauge(name, value, labels={"machine": self.machine.name})
        registry.count("sim.runs", labels={"machine": self.machine.name})
        registry.count("sim.work_ops", report.work,
                       labels={"machine": self.machine.name})
        registry.count("sim.root_traffic_bytes", report.root_traffic,
                       labels={"machine": self.machine.name})
        registry.observe("sim.total_time_s", report.total_time,
                         labels={"machine": self.machine.name})
        for level, busy in sorted(report.per_level_busy.items()):
            for stage, seconds in sorted(busy.items()):
                # float-valued counter: accumulated busy seconds per
                # (level, stage) across every simulate() call.
                registry.counter(
                    "sim.busy_seconds",
                    labels={"level": level, "stage": stage},
                ).inc(seconds)
        for level, causes in sorted(report.per_level_idle.items()):
            for cause, seconds in sorted(causes.items()):
                registry.counter(
                    "sim.idle_seconds",
                    labels={"level": level, "cause": cause},
                ).inc(seconds)
        attributed: Dict[str, float] = {}
        for cats in report.root.attribution.values():
            for cat, seconds in cats.items():
                attributed[cat] = attributed.get(cat, 0.0) + seconds
        for cat, seconds in sorted(attributed.items()):
            registry.counter(
                "sim.attributed_seconds",
                labels={"machine": self.machine.name, "category": cat},
            ).inc(seconds)

    def _record_node_accounting(self, result: NodeResult, level: int,
                                sched: PipelineSchedule) -> None:
        """Own-level DMA byte/busy accounting and idle-cause rollup."""
        dma = result.per_level_dma.setdefault(
            level, {"load_bytes": 0.0, "store_bytes": 0.0, "busy_s": 0.0})
        dma["load_bytes"] += float(result.load_bytes)
        dma["store_bytes"] += float(result.store_bytes)
        dma["busy_s"] += sched.dma_busy
        if sched.idle_causes:
            idle = result.per_level_idle.setdefault(level, {})
            for cause, seconds in sched.idle_causes.items():
                idle[cause] = idle.get(cause, 0.0) + seconds

    # -- bandwidth model -------------------------------------------------------

    def _rates(self, level: int) -> Tuple[float, float]:
        """(private, broadcast) transfer rates for a node at ``level``."""
        spec = self.machine.level(level)
        if level == 0:
            return spec.mem_bandwidth, spec.mem_bandwidth
        parent = self.machine.level(level - 1)
        share = parent.mem_bandwidth / max(1, parent.fanout)
        private = min(spec.mem_bandwidth, share)
        if self.machine.use_broadcast:
            broadcast = min(spec.mem_bandwidth, parent.mem_bandwidth)
        else:
            broadcast = private
        return private, broadcast

    # -- node simulation ---------------------------------------------------------

    def _simulate_child(
        self,
        level: int,
        inst: Instruction,
        broadcast_regions: Tuple[Region, ...],
        resident_regions: Tuple[Region, ...] = (),
        deferred_stores: Tuple[Region, ...] = (),
        sibling_regions: Tuple[Region, ...] = (),
    ) -> NodeResult:
        """Simulate (with caching) one child executing one instruction.

        ``resident_regions`` are operands this child already holds from the
        previous parent FISA cycle (its TTT keeps them valid for two
        cycles), so their loads are elided entirely.  ``deferred_stores``
        are output regions the child keeps resident instead of writing back
        (a slot-aligned consumer arrives within the window).
        ``sibling_regions`` are halo overlaps available from a neighbour
        over a sibling link (when the machine has them).
        """
        bc_flags = tuple(
            _key_contained(r.key(), broadcast_regions) for r in inst.inputs
        )
        res_flags = tuple(
            _key_contained(r.key(), resident_regions)
            for r in inst.inputs + inst.outputs
        )
        dfr_flags = tuple(
            _key_contained(r.key(), deferred_stores) for r in inst.outputs
        )
        sib_flags = tuple(
            _key_contained(r.key(), sibling_regions) for r in inst.inputs
        )
        # The template key, not the signature alone: it also says which
        # operands share a tensor, which decides the bytes a child moves.
        key = (level, _template_key(inst), bc_flags, res_flags, dfr_flags,
               sib_flags, self.collect_profiles)
        hit = self._cache.get(key)
        if hit is not None:
            self.cache_stats.sig_hits += 1
            return hit
        self.cache_stats.sig_misses += 1
        result = self._simulate_node(level, [inst], broadcast_regions,
                                     resident_regions=resident_regions,
                                     deferred_stores=deferred_stores,
                                     sibling_regions=sibling_regions)
        self._cache[key] = result
        return result

    def _simulate_node(
        self,
        level: int,
        program: List[Instruction],
        broadcast_regions: Tuple[Region, ...],
        is_root: bool = False,
        resident_regions: Tuple[Region, ...] = (),
        deferred_stores: Tuple[Region, ...] = (),
        sibling_regions: Tuple[Region, ...] = (),
    ) -> NodeResult:
        spec = self.machine.level(level)
        if spec.is_leaf:
            return self._simulate_leaf(level, program, broadcast_regions,
                                       resident_regions, deferred_stores,
                                       sibling_regions)
        self.cache_stats.nodes_simulated += 1

        private_rate, broadcast_rate = self._rates(level)
        memory = NodeMemoryManager(spec.mem_bytes)
        sd = SequentialDecomposer(memory.recycled_segment_bytes)
        ttt = TensorTranspositionTable() if self.machine.use_ttt else None

        # Sequential decomposition; remember which FISA-level instruction each
        # step came from (static-segment parity) and which partial tensors are
        # local to this node (created by our own SD).
        program_uids: Set[int] = set()
        for inst in program:
            for r in inst.inputs + inst.outputs:
                program_uids.add(r.tensor.uid)
        steps: List[Tuple[int, Instruction]] = []
        local_uids: Set[int] = set()
        # source[i]: the first step that step i copies, moved by one region
        # offset per tensor, together with the steps before it that the
        # decoder still sees (the RAW window and the previous cycle's TTT
        # records); -1 if none.  Steps with one source decode alike when
        # the rest of the state they read is alike (docs/PERFORMANCE.md,
        # "Simulator").
        source: List[int] = []
        window = DemotionDecoder.PIPELINE_WINDOW
        # A single-instruction program would schedule as one monolithic
        # LD -> EX -> WB with no overlap, so SD additionally chunks it into
        # ~4 steps (the three recycled segments exist precisely to keep that
        # many instructions in flight) -- but never below ~8 decode latencies
        # of transfer, where controller overhead would outweigh the overlap.
        # Multi-instruction programs already pipeline across instructions,
        # and splitting them would push consumers beyond the TTT's two-cycle
        # forwarding window.
        min_chunk = int(private_rate * self.machine.decode_latency * 8)
        for orig_idx, inst in enumerate(program):
            if len(program) == 1:
                fp = inst.io_bytes()
                sd.capacity_bytes = min(memory.recycled_segment_bytes,
                                        max(fp // 4, min_chunk, 1))
            else:
                sd.capacity_bytes = memory.recycled_segment_bytes
            seq = sd.decompose(inst)
            base = len(steps)
            source.extend([-1] * len(seq))
            for start, end, first in getattr(seq, "copies", ()):
                for k in range(base + start + window, base + end):
                    j = k - start + first
                    source[k] = j if source[j] < 0 else source[j]
            for step in seq:
                steps.append((orig_idx, step))
                for r in step.inputs + step.outputs:
                    t = r.tensor
                    if t.space == "partial" and t.uid not in program_uids:
                        local_uids.add(t.uid)

        # Pipeline forwarding (Section 3.6): an intermediate result whose
        # every future reader lies within the TTT's two-cycle validity
        # window never needs the round trip through the parent -- the next
        # instruction reads the local copy and the write-back is elided.
        readers: Dict[int, List[Tuple[int, Region]]] = {}
        for idx, (_oi, step) in enumerate(steps):
            for r in step.inputs:
                readers.setdefault(r.tensor.uid, []).append((idx, r))

        def store_forwardable(idx: int, region: Region) -> bool:
            if not self.machine.use_ttt:
                return False
            future = [j for j, rr in readers.get(region.tensor.uid, ())
                      if j > idx and rr.overlaps(region)]
            return bool(future) and max(future) <= idx + 2

        pd = ParallelDecomposer(max(1, spec.fanout))
        pd_memo = self._pd_memo

        # Plans are computed lazily: the steady-state plan-summary cache in
        # the main loop means most steps of a large uniform instruction never
        # need their 32-way split materialized at all.  A step whose template
        # key PD has split at this fan-out takes that plan, moved.
        plan_memo: Dict[int, ParallelPlan] = {}

        def plan_at(idx: int) -> ParallelPlan:
            plan = plan_memo.get(idx)
            if plan is None:
                step = steps[idx][1]
                if pd_memo is None:
                    plan = pd.plan(step)
                else:
                    key = (_template_key(step), pd.n_ffus)
                    template = pd_memo.get(key)
                    if template is None:
                        plan = pd_memo[key] = pd.plan(step)
                    else:
                        plan = pd.plan_from(template, step)
                plan_memo[idx] = plan
            return plan

        def parts_of(plan) -> List[Instruction]:
            if plan.parts:
                return plan.parts
            return [plan.whole] if plan.whole is not None else []

        # Child-store deferral: when a step's output chunk is consumed only
        # by the next one or two steps *in the same FFU slot*, the child that
        # produced it keeps it resident (its TTT bridges the gap) and the
        # round trip through this node's parent is skipped entirely.  This is
        # the paper's pipeline forwarding -- layer chains (conv -> relu ->
        # pool) stop paying root traffic for intermediates.
        # A child can only keep a chunk resident if it physically fits its
        # static segment; larger chunks must round-trip no matter what.
        child_hold_bytes = self.machine.level(level + 1).mem_bytes // 4

        def defer_at(i: int) -> List[Tuple[Region, ...]]:
            slots: List[Tuple[Region, ...]] = []
            for j, part in enumerate(parts_of(plan_at(i))):
                ds: List[Region] = []
                for out in part.outputs:
                    if out.tensor.uid in local_uids:
                        continue  # SD partial: this node's LFUs need the copy
                    if not self.machine.use_ttt or out.nbytes > child_hold_bytes:
                        continue
                    future = [(k, rr) for k, rr in readers.get(out.tensor.uid, ())
                              if k > i and rr.overlaps(out)]
                    if not future or max(k for k, _ in future) > i + 2:
                        continue
                    aligned = True
                    for k, _rr in future:
                        kparts = parts_of(plan_at(k))
                        if j >= len(kparts) or not any(
                                inp.contains(out) for inp in kparts[j].inputs):
                            aligned = False
                            break
                    if aligned:
                        ds.append(out)
                slots.append(tuple(ds))
            return slots

        def read_later(i: int) -> bool:
            """Whether a later step reads an output of step ``i``; if none
            does, :func:`defer_at` gives ``i`` no deferred store."""
            return any(k > i and rr.overlaps(out)
                       for out in steps[i][1].outputs
                       for k, rr in readers.get(out.tensor.uid, ()))

        dd = DemotionDecoder(memory, ttt, local_uids)
        lfu_rate = min(spec.n_lfus * LFU_OPS_EACH,
                       spec.mem_bandwidth / _REDUCTION_BYTES_PER_OP) \
            if spec.n_lfus > 0 else 0.0
        # Commissioning a reduction moves partials down and results up, so the
        # FFU path sees half the local bandwidth.
        ffu_red_rate = min(spec.peak_ops,
                           (spec.mem_bandwidth / 2) / _REDUCTION_BYTES_PER_OP)
        rc = ReductionController(lfu_rate, ffu_red_rate)

        in_regions = bool(resident_regions or sibling_regions or broadcast_regions)

        def placement(i: int, step: Instruction) -> Tuple:
            """What a step's outcome reads of this node's absolute regions:
            per operand, whether it lies in the resident, sibling and
            broadcast regions, and per output whether its store would be
            forwarded or deferred.  Moving a step does not carry these."""
            if is_root:
                return ()
            flags: List[Tuple[bool, ...]] = []
            if in_regions:
                flags.extend((_key_contained(k, resident_regions),
                              _key_contained(k, sibling_regions),
                              _key_contained(k, broadcast_regions))
                             for k in map(Region.key, step.inputs + step.outputs))
            for region in step.outputs:
                flags.append((region.tensor.uid in readers
                              and store_forwardable(i, region),
                              bool(deferred_stores)
                              and _key_contained(region.key(), deferred_stores)))
            return tuple(flags)

        result = NodeResult(level=level, total_time=0.0, startup_time=0.0,
                            load_bytes=0, store_bytes=0, work=0)
        stage_list: List[StageTimes] = []
        embeds: List[Tuple[int, NodeResult]] = []  # (stage index, child)
        pending_commission: List[Instruction] = []
        seq_ctx = _SeqContext()
        node_plan_cache: Dict[Tuple, _PlanSummary] = {}
        # A decoded step's outcome, by the state it read: its source (or
        # itself) and what a copy does not carry -- the previous step's TTT
        # records, the static view and the placement.  A later step in an
        # equal state takes the outcome instead of being decoded.  Only a
        # step past the warm-up that hits the plan-summary cache with
        # nothing commissioned and leaves the static state alone records
        # one.
        reuse = _REUSE_OUTCOMES and max(source, default=-1) >= 0
        outcomes: Dict[Tuple, _StepOutcome] = {}
        records_of: List[Tuple] = [()] * len(steps)  # (position, is_output)
        # Each warm-up step's plan-step outcome: its summary and the slot
        # keys it pushed.  Before the warm-up every step pushes its keys, so
        # a copy finds in the residency window the copies of what its
        # source found, makes the child lookups its source made (all hits
        # now), and takes its source's outcome, keys moved, unless a store
        # of either step could be deferred to a later reader.  A source
        # never takes another step's outcome itself.
        planned: List[Tuple[_PlanSummary, _SlotKeys]] = []

        for i, (orig_idx, step) in enumerate(steps):
            j = source[i]
            state = None
            if reuse and not pending_commission and i >= _PLAN_WARMUP:
                static = dd.static_view(step)
                if static is not None:
                    state = (i if j < 0 else j, records_of[i - 1], static,
                             placement(i, step))
                    done = outcomes.get(state)
                    if done is not None:
                        dd.skip(i, step, done.records)
                        records_of[i] = done.carried
                        stage = done.stage
                        if done.stall is not None:
                            stage = replace(stage, stall_on=i - done.stall)
                        stage_list.append(stage)
                        if done.child is not None:
                            embeds.append((len(stage_list) - 1, done.child))
                        if done.reduction is not None:
                            pending_commission = list(done.reduction)
                        done.uses += 1
                        continue
            sig = step.signature()
            summary = None
            if i >= _PLAN_WARMUP:
                summary = node_plan_cache.get(sig)
            if summary is None:
                state = None
            if state is not None:
                before = _read_counters(result, self.cache_stats)
            decoded = dd.decode(i, step, owner=orig_idx)
            if reuse:
                written = dd.written(i, step)
                records_of[i] = tuple((pos, out) for pos, out, _ in written)
            ld_time = wb_time = 0.0
            if not is_root:
                # The root's operands already reside in root (global) memory;
                # only non-root nodes fetch operands over the parent link.
                for req in decoded.loads:
                    if _key_contained(req.region_key, resident_regions):
                        # Held over from the previous parent FISA cycle.
                        result.stats.ttt_hits += 1
                        result.stats.elided_bytes += req.nbytes
                        continue
                    if _key_contained(req.region_key, sibling_regions):
                        # Halo fetched neighbour-to-neighbour, off the
                        # parent port entirely (future-work sibling links).
                        ld_time += req.nbytes / self.machine.sibling_link_bandwidth
                        result.sibling_load_bytes += req.nbytes
                        continue
                    if _key_contained(req.region_key, broadcast_regions):
                        ld_time += req.nbytes / broadcast_rate
                        result.bc_load_bytes += req.nbytes
                        result.load_bytes += req.nbytes
                    else:
                        ld_time += req.nbytes / private_rate
                        result.priv_load_bytes += req.nbytes
                        result.load_bytes += req.nbytes
                out_by_key = {r.key(): r for r in step.outputs}
                for req in decoded.stores:
                    region = out_by_key.get(req.region_key)
                    forwarded = region is not None and store_forwardable(i, region)
                    deferred = _key_contained(req.region_key, deferred_stores)
                    if forwarded or deferred:
                        result.stats.forwarded_stores += 1
                        result.stats.forwarded_store_bytes += req.nbytes
                        continue
                    wb_time += req.nbytes / private_rate
                    result.store_bytes += req.nbytes

            # The step stream of a large uniform instruction is periodic:
            # after a warm-up window the residency/defer context has
            # stabilized, so structurally identical steps reuse one summary
            # instead of re-planning a 32-way split 65k times.
            if summary is None:
                self.cache_stats.plan_misses += 1
                if (reuse and i < _PLAN_WARMUP and j >= 0
                        and not read_later(i) and not read_later(j)):
                    summary, slot_keys = planned[j]
                    self.cache_stats.sig_hits += summary.lookups
                    # Moved only if a step that plans reads them.
                    slot_keys = partial(_moved_keys, slot_keys, steps[j][1], step)
                else:
                    summary, slot_keys = self._plan_step(
                        level, plan_at(i), defer_at(i), seq_ctx)
                seq_ctx.push(slot_keys)
                if i < _PLAN_WARMUP:
                    planned.append((summary, slot_keys))
                if i >= _PLAN_WARMUP // 2:
                    node_plan_cache[sig] = summary
            else:
                self.cache_stats.plan_hits += 1
            result.served_bytes += summary.served_bytes
            ex_time = summary.ex_time
            ex_fill = summary.ex_fill
            step_child = summary.child

            # Commissioned reductions from the previous cycle execute first.
            for red in pending_commission:
                child = self._run_on_ffus(level, red, pd.n_ffus)
                ex_time += child.total_time
                step_child = step_child or child
            pending_commission = []

            rd_time = 0.0
            if summary.reduction:
                if self.machine.use_sibling_links:
                    # Ring all-reduce among the FFUs: each partial crosses
                    # two links in a pipelined ring, never touching the
                    # parent memory or LFUs.
                    red_bytes = sum(r.outputs[0].nbytes
                                    for r in summary.reduction)
                    rd_time = 2.0 * red_bytes / self.machine.sibling_link_bandwidth
                else:
                    commission = rc.route(summary.reduction)
                    if commission.target is ReductionTarget.LFU:
                        rd_time = commission.predicted_lfu_time
                    else:
                        pending_commission = list(summary.reduction)
                        result.stats.commissioned += 1

            pre_assignable = decoded.stall_on is None and not decoded.forwarded
            stage_list.append(
                StageTimes(
                    decode=self.machine.decode_latency,
                    load=ld_time,
                    exec=ex_time,
                    reduce=rd_time,
                    writeback=wb_time,
                    stall_on=decoded.stall_on,
                    exec_fill=ex_fill,
                    pre_assignable=pre_assignable,
                    label=step.opcode.value,
                )
            )
            if step_child is not None:
                embeds.append((len(stage_list) - 1, step_child))
            result.stats.steps += 1
            result.stats.preassignable += int(pre_assignable)
            result.stats.ttt_hits += decoded.ttt_hits
            result.stats.ttt_lookups += decoded.ttt_hits + len(decoded.loads)
            result.stats.elided_bytes += decoded.elided_bytes
            result.stats.streamed_bytes += decoded.streamed_bytes
            result.stats.raw_stalls += int(decoded.stall_on is not None)
            if state is not None:
                after = _read_counters(result, self.cache_stats)
                outcomes[state] = _StepOutcome(
                    stage=stage_list[-1],
                    stall=None if decoded.stall_on is None else i - decoded.stall_on,
                    child=step_child,
                    records=written,
                    carried=records_of[i],
                    reduction=summary.reduction if pending_commission else None,
                    delta=tuple(a - b for a, b in zip(after, before)))

        # Steps that took an earlier outcome add its counters: all integers,
        # so adding them in bulk gives the per-step sums exactly.
        for done in outcomes.values():
            if done.uses:
                _add_counters(result, self.cache_stats, done.delta, done.uses)

        # Flush reductions commissioned by the final step.
        if pending_commission:
            extra = 0.0
            for red in pending_commission:
                child = self._run_on_ffus(level, red, pd.n_ffus)
                extra += child.total_time
            stage_list.append(StageTimes(decode=self.machine.decode_latency,
                                         exec=extra, label="commission-flush"))

        sched = schedule_pipeline(stage_list, self.machine.use_concatenation)
        result.total_time = sched.total_time
        result.startup_time = sched.startup_time
        result.work = sum(inst.work() for inst in program)

        busy = result.per_level_busy.setdefault(
            level, {"dma": 0.0, "compute": 0.0, "lfu": 0.0})
        busy["dma"] += sched.dma_busy
        busy["compute"] += sched.ffu_busy
        busy["lfu"] += sched.lfu_busy
        self._record_node_accounting(result, level, sched)
        # Children merge in step order; a run of steps embedding one child
        # adds its figures once per step, so each sum is the per-step one.
        for child, stages in _runs((child, idx) for idx, child in embeds):
            times = len(stages)
            for lv, b in child.per_level_busy.items():
                acc = result.per_level_busy.setdefault(
                    lv, {"dma": 0.0, "compute": 0.0, "lfu": 0.0})
                for k, v in b.items():
                    acc[k] = _add_repeated(acc[k], v, times)
            for lv, d in child.per_level_dma.items():
                acc = result.per_level_dma.setdefault(
                    lv, {"load_bytes": 0.0, "store_bytes": 0.0, "busy_s": 0.0})
                for k, v in d.items():
                    acc[k] = _add_repeated(acc.get(k, 0.0), v, times)
            for lv, causes in child.per_level_idle.items():
                acc = result.per_level_idle.setdefault(lv, {})
                for k, v in causes.items():
                    acc[k] = _add_repeated(acc.get(k, 0.0), v, times)
            result.stats.merge(child.stats, times)

        # Critical-path stall taxonomy: this node's control/DMA/reduction
        # time is its own; EX time on the critical path is delegated to the
        # child that produced it (scaled into the child's own taxonomy),
        # bottoming out as FFU compute at the leaves.
        totals, exec_path = attribute_schedule(sched.instructions, stage_list)
        attr: Dict[int, Dict[str, float]] = {
            level: dict.fromkeys(CATEGORIES, 0.0)}
        own_attr = attr[level]
        for cat in ("control", "dma", "reduction", "idle"):
            own_attr[cat] += totals[cat]
        child_of_stage = dict(embeds)
        path = [(child_of_stage.get(inst_idx), seconds)
                for inst_idx, seconds in exec_path]
        for child, segments in _runs(path):
            if (child is not None and child.attribution
                    and child.total_time > 0.0):
                merge_scaled(attr, child.attribution,
                             [seconds / child.total_time for seconds in segments])
            else:
                # Commission flushes and degenerate children count as this
                # level's compute.
                for seconds in segments:
                    own_attr["compute"] += seconds
        result.attribution = attr

        if self.collect_profiles:
            for isched in sched.instructions:
                if isched.ld_iv.duration > 0:
                    result.own_segments.append(("dma", isched.ld_iv.start, isched.ld_iv.end))
                if isched.ex_iv.duration > 0:
                    result.own_segments.append(("compute", isched.ex_iv.start, isched.ex_iv.end))
                if isched.rd_iv.duration > 0:
                    result.own_segments.append(("lfu", isched.rd_iv.start, isched.rd_iv.end))
                if isched.wb_iv.duration > 0:
                    result.own_segments.append(("dma", isched.wb_iv.start, isched.wb_iv.end))
            for stage_idx, child in embeds:
                # Align the child profile to the END of the parent's EX
                # interval: under pipeline concatenation the child's fill ran
                # during the *previous* EX, so its profile starts before the
                # interval does (possibly at negative offsets near t=0).
                ex_iv = sched.instructions[stage_idx].ex_iv
                result.child_embeds.append(
                    (ex_iv.end - child.total_time, child))
        return result

    def _plan_step(
        self,
        level: int,
        plan: ParallelPlan,
        defer_slots,
        ctx: "_SeqContext",
    ) -> Tuple[_PlanSummary, List[frozenset]]:
        """Child simulation for one (pre-planned) step, and the keys of what
        each child slot holds after it, for the caller to push to ``ctx``.

        ``ctx`` remembers what each child slot loaded or produced during the
        previous *two* FISA cycles (the validity window of the two-bank
        TTT); operands needed again are still resident in that child's
        memory and their loads are elided.  ``defer_slots`` lists, per slot,
        the output regions whose write-back the child may skip because a
        slot-aligned consumer follows within the window (pipeline
        forwarding).
        """
        ex_time, ex_fill = 0.0, 0.0
        served = 0
        step_child: Optional[NodeResult] = None
        hold_bytes = self.machine.level(level + 1).mem_bytes // 4
        if plan.parts:
            shared_regions = self._shared_regions(plan)
            groups: Dict[Tuple, List] = {}
            slot_keys: List[frozenset] = []
            for slot, part in enumerate(plan.parts):
                operands = part.inputs + part.outputs
                keys = [r.key() for r in operands]
                n_in = len(part.inputs)
                resident: Tuple[Region, ...] = ()
                resident_keys: Set[Tuple] = set()
                if self.machine.use_ttt:
                    recent = ctx.recent_for_slot(slot)
                    resident = tuple(r for r, k in zip(operands, keys)
                                     if k in recent and r.nbytes <= hold_bytes)
                    resident_keys = {r.key() for r in resident}
                deferred = defer_slots[slot] if slot < len(defer_slots) else ()
                sibling = self._sibling_overlaps(plan.parts, slot,
                                                 shared_regions)
                bc = tuple(_key_contained(k, shared_regions) for k in keys[:n_in])
                res = tuple(k in resident_keys for k in keys)
                dfr = tuple(_key_contained(k, deferred) for k in keys[n_in:])
                sib = tuple(_key_contained(k, sibling) for k in keys[:n_in])
                gk = (_template_key(part), bc, res, dfr, sib)
                prev = groups.get(gk)
                if prev is not None:
                    prev[1] += 1
                else:
                    groups[gk] = [part, 1, resident, deferred, sibling]
                # Outputs count as resident too: the next chain step reads
                # its own running sum, and pipeline forwarding reuses results.
                slot_keys.append(frozenset(keys))
            max_bc = 0
            for part, count, resident, deferred, sibling in groups.values():
                child = self._simulate_child(level + 1, part, shared_regions,
                                             resident, deferred, sibling)
                served += count * (child.priv_load_bytes + child.store_bytes)
                max_bc = max(max_bc, child.bc_load_bytes)
                if step_child is None or child.total_time > step_child.total_time:
                    step_child = child
            served += max_bc  # one broadcast feeds every sibling
            assert step_child is not None
            ex_time = step_child.total_time
            ex_fill = step_child.startup_time
            lookups = len(groups)
        else:
            step = plan.whole
            resident = ()
            if self.machine.use_ttt:
                recent = ctx.recent_for_slot(0)
                resident = tuple(r for r in step.inputs + step.outputs
                                 if r.key() in recent and r.nbytes <= hold_bytes)
            deferred = defer_slots[0] if defer_slots else ()
            step_child = self._simulate_child(level + 1, step, (), resident, deferred)
            served = step_child.load_bytes + step_child.store_bytes
            ex_time = step_child.total_time
            ex_fill = step_child.startup_time
            lookups = 1
            slot_keys = [frozenset(r.key() for r in step.inputs + step.outputs)]

        return (_PlanSummary(ex_time, ex_fill, list(plan.reduction), step_child,
                             served, lookups),
                slot_keys)

    def _run_on_ffus(self, level: int, inst: Instruction, n_ffus: int) -> NodeResult:
        """Execute a commissioned reduction on the FFUs (EX-stage work)."""
        from ..core.decomposition import decompose_parallel

        split = decompose_parallel(inst, n_ffus)
        if split is None:
            return self._simulate_child(level + 1, inst, ())
        best: Optional[NodeResult] = None
        for part in split.parts:
            child = self._simulate_child(level + 1, part, ())
            if best is None or child.total_time > best.total_time:
                best = child
        assert best is not None
        return best

    def _shared_regions(self, plan) -> Tuple[Region, ...]:
        by_key = {r.key(): r for p in plan.parts for r in p.inputs}
        return tuple(by_key[k] for k in plan.shared_keys if k in by_key)

    def _sibling_overlaps(self, parts, slot: int,
                          shared_regions) -> Tuple[Region, ...]:
        """Halo regions slot ``slot`` shares with its ring neighbours.

        Only meaningful when the machine has sibling links: the overlapped
        slice of a spatially-split input lives in the neighbour's chunk too,
        so the neighbour can forward it directly.  Fully-shared (broadcast)
        operands are excluded -- they already travel once.
        """
        if not self.machine.use_sibling_links or len(parts) < 2:
            return ()
        me = parts[slot]
        out = []
        for neighbour_idx in (slot - 1, slot + 1):
            if not 0 <= neighbour_idx < len(parts):
                continue
            other = parts[neighbour_idx]
            for mine in me.inputs:
                if _key_contained(mine.key(), shared_regions):
                    continue
                for theirs in other.inputs:
                    inter = mine.intersection(theirs)
                    if inter is not None and inter.nelems < mine.nelems:
                        out.append(inter)
        return tuple(out)

    # -- leaf --------------------------------------------------------------------

    def _simulate_leaf(
        self,
        level: int,
        program: List[Instruction],
        broadcast_regions: Tuple[Region, ...],
        resident_regions: Tuple[Region, ...] = (),
        deferred_stores: Tuple[Region, ...] = (),
        sibling_regions: Tuple[Region, ...] = (),
    ) -> NodeResult:
        spec = self.machine.level(level)
        self.cache_stats.nodes_simulated += 1
        self.cache_stats.leaf_nodes += 1
        private_rate, broadcast_rate = self._rates(level)
        result = NodeResult(level=level, total_time=0.0, startup_time=0.0,
                            load_bytes=0, store_bytes=0, work=0)
        stage_list: List[StageTimes] = []
        for inst in program:
            in_bytes_bc = in_bytes_priv = in_bytes_sibling = 0
            seen: Set[Tuple] = set()
            for r in inst.inputs:
                if r.key() in seen:
                    continue
                seen.add(r.key())
                if _key_contained(r.key(), resident_regions):
                    result.stats.ttt_hits += 1
                    result.stats.elided_bytes += r.nbytes
                    continue
                if _key_contained(r.key(), sibling_regions):
                    result.sibling_load_bytes += r.nbytes
                    in_bytes_sibling += r.nbytes
                    continue
                if _key_contained(r.key(), broadcast_regions):
                    in_bytes_bc += r.nbytes
                else:
                    in_bytes_priv += r.nbytes
            out_total = sum(r.nbytes for r in inst.outputs if r.key() not in seen)
            if inst.attrs.get("accumulate"):
                # Read-modify-write: fetch the prior partial sum, unless this
                # leaf still holds it from the previous chain step.
                for r in inst.outputs:
                    if not _key_contained(r.key(), resident_regions):
                        in_bytes_priv += r.nbytes
                    else:
                        result.stats.ttt_hits += 1
                        result.stats.elided_bytes += r.nbytes
            # Mid-chain sums stay resident; only the closing step writes
            # back.  Deferred stores (pipeline forwarding) are kept too.
            if inst.attrs.get("acc_local_out"):
                out_bytes = 0
            else:
                out_bytes = 0
                for r in inst.outputs:
                    if _key_contained(r.key(), deferred_stores):
                        result.stats.forwarded_stores += 1
                        result.stats.forwarded_store_bytes += r.nbytes
                    else:
                        out_bytes += r.nbytes
            work = inst.work()
            # Compute is MAC-bound or local-SRAM-bound, whichever is worse.
            ex = max(work / spec.peak_ops, inst.io_bytes() / spec.mem_bandwidth)
            stage_list.append(
                StageTimes(
                    decode=_LEAF_DECODE,
                    load=(in_bytes_bc / broadcast_rate
                          + in_bytes_priv / private_rate
                          + in_bytes_sibling / self.machine.sibling_link_bandwidth),
                    exec=ex,
                    reduce=0.0,
                    writeback=out_bytes / private_rate,
                    exec_fill=0.0,
                    label=inst.opcode.value,
                )
            )
            result.load_bytes += in_bytes_bc + in_bytes_priv
            result.bc_load_bytes += in_bytes_bc
            result.priv_load_bytes += in_bytes_priv
            result.store_bytes += out_bytes
            result.work += work
            result.stats.steps += 1
            result.stats.preassignable += 1
        sched = schedule_pipeline(stage_list, self.machine.use_concatenation)
        result.total_time = sched.total_time
        result.startup_time = sched.startup_time
        result.per_level_busy[level] = {
            "dma": sched.dma_busy, "compute": sched.ffu_busy, "lfu": 0.0,
        }
        self._record_node_accounting(result, level, sched)
        # Leaves terminate the attribution recursion: EX here is real FFU
        # compute, so the whole taxonomy lands at this level.
        leaf_totals, _ = attribute_schedule(sched.instructions, stage_list)
        leaf_attr = dict.fromkeys(CATEGORIES, 0.0)
        for cat, seconds in leaf_totals.items():
            leaf_attr[cat] = leaf_attr.get(cat, 0.0) + seconds
        result.attribution = {level: leaf_attr}
        if self.collect_profiles:
            for isched in sched.instructions:
                if isched.ld_iv.duration > 0:
                    result.own_segments.append(("dma", isched.ld_iv.start, isched.ld_iv.end))
                if isched.ex_iv.duration > 0:
                    result.own_segments.append(("compute", isched.ex_iv.start, isched.ex_iv.end))
                if isched.wb_iv.duration > 0:
                    result.own_segments.append(("dma", isched.wb_iv.start, isched.wb_iv.end))
        return result
