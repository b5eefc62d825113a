"""Functional fractal executor and the one fractal walker.

:func:`walk` follows the fractal execution model: at every non-leaf node
the sequential decomposer (SD) shrinks the instruction to the node's memory
capacity, the parallel decomposer (PD) fans the pieces out across the FFUs,
children recurse, and g(.) reduction instructions run on the node's LFUs.
It counts every node into a :class:`WalkStats` and hands each leaf kernel
call and LFU reduction, in execution order, to a *sink*.  A cold
:class:`FractalExecutor` run passes a sink that executes the step on the
numpy kernels; :func:`repro.plan.compile_program` passes one that records
it as a plan step.  Both share this one recursion, so a plan replays
exactly the steps a cold run executes and its precomputed counters are a
cold run's by construction.  A compile also passes a :class:`WalkMemo`, so
each distinct subtree is walked once and its repeats re-emitted by region
offset.  :meth:`FractalExecutor.run_plan` is the one replay engine: it
walks the plan's replay schedule, stacked fusion groups and single steps
in plan order.

The point of the executor is *verification*: for any machine shape, the
result must be bit-identical (up to float tolerance) to running the
reference kernel directly.  The test-suite checks exactly that, which
validates every decomposition rule end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import obs, ops, telemetry
from ..obs import prof as _prof
from .decomposition import decompose_parallel, shrink_sequential
from .decomposition.base import (_chain_counter, _chain_renames,
                                 _operand_moves, _template_key)
from .isa import Instruction
from .machine import Machine
from .store import TensorStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (plan imports core)
    from ..plan import FractalPlan

#: instruction attributes that steer the executor's write-back, not the
#: kernel itself; stripped from the attributes every kernel receives.
WRITEBACK_ATTRS = ("accumulate", "acc_local_out", "acc_chain")


@dataclass
class WalkStats:
    """The counters one :func:`walk` of the fractal recursion accumulates.

    A cold run counts into its :class:`ExecutionStats`, and the plan
    compiler into the plan's :class:`repro.plan.PlanStats`; both derive
    from this class, so a plan's counters equal a cold run's.
    """

    kernel_calls: int = 0
    lfu_calls: int = 0
    instructions_per_level: Dict[int, int] = field(default_factory=dict)
    max_depth_reached: int = 0
    #: parallel fan-outs taken (one per successful PD split) and the total
    #: child instructions they produced.
    fanouts: int = 0
    fanout_parts: int = 0
    #: sequential-decomposition steps emitted by SD at non-leaf nodes.
    seq_steps: int = 0
    #: leaf kernel invocations by opcode mnemonic.
    leaf_ops: Dict[str, int] = field(default_factory=dict)
    #: tensor bytes read from / written to the store by kernels and LFUs.
    bytes_read: int = 0
    bytes_written: int = 0

    def count(self, level: int) -> None:
        self.instructions_per_level[level] = (
            self.instructions_per_level.get(level, 0) + 1)
        if level > self.max_depth_reached:
            self.max_depth_reached = level

    def add(self, other: "WalkStats") -> None:
        """Add another walk's counters to these (the depth takes the max).

        Replay performs exactly the work the compile walk recorded, so it
        adds the plan's precomputed counters in one shot instead of
        re-deriving them step by step on the hot path.
        """
        for f in fields(WalkStats):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                for key, n in theirs.items():
                    mine[key] = mine.get(key, 0) + n
            elif f.name == "max_depth_reached":
                self.max_depth_reached = max(mine, theirs)
            else:
                setattr(self, f.name, mine + theirs)


@dataclass
class ExecutionStats(WalkStats):
    """Counters collected during a functional run.

    Always-on (the updates are a handful of dict/int operations per fractal
    node, dwarfed by the numpy kernels); mirrored into the global
    :mod:`repro.telemetry` registry after each ``run_program`` when
    telemetry is enabled.
    """

    #: batched replay: lowered fusion groups executed and the plan steps
    #: (lanes) they covered with one stacked kernel call each.
    batched_steps: int = 0
    batched_lanes: int = 0
    #: runtime operand-aliasing scans skipped because the schedule carries
    #: the analyzer's interference result as a precomputed copy-mask.
    alias_scan_skips: int = 0

    def counter_series(self) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], int]:
        """Flatten into ``{(name, labels): value}`` for registry mirroring."""
        out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], int] = {
            ("executor.kernel_calls", ()): self.kernel_calls,
            ("executor.lfu_calls", ()): self.lfu_calls,
            ("executor.fanouts", ()): self.fanouts,
            ("executor.fanout_parts", ()): self.fanout_parts,
            ("executor.seq_steps", ()): self.seq_steps,
            ("executor.bytes_read", ()): self.bytes_read,
            ("executor.bytes_written", ()): self.bytes_written,
            ("plan.batched_steps", ()): self.batched_steps,
            ("plan.batched_lanes", ()): self.batched_lanes,
            ("executor.alias_scan_skips", ()): self.alias_scan_skips,
        }
        for level, n in self.instructions_per_level.items():
            out[("executor.instructions", (("level", str(level)),))] = n
        for opcode, n in self.leaf_ops.items():
            out[("executor.leaf_ops", (("opcode", opcode),))] = n
        return out


class WalkMemo:
    """The subtrees one compile has walked, and the steps it emitted.

    A non-leaf node's subtree is decided by its SD template key
    (:func:`repro.core.decomposition.base._template_key`: the signature,
    whether ``acc_chain`` is carried and the offsets between operands that
    share a tensor) and its level; the machine is fixed within a compile,
    and no decomposition rule reads a region's absolute position or its
    tensor's shape.  ``templates`` maps that key to the first node with it,
    the ``[start, end)`` span of the emission list its walk produced, its
    :class:`WalkStats` and the range of chain ids it drew.

    ``record`` is the walk's sink.  ``kinds``, ``levels`` and ``sources``
    are the emission list, one entry per step; ``sources`` gives, per step,
    the index of the walked step it re-emits (its own index if walked).
    ``insts`` holds the instructions of the walked steps only, in step
    order: a re-emitted step is never built here.  ``spans`` lists each
    re-emission as ``(at, start, end, moves, chains)``: steps ``[at, at +
    end - start)`` are steps ``[start, end)`` with each operand tensor of
    the template moved as ``moves`` says (``(tensor, its twin, shift)``),
    every other tensor renewed, and chain ids renamed by the ``(lo, hi,
    delta)`` intervals of ``chains``; :class:`repro.plan.plan.PlanSteps`
    builds such a step when it is asked for.  Spans do not overlap, steps
    outside every span were walked, and each span's moves are one to one.
    Owned by one compile and dropped with it: no template outlives the
    call, and nothing here refers back to the memo.
    """

    __slots__ = ("kinds", "insts", "levels", "sources", "templates", "spans")

    def __init__(self):
        self.kinds: List[str] = []
        self.insts: List[Instruction] = []
        self.levels: List[int] = []
        self.sources: List[int] = []
        self.templates: Dict[Tuple, Tuple] = {}
        self.spans: List[Tuple] = []

    def record(self, kind: str, inst: Instruction, level: int) -> None:
        self.sources.append(len(self.kinds))
        self.kinds.append(kind)
        self.insts.append(inst)
        self.levels.append(level)

    def reemit(self, template: Tuple, inst: Instruction,
               stats: WalkStats) -> None:
        """Record ``template``'s steps re-emitted over the operands of
        ``inst``, which shares its key, add its counters to ``stats`` and
        reserve the chain ids the copy's own walk would have drawn."""
        first, start, end, counted, drawn = template
        stats.add(counted)
        moves = _operand_moves(first, inst)
        # The two share their operands' sharing pattern, so the moves are
        # one to one; a copy's analysis relies on it.
        assert len({new.uid for _, new, _ in moves}) == len(moves), \
            "a re-emission moves two tensors onto one"
        self.spans.append((len(self.kinds), start, end, moves,
                           _chain_renames(first, inst, drawn)))
        # The copy draws as many ids as its template did, each at the same
        # offset, so later walked steps draw what a walk without the memo
        # gives them.
        _chain_counter.value += len(drawn)
        self.sources.extend(self.sources[start:end])
        self.kinds.extend(self.kinds[start:end])
        self.levels.extend(self.levels[start:end])


def walk(inst: Instruction, level: int, machine: Machine, stats: WalkStats,
         sink: Callable[[str, Instruction, int], None],
         memo: Optional[WalkMemo] = None) -> None:
    """Walk the fractal recursion of ``inst`` from ``level`` down.

    Counts every node into ``stats`` and calls ``sink(kind, inst, level)``
    for each leaf kernel (``"kernel"``) and each LFU reduction (``"lfu"``,
    at the level of the node that owns the LFUs), in execution order.  SD
    and PD are looked up as this module's globals on every call.

    With a ``memo`` (whose ``record`` must be the sink), a non-leaf node
    whose key the memo holds is not walked: the memo records the
    template's steps as re-emitted by region offset (a span), reserves
    the chain ids they draw and adds the template's counters.  The steps
    a plan builds from its spans, and the counters, equal the walk's
    without a memo, which stays the oracle.

    A module-level function, not a closure: a nested function that calls
    itself holds itself through its closure cell, and that cycle would keep
    whatever the sink built alive until a full collection.
    """
    spec = machine.level(level)
    if memo is not None and not spec.is_leaf:
        key = (_template_key(inst), level)
        template = memo.templates.get(key)
        if template is not None:
            memo.reemit(template, inst, stats)
            return
        # Count the subtree apart, so that a later hit can add it whole.
        outer, stats = stats, WalkStats()
        start, first_id = len(memo.kinds), _chain_counter.value
    stats.count(level)
    if spec.is_leaf:
        stats.kernel_calls += 1
        mnemonic = inst.opcode.value
        stats.leaf_ops[mnemonic] = stats.leaf_ops.get(mnemonic, 0) + 1
        stats.bytes_read += sum(r.nbytes for r in inst.inputs)
        stats.bytes_written += sum(r.nbytes for r in inst.outputs)
        sink("kernel", inst, level)
        return
    seq = shrink_sequential(inst, spec.mem_bytes)
    if len(seq) > 1:
        stats.seq_steps += len(seq)
    for step in seq:
        split = decompose_parallel(step, spec.fanout)
        if split is None:
            # Degenerate granularity: a single FFU inherits the whole step.
            walk(step, level + 1, machine, stats, sink, memo)
            continue
        stats.fanouts += 1
        stats.fanout_parts += len(split.parts)
        if obs.get_event_log().enabled:
            obs.log_event("executor", "fanout", "debug", level=level,
                          opcode=step.opcode.value, parts=len(split.parts),
                          reductions=len(split.reduction))
        for part in split.parts:
            walk(part, level + 1, machine, stats, sink, memo)
        for red in split.reduction:
            stats.lfu_calls += 1
            stats.bytes_read += sum(r.nbytes for r in red.inputs)
            stats.bytes_written += sum(r.nbytes for r in red.outputs)
            sink("lfu", red, level)
    if memo is not None:
        memo.templates[key] = (inst, start, len(memo.kinds), stats,
                               range(first_id, _chain_counter.value))
        outer.add(stats)


#: replay emits one ``replay.progress`` debug event per this many steps,
#: so a tailed live run shows motion without flooding the ring.
REPLAY_PROGRESS_STRIDE = 1024


class FractalExecutor:
    """Executes FISA programs through recursive fractal decomposition."""

    def __init__(
        self,
        machine: Machine,
        store: Optional[TensorStore] = None,
        preflight: bool = False,
    ):
        self.machine = machine
        self.store = store if store is not None else TensorStore()
        #: opt-in pre-flight: statically analyze programs before running
        #: them and refuse on analyzer errors (repro.analysis).
        self.preflight = preflight
        self.stats = ExecutionStats()
        #: counter values already mirrored into the telemetry registry, so
        #: repeated ``run_program`` calls publish deltas, never double-count.
        self._published: Dict = {}

    # -- public API ---------------------------------------------------------

    def compile(self, program: Iterable[Instruction],
                plan_cache_dir=None) -> "FractalPlan":
        """Compile ``program`` into a replayable :class:`FractalPlan`.

        The plan comes from the process-wide signature-keyed cache (and,
        when ``plan_cache_dir`` is given, the on-disk store) -- repeated
        compiles of the same shapes on the same machine are near-free; an
        uncached compile is :func:`repro.plan.compile_program`.  Pass the
        result back to :meth:`run_program` (or call :meth:`run_plan`) to
        skip all decomposition on warm runs.
        """
        from ..plan import compile_cached

        program = list(program)
        if self.preflight:
            from ..analysis import analyze

            analyze(program, name="preflight").raise_if_errors()
        return compile_cached(self.machine, program, disk_dir=plan_cache_dir)

    def run_program(self, program: Iterable[Instruction],
                    plan: Optional["FractalPlan"] = None) -> TensorStore:
        """Execute an instruction sequence top-down; returns the store.

        With ``preflight=True`` the program is first run through the static
        analyzer and an :class:`repro.analysis.AnalysisError` is raised on
        any error-severity diagnostic -- a fast reject instead of a numpy
        failure (or silent divergence) deep inside the recursion.

        With ``plan`` (from :meth:`compile`) the decomposition recursion is
        skipped entirely and the flattened plan is replayed instead --
        bit-identical results, compile-once/run-many cost.
        """
        if plan is not None:
            return self.run_plan(plan)
        program = list(program)
        if self.preflight:
            from ..analysis import analyze  # deferred: keeps core import-light

            analyze(program, name="preflight").raise_if_errors()
        tracer = telemetry.get_tracer()
        log = obs.logger("executor")
        with tracer.span("executor.program", cat="program",
                         machine=self.machine.name,
                         instructions=len(program)):
            log.info("program.start", machine=self.machine.name,
                     instructions=len(program))
            for index, inst in enumerate(program):
                obs.beat("executor")
                with obs.event_context(instruction=index,
                                       opcode=inst.opcode.value), \
                        tracer.span(f"inst:{inst.opcode.value}",
                                    cat="instruction"):
                    try:
                        walk(inst, 0, self.machine, self.stats,
                             self._run_step)
                    except Exception as err:
                        log.error("instruction.fail", instruction=index,
                                  opcode=inst.opcode.value,
                                  error=f"{type(err).__name__}: {err}")
                        raise
            log.info("program.end", kernel_calls=self.stats.kernel_calls,
                     max_depth=self.stats.max_depth_reached)
        _prof.clear_step()
        self._publish_counters()
        return self.store

    def run(self, inst: Instruction) -> TensorStore:
        with telemetry.get_tracer().span(f"inst:{inst.opcode.value}",
                                         cat="instruction"):
            walk(inst, 0, self.machine, self.stats, self._run_step)
        _prof.clear_step()
        self._publish_counters()
        return self.store

    def run_plan(self, plan: "FractalPlan") -> TensorStore:
        """Replay a compiled plan: the warm path of compile-once/run-many.

        Walks the plan's :class:`~repro.plan.batch.ReplaySchedule` (built
        once, cached on the plan) -- no ``shrink_sequential``, no
        ``decompose_parallel``, no rule searches -- producing results
        bit-identical to the recursive path.  Every lowered fusion group
        runs as one stacked call (a BatchedItem whose operands gather
        through lattice views), every run of private g(.) chain links as
        one fold (a FoldItem), and every other step as a single with a
        precomputed kernel and copy-mask.

        The replay runs through the store's binding of the schedule
        (:meth:`TensorStore.bound`, bound on the first replay on this
        store): the arena and every operand and output view are built
        once, and a replay only zeroes what relies on zero-fill -- the
        unbound externals first, each arena slot in the layout's
        ``zero_items`` when its live interval opens -- and runs the
        kernels on the prebuilt views.

        The plan's precomputed stats and the binding's read tallies are
        added up front (replay performs exactly that work; on a mid-replay
        failure they overstate the completed portion, which errs on the
        visible side).  Replay emits one watchdog beat per plan step (bulk
        form for groups and folds), one ``replay.progress`` event per
        :data:`REPLAY_PROGRESS_STRIDE` steps, profiler step attribution
        per item, and per-opcode ``ops.dispatch`` counts (one bulk
        increment per group or fold).
        """
        schedule = plan.replay_schedule()
        store = self.store
        binding = store.bound(schedule)
        self.stats.add(plan.stats)
        self.stats.batched_steps += schedule.batched_steps
        self.stats.batched_lanes += schedule.batched_lanes
        self.stats.alias_scan_skips += binding.alias_scan_skips
        store.zero_copy_reads += binding.zero_copy_reads
        store.copied_reads += binding.copied_reads
        store.static_zero_copy += binding.static_zero_copy
        tracer = telemetry.get_tracer()
        registry = telemetry.get_registry()
        log = obs.logger("executor")
        # Hoisted once per replay: with telemetry dark, singles call their
        # kernel directly and groups skip span/count bookkeeping.
        fast = not tracer.enabled and not registry.enabled
        with tracer.span("executor.replay", cat="program",
                         machine=self.machine.name, steps=plan.n_steps,
                         batched_steps=schedule.batched_steps):
            log.info("replay.start", machine=self.machine.name,
                     steps=plan.n_steps,
                     batched_steps=schedule.batched_steps,
                     batched_lanes=schedule.batched_lanes)
            for array in binding.zero_externals:
                array.fill(0.0)
            set_step = _prof.set_step if _prof.profiling() else None
            beat = obs.beat
            stride = REPLAY_PROGRESS_STRIDE
            next_progress = stride
            for item, operands, outputs, zeros in binding.entries:
                if zeros is not None:
                    for span in zeros:
                        span.fill(0.0)
                stop = item.stop
                beat("executor", stop - item.start)
                while next_progress < stop:
                    log.debug("replay.progress", step=next_progress,
                              steps=plan.n_steps)
                    next_progress += stride
                if set_step is not None:
                    set_step(item.opval, item.level)
                try:
                    if item.batched:
                        _exec_batched_item(item, operands, outputs, fast,
                                           registry, tracer)
                    elif item.folded:
                        outputs[...] = _bulk_call(item, item.fold, operands,
                                                  fast, registry, tracer)
                    else:
                        _exec_single_item(item, operands, outputs, fast)
                except Exception as err:
                    log.error("replay.fail", opcode=item.opval,
                              level=item.level, step=item.start,
                              error=f"{type(err).__name__}: {err}")
                    raise
            log.info("replay.end", kernel_calls=self.stats.kernel_calls,
                     batched_steps=schedule.batched_steps)
        _prof.clear_step()
        if registry.enabled and plan.stats.peak_live_bytes:
            registry.gauge("plan.peak_live_bytes").set_max(
                plan.stats.peak_live_bytes)
        self._publish_counters()
        return store

    def _publish_counters(self) -> None:
        """Mirror stats deltas into the telemetry registry (if enabled)."""
        registry = telemetry.get_registry()
        if not registry.enabled:
            return
        current = self.stats.counter_series()
        current[("store.zero_copy_reads", ())] = self.store.zero_copy_reads
        current[("store.copied_reads", ())] = self.store.copied_reads
        current[("store.static_zero_copy", ())] = self.store.static_zero_copy
        for (name, labels), value in current.items():
            delta = value - self._published.get((name, labels), 0)
            if delta:
                registry.count(name, delta, dict(labels))
        registry.gauge("executor.max_depth").set_max(
            self.stats.max_depth_reached)
        if self.store.arena_bytes:
            registry.gauge("store.arena_bytes").set_max(self.store.arena_bytes)
        self._published = current

    # -- the cold run's walk sink --------------------------------------------

    def _run_step(self, kind: str, inst: Instruction, level: int) -> None:
        """Execute one leaf kernel or LFU reduction that :func:`walk`
        hands over and write its outputs back to the store."""
        mnemonic = inst.opcode.value
        _prof.set_step(mnemonic, level)
        try:
            inputs = self._read_operands(inst)
            attrs = {k: v for k, v in inst.attrs.items()
                     if k not in WRITEBACK_ATTRS}
            outputs = ops.execute(inst.opcode, inputs, attrs)
            if len(outputs) != len(inst.outputs):
                raise RuntimeError(
                    f"{inst.opcode} produced {len(outputs)} outputs, "
                    f"expected {len(inst.outputs)}")
            write = (self.store.write_accumulate
                     if inst.attrs.get("accumulate", False)
                     else self.store.write)
            for region, value in zip(inst.outputs, outputs):
                write(region, value)
        except Exception as err:
            if kind == "kernel":
                obs.log_event("executor", "kernel.fail", "error",
                              opcode=mnemonic, level=level,
                              error=f"{type(err).__name__}: {err}")
            raise

    def _read_operands(self, inst: Instruction) -> List:
        """Kernel operands for ``inst``, zero-copy wherever it is safe.

        Inputs are handed to kernels as read-only views into the store
        (kernels cannot mutate them) unless an input region overlaps one of
        the instruction's *output* regions -- the aliasing guard: the
        write-back would then stomp bytes a lazy/kept reference might still
        read, so those operands are materialized as copies, exactly as the
        old unconditional-copy path did.  Schedule replay takes the same
        verdict from each :class:`repro.plan.batch.SingleItem`'s
        precomputed copy-mask instead of scanning (counted in
        ``executor.alias_scan_skips``).
        """
        store = self.store
        outputs = inst.outputs
        return [
            store.read(r) if any(r.overlaps(o) for o in outputs)
            else store.read(r, copy=False)
            for r in inst.inputs
        ]


def _exec_single_item(item, operands, outputs, fast: bool) -> None:
    """One unfused schedule item on its bound views: operands the
    copy-mask marks are copied first (they overlap an output)."""
    mask = item.copy_mask
    if mask is not None:
        operands = [view.copy() if copy else view
                    for view, copy in zip(operands, mask)]
    if fast:
        result = item.kernel(operands, item.run_attrs)
        values = result if isinstance(result, tuple) else (result,)
    else:
        values = ops.execute(item.opcode, operands, item.run_attrs)
    if len(values) != len(outputs):
        raise RuntimeError(
            f"{item.opcode} produced {len(values)} outputs, "
            f"expected {len(outputs)}")
    accumulate = item.accumulate
    for out, value in zip(outputs, values):
        value = np.asarray(value, dtype=np.float64)
        if value.shape != out.shape:
            if value.size != out.size:
                verb = "accumulate" if accumulate else "write"
                raise ValueError(
                    f"{verb} shape mismatch: region {out.shape}, "
                    f"value {value.shape}")
            value = value.reshape(out.shape)
        if accumulate:
            out += value
        else:
            out[...] = value


def _exec_batched_item(item, gathers, scatter, fast: bool, registry,
                       tracer) -> None:
    """One BatchedItem: gather lanes, one stacked call, scatter back."""
    stacked = _bulk_call(item, item.batched_kernel,
                         [g.gather() for g in gathers], fast, registry,
                         tracer)
    stacked = np.asarray(stacked, dtype=np.float64)
    want = (item.k,) + item.out_shape
    if stacked.shape != want:
        if stacked.size != item.k * item.out_nelems:
            raise ValueError(
                f"batched write shape mismatch: lanes {want}, "
                f"value {stacked.shape}")
        stacked = stacked.reshape(want)
    scatter.scatter(stacked, item.accumulate)


def _bulk_call(item, call, operands, fast: bool, registry, tracer):
    """``call(operands, item.run_attrs)`` standing for ``item.k`` kernel
    calls: with telemetry on, one bulk ``ops.dispatch`` increment and one
    ``op:`` span carrying ``lanes=k``."""
    if fast:
        return call(operands, item.run_attrs)
    k = item.k
    registry.count("ops.dispatch", k, labels={"opcode": item.opval})
    obs.logger("ops").debug("dispatch.batched", opcode=item.opval, lanes=k)
    with tracer.span(f"op:{item.opval}", cat="op", lanes=k):
        return call(operands, item.run_attrs)


def run_reference(inst: Instruction, store: TensorStore) -> None:
    """Run one instruction directly on the reference kernel (ground truth);
    an ``accumulate`` instruction adds its result to the prior value."""
    inputs = [store.read(r) for r in inst.inputs]
    outputs = ops.execute(inst.opcode, inputs, inst.attrs)
    write = (store.write_accumulate if inst.attrs.get("accumulate", False)
             else store.write)
    for region, value in zip(inst.outputs, outputs):
        write(region, value)
