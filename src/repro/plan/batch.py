"""Plan-level vectorization: BatchedStep lowering, replay schedule, arena.

The dataflow analyzer (:mod:`repro.plan.analysis`) proves which runs of
consecutive isomorphic steps are *fusion-legal* -- pairwise-disjoint
outputs, no input/output interference inside the run -- and stamps them on
every compiled plan as ``plan.fusion_groups``.  This module turns those
proofs into execution structure, the paper's lockstep-FFU claim made
concrete:

* :func:`lower_plan` lowers each legal group of ``k`` lanes into a
  :class:`BatchedStep` (one opcode, stacked ``(k, ...)`` operand tables,
  shared run_attrs), serialized into the schema-v3 plan document and
  re-derived/compared on every cache load so a tampered table can never
  steer the executor;
* :func:`build_schedule` compiles the step list into a
  :class:`ReplaySchedule`: an interleaving of :class:`BatchedItem`
  groups, :class:`FoldItem` chains and :class:`SingleItem` steps with
  every per-replay decision -- kernel callables, operand slice tuples,
  aliasing copy-masks, gather/scatter addressing -- resolved once per
  plan instead of once per run.  Every opcode has a stacked kernel
  (:mod:`repro.ops.batch`), so each BatchedStep becomes one BatchedItem;
* a node's g(.) reduction is a chain of ``Add1D`` (or ``Mul1D``) links,
  each reading the previous link's output, so no fusion group holds it.
  A run of such links whose intermediates the plan proves private
  becomes one **FoldItem**: the reference kernel once per link, each
  result passed straight into the next, only the last one stored (the
  intermediates get no write, no arena slot, no re-zero);
* gathers and scatters use **lattice addressing**: when a group's lanes
  are tiles of one shape on one tensor, their element offsets factor
  into nested ``(count, stride)`` levels, one per decomposition level
  (stride 0 where a tile repeats), and one ``as_strided`` view of shape
  ``counts + lane shape`` addresses every lane.  With one level the
  stacked ``(k, ...)`` operand is that view (zero bytes moved; a stride
  of 0 expresses a broadcast operand shared by every lane); with several
  it is one C-contiguous copy made by numpy in one call.  Only lanes
  spread over several tensors take a per-lane copy loop;
* :func:`build_arena_layout` first-fit allocates every plan-owned
  intermediate into one flat buffer using the same live-interval sweep
  that produced ``PlanStats.peak_live_bytes``, at schedule-item
  granularity so a slot is never recycled while a lane of the current
  group still reads it.  Reused slots are re-zeroed at the owning
  tensor's first touch, reproducing ``TensorStore.ensure`` zero-fill
  semantics exactly.

Replaying the schedule is bit-identical to the recursive executor
(verified per opcode by the stacked-kernel tests, end to end by the suite
sweep in ``tests/test_batch.py`` and on random programs and machines,
disk round trip included, by ``tests/test_fuzz.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..core.isa import Opcode
from ..core.tensor import Region, Tensor
from .plan import FractalPlan, PlanStep

__all__ = [
    "ArenaLayout",
    "BatchedItem",
    "BatchedStep",
    "FoldItem",
    "ReplaySchedule",
    "SingleItem",
    "batched_table",
    "build_arena_layout",
    "build_schedule",
    "lower_plan",
    "normalize_batched_docs",
]


# -- BatchedStep: the serialized lowering product ---------------------------

@dataclass(frozen=True)
class BatchedStep:
    """One fusion group lowered for stacked execution.

    ``lanes`` are the group's plan steps (``plan.steps[start:stop]``,
    kept by reference); all lanes share ``kind``/``opcode``/``level``/
    ``run_attrs``/``accumulate`` by the analyzer's isomorphism key.
    """

    start: int
    stop: int
    kind: str
    opcode: Opcode
    level: int
    run_attrs: Dict[str, object]
    accumulate: bool
    lanes: Tuple[PlanStep, ...]

    @property
    def n_lanes(self) -> int:
        return self.stop - self.start

    def to_doc(self) -> dict:
        return {
            "start": self.start,
            "stop": self.stop,
            "kind": self.kind,
            "opcode": self.opcode.value,
            "level": self.level,
            "lanes": self.n_lanes,
        }


def lower_plan(plan: FractalPlan) -> List[BatchedStep]:
    """Lower every batchable fusion group of ``plan`` into BatchedSteps.

    Deterministic in the plan's analysis products: same steps + same
    ``fusion_groups`` always produce the same table (which is what lets
    the cache-load path re-derive and compare it).  Groups whose steps
    are not single-output are left unlowered -- they replay as singles.
    """
    batched: List[BatchedStep] = []
    for start, stop in plan.fusion_groups:
        lanes = tuple(plan.steps[start:stop])
        lead = lanes[0]
        if any(len(s.inst.outputs) != 1 for s in lanes):
            continue
        if any(s.kind != lead.kind or s.level != lead.level
               or s.inst.opcode is not lead.inst.opcode
               or len(s.inst.inputs) != len(lead.inst.inputs)
               or s.accumulate != lead.accumulate for s in lanes):
            # Defensive: the analyzer's isomorphism key guarantees this;
            # a plan violating it is corrupt, not batchable.
            continue
        batched.append(BatchedStep(
            start=start, stop=stop, kind=lead.kind,
            opcode=lead.inst.opcode, level=lead.level,
            run_attrs=lead.run_attrs, accumulate=lead.accumulate,
            lanes=lanes))
    return batched


def batched_table(batched: Sequence[BatchedStep]) -> List[Tuple]:
    """Comparable identity of a lowering (cache verification token)."""
    return [(b.start, b.stop, b.kind, b.opcode.value, b.level, b.n_lanes)
            for b in batched]


def normalize_batched_docs(raw) -> List[Tuple]:
    """A stored ``batched`` document section, as a comparable table."""
    table = []
    for entry in raw:
        table.append((int(entry["start"]), int(entry["stop"]),
                      str(entry["kind"]), str(entry["opcode"]),
                      int(entry["level"]), int(entry["lanes"])))
    return table


# -- gather / scatter addressing -------------------------------------------

_ITEMSIZE = 8  # the store backs every tensor with float64


def _elem_strides(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """Row-major element strides of a tensor shape."""
    strides = [1] * len(shape)
    acc = 1
    for d in range(len(shape) - 1, -1, -1):
        strides[d] = acc
        acc *= shape[d]
    return tuple(strides)


class _SliceTable(dict):
    """The slice tuples of one schedule build, interned by region bounds.

    A large plan's regions repeat a few thousand distinct bounds, so
    items share one tuple per bounds instead of holding private copies.
    Scoped to one :func:`build_schedule` call: no cache outlives it.
    """

    def __missing__(self, bounds) -> Tuple[slice, ...]:
        sl = self[bounds] = tuple(slice(lo, hi) for lo, hi in bounds)
        return sl


class _LatticeAccess:
    """All lanes address one tensor on a lattice of element offsets.

    Lane ``i`` sits at ``origin`` plus one stride per decomposition level
    for its mixed-radix digits over ``counts`` (outermost level first; a
    stride of 0 repeats a tile), so one ``as_strided`` view of shape
    ``counts + lane shape`` addresses every lane.  With one level the
    lanes sit at a constant stride and the gather is that view itself
    (zero bytes moved; stride 0 is a broadcast operand shared by every
    lane).  Levels never merge (:func:`_lattice_levels` takes the longest
    progressions), so with several levels the gather reshapes the view
    into one C-contiguous ``(k, ...)`` copy -- the stack a per-lane loop
    builds, made in one numpy call.  Falls back to the loop path if the
    backing array is ever non-contiguous.
    """

    __slots__ = ("tensor", "origin", "counts", "shape", "byte_strides",
                 "regions", "k", "zero_copy", "repeats")

    def __init__(self, tensor: Tensor, origin: int,
                 levels: Tuple[Tuple[int, int], ...],
                 shape: Tuple[int, ...], strides: Tuple[int, ...],
                 regions: Sequence[Region]) -> None:
        self.tensor = tensor
        self.origin = origin
        self.counts = tuple(count for count, _ in levels)
        self.shape = shape
        self.byte_strides = tuple(
            st * _ITEMSIZE for st in [st for _, st in levels] + list(strides))
        self.regions = regions
        self.k = len(regions)
        #: one-level gathers are views (tallied as zero-copy reads);
        #: deeper ones are one copy (tallied as copied reads, as a loop's).
        self.zero_copy = len(levels) == 1
        #: some level places one tile at several lanes.
        self.repeats = any(count > 1 and not st for count, st in levels)

    def _view(self, base: np.ndarray) -> np.ndarray:
        flat = base.reshape(-1)
        anchor = flat[self.origin:] if self.origin else flat
        return as_strided(anchor, shape=self.counts + self.shape,
                          strides=self.byte_strides)

    def _lane_slices(self) -> List[Tuple[Tensor, Tuple[slice, ...]]]:
        return [(r.tensor, tuple(slice(lo, hi) for lo, hi in r.bounds))
                for r in self.regions]

    def gather(self, store) -> np.ndarray:
        base = store.ensure(self.tensor)
        if not base.flags.c_contiguous:
            return _loop_gather(store, self._lane_slices(), self.shape)
        view = self._view(base)
        if not self.zero_copy:
            view = view.reshape((self.k,) + self.shape)
        view.flags.writeable = False
        return view

    def scatter(self, store, stacked: np.ndarray, accumulate: bool) -> None:
        base = store.ensure(self.tensor)
        if not base.flags.c_contiguous:
            _loop_scatter(store, self._lane_slices(), stacked, accumulate)
            return
        view = self._view(base)
        stacked = stacked.reshape(view.shape)
        if accumulate:
            view += stacked
        else:
            view[...] = stacked


class _LoopAccess:
    """Lanes spread over several tensors: per-lane slice addressing.
    Gather materializes the stack; scatter writes lane by lane."""

    __slots__ = ("lane_slices", "shape", "k")
    #: gathers materialize a stacked copy (tallied as copied reads).
    zero_copy = False
    repeats = False

    def __init__(self, lane_slices: List[Tuple[Tensor, Tuple[slice, ...]]],
                 shape: Tuple[int, ...]) -> None:
        self.lane_slices = lane_slices
        self.shape = shape
        self.k = len(lane_slices)

    def gather(self, store) -> np.ndarray:
        return _loop_gather(store, self.lane_slices, self.shape)

    def scatter(self, store, stacked: np.ndarray, accumulate: bool) -> None:
        _loop_scatter(store, self.lane_slices, stacked, accumulate)


def _loop_gather(store, lane_slices, shape) -> np.ndarray:
    out = np.empty((len(lane_slices),) + shape, dtype=np.float64)
    ensure = store.ensure
    for i, (tensor, sl) in enumerate(lane_slices):
        out[i] = ensure(tensor)[sl]
    out.flags.writeable = False
    return out


def _loop_scatter(store, lane_slices, stacked, accumulate) -> None:
    ensure = store.ensure
    if accumulate:
        for i, (tensor, sl) in enumerate(lane_slices):
            ensure(tensor)[sl] += stacked[i]
    else:
        for i, (tensor, sl) in enumerate(lane_slices):
            ensure(tensor)[sl] = stacked[i]


def _lattice_levels(offs: np.ndarray
                    ) -> Optional[Tuple[Tuple[int, int], ...]]:
    """Factor lane offsets into nested ``(count, stride)`` levels.

    Outermost level first: lane ``i``, whose mixed-radix digits over the
    counts are ``(i_1, ..., i_L)``, sits at ``offs[0] + sum(i_l *
    stride_l)``.  The innermost level is the longest arithmetic prefix;
    every block of that length must repeat it, and the blocks' first
    offsets are factored the same way.  Taking the longest prefix loses
    no lattice: a progression runs past an inner level only when the
    next level's stride is that level's whole span, and then the two
    levels are one.  ``None`` when no lattice covers every lane.
    """
    levels: List[Tuple[int, int]] = []
    while len(offs) > 1:
        delta = offs[1] - offs[0]
        breaks = np.flatnonzero(np.diff(offs) != delta)
        count = int(breaks[0]) + 1 if len(breaks) else len(offs)
        if len(offs) % count:
            return None
        blocks = offs.reshape(-1, count)
        if not (blocks == blocks[:, :1] + delta * np.arange(count)).all():
            return None
        levels.append((count, int(delta)))
        offs = blocks[:, 0]
    return tuple(reversed(levels)) or ((1, 0),)


def _build_access(regions: Sequence[Region], slices: _SliceTable):
    """The cheapest addressing mode covering one operand position's lanes:
    a lattice view when every lane is one tile shape on one tensor, else
    a per-lane loop."""
    lead = regions[0]
    uid = lead.tensor.uid
    if all(r.tensor.uid == uid for r in regions):
        ndim, k = len(lead.bounds), len(regions)
        bounds = np.fromiter(
            chain.from_iterable(chain.from_iterable(r.bounds
                                                    for r in regions)),
            dtype=np.int64, count=2 * ndim * k).reshape(k, ndim, 2)
        lows = bounds[:, :, 0]
        extents = bounds[:, :, 1] - lows
        if (extents == extents[0]).all():
            strides = _elem_strides(lead.tensor.shape)
            offs = lows @ np.array(strides, dtype=np.int64)
            levels = _lattice_levels(offs)
            if levels is not None:
                return _LatticeAccess(lead.tensor, int(offs[0]), levels,
                                      lead.shape, strides, regions)
    return _LoopAccess([(r.tensor, slices[r.bounds]) for r in regions],
                       lead.shape)


# -- schedule items ---------------------------------------------------------

class SingleItem:
    """One unfused plan step with every per-replay decision precomputed:
    the kernel callable, operand/output slice tuples, and (for steps the
    analyzer could not prove alias-free) the operand copy-mask the runtime
    overlap scan would otherwise recompute every run."""

    __slots__ = ("start", "stop", "inst", "opcode", "opval", "level",
                 "run_attrs", "accumulate", "kernel", "in_specs",
                 "out_specs", "copy_mask", "n_in")
    batched = False
    folded = False

    def __init__(self, index: int, step: PlanStep, kernel,
                 slices: _SliceTable) -> None:
        inst = step.inst
        self.start = index
        self.stop = index + 1
        self.inst = inst
        self.opcode = inst.opcode
        self.opval = inst.opcode.value
        self.level = step.level
        self.run_attrs = step.run_attrs
        self.accumulate = step.accumulate
        self.kernel = kernel
        self.in_specs = tuple((r.tensor, slices[r.bounds])
                              for r in inst.inputs)
        self.out_specs = tuple((r.tensor, slices[r.bounds], r.shape,
                                r.nelems) for r in inst.outputs)
        self.n_in = len(inst.inputs)
        if step.safe_zero_copy:
            self.copy_mask = None
        else:
            outputs = inst.outputs
            self.copy_mask = tuple(
                any(r.overlaps(o) for o in outputs) for r in inst.inputs)


class BatchedItem:
    """One BatchedStep with resolved addressing: per-operand gather specs,
    the output scatter spec and the group's stacked kernel."""

    __slots__ = ("start", "stop", "k", "opcode", "opval", "level",
                 "run_attrs", "accumulate", "gathers", "scatter",
                 "out_shape", "out_nelems", "batched_kernel", "n_in")
    batched = True
    folded = False

    def __init__(self, bstep: BatchedStep, batched_kernel,
                 slices: _SliceTable) -> None:
        self.start = bstep.start
        self.stop = bstep.stop
        self.k = bstep.n_lanes
        self.opcode = bstep.opcode
        self.opval = bstep.opcode.value
        self.level = bstep.level
        self.run_attrs = bstep.run_attrs
        self.accumulate = bstep.accumulate
        self.batched_kernel = batched_kernel
        insts = [s.inst for s in bstep.lanes]
        self.n_in = len(insts[0].inputs)
        self.gathers = tuple(
            _build_access([inst.inputs[j] for inst in insts], slices)
            for j in range(self.n_in))
        outs = [inst.outputs[0] for inst in insts]
        self.scatter = _build_access(outs, slices)
        # Fusion legality makes a group's outputs pairwise disjoint, so no
        # output lattice places one tile at two lanes.
        assert not self.scatter.repeats, "fused lanes write one tile"
        self.out_shape = outs[0].shape
        self.out_nelems = outs[0].nelems


class FoldItem:
    """A run of ``k`` chained g(.) links (``Add1D`` or ``Mul1D``) as one
    item: the opcode's reference kernel runs once per link, and each
    result passes straight into the next call as its first operand.  Only
    the last link's output is stored; the intermediates get no write, no
    arena slot and no re-zero.  Bit-identical to ``k`` singles: each link
    runs the same kernel on the same operands in the same order, and the
    float64 store round trip it skips is exact."""

    __slots__ = ("start", "stop", "k", "opcode", "opval", "level",
                 "run_attrs", "kernel", "terms", "out_spec", "n_in")
    batched = False
    folded = True
    accumulate = False

    def __init__(self, index: int, steps: Sequence[PlanStep], kernel,
                 slices: _SliceTable) -> None:
        lead = steps[0]
        self.start = index
        self.stop = index + len(steps)
        self.k = len(steps)
        self.opcode = lead.inst.opcode
        self.opval = lead.inst.opcode.value
        self.level = lead.level
        self.run_attrs = lead.run_attrs
        self.kernel = kernel
        #: the first link's first operand, then every link's second one
        terms = [lead.inst.inputs[0]] + [s.inst.inputs[1] for s in steps]
        self.terms = tuple((r.tensor, slices[r.bounds]) for r in terms)
        out = steps[-1].inst.outputs[0]
        self.out_spec = (out.tensor, slices[out.bounds])
        self.n_in = 2 * self.k

    def fold(self, terms: Sequence[np.ndarray], attrs) -> np.ndarray:
        """The chain's value: every link's kernel call, in order."""
        kernel = self.kernel
        value = terms[0]
        for i in range(1, len(terms)):
            value = kernel((value, terms[i]), attrs)
        return value


#: the g(.) operators :func:`repro.core.decomposition.base.chain_reduce`
#: emits; a chain of their links folds into one :class:`FoldItem`.
_FOLD_OPCODES = (Opcode.ADD1D, Opcode.MUL1D)


def _foldable(step: PlanStep) -> bool:
    inst = step.inst
    return (inst.opcode in _FOLD_OPCODES and not step.accumulate
            and step.safe_zero_copy and len(inst.inputs) == 2
            and len(inst.outputs) == 1)


def _fold_links(plan: FractalPlan) -> Set[int]:
    """Indices ``i`` whose step feeds step ``i + 1`` through a link of a
    foldable chain, proven from the plan's steps.

    Both steps run one of :data:`_FOLD_OPCODES` with one kind, level and
    attributes; neither accumulates and both are alias-free; every region
    of the two has one shape (so each kernel result is already the next
    operand's shape); step ``i + 1``'s first input is exactly step ``i``'s
    output; and that region covers a plan-owned tensor that no other step
    reads or writes.
    """
    steps = plan.steps
    external = set(plan.external_uids())
    candidates: Dict[int, int] = {}  # intermediate uid -> writing step
    for i in range(len(steps) - 1):
        step = steps[i + 1]
        if step.inst.opcode not in _FOLD_OPCODES:
            continue
        prev = steps[i]
        if not (_foldable(prev) and _foldable(step)):
            continue
        mid = prev.inst.outputs[0]
        head, term = step.inst.inputs
        shape = mid.tensor.shape
        if (head.tensor.uid != mid.tensor.uid or head.bounds != mid.bounds
                or mid.tensor.uid in external or not _covers(mid)
                or step.inst.opcode is not prev.inst.opcode
                or step.kind != prev.kind or step.level != prev.level
                or step.run_attrs != prev.run_attrs
                or term.shape != shape
                or step.inst.outputs[0].shape != shape
                or any(r.shape != shape for r in prev.inst.inputs)):
            continue
        candidates[mid.tensor.uid] = i
    if not candidates:
        return set()
    touches = Counter(r.tensor.uid for step in steps
                      for r in step.inst.inputs + step.inst.outputs
                      if r.tensor.uid in candidates)
    return {i for uid, i in candidates.items() if touches[uid] == 2}


# -- the replay schedule ----------------------------------------------------

@dataclass
class ReplaySchedule:
    """Batched replay program for one plan: ordered items + the arena."""

    items: List[object]
    n_steps: int
    arena: "ArenaLayout"
    #: BatchedItems and the lanes they cover.
    batched_steps: int
    batched_lanes: int

    @property
    def fallback_lanes(self) -> int:
        """Lanes of lowered groups replayed as singles: always 0, since
        every opcode has a stacked kernel."""
        return 0

    @property
    def fully_batched(self) -> bool:
        """The schedule runs stacked groups, and every lowered group is
        one of them."""
        return self.batched_steps > 0


def build_schedule(plan: FractalPlan) -> ReplaySchedule:
    """Compile ``plan.steps`` + ``plan.batched`` into a ReplaySchedule.

    Every BatchedStep becomes one BatchedItem running its opcode's
    stacked kernel.  Outside the lowered groups, each run of linked chain
    steps (:func:`_fold_links`) becomes one FoldItem, and every other
    step a SingleItem.
    """
    from ..ops.batch import batched_kernel_for
    from ..ops.dispatch import kernel_for

    slices = _SliceTable()
    items: List[object] = []
    links = _fold_links(plan)

    def singles(lo: int, hi: int) -> None:
        index = lo
        while index < hi:
            stop = index + 1
            while stop < hi and stop - 1 in links:
                stop += 1
            step = plan.steps[index]
            kernel = kernel_for(step.inst.opcode)
            if stop - index > 1:
                items.append(FoldItem(index, plan.steps[index:stop], kernel,
                                      slices))
            else:
                items.append(SingleItem(index, step, kernel, slices))
            index = stop

    pos = 0
    lanes = 0
    batched = sorted(plan.batched, key=lambda b: b.start)
    for bstep in batched:
        singles(pos, bstep.start)
        items.append(BatchedItem(bstep, batched_kernel_for(bstep.opcode),
                                 slices))
        lanes += bstep.n_lanes
        pos = bstep.stop
    singles(pos, plan.n_steps)
    arena = build_arena_layout(plan, items)
    return ReplaySchedule(items=items, n_steps=plan.n_steps, arena=arena,
                          batched_steps=len(batched), batched_lanes=lanes)


# -- arena layout -----------------------------------------------------------

@dataclass
class ArenaLayout:
    """First-fit packing of the plan's intermediates into one flat buffer.

    ``bindings`` maps each plan-owned (non-external) tensor to its element
    offset, in first-touch order; ``zero_items`` lists ``(item_ordinal,
    binding_index)`` pairs whose slot reuses previously-dirtied bytes and
    must be re-zeroed when the tensor's live interval opens (reproducing
    ``TensorStore.ensure`` zero-fill semantics).  Intervals are measured
    in schedule-item ordinals, so a slot is never recycled while any lane
    of the current batched group still reads its old occupant.
    """

    total_elems: int
    bindings: List[Tuple[Tensor, int]]
    zero_items: List[Tuple[int, int]]

    @property
    def nbytes(self) -> int:
        return self.total_elems * _ITEMSIZE


def _item_regions(item, plan: FractalPlan):
    """``(region, is_input)`` pairs an item touches, inputs first.  A fold
    touches its chain's operands and last output, never the
    intermediates it does not store."""
    if item.batched:
        steps = plan.steps[item.start:item.stop]
        for step in steps:
            for r in step.inst.inputs:
                yield r, True
        for step in steps:
            for r in step.inst.outputs:
                yield r, False
    elif item.folded:
        steps = plan.steps[item.start:item.stop]
        yield steps[0].inst.inputs[0], True
        for step in steps:
            yield step.inst.inputs[1], True
        yield steps[-1].inst.outputs[0], False
    else:
        inst = item.inst
        for r in inst.inputs:
            yield r, True
        for r in inst.outputs:
            yield r, False


def _covers(region: Region) -> bool:
    """Does ``region`` span its whole tensor?"""
    return region.bounds == tuple((0, d) for d in region.tensor.shape)


def build_arena_layout(plan: FractalPlan, items: Sequence[object]
                       ) -> ArenaLayout:
    """Pack plan-owned intermediates with a first-fit free list over their
    item-granular live intervals (the ``peak_live_bytes`` sweep, executed
    as an allocator instead of a high-water accounting pass)."""
    external = set(plan.external_uids())
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    tensors: Dict[int, Tensor] = {}
    order: List[int] = []
    #: dead-zero elimination: a tensor whose first touch is a full
    #: non-accumulate overwrite never observes its initial contents, so a
    #: recycled slot needs no re-zero for it.  Any other first touch (a
    #: read, an accumulate, a partial write -- including one lane of a
    #: group writing its slice of a shared tensor) keeps ``ensure``'s
    #: zero-fill semantics conservatively.
    needs_zero: Dict[int, bool] = {}
    for ordinal, item in enumerate(items):
        accumulate = item.accumulate
        for r, is_input in _item_regions(item, plan):
            uid = r.tensor.uid
            if uid in external:
                continue
            if uid not in first:
                first[uid] = ordinal
                order.append(uid)
                tensors[uid] = r.tensor
                needs_zero[uid] = (is_input or accumulate
                                   or not _covers(r))
            last[uid] = ordinal

    allocs_at: Dict[int, List[int]] = {}
    frees_at: Dict[int, List[int]] = {}
    for uid in order:
        allocs_at.setdefault(first[uid], []).append(uid)
        frees_at.setdefault(last[uid], []).append(uid)

    free_blocks: List[Tuple[int, int]] = []  # (offset, size), offset-sorted
    end = 0
    used_max = 0
    offsets: Dict[int, int] = {}
    bindings: List[Tuple[Tensor, int]] = []
    binding_index: Dict[int, int] = {}
    zero_items: List[Tuple[int, int]] = []

    def alloc(n: int) -> int:
        nonlocal end
        for i, (off, size) in enumerate(free_blocks):
            if size >= n:
                if size == n:
                    free_blocks.pop(i)
                else:
                    free_blocks[i] = (off + n, size - n)
                return off
        if free_blocks:
            off, size = free_blocks[-1]
            if off + size == end:  # grow the tail block instead of the heap
                free_blocks.pop()
                end = off + n
                return off
        off = end
        end += n
        return off

    def release(off: int, n: int) -> None:
        lo, hi = off, off + n
        merged: List[Tuple[int, int]] = []
        placed = False
        for b_off, b_size in free_blocks:
            if b_off + b_size == lo:
                lo = b_off
                continue
            if b_off == hi:
                hi = b_off + b_size
                continue
            if not placed and b_off > hi:
                merged.append((lo, hi - lo))
                placed = True
            merged.append((b_off, b_size))
        if not placed:
            merged.append((lo, hi - lo))
        free_blocks[:] = sorted(merged)

    for ordinal in range(len(items)):
        for uid in allocs_at.get(ordinal, ()):
            n = tensors[uid].nelems
            off = alloc(n)
            offsets[uid] = off
            binding_index[uid] = len(bindings)
            bindings.append((tensors[uid], off))
            if off < used_max and needs_zero[uid]:
                # Recycled bytes a first read/accumulate/partial write
                # would observe: re-zero at interval open.
                zero_items.append((ordinal, binding_index[uid]))
            used_max = max(used_max, off + n)
        for uid in frees_at.get(ordinal, ()):
            release(offsets[uid], tensors[uid].nelems)

    return ArenaLayout(total_elems=end, bindings=bindings,
                       zero_items=zero_items)
