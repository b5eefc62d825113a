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
  :class:`ReplaySchedule`: an interleaving of :class:`BatchedItem` groups
  and :class:`SingleItem` steps with every per-replay decision -- kernel
  callables, operand slice tuples, aliasing copy-masks, gather/scatter
  addressing -- resolved once per plan instead of once per run.  Every
  opcode has a stacked kernel (:mod:`repro.ops.batch`), so each
  BatchedStep becomes one BatchedItem and only unfused steps are
  SingleItems;
* gathers and scatters use **offset arithmetic**: when a group's lanes
  tile one tensor at a constant element stride (the shape fractal
  decomposition emits), the stacked ``(k, ...)`` operand is an
  ``as_strided`` view of the backing array (zero bytes moved; a stride of
  0 expresses a broadcast operand shared by every lane), with a counted
  per-lane copy loop as the general fallback;
* :func:`build_arena_layout` first-fit allocates every plan-owned
  intermediate into one flat buffer using the same live-interval sweep
  that produced ``PlanStats.peak_live_bytes``, at schedule-item
  granularity so a slot is never recycled while a lane of the current
  group still reads it.  Reused slots are re-zeroed at the owning
  tensor's first touch, reproducing ``TensorStore.ensure`` zero-fill
  semantics exactly.

Replaying the schedule is bit-identical to unbatched replay by
construction (verified per-opcode by the batched-kernel registry tests and
end-to-end by the suite sweep in ``tests/test_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..core.isa import Instruction, Opcode
from ..core.tensor import Region, Tensor
from .plan import FractalPlan, PlanStep

__all__ = [
    "ArenaLayout",
    "BatchedItem",
    "BatchedStep",
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


class _StridedAccess:
    """All lanes address one tensor at a constant element stride.

    The stacked ``(k, ...)`` operand is pure offset arithmetic: an
    ``as_strided`` view at ``origin + i * delta`` elements per lane
    (``delta == 0`` is a broadcast operand shared by every lane).  Falls
    back to the loop path if the backing array is ever non-contiguous.
    """

    __slots__ = ("tensor", "origin", "delta", "shape", "byte_strides",
                 "lane_slices", "k")
    #: gathers are views (the executor tallies them as zero-copy reads).
    zero_copy = True

    def __init__(self, tensor: Tensor, origin: int, delta: int,
                 shape: Tuple[int, ...], byte_strides: Tuple[int, ...],
                 lane_slices: List[Tuple[Tensor, Tuple[slice, ...]]],
                 k: int) -> None:
        self.tensor = tensor
        self.origin = origin
        self.delta = delta
        self.shape = shape
        self.byte_strides = byte_strides
        self.lane_slices = lane_slices
        self.k = k

    def _view(self, base: np.ndarray) -> np.ndarray:
        flat = base.reshape(-1)
        anchor = flat[self.origin:] if self.origin else flat
        return as_strided(anchor, shape=(self.k,) + self.shape,
                          strides=(self.delta * _ITEMSIZE,) + self.byte_strides)

    def gather(self, store) -> np.ndarray:
        base = store.ensure(self.tensor)
        if not base.flags.c_contiguous:
            return _loop_gather(store, self.lane_slices, self.shape)
        view = self._view(base)
        view.flags.writeable = False
        return view

    def scatter(self, store, stacked: np.ndarray, accumulate: bool) -> None:
        base = store.ensure(self.tensor)
        if not base.flags.c_contiguous:
            _loop_scatter(store, self.lane_slices, stacked, accumulate)
            return
        view = self._view(base)
        if accumulate:
            view += stacked
        else:
            view[:] = stacked


class _LoopAccess:
    """General case: per-lane slice addressing (lanes may even live on
    different tensors).  Gather materializes the stack; scatter writes
    lane by lane."""

    __slots__ = ("lane_slices", "shape", "k")
    #: gathers materialize a stacked copy (tallied as copied reads).
    zero_copy = False

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


def _build_access(regions: Sequence[Region], slices: _SliceTable):
    """The cheapest addressing mode covering one operand position's lanes."""
    lane_slices = [(r.tensor, slices[r.bounds]) for r in regions]
    lead = regions[0]
    shape = lead.shape
    if any(r.tensor.uid != lead.tensor.uid or r.shape != shape
           for r in regions[1:]):
        return _LoopAccess(lane_slices, shape)
    strides = _elem_strides(lead.tensor.shape)
    offs = [sum(lo * st for (lo, _), st in zip(r.bounds, strides))
            for r in regions]
    deltas = {offs[i + 1] - offs[i] for i in range(len(offs) - 1)}
    if len(deltas) != 1:
        return _LoopAccess(lane_slices, shape)
    byte_strides = tuple(st * _ITEMSIZE for st in strides)
    return _StridedAccess(lead.tensor, offs[0], deltas.pop(), shape,
                          byte_strides, lane_slices, len(regions))


# -- schedule items ---------------------------------------------------------

class SingleItem:
    """One unfused plan step with every per-replay decision precomputed:
    the kernel callable, operand/output slice tuples, and (for steps the
    analyzer could not prove alias-free) the operand copy-mask the runtime
    overlap scan would otherwise recompute every run."""

    __slots__ = ("start", "stop", "step", "inst", "opcode", "opval", "level",
                 "run_attrs", "accumulate", "kernel", "in_specs",
                 "out_specs", "copy_mask", "n_in")
    batched = False

    def __init__(self, index: int, step: PlanStep, kernel,
                 slices: _SliceTable) -> None:
        inst = step.inst
        self.start = index
        self.stop = index + 1
        self.step = step
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
        self.out_shape = outs[0].shape
        self.out_nelems = outs[0].nelems


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
    stacked kernel; every step outside a lowered group becomes a
    SingleItem.
    """
    from ..ops.batch import batched_kernel_for
    from ..ops.dispatch import kernel_for

    slices = _SliceTable()
    items: List[object] = []

    def singles(lo: int, hi: int) -> None:
        for index in range(lo, hi):
            step = plan.steps[index]
            items.append(SingleItem(index, step, kernel_for(step.inst.opcode),
                                    slices))

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
    """``(region, is_input)`` pairs an item touches, inputs first."""
    if item.batched:
        steps = plan.steps[item.start:item.stop]
        for step in steps:
            for r in step.inst.inputs:
                yield r, True
        for step in steps:
            for r in step.inst.outputs:
                yield r, False
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
