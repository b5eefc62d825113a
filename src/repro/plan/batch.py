"""Plan-level vectorization: lowering, replay schedule, arena.

The dataflow analyzer (:mod:`repro.plan.analysis`) proves which runs of
consecutive isomorphic steps are *fusion-legal* -- pairwise-disjoint
outputs, no input/output interference inside the run -- and stamps them on
every compiled plan as ``plan.fusion_groups``.  This module turns those
proofs into execution structure, the paper's lockstep-FFU claim made
concrete:

* :func:`build_schedule` compiles the step list into a
  :class:`ReplaySchedule`: an interleaving of :class:`BatchedItem`
  groups, :class:`FoldItem` chains and :class:`SingleItem` steps with
  every per-replay decision -- kernel callables, operand slice tuples,
  aliasing copy-masks, gather/scatter addressing -- resolved once per
  plan instead of once per run.  It lowers the fusion groups itself, and
  nothing else does: :func:`lower_plan` keeps each group of ``k`` lanes
  of one isomorphism class, which becomes one BatchedItem (one opcode,
  stacked ``(k, ...)`` operands, shared run_attrs, the opcode's stacked
  kernel from :mod:`repro.ops.batch`).  The lowering is never stored,
  on the plan or in its document;
* a node's g(.) reduction is a chain of ``Add1D`` (or ``Mul1D``) links,
  each reading the previous link's output, so no fusion group holds it.
  A run of such links whose intermediates the plan proves private
  becomes one **FoldItem**: the reference kernel once per link, each
  result passed straight into the next, only the last one stored (the
  intermediates get no write, no arena slot, no re-zero);
* gathers and scatters use **lattice addressing**: when a group's lanes
  are tiles of one shape on one tensor, their element offsets factor
  into nested ``(count, stride)`` levels, one per decomposition level
  (stride 0 where a tile repeats), and one strided view of shape
  ``counts + lane shape`` addresses every lane.  With one level the
  stacked ``(k, ...)`` operand is that view (zero bytes moved; a stride
  of 0 expresses a broadcast operand shared by every lane); with several
  it is one C-contiguous copy made by numpy in one call.  Only lanes
  spread over several tensors take a per-lane copy loop;
* :func:`build_arena_layout` first-fit allocates every plan-owned
  intermediate into one flat buffer using the same live-interval sweep
  that produced ``PlanStats.peak_live_bytes``, at schedule-item
  granularity so a slot is never recycled while a lane of the current
  group still reads it.  It lists every tensor whose first touch would
  observe its initial contents, which a replay zeroes, reproducing
  ``TensorStore.ensure`` zero-fill semantics exactly;
* a :class:`ReplayBinding` binds a schedule to one store, once: it
  allocates the arena and resolves every operand and output to an
  array view, so a replay runs kernels on prebuilt views.  A store keeps
  its binding between replays (``TensorStore.bound``).

Replaying the schedule is bit-identical to the recursive executor
(verified per opcode by the stacked-kernel tests, end to end by the suite
sweep in ``tests/test_batch.py`` and on random programs and machines,
disk round trip included, by ``tests/test_fuzz.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.gcpause import gc_paused
from ..core.isa import Opcode
from ..core.tensor import Region, Tensor
from .plan import FractalPlan, PlanStep
from .regions import RegionTable, region_table

__all__ = [
    "ArenaLayout",
    "BatchedItem",
    "FoldItem",
    "ReplayBinding",
    "ReplaySchedule",
    "SingleItem",
    "build_arena_layout",
    "build_schedule",
    "lower_plan",
]


# -- lowering -----------------------------------------------------------------

def lower_plan(plan: FractalPlan) -> List[Tuple[int, int]]:
    """The fusion groups of ``plan`` that replay stacked, as ``(start,
    stop)`` step ranges in step order.

    Decided by the region table's isomorphism key alone: a group lowers
    when its lanes are one class (one kind, level and signature, so one
    opcode, operand shapes, attributes and write-back mode) of
    single-output steps.  Any other group -- only a plan whose groups
    were set by hand has one -- replays as singles.  Deterministic in the
    plan's steps and fusion groups.
    """
    key = region_table(plan).key
    return [(start, stop) for start, stop in sorted(plan.fusion_groups)
            if len(plan.steps[start].inst.outputs) == 1
            and (key[start:stop] == key[start]).all()]


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
    stride of 0 repeats a tile), so one strided view of shape ``counts +
    lane shape`` addresses every lane.  With one level the lanes sit at a
    constant stride and the gather is that view itself (zero bytes moved;
    stride 0 is a broadcast operand shared by every lane).  Levels never
    merge (:func:`_lattice_levels` takes the longest progressions), so
    with several levels the gather reshapes the view into one
    C-contiguous ``(k, ...)`` copy -- the stack a per-lane loop builds,
    made in one numpy call.
    """

    __slots__ = ("tensor", "origin", "counts", "shape", "byte_strides",
                 "k", "zero_copy", "repeats")

    def __init__(self, tensor: Tensor, origin: int,
                 levels: Tuple[Tuple[int, int], ...],
                 shape: Tuple[int, ...], strides: Tuple[int, ...],
                 k: int) -> None:
        self.tensor = tensor
        self.origin = origin
        self.counts = tuple(count for count, _ in levels)
        self.shape = shape
        self.byte_strides = tuple(
            st * _ITEMSIZE for st in [st for _, st in levels] + list(strides))
        self.k = k
        #: one-level gathers are views (tallied as zero-copy reads);
        #: deeper ones are one copy (tallied as copied reads, as a loop's).
        self.zero_copy = len(levels) == 1
        #: some level places one tile at several lanes.
        self.repeats = any(count > 1 and not st for count, st in levels)


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
    access = None
    if all(r.tensor.uid == uid for r in regions):
        ndim, k = len(lead.bounds), len(regions)
        bounds = np.fromiter(
            chain.from_iterable(chain.from_iterable(r.bounds
                                                    for r in regions)),
            dtype=np.int64, count=2 * ndim * k).reshape(k, ndim, 2)
        access = _lattice_access(lead, bounds[:, :, 0], bounds[:, :, 1])
    return access or _LoopAccess(
        [(r.tensor, slices[r.bounds]) for r in regions], lead.shape)


def _table_access(table: RegionTable, rows: np.ndarray,
                  lanes: Sequence[PlanStep], position: int,
                  slices: _SliceTable):
    """:func:`_build_access` of the lanes' regions at ``position``, read
    from the region table's ``rows``."""
    tids = table.tid[rows]
    inst = lanes[0].inst
    lead = (inst.inputs + inst.outputs)[position]
    access = None
    if (tids == tids[0]).all():
        ndim = len(lead.bounds)
        access = _lattice_access(lead, table.lo[rows, :ndim],
                                 table.hi[rows, :ndim])
    if access is None:
        regions = [(s.inst.inputs + s.inst.outputs)[position] for s in lanes]
        access = _LoopAccess([(r.tensor, slices[r.bounds]) for r in regions],
                             lead.shape)
    return access


def _lattice_access(lead: Region, lows: np.ndarray,
                    highs: np.ndarray) -> Optional[_LatticeAccess]:
    """The lattice view of lanes on ``lead``'s tensor with these bounds,
    or ``None`` when their tiles differ in shape or sit on no lattice."""
    extents = highs - lows
    if not (extents == extents[0]).all():
        return None
    strides = _elem_strides(lead.tensor.shape)
    offs = lows.astype(np.int64) @ np.array(strides, dtype=np.int64)
    levels = _lattice_levels(offs)
    if levels is None:
        return None
    return _LatticeAccess(lead.tensor, int(offs[0]), levels, lead.shape,
                          strides, len(lows))


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
        self.out_specs = tuple((r.tensor, slices[r.bounds])
                               for r in inst.outputs)
        self.n_in = len(inst.inputs)
        if step.safe_zero_copy:
            self.copy_mask = None
        else:
            outputs = inst.outputs
            self.copy_mask = tuple(
                any(r.overlaps(o) for o in outputs) for r in inst.inputs)


class BatchedItem:
    """One lowered fusion group with resolved addressing: per-operand
    gather specs, the output scatter spec and the group's stacked kernel.
    Its lanes share their lead's kind, opcode, level, run_attrs and
    write-back mode (:func:`lower_plan`)."""

    __slots__ = ("start", "stop", "k", "opcode", "opval", "level",
                 "run_attrs", "accumulate", "gathers", "scatter",
                 "out_shape", "out_nelems", "batched_kernel", "n_in")
    batched = True
    folded = False

    def __init__(self, index: int, lanes: Sequence[PlanStep], batched_kernel,
                 slices: _SliceTable, table: RegionTable) -> None:
        lead = lanes[0]
        inst = lead.inst
        self.start = index
        self.stop = index + len(lanes)
        self.k = len(lanes)
        self.opcode = inst.opcode
        self.opval = inst.opcode.value
        self.level = lead.level
        self.run_attrs = lead.run_attrs
        self.accumulate = lead.accumulate
        self.batched_kernel = batched_kernel
        self.n_in = len(inst.inputs)
        rows = table.first[self.start:self.stop]
        self.gathers = tuple(
            _table_access(table, rows + j, lanes, j, slices)
            for j in range(self.n_in))
        self.scatter = _table_access(table, rows + self.n_in, lanes,
                                     self.n_in, slices)
        # Fusion legality makes a group's outputs pairwise disjoint, so no
        # output lattice places one tile at two lanes.
        assert not self.scatter.repeats, "fused lanes write one tile"
        self.out_shape = inst.outputs[0].shape
        self.out_nelems = inst.outputs[0].nelems


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


def _chained(prev: PlanStep, step: PlanStep) -> bool:
    """Does ``step`` continue a foldable chain from ``prev``, as far as
    the two steps alone tell?  Both run one of :data:`_FOLD_OPCODES` with
    one kind, level and attributes; neither accumulates and both are
    alias-free; every region of the two has the shape of ``prev``'s
    output, and ``step``'s first input is exactly that output."""
    if step.inst.opcode not in _FOLD_OPCODES:
        return False
    if not (_foldable(prev) and _foldable(step)):
        return False
    mid = prev.inst.outputs[0]
    head, term = step.inst.inputs
    shape = mid.shape
    return (head.tensor.uid == mid.tensor.uid and head.bounds == mid.bounds
            and step.inst.opcode is prev.inst.opcode
            and step.kind == prev.kind and step.level == prev.level
            and step.run_attrs == prev.run_attrs
            and term.shape == shape
            and step.inst.outputs[0].shape == shape
            and all(r.shape == shape for r in prev.inst.inputs))


def _fold_links(plan: FractalPlan, table: RegionTable) -> Set[int]:
    """Indices ``i`` whose step feeds step ``i + 1`` through a link of a
    foldable chain, proven from the plan's steps.

    The pair must be :func:`_chained`, and the linking region must cover
    a plan-owned tensor that no other step reads or writes.  Pairs are
    read segment by segment: a span copy whose zero-copy flags are its
    source's takes its source's chained pairs, moved, since moving every
    tensor one to one keeps what :func:`_chained` reads; the pair across
    each segment edge is read anew.  Whether the linking tensor is
    plan-owned, covered and private is decided on the region table.
    """
    steps = plan.steps
    flags = [step.safe_zero_copy for step in steps]
    chained: List[int] = []
    for segment in table.segments:
        lo, hi, span = segment
        if span is not None:
            at, start, end = span[0], span[1], span[2]
            if flags[at:hi] != flags[start:end]:
                span = None
        if span is None:
            chained.extend(i for i in range(max(lo - 1, 0), hi - 1)
                           if _chained(steps[i], steps[i + 1]))
            continue
        if lo and _chained(steps[lo - 1], steps[lo]):
            chained.append(lo - 1)
        first, last = bisect_left(chained, start), bisect_left(chained, end - 1)
        chained.extend(i + at - start for i in chained[first:last])
    if not chained:
        return set()
    links = np.array(chained, np.int64)
    mids = table.first[links] + table.n_in[links]
    tensors = table.tid[mids]
    touches = np.bincount(table.tid, minlength=table.n_tensors)
    private = (~table.external[tensors] & table.covers(mids)
               & (touches[tensors] == 2))
    return set(links[private].tolist())


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

    def bind(self, store) -> "ReplayBinding":
        """This schedule bound to ``store``, with the cyclic collector
        paused (the binding allocates an object or two per item)."""
        with gc_paused():
            return ReplayBinding(self, store)


def build_schedule(plan: FractalPlan) -> ReplaySchedule:
    """Compile ``plan.steps`` and its fusion groups into a ReplaySchedule.

    The one lowering of the plan: every group :func:`lower_plan` keeps
    becomes one BatchedItem running its opcode's stacked kernel.  Outside
    those groups, each run of linked chain steps (:func:`_fold_links`)
    becomes one FoldItem, and every other step a SingleItem.
    """
    from ..ops.batch import batched_kernel_for
    from ..ops.dispatch import kernel_for

    slices = _SliceTable()
    items: List[object] = []
    table = region_table(plan)
    links = _fold_links(plan, table)

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
    groups = lower_plan(plan)
    for start, stop in groups:
        singles(pos, start)
        opcode = plan.steps[start].inst.opcode
        items.append(BatchedItem(start, plan.steps[start:stop],
                                 batched_kernel_for(opcode), slices, table))
        lanes += stop - start
        pos = stop
    singles(pos, plan.n_steps)
    arena = build_arena_layout(plan, items, table)
    return ReplaySchedule(items=items, n_steps=plan.n_steps, arena=arena,
                          batched_steps=len(groups), batched_lanes=lanes)


# -- arena layout -----------------------------------------------------------

@dataclass
class ArenaLayout:
    """First-fit packing of the plan's intermediates into one flat buffer.

    ``bindings`` maps each plan-owned (non-external) tensor to its element
    offset, in first-touch order.  A tensor whose first touch reads,
    accumulates or writes part of it observes its initial contents, which
    ``TensorStore.ensure`` semantics make zeros: ``zero_items`` lists the
    ``(item_ordinal, binding_index)`` pairs of such intermediates, to be
    zeroed when the live interval opens, and ``zero_externals`` such
    externals, to be zeroed at the start of a replay unless the caller
    bound them.  Intervals are measured in schedule-item ordinals, so a
    slot is never recycled while any lane of the current batched group
    still reads its old occupant.
    """

    total_elems: int
    bindings: List[Tuple[Tensor, int]]
    zero_items: List[Tuple[int, int]]
    zero_externals: List[Tensor]

    @property
    def nbytes(self) -> int:
        return self.total_elems * _ITEMSIZE


def build_arena_layout(plan: FractalPlan, items: Sequence[object],
                       table: RegionTable) -> ArenaLayout:
    """Pack plan-owned intermediates with a first-fit free list over their
    item-granular live intervals (the ``peak_live_bytes`` sweep, executed
    as an allocator instead of a high-water accounting pass).

    An item touches its steps' regions, inputs first; a fold touches its
    chain's operands and last output, never the intermediates it does not
    store.  First and last touches are read from the region table."""
    n = plan.n_steps
    ordinal = np.full(n, -1, np.int64)
    later = np.zeros(n, bool)  # a fold link after the first: head unread
    earlier = np.zeros(n, bool)  # a fold link before the last: unstored
    accumulate = np.zeros(len(items), bool)
    for k, item in enumerate(items):
        ordinal[item.start:item.stop] = k
        accumulate[k] = item.accumulate
        if item.folded:
            later[item.start + 1:item.stop] = True
            earlier[item.start:item.stop - 1] = True
    tid, out, step = table.tid, table.out, table.step_of_row
    pos = np.arange(len(tid)) - table.first[step]
    rows = np.flatnonzero((ordinal[step] >= 0)
                          & ~((pos == 0) & later[step]) & ~(out & earlier[step]))
    item_of = ordinal[step[rows]]
    # the order an item touches its regions: inputs first, then by row
    n_rows = max(len(tid), 1)
    touch = (item_of * 2 + out[rows]) * n_rows + rows
    first_touch = np.full(table.n_tensors, np.iinfo(np.int64).max, np.int64)
    last_item = np.full(table.n_tensors, -1, np.int64)
    np.minimum.at(first_touch, tid[rows], touch)
    np.maximum.at(last_item, tid[rows], item_of)
    touched = np.flatnonzero(last_item >= 0)
    touched = touched[np.argsort(first_touch[touched])]
    first_row = first_touch[touched] % n_rows
    first_item = ordinal[step[first_row]]
    #: dead-zero elimination: a tensor whose first touch is a full
    #: non-accumulate overwrite never observes its initial contents, so it
    #: needs no zeroing.  Any other first touch (a read, an accumulate, a
    #: partial write -- including one lane of a group writing its slice
    #: of a shared tensor) keeps ``ensure``'s zero-fill semantics
    #: conservatively.
    zero = (~out[first_row] | accumulate[first_item]
            | ~table.covers(first_row))
    external = table.external[touched]
    zero_externals = [table.tensor(t) for t in
                      touched[external & zero].tolist()]
    owned = ~external
    # plan-owned tensors (by table id) in first-touch order
    order = touched[owned].tolist()
    needs_zero = dict(zip(order, zero[owned].tolist()))
    nelems = dict(zip(order, table.shape[touched[owned]].prod(axis=1).tolist()))
    tensors = {t: table.tensor(t) for t in order}

    allocs_at: Dict[int, List[int]] = {}
    frees_at: Dict[int, List[int]] = {}
    for t, opens, closes in zip(order, first_item[owned].tolist(),
                                last_item[touched[owned]].tolist()):
        allocs_at.setdefault(opens, []).append(t)
        frees_at.setdefault(closes, []).append(t)

    free_blocks: List[Tuple[int, int]] = []  # (offset, size), offset-sorted
    end = 0
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

    for k in range(len(items)):
        for t in allocs_at.get(k, ()):
            off = alloc(nelems[t])
            offsets[t] = off
            binding_index[t] = len(bindings)
            bindings.append((tensors[t], off))
            if needs_zero[t]:
                # A first read/accumulate/partial write would observe the
                # slot: the last occupant's bytes, or a previous replay's.
                zero_items.append((k, binding_index[t]))
        for t in frees_at.get(k, ()):
            release(offsets[t], nelems[t])

    return ArenaLayout(total_elems=end, bindings=bindings,
                       zero_items=zero_items, zero_externals=zero_externals)


# -- binding a schedule to one store -----------------------------------------

def _view(buffer: np.ndarray, offset: int, shape: Tuple[int, ...],
          strides: Tuple[int, ...]) -> np.ndarray:
    """The view of C-contiguous ``buffer`` at byte ``offset`` with byte
    ``strides``, read-only when the buffer is.  Made straight from the
    buffer, it keeps nothing alive but the buffer's memory
    (``as_strided`` keeps an interface object per view)."""
    return np.ndarray(shape, buffer.dtype, buffer, offset, strides)


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class _Stack:
    """A bound lattice access: one strided view of every lane.  A gather
    is the view itself, or with ``shape`` one C-contiguous copy of it
    (several levels); a scatter writes the stack through it."""

    __slots__ = ("view", "shape")

    def __init__(self, view: np.ndarray,
                 shape: Optional[Tuple[int, ...]] = None) -> None:
        self.view = view
        self.shape = shape

    def gather(self) -> np.ndarray:
        if self.shape is None:
            return self.view
        out = self.view.reshape(self.shape)
        out.flags.writeable = False
        return out

    def scatter(self, stacked: np.ndarray, accumulate: bool) -> None:
        view = self.view
        stacked = stacked.reshape(view.shape)
        if accumulate:
            view += stacked
        else:
            view[...] = stacked


class _Lanes:
    """A bound loop access: ``(lanes, base, index)`` parts, each moving
    ``stack[lanes]`` from or to ``base[index]``.  A lane outside the arena
    is one part, addressed per replay from its tensor's array; the lanes
    inside it make one part whose index holds the arena offset of every
    lane element.  Fused outputs are pairwise disjoint, so a scatter's
    index never repeats an element."""

    __slots__ = ("parts", "shape")

    def __init__(self, parts, shape: Tuple[int, ...]) -> None:
        self.parts = parts
        self.shape = shape

    def gather(self) -> np.ndarray:
        out = np.empty(self.shape, dtype=np.float64)
        for lanes, base, index in self.parts:
            out[lanes] = base[index]
        out.flags.writeable = False
        return out

    def scatter(self, stacked: np.ndarray, accumulate: bool) -> None:
        for lanes, base, index in self.parts:
            if accumulate:
                base[index] += stacked[lanes]
            else:
                base[index] = stacked[lanes]


class _Binder:
    """Resolves regions and accesses to arrays while one binding is built:
    an external lives in the store's array for it, a plan-owned
    intermediate in its arena slot.  A read-only view is made from a
    read-only buffer, and operands that name one region share one view.
    Nothing keeps the binder once the binding is built."""

    def __init__(self, store, arena: Optional[np.ndarray] = None,
                 slots: Optional[Dict[int, int]] = None) -> None:
        self.store = store
        self.slots = slots or {}
        if arena is None:
            arena = np.empty(0)
        #: writable -> the arena; ``"ids"`` -> each arena element's
        #: offset, made on first use
        self._arenas = {True: arena, False: _readonly(arena)}
        self._externals: Dict[Tuple[int, bool], np.ndarray] = {}
        self._places: Dict[Tuple, Tuple] = {}
        self._views: Dict[Tuple[int, int, bool], np.ndarray] = {}

    def _buffer(self, tensor: Tensor, writable) -> Tuple[np.ndarray, int]:
        """``(buffer, element offset)`` of ``tensor``, read-only unless
        ``writable`` (``"ids"``: each arena element's offset)."""
        slot = self.slots.get(tensor.uid)
        if slot is not None:
            buffer = self._arenas.get(writable)
            if buffer is None:
                buffer = self._arenas["ids"] = np.arange(
                    self._arenas[True].size)
            return buffer, slot
        key = (tensor.uid, writable)
        buffer = self._externals.get(key)
        if buffer is None:
            buffer = self.store.ensure(tensor)
            if not writable:
                buffer = _readonly(buffer)
            self._externals[key] = buffer
        return buffer, 0

    def _view(self, tensor: Tensor, sl, writable) -> np.ndarray:
        """``tensor[sl]`` in :meth:`_buffer`; ``sl`` comes from the
        schedule's slice table, so its identity names the bounds."""
        place = self._places.get((tensor.shape, id(sl)))
        if place is None:
            strides = _elem_strides(tensor.shape)
            place = self._places[tensor.shape, id(sl)] = (
                sum(s.start * st for s, st in zip(sl, strides)),
                tuple(s.stop - s.start for s in sl),
                tuple(_ITEMSIZE * st for st in strides))
        buffer, off = self._buffer(tensor, writable)
        return np.ndarray(place[1], buffer.dtype, buffer,
                          _ITEMSIZE * (off + place[0]), place[2])

    def region(self, tensor: Tensor, sl, writable: bool) -> np.ndarray:
        """The view of ``tensor[sl]``, one per region."""
        key = (tensor.uid, id(sl), writable)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = self._view(tensor, sl, writable)
        return view

    def access(self, access, writable: bool):
        """``access`` bound as a gather, or (``writable``) a scatter."""
        if isinstance(access, _LatticeAccess):
            buffer, off = self._buffer(access.tensor, writable)
            view = _view(buffer, _ITEMSIZE * (off + access.origin),
                         access.counts + access.shape, access.byte_strides)
            copy = not (writable or access.zero_copy)
            return _Stack(view, (access.k,) + access.shape if copy else None)
        lanes = access.lane_slices
        inside = [i for i, (t, _) in enumerate(lanes) if t.uid in self.slots]
        parts = [(i, self.store.ensure(t), sl)
                 for i, (t, sl) in enumerate(lanes) if t.uid not in self.slots]
        if inside:
            index = np.array([self._view(*lanes[i], "ids") for i in inside])
            parts.append((slice(None) if len(inside) == access.k else inside,
                          self._arenas[True], index))
        return _Lanes(tuple(parts), (access.k,) + access.shape)


def _zero_views(arena: np.ndarray, spans) -> Optional[Tuple[np.ndarray, ...]]:
    """Views of the arena ``(lo, hi)`` spans, adjacent ones merged."""
    if not spans:
        return None
    merged: List[List[int]] = []
    for lo, hi in sorted(spans):
        if merged and merged[-1][1] == lo:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple(arena[lo:hi] for lo, hi in merged)


class ReplayBinding:
    """One :class:`ReplaySchedule` bound to one store, built once.

    The binding allocates the arena and resolves every item's operands
    and outputs: read-only views for singles and fold terms, the lattice
    view of each one-level gather and the strided source of each
    multi-level one, a writable view per lattice scatter, and per-lane
    addressing of loop lanes from bound base arrays.  ``entries`` holds
    ``(item, operands, outputs, zeros)`` per item, where ``zeros`` are the
    arena slots to zero before the item runs (:class:`ArenaLayout`'s
    ``zero_items``) or ``None``.  ``zero_externals`` are the arrays of the
    layout's ``zero_externals`` that the caller did not bind, zeroed at
    the start of every replay.  The read tallies count one replay.

    The binding keeps the store's arrays, never the store, so it makes no
    reference cycle.  It is valid while the store's arrays stay the ones
    it resolved: ``TensorStore`` drops its binding whenever one changes.
    """

    __slots__ = ("schedule", "arena", "entries", "zero_externals",
                 "zero_copy_reads", "copied_reads", "static_zero_copy",
                 "alias_scan_skips")

    def __init__(self, schedule: ReplaySchedule, store) -> None:
        layout = schedule.arena
        self.schedule = schedule
        arena = self.arena = np.zeros(layout.total_elems, dtype=np.float64)
        # Asked before the binder allocates what the caller left unbound.
        self.zero_externals = tuple(store.ensure(t)
                                    for t in layout.zero_externals
                                    if not store.caller_bound(t))
        spans: Dict[int, List[Tuple[int, int]]] = {}
        for ordinal, bi in layout.zero_items:
            tensor, off = layout.bindings[bi]
            spans.setdefault(ordinal, []).append((off, off + tensor.nelems))
        binder = _Binder(store, arena,
                         {t.uid: off for t, off in layout.bindings})
        zero_copy = copied = static = skips = 0
        entries = []
        for ordinal, item in enumerate(schedule.items):
            n_in = item.n_in
            if item.batched:
                k = item.k
                ins = tuple(binder.access(g, False) for g in item.gathers)
                outs = binder.access(item.scatter, True)
                views = sum(g.zero_copy for g in item.gathers)
                zero_copy += views * k
                copied += (n_in - views) * k
                static += n_in * k
            elif item.folded:
                ins = tuple(binder.region(t, sl, False) for t, sl in item.terms)
                outs = binder.region(*item.out_spec, True)
                zero_copy += n_in
                static += n_in
            else:
                ins = tuple(binder.region(t, sl, False)
                            for t, sl in item.in_specs)
                outs = tuple(binder.region(t, sl, True)
                             for t, sl in item.out_specs)
                if item.copy_mask is None:
                    zero_copy += n_in
                    static += n_in
                else:
                    skips += 1
                    copies = sum(item.copy_mask)
                    copied += copies
                    zero_copy += n_in - copies
            entries.append((item, ins, outs,
                            _zero_views(arena, spans.get(ordinal))))
        self.entries = entries
        self.zero_copy_reads = zero_copy
        self.copied_reads = copied
        self.static_zero_copy = static
        self.alias_scan_skips = skips
