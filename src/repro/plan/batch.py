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
  on the plan or in its document.  Items, the arena and a binding name
  every operand by its region-table id; the schedule keeps the table's
  per-tensor half (:class:`~repro.plan.regions.TensorTable`) and gives
  an id's tensor only when asked, so the build, a bind and a replay make
  no renewed partial.  A group a span copy re-emits is its source
  group's item, moved: one shift per lattice access, no re-factoring;
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
from itertools import chain, islice
from math import prod
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.gcpause import gc_paused
from ..core.isa import Opcode
from ..core.tensor import Region, Tensor
from .plan import FractalPlan, PlanStep, PlanSteps
from .regions import RegionTable, TensorTable, region_table

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
    single-output steps, and it starts at or after the stop of the last
    group kept, so no step replays twice.  Any other group -- only a plan
    whose groups were set by hand has one -- replays as singles.
    Deterministic in the plan's steps and fusion groups; reads the walked
    step each lead re-emits, never a copy.
    """
    key = region_table(plan).key
    steps = plan.steps
    groups: List[Tuple[int, int]] = []
    done = 0
    for start, stop in sorted(plan.fusion_groups):
        if (start >= done and len(steps.source(start).inst.outputs) == 1
                and (key[start:stop] == key[start]).all()):
            groups.append((start, stop))
            done = stop
    return groups


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
    ``rows`` finds the same tuples by a region table row's padded bounds
    and rank, as bytes (:func:`_specs`).  Scoped to one
    :func:`build_schedule` call: no cache outlives it.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        super().__init__()
        #: padded lows, padded highs and rank as int32 bytes -> the tuple
        self.rows: Dict[bytes, Tuple[slice, ...]] = {}

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
    made in one numpy call.  ``tid`` is the tensor's region-table id.
    """

    __slots__ = ("tid", "origin", "counts", "shape", "byte_strides",
                 "k", "zero_copy", "repeats")

    def __init__(self, tid: int, origin: int,
                 levels: Tuple[Tuple[int, int], ...],
                 shape: Tuple[int, ...], strides: Tuple[int, ...],
                 k: int) -> None:
        self.tid = tid
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

    def moved(self, tid: int, shift: int) -> "_LatticeAccess":
        """These lanes moved onto tensor ``tid``, which has this tensor's
        shape, ``shift`` elements on: every lane moves by one shift, so
        only the id and the origin change."""
        if tid == self.tid and not shift:
            return self
        access = object.__new__(_LatticeAccess)
        access.tid = tid
        access.origin = self.origin + shift
        access.counts = self.counts
        access.shape = self.shape
        access.byte_strides = self.byte_strides
        access.k = self.k
        access.zero_copy = self.zero_copy
        access.repeats = self.repeats
        return access


class _LoopAccess:
    """Lanes spread over several tensors: per-lane ``(tensor id, slice
    tuple)`` addressing.  Gather materializes the stack; scatter writes
    lane by lane."""

    __slots__ = ("lane_slices", "shape", "k")
    #: gathers materialize a stacked copy (tallied as copied reads).
    zero_copy = False
    repeats = False

    def __init__(self, lane_slices: List[Tuple[int, Tuple[slice, ...]]],
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


def _build_access(regions: Sequence[Region], slices: _SliceTable,
                  ids: Dict[int, int]):
    """The cheapest addressing mode covering one operand position's lanes:
    a lattice view when every lane is one tile shape on one tensor, else
    a per-lane loop.  ``ids`` maps each tensor's uid to its id."""
    lead = regions[0]
    uid = lead.tensor.uid
    access = None
    if all(r.tensor.uid == uid for r in regions):
        ndim, k = len(lead.bounds), len(regions)
        bounds = np.fromiter(
            chain.from_iterable(chain.from_iterable(r.bounds
                                                    for r in regions)),
            dtype=np.int64, count=2 * ndim * k).reshape(k, ndim, 2)
        access = _lattice_access(ids[uid], lead.tensor.shape, lead.shape,
                                 bounds[:, :, 0], bounds[:, :, 1])
    return access or _LoopAccess(
        [(ids[r.tensor.uid], slices[r.bounds]) for r in regions], lead.shape)


def _specs(table: RegionTable, rows: np.ndarray, slices: _SliceTable
           ) -> List[Tuple[int, Tuple[slice, ...]]]:
    """``(tensor id, slice tuple)`` of each of the region table's
    ``rows``, in order.  A row's slice tuple is found by its padded bounds
    and its tensor's rank, read as one bytes key."""
    tids = table.tid[rows]
    ndim = table.lo.shape[1]
    keys = np.empty((len(tids), 2 * ndim + 1), np.int32)
    keys[:, :ndim] = table.lo[rows]
    keys[:, ndim:-1] = table.hi[rows]
    keys[:, -1] = table.tensors.rank[tids]
    known = slices.rows
    specs = []
    for i, (t, key) in enumerate(zip(
            tids.tolist(), keys.view(np.dtype((np.void, keys.itemsize
                                               * keys.shape[1])))
            .ravel().tolist())):
        sl = known.get(key)
        if sl is None:
            row = keys[i].tolist()
            rank = row[-1]
            sl = known[key] = slices[tuple(zip(row[:rank],
                                               row[ndim:ndim + rank]))]
        specs.append((t, sl))
    return specs


def _table_access(table: RegionTable, rows: np.ndarray,
                  shape: Tuple[int, ...], slices: _SliceTable):
    """:func:`_build_access` of the lanes' regions of ``shape`` at the
    region table's ``rows``; ids and bounds come from the table."""
    tids = table.tid[rows]
    access = None
    if (tids == tids[0]).all():
        ndim, t = len(shape), int(tids[0])
        access = _lattice_access(t, table.tensors.shape_of(t), shape,
                                 table.lo[rows, :ndim], table.hi[rows, :ndim])
    return access or _LoopAccess(_specs(table, rows, slices), shape)


def _lattice_access(tid: int, tensor_shape: Tuple[int, ...],
                    shape: Tuple[int, ...], lows: np.ndarray,
                    highs: np.ndarray) -> Optional[_LatticeAccess]:
    """The lattice view of lanes of ``shape`` with these bounds on the
    tensor id ``tid`` names, of ``tensor_shape``, or ``None`` when their
    tiles differ in shape or sit on no lattice."""
    extents = highs - lows
    if not (extents == extents[0]).all():
        return None
    strides = _elem_strides(tensor_shape)
    offs = lows.astype(np.int64) @ np.array(strides, dtype=np.int64)
    levels = _lattice_levels(offs)
    if levels is None:
        return None
    return _LatticeAccess(tid, int(offs[0]), levels, shape, strides,
                          len(lows))


# -- schedule items ---------------------------------------------------------

class SingleItem:
    """One unfused plan step with every per-replay decision precomputed:
    the kernel callable, operand/output slice tuples, and (for steps the
    analyzer could not prove alias-free) the operand copy-mask the runtime
    overlap scan would otherwise recompute every run.  Its opcode, level
    and attributes are those of ``source``, the walked step it is or
    re-emits; its operands are ``specs``, inputs then outputs, each a
    ``(tensor id, slice tuple)``."""

    __slots__ = ("start", "stop", "opcode", "opval", "level", "run_attrs",
                 "accumulate", "kernel", "in_specs", "out_specs",
                 "copy_mask", "n_in")
    batched = False
    folded = False

    def __init__(self, index: int, source: PlanStep, kernel,
                 specs: Sequence[Tuple[int, Tuple[slice, ...]]],
                 safe: bool) -> None:
        inst = source.inst
        self.start = index
        self.stop = index + 1
        self.opcode = inst.opcode
        self.opval = inst.opcode.value
        self.level = source.level
        self.run_attrs = source.run_attrs
        self.accumulate = source.accumulate
        self.kernel = kernel
        n_in = self.n_in = len(inst.inputs)
        self.in_specs = tuple(specs[:n_in])
        self.out_specs = tuple(specs[n_in:])
        if safe:
            self.copy_mask = None
        else:
            self.copy_mask = tuple(
                any(_overlaps(r, o) for o in self.out_specs)
                for r in self.in_specs)


def _overlaps(a: Tuple[int, Tuple[slice, ...]],
              b: Tuple[int, Tuple[slice, ...]]) -> bool:
    """Whether two ``(tensor id, slices)`` operands share an element."""
    return a[0] == b[0] and all(
        x.start < y.stop and y.start < x.stop for x, y in zip(a[1], b[1]))


class BatchedItem:
    """One lowered fusion group with resolved addressing: per-operand
    gather specs, the output scatter spec and the group's stacked kernel.
    Its ``k`` lanes share the kind, opcode, level, run_attrs and
    write-back mode of ``lead``, the walked step its first lane is or
    re-emits (:func:`lower_plan`); their tensor ids and bounds come from
    the region table, or, for a span copy of a group, from the group's
    item, moved (:meth:`moved`)."""

    __slots__ = ("start", "stop", "k", "opcode", "opval", "level",
                 "run_attrs", "accumulate", "gathers", "scatter",
                 "out_shape", "out_nelems", "batched_kernel", "n_in")
    batched = True
    folded = False

    def __init__(self, index: int, k: int, lead: PlanStep, batched_kernel,
                 slices: _SliceTable, table: RegionTable) -> None:
        inst = lead.inst
        self.start = index
        self.stop = index + k
        self.k = k
        self.opcode = inst.opcode
        self.opval = inst.opcode.value
        self.level = lead.level
        self.run_attrs = lead.run_attrs
        self.accumulate = lead.accumulate
        self.batched_kernel = batched_kernel
        self.n_in = len(inst.inputs)
        rows = table.first[self.start:self.stop]
        self.gathers = tuple(
            _table_access(table, rows + j, r.shape, slices)
            for j, r in enumerate(inst.inputs))
        self.scatter = _table_access(table, rows + self.n_in,
                                     inst.outputs[0].shape, slices)
        # Fusion legality makes a group's outputs pairwise disjoint, so no
        # output lattice places one tile at two lanes.
        assert not self.scatter.repeats, "fused lanes write one tile"
        self.out_shape = inst.outputs[0].shape
        self.out_nelems = inst.outputs[0].nelems

    def moved(self, start: int, accesses: Sequence) -> "BatchedItem":
        """This item's group re-emitted at step ``start``: its opcode,
        kernel, level, attributes, write-back mode and output shape, with
        ``accesses``, the copy's gathers then its scatter."""
        item = object.__new__(BatchedItem)
        item.start = start
        item.stop = start + self.k
        item.k = self.k
        item.opcode = self.opcode
        item.opval = self.opval
        item.level = self.level
        item.run_attrs = self.run_attrs
        item.accumulate = self.accumulate
        item.batched_kernel = self.batched_kernel
        item.n_in = self.n_in
        item.gathers = tuple(accesses[:-1])
        item.scatter = accesses[-1]
        item.out_shape = self.out_shape
        item.out_nelems = self.out_nelems
        return item


class FoldItem:
    """A run of ``k`` chained g(.) links (``Add1D`` or ``Mul1D``) as one
    item: the opcode's reference kernel runs once per link, and each
    result passes straight into the next call as its first operand.  Only
    the last link's output is stored; the intermediates get no write, no
    arena slot and no re-zero.  Bit-identical to ``k`` singles: each link
    runs the same kernel on the same operands in the same order, and the
    float64 store round trip it skips is exact.  The links share the
    opcode, level and attributes of ``lead``, the walked step the first
    link is or re-emits; ``terms`` are the first link's first operand,
    then every link's second one, each a ``(tensor id, slice tuple)``."""

    __slots__ = ("start", "stop", "k", "opcode", "opval", "level",
                 "run_attrs", "kernel", "terms", "out_spec", "n_in")
    batched = False
    folded = True
    accumulate = False

    def __init__(self, index: int, k: int, lead: PlanStep, kernel,
                 terms: Sequence[Tuple[int, Tuple[slice, ...]]],
                 out_spec: Tuple[int, Tuple[slice, ...]]) -> None:
        self.start = index
        self.stop = index + k
        self.k = k
        self.opcode = lead.inst.opcode
        self.opval = lead.inst.opcode.value
        self.level = lead.level
        self.run_attrs = lead.run_attrs
        self.kernel = kernel
        self.terms = tuple(terms)
        self.out_spec = out_spec
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
            and len(inst.inputs) == 2 and len(inst.outputs) == 1)


def _chained(steps: PlanSteps, flags: Sequence[bool], table: RegionTable,
             i: int) -> bool:
    """Does step ``i + 1`` continue a foldable chain from step ``i``, as
    far as the two steps alone tell?  Both run one of
    :data:`_FOLD_OPCODES` with one kind, level and attributes; neither
    accumulates and both are alias-free; every region of the two has the
    shape of step ``i``'s output, and step ``i + 1``'s first input is
    exactly that output.  The structure is read from the walked steps the
    two are or re-emit (a copy has its source's), the flags from their
    column and the placement from the region table, so no copy is
    built."""
    if not (flags[i] and flags[i + 1]):
        return False
    prev, step = steps.source(i), steps.source(i + 1)
    if not (_foldable(prev) and _foldable(step)):
        return False
    shape = prev.inst.outputs[0].shape
    if not (step.inst.opcode is prev.inst.opcode
            and step.kind == prev.kind and step.level == prev.level
            and step.run_attrs == prev.run_attrs
            and step.inst.inputs[1].shape == shape
            and step.inst.outputs[0].shape == shape
            and all(r.shape == shape for r in prev.inst.inputs)):
        return False
    mid, head = int(table.first[i]) + 2, int(table.first[i + 1])
    return bool(table.tid[mid] == table.tid[head]
                and (table.lo[mid] == table.lo[head]).all()
                and (table.hi[mid] == table.hi[head]).all())


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
    flags = steps.safe.tolist()
    chained: List[int] = []
    for segment in table.segments:
        lo, hi, span = segment
        if span is not None:
            at, start, end = span[0], span[1], span[2]
            if flags[at:hi] != flags[start:end]:
                span = None
        if span is None:
            chained.extend(i for i in range(max(lo - 1, 0), hi - 1)
                           if _chained(steps, flags, table, i))
            continue
        if lo and _chained(steps, flags, table, lo - 1):
            chained.append(lo - 1)
        first, last = bisect_left(chained, start), bisect_left(chained, end - 1)
        chained.extend(i + at - start for i in chained[first:last])
    if not chained:
        return set()
    links = np.array(chained, np.int64)
    mids = table.first[links] + table.n_in[links]
    tensors = table.tid[mids]
    touches = np.bincount(table.tid, minlength=table.n_tensors)
    private = (~table.tensors.external[tensors] & table.covers(mids)
               & (touches[tensors] == 2))
    return set(links[private].tolist())


# -- the replay schedule ----------------------------------------------------

@dataclass
class ReplaySchedule:
    """Batched replay program for one plan: ordered items, the arena, and
    the plan's tensors by region-table id (:class:`TensorTable`), which
    the items, the arena and a binding name them by.  It refers to no
    plan."""

    items: List[object]
    n_steps: int
    arena: "ArenaLayout"
    #: BatchedItems and the lanes they cover.
    batched_steps: int
    batched_lanes: int
    tensors: TensorTable

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

    def tensor(self, t: int) -> Tensor:
        """The tensor id ``t`` names; a renewed partial is made on ask."""
        return self.tensors.tensor(t)

    def bind(self, store) -> "ReplayBinding":
        """This schedule bound to ``store``, with the cyclic collector
        paused (the binding allocates an object or two per item)."""
        with gc_paused():
            return ReplayBinding(self, store)


def _group_moves(table: RegionTable, groups: Sequence[Tuple[int, int]]):
    """How each group inside one span copy moves from its source group.

    Returns ``(sources, tids, same, shifts)``.  ``sources`` maps such a
    group's start to ``(source start, row)``: its source group starts at
    ``start - at + start'`` of the span ``(at, start', ...)``, and
    ``row`` indexes the rows of its first step (inputs, then output) in
    the three lists.  Per such row: the copy's tensor id, whether that
    tensor has the source row's tensor's shape, and the element offset
    the span shifts the row by on it.  Read from the region table, for
    every group at once.
    """
    segments = [seg for seg in table.segments if seg.span is not None]
    if not segments or not groups:
        return {}, [], [], []
    los = np.array([seg.lo for seg in segments], np.int64)
    his = np.array([seg.hi for seg in segments], np.int64)
    srcs = np.array([seg.span[1] for seg in segments], np.int64)
    bounds = np.array(groups, np.int64)
    starts, stops = bounds[:, 0], bounds[:, 1]
    seg = np.maximum(np.searchsorted(los, starts, side="right") - 1, 0)
    inside = (starts >= los[seg]) & (stops <= his[seg])
    starts, seg = starts[inside], seg[inside]
    if not len(starts):
        return {}, [], [], []
    sources = starts - los[seg] + srcs[seg]
    first = table.first
    counts = first[starts + 1] - first[starts]
    row = np.cumsum(counts) - counts
    lane = np.arange(int(counts.sum())) - np.repeat(row, counts)
    dst = np.repeat(first[starts], counts) + lane
    src = np.repeat(first[sources], counts) + lane
    tids = table.tid[dst]
    shape = table.tensors.shape
    dst_shape = shape[tids]
    same = (dst_shape == shape[table.tid[src]]).all(axis=1)
    strides = np.ones_like(dst_shape)
    strides[:, :-1] = np.cumprod(dst_shape[:, :0:-1], axis=1)[:, ::-1]
    shifts = ((table.lo[dst] - table.lo[src]).astype(np.int64)
              * strides).sum(axis=1)
    return (dict(zip(starts.tolist(), zip(sources.tolist(), row.tolist()))),
            tids.tolist(), same.tolist(), shifts.tolist())


def build_schedule(plan: FractalPlan) -> ReplaySchedule:
    """Compile ``plan.steps`` and its fusion groups into a ReplaySchedule.

    The one lowering of the plan: every group :func:`lower_plan` keeps
    becomes one BatchedItem running its opcode's stacked kernel.  A group
    inside one span copy whose source group became a BatchedItem of as
    many lanes is that item, moved (:meth:`BatchedItem.moved`): each
    lattice access takes the copy's tensor id and, when that tensor has
    the source tensor's shape, its origin shifted by the span's shift;
    any other access is read from the copy's rows.  Outside the groups,
    each run of linked chain steps (:func:`_fold_links`) becomes one
    FoldItem, and every other step a SingleItem.  Every item reads its
    opcode, level and attributes from the walked step its first step is
    or re-emits, and names its operands by region-table id with bounds
    from the table, so the build reads a copy's rows, never its step,
    and makes no tensor.
    """
    from ..ops.batch import batched_kernel_for
    from ..ops.dispatch import kernel_for

    slices = _SliceTable()
    items: List[object] = []
    table = region_table(plan)
    steps = plan.steps
    first = table.first
    flags = steps.safe.tolist()
    links = _fold_links(plan, table)
    groups = lower_plan(plan)

    def runs(lo: int, hi: int):
        """The items of steps ``[lo, hi)``, none in a group, as ``(start,
        stop)``: a single, or a fold of linked chain steps."""
        index = lo
        while index < hi:
            stop = index + 1
            while stop < hi and stop - 1 in links:
                stop += 1
            yield index, stop
            index = stop

    # The items between the groups, per gap, and the rows they name, read
    # from the table at once: a single's regions; a fold's first link's
    # first operand, every link's second, then the last link's output.
    gaps = [list(runs(lo, hi)) for lo, hi in zip(
        [0] + [stop for _, stop in groups],
        [start for start, _ in groups] + [plan.n_steps])]
    at = first.tolist()
    rows: List[int] = []
    for index, stop in chain.from_iterable(gaps):
        if stop - index > 1:
            rows.append(at[index])
            rows.extend([row + 1 for row in at[index:stop]])
            rows.append(at[stop - 1] + 2)
        else:
            rows.extend(range(at[index], at[stop]))
    specs = iter(_specs(table, np.array(rows, np.int64), slices))

    def singles(gap: List[Tuple[int, int]]) -> None:
        for index, stop in gap:
            source = steps.source(index)
            kernel = kernel_for(source.inst.opcode)
            if stop - index > 1:
                terms = list(islice(specs, stop - index + 1))
                items.append(FoldItem(index, stop - index, source, kernel,
                                      terms, next(specs)))
            else:
                items.append(SingleItem(
                    index, source, kernel,
                    list(islice(specs, at[stop] - at[index])), flags[index]))

    def moved(source: BatchedItem, start: int, row: int) -> BatchedItem:
        accesses = []
        for j, access in enumerate(source.gathers + (source.scatter,)):
            if isinstance(access, _LatticeAccess) and same[row + j]:
                accesses.append(access.moved(tids[row + j], shifts[row + j]))
            else:
                accesses.append(_table_access(
                    table, first[start:start + source.k] + j, access.shape,
                    slices))
        return source.moved(start, accesses)

    lanes = 0
    sources, tids, same, shifts = _group_moves(table, groups)
    built: Dict[int, BatchedItem] = {}
    for gap, (start, stop) in zip(gaps, groups):
        singles(gap)
        item = None
        move = sources.get(start)
        if move is not None:
            source = built.get(move[0])
            if source is not None and source.k == stop - start:
                item = moved(source, start, move[1])
        if item is None:
            lead = steps.source(start)
            item = BatchedItem(start, stop - start, lead,
                               batched_kernel_for(lead.inst.opcode),
                               slices, table)
        built[start] = item
        items.append(item)
        lanes += stop - start
    singles(gaps[-1])
    arena = build_arena_layout(plan, items, table)
    return ReplaySchedule(items=items, n_steps=plan.n_steps, arena=arena,
                          batched_steps=len(groups), batched_lanes=lanes,
                          tensors=table.tensors)


# -- arena layout -----------------------------------------------------------

@dataclass
class ArenaLayout:
    """First-fit packing of the plan's intermediates into one flat buffer.

    ``bindings`` maps each plan-owned (non-external) tensor, by its
    region-table id, to its element offset, in first-touch order.  A
    tensor whose first touch reads, accumulates or writes part of it
    observes its initial contents, which ``TensorStore.ensure`` semantics
    make zeros: ``zero_items`` lists the ``(item_ordinal,
    binding_index)`` pairs of such intermediates, to be zeroed when the
    live interval opens, and ``zero_externals`` the ids of such
    externals, to be zeroed at the start of a replay unless the caller
    bound them.  Intervals are measured in schedule-item ordinals, so a
    slot is never recycled while any lane of the current batched group
    still reads its old occupant.
    """

    total_elems: int
    bindings: List[Tuple[int, int]]
    zero_items: List[Tuple[int, int]]
    zero_externals: List[int]

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
    # the items cover the steps in order, one item per step
    sizes = np.array([item.stop - item.start for item in items], np.int64)
    accumulate = np.array([item.accumulate for item in items], bool)
    folded = np.array([item.folded for item in items], bool)
    ordinal = np.repeat(np.arange(len(items)), sizes)
    lane = np.arange(plan.n_steps) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    in_fold = folded[ordinal]
    later = in_fold & (lane > 0)  # a fold link after the first: head unread
    earlier = in_fold & (lane < sizes[ordinal] - 1)  # before the last: unstored
    tid, out, step = table.tid, table.out, table.step_of_row
    pos = np.arange(len(tid)) - table.first[step]
    rows = np.flatnonzero(~((pos == 0) & later[step]) & ~(out & earlier[step]))
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
    external = table.tensors.external[touched]
    zero_externals = touched[external & zero].tolist()
    owned = ~external
    # plan-owned tensors (by table id) in first-touch order, and per item
    # the events of their intervals: the ones opening, in that order,
    # then the ones closing (event ``i`` opens ``order[i]``, ``m + i``
    # closes it)
    order = touched[owned].tolist()
    m = len(order)
    needs_zero = zero[owned].tolist()
    nelems = table.tensors.shape[touched[owned]].prod(axis=1).tolist()
    opens = first_item[owned]
    index = np.arange(m)
    events = np.lexsort((np.r_[index, index], np.repeat([0, 1], m),
                         np.r_[opens, last_item[touched[owned]]])).tolist()
    opens = opens.tolist()

    free_blocks: List[Tuple[int, int]] = []  # (offset, size), offset-sorted
    end = 0
    offsets = [0] * m
    bindings: List[Tuple[int, int]] = []
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
        # The free blocks are disjoint and never abut, so only the blocks
        # just above and just below can merge with this one.
        hi = off + n
        i = bisect_left(free_blocks, (off,))
        if i < len(free_blocks) and free_blocks[i][0] == hi:
            hi += free_blocks.pop(i)[1]
        if i:
            below, size = free_blocks[i - 1]
            if below + size == off:
                free_blocks[i - 1] = (below, hi - below)
                return
        free_blocks.insert(i, (off, hi - off))

    for i in events:
        if i < m:
            if needs_zero[i]:
                # A first read/accumulate/partial write would observe the
                # slot: the last occupant's bytes, or a previous replay's.
                zero_items.append((opens[i], len(bindings)))
            offsets[i] = alloc(nelems[i])
            bindings.append((order[i], offsets[i]))
        else:
            release(offsets[i - m], nelems[i - m])

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
    """Resolves regions and accesses, which name tensors by id, to arrays
    while one binding is built: a plan-owned intermediate lives in its
    arena slot (``slots``: id -> element offset), any other tensor -- an
    external -- in the store's array for the tensor ``tensors`` gives for
    its id.  A read-only view is made from a read-only buffer, and
    operands that name one region share one view.  Nothing keeps the
    binder once the binding is built."""

    def __init__(self, store, tensors: TensorTable,
                 arena: Optional[np.ndarray] = None,
                 slots: Optional[Dict[int, int]] = None) -> None:
        self.store = store
        self.tensors = tensors
        self.slots = slots or {}
        if arena is None:
            arena = np.empty(0)
        #: writable -> the arena; ``"ids"`` -> each arena element's
        #: offset, made on first use
        self._arenas = {True: arena, False: _readonly(arena)}
        self._externals: Dict[Tuple[int, bool], np.ndarray] = {}
        self._places: Dict[Tuple, Tuple] = {}
        self._views: Dict[Tuple[int, int, bool], np.ndarray] = {}

    def _buffer(self, t: int, writable) -> Tuple[np.ndarray, int]:
        """``(buffer, element offset)`` of tensor id ``t``, read-only
        unless ``writable`` (``"ids"``: each arena element's offset)."""
        slot = self.slots.get(t)
        if slot is not None:
            buffer = self._arenas.get(writable)
            if buffer is None:
                buffer = self._arenas["ids"] = np.arange(
                    self._arenas[True].size)
            return buffer, slot
        key = (t, writable)
        buffer = self._externals.get(key)
        if buffer is None:
            buffer = self.store.ensure(self.tensors.tensor(t))
            if not writable:
                buffer = _readonly(buffer)
            self._externals[key] = buffer
        return buffer, 0

    def _view(self, t: int, sl, writable) -> np.ndarray:
        """Tensor id ``t``'s ``[sl]`` in :meth:`_buffer`; ``sl`` comes from
        the schedule's slice table, so its identity names the bounds."""
        shape = self.tensors.shape_of(t)
        place = self._places.get((shape, id(sl)))
        if place is None:
            strides = _elem_strides(shape)
            place = self._places[shape, id(sl)] = (
                sum(s.start * st for s, st in zip(sl, strides)),
                tuple(s.stop - s.start for s in sl),
                tuple(_ITEMSIZE * st for st in strides))
        buffer, off = self._buffer(t, writable)
        return np.ndarray(place[1], buffer.dtype, buffer,
                          _ITEMSIZE * (off + place[0]), place[2])

    def region(self, t: int, sl, writable: bool) -> np.ndarray:
        """The view of tensor id ``t``'s ``[sl]``, one per region."""
        key = (t, id(sl), writable)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = self._view(t, sl, writable)
        return view

    def access(self, access, writable: bool):
        """``access`` bound as a gather, or (``writable``) a scatter."""
        if isinstance(access, _LatticeAccess):
            buffer, off = self._buffer(access.tid, writable)
            view = _view(buffer, _ITEMSIZE * (off + access.origin),
                         access.counts + access.shape, access.byte_strides)
            copy = not (writable or access.zero_copy)
            return _Stack(view, (access.k,) + access.shape if copy else None)
        lanes, slots = access.lane_slices, self.slots
        inside = [i for i, (t, _) in enumerate(lanes) if t in slots]
        parts = [(i, self.store.ensure(self.tensors.tensor(t)), sl)
                 for i, (t, sl) in enumerate(lanes) if t not in slots]
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
    and outputs, which name tensors by region-table id: an id the arena
    binds resolves to its slot, any other to the store's array for the
    external the schedule gives for the id, so no renewed partial is made.
    It makes read-only views for singles and fold terms, the lattice view
    of each one-level gather and the strided source of each multi-level
    one, a writable view per lattice scatter, and per-lane addressing of
    loop lanes from bound base arrays.  ``entries`` holds
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
        layout, tensors = schedule.arena, schedule.tensors
        self.schedule = schedule
        arena = self.arena = np.zeros(layout.total_elems, dtype=np.float64)
        # Asked before the binder allocates what the caller left unbound.
        self.zero_externals = tuple(
            store.ensure(t) for t in map(tensors.tensor, layout.zero_externals)
            if not store.caller_bound(t))
        spans: Dict[int, List[Tuple[int, int]]] = {}
        for ordinal, bi in layout.zero_items:
            t, off = layout.bindings[bi]
            spans.setdefault(ordinal, []).append(
                (off, off + prod(tensors.shape_of(t))))
        binder = _Binder(store, tensors, arena, dict(layout.bindings))
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
