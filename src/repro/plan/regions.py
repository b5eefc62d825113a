"""A plan's regions as columns, derived span by span.

The compile walks each distinct subtree once and re-emits its repeats
(``FractalPlan.spans``): steps ``[at, at + end - start)`` are steps
``[start, end)`` with each operand tensor of the template moved by one
shift and every other tensor renewed.  :func:`plan_segments` cuts a plan
into such copies and the runs of walked steps between them, and
:class:`RegionTable` holds every region the steps name as numpy columns,
built segment by segment: a walked step's regions are read from its
instruction, a copy's are its source's rows with each tensor id mapped
and each moved row shifted, with no Python work per step.

What a copy takes from its source holds only while its moves are one to
one: two source tensors never land on one tensor, and no tensor moves
twice.  Then two source regions overlap iff their copies do, so every
overlap fact inside the source range (a step aliasing itself, two lanes
of a run conflicting) holds inside the copy.  The compile's memo moves
each operand tensor of a node onto the one its repeat names
(:func:`repro.core.decomposition.base._template_key` fixes which operands
share a tensor), and :func:`repro.plan.plan.plan_from_doc` rejects a
document span that does not; this module trusts a plan's spans.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.decomposition.base import _renew
from ..core.tensor import Tensor
from .plan import FractalPlan, PlanStep, self_alias


def run_key(step: PlanStep) -> Tuple:
    """Two steps with equal keys are *isomorphic*: same kind and level,
    identical opcode/operand shapes/dtypes/attrs.  Consecutive equal-key
    steps form the lockstep runs the paper's FFUs execute in parallel."""
    return (step.kind, step.level, step.inst.signature())


class Segment(NamedTuple):
    """Steps ``[lo, hi)`` of a plan: one span's copies (``span`` is the
    span), or walked steps (``span`` is ``None``)."""

    lo: int
    hi: int
    span: Optional[Tuple]


def plan_segments(plan: FractalPlan) -> List[Segment]:
    """The plan cut into span copies and the walked runs between them, in
    step order.  A plan without spans is one walked segment."""
    segments: List[Segment] = []
    done = 0
    for span in plan.spans:
        at, start, end = span[0], span[1], span[2]
        if at > done:
            segments.append(Segment(done, at, None))
        done = at + end - start
        segments.append(Segment(at, done, span))
    if done < plan.n_steps:
        segments.append(Segment(done, plan.n_steps, None))
    return segments


class RegionTable:
    """Every region a plan's steps name, one row each.

    Rows run in step order, a step's inputs before its outputs.  Per row:
    ``tid`` (a dense tensor id) and ``lo``/``hi`` (the bounds, padded to
    the plan's largest rank with ``(0, 1)``).  Per step: ``first`` (its
    first row; one entry more than steps), ``n_in``, ``acc`` (its
    write-back accumulates), ``key`` (its isomorphism class: equal keys
    mean equal :func:`run_key`) and ``safe`` (no operand aliases an output
    of the step).  Per tensor: ``size`` (bytes), ``external``, ``shape``
    (padded with 1s) and ``rank`` (a list).  A tensor a copy renews takes
    a new id, with its source tensor's shape and size; its object is the
    plan's renewed partial (:meth:`repro.plan.plan.PlanSteps.renewed`),
    made when :meth:`tensor` first asks for it, so the schedule, its arena
    and a built copy name one object.

    Built by :func:`region_table`; it reads the walked steps' regions
    once, and no copy's, so a plan whose steps are replaced by other
    instructions needs a new one (flags are not part of it).
    """

    __slots__ = ("steps", "segments", "first", "n_in", "acc", "key", "safe",
                 "tid", "lo", "hi", "size", "external", "shape", "rank",
                 "_starts", "_objects", "_origin", "_span_of", "_renew",
                 "_step_of_row", "_out")

    def __init__(self, plan: FractalPlan) -> None:
        steps = self.steps = plan.steps
        n = len(steps)
        segments = self.segments = plan_segments(plan)
        self._starts = [seg.lo for seg in segments]
        counts = np.zeros(n, np.int64)
        n_in = self.n_in = np.zeros(n, np.int64)
        acc = self.acc = np.zeros(n, bool)
        key = self.key = np.zeros(n, np.int64)
        safe = self.safe = np.zeros(n, bool)
        classes: Dict[Tuple, int] = {}
        walked: List[list] = []
        ndim = 1
        for seg in segments:
            if seg.span is None:
                regions: list = []
                for i in range(seg.lo, seg.hi):
                    step = steps[i]
                    inst = step.inst
                    key[i] = classes.setdefault(run_key(step), len(classes))
                    safe[i] = self_alias(inst) is None
                    n_in[i] = len(inst.inputs)
                    acc[i] = step.accumulate
                    counts[i] = len(inst.inputs) + len(inst.outputs)
                    regions.extend(inst.inputs)
                    regions.extend(inst.outputs)
                walked.append(regions)
                ndim = max([ndim] + [len(r.bounds) for r in regions])
            else:
                at, start, end, moves, _ = seg.span
                for arr in (counts, n_in, acc, key, safe):
                    arr[at:at + end - start] = arr[start:end]
                ndim = max([ndim] + [len(new.shape) for _, new, _ in moves])
        first = self.first = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=first[1:])
        rows = int(first[n])
        tid = self.tid = np.zeros(rows, np.int64)
        lo = self.lo = np.zeros((rows, ndim), np.int32)
        hi = self.hi = np.ones((rows, ndim), np.int32)

        uids: Dict[int, int] = {}
        objects: List[Optional[Tensor]] = []
        origin: List[int] = []  # a renewed tensor's source tensor
        span_of: List[int] = []  # the span (index) that renews it

        def known(t: Tensor) -> int:
            got = uids.get(t.uid)
            if got is None:
                got = uids[t.uid] = len(objects)
                objects.append(t)
                origin.append(got)
                span_of.append(-1)
            return got

        for t in plan.externals:
            known(t)
        pads = [((0, 1),) * (ndim - d) for d in range(ndim + 1)]
        sources: Dict[Tuple[int, int], Tuple] = {}
        walked_regions = iter(walked)
        span = -1  # the index of seg.span in plan.spans
        for seg in segments:
            r0 = int(first[seg.lo])
            if seg.span is None:
                regions = next(walked_regions)
                if not regions:
                    continue
                r1 = r0 + len(regions)
                tid[r0:r1] = [known(r.tensor) for r in regions]
                bounds = np.array([r.bounds + pads[len(r.bounds)]
                                   for r in regions], np.int32)
                lo[r0:r1] = bounds[:, :, 0]
                hi[r0:r1] = bounds[:, :, 1]
                continue
            span += 1
            at, start, end, moves, _ = seg.span
            s0, s1 = int(first[start]), int(first[end])
            d0, d1 = int(first[at]), int(first[at]) + s1 - s0
            cached = sources.get((start, end))
            if cached is None:
                cached = sources[start, end] = np.unique(
                    tid[s0:s1], return_inverse=True)
            unique, inverse = cached
            remap = np.empty(len(unique), np.int64)
            renewed = np.ones(len(unique), bool)
            shift = np.zeros((len(unique), ndim), np.int32)
            for old, new, offsets in moves:
                source = uids.get(old.uid)
                pos = int(np.searchsorted(unique, source)) \
                    if source is not None else len(unique)
                if pos < len(unique) and unique[pos] == source:
                    remap[pos] = known(new)
                    renewed[pos] = False
                    shift[pos, :len(offsets)] = offsets
            base, count = len(objects), int(renewed.sum())
            remap[renewed] = np.arange(base, base + count)
            origin.extend(unique[renewed].tolist())
            span_of.extend([span] * count)
            objects.extend([None] * count)
            tid[d0:d1] = remap[inverse]
            np.add(lo[s0:s1], shift[inverse], out=lo[d0:d1])
            np.add(hi[s0:s1], shift[inverse], out=hi[d0:d1])

        # A renewed tensor has its source's shape (and so size), and is
        # never external.
        root = np.array(origin, np.int64)
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up
        n_tensors = len(objects)
        size = np.zeros(n_tensors, np.int64)
        external = np.zeros(n_tensors, bool)
        shape = np.ones((n_tensors, ndim), np.int64)
        rank = np.zeros(n_tensors, np.int64)
        ext_uids = set(plan.external_uids())
        for t, obj in enumerate(objects):
            if obj is not None:
                size[t] = obj.nbytes
                external[t] = obj.uid in ext_uids
                shape[t, :len(obj.shape)] = obj.shape
                rank[t] = len(obj.shape)
        self.size = size[root]
        self.shape = shape[root]
        self.rank = rank[root].tolist()
        self.external = external
        self._objects = objects
        self._origin = origin
        self._span_of = span_of
        # A plan whose steps hold its spans names their renewed partials;
        # one whose steps were given apart from them (a list of built
        # steps) gets twins of its own, one per renewed id.
        self._renew = (plan.steps.renewed if plan.spans is plan.steps.spans
                       else None)
        self._step_of_row: Optional[np.ndarray] = None
        self._out: Optional[np.ndarray] = None

    @property
    def n_tensors(self) -> int:
        return len(self._objects)

    @property
    def step_of_row(self) -> np.ndarray:
        """The step each row belongs to."""
        if self._step_of_row is None:
            self._step_of_row = np.repeat(np.arange(len(self.steps)),
                                          np.diff(self.first))
        return self._step_of_row

    @property
    def out(self) -> np.ndarray:
        """Whether each row is an output of its step."""
        if self._out is None:
            step = self.step_of_row
            pos = np.arange(len(self.tid)) - self.first[step]
            self._out = pos >= self.n_in[step]
        return self._out

    def tensor(self, t: int) -> Tensor:
        """The tensor id ``t`` names; a renewed one is the plan's renewed
        partial of its source tensor, made on first ask."""
        obj = self._objects[t]
        if obj is None:
            source = self.tensor(self._origin[t])
            obj = self._objects[t] = (
                _renew(source) if self._renew is None
                else self._renew(self._span_of[t], source))
        return obj

    def covers(self, rows: np.ndarray) -> np.ndarray:
        """Whether each of ``rows`` spans its whole tensor."""
        return ((self.lo[rows] == 0).all(axis=1)
                & (self.hi[rows] == self.shape[self.tid[rows]]).all(axis=1))

    def runs(self) -> List[Tuple[int, int]]:
        """Maximal ``[start, stop)`` runs of consecutive steps of one
        isomorphism class (:func:`run_key`)."""
        n = len(self.key)
        if not n:
            return []
        cuts = (np.flatnonzero(self.key[1:] != self.key[:-1]) + 1).tolist()
        return list(zip([0] + cuts, cuts + [n]))

    def segment_at(self, index: int) -> Segment:
        """The segment holding step ``index``."""
        return self.segments[bisect_right(self._starts, index) - 1]


def region_table(plan: FractalPlan) -> RegionTable:
    """The plan's :class:`RegionTable`, kept on the plan: built anew when
    the plan has none or when its steps were replaced."""
    table = plan._regions
    if (table is None or table.steps is not plan.steps
            or len(table.key) != len(plan.steps)):
        table = plan._regions = RegionTable(plan)
    return table
