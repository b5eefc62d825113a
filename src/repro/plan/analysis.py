"""Static dataflow analysis over compiled fractal plans.

A :class:`~repro.plan.plan.FractalPlan` records the exact flat sequence of
leaf kernel calls and LFU reductions one (program, machine) pair executes
-- which makes it the right artifact for *legality* analysis: every operand
region is resolved, every accumulate chain is explicit, and the paper's
lockstep-isomorphism claim ("all FFUs at a level execute isomorphic
sub-instructions") is visible as maximal runs of consecutive steps with
identical structural signatures.  This module walks that sequence once and
derives:

* **def-use chains and region liveness** -- which byte-ranges of which
  tensors each step reads and writes, when each tensor becomes live and
  dies, and the exact live-byte peak (:attr:`PlanAnalysis.peak_live_bytes`)
  an arena allocator would need, decided on the plan's region table
  (:class:`~repro.plan.regions.RegionTable`, every region as numpy
  columns);
* stable **P1xx diagnostics** (registered in
  :mod:`repro.analysis.diagnostics` next to the program-level F0xx codes):
  ``P100`` write-write races inside an unordered isomorphic run, ``P110``
  operands that alias an output of their own step (the runtime aliasing
  guard then forces a copy), ``P120`` dead steps whose outputs nothing
  consumes, and ``P130`` reads of a partially-accumulated region;
* **fusion-legality groups** -- maximal runs of consecutive steps with
  identical opcode/shape/dtype/attrs and *proven-disjoint* regions,
  serialized as ``plan.fusion_groups`` so a batched-execution pass can
  stack them into single numpy calls without re-proving anything;
* **static zero-copy proofs** -- steps whose operands provably never alias
  any of their outputs get ``PlanStep.safe_zero_copy``, letting the
  executor's replay path skip the runtime ``_read_operands`` overlap scan
  (counted as ``store.static_zero_copy``).

Races and fusion groups are decided per isomorphic run on the plan's
region table (:func:`_lattice_rows`).  Parallel decomposition splits a
tensor into near-equal tiles, so the boxes a run places on a tensor it
writes usually share one shape ``s`` with origins on one lattice of step
``s``; two such boxes overlap iff their ``(tensor, origin)`` keys are
equal, so every overlap test is a comparison of sorted keys.  A run off
that lattice falls back to exact per-tensor spatial-hash scans
(:class:`_BoxIndex`).

The plan is analysed segment by segment (:mod:`repro.plan.regions`): a
span copy the compile re-emitted takes its source's zero-copy proofs,
isomorphism classes and, for each run whose source lanes are a whole
run, that run's races and groups, moved; what its context changes (runs
crossing a segment edge, liveness) is decided anew.

Entry points: :func:`analyze_plan` (pure query), :func:`annotate_plan`
(stamps the products onto the plan; called by the compiler so every
compiled plan is analyzed exactly once) and :func:`verify_plan` (recompute
and compare -- the disk-cache load gate).  See ``docs/ANALYSIS.md`` for
the P1xx code table and the plan-lint triage workflow.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.diagnostics import AnalysisResult, Diagnostic, diag
from .plan import FractalPlan, PlanStep, self_alias
from .regions import RegionTable, Segment, region_table

#: version stamp of the analysis products embedded in plan documents;
#: bump whenever a rule change invalidates previously stored verdicts.
ANALYSIS_VERSION = 1

Bounds = Tuple[Tuple[int, int], ...]


def _overlap(a: Bounds, b: Bounds) -> bool:
    """Axis-aligned box overlap on raw bounds (no Region allocation)."""
    for (a_lo, a_hi), (b_lo, b_hi) in zip(a, b):
        if a_lo >= b_hi or b_lo >= a_hi:
            return False
    return True


def _intersect(a: Bounds, b: Bounds) -> Optional[Bounds]:
    out = []
    for (a_lo, a_hi), (b_lo, b_hi) in zip(a, b):
        lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
        if lo >= hi:
            return None
        out.append((lo, hi))
    return tuple(out)


class _BoxIndex:
    """Spatial hash of same-tensor boxes, grouped by box shape.

    Fractal decomposition emits *partitions*: many same-shape boxes tiling
    a tensor.  Hashing each box by ``floor(origin / shape)`` puts
    overlapping same-shape boxes in neighbouring cells, so a membership
    query touches O(3^ndim) cells instead of every stored box; queries
    against a different stored shape scan the (few) cells the query box
    spans.  It serves the isomorphic runs :func:`_lattice_rows`
    declines; no suite plan has one.
    """

    __slots__ = ("_by_shape",)

    def __init__(self) -> None:
        #: shape -> {cell: [bounds, ...]}
        self._by_shape: Dict[Tuple[int, ...],
                             Dict[Tuple[int, ...], List[Bounds]]] = {}

    @staticmethod
    def _cell(bounds: Bounds, shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(lo // max(1, s) for (lo, _), s in zip(bounds, shape))

    def add(self, bounds: Bounds) -> None:
        shape = tuple(max(1, hi - lo) for lo, hi in bounds)
        cells = self._by_shape.setdefault(shape, {})
        cells.setdefault(self._cell(bounds, shape), []).append(bounds)

    def query(self, bounds: Bounds) -> Optional[Bounds]:
        """Any stored box overlapping ``bounds``, or ``None``."""
        for shape, cells in self._by_shape.items():
            # Cells a box of `shape` must sit in to overlap `bounds`.
            ranges = [range((lo - s + 1) // s, (hi - 1) // s + 1)
                      for (lo, hi), s in zip(bounds, shape)]
            get = cells.get
            for cell in product(*ranges):
                for cand in get(cell, ()):
                    if _overlap(cand, bounds):
                        return cand
        return None


@dataclass
class PlanAnalysis:
    """Everything the dataflow analyzer derives from one plan."""

    result: AnalysisResult
    #: maximal fusion-legal runs as ``(start, stop)`` step-index ranges
    #: (half-open, each covering >= 2 steps).
    fusion_groups: List[Tuple[int, int]] = field(default_factory=list)
    #: per-step proof that no operand aliases any output of the same step.
    safe_zero_copy: List[bool] = field(default_factory=list)
    #: exact live-byte high-water mark over the replay order.
    peak_live_bytes: int = 0

    @property
    def n_safe_zero_copy(self) -> int:
        return sum(self.safe_zero_copy)

    @property
    def fused_steps(self) -> int:
        return sum(stop - start for start, stop in self.fusion_groups)

    def digest(self) -> str:
        """Stable hash of the derived products (the disk-cache re-verify
        token): any divergence between stored and recomputed products --
        tampered flags, a stale analyzer verdict after a rule change --
        changes this digest."""
        payload = {
            "version": ANALYSIS_VERSION,
            "diags": sorted((d.code, d.index) for d in self.result.diagnostics),
            "groups": [list(g) for g in self.fusion_groups],
            "safe": (np.asarray(self.safe_zero_copy, bool).astype(np.uint8)
                     + ord("0")).tobytes().decode("ascii"),
            "peak": self.peak_live_bytes,
        }
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_doc(self) -> dict:
        """The ``analysis`` section of a serialized plan document."""
        return {
            "version": ANALYSIS_VERSION,
            "diagnostics": [d.to_doc() for d in self.result.diagnostics],
            "n_errors": len(self.result.errors),
            "n_warnings": len(self.result.warnings),
            "safe_zero_copy_steps": self.n_safe_zero_copy,
            "fusion_groups": len(self.fusion_groups),
            "fused_steps": self.fused_steps,
            "peak_live_bytes": self.peak_live_bytes,
            "digest": self.digest(),
        }


def _race(index: int, inst, o, start: int, stop: int) -> Diagnostic:
    return diag(
        "P100",
        f"step {index} writes {o!r}, overlapping bytes another step of the "
        f"same isomorphic run [{start}:{stop}) already writes: sibling FFUs "
        f"race on the shared region",
        index, inst)


def _among(tid: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Whether each entry of ``tid`` is one of ``ids``, every id below
    ``n``: a mask indexed by id.  (``np.isin`` sorts through
    ``np.unique``, which imports ``numpy.ma`` on first use.)"""
    mask = np.zeros(n, bool)
    mask[ids] = True
    return mask[tid]


def _lattice_rows(table: RegionTable, steps: Sequence[PlanStep], start: int,
                  stop: int) -> Optional[Tuple[List[int], List[bool]]]:
    """Per-lane conflict facts of one isomorphic run, from the plan's
    region table.

    For lane ``e`` (0-based within the run) the facts are the latest
    earlier lane it conflicts with, ``-1`` for none -- its output overlaps
    an earlier lane's output or input, or one of its inputs overlaps an
    earlier lane's output -- and whether its output overlaps an earlier
    lane's output (a P100 race).  Read-read pairs never conflict, so only
    rows on tensors the run writes are read.  Those must lie on one
    lattice per tensor (one box shape, no zero extent, origins congruent
    modulo it); then two boxes overlap iff their ``(tensor, origin)`` keys
    are equal.  Sorted by key and lane, a lane's latest earlier conflict
    is, per row, the latest earlier lane writing the key it reads, or
    touching the key it writes; a write races when an earlier lane wrote
    its key.  The rows of a copied lane are its source's, moved, so a run
    reads the same whether its lanes were walked or copied.

    Returns ``None`` -- the run goes to the :class:`_BoxIndex` scans of
    :func:`_check_races` and :func:`_fusion_groups` -- when a written
    tensor is off its lattice, a box has a zero extent, or a step has
    more than one output (whose outputs might overlap each other).
    """
    r0, r1 = int(table.first[start]), int(table.first[stop])
    if r1 - r0 > (stop - start) * (int(table.n_in[start]) + 1):
        return None  # the run's steps have more than one output
    tid = table.tid[r0:r1]
    out = table.out[r0:r1]
    keep = _among(tid, tid[out], table.n_tensors)
    tid, out = tid[keep], out[keep]
    lane = table.step_of_row[r0:r1][keep] - start
    lo = table.lo[r0:r1][keep]
    extent = table.hi[r0:r1][keep] - lo
    by_tensor = np.argsort(tid, kind="stable")
    sorted_tid = tid[by_tensor]
    heads = np.flatnonzero(np.r_[True, sorted_tid[1:] != sorted_tid[:-1]])
    ref = by_tensor[heads][np.cumsum(np.r_[False, sorted_tid[1:]
                                           != sorted_tid[:-1]])]
    ref_extent = extent[ref]
    if ((extent[by_tensor] != ref_extent).any() or not ref_extent.all()
            or ((lo[by_tensor] - lo[ref]) % ref_extent).any()):
        return None
    order = np.lexsort([lane] + [lo[:, d] for d in reversed(range(lo.shape[1]))]
                       + [tid])
    tid, lo, lane, out = tid[order], lo[order], lane[order], out[order]
    new_key = np.r_[True, (tid[1:] != tid[:-1])
                    | (lo[1:] != lo[:-1]).any(axis=1)]
    new_pair = new_key | np.r_[True, lane[1:] != lane[:-1]]
    pair = np.cumsum(new_pair) - 1
    pair_lane = lane[new_pair]
    pair_key = np.cumsum(new_key)[new_pair] - 1
    pair_wrote = np.zeros(len(pair_lane), bool)
    pair_wrote[pair[out]] = True
    key_head = np.r_[True, pair_key[1:] != pair_key[:-1]]
    # the latest earlier lane touching / writing each pair's key
    touched = np.r_[-1, pair_lane[:-1]]
    touched[key_head] = -1
    big = stop - start + 2
    written = np.maximum.accumulate(
        np.where(pair_wrote, pair_lane + 1, 0) + pair_key * big) \
        - pair_key * big - 1
    wrote = np.r_[-1, written[:-1]]
    wrote[key_head] = -1
    latest = np.where(out, touched[pair], wrote[pair])
    conflicts = np.full(stop - start, -1, np.int64)
    np.maximum.at(conflicts, lane, latest)
    races = np.zeros(stop - start, bool)
    races[lane[out & (wrote[pair] >= 0)]] = True
    return conflicts.tolist(), races.tolist()


def _decide_runs(steps: Sequence[PlanStep], runs: Sequence[Tuple[int, int]],
                 safe: Sequence[bool], table: RegionTable,
                 ) -> Tuple[List[Diagnostic], List[Tuple[int, int]]]:
    """P100 races and fusion groups of every isomorphic run.

    A run inside one span copy whose source lanes are a whole run decided
    here takes that run's races and groups, moved: a decision reads only
    the run's own steps, and the copy's steps are its source's, moved one
    to one.  Any other run is decided by :func:`_lattice_rows` on the
    region table.  P100: in a plain (non-accumulate) run, a lane whose
    output an earlier lane wrote.  Groups: :func:`_fusion_groups`'
    greedy, where lane ``e`` extends the group starting at lane ``g`` iff
    it does not self-alias and its latest conflict is before ``g``.  Runs
    the lattice declines go to :func:`_check_races` and
    :func:`_fusion_groups`.
    """
    diags: List[Diagnostic] = []
    groups: List[Tuple[int, int]] = []
    declined: List[Tuple[int, int]] = []
    # run start -> (stop, racing lanes, groups as lane ranges)
    decided: Dict[int, Tuple[int, List[int], List[Tuple[int, int]]]] = {}
    for start, stop in runs:
        if stop - start < 2:
            continue
        segment = table.segment_at(start)
        got = _inherited(segment, decided, start, stop)
        if got is None:
            lattice = _lattice_rows(table, steps, start, stop)
            if lattice is None:
                declined.append((start, stop))
                continue
            conflicts, races = lattice
            got = ([] if table.acc[start] else
                   [lane for lane, raced in enumerate(races) if raced],
                   _greedy(conflicts, safe, start, stop))
        decided[start] = (stop,) + got
        for lane in got[0]:
            inst = steps[start + lane].inst
            diags.append(_race(start + lane, inst, inst.outputs[0],
                               start, stop))
        groups.extend((start + g, start + e) for g, e in got[1])
    if declined:
        diags.extend(_check_races(steps, declined))
        groups = sorted(groups + _fusion_groups(steps, declined))
    return diags, groups


def _inherited(segment: Segment, decided: Dict, start: int, stop: int):
    """The races and groups of run ``[start, stop)``, which starts in
    ``segment``, taken from its source, or ``None`` when it is not inside
    one copy or its source lanes are not a whole decided run."""
    if segment.span is None or stop > segment.hi:
        return None
    shift = segment.span[1] - segment.lo
    source = decided.get(start + shift)
    if source is None or source[0] != stop + shift:
        return None
    return source[1], source[2]


def _greedy(conflicts: Sequence[int], safe: Sequence[bool], start: int,
            stop: int) -> List[Tuple[int, int]]:
    """Fusion groups of one run as lane ranges: lane ``e`` extends the
    group starting at lane ``g`` iff it does not self-alias and its
    latest conflict is before ``g``."""
    groups: List[Tuple[int, int]] = []
    n, g = stop - start, 0
    while g < n:
        e = g
        while e < n and safe[start + e] and conflicts[e] < g:
            e += 1
        if e - g >= 2:
            groups.append((g, e))
            g = e
        else:
            g = max(e, g + 1)
    return groups


def _check_races(steps: Sequence[PlanStep],
                 runs: Sequence[Tuple[int, int]]) -> List[Diagnostic]:
    """P100: overlapping plain writes inside one isomorphic run.

    Steps of a run are unordered (sibling FFUs execute them in lockstep),
    so two of them writing the same bytes race.  Accumulate runs are
    exempt: overlapping ``+=`` is the output-dependent decomposition class
    and commutes up to float association.
    """
    diags: List[Diagnostic] = []
    for start, stop in runs:
        if stop - start < 2 or steps[start].accumulate:
            continue
        indexes: Dict[int, _BoxIndex] = {}
        for index in range(start, stop):
            inst = steps[index].inst
            reported = False
            for o in inst.outputs:
                box = indexes.setdefault(o.tensor.uid, _BoxIndex())
                if not reported and box.query(o.bounds) is not None:
                    diags.append(_race(index, inst, o, start, stop))
                    reported = True  # one report per step is enough
                # index every output regardless, so later steps clashing
                # only with this step's remaining outputs are still caught
                box.add(o.bounds)
    return diags


def _check_dead_steps(plan: FractalPlan,
                      table: RegionTable) -> List[Diagnostic]:
    """P120: steps whose outputs nothing ever consumes.

    A write is consumed when a later step reads overlapping bytes --
    including a later *accumulate* onto them (read-modify-write) -- or
    when it lands in an external tensor (visible to the caller after the
    run).  Everything else is wasted work the compiler should not have
    emitted.  Decided on the region table: every write to a non-external
    tensor, of a step no external write keeps, is paired with the later
    rows on its tensor.
    """
    steps = plan.steps
    live = np.zeros(len(steps), bool)
    tid, out, step = table.tid, table.out, table.step_of_row
    external = table.tensors.external[tid]
    live[step[out & external]] = True
    writes = out & ~external & ~live[step]
    if writes.any():
        consumes = ~out | table.acc[step]
        rows = np.flatnonzero(_among(tid, tid[writes], table.n_tensors))
        rows = rows[np.argsort(tid[rows], kind="stable")]
        by_tensor = tid[rows]
        ends = np.r_[np.flatnonzero(by_tensor[1:] != by_tensor[:-1]) + 1,
                     len(rows)]
        end = ends[np.cumsum(np.r_[False, by_tensor[1:] != by_tensor[:-1]])]
        at = np.flatnonzero(writes[rows])
        later = end[at] - at - 1
        lo, hi = table.lo, table.hi
        # pair each write with every later row on its tensor, in chunks
        bounds = np.r_[0, np.cumsum(later)]
        chunk = 1 << 20
        first = 0
        while first < len(at):
            last = int(np.searchsorted(bounds, bounds[first] + chunk,
                                       side="right")) - 1
            last = max(last, first + 1)
            counts = later[first:last]
            a = np.repeat(at[first:last], counts)
            b = a + 1 + np.arange(len(a)) - np.repeat(
                bounds[first:last] - bounds[first], counts)
            ra, rb = rows[a], rows[b]
            hit = (consumes[rb] & (step[rb] > step[ra])
                   & ((lo[ra] < hi[rb]) & (lo[rb] < hi[ra])).all(axis=1))
            live[step[ra[hit]]] = True
            first = last
    diags: List[Diagnostic] = []
    for index in np.flatnonzero(~live).tolist():
        step_ = steps[index]
        outs = ", ".join(repr(o) for o in step_.inst.outputs)
        diags.append(diag(
            "P120",
            f"step {index} writes {outs} but no later step reads any "
            f"of those bytes and no output is externally visible: "
            f"the step is dead weight in the plan",
            index, step_.inst))
    return diags


def _check_accumulate_order(plan: FractalPlan,
                            table: RegionTable) -> List[Diagnostic]:
    """P130: a read landing inside an open accumulation chain.

    For an accumulate write at step ``l`` onto bytes ``B``, the chain over
    ``B`` opens at the most recent *plain* write to ``B`` before ``l``
    (the chain's init; absent for an uninitialized chain).  Any other step
    reading ``B`` strictly between init and ``l`` observes a partial sum
    -- its value changes under any reordering or batching of the chain,
    which is exactly the hazard a fusion pass must not inherit.  Only the
    tensors some step accumulates onto are read, in the order of their
    first accumulate write.
    """
    tid, step = table.tid, table.step_of_row
    accumulated = table.out & table.acc[step]
    if not accumulated.any():
        return []
    tensors, firsts = np.unique(tid[accumulated], return_index=True)
    steps = plan.steps
    reads: Dict[int, List[Tuple[int, Bounds]]] = {}
    writes: Dict[int, List[Tuple[int, Bounds]]] = {}
    acc_writes: Dict[int, List[Tuple[int, Bounds]]] = {
        int(t): [] for t in tensors[np.argsort(firsts)]}
    rows = np.flatnonzero(_among(tid, tensors, table.n_tensors))
    # bounds padded to the table's rank, which changes no overlap
    for index, t, out, acc, lo, hi in zip(
            step[rows].tolist(), tid[rows].tolist(),
            table.out[rows].tolist(), table.acc[step[rows]].tolist(),
            table.lo[rows].tolist(), table.hi[rows].tolist()):
        bounds = tuple(zip(lo, hi))
        if not out:
            reads.setdefault(t, []).append((index, bounds))
        else:
            writes.setdefault(t, []).append((index, bounds))
            if acc:
                acc_writes[t].append((index, bounds))
    diags: List[Diagnostic] = []
    reported: set = set()
    for t, acc_list in acc_writes.items():
        rlist = reads.get(t, ())
        if not rlist:
            continue
        acc_set = set(acc_list)
        plain = [(i, b) for i, b in writes.get(t, ())
                 if (i, b) not in acc_set]
        acc_idx = [i for i, _ in acc_list]
        for ridx, rbounds in rlist:
            if ridx in reported:
                continue
            pos = bisect_right(acc_idx, ridx)
            for l_idx, l_bounds in acc_list[pos:]:
                inter = _intersect(rbounds, l_bounds)
                if inter is None:
                    continue
                init = max((p for p, b in plain
                            if p < l_idx and _overlap(b, inter)), default=-1)
                if init < ridx:
                    tensor = table.tensors.tensor(t)
                    diags.append(diag(
                        "P130",
                        f"step {ridx} reads "
                        f"{tensor.name}{_fmt(inter[:tensor.ndim])} while the "
                        f"accumulation finishing at step {l_idx} is still "
                        f"open (chain init at step {init}): the read "
                        f"observes a partial sum",
                        ridx, steps[ridx].inst))
                    reported.add(ridx)
                    break
    diags.sort(key=lambda d: d.index)
    return diags


def _fmt(bounds: Bounds) -> str:
    return "[" + ",".join(f"{lo}:{hi}" for lo, hi in bounds) + "]"


def _fusion_groups(steps: Sequence[PlanStep],
                   runs: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Maximal batched-execution-legal runs (>= 2 steps each).

    A batched pass reads *all* group inputs, executes, then writes *all*
    group outputs -- legal iff within the group (a) outputs are pairwise
    disjoint (write-back order must not matter), (b) no step's input
    overlaps any step's output (no producer->consumer or aliasing inside
    the batch), intra-step included.  Checked incrementally while scanning
    each isomorphic run, so an illegal step closes the group and may start
    the next one.
    """
    groups: List[Tuple[int, int]] = []
    for run_start, run_stop in runs:
        if run_stop - run_start < 2:
            continue
        start = run_start
        while start < run_stop:
            out_idx: Dict[int, _BoxIndex] = {}
            in_idx: Dict[int, _BoxIndex] = {}
            stop = start
            while stop < run_stop:
                if not _extends_group(steps[stop], out_idx, in_idx):
                    break
                stop += 1
            if stop - start >= 2:
                groups.append((start, stop))
                start = stop
            else:
                start = max(stop, start + 1)
    return groups


def _extends_group(step: PlanStep, out_idx: Dict[int, _BoxIndex],
                   in_idx: Dict[int, _BoxIndex]) -> bool:
    """Check ``step`` against the group's region indexes; add it if legal."""
    inst = step.inst
    if self_alias(inst) is not None:
        return False
    for o in inst.outputs:
        uid = o.tensor.uid
        box = out_idx.get(uid)
        if box is not None and box.query(o.bounds) is not None:
            return False  # overlapping outputs: write-back order matters
        box = in_idx.get(uid)
        if box is not None and box.query(o.bounds) is not None:
            return False  # output stomps bytes a sibling reads
    for r in inst.inputs:
        box = out_idx.get(r.tensor.uid)
        if box is not None and box.query(r.bounds) is not None:
            return False  # reads bytes a sibling writes (producer in batch)
    for o in inst.outputs:
        out_idx.setdefault(o.tensor.uid, _BoxIndex()).add(o.bounds)
    for r in inst.inputs:
        in_idx.setdefault(r.tensor.uid, _BoxIndex()).add(r.bounds)
    return True


def _peak_live_bytes(plan: FractalPlan, table: RegionTable) -> int:
    """Exact live-byte high-water mark over the replay order.

    Externals are bound before step 0 and stay resident for the caller, so
    they are live over the whole plan; compile-created partials are live
    from their first access through their last.  (The current TensorStore
    never frees -- this number is what a reclaiming arena would peak at,
    which is the ROADMAP-2 sizing input.)
    """
    n = plan.n_steps
    external = sum({t.uid: t.nbytes for t in plan.externals}.values())
    if n == 0:
        return external
    tid, step = table.tid, table.step_of_row
    first = np.full(table.n_tensors, n, np.int64)
    last = np.full(table.n_tensors, -1, np.int64)
    np.minimum.at(first, tid, step)
    np.maximum.at(last, tid, step)
    partial = ~table.tensors.external & (last >= 0)
    delta = np.zeros(n + 1, np.int64)
    delta[0] = external
    np.add.at(delta, first[partial], table.tensors.size[partial])
    np.subtract.at(delta, last[partial] + 1, table.tensors.size[partial])
    return max(0, int(np.cumsum(delta[:n]).max()))


def analyze_plan(plan: FractalPlan) -> PlanAnalysis:
    """Run the full dataflow analysis over ``plan`` (pure; no mutation
    beyond keeping its region table).

    Returns the diagnostics plus the three derived products (fusion
    groups, zero-copy proofs, live-byte peak).  The analysis runs segment
    by segment (:mod:`repro.plan.regions`): a span copy takes its source's
    zero-copy proofs and isomorphism classes, and each of its runs whose
    source lanes are a whole decided run takes that run's races and
    groups, moved; runs crossing a segment edge are decided anew, and the
    liveness facts (P120, P130, the live-byte peak) are decided on the
    whole region table.  A plan without spans is one walked segment.
    """
    steps = plan.steps
    table = region_table(plan)
    result = AnalysisResult(
        program_name=f"plan:{plan.signature_digest[:16]}",
        instructions=len(steps))
    safe = table.safe.tolist()
    for index in np.flatnonzero(~table.safe).tolist():
        step = steps[index]
        r, o = self_alias(step.inst)
        result.diagnostics.append(diag(
            "P110",
            f"step {index} reads {r.tensor.name}{_fmt(r.bounds)} "
            f"overlapping its own output {_fmt(o.bounds)}: the replay "
            f"aliasing guard must copy the operand every run",
            index, step.inst))
    races, groups = _decide_runs(steps, table.runs(), safe, table)
    result.extend(races)
    result.extend(_check_dead_steps(plan, table))
    result.extend(_check_accumulate_order(plan, table))
    result.diagnostics.sort(
        key=lambda d: (d.index if d.index >= 0 else 1 << 30, d.code))

    return PlanAnalysis(
        result=result,
        fusion_groups=groups,
        safe_zero_copy=safe,
        peak_live_bytes=_peak_live_bytes(plan, table),
    )


def annotate_plan(plan: FractalPlan,
                  analysis: Optional[PlanAnalysis] = None) -> PlanAnalysis:
    """Analyze ``plan`` and stamp the products onto it (in place).

    Sets the plan's zero-copy flag column
    (:meth:`~repro.plan.plan.PlanSteps.set_safe`, which replaces each
    built step whose flag changes), ``plan.fusion_groups``,
    ``plan.analysis`` (the serializable summary, diagnostics included)
    and ``plan.stats.peak_live_bytes``.  Called by
    the compiler so every plan that reaches the executor or a cache tier
    carries verified products.
    """
    if analysis is None:
        analysis = analyze_plan(plan)
    # Compiled steps already carry the flag from construction, so this
    # replaces only built steps whose flag was set otherwise.
    plan.steps.set_safe(analysis.safe_zero_copy)
    plan.fusion_groups = list(analysis.fusion_groups)
    plan.analysis = analysis.to_doc()
    plan.stats.peak_live_bytes = analysis.peak_live_bytes
    # The replay schedule derives from the products stamped above;
    # re-annotation invalidates it (rebuilt lazily on next use).
    plan._schedule = None
    return analysis


def verify_plan(plan: FractalPlan) -> PlanAnalysis:
    """Re-analyze ``plan`` and check it against its stored products.

    The disk-cache load gate: a plan document whose ``analysis`` digest
    does not match a fresh analysis of its own steps -- tampered flags,
    hand-edited fusion groups, or verdicts from an older analyzer version
    -- raises :class:`ValueError` so the caller treats the entry as
    corrupt and recompiles.  The fresh analysis runs by span, as every
    analysis does, on the region table
    :func:`~repro.plan.plan.plan_from_doc` built and checked; a loaded
    plan's spans are ones that load proved one to one over its own steps,
    so each copy's products are its source's.  The flags are compared on
    their column, so no copy is built.  Returns the fresh analysis on
    success.
    """
    analysis = analyze_plan(plan)
    stored = plan.analysis or {}
    stored_digest = stored.get("digest")
    if stored.get("version") != ANALYSIS_VERSION:
        raise ValueError(
            f"plan analysis version {stored.get('version')!r} != "
            f"{ANALYSIS_VERSION}")
    if stored_digest != analysis.digest():
        raise ValueError(
            "plan analysis digest mismatch: stored products do not match "
            "a fresh analysis of the plan's steps")
    if plan.steps.safe.tolist() != analysis.safe_zero_copy:
        raise ValueError("plan safe_zero_copy flags do not match analysis")
    if [tuple(g) for g in plan.fusion_groups] != analysis.fusion_groups:
        raise ValueError("plan fusion groups do not match analysis")
    return analysis


def spanless_mismatch(plan: FractalPlan) -> Optional[str]:
    """How the products ``plan``'s spans give differ from those of the
    same steps without spans, or ``None``.

    The oracle of the by-span derivation: ``replace(plan, spans=[])`` is
    one walked segment, so every product is derived step by step.  Both
    analyses must agree on the digest, the diagnostics (code, index,
    message), the fusion groups, the zero-copy flags and the live-byte
    peak; both replay schedules, built from ``plan``'s fusion groups, on
    every item field, access and fold term and on the arena, each tensor
    id read as the tensor its schedule gives for it.
    """
    from dataclasses import replace

    from .batch import build_schedule  # deferred: import order

    # both are copies, so ``plan`` keeps its own region table
    oracle = replace(plan, spans=[])
    by_span = replace(plan)
    got, want = analyze_plan(by_span), analyze_plan(oracle)
    for name, value in (
            ("digest", lambda a: a.digest()),
            ("diagnostics", lambda a: [(d.code, d.index, d.message)
                                       for d in a.result.diagnostics]),
            ("fusion groups", lambda a: a.fusion_groups),
            ("zero-copy flags", lambda a: a.safe_zero_copy),
            ("peak_live_bytes", lambda a: a.peak_live_bytes)):
        if value(got) != value(want):
            return f"analysis {name} differ from the spanless plan's"
    got, want = build_schedule(by_span), build_schedule(oracle)
    if len(got.items) != len(want.items):
        return "replay schedule item counts differ from the spanless plan's"
    for index, (a, b) in enumerate(zip(got.items, want.items)):
        if _item_fields(a, got.tensor) != _item_fields(b, want.tensor):
            return (f"replay schedule item {index} [{a.start}:{a.stop}) "
                    f"differs from the spanless plan's")
    if (_arena_fields(got.arena, got.tensor)
            != _arena_fields(want.arena, want.tensor)):
        return "arena layout differs from the spanless plan's"
    return None


def _spec(spec, tensor) -> Tuple:
    """A ``(tensor id, slice tuple)`` operand as ``(uid, bounds)``;
    ``tensor`` gives the tensor an id names."""
    t, sl = spec
    return tensor(t).uid, tuple((s.start, s.stop) for s in sl)


def _access_fields(access, tensor) -> Tuple:
    if hasattr(access, "lane_slices"):
        return ("loop", access.shape, access.k,
                tuple(_spec(s, tensor) for s in access.lane_slices))
    return ("lattice", tensor(access.tid).uid, access.origin, access.counts,
            access.shape, access.byte_strides, access.k, access.zero_copy,
            access.repeats)


def _item_fields(item, tensor) -> Tuple:
    """Everything a replay reads from one schedule item, each tensor id
    as the uid of the tensor ``tensor`` gives for it."""
    head = (type(item).__name__, item.start, item.stop, item.opval,
            item.level, item.run_attrs, item.accumulate, item.n_in)
    if item.batched:
        return head + (item.k,
                       tuple(_access_fields(g, tensor) for g in item.gathers),
                       _access_fields(item.scatter, tensor), item.out_shape,
                       item.out_nelems)
    if item.folded:
        return head + (item.k, tuple(_spec(t, tensor) for t in item.terms),
                       _spec(item.out_spec, tensor))
    return head + (item.copy_mask,
                   tuple(_spec(spec, tensor) for spec in item.in_specs),
                   tuple(_spec(spec, tensor) for spec in item.out_specs))


def _arena_fields(arena, tensor) -> Tuple:
    return (arena.total_elems,
            [(tensor(t).uid, off) for t, off in arena.bindings],
            arena.zero_items, [tensor(t).uid for t in arena.zero_externals])
