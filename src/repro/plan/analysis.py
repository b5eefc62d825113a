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
  an arena allocator would need;
* a **region-interference graph** (:class:`InterferenceGraph`) whose edges
  connect steps that touch overlapping bytes with at least one writer --
  the substrate for every legality question below;
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

Races and fusion groups are decided in one pass per isomorphic run,
keyed by ``(tensor uid, bounds)`` (:func:`_lattice_table`).  Parallel
decomposition splits a tensor into near-equal tiles, so the boxes a run
places on a tensor it writes usually share one shape ``s`` with origins
on one lattice of step ``s``; two such boxes overlap iff their bounds are
equal, and every overlap test is a dict lookup.  A run off that lattice
falls back to exact per-tensor spatial-hash scans (:class:`_BoxIndex`).

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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.diagnostics import AnalysisResult, Diagnostic, diag
from .plan import FractalPlan, PlanStep, self_alias

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
    spans.  It serves the isomorphic runs :func:`_lattice_table`
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


@dataclass(frozen=True)
class InterferenceEdge:
    """Two steps touching overlapping bytes, at least one writing.

    ``kind`` is ``"ww"`` (both write), ``"raw"`` (``a`` writes, ``b``
    reads) or ``"war"`` (``a`` reads, ``b`` writes); ``a < b`` in step
    order always.
    """

    a: int
    b: int
    kind: str
    tensor: str
    overlap: Bounds


class InterferenceGraph:
    """Region-interference graph of a plan: per-step, per-tensor accesses.

    Nodes are step indices; edges (enumerated lazily by :meth:`iter_edges`
    -- dense producer/consumer patterns make the full edge set quadratic)
    connect steps whose accessed byte-ranges overlap with at least one
    writer.  The per-tensor access tables double as the def-use index the
    diagnostics passes query.
    """

    def __init__(self, plan: FractalPlan):
        self.n_steps = plan.n_steps
        #: tensor uid -> [(step, bounds)] in step order
        self.writes: Dict[int, List[Tuple[int, Bounds]]] = {}
        self.reads: Dict[int, List[Tuple[int, Bounds]]] = {}
        #: accumulate writes only (subset of ``writes``)
        self.acc_writes: Dict[int, List[Tuple[int, Bounds]]] = {}
        self._names: Dict[int, str] = {}
        for index, step in enumerate(plan.steps):
            inst = step.inst
            for r in inst.inputs:
                uid = r.tensor.uid
                self._names[uid] = r.tensor.name
                self.reads.setdefault(uid, []).append((index, r.bounds))
            for r in inst.outputs:
                uid = r.tensor.uid
                self._names[uid] = r.tensor.name
                self.writes.setdefault(uid, []).append((index, r.bounds))
                if step.accumulate:
                    self.acc_writes.setdefault(uid, []).append(
                        (index, r.bounds))

    def tensor_name(self, uid: int) -> str:
        return self._names.get(uid, f"uid{uid}")

    def iter_edges(self, limit: Optional[int] = None
                   ) -> Iterator[InterferenceEdge]:
        """Enumerate interference edges (optionally capped at ``limit``).

        Write-write pairs come first per tensor, then read/write pairs;
        within a tensor, pairs are in (earlier, later) step order.
        """
        emitted = 0
        for uid, wlist in self.writes.items():
            name = self.tensor_name(uid)
            for a_pos in range(len(wlist)):
                i, wi = wlist[a_pos]
                for j, wj in wlist[a_pos + 1:]:
                    inter = _intersect(wi, wj)
                    if inter is None or i == j:
                        continue
                    yield InterferenceEdge(i, j, "ww", name, inter)
                    emitted += 1
                    if limit is not None and emitted >= limit:
                        return
            for ridx, r in self.reads.get(uid, ()):
                for widx, w in wlist:
                    if widx == ridx:
                        continue
                    inter = _intersect(r, w)
                    if inter is None:
                        continue
                    kind = "raw" if widx < ridx else "war"
                    a, b = min(widx, ridx), max(widx, ridx)
                    yield InterferenceEdge(a, b, kind, name, inter)
                    emitted += 1
                    if limit is not None and emitted >= limit:
                        return


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
    graph: Optional[InterferenceGraph] = None

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
            "safe": "".join("1" if s else "0" for s in self.safe_zero_copy),
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


def _run_key(step: PlanStep) -> Tuple:
    """Two steps with equal keys are *isomorphic*: same kind and level,
    identical opcode/operand shapes/dtypes/attrs.  Consecutive equal-key
    steps form the lockstep runs the paper's FFUs execute in parallel."""
    return (step.kind, step.level, step.inst.signature())


def _isomorphic_runs(steps: Sequence[PlanStep]) -> Iterator[Tuple[int, int]]:
    """Maximal ``[start, stop)`` runs of consecutive isomorphic steps."""
    start = 0
    while start < len(steps):
        key = _run_key(steps[start])
        stop = start + 1
        while stop < len(steps) and _run_key(steps[stop]) == key:
            stop += 1
        yield start, stop
        start = stop


def _race(index: int, inst, o, start: int, stop: int) -> Diagnostic:
    return diag(
        "P100",
        f"step {index} writes {o!r}, overlapping bytes another step of the "
        f"same isomorphic run [{start}:{stop}) already writes: sibling FFUs "
        f"race on the shared region",
        index, inst)


def _on_lattice(lattice: Dict[int, Tuple[Tuple[int, ...], Bounds]],
                uid: int, bounds: Bounds, shape: Tuple[int, ...]) -> bool:
    """Is this box on the lattice of tensor ``uid``'s first box?

    The first box a run places on a tensor fixes the tensor's box shape
    and origin; every later box must have that shape and an origin
    congruent to it modulo the shape.
    """
    ref = lattice.get(uid)
    if ref is None:
        if 0 in shape:
            return False
        lattice[uid] = (shape, bounds)
        return True
    return ref[0] == shape and not any(
        (lo - ref_lo) % s
        for (lo, _), (ref_lo, _), s in zip(bounds, ref[1], shape))


def _lattice_table(steps: Sequence[PlanStep], start: int, stop: int,
                   ) -> Optional[Tuple[List[int], List[bool]]]:
    """Per-lane conflict facts of one isomorphic run, from lattice keys.

    For lane ``e`` (0-based within the run) the table records the latest
    earlier lane it conflicts with, ``-1`` for none -- its output overlaps
    an earlier lane's output or input, or one of its inputs overlaps an
    earlier lane's output -- and whether its output overlaps an earlier
    lane's output (a P100 race).  Read-read pairs never conflict, so only
    tensors the run writes are tracked.  When all boxes on such a tensor,
    reads and writes alike, have one shape ``s`` and origins congruent
    modulo ``s``, two of them overlap iff their bounds are equal, so both
    facts are dict lookups keyed by ``(tensor uid, bounds)``.

    Returns ``None`` -- the run goes to the :class:`_BoxIndex` scans of
    :func:`_check_races` and :func:`_fusion_groups` -- when a written
    tensor is off its lattice, a box has a zero extent, or a step has
    more than one output (whose outputs might overlap each other).
    """
    first = steps[start].inst
    if len(first.outputs) > 1:
        return None
    in_shapes = [r.shape for r in first.inputs]
    out_shapes = [o.shape for o in first.outputs]
    written = {o.tensor.uid
               for index in range(start, stop)
               for o in steps[index].inst.outputs}
    lattice: Dict[int, Tuple[Tuple[int, ...], Bounds]] = {}
    # (uid, bounds) -> the latest lane writing it / writing or reading it
    last_write: Dict[Tuple[int, Bounds], int] = {}
    last_touch: Dict[Tuple[int, Bounds], int] = {}
    conflicts: List[int] = []
    races: List[bool] = []
    for lane in range(stop - start):
        inst = steps[start + lane].inst
        latest = -1
        touched = []
        for r, shape in zip(inst.inputs, in_shapes):
            uid = r.tensor.uid
            if uid in written:
                key = (uid, r.bounds)
                if key in last_touch:
                    wrote = last_write.get(key, -1)
                    if wrote > latest:
                        latest = wrote
                elif not _on_lattice(lattice, uid, r.bounds, shape):
                    return None
                touched.append(key)
        raced = False
        for o, shape in zip(inst.outputs, out_shapes):
            key = (o.tensor.uid, o.bounds)
            last = last_touch.get(key)
            if last is None:
                if not _on_lattice(lattice, key[0], o.bounds, shape):
                    return None
            else:
                if last > latest:
                    latest = last
                raced = key in last_write
            last_write[key] = lane
            touched.append(key)
        for key in touched:
            last_touch[key] = lane
        conflicts.append(latest)
        races.append(raced)
    return conflicts, races


def _decide_runs(steps: Sequence[PlanStep], runs: Sequence[Tuple[int, int]],
                 safe: Sequence[bool],
                 ) -> Tuple[List[Diagnostic], List[Tuple[int, int]]]:
    """P100 races and fusion groups of every isomorphic run.

    Each run is decided by its :func:`_lattice_table`.  P100: in a plain
    (non-accumulate) run, a lane whose output an earlier lane wrote.
    Groups: :func:`_fusion_groups`' greedy, where lane ``e`` extends the
    group starting at lane ``g`` iff it does not self-alias and its
    latest conflict is before ``g``.  Runs the table declines go to
    :func:`_check_races` and :func:`_fusion_groups`.
    """
    diags: List[Diagnostic] = []
    groups: List[Tuple[int, int]] = []
    declined: List[Tuple[int, int]] = []
    for start, stop in runs:
        if stop - start < 2:
            continue
        table = _lattice_table(steps, start, stop)
        if table is None:
            declined.append((start, stop))
            continue
        conflicts, races = table
        if not steps[start].accumulate:
            for lane, raced in enumerate(races):
                if raced:
                    inst = steps[start + lane].inst
                    diags.append(_race(start + lane, inst, inst.outputs[0],
                                       start, stop))
        n, g = stop - start, 0
        while g < n:
            e = g
            while e < n and safe[start + e] and conflicts[e] < g:
                e += 1
            if e - g >= 2:
                groups.append((start + g, start + e))
                g = e
            else:
                g = max(e, g + 1)
    if declined:
        diags.extend(_check_races(steps, declined))
        groups = sorted(groups + _fusion_groups(steps, declined))
    return diags, groups


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
                      graph: InterferenceGraph) -> List[Diagnostic]:
    """P120: steps whose outputs nothing ever consumes.

    A write is consumed when a later step reads overlapping bytes --
    including a later *accumulate* onto them (read-modify-write) -- or
    when it lands in an external tensor (visible to the caller after the
    run).  Everything else is wasted work the compiler should not have
    emitted.
    """
    external = set(plan.external_uids())
    # consumption index: reads plus accumulate outputs, sorted by step.
    consumes: Dict[int, List[Tuple[int, Bounds]]] = {
        uid: list(entries) for uid, entries in graph.reads.items()}
    for uid, entries in graph.acc_writes.items():
        consumes.setdefault(uid, []).extend(entries)
    for entries in consumes.values():
        entries.sort(key=lambda e: e[0])
    consume_idx = {uid: [e[0] for e in entries]
                   for uid, entries in consumes.items()}

    diags: List[Diagnostic] = []
    for index, step in enumerate(plan.steps):
        live = False
        for o in step.inst.outputs:
            uid = o.tensor.uid
            if uid in external:
                live = True
                break
            entries = consumes.get(uid, ())
            pos = bisect_right(consume_idx.get(uid, ()), index)
            # Accumulates consume their own prior value, so a consumer at
            # the same index does not count; strictly-later only.
            if any(_overlap(o.bounds, bounds)
                   for _, bounds in entries[pos:]):
                live = True
                break
        if not live:
            outs = ", ".join(repr(o) for o in step.inst.outputs)
            diags.append(diag(
                "P120",
                f"step {index} writes {outs} but no later step reads any "
                f"of those bytes and no output is externally visible: "
                f"the step is dead weight in the plan",
                index, step.inst))
    return diags


def _check_accumulate_order(plan: FractalPlan,
                            graph: InterferenceGraph) -> List[Diagnostic]:
    """P130: a read landing inside an open accumulation chain.

    For an accumulate write at step ``l`` onto bytes ``B``, the chain over
    ``B`` opens at the most recent *plain* write to ``B`` before ``l``
    (the chain's init; absent for an uninitialized chain).  Any other step
    reading ``B`` strictly between init and ``l`` observes a partial sum
    -- its value changes under any reordering or batching of the chain,
    which is exactly the hazard a fusion pass must not inherit.
    """
    diags: List[Diagnostic] = []
    reported: set = set()
    for uid, acc_list in graph.acc_writes.items():
        rlist = graph.reads.get(uid, ())
        if not rlist:
            continue
        acc_set = set(acc_list)
        plain = [(i, b) for i, b in graph.writes.get(uid, ())
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
                    diags.append(diag(
                        "P130",
                        f"step {ridx} reads "
                        f"{graph.tensor_name(uid)}{_fmt(inter)} while the "
                        f"accumulation finishing at step {l_idx} is still "
                        f"open (chain init at step {init}): the read "
                        f"observes a partial sum",
                        ridx, plan.steps[ridx].inst))
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


def _peak_live_bytes(plan: FractalPlan) -> int:
    """Exact live-byte high-water mark over the replay order.

    Externals are bound before step 0 and stay resident for the caller, so
    they are live over the whole plan; compile-created partials are live
    from their first access through their last.  (The current TensorStore
    never frees -- this number is what a reclaiming arena would peak at,
    which is the ROADMAP-2 sizing input.)
    """
    n = plan.n_steps
    if n == 0:
        return sum(t.nbytes for t in plan.externals)
    external = set(plan.external_uids())
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    sizes: Dict[int, int] = {t.uid: t.nbytes for t in plan.externals}
    for index, step in enumerate(plan.steps):
        for r in step.inst.inputs + step.inst.outputs:
            uid = r.tensor.uid
            sizes.setdefault(uid, r.tensor.nbytes)
            first.setdefault(uid, index)
            last[uid] = index
    delta = [0] * (n + 1)
    for uid, size in sizes.items():
        if uid in external:
            lo, hi = 0, n - 1
        else:
            lo, hi = first.get(uid, 0), last.get(uid, 0)
        delta[lo] += size
        delta[hi + 1] -= size
    peak = live = 0
    for step_delta in delta[:n]:
        live += step_delta
        if live > peak:
            peak = live
    return peak


def analyze_plan(plan: FractalPlan, graph: Optional[InterferenceGraph] = None,
                 ) -> PlanAnalysis:
    """Run the full dataflow analysis over ``plan`` (pure; no mutation).

    Returns the diagnostics plus the three derived products (fusion
    groups, zero-copy proofs, live-byte peak).  Pass a prebuilt ``graph``
    to reuse the access index across analyses.
    """
    steps = plan.steps
    if graph is None:
        graph = InterferenceGraph(plan)
    runs = list(_isomorphic_runs(steps))

    result = AnalysisResult(
        program_name=f"plan:{plan.signature_digest[:16]}",
        instructions=len(steps))
    safe: List[bool] = []
    for index, step in enumerate(steps):
        alias = self_alias(step.inst)
        safe.append(alias is None)
        if alias is not None:
            r, o = alias
            result.diagnostics.append(diag(
                "P110",
                f"step {index} reads {r.tensor.name}{_fmt(r.bounds)} "
                f"overlapping its own output {_fmt(o.bounds)}: the replay "
                f"aliasing guard must copy the operand every run",
                index, step.inst))
    races, groups = _decide_runs(steps, runs, safe)
    result.extend(races)
    result.extend(_check_dead_steps(plan, graph))
    result.extend(_check_accumulate_order(plan, graph))
    result.diagnostics.sort(
        key=lambda d: (d.index if d.index >= 0 else 1 << 30, d.code))

    return PlanAnalysis(
        result=result,
        fusion_groups=groups,
        safe_zero_copy=safe,
        peak_live_bytes=_peak_live_bytes(plan),
        graph=graph,
    )


def annotate_plan(plan: FractalPlan,
                  analysis: Optional[PlanAnalysis] = None) -> PlanAnalysis:
    """Analyze ``plan`` and stamp the products onto it (in place).

    Sets ``PlanStep.safe_zero_copy`` on every proven step,
    ``plan.fusion_groups``, ``plan.analysis`` (the serializable summary,
    diagnostics included) and ``plan.stats.peak_live_bytes``.  Called by
    the compiler so every plan that reaches the executor or a cache tier
    carries verified products.
    """
    if analysis is None:
        analysis = analyze_plan(plan)
    # Compiled steps already carry the flag from construction, so this
    # rebuilds only steps whose flag was set otherwise.
    for index, is_safe in enumerate(analysis.safe_zero_copy):
        plan.steps[index] = plan.steps[index].with_safe(is_safe)
    plan.fusion_groups = list(analysis.fusion_groups)
    plan.analysis = analysis.to_doc()
    plan.stats.peak_live_bytes = analysis.peak_live_bytes
    # The lowering and replay schedule derive from the products stamped
    # above; re-annotation invalidates them (rebuilt lazily on next use).
    plan.batched = []
    plan._schedule = None
    return analysis


def verify_plan(plan: FractalPlan) -> PlanAnalysis:
    """Re-analyze ``plan`` and check it against its stored products.

    The disk-cache load gate: a plan document whose ``analysis`` digest
    does not match a fresh analysis of its own steps -- tampered flags,
    hand-edited fusion groups, or verdicts from an older analyzer version
    -- raises :class:`ValueError` so the caller treats the entry as
    corrupt and recompiles.  Returns the fresh analysis on success.
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
    flags = [bool(s.safe_zero_copy) for s in plan.steps]
    if flags != analysis.safe_zero_copy:
        raise ValueError("plan safe_zero_copy flags do not match analysis")
    if [tuple(g) for g in plan.fusion_groups] != analysis.fusion_groups:
        raise ValueError("plan fusion groups do not match analysis")
    from .batch import batched_table, lower_plan  # deferred: import order

    if batched_table(plan.ensure_lowered()) != batched_table(lower_plan(plan)):
        raise ValueError(
            "plan batched steps do not match a fresh lowering of its "
            "fusion groups")
    return analysis
