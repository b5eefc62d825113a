"""The replayable fractal plan: a flattened decomposition recursion.

A :class:`FractalPlan` is what the fractal controller hierarchy *would*
issue for one program on one machine, flattened into the exact ordered
sequence of leaf kernel calls and LFU reductions that the recursive
executor performs -- with all regions resolved and all decomposition
decisions (SD shrink chains, PD fan-outs, g(.) reduction schedules) baked
in at compile time.  Replaying a plan therefore produces *bit-identical*
results to recursive execution (same kernels, same operands, same order),
while skipping every ``shrink_sequential`` / ``decompose_parallel`` call.

A compiled or loaded plan holds its *walked* steps (the ones the compile's
walk emitted itself) and its *spans* (each subtree the compile re-emitted
from a template, :class:`repro.core.executor.WalkMemo`).  A copy a span
re-emits exists as rows of the plan's region table
(:mod:`repro.plan.regions`) until a caller asks for its step;
:class:`PlanSteps` then builds it from its span.  The analysis, the
schedule build, the document, the load and :meth:`FractalPlan.rebind`
build none.

Plans are pure data: they can be rebound onto a structurally identical
program with different tensors (:meth:`FractalPlan.rebind`) and round-
tripped through a versioned JSON document (:meth:`FractalPlan.to_doc` /
:func:`plan_from_doc`) for the on-disk cache.  The document keeps the
compile's templates: it lists the walked steps, and each span by its
source range, one move per operand tensor and a chain-id map.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, fields, replace
from typing import (Dict, List, Optional, Sequence, Tuple, get_args,
                    get_type_hints)

import numpy as np

from ..core.decomposition.base import _renew, _translate
from ..core.executor import WRITEBACK_ATTRS, WalkStats
from ..core.gcpause import gc_paused
from ..core.isa import Instruction, Opcode
from ..core.tensor import DType, Region, Tensor

#: version stamp of the serialized plan document; bump on any layout change
#: (old entries then simply miss and are recompiled).  v4 lists only the
#: walked steps in full and each re-emitted span by its source range,
#: operand moves and chain-id map, and drops v3's ``batched`` table, so v3
#: disk-cache entries miss and recompile.
PLAN_SCHEMA = "repro.plan"
PLAN_SCHEMA_VERSION = 4


class PlanFormatError(ValueError):
    """A serialized plan document is corrupt, truncated or incompatible."""


@dataclass(frozen=True)
class PlanStep:
    """One flattened execution step: a leaf kernel call or an LFU reduction.

    ``run_attrs`` is ``inst.attrs`` with the executor-internal write-back
    flags stripped (precomputed so replay does no per-step dict work), and
    ``accumulate`` is the write-back mode.  ``safe_zero_copy`` is a static
    proof that no operand of this step aliases any of its outputs, so
    replay may hand the kernel read-only views without the runtime
    ``_read_operands`` overlap scan.  :meth:`from_instruction` sets it at
    construction with :func:`self_alias`, the test behind the analyzer's
    P110.  A plan keeps its steps' flags in one column
    (:attr:`PlanSteps.safe`), and each step it holds carries the column's
    entry: a deserialized step its stored flag, which
    :func:`repro.plan.analysis.verify_plan` then checks.
    """

    kind: str  # "kernel" | "lfu"
    inst: Instruction
    level: int
    run_attrs: Dict[str, object]
    accumulate: bool
    safe_zero_copy: bool = False

    @staticmethod
    def from_instruction(kind: str, inst: Instruction, level: int) -> "PlanStep":
        return PlanStep(
            kind=kind,
            inst=inst,
            level=level,
            run_attrs={k: v for k, v in inst.attrs.items()
                       if k not in WRITEBACK_ATTRS},
            accumulate=bool(inst.attrs.get("accumulate", False)),
            safe_zero_copy=self_alias(inst) is None,
        )

    def with_safe(self, safe: bool) -> "PlanStep":
        """This step carrying ``safe`` as its zero-copy flag."""
        if safe == self.safe_zero_copy:
            return self
        return replace(self, safe_zero_copy=safe)


def self_alias(inst: Instruction) -> Optional[Tuple[Region, Region]]:
    """The first (input, output) region pair of ``inst`` that overlaps,
    or ``None`` when no operand aliases an output of its own step."""
    for r in inst.inputs:
        uid = r.tensor.uid
        for o in inst.outputs:
            if uid == o.tensor.uid and r.overlaps(o):
                return r, o
    return None


class PlanSteps(SequenceABC):
    """A plan's steps, in order: its walked steps, and the copies its spans
    re-emit, each span's built when one of them is first asked for.

    ``spans`` are ``(at, start, end, moves, chains)`` as
    :attr:`FractalPlan.spans` describes them, in step order; a plan built
    from a full step list has none.  Indexing, slicing, ``len`` and
    iteration read like a list of :class:`PlanStep`; a built copy shares
    its source step's signature object, ``run_attrs`` and write-back mode.

    ``safe`` is the zero-copy flag column, one entry per step, read-only:
    :meth:`set_safe` writes it, and replaces each built step whose flag it
    changes.  A copy takes its source's entry.  ``sources`` gives, per
    step, the walked step it re-emits (its own index if walked), whose
    kind, level, opcode, operand shapes and attributes it shares.

    A copy renews each tensor its span does not move: one fresh partial
    per ``(span, source tensor)``, made on first ask, which every built
    copy and :meth:`renewed` name alike.  Building reads and writes under
    one lock, so two threads never make two twins of one tensor.  Nothing
    here refers to the plan.
    """

    __slots__ = ("_steps", "spans", "safe", "sources", "_ats", "_twins",
                 "_lock", "__weakref__")

    def __init__(self, walked: Sequence[PlanStep],
                 spans: Sequence[Tuple] = ()) -> None:
        self.spans = spans if isinstance(spans, list) else list(spans)
        copied = sum(end - start for _, start, end, _, _ in self.spans)
        n = len(walked) + copied
        steps: List[Optional[PlanStep]] = [None] * n
        flags = [s.safe_zero_copy for s in walked]
        safe = np.zeros(n, bool)
        sources = np.arange(n)
        done = taken = 0
        for at, start, end, _, _ in self.spans:
            upto = taken + at - done
            steps[done:at] = walked[taken:upto]
            safe[done:at] = flags[taken:upto]
            taken = upto
            done = at + end - start
            safe[at:done] = safe[start:end]
            sources[at:done] = sources[start:end]
        steps[done:] = walked[taken:]
        safe[done:] = flags[taken:]
        safe.flags.writeable = False
        self._steps = steps
        self.safe = safe
        self.sources = sources
        self._ats = [span[0] for span in self.spans]
        #: span index -> {uid: (tensor, shift or None)}: the span's moves
        #: and, once made, its renewed partials
        self._twins: Dict[int, Dict[int, Tuple]] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._steps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._steps)))]
        step = self._steps[index]
        if step is None:
            self._build(index % len(self._steps))
            step = self._steps[index]
        return step

    def __iter__(self):
        steps = self._steps
        for i, step in enumerate(steps):
            yield step if step is not None else self[i]

    def __add__(self, other) -> List[PlanStep]:
        return list(self) + list(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PlanSteps, list)):
            return NotImplemented
        return list(self) == list(other)

    def walked(self) -> List[PlanStep]:
        """The walked steps, in step order."""
        walked = np.flatnonzero(self.sources == np.arange(len(self._steps)))
        return [self._steps[i] for i in walked.tolist()]

    def source(self, index: int) -> PlanStep:
        """The walked step step ``index`` re-emits (the step itself if it
        was walked); built without building the copy."""
        return self._steps[self.sources[index]]

    def set_safe(self, flags) -> None:
        """Make ``flags`` the zero-copy flag column."""
        flags = np.array(flags, bool)
        if flags.shape != self.safe.shape:
            raise ValueError(f"{flags.shape[0]} flags for {len(self)} steps")
        steps = self._steps
        with self._lock:
            for i in np.flatnonzero(flags != self.safe).tolist():
                if steps[i] is not None:
                    steps[i] = steps[i].with_safe(bool(flags[i]))
            flags.flags.writeable = False
            self.safe = flags

    def renewed(self, span: int, tensor: Tensor) -> Tensor:
        """The fresh partial the copies of ``spans[span]`` name in place of
        ``tensor``, which that span does not move."""
        with self._lock:
            twins = self._span_twins(span)
            got = twins.get(tensor.uid)
            if got is None:
                got = twins[tensor.uid] = (_renew(tensor), None)
            return got[0]

    def _span_twins(self, span: int) -> Dict[int, Tuple]:
        twins = self._twins.get(span)
        if twins is None:
            twins = self._twins[span] = {
                old.uid: (new, shift if any(shift) else None)
                for old, new, shift in self.spans[span][3]}
        return twins

    def _build(self, index: int) -> None:
        """Build the copies of the span that holds step ``index``.

        Its sources are built first, so a span copying another span's
        copies builds that one too.  Each copy is its source moved by
        :func:`repro.core.decomposition.base._translate`.
        """
        with self._lock:
            if self._steps[index] is not None:
                return
            j = bisect_right(self._ats, index) - 1
            at, start, end, _, chains = self.spans[j]
            sources = self[start:end]
            copies = _translate([s.inst for s in sources],
                                self._span_twins(j), chains)
            flags = self.safe[at:at + end - start].tolist()
            self._steps[at:at + end - start] = [
                PlanStep(s.kind, inst, s.level, s.run_attrs, s.accumulate,
                         flag)
                for s, inst, flag in zip(sources, copies, flags)]


@dataclass
class PlanStats(WalkStats):
    """Execution statistics precomputed at compile time.

    The compile walk fills the same :class:`~repro.core.executor.WalkStats`
    counters a cold run fills, so a replay adds them to its
    :class:`~repro.core.executor.ExecutionStats` in one shot instead of
    re-deriving them step by step.
    """

    #: exact live-byte high-water mark over the replay order (externals
    #: resident throughout, partials live first-touch..last-touch);
    #: computed by :func:`repro.plan.analysis.analyze_plan`.
    peak_live_bytes: int = 0

    def to_doc(self) -> dict:
        """Every counter under its field name; dict keys become strings."""
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = ({str(k): v for k, v in value.items()}
                           if isinstance(value, dict) else value)
        return doc

    @staticmethod
    def from_doc(doc: dict) -> "PlanStats":
        """The inverse of :meth:`to_doc`, typed by the field annotations.

        Every :class:`WalkStats` counter is required; a counter PlanStats
        adds on top (``peak_live_bytes``) keeps its default when absent.
        """
        hints = get_type_hints(PlanStats)
        walk = {f.name for f in fields(WalkStats)}
        values = {}
        for f in fields(PlanStats):
            if f.name not in walk and f.name not in doc:
                continue
            raw = doc[f.name]
            args = get_args(hints[f.name])  # (key type, value type) of a dict
            values[f.name] = ({args[0](k): int(v) for k, v in raw.items()}
                              if args else int(raw))
        return PlanStats(**values)


@dataclass
class FractalPlan:
    """A compiled, replayable execution plan for one (program, machine).

    ``externals`` are the program's operand tensors in first-appearance
    order (the canonical numbering of
    :func:`repro.analysis.program_signature`); every other tensor
    referenced by ``steps`` is a compile-created partial.  ``steps`` is a
    :class:`PlanSteps`; a plan built from a list of steps holds them as
    one whose steps are all walked.
    """

    machine_fingerprint: Tuple
    signature_digest: str
    steps: PlanSteps
    stats: PlanStats
    externals: List[Tensor]
    compile_seconds: float = 0.0
    #: maximal batched-execution-legal runs of consecutive isomorphic
    #: steps, as half-open ``(start, stop)`` step-index ranges; stamped by
    #: :func:`repro.plan.analysis.annotate_plan` and lowered by the
    #: replay schedule's build (:func:`repro.plan.batch.build_schedule`).
    fusion_groups: List[Tuple[int, int]] = field(default_factory=list)
    #: serialized :meth:`repro.plan.analysis.PlanAnalysis.to_doc` summary
    #: (diagnostics + product counts + re-verification digest); ``None``
    #: only for plans that bypassed the compiler's annotate stage.
    analysis: Optional[dict] = None
    #: the spans the compile re-emitted from a template, in step order, as
    #: ``(at, start, end, moves, chains)``: ``steps[at:at + end - start]``
    #: are ``steps[start:end]`` with each ``(tensor, twin, shift)`` of
    #: ``moves`` moved, every other tensor renewed, the chain ids in each
    #: ``(lo, hi, delta)`` of ``chains`` moved by ``delta``, and each
    #: source step's signature, ``run_attrs``, write-back mode and flag
    #: shared (:class:`repro.core.executor.WalkMemo`).  A compiled, loaded
    #: or rebound plan's ``steps`` hold the same spans and build a copy
    #: only when it is asked for; the analysis and the schedule derive
    #: each copy's products from its source's by these spans.  Empty for
    #: a plan built by hand; :meth:`to_doc` writes each span by its
    #: source range.
    spans: List[Tuple] = field(default_factory=list)
    #: lazily built :class:`repro.plan.batch.ReplaySchedule` (kernel
    #: callables, gather/scatter addressing, arena layout); per-plan
    #: derived state, never serialized, compared or copied by
    #: :func:`dataclasses.replace`.
    _schedule: Optional[object] = field(default=None, init=False,
                                        repr=False, compare=False)
    #: the steps' :class:`repro.plan.regions.RegionTable`, built by the
    #: analysis and read by the schedule build and its lowering; dropped
    #: once the schedule is built.  Derived state, like ``_schedule``.
    _regions: Optional[object] = field(default=None, init=False,
                                       repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.steps, PlanSteps):
            self.steps = PlanSteps(list(self.steps))

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def external_uids(self) -> Tuple[int, ...]:
        return tuple(t.uid for t in self.externals)

    def replay_schedule(self):
        """The batched replay schedule (built once, cached on the plan,
        with the cyclic collector paused)."""
        if self._schedule is None:
            from .batch import build_schedule  # deferred: cycle guard

            with gc_paused():
                self._schedule = build_schedule(self)
                self._regions = None
        return self._schedule

    # -- rebinding -----------------------------------------------------------

    def rebind(self, externals: Sequence[Tensor]) -> "FractalPlan":
        """This plan re-expressed over a new set of external tensors.

        ``externals`` must correspond position by position to this plan's
        ``externals`` (equal shapes and dtypes) -- which is guaranteed when
        both programs share a :func:`repro.analysis.program_signature`.
        Partial tensors are re-allocated fresh so two rebound plans never
        collide in a shared :class:`~repro.core.store.TensorStore`.  Only
        the walked steps and the spans' moves are mapped: the copies are
        built from the rebound spans when asked for, with fresh renewed
        partials, so the work grows with the walked steps and moves, not
        with the steps.  Rebinding runs with the cyclic collector paused.
        """
        if len(externals) != len(self.externals):
            raise PlanFormatError(
                f"rebind: expected {len(self.externals)} external tensors, "
                f"got {len(externals)}")
        mapping: Dict[int, Tensor] = {}
        for old, new in zip(self.externals, externals):
            if old.shape != new.shape or old.dtype != new.dtype:
                raise PlanFormatError(
                    f"rebind: tensor mismatch {old.name}{old.shape}/"
                    f"{old.dtype.name} vs {new.name}{new.shape}/"
                    f"{new.dtype.name}")
            mapping[old.uid] = new

        def map_tensor(t: Tensor) -> Tensor:
            got = mapping.get(t.uid)
            if got is None:
                got = Tensor(name=t.name, shape=t.shape, dtype=t.dtype,
                             space=t.space)
                mapping[t.uid] = got
            return got

        def map_region(r: Region) -> Region:
            # the same bounds on a tensor of the same shape
            return Region.unchecked(map_tensor(r.tensor), r.bounds)

        def map_spans(spans: Sequence[Tuple]) -> List[Tuple]:
            return [(at, start, end,
                     tuple((map_tensor(old), map_tensor(new), shift)
                           for old, new, shift in moves), chains)
                    for at, start, end, moves, chains in spans]

        steps = self.steps
        with gc_paused():
            walked = []
            for step in steps.walked():
                inst = step.inst
                new_inst = Instruction(
                    inst.opcode,
                    tuple(map_region(r) for r in inst.inputs),
                    tuple(map_region(r) for r in inst.outputs),
                    dict(inst.attrs), inst.loc,
                )
                object.__setattr__(new_inst, "_sig", inst.signature())
                # Analysis products are region-structural, so the
                # zero-copy proof survives rebinding verbatim.
                walked.append(PlanStep.from_instruction(
                    step.kind, new_inst, step.level,
                ).with_safe(step.safe_zero_copy))
            # Every tensor maps to one tensor, so each span stays a span.
            spans = map_spans(steps.spans)
            rebound = PlanSteps(walked, spans)
            rebound.set_safe(steps.safe)
            return FractalPlan(
                machine_fingerprint=self.machine_fingerprint,
                signature_digest=self.signature_digest,
                steps=rebound,
                stats=self.stats,
                externals=list(externals),
                compile_seconds=self.compile_seconds,
                fusion_groups=list(self.fusion_groups),
                analysis=self.analysis,
                spans=(spans if self.spans is steps.spans
                       else map_spans(self.spans)),
            )

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> dict:
        """Versioned, JSON-serializable plan document (disk-cache payload).

        ``steps`` lists, in order and in full, every step outside the
        spans written compactly; ``spans`` lists each of those by its
        ``at``, source range, moves (tensor ids and shift) and chain-id
        intervals.  ``tensors`` lists the externals, then every tensor the
        listed steps and moves name, in first-seen order; the fresh
        partials a span makes on load are never named.  A span is written
        compactly when its copies
        carry their sources' zero-copy flags, which is how the compile
        makes them; a span whose flags were changed since is written in
        full.  Each move and chain interval was recorded as the compile
        re-emitted the span, and the flags are read from their column, so
        writing builds no copied step.
        """
        tensor_ids: Dict[int, int] = {}
        tensors: List[dict] = []
        external_index = {t.uid: i for i, t in enumerate(self.externals)}

        def tid(t: Tensor) -> int:
            got = tensor_ids.get(t.uid)
            if got is None:
                got = len(tensors)
                tensor_ids[t.uid] = got
                tensors.append({
                    "name": t.name,
                    "shape": list(t.shape),
                    "dtype": t.dtype.name,
                    "space": t.space,
                    "external": external_index.get(t.uid, -1),
                })
            return got

        step_docs: List[dict] = []
        span_docs: List[dict] = []

        def write(lo: int, hi: int) -> None:
            for step in self.steps[lo:hi]:
                inst = step.inst
                step_docs.append({
                    "kind": step.kind,
                    "level": step.level,
                    "opcode": inst.opcode.value,
                    "attrs": dict(inst.attrs),
                    "inputs": [[tid(r.tensor), [list(b) for b in r.bounds]]
                               for r in inst.inputs],
                    "outputs": [[tid(r.tensor), [list(b) for b in r.bounds]]
                                for r in inst.outputs],
                    "safe": step.safe_zero_copy,
                })

        # Register externals first so ids are stable and every external is
        # present even if (degenerately) unreferenced by any step.
        for t in self.externals:
            tid(t)
        safe = self.steps.safe
        done = 0
        for at, start, end, moves, chains in self.spans:
            if not np.array_equal(safe[at:at + end - start], safe[start:end]):
                continue  # written in full, with the steps around it
            write(done, at)
            span_docs.append({
                "at": at,
                "start": start,
                "end": end,
                "moves": [[tid(old), tid(new), list(shift)]
                          for old, new, shift in moves],
                "chains": [list(interval) for interval in chains],
            })
            done = at + end - start
        write(done, len(self.steps))
        return {
            "schema": PLAN_SCHEMA,
            "version": PLAN_SCHEMA_VERSION,
            "machine_fingerprint": repr(self.machine_fingerprint),
            "signature_digest": self.signature_digest,
            "n_externals": len(self.externals),
            "tensors": tensors,
            "steps": step_docs,
            "spans": span_docs,
            "stats": self.stats.to_doc(),
            "compile_seconds": self.compile_seconds,
            "fusion_groups": [list(g) for g in self.fusion_groups],
            "analysis": self.analysis,
        }


_OPCODES = {op.value: op for op in Opcode}
#: marks the end of a document's listed steps
_END = object()


def plan_from_doc(doc: dict, externals: Sequence[Tensor],
                  machine_fingerprint: Optional[Tuple] = None) -> FractalPlan:
    """Rebuild a plan from its document, bound onto ``externals``.

    Listed steps are built through the checking :class:`Region`
    constructor; each span is recorded, and no copy is built: the plan's
    :class:`PlanSteps` builds a copy when it is asked for, sharing its
    source step's signature object, ``run_attrs``, write-back mode and
    zero-copy flag.  The plan must come to exactly the ``kernel_calls +
    lfu_calls`` steps its stats declare, and the rebuild stops as soon as
    it would pass them.  Every chain id a span's source range carries,
    copies of copies included, must lie in one of the span's intervals,
    and every region a copy names must lie in its tensor, which one
    vectorized pass over the plan's region table checks; the table stays
    on the plan for :func:`repro.plan.analysis.verify_plan`.  The fusion
    groups are not lowered here: the replay schedule's build lowers them,
    on first use.

    Raises :class:`PlanFormatError` on any structural problem -- wrong
    schema/version, truncated tables, unknown opcodes, tensor ids or
    chain ids, shape mismatches, a span reaching outside the steps
    rebuilt or moving a region outside its tensor -- so a corrupt cache
    entry is reported and skipped, never executed.
    """
    try:
        if doc.get("schema") != PLAN_SCHEMA:
            raise PlanFormatError(f"not a plan document: {doc.get('schema')!r}")
        if doc.get("version") != PLAN_SCHEMA_VERSION:
            raise PlanFormatError(
                f"plan version {doc.get('version')!r} != "
                f"{PLAN_SCHEMA_VERSION}")
        if int(doc["n_externals"]) != len(externals):
            raise PlanFormatError(
                f"plan binds {doc['n_externals']} externals, "
                f"program has {len(externals)}")

        tensors: List[Tensor] = []
        for entry in doc["tensors"]:
            ext = int(entry["external"])
            shape = tuple(int(d) for d in entry["shape"])
            dtype = DType.from_name(str(entry["dtype"]))
            if ext >= 0:
                t = externals[ext]
                if t.shape != shape or t.dtype != dtype:
                    raise PlanFormatError(
                        f"external {ext} mismatch: plan has "
                        f"{shape}/{entry['dtype']}, program has "
                        f"{t.shape}/{t.dtype.name}")
            else:
                t = Tensor(name=str(entry["name"]), shape=shape, dtype=dtype,
                           space=str(entry["space"]))
            tensors.append(t)
        stats = PlanStats.from_doc(doc["stats"])
        rebuilt = _Rebuild(tensors, stats.kernel_calls + stats.lfu_calls)
        listed = iter(doc["steps"])
        for raw in doc["spans"]:
            rebuilt.listed_until(listed, int(raw["at"]))
            rebuilt.reemit(raw)
        rebuilt.listed_until(listed, None)
        if rebuilt.n != rebuilt.declared:
            raise PlanFormatError(
                f"plan rebuilds {rebuilt.n} steps, its stats "
                f"declare {rebuilt.declared}")
        fusion_groups = [(int(a), int(b))
                         for a, b in doc.get("fusion_groups", [])]
        analysis = doc.get("analysis")
        if analysis is not None and not isinstance(analysis, dict):
            raise PlanFormatError("plan analysis section must be a mapping")
        plan = FractalPlan(
            machine_fingerprint=(machine_fingerprint
                                 if machine_fingerprint is not None
                                 else (doc["machine_fingerprint"],)),
            signature_digest=str(doc["signature_digest"]),
            steps=PlanSteps(rebuilt.walked, rebuilt.spans),
            stats=stats,
            externals=list(externals),
            compile_seconds=float(doc.get("compile_seconds", 0.0)),
            fusion_groups=fusion_groups,
            analysis=analysis,
            spans=rebuilt.spans,
        )
        _check_copied_regions(plan)
        return plan
    except PlanFormatError:
        raise
    except (AttributeError, KeyError, IndexError, TypeError,
            ValueError, OverflowError) as err:
        raise PlanFormatError(f"malformed plan document: "
                              f"{type(err).__name__}: {err}") from err


def _check_copied_regions(plan: FractalPlan) -> None:
    """Every region the plan's copies name lies in its tensor.

    No copy is built, so the checking :class:`Region` constructor sees
    none of them: ``0 <= lo < hi <= shape`` is checked on the rows of the
    plan's region table in one vectorized pass, a copy of a copy's like
    any other (padded dimensions are ``(0, 1)`` of 1, and the walked
    steps' rows, already checked, pass again).
    """
    from .regions import region_table  # deferred: regions imports plan

    table = region_table(plan)
    lo, hi = table.lo, table.hi
    bad = ((lo < 0) | (lo >= hi)
           | (hi > table.tensors.shape[table.tid])).any(axis=1)
    if bad.any():
        raise PlanFormatError(
            f"a span moves a region of step "
            f"{table.step_of_row[np.argmax(bad)]} outside its tensor")


class _Rebuild:
    """The steps and spans :func:`plan_from_doc` has rebuilt so far.

    ``tensors`` is the document's table.  A document names only its
    entries, never a fresh partial a span makes (no step or move the
    compile writes names one), so every tensor the walked steps and moves
    name is one the table lists.  ``n`` counts the steps rebuilt, copies
    included; ``walked`` holds the listed ones.  ``chains`` holds the
    ``(step, chain id)`` of every step carrying one, in step order, copies
    included, so each span's renames can be checked without building it.
    """

    __slots__ = ("tensors", "declared", "n", "walked", "spans", "chains")

    def __init__(self, tensors: List[Tensor], declared: int):
        self.tensors = tensors
        self.declared = declared
        self.n = 0
        self.walked: List[PlanStep] = []
        self.spans: List[Tuple] = []
        self.chains: Tuple[List[int], List[int]] = ([], [])

    def tensor(self, raw) -> Tensor:
        """The tensor a document id names: an entry of the table."""
        tid = int(raw)
        if not 0 <= tid < len(self.tensors):
            raise PlanFormatError(f"unknown tensor id {tid}")
        return self.tensors[tid]

    def region(self, spec) -> Region:
        tid, bounds = spec
        return Region(self.tensor(tid),
                      tuple((int(lo), int(hi)) for lo, hi in bounds))

    def listed_until(self, listed, stop: Optional[int]) -> None:
        """Append listed steps until ``stop`` steps are rebuilt (until the
        list ends when ``stop`` is None)."""
        walked = self.walked
        while stop is None or self.n < stop:
            raw = next(listed, _END)
            if raw is _END:
                if stop is None:
                    return
                raise PlanFormatError(
                    f"a span starts at step {stop}, after the last step")
            if self.n >= self.declared:
                raise PlanFormatError(
                    f"plan passes the {self.declared} steps its stats "
                    f"declare")
            kind = str(raw["kind"])
            if kind not in ("kernel", "lfu"):
                raise PlanFormatError(f"unknown step kind {kind!r}")
            opcode = _OPCODES.get(str(raw["opcode"]))
            if opcode is None:
                raise PlanFormatError(f"unknown opcode {raw['opcode']!r}")
            inst = Instruction(
                opcode,
                tuple(self.region(s) for s in raw["inputs"]),
                tuple(self.region(s) for s in raw["outputs"]),
                dict(raw["attrs"]),
            )
            if not inst.outputs:
                # every kernel call and reduction writes; the analysis
                # assumes it
                raise PlanFormatError(f"step {self.n} writes nothing")
            if "acc_chain" in inst.attrs:
                self.chains[0].append(self.n)
                self.chains[1].append(inst.attrs["acc_chain"])
            # The stored flag, not the recomputed one: a tampered flag
            # must reach verify_plan and fail the load.
            walked.append(PlanStep.from_instruction(
                kind, inst, int(raw["level"]),
            ).with_safe(bool(raw.get("safe", False))))
            self.n += 1
        if self.n != stop:
            raise PlanFormatError(
                f"a span starts at step {stop}, inside the previous span")

    def reemit(self, raw: dict) -> None:
        """Record one span over steps already rebuilt, and rename the
        chain ids its copies carry; no copy is built."""
        at, start, end = self.n, int(raw["start"]), int(raw["end"])
        if not 0 <= start < end <= at:
            raise PlanFormatError(
                f"span source [{start}, {end}) is not inside the {at} "
                f"steps rebuilt")
        if at + end - start > self.declared:
            raise PlanFormatError(
                f"plan passes the {self.declared} steps its stats declare")
        olds = set()
        twins = set()
        recorded = []
        for old_id, new_id, raw_shift in raw["moves"]:
            old, new = self.tensor(old_id), self.tensor(new_id)
            shift = tuple(int(s) for s in raw_shift)
            if old.dtype != new.dtype or not (
                    len(old.shape) == len(new.shape) == len(shift)):
                raise PlanFormatError(
                    f"move {old_id} -> {new_id} changes dtype or rank")
            # One to one, as the compile moves: the analysis of a copy
            # is its source's only while no two regions come to overlap.
            if old.uid in olds or new.uid in twins:
                raise PlanFormatError(
                    f"move {old_id} -> {new_id} moves a tensor twice or "
                    f"two tensors onto one")
            olds.add(old.uid)
            twins.add(new.uid)
            recorded.append((old, new, shift))
        chains = tuple((int(lo), int(hi), int(delta))
                       for lo, hi, delta in raw["chains"])
        # Each chain id in the source range, copies' included, must have
        # a rename; the copies carry the renamed ids.
        steps, ids = self.chains
        for k in range(bisect_left(steps, start), bisect_left(steps, end)):
            chain = ids[k]
            for lo, hi, delta in chains:
                if lo <= chain < hi:
                    break
            else:
                raise PlanFormatError(f"unknown chain id {chain} in the "
                                      f"source of the span at step {at}")
            steps.append(at + steps[k] - start)
            ids.append(chain + delta)
        self.spans.append((at, start, end, tuple(recorded), chains))
        self.n = at + end - start
