"""The replayable fractal plan: a flattened decomposition recursion.

A :class:`FractalPlan` is what the fractal controller hierarchy *would*
issue for one program on one machine, flattened into the exact ordered
sequence of leaf kernel calls and LFU reductions that the recursive
executor performs -- with all regions resolved and all decomposition
decisions (SD shrink chains, PD fan-outs, g(.) reduction schedules) baked
in at compile time.  Replaying a plan therefore produces *bit-identical*
results to recursive execution (same kernels, same operands, same order),
while skipping every ``shrink_sequential`` / ``decompose_parallel`` call.

Plans are pure data: they can be rebound onto a structurally identical
program with different tensors (:meth:`FractalPlan.rebind`) and round-
tripped through a versioned JSON document (:meth:`FractalPlan.to_doc` /
:func:`plan_from_doc`) for the on-disk cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.executor import WRITEBACK_ATTRS, WalkStats
from ..core.gcpause import gc_paused
from ..core.isa import Instruction, Opcode
from ..core.tensor import DType, Region, Tensor

#: version stamp of the serialized plan document; bump on any layout change
#: (old entries then simply miss and are recompiled).  v3 added the
#: ``batched`` BatchedStep table (verified against a fresh lowering on
#: load), so v2 disk-cache entries miss and recompile.
PLAN_SCHEMA = "repro.plan"
PLAN_SCHEMA_VERSION = 3


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
    P110; a deserialized step carries its stored flag instead, which
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
        return {
            "kernel_calls": self.kernel_calls,
            "lfu_calls": self.lfu_calls,
            "instructions_per_level": {
                str(k): v for k, v in self.instructions_per_level.items()},
            "max_depth_reached": self.max_depth_reached,
            "fanouts": self.fanouts,
            "fanout_parts": self.fanout_parts,
            "seq_steps": self.seq_steps,
            "leaf_ops": dict(self.leaf_ops),
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "peak_live_bytes": self.peak_live_bytes,
        }

    @staticmethod
    def from_doc(doc: dict) -> "PlanStats":
        return PlanStats(
            kernel_calls=int(doc["kernel_calls"]),
            lfu_calls=int(doc["lfu_calls"]),
            instructions_per_level={
                int(k): int(v)
                for k, v in doc["instructions_per_level"].items()},
            max_depth_reached=int(doc["max_depth_reached"]),
            fanouts=int(doc["fanouts"]),
            fanout_parts=int(doc["fanout_parts"]),
            seq_steps=int(doc["seq_steps"]),
            leaf_ops={str(k): int(v) for k, v in doc["leaf_ops"].items()},
            bytes_read=int(doc["bytes_read"]),
            bytes_written=int(doc["bytes_written"]),
            peak_live_bytes=int(doc.get("peak_live_bytes", 0)),
        )


@dataclass
class FractalPlan:
    """A compiled, replayable execution plan for one (program, machine).

    ``externals`` are the program's operand tensors in first-appearance
    order (the canonical numbering of
    :func:`repro.analysis.program_signature`); every other tensor
    referenced by ``steps`` is a compile-created partial.
    """

    machine_fingerprint: Tuple
    signature_digest: str
    steps: List[PlanStep]
    stats: PlanStats
    externals: List[Tensor]
    compile_seconds: float = 0.0
    #: maximal batched-execution-legal runs of consecutive isomorphic
    #: steps, as half-open ``(start, stop)`` step-index ranges; stamped by
    #: :func:`repro.plan.analysis.annotate_plan` for the ROADMAP-2
    #: BatchedStep pass.
    fusion_groups: List[Tuple[int, int]] = field(default_factory=list)
    #: serialized :meth:`repro.plan.analysis.PlanAnalysis.to_doc` summary
    #: (diagnostics + product counts + re-verification digest); ``None``
    #: only for plans that bypassed the compiler's annotate stage.
    analysis: Optional[dict] = None
    #: fusion groups lowered for stacked execution
    #: (:class:`repro.plan.batch.BatchedStep`); stamped by the compiler,
    #: re-derived lazily by :meth:`ensure_lowered` for plans annotated by
    #: hand, and schema-v3-serialized with verify-on-load.
    batched: List = field(default_factory=list)
    #: lazily built :class:`repro.plan.batch.ReplaySchedule` (kernel
    #: callables, gather/scatter addressing, arena layout); per-plan
    #: derived state, never serialized or compared.
    _schedule: Optional[object] = field(default=None, repr=False,
                                        compare=False)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def external_uids(self) -> Tuple[int, ...]:
        return tuple(t.uid for t in self.externals)

    def ensure_lowered(self) -> List:
        """``self.batched``, lowering the fusion groups on first use."""
        if not self.batched and self.fusion_groups:
            from .batch import lower_plan  # deferred: batch imports plan

            self.batched = lower_plan(self)
        return self.batched

    def replay_schedule(self):
        """The batched replay schedule (built once, cached on the plan,
        with the cyclic collector paused)."""
        if self._schedule is None:
            from .batch import build_schedule  # deferred: cycle guard

            with gc_paused():
                self.ensure_lowered()
                self._schedule = build_schedule(self)
        return self._schedule

    # -- rebinding -----------------------------------------------------------

    def rebind(self, externals: Sequence[Tensor]) -> "FractalPlan":
        """This plan re-expressed over a new set of external tensors.

        ``externals`` must correspond position by position to this plan's
        ``externals`` (equal shapes and dtypes) -- which is guaranteed when
        both programs share a :func:`repro.analysis.program_signature`.
        Partial tensors are re-allocated fresh so two rebound plans never
        collide in a shared :class:`~repro.core.store.TensorStore`.
        Rebinding runs with the cyclic collector paused.
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
            return Region(map_tensor(r.tensor), r.bounds)

        with gc_paused():
            steps = []
            for step in self.steps:
                inst = step.inst
                new_inst = Instruction(
                    inst.opcode,
                    tuple(map_region(r) for r in inst.inputs),
                    tuple(map_region(r) for r in inst.outputs),
                    dict(inst.attrs),
                )
                # Analysis products are region-structural, so the
                # zero-copy proof survives rebinding verbatim.
                steps.append(PlanStep.from_instruction(
                    step.kind, new_inst, step.level,
                ).with_safe(step.safe_zero_copy))
            return FractalPlan(
                machine_fingerprint=self.machine_fingerprint,
                signature_digest=self.signature_digest,
                steps=steps,
                stats=self.stats,
                externals=list(externals),
                compile_seconds=self.compile_seconds,
                fusion_groups=list(self.fusion_groups),
                analysis=self.analysis,
            )

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> dict:
        """Versioned, JSON-serializable plan document (disk-cache payload)."""
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

        # Register externals first so ids are stable and every external is
        # present even if (degenerately) unreferenced by any step.
        for t in self.externals:
            tid(t)
        steps = []
        for step in self.steps:
            inst = step.inst
            steps.append({
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
        return {
            "schema": PLAN_SCHEMA,
            "version": PLAN_SCHEMA_VERSION,
            "machine_fingerprint": repr(self.machine_fingerprint),
            "signature_digest": self.signature_digest,
            "n_externals": len(self.externals),
            "tensors": tensors,
            "steps": steps,
            "stats": self.stats.to_doc(),
            "compile_seconds": self.compile_seconds,
            "fusion_groups": [list(g) for g in self.fusion_groups],
            "analysis": self.analysis,
            "batched": [b.to_doc() for b in self.ensure_lowered()],
        }


_OPCODES = {op.value: op for op in Opcode}


def plan_from_doc(doc: dict, externals: Sequence[Tensor],
                  machine_fingerprint: Optional[Tuple] = None) -> FractalPlan:
    """Rebuild a plan from its document, bound onto ``externals``.

    Raises :class:`PlanFormatError` on any structural problem -- wrong
    schema/version, truncated tables, unknown opcodes, shape mismatches --
    so a corrupt cache entry is reported and skipped, never executed.
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

        def region(spec) -> Region:
            tid, bounds = spec
            return Region(tensors[int(tid)],
                          tuple((int(lo), int(hi)) for lo, hi in bounds))

        steps: List[PlanStep] = []
        for raw in doc["steps"]:
            kind = str(raw["kind"])
            if kind not in ("kernel", "lfu"):
                raise PlanFormatError(f"unknown step kind {kind!r}")
            opcode = _OPCODES.get(str(raw["opcode"]))
            if opcode is None:
                raise PlanFormatError(f"unknown opcode {raw['opcode']!r}")
            inst = Instruction(
                opcode,
                tuple(region(s) for s in raw["inputs"]),
                tuple(region(s) for s in raw["outputs"]),
                dict(raw["attrs"]),
            )
            # The stored flag, not the recomputed one: a tampered flag
            # must reach verify_plan and fail the load.
            steps.append(PlanStep.from_instruction(
                kind, inst, int(raw["level"]),
            ).with_safe(bool(raw.get("safe", False))))
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
            steps=steps,
            stats=PlanStats.from_doc(doc["stats"]),
            externals=list(externals),
            compile_seconds=float(doc.get("compile_seconds", 0.0)),
            fusion_groups=fusion_groups,
            analysis=analysis,
        )
        # The stored BatchedStep table must match a fresh lowering of the
        # rebuilt plan exactly -- a tampered or stale table must never
        # steer the batched executor, so on mismatch the document is
        # rejected (the cache then recompiles).  The fresh lowering is
        # what the plan carries; the stored table is only a check.
        from .batch import (batched_table, lower_plan,
                            normalize_batched_docs)

        plan.batched = lower_plan(plan)
        stored = doc.get("batched")
        if stored is None:
            if plan.fusion_groups:
                raise PlanFormatError(
                    "plan document is missing its batched-step table")
        else:
            if not isinstance(stored, list):
                raise PlanFormatError(
                    "plan batched section must be a list")
            if normalize_batched_docs(stored) != batched_table(plan.batched):
                raise PlanFormatError(
                    "batched-step table does not match a fresh lowering "
                    "of the plan's fusion groups")
        return plan
    except PlanFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise PlanFormatError(f"malformed plan document: "
                              f"{type(err).__name__}: {err}") from err
