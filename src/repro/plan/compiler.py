"""Compile a FISA program's fractal decomposition once, for replay forever.

:func:`compile_program` walks exactly the recursion that
:class:`repro.core.executor.FractalExecutor` performs -- sequential shrink
(SD) at each non-leaf node, parallel fan-out (PD) across the FFUs, g(.)
reductions on the LFUs -- but instead of *executing* kernels it records
them, producing a :class:`~repro.plan.plan.FractalPlan` whose step order is
the executor's exact execution order.  Because all FFUs of a node run
isomorphic sub-instructions (the paper's structural claim), the expensive
part of functional execution on repeated shapes is precisely this walk;
compiling it once and replaying the flat plan is the functional analogue
of the timing simulator's signature memoization.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from .. import obs
from ..analysis.signatures import external_tensors, program_digest
from ..core.decomposition import decompose_parallel, shrink_sequential
from ..core.gcpause import gc_paused
from ..core.isa import Instruction
from ..core.machine import Machine
from ..obs import prof as _prof
from .analysis import annotate_plan
from .batch import lower_plan
from .plan import FractalPlan, PlanStats, PlanStep


def machine_fingerprint(machine: Machine, apply_sequential: bool = True) -> Tuple:
    """Canonical key of everything that shapes functional decomposition.

    Level geometry (fanout + per-level memory capacity) decides every SD
    and PD decision; ``apply_sequential`` selects the executor mode.  Name
    and LFU counts are included conservatively so distinct machine
    configurations never share plans.  Any change here invalidates cached
    plans -- which is the point.
    """
    return (
        machine.name,
        tuple((lv.name, lv.fanout, lv.n_lfus, lv.mem_bytes)
              for lv in machine.levels),
        bool(apply_sequential),
    )


def fingerprint_digest(fingerprint: Tuple) -> str:
    """Stable hex digest of a machine fingerprint (disk-cache keys)."""
    import hashlib

    return hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()


def _walk(inst: Instruction, level: int, machine: Machine,
          apply_sequential: bool, stats: PlanStats,
          steps: List[PlanStep]) -> None:
    """Record the fractal recursion of ``inst`` from ``level`` into ``steps``.

    A module-level function, not a closure: a nested function that calls
    itself holds itself through its closure cell, and that cycle would keep
    ``steps`` alive after the plan is dropped, until a full collection.
    """
    stats.count(level)
    spec = machine.level(level)
    if spec.is_leaf:
        stats.kernel_calls += 1
        mnemonic = inst.opcode.value
        stats.leaf_ops[mnemonic] = stats.leaf_ops.get(mnemonic, 0) + 1
        stats.bytes_read += sum(r.nbytes for r in inst.inputs)
        stats.bytes_written += sum(r.nbytes for r in inst.outputs)
        steps.append(PlanStep.from_instruction("kernel", inst, level))
        return
    if apply_sequential:
        seq = shrink_sequential(inst, spec.mem_bytes)
        if len(seq) > 1:
            stats.seq_steps += len(seq)
    else:
        seq = [inst]
    for step in seq:
        split = decompose_parallel(step, spec.fanout)
        if split is None:
            _walk(step, level + 1, machine, apply_sequential, stats, steps)
            continue
        stats.fanouts += 1
        stats.fanout_parts += len(split.parts)
        for part in split.parts:
            _walk(part, level + 1, machine, apply_sequential, stats, steps)
        for red in split.reduction:
            stats.lfu_calls += 1
            stats.bytes_read += sum(r.nbytes for r in red.inputs)
            stats.bytes_written += sum(r.nbytes for r in red.outputs)
            steps.append(PlanStep.from_instruction("lfu", red, level))


def compile_program(
    machine: Machine,
    program: Sequence[Instruction],
    apply_sequential: bool = True,
) -> FractalPlan:
    """Flatten the fractal decomposition of ``program`` into a plan.

    The recursion mirrors ``FractalExecutor._run`` exactly; the resulting
    step list replays to bit-identical results (same kernels, same
    operands, same order).  Per-level stats are accumulated as the walk
    proceeds so replays can merge them without re-deriving anything.
    The whole build runs with the cyclic collector paused
    (:func:`repro.core.gcpause.gc_paused`).
    """
    with gc_paused():
        program = list(program)
        t0 = time.perf_counter()
        stats = PlanStats()
        steps: List[PlanStep] = []

        log = obs.logger("plan")
        log.info("compile.start", machine=machine.name,
                 instructions=len(program))
        # Attribute compile-time samples to a synthetic "plan.compile" step
        # so flamegraphs separate decomposition cost from replay cost.
        with _prof.step_scope("plan.compile"):
            for inst in program:
                _walk(inst, 0, machine, apply_sequential, stats, steps)
        plan = FractalPlan(
            machine_fingerprint=machine_fingerprint(machine, apply_sequential),
            signature_digest=program_digest(program),
            steps=steps,
            stats=stats,
            externals=external_tensors(program),
        )
        # Analyze-on-compile: every plan that reaches the executor or a
        # cache tier carries zero-copy proofs, fusion groups and the
        # live-byte peak.
        analysis = annotate_plan(plan)
        # Lower-on-compile: the proven fusion groups become BatchedSteps so
        # batched replay (and the schema-v3 document) never re-derives them.
        plan.batched = lower_plan(plan)
        plan.compile_seconds = time.perf_counter() - t0
        log.info("compile.end", steps=len(steps),
                 kernel_calls=stats.kernel_calls, lfu_calls=stats.lfu_calls,
                 diagnostics=len(analysis.result.diagnostics),
                 fusion_groups=len(plan.fusion_groups),
                 batched_steps=len(plan.batched),
                 seconds=round(plan.compile_seconds, 6))
        return plan
