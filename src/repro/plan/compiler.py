"""Compile a FISA program's fractal decomposition once, for replay forever.

:func:`compile_program` runs the one fractal walker,
:func:`repro.core.executor.walk`, that a cold
:class:`~repro.core.executor.FractalExecutor` run executes -- sequential
shrink (SD) at each non-leaf node, parallel fan-out (PD) across the FFUs,
g(.) reductions on the LFUs -- with a sink that records each leaf kernel
and LFU reduction as a plan step instead of executing it.  The resulting
:class:`~repro.plan.plan.FractalPlan` therefore holds the executor's exact
execution order.  Because all FFUs of a node run isomorphic
sub-instructions (the paper's structural claim), most subtrees of the walk
repeat: the compile walks each distinct subtree once and re-emits its
repeats by region offset (:class:`~repro.core.executor.WalkMemo`), and
replaying the flat plan is the functional analogue of the timing
simulator's signature memoization.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from .. import obs
from ..analysis.signatures import external_tensors, program_digest
# perfbench/spans.py times SD and PD by patching these names in this module
# too; the walker itself calls them through repro.core.executor.
from ..core.decomposition import decompose_parallel, shrink_sequential  # noqa: F401
from ..core.executor import WalkMemo, walk
from ..core.gcpause import gc_paused
from ..core.isa import Instruction
from ..core.machine import Machine
from ..obs import prof as _prof
from .analysis import annotate_plan
from .batch import lower_plan
from .plan import FractalPlan, PlanStats, PlanStep


def machine_fingerprint(machine: Machine) -> Tuple:
    """Canonical key of everything that shapes functional decomposition.

    Level geometry (fanout + per-level memory capacity) decides every SD
    and PD decision.  Name and LFU counts are included conservatively so
    distinct machine configurations never share plans.  Any change here
    invalidates cached plans -- which is the point.
    """
    return (
        machine.name,
        tuple((lv.name, lv.fanout, lv.n_lfus, lv.mem_bytes)
              for lv in machine.levels),
    )


def fingerprint_digest(fingerprint: Tuple) -> str:
    """Stable hex digest of a machine fingerprint (disk-cache keys)."""
    import hashlib

    return hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()


def compile_program(
    machine: Machine,
    program: Sequence[Instruction],
) -> FractalPlan:
    """Flatten the fractal decomposition of ``program`` into a plan.

    The walk is the cold executor's own, so the resulting step list
    replays to bit-identical results (same kernels, same operands, same
    order) and the plan's stats are the counters a cold run would have
    collected, ready for replays to add without re-deriving anything.
    A :class:`~repro.core.executor.WalkMemo` scoped to this call walks
    each distinct subtree once; its steps equal the walk's without one,
    chain ids included, and the plan keeps the spans it re-emitted
    (``FractalPlan.spans``), which its document lists instead of their
    steps.  The whole build runs with the cyclic collector paused
    (:func:`repro.core.gcpause.gc_paused`).
    """
    with gc_paused():
        program = list(program)
        t0 = time.perf_counter()
        stats = PlanStats()
        memo = WalkMemo()
        log = obs.logger("plan")
        log.info("compile.start", machine=machine.name,
                 instructions=len(program))
        # Attribute compile-time samples to a synthetic "plan.compile" step
        # so flamegraphs separate decomposition cost from replay cost.
        with _prof.step_scope("plan.compile"):
            for inst in program:
                walk(inst, 0, machine, stats, memo.record, memo)
        # A re-emitted step takes its source's run_attrs, write-back mode
        # and zero-copy flag: moving every operand of a tensor by one
        # offset changes none of them (chain ids are not run_attrs).
        steps: List[PlanStep] = []
        for kind, inst, level, source in zip(memo.kinds, memo.insts,
                                             memo.levels, memo.sources):
            if source == len(steps):
                steps.append(PlanStep.from_instruction(kind, inst, level))
            else:
                walked = steps[source]
                steps.append(PlanStep(kind, inst, level, walked.run_attrs,
                                      walked.accumulate, walked.safe_zero_copy))
        plan = FractalPlan(
            machine_fingerprint=machine_fingerprint(machine),
            signature_digest=program_digest(program),
            steps=steps,
            stats=stats,
            externals=external_tensors(program),
            spans=memo.spans,
        )
        del memo
        # Analyze-on-compile: every plan that reaches the executor or a
        # cache tier carries zero-copy proofs, fusion groups and the
        # live-byte peak.
        analysis = annotate_plan(plan)
        # Lower-on-compile: the proven fusion groups become BatchedSteps so
        # the first replay does not re-derive them.
        plan.batched = lower_plan(plan)
        plan.compile_seconds = time.perf_counter() - t0
        log.info("compile.end", steps=len(steps),
                 kernel_calls=stats.kernel_calls, lfu_calls=stats.lfu_calls,
                 diagnostics=len(analysis.result.diagnostics),
                 fusion_groups=len(plan.fusion_groups),
                 batched_steps=len(plan.batched),
                 seconds=round(plan.compile_seconds, 6))
        return plan
