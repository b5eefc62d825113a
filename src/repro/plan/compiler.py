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
from typing import Sequence, Tuple

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
# perfbench/spans.py times the lowering by patching this name here too; the
# schedule build calls it through repro.plan.batch.
from .batch import lower_plan  # noqa: F401
from .plan import FractalPlan, PlanStats, PlanStep, PlanSteps


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
    each distinct subtree once and records its repeats as spans
    (``FractalPlan.spans``).  Only the walked steps are built; a copy's
    step is built from its span when asked for
    (:class:`~repro.plan.plan.PlanSteps`), and equals the walk's without
    a memo, chain ids included.  The document lists the spans instead of
    their steps.  The whole build runs with the cyclic collector paused
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
        # Only the walked steps are built.  A re-emitted step takes its
        # source's run_attrs, write-back mode and zero-copy flag when it is
        # asked for: moving every operand of a tensor by one offset changes
        # none of them (chain ids are not run_attrs).
        insts = iter(memo.insts)
        walked = [PlanStep.from_instruction(kind, next(insts), level)
                  for index, (kind, level, source) in enumerate(
                      zip(memo.kinds, memo.levels, memo.sources))
                  if source == index]
        plan = FractalPlan(
            machine_fingerprint=machine_fingerprint(machine),
            signature_digest=program_digest(program),
            steps=PlanSteps(walked, memo.spans),
            stats=stats,
            externals=external_tensors(program),
            spans=memo.spans,
        )
        del memo
        # Analyze-on-compile: every plan that reaches the executor or a
        # cache tier carries zero-copy proofs, fusion groups and the
        # live-byte peak.
        analysis = annotate_plan(plan)
        plan.compile_seconds = time.perf_counter() - t0
        log.info("compile.end", steps=plan.n_steps,
                 kernel_calls=stats.kernel_calls, lfu_calls=stats.lfu_calls,
                 diagnostics=len(analysis.result.diagnostics),
                 fusion_groups=len(plan.fusion_groups),
                 seconds=round(plan.compile_seconds, 6))
        return plan
