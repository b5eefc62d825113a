"""``repro.plan`` -- compile-once / run-many for the functional executor.

The paper's fractal decomposition is *structural*: on a fixed machine, a
program of fixed shapes always decomposes into the same tree of leaf
kernels and LFU reductions.  This package exploits that by walking the
decomposition recursion **once** (:func:`compile_program`), flattening it
into a replayable :class:`FractalPlan`, and memoizing plans on structural
signatures (:func:`compile_cached`) -- in-process and, optionally, on disk
-- so warm runs of the same shapes skip every ``shrink_sequential`` /
``decompose_parallel`` call.

Typical use::

    session = InferenceSession(workload, machine=cambricon_f1())
    session.initialize_parameters(seed=0)
    session.compile()                  # one decomposition walk
    for batch in traffic:
        out = session(img=batch)       # replayed, bit-identical

or at the executor level::

    plan = executor.compile(program)   # cached by (machine, signature)
    executor.run_program(program, plan=plan)

See docs/PERFORMANCE.md for the lifecycle, cache keys and invalidation
rules, one section per layer.
"""

from .analysis import (
    ANALYSIS_VERSION,
    PlanAnalysis,
    analyze_plan,
    annotate_plan,
    verify_plan,
)
from .batch import (
    ArenaLayout,
    BatchedItem,
    ReplaySchedule,
    SingleItem,
    build_arena_layout,
    build_schedule,
    lower_plan,
)
from .cache import (
    DiskPlanCache,
    PlanCache,
    compile_cached,
    default_cache_dir,
    get_plan_cache,
    plan_key,
    reset_plan_cache,
)
from .compiler import compile_program, fingerprint_digest, machine_fingerprint
from .plan import (
    PLAN_SCHEMA,
    PLAN_SCHEMA_VERSION,
    FractalPlan,
    PlanFormatError,
    PlanStats,
    PlanStep,
    plan_from_doc,
)

__all__ = [
    "ANALYSIS_VERSION",
    "PLAN_SCHEMA",
    "PLAN_SCHEMA_VERSION",
    "ArenaLayout",
    "BatchedItem",
    "DiskPlanCache",
    "FractalPlan",
    "PlanAnalysis",
    "PlanCache",
    "PlanFormatError",
    "PlanStats",
    "PlanStep",
    "ReplaySchedule",
    "SingleItem",
    "analyze_plan",
    "annotate_plan",
    "build_arena_layout",
    "build_schedule",
    "compile_cached",
    "compile_program",
    "default_cache_dir",
    "fingerprint_digest",
    "get_plan_cache",
    "lower_plan",
    "machine_fingerprint",
    "plan_from_doc",
    "plan_key",
    "reset_plan_cache",
]
