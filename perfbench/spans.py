"""In-memory span tracing for the benchmark's traced run.

Spans are recorded only from this package: :func:`install` swaps each
layer's public function for a timing wrapper at the module (or class)
attribute where its callers look it up, and :func:`uninstall` puts the
originals back.  Nothing inside ``src/`` is modified.

A span has a name, a start, an end, a parent and a request id; one request
is one (program, machine, phase) of the workload.  Spans are kept in flat
arrays while the run lasts and written out once at the end.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

import numpy as np

#: name of the root span the harness opens around every operation
REQUEST = "request"

#: (owner, attribute, span name).  ``owner`` is a module path, or
#: ``module:Class`` for a method.  Each entry patches the attribute its
#: callers read at call time, so one original may appear more than once.
TRACE_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime.session:InferenceSession", "__call__", "session.call"),
    ("repro.core.executor:FractalExecutor", "run_program", "run_program"),
    ("repro.plan.cache", "compile_program", "compile_program"),
    ("repro.plan.cache", "verify_plan", "verify_plan"),
    ("repro.plan.cache:DiskPlanCache", "store", "cache.store"),
    ("repro.plan.cache:DiskPlanCache", "load", "cache.load"),
    ("repro.plan.compiler", "annotate_plan", "annotate_plan"),
    ("repro.plan.compiler", "lower_plan", "lower_plan"),
    ("repro.plan.batch", "lower_plan", "lower_plan"),
    ("repro.plan.batch", "build_schedule", "build_schedule"),
    ("repro.core.executor", "shrink_sequential", "shrink_sequential"),
    ("repro.core.executor", "decompose_parallel", "decompose_parallel"),
    ("repro.plan.compiler", "shrink_sequential", "shrink_sequential"),
    ("repro.plan.compiler", "decompose_parallel", "decompose_parallel"),
    ("repro.core.controller.sequential", "shrink_sequential",
     "shrink_sequential"),
    ("repro.core.controller.parallel", "decompose_parallel",
     "decompose_parallel"),
    # FractalSimulator._run_on_ffus imports it from the package per call.
    ("repro.core.decomposition", "decompose_parallel", "decompose_parallel"),
    ("repro.core.controller.sequential:SequentialDecomposer", "decompose",
     "ctrl.sd"),
    ("repro.core.controller.parallel:ParallelDecomposer", "plan", "ctrl.pd"),
    ("repro.core.controller.demotion:DemotionDecoder", "decode", "ctrl.dd"),
    ("repro.core.controller.reduction:ReductionController", "route",
     "ctrl.rc"),
    ("repro.sim.simulator:FractalSimulator", "simulate", "simulate"),
    ("repro.sim.simulator", "schedule_pipeline", "schedule_pipeline"),
    ("repro.sim.simulator", "attribute_schedule", "attribute_schedule"),
    ("repro.perf", "attribute_report", "attribute_report"),
)

#: kernel factories: their callables are wrapped as ``kernel:<opcode>``
KERNEL_FACTORIES: Tuple[Tuple[str, str], ...] = (
    ("repro.ops.dispatch", "kernel_for"),
    ("repro.ops.batch", "batched_kernel_for"),
)


class SpanRecorder:
    """Append-only span store; single-threaded, like the benchmark."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.requests: List[Tuple[str, str, str]] = []
        self._request_ids: Dict[Tuple[str, str, str], int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._request = -1
        #: phase -> [zero-copy reads, copied reads] of the executors' stores
        self.store_reads: Dict[str, List[int]] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self._request)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request_span(self, program: str, machine: str, phase: str):
        """Root span of one operation."""
        key = (program, machine, phase)
        rid = self._request_ids.get(key)
        if rid is None:
            rid = self._request_ids[key] = len(self.requests)
            self.requests.append(key)
        self._request = rid
        sid = self.open(self.name_id(REQUEST))
        try:
            yield
        finally:
            self.close(sid)
            self._request = -1

    def tally_store(self, store) -> None:
        """Add one call's store read counters to the current phase."""
        phase = self.requests[self._request][2] if self._request >= 0 else ""
        reads = self.store_reads.setdefault(phase, [0, 0])
        reads[0] += store.zero_copy_reads
        reads[1] += store.copied_reads

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (and the name/request tables) as one ``.npz``."""
        np.savez(path, names=np.array(self.names),
                 requests=np.array(self.requests, dtype=str).reshape(-1, 3),
                 **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part its direct children cover.

    Every wrapped call is synchronous on one thread, so the children of a
    span never overlap each other and lie inside it; what they cover is
    the sum of their durations (clipped to the parent as a guard).
    """
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    clipped = (np.minimum(end[child], end[parent[child]])
               - np.maximum(start[child], start[parent[child]]))
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[child], np.maximum(clipped, 0.0))
    return dur - covered


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(rec: SpanRecorder, nid: int, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        sid = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid)
    return traced


def _wrap_run_program(rec: SpanRecorder, nid: int, fn: Callable) -> Callable:
    """Like :func:`_wrap`, and reads the executor's store counters after
    the call (the session discards the store)."""
    def traced(executor, *args, **kwargs):
        sid = rec.open(nid)
        try:
            return fn(executor, *args, **kwargs)
        finally:
            rec.close(sid)
            rec.tally_store(executor.store)
    return traced


def _wrap_factory(rec: SpanRecorder, factory: Callable) -> Callable:
    wrapped: Dict[object, Callable] = {}

    def traced_factory(opcode):
        kern = wrapped.get(opcode)
        if kern is None:
            inner = factory(opcode)
            if inner is None:  # no stacked kernel: keep the fallback signal
                return None
            kern = wrapped[opcode] = _wrap(
                rec, rec.name_id(f"kernel:{opcode.value}"), inner)
        return kern
    return traced_factory


def install(rec: SpanRecorder) -> List[Tuple[object, str, object]]:
    """Patch every trace point; returns what :func:`uninstall` restores."""
    saved = []
    for path, attr, name in TRACE_POINTS:
        owner = _owner(path)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        saved.append((owner, attr, original))
        wrap = _wrap_run_program if name == "run_program" else _wrap
        setattr(owner, attr, wrap(rec, rec.name_id(name), original))
    for path, attr in KERNEL_FACTORIES:
        owner = _owner(path)
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap_factory(rec, original))
    return saved


def uninstall(saved: List[Tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
