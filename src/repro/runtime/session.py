"""Inference sessions: run a compiled Workload like a model.

Wraps a :class:`~repro.workloads.builder.Workload` (hand-built, assembled,
or lowered from the graph compiler) with parameter management and a
call-style API -- the last piece of the user-facing stack:

    session = InferenceSession(lower(graph), machine=cambricon_f1())
    session.initialize_parameters(seed=0)      # or load_parameters({...})
    logits = session(img=batch)["fc3"]
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional

import numpy as np

from .. import obs, telemetry
from ..core.executor import FractalExecutor
from ..core.machine import Machine, cambricon_f1
from ..core.store import TensorStore
from ..workloads.builder import Workload


class InferenceSession:
    """Executes one Workload repeatedly with persistent parameters.

    A compiled session keeps state between calls: one store for its plan,
    holding the replay binding, the arena and the input and activation
    buffers, with the parameters shared by reference.  Calls on it are
    serialized by a lock.  An uncompiled session runs each call on a fresh
    store.
    """

    def __init__(self, workload: Workload, machine: Optional[Machine] = None):
        self.workload = workload
        self.machine = machine if machine is not None else cambricon_f1()
        self._params: Dict[str, np.ndarray] = {}
        #: compiled fractal plan (see :meth:`compile`); ``None`` until the
        #: session is compiled, after which every call replays it.
        self._plan = None
        #: the compiled plan's store, built by the first call after a
        #: compile or a parameter change; guarded by ``_lock``.
        self._store: Optional[TensorStore] = None
        self._lock = threading.Lock()
        written = {r.tensor.uid for inst in workload.program
                   for r in inst.outputs}
        #: parameters the program writes: copied into the store for each
        #: call, so the caller's arrays are never written.
        self._written_params = [(name, t) for name, t in workload.params.items()
                                if t.uid in written]

    # -- compilation ----------------------------------------------------------

    def compile(self, plan_cache_dir=None):
        """Compile the workload once; subsequent calls replay the plan.

        Walks the fractal decomposition a single time (through the
        signature-keyed plan cache, so structurally identical sessions
        share the work; ``plan_cache_dir`` additionally persists plans on
        disk) and pins the resulting :class:`repro.plan.FractalPlan` on the
        session.  A plan other than the pinned one is bound afresh by the
        next call.  Replayed calls are bit-identical to recursive
        execution -- see docs/PERFORMANCE.md, "Binding and replay".
        """
        from ..plan import compile_cached

        plan = compile_cached(self.machine, self.workload.program,
                              disk_dir=plan_cache_dir)
        with self._lock:
            if plan is not self._plan:
                self._plan, self._store = plan, None
        return plan

    @property
    def plan(self):
        """The compiled plan, or ``None`` while the session is uncompiled."""
        return self._plan

    # -- parameters -----------------------------------------------------------

    def initialize_parameters(self, seed: int = 0, scale: float = 0.1) -> None:
        """He-style random initialization of every parameter tensor."""
        rng = np.random.default_rng(seed)
        values = {}
        for name, t in self.workload.params.items():
            fan_in = max(1, int(np.prod(t.shape[:-1])))
            std = scale * (2.0 / fan_in) ** 0.5
            values[name] = std * rng.normal(size=t.shape)
        self._set_parameters(values)

    def load_parameters(self, values: Mapping[str, np.ndarray]) -> None:
        """Load parameters by tensor name (shapes are validated)."""
        loaded = {}
        for name, array in values.items():
            if name not in self.workload.params:
                raise KeyError(f"unknown parameter {name!r}")
            expected = self.workload.params[name].shape
            array = np.asarray(array, float)
            if array.shape != expected:
                raise ValueError(
                    f"{name}: expected shape {expected}, got {array.shape}")
            loaded[name] = array
        self._set_parameters(loaded)

    def _set_parameters(self, values: Dict[str, np.ndarray]) -> None:
        """Replace parameters; the next compiled call binds them afresh."""
        with self._lock:
            self._params.update(values)
            self._store = None

    @property
    def parameter_names(self):
        return sorted(self.workload.params)

    # -- execution --------------------------------------------------------------

    def _input_by_short_name(self) -> Dict[str, str]:
        out = {}
        for full in self.workload.inputs:
            short = full.split(".")[-1]
            # builder suffixes names with a counter: img0, x3 ...
            out[short] = full
            out[short.rstrip("0123456789")] = full
        return out

    def _compiled_store(self) -> TensorStore:
        """The plan's store, sharing every parameter the program does not
        write (the caller holds ``_lock``)."""
        if self._store is None:
            store = TensorStore()
            written = {t.uid for _, t in self._written_params}
            for name, t in self.workload.params.items():
                if t.uid not in written:
                    store.share(t, self._params[name])
            self._store = store
        return self._store

    def __call__(self, **inputs: np.ndarray) -> Dict[str, np.ndarray]:
        """Run the workload; returns {output short name: array}."""
        if not self._params and self.workload.params:
            raise RuntimeError(
                "parameters not set: call initialize_parameters() or "
                "load_parameters() first")
        short_map = self._input_by_short_name()
        arrays = {}
        for short, array in inputs.items():
            full = short_map.get(short)
            if full is None:
                raise KeyError(f"unknown input {short!r}; "
                               f"one of {sorted(short_map)}")
            tensor = self.workload.inputs[full]
            array = np.asarray(array, float)
            if array.shape != tensor.shape:
                raise ValueError(f"{short}: expected shape {tensor.shape}, "
                                 f"got {array.shape}")
            arrays[full] = array
        missing = set(self.workload.inputs) - set(arrays)
        if missing:
            raise ValueError(f"missing inputs: {sorted(missing)}")
        with telemetry.span("session.call", cat="session",
                            workload=self.workload.name,
                            machine=self.machine.name), \
                obs.event_context(workload=self.workload.name,
                                  machine=self.machine.name):
            obs.logger("runtime").info("session.call",
                                       workload=self.workload.name,
                                       machine=self.machine.name,
                                       inputs=sorted(inputs),
                                       compiled=self._plan is not None)
            if self._plan is None:
                store = TensorStore()
                for full, array in arrays.items():
                    store.bind(self.workload.inputs[full], array)
                for name, t in self.workload.params.items():
                    store.bind(t, self._params[name])
                FractalExecutor(self.machine, store).run_program(
                    self.workload.program)
                return self._outputs(store)
            with self._lock:
                store = self._compiled_store()
                for full, array in arrays.items():
                    store.bind(self.workload.inputs[full], array)
                for name, t in self._written_params:
                    store.bind(t, self._params[name])
                store.reset_tallies()
                FractalExecutor(self.machine, store).run_program(
                    self.workload.program, plan=self._plan)
                return self._outputs(store)

    def _outputs(self, store: TensorStore) -> Dict[str, np.ndarray]:
        """Copies of the outputs, by short name."""
        return {
            full.split(".")[-1]: store.read(t.region())
            for full, t in self.workload.outputs.items()
        }
