"""Signature-keyed plan caches: in-process memo + on-disk persistence.

Two tiers, both keyed on ``(machine fingerprint, program structural
signature)``:

* an in-process LRU (:class:`PlanCache`) so a serving process pays the
  decomposition walk once per distinct (machine, shape) pair, and
* an optional on-disk store (:class:`DiskPlanCache`, default
  ``~/.cache/repro/plans`` or any ``--plan-cache DIR``) so *processes*
  share the work.  Entries are versioned JSON written atomically;
  corrupted or truncated files are reported with a warning and recompiled,
  never trusted.

The entry point is :func:`compile_cached`; cache traffic is published as
``plan.compile_hits{tier=memory|disk}`` / ``plan.compile_misses`` when
telemetry is enabled (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .. import obs, telemetry
from ..analysis.signatures import external_tensors, program_digest
from ..core.gcpause import gc_paused
from ..core.isa import Instruction
from ..core.machine import Machine
from .analysis import verify_plan
from .compiler import compile_program, fingerprint_digest, machine_fingerprint
from .plan import FractalPlan, PlanFormatError, plan_from_doc


def default_cache_dir() -> Path:
    """``$REPRO_PLAN_CACHE``, else ``$XDG_CACHE_HOME/repro/plans``, else
    ``~/.cache/repro/plans``."""
    env = os.environ.get("REPRO_PLAN_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "plans"


def plan_key(machine: Machine,
             program: Sequence[Instruction]) -> Tuple[Tuple, str]:
    """The two-part cache key: (machine fingerprint, program digest)."""
    return machine_fingerprint(machine), program_digest(program)


class PlanCache:
    """Bounded in-process LRU of compiled plans, safe for threaded use."""

    def __init__(self, capacity: int = 64):
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[Tuple, FractalPlan]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple) -> Optional[FractalPlan]:
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
            return plan

    def put(self, key: Tuple, plan: FractalPlan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskPlanCache:
    """One JSON file per plan under ``directory``; all failures are soft.

    Writes go through a temp file + :func:`os.replace` so a crashed writer
    can never leave a half-written entry under the final name; reads treat
    any unparsable or structurally invalid file as a miss (with a
    :class:`RuntimeWarning` naming the file) so a corrupted cache degrades
    to recompilation instead of wrong results or a crash.
    """

    def __init__(self, directory):
        self.directory = Path(directory)

    def _path(self, machine_fp: Tuple, digest: str) -> Path:
        return self.directory / (
            f"plan-v{_schema_version()}-"
            f"{fingerprint_digest(machine_fp)[:16]}-{digest[:32]}.json")

    def has(self, machine_fp: Tuple, digest: str) -> bool:
        """Whether an entry file exists (it may still be invalid on load)."""
        return self._path(machine_fp, digest).exists()

    def load(self, machine_fp: Tuple, digest: str,
             externals) -> Optional[FractalPlan]:
        """The entry's plan bound onto ``externals``, or ``None`` on a miss.

        :func:`~repro.plan.plan.plan_from_doc` rebuilds the walked steps
        and records the spans, building no copy and checking what it
        does not prove, and :func:`~repro.plan.analysis.verify_plan`
        re-analyses the result on the region table the load checked;
        either failing warns and misses.  Parsing, rebuilding and
        re-verifying run with the cyclic collector paused
        (:func:`repro.core.gcpause.gc_paused`).
        """
        path = self._path(machine_fp, digest)
        with gc_paused():
            try:
                with open(path, encoding="utf-8") as f:
                    doc = json.load(f)
            except (FileNotFoundError, NotADirectoryError):
                # No entry, or no directory to hold one (a file is in
                # the way): a plain miss, which ``store`` then reports.
                return None
            except (OSError, ValueError) as err:
                warnings.warn(f"ignoring corrupt plan cache entry {path}: "
                              f"{err}", RuntimeWarning, stacklevel=2)
                return None
            try:
                if not isinstance(doc, dict):
                    raise PlanFormatError(
                        f"plan document is {type(doc).__name__}, "
                        f"expected object")
                if doc.get("signature_digest") != digest:
                    raise PlanFormatError("signature digest mismatch")
                plan = plan_from_doc(doc, externals,
                                     machine_fingerprint=machine_fp)
                # Re-verify the stored analysis products against a fresh
                # analysis of the loaded steps: a tampered safe_zero_copy
                # flag or stale fusion group must never steer the executor.
                try:
                    verify_plan(plan)
                except ValueError as err:
                    raise PlanFormatError(f"analysis re-verification "
                                          f"failed: {err}") from err
                return plan
            except PlanFormatError as err:
                warnings.warn(f"ignoring invalid plan cache entry {path}: "
                              f"{err}", RuntimeWarning, stacklevel=2)
                return None

    def store(self, machine_fp: Tuple, digest: str, plan: FractalPlan) -> None:
        """Write ``plan`` atomically; a failure only warns.

        Serializing runs with the cyclic collector paused.
        """
        path = self._path(machine_fp, digest)
        with gc_paused():
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                doc = plan.to_doc()
                fd, tmp = tempfile.mkstemp(dir=str(self.directory),
                                           prefix=path.name, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as f:
                        # json.dumps, not json.dump: only the one-shot
                        # form runs the C encoder (same text, ~4x faster).
                        f.write(json.dumps(doc, separators=(",", ":")))
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except (OSError, TypeError, ValueError) as err:
                # Persisting is an optimization; never fail the run over it.
                warnings.warn(f"could not persist plan to {path}: {err}",
                              RuntimeWarning, stacklevel=2)


def _schema_version() -> int:
    from .plan import PLAN_SCHEMA_VERSION

    return PLAN_SCHEMA_VERSION


_GLOBAL_CACHE = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-wide in-memory plan cache."""
    return _GLOBAL_CACHE


def reset_plan_cache() -> None:
    """Drop every in-memory plan (tests / machine-config churn)."""
    _GLOBAL_CACHE.clear()


def _count(name: str, tier: Optional[str] = None) -> None:
    registry = telemetry.get_registry()
    if registry.enabled:
        registry.count(name, labels={"tier": tier} if tier else None)


def compile_cached(
    machine: Machine,
    program: Sequence[Instruction],
    disk_dir=None,
    memory_cache: Optional[PlanCache] = None,
) -> FractalPlan:
    """Compile ``program`` for ``machine``, through both cache tiers.

    Lookup order: in-process LRU, then (when ``disk_dir`` is given) the
    on-disk store, then a fresh :func:`repro.plan.compiler.compile_program`
    whose result is inserted into both tiers.  Memory hits whose plan was
    built for *different* tensors (same structure, e.g. a rebuilt workload)
    are transparently rebound.  A rebind maps only the walked steps and
    the spans' moves, and builds no copy, so it costs a small fraction of
    a compile: about 15-40 ms for the 94k-step F100 ResNet-152 plan,
    against about 0.25 s for its compile, on a 2-vCPU host.
    """
    program = list(program)
    cache = memory_cache if memory_cache is not None else _GLOBAL_CACHE
    fp = machine_fingerprint(machine)
    digest = program_digest(program)
    key = (fp, digest)
    log = obs.logger("plan")

    plan = cache.get(key)
    if plan is not None:
        _count("plan.compile_hits", "memory")
        log.debug("cache.hit", tier="memory", steps=plan.n_steps)
        externals = external_tensors(program)
        if plan.external_uids() != tuple(t.uid for t in externals):
            plan = plan.rebind(externals)
            cache.put(key, plan)
        if disk_dir is not None:
            disk = DiskPlanCache(disk_dir)
            if not disk.has(fp, digest):  # memory-only so far: persist it
                disk.store(fp, digest, plan)
        return plan

    if disk_dir is not None:
        disk = DiskPlanCache(disk_dir)
        plan = disk.load(fp, digest, external_tensors(program))
        if plan is not None:
            _count("plan.compile_hits", "disk")
            log.debug("cache.hit", tier="disk", steps=plan.n_steps)
            cache.put(key, plan)
            return plan

    _count("plan.compile_misses")
    log.debug("cache.miss")
    plan = compile_program(machine, program)
    cache.put(key, plan)
    if disk_dir is not None:
        DiskPlanCache(disk_dir).store(fp, digest, plan)
    return plan
