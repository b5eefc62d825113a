"""The benchmark's workloads: pairs, set-up, timed phases, output checks.

A *pair* is one (program, machine).  Every workload is a closed loop with
one client: each operation starts when the previous one has returned.
Output checks run outside the timed region and count as failures.
"""

from __future__ import annotations

import inspect
import json
import shutil
import statistics
import tempfile
import time
import warnings
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import perf
from repro.core.executor import run_reference
from repro.core.machine import cambricon_f1, cambricon_f100
from repro.core.store import TensorStore
from repro.core.verify import verify_program
from repro.plan import DiskPlanCache, plan_key, reset_plan_cache
from repro.runtime import InferenceSession
from repro.sim import FractalSimulator
from repro.workloads import PAPER_BENCHMARKS, paper_benchmark, profile_benchmark

from spans import SpanRecorder

MACHINES = {"f1": cambricon_f1, "f100": cambricon_f100}

#: One net on both machines.  VGG-16 is left out to keep a run short: on
#: F100 its cold run plus first result alone take about 40 s on a 2-vCPU
#: host, and on F1 it repeats what ResNet-152 shows.
CONVNETS = (("ResNet-152", "f1"), ("ResNet-152", "f100"))
MLALGOS = tuple((p, m) for p in ("mm_fc", "matmul", "K-NN", "K-Means",
                                 "LVQ", "SVM") for m in ("f1", "f100"))
SIM_PAPER = tuple((p, m) for m in ("f1", "f100") for p in PAPER_BENCHMARKS)

_VERIFY = inspect.signature(verify_program).parameters
#: the tolerance and input scale repro.core.verify uses
ATOL = _VERIFY["atol"].default
RTOL = _VERIFY["rtol"].default
INPUT_SCALE = _VERIFY["input_scale"].default

#: untraced warm phase: at least this many rounds, then until --seconds
MIN_ROUNDS = 3
#: warm rounds in the traced pass (it makes one cold round)
TRACED_ROUNDS = 2

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
SIM_FIELDS = ("total_time", "work", "root_traffic")


def pair_key(program: str, machine: str) -> str:
    return f"{program}.{machine}"


# -- output checks ------------------------------------------------------------

def bit_mismatch(got: Dict[str, np.ndarray],
                 want: Dict[str, np.ndarray]) -> Optional[str]:
    """Why ``got`` is not bit-identical to ``want``, or ``None``."""
    if sorted(got) != sorted(want):
        return f"outputs {sorted(got)} != {sorted(want)}"
    for name, w in want.items():
        g = got[name]
        if g.dtype != w.dtype or g.shape != w.shape:
            return f"{name}: {g.dtype}{g.shape} != {w.dtype}{w.shape}"
        if g.tobytes() != w.tobytes():
            g8 = np.ascontiguousarray(g).view(np.uint8).reshape(g.size, -1)
            w8 = np.ascontiguousarray(w).view(np.uint8).reshape(w.size, -1)
            differ = int(np.count_nonzero((g8 != w8).any(axis=1)))
            return f"{name}: {differ} of {w.size} elements differ"
    return None


def reference_mismatch(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray],
                       atol: float = ATOL, rtol: float = RTOL) -> Optional[str]:
    """Why ``got`` is off the reference beyond the verify tolerance."""
    if sorted(got) != sorted(want):
        return f"outputs {sorted(got)} != {sorted(want)}"
    for name, w in want.items():
        g = got[name]
        if g.shape != w.shape:
            return f"{name}: shape {g.shape} != {w.shape}"
        err = np.abs(g - w)
        bad = int(np.count_nonzero(~(err <= atol + rtol * np.abs(w))))
        if bad:
            return (f"{name}: {bad} of {w.size} elements off the reference "
                    f"(max |err| {np.nanmax(err):.3e})")
    return None


def sim_mismatch(got: Sequence, want: Sequence) -> Optional[str]:
    """Why simulated (total_time, work, root_traffic) differ from reference."""
    for name, g, w in zip(SIM_FIELDS, got, want):
        if g != w:
            return f"{name} {g!r} != reference {w!r}"
    return None


# -- pass results ---------------------------------------------------------------

class PassResult:
    """Timings, failures and counters of one pass over a workload.

    Operations are kept as ``(t0, t1)`` perf-counter intervals; a *clock*
    (see :mod:`hostspeed`) turns an interval into seconds.
    """

    def __init__(self) -> None:
        #: phase -> pair key -> interval of each operation
        self.intervals: Dict[str, Dict[str, List[Tuple[float, float]]]] = \
            defaultdict(lambda: defaultdict(list))
        #: phase -> the operations of each complete round (cold, warm)
        self.rounds: Dict[str, List[List[Tuple[float, float]]]] = \
            defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: deterministic counters read off plans, stores and simulators
        self.counts: Dict[str, float] = defaultdict(float)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def total(self, clock: Callable, phase: str) -> float:
        """Seconds of every operation of ``phase``, summed over pairs."""
        return sum(clock(*iv) for ivs in self.intervals.get(phase, {}).values()
                   for iv in ivs)

    def per_pair(self, clock: Callable, phase: str) -> Dict[str, float]:
        """Median seconds of one operation of ``phase``, per pair."""
        return {key: statistics.median(clock(*iv) for iv in ivs)
                for key, ivs in self.intervals.get(phase, {}).items()}

    def round_seconds(self, clock: Callable, phase: str) -> List[float]:
        return [sum(clock(*iv) for iv in ops)
                for ops in self.rounds.get(phase, [])]

    def op(self, rec: Optional[SpanRecorder], program: str, machine: str,
           phase: str, fn: Callable):
        """Run and time one operation; returns ``(result, interval)`` or
        ``None``.

        Any exception, and any RuntimeWarning (a plan-cache fallback or a
        numerical warning), makes the operation a failure.  When traced, the
        interval is read inside the operation's request span, on the
        harness's own clock: the accounting check compares the two.
        """
        self.attempted += 1
        key = pair_key(program, machine)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                with (nullcontext() if rec is None
                      else rec.request_span(program, machine, phase)):
                    t0 = time.perf_counter()
                    out = fn()
                    t1 = time.perf_counter()
        except Exception as err:  # noqa: BLE001 - every failure is counted
            self.fail(f"{key} {phase}: {type(err).__name__}: {err}")
            return None
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if runtime:
            self.fail(f"{key} {phase}: RuntimeWarning: {runtime[0].message}")
            return None
        self.intervals[phase][key].append((t0, t1))
        return out, (t0, t1)

    def check(self, program: str, machine: str, phase: str,
              problem: Optional[str]) -> bool:
        if problem is None:
            return True
        self.fail(f"{pair_key(program, machine)} {phase}: {problem}")
        return False


def _round_loop(seconds: float, rounds: Optional[int], minimum: int):
    """Yield round indices: ``rounds`` of them, or at least ``minimum`` and
    until ``seconds`` have passed."""
    start = time.perf_counter()
    n = 0
    while (n < rounds if rounds is not None else
           n < minimum or time.perf_counter() - start < seconds):
        yield n
        n += 1


# -- functional workloads -------------------------------------------------------

class FunctionalPair:
    def __init__(self, program: str, machine: str, index: int, seed: int,
                 machines: Dict[str, object]) -> None:
        self.program, self.machine = program, machine
        self.workload = profile_benchmark(program)
        self.machine_obj = machines[machine]
        rng = np.random.default_rng([seed, index])
        self.inputs = {full.split(".")[-1]: INPUT_SCALE * rng.normal(size=t.shape)
                       for full, t in sorted(self.workload.inputs.items())}
        # He-style scale, as InferenceSession.initialize_parameters uses.
        self.params = {}
        for name, t in sorted(self.workload.params.items()):
            fan_in = max(1, int(np.prod(t.shape[:-1])))
            self.params[name] = (0.1 * (2.0 / fan_in) ** 0.5
                                 * rng.normal(size=t.shape))
        self.session = self.new_session()
        self.cold: Optional[Dict[str, np.ndarray]] = None
        self._reference: Optional[Dict[str, np.ndarray]] = None

    def new_session(self) -> InferenceSession:
        session = InferenceSession(self.workload, machine=self.machine_obj)
        session.load_parameters(self.params)
        return session

    def call(self) -> Dict[str, np.ndarray]:
        return self.session(**self.inputs)

    def reference(self) -> Dict[str, np.ndarray]:
        """Outputs of run_reference on the same inputs (computed once)."""
        if self._reference is None:
            w = self.workload
            store = TensorStore()
            for full, t in w.inputs.items():
                store.bind(t, self.inputs[full.split(".")[-1]])
            for name, t in w.params.items():
                store.bind(t, self.params[name])
            for inst in w.program:
                run_reference(inst, store)
            self._reference = {full.split(".")[-1]: store.read(t.region())
                               for full, t in w.outputs.items()}
        return self._reference


class FunctionalWorkload:
    """Cold, first-result, warm and (with a disk tier) restart phases."""

    def __init__(self, pairs: Sequence[Tuple[str, str]], seed: int,
                 work_dir: Path, disk: bool) -> None:
        machines = {name: make() for name, make in MACHINES.items()}
        self.pairs = [FunctionalPair(p, m, i, seed, machines)
                      for i, (p, m) in enumerate(pairs)]
        self.work_dir = work_dir
        self.disk = disk

    def renew_sessions(self) -> None:
        for pair in self.pairs:
            pair.session = pair.new_session()

    def run(self, seconds: float, rec: Optional[SpanRecorder] = None,
            rounds: Optional[int] = None) -> PassResult:
        res = PassResult()
        disk_dir = (tempfile.mkdtemp(prefix="plans-", dir=self.work_dir)
                    if self.disk else None)
        try:
            self._phases(res, rec, seconds, rounds, disk_dir)
        finally:
            if disk_dir is not None:
                shutil.rmtree(disk_dir, ignore_errors=True)
        return res

    def _phases(self, res: PassResult, rec, seconds, rounds, disk_dir) -> None:
        reset_plan_cache()
        # Cold calls keep nothing between them, so the phase repeats like
        # the warm one; later rounds must match the first bit for bit.
        for p in self.pairs:
            p.cold = None
        for _ in _round_loop(seconds, None if rounds is None else 1, 1):
            ops = [self._cold(res, rec, p) for p in self.pairs]
            if all(ops):
                res.rounds["cold"].append(ops)

        def first(p: FunctionalPair) -> Callable:
            def compile_and_call():
                p.session.compile(plan_cache_dir=disk_dir)
                return p.call()
            return compile_and_call

        reset_plan_cache()
        for p in self.pairs:
            self._replay(res, rec, p, "first", first(p))
        if disk_dir is not None:
            res.counts["cache.doc_bytes"] = sum(
                f.stat().st_size for f in Path(disk_dir).glob("*.json"))
        for _ in _round_loop(seconds, rounds, MIN_ROUNDS):
            ops = [self._replay(res, rec, p, "warm", p.call) for p in self.pairs]
            if all(ops):
                res.rounds["warm"].append(ops)
        if disk_dir is not None:
            reset_plan_cache()
            for p in self.pairs:
                # The restart must load: a missing entry would recompile.
                if not res.check(p.program, p.machine, "restart",
                                 None if self._on_disk(p, disk_dir)
                                 else "plan missing from the disk cache"):
                    continue
                self._replay(res, rec, p, "restart", first(p))

    @staticmethod
    def _on_disk(p: FunctionalPair, disk_dir: str) -> bool:
        fp, digest = plan_key(p.machine_obj, p.workload.program)
        return DiskPlanCache(disk_dir).has(fp, digest)

    @staticmethod
    def _cold(res: PassResult, rec,
              p: FunctionalPair) -> Optional[Tuple[float, float]]:
        done = res.op(rec, p.program, p.machine, "cold", p.call)
        if done is None:
            return None
        if p.cold is None:
            p.cold = done[0]
            problem = reference_mismatch(p.cold, p.reference())
        else:
            problem = bit_mismatch(done[0], p.cold)
        return done[1] if res.check(p.program, p.machine, "cold", problem) else None

    @staticmethod
    def _replay(res: PassResult, rec, p: FunctionalPair, phase: str,
                fn: Callable) -> Optional[Tuple[float, float]]:
        done = res.op(rec, p.program, p.machine, phase, fn)
        if done is None:
            return None
        if p.cold is None:
            res.fail(f"{pair_key(p.program, p.machine)} {phase}: "
                     "no cold result to compare with")
            return None
        if not res.check(p.program, p.machine, phase, bit_mismatch(done[0], p.cold)):
            return None
        return done[1]

    def plan_counts(self) -> Dict[str, float]:
        """Deterministic plan and schedule figures of the compiled pairs."""
        steps = safe = fused = lanes = fallback = arena = engine = 0
        views = gathers = 0
        for p in self.pairs:
            plan = p.session.plan
            if plan is None:
                continue
            schedule = plan.replay_schedule()
            steps += plan.n_steps
            safe += sum(1 for s in plan.steps if s.safe_zero_copy)
            fused += sum(b - a for a, b in plan.fusion_groups)
            lanes += schedule.batched_lanes
            fallback += schedule.fallback_lanes
            arena += schedule.arena.nbytes
            engine += int(schedule.fully_batched)
            for item in schedule.items:
                if item.batched:
                    gathers += item.k * len(item.gathers)
                    views += item.k * sum(g.zero_copy for g in item.gathers)
        return {
            "compile.plan_steps": steps,
            "analysis.safe_step_frac": safe / steps if steps else 0.0,
            "analysis.fused_step_frac": fused / steps if steps else 0.0,
            "batch.lane_frac": lanes / steps if steps else 0.0,
            "batch.fallback_lanes": fallback,
            "batch.view_gather_frac": views / gathers if gathers else 0.0,
            "arena_bytes": arena,
            "replay.batched_engine": engine,
        }


# -- the simulator workload -----------------------------------------------------

def load_reference() -> Dict[str, List]:
    with open(REFERENCE_FILE, encoding="utf-8") as f:
        return json.load(f)["pairs"]


class SimPair:
    def __init__(self, program: str, machine: str) -> None:
        self.program, self.machine = program, machine
        self.instructions = paper_benchmark(program).program
        self.machine_obj = MACHINES[machine]()
        self.simulator: Optional[FractalSimulator] = None

    def simulate(self) -> Tuple[float, int, int]:
        rep = self.simulator.simulate(self.instructions)
        if rep.attribution:
            perf.attribute_report(rep)
        return rep.total_time, rep.work, rep.root_traffic


class SimWorkload:
    """One fresh-simulator pass over every pair, as the perf gate and every
    simulating command run it; there is no warm phase."""

    def __init__(self, pairs: Sequence[Tuple[str, str]], seed: int,
                 reference: Optional[Dict[str, List]] = None) -> None:
        # The programs are fixed shapes; the seed only orders the pairs.
        order = np.random.default_rng(seed).permutation(len(pairs))
        self.pairs = [SimPair(*pairs[i]) for i in order]
        self.reference = load_reference() if reference is None else reference

    def run(self, seconds: float, rec: Optional[SpanRecorder] = None,
            rounds: Optional[int] = None) -> PassResult:
        """The pass; it outlasts ``seconds`` and makes no rounds."""
        res = PassResult()
        for p in self.pairs:
            p.simulator = FractalSimulator(p.machine_obj, collect_profiles=False)
            done = res.op(rec, p.program, p.machine, "first", p.simulate)
            if done is None:
                continue
            want = self.reference.get(pair_key(p.program, p.machine))
            res.check(p.program, p.machine, "first",
                      sim_mismatch(done[0], want) if want is not None
                      else "no reference values recorded")
            cache = p.simulator.cache_stats
            for name in ("nodes_simulated", "sig_hits", "sig_misses",
                         "plan_hits", "plan_misses"):
                res.counts[f"sim.{name}"] += getattr(cache, name)
        return res


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "convnets":
        return FunctionalWorkload(CONVNETS, seed, work_dir, disk=False)
    if name == "mlalgos":
        return FunctionalWorkload(MLALGOS, seed, work_dir, disk=True)
    if name == "sim-paper":
        return SimWorkload(SIM_PAPER, seed)
    raise KeyError(name)


WORKLOADS = ("convnets", "mlalgos", "sim-paper")
