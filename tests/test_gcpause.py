"""The cyclic-collector pause around plan builders and the simulator.

``compile_program``, ``FractalPlan.replay_schedule``, ``ReplaySchedule.bind``,
``FractalPlan.rebind``, ``DiskPlanCache.store``/``load`` and
``FractalSimulator.simulate`` run with
the cyclic garbage collector paused (:func:`repro.core.gcpause.gc_paused`).
That frees nothing late only because they make no reference cycles:
reference counting alone reclaims everything they drop.  These tests hold
every builder to that, and hold the pause to restoring the collector
however it is left: on return, on an exception, when nested, when the
caller had turned the collector off, and under concurrent threads.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
from types import SimpleNamespace

import pytest

from conftest import tiny_machine
from repro import telemetry
from repro.analysis.signatures import external_tensors
from repro.core import (Instruction, Opcode, Tensor, TensorStore, cambricon_f1,
                        cambricon_f100, gc_paused)
from repro.core import executor as executor_mod
from repro.plan import DiskPlanCache, FractalPlan, PlanStep, compile_program, plan_key
from repro.plan import batch as batch_mod
from repro.plan import cache as cache_mod
from repro.plan import compiler as compiler_mod
from repro.sim import simulator as simulator_mod
from repro.sim.simulator import FractalSimulator
from repro.workloads import paper_benchmark, profile_benchmark

MACHINES = {"f1": cambricon_f1, "f100": cambricon_f100}

#: (profile benchmark, machine) pairs the plan builders are held to
PLAN_PAIRS = [("mm_fc", "f1"), ("mm_fc", "f100"), ("K-Means", "f1"),
              ("K-Means", "f100"), ("ResNet-152", "f1")]


@pytest.fixture(autouse=True)
def _collector_enabled():
    """Start every test with the collector on; put back what was there."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def _cyclic_garbage(build):
    """``(build(), garbage)``: what ``build()`` returns, and every object it
    left that only a cyclic collection would free.

    Collects first, runs ``build`` with the collector off, then collects
    again under ``gc.DEBUG_SAVEALL`` so the unreachable objects are kept
    for inspection instead of freed.
    """
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        result = build()
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        first = len(gc.garbage)
        gc.collect()
        garbage = gc.garbage[first:]
        del gc.garbage[first:]
    finally:
        gc.set_debug(debug)
        if was_enabled:
            gc.enable()
    return result, garbage


def _compiled(name, key):
    machine = MACHINES[key]()
    program = profile_benchmark(name).program
    return machine, program, compile_program(machine, program)


# -- no paused builder leaves cyclic garbage ---------------------------------

class TestNoCycles:
    """Reference counting alone frees what every paused builder drops."""

    @pytest.mark.parametrize("name,key", PLAN_PAIRS,
                             ids=[f"{n}-{k}" for n, k in PLAN_PAIRS])
    def test_plan_builders(self, name, key, tmp_path):
        machine = MACHINES[key]()
        program = profile_benchmark(name).program

        def build():
            plan = compile_program(machine, program)
            plan.replay_schedule()
            return plan

        plan, garbage = _cyclic_garbage(build)
        assert garbage == [], "compile_program + replay_schedule()"

        schedule = plan.replay_schedule()
        _, garbage = _cyclic_garbage(lambda: TensorStore().bound(schedule))
        assert garbage == [], "bind"

        externals = external_tensors(profile_benchmark(name).program)
        rebound, garbage = _cyclic_garbage(lambda: plan.rebind(externals))
        assert rebound.n_steps == plan.n_steps
        assert garbage == [], "rebind"

        fp, digest = plan_key(machine, program)
        cache = DiskPlanCache(tmp_path)
        _, garbage = _cyclic_garbage(lambda: cache.store(fp, digest, plan))
        assert garbage == [], "store"

        loaded, garbage = _cyclic_garbage(
            lambda: cache.load(fp, digest, externals))
        assert loaded is not None and loaded.n_steps == plan.n_steps
        assert garbage == [], "load"

    def test_rejected_cache_entries(self, tmp_path):
        """Loading a truncated or tampered entry warns, misses and leaves
        no cycle behind, exception chain included."""
        machine, program, plan = _compiled("mm_fc", "f1")
        fp, digest = plan_key(machine, program)
        cache = DiskPlanCache(tmp_path)
        cache.store(fp, digest, plan)
        path = cache._path(fp, digest)
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        doc["steps"][0]["safe"] = not doc["steps"][0]["safe"]
        externals = external_tensors(program)
        for bad in (text[: len(text) // 2], json.dumps(doc)):
            path.write_text(bad, encoding="utf-8")
            with pytest.warns(RuntimeWarning, match="plan cache entry"):
                loaded, garbage = _cyclic_garbage(
                    lambda: cache.load(fp, digest, externals))
            assert loaded is None
            assert garbage == []

    @pytest.mark.parametrize("name", ["mm_fc", "K-Means", "SVM", "ResNet-152"])
    def test_simulate_tiny_machine(self, name):
        program = profile_benchmark(name).program
        sim = FractalSimulator(tiny_machine())
        report, garbage = _cyclic_garbage(lambda: sim.simulate(program))
        assert report.total_time > 0
        assert garbage == []

    def test_simulate_with_telemetry(self):
        program = profile_benchmark("K-Means").program
        sim = FractalSimulator(tiny_machine())
        with telemetry.enabled_scope():
            report, garbage = _cyclic_garbage(lambda: sim.simulate(program))
        assert report.total_time > 0
        assert garbage == []

    def test_simulate_paper_matmul_f100(self):
        program = paper_benchmark("MATMUL").program
        sim = FractalSimulator(cambricon_f100())
        report, garbage = _cyclic_garbage(lambda: sim.simulate(program))
        assert report.total_time > 0
        assert garbage == []


# -- the pause always restores the collector ---------------------------------

@pytest.fixture
def subject(tmp_path):
    """``mm_fc`` on F1, compiled, with fresh externals and a cache dir."""
    machine, program, plan = _compiled("mm_fc", "f1")
    fp, digest = plan_key(machine, program)
    return SimpleNamespace(
        machine=machine, program=program, plan=plan, fp=fp, digest=digest,
        externals=external_tensors(profile_benchmark("mm_fc").program),
        cache=DiskPlanCache(tmp_path))


def _compile(s):
    return lambda: compile_program(s.machine, s.program)


def _replay_schedule(s):
    return compile_program(s.machine, s.program).replay_schedule


def _bind(s):
    schedule = s.plan.replay_schedule()
    return lambda: TensorStore().bound(schedule)


def _rebind(s):
    return lambda: s.plan.rebind(s.externals)


def _store(s):
    return lambda: s.cache.store(s.fp, s.digest, s.plan)


def _load(s):
    s.cache.store(s.fp, s.digest, s.plan)
    return lambda: s.cache.load(s.fp, s.digest, s.externals)


def _simulate(s):
    sim = FractalSimulator(s.machine)
    return lambda: sim.simulate(s.program)


#: paused builder -> (makes one call of it ready to run, and the inner
#: call it makes while paused, as ``(owner, attribute)``)
BUILDERS = {
    "compile_program": (_compile, (compiler_mod, "annotate_plan")),
    "replay_schedule": (_replay_schedule, (batch_mod, "build_schedule")),
    "bind": (_bind, (batch_mod, "ReplayBinding")),
    "rebind": (_rebind, (PlanStep, "from_instruction")),
    "store": (_store, (FractalPlan, "to_doc")),
    "load": (_load, (cache_mod, "verify_plan")),
    "simulate": (_simulate, (simulator_mod, "schedule_pipeline")),
}


class _Boom(Exception):
    pass


def _patch_inner(monkeypatch, builder, seen, raises=False):
    """Wrap ``builder``'s inner call to record ``gc.isenabled()`` in
    ``seen`` (and raise :class:`_Boom` when ``raises``)."""
    owner, attr = BUILDERS[builder][1]
    real = getattr(owner, attr)

    def inner(*args, **kwargs):
        seen.append(gc.isenabled())
        if raises:
            raise _Boom(attr)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, inner)


@pytest.mark.parametrize("builder", sorted(BUILDERS))
class TestPauseRestoresCollector:
    """Off inside every builder; afterwards, as it was before."""

    def test_paused_inside_enabled_after(self, builder, subject, monkeypatch):
        call = BUILDERS[builder][0](subject)
        seen = []
        _patch_inner(monkeypatch, builder, seen)
        call()
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_enabled_after_a_raise(self, builder, subject, monkeypatch):
        call = BUILDERS[builder][0](subject)
        seen = []
        _patch_inner(monkeypatch, builder, seen, raises=True)
        with pytest.raises(_Boom):
            call()
        assert seen == [False]
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, builder, subject):
        call = BUILDERS[builder][0](subject)
        gc.disable()
        call()
        assert not gc.isenabled()

    def test_nested_under_open_pause(self, builder, subject):
        call = BUILDERS[builder][0](subject)
        with gc_paused():
            call()
            assert not gc.isenabled()
        assert gc.isenabled()


class TestPauseCounting:
    """Only the last pause to close resumes the collector: nested, after
    SD's guard raises, and across threads."""

    def test_inner_close_keeps_outer_paused(self):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_max_steps_guard_raise_resumes(self, monkeypatch):
        """A compile stopped by SD's ``max_steps`` guard leaves the
        collector on."""
        a, b, c = Tensor("a", (96, 384)), Tensor("b", (384, 64)), Tensor("c", (96, 64))
        matmul = Instruction(Opcode.MATMUL, (a.region(), b.region()), (c.region(),))
        real = executor_mod.shrink_sequential
        monkeypatch.setattr(
            executor_mod, "shrink_sequential",
            lambda inst, cap: real(inst, cap, max_steps=1))
        with pytest.raises(RuntimeError, match="exploded"):
            compile_program(tiny_machine(), [matmul])
        assert gc.isenabled()

    def test_threads_never_resume_early_or_leave_it_off(self):
        """Eight threads open and close the pause 1,000 times each with a
        1 us switch interval; a lost update to the open-pause count would
        resume the collector under an open pause or leave it off."""
        failures = []

        def worker():
            try:
                for _ in range(1000):
                    with gc_paused():
                        assert not gc.isenabled()
            except Exception as err:  # reported by the main thread below
                failures.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert gc.isenabled()
