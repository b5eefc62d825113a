"""InferenceSession tests: the model-like API over compiled workloads."""

import sys
import threading

import numpy as np
import pytest

from repro.compiler import Graph, lower
from repro.core import Instruction, Opcode, Tensor
from repro.core.executor import run_reference
from repro.core.store import TensorStore
from repro.core.verify import bit_identical
from repro.plan import reset_plan_cache
from repro.runtime import InferenceSession
from repro.workloads.builder import Workload

from conftest import tiny_machine


def small_net():
    g = Graph("sess")
    x = g.input("img", (2, 8, 8, 2))
    h = g.conv2d(x, 4, 3, padding=1, activation="relu")
    h = g.maxpool(h, 2)
    h = g.flatten(h)
    g.output(g.dense(h, 3))
    return lower(g)


@pytest.fixture
def session():
    s = InferenceSession(small_net(), machine=tiny_machine())
    s.initialize_parameters(seed=1)
    return s


class TestParameters:
    def test_initialize_covers_all(self, session):
        assert set(session._params) == set(session.workload.params)
        assert session.parameter_names

    def test_initialization_deterministic(self):
        w = small_net()
        a = InferenceSession(w, tiny_machine())
        b = InferenceSession(w, tiny_machine())
        a.initialize_parameters(seed=5)
        b.initialize_parameters(seed=5)
        for name in a._params:
            np.testing.assert_array_equal(a._params[name], b._params[name])

    def test_load_validates_names_and_shapes(self, session):
        with pytest.raises(KeyError):
            session.load_parameters({"nope": np.zeros(3)})
        name = session.parameter_names[0]
        with pytest.raises(ValueError):
            session.load_parameters({name: np.zeros((1, 1))})

    def test_run_without_parameters_raises(self):
        s = InferenceSession(small_net(), tiny_machine())
        with pytest.raises(RuntimeError):
            s(img=np.zeros((2, 8, 8, 2)))


class TestExecution:
    def test_call_returns_outputs(self, session, rng):
        out = session(img=rng.normal(size=(2, 8, 8, 2)))
        assert len(out) == 1
        (logits,) = out.values()
        assert logits.shape == (2, 3)

    def test_matches_reference(self, session, rng):
        image = rng.normal(size=(2, 8, 8, 2))
        out = session(img=image)
        (got,) = out.values()
        # replay with the reference kernels
        store = TensorStore()
        for full, t in session.workload.inputs.items():
            store.bind(t, image)
        for name, t in session.workload.params.items():
            store.bind(t, session._params[name])
        for inst in session.workload.program:
            run_reference(inst, store)
        (out_tensor,) = session.workload.outputs.values()
        np.testing.assert_allclose(got, store.read(out_tensor.region()),
                                   atol=1e-8)

    def test_repeated_calls_independent(self, session, rng):
        a = rng.normal(size=(2, 8, 8, 2))
        b = rng.normal(size=(2, 8, 8, 2))
        out_a1 = list(session(img=a).values())[0]
        _ = session(img=b)
        out_a2 = list(session(img=a).values())[0]
        np.testing.assert_array_equal(out_a1, out_a2)

    def test_input_validation(self, session):
        with pytest.raises(KeyError):
            session(bogus=np.zeros((2, 8, 8, 2)))
        with pytest.raises(ValueError):
            session(img=np.zeros((1, 8, 8, 2)))

    def test_missing_input_detected(self):
        g = Graph("two-in")
        a = g.input("a", (4, 4))
        b = g.input("b", (4, 4))
        g.output(g.add(a, b))
        s = InferenceSession(lower(g), tiny_machine())
        with pytest.raises(ValueError, match="missing"):
            s(a=np.zeros((4, 4)))


# -- a compiled session keeps state between calls ------------------------------

def accumulating_workload(n=12000):
    """``t += a * b`` then ``out += t + c``: both instructions accumulate
    into tensors the caller never binds, so each call must see them as
    zeros, as a fresh store makes them."""
    a, b, c = (Tensor(name, (n,)) for name in "abc")
    t, out = Tensor("t", (n,)), Tensor("out", (n,))
    program = [
        Instruction(Opcode.MUL1D, (a.region(), b.region()), (t.region(),),
                    {"accumulate": True}),
        Instruction(Opcode.ADD1D, (t.region(), c.region()), (out.region(),),
                    {"accumulate": True}),
    ]
    return Workload("acc", program,
                    inputs={"acc.a": a, "acc.b": b, "acc.c": c},
                    outputs={"acc.out": out})


def cold_result(session, params=None, **inputs):
    """The outputs of a fresh, uncompiled session on the same workload."""
    fresh = InferenceSession(session.workload, session.machine)
    fresh.load_parameters(session._params if params is None else params)
    return fresh(**inputs)


def assert_same(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert bit_identical(got[name], want[name]), name


class TestBoundSession:
    """A compiled session keeps its store, arena and operand views from
    one call to the next; every call still equals a fresh cold session's
    result, byte for byte."""

    @pytest.fixture
    def compiled(self, session):
        session.compile()
        return session

    @staticmethod
    def image(rng):
        return rng.normal(size=(2, 8, 8, 2))

    def test_calls_with_different_inputs(self, compiled, rng):
        a, b = self.image(rng), self.image(rng)
        first, second = compiled(img=a), compiled(img=b)
        assert_same(first, cold_result(compiled, img=a))
        assert_same(second, cold_result(compiled, img=b))

    def test_call_after_load_parameters(self, compiled, rng):
        image = self.image(rng)
        before = compiled(img=image)
        name = compiled.parameter_names[0]
        shape = compiled.workload.params[name].shape
        compiled.load_parameters({name: rng.normal(size=shape)})
        after = compiled(img=image)
        assert_same(after, cold_result(compiled, img=image))
        assert not all(bit_identical(after[k], before[k]) for k in after)

    def test_mutating_a_result_changes_no_later_call(self, compiled, rng):
        image = self.image(rng)
        for array in compiled(img=image).values():
            array[...] = 1e9
        assert_same(compiled(img=image), cold_result(compiled, img=image))

    def test_recompile_through_the_disk_cache(self, session, rng, tmp_path):
        image = self.image(rng)
        plan = session.compile(plan_cache_dir=tmp_path)
        session(img=self.image(rng))
        reset_plan_cache()
        reloaded = session.compile(plan_cache_dir=tmp_path)
        assert reloaded is not plan  # loaded from disk, bound afresh
        assert_same(session(img=image), cold_result(session, img=image))

    def test_transposed_parameter(self, compiled, rng):
        name = next(n for n, t in compiled.workload.params.items()
                    if len(t.shape) == 2)
        shape = compiled.workload.params[name].shape
        weight = rng.normal(size=shape[::-1]).T
        assert not weight.flags.c_contiguous
        image = self.image(rng)
        compiled(img=image)
        compiled.load_parameters({name: weight})
        assert_same(compiled(img=image), cold_result(compiled, img=image))
        assert bit_identical(compiled._params[name], weight)

    def test_concurrent_calls_serialize(self, compiled, rng):
        """Two threads, ten calls each, their own inputs: the lock keeps
        every call whole."""
        images = [[self.image(rng) for _ in range(10)] for _ in range(2)]
        want = [[cold_result(compiled, img=x) for x in batch]
                for batch in images]
        got = [[None] * 10 for _ in range(2)]
        errors = []

        def worker(t):
            try:
                for i, image in enumerate(images[t]):
                    got[t][i] = compiled(img=image)
            except Exception as err:  # reported by the main thread below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for t in range(2):
            for i in range(10):
                assert_same(got[t][i], want[t][i])

    @pytest.mark.parametrize("n", [1, 12000])
    def test_accumulating_into_unbound_tensors(self, n, rng):
        """The second call starts from zeros in the tensors the caller
        does not bind, not from the first call's sums.  With one element
        the first touch of ``t`` and ``out`` is an accumulate over the
        whole tensor; with 12,000 the decomposition makes it a slice."""
        session = InferenceSession(accumulating_workload(n), tiny_machine())
        session.compile()
        schedule = session.plan.replay_schedule()
        assert {"t", "out"} <= {schedule.tensor(t).name
                                for t in schedule.arena.zero_externals}

        def inputs():
            return {name: rng.normal(size=(n,)) for name in "abc"}

        other, checked = inputs(), inputs()
        assert_same(session(**other), cold_result(session, **other))
        # the inputs are bound, so only t and out are zeroed per call
        assert len(session._store.binding.zero_externals) == 2
        assert_same(session(**checked), cold_result(session, **checked))
