"""Fuzz suites: random machines x random programs through the full stack.

These don't check golden values -- they check that *no* configuration
violates the system's invariants: functional execution always matches the
reference kernels, the timing simulator never crashes or produces
non-physical numbers, and the binary format round-trips everything the
builder can produce.
"""

import dataclasses
import json
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    FractalExecutor,
    Instruction,
    Opcode,
    Tensor,
    TensorStore,
    custom_machine,
)
from repro.analysis import program_signature
from repro.analysis.signatures import external_tensors
from repro.core.executor import WalkStats, run_reference
from repro.core.tensor import Region
from repro.core.verify import bit_identical
from repro.frontend import decode_program, encode_program
from repro.plan import (DiskPlanCache, PlanStep, compile_program, plan_from_doc,
                        plan_key)
from repro.plan.analysis import spanless_mismatch
from repro.sim import FractalSimulator
from test_plan import assert_same_plan

# -- strategies -----------------------------------------------------------------

machines = st.builds(
    lambda fanouts, mem_exp: custom_machine(
        "fuzz",
        list(fanouts),
        [1 << (mem_exp - 2 * i) for i in range(len(fanouts) + 1)],
        [1e9] * (len(fanouts) + 1),
        core_peak_ops=1e11,
    ),
    fanouts=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    mem_exp=st.integers(14, 20),
)


#: attrs of an instruction that writes its output, or of one that adds
#: its result to the output's prior value (its first touch accumulates).
accumulating = st.sampled_from([{}, {"accumulate": True}])


@st.composite
def random_instruction(draw):
    kind = draw(st.sampled_from(["matmul", "conv", "pool", "eltwise",
                                 "sort", "euclid", "hsum"]))
    rng_dim = lambda lo, hi: draw(st.integers(lo, hi))
    if kind == "matmul":
        m, k, n = rng_dim(1, 12), rng_dim(1, 12), rng_dim(1, 12)
        a, b = Tensor("a", (m, k)), Tensor("b", (k, n))
        c = Tensor("c", (m, n))
        return Instruction(Opcode.MATMUL, (a.region(), b.region()),
                           (c.region(),), draw(accumulating))
    if kind == "conv":
        n, hw, cin, cout = rng_dim(1, 3), rng_dim(3, 8), rng_dim(1, 3), rng_dim(1, 4)
        x = Tensor("x", (n, hw, hw, cin))
        w = Tensor("w", (3, 3, cin, cout))
        out = Tensor("o", (n, hw - 2, hw - 2, cout))
        return Instruction(Opcode.CV2D, (x.region(), w.region()),
                           (out.region(),), {"stride": 1})
    if kind == "pool":
        n, hw, c = rng_dim(1, 3), rng_dim(4, 9), rng_dim(1, 4)
        x = Tensor("x", (n, hw, hw, c))
        out = Tensor("o", (n, hw // 2, hw // 2, c))
        return Instruction(Opcode.MAX2D, (x.region(),), (out.region(),),
                           {"kh": 2, "kw": 2, "sh": 2, "sw": 2})
    if kind == "eltwise":
        n = rng_dim(1, 64)
        a, b, o = (Tensor(s, (n,)) for s in "abo")
        op = draw(st.sampled_from([Opcode.ADD1D, Opcode.SUB1D, Opcode.MUL1D]))
        return Instruction(op, (a.region(), b.region()), (o.region(),),
                           draw(accumulating))
    if kind == "sort":
        n = rng_dim(1, 48)
        x, o = Tensor("x", (n,)), Tensor("o", (n,))
        return Instruction(Opcode.SORT1D, (x.region(),), (o.region(),))
    if kind == "euclid":
        n, m, d = rng_dim(1, 8), rng_dim(1, 8), rng_dim(1, 8)
        x, y = Tensor("x", (n, d)), Tensor("y", (m, d))
        o = Tensor("o", (n, m))
        return Instruction(Opcode.EUCLIDIAN1D, (x.region(), y.region()),
                           (o.region(),))
    n = rng_dim(1, 64)
    x, o = Tensor("x", (n,)), Tensor("o", (1,))
    return Instruction(Opcode.HSUM1D, (x.region(),), (o.region(),))


# -- fuzz: functional stack -------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(machine=machines, inst=random_instruction(), seed=st.integers(0, 9999))
def test_fuzz_functional_equivalence(machine, inst, seed):
    """Any machine x any instruction: fractal == reference."""
    rng = np.random.default_rng(seed)
    frac, ref = TensorStore(), TensorStore()
    for r in inst.inputs:
        arr = rng.normal(size=r.tensor.shape)
        frac.bind(r.tensor, arr)
        ref.bind(r.tensor, arr)
    run_reference(inst, ref)
    FractalExecutor(machine, frac).run(inst)
    np.testing.assert_allclose(frac.read(inst.outputs[0]),
                               ref.read(inst.outputs[0]),
                               atol=1e-8, rtol=1e-6)


# -- fuzz: one walker for cold runs and compiles ----------------------------------

class _RecordingExecutor(FractalExecutor):
    """A cold executor that also notes each step its walk sink receives."""

    def __init__(self, machine, store):
        super().__init__(machine, store)
        self.received = []

    def _run_step(self, kind, inst, level):
        self.received.append((kind, level, inst))
        super()._run_step(kind, inst, level)


@st.composite
def chained_program(draw, machine):
    """A program for ``machine`` whose instructions share tensors.

    A MatMul whose K is either small or just large enough to outgrow the
    root's memory, so root SD splits K into an accumulate chain (K > N
    makes the K split the tightest); optionally a MatMul that reads its
    output as both operands; then vector instructions over a growing pool
    of 1-D tensors: element-wise ops (possibly one tensor as both
    operands), the sum of two overlapping slices of one tensor, an
    in-place Act1D and HSum1D.  Each output joins the pool, so later
    instructions read earlier results.  The first MatMul and the
    element-wise ops may accumulate into their (fresh) outputs.
    """
    n = draw(st.integers(1, 48))
    # The fp16 MatMul's footprint is 4nk + 2n^2 bytes.
    k_chain = max(n + 1,
                  (machine.level(0).mem_bytes - 2 * n * n) // (4 * n) + 1)
    k = draw(st.integers(n, 256) | st.integers(k_chain, k_chain + 64))
    x, w, y = Tensor("x", (n, k)), Tensor("w", (k, n)), Tensor("y", (n, n))
    program = [Instruction(Opcode.MATMUL, (x.region(), w.region()),
                           (y.region(),), draw(accumulating))]
    if draw(st.booleans()):
        z = Tensor("z", (n, n))
        program.append(Instruction(Opcode.MATMUL, (y.region(), y.region()),
                                   (z.region(),)))
    pool = [Tensor("v", (draw(st.integers(1, 96)),))]
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.sampled_from(pool))
        length = a.shape[0]
        kind = draw(st.sampled_from(["eltwise", "overlap", "inplace", "hsum"]))
        if kind == "inplace":
            func = draw(st.sampled_from(["relu", "tanh", "neg"]))
            program.append(Instruction(Opcode.ACT1D, (a.region(),),
                                       (a.region(),), {"func": func}))
            continue
        if kind == "overlap" and length >= 3:
            m = draw(st.integers(2, length - 1))
            s = draw(st.integers(1, min(m - 1, length - m)))
            opcode, ins, out = Opcode.ADD1D, (a[0:m], a[s:s + m]), Tensor("o", (m,))
        elif kind == "hsum":
            opcode, ins, out = Opcode.HSUM1D, (a.region(),), Tensor("h", (1,))
        else:
            b = draw(st.sampled_from(
                [t for t in pool if t.shape == a.shape] + [None]))
            b = b if b is not None else Tensor("u", a.shape)
            opcode = draw(st.sampled_from(
                [Opcode.ADD1D, Opcode.SUB1D, Opcode.MUL1D]))
            ins, out = (a.region(), b.region()), Tensor("e", a.shape)
        attrs = draw(accumulating) if opcode is not Opcode.HSUM1D else {}
        program.append(Instruction(opcode, ins, (out.region(),), attrs))
        pool.append(out)
    return program


#: a machine and a program for it: independent instructions, or a
#: chained program sized against the machine's memory.
machine_programs = st.one_of(
    st.tuples(machines, st.lists(random_instruction(), min_size=1, max_size=3)),
    machines.flatmap(lambda m: st.tuples(st.just(m), chained_program(m))),
)


@settings(deadline=None, max_examples=200)
@given(case=machine_programs, seed=st.integers(0, 9999))
def test_fuzz_cold_run_and_compile_walk_alike(case, seed):
    """Any machine x any short program, independent or chained, some of
    whose instructions accumulate: the cold run's sink receives the
    compiled plan's steps in order, the cold counters equal
    ``plan.stats``, recursion matches the reference kernels (an
    accumulating instruction adds to the output's prior value) within
    ``verify_program``'s tolerance, the plan reloaded from the disk cache
    equals the compiled one (steps, flags, spans, stats, analysis), and
    schedule replay, the reloaded plan and a second replay on one bound
    store agree with recursion bit for bit."""
    machine, program = case
    rng = np.random.default_rng(seed)
    arrays = {r.tensor.uid: (r.tensor, rng.normal(size=r.tensor.shape))
              for inst in program for r in inst.inputs}

    def bound_store():
        store = TensorStore()
        for tensor, arr in arrays.values():
            store.bind(tensor, arr)
        return store

    cold = _RecordingExecutor(machine, bound_store())
    cold.run_program(program)
    plan = compile_program(machine, program)
    assert ([(kind, level) for kind, level, _ in cold.received]
            == [(step.kind, step.level) for step in plan.steps])
    # re-emitted steps carry their source's fields: the same ones
    assert plan.steps == [PlanStep.from_instruction(s.kind, s.inst, s.level)
                          for s in plan.steps]
    assert (program_signature([inst for _, _, inst in cold.received])
            == program_signature([step.inst for step in plan.steps]))
    for f in dataclasses.fields(WalkStats):
        assert getattr(cold.stats, f.name) == getattr(plan.stats, f.name), f.name
    outputs = [r for inst in program for r in inst.outputs]
    want = [cold.store.read(r) for r in outputs]
    reference = bound_store()
    for inst in program:
        run_reference(inst, reference)
    for region, expected in zip(outputs, want):
        np.testing.assert_allclose(expected, reference.read(region),
                                   atol=1e-7, rtol=1e-6)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        disk = DiskPlanCache(tmp)
        fp, digest = plan_key(machine, program)
        disk.store(fp, digest, plan)
        loaded = disk.load(fp, digest, external_tensors(program))
    assert loaded is not None
    assert_same_plan(program, plan, loaded)
    for leg, replayed in (("schedule", plan), ("disk", loaded)):
        store = bound_store()
        FractalExecutor(machine, store).run_plan(replayed)
        for region, expected in zip(outputs, want):
            assert bit_identical(store.read(region), expected), (leg, region)
    # A store keeps its binding between replays: replay on other inputs,
    # bind the reference inputs in place, and replay again.  The second
    # replay sees no state the first one left behind.
    store = TensorStore()
    for tensor, arr in arrays.values():
        store.bind(tensor, rng.normal(size=tensor.shape))
    executor = FractalExecutor(machine, store)
    executor.run_plan(plan)
    binding = store.binding
    for tensor, arr in arrays.values():
        store.bind(tensor, arr)
    executor.run_plan(plan)
    assert store.binding is binding
    for region, expected in zip(outputs, want):
        assert bit_identical(store.read(region), expected), ("rebound", region)


@settings(deadline=None, max_examples=150)
@given(case=machine_programs)
def test_fuzz_by_span_products_equal_spanless(case):
    """Any machine x any short program, independent or chained, some of
    whose instructions accumulate: the analysis and replay schedule the
    plan derives span by span equal those of the same steps without
    spans, field by field, and so do those of the plan reloaded from its
    document and of the plan rebound onto fresh clones of its externals,
    which replays bit-identically to recursion on the clones."""
    machine, program = case
    plan = compile_program(machine, program)
    assert spanless_mismatch(plan) is None
    doc = json.loads(json.dumps(plan.to_doc()))
    assert spanless_mismatch(plan_from_doc(doc, plan.externals)) is None
    clones = {t.uid: Tensor(t.name, t.shape, t.dtype, space=t.space)
              for t in plan.externals}
    rebound = plan.rebind([clones[t.uid] for t in plan.externals])
    assert spanless_mismatch(rebound) is None

    def on_clones(regions):
        return tuple(Region(clones[r.tensor.uid], r.bounds) for r in regions)

    cloned = [Instruction(inst.opcode, on_clones(inst.inputs),
                          on_clones(inst.outputs), dict(inst.attrs))
              for inst in program]
    rng = np.random.default_rng(0)
    inputs = {r.tensor.uid: (r.tensor, rng.normal(size=r.tensor.shape))
              for inst in cloned for r in inst.inputs}
    results = []
    for replayed in (None, rebound):
        store = TensorStore()
        for tensor, arr in inputs.values():
            store.bind(tensor, arr)
        FractalExecutor(machine, store).run_program(cloned, plan=replayed)
        results.append([store.read(r) for inst in cloned for r in inst.outputs])
    for got, want in zip(results[1], results[0]):
        assert bit_identical(got, want)


# -- fuzz: timing stack -------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(machine=machines, inst=random_instruction(),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans(),
                       st.booleans()))
def test_fuzz_simulator_invariants(machine, inst, flags):
    """Any machine x instruction x feature combination: physical results."""
    machine = machine.with_features(
        use_ttt=flags[0], use_broadcast=flags[1],
        use_concatenation=flags[2], use_sibling_links=flags[3])
    rep = FractalSimulator(machine, collect_profiles=False).simulate([inst])
    assert rep.total_time > 0
    assert np.isfinite(rep.total_time)
    assert rep.work == inst.work()
    assert rep.attained_ops <= machine.peak_ops * 1.01
    assert rep.root_traffic >= 0
    assert rep.root.served_bytes >= 0


@settings(deadline=None, max_examples=15)
@given(machine=machines, inst=random_instruction())
def test_fuzz_simulation_deterministic(machine, inst):
    r1 = FractalSimulator(machine, collect_profiles=False).simulate([inst])
    r2 = FractalSimulator(machine, collect_profiles=False).simulate([inst])
    assert r1.total_time == r2.total_time
    assert r1.root_traffic == r2.root_traffic


# -- fuzz: binary format --------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(insts=st.lists(random_instruction(), min_size=1, max_size=5))
def test_fuzz_encoding_round_trip(insts):
    _, decoded = decode_program(encode_program(insts))
    assert len(decoded) == len(insts)
    for a, b in zip(insts, decoded):
        assert a.signature() == b.signature()


@settings(deadline=None, max_examples=30)
@given(insts=st.lists(random_instruction(), min_size=1, max_size=3),
       cut=st.floats(0.1, 0.95))
def test_fuzz_truncated_binaries_rejected_cleanly(insts, cut):
    """Truncation must raise EncodingError, never crash differently."""
    from repro.frontend import EncodingError
    data = encode_program(insts)
    truncated = data[: max(1, int(len(data) * cut))]
    if truncated == data:
        return
    with pytest.raises(EncodingError):
        decode_program(truncated)


# -- fuzz: static analyzer ------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(insts=st.lists(random_instruction(), min_size=1, max_size=6))
def test_fuzz_analyzer_no_false_positives(insts):
    """Executor-accepted programs are never flagged as errors.

    Every program ``random_instruction`` generates is well-formed (the
    functional fuzz above executes them), so under bare-program
    conventions the analyzer must report zero *errors* on any
    concatenation of them.  Warnings (dead writes between unrelated
    instructions) are fine.
    """
    from repro.analysis import analyze
    result = analyze(insts, name="fuzz")
    assert result.ok, result.format()


@settings(deadline=None, max_examples=25)
@given(machine=machines, inst=random_instruction(), seed=st.integers(0, 9999))
def test_fuzz_analyzer_clean_implies_executable(machine, inst, seed):
    """Differential agreement: analyzer-clean => executes without raising."""
    from repro.analysis import analyze
    assert analyze([inst], name="fuzz").ok
    rng = np.random.default_rng(seed)
    store = TensorStore()
    for r in inst.inputs:
        store.bind(r.tensor, rng.normal(size=r.tensor.shape))
    FractalExecutor(machine, store).run(inst)  # must not raise
    out = store.read(inst.outputs[0])
    assert np.all(np.isfinite(out))
