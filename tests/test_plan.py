"""Fractal plan compiler tests: compile/replay identity, caching, disk
round-trips, corruption tolerance, and the zero-copy store fast path."""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from conftest import tensor_ids, tiny_machine
from repro import (
    FractalExecutor,
    Instruction,
    Opcode,
    Tensor,
    TensorStore,
    cambricon_f1,
    cambricon_f100,
    custom_machine,
)
from repro import telemetry
from repro.analysis import program_digest, program_signature
from repro.analysis.signatures import external_tensors
from repro.core import executor as executor_mod
from repro.core.decomposition import base
from repro.core.executor import WalkStats, walk
from repro.core.tensor import INT32, Region
from repro.plan.plan import self_alias
from repro.core.verify import bit_identical
from repro.ops import dispatch
from repro.plan import (
    PLAN_SCHEMA_VERSION,
    DiskPlanCache,
    FractalPlan,
    PlanCache,
    PlanFormatError,
    PlanStats,
    PlanStep,
    compile_cached,
    compile_program,
    machine_fingerprint,
    plan_from_doc,
    plan_key,
    reset_plan_cache,
    verify_plan,
)
from repro.plan import analysis as plan_analysis
from repro.plan import batch
from repro.plan import plan as plan_mod
from repro.plan import regions as regions_mod
from repro.plan.analysis import spanless_mismatch
from repro.plan.regions import region_table
from repro.workloads import PROFILE_BENCHMARKS, profile_benchmark
from test_decomposition import assert_same_steps

KB = 1 << 10

pytestmark = pytest.mark.plan


# -- program factories --------------------------------------------------------

def _matmul_program(n=96):
    a, b, c = Tensor("a", (n, n)), Tensor("b", (n, n)), Tensor("c", (n, n))
    return [Instruction(Opcode.MATMUL, (a.region(), b.region()),
                        (c.region(),))]


def _hsum_program(n=4096):
    x, y = Tensor("x", (n,)), Tensor("y", (1,))
    return [Instruction(Opcode.HSUM1D, (x.region(),), (y.region(),))]


def _sort_program(n=4096):
    x, y = Tensor("x", (n,)), Tensor("y", (n,))
    return [Instruction(Opcode.SORT1D, (x.region(),), (y.region(),))]


def _bind_inputs(program, store, rng):
    """Bind every tensor that is read before it is written."""
    written = set()
    for inst in program:
        for r in inst.inputs:
            if r.tensor.uid not in written and not store.has(r.tensor):
                store.bind(r.tensor, rng.normal(size=r.tensor.shape))
        for r in inst.outputs:
            written.add(r.tensor.uid)


#: one process storing mm_fc's F1 plan: waits for the ``go`` file, then
#: compiles through the shared disk cache, checks that its plan replays
#: bit-identically to recursion and prints the replay's output digest.
_STORER = """
import os, sys, time
from test_plan import _suite_outputs
from repro import cambricon_f1
from repro.plan import compile_cached
from repro.workloads import profile_benchmark
directory, go = sys.argv[1:3]
machine, w = cambricon_f1(), profile_benchmark("mm_fc")
while not os.path.exists(go):
    time.sleep(0.001)
plan = compile_cached(machine, w.program, disk_dir=directory)
recursive, replayed = (_suite_outputs(machine, w, p) for p in (None, plan))
assert replayed == recursive
print(replayed)
"""


def _suite_outputs(machine, w, plan=None) -> str:
    """Digest of a workload's outputs from fixed inputs (replaying ``plan``,
    or recursing when it is ``None``)."""
    rng = np.random.default_rng(0)
    store = TensorStore()
    for t in list(w.inputs.values()) + list(w.params.values()):
        store.bind(t, rng.normal(size=t.shape))
    FractalExecutor(machine, store).run_program(w.program, plan=plan)
    digest = hashlib.sha256()
    for t in w.outputs.values():
        out = store.read(t.region())
        digest.update(f"{out.dtype}{out.shape}".encode())
        digest.update(out.tobytes())
    return digest.hexdigest()


def _run(machine, program, rng_seed=7, plan=None):
    """Execute ``program`` (optionally replaying ``plan``); returns outputs."""
    rng = np.random.default_rng(rng_seed)
    store = TensorStore()
    _bind_inputs(program, store, rng)
    FractalExecutor(machine, store).run_program(program, plan=plan)
    return [store.read(r) for inst in program for r in inst.outputs]


# -- compile / replay identity ------------------------------------------------

class TestReplayIdentity:
    @pytest.mark.parametrize("factory", [
        _matmul_program, _hsum_program, _sort_program,
    ])
    @pytest.mark.parametrize("fanouts", [(2,), (3, 2), (2, 2, 2)])
    def test_bit_identical(self, factory, fanouts):
        machine = tiny_machine(fanouts=fanouts,
                               mems=[64 * KB] + [8 * KB] * len(fanouts))
        program = factory()
        plan = compile_program(machine, program)
        recursive = _run(machine, program)
        replayed = _run(machine, program, plan=plan)
        for got, want in zip(replayed, recursive):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["mm_fc", "matmul"])
    def test_profile_benchmarks_on_f1(self, name):
        machine = cambricon_f1()
        w = profile_benchmark(name)
        rng = np.random.default_rng(0)
        bound = list(w.inputs.values()) + list(w.params.values())
        arrays = {t.uid: rng.normal(size=t.shape) for t in bound}
        plan = compile_program(machine, w.program)
        results = []
        for use_plan in (None, plan):
            store = TensorStore()
            for t in bound:
                store.bind(t, arrays[t.uid])
            FractalExecutor(machine, store).run_program(w.program,
                                                        plan=use_plan)
            results.append({n: store.read(t.region())
                            for n, t in w.outputs.items()})
        for out_name in results[0]:
            np.testing.assert_array_equal(results[0][out_name],
                                          results[1][out_name])

    def test_plan_contains_lfu_steps(self):
        plan = compile_program(tiny_machine(), _hsum_program())
        kinds = {s.kind for s in plan.steps}
        assert kinds == {"kernel", "lfu"}
        assert plan.stats.lfu_calls > 0

    def test_replay_stats_match_recursion(self):
        machine = tiny_machine()
        program = _hsum_program()
        plan = compile_program(machine, program)

        rec, rep = FractalExecutor(machine), FractalExecutor(machine)
        rng = np.random.default_rng(1)
        _bind_inputs(program, rec.store, rng)
        _bind_inputs(program, rep.store, np.random.default_rng(1))
        rec.run_program(program)
        rep.run_program(program, plan=plan)
        for f in dataclasses.fields(WalkStats):
            assert (getattr(rep.stats, f.name)
                    == getattr(rec.stats, f.name)), f.name

    def test_executor_compile_entry_point(self):
        machine = tiny_machine()
        program = _matmul_program()
        executor = FractalExecutor(machine)
        plan = executor.compile(program)
        assert plan.n_steps == plan.stats.kernel_calls + plan.stats.lfu_calls


# -- the compile's walk memo against the unmemoized walk -----------------------

def _walk_without_memo(machine, program):
    """(kind, inst, level) of every step :func:`walk` hands a recording
    sink without a memo, and its counters: the oracle of a compile."""
    stats, steps = WalkStats(), []

    def record(kind, inst, level):
        steps.append((kind, inst, level))

    for inst in program:
        walk(inst, 0, machine, stats, record)
    return steps, stats


def assert_compile_equals_walk(machine, program, monkeypatch):
    """``compile_program`` emits the unmemoized walk's steps, step for
    step (kinds, levels, opcodes, bounds, attrs, signatures, partials one
    to one, chain ids at one shift), and its counters field by field; the
    plan and the plan reloaded from its document derive by span what
    they derive without spans (:func:`assert_by_span_equals_spanless`).
    Returns how many times each called PD, nested calls included."""
    calls = [0]
    real = base.decompose_parallel

    def counting(inst, n):
        calls[0] += 1
        return real(inst, n)

    monkeypatch.setattr(base, "decompose_parallel", counting)
    monkeypatch.setattr(executor_mod, "decompose_parallel", counting)
    start = base._chain_counter.value
    want, want_stats = _walk_without_memo(machine, program)
    middle = base._chain_counter.value
    walked, calls[0] = calls[0], 0
    plan = compile_program(machine, program)
    # The memo reserves the chain ids each re-emitted subtree would draw.
    assert base._chain_counter.value - middle == middle - start
    assert ([(s.kind, s.level) for s in plan.steps]
            == [(kind, level) for kind, _, level in want])
    assert_same_steps(program, [s.inst for s in plan.steps],
                      [inst for _, inst, _ in want], middle - start)
    for f in dataclasses.fields(WalkStats):
        assert getattr(plan.stats, f.name) == getattr(want_stats, f.name), f.name
    # A re-emitted step takes its source's run_attrs, write-back mode and
    # zero-copy flag; they are the ones its own instruction gives.
    for step in plan.steps:
        assert step == PlanStep.from_instruction(step.kind, step.inst, step.level)
    back = assert_doc_round_trip(program, plan)
    assert_by_span_equals_spanless(plan)
    assert_by_span_equals_spanless(back)
    return walked, calls[0]


def assert_by_span_equals_spanless(plan):
    """The analysis and replay schedule derived span by span equal those
    of the same steps without spans, field by field
    (:func:`repro.plan.analysis.spanless_mismatch`), and the plan's
    stored products are the by-span ones.  Each stacked item's gathers
    and scatter, read from the region table or moved from a source
    item's, equal ``_build_access`` on its lanes' regions, each tensor id
    read through the schedule."""
    assert spanless_mismatch(plan) is None
    analysis = plan_analysis.analyze_plan(plan)
    assert analysis.digest() == plan.analysis["digest"]
    assert analysis.fusion_groups == plan.fusion_groups
    schedule = plan.replay_schedule()
    for item in schedule.items:
        if not item.batched:
            continue
        lanes = plan.steps[item.start:item.stop]
        for position, access in enumerate(item.gathers + (item.scatter,)):
            regions = [(s.inst.inputs + s.inst.outputs)[position] for s in lanes]
            ids, tensors = tensor_ids(regions)
            built = batch._build_access(regions, batch._SliceTable(), ids)
            assert (plan_analysis._access_fields(access, schedule.tensor)
                    == plan_analysis._access_fields(built, tensors.tensor))


def assert_same_plan(roots, plan, back):
    """``back`` (a plan rebuilt from ``plan``'s document) equals ``plan``:
    steps as :func:`assert_same_steps` checks them (chain ids unchanged,
    partials one to one), kinds, levels, zero-copy flags, spans, stats,
    fusion groups and the analysis digest; and each copy shares its
    source step's signature object, ``run_attrs`` and flags."""
    assert ([(s.kind, s.level, s.safe_zero_copy) for s in back.steps]
            == [(s.kind, s.level, s.safe_zero_copy) for s in plan.steps])
    assert_same_steps(roots, [s.inst for s in back.steps],
                      [s.inst for s in plan.steps], 0)
    twins = {}  # uid in plan -> uid in back
    for s, b in zip(plan.steps, back.steps):
        for r, q in zip(s.inst.inputs + s.inst.outputs,
                        b.inst.inputs + b.inst.outputs):
            twins[r.tensor.uid] = q.tensor.uid

    def spans(p, uid):
        return [(at, start, end,
                 [(uid(old.uid), uid(new.uid), tuple(shift))
                  for old, new, shift in moves], tuple(chains))
                for at, start, end, moves, chains in p.spans]

    assert spans(back, lambda u: u) == spans(plan, twins.__getitem__)
    assert back.stats == plan.stats
    assert back.fusion_groups == plan.fusion_groups
    assert back.analysis == plan.analysis
    assert verify_plan(back).digest() == plan.analysis["digest"]
    for at, start, end, _, _ in back.spans:
        for copy, source in zip(back.steps[at:at + end - start],
                                back.steps[start:end]):
            assert copy.inst.signature() is source.inst.signature()
            assert copy.run_attrs is source.run_attrs
            assert (copy.accumulate, copy.safe_zero_copy) == \
                (source.accumulate, source.safe_zero_copy)


def assert_doc_round_trip(roots, plan):
    """The JSON round trip of ``plan.to_doc()`` through ``plan_from_doc``
    equals ``plan`` (:func:`assert_same_plan`), and the document lists
    only the steps outside the spans.  Returns the rebuilt plan."""
    doc = json.loads(json.dumps(plan.to_doc()))
    copied = sum(end - start for _, start, end, _, _ in plan.spans)
    assert len(doc["steps"]) == plan.n_steps - copied
    assert len(doc["spans"]) == len(plan.spans)
    back = plan_from_doc(doc, plan.externals,
                         machine_fingerprint=plan.machine_fingerprint)
    assert_same_plan(roots, plan, back)
    return back


def _shared_operand_pairs():
    """Two sibling Adds of one shape at one level, ``Add(x, x)`` and
    ``Add(x, y)``: footprint counts ``x`` once in the first."""
    x, y = Tensor("x", (64, 96)), Tensor("y", (64, 96))
    o, p = Tensor("o", (64, 96)), Tensor("p", (64, 96))
    return [Instruction(Opcode.ADD1D, (x.region(), x.region()), (o.region(),)),
            Instruction(Opcode.ADD1D, (x.region(), y.region()), (p.region(),))]


def _offset_matmuls():
    """Two MatMuls reading one tensor at different offsets: B is A itself,
    then the slab beside it."""
    t = Tensor("t", (48, 96))
    c, d = Tensor("c", (48, 48)), Tensor("d", (48, 48))
    return [Instruction(Opcode.MATMUL, (t[:, 0:48], t[:, 0:48]), (c.region(),)),
            Instruction(Opcode.MATMUL, (t[:, 0:48], t[:, 48:96]), (d.region(),))]


def _accumulating_beside_plain():
    """An accumulating MatMul beside a plain one, and a chain link beside
    an accumulating Add of one signature (whether ``acc_chain`` is
    carried is part of the key)."""
    a, b = Tensor("a", (40, 160)), Tensor("b", (160, 40))
    c, d = Tensor("c", (40, 40)), Tensor("d", (40, 40))
    x, y = Tensor("x", (1,)), Tensor("y", (1,))
    o, p = Tensor("o", (1,)), Tensor("p", (1,))
    return [
        Instruction(Opcode.MATMUL, (a.region(), b.region()), (c.region(),),
                    {"accumulate": True}),
        Instruction(Opcode.MATMUL, (a.region(), b.region()), (d.region(),)),
        Instruction(Opcode.ADD1D, (x.region(), y.region()), (o.region(),),
                    {"accumulate": True, "acc_chain": 10 ** 9}),
        Instruction(Opcode.ADD1D, (x.region(), y.region()), (p.region(),),
                    {"accumulate": True}),
    ]


def _chained_siblings():
    """Three MatMuls of one shape on a machine that cannot fan out: the
    root splits each one's K into nested accumulation chains whose links
    reach the leaves with their chain ids, a middle link that carries a
    chain id repeats the one before it, and the last MatMul reads the
    first one's A."""
    machine = custom_machine("chain", [1, 1], [4 * KB] * 3, [1e9] * 3)
    a, b, c = Tensor("a", (8, 256)), Tensor("b", (256, 8)), Tensor("c", (8, 8))
    p, q, d = Tensor("p", (8, 256)), Tensor("q", (256, 8)), Tensor("d", (8, 8))
    r, e = Tensor("r", (256, 8)), Tensor("e", (8, 8))
    program = [Instruction(Opcode.MATMUL, (x.region(), y.region()), (z.region(),))
               for x, y, z in ((a, b, c), (p, q, d), (a, r, e))]
    return machine, program


class TestCompileMemo:
    """``compile_program`` walks each distinct subtree once and re-emits
    its repeats; the plan equals the walk's without a memo."""

    @pytest.mark.parametrize("machine", [cambricon_f1, cambricon_f100],
                             ids=["f1", "f100"])
    @pytest.mark.parametrize("name", sorted(PROFILE_BENCHMARKS))
    def test_profile_plan_equals_walk(self, name, machine, monkeypatch):
        """Every profile plan; PD runs once per distinct subtree, not once
        per node: on F100 ResNet-152 the unmemoized walk makes 13,811
        calls."""
        walked, compiled = assert_compile_equals_walk(
            machine(), profile_benchmark(name).program, monkeypatch)
        assert compiled <= walked
        if (name, machine) == ("ResNet-152", cambricon_f100):
            assert walked > 10_000
            assert compiled * 20 < walked

    @pytest.mark.parametrize("build", [_shared_operand_pairs, _offset_matmuls,
                                       _accumulating_beside_plain],
                             ids=lambda b: b.__name__.lstrip("_"))
    def test_siblings_that_must_not_share_a_template(self, build, monkeypatch):
        assert_compile_equals_walk(tiny_machine(), build(), monkeypatch)

    def test_chain_steps_inside_spans(self, monkeypatch):
        """Re-emitted spans that carry chain ids and move a tensor onto
        itself; no profile plan has either."""
        machine, program = _chained_siblings()
        assert_compile_equals_walk(machine, program, monkeypatch)
        plan = compile_program(machine, program)
        inside = [step for at, start, end, _, _ in plan.spans
                  for step in plan.steps[at:at + end - start]]
        assert any("acc_chain" in step.inst.attrs for step in inside)
        assert any(old is new for _, _, _, moves, _ in plan.spans
                   for old, new, _ in moves)
        # a span whose node carries a chain id renames it
        assert any(hi - lo == 1 and delta for _, _, _, _, chains in plan.spans
                   for lo, hi, delta in chains)


def _partial_then_external():
    """A MatMul whose root splits K four ways, each part writing a partial
    sum, then one whose root splits M four ways, each part, of the same
    shapes, writing a slab of the external output: the second's parts
    are copies of the first's first part that move a partial onto an
    external."""
    machine = tiny_machine(fanouts=(4, 2), mems=[64 * KB, 8 * KB, 2 * KB])
    a, b, c = Tensor("a", (2, 4096)), Tensor("b", (4096, 2)), Tensor("c", (2, 2))
    p, q, d = Tensor("p", (8, 1024)), Tensor("q", (1024, 2)), Tensor("d", (8, 2))
    return machine, [
        Instruction(Opcode.MATMUL, (a.region(), b.region()), (c.region(),)),
        Instruction(Opcode.MATMUL, (p.region(), q.region()), (d.region(),))]


def _crossing_copies():
    """An Act1D the root splits four ways and each part two ways: parts
    two to four are copies of the first, and the eight leaves make one
    fusion group across three span edges."""
    machine = tiny_machine(fanouts=(4, 2), mems=[64 * KB, 8 * KB, 2 * KB])
    x, y = Tensor("x", (4096,)), Tensor("y", (4096,))
    return machine, [Instruction(Opcode.ACT1D, (x.region(),), (y.region(),),
                                 {"func": "relu"})]


def _onto_another_shape():
    """``MatMul(a1, b) -> c1``, an Act1D, then ``MatMul(a2[:, 32:96], b)
    -> c2``, with ``a1`` (64, 64) and ``a2`` (64, 128).  The compile's memo
    keys on region shapes, so the second MatMul's steps are a span copy
    of the first's that moves ``a1`` onto ``a2``, a tensor of another
    shape; the Act1D's steps keep the copy's MatMul lanes in a group of
    their own."""
    a1, a2 = Tensor("a1", (64, 64)), Tensor("a2", (64, 128))
    b, c1, c2 = Tensor("b", (64, 64)), Tensor("c1", (64, 64)), Tensor("c2", (64, 64))
    x, y = Tensor("x", (2048,)), Tensor("y", (2048,))
    return [
        Instruction(Opcode.MATMUL, (a1.region(), b.region()), (c1.region(),)),
        Instruction(Opcode.ACT1D, (x.region(),), (y.region(),),
                    {"func": "relu"}),
        Instruction(Opcode.MATMUL, (a2.region().slice_dim(1, 32, 96),
                                    b.region()), (c2.region(),))]


class TestBySpan:
    """A span copy takes its source's analysis and replay items, moved,
    and re-decides what its context changes; the same steps without
    spans are the oracle."""

    @pytest.mark.parametrize("machine, steps", [(cambricon_f1, 96),
                                                (cambricon_f100, 6144)])
    def test_move_onto_a_tensor_of_another_shape(self, machine, steps):
        """The copy's stacked item is its source's, moved: the gather on
        ``a2`` is read from the copy's rows (``a1``'s origin and strides
        would address ``a2`` wrongly), the others are moved, and the
        schedule equals the spanless one's and replays bit-identically."""
        machine, program = machine(), _onto_another_shape()
        plan = compile_program(machine, program)
        assert plan.n_steps == steps
        a1, a2 = program[0].inputs[0].tensor, program[2].inputs[0].tensor
        (span,) = [span for span in plan.spans
                   if any(old is a1 and new is a2 for old, new, _ in span[3])]
        at, start, end = span[:3]
        schedule = plan.replay_schedule()
        first, second = [item for item in schedule.items
                         if item.batched and item.opcode is Opcode.MATMUL]
        assert (first.start, first.stop) == (start, end)
        assert (second.start, second.stop) == (at, at + end - start)
        assert schedule.tensor(second.gathers[0].tid) is a2
        assert second.gathers[1] is first.gathers[1]  # b, moved onto b
        assert spanless_mismatch(plan) is None
        for got, want in zip(_run(machine, program, plan=plan),
                             _run(machine, program)):
            assert bit_identical(got, want)

    def test_twin_external_in_the_copy_partial_in_its_source(self, monkeypatch):
        machine, program = _partial_then_external()
        assert_compile_equals_walk(machine, program, monkeypatch)
        plan = compile_program(machine, program)
        external = set(plan.external_uids())
        flipped = [(old, new) for _, _, _, moves, _ in plan.spans
                   for old, new, _ in moves
                   if old.uid not in external and new.uid in external]
        assert flipped
        # the copies' writes are live only because their twin is external
        assert plan.analysis["diagnostics"] == []
        schedule = plan.replay_schedule()
        arena = {schedule.tensor(t).uid for t, _ in schedule.arena.bindings}
        assert not arena & {new.uid for _, new in flipped}
        for got, want in zip(_run(machine, program, plan=plan),
                             _run(machine, program)):
            assert bit_identical(got, want)

    def test_fusion_group_across_copies(self, monkeypatch):
        machine, program = _crossing_copies()
        assert_compile_equals_walk(machine, program, monkeypatch)
        plan = compile_program(machine, program)
        edges = [at for at, _, _, _, _ in plan.spans]
        assert len(edges) == 3
        (group,) = plan.fusion_groups
        assert all(group[0] < at < group[1] for at in edges)
        # the run crossing the edges is decided anew, on the region
        # table; it is the only run of two or more lanes
        decided = []
        rows = plan_analysis._lattice_rows

        def counting(table, steps, start, stop):
            decided.append((start, stop))
            return rows(table, steps, start, stop)

        monkeypatch.setattr(plan_analysis, "_lattice_rows", counting)
        assert plan_analysis.analyze_plan(plan).fusion_groups == [group]
        assert decided == [group]
        (item,) = [i for i in plan.replay_schedule().items if i.batched]
        assert (item.start, item.stop) == group

    @pytest.mark.parametrize("after", ["act", "add"])
    def test_run_at_a_copy_edge_is_decided_anew(self, after):
        """A run at a copy's edge takes its source's decision only when
        its source lanes are a whole run.  Lanes 0-2 make one run and the
        copy repeats lanes 0-1.  After the copy, an Act1D reading what the
        copy's first lane writes extends its run past the copy, though the
        source lanes 0-2 are a whole run; an Add ends the copy's run at
        the copy's edge, though the source lanes run on.  Either way the
        copy's run fuses two lanes where its source's fused three."""
        x, y, z = Tensor("x", (16,)), Tensor("y", (16,)), Tensor("z", (2,))

        def step(opcode, ins, out, **attrs):
            return PlanStep.from_instruction(
                "kernel", Instruction(opcode, ins, (out,), attrs), 1)

        def act(src, dst):
            return step(Opcode.ACT1D, (src,), dst, func="relu")

        steps = [act(x[2 * i:2 * i + 2], y[2 * i:2 * i + 2]) for i in range(3)]
        steps.append(step(Opcode.ADD1D, (x[0:2], x[2:4]), z.region()))
        moves = ((x, x, (8,)), (y, y, (8,)))
        copies = base._translate([s.inst for s in steps[:2]],
                                 {t.uid: (t, (8,)) for t in (x, y)}, ())
        steps += [PlanStep(s.kind, inst, s.level, s.run_attrs, s.accumulate,
                           s.safe_zero_copy)
                  for s, inst in zip(steps[:2], copies)]
        steps.append(act(y[8:10], y[12:14]) if after == "act" else
                     step(Opcode.ADD1D, (y[8:10], y[10:12]), z.region()))
        plan = FractalPlan(machine_fingerprint=("test",),
                           signature_digest="f" * 64, steps=steps,
                           stats=PlanStats(), externals=[x, y, z],
                           spans=[(4, 0, 2, moves, ())])
        assert spanless_mismatch(plan) is None
        assert plan_analysis.analyze_plan(plan).fusion_groups == [(0, 3),
                                                                  (4, 6)]

    def test_copies_take_their_sources_runs(self, monkeypatch):
        """On F100 ResNet-152, 98.5 % of whose steps are copies, fewer
        than 1 in 10 runs are decided anew, and those inside one segment
        cover at most 1 in 20 steps: every other run takes its source's
        decision."""
        plan = compile_program(cambricon_f100(),
                               profile_benchmark("ResNet-152").program)
        copied = sum(end - start for _, start, end, _, _ in plan.spans)
        assert copied > 0.98 * plan.n_steps
        decided = []
        rows = plan_analysis._lattice_rows

        def counting(table, steps, start, stop):
            decided.append((start, stop))
            return rows(table, steps, start, stop)

        monkeypatch.setattr(plan_analysis, "_lattice_rows", counting)
        assert plan_analysis.analyze_plan(plan).digest() == \
            plan.analysis["digest"]
        table = region_table(plan)
        runs = [(start, stop) for start, stop in table.runs()
                if stop - start >= 2]
        assert 0 < len(decided) * 10 < len(runs)
        inside = [stop - start for start, stop in decided
                  if stop <= table.segment_at(start).hi]
        assert 0 < sum(inside) * 20 < plan.n_steps


class TestCopiesOnDemand:
    """A plan holds its walked steps and spans; a copy's step is built
    only when asked for, and never on the hot path."""

    @pytest.mark.parametrize("name", ["mm_fc", "ResNet-152"])
    def test_hot_path_builds_no_copy(self, name, tmp_path, monkeypatch):
        """On F100, compiling, building the schedule with a first replay,
        a disk store and load, and a rebind each construct at most their
        walked steps: every ``PlanStep`` beyond those would be a copy.
        The schedule build, the bind and the first replay make no renewed
        partial (items, arena and binding name tensors by table id), and
        most stacked groups are their source group's item, moved, whose
        lanes no ``_lattice_access`` factors again."""
        constructed = [0]
        init = PlanStep.__init__

        def counting(self, *args, **kwargs):
            constructed[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(PlanStep, "__init__", counting)
        renewed = [0]

        def renewing(real):
            def renew(tensor):
                renewed[0] += 1
                return real(tensor)
            return renew

        for module in (base, plan_mod, regions_mod):
            monkeypatch.setattr(module, "_renew", renewing(module._renew))
        # the groups BatchedItem builds from the region table, and the
        # one each _lattice_access call serves (None: no such build)
        fresh, building_now, factored = set(), [None], []
        item_init, lattice = batch.BatchedItem.__init__, batch._lattice_access

        def building(self, index, *args, **kwargs):
            fresh.add(index)
            building_now[0] = index
            try:
                item_init(self, index, *args, **kwargs)
            finally:
                building_now[0] = None

        def factoring(*args, **kwargs):
            factored.append(building_now[0])
            return lattice(*args, **kwargs)

        monkeypatch.setattr(batch.BatchedItem, "__init__", building)
        monkeypatch.setattr(batch, "_lattice_access", factoring)

        def constructing(call):
            constructed[0] = 0
            return call(), constructed[0]

        machine, w = cambricon_f100(), profile_benchmark(name)
        program = w.program
        plan, count = constructing(lambda: compile_program(machine, program))
        copied = sum(end - start for _, start, end, _, _ in plan.spans)
        walked = plan.n_steps - copied
        assert copied > 0.9 * plan.n_steps
        assert count == walked, "compile_program"

        def replay():
            store = TensorStore()
            _bind_inputs(program, store, np.random.default_rng(3))
            FractalExecutor(machine, store).run_program(program, plan=plan)

        renewed[0] = 0
        assert constructing(replay)[1] == 0, "schedule and first replay"
        assert renewed[0] == 0, "renewed partials made to schedule or bind"
        groups = {item.start for item in plan.replay_schedule().items
                  if item.batched}
        moved = groups - fresh
        assert len(moved) > 0.9 * len(groups), (len(moved), len(groups))
        assert None not in factored, "a moved group factored again"
        disk = DiskPlanCache(tmp_path)
        fp, digest = plan_key(machine, program)
        assert constructing(lambda: disk.store(fp, digest, plan))[1] == 0
        loaded, count = constructing(
            lambda: disk.load(fp, digest, external_tensors(program)))
        assert loaded is not None and count == walked, "load"
        clones = [Tensor(t.name, t.shape, t.dtype, space=t.space)
                  for t in plan.externals]
        rebound, count = constructing(lambda: plan.rebind(clones))
        assert rebound.n_steps == plan.n_steps and count == walked, "rebind"
        # asked for, a copy is built, with its whole span
        at, start, end, _, _ = plan.spans[0]
        assert constructing(lambda: rebound.steps[at])[1] == end - start

    def test_compile_schedule_and_replay_leave_numpy_ma_out(self):
        """Compiling, scheduling and replaying F100 mm_fc never imports
        ``numpy.ma`` (``np.isin`` would, through ``np.unique``)."""
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro import FractalExecutor, TensorStore, cambricon_f100\n"
            "from repro.plan import compile_program\n"
            "from repro.workloads import profile_benchmark\n"
            "w, machine = profile_benchmark('mm_fc'), cambricon_f100()\n"
            "plan = compile_program(machine, w.program)\n"
            "store = TensorStore()\n"
            "rng = np.random.default_rng(0)\n"
            "for t in [*w.inputs.values(), *w.params.values()]:\n"
            "    store.bind(t, rng.normal(size=t.shape))\n"
            "FractalExecutor(machine, store).run_program(w.program, plan=plan)\n"
            "assert plan.replay_schedule().batched_steps\n"
            "print('numpy.ma' in sys.modules)\n")
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_plan_given_a_list_of_its_steps_replays(self):
        """A plan given its built steps as a list, spans kept, replays
        bit-identically to recursion: its region table makes its own
        twins of the partials the spans renew."""
        machine, program = cambricon_f100(), profile_benchmark("K-NN").program
        plan = compile_program(machine, program)
        listed = dataclasses.replace(plan, steps=list(plan.steps))
        assert listed.spans and listed.steps.spans == []
        for got, want in zip(_run(machine, program, plan=listed),
                             _run(machine, program)):
            assert bit_identical(got, want)


# -- structural signatures ----------------------------------------------------

class TestPlanLifetime:
    def test_dropped_plan_frees_its_steps_without_gc(self):
        """Dropping a plan frees its steps (the step sequence, every
        PlanStep, Instruction and Region, copies built on demand included)
        by reference counting alone: no cycle through the compile walk or
        a copy's build keeps them alive until a full collection."""
        w = profile_benchmark("mm_fc")
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            plan = compile_program(cambricon_f100(), w.program)
            copy = plan.steps[plan.spans[-1][0]]
            alive = [weakref.ref(held) for held in (
                plan.steps, plan.steps[0], copy, copy.inst)]
            del plan, copy
            assert [ref() for ref in alive] == [None] * len(alive)
        finally:
            if was_enabled:
                gc.enable()


class TestProgramSignature:
    def test_same_structure_same_signature(self):
        assert program_signature(_matmul_program()) \
            == program_signature(_matmul_program())
        assert program_digest(_matmul_program()) \
            == program_digest(_matmul_program())

    def test_shape_change_changes_signature(self):
        assert program_digest(_matmul_program(96)) \
            != program_digest(_matmul_program(64))

    def test_sharing_pattern_is_part_of_signature(self):
        # a@a (shared operand) vs a@b (distinct operands of equal shape)
        a, b, c = Tensor("a", (8, 8)), Tensor("b", (8, 8)), Tensor("c", (8, 8))
        shared = [Instruction(Opcode.MATMUL, (a.region(), a.region()),
                              (c.region(),))]
        distinct = [Instruction(Opcode.MATMUL, (a.region(), b.region()),
                                (c.region(),))]
        assert program_digest(shared) != program_digest(distinct)


# -- in-memory cache ----------------------------------------------------------

class TestMemoryCache:
    def test_hit_returns_same_plan(self):
        cache = PlanCache()
        machine = tiny_machine()
        program = _matmul_program()
        first = compile_cached(machine, program, memory_cache=cache)
        second = compile_cached(machine, program, memory_cache=cache)
        assert second is first

    def test_rebind_on_structurally_identical_program(self):
        cache = PlanCache()
        machine = tiny_machine()
        first = compile_cached(machine, _matmul_program(), memory_cache=cache)
        fresh = _matmul_program()  # same structure, new tensor uids
        rebound = compile_cached(machine, fresh, memory_cache=cache)
        assert rebound is not first
        assert rebound.signature_digest == first.signature_digest
        # ... and the rebound plan replays correctly over the new tensors.
        recursive = _run(machine, fresh)
        replayed = _run(machine, fresh, plan=rebound)
        for got, want in zip(replayed, recursive):
            np.testing.assert_array_equal(got, want)

    def test_machine_fingerprint_invalidates(self):
        program = _matmul_program()
        narrow = tiny_machine(fanouts=(2,), mems=(64 * KB, 8 * KB))
        wide = tiny_machine(fanouts=(4,), mems=(64 * KB, 8 * KB))
        assert plan_key(narrow, program) != plan_key(wide, program)
        cache = PlanCache()
        p1 = compile_cached(narrow, program, memory_cache=cache)
        p2 = compile_cached(wide, program, memory_cache=cache)
        assert p1 is not p2
        assert len(cache) == 2

    def test_rebind_mismatches_name_both_sides(self):
        """A wrong count, shape or dtype of externals raises, and the
        message tells the plan's side from the caller's; the plan itself
        still replays bit-identically afterwards."""
        machine = tiny_machine()
        program = _matmul_program(48)
        plan = compile_program(machine, program)
        before = _run(machine, program, plan=plan)
        with pytest.raises(PlanFormatError,
                           match=r"expected 3 external tensors, got 2"):
            plan.rebind(plan.externals[:-1])
        first = plan.externals[0]
        for wrong in (Tensor(first.name, (49, 48), first.dtype),
                      Tensor(first.name, first.shape, INT32)):
            with pytest.raises(PlanFormatError) as info:
                plan.rebind([wrong] + plan.externals[1:])
            planned, supplied = str(info.value).split(": tensor mismatch ")[1].split(" vs ")
            assert planned == f"a{first.shape}/{first.dtype.name}"
            assert supplied == f"a{wrong.shape}/{wrong.dtype.name}"
            assert planned != supplied
        after = _run(machine, program, plan=plan)
        assert all(bit_identical(got, want) for got, want in zip(after, before))
        recursive = _run(machine, program)
        assert all(bit_identical(got, want) for got, want in zip(after, recursive))

    def test_program_change_invalidates(self):
        cache = PlanCache()
        machine = tiny_machine()
        compile_cached(machine, _matmul_program(96), memory_cache=cache)
        compile_cached(machine, _matmul_program(64), memory_cache=cache)
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        machine = tiny_machine()
        for n in (32, 48, 64):
            compile_cached(machine, _matmul_program(n), memory_cache=cache)
        assert len(cache) == 2

    def test_counters_published(self):
        reset_plan_cache()
        machine = tiny_machine()
        program = _matmul_program()
        with telemetry.enabled_scope() as (registry, _tracer):
            telemetry.reset()
            compile_cached(machine, program)
            compile_cached(machine, program)
            misses = registry.value("plan.compile_misses")
            hits = registry.value("plan.compile_hits", {"tier": "memory"})
        reset_plan_cache()
        assert misses == 1
        assert hits == 1


# -- disk cache ---------------------------------------------------------------

class TestDiskCache:
    def test_round_trip(self, tmp_path):
        machine = tiny_machine()
        program = _hsum_program()
        cold = compile_cached(machine, program, disk_dir=tmp_path,
                              memory_cache=PlanCache())
        assert list(tmp_path.glob("plan-v*.json"))
        # A fresh memory cache forces the disk tier.
        warm = compile_cached(machine, program, disk_dir=tmp_path,
                              memory_cache=PlanCache())
        assert warm.n_steps == cold.n_steps
        assert warm.signature_digest == cold.signature_digest
        recursive = _run(machine, program)
        replayed = _run(machine, program, plan=warm)
        for got, want in zip(replayed, recursive):
            np.testing.assert_array_equal(got, want)

    def test_doc_round_trip_preserves_steps(self):
        machine = tiny_machine()
        program = _sort_program()
        plan = compile_program(machine, program)
        doc = json.loads(json.dumps(plan.to_doc()))
        back = plan_from_doc(doc, plan.externals,
                             machine_fingerprint=plan.machine_fingerprint)
        assert back.n_steps == plan.n_steps
        assert [s.kind for s in back.steps] == [s.kind for s in plan.steps]
        assert back.stats.to_doc() == plan.stats.to_doc()

    @pytest.mark.parametrize("payload", [
        "{ truncated",                     # invalid JSON
        "[]",                              # wrong top-level type
        json.dumps({"schema": "other", "version": 1}),
        json.dumps({"schema": "repro.plan", "version": 999}),
    ])
    def test_corrupt_entries_warn_and_recompile(self, tmp_path, payload):
        machine = tiny_machine()
        program = _matmul_program()
        disk = DiskPlanCache(tmp_path)
        fp = machine_fingerprint(machine)
        digest = program_digest(program)
        # Poison the exact cache slot, then compile through it.
        tmp_path.mkdir(exist_ok=True)
        disk._path(fp, digest).parent.mkdir(parents=True, exist_ok=True)
        disk._path(fp, digest).write_text(payload, encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            plan = compile_cached(machine, program, disk_dir=tmp_path,
                                  memory_cache=PlanCache())
        assert plan.n_steps > 0  # recompiled, not crashed
        recursive = _run(machine, program)
        replayed = _run(machine, program, plan=plan)
        for got, want in zip(replayed, recursive):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["mm_fc", "K-Means"])
    def test_store_writes_what_json_dump_writes(self, tmp_path, name):
        """``store`` encodes with the one-shot C encoder (``json.dumps``);
        the file holds the bytes the streaming ``json.dump`` writes."""
        machine = cambricon_f1()
        program = profile_benchmark(name).program
        plan = compile_program(machine, program)
        fp, digest = plan_key(machine, program)
        disk = DiskPlanCache(tmp_path / "cache")
        disk.store(fp, digest, plan)
        reference = tmp_path / "dump.json"
        with open(reference, "w", encoding="utf-8") as f:
            json.dump(plan.to_doc(), f, separators=(",", ":"))
        assert disk._path(fp, digest).read_bytes() == reference.read_bytes()

    def test_truncated_valid_prefix_is_rejected(self, tmp_path):
        machine = tiny_machine()
        program = _hsum_program()
        plan = compile_program(machine, program)
        disk = DiskPlanCache(tmp_path)
        fp = machine_fingerprint(machine)
        digest = program_digest(program)
        disk.store(fp, digest, plan)
        path = disk._path(fp, digest)
        path.write_text(path.read_text(encoding="utf-8")[:64],
                        encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            assert disk.load(fp, digest, plan.externals) is None

    def test_plan_from_doc_rejects_external_mismatch(self):
        machine = tiny_machine()
        program = _matmul_program()
        plan = compile_program(machine, program)
        doc = plan.to_doc()
        with pytest.raises(PlanFormatError):
            plan_from_doc(doc, plan.externals[:-1])  # wrong arity
        wrong = [Tensor(t.name, (t.shape[0] + 1,) + t.shape[1:], t.dtype)
                 for t in plan.externals]
        with pytest.raises(PlanFormatError):
            plan_from_doc(doc, wrong)  # wrong shapes

    def test_unwritable_directory_is_soft(self, tmp_path):
        """A cache directory under a regular file can be neither read nor
        written: the compile still returns a plan that replays
        bit-identically to recursion, warns once that it could not
        persist, and writes nothing."""
        target = tmp_path / "not-a-dir"
        target.write_text("file in the way", encoding="utf-8")
        machine, w = cambricon_f1(), profile_benchmark("mm_fc")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = compile_cached(machine, w.program,
                                  disk_dir=target / "plans",
                                  memory_cache=PlanCache())
        messages = [str(c.message) for c in caught
                    if issubclass(c.category, RuntimeWarning)]
        assert len(messages) == 1
        assert messages[0].startswith("could not persist")
        assert _suite_outputs(machine, w, plan) == _suite_outputs(machine, w)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["not-a-dir"]
        assert target.read_text(encoding="utf-8") == "file in the way"

    def test_two_processes_store_one_entry(self, tmp_path):
        """Two processes compile one program through one disk cache at
        once: both plans replay bit-identically, one entry and no temp
        file remain, and a fresh load takes the entry without a warning."""
        cache, go = tmp_path / "plans", tmp_path / "go"
        tests = str(Path(__file__).resolve().parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1]), tests])}
        procs = [subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", _STORER,
             str(cache), str(go)],
            env=env, stdout=subprocess.PIPE, text=True) for _ in range(2)]
        go.touch()
        digests = [proc.communicate(timeout=300)[0].strip() for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert digests[0] == digests[1]
        assert len(list(cache.glob(f"plan-v{PLAN_SCHEMA_VERSION}-*.json"))) == 1
        assert not list(cache.glob("*.tmp"))
        machine, w = cambricon_f1(), profile_benchmark("mm_fc")
        fp, digest = plan_key(machine, w.program)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loaded = DiskPlanCache(cache).load(fp, digest,
                                               external_tensors(w.program))
        assert loaded is not None
        assert _suite_outputs(machine, w, loaded) == digests[0]


# -- the templated document: what a load checks -------------------------------

def _tamper_span_source_empty(doc):
    doc["spans"][0]["end"] = doc["spans"][0]["start"]


def _tamper_span_source_ahead(doc):
    doc["spans"][0]["end"] = doc["spans"][0]["at"] + 1


def _tamper_move_unknown_tensor(doc):
    doc["spans"][0]["moves"][0][1] = len(doc["tensors"]) + 100


def _tamper_move_negative_tensor(doc):
    doc["spans"][0]["moves"][0][0] = -1


def _tamper_move_changes_dtype(doc):
    old, _, _ = doc["spans"][0]["moves"][0]
    doc["tensors"].append({**doc["tensors"][old], "name": "%q0",
                           "dtype": "int32", "space": "partial",
                           "external": -1})
    doc["spans"][0]["moves"][0][1] = len(doc["tensors"]) - 1


def _tamper_shift_outside_tensor(doc):
    _, new, shift = doc["spans"][0]["moves"][0]
    shift[-1] += doc["tensors"][new]["shape"][-1]


def _tamper_unknown_chain_id(doc):
    doc["spans"][0]["chains"] = []


def _tamper_spans_past_declared(doc):
    last = doc["spans"][-1]
    n = doc["stats"]["kernel_calls"] + doc["stats"]["lfu_calls"]
    length = last["end"] - last["start"]
    doc["spans"] += [{**last, "at": n + i * length} for i in range(10_000)]


def _tamper_listed_step_names_fresh_partial(doc):
    doc["steps"][0]["inputs"][0][0] = len(doc["tensors"])


def _tamper_listed_step_writes_nothing(doc):
    doc["steps"][1]["outputs"] = []


def _tamper_one_tensor_moved_twice(doc):
    # a, moved within itself, moves onto p too: both fit, one is applied
    doc["spans"][0]["moves"].append([0, 3, [0, 0]])


def _tamper_two_moves_one_twin(doc):
    # x and y both land on x: each copy reads the bytes it writes
    moves = doc["spans"][0]["moves"]
    moves[1][1] = moves[0][1]


def _flip_first_flag(doc):
    doc["steps"][0]["safe"] = not doc["steps"][0]["safe"]


TAMPERS = [_tamper_span_source_empty, _tamper_span_source_ahead,
           _tamper_move_unknown_tensor, _tamper_move_negative_tensor,
           _tamper_move_changes_dtype, _tamper_shift_outside_tensor,
           _tamper_unknown_chain_id, _tamper_spans_past_declared,
           _tamper_listed_step_names_fresh_partial,
           _tamper_listed_step_writes_nothing,
           _tamper_one_tensor_moved_twice]


@functools.lru_cache(maxsize=1)
def _corruptible():
    """``_chained_siblings``' plan, its document's text and the path of
    every value in the document's tables (leaves and containers)."""
    machine, program = _chained_siblings()
    plan = compile_program(machine, program)
    doc = plan.to_doc()
    paths = []

    def walk(node, path):
        if path:
            paths.append(path)
        children = (node.items() if isinstance(node, dict)
                    else enumerate(node) if isinstance(node, list) else ())
        for k, v in children:
            walk(v, path + (k,))

    for key in ("tensors", "steps", "spans", "stats", "fusion_groups"):
        walk(doc[key], (key,))
    return plan, json.dumps(doc), paths


def _poisoned_load(tmp_path, machine, program, mutate):
    """Store ``program``'s plan, ``mutate`` the entry's document in place
    and compile through the disk tier; returns the stored plan, the plan
    the compile returned and the RuntimeWarnings it raised."""
    plan = compile_program(machine, program)
    disk = DiskPlanCache(tmp_path)
    fp, digest = plan_key(machine, program)
    disk.store(fp, digest, plan)
    path = disk._path(fp, digest)
    doc = json.loads(path.read_text(encoding="utf-8"))
    mutate(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fresh = compile_cached(machine, program, disk_dir=tmp_path,
                               memory_cache=PlanCache())
    return plan, fresh, [c for c in caught
                         if issubclass(c.category, RuntimeWarning)]


def _copy_of_copy_shift(plan):
    """``(span, move, dim, delta)``: adding ``delta`` to that move's shift
    in ``dim`` moves only copies of copies outside the tensor.  The span's
    source range holds another span's copies, and on the moved tensor
    their regions reach further along ``dim`` than those of the walked
    steps beside them, whose copies stay inside."""
    copy = np.zeros(plan.n_steps, bool)
    for at, start, end, _, _ in plan.spans:
        copy[at:at + end - start] = True
    for j, (_, start, end, moves, _) in enumerate(plan.spans):
        for k, (old, new, shift) in enumerate(moves):
            reach = {True: [0] * len(shift), False: [0] * len(shift)}
            for i in range(start, end):
                inst = plan.steps[i].inst
                for r in inst.inputs + inst.outputs:
                    if r.tensor.uid == old.uid:
                        reach[bool(copy[i])] = [
                            max(m, hi + s) for m, (_, hi), s
                            in zip(reach[bool(copy[i])], r.bounds, shift)]
            for d, (far, near) in enumerate(zip(reach[True], reach[False])):
                if far > near:
                    return j, k, d, new.shape[d] - far + 1
    raise AssertionError("no span moves a copy of a copy furthest")


class TestTemplatedDocument:
    """A v4 document lists the walked steps and each re-emitted span by
    its source range, moves and chain-id map; a load re-emits the spans
    and rejects anything it cannot prove."""

    @pytest.mark.parametrize("mutate", TAMPERS,
                             ids=lambda f: f.__name__[len("_tamper_"):])
    def test_tampered_document_is_rejected(self, mutate, tmp_path):
        machine, program = _chained_siblings()
        plan = compile_program(machine, program)
        doc = json.loads(json.dumps(plan.to_doc()))
        mutate(doc)
        with pytest.raises(PlanFormatError):
            plan_from_doc(doc, plan.externals)
        plan, fresh, caught = _poisoned_load(tmp_path, machine, program,
                                             mutate)
        assert len(caught) == 1
        assert "ignoring invalid plan cache entry" in str(caught[0].message)
        assert_same_steps(program, [s.inst for s in fresh.steps],
                          [s.inst for s in plan.steps],
                          fresh.steps[0].inst.attrs["acc_chain"]
                          - plan.steps[0].inst.attrs["acc_chain"])

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_corruption_is_rejected_or_well_formed(self, data):
        """Any corruption of a document's tables either raises
        ``PlanFormatError`` or rebuilds a plan of the declared step count
        whose regions all lie in their tensors: a poisoned cache entry
        can never crash a load."""
        plan, text, paths = _corruptible()
        doc = json.loads(text)
        for _ in range(data.draw(st.integers(1, 3))):
            *parents, key = data.draw(st.sampled_from(paths))
            node = doc
            try:
                for k in parents:
                    node = node[k]
                old = node[key]
            except (KeyError, IndexError, TypeError):
                continue  # an earlier change replaced an enclosing value
            if not isinstance(node, (dict, list)):
                continue
            if isinstance(old, int) and not isinstance(old, bool):
                node[key] = old + data.draw(st.integers(-3, 3) | st.just(1000))
            else:
                node[key] = data.draw(st.sampled_from(
                    [None, -1, 7, "x", [], {}, [1, 2], {"a": 1}, 2.5]))
        try:
            back = plan_from_doc(doc, plan.externals)
        except PlanFormatError:
            return
        assert back.n_steps == back.stats.kernel_calls + back.stats.lfu_calls
        for step in back.steps:
            for r in step.inst.inputs + step.inst.outputs:
                Region(r.tensor, r.bounds)  # the checking constructor

    def test_shift_moving_a_copy_of_a_copy_out_is_rejected(self, tmp_path):
        """A shift that moves only copies of copies outside their tensor,
        through a span whose source range holds another span's copies,
        fails the load's check on the region table, and the disk tier
        recompiles with one warning."""
        machine, program = cambricon_f100(), profile_benchmark("K-NN").program
        plan = compile_program(machine, program)
        span, move, dim, delta = _copy_of_copy_shift(plan)

        def mutate(doc):
            doc["spans"][span]["moves"][move][2][dim] += delta

        doc = json.loads(json.dumps(plan.to_doc()))
        mutate(doc)
        with pytest.raises(PlanFormatError, match="outside its tensor"):
            plan_from_doc(doc, plan.externals)
        _, fresh, caught = _poisoned_load(tmp_path, machine, program, mutate)
        assert len(caught) == 1
        assert "ignoring invalid plan cache entry" in str(caught[0].message)
        assert fresh.n_steps == plan.n_steps

    def test_two_moves_onto_one_twin_are_rejected(self, tmp_path):
        """A span moving two tensors onto one would make each copy read
        what it writes, while a copy's proofs are its source's: the load
        refuses it and recompiles.  Built by hand, such a plan's analysis
        by span misses the aliasing the spanless one finds."""
        machine, program = _crossing_copies()
        plan = compile_program(machine, program)
        doc = json.loads(json.dumps(plan.to_doc()))
        _tamper_two_moves_one_twin(doc)
        with pytest.raises(PlanFormatError, match="onto one"):
            plan_from_doc(doc, plan.externals)
        _, fresh, caught = _poisoned_load(tmp_path, machine, program,
                                          _tamper_two_moves_one_twin)
        assert len(caught) == 1
        assert "ignoring invalid plan cache entry" in str(caught[0].message)
        assert_same_steps(program, [s.inst for s in fresh.steps],
                          [s.inst for s in plan.steps], 0)
        at, start, end, moves, chains = plan.spans[0]
        (x, x, shift), (y, _, _) = moves
        forged_moves = ((x, x, shift), (y, x, shift))
        copies = base._translate(
            [s.inst for s in plan.steps[start:end]],
            {old.uid: (new, s) for old, new, s in forged_moves}, chains)
        steps = list(plan.steps)
        steps[at:at + end - start] = [
            PlanStep(s.kind, inst, s.level, s.run_attrs, s.accumulate,
                     s.safe_zero_copy)
            for s, inst in zip(plan.steps[start:end], copies)]
        forged = dataclasses.replace(
            plan, steps=steps,
            spans=[(at, start, end, forged_moves, chains)] + plan.spans[1:])
        copied = slice(at, at + end - start)
        assert all(self_alias(s.inst) for s in forged.steps[copied])
        by_span = plan_analysis.analyze_plan(forged)
        spanless = plan_analysis.analyze_plan(
            dataclasses.replace(forged, spans=[]))
        assert all(by_span.safe_zero_copy[copied])
        assert not any(spanless.safe_zero_copy[copied])

    def test_a_move_naming_a_fresh_partial_is_rejected(self):
        """A document names only its table's tensors: a move onto the
        fresh partial an earlier span made is refused."""
        plan = compile_program(cambricon_f1(),
                               profile_benchmark("K-NN").program)
        renews = [any(r.tensor.uid not in {old.uid for old, _, _ in moves}
                      for s in plan.steps[start:end]
                      for r in s.inst.inputs + s.inst.outputs)
                  for _, start, end, moves, _ in plan.spans]
        assert any(renews[:-1])
        doc = json.loads(json.dumps(plan.to_doc()))
        doc["spans"][-1]["moves"][-1][1] = len(doc["tensors"])
        with pytest.raises(PlanFormatError, match="unknown tensor id"):
            plan_from_doc(doc, plan.externals)

    def test_expansion_stops_at_the_declared_count(self, monkeypatch):
        """Ten thousand repeated spans: the load stops at the first one
        that would pass the declared step count, recording none of them."""
        from repro.plan import plan as plan_mod

        machine, program = _chained_siblings()
        plan = compile_program(machine, program)
        doc = json.loads(json.dumps(plan.to_doc()))
        _tamper_spans_past_declared(doc)
        recorded = []
        reemit = plan_mod._Rebuild.reemit

        def counting(self, raw):
            reemit(self, raw)
            recorded.append(1)

        monkeypatch.setattr(plan_mod._Rebuild, "reemit", counting)
        with pytest.raises(PlanFormatError, match="declare"):
            plan_from_doc(doc, plan.externals)
        assert len(recorded) == len(plan.spans)

    def test_tampered_flag_is_copied_and_fails_verification(self, tmp_path):
        """A walked step's flipped flag reaches every copy of the step,
        and the load fails re-verification."""
        machine, program = _chained_siblings()
        plan = compile_program(machine, program)
        doc = json.loads(json.dumps(plan.to_doc()))
        _flip_first_flag(doc)
        back = plan_from_doc(doc, plan.externals)
        copies = [back.steps[at] for at, start, _, _, _ in back.spans
                  if start == 0]
        assert copies and all(s.safe_zero_copy != plan.steps[0].safe_zero_copy
                              for s in copies)
        with pytest.raises(ValueError, match="safe_zero_copy"):
            verify_plan(back)
        _, fresh, caught = _poisoned_load(tmp_path, machine, program,
                                          _flip_first_flag)
        assert len(caught) == 1
        assert "re-verification" in str(caught[0].message)
        assert fresh.n_steps == plan.n_steps

    def test_span_written_in_full_when_its_flags_differ(self):
        """A copy whose flag no longer matches its source's is written
        in full, so the document keeps it."""
        machine, program = _chained_siblings()
        plan = compile_program(machine, program)
        at = plan.spans[-1][0]  # no later span copies it
        flags = plan.steps.safe.copy()
        flags[at] = not flags[at]
        plan.steps.set_safe(flags)
        doc = json.loads(json.dumps(plan.to_doc()))
        assert len(doc["spans"]) == len(plan.spans) - 1
        back = plan_from_doc(doc, plan.externals)
        assert ([s.safe_zero_copy for s in back.steps]
                == [s.safe_zero_copy for s in plan.steps])
        assert_same_steps(program, [s.inst for s in back.steps],
                          [s.inst for s in plan.steps], 0)

    def test_rebound_plan_keeps_its_spans(self):
        """Rebinding moves each span's tensors with the steps', so the
        rebound plan is written as compactly and loads back equal."""
        machine, program = _chained_siblings()
        plan = compile_program(machine, program)
        clones = {t.uid: Tensor(t.name, t.shape, t.dtype, space=t.space)
                  for t in plan.externals}
        rebound = plan.rebind(list(clones.values()))

        def cloned(regions):
            return tuple(Region(clones[r.tensor.uid], r.bounds) for r in regions)

        roots = [Instruction(inst.opcode, cloned(inst.inputs),
                             cloned(inst.outputs)) for inst in program]
        back = assert_doc_round_trip(roots, rebound)
        assert len(back.spans) == len(plan.spans)


# -- zero-copy store reads ----------------------------------------------------

class TestZeroCopyReads:
    def test_view_is_read_only(self):
        store = TensorStore()
        t = Tensor("x", (8,))
        store.bind(t, np.arange(8.0))
        view = store.read(t.region(), copy=False)
        with pytest.raises(ValueError):
            view[0] = 99.0
        assert store.read(t.region())[0] == 0.0
        assert store.zero_copy_reads == 1

    def test_default_read_still_copies(self):
        store = TensorStore()
        t = Tensor("x", (8,))
        store.bind(t, np.zeros(8))
        arr = store.read(t.region())
        arr[:] = 42.0  # caller-side mutation must not leak into the store
        assert store.read(t.region()).sum() == 0.0
        assert store.copied_reads >= 1

    def test_mutating_kernel_cannot_corrupt_store(self, monkeypatch):
        """An in-place kernel trips numpy's writeable guard, loudly."""
        def evil_add(ins, _attrs):
            ins[0] += 1.0  # in-place mutation of a zero-copy operand
            return ins[0]

        monkeypatch.setitem(dispatch._KERNELS, Opcode.ADD1D, evil_add)
        a, b, c = Tensor("a", (16,)), Tensor("b", (16,)), Tensor("c", (16,))
        inst = Instruction(Opcode.ADD1D, (a.region(), b.region()),
                           (c.region(),))
        store = TensorStore()
        store.bind(a, np.zeros(16))
        store.bind(b, np.ones(16))
        executor = FractalExecutor(tiny_machine(), store)
        with pytest.raises(ValueError, match="read-only"):
            executor.run(inst)
        # The backing array is untouched despite the attempted mutation.
        assert store.read(a.region()).sum() == 0.0

    def test_executor_counts_zero_copy_reads(self):
        machine = tiny_machine()
        program = _matmul_program()
        store = TensorStore()
        _bind_inputs(program, store, np.random.default_rng(3))
        FractalExecutor(machine, store).run_program(program)
        assert store.zero_copy_reads > 0

    def test_aliasing_input_takes_copy_path(self):
        """In-place ACT1D (output region == input region) must copy."""
        t = Tensor("x", (64,))
        inst = Instruction(Opcode.ACT1D, (t.region(),), (t.region(),),
                           {"func": "relu"})
        store = TensorStore()
        store.bind(t, np.linspace(-1, 1, 64))
        executor = FractalExecutor(tiny_machine(), store)
        executor.run(inst)
        np.testing.assert_array_equal(
            store.read(t.region()),
            np.maximum(np.linspace(-1, 1, 64), 0.0))
        assert store.copied_reads > 0

    def test_zero_copy_counter_published(self):
        machine = tiny_machine()
        program = _matmul_program()
        with telemetry.enabled_scope() as (registry, _tracer):
            telemetry.reset()
            store = TensorStore()
            _bind_inputs(program, store, np.random.default_rng(5))
            FractalExecutor(machine, store).run_program(program)
            published = registry.value("store.zero_copy_reads")
        assert published > 0
        assert published == store.zero_copy_reads


# -- session integration ------------------------------------------------------

class TestSessionCompile:
    def _session(self):
        from repro.runtime.session import InferenceSession
        from repro.workloads import profile_benchmark

        w = profile_benchmark("mm_fc")
        return InferenceSession(w, machine=custom_machine(
            "sess", [2], [256 * KB, 64 * KB], [1e9, 1e9]))

    def test_compiled_call_matches_uncompiled(self):
        plain, compiled = self._session(), self._session()
        for s in (plain, compiled):
            s.initialize_parameters(seed=3)
        compiled.compile()
        assert compiled.plan is not None
        rng = np.random.default_rng(11)
        inputs = {short: rng.normal(size=t.shape)
                  for short, t in
                  ((f.split(".")[-1], t)
                   for f, t in plain.workload.inputs.items())}
        want = plain(**inputs)
        got = compiled(**inputs)
        assert sorted(got) == sorted(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])
