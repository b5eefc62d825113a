"""Vectorized leaf-batch replay tests: suite-wide bit-identity, the
per-opcode stacked kernels, lattice gathers and scatters, folded
reduction chains, the tensor arena, plan-document round-trips/poisoning,
batched counters, the replay engine's contract, the plan
microbenchmark's gate and its sentinel wiring.

The acceptance bar for the vectorization pass is *bit-identity*: for
every paper benchmark on both machine instances, replay (through the
schedule) must produce byte-for-byte the arrays recursion produces, and
every opcode's stacked kernel must reproduce ``k`` reference calls byte
for byte in every operand layout a gather can hand it.  Everything else
here defends the supporting structure -- every lowered fusion group runs
stacked, the arena never aliases two concurrently-live tensors, a
poisoned cache entry is recompiled, not replayed, the replay
floor of ``tools/perf_gate.py`` fails below it, and a collapse of
``replay_speedup`` trips the perf-trend sentinel.
"""

from __future__ import annotations

import json
import warnings
from typing import Dict, Tuple

import numpy as np
import pytest

from conftest import tiny_machine
from test_executor import ALL_OPCODE_CASES
from repro import (
    FractalExecutor,
    Instruction,
    Opcode,
    Tensor,
    TensorStore,
    cambricon_f1,
    cambricon_f100,
    telemetry,
)
from repro.core.tensor import Region
from repro.core.verify import bit_identical
from repro.obs import RunLedger, analyze_history, metric_polarity
from repro.obs.ledger import report_metrics
from repro.ops.batch import _BATCHED_KERNELS, batched_kernel_for
from repro.ops.dispatch import kernel_for
from repro.plan import (
    PLAN_SCHEMA_VERSION,
    DiskPlanCache,
    FractalPlan,
    PlanCache,
    PlanStats,
    PlanStep,
    SingleItem,
    compile_cached,
    compile_program,
    lower_plan,
    machine_fingerprint,
    plan_from_doc,
)
from repro.plan.batch import (FoldItem, _Binder, _build_access,
                              _LatticeAccess, _LoopAccess, _SliceTable)
from repro.analysis import program_digest
from repro.workloads import profile_benchmark, profile_benchmark_names

pytestmark = pytest.mark.plan

#: canonical suite names ('matmul' is an alias of 'MATMUL').
SUITE = [n for n in profile_benchmark_names() if n != "matmul"]

_MACHINES = {"f1": cambricon_f1, "f100": cambricon_f100}

#: (machine_key, benchmark) -> (machine, workload, plan); compiling the
#: F100 models dominates the cost of this module, so every test shares
#: one compilation per combination.
_PLANS: Dict[Tuple[str, str], tuple] = {}


def _suite_plan(machine_key: str, name: str):
    got = _PLANS.get((machine_key, name))
    if got is None:
        machine = _MACHINES[machine_key]()
        w = profile_benchmark(name)
        plan = compile_program(machine, w.program)
        got = _PLANS[(machine_key, name)] = (machine, w, plan)
    return got


def _bound_tensors(w):
    return list(w.inputs.values()) + list(w.params.values())


def _replay_outputs(machine, w, plan):
    """Run the workload (replaying ``plan``, or recursing when it is
    ``None``) and return the executor and its output arrays."""
    rng = np.random.default_rng(0)
    store = TensorStore()
    for t in _bound_tensors(w):
        store.bind(t, rng.normal(size=t.shape))
    executor = FractalExecutor(machine, store)
    executor.run_program(w.program, plan=plan)
    return executor, {n: store.read(t.region()) for n, t in w.outputs.items()}


def _assert_bit_identical_to_recursion(machine, w, plan):
    """Replay == recursion, byte for byte; returns the replay's executor."""
    _, recursive = _replay_outputs(machine, w, None)
    executor, replayed = _replay_outputs(machine, w, plan)
    for out_name in recursive:
        assert bit_identical(replayed[out_name], recursive[out_name]), out_name
    return executor


# -- suite-wide bit-identity --------------------------------------------------

class TestSuiteBitIdentity:
    """Schedule replay == recursion, byte for byte, on every (benchmark,
    machine) combination of the paper suite."""

    @pytest.mark.parametrize("machine_key", ["f1", "f100"])
    @pytest.mark.parametrize("name", SUITE)
    def test_batched_replay_bit_identical(self, machine_key, name):
        machine, w, plan = _suite_plan(machine_key, name)
        executor = _assert_bit_identical_to_recursion(
            machine, w, plan)
        assert executor.stats.batched_steps == \
            plan.replay_schedule().batched_steps


# -- the stacked kernels ------------------------------------------------------

#: every opcode's reference case, plus a Merge1D case and Cv2D cases with
#: ``Cout == 1`` and an output-channel split's lane shape.
STACKED_CASES = ALL_OPCODE_CASES + [
    (Opcode.MERGE1D, [(9,), (5,), (12,), (7,)], (33,), {}),
    (Opcode.CV2D, [(2, 7, 7, 3), (3, 3, 3, 1)], (2, 5, 5, 1), {"stride": 1}),
    (Opcode.CV2D, [(1, 6, 6, 16), (3, 3, 16, 2)], (1, 4, 4, 2),
     {"stride": 1}),
]


#: lattice layouts: the tile each lane reads along a tensor's first axis
#: (``grid`` tiles the first and the last axis of a rank-2+ tensor).
_LATTICES = {
    # two tiles x two repeats, the stride-0 level inner, then outer
    "repeat-inner": (0, 0, 1, 1),
    "repeat-outer": (0, 1, 0, 1),
    # a 2x2 grid; the last axis holds three tiles, so rows never abut
    "grid": ((0, 0), (0, 1), (1, 0), (1, 1)),
    # three levels: 2 x 9 tiles, 2 x 3 tiles, 2 x 1 tile
    "lattice3": (0, 1, 3, 4, 9, 10, 12, 13),
}

#: the levels ``_build_access`` must find for each single-tensor layout
_LEVELS = {"stack": 1, "view": 1, "broadcast": 1, "repeat-inner": 2,
           "repeat-outer": 2, "grid": 2, "lattice3": 3}


def _layouts(n_in):
    """Per-operand gather layouts: ``stack`` lanes tile a tensor along its
    first axis (a contiguous stack), ``broadcast`` every lane reads one
    region (a stride-0 stack), ``view`` lanes tile a tensor along its last
    axis (non-contiguous lane views), ``loop`` lanes live on separate
    tensors (a loop-gathered copy), and each :data:`_LATTICES` layout
    places lanes on a lattice of one tensor (a lattice-gathered copy)."""
    yield ("stack",) * n_in
    yield ("loop",) * n_in
    yield ("view",) * n_in
    for j in range(n_in):
        for rest in ("stack", "view"):
            modes = [rest] * n_in
            modes[j] = "broadcast"
            yield tuple(modes)
    for lattice in _LATTICES:
        yield (lattice,) * n_in
        for j in range(n_in if n_in > 1 else 0):
            modes = ["stack"] * n_in
            modes[j] = lattice
            yield tuple(modes)


def _lanes(modes):
    """The lane count of a layout: a lattice's, else 4."""
    return max((len(_LATTICES[m]) for m in modes if m in _LATTICES),
               default=4)


def _lane_regions(mode, shape, k, name):
    """``k`` lane regions of one operand position laid out as ``mode``."""
    if mode == "broadcast":
        return [Tensor(name, shape).region()] * k
    if mode == "loop":
        return [Tensor(f"{name}{i}", shape).region() for i in range(k)]
    if mode in _LATTICES:
        tiles = _LATTICES[mode]
        assert len(tiles) == k
        last = len(shape) - 1
        if mode == "grid" and last:
            big = list(shape)
            big[0] *= 2
            big[last] *= 3
            full = Tensor(name, tuple(big)).region()
            return [full.slice_dim(0, i * shape[0], (i + 1) * shape[0])
                    .slice_dim(last, j * shape[last], (j + 1) * shape[last])
                    for i, j in tiles]
        if mode == "grid":  # rank 1: the grid's rows side by side
            tiles = [3 * i + j for i, j in tiles]
        big = list(shape)
        big[0] *= max(tiles) + 1
        full = Tensor(name, tuple(big)).region()
        return [full.slice_dim(0, t * shape[0], (t + 1) * shape[0])
                for t in tiles]
    axis = 0 if mode == "stack" else len(shape) - 1
    big = list(shape)
    big[axis] *= k
    full = Tensor(name, tuple(big)).region()
    return [full.slice_dim(axis, i * shape[axis], (i + 1) * shape[axis])
            for i in range(k)]


def _stacked_and_reference(opcode, shapes, out_shape, attrs, modes, k):
    """Gather ``k`` lanes through the replay schedule's own addressing,
    run the stacked kernel once and the reference kernel once per lane;
    returns ``(stacked lanes, reference outputs)``."""
    rng = np.random.default_rng(3)
    positions = [_lane_regions(mode, shape, k, f"in{j}")
                 for j, (mode, shape) in enumerate(zip(modes, shapes))]
    store = TensorStore()
    for regions in positions:
        for r in regions:
            if not store.has(r.tensor):
                data = rng.normal(size=r.tensor.shape)
                if opcode is Opcode.MERGE1D:
                    data = np.sort(data, axis=-1)
                store.bind(r.tensor, data)
    slices = _SliceTable()
    accesses = [_build_access(p, slices) for p in positions]
    for mode, access in zip(modes, accesses):
        if mode == "loop":
            assert isinstance(access, _LoopAccess), mode
        else:
            assert isinstance(access, _LatticeAccess), mode
            assert len(access.counts) == _LEVELS[mode], (mode, access.counts)
    binder = _Binder(store)
    operands = [binder.access(access, False).gather() for access in accesses]
    stacked = np.asarray(batched_kernel_for(opcode)(operands, attrs),
                         dtype=np.float64)
    reference = kernel_for(opcode)
    refs = []
    for i in range(k):
        ins = [store.ensure(p[i].tensor)[slices[p[i].bounds]]
               for p in positions]
        refs.append(np.asarray(reference(ins, attrs), dtype=np.float64))
    return stacked.reshape((k,) + tuple(out_shape)), refs


def _case_id(case):
    opcode, shapes, _out, attrs = case
    return f"{opcode.value}-{'x'.join(map(str, shapes[0]))}" + (
        f"-s{attrs['stride']}" if "stride" in attrs else "")


class TestStackedKernels:
    """Every opcode's stacked kernel reproduces ``k`` reference calls
    byte for byte, in every operand layout a gather can produce."""

    @pytest.mark.parametrize("case", STACKED_CASES,
                             ids=[_case_id(c) for c in STACKED_CASES])
    def test_lanes_bit_identical_to_reference_calls(self, case):
        opcode, shapes, out_shape, attrs = case
        for modes in _layouts(len(shapes)):
            stacked, refs = _stacked_and_reference(
                opcode, shapes, out_shape, attrs, modes, k=_lanes(modes))
            for lane, ref in enumerate(refs):
                assert bit_identical(stacked[lane], ref.reshape(out_shape)), (
                    f"{opcode.value} lane {lane}, layout {modes}")

    def test_output_channel_split(self):
        """One input tile shared by eight lanes, each with its own
        output-channel slice of the weights: a stride-0 input gather and
        non-contiguous per-lane weight views, as F1 ResNet-152 emits."""
        stacked, refs = _stacked_and_reference(
            Opcode.CV2D, [(1, 6, 6, 16), (3, 3, 16, 2)], (1, 4, 4, 2),
            {"stride": 1}, ("broadcast", "view"), k=8)
        for lane, ref in enumerate(refs):
            assert bit_identical(stacked[lane], ref), lane

    def test_case_table_covers_every_opcode(self):
        assert {case[0] for case in STACKED_CASES} == set(Opcode)


class TestLatticeAddressing:
    """Lanes of one tensor that repeat tiles or sit on a grid are
    addressed by one lattice view: a gather is one C-contiguous copy equal
    to the per-lane loop's stack, and a scatter writes through the view
    exactly as the loop writes lane by lane."""

    @pytest.mark.parametrize("mode", list(_LATTICES))
    def test_gather_is_the_loop_stack(self, mode):
        k = _lanes((mode,))
        regions = _lane_regions(mode, (3, 5), k, "x")
        store = TensorStore()
        store.bind(regions[0].tensor, np.random.default_rng(7).normal(
            size=regions[0].tensor.shape))
        slices = _SliceTable()
        access = _build_access(regions, slices)
        assert isinstance(access, _LatticeAccess) and not access.zero_copy
        binder = _Binder(store)
        got = binder.access(access, False).gather()
        want = binder.access(_LoopAccess(
            [(r.tensor, slices[r.bounds]) for r in regions], (3, 5)),
            False).gather()
        assert got.flags.c_contiguous and not got.flags.writeable
        assert bit_identical(got, want)

    @pytest.mark.parametrize("accumulate", [False, True])
    @pytest.mark.parametrize("mode", ["stack", "view", "grid", "lattice3"])
    def test_scatter_matches_the_loop(self, mode, accumulate):
        k = _lanes((mode,))
        regions = _lane_regions(mode, (3, 5), k, "y")
        rng = np.random.default_rng(8)
        initial = rng.normal(size=regions[0].tensor.shape)
        stacked = rng.normal(size=(k, 3, 5))
        slices = _SliceTable()
        access = _build_access(regions, slices)
        assert isinstance(access, _LatticeAccess) and not access.repeats
        results = []
        for scatter in (access, _LoopAccess(
                [(r.tensor, slices[r.bounds]) for r in regions], (3, 5))):
            store = TensorStore()
            store.bind(regions[0].tensor, initial)
            _Binder(store).access(scatter, True).scatter(stacked, accumulate)
            results.append(store.read(regions[0].tensor.region()))
        assert bit_identical(results[0], results[1])

    @pytest.mark.parametrize("accumulate", [False, True])
    def test_arena_lanes_match_lane_by_lane(self, accumulate):
        """Loop lanes that live in the arena gather and scatter through
        one arena index, a lane outside it through its own slices: both
        move exactly the bytes per-lane slicing moves."""
        rng = np.random.default_rng(9)
        tensors = [Tensor(f"p{i}", (2, 6)) for i in range(4)]
        regions = [t.region().slice_dim(1, 1, 4) for t in tensors]
        slices = _SliceTable()
        access = _build_access(regions, slices)
        assert isinstance(access, _LoopAccess)
        stacked = rng.normal(size=(4, 2, 3))
        for placed, parts in ((tensors, 1), (tensors[1:], 2)):
            slots = {t.uid: 3 + 13 * i for i, t in enumerate(placed)}
            arena = rng.normal(size=60)
            store = TensorStore()
            store.bind(tensors[0], rng.normal(size=(2, 6)))

            def lane_views(buf, base):
                return [buf[slots[t.uid]:slots[t.uid] + 12].reshape(2, 6)
                        [slices[r.bounds]] if t.uid in slots
                        else base[slices[r.bounds]]
                        for t, r in zip(tensors, regions)]

            binder = _Binder(store, arena, slots)
            gather = binder.access(access, False)
            assert len(gather.parts) == parts  # one part for the arena lanes
            assert bit_identical(gather.gather(), np.stack(
                lane_views(arena, store.array(tensors[0]))))
            want, want_base = arena.copy(), store.array(tensors[0]).copy()
            for lane, view in enumerate(lane_views(want, want_base)):
                if accumulate:
                    view += stacked[lane]
                else:
                    view[...] = stacked[lane]
            binder.access(access, True).scatter(stacked, accumulate)
            assert bit_identical(arena, want)
            assert bit_identical(store.array(tensors[0]), want_base)

    @pytest.mark.parametrize("mode", ["broadcast", "repeat-inner",
                                      "repeat-outer"])
    def test_repeated_tiles_are_flagged(self, mode):
        """A lattice with a stride-0 level places one tile at several
        lanes; a BatchedItem refuses one as an output."""
        regions = _lane_regions(mode, (3, 5), _lanes((mode,)), "z")
        assert _build_access(regions, _SliceTable()).repeats


# -- the stacked-kernel registry ---------------------------------------------

class TestBatchedKernelRegistry:
    def test_registered_opcodes_are_the_bit_identical_set(self):
        # Every opcode's stacked kernel reproduces its reference calls
        # byte for byte (the per-opcode sweep above), so the registry
        # holds every opcode, the convolutions and Merge1D included.
        assert set(_BATCHED_KERNELS) == set(Opcode)

    def test_kernel_for_mirrors_registry(self):
        for op in Opcode:
            kern = batched_kernel_for(op)
            assert callable(kern), op
            assert kern is _BATCHED_KERNELS[op], op


# -- default engine policy ----------------------------------------------------

class TestDefaultPolicy:
    """Every plan replays through its schedule by default, and every
    lowered fusion group runs as one stacked call."""

    def test_fully_covered_plan_defaults_to_batched(self):
        machine, w, plan = _suite_plan("f1", "mm_fc")
        schedule = plan.replay_schedule()
        assert schedule.fully_batched and schedule.fallback_lanes == 0
        executor, _ = _replay_outputs(machine, w, plan)
        assert executor.stats.batched_steps == schedule.batched_steps

    def test_conv_plan_replays_through_the_schedule(self):
        """Conv nets run every lowered group stacked, conv groups
        included: no step of a lowered group is a SingleItem."""
        for name in ("ResNet-152", "VGG-16"):
            machine, w, plan = _suite_plan("f1", name)
            schedule = plan.replay_schedule()
            assert schedule.fully_batched and schedule.fallback_lanes == 0
            groups = lower_plan(plan)
            fused = {i for a, b in groups for i in range(a, b)}
            assert any(plan.steps[a].inst.opcode is Opcode.CV2D
                       for a, _ in groups)
            assert not [item for item in schedule.items
                        if not item.batched and item.start in fused]
            assert schedule.batched_lanes == len(fused)
            executor = _assert_bit_identical_to_recursion(
                machine, w, plan)
            assert executor.stats.batched_steps == schedule.batched_steps
            assert executor.stats.batched_lanes == schedule.batched_lanes
            assert executor.store.arena_bytes == schedule.arena.nbytes

    def test_no_batched_item_lacks_a_stacked_kernel(self):
        _, _, plan = _suite_plan("f1", "ResNet-152")
        batched = [i for i in plan.replay_schedule().items if i.batched]
        assert batched
        for item in batched:
            assert item.batched_kernel is not None
            assert item.batched_kernel is batched_kernel_for(item.opcode)


def _tiny_replay_check(program, bindings):
    """Replay ``program`` on ``tiny_machine`` from ``(tensor, array)``
    bindings; every lowered group must be a BatchedItem and the outputs
    bit-identical to recursion.  Returns the schedule's BatchedItems."""
    machine = tiny_machine()
    plan = compile_program(machine, program)
    items = [i for i in plan.replay_schedule().items if i.batched]
    assert len(items) == len(lower_plan(plan))
    results = []
    for use_plan in (None, plan):
        store = TensorStore()
        for tensor, data in bindings:
            store.bind(tensor, data)
        FractalExecutor(machine, store).run_program(program, plan=use_plan)
        results.append([store.read(r) for inst in program
                        for r in inst.outputs])
    for got, want in zip(results[1], results[0]):
        assert bit_identical(got, want)
    return items


class TestStackedReplayEndToEnd:
    """Small programs whose only fusion groups are the newly stacked
    opcodes replay through BatchedItems, bit-identical to recursion."""

    def test_cv3d_groups_replay_stacked(self):
        [case] = [c for c in ALL_OPCODE_CASES if c[0] is Opcode.CV3D]
        _, shapes, out_shape, attrs = case
        rng = np.random.default_rng(11)
        ins = [Tensor(f"in{j}", shape) for j, shape in enumerate(shapes)]
        out = Tensor("out", out_shape)
        program = [Instruction(Opcode.CV3D, tuple(t.region() for t in ins),
                               (out.region(),), attrs)]
        items = _tiny_replay_check(
            program, [(t, rng.normal(size=t.shape)) for t in ins])
        assert [i.opcode for i in items] == [Opcode.CV3D] * 2

    def test_merge1d_group_replays_stacked(self):
        rng = np.random.default_rng(12)
        runs = [Tensor(f"run{i}", (8,)) for i in range(6)]
        out = Tensor("merged", (48,))
        program = [Instruction(Opcode.MERGE1D,
                               tuple(t.region() for t in runs),
                               (out.region(),))]
        items = _tiny_replay_check(
            program, [(t, np.sort(rng.normal(size=8))) for t in runs])
        assert [(i.opcode, i.k) for i in items] == [(Opcode.MERGE1D, 3)]

    def test_group_of_two_classes_replays_as_singles(self):
        """A fusion group set by hand whose lanes are two isomorphism
        classes (Act1D tiles of 2 and 3 elements) is not lowered: the
        plan replays as it does without the group."""
        x, y = Tensor("x", (5,)), Tensor("y", (5,))
        steps = [PlanStep.from_instruction("kernel", Instruction(
            Opcode.ACT1D, (Region(x, ((lo, hi),)),),
            (Region(y, ((lo, hi),)),), {"func": "relu"}), 1)
            for lo, hi in ((0, 2), (2, 5))]
        data = np.random.default_rng(13).normal(size=5)
        results = []
        for groups in ([(0, 2)], []):
            plan = FractalPlan(machine_fingerprint=("test",),
                               signature_digest="f" * 64, steps=list(steps),
                               stats=PlanStats(), externals=[x, y],
                               fusion_groups=groups)
            assert lower_plan(plan) == []
            store = TensorStore()
            store.bind(x, data)
            FractalExecutor(tiny_machine(), store).run_plan(plan)
            assert plan.replay_schedule().batched_steps == 0
            results.append(store.read(y.region()))
        assert bit_identical(results[0], results[1])

    def test_overlapping_groups_replay_each_step_once(self):
        """Two fusion groups set by hand that share a step: the second is
        not lowered, so the shared lane is not replayed twice.  Three
        accumulating Act1D lanes ``y[o:o+2] += relu(x[o:o+2])`` on ones
        leave ``y`` all ones, with or without the groups."""
        x, y = Tensor("x", (6,)), Tensor("y", (6,))
        steps = [PlanStep.from_instruction("kernel", Instruction(
            Opcode.ACT1D, (Region(x, ((o, o + 2),)),),
            (Region(y, ((o, o + 2),)),), {"func": "relu", "accumulate": True}),
            1) for o in (0, 2, 4)]
        results = []
        for groups in ([(0, 2), (1, 3)], []):
            plan = FractalPlan(machine_fingerprint=("test",),
                               signature_digest="f" * 64, steps=list(steps),
                               stats=PlanStats(), externals=[x, y],
                               fusion_groups=groups)
            assert lower_plan(plan) == groups[:1]
            store = TensorStore()
            store.bind(x, np.ones(6))
            FractalExecutor(tiny_machine(), store).run_plan(plan)
            assert [(i.start, i.stop) for i in plan.replay_schedule().items] \
                == ([(0, 2), (2, 3)] if groups else [(0, 1), (1, 2), (2, 3)])
            results.append(store.read(y.region()))
        assert results[0].tolist() == [1.0] * 6
        assert bit_identical(results[0], results[1])


# -- folded reduction chains --------------------------------------------------

def _fold_plan(opcode=Opcode.HSUM1D, n=4096, out=None):
    """One horizontal reduction of an ``n``-element vector into ``out``,
    compiled for a (4, 4) tiny machine, whose splits leave chains of three
    links at both levels."""
    machine = tiny_machine(fanouts=(4, 4))
    x = Tensor("x", (n,))
    out = out if out is not None else Tensor("s", (1,)).region()
    program = [Instruction(opcode, (x.region(),), (out,))]
    return machine, program, x, compile_program(machine, program)


def _owners(schedule):
    """Plan step index -> the schedule item that runs it."""
    return {i: item for item in schedule.items
            for i in range(item.start, item.stop)}


def _bindings(plan, rng):
    """Values for every external, near 1 so long products stay finite."""
    return [(t, rng.uniform(0.9, 1.1, size=t.shape)) for t in plan.externals]


def _plan_results(machine, plan, bindings, replay):
    """Every external after replaying ``plan`` or running its steps one by
    one through the cold run's walk sink (the oracle for edited plans)."""
    store = TensorStore()
    for tensor, data in bindings:
        store.bind(tensor, data)
    executor = FractalExecutor(machine, store)
    if replay:
        executor.run_plan(plan)
    else:
        for step in plan.steps:
            executor._run_step(step.kind, step.inst, step.level)
    return [store.read(t.region()) for t in plan.externals]


def _edited(plan, steps, externals=None):
    """``plan`` with other steps (and externals); a fresh schedule."""
    return FractalPlan(
        machine_fingerprint=plan.machine_fingerprint,
        signature_digest=plan.signature_digest, steps=steps,
        stats=plan.stats, externals=list(externals or plan.externals),
        fusion_groups=list(plan.fusion_groups))


class TestFoldedChains:
    """A run of g(.) chain links replays as one FoldItem: the reference
    kernel once per link, no stored intermediates, bit-identical to
    recursion.  Links the plan does not prove private stay singles."""

    def _assert_folds_every_chain(self, machine, program, plan, opcode,
                                  bindings):
        schedule = plan.replay_schedule()
        folds = [i for i in schedule.items if isinstance(i, FoldItem)]
        assert folds and all(f.opcode is opcode and f.k == 3 for f in folds)
        assert not [i for i in schedule.items
                    if isinstance(i, SingleItem) and i.opcode is opcode]
        bound = {t.uid for t, _ in schedule.arena.bindings}
        for fold in folds:
            for step in plan.steps[fold.start:fold.stop - 1]:
                assert step.inst.outputs[0].tensor.uid not in bound
        results = []
        for use_plan in (None, plan):
            store = TensorStore()
            for tensor, data in bindings:
                store.bind(tensor, data)
            FractalExecutor(machine, store).run_program(program,
                                                        plan=use_plan)
            results.append(store.read(program[0].outputs[0].tensor.region()))
        assert bit_identical(results[1], results[0])
        return folds

    def test_hsum_chains_fold_one_element_terms(self):
        machine, program, x, plan = _fold_plan(Opcode.HSUM1D)
        folds = self._assert_folds_every_chain(
            machine, program, plan, Opcode.ADD1D,
            [(x, np.random.default_rng(21).normal(size=x.shape))])
        for fold in folds:
            for tensor, sl in fold.terms:
                assert np.zeros(tensor.shape)[sl].size == 1

    def test_hprod_chains_fold_mul_links(self):
        machine, program, x, plan = _fold_plan(Opcode.HPROD1D, n=600)
        self._assert_folds_every_chain(
            machine, program, plan, Opcode.MUL1D,
            [(x, np.random.default_rng(22).uniform(0.9, 1.1, size=x.shape))])

    def test_chain_into_an_external_slice_folds(self):
        y = Tensor("y", (4,))
        machine, program, x, plan = _fold_plan(out=y[2:3])
        rng = np.random.default_rng(23)
        folds = self._assert_folds_every_chain(
            machine, program, plan, Opcode.ADD1D,
            [(x, rng.normal(size=x.shape)), (y, rng.normal(size=y.shape))])
        tensor, sl = folds[-1].out_spec
        assert tensor is y and sl == (slice(2, 3),)

    def test_replay_dispatches_one_count_per_link(self):
        """With telemetry on, a fold counts its ``k`` links in one bulk
        ``ops.dispatch`` increment under one ``op:`` span with
        ``lanes=k``: replay counts every plan step once."""
        machine, _, _, plan = _fold_plan()
        schedule = plan.replay_schedule()
        want: Dict[str, int] = {}
        for step in plan.steps:
            opval = step.inst.opcode.value
            want[opval] = want.get(opval, 0) + 1
        rng = np.random.default_rng(24)
        with telemetry.enabled_scope() as (registry, tracer):
            telemetry.reset()
            _plan_results(machine, plan, _bindings(plan, rng), replay=True)
            for opval, n in want.items():
                assert registry.value("ops.dispatch",
                                      {"opcode": opval}) == n, opval
            lanes = [span.args.get("lanes") for span in tracer.spans()
                     if span.name == "op:Add1D"]
        # Every Add1D link of this plan is folded: one span per fold.
        folds = [i for i in schedule.items if isinstance(i, FoldItem)]
        assert lanes == [fold.k for fold in folds]

    def test_f100_resnet_schedule_folds_every_chain(self):
        """F100 ResNet-152's 13,944 ``Add1D`` links all fold, and a
        per-lane loop is left only for lanes on several tensors."""
        _, _, plan = _suite_plan("f100", "ResNet-152")
        items = plan.replay_schedule().items
        assert not [i for i in items
                    if isinstance(i, SingleItem) and i.opcode is Opcode.ADD1D]
        assert sum(i.k for i in items if isinstance(i, FoldItem)) == sum(
            1 for s in plan.steps if s.inst.opcode is Opcode.ADD1D) - sum(
            i.k for i in items if i.batched and i.opcode is Opcode.ADD1D)
        accesses = [a for i in items if i.batched
                    for a in i.gathers + (i.scatter,)]
        assert any(isinstance(a, _LatticeAccess) and len(a.counts) > 1
                   for a in accesses)
        for access in accesses:
            if isinstance(access, _LoopAccess):
                assert len({t.uid for t, _ in access.lane_slices}) > 1

    def _edit_case(self, edit):
        """Apply ``edit(plan, start)`` to the last fold's chain (steps
        ``start .. start + 2``) and return the edited plan, its step owners
        and whether its replay matches running its steps one by one."""
        machine, _, _, plan = _fold_plan()
        [*_, fold] = [i for i in plan.replay_schedule().items
                      if isinstance(i, FoldItem)]
        edited = edit(plan, fold.start)
        bindings = _bindings(edited, np.random.default_rng(25))
        replayed = _plan_results(machine, edited, bindings, replay=True)
        stepwise = _plan_results(machine, edited, bindings, replay=False)
        same = all(bit_identical(a, b) for a, b in zip(replayed, stepwise))
        return fold.start, _owners(edited.replay_schedule()), same

    def test_intermediate_read_by_a_third_step_stays_single(self):
        def edit(plan, start):
            mid = plan.steps[start].inst.outputs[0]
            probe = Tensor("probe", mid.shape)
            reader = PlanStep.from_instruction("lfu", Instruction(
                Opcode.ACT1D, (mid,), (probe.region(),),
                {"func": "identity"}), plan.steps[start].level)
            return _edited(plan, plan.steps + [reader],
                           plan.externals + [probe])

        start, owners, same = self._edit_case(edit)
        assert isinstance(owners[start], SingleItem)
        assert owners[start + 1] is owners[start + 2]  # still a fold
        assert same

    def test_accumulating_link_stays_single(self):
        def edit(plan, start):
            steps = list(plan.steps)
            step = steps[start + 1]
            inst = Instruction(step.inst.opcode, step.inst.inputs,
                               step.inst.outputs, {"accumulate": True})
            steps[start + 1] = PlanStep.from_instruction(step.kind, inst,
                                                         step.level)
            return _edited(plan, steps)

        start, owners, same = self._edit_case(edit)
        for i in (start, start + 1, start + 2):
            assert isinstance(owners[i], SingleItem), i
        assert same

    def test_link_through_the_second_operand_stays_single(self):
        def edit(plan, start):
            steps = list(plan.steps)
            step = steps[start + 1]
            a, b = step.inst.inputs
            inst = Instruction(step.inst.opcode, (b, a), step.inst.outputs,
                               dict(step.inst.attrs))
            steps[start + 1] = PlanStep.from_instruction(step.kind, inst,
                                                         step.level)
            return _edited(plan, steps)

        start, owners, same = self._edit_case(edit)
        assert isinstance(owners[start], SingleItem)
        assert owners[start + 1] is owners[start + 2]
        assert same


# -- the tensor arena ---------------------------------------------------------

class TestArenaLayout:
    """K-Means on F1 owns hundreds of small intermediates -- enough churn
    to exercise recycling, re-zeroing, and the free-list coalescing."""

    def _schedule(self, name="K-Means", machine_key="f1"):
        _, _, plan = _suite_plan(machine_key, name)
        return plan, plan.replay_schedule()

    def _live_intervals(self, plan, items):
        """Independent re-derivation of each plan-owned tensor's live
        interval in schedule-item ordinals (the allocator's oracle).  A
        fold touches its first link's operands, every later link's second
        operand and its last link's output; the links' intermediates are
        never stored, so they have no interval."""
        external = set(plan.external_uids())
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        sizes: Dict[int, int] = {}
        for ordinal, item in enumerate(items):
            steps = plan.steps[item.start:item.stop]
            if isinstance(item, FoldItem):
                regions = ([steps[0].inst.inputs[0]]
                           + [step.inst.inputs[1] for step in steps]
                           + [steps[-1].inst.outputs[0]])
            else:
                regions = [r for step in steps
                           for r in step.inst.inputs + step.inst.outputs]
            for r in regions:
                uid = r.tensor.uid
                if uid in external:
                    continue
                first.setdefault(uid, ordinal)
                last[uid] = ordinal
                sizes[uid] = r.tensor.nelems
        return first, last, sizes

    def _assert_no_live_overlap(self, plan, schedule):
        arena = schedule.arena
        assert arena.bindings  # the plan owns real intermediates
        first, last, _sizes = self._live_intervals(plan, schedule.items)
        spans = [(t.uid, off, off + t.nelems) for t, off in arena.bindings]
        assert {uid for uid, _, _ in spans} == set(first)
        for i, (uid_a, lo_a, hi_a) in enumerate(spans):
            for uid_b, lo_b, hi_b in spans[i + 1:]:
                if first[uid_a] <= last[uid_b] and first[uid_b] <= last[uid_a]:
                    assert hi_a <= lo_b or hi_b <= lo_a, (
                        f"live tensors {uid_a} and {uid_b} share arena bytes")

    def _assert_high_water(self, plan, schedule):
        arena = schedule.arena
        first, last, sizes = self._live_intervals(plan, schedule.items)
        peak = 0
        for ordinal in range(len(schedule.items)):
            live = sum(sizes[uid] for uid in sizes
                       if first[uid] <= ordinal <= last[uid])
            peak = max(peak, live)
        total = sum(sizes.values())
        # The packing cannot beat the liveness peak, must recycle (stay
        # below the no-reuse total), and stays under the analyzer's
        # step-granular high-water mark (which also counts externals).
        assert peak <= arena.total_elems < total
        assert arena.nbytes <= plan.stats.peak_live_bytes

    def test_concurrently_live_tensors_never_overlap(self):
        self._assert_no_live_overlap(*self._schedule())

    def test_high_water_matches_the_liveness_oracle(self):
        self._assert_high_water(*self._schedule())

    def test_liveness_oracle_holds_on_a_mixed_schedule(self):
        """F100 mm_fc interleaves stacked groups with unfused items, folds
        among them, and still recycles: the oracle must hold across every
        item kind."""
        plan, schedule = self._schedule("mm_fc", "f100")
        kinds = [item.batched for item in schedule.items]
        assert {(True, False), (False, True)} <= set(zip(kinds, kinds[1:]))
        assert any(isinstance(item, FoldItem) for item in schedule.items)
        self._assert_no_live_overlap(plan, schedule)
        self._assert_high_water(plan, schedule)

    def test_zero_items_reference_real_bindings(self):
        _, schedule = self._schedule()
        arena = schedule.arena
        assert arena.zero_items  # recycling actually happened
        n_items = len(schedule.items)
        for ordinal, bi in arena.zero_items:
            assert 0 <= bi < len(arena.bindings)
            assert 0 <= ordinal < n_items

    def test_zero_items_cover_every_zero_fill_first_touch(self):
        """Every intermediate whose first touch reads, accumulates or
        writes part of it is zeroed at its interval open, the first
        occupant of a slot included: a bound arena keeps the bytes of
        the last replay."""
        plan, schedule = self._schedule()
        arena = schedule.arena
        zeroed = {arena.bindings[bi][0].uid: ordinal
                  for ordinal, bi in arena.zero_items}
        first, _, _ = self._live_intervals(plan, schedule.items)
        for ordinal, item in enumerate(schedule.items):
            accumulate = item.accumulate
            for step in plan.steps[item.start:item.stop]:
                for r, is_input in ([(r, True) for r in step.inst.inputs]
                                    + [(r, False) for r in step.inst.outputs]):
                    uid = r.tensor.uid
                    if first.get(uid) != ordinal or isinstance(item, FoldItem):
                        continue
                    covers = r.bounds == tuple((0, d) for d in r.tensor.shape)
                    if is_input or accumulate or not covers:
                        assert zeroed.get(uid) == ordinal, uid

    def test_binding_views_one_arena_buffer(self):
        """A binding allocates one arena and slices every operand on an
        intermediate straight from it: the store holds no per-tensor
        arena view."""
        plan, schedule = self._schedule()
        arena = schedule.arena
        store = TensorStore()
        binding = store.bound(schedule)
        assert store.bound(schedule) is binding  # bound once
        assert store.arena_bytes == arena.nbytes == binding.arena.nbytes
        owned = {t.uid for t, _ in arena.bindings}
        assert not [uid for uid in owned if store.tensor(uid) is not None]
        for item, operands, outputs, _ in binding.entries:
            if item.batched:
                continue
            views = tuple(operands) + (
                (outputs,) if item.folded else tuple(outputs))
            specs = (item.terms + (item.out_spec,) if item.folded
                     else item.in_specs + item.out_specs)
            for view, (tensor, _) in zip(views, specs):
                if tensor.uid in owned:
                    assert view.base is binding.arena


# -- the plan document: disk round-trip, migration, poisoning -----------------

def _groupy_plan():
    """A small plan with real fusion groups (tiny machine, one matmul)."""
    n = 96
    a, b, c = Tensor("a", (n, n)), Tensor("b", (n, n)), Tensor("c", (n, n))
    program = [Instruction(Opcode.MATMUL, (a.region(), b.region()),
                           (c.region(),))]
    machine = tiny_machine()
    plan = compile_program(machine, program)
    assert plan.fusion_groups  # precondition for every test below
    return machine, program, plan


class TestSchemaV3Cache:
    """The document since v3 lowered fusion groups; since v4 it stores no
    lowering, and a loaded plan's schedule build lowers its verified
    groups."""

    def test_doc_round_trip_preserves_batched_table(self):
        machine, program, plan = _groupy_plan()
        doc = json.loads(json.dumps(plan.to_doc()))
        assert doc["version"] == 4 and "batched" not in doc
        back = plan_from_doc(doc, plan.externals,
                             machine_fingerprint=plan.machine_fingerprint)
        assert lower_plan(back) == lower_plan(plan) != []
        rng = np.random.default_rng(5)
        arrays = {r.tensor.uid: rng.normal(size=r.tensor.shape)
                  for r in program[0].inputs}
        results = []
        for use_plan in (None, back):
            store = TensorStore()
            for r in program[0].inputs:
                store.bind(r.tensor, arrays[r.tensor.uid])
            FractalExecutor(machine, store).run_program(program,
                                                        plan=use_plan)
            results.append(store.read(program[0].outputs[0]))
        np.testing.assert_array_equal(results[1], results[0])

    def test_poisoned_disk_entry_warns_and_recompiles(self, tmp_path):
        machine, program, plan = _groupy_plan()
        disk = DiskPlanCache(tmp_path)
        fp = machine_fingerprint(machine)
        digest = program_digest(program)
        disk.store(fp, digest, plan)
        path = disk._path(fp, digest)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["fusion_groups"][0][1] += 1  # cache poisoning
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="fusion groups do not match"):
            fresh = compile_cached(machine, program, disk_dir=tmp_path,
                                   memory_cache=PlanCache())
        assert fresh.fusion_groups == plan.fusion_groups
        assert lower_plan(fresh) == lower_plan(plan)

    def _old_entry_is_a_silent_miss(self, tmp_path, version):
        """An older schema's cache file lives under its own filename: the
        current lookup never opens it, so migration is a plain miss +
        recompile with no warning noise."""
        machine, program, plan = _groupy_plan()
        disk = DiskPlanCache(tmp_path)
        fp = machine_fingerprint(machine)
        digest = program_digest(program)
        path = disk._path(fp, digest)
        assert f"plan-v{PLAN_SCHEMA_VERSION}-" in path.name
        old_path = path.parent / path.name.replace(
            f"plan-v{PLAN_SCHEMA_VERSION}-", f"plan-v{version}-")
        old_path.parent.mkdir(parents=True, exist_ok=True)
        old_doc = plan.to_doc()
        old_doc["version"] = version
        old_path.write_text(json.dumps(old_doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            fresh = compile_cached(machine, program, disk_dir=tmp_path,
                                   memory_cache=PlanCache())
        assert fresh.n_steps == plan.n_steps
        assert path.exists()  # the recompile persisted a current entry
        assert old_path.exists()  # ... without touching the stale one

    def test_v2_entry_is_a_silent_miss(self, tmp_path):
        self._old_entry_is_a_silent_miss(tmp_path, 2)

    def test_v3_entry_is_a_silent_miss(self, tmp_path):
        self._old_entry_is_a_silent_miss(tmp_path, 3)

    def test_v2_document_under_v3_name_warns_and_recompiles(self, tmp_path):
        machine, program, plan = _groupy_plan()
        disk = DiskPlanCache(tmp_path)
        fp = machine_fingerprint(machine)
        digest = program_digest(program)
        disk.store(fp, digest, plan)
        path = disk._path(fp, digest)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["version"] = 2
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="plan version"):
            fresh = compile_cached(machine, program, disk_dir=tmp_path,
                                   memory_cache=PlanCache())
        assert fresh.n_steps == plan.n_steps


# -- executor counters and observability --------------------------------------

class TestBatchedCounters:
    def test_batched_counters_published(self):
        machine, w, plan = _suite_plan("f1", "K-Means")
        schedule = plan.replay_schedule()
        rng = np.random.default_rng(0)
        with telemetry.enabled_scope() as (registry, _tracer):
            telemetry.reset()
            store = TensorStore()
            for t in _bound_tensors(w):
                store.bind(t, rng.normal(size=t.shape))
            executor = FractalExecutor(machine, store)
            executor.run_program(w.program, plan=plan)
            assert registry.value("plan.batched_steps") == \
                schedule.batched_steps
            assert registry.value("plan.batched_lanes") == \
                schedule.batched_lanes
            assert schedule.arena.nbytes > 0
            assert registry.gauge("store.arena_bytes").value == \
                schedule.arena.nbytes
        assert executor.stats.batched_steps == schedule.batched_steps
        assert executor.stats.batched_lanes == schedule.batched_lanes

    def test_alias_scan_skip_counted_and_correct(self):
        """An in-place ACT1D step carries a precomputed copy-mask: the
        schedule path skips the runtime overlap scan (counted) and still
        produces the reference result."""
        t = Tensor("x", (64,))
        program = [Instruction(Opcode.ACT1D, (t.region(),), (t.region(),),
                               {"func": "relu"})]
        machine = tiny_machine()
        plan = compile_program(machine, program)
        assert not all(s.safe_zero_copy for s in plan.steps)
        store = TensorStore()
        store.bind(t, np.linspace(-1, 1, 64))
        executor = FractalExecutor(machine, store)
        executor.run_program(program, plan=plan)
        assert executor.stats.alias_scan_skips > 0
        np.testing.assert_array_equal(
            store.read(t.region()),
            np.maximum(np.linspace(-1, 1, 64), 0.0))

    def test_batched_replay_beats_and_reports_progress(self):
        """Replay's observability contract: one watchdog beat per plan
        step (bulk per group) and strided ``replay.progress`` events."""
        import repro.core.executor as executor_mod
        from repro import obs
        from repro.obs import Watchdog

        machine, program, plan = _groupy_plan()
        rng = np.random.default_rng(2)
        store = TensorStore()
        for r in program[0].inputs:
            if not store.has(r.tensor):
                store.bind(r.tensor, rng.normal(size=r.tensor.shape))
        wd = obs.install_watchdog(Watchdog())
        log = obs.get_event_log()
        log.reset()
        log.enable()
        old_stride = executor_mod.REPLAY_PROGRESS_STRIDE
        executor_mod.REPLAY_PROGRESS_STRIDE = 2
        try:
            FractalExecutor(machine, store).run_program(program, plan=plan)
        finally:
            executor_mod.REPLAY_PROGRESS_STRIDE = old_stride
            log.disable()
            log.reset()
            obs.install_watchdog(None)
        assert wd.beats >= plan.n_steps


# -- the replay gate and its sentinel wiring ------------------------------------

def _perf_gate():
    """``tools/perf_gate.py``, loaded by path (``tools/`` is no package);
    ``sys.path``, which the script extends on import, is restored."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "perf_gate.py"
    spec = importlib.util.spec_from_file_location("perf_gate", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.path[:]
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


class TestReplayGate:
    """``_gate_microbench`` holds the plan microbenchmark's ``speedup``
    (cold recursion over schedule replay) to ``--min-replay-speedup``."""

    @pytest.mark.parametrize("speedup,code", [
        (3.99, 3), (4.0, 0), (6.1, 0), (0.5, 3)])
    def test_floor(self, speedup, code, capsys):
        from argparse import Namespace

        micro = {"benchmark": "mm_fc", "speedup": speedup,
                 "cold_recursive_s": 0.4, "warm_replay_s": 0.4 / speedup,
                 "batched_steps": 640}
        gate = _perf_gate()
        assert gate._gate_microbench(
            micro, Namespace(min_replay_speedup=4.0)) == code
        out = capsys.readouterr().out
        assert ("REGRESSED" in out) == (code == 3)

    def test_report_without_microbench_passes(self):
        from argparse import Namespace

        assert _perf_gate()._gate_microbench(
            {}, Namespace(min_replay_speedup=4.0)) == 0


class TestSentinelWiring:
    def test_polarity_of_batching_metrics(self):
        """The replay speedup regresses downward; the metric the classic
        loop fed is gone from the polarity table."""
        from repro.obs.sentinel import POLARITY_TABLE

        assert metric_polarity("replay_speedup") == "down_bad"
        assert "batched_speedup" not in dict(POLARITY_TABLE)

    def test_speedup_collapse_flags_regression(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i, v in enumerate([5.8] * 10 + [2.1]):
            ledger.record("test", machine="Cambricon-F100", ts=1000.0 + i,
                          metrics={"mm_fc": {"replay_speedup": v}})
        [entry] = analyze_history(ledger).entries
        assert entry.status == "regression"

    def test_points_from_report_extracts_batching_metrics(self):
        """The microbenchmark's two series, ``replay_speedup`` and
        ``warm_replay_s``; no point for the deleted classic-loop fields."""
        doc = {
            "benchmark": "paper-suite", "machine": "Cambricon-F1",
            "notes": {"plan_microbench": {
                "benchmark": "mm_fc",
                "speedup": 5.9, "warm_replay_s": 0.07,
                "batched_speedup": 2.3, "warm_batched_s": 0.04,
            }},
        }
        assert report_metrics(doc) == {
            "mm_fc": {"replay_speedup": 5.9, "warm_replay_s": 0.07}}
