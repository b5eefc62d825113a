"""Vectorized leaf-batch replay tests: suite-wide bit-identity, the
per-opcode stacked kernels, the tensor arena, schema-v3 cache
round-trips/poisoning, batched counters, the default engine contract,
and the sentinel wiring for the new metrics.

The acceptance bar for the vectorization pass is *bit-identity*: for
every paper benchmark on both machine instances, the default replay
(through the schedule) must produce byte-for-byte the arrays recursion
and the classic step loop produce, and every opcode's stacked kernel
must reproduce ``k`` reference calls byte for byte in every operand
layout a gather can hand it.  Everything else here defends the
supporting structure -- every lowered fusion group runs stacked, the
arena never aliases two concurrently-live tensors, a tampered
BatchedStep table can never steer the executor, and a collapse of
``batched_speedup`` trips the perf-trend sentinel.
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
from repro.core.verify import bit_identical
from repro.obs import RunHistory, analyze_history, metric_polarity
from repro.obs.history import points_from_report
from repro.ops.batch import _BATCHED_KERNELS, batched_kernel_for
from repro.ops.dispatch import kernel_for
from repro.plan import (
    DiskPlanCache,
    PlanCache,
    PlanFormatError,
    batched_table,
    compile_cached,
    compile_program,
    machine_fingerprint,
    plan_from_doc,
)
from repro.plan.batch import _build_access, _SliceTable
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


def _replay_outputs(machine, w, plan, batch=True):
    """Run the workload (replaying ``plan``, or recursing when it is
    ``None``) and return the executor and its output arrays."""
    rng = np.random.default_rng(0)
    store = TensorStore()
    for t in _bound_tensors(w):
        store.bind(t, rng.normal(size=t.shape))
    executor = FractalExecutor(machine, store)
    executor.run_program(w.program, plan=plan, batch=batch)
    return executor, {n: store.read(t.region()) for n, t in w.outputs.items()}


def _assert_bit_identical_to_recursion_and_classic(machine, w, plan):
    """Default replay == recursion == ``batch=False``, byte for byte;
    returns the executor of the default replay."""
    _, recursive = _replay_outputs(machine, w, None)
    _, classic = _replay_outputs(machine, w, plan, batch=False)
    executor, default = _replay_outputs(machine, w, plan)
    for out_name in recursive:
        assert bit_identical(classic[out_name], recursive[out_name]), out_name
        assert bit_identical(default[out_name], recursive[out_name]), out_name
    return executor


# -- suite-wide bit-identity --------------------------------------------------

class TestSuiteBitIdentity:
    """Default (schedule) replay == recursion == the classic loop, byte
    for byte, on every (benchmark, machine) combination of the paper
    suite."""

    @pytest.mark.parametrize("machine_key", ["f1", "f100"])
    @pytest.mark.parametrize("name", SUITE)
    def test_batched_replay_bit_identical(self, machine_key, name):
        machine, w, plan = _suite_plan(machine_key, name)
        executor = _assert_bit_identical_to_recursion_and_classic(
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


def _layouts(n_in):
    """Per-operand gather layouts: ``stack`` lanes tile a tensor along its
    first axis (a contiguous stack), ``broadcast`` every lane reads one
    region (a stride-0 stack), ``view`` lanes tile a tensor along its last
    axis (non-contiguous lane views), ``loop`` lanes live on separate
    tensors (a loop-gathered copy)."""
    yield ("stack",) * n_in
    yield ("loop",) * n_in
    yield ("view",) * n_in
    for j in range(n_in):
        for rest in ("stack", "view"):
            modes = [rest] * n_in
            modes[j] = "broadcast"
            yield tuple(modes)


def _lane_regions(mode, shape, k, name):
    """``k`` lane regions of one operand position laid out as ``mode``."""
    if mode == "broadcast":
        return [Tensor(name, shape).region()] * k
    if mode == "loop":
        return [Tensor(f"{name}{i}", shape).region() for i in range(k)]
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
    operands = [_build_access(p, slices).gather(store) for p in positions]
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
                opcode, shapes, out_shape, attrs, modes, k=4)
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
            fused = {i for b in plan.batched for i in range(b.start, b.stop)}
            assert any(b.opcode is Opcode.CV2D for b in plan.batched)
            assert not [item for item in schedule.items
                        if not item.batched and item.start in fused]
            assert schedule.batched_lanes == len(fused)
            executor = _assert_bit_identical_to_recursion_and_classic(
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
    bit-identical to recursion and the classic loop.  Returns the
    schedule's BatchedItems."""
    machine = tiny_machine()
    plan = compile_program(machine, program)
    items = [i for i in plan.replay_schedule().items if i.batched]
    assert len(items) == len(plan.batched)
    results = []
    for use_plan, batch in ((None, True), (plan, False), (plan, True)):
        store = TensorStore()
        for tensor, data in bindings:
            store.bind(tensor, data)
        FractalExecutor(machine, store).run_program(program, plan=use_plan,
                                                    batch=batch)
        results.append([store.read(r) for inst in program
                        for r in inst.outputs])
    for got in results[1:]:
        for g, want in zip(got, results[0]):
            assert bit_identical(g, want)
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


# -- the tensor arena ---------------------------------------------------------

class TestArenaLayout:
    """K-Means on F1 owns hundreds of small intermediates -- enough churn
    to exercise recycling, re-zeroing, and the free-list coalescing."""

    def _schedule(self, name="K-Means"):
        _, _, plan = _suite_plan("f1", name)
        return plan, plan.replay_schedule()

    def _live_intervals(self, plan, items):
        """Independent re-derivation of each plan-owned tensor's live
        interval in schedule-item ordinals (the allocator's oracle)."""
        external = set(plan.external_uids())
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        sizes: Dict[int, int] = {}
        for ordinal, item in enumerate(items):
            steps = plan.steps[item.start:item.stop]
            for step in steps:
                for r in list(step.inst.inputs) + list(step.inst.outputs):
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
        """ResNet-152 interleaves stacked groups with unfused singles:
        the oracle must hold across both item kinds."""
        plan, schedule = self._schedule("ResNet-152")
        kinds = [item.batched for item in schedule.items]
        assert {(True, False), (False, True)} <= set(zip(kinds, kinds[1:]))
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

    def test_attach_arena_binds_views_of_one_buffer(self):
        _, schedule = self._schedule()
        arena = schedule.arena
        store = TensorStore()
        views = store.attach_arena(arena.bindings, arena.total_elems)
        assert store.arena_bytes == arena.nbytes
        assert len(views) == len(arena.bindings)
        for (tensor, _off), view in zip(arena.bindings, views):
            assert view.shape == tensor.shape
            assert view.base is not None  # a view, not an allocation
            np.testing.assert_array_equal(store.read(tensor.region()), view)


# -- schema v3: disk round-trip, migration, poisoning -------------------------

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
    def test_doc_round_trip_preserves_batched_table(self):
        machine, program, plan = _groupy_plan()
        doc = json.loads(json.dumps(plan.to_doc()))
        assert doc["version"] == 3 and doc["batched"]
        back = plan_from_doc(doc, plan.externals,
                             machine_fingerprint=plan.machine_fingerprint)
        assert batched_table(back.batched) == batched_table(plan.batched)
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

    def test_tampered_batched_table_is_rejected(self):
        _, _, plan = _groupy_plan()
        doc = plan.to_doc()
        doc["batched"][0]["lanes"] += 1
        with pytest.raises(PlanFormatError,
                           match="batched-step table does not match"):
            plan_from_doc(doc, plan.externals)

    def test_missing_batched_table_is_rejected(self):
        _, _, plan = _groupy_plan()
        doc = plan.to_doc()
        del doc["batched"]
        with pytest.raises(PlanFormatError, match="batched-step table"):
            plan_from_doc(doc, plan.externals)

    def test_poisoned_disk_entry_warns_and_recompiles(self, tmp_path):
        machine, program, plan = _groupy_plan()
        disk = DiskPlanCache(tmp_path)
        fp = machine_fingerprint(machine)
        digest = program_digest(program)
        disk.store(fp, digest, plan)
        path = disk._path(fp, digest)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["batched"][0]["stop"] += 1  # cache poisoning
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="batched-step table"):
            fresh = compile_cached(machine, program, disk_dir=tmp_path,
                                   memory_cache=PlanCache())
        assert batched_table(fresh.batched) == batched_table(plan.batched)

    def test_v2_entry_is_a_silent_miss(self, tmp_path):
        """Pre-batching (v2) cache files live under a v2 filename: the v3
        lookup never opens them, so migration is a plain miss + recompile
        with no warning noise."""
        machine, program, plan = _groupy_plan()
        disk = DiskPlanCache(tmp_path)
        fp = machine_fingerprint(machine)
        digest = program_digest(program)
        v3_path = disk._path(fp, digest)
        assert "plan-v3-" in v3_path.name
        v2_path = v3_path.parent / v3_path.name.replace("plan-v3-",
                                                        "plan-v2-")
        v2_path.parent.mkdir(parents=True, exist_ok=True)
        v2_doc = plan.to_doc()
        v2_doc["version"] = 2
        del v2_doc["batched"]
        v2_path.write_text(json.dumps(v2_doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            fresh = compile_cached(machine, program, disk_dir=tmp_path,
                                   memory_cache=PlanCache())
        assert fresh.n_steps == plan.n_steps
        assert v3_path.exists()  # the recompile persisted a v3 entry
        assert v2_path.exists()  # ... without touching the stale v2 one

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
        """The vectorized engine honors the classic loop's observability
        contract: one watchdog beat per plan step (bulk per group) and
        strided ``replay.progress`` events."""
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


# -- sentinel / run-history wiring --------------------------------------------

class TestSentinelWiring:
    def test_polarity_of_batching_metrics(self):
        assert metric_polarity("batched_speedup") == "down_bad"
        assert metric_polarity("replay_speedup") == "down_bad"

    def test_speedup_collapse_flags_regression(self, tmp_path):
        history = RunHistory(tmp_path)
        history.append([
            {"benchmark": "mm_fc", "machine": "Cambricon-F100",
             "metric": "batched_speedup", "value": v, "ts": 1000.0 + i,
             "source": "test"}
            for i, v in enumerate([2.3] * 10 + [1.05])
        ])
        [entry] = analyze_history(history).entries
        assert entry.status == "regression"

    def test_points_from_report_extracts_batching_metrics(self):
        doc = {
            "benchmark": "paper-suite", "machine": "Cambricon-F1",
            "notes": {"plan_microbench": {
                "benchmark": "mm_fc",
                "speedup": 2.9, "warm_replay_s": 0.09,
                "batched_speedup": 2.3, "warm_batched_s": 0.04,
            }},
        }
        points = {p["metric"]: p for p in points_from_report(doc)}
        assert points["batched_speedup"]["value"] == pytest.approx(2.3)
        assert points["batched_speedup"]["benchmark"] == "mm_fc"
        assert points["warm_batched_s"]["value"] == pytest.approx(0.04)
