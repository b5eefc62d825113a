"""Plan dataflow-analyzer tests: P1xx diagnostics, fusion legality,
static zero-copy proofs, live-byte peak, document round-trips, the
suite-wide self-clean regression, the lattice-keyed run pass against the
box-index scans, and fuzz harnesses whose verdicts are checked against
brute-force region-overlap oracles."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_machine
from repro import (
    FractalExecutor,
    Instruction,
    Opcode,
    Tensor,
    TensorStore,
    cambricon_f1,
    cambricon_f100,
)
from repro.core.tensor import Region
from repro.plan import (
    DiskPlanCache,
    FractalPlan,
    PlanStats,
    PlanStep,
    analyze_plan,
    annotate_plan,
    compile_cached,
    compile_program,
    machine_fingerprint,
    plan_from_doc,
    verify_plan,
)
from repro.plan import analysis as plan_analysis
from repro.plan.regions import region_table
from repro.workloads import profile_benchmark
from repro.workloads.suite import PROFILE_BENCHMARKS

pytestmark = pytest.mark.plan


# -- hand-built plan helpers --------------------------------------------------

def _step(inst, kind="kernel", level=1):
    return PlanStep.from_instruction(kind, inst, level)


def _plan(steps, externals):
    return FractalPlan(
        machine_fingerprint=("test",),
        signature_digest="f" * 64,
        steps=list(steps),
        stats=PlanStats(),
        externals=list(externals),
    )


def _act(src: Region, dst: Region, **attrs) -> Instruction:
    return Instruction(Opcode.ACT1D, (src,), (dst,), dict(attrs))


def _add(a: Region, b: Region, dst: Region, **attrs) -> Instruction:
    return Instruction(Opcode.ADD1D, (a, b), (dst,), dict(attrs))


def _codes(analysis):
    return sorted({d.code for d in analysis.result.diagnostics})


# -- injected hazards ---------------------------------------------------------

class TestInjectedHazards:
    def test_p100_write_write_race_in_isomorphic_run(self):
        x = Tensor("x", (8, 8))
        y = Tensor("y", (8, 8))
        # Two isomorphic steps (same signature) writing the same bytes.
        steps = [
            _step(_act(Region(x, ((0, 4), (0, 8))), Region(y, ((0, 4), (0, 8))))),
            _step(_act(Region(x, ((4, 8), (0, 8))), Region(y, ((0, 4), (0, 8))))),
        ]
        a = analyze_plan(_plan(steps, [x, y]))
        assert _codes(a) == ["P100"]
        assert [d.index for d in a.result.errors] == [1]

    def test_disjoint_isomorphic_run_is_clean_and_fusable(self):
        x = Tensor("x", (8, 8))
        y = Tensor("y", (8, 8))
        steps = [
            _step(_act(Region(x, ((0, 4), (0, 8))), Region(y, ((0, 4), (0, 8))))),
            _step(_act(Region(x, ((4, 8), (0, 8))), Region(y, ((4, 8), (0, 8))))),
        ]
        a = analyze_plan(_plan(steps, [x, y]))
        assert a.result.diagnostics == []
        assert a.fusion_groups == [(0, 2)]
        assert a.safe_zero_copy == [True, True]

    def test_accumulate_run_exempt_from_p100(self):
        # k-split matmul parts legitimately accumulate into one region.
        x = Tensor("x", (8,))
        y = Tensor("y", (8,))
        steps = [
            _step(_act(x.region(), y.region())),
            _step(_act(x.region(), y.region(), accumulate=True)),
        ]
        steps = [steps[0], steps[1]]
        a = analyze_plan(_plan(steps, [x, y]))
        assert "P100" not in _codes(a)

    def test_p110_self_alias_blocks_zero_copy(self):
        x = Tensor("x", (8,))
        steps = [_step(_act(Region(x, ((0, 8),)), Region(x, ((0, 4),))))]
        a = analyze_plan(_plan(steps, [x]))
        assert _codes(a) == ["P110"]
        assert a.safe_zero_copy == [False]
        assert a.result.warnings and not a.result.errors

    def test_p120_dead_step(self):
        x = Tensor("x", (8,))
        dead = Tensor("dead", (8,))  # not external, never read
        y = Tensor("y", (8,))
        steps = [
            _step(_act(x.region(), dead.region())),
            _step(_act(x.region(), y.region())),
        ]
        a = analyze_plan(_plan(steps, [x, y]))
        assert _codes(a) == ["P120"]
        assert [d.index for d in a.result.diagnostics] == [0]

    def test_external_sink_is_not_dead(self):
        x = Tensor("x", (8,))
        y = Tensor("y", (8,))
        a = analyze_plan(_plan([_step(_act(x.region(), y.region()))], [x, y]))
        assert a.result.diagnostics == []

    def test_p130_read_of_open_accumulation(self):
        x = Tensor("x", (8,))
        acc = Tensor("acc", (8,))
        out = Tensor("out", (8,))
        steps = [
            _step(_act(x.region(), acc.region())),                     # init
            _step(_act(acc.region(), out.region())),                   # read mid-chain
            _step(_act(x.region(), acc.region(), accumulate=True)),    # += later
        ]
        a = analyze_plan(_plan(steps, [x, out]))
        assert "P130" in _codes(a)
        assert 1 in [d.index for d in a.result.errors]

    def test_read_after_chain_reinit_is_clean(self):
        # chain completes, is read, then a NEW chain re-inits: no hazard.
        x = Tensor("x", (8,))
        acc = Tensor("acc", (8,))
        out = Tensor("out", (8,))
        out2 = Tensor("out2", (8,))
        steps = [
            _step(_act(x.region(), acc.region())),                     # chain 1 init
            _step(_act(x.region(), acc.region(), accumulate=True)),    # chain 1 +=
            _step(_act(acc.region(), out.region())),                   # read: chain done
            _step(_act(x.region(), acc.region())),                     # chain 2 init
            _step(_act(x.region(), acc.region(), accumulate=True)),    # chain 2 +=
            _step(_act(acc.region(), out2.region())),
        ]
        a = analyze_plan(_plan(steps, [x, out, out2]))
        assert "P130" not in _codes(a)


# -- fusion legality ----------------------------------------------------------

class TestFusionGroups:
    def test_mm_fc_has_nonempty_groups(self):
        w = profile_benchmark("mm_fc")
        plan = compile_program(cambricon_f1(), w.program)
        assert plan.fusion_groups, "mm_fc must produce fusable runs"
        assert all(stop - start >= 2 for start, stop in plan.fusion_groups)

    def test_groups_are_brute_force_legal(self):
        w = profile_benchmark("mm_fc")
        plan = compile_program(cambricon_f1(), w.program)
        for start, stop in plan.fusion_groups:
            group = plan.steps[start:stop]
            key = {(s.kind, s.level, s.inst.signature()) for s in group}
            assert len(key) == 1, "fused steps must be isomorphic"
            outputs = [o for s in group for o in s.inst.outputs]
            inputs = [i for s in group for i in s.inst.inputs]
            for i, a in enumerate(outputs):
                for b in outputs[i + 1:]:
                    assert not a.overlaps(b), "group outputs must be disjoint"
            for r in inputs:
                for o in outputs:
                    assert not r.overlaps(o), \
                        "no producer->consumer pair inside a batch"

    def test_producer_consumer_breaks_group(self):
        x = Tensor("x", (8,))
        mid = Tensor("mid", (8,))
        y = Tensor("y", (8,))
        steps = [_step(_act(x.region(), mid.region())),
                 _step(_act(mid.region(), y.region()))]
        a = analyze_plan(_plan(steps, [x, y]))
        assert a.fusion_groups == []


# -- lattice-keyed run decisions ----------------------------------------------

def _scan_products(plan):
    """P100 step indices and fusion groups as the box-index scans decide
    them over every isomorphic run: the oracle for the keyed pass."""
    runs = region_table(plan).runs()
    races = {d.index for d in plan_analysis._check_races(plan.steps, runs)}
    return races, plan_analysis._fusion_groups(plan.steps, runs)


def _races(analysis):
    return {d.index for d in analysis.result.diagnostics if d.code == "P100"}


def _counting(scan, seen):
    """``scan`` recording every run it is handed in ``seen``."""
    def counted(steps, runs):
        seen.extend(runs)
        return scan(steps, runs)
    return counted


def _tiles(x, y, origins):
    """Act1D lanes ``y[o:o+2] <- x[o:o+2]``, one per origin."""
    return [_step(_act(Region(x, ((o, o + 2),)), Region(y, ((o, o + 2),))))
            for o in origins]


class TestLatticeRuns:
    """One pinned run per case of the keyed rule.  Each asserts the
    products and that they equal the box-index scans over every run."""

    def _check(self, steps, externals, races, groups, keyed=True):
        plan = _plan(steps, externals)
        table = region_table(plan)
        runs = [r for r in table.runs() if r[1] - r[0] >= 2]
        assert len(runs) == 1
        facts = plan_analysis._lattice_rows(table, plan.steps, *runs[0])
        assert (facts is not None) == keyed
        a = analyze_plan(plan)
        assert _races(a) == races
        assert a.fusion_groups == groups
        assert _scan_products(plan) == (races, groups)
        return a

    def test_a_lattice_tiles_form_one_group(self):
        x, y = Tensor("x", (8,)), Tensor("y", (8,))
        a = self._check(_tiles(x, y, (0, 2, 4, 6)), [x, y],
                        races=set(), groups=[(0, 4)])
        assert a.result.diagnostics == []

    def test_b_unaligned_same_shape_writes_race(self):
        # y[0:4] and y[2:6] have one shape but overlap with unequal
        # bounds: the alignment test sends the run to the scan.
        x, y = Tensor("x", (8,)), Tensor("y", (8,))
        steps = [_step(_act(Region(x, ((0, 4),)), Region(y, ((0, 4),)))),
                 _step(_act(Region(x, ((4, 8),)), Region(y, ((2, 6),))))]
        self._check(steps, [x, y], races={1}, groups=[], keyed=False)

    def test_c_reduction_chain_forms_no_group(self):
        # LFU-style: lane j adds a part into a fresh partial, reading the
        # partial lane j-1 wrote.
        parts = [Tensor(f"p{j}", (4,)) for j in range(5)]
        reds = [Tensor(f"r{j}", (4,)) for j in range(4)]
        steps = [_step(_add(parts[0].region(), parts[1].region(),
                            reds[0].region()), kind="lfu")]
        for j in range(1, 4):
            steps.append(_step(_add(reds[j - 1].region(),
                                    parts[j + 1].region(),
                                    reds[j].region()), kind="lfu"))
        self._check(steps, parts + reds[-1:], races=set(), groups=[])

    def test_d_repeated_tile_races_and_splits_group(self):
        x, y = Tensor("x", (8,)), Tensor("y", (8,))
        self._check(_tiles(x, y, (0, 2, 0, 4, 6)), [x, y],
                    races={2}, groups=[(0, 2), (2, 5)])

    def test_e_accumulate_onto_one_tile_is_exempt_but_unfused(self):
        x, y = Tensor("x", (8,)), Tensor("y", (2,))
        steps = [_step(_act(Region(x, ((o, o + 2),)), y.region(),
                            accumulate=True)) for o in (0, 2, 4)]
        a = self._check(steps, [x, y], races=set(), groups=[])
        assert a.result.diagnostics == []

    def test_f_self_aliasing_lane_splits_groups(self):
        x, y = Tensor("x", (12,)), Tensor("y", (12,))
        steps = _tiles(x, y, (0, 2))
        steps.append(_step(_act(Region(y, ((4, 6),)), Region(y, ((4, 6),)))))
        steps += _tiles(x, y, (6, 8))
        a = self._check(steps, [x, y], races=set(), groups=[(0, 2), (3, 5)])
        assert [(d.code, d.index) for d in a.result.diagnostics] == \
            [("P110", 2)]
        assert a.safe_zero_copy == [True, True, False, True, True]

    def test_g_two_box_shapes_on_a_written_tensor_are_scanned(self):
        # Lanes read 4-wide boxes of the tensor they write 2-wide tiles
        # of; lane 1 reads the bytes lane 0 writes.
        y = Tensor("y", (16,))
        steps = [_step(_act(Region(y, ((lo, lo + 4),)),
                            Region(y, ((out, out + 2),))))
                 for lo, out in ((8, 0), (0, 4), (12, 6))]
        self._check(steps, [y], races=set(), groups=[(1, 3)], keyed=False)

    def test_h_overlapping_outputs_of_one_step_are_scanned(self):
        x, y, z = (Tensor(n, (8,)) for n in "xyz")
        steps = [
            _step(Instruction(Opcode.ACT1D, (Region(x, ((0, 4),)),),
                              (Region(y, ((0, 4),)), Region(y, ((2, 6),))))),
            _step(Instruction(Opcode.ACT1D, (Region(x, ((4, 8),)),),
                              (Region(z, ((0, 4),)), Region(z, ((2, 6),))))),
        ]
        self._check(steps, [x, y, z], races={0, 1}, groups=[(0, 2)],
                    keyed=False)


# -- static zero-copy proofs in the executor ----------------------------------

class TestStaticZeroCopy:
    def test_replay_skips_guard_and_stays_bit_identical(self):
        w = profile_benchmark("mm_fc")
        machine = cambricon_f1()
        plan = compile_program(machine, w.program)
        assert all(s.safe_zero_copy for s in plan.steps)

        rng = np.random.default_rng(3)
        bound = list(w.inputs.values()) + list(w.params.values())
        arrays = {t.uid: rng.normal(size=t.shape) for t in bound}
        outs, stores = [], []
        for use_plan in (None, plan):
            store = TensorStore()
            for t in bound:
                store.bind(t, arrays[t.uid])
            FractalExecutor(machine, store).run_program(w.program,
                                                        plan=use_plan)
            outs.append({n: store.read(t.region())
                         for n, t in w.outputs.items()})
            stores.append(store)
        for name in outs[0]:
            assert np.array_equal(outs[0][name], outs[1][name])
        assert stores[1].static_zero_copy > 0
        # the aliasing guard never fired on either path (reading the
        # outputs at the end accounts for the only copied reads).
        assert stores[1].copied_reads == len(outs[1])

    def test_unsafe_step_still_uses_runtime_guard(self):
        # a self-aliasing step must keep the copy path on replay
        x = Tensor("x", (8,))
        y = Tensor("y", (8,))
        inst = _act(Region(x, ((0, 8),)), Region(x, ((0, 8),)))  # in-place
        sink = _act(x.region(), y.region())
        plan = _plan([_step(inst), _step(sink)], [x, y])
        annotate_plan(plan)
        assert [s.safe_zero_copy for s in plan.steps] == [False, True]

        machine = tiny_machine()
        store = TensorStore()
        store.bind(x, np.random.default_rng(0).normal(size=(8,)))
        FractalExecutor(machine, store).run_plan(plan)
        assert store.copied_reads >= 1          # the guard copied x
        assert store.static_zero_copy == 1      # only the sink skipped it


# -- memory high-water mark ---------------------------------------------------

class TestPeakLiveBytes:
    def test_matches_brute_force_on_compiled_plan(self):
        w = profile_benchmark("mm_fc")
        plan = compile_program(cambricon_f1(), w.program)
        external = set(plan.external_uids())
        sizes, first, last = {}, {}, {}
        for t in plan.externals:
            sizes[t.uid] = t.nbytes
        for i, step in enumerate(plan.steps):
            for r in step.inst.inputs + step.inst.outputs:
                sizes.setdefault(r.tensor.uid, r.tensor.nbytes)
                first.setdefault(r.tensor.uid, i)
                last[r.tensor.uid] = i
        peak = 0
        for i in range(plan.n_steps):
            live = sum(
                size for uid, size in sizes.items()
                if uid in external or (first.get(uid, -1) <= i <= last.get(uid, -1)))
            peak = max(peak, live)
        assert plan.stats.peak_live_bytes == peak > 0

    def test_partials_free_after_last_touch(self):
        x = Tensor("x", (1024,))
        t1 = Tensor("t1", (1024,))
        t2 = Tensor("t2", (1024,))
        y = Tensor("y", (1024,))
        steps = [
            _step(_act(x.region(), t1.region())),
            _step(_act(t1.region(), t2.region())),
            _step(_act(t2.region(), y.region())),
        ]
        plan = _plan(steps, [x, y])
        a = analyze_plan(plan)
        # externals (x, y) resident throughout; at most one partial pair
        # overlaps at any step: peak = x + y + t1 + t2 at step 1.
        assert a.peak_live_bytes == x.nbytes + y.nbytes + t1.nbytes + t2.nbytes


# -- serialization, annotation, verification ----------------------------------

class TestRoundTripAndVerify:
    def _compiled(self):
        w = profile_benchmark("mm_fc")
        return w, compile_program(cambricon_f1(), w.program)

    def test_doc_round_trip_preserves_products(self):
        w, plan = self._compiled()
        doc = json.loads(json.dumps(plan.to_doc()))
        back = plan_from_doc(doc, plan.externals)
        assert [s.safe_zero_copy for s in back.steps] == \
               [s.safe_zero_copy for s in plan.steps]
        assert back.fusion_groups == plan.fusion_groups
        assert back.analysis == plan.analysis
        assert back.stats.peak_live_bytes == plan.stats.peak_live_bytes
        verify_plan(back)

    def test_rebind_preserves_products(self):
        w, plan = self._compiled()
        clones = [Tensor(t.name, t.shape, t.dtype, space=t.space)
                  for t in plan.externals]
        rebound = plan.rebind(clones)
        assert [s.safe_zero_copy for s in rebound.steps] == \
               [s.safe_zero_copy for s in plan.steps]
        assert rebound.fusion_groups == plan.fusion_groups
        verify_plan(rebound)

    def test_verify_rejects_tampered_safe_flag(self):
        w, plan = self._compiled()
        flags = plan.steps.safe.copy()
        flags[0] = False
        plan.steps.set_safe(flags)
        with pytest.raises(ValueError):
            verify_plan(plan)

    def test_verify_rejects_tampered_fusion_groups(self):
        w, plan = self._compiled()
        plan.fusion_groups = plan.fusion_groups[:-1]
        with pytest.raises(ValueError):
            verify_plan(plan)

    def test_verify_rejects_missing_analysis(self):
        w, plan = self._compiled()
        plan.analysis = None
        with pytest.raises(ValueError):
            verify_plan(plan)

    def test_disk_cache_rejects_tampered_entry(self, tmp_path):
        w, plan = self._compiled()
        fp = machine_fingerprint(cambricon_f1())
        disk = DiskPlanCache(tmp_path)
        disk.store(fp, plan.signature_digest, plan)
        path = disk._path(fp, plan.signature_digest)
        doc = json.loads(path.read_text())
        doc["steps"][0]["safe"] = not doc["steps"][0]["safe"]
        path.write_text(json.dumps(doc))
        with pytest.warns(RuntimeWarning, match="re-verification"):
            assert disk.load(fp, plan.signature_digest,
                             plan.externals) is None

    def test_disk_cache_round_trips_clean_entry(self, tmp_path):
        w, plan = self._compiled()
        fp = machine_fingerprint(cambricon_f1())
        disk = DiskPlanCache(tmp_path)
        disk.store(fp, plan.signature_digest, plan)
        back = disk.load(fp, plan.signature_digest, plan.externals)
        assert back is not None
        assert back.fusion_groups == plan.fusion_groups


# -- suite-wide self-clean regression -----------------------------------------

@pytest.mark.parametrize("machine_factory",
                         [cambricon_f1, cambricon_f100],
                         ids=["f1", "f100"])
@pytest.mark.parametrize("bench", sorted(PROFILE_BENCHMARKS))
def test_suite_benchmark_is_analyzer_clean(bench, machine_factory):
    """Every shipped benchmark compiles to a plan with zero P1xx findings
    on both machine shapes (uses the session plan cache: the analysis ran
    at compile time and is stamped on the plan)."""
    w = profile_benchmark(bench)
    plan = compile_cached(machine_factory(), w.program)
    assert plan.analysis is not None
    assert plan.analysis["n_errors"] == 0
    assert plan.analysis["n_warnings"] == 0
    assert plan.analysis["diagnostics"] == []
    assert plan.analysis["safe_zero_copy_steps"] == plan.n_steps
    assert plan.stats.peak_live_bytes > 0


@pytest.mark.parametrize("machine_factory",
                         [cambricon_f1, cambricon_f100],
                         ids=["f1", "f100"])
@pytest.mark.parametrize("bench", sorted(PROFILE_BENCHMARKS))
def test_suite_runs_never_reach_the_scan(bench, machine_factory, monkeypatch):
    """Every isomorphic run of every shipped plan is decided by lattice
    keys, with the products the box-index scans derive over every run."""
    plan = compile_cached(machine_factory(), profile_benchmark(bench).program)
    expected = _scan_products(plan)
    scanned = []
    for name in ("_check_races", "_fusion_groups"):
        monkeypatch.setattr(plan_analysis, name,
                            _counting(getattr(plan_analysis, name), scanned))
    a = analyze_plan(plan)
    assert scanned == []
    assert (_races(a), a.fusion_groups) == expected
    assert a.digest() == plan.analysis["digest"]


# -- fuzz vs brute-force oracles ----------------------------------------------

def _oracle_safe(step):
    return not any(
        r.tensor.uid == o.tensor.uid and r.overlaps(o)
        for r in step.inst.inputs for o in step.inst.outputs)


def _oracle_dead(plan):
    """Step indices whose outputs nothing consumes (naive O(n^2))."""
    external = set(plan.external_uids())
    dead = set()
    for i, step in enumerate(plan.steps):
        live = False
        for o in step.inst.outputs:
            if o.tensor.uid in external:
                live = True
                break
            for j in range(i + 1, plan.n_steps):
                later = plan.steps[j]
                consumers = list(later.inst.inputs)
                if later.accumulate:
                    consumers += list(later.inst.outputs)
                if any(c.tensor.uid == o.tensor.uid and c.overlaps(o)
                       for c in consumers):
                    live = True
                    break
            if live:
                break
        if not live:
            dead.add(i)
    return dead


def _oracle_runs(plan):
    """Maximal runs of consecutive steps with equal (kind, level,
    signature)."""
    steps = plan.steps
    start = 0
    while start < len(steps):
        key = (steps[start].kind, steps[start].level,
               steps[start].inst.signature())
        stop = start + 1
        while stop < len(steps) and (steps[stop].kind, steps[stop].level,
                                     steps[stop].inst.signature()) == key:
            stop += 1
        yield start, stop
        start = stop


def _oracle_races(plan):
    """Step indices racing an earlier step of their isomorphic run."""
    racy = set()
    steps = plan.steps
    for start, stop in _oracle_runs(plan):
        if not steps[start].accumulate:
            for j in range(start + 1, stop):
                for i in range(start, j):
                    hit = any(
                        a.tensor.uid == b.tensor.uid and a.overlaps(b)
                        for a in steps[i].inst.outputs
                        for b in steps[j].inst.outputs)
                    if hit:
                        racy.add(j)
                        break
    return racy


def _oracle_fusable(group):
    """Batching legality, pairwise: outputs of distinct steps are
    disjoint, and no input overlaps any output, its own step's included."""
    for i, step in enumerate(group):
        for o in step.inst.outputs:
            if any(o.overlaps(r) for s in group for r in s.inst.inputs):
                return False
            if any(o.overlaps(p)
                   for s in group[i + 1:] for p in s.inst.outputs):
                return False
    return True


def _oracle_groups(plan):
    """The greedy of ``_fusion_groups``' docstring, by pairwise overlap:
    grow a group over its isomorphic run while it stays fusable; a step
    that breaks it closes the group and may start the next one."""
    groups = []
    for start, stop in _oracle_runs(plan):
        g = start
        while g < stop:
            e = g
            while e < stop and _oracle_fusable(plan.steps[g:e + 1]):
                e += 1
            if e - g >= 2:
                groups.append((g, e))
                g = e
            else:
                g = max(e, g + 1)
    return groups


def _random_program(rng):
    """A random small-but-valid FISA program with region variety: slices,
    shared inputs, chained def-use, occasional dead writes."""
    n = int(rng.integers(8, 33)) * 2
    pool = [Tensor(f"t{i}", (n,)) for i in range(int(rng.integers(2, 5)))]
    program = []
    for _ in range(int(rng.integers(2, 7))):
        half = n // 2
        spans = [((0, n),), ((0, half),), ((half, n),)]
        src = Region(pool[int(rng.integers(len(pool)))],
                     spans[int(rng.integers(len(spans)))])
        dst_t = pool[int(rng.integers(len(pool)))]
        dst = Region(dst_t, src.bounds)
        if rng.random() < 0.5:
            other = Region(pool[int(rng.integers(len(pool)))], src.bounds)
            program.append(Instruction(Opcode.ADD1D, (src, other), (dst,)))
        else:
            program.append(Instruction(Opcode.ACT1D, (src,), (dst,)))
    return program


@pytest.mark.parametrize("seed", range(24))
def test_fuzz_analyzer_matches_oracles(seed):
    rng = np.random.default_rng(1000 + seed)
    program = _random_program(rng)
    machine = tiny_machine(fanouts=(2,), mems=(4096, 256))
    plan = compile_program(machine, program)  # must not crash
    a = analyze_plan(plan)

    assert a.safe_zero_copy == [_oracle_safe(s) for s in plan.steps]
    assert {d.index for d in a.result.diagnostics
            if d.code == "P120"} == _oracle_dead(plan)
    assert {d.index for d in a.result.diagnostics
            if d.code == "P100"} == _oracle_races(plan)
    # the analysis is self-consistent and round-trips
    verify_plan(plan)
    doc = json.loads(json.dumps(plan.to_doc()))
    verify_plan(plan_from_doc(doc, plan.externals))


def _lanes(draw, pool):
    """One run of two to eight isomorphic Act1D/Add1D lanes over the 1-D
    tensors of ``pool``."""
    n = pool[0].shape[0]
    size = draw(st.sampled_from((1, 2, 3, 4, 6)))
    on_lattice = draw(st.booleans())
    opcode = draw(st.sampled_from((Opcode.ACT1D, Opcode.ADD1D)))
    attrs = {"accumulate": True} if draw(st.booleans()) else {}

    def box():
        if on_lattice:
            lo = size * draw(st.integers(0, n // size - 1))
        else:
            lo = draw(st.integers(0, n - size))
        return Region(draw(st.sampled_from(pool)), ((lo, lo + size),))

    broadcast = box()
    outputs, steps = [], []
    for _ in range(draw(st.integers(2, 8))):
        inputs = []
        for _ in range(2 if opcode is Opcode.ADD1D else 1):
            source = draw(st.sampled_from(("box", "chain", "broadcast")))
            if source == "chain" and outputs:
                inputs.append(outputs[-1])
            elif source == "broadcast":
                inputs.append(broadcast)
            else:
                inputs.append(box())
        if outputs and draw(st.integers(0, 4)) == 0:
            out = draw(st.sampled_from(outputs))  # a repeated tile
        else:
            out = box()
        outputs.append(out)
        steps.append(_step(Instruction(opcode, tuple(inputs), (out,),
                                       dict(attrs))))
    return steps


@st.composite
def _isomorphic_lanes(draw):
    """A hand-built plan of one to three runs of isomorphic lanes over a
    few shared 1-D tensors: tile origins on or off a lattice, repeated
    tiles, chains (a lane reads the previous lane's output), broadcast
    operands (one box every lane reads), the accumulate flag."""
    pool = [Tensor(f"t{i}", (24,)) for i in range(draw(st.integers(1, 4)))]
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        steps += _lanes(draw, pool)
    return _plan(steps, pool)


@settings(deadline=None, max_examples=300)
@given(_isomorphic_lanes())
def test_fuzz_lattice_runs_match_pairwise_oracles(plan):
    a = analyze_plan(plan)
    assert a.safe_zero_copy == [_oracle_safe(s) for s in plan.steps]
    assert _races(a) == _oracle_races(plan)
    assert a.fusion_groups == _oracle_groups(plan)
