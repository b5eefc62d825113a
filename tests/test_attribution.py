"""Attribution-engine invariants (repro.perf.attribution).

The contract under test: the critical-path walk is *exact* (segments tile
the makespan with zero gap), the taxonomy fractions sum to 1, the result
is deterministic across fresh simulators, and machine configurations
engineered to starve a resource are classified as bound by it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (Instruction, Opcode, Tensor, cambricon_f1, cambricon_f100,
                   custom_machine)
from repro.core.machine import GB, KB, MB
from repro.perf import (
    CATEGORIES,
    attribute_report,
    attribute_schedule,
    attribution_section,
    critical_path,
)
from repro.perf.attribution import STAGE_CATEGORY
from repro.sim import FractalSimulator, simulator
from repro.sim.eventsim import EventDrivenPipeline
from repro.sim.pipeline import IDLE_CAUSES, StageTimes, schedule_pipeline
from repro.workloads import PAPER_BENCHMARKS, mm_fc_workload, paper_benchmark

pytestmark = pytest.mark.perf

durations = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def stage_strategy(max_inst=8):
    return st.lists(
        st.builds(
            StageTimes,
            decode=durations,
            load=durations,
            exec=durations,
            reduce=durations,
            writeback=durations,
            exec_fill=st.floats(0.0, 3.0),
            pre_assignable=st.booleans(),
        ),
        min_size=0, max_size=max_inst,
    )


def matmul_inst(m, k, n):
    a, b, c = Tensor("a", (m, k)), Tensor("b", (k, n)), Tensor("c", (m, n))
    return Instruction(Opcode.MATMUL, (a.region(), b.region()), (c.region(),))


def machine(bw_scale=1.0, peak=0.466e12):
    return custom_machine(
        "attr-test", fanouts=[2, 4],
        mem_bytes=[64 * MB, 4 * MB, 256 * KB],
        bandwidths=[64 * GB * bw_scale] * 3,
        core_peak_ops=peak)


class TestCriticalPathWalk:
    def test_empty_stream(self):
        assert critical_path([], []) == []

    def test_single_instruction_tiles_makespan(self):
        stages = [StageTimes(decode=1, load=2, exec=3, reduce=4, writeback=5)]
        sched = schedule_pipeline(stages)
        segs = critical_path(sched.instructions, stages)
        assert segs[0].start == 0.0
        assert segs[-1].end == sched.total_time == 15.0
        for a, b in zip(segs, segs[1:]):
            assert a.end == b.start  # exact, no gap/overlap
        totals, _ = attribute_schedule(sched.instructions, stages)
        assert totals == {"control": 1.0, "dma": 7.0, "compute": 3.0,
                          "reduction": 4.0, "idle": 0.0}

    def test_raw_stall_crosses_instructions(self):
        """A stalled LD must trace back through the producer's WB."""
        stages = [
            StageTimes(load=1, exec=1, writeback=10),
            StageTimes(load=1, exec=1, stall_on=0, writeback=1),
        ]
        sched = schedule_pipeline(stages)
        totals, _ = attribute_schedule(sched.instructions, stages)
        # the 10s producer WB dominates and is charged to dma
        assert totals["dma"] >= 10.0
        assert sum(totals.values()) == pytest.approx(sched.total_time,
                                                     rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(stage_strategy())
    def test_sum_equals_makespan(self, stages):
        """Taxonomy seconds tile the makespan on arbitrary streams."""
        for concat in (True, False):
            sched = schedule_pipeline(stages, use_concatenation=concat)
            totals, _ = attribute_schedule(sched.instructions, stages)
            assert sum(totals.values()) == pytest.approx(
                sched.total_time, rel=1e-9, abs=1e-12)
            assert totals["idle"] == 0.0  # exact walk: guard bucket unused

    @settings(max_examples=100, deadline=None)
    @given(stage_strategy())
    def test_exec_path_within_compute(self, stages):
        sched = schedule_pipeline(stages)
        totals, exec_path = attribute_schedule(sched.instructions, stages)
        assert sum(s for _, s in exec_path) == pytest.approx(
            totals["compute"], rel=1e-9, abs=1e-12)
        assert all(0 <= i < len(stages) for i, _ in exec_path)


class TestIdleCauses:
    @settings(max_examples=150, deadline=None)
    @given(stage_strategy())
    def test_closed_form_matches_des(self, stages):
        """Idle-cause rollups agree between the recurrence and the DES."""
        closed = schedule_pipeline(stages).idle_causes
        des = EventDrivenPipeline(stages).idle_causes()
        assert set(closed) | set(des) <= set(IDLE_CAUSES)
        for key in set(closed) | set(des):
            assert closed.get(key, 0.0) == pytest.approx(
                des.get(key, 0.0), rel=1e-9, abs=1e-12), key

    def test_zero_width_stages_not_charged(self):
        """An idle channel with nothing queued is not a stall."""
        stages = [StageTimes(decode=1, exec=2),  # no LD/RD/WB work
                  StageTimes(decode=1, exec=2)]
        idle = schedule_pipeline(stages).idle_causes
        assert "dma_ld.decode_wait" not in idle
        assert "dma_wb.upstream_wait" not in idle


class TestWholeRunAttribution:
    def test_fractions_sum_to_one(self):
        rep = FractalSimulator(machine(), collect_profiles=False) \
            .simulate([matmul_inst(256, 256, 256)])
        attr = attribute_report(rep)
        assert attr.makespan == rep.total_time > 0
        assert sum(attr.totals().values()) == pytest.approx(
            attr.makespan, rel=1e-9)
        assert sum(attr.fractions().values()) == pytest.approx(1.0, rel=1e-9)
        assert set(attr.totals()) == set(CATEGORIES)

    def test_mm_fc_workload_sums(self):
        w = mm_fc_workload()
        rep = FractalSimulator(machine(), collect_profiles=False) \
            .simulate(w.program)
        section = attribution_section(rep)
        total = sum(sum(c.values()) for c in section["per_level_s"].values())
        assert total == pytest.approx(section["makespan_s"], rel=1e-9)

    def test_deterministic_across_fresh_simulators(self):
        prog = [matmul_inst(256, 256, 256)]
        a = attribution_section(
            FractalSimulator(machine(), collect_profiles=False).simulate(prog))
        b = attribution_section(
            FractalSimulator(machine(), collect_profiles=False).simulate(prog))
        assert a == b  # bitwise-identical, diffable run-to-run

    def test_starved_bandwidth_is_dma_bound(self):
        """1000x less link bandwidth must classify as dma-bound."""
        rep = FractalSimulator(machine(bw_scale=1e-3),
                               collect_profiles=False) \
            .simulate([matmul_inst(256, 256, 256)])
        attr = attribute_report(rep)
        assert attr.dominant() == "dma"
        assert attr.classify() == "dma-bound"
        assert attr.fractions()["dma"] > 0.5

    def test_fat_pipe_is_compute_bound(self):
        rep = FractalSimulator(machine(bw_scale=100.0),
                               collect_profiles=False) \
            .simulate([matmul_inst(256, 256, 256)])
        attr = attribute_report(rep)
        assert attr.classify() == "compute-bound"
        assert attr.fractions()["compute"] > 0.5

    def test_starving_shifts_share_toward_dma(self):
        """Monotonic direction: less bandwidth, larger dma share."""
        prog = [matmul_inst(256, 256, 256)]
        shares = []
        for bw in (100.0, 1.0, 1e-3):
            rep = FractalSimulator(machine(bw_scale=bw),
                                   collect_profiles=False).simulate(prog)
            shares.append(attribute_report(rep).fractions()["dma"])
        assert shares[0] < shares[1] < shares[2]

    def test_dma_accounting_consistency(self):
        rep = FractalSimulator(machine(), collect_profiles=False) \
            .simulate([matmul_inst(256, 256, 256)])
        attr = attribute_report(rep)
        assert attr.dma, "per-level DMA accounting must be populated"
        for acc in attr.dma.values():
            assert acc["bytes"] == pytest.approx(
                acc["load_bytes"] + acc["store_bytes"])
            if acc["busy_s"] > 0:
                assert acc["effective_bandwidth"] == pytest.approx(
                    acc["bytes"] / acc["busy_s"])
            assert 0.0 <= acc.get("busy_fraction_of_makespan", 0.0) <= 1.0

    def test_section_is_json_clean(self):
        import json
        rep = FractalSimulator(machine(), collect_profiles=False) \
            .simulate([matmul_inst(64, 64, 64)])
        section = attribution_section(rep)
        json.dumps(section)  # no numpy scalars / non-string keys
        assert section["dominant"] in CATEGORIES
        assert section["classification"].endswith("-bound")


def _fold_segments(segments):
    """The taxonomy fold over :class:`CriticalSegment` objects, in time
    order: what ``attribute_schedule`` computes without them."""
    totals = dict.fromkeys(CATEGORIES, 0.0)
    exec_path = []
    for seg in segments:
        totals[STAGE_CATEGORY.get(seg.stage, "idle")] += seg.duration
        if seg.stage == "ex" and seg.duration > 0.0:
            exec_path.append((seg.index, seg.duration))
    return totals, exec_path


class TestFoldWithoutSegments:
    @pytest.mark.parametrize("machine_name", ["f1", "f100"])
    @pytest.mark.parametrize("program", sorted(PAPER_BENCHMARKS))
    def test_table5_node_schedules(self, program, machine_name, monkeypatch):
        """On every node schedule a Table-5 simulation attributes, the
        totals and EX path equal a fold over ``critical_path``'s
        segments, bit for bit."""
        real = simulator.attribute_schedule
        checked = []

        def compare(instructions, stages):
            got = real(instructions, stages)
            totals, exec_path = _fold_segments(
                critical_path(instructions, stages))
            assert [repr(v) for v in got[0].values()] == \
                [repr(v) for v in totals.values()]
            assert got[1] == exec_path
            assert [repr(s) for _, s in got[1]] == \
                [repr(s) for _, s in exec_path]
            checked.append(len(instructions))
            return got

        monkeypatch.setattr(simulator, "attribute_schedule", compare)
        make = {"f1": cambricon_f1, "f100": cambricon_f100}[machine_name]
        FractalSimulator(make(), collect_profiles=False).simulate(
            paper_benchmark(program).program)
        assert checked
