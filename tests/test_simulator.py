"""Timing-simulator tests: physical invariants, optimization ablation
directions, caching consistency, report bookkeeping, and exactness under
templated sequential decomposition."""

import pytest

from repro import (Instruction, Opcode, Tensor, cambricon_f1, cambricon_f100,
                   custom_machine)
from repro.core.controller import sequential
from repro.core.decomposition import base, shrink_sequential
from repro.core.machine import GB, KB, MB
from repro.sim import FractalSimulator
from repro.workloads import paper_benchmark

from conftest import tiny_machine
from test_decomposition import shrink_oracle


def matmul_inst(m, k, n):
    a, b, c = Tensor("a", (m, k)), Tensor("b", (k, n)), Tensor("c", (m, n))
    return Instruction(Opcode.MATMUL, (a.region(), b.region()), (c.region(),))


def small_machine(bw_scale=1.0, mem_scale=1.0, **flags):
    m = custom_machine(
        "sim-test",
        fanouts=[2, 4],
        mem_bytes=[int(64 * MB * mem_scale), int(4 * MB * mem_scale),
                   int(256 * KB * mem_scale)],
        bandwidths=[64 * GB * bw_scale] * 3,
        core_peak_ops=0.466e12,
    )
    return m.with_features(**flags) if flags else m


def simulate(machine, program):
    return FractalSimulator(machine, collect_profiles=False).simulate(program)


class TestPhysicalInvariants:
    def test_attained_never_exceeds_peak(self):
        m = small_machine()
        rep = simulate(m, [matmul_inst(512, 512, 512)])
        assert rep.attained_ops <= m.peak_ops * 1.001

    def test_time_positive_and_finite(self):
        rep = simulate(small_machine(), [matmul_inst(64, 64, 64)])
        assert 0 < rep.total_time < 1e3

    def test_more_bandwidth_not_slower(self):
        prog = [matmul_inst(256, 256, 256)]
        slow = simulate(small_machine(bw_scale=0.25), prog)
        fast = simulate(small_machine(bw_scale=4.0), prog)
        assert fast.total_time <= slow.total_time * 1.001

    def test_work_matches_program(self):
        inst = matmul_inst(128, 128, 128)
        rep = simulate(small_machine(), [inst])
        assert rep.work == inst.work()

    def test_traffic_at_least_inputs_once(self):
        """The root port must see at least the unique operand bytes."""
        inst = matmul_inst(256, 256, 256)
        rep = simulate(small_machine(), [inst])
        assert rep.root_traffic >= inst.io_bytes() * 0.5  # forwarding may elide out

    def test_bandwidth_bound_workload_near_roofline(self):
        """A low-intensity op cannot beat bandwidth x intensity.  The DMA is
        duplex (loads and write-backs on separate channels), so the ceiling
        is at most twice the single-direction roofline."""
        a, b = Tensor("a", (1 << 20,)), Tensor("b", (1 << 20,))
        o = Tensor("o", (1 << 20,))
        add = Instruction(Opcode.ADD1D, (a.region(), b.region()), (o.region(),))
        m = small_machine()
        rep = simulate(m, [add])
        ceiling = rep.operational_intensity * m.root_bandwidth
        assert rep.attained_ops <= ceiling * 2.0 * 1.05

    def test_two_instructions_slower_than_one(self):
        one = simulate(small_machine(), [matmul_inst(128, 128, 128)])
        two = simulate(small_machine(), [matmul_inst(128, 128, 128),
                                         matmul_inst(128, 128, 128)])
        assert two.total_time > one.total_time


class TestOptimizationDirections:
    """The Section-3.6 features must help (or at least never hurt)."""

    PROG = None

    @classmethod
    def prog(cls):
        if cls.PROG is None:
            from repro.workloads import vgg16
            cls.PROG = vgg16(batch=2, input_size=64, num_classes=100).program
        return cls.PROG

    def test_ttt_reduces_traffic(self):
        on = simulate(small_machine(), self.prog())
        off = simulate(small_machine(use_ttt=False), self.prog())
        assert on.root_traffic < off.root_traffic

    def test_ttt_improves_time(self):
        on = simulate(small_machine(), self.prog())
        off = simulate(small_machine(use_ttt=False), self.prog())
        assert on.total_time <= off.total_time * 1.001

    def test_broadcast_helps_shared_operands(self):
        on = simulate(small_machine(), self.prog())
        off = simulate(small_machine(use_broadcast=False), self.prog())
        assert on.total_time <= off.total_time * 1.001

    def test_concatenation_helps(self):
        on = simulate(small_machine(), self.prog())
        off = simulate(small_machine(use_concatenation=False), self.prog())
        assert on.total_time <= off.total_time * 1.001

    def test_forwarding_stats_populated(self):
        rep = simulate(small_machine(), self.prog())
        assert rep.stats.forwarded_store_bytes > 0
        assert rep.stats.ttt_hits > 0


class TestCaching:
    def test_same_program_same_result(self):
        prog = [matmul_inst(256, 256, 256)]
        r1 = simulate(small_machine(), prog)
        r2 = simulate(small_machine(), prog)
        assert r1.total_time == pytest.approx(r2.total_time)
        assert r1.root_traffic == r2.root_traffic

    def test_simulator_reuse_across_programs(self):
        sim = FractalSimulator(small_machine(), collect_profiles=False)
        a = sim.simulate([matmul_inst(128, 128, 128)])
        b = sim.simulate([matmul_inst(128, 128, 128)])
        assert a.total_time == pytest.approx(b.total_time)


class TestReport:
    def test_per_level_busy_has_all_levels(self):
        m = small_machine()
        rep = simulate(m, [matmul_inst(256, 256, 256)])
        assert set(rep.per_level_busy) == {0, 1, 2}

    def test_root_dma_zero(self):
        """Root operands are resident in root memory -- no root-node DMA."""
        rep = simulate(small_machine(), [matmul_inst(256, 256, 256)])
        assert rep.root.load_bytes == 0
        assert rep.root.store_bytes == 0

    def test_operational_intensity_consistent(self):
        rep = simulate(small_machine(), [matmul_inst(256, 256, 256)])
        assert rep.operational_intensity == pytest.approx(
            rep.work / rep.root_traffic)

    def test_peak_fraction(self):
        m = small_machine()
        rep = simulate(m, [matmul_inst(512, 512, 512)])
        assert 0 < rep.peak_fraction(m.peak_ops) <= 1.0

    def test_profiles_collected_when_enabled(self):
        sim = FractalSimulator(small_machine(), collect_profiles=True)
        rep = sim.simulate([matmul_inst(128, 128, 128)])
        assert rep.root.own_segments
        assert rep.root.child_embeds

    def test_profiles_skipped_when_disabled(self):
        sim = FractalSimulator(small_machine(), collect_profiles=False)
        rep = sim.simulate([matmul_inst(128, 128, 128)])
        assert rep.root.own_segments == []


class TestCommissioning:
    """Reduction Controller behaviour inside the simulator."""

    def _sort_prog(self, n=1 << 16):
        x, o = Tensor("x", (n,)), Tensor("o", (n,))
        return [Instruction(Opcode.SORT1D, (x.region(),), (o.region(),))]

    def test_no_lfus_commissions_to_ffus(self):
        """A node without LFUs must delegate g(.) to its children (the
        commission register), including the final-cycle flush."""
        m = custom_machine("no-lfu", [4], [4 * MB, 256 * KB], [8e9] * 2,
                           core_peak_ops=0.466e12, n_lfus=[0, 0])
        rep = FractalSimulator(m, collect_profiles=False).simulate(
            self._sort_prog())
        assert rep.stats.commissioned > 0
        assert rep.total_time > 0

    def test_lfus_absorb_reductions(self):
        m = custom_machine("lfu", [4], [4 * MB, 256 * KB], [8e9] * 2,
                           core_peak_ops=0.466e12, n_lfus=[8, 0])
        rep = FractalSimulator(m, collect_profiles=False).simulate(
            self._sort_prog())
        assert rep.stats.commissioned == 0

    def test_commissioning_costs_time(self):
        prog = self._sort_prog()
        with_lfu = custom_machine("a", [4], [4 * MB, 256 * KB], [8e9] * 2,
                                  core_peak_ops=0.466e12, n_lfus=[8, 0])
        without = custom_machine("b", [4], [4 * MB, 256 * KB], [8e9] * 2,
                                 core_peak_ops=0.466e12, n_lfus=[0, 0])
        t_lfu = FractalSimulator(with_lfu,
                                 collect_profiles=False).simulate(prog)
        t_comm = FractalSimulator(without,
                                  collect_profiles=False).simulate(prog)
        assert t_comm.total_time >= t_lfu.total_time * 0.99


class TestSiblingLinks:
    """The future-work sibling interconnect (paper Section 8)."""

    def _sort_prog(self, n=1 << 20):
        x, o = Tensor("x", (n,)), Tensor("o", (n,))
        return [Instruction(Opcode.SORT1D, (x.region(),), (o.region(),))]

    def test_feature_flag_defaults_off(self):
        assert not small_machine().use_sibling_links

    def test_enabled_machine_simulates(self):
        m = small_machine().with_features(use_sibling_links=True)
        rep = simulate(m, self._sort_prog())
        assert rep.total_time > 0

    def test_effect_bounded(self):
        """Exploration finding: links move results by only a few percent."""
        prog = self._sort_prog()
        base = simulate(small_machine(), prog)
        linked = simulate(small_machine().with_features(
            use_sibling_links=True, sibling_link_bandwidth=512 * GB), prog)
        assert 0.8 < base.total_time / linked.total_time < 1.25

    def test_faster_links_never_slower(self):
        prog = self._sort_prog()
        slow = simulate(small_machine().with_features(
            use_sibling_links=True, sibling_link_bandwidth=16 * GB), prog)
        fast = simulate(small_machine().with_features(
            use_sibling_links=True, sibling_link_bandwidth=512 * GB), prog)
        assert fast.total_time <= slow.total_time * 1.001


class TestRealMachines:
    def test_f1_matmul_near_peak(self):
        """Headline behaviour: F1 runs a big MatMul near peak (paper: the
        MATMUL benchmark attains ~99% on Cambricon-F1)."""
        m = cambricon_f1()
        rep = simulate(m, [matmul_inst(4096, 4096, 4096)])
        assert rep.peak_fraction(m.peak_ops) > 0.85

    def test_f1_low_intensity_bandwidth_bound(self):
        m = cambricon_f1()
        a, b = Tensor("a", (1 << 22,)), Tensor("b", (1 << 22,))
        o = Tensor("o", (1 << 22,))
        add = Instruction(Opcode.ADD1D, (a.region(), b.region()), (o.region(),))
        rep = simulate(m, [add])
        assert rep.peak_fraction(m.peak_ops) < 0.05

    def test_leaf_streaming_oversized_instruction(self):
        """An unsplittable two-run merge larger than any memory must still
        complete (streamed), at roughly bandwidth-limited time."""
        a, b = Tensor("a", (1 << 20,)), Tensor("b", (1 << 20,))
        o = Tensor("o", (1 << 21,))
        merge = Instruction(Opcode.MERGE1D, (a.region(), b.region()), (o.region(),))
        rep = simulate(small_machine(), [merge])
        assert rep.total_time > 0
        assert rep.stats.steps >= 1


# -- templated SD: exact in every statistic -------------------------------------

def _tiny_matmul():
    return tiny_machine(), [matmul_inst(96, 384, 64)]


def _tiny_conv_chain():
    x, w = Tensor("x", (2, 16, 16, 24)), Tensor("w", (3, 3, 24, 16))
    c, r = Tensor("c", (2, 7, 7, 16)), Tensor("r", (2, 7, 7, 16))
    p = Tensor("p", (2, 3, 3, 16))
    return tiny_machine(), [
        Instruction(Opcode.CV2D, (x.region(), w.region()), (c.region(),),
                    {"stride": 2}),
        Instruction(Opcode.ACT1D, (c.region(),), (r.region(),), {"func": "relu"}),
        Instruction(Opcode.MAX2D, (r.region(),), (p.region(),),
                    {"kh": 2, "kw": 2, "sh": 2, "sw": 2}),
    ]


def _tiny_reductions():
    x, s = Tensor("x", (8192,)), Tensor("s", (8192,))
    h, o = Tensor("h", (96, 160)), Tensor("o", (1,))
    return tiny_machine(), [
        Instruction(Opcode.SORT1D, (x.region(),), (s.region(),)),
        Instruction(Opcode.HSUM1D, (h.region(),), (o.region(),)),
    ]


def _tiny_parity():
    """Sort partials hold one end of the static segment while the MatMul's
    chains pick an end by id parity: renumbering the chains of re-emitted
    subtrees (fresh ids drawn in emission order) changes this simulation."""
    x, s = Tensor("x", (8192,)), Tensor("s", (8192,))
    h, o = Tensor("h", (96, 160)), Tensor("o", (1,))
    return tiny_machine(), [
        Instruction(Opcode.SORT1D, (x.region(),), (s.region(),)),
        matmul_inst(16, 1024, 64),
        Instruction(Opcode.HSUM1D, (h.region(),), (o.region(),)),
    ]


def _f100_paper_matmul():
    return cambricon_f100(), paper_benchmark("MATMUL").program


class TestTemplatedSDExactness:
    """Templated SD changes how the steps are built, not which steps: a
    simulation matches the untemplated oracle in every statistic, the
    static-segment parity path that chain ids drive included.

    The static segment takes a chain id as its owner and picks a stack end
    by its parity, so a simulation depends on the process-wide chain
    counter.  Both runs start it at the same value, once of each parity.
    """

    FIELDS = ("total_time", "work", "root_traffic", "per_level_busy",
              "per_level_dma", "per_level_idle", "attribution", "stats",
              "cache")

    @staticmethod
    def _simulate(machine, program, shrink, chain_start, monkeypatch):
        seen = {"splits": 0, "chain_steps": 0}
        real_split = base.best_shrink_split

        def counting_split(inst):
            seen["splits"] += 1
            return real_split(inst)

        def recording_shrink(inst, capacity_bytes):
            steps = shrink(inst, capacity_bytes)
            seen["chain_steps"] += sum("acc_chain" in s.attrs for s in steps)
            return steps

        with monkeypatch.context() as m:
            m.setattr(base._chain_counter, "value", chain_start)
            m.setattr(base, "best_shrink_split", counting_split)
            m.setattr(sequential, "shrink_sequential", recording_shrink)
            sim = FractalSimulator(machine, collect_profiles=False)
            report = sim.simulate(program)
        return report, sim.cache_stats, seen

    @pytest.mark.parametrize("build", [_tiny_matmul, _tiny_conv_chain,
                                       _tiny_reductions, _tiny_parity,
                                       _f100_paper_matmul],
                             ids=lambda b: b.__name__.lstrip("_"))
    @pytest.mark.parametrize("chain_start", [10 ** 6, 10 ** 6 + 1])
    def test_report_equals_oracle(self, build, chain_start, monkeypatch):
        machine, program = build()
        want, want_cache, oracle = self._simulate(
            machine, program, shrink_oracle, chain_start, monkeypatch)
        got, got_cache, templated = self._simulate(
            machine, program, shrink_sequential, chain_start, monkeypatch)
        for name in self.FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        assert got_cache == want_cache
        # The parity path runs: chains are emitted, and some subtrees were
        # re-emitted instead of split.
        assert templated["chain_steps"] == oracle["chain_steps"] > 0
        assert templated["splits"] < oracle["splits"]
