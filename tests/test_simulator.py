"""Timing-simulator tests: physical invariants, optimization ablation
directions, caching consistency, report bookkeeping, and exactness under
templated sequential decomposition and reused step outcomes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (Instruction, Opcode, Tensor, cambricon_f1, cambricon_f100,
                   custom_machine)
from repro.core.controller import sequential
from repro.core.controller.demotion import DemotionDecoder
from repro.core.controller.parallel import ParallelDecomposer
from repro.core.decomposition import base, shrink_sequential
from repro.core.machine import GB, KB, MB
from repro.perf import attribute_report
from repro.sim import FractalSimulator, simulator
from repro.workloads import PAPER_BENCHMARKS, paper_benchmark

from conftest import tiny_machine
from test_decomposition import shrink_oracle
from test_fuzz import chained_program, random_instruction


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


_ADD_N = 1 << 16


def _add_pair(swap=False):
    """``Add1D(x, x) -> y`` and ``Add1D(u, v) -> z``: one signature, two
    sharing patterns; ``swap`` reverses their order."""
    x, y, u, v, z = (Tensor(name, (_ADD_N,)) for name in "xyuvz")
    program = [Instruction(Opcode.ADD1D, (x.region(), x.region()), (y.region(),)),
               Instruction(Opcode.ADD1D, (u.region(), v.region()), (z.region(),))]
    return program[::-1] if swap else program


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

    @pytest.mark.parametrize("swap", [False, True])
    def test_child_cache_tells_shared_operands_apart(self, swap):
        """``Add1D(x, x)`` loads one tensor and ``Add1D(u, v)`` two, under
        equal signatures: a child cache keyed on the signature alone
        answered for both with whichever ran first (524,288 B in this
        order, 786,432 B reversed)."""
        # x, y, u, v and z cross the root port once each.
        assert simulate(cambricon_f1(), _add_pair(swap)).root_traffic == 5 * 2 * _ADD_N

    def test_plan_step_groups_tell_shared_operands_apart(self):
        """The distances among two points: PD composes a four-way split
        whose diagonal parts read one row twice (4 B loaded, 2 B stored)
        and the others two rows (8 B, 2 B), under one signature.  Grouped
        by signature, the first part stood for all four (24 B)."""
        x, d = Tensor("x", (2, 2)), Tensor("d", (2, 2))
        program = [Instruction(Opcode.EUCLIDIAN1D, (x.region(), x.region()),
                               (d.region(),))]
        machine = custom_machine("four", [4], [1 * MB, 64 * KB], [1e9] * 2)
        assert simulate(machine, program).root_traffic == 2 * 6 + 2 * 10

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
    chains pick an end by the parity of their owner: an owner taken from
    the process-wide chain id would make this simulation depend on how
    many ids were drawn before it."""
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
    static-segment parity path that accumulation chains drive included.

    The demotion decoder numbers chain owners itself, so the chain counter
    the runs start from does not matter (:class:`TestChainCounterStart`);
    both runs still start it at the same value, once of each parity.
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


class TestChainCounterStart:
    """A simulation depends only on its program: the static segment's
    chain owners are numbered per decoder, in first-seen order, so the
    report is the same however many chain ids were drawn before it."""

    @pytest.mark.parametrize("build", [_tiny_parity, _tiny_reductions],
                             ids=lambda b: b.__name__.lstrip("_"))
    def test_report_independent_of_counter_start(self, build, monkeypatch):
        runs = []
        for start in (0, 7, 10 ** 6, 10 ** 6 + 1):
            with monkeypatch.context() as m:
                m.setattr(base._chain_counter, "value", start)
                machine, program = build()
                sim = FractalSimulator(machine, collect_profiles=False)
                runs.append((sim.simulate(program), sim.cache_stats))
        (want, want_cache), rest = runs[0], runs[1:]
        for got, got_cache in rest:
            for name in TestTemplatedSDExactness.FIELDS:
                assert getattr(got, name) == getattr(want, name), name
            assert got_cache == want_cache


# -- reused step outcomes: exact in every figure ----------------------------------

def _simulate_steps(machine, program, reuse, collect_profiles=False):
    """Simulate ``program``; ``reuse=False`` runs every step through the
    per-step loop (decode, stage accounting), the oracle."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulator, "_REUSE_OUTCOMES", reuse)
        sim = FractalSimulator(machine, collect_profiles=collect_profiles)
        return sim.simulate(program), sim.cache_stats


def _assert_equals_oracle(machine, program, collect_profiles=False):
    want, want_cache = _simulate_steps(machine, program, False, collect_profiles)
    got, got_cache = _simulate_steps(machine, program, True, collect_profiles)
    # By repr: ``==`` takes -0.0 for 0.0.
    for name in TestTemplatedSDExactness.FIELDS:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert repr(attribute_report(got)) == repr(attribute_report(want))
    assert got_cache == want_cache
    return got, want


def _paper_f1(program, **flags):
    machine = cambricon_f1()
    return (machine.with_features(**flags) if flags else machine,
            paper_benchmark(program).program)


def _paper_matmul_f1(**flags):
    return _paper_f1("MATMUL", **flags)


_FEATURE_FLAGS = pytest.mark.parametrize(
    "flags", [{"use_ttt": False}, {"use_broadcast": False},
              {"use_concatenation": False}, {"use_sibling_links": True}],
    ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items()))


def _count_calls(monkeypatch, owner, name):
    """A list that gains one entry per call of ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _reused_plan_steps(machine, program):
    """How many plan-summary misses took their source step's plan-step
    outcome instead of running ``_plan_step``."""
    with pytest.MonkeyPatch.context() as m:
        calls = _count_calls(m, FractalSimulator, "_plan_step")
        sim = FractalSimulator(machine, collect_profiles=False)
        sim.simulate(program)
    return sim.cache_stats.plan_misses - len(calls)


#: machines whose memories are small against the fuzz's programs, so SD
#: emits long streams of re-emitted steps: of 550 examples drawn, 27 %
#: took a reused plan step and 19 % reused outcomes, open and spilled
#: chains among them
small_machines = st.builds(
    lambda fanouts, mem_exp: custom_machine(
        "small",
        list(fanouts),
        [1 << (mem_exp - i) for i in range(len(fanouts) + 1)],
        [1e8] * (len(fanouts) + 1),
        core_peak_ops=1e11,
    ),
    fanouts=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    mem_exp=st.integers(8, 10),
)


class TestReusedOutcomes:
    """A step SD re-emitted from a template takes its source's outcome
    once the state it reads recurs, instead of being decoded, and its
    source's plan-step outcome before the warm-up, instead of being
    planned; PD splits each template once per simulation.  Every report
    field, the attribution report and every cache counter equal the
    per-step loop's."""

    @pytest.mark.parametrize("machine", ["f1", "f100"])
    @pytest.mark.parametrize("program", sorted(PAPER_BENCHMARKS))
    def test_table5_pair_equals_oracle(self, program, machine):
        make = {"f1": cambricon_f1, "f100": cambricon_f100}[machine]
        _assert_equals_oracle(make(), paper_benchmark(program).program)

    @_FEATURE_FLAGS
    def test_matmul_f1_features_equal_oracle(self, flags):
        _assert_equals_oracle(*_paper_matmul_f1(**flags))

    @pytest.mark.parametrize("swap", [False, True])
    def test_shared_operands_equal_oracle(self, swap):
        """``Add1D(x, x)`` and ``Add1D(u, v)`` split alike at every level
        but share operands differently, so PD must split both: a plan
        moved from one onto the other names the wrong operands below the
        root."""
        _assert_equals_oracle(cambricon_f1(), _add_pair(swap))

    @_FEATURE_FLAGS
    def test_vgg16_f1_features_equal_oracle(self, flags):
        """The largest user of reused plan steps: its conv parts carry
        halos and broadcast weights."""
        _assert_equals_oracle(*_paper_f1("VGG-16", **flags))

    @pytest.mark.parametrize("program, splits, planned",
                             [("VGG-16", 295, 590), ("ResNet-152", 226, 680)])
    def test_f1_splits_each_template_once(self, program, splits, planned,
                                          monkeypatch):
        """The per-step loop splits 1,473 and 1,132 steps and plans 1,473
        and 1,130; here 76 and 99 splits, one per ``(template key,
        fan-out)``, and 497 and 533 plan steps."""
        pd_calls = _count_calls(monkeypatch, ParallelDecomposer, "plan")
        step_calls = _count_calls(monkeypatch, FractalSimulator, "_plan_step")
        machine, instructions = _paper_f1(program)
        FractalSimulator(machine, collect_profiles=False).simulate(instructions)
        assert len(pd_calls) <= splits
        assert len(step_calls) <= planned

    @staticmethod
    def _assert_profiles_equal_oracle(program):
        got, want = _assert_equals_oracle(*_paper_f1(program),
                                          collect_profiles=True)
        assert got.root.child_embeds
        assert got.root.own_segments == want.root.own_segments
        assert got.root.child_embeds == want.root.child_embeds

    def test_matmul_f1_profiles_equal_oracle(self):
        self._assert_profiles_equal_oracle("MATMUL")

    def test_vgg16_f1_profiles_equal_oracle(self):
        self._assert_profiles_equal_oracle("VGG-16")

    def test_matmul_f1_decodes_a_tenth(self, monkeypatch):
        """Each FMP node decodes its steps that open or close a chain and
        the first few of each copy; the per-step loop decodes all 65,544."""
        calls = _count_calls(monkeypatch, DemotionDecoder, "decode")
        machine, program = _paper_matmul_f1()
        FractalSimulator(machine, collect_profiles=False).simulate(program)
        assert len(calls) <= 6554

    def test_copies_of_a_multi_instruction_program(self):
        """A MatMul that SD copies many times, in a program whose other
        steps sit in the decoder's window: a copy's first steps follow
        steps their source's did not, so they must not take its outcome
        (found by the hypothesis test below; reusing from a copy's first
        step changes total_time, busy time, attribution and stats)."""
        machine = custom_machine("small", [2, 4], [512, 256, 128], [1e8] * 3,
                                 core_peak_ops=1e11)
        x, w, y = Tensor("x", (36, 67)), Tensor("w", (67, 36)), Tensor("y", (36, 36))
        v, e = Tensor("v", (72,)), Tensor("e", (72,))
        relu = Instruction(Opcode.ACT1D, (v.region(),), (v.region(),),
                           {"func": "relu"})
        program = [Instruction(Opcode.MATMUL, (x.region(), w.region()), (y.region(),)),
                   relu, relu,
                   Instruction(Opcode.ADD1D, (v.region(), v.region()), (e.region(),))]
        _assert_equals_oracle(machine, program)

    def test_copy_with_a_later_reader_plans_its_step(self):
        """A reader of the last 16 rows of a MatMul that SD cuts into 32
        steps (16 rows, two accumulating halves each): the last step's
        stores may be deferred to the reader, and its source's could not,
        so the last copy runs ``_plan_step`` while earlier copies take
        their sources' outcomes.  Taking its source's too loses the
        forwarded store."""
        machine = custom_machine("lfu", [4], [8 * KB, 16 * KB], [8e9] * 2,
                                 core_peak_ops=0.466e12)
        mm = matmul_inst(256, 64, 1)
        c = mm.outputs[0].tensor
        program = [mm, Instruction(Opcode.ACT1D, (c[240:256, 0:1],),
                                   (Tensor("r", (16, 1)).region(),), {"func": "relu"})]
        got, _ = _assert_equals_oracle(machine, program)
        assert got.stats.forwarded_stores == 1
        assert _reused_plan_steps(machine, program) > 8

    def test_reductions_commissioned_between_reused_plan_steps(self):
        """A node without LFUs commissions every step's reductions to the
        next step's FFUs.  PD composes its 16-way split of each four-row
        step of a thin MatMul down to K, so every step leaves reductions,
        and a copy taking its source's plan-step outcome commissions its
        source's reductions, which have the same shapes."""
        machine = custom_machine("no-lfu", [16], [2 * KB, 16 * KB], [8e9] * 2,
                                 core_peak_ops=0.466e12, n_lfus=[0, 0])
        program = [matmul_inst(256, 64, 1)]
        got, _ = _assert_equals_oracle(machine, program)
        assert got.stats.commissioned >= 32
        assert _reused_plan_steps(machine, program) > 32

    # SD replaced by a stream of ``runs`` runs of ``back`` steps, each run
    # declared a copy of the one before it (they are: one offset per
    # tensor).  ``step(k)`` builds step k.

    @staticmethod
    def _declared_stream(monkeypatch, step, back=33, runs=10, tail=(),
                         below=None):
        """Install the stream, then the steps ``tail``, for SD calls with
        capacity below ``below`` (all calls if None); returns the list
        each skipped step appends to."""
        steps = base.SequentialSteps()
        steps.extend(step(k) for k in range(back * runs))
        steps.extend(tail)
        steps.copies.extend((r * back, (r + 1) * back, (r - 1) * back)
                            for r in range(1, runs))
        TestReusedOutcomes._install_stream(monkeypatch, steps, below)
        skips = []
        skip = DemotionDecoder.skip
        monkeypatch.setattr(DemotionDecoder, "skip",
                            lambda dd, *args: skips.append(1) or skip(dd, *args))
        return skips

    @staticmethod
    def _install_stream(monkeypatch, steps, below=None):
        """Make SD return ``steps`` for calls with capacity below ``below``
        (all calls if None)."""
        real = sequential.shrink_sequential
        monkeypatch.setattr(
            sequential, "shrink_sequential",
            lambda inst, cap: steps if below is None or cap < below else real(inst, cap))

    def test_copy_past_the_warm_up_plans_its_step(self, monkeypatch):
        """Eight steps, 64 others, then a copy of the eight.  Each odd step
        reads what the step before it wrote, and has a shape of its own.
        Before the warm-up that operand is resident, as every step pushes
        its keys.  The copy's even steps hit the plan-summary cache (the
        steps between have their shapes) and push none, so each odd step
        of the copy misses the cache and finds its operand gone: it must
        plan its step, not take its source's outcome."""
        widths = [4, 8, 12, 16]
        span = 2 * sum(widths)
        a, t, o = (Tensor(name, (2 * span,)) for name in "ato")
        b, u = Tensor("b", (16 * span,)), Tensor("u", (16 * span,))

        def pair(x, y, z, at, width):
            produce = Instruction(Opcode.ADD1D, (x[at:at + width], x[at:at + width]),
                                  (y[at:at + width],))
            consume = Instruction(Opcode.ACT1D, (y[at:at + width],),
                                  (z[at:at + width],), {"func": "relu"})
            return [produce, consume]

        def run(x, y, z, start):
            out, at = [], start
            for width in widths:
                out += pair(x, y, z, at, width)
                at += width
            return out

        steps = base.SequentialSteps()
        steps += run(a, t, o, 0)
        for k in range(16):
            steps += run(b, u, u, k * span)[::2]  # the producers' shapes
        steps += run(a, t, o, span // 2)
        steps.copies.append((72, 80, 0))
        self._install_stream(monkeypatch, steps)
        machine = custom_machine("flat", [1], [1 * MB, 64 * KB], [1e9] * 2)
        program = [Instruction(Opcode.ADD1D, (a.region(), a.region()), (o.region(),))]
        _assert_equals_oracle(machine, program)
        assert _reused_plan_steps(machine, program) == 0

    def test_previous_steps_records_decide_hits(self, monkeypatch):
        """Every step re-reads one slice of ``b``, which the TTT then holds
        on every other step; a copy whose source sits an odd number of
        steps back hits where its source missed.  Only the previous
        step's records tell the two apart."""
        n = 330
        a, b, o = (Tensor(name, (4 * n,)) for name in "abo")
        skips = self._declared_stream(monkeypatch, lambda k: Instruction(
            Opcode.ADD1D, (a[4 * k:4 * k + 4], b[0:4]), (o[4 * k:4 * k + 4],)))
        program = [Instruction(Opcode.ADD1D, (a.region(), b.region()), (o.region(),))]
        got, _ = _assert_equals_oracle(tiny_machine(), program)
        assert got.stats.ttt_hits >= n // 2 - 1
        assert len(skips) > n // 2

    def test_stall_offsets_move_with_the_step(self, monkeypatch):
        """Each step reads a slice overlapping the previous step's output,
        which the TTT cannot forward: every step stalls on the one before,
        and a step taking an earlier outcome stalls on its own
        predecessor."""
        n, w = 330, 1024  # a 2 KB write-back outlasts the next decode
        a, o = Tensor("a", (w * n,)), Tensor("o", (w * n + w // 2,))
        skips = self._declared_stream(monkeypatch, lambda k: Instruction(
            Opcode.ADD1D, (a[w * k:w * k + w], o[w * k:w * k + w]),
            (o[w * k + w // 2:w * k + w + w // 2],)))
        program = [Instruction(Opcode.ADD1D, (a.region(), o[0:w * n]),
                               (o[w // 2:w * n + w // 2],))]
        got, _ = _assert_equals_oracle(tiny_machine(), program)
        assert got.stats.raw_stalls >= n - 1
        assert got.per_level_idle[1]["dma_ld.raw_stall"] > 0
        assert len(skips) > n // 2

    def test_spilled_chains_read_apart(self, monkeypatch):
        """Chains of three steps whose running sums are too large for two
        to share the static segment: a chain spills when the other end
        is taken, and copies one run apart hold chains of the other
        parity, so a step inside a chain must not take the outcome of its
        source when one sum is resident and the other spilled."""
        elems, chains = 5120, 110  # 10 KB sums; 16 KB static segment
        x, y = Tensor("x", (elems * chains,)), Tensor("y", (elems * chains,))
        o = Tensor("o", (elems * chains,))

        def step(k):
            c, part = divmod(k, 3)
            span = slice(elems * c, elems * (c + 1))
            attrs = {"accumulate": part > 0, "acc_local_out": part < 2,
                     "acc_chain": c}
            return Instruction(Opcode.ADD1D, (x[span], y[span]), (o[span],), attrs)

        skips = self._declared_stream(monkeypatch, step)
        program = [Instruction(Opcode.ADD1D, (x.region(), y.region()), (o.region(),))]
        got, _ = _assert_equals_oracle(tiny_machine(), program)
        assert got.stats.streamed_bytes > 0
        assert len(skips) > 0

    def test_store_forwarding_is_checked_per_step(self, monkeypatch):
        """Below the root, where steps write back: one step after the
        copies reads the last copy's output, so that store is forwarded,
        while the store its source made was not.  The stream runs in the
        level-1 node (the root keeps the instruction whole: fan-out 1)."""
        n = 330
        a, o = Tensor("a", (4 * n,)), Tensor("o", (4 * n,))
        r = Tensor("r", (4,))
        reader = Instruction(Opcode.ACT1D, (o[4 * n - 4:4 * n],), (r.region(),),
                             {"func": "relu"})
        skips = self._declared_stream(
            monkeypatch,
            lambda k: Instruction(Opcode.ADD1D, (a[4 * k:4 * k + 4], a[4 * k:4 * k + 4]),
                                  (o[4 * k:4 * k + 4],)),
            tail=[reader], below=64 * KB)
        machine = custom_machine("deep", [1, 2], [1 * MB, 32 * KB, 4 * KB],
                                 [1e9] * 3)
        program = [Instruction(Opcode.ADD1D, (a.region(), a.region()), (o.region(),))]
        got, _ = _assert_equals_oracle(machine, program)
        assert got.stats.forwarded_stores >= 1
        assert len(skips) > n // 2

    @settings(deadline=None, max_examples=25)
    @given(case=st.one_of(
        st.tuples(small_machines,
                  st.lists(random_instruction(), min_size=1, max_size=3)),
        small_machines.flatmap(lambda m: st.tuples(st.just(m), chained_program(m)))))
    def test_small_machines_equal_oracle(self, case):
        _assert_equals_oracle(*case)
