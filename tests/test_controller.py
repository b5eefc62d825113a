"""Controller tests: SD, DD (hazards, TTT binding, streaming, accumulation
chains), PD (shared operands, commission register), RC routing, DMAC."""

import pytest

from repro.core.controller.demotion import DemotionDecoder, DMAKind
from repro.core.controller.dmac import DMAController
from repro.core.controller.parallel import ParallelDecomposer, shared_operands
from repro.core.controller.reduction import ReductionController, ReductionTarget
from repro.core.controller.sequential import SequentialDecomposer
from repro.core.decomposition import decompose_parallel, footprint
from repro.core.isa import Instruction, Opcode
from repro.core.memory.allocator import NodeMemoryManager
from repro.core.memory.ttt import TensorTranspositionTable
from repro.core.tensor import Tensor


def matmul_inst(m, k, n, names=("a", "b", "c")):
    a, b, c = (Tensor(nm, s) for nm, s in
               zip(names, [(m, k), (k, n), (m, n)]))
    return Instruction(Opcode.MATMUL, (a.region(), b.region()), (c.region(),))


class TestSequentialDecomposer:
    def test_pump_moves_iq_to_sq(self):
        sd = SequentialDecomposer(10 ** 9)
        sd.push([matmul_inst(4, 4, 4), matmul_inst(8, 8, 8)])
        assert sd.pump() == 2
        assert len(sd) == 2
        assert sd.next_step() is not None

    def test_capacity_respected(self):
        inst = matmul_inst(32, 32, 32)
        cap = footprint(inst) // 4
        sd = SequentialDecomposer(cap)
        for step in sd.decompose(inst):
            assert footprint(step) <= cap

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SequentialDecomposer(0)

    def test_empty_queue_returns_none(self):
        assert SequentialDecomposer(100).next_step() is None


def make_dd(capacity=1 << 20, with_ttt=True, local_uids=None):
    memory = NodeMemoryManager(capacity)
    ttt = TensorTranspositionTable() if with_ttt else None
    return DemotionDecoder(memory, ttt, local_uids), memory, ttt


class TestDemotionDecoder:
    def test_generates_loads_and_stores(self):
        dd, _, _ = make_dd()
        inst = matmul_inst(4, 4, 4)
        decoded = dd.decode(0, inst)
        assert len(decoded.loads) == 2
        assert len(decoded.stores) == 1
        assert decoded.load_bytes == sum(r.nbytes for r in inst.inputs)

    def test_duplicate_operand_loaded_once(self):
        a = Tensor("a", (8,))
        o = Tensor("o", (8,))
        inst = Instruction(Opcode.ADD1D, (a.region(), a.region()), (o.region(),))
        dd, _, _ = make_dd()
        assert len(dd.decode(0, inst).loads) == 1

    def test_ttt_elides_repeated_load(self):
        dd, _, _ = make_dd()
        i1 = matmul_inst(4, 4, 4)
        i2 = Instruction(Opcode.MATMUL, i1.inputs,
                         (Tensor("c2", (4, 4)).region(),))
        dd.decode(0, i1)
        decoded = dd.decode(1, i2)
        assert decoded.ttt_hits == 2
        assert decoded.loads == []
        assert decoded.elided_bytes == sum(r.nbytes for r in i1.inputs)

    def test_raw_forwarded_through_ttt(self):
        """A consumer of the previous output reads the local copy: no stall."""
        dd, _, _ = make_dd()
        i1 = matmul_inst(4, 4, 4)
        out = i1.outputs[0]
        act = Instruction(Opcode.ACT1D, (out,),
                          (Tensor("r", (4, 4)).region(),), {"func": "relu"})
        dd.decode(0, i1)
        decoded = dd.decode(1, act)
        assert decoded.forwarded
        assert decoded.stall_on is None

    def test_raw_stalls_without_ttt(self):
        dd, _, _ = make_dd(with_ttt=False)
        i1 = matmul_inst(4, 4, 4)
        act = Instruction(Opcode.ACT1D, (i1.outputs[0],),
                          (Tensor("r", (4, 4)).region(),), {"func": "relu"})
        dd.decode(0, i1)
        decoded = dd.decode(1, act)
        assert decoded.stall_on == 0
        assert dd.stall_count == 1

    def test_raw_overlap_not_exact_stalls(self):
        """Partial overlap cannot be forwarded (exact-match TTT) -> stall."""
        dd, _, _ = make_dd()
        i1 = matmul_inst(8, 4, 4)
        sub = i1.outputs[0][0:2, :]
        act = Instruction(Opcode.ACT1D, (sub,),
                          (Tensor("r", (2, 4)).region(),), {"func": "relu"})
        dd.decode(0, i1)
        decoded = dd.decode(1, act)
        assert not decoded.forwarded
        assert decoded.stall_on == 0

    def test_local_partials_use_static_no_dma(self):
        p = Tensor("%sd0", (16,), space="partial")
        o = Tensor("o", (1,))
        inst = Instruction(Opcode.HSUM1D, (p.region(),), (o.region(),))
        dd, memory, _ = make_dd(local_uids={p.uid})
        decoded = dd.decode(0, inst, owner=0)
        assert decoded.loads == []  # partial never crosses the parent link
        assert any(b.segment.startswith("static") for b in memory.live_blocks())

    def test_streaming_fallback_on_overflow(self):
        dd, _, _ = make_dd(capacity=512)  # recycled segment = 128 B
        inst = matmul_inst(16, 16, 16)  # operands 512 B each
        decoded = dd.decode(0, inst)
        assert decoded.streamed_bytes > 0
        assert len(decoded.loads) == 2  # still transferred, just not resident

    def test_accumulation_chain_single_writeback(self):
        """Chain: first part holds locally, mid parts free, last part stores."""
        dd, _, _ = make_dd()
        base = matmul_inst(4, 12, 4)
        out = base.outputs[0]
        a, b = base.inputs
        chain = []
        for i, (lo, hi) in enumerate(((0, 4), (4, 8), (8, 12))):
            attrs = {"accumulate": i > 0, "acc_local_out": i < 2, "acc_chain": 5}
            chain.append(Instruction(Opcode.MATMUL,
                                     (a[:, lo:hi], b[lo:hi, :]), (out,), attrs))
        d0 = dd.decode(0, chain[0], owner=0)
        d1 = dd.decode(1, chain[1], owner=0)
        d2 = dd.decode(2, chain[2], owner=0)
        assert d0.stores == [] and d1.stores == []
        assert len(d2.stores) == 1  # exactly one write-back for the chain

    def test_inherited_accumulate_loads_prior_value(self):
        """A node receiving accumulate=True must fetch the partial sum."""
        dd, _, _ = make_dd()
        base = matmul_inst(4, 4, 4)
        inst = Instruction(base.opcode, base.inputs, base.outputs,
                           {"accumulate": True, "acc_local_out": True,
                            "acc_chain": 9})
        decoded = dd.decode(0, inst, owner=0)
        keys = {req.region_key for req in decoded.loads}
        assert base.outputs[0].key() in keys


def _skip_stream():
    """Steps that hit the TTT on the previous step's operand and output,
    stall on a slice of a recent output, and run an accumulation chain
    that opens, stays open and closes."""
    a, w = Tensor("a", (64,)), Tensor("w", (4,))
    o, p, r = Tensor("o", (64,)), Tensor("p", (64,)), Tensor("r", (64,))
    steps = []
    for k in range(1, 14):
        lo = 4 * k
        steps.append(Instruction(Opcode.ADD1D, (a[lo:lo + 4], w.region()),
                                 (o[lo:lo + 4],)))
        steps.append(Instruction(Opcode.MUL1D, (w.region(), o[lo:lo + 4]),
                                 (p[lo:lo + 4],)))
        steps.append(Instruction(Opcode.ACT1D, (o[lo - 2:lo + 2],),
                                 (r[lo - 2:lo + 2],), {"func": "relu"}))
        if k == 5:
            base = matmul_inst(4, 16, 4, names=("x", "y", "z"))
            (x, y), out = base.inputs, base.outputs[0]
            for i in range(4):
                attrs = {"accumulate": i > 0, "acc_local_out": i < 3,
                         "acc_chain": 3}
                steps.append(Instruction(Opcode.MATMUL,
                                         (x[:, 4 * i:4 * i + 4], y[4 * i:4 * i + 4, :]),
                                         (out,), attrs))
    return steps


class TestSkippedSteps:
    """A decoder that skips steps, given the TTT records their decode
    wrote, decodes every other step as a decoder that decoded all of them:
    the same transfers, hits, stall and records, TTT offsets included."""

    @pytest.mark.parametrize("with_ttt", [True, False])
    def test_decodes_after_skips_equal_decoding_every_step(self, with_ttt):
        steps = _skip_stream()
        every, _, every_ttt = make_dd(with_ttt=with_ttt)
        skipping, _, skipping_ttt = make_dd(with_ttt=with_ttt)
        after_skip = {"hits": 0, "stalls": 0}
        was_skipped = False
        for i, step in enumerate(steps):
            static = skipping.static_view(step)
            assert static == every.static_view(step)
            want = every.decode(i, step, owner=0)
            records = every.written(i, step)
            if i % 4 in (1, 2) and static is not None:
                skipping.skip(i, step, records)
                was_skipped = True
                continue
            assert skipping.decode(i, step, owner=0) == want
            assert skipping.written(i, step) == records
            if with_ttt:
                # both banks: this cycle's records and the skipped step's
                assert skipping_ttt._banks == every_ttt._banks
            if was_skipped:
                after_skip["hits"] += want.ttt_hits > 0
                after_skip["stalls"] += want.stall_on is not None
            was_skipped = False
        # Decodes right after a skip hit the skipped step's records and
        # stall on its output.
        assert after_skip["stalls"] > 0
        assert (after_skip["hits"] > 0) == with_ttt

    def test_static_view_marks_chain_state(self):
        """Opening and closing a chain change static state, so those steps
        have no view; a step inside the chain reads its running sum."""
        chain = [s for s in _skip_stream() if s.opcode is Opcode.MATMUL]
        dd, _, _ = make_dd()
        views = []
        for i, step in enumerate(chain):
            views.append(dd.static_view(step))
            dd.decode(i, step, owner=0)
        assert views == [None, (None, None, "acc"), (None, None, "acc"), None]


class TestParallelDecomposer:
    def test_shared_operands_detected(self):
        split = decompose_parallel(matmul_inst(8, 8, 8), 4)
        keys, nbytes = shared_operands(split.parts)
        assert len(keys) == 1  # the left matrix
        assert nbytes == split.parts[0].inputs[0].nbytes

    def test_plan_shared_bytes(self):
        pd = ParallelDecomposer(4)
        plan = pd.plan(matmul_inst(8, 8, 8))
        assert plan.shared_bytes > 0
        assert plan.whole is not None

    def test_commission_register_drains_on_plan(self):
        pd = ParallelDecomposer(2)
        red = Instruction(Opcode.ADD1D,
                          (Tensor("x", (4,)).region(), Tensor("y", (4,)).region()),
                          (Tensor("z", (4,)).region(),))
        pd.commission([red])
        plan = pd.plan(matmul_inst(4, 4, 4))
        assert plan.commissioned == [red]
        assert pd.plan(matmul_inst(4, 4, 4)).commissioned == []

    def test_plan_drain(self):
        pd = ParallelDecomposer(2)
        red = Instruction(Opcode.ADD1D,
                          (Tensor("x", (4,)).region(), Tensor("y", (4,)).region()),
                          (Tensor("z", (4,)).region(),))
        pd.commission([red])
        assert pd.plan_drain() == [red]
        assert pd.plan_drain() == []

    def test_rejects_zero_ffus(self):
        with pytest.raises(ValueError):
            ParallelDecomposer(0)


class TestReductionController:
    def _red(self, n=1024):
        return [Instruction(Opcode.ADD1D,
                            (Tensor("x", (n,)).region(), Tensor("y", (n,)).region()),
                            (Tensor("z", (n,)).region(),))]

    def test_lfu_available_keeps_reduction(self):
        rc = ReductionController(lfu_ops_per_s=1e9, ffu_ops_per_s=2e9)
        c = rc.route(self._red())
        assert c.target is ReductionTarget.LFU
        assert c.predicted_lfu_time > 0

    def test_no_lfu_commissions(self):
        rc = ReductionController(lfu_ops_per_s=0.0, ffu_ops_per_s=1e9)
        assert rc.route(self._red()).target is ReductionTarget.COMMISSION

    def test_large_ffu_speedup_commissions(self):
        rc = ReductionController(lfu_ops_per_s=1e6, ffu_ops_per_s=1e12,
                                 speedup_threshold=4.0)
        assert rc.route(self._red()).target is ReductionTarget.COMMISSION

    def test_empty_reduction_noop(self):
        rc = ReductionController(1e9, 1e9)
        c = rc.route([])
        assert c.instructions == [] and c.predicted_lfu_time == 0.0


class TestDMAC:
    def test_transfer_accounting(self):
        from repro.core.controller.demotion import DMARequest
        dmac = DMAController(private_rate=1e9, broadcast_rate=4e9)
        reqs = [
            DMARequest(("k1",), 1000, DMAKind.LOAD, 0),
            DMARequest(("k2",), 4000, DMAKind.BROADCAST, 0),
            DMARequest(("k3",), 2000, DMAKind.STORE, 0),
        ]
        t = dmac.transfer_time(reqs)
        assert t == pytest.approx(1000 / 1e9 + 4000 / 4e9 + 2000 / 1e9)
        assert dmac.log.load_bytes == 1000
        assert dmac.log.broadcast_bytes == 4000
        assert dmac.log.store_bytes == 2000
        assert dmac.log.total_bytes == 7000

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            DMAController(0, 1)
