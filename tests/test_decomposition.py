"""Decomposition rule tests: Table-2 fidelity, split semantics,
sequential shrinking, templated SD against its untemplated oracle, and the
accumulation rewrite."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decomposition import (
    base,
    best_shrink_split,
    decompose_parallel,
    footprint,
    rules_for,
    shrink_sequential,
    splittable_extent,
)
from repro.core.decomposition.base import sequentialize_add_reduction
from repro.core.isa import DependencyKind, Instruction, Opcode
from repro.core.tensor import Tensor

from conftest import assert_fractal_matches, tiny_machine


def matmul_inst(m, k, n):
    a, b, c = Tensor("a", (m, k)), Tensor("b", (k, n)), Tensor("c", (m, n))
    return Instruction(Opcode.MATMUL, (a.region(), b.region()), (c.region(),))


def conv_inst(n=2, h=8, w=8, cin=3, kh=3, kw=3, cout=4, stride=1):
    x = Tensor("x", (n, h, w, cin))
    wt = Tensor("w", (kh, kw, cin, cout))
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    o = Tensor("o", (n, ho, wo, cout))
    return Instruction(Opcode.CV2D, (x.region(), wt.region()), (o.region(),),
                       {"stride": stride})


def sort_inst(n=32):
    x, o = Tensor("x", (n,)), Tensor("o", (n,))
    return Instruction(Opcode.SORT1D, (x.region(),), (o.region(),))


class TestTable2Fidelity:
    """The registered rules must state the paper's Table-2 dependencies."""

    def test_matmul_rules(self):
        rules = rules_for(Opcode.MATMUL)
        by_name = {r.name: r for r in rules}
        assert by_name["Left, Vertical (K)"].dependency is DependencyKind.OUTPUT_DEPENDENT
        assert by_name["Left, Vertical (K)"].g_name == "Add"
        assert by_name["Right, Vertical (N)"].dependency is DependencyKind.INPUT_DEPENDENT
        assert by_name["Right, Vertical (N)"].redundancy == "Left Matrix"

    def test_conv_rules(self):
        by_name = {r.name: r for r in rules_for(Opcode.CV2D)}
        assert by_name["Batch-Wise"].redundancy == "Weight"
        assert by_name["Spatial-H"].redundancy == "Weight, Overlapped"
        assert by_name["Feature-Wise"].dependency is DependencyKind.OUTPUT_DEPENDENT
        assert by_name["Feature-Wise"].g_name == "Add"

    def test_pool_rules_independent_and_overlapped(self):
        by_name = {r.name: r for r in rules_for(Opcode.MAX2D)}
        assert by_name["Feature-Wise"].dependency is DependencyKind.INDEPENDENT
        assert by_name["Spatial-H"].redundancy == "Overlapped"

    def test_sort_count_output_dependent(self):
        assert rules_for(Opcode.SORT1D)[0].g_name == "Merge"
        assert rules_for(Opcode.COUNT1D)[0].g_name == "Add"

    def test_eltwise_independent(self):
        for op in (Opcode.ADD1D, Opcode.SUB1D, Opcode.MUL1D, Opcode.ACT1D):
            assert rules_for(op)[0].dependency is DependencyKind.INDEPENDENT

    def test_every_opcode_has_rules(self):
        for op in Opcode:
            assert rules_for(op), f"{op} has no decomposition rules"


class TestParallelDecomposition:
    def test_matmul_n_split_shares_left(self):
        split = decompose_parallel(matmul_inst(8, 8, 8), 4)
        assert split.dependency is DependencyKind.INPUT_DEPENDENT
        lefts = {p.inputs[0].key() for p in split.parts}
        assert len(lefts) == 1  # A broadcast to every part
        assert split.redundant_bytes > 0

    def test_part_outputs_disjoint(self):
        split = decompose_parallel(matmul_inst(8, 8, 8), 4)
        outs = [p.outputs[0] for p in split.parts]
        for i, a in enumerate(outs):
            for b in outs[i + 1:]:
                assert not a.overlaps(b)  # write-coherence rule

    def test_conv_batch_split(self):
        split = decompose_parallel(conv_inst(n=4), 4)
        assert split.axis == "batch"
        assert len(split.parts) == 4

    def test_conv_spatial_split_when_batch_exhausted(self):
        split = decompose_parallel(conv_inst(n=1), 3)
        assert split.axis == "h"
        # haloed inputs overlap
        assert split.parts[0].inputs[0].overlaps(split.parts[1].inputs[0])

    def test_conv_cin_split_generates_reduction(self):
        inst = conv_inst(n=1, h=3, w=3, cin=8, cout=1)
        rule = {r.name: r for r in rules_for(Opcode.CV2D)}["Feature-Wise"]
        split = rule.apply(inst, 4)
        assert split.reduction
        assert all(r.opcode in (Opcode.ADD1D, Opcode.ACT1D) for r in split.reduction)

    def test_sort_split_merges(self):
        split = decompose_parallel(sort_inst(32), 4)
        assert len(split.parts) == 4
        assert split.reduction[0].opcode is Opcode.MERGE1D
        assert len(split.reduction[0].inputs) == 4

    def test_two_way_merge_not_splittable(self):
        a, b = Tensor("a", (16,)), Tensor("b", (16,))
        o = Tensor("o", (32,))
        inst = Instruction(Opcode.MERGE1D, (a.region(), b.region()), (o.region(),))
        assert decompose_parallel(inst, 4) is None

    def test_kway_merge_splittable(self):
        parts = [Tensor(f"p{i}", (8,)).region() for i in range(6)]
        o = Tensor("o", (48,))
        inst = Instruction(Opcode.MERGE1D, tuple(parts), (o.region(),))
        split = decompose_parallel(inst, 3)
        assert split is not None and len(split.parts) == 3

    def test_degenerate_returns_none(self):
        assert decompose_parallel(matmul_inst(1, 1, 1), 4) is None

    def test_n_less_than_2_returns_none(self):
        assert decompose_parallel(matmul_inst(8, 8, 8), 1) is None

    def test_accumulate_never_output_dependent(self):
        inst = matmul_inst(1, 64, 1)
        acc = Instruction(inst.opcode, inst.inputs, inst.outputs,
                          {"accumulate": True})
        assert decompose_parallel(acc, 4) is None  # only K-split possible

    def test_splittable_extent(self):
        assert splittable_extent(matmul_inst(8, 16, 4)) == 16


class TestCompositeSplits:
    """When the preferred axis is shorter than the fan-out, PD composes
    splits across axes so no FFU idles."""

    def test_engages_when_no_axis_reaches_fanout(self):
        """conv with batch 2 and 3x3 spatial output facing 16 FFUs: no
        single axis covers 16, so splits compose across axes."""
        inst = conv_inst(n=2, h=5, w=5, cin=2, cout=2)
        split = decompose_parallel(inst, 16)
        max_extent = max(2, 3, 3, 2)  # batch, H, W, cout extents
        assert len(split.parts) > max_extent
        assert split.axis.endswith("*")

    def test_composite_outputs_cover_exactly(self):
        inst = conv_inst(n=2, h=5, w=5, cin=2, cout=2)
        split = decompose_parallel(inst, 16)
        total = sum(p.outputs[0].nelems for p in split.parts)
        assert total == inst.outputs[0].nelems
        for i, a in enumerate(split.parts):
            for b in split.parts[i + 1:]:
                assert not a.outputs[0].overlaps(b.outputs[0])

    def test_composite_functional_equivalence(self, rng):
        inst = conv_inst(n=2, h=9, w=9, cin=3, cout=2)
        arrays = {r: rng.normal(size=r.tensor.shape) for r in inst.inputs}
        assert_fractal_matches(inst, arrays, tiny_machine(fanouts=(8, 2)))

    def test_composite_with_reductions(self, rng):
        """Sort across more parts than one axis offers still merges right."""
        inst = sort_inst(40)
        split = decompose_parallel(inst, 16)
        assert len(split.parts) == 16
        # all partial outputs feed merges, merges feed the final output
        arrays = {inst.inputs[0]: rng.normal(size=(40,))}
        assert_fractal_matches(inst, arrays, tiny_machine(fanouts=(16,),
                                                          mems=(1 << 16, 1 << 12)))

    def test_no_composition_when_axis_suffices(self):
        split = decompose_parallel(matmul_inst(8, 8, 64), 8)
        assert not split.axis.endswith("*")
        assert len(split.parts) == 8


class TestSequentialShrink:
    def test_footprint_bound(self):
        inst = matmul_inst(64, 64, 64)
        cap = footprint(inst) // 6
        steps = shrink_sequential(inst, cap)
        for s in steps:
            assert footprint(s) <= cap

    def test_no_shrink_needed(self):
        inst = matmul_inst(4, 4, 4)
        assert shrink_sequential(inst, 10 ** 9) == [inst]

    def test_unsplittable_oversized_emitted(self):
        a, b = Tensor("a", (4096,)), Tensor("b", (4096,))
        o = Tensor("o", (8192,))
        merge = Instruction(Opcode.MERGE1D, (a.region(), b.region()), (o.region(),))
        steps = shrink_sequential(merge, 64)
        assert steps == [merge]

    def test_balanced_tiling_not_degenerate(self):
        """SD must not slice one axis to extent 1 while another is huge."""
        inst = matmul_inst(256, 256, 256)
        steps = shrink_sequential(inst, 16 * 1024)
        mm = [s for s in steps if s.opcode is Opcode.MATMUL]
        for s in mm:
            m, k = s.inputs[0].shape
            _, n = s.inputs[1].shape
            assert min(m, k, n) >= 8, f"degenerate tile {m}x{k}x{n}"

    def test_accumulate_rewrite_used(self):
        """K-heavy matmuls sequentially accumulate instead of Add chains."""
        inst = matmul_inst(4, 4096, 4)
        steps = shrink_sequential(inst, 4096)
        assert all(s.opcode is Opcode.MATMUL for s in steps)
        assert any(s.attrs.get("accumulate") for s in steps)
        # exactly one step closes the chain with a write-back
        closing = [s for s in steps if not s.attrs.get("acc_local_out")]
        assert len(closing) >= 1

    def test_best_shrink_reduces_footprint(self):
        inst = matmul_inst(64, 64, 64)
        split = best_shrink_split(inst)
        assert split is not None
        assert max(footprint(p) for p in split.parts) < footprint(inst)


# -- templated SD against the untemplated oracle ---------------------------------

def shrink_oracle(inst, capacity_bytes, max_steps=1_000_000):
    """SD without templates: every oversized node of the split tree is
    split by :func:`best_shrink_split`, one stack pop per node.  The
    reference that the templated :func:`shrink_sequential` must equal."""
    out = []
    stack = [inst]
    budget = max_steps
    while stack:
        cur = stack.pop()
        budget -= 1
        if budget < 0:
            raise RuntimeError("sequential decomposition exploded; check capacity")
        if footprint(cur) <= capacity_bytes:
            out.append(cur)
            continue
        split = base.best_shrink_split(cur)
        if split is None:
            out.append(cur)
            continue
        # Parts run first, then the reduction; stack is LIFO so push reversed.
        for r in reversed(split.reduction):
            stack.append(r)
        for p in reversed(split.parts):
            stack.append(p)
    return out


def shrink_both(inst, capacity_bytes, **kwargs):
    """(templated, oracle) steps of one shrink, and how far apart the two
    runs' chain ids are: the runs draw from one process-wide counter, the
    oracle first, and must draw the same number of ids."""
    start = base._chain_counter.value
    want = shrink_oracle(inst, capacity_bytes, **kwargs)
    middle = base._chain_counter.value
    got = shrink_sequential(inst, capacity_bytes, **kwargs)
    assert base._chain_counter.value - middle == middle - start
    return got, want, middle - start


def assert_same_steps(roots, got, want, chain_shift):
    """``got`` equals ``want`` up to a one-to-one renaming of the partial
    tensors the decomposition of ``roots`` (an instruction or a program)
    created.  Chain ids it created are the oracle's plus ``chain_shift``;
    the roots' own tensors and chain ids are unchanged."""
    assert len(got) == len(want)
    if isinstance(roots, Instruction):
        roots = [roots]
    external = {r.tensor.uid for inst in roots
                for r in inst.inputs + inst.outputs}
    root_chains = {inst.attrs["acc_chain"] for inst in roots
                   if "acc_chain" in inst.attrs}
    tensors = {}
    for g, w in zip(got, want):
        assert g.opcode is w.opcode
        assert g.loc == w.loc
        assert ({k: v for k, v in g.attrs.items() if k != "acc_chain"}
                == {k: v for k, v in w.attrs.items() if k != "acc_chain"})
        assert ("acc_chain" in g.attrs) == ("acc_chain" in w.attrs)
        if "acc_chain" in w.attrs:
            chain = w.attrs["acc_chain"]
            shift = 0 if chain in root_chains else chain_shift
            assert g.attrs["acc_chain"] == chain + shift
        assert (len(g.inputs), len(g.outputs)) == (len(w.inputs), len(w.outputs))
        for gr, wr in zip(g.inputs + g.outputs, w.inputs + w.outputs):
            assert gr.bounds == wr.bounds
            if wr.tensor.uid in external:
                assert gr.tensor is wr.tensor
                continue
            assert gr.tensor.uid not in external
            assert (gr.tensor.shape, gr.tensor.dtype, gr.tensor.space) == \
                (wr.tensor.shape, wr.tensor.dtype, wr.tensor.space)
            assert tensors.setdefault(wr.tensor.uid, gr.tensor.uid) == gr.tensor.uid
        assert g.signature() == w.signature()
    assert len(set(tensors.values())) == len(tensors)


def _with_attrs(inst, attrs):
    return Instruction(inst.opcode, inst.inputs, inst.outputs,
                       {**inst.attrs, **attrs})


def _shared_matmul(k, n, off):
    """MatMul whose A and B are regions of one tensor: N-split siblings see
    B at different offsets from A, one of them possibly equal to it."""
    t = Tensor("t", (k, max(k, off + n)))
    c = Tensor("c", (k, n))
    return Instruction(Opcode.MATMUL, (t[:, 0:k], t[:, off:off + n]),
                       (c.region(),))


def _add_inst(shape, alias):
    """Add of two (rows, cols) operands; the second is another tensor, the
    first operand itself, or a slab of its tensor at an offset."""
    rows = shape[0]
    x, y, o = Tensor("x", (2 * rows, shape[1])), Tensor("y", shape), Tensor("o", shape)
    first = x[0:rows, :]
    second = {"none": y.region(), "same": first, "offset": x[rows:, :],
              "overlap": x[rows // 2:rows // 2 + rows, :]}[alias]
    return Instruction(Opcode.ADD1D, (first, second), (o.region(),))


#: root attrs SD must carry through: accumulation flags and a chain id.
_ROOT_FLAGS = [{}, {"accumulate": True}, {"acc_local_out": True},
               {"acc_chain": 10 ** 9 + 1},
               {"accumulate": True, "acc_local_out": True, "acc_chain": 10 ** 9}]


@st.composite
def sd_roots(draw):
    kind = draw(st.sampled_from(
        ["matmul", "shared", "cv2d", "max2d", "sort", "hsum", "add"]))
    dim = st.integers(1, 40)
    if kind == "matmul":
        inst = matmul_inst(draw(dim), draw(dim), draw(dim))
    elif kind == "shared":
        k = draw(st.integers(1, 24))
        inst = _shared_matmul(k, draw(st.integers(1, 24)), draw(st.integers(0, 24)))
    elif kind == "cv2d":
        kh = draw(st.integers(1, 3))
        inst = conv_inst(n=draw(st.integers(1, 3)), h=draw(st.integers(kh, 12)),
                         w=draw(st.integers(kh, 12)), cin=draw(st.integers(1, 6)),
                         kh=kh, kw=kh, cout=draw(st.integers(1, 6)),
                         stride=draw(st.integers(1, 2)))
    elif kind == "max2d":
        s = draw(st.integers(1, 2))
        h, w = draw(st.integers(2, 12)), draw(st.integers(2, 12))
        x = Tensor("x", (draw(st.integers(1, 2)), h, w, draw(st.integers(1, 6))))
        o = Tensor("o", (x.shape[0], (h - 2) // s + 1, (w - 2) // s + 1, x.shape[3]))
        inst = Instruction(Opcode.MAX2D, (x.region(),), (o.region(),),
                           {"kh": 2, "kw": 2, "sh": s, "sw": s})
    elif kind == "sort":
        inst = sort_inst(draw(st.integers(1, 96)))
    elif kind == "hsum":
        x, o = Tensor("x", (draw(dim), draw(dim))), Tensor("o", (1,))
        inst = Instruction(Opcode.HSUM1D, (x.region(),), (o.region(),))
    else:
        inst = _add_inst((draw(st.integers(2, 24)), draw(dim)),
                         draw(st.sampled_from(["none", "same", "offset", "overlap"])))
    if kind in ("matmul", "shared", "cv2d", "hsum"):
        inst = _with_attrs(inst, draw(st.sampled_from(_ROOT_FLAGS)))
    return inst


class TestTemplatedShrink:
    """shrink_sequential splits each distinct shape once per call and
    re-emits repeats by offset; its output equals the oracle's."""

    @settings(deadline=None, max_examples=200)
    @given(inst=sd_roots(), sixty_fourths=st.integers(1, 64))
    def test_equals_oracle(self, inst, sixty_fourths):
        cap = max(1, footprint(inst) * sixty_fourths // 64)
        assert_same_steps(inst, *shrink_both(inst, cap))

    @pytest.mark.parametrize("inst", [
        _add_inst((16, 8), "same"),
        _add_inst((16, 8), "offset"),
        _add_inst((16, 8), "overlap"),
        _shared_matmul(16, 32, 0),
        _shared_matmul(16, 16, 8),
        _with_attrs(matmul_inst(8, 256, 8), {"accumulate": True}),
        _with_attrs(matmul_inst(8, 256, 8), {"acc_local_out": True}),
        _with_attrs(matmul_inst(8, 256, 8), {"acc_chain": 10 ** 9 + 7}),
        _with_attrs(conv_inst(n=2, h=12, w=12, cin=8, cout=4, stride=2),
                    {"accumulate": True, "acc_chain": 10 ** 9 + 9}),
        sort_inst(96),
    ], ids=["add-x-x", "add-offset", "add-overlap", "mm-shared",
            "mm-shared-offset", "accumulate", "acc-local-out", "acc-chain",
            "conv-acc-chain", "sort-partials"])
    @pytest.mark.parametrize("sixty_fourths", [1, 5, 16, 63])
    def test_named_roots(self, inst, sixty_fourths):
        cap = max(1, footprint(inst) * sixty_fourths // 64)
        assert_same_steps(inst, *shrink_both(inst, cap))

    def test_aliased_siblings_not_reused(self):
        """The N-split halves of MatMul(t[:, :8], t[:, :16]) share a
        signature, but in the first one A and B are the same region."""
        inst = _shared_matmul(8, 16, 0)
        halves = best_shrink_split(inst).parts
        assert halves[0].signature() == halves[1].signature()
        assert footprint(halves[0]) < footprint(halves[1])
        cap = footprint(halves[0])
        assert_same_steps(inst, *shrink_both(inst, cap))

    def test_each_shape_split_once(self, monkeypatch):
        """A 256^3 MatMul shrunk 128 ways splits a handful of distinct
        shapes, where the oracle splits all 127 nodes of its tree."""
        inst = matmul_inst(256, 256, 256)
        calls = []
        real = base.best_shrink_split
        monkeypatch.setattr(base, "best_shrink_split",
                            lambda i: calls.append(i) or real(i))
        got, want, chain_shift = shrink_both(inst, 16 * 1024)
        assert_same_steps(inst, got, want, chain_shift)
        assert len(got) == 128
        oracle_calls, templated_calls = calls[:127], calls[127:]
        assert len({id(c) for c in oracle_calls}) == 127
        keys = [base._template_key(c) for c in templated_calls]
        assert len(set(keys)) == len(keys) < 127 // 8

    def test_max_steps_guard(self, monkeypatch):
        """The guard counts split-tree nodes, re-emitted ones included, and
        trips exactly where the oracle's does."""
        inst = matmul_inst(64, 256, 64)
        cap = footprint(inst) // 64
        splits = []
        real = base.best_shrink_split

        def recording_split(i):
            splits.append(real(i))
            return splits[-1]

        monkeypatch.setattr(base, "best_shrink_split", recording_split)
        want = shrink_oracle(inst, cap)
        monkeypatch.undo()
        nodes = len(want) + sum(split is not None for split in splits)
        assert len(want) > 8
        assert_same_steps(inst, *shrink_both(inst, cap, max_steps=nodes))
        for shrink in (shrink_oracle, shrink_sequential):
            with pytest.raises(RuntimeError, match="exploded"):
                shrink(inst, cap, max_steps=nodes - 1)

    def test_dropped_steps_freed_without_gc(self):
        """The step list dies by reference counting alone: no cycle
        through the call's recursion keeps it alive."""

        class Probe:
            pass

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            steps = shrink_sequential(matmul_inst(64, 64, 64), 2048)
            probe = Probe()
            alive = weakref.ref(probe)
            steps.append(probe)
            del steps, probe
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()


class TestAccumulateRewrite:
    def test_rewrite_shape(self):
        inst = matmul_inst(4, 8, 4)
        rule = {r.name: r for r in rules_for(Opcode.MATMUL)}["Left, Vertical (K)"]
        split = sequentialize_add_reduction(rule.apply(inst, 2), inst)
        assert not split.reduction
        assert split.parts[0].attrs["accumulate"] is False
        assert split.parts[1].attrs["accumulate"] is True
        assert split.parts[0].attrs["acc_local_out"] is True
        assert split.parts[1].attrs["acc_local_out"] is False
        assert all(p.outputs[0] == inst.outputs[0] for p in split.parts)

    def test_non_add_reduction_untouched(self):
        split = decompose_parallel(sort_inst(16), 2)
        again = sequentialize_add_reduction(split, sort_inst(16))
        assert again.reduction  # Merge cannot accumulate

    def test_nested_chains_inherit_flags(self):
        inst = matmul_inst(2, 64, 2)
        steps = shrink_sequential(inst, 512)
        # every step but exactly the closers should keep the sum local
        closers = [s for s in steps if not s.attrs.get("acc_local_out")]
        assert len(closers) == 1
        assert closers[-1] == steps[-1]


class TestFunctionalEquivalence:
    """Every rule, applied and recombined, must reproduce the kernel."""

    @pytest.mark.parametrize("rule_idx", range(3))
    def test_matmul_rules(self, rng, rule_idx):
        inst = matmul_inst(6, 8, 10)
        rule = rules_for(Opcode.MATMUL)[rule_idx]
        self._check_rule(rng, inst, rule)

    @pytest.mark.parametrize("rule_idx", range(5))
    def test_conv_rules(self, rng, rule_idx):
        inst = conv_inst(n=3, h=7, w=7, cin=4, cout=6)
        rule = rules_for(Opcode.CV2D)[rule_idx]
        self._check_rule(rng, inst, rule)

    @pytest.mark.parametrize("rule_idx", range(4))
    def test_pool_rules(self, rng, rule_idx):
        x = Tensor("x", (2, 8, 8, 4))
        o = Tensor("o", (2, 4, 4, 4))
        inst = Instruction(Opcode.MAX2D, (x.region(),), (o.region(),),
                           {"kh": 2, "kw": 2, "sh": 2, "sw": 2})
        rule = rules_for(Opcode.MAX2D)[rule_idx]
        self._check_rule(rng, inst, rule)

    @pytest.mark.parametrize("rule_idx", range(3))
    def test_euclidian_rules(self, rng, rule_idx):
        x, y = Tensor("x", (6, 8)), Tensor("y", (5, 8))
        o = Tensor("o", (6, 5))
        inst = Instruction(Opcode.EUCLIDIAN1D, (x.region(), y.region()),
                           (o.region(),))
        rule = rules_for(Opcode.EUCLIDIAN1D)[rule_idx]
        self._check_rule(rng, inst, rule)

    @staticmethod
    def _check_rule(rng, inst, rule):
        """Apply one rule, execute parts + reduction with kernels, compare."""
        from repro.core.executor import run_reference
        from repro.core.store import TensorStore

        split = rule.apply(inst, 2)
        ref, frac = TensorStore(), TensorStore()
        for r in inst.inputs:
            arr = rng.normal(size=r.tensor.shape)
            ref.bind(r.tensor, arr)
            frac.bind(r.tensor, arr)
        run_reference(inst, ref)
        for part in split.parts:
            run_reference(part, frac)
        for red in split.reduction:
            run_reference(red, frac)
        np.testing.assert_allclose(frac.read(inst.outputs[0]),
                                   ref.read(inst.outputs[0]), atol=1e-9)


# -- property-based -------------------------------------------------------------

@settings(deadline=None, max_examples=30)
@given(m=st.integers(1, 12), k=st.integers(1, 12), n=st.integers(1, 12),
       parts=st.integers(2, 5))
def test_matmul_decomposition_correct_for_random_shapes(m, k, n, parts):
    rng = np.random.default_rng(m * 151 + k * 7 + n)
    inst = matmul_inst(m, k, n)
    arrays = {r: rng.normal(size=r.tensor.shape) for r in inst.inputs}
    assert_fractal_matches(inst, arrays, tiny_machine(fanouts=(parts, 2)))


@settings(deadline=None, max_examples=20)
@given(n=st.integers(1, 4), h=st.integers(3, 9), cin=st.integers(1, 4),
       cout=st.integers(1, 5), stride=st.integers(1, 2))
def test_conv_decomposition_correct_for_random_shapes(n, h, cin, cout, stride):
    rng = np.random.default_rng(n * 31 + h + cin + cout)
    inst = conv_inst(n=n, h=h, w=h, cin=cin, kh=3, kw=3, cout=cout, stride=stride)
    arrays = {r: rng.normal(size=r.tensor.shape) for r in inst.inputs}
    assert_fractal_matches(inst, arrays)


@settings(deadline=None, max_examples=20)
@given(size=st.integers(1, 60))
def test_sort_decomposition_correct(size):
    rng = np.random.default_rng(size)
    inst = sort_inst(size)
    arrays = {inst.inputs[0]: rng.normal(size=(size,))}
    assert_fractal_matches(inst, arrays)


def _best_rewriting_every_candidate(inst):
    """best_shrink_split scoring as it did by rewriting every Add-reduction
    candidate (each rewrite draws a chain id); the winner must not move."""
    best = best_score = None
    current = footprint(inst)
    for order, rule in enumerate(rules_for(inst.opcode)):
        if rule.extent(inst) < 2:
            continue
        split = sequentialize_add_reduction(rule.apply(inst, 2), inst)
        fp = max(footprint(p) for p in split.parts)
        if fp >= current:
            continue
        score = (fp, 1 if split.reduction else 0, order)
        if best_score is None or score < best_score:
            best, best_score = split, score
    return best


def _split_shape(split, inst):
    """A split up to its partials' identities and chain ids."""
    if split is None:
        return None
    own = {r.tensor.uid for r in inst.inputs + inst.outputs}
    return [(i.opcode, sorted((k, v) for k, v in i.attrs.items() if k != "acc_chain"),
             "acc_chain" in i.attrs,
             [(r.tensor.uid if r.tensor.uid in own else r.tensor.shape, r.bounds)
              for r in i.inputs + i.outputs])
            for i in split.parts + split.reduction]


class TestChainIdsOfKeptSplits:
    """best_shrink_split scores an Add-reduction candidate as it would be
    rewritten, and rewrites only the winner: a losing candidate draws no
    accumulation-chain id."""

    @settings(deadline=None, max_examples=150)
    @given(inst=sd_roots())
    def test_winner_unchanged(self, inst):
        want = _best_rewriting_every_candidate(inst)
        start = base._chain_counter.value
        got = best_shrink_split(inst)
        assert _split_shape(got, inst) == _split_shape(want, inst)
        kept_chain = (got is not None and got.parts[0].attrs.get("acc_chain")
                      != inst.attrs.get("acc_chain"))
        assert base._chain_counter.value - start == int(kept_chain)

    def test_losing_add_candidate_draws_no_id(self):
        """A K split makes progress on this MatMul but loses to M and N."""
        inst = matmul_inst(64, 16, 64)
        k_split = {r.name: r for r in rules_for(Opcode.MATMUL)}["Left, Vertical (K)"]
        assert max(map(footprint, k_split.apply(inst, 2).parts)) < footprint(inst)
        start = base._chain_counter.value
        split = best_shrink_split(inst)
        assert "acc_chain" not in split.parts[0].attrs
        assert base._chain_counter.value == start

    def test_vgg16_f1_compile_draws_only_kept_ids(self):
        """Compiling VGG-16 on F1 keeps two K splits, one per fc layer
        that outgrows the root's memory, and draws their two ids; scoring
        every candidate by rewriting it drew seven."""
        from repro import cambricon_f1
        from repro.plan import compile_program
        from repro.workloads import profile_benchmark

        program = profile_benchmark("VGG-16").program
        start = base._chain_counter.value
        compile_program(cambricon_f1(), program)
        assert base._chain_counter.value - start == 2
