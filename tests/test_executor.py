"""Functional fractal executor tests: end-to-end numerical equivalence on
every opcode and a variety of machine shapes."""

import numpy as np
import pytest

from repro import FractalExecutor, Instruction, Opcode, Tensor, TensorStore, custom_machine
from repro.core.executor import run_reference

from conftest import assert_fractal_matches, tiny_machine


def _instr(opcode, shapes, out_shape, attrs=None, rng=None):
    rng = rng or np.random.default_rng(7)
    regions, arrays = [], {}
    for i, shape in enumerate(shapes):
        t = Tensor(f"in{i}", shape)
        regions.append(t.region())
        arrays[t.region()] = rng.normal(size=shape)
    out = Tensor("out", out_shape)
    inst = Instruction(opcode, tuple(regions), (out.region(),), attrs or {})
    return inst, arrays


ALL_OPCODE_CASES = [
    (Opcode.MATMUL, [(13, 9), (9, 11)], (13, 11), {}),
    (Opcode.CV2D, [(2, 8, 8, 3), (3, 3, 3, 4)], (2, 6, 6, 4), {"stride": 1}),
    (Opcode.CV2D, [(1, 9, 9, 2), (3, 3, 2, 4)], (1, 4, 4, 4), {"stride": 2}),
    (Opcode.CV3D, [(1, 5, 6, 6, 2), (2, 3, 3, 2, 3)], (1, 4, 4, 4, 3), {}),
    (Opcode.MAX2D, [(2, 8, 8, 3)], (2, 4, 4, 3), {"kh": 2, "kw": 2}),
    (Opcode.MIN2D, [(2, 8, 8, 3)], (2, 4, 4, 3), {"kh": 2, "kw": 2}),
    (Opcode.AVG2D, [(2, 9, 9, 3)], (2, 4, 4, 3),
     {"kh": 3, "kw": 3, "sh": 2, "sw": 2}),
    (Opcode.LRN, [(2, 4, 4, 8)], (2, 4, 4, 8), {"size": 5}),
    (Opcode.EUCLIDIAN1D, [(10, 7), (6, 7)], (10, 6), {}),
    (Opcode.SORT1D, [(37,)], (37,), {}),
    (Opcode.COUNT1D, [(50,)], (1,), {}),
    (Opcode.ADD1D, [(23,), (23,)], (23,), {}),
    (Opcode.SUB1D, [(23,), (23,)], (23,), {}),
    (Opcode.MUL1D, [(23,), (23,)], (23,), {}),
    (Opcode.ACT1D, [(19,)], (19,), {"func": "relu"}),
    (Opcode.HSUM1D, [(41,)], (1,), {}),
    (Opcode.HPROD1D, [(11,)], (1,), {}),
]


@pytest.mark.parametrize("opcode,shapes,out_shape,attrs", ALL_OPCODE_CASES,
                         ids=lambda v: getattr(v, "value", None) or str(v)[:18])
def test_every_opcode_fractal_equals_reference(opcode, shapes, out_shape, attrs):
    inst, arrays = _instr(opcode, shapes, out_shape, attrs)
    assert_fractal_matches(inst, arrays, atol=1e-8)


def test_merge_opcode_fractal(rng):
    parts = []
    arrays = {}
    for i, n in enumerate((9, 5, 12, 7)):
        t = Tensor(f"p{i}", (n,))
        parts.append(t.region())
        arrays[t.region()] = np.sort(rng.normal(size=n))
    out = Tensor("out", (33,))
    inst = Instruction(Opcode.MERGE1D, tuple(parts), (out.region(),))
    assert_fractal_matches(inst, arrays)


class TestMachineShapes:
    """Correctness must hold regardless of the hierarchy."""

    @pytest.mark.parametrize("fanouts", [(2,), (8,), (2, 2, 2), (4, 3), (1, 4)])
    def test_matmul_on_varied_hierarchies(self, rng, fanouts):
        inst, arrays = _instr(Opcode.MATMUL, [(12, 10), (10, 8)], (12, 8))
        mems = [1 << (16 - 2 * i) for i in range(len(fanouts) + 1)]
        machine = custom_machine("m", list(fanouts), mems,
                                 [1e9] * (len(fanouts) + 1))
        assert_fractal_matches(inst, arrays, machine)

    def test_fanout_one_inherits_whole(self, rng):
        inst, arrays = _instr(Opcode.CV2D, [(1, 6, 6, 2), (3, 3, 2, 2)],
                              (1, 4, 4, 2), {"stride": 1})
        machine = custom_machine("deep1", [1, 2], [1 << 16, 1 << 14, 1 << 12],
                                 [1e9] * 3)
        assert_fractal_matches(inst, arrays, machine)

    def test_tight_memory_forces_sequential_decomposition(self, rng):
        inst, arrays = _instr(Opcode.MATMUL, [(16, 16), (16, 16)], (16, 16))
        machine = custom_machine("tight", [2], [600, 300], [1e9, 1e9])
        store = TensorStore()
        for r, arr in arrays.items():
            store.bind(r.tensor, arr)
        ex = FractalExecutor(machine, store)
        ex.run(inst)
        assert ex.stats.kernel_calls > 4  # heavy decomposition happened
        ref = TensorStore()
        for r, arr in arrays.items():
            ref.bind(r.tensor, arr)
        run_reference(inst, ref)
        np.testing.assert_allclose(store.read(inst.outputs[0]),
                                   ref.read(inst.outputs[0]), atol=1e-9)


class TestPrograms:
    def test_chained_instructions(self, rng):
        """conv -> relu -> pool as a program, intermediates flowing through."""
        x = Tensor("x", (1, 8, 8, 2))
        w = Tensor("w", (3, 3, 2, 4))
        c = Tensor("c", (1, 6, 6, 4))
        r = Tensor("r", (1, 6, 6, 4))
        p = Tensor("p", (1, 3, 3, 4))
        program = [
            Instruction(Opcode.CV2D, (x.region(), w.region()), (c.region(),),
                        {"stride": 1}),
            Instruction(Opcode.ACT1D, (c.region(),), (r.region(),),
                        {"func": "relu"}),
            Instruction(Opcode.MAX2D, (r.region(),), (p.region(),),
                        {"kh": 2, "kw": 2}),
        ]
        frac, ref = TensorStore(), TensorStore()
        for t in (x, w):
            arr = rng.normal(size=t.shape)
            frac.bind(t, arr)
            ref.bind(t, arr)
        for inst in program:
            run_reference(inst, ref)
        FractalExecutor(tiny_machine(), frac).run_program(program)
        np.testing.assert_allclose(frac.read(p.region()), ref.read(p.region()),
                                   atol=1e-9)

    def test_stats_collected(self, rng):
        inst, arrays = _instr(Opcode.MATMUL, [(8, 8), (8, 8)], (8, 8))
        store = TensorStore()
        for r, arr in arrays.items():
            store.bind(r.tensor, arr)
        ex = FractalExecutor(tiny_machine(), store)
        ex.run(inst)
        assert ex.stats.kernel_calls > 0
        assert ex.stats.instructions_per_level[0] == 1
        assert ex.stats.max_depth_reached == 2


class TestStore:
    def test_bind_shape_check(self):
        t = Tensor("t", (4, 4))
        with pytest.raises(ValueError):
            TensorStore().bind(t, np.ones((3, 3)))

    def test_write_reshapes_flat_results(self):
        t = Tensor("t", (2, 3))
        store = TensorStore()
        store.write(t.region(), np.arange(6.0))
        assert store.read(t.region()).shape == (2, 3)

    def test_write_rejects_wrong_size(self):
        t = Tensor("t", (2, 3))
        with pytest.raises(ValueError):
            TensorStore().write(t.region(), np.arange(5.0))

    def test_accumulate(self):
        t = Tensor("t", (4,))
        store = TensorStore()
        store.write(t.region(), np.ones(4))
        store.write_accumulate(t.region(), 2 * np.ones(4))
        np.testing.assert_allclose(store.read(t.region()), 3.0)

    def test_read_returns_copy(self):
        t = Tensor("t", (4,))
        store = TensorStore()
        store.write(t.region(), np.ones(4))
        view = store.read(t.region())
        view[0] = 99
        assert store.read(t.region())[0] == 1.0
