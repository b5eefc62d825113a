"""FISA binary encoding tests: round-trips, corruption handling, and the
disassembler/assembler loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import FractalExecutor, Instruction, Opcode, Tensor, TensorStore
from repro.frontend import (
    EncodingError,
    assemble,
    decode_program,
    disassemble,
    encode_program,
)
from repro.workloads import small_benchmark, vgg16

from conftest import tiny_machine


def sample_program():
    a, b, c = Tensor("a", (8, 6)), Tensor("b", (6, 4)), Tensor("c", (8, 4))
    r = Tensor("r", (8, 4))
    return [
        Instruction(Opcode.MATMUL, (a.region(), b.region()), (c.region(),)),
        Instruction(Opcode.ACT1D, (c.region(),), (r.region(),),
                    {"func": "relu"}),
    ]


def structurally_equal(p1, p2):
    assert len(p1) == len(p2)
    for i1, i2 in zip(p1, p2):
        assert i1.opcode == i2.opcode
        assert i1.signature() == i2.signature()
        for r1, r2 in zip(i1.inputs + i1.outputs, i2.inputs + i2.outputs):
            assert r1.bounds == r2.bounds
            assert r1.tensor.name == r2.tensor.name
            assert r1.tensor.shape == r2.tensor.shape


class TestRoundTrip:
    def test_simple_program(self):
        prog = sample_program()
        tensors, decoded = decode_program(encode_program(prog))
        structurally_equal(prog, decoded)
        assert {t.name for t in tensors} == {"a", "b", "c", "r"}

    def test_attrs_of_every_type(self):
        x, o = Tensor("x", (4,)), Tensor("o", (4,))
        inst = Instruction(Opcode.ACT1D, (x.region(),), (o.region(),),
                           {"func": "relu", "stride": 2, "alpha": 0.5,
                            "flag": True, "value": None})
        _, (decoded,) = decode_program(encode_program([inst]))
        assert decoded.attrs == inst.attrs

    def test_subregion_operands(self):
        t = Tensor("t", (16, 16))
        o = Tensor("o", (4, 16))
        inst = Instruction(Opcode.ACT1D, (t.region()[2:6, :],),
                           (o.region(),), {"func": "identity"})
        _, (decoded,) = decode_program(encode_program([inst]))
        assert decoded.inputs[0].bounds == ((2, 6), (0, 16))

    def test_acc_chain_stripped(self):
        x, o = Tensor("x", (4,)), Tensor("o", (4,))
        inst = Instruction(Opcode.ACT1D, (x.region(),), (o.region(),),
                           {"func": "relu", "acc_chain": 42})
        _, (decoded,) = decode_program(encode_program([inst]))
        assert "acc_chain" not in decoded.attrs

    def test_whole_network_round_trips(self):
        prog = vgg16(batch=1, input_size=32, num_classes=10).program
        _, decoded = decode_program(encode_program(prog))
        structurally_equal(prog, decoded)

    def test_deterministic(self):
        prog = sample_program()
        assert encode_program(prog) == encode_program(prog)

    def test_decoded_program_executes(self, rng):
        """The binary is runnable: decode and execute fractally."""
        prog = sample_program()
        _, decoded = decode_program(encode_program(prog))
        by_name = {}
        for inst in decoded:
            for r in inst.inputs + inst.outputs:
                by_name[r.tensor.name] = r.tensor
        store = TensorStore()
        a = rng.normal(size=(8, 6))
        b = rng.normal(size=(6, 4))
        store.bind(by_name["a"], a)
        store.bind(by_name["b"], b)
        FractalExecutor(tiny_machine(), store).run_program(decoded)
        np.testing.assert_allclose(store.read(by_name["r"].region()),
                                   np.maximum(a @ b, 0), atol=1e-9)


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(EncodingError, match="magic"):
            decode_program(b"NOPE" + b"\x00" * 16)

    def test_bad_version(self):
        data = bytearray(encode_program(sample_program()))
        data[4] = 0xFF
        with pytest.raises(EncodingError, match="version"):
            decode_program(bytes(data))

    def test_truncated(self):
        data = encode_program(sample_program())
        with pytest.raises(EncodingError, match="truncated"):
            decode_program(data[: len(data) // 2])

    def test_trailing_garbage(self):
        data = encode_program(sample_program())
        with pytest.raises(EncodingError, match="trailing"):
            decode_program(data + b"\x00")

    def test_unencodable_attr(self):
        x, o = Tensor("x", (4,)), Tensor("o", (4,))
        inst = Instruction(Opcode.ACT1D, (x.region(),), (o.region(),),
                           {"bad": [1, 2]})
        with pytest.raises(EncodingError, match="unencodable"):
            encode_program([inst])


class TestDisassembler:
    def test_reassemblable(self, rng):
        """disassemble() output must re-assemble to an equivalent program."""
        prog = sample_program()
        text = disassemble(prog)
        # inputs must be declared for the assembler; tensor lines suffice
        w = assemble(text.replace("tensor a", "input a")
                     .replace("tensor b", "input b"))
        assert len(w.program) == len(prog)
        for orig, re_asm in zip(prog, w.program):
            assert orig.opcode == re_asm.opcode
            assert orig.signature() == re_asm.signature()

    def test_contains_attrs(self):
        text = disassemble(sample_program())
        assert "func=relu" in text

    def test_subregions_rendered(self):
        t = Tensor("t", (16,))
        o = Tensor("o", (8,))
        inst = Instruction(Opcode.ACT1D, (t.region()[4:12],), (o.region(),),
                           {"func": "identity"})
        assert "t[4:12]" in disassemble([inst])


@settings(deadline=None, max_examples=25)
@given(m=st.integers(1, 16), k=st.integers(1, 16), n=st.integers(1, 16),
       func=st.sampled_from(["relu", "tanh", "exp"]))
def test_roundtrip_random_programs(m, k, n, func):
    a, b, c = Tensor("a", (m, k)), Tensor("b", (k, n)), Tensor("c", (m, n))
    r = Tensor("r", (m, n))
    prog = [
        Instruction(Opcode.MATMUL, (a.region(), b.region()), (c.region(),)),
        Instruction(Opcode.ACT1D, (c.region(),), (r.region(),), {"func": func}),
    ]
    _, decoded = decode_program(encode_program(prog))
    structurally_equal(prog, decoded)


def test_small_benchmarks_encode():
    for name in ("K-NN", "MATMUL", "SVM"):
        prog = small_benchmark(name).program
        _, decoded = decode_program(encode_program(prog))
        assert len(decoded) == len(prog)
