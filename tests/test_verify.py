"""Differential-verification harness and cost-report tests."""

import numpy as np
import pytest

from repro import Instruction, Opcode, Tensor, cambricon_f1, cambricon_f100
from repro.core.verify import bit_identical, verify_program, verify_suite
from repro.cost.report import format_cost_report, machine_cost_report
from repro.cost.layout import subtree_cost

from conftest import tiny_machine


def matmul_program(m=8, k=8, n=8):
    a, b, c = Tensor("a", (m, k)), Tensor("b", (k, n)), Tensor("c", (m, n))
    return [Instruction(Opcode.MATMUL, (a.region(), b.region()),
                        (c.region(),))]


class TestVerifyProgram:
    def test_correct_program_passes(self):
        report = verify_program(matmul_program(), tiny_machine(), name="mm")
        assert report.passed
        assert report.outputs_checked == 1
        assert "PASS" in report.summary()

    def test_supplied_inputs_used(self):
        prog = matmul_program(2, 2, 2)
        names = {r.tensor.name: r.tensor for i in prog
                 for r in i.inputs}
        report = verify_program(
            prog, tiny_machine(),
            inputs={"a": np.eye(2), "b": np.eye(2)})
        assert report.passed

    def test_deterministic_across_seeds(self):
        r1 = verify_program(matmul_program(), tiny_machine(), seed=3)
        r2 = verify_program(matmul_program(), tiny_machine(), seed=3)
        assert r1.max_abs_error == r2.max_abs_error

    def test_broken_semantics_detected(self, monkeypatch):
        """Sabotage a kernel: verification must FAIL, not silently pass."""
        import repro.ops.dispatch as dispatch
        real = dispatch.kernel_for(Opcode.MATMUL)

        def broken(inputs, attrs):
            # bias depends on the tile size: the decomposed tiles see
            # narrower right-hand operands than the monolithic reference
            return real(inputs, attrs) + inputs[1].shape[1]

        monkeypatch.setitem(dispatch._KERNELS, Opcode.MATMUL, broken)
        report = verify_program(matmul_program(16, 16, 16), tiny_machine())
        assert not report.passed
        assert report.mismatches
        assert "FAIL" in report.summary()

    def test_suite_all_pass(self):
        reports = verify_suite(machine=tiny_machine())
        assert len(reports) == 7
        for r in reports:
            assert r.passed, r.summary()


class TestCostReport:
    @pytest.mark.parametrize("machine_fn", [cambricon_f1, cambricon_f100])
    def test_matches_rollup(self, machine_fn):
        """The per-level breakdown must sum to the recursive roll-up."""
        machine = machine_fn()
        rows = machine_cost_report(machine)
        total_area = sum(r.area_mm2 for r in rows)
        total_power = sum(r.power_w for r in rows)
        rollup = subtree_cost(machine, 0)
        assert total_area == pytest.approx(rollup.area_mm2, rel=1e-6)
        assert total_power == pytest.approx(rollup.power_w, rel=1e-6)

    def test_leaf_level_is_cores_only(self):
        rows = machine_cost_report(cambricon_f100())
        leaf = rows[-1]
        assert leaf.core_area_mm2 > 0
        assert leaf.memory_area_mm2 == 0  # leaf memory is inside the core row

    def test_dram_levels_excluded(self):
        rows = machine_cost_report(cambricon_f1())
        assert rows[0].memory_area_mm2 == 0.0  # the 32 GB level is off-chip

    def test_format_renders(self):
        text = format_cost_report(cambricon_f1())
        assert "cross-check" in text and "Core" in text


class TestBitIdentical:
    """The comparison behind every "bit-identical" check compares bits,
    not values."""

    def test_signed_zeros_differ(self):
        assert np.array_equal([0.0], [-0.0])  # the gap it closes
        assert not bit_identical(np.array([0.0]), np.array([-0.0]))

    def test_equal_nan_payloads_match(self):
        nan = np.array([np.nan, 1.0])
        assert not np.array_equal(nan, nan.copy())  # the gap it closes
        assert bit_identical(nan, nan.copy())
        other = nan.copy()
        other.view(np.uint64)[0] ^= 1  # another quiet-NaN payload
        assert np.isnan(other[0])
        assert not bit_identical(nan, other)

    def test_dtype_and_shape_must_match(self):
        a = np.arange(6.0)
        assert bit_identical(a, a.copy())
        assert not bit_identical(a, a.reshape(2, 3))
        assert not bit_identical(np.zeros(2, np.float64),
                                 np.zeros(4, np.float32))
