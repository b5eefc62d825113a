"""Workload generator tests: Table-5 fidelity and functional correctness of
the miniature benchmark suite."""

import numpy as np
import pytest

from repro import FractalExecutor, TensorStore
from repro.core.executor import run_reference
from repro.core.isa import Opcode
from repro.workloads import (
    PAPER_BENCHMARKS,
    alexnet,
    knn_workload,
    lvq_workload,
    matmul_workload,
    mlp,
    paper_benchmark,
    resnet152,
    small_benchmark,
    svm_workload,
    vgg16,
)
from repro.workloads.datasets import clustered_samples, random_images, random_matrices

from conftest import tiny_machine


class TestTable5Fidelity:
    def test_vgg16_parameters(self):
        """Table 5: 1.38e8 parameters."""
        w = vgg16(batch=1)
        assert w.param_count == pytest.approx(1.38e8, rel=0.01)

    def test_vgg16_ops_per_image(self):
        """Table 5: 3.09e10 ops per image."""
        w = vgg16(batch=1)
        assert w.work == pytest.approx(3.09e10, rel=0.05)

    def test_resnet152_parameters(self):
        """Table 5: 6.03e7 parameters."""
        w = resnet152(batch=1)
        assert w.param_count == pytest.approx(6.03e7, rel=0.01)

    def test_resnet152_ops_per_image(self):
        """Table 5: 2.26e10 ops per image."""
        w = resnet152(batch=1)
        assert w.work == pytest.approx(2.26e10, rel=0.05)

    def test_ops_scale_with_batch(self):
        assert vgg16(batch=4).work == pytest.approx(4 * vgg16(batch=1).work,
                                                    rel=1e-6)

    def test_matmul_order(self):
        w = matmul_workload(1024)
        assert w.work == 2 * 1024 ** 3

    def test_knn_distance_dominates(self):
        """Paper: distance computation is >=95% of k-NN."""
        w = knn_workload(n_samples=8192, dims=512, categories=128, batch=2048)
        dist = sum(i.work() for i in w.program
                   if i.opcode is Opcode.EUCLIDIAN1D)
        assert dist / w.work >= 0.90

    def test_lvq_mix(self):
        """LVQ: IP-dominated by op count (it must clear the F1 ridge point,
        Fig 15a) while carrying a long element-wise update chain that
        dominates *CPU time* (Table 1 -- asserted in the Table-1 bench)."""
        w = lvq_workload(n_samples=8192, dims=512, batch=2048)
        eltw = sum(i.work() for i in w.program
                   if i.opcode in (Opcode.ADD1D, Opcode.SUB1D, Opcode.MUL1D))
        ip = sum(i.work() for i in w.program
                 if i.opcode is Opcode.EUCLIDIAN1D)
        assert ip > eltw  # ops: distances dominate
        assert eltw / w.work > 0.005  # but the update chain is substantial

    def test_svm_ip_dominates(self):
        """Paper Table 1: SVM is ~99% IP (kernel + decision MatMul)."""
        w = svm_workload(n_sv=512, n_samples=2048, dims=128, batch=1024)
        ip = sum(i.work() for i in w.program
                 if i.opcode in (Opcode.EUCLIDIAN1D, Opcode.MATMUL))
        assert ip / w.work > 0.95

    def test_alexnet_has_lrn_and_pool(self):
        ops = {i.opcode for i in alexnet(batch=1).program}
        assert Opcode.LRN in ops and Opcode.MAX2D in ops

    def test_mlp_is_mmm_dominated(self):
        """Paper Table 1: DNN is 99.9% MMM."""
        w = mlp(batch=8)
        mm = sum(i.work() for i in w.program if i.opcode is Opcode.MATMUL)
        assert mm / w.work > 0.99


class TestSuite:
    def test_paper_factories_exist(self):
        assert set(PAPER_BENCHMARKS) == {
            "VGG-16", "ResNet-152", "K-NN", "K-Means", "LVQ", "SVM", "MATMUL"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            paper_benchmark("nope")
        with pytest.raises(KeyError):
            small_benchmark("nope")

    @pytest.mark.parametrize("name", sorted(PAPER_BENCHMARKS))
    def test_small_benchmarks_build(self, name):
        w = small_benchmark(name)
        assert len(w.program) >= 1
        assert w.work > 0


class TestFunctionalExecution:
    """Every miniature benchmark must execute fractally to the same numbers
    as the reference kernels."""

    @pytest.mark.parametrize("name", sorted(PAPER_BENCHMARKS))
    def test_small_benchmark_correct(self, rng, name):
        w = small_benchmark(name)
        frac, ref = TensorStore(), TensorStore()
        for t in list(w.inputs.values()) + list(w.params.values()):
            arr = 0.1 * rng.normal(size=t.shape)
            frac.bind(t, arr)
            ref.bind(t, arr)
        for inst in w.program:
            run_reference(inst, ref)
        FractalExecutor(tiny_machine(fanouts=(2, 2),
                                     mems=(1 << 18, 1 << 16, 1 << 14)),
                        frac).run_program(w.program)
        for t in w.outputs.values():
            np.testing.assert_allclose(frac.read(t.region()),
                                       ref.read(t.region()),
                                       atol=1e-7, rtol=1e-6)


class TestDatasets:
    def test_clustered_shapes(self):
        x, labels, centers = clustered_samples(n_samples=256, dims=16,
                                               categories=8)
        assert x.shape == (256, 16)
        assert labels.shape == (256,)
        assert centers.shape == (8, 16)
        assert labels.min() >= 0 and labels.max() < 8

    def test_clusters_are_separable(self):
        x, labels, centers = clustered_samples(n_samples=512, dims=32,
                                               categories=4, spread=0.1)
        d = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        assert (d.argmin(axis=1) == labels).mean() > 0.99

    def test_seeded_reproducibility(self):
        a1, _, _ = clustered_samples(64, 8, 4, seed=1)
        a2, _, _ = clustered_samples(64, 8, 4, seed=1)
        np.testing.assert_array_equal(a1, a2)

    def test_random_matrices(self):
        a, b = random_matrices(32)
        assert a.shape == b.shape == (32, 32)

    def test_random_images(self):
        assert random_images(2, 8).shape == (2, 8, 8, 3)


class TestBuilderDetails:
    def test_padding_preserves_semantics(self, rng):
        """Explicit padding: a 'same' conv equals numpy's padded conv."""
        from repro.ops.conv import conv2d

        w = vgg16(batch=1, input_size=32, num_classes=4)
        img = next(t for t in w.inputs.values())
        store = TensorStore()
        arr = rng.normal(size=img.shape)
        store.bind(img, arr)
        for t in w.params.values():
            store.bind(t, 0.1 * rng.normal(size=t.shape))
        # run just the first two instructions: pad + conv
        pad_inst, conv_inst = w.program[0], w.program[1]
        run_reference(pad_inst, store)
        run_reference(conv_inst, store)
        weight = conv_inst.inputs[1]
        want = conv2d(np.pad(arr, ((0, 0), (1, 1), (1, 1), (0, 0))),
                      store.read(weight))
        np.testing.assert_allclose(store.read(conv_inst.outputs[0]), want,
                                   atol=1e-9)

    def test_workload_io_bytes_positive(self):
        assert vgg16(batch=1, input_size=32).io_bytes() > 0

    def test_resnet_block_structure(self):
        w = resnet152(batch=1, input_size=64, blocks=[2, 2, 2, 2])
        adds = [i for i in w.program if i.opcode is Opcode.ADD1D]
        assert len(adds) == 8  # one shortcut add per block
