"""Host runtime + end-to-end algorithm tests: the paper's programming
model actually classifying/clustering data through FISA."""

import numpy as np
import pytest

from repro import custom_machine
from repro.runtime import (
    HostRuntime,
    KMeans,
    KNNClassifier,
    LVQClassifier,
    RBFSVMClassifier,
)
from repro.workloads.datasets import clustered_samples


@pytest.fixture
def runtime():
    """A runtime on a small-but-real fractal machine."""
    return HostRuntime(custom_machine("rt", [2, 2],
                                      [1 << 18, 1 << 15, 1 << 12], [1e9] * 3))


@pytest.fixture
def blobs():
    x, y, centers = clustered_samples(n_samples=120, dims=8, categories=3,
                                      spread=0.15, seed=7)
    return x, y, centers


class TestHostRuntime:
    def test_matmul(self, runtime, rng):
        a, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 5))
        np.testing.assert_allclose(runtime.matmul(a, b), a @ b, atol=1e-9)

    def test_euclidian(self, runtime, rng):
        x, refs = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        want = ((x[:, None, :] - refs[None]) ** 2).sum(-1)
        np.testing.assert_allclose(runtime.euclidian(x, refs), want, atol=1e-9)

    def test_conv2d(self, runtime, rng):
        from repro.ops.conv import conv2d
        x, w = rng.normal(size=(1, 6, 6, 2)), rng.normal(size=(3, 3, 2, 3))
        np.testing.assert_allclose(runtime.conv2d(x, w), conv2d(x, w),
                                   atol=1e-9)

    def test_sort_and_count(self, runtime, rng):
        x = rng.normal(size=33)
        np.testing.assert_array_equal(runtime.sort(x), np.sort(x))
        assert runtime.count(np.array([0.0, 1.0, 2.0, 0.0])) == 2
        assert runtime.count(np.array([1.0, 2.0, 2.0]), value=2.0) == 2

    def test_eltwise_and_hsum(self, runtime, rng):
        a, b = rng.normal(size=9), rng.normal(size=9)
        np.testing.assert_allclose(runtime.add(a, b), a + b)
        np.testing.assert_allclose(runtime.sub(a, b), a - b)
        np.testing.assert_allclose(runtime.mul(a, b), a * b)
        assert runtime.hsum(a) == pytest.approx(a.sum())

    def test_activation(self, runtime):
        x = np.array([-1.0, 2.0])
        np.testing.assert_allclose(runtime.activation(x, "relu"), [0.0, 2.0])

    def test_instruction_counter(self, runtime, rng):
        before = runtime.instructions_issued
        runtime.add(rng.normal(size=4), rng.normal(size=4))
        assert runtime.instructions_issued == before + 1

    def test_one_hot(self):
        oh = HostRuntime.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(oh, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


class TestKNN:
    def test_classifies_blobs(self, runtime, blobs):
        x, y, _ = blobs
        clf = KNNClassifier(k=3, runtime=runtime).fit(x[:90], y[:90])
        assert clf.score(x[90:], y[90:]) > 0.9

    def test_k_one_memorizes(self, runtime, blobs):
        x, y, _ = blobs
        clf = KNNClassifier(k=1, runtime=runtime).fit(x[:50], y[:50])
        assert clf.score(x[:20], y[:20]) == 1.0

    def test_validation(self, runtime):
        with pytest.raises(ValueError):
            KNNClassifier(k=0)
        with pytest.raises(ValueError):
            KNNClassifier(k=9, runtime=runtime).fit(np.ones((3, 2)),
                                                    np.array([0, 1, 2]))
        with pytest.raises(RuntimeError):
            KNNClassifier(k=1, runtime=runtime).predict(np.ones((1, 2)))


class TestKMeans:
    def test_recovers_clusters(self, runtime, blobs):
        x, y, centers = blobs
        km = KMeans(k=3, runtime=runtime, seed=3).fit(x)
        assign = km.predict(x)
        # cluster labels are arbitrary: check purity instead
        purity = 0
        for c in range(3):
            members = y[assign == c]
            if members.size:
                purity += np.bincount(members).max()
        assert purity / len(x) > 0.9

    def test_converges_early(self, runtime, blobs):
        x, _, _ = blobs
        km = KMeans(k=3, max_iter=50, runtime=runtime, seed=3).fit(x)
        assert km.iterations_run < 50

    def test_inertia_decreases_with_k(self, runtime, blobs):
        x, _, _ = blobs
        i1 = KMeans(k=1, runtime=runtime).fit(x).inertia(x)
        i3 = KMeans(k=3, runtime=runtime, seed=3).fit(x).inertia(x)
        assert i3 < i1

    def test_validation(self, runtime):
        with pytest.raises(ValueError):
            KMeans(k=0)
        with pytest.raises(ValueError):
            KMeans(k=10, runtime=runtime).fit(np.ones((3, 2)))
        with pytest.raises(RuntimeError):
            KMeans(k=2, runtime=runtime).predict(np.ones((2, 2)))


class TestLVQ:
    def test_classifies_blobs(self, runtime, blobs):
        x, y, _ = blobs
        clf = LVQClassifier(prototypes_per_class=1, epochs=5,
                            runtime=runtime).fit(x[:90], y[:90])
        assert clf.score(x[90:], y[90:]) > 0.85

    def test_unfit_raises(self, runtime):
        with pytest.raises(RuntimeError):
            LVQClassifier(runtime=runtime).predict(np.ones((1, 4)))


class TestRBFSVM:
    def test_separates_two_blobs(self, runtime):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 4)) + 2.0
        b = rng.normal(size=(40, 4)) - 2.0
        x = np.vstack([a, b])
        y = np.array([1.0] * 40 + [-1.0] * 40)
        clf = RBFSVMClassifier(gamma=0.2, runtime=runtime).fit(x, y)
        assert clf.score(x, y) > 0.95

    def test_nonlinear_boundary(self, runtime):
        """XOR-ish data -- impossible linearly, easy for RBF."""
        rng = np.random.default_rng(6)
        centers = np.array([[2, 2], [-2, -2], [2, -2], [-2, 2]], float)
        labels = np.array([1.0, 1.0, -1.0, -1.0])
        x = np.vstack([c + 0.3 * rng.normal(size=(15, 2)) for c in centers])
        y = np.repeat(labels, 15)
        clf = RBFSVMClassifier(gamma=0.5, epochs=40, runtime=runtime).fit(x, y)
        assert clf.score(x, y) > 0.9

    def test_label_validation(self, runtime):
        with pytest.raises(ValueError):
            RBFSVMClassifier(runtime=runtime).fit(np.ones((4, 2)),
                                                  np.array([0.0, 1, 1, 0]))

    def test_unfit_raises(self, runtime):
        with pytest.raises(RuntimeError):
            RBFSVMClassifier(runtime=runtime).decision_function(np.ones((1, 2)))


class TestPortability:
    """The same algorithm code must work on any machine shape (STMH)."""

    @pytest.mark.parametrize("fanouts", [(2,), (4, 2), (1, 3)])
    def test_kmeans_on_any_machine(self, blobs, fanouts):
        x, _, _ = blobs
        mems = [1 << (17 - 2 * i) for i in range(len(fanouts) + 1)]
        machine = custom_machine("p", list(fanouts), mems,
                                 [1e9] * (len(fanouts) + 1))
        km = KMeans(k=3, runtime=HostRuntime(machine), seed=3).fit(x)
        assert km.centroids.shape == (3, x.shape[1])
