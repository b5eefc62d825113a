"""Autodiff tests: gradients checked against finite differences, and an
actual training loop whose loss must decrease -- all through FISA."""

import numpy as np
import pytest

from repro import custom_machine
from repro.compiler import SGD, Tape
from repro.runtime import HostRuntime


@pytest.fixture
def tape():
    runtime = HostRuntime(custom_machine("ad", [2, 2],
                                         [1 << 18, 1 << 15, 1 << 12],
                                         [1e9] * 3))
    return Tape(runtime)


def numeric_grad(f, x, eps=1e-5):
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f()
        x[idx] = orig - eps
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


class TestGradients:
    def test_matmul_grads(self, tape, rng):
        a = tape.var(rng.normal(size=(3, 4)))
        b = tape.var(rng.normal(size=(4, 2)))
        target = rng.normal(size=(3, 2))
        loss = tape.mse_loss(tape.matmul(a, b), target)
        tape.backward(loss)

        def f():
            return float((((a.value @ b.value) - target) ** 2).mean())

        np.testing.assert_allclose(a.grad, numeric_grad(f, a.value),
                                   atol=1e-4)
        np.testing.assert_allclose(b.grad, numeric_grad(f, b.value),
                                   atol=1e-4)

    def test_relu_grads(self, tape, rng):
        x = tape.var(rng.normal(size=(5, 3)))
        target = rng.normal(size=(5, 3))
        loss = tape.mse_loss(tape.relu(x), target)
        tape.backward(loss)

        def f():
            return float(((np.maximum(x.value, 0) - target) ** 2).mean())

        np.testing.assert_allclose(x.grad, numeric_grad(f, x.value),
                                   atol=1e-4)

    def test_add_grads_accumulate(self, tape, rng):
        x = tape.var(rng.normal(size=(4,)))
        target = rng.normal(size=(4,))
        loss = tape.mse_loss(tape.add(x, x), target)  # y = 2x
        tape.backward(loss)

        def f():
            return float(((2 * x.value - target) ** 2).mean())

        np.testing.assert_allclose(x.grad, numeric_grad(f, x.value),
                                   atol=1e-4)

    def test_conv2d_grads(self, tape, rng):
        x = tape.var(0.5 * rng.normal(size=(1, 5, 5, 2)))
        w = tape.var(0.5 * rng.normal(size=(3, 3, 2, 2)))
        target = rng.normal(size=(1, 3, 3, 2))
        loss = tape.mse_loss(tape.conv2d(x, w), target)
        tape.backward(loss)

        from repro.ops.conv import conv2d

        def f():
            return float(((conv2d(x.value, w.value) - target) ** 2).mean())

        np.testing.assert_allclose(w.grad, numeric_grad(f, w.value),
                                   atol=1e-3)
        np.testing.assert_allclose(x.grad, numeric_grad(f, x.value),
                                   atol=1e-3)

    def test_conv_stride_unsupported(self, tape, rng):
        x = tape.var(rng.normal(size=(1, 5, 5, 1)))
        w = tape.var(rng.normal(size=(3, 3, 1, 1)))
        with pytest.raises(NotImplementedError):
            tape.conv2d(x, w, stride=2)

    def test_chained_network_grads(self, tape, rng):
        """Two-layer MLP: gradients through matmul -> relu -> matmul."""
        x = rng.normal(size=(6, 4))
        w1 = tape.var(0.3 * rng.normal(size=(4, 5)))
        w2 = tape.var(0.3 * rng.normal(size=(5, 2)))
        target = rng.normal(size=(6, 2))
        xv = tape.var(x, trainable=False)
        h = tape.relu(tape.matmul(xv, w1))
        loss = tape.mse_loss(tape.matmul(h, w2), target)
        tape.backward(loss)

        def f():
            hidden = np.maximum(x @ w1.value, 0)
            return float(((hidden @ w2.value - target) ** 2).mean())

        np.testing.assert_allclose(w1.grad, numeric_grad(f, w1.value),
                                   atol=1e-4)
        np.testing.assert_allclose(w2.grad, numeric_grad(f, w2.value),
                                   atol=1e-4)


class TestTraining:
    def test_linear_regression_converges(self, rng):
        """Train y = Xw on FISA; the loss must fall by orders of magnitude."""
        runtime = HostRuntime(custom_machine("tr", [2],
                                             [1 << 16, 1 << 13], [1e9] * 2))
        x = rng.normal(size=(32, 6))
        true_w = rng.normal(size=(6, 1))
        y = x @ true_w
        w_init = 0.1 * rng.normal(size=(6, 1))
        losses = []
        w_value = w_init
        opt = SGD(lr=0.15)
        for _step in range(60):
            tape = Tape(runtime)
            w = tape.var(w_value)
            pred = tape.matmul(tape.var(x, trainable=False), w)
            loss = tape.mse_loss(pred, y)
            tape.backward(loss)
            losses.append(float(loss.value[0]))
            opt.step([w])
            w_value = w.value
        assert losses[-1] < losses[0] * 1e-2
        np.testing.assert_allclose(w_value, true_w, atol=0.2)

    def test_mlp_learns_xor(self, rng):
        runtime = HostRuntime(custom_machine("xor", [2],
                                             [1 << 16, 1 << 13], [1e9] * 2))
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        w1v = rng.normal(size=(2, 8))
        b1v = np.zeros((4, 8))
        w2v = rng.normal(size=(8, 1)) * 0.5
        opt = SGD(lr=0.3)
        first = last = None
        for _step in range(300):
            tape = Tape(runtime)
            w1, b1, w2 = tape.var(w1v), tape.var(b1v), tape.var(w2v)
            h = tape.relu(tape.add(tape.matmul(
                tape.var(x, trainable=False), w1), b1))
            loss = tape.mse_loss(tape.matmul(h, w2), y)
            tape.backward(loss)
            if first is None:
                first = float(loss.value[0])
            last = float(loss.value[0])
            opt.step([w1, b1, w2])
            w1v, b1v, w2v = w1.value, b1.value, w2.value
        assert last < first * 0.2

    def test_sgd_validation(self):
        with pytest.raises(ValueError):
            SGD(lr=0)

    def test_sgd_skips_frozen(self, tape, rng):
        frozen = tape.var(rng.normal(size=(3,)), trainable=False)
        before = frozen.value.copy()
        loss = tape.mse_loss(frozen, np.zeros(3))
        tape.backward(loss)
        SGD(lr=0.5).step([frozen])
        np.testing.assert_array_equal(frozen.value, before)
