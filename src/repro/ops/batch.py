"""Batched (stacked) kernels: one numpy call per fusion group.

Each entry executes ``k`` isomorphic lanes at once on ``(k, ...)``-stacked
operands and must be **bit-identical** per lane to ``k`` separate calls of
the reference kernel in :mod:`repro.ops.dispatch` -- that is the contract
batched plan replay is built on, and ``tests/test_batch.py`` enforces it
per opcode and end-to-end.  The bit-identity arguments, per family:

* ``MatMul``: ``np.matmul`` on ``(k, m, n) @ (k, n, p)`` stacks runs the
  same dgemm per 2-D slice as ``k`` separate ``a @ b`` calls (verified
  empirically on this numpy; the sweep test guards upgrades).
* element-wise (``Add/Sub/Mul/Act1D``, ``LRN``): ufuncs are per-element,
  so a leading batch axis cannot change any value.
* row reductions (``HSum/HProd/Sort/Count1D``): ``reshape(k, -1)`` makes
  each lane a contiguous row and axis-1 reduction applies the same
  pairwise order per row as the 1-D reference.
* pooling (``Max/Min/Avg2D``): lanes collapse into the sample axis, and
  pooling reduces windows per sample independently.

``Cv2D``/``Cv3D`` are **deliberately absent**: collapsing lanes into the
patch-gemm M dimension changes BLAS blocking and the results differ in the
last ulp.  ``Merge1D`` is absent because the reference is a sequential
pure-Python merge with nothing to vectorize.  The schedule builder
(:func:`repro.plan.batch.build_schedule`) replays the lanes of those
groups as ordinary singles: one reference kernel call per lane on
zero-copy slices, no gather and no stacked call.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.isa import Opcode
from . import conv, eltwise, pool


def _b_matmul(ins, attrs):
    # The reference kernel's astype(float64) hands BLAS *C-contiguous*
    # operands; feeding strided gather views here would take a different
    # dgemm path and drift by an ulp.  ascontiguousarray is a no-op for
    # already-contiguous stacks and one bulk copy (cheaper than the k
    # per-lane astype copies the reference pays) otherwise.
    return np.matmul(np.ascontiguousarray(ins[0]),
                     np.ascontiguousarray(ins[1]))


def _b_euclidian(ins, attrs):
    x, y = ins
    diff = x[:, :, None, :] - y[:, None, :, :]
    return np.einsum("knmd,knmd->knm", diff, diff)


def _b_add(ins, attrs):
    return ins[0].astype(np.float64) + ins[1].astype(np.float64)


def _b_sub(ins, attrs):
    return ins[0].astype(np.float64) - ins[1].astype(np.float64)


def _b_mul(ins, attrs):
    return ins[0].astype(np.float64) * ins[1].astype(np.float64)


def _b_act(ins, attrs):
    return eltwise.activation(ins[0], func=str(attrs.get("func", "relu")))


def _b_hsum(ins, attrs):
    x = ins[0]
    return x.reshape(x.shape[0], -1).astype(np.float64).sum(axis=1)


def _b_hprod(ins, attrs):
    x = ins[0]
    return x.reshape(x.shape[0], -1).astype(np.float64).prod(axis=1)


def _b_sort(ins, attrs):
    x = ins[0]
    return np.sort(x.reshape(x.shape[0], -1), axis=1, kind="stable")


def _b_count(ins, attrs):
    flat = ins[0].reshape(ins[0].shape[0], -1)
    value = attrs.get("value")
    if value is None:
        counts = np.count_nonzero(flat, axis=1)
    else:
        counts = np.count_nonzero(flat == value, axis=1)
    return counts.astype(np.float64)


def _collapse_pool(fn):
    """Fold the lane axis into the pooling sample axis and back."""

    def run(ins, attrs):
        x = ins[0]
        k, n = x.shape[0], x.shape[1]
        flat = x.reshape((k * n,) + x.shape[2:])
        out = fn(flat,
                 kh=int(attrs.get("kh", 2)), kw=int(attrs.get("kw", 2)),
                 sh=int(attrs.get("sh", attrs.get("kh", 2))),
                 sw=int(attrs.get("sw", attrs.get("kw", 2))))
        return out.reshape((k, n) + out.shape[1:])

    return run


def _b_lrn(ins, attrs):
    # lrn only reduces over the channel (last) axis; a leading lane axis
    # passes straight through.
    return conv.lrn(
        ins[0],
        size=int(attrs.get("size", 5)),
        alpha=float(attrs.get("alpha", 1e-4)),
        beta=float(attrs.get("beta", 0.75)),
        k=float(attrs.get("k", 2.0)),
    )


_BATCHED_KERNELS: Dict[Opcode, object] = {
    Opcode.MATMUL: _b_matmul,
    Opcode.EUCLIDIAN1D: _b_euclidian,
    Opcode.ADD1D: _b_add,
    Opcode.SUB1D: _b_sub,
    Opcode.MUL1D: _b_mul,
    Opcode.ACT1D: _b_act,
    Opcode.HSUM1D: _b_hsum,
    Opcode.HPROD1D: _b_hprod,
    Opcode.SORT1D: _b_sort,
    Opcode.COUNT1D: _b_count,
    Opcode.MAX2D: _collapse_pool(pool.max_pool2d),
    Opcode.MIN2D: _collapse_pool(pool.min_pool2d),
    Opcode.AVG2D: _collapse_pool(pool.avg_pool2d),
    Opcode.LRN: _b_lrn,
}


def batched_kernel_for(opcode: Opcode) -> Optional[object]:
    """The stacked kernel for ``opcode``, or ``None`` (lanes run as singles).

    A ``None`` here is a statement about *bit-identity*, not feasibility:
    opcodes are only registered when the stacked form provably reproduces
    the reference kernel bit for bit (see the module docstring).
    """
    return _BATCHED_KERNELS.get(opcode)


def batched_opcodes() -> tuple:
    """Opcodes with a registered stacked kernel (introspection/docs)."""
    return tuple(sorted(_BATCHED_KERNELS, key=lambda op: op.value))
