"""Batched (stacked) kernels: one numpy call per fusion group.

Each entry executes ``k`` isomorphic lanes at once on ``(k, ...)``-stacked
operands and must be **bit-identical** per lane to ``k`` separate calls of
the reference kernel in :mod:`repro.ops.dispatch` -- that is the contract
batched plan replay is built on, and ``tests/test_batch.py`` enforces it
per opcode and end-to-end.  Every opcode has an entry.  The bit-identity
arguments, per family:

* ``MatMul``: ``np.matmul`` on ``(k, m, n) @ (k, n, p)`` stacks runs the
  same dgemm per 2-D slice as ``k`` separate ``a @ b`` calls (verified
  empirically on this numpy; the sweep test guards upgrades).
* ``Cv2D``/``Cv3D``: the lanes ride ``np.matmul``'s *batch* axis, never
  the patch gemm's M dimension (folding them into M changes BLAS blocking
  and drifts by an ulp).  Per output pixel (voxel) one ``np.matmul`` of
  the ``(k, n, Kh*Kw*Cin)`` lane patches against the ``(k, K, Cout)``
  lane weights -- or one shared ``(K, Cout)`` matrix, or one shared patch,
  when that operand's gather is a stride-0 broadcast -- calls BLAS once
  per 2-D slice, picking gemv or gemm from that slice's dimensions and
  strides exactly as the reference's 2-D ``@`` does.  That holds only if
  every slice is C-contiguous float64, the layout of the reference's
  ``astype`` copies, so both operands go through ``np.ascontiguousarray``:
  ``astype``'s default ``order="K"`` would keep a strided weight gather's
  lane-interleaved memory order and hand BLAS a ``k * Cout`` row stride.
* element-wise (``Add/Sub/Mul/Act1D``, ``LRN``): ufuncs are per-element,
  so a leading batch axis cannot change any value.
* row reductions (``HSum/HProd/Sort/Count1D``): ``reshape(k, -1)`` makes
  each lane a contiguous row and axis-1 reduction applies the same
  pairwise order per row as the 1-D reference.  ``HSum``/``HProd`` force
  C order here too: ``astype`` would lay a stride-0 stack out lane-minor,
  and its row sums would then run sequentially instead of pairwise.
* pooling (``Max/Min/Avg2D``): lanes collapse into the sample axis, and
  pooling reduces windows per sample independently.
* ``Merge1D``: the reference is a sequential pure-Python merge with
  nothing to vectorize, so the stacked form loops over the lanes and
  calls it once per lane.
"""

from __future__ import annotations

from itertools import product
from typing import Dict

import numpy as np

from ..core.isa import Opcode
from . import conv, eltwise, pool, sortcount


def _b_matmul(ins, attrs):
    # The reference kernel's astype(float64) hands BLAS *C-contiguous*
    # operands; feeding strided gather views here would take a different
    # dgemm path and drift by an ulp.  ascontiguousarray is a no-op for
    # already-contiguous stacks and one bulk copy (cheaper than the k
    # per-lane astype copies the reference pays) otherwise.
    return np.matmul(np.ascontiguousarray(ins[0]),
                     np.ascontiguousarray(ins[1]))


def _lane_operand(x: np.ndarray) -> np.ndarray:
    """A stride-0 broadcast stack as its one shared lane, else the stack."""
    return x[0] if x.strides[0] == 0 else x


def _b_conv(ins, attrs):
    """``Cv2D``/``Cv3D`` on lane stacks, one ``np.matmul`` per output
    pixel (voxel) over the lanes, as ``conv.conv2d``/``conv3d`` loop."""
    x, w = ins
    stride = int(attrs.get("stride", 1))
    k, n = x.shape[:2]
    window = w.shape[1:-2]
    cout = w.shape[-1]
    out_dims = tuple((size - kd) // stride + 1
                     for size, kd in zip(x.shape[2:-1], window))
    if min(out_dims) <= 0:
        raise ValueError("kernel larger than input")
    x = _lane_operand(x)
    w = _lane_operand(w)
    lead = x.shape[:-len(window) - 1]  # (k, n), or (n,) when shared
    wmat = np.ascontiguousarray(w.reshape(w.shape[:-len(window) - 2]
                                          + (-1, cout)), dtype=np.float64)
    out = np.empty((k, n) + out_dims + (cout,), dtype=np.float64)
    for pos in product(*map(range, out_dims)):
        window_sl = tuple(slice(p * stride, p * stride + kd)
                          for p, kd in zip(pos, window))
        patch = x[(Ellipsis,) + window_sl + (slice(None),)]
        patch = np.ascontiguousarray(patch.reshape(lead + (-1,)),
                                     dtype=np.float64)
        out[(slice(None), slice(None)) + pos] = np.matmul(patch, wmat)
    return out


def _b_merge(ins, attrs):
    k = ins[0].shape[0]
    return np.stack([sortcount.merge1d([x[i] for x in ins])
                     for i in range(k)])


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


def _lane_rows(x: np.ndarray) -> np.ndarray:
    # C order: astype would lay a stride-0 stack out lane-minor.
    return np.ascontiguousarray(x.reshape(x.shape[0], -1), dtype=np.float64)


def _b_hsum(ins, attrs):
    return _lane_rows(ins[0]).sum(axis=1)


def _b_hprod(ins, attrs):
    return _lane_rows(ins[0]).prod(axis=1)


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
    Opcode.CV2D: _b_conv,
    Opcode.CV3D: _b_conv,
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
    Opcode.MERGE1D: _b_merge,
}


def batched_kernel_for(opcode: Opcode):
    """The stacked kernel for ``opcode`` (every opcode has one)."""
    return _BATCHED_KERNELS[opcode]
