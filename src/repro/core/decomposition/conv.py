"""Convolution decomposition rules (Table 2 rows "CONV") plus LRN.

For ``Cv2D``: out ``(N, Ho, Wo, Cout)`` from input ``(N, H, W, Cin)`` and
weights ``(Kh, Kw, Cin, Cout)``:

* Batch-wise (N): input-dependent, Weight redundancy;
* Output-channel-wise (Cout): input-dependent, Input redundancy;
* Spatial (H then W): input-dependent, Weight + Overlapped redundancy
  (output rows ``[p0, p1)`` need input rows ``[p0*s, (p1-1)*s + Kh)``);
* Feature-wise (Cin): output-dependent, g = Add over partial sums.

``Cv3D`` mirrors the same rules with a depth axis.  LRN normalizes across
channels only, so it splits independently along N/H/W and never along C.
"""

from __future__ import annotations

from typing import List, Tuple

from ..isa import DependencyKind, Instruction, Opcode
from ..tensor import Region
from .base import Split, SplitRule, chain_reduce, input_redundancy, make_partial, register_rules


def _chunk_offsets(extent: int, n: int) -> List[Tuple[int, int]]:
    """Near-equal contiguous chunks of ``[0, extent)`` (local coordinates)."""
    n = max(1, min(n, extent))
    base, rem = divmod(extent, n)
    out, off = [], 0
    for i in range(n):
        size = base + (1 if i < rem else 0)
        if size:
            out.append((off, off + size))
            off += size
    return out


def _spatial_chunks(
    out_region: Region, in_region: Region, dim_out: int, dim_in: int,
    n: int, kernel: int, stride: int,
) -> List[Tuple[Region, Region]]:
    """Pair output chunks with the exact (haloed) input slabs they need."""
    pairs = []
    for p0, p1 in _chunk_offsets(out_region.shape[dim_out], n):
        o = out_region.slice_dim(dim_out, p0, p1)
        i = in_region.slice_dim(dim_in, p0 * stride, (p1 - 1) * stride + kernel)
        pairs.append((o, i))
    return pairs


# -- Cv2D -------------------------------------------------------------------


def _cv2d_split_batch(inst: Instruction, n: int) -> Split:
    x, w = inst.inputs
    out = inst.outputs[0]
    parts = [
        inst.with_operands(inputs=(x_i, w), outputs=(o_i,))
        for x_i, o_i in zip(x.split_dim(0, n), out.split_dim(0, n))
    ]
    return Split(parts, dependency=DependencyKind.INPUT_DEPENDENT, axis="batch",
                 redundant_bytes=input_redundancy(parts, inst))


def _cv2d_split_cout(inst: Instruction, n: int) -> Split:
    x, w = inst.inputs
    out = inst.outputs[0]
    parts = [
        inst.with_operands(inputs=(x, w_i), outputs=(o_i,))
        for w_i, o_i in zip(w.split_dim(3, n), out.split_dim(3, n))
    ]
    return Split(parts, dependency=DependencyKind.INPUT_DEPENDENT, axis="cout",
                 redundant_bytes=input_redundancy(parts, inst))


def _cv2d_split_spatial(dim_out: int, dim_in: int, kdim: int, axis: str):
    def apply(inst: Instruction, n: int) -> Split:
        x, w = inst.inputs
        out = inst.outputs[0]
        stride = int(inst.attrs.get("stride", 1))
        kernel = w.shape[kdim]
        parts = [
            inst.with_operands(inputs=(x_i, w), outputs=(o_i,))
            for o_i, x_i in _spatial_chunks(out, x, dim_out, dim_in, n, kernel, stride)
        ]
        return Split(parts, dependency=DependencyKind.INPUT_DEPENDENT, axis=axis,
                     redundant_bytes=input_redundancy(parts, inst))

    return apply


def _cv2d_split_cin(inst: Instruction, n: int) -> Split:
    x, w = inst.inputs
    out = inst.outputs[0]
    parts, partials = [], []
    for x_i, w_i in zip(x.split_dim(3, n), w.split_dim(2, n)):
        p = make_partial(out.shape, out.dtype, "cv")
        partials.append(p.region())
        parts.append(inst.with_operands(inputs=(x_i, w_i), outputs=(p.region(),)))
    return Split(parts, reduction=chain_reduce(partials, out),
                 dependency=DependencyKind.OUTPUT_DEPENDENT, axis="cin")


# Rule order follows Table 2 plus slot alignment: batch first, then the
# spatial axes (so chained conv/pool/eltwise layers split the same way and
# forwarding connects producer and consumer on the same FFU), then output
# channels, and the g(.)-requiring feature (cin) split last.
register_rules(
    Opcode.CV2D,
    [
        SplitRule("Batch-Wise", DependencyKind.INPUT_DEPENDENT, "-", "Weight",
                  lambda i: i.inputs[0].shape[0], _cv2d_split_batch),
        SplitRule("Spatial-H", DependencyKind.INPUT_DEPENDENT, "-",
                  "Weight, Overlapped", lambda i: i.outputs[0].shape[1],
                  _cv2d_split_spatial(1, 1, 0, "h")),
        SplitRule("Spatial-W", DependencyKind.INPUT_DEPENDENT, "-",
                  "Weight, Overlapped", lambda i: i.outputs[0].shape[2],
                  _cv2d_split_spatial(2, 2, 1, "w")),
        SplitRule("Output-Channel", DependencyKind.INPUT_DEPENDENT, "-", "Input",
                  lambda i: i.inputs[1].shape[3], _cv2d_split_cout),
        SplitRule("Feature-Wise", DependencyKind.OUTPUT_DEPENDENT, "Add", "-",
                  lambda i: i.inputs[0].shape[3], _cv2d_split_cin),
    ],
)


# -- Cv3D -------------------------------------------------------------------


def _cv3d_split_batch(inst: Instruction, n: int) -> Split:
    x, w = inst.inputs
    out = inst.outputs[0]
    parts = [
        inst.with_operands(inputs=(x_i, w), outputs=(o_i,))
        for x_i, o_i in zip(x.split_dim(0, n), out.split_dim(0, n))
    ]
    return Split(parts, dependency=DependencyKind.INPUT_DEPENDENT, axis="batch",
                 redundant_bytes=input_redundancy(parts, inst))


def _cv3d_split_cout(inst: Instruction, n: int) -> Split:
    x, w = inst.inputs
    out = inst.outputs[0]
    parts = [
        inst.with_operands(inputs=(x, w_i), outputs=(o_i,))
        for w_i, o_i in zip(w.split_dim(4, n), out.split_dim(4, n))
    ]
    return Split(parts, dependency=DependencyKind.INPUT_DEPENDENT, axis="cout",
                 redundant_bytes=input_redundancy(parts, inst))


def _cv3d_split_spatial(dim: int, kdim: int, axis: str):
    def apply(inst: Instruction, n: int) -> Split:
        x, w = inst.inputs
        out = inst.outputs[0]
        stride = int(inst.attrs.get("stride", 1))
        kernel = w.shape[kdim]
        parts = [
            inst.with_operands(inputs=(x_i, w), outputs=(o_i,))
            for o_i, x_i in _spatial_chunks(out, x, dim, dim, n, kernel, stride)
        ]
        return Split(parts, dependency=DependencyKind.INPUT_DEPENDENT, axis=axis,
                     redundant_bytes=input_redundancy(parts, inst))

    return apply


def _cv3d_split_cin(inst: Instruction, n: int) -> Split:
    x, w = inst.inputs
    out = inst.outputs[0]
    parts, partials = [], []
    for x_i, w_i in zip(x.split_dim(4, n), w.split_dim(3, n)):
        p = make_partial(out.shape, out.dtype, "cv3d")
        partials.append(p.region())
        parts.append(inst.with_operands(inputs=(x_i, w_i), outputs=(p.region(),)))
    return Split(parts, reduction=chain_reduce(partials, out),
                 dependency=DependencyKind.OUTPUT_DEPENDENT, axis="cin")


register_rules(
    Opcode.CV3D,
    [
        SplitRule("Batch-Wise", DependencyKind.INPUT_DEPENDENT, "-", "Weight",
                  lambda i: i.inputs[0].shape[0], _cv3d_split_batch),
        SplitRule("Spatial-D", DependencyKind.INPUT_DEPENDENT, "-",
                  "Weight, Overlapped", lambda i: i.outputs[0].shape[1],
                  _cv3d_split_spatial(1, 0, "d")),
        SplitRule("Spatial-H", DependencyKind.INPUT_DEPENDENT, "-",
                  "Weight, Overlapped", lambda i: i.outputs[0].shape[2],
                  _cv3d_split_spatial(2, 1, "h")),
        SplitRule("Spatial-W", DependencyKind.INPUT_DEPENDENT, "-",
                  "Weight, Overlapped", lambda i: i.outputs[0].shape[3],
                  _cv3d_split_spatial(3, 2, "w")),
        SplitRule("Output-Channel", DependencyKind.INPUT_DEPENDENT, "-", "Input",
                  lambda i: i.inputs[1].shape[4], _cv3d_split_cout),
        SplitRule("Feature-Wise", DependencyKind.OUTPUT_DEPENDENT, "Add", "-",
                  lambda i: i.inputs[0].shape[4], _cv3d_split_cin),
    ],
)


# -- LRN --------------------------------------------------------------------


def _lrn_split(dim: int, axis: str):
    def apply(inst: Instruction, n: int) -> Split:
        x = inst.inputs[0]
        out = inst.outputs[0]
        parts = [
            inst.with_operands(inputs=(x_i,), outputs=(o_i,))
            for x_i, o_i in zip(x.split_dim(dim, n), out.split_dim(dim, n))
        ]
        return Split(parts, dependency=DependencyKind.INDEPENDENT, axis=axis)

    return apply


register_rules(
    Opcode.LRN,
    [
        SplitRule("Batch-Wise", DependencyKind.INDEPENDENT, "-", "-",
                  lambda i: i.inputs[0].shape[0], _lrn_split(0, "batch")),
        SplitRule("Spatial-H", DependencyKind.INDEPENDENT, "-", "-",
                  lambda i: i.inputs[0].shape[1], _lrn_split(1, "h")),
        SplitRule("Spatial-W", DependencyKind.INDEPENDENT, "-", "-",
                  lambda i: i.inputs[0].shape[2], _lrn_split(2, "w")),
    ],
)
