"""Pooling decomposition rules (Table 2 rows "POOL").

Feature-wise (channel) and batch-wise splits are fully independent; spatial
splits are input-dependent with overlapped windows (output rows ``[p0, p1)``
need input rows ``[p0*sh, (p1-1)*sh + kh)``).
"""

from __future__ import annotations

from ..isa import DependencyKind, Instruction, POOL_OPCODES
from .base import Split, SplitRule, input_redundancy, register_rules
from .conv import _spatial_chunks


def _pool_split_plain(dim: int, axis: str):
    def apply(inst: Instruction, n: int) -> Split:
        x = inst.inputs[0]
        out = inst.outputs[0]
        parts = [
            inst.with_operands(inputs=(x_i,), outputs=(o_i,))
            for x_i, o_i in zip(x.split_dim(dim, n), out.split_dim(dim, n))
        ]
        return Split(parts, dependency=DependencyKind.INDEPENDENT, axis=axis)

    return apply


def _pool_split_spatial(dim: int, k_attr: str, s_attr: str, axis: str):
    def apply(inst: Instruction, n: int) -> Split:
        x = inst.inputs[0]
        out = inst.outputs[0]
        kernel = int(inst.attrs.get(k_attr, 2))
        stride = int(inst.attrs.get(s_attr, inst.attrs.get(k_attr, 2)))
        parts = [
            inst.with_operands(inputs=(x_i,), outputs=(o_i,))
            for o_i, x_i in _spatial_chunks(out, x, dim, dim, n, kernel, stride)
        ]
        return Split(parts, dependency=DependencyKind.INPUT_DEPENDENT, axis=axis,
                     redundant_bytes=input_redundancy(parts, inst))

    return apply


# Batch first and spatial before channel, aligning pooling splits with the
# convolution layers they chain between (slot-aligned forwarding).
_POOL_RULES = [
    SplitRule("Batch-Wise", DependencyKind.INDEPENDENT, "-", "-",
              lambda i: i.inputs[0].shape[0], _pool_split_plain(0, "batch")),
    SplitRule("Spatial-H", DependencyKind.INPUT_DEPENDENT, "-", "Overlapped",
              lambda i: i.outputs[0].shape[1], _pool_split_spatial(1, "kh", "sh", "h")),
    SplitRule("Spatial-W", DependencyKind.INPUT_DEPENDENT, "-", "Overlapped",
              lambda i: i.outputs[0].shape[2], _pool_split_spatial(2, "kw", "sw", "w")),
    SplitRule("Feature-Wise", DependencyKind.INDEPENDENT, "-", "-",
              lambda i: i.inputs[0].shape[3], _pool_split_plain(3, "channel")),
]

for _op in POOL_OPCODES:
    register_rules(_op, _POOL_RULES)
