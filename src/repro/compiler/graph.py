"""The framework-level computation graph.

A :class:`Graph` is a DAG of named operator nodes with eager shape
inference: every builder call validates its operands and records the
output shape immediately, so shape errors surface at graph-construction
time (where the user can see them), not at lowering time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class GraphError(ValueError):
    """Invalid graph construction (bad shapes, unknown nodes, cycles)."""


@dataclass(frozen=True)
class Node:
    """One operator instance in the graph."""

    id: str
    op: str
    inputs: Tuple[str, ...]
    shape: Tuple[int, ...]
    params: Tuple[Tuple[str, object], ...] = ()

    @property
    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def signature(self) -> Tuple:
        """Structural identity used by common-subexpression elimination."""
        return (self.op, self.inputs, self.params)


class Graph:
    """Builder-style NN graph with shape inference.

    Every method returns the new node's id, which later calls take as an
    input handle.
    """

    def __init__(self, name: str = "net"):
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.order: List[str] = []
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self._ids = itertools.count()

    # -- plumbing ---------------------------------------------------------

    def _add(self, op: str, inputs: Sequence[str], shape: Tuple[int, ...],
             **params) -> str:
        for ref in inputs:
            if ref not in self.nodes:
                raise GraphError(f"unknown input node {ref!r}")
        if any(d <= 0 for d in shape):
            raise GraphError(f"{op}: inferred non-positive shape {shape}")
        nid = f"{op}_{next(self._ids)}"
        self.nodes[nid] = Node(nid, op, tuple(inputs), tuple(shape),
                               tuple(sorted(params.items())))
        self.order.append(nid)
        return nid

    def shape(self, nid: str) -> Tuple[int, ...]:
        try:
            return self.nodes[nid].shape
        except KeyError:
            raise GraphError(f"unknown node {nid!r}")

    # -- graph I/O ----------------------------------------------------------

    def input(self, name: str, shape: Tuple[int, ...]) -> str:
        nid = self._add("input", [], tuple(shape), name=name)
        self.inputs.append(nid)
        return nid

    def output(self, nid: str) -> str:
        if nid not in self.nodes:
            raise GraphError(f"unknown node {nid!r}")
        self.outputs.append(nid)
        return nid

    # -- operators ------------------------------------------------------------

    def conv2d(self, x: str, filters: int, kernel: int, stride: int = 1,
               padding: int = 0, activation: Optional[str] = None) -> str:
        n, h, w, _c = self._expect_rank(x, 4, "conv2d")
        ho = (h + 2 * padding - kernel) // stride + 1
        wo = (w + 2 * padding - kernel) // stride + 1
        if ho <= 0 or wo <= 0:
            raise GraphError("conv2d: kernel larger than (padded) input")
        nid = self._add("conv2d", [x], (n, ho, wo, filters), filters=filters,
                        kernel=kernel, stride=stride, padding=padding)
        if activation:
            nid = self.activation(nid, activation)
        return nid

    def maxpool(self, x: str, size: int, stride: Optional[int] = None,
                padding: int = 0) -> str:
        return self._pool(x, "maxpool", size, stride, padding)

    def avgpool(self, x: str, size: int, stride: Optional[int] = None,
                padding: int = 0) -> str:
        return self._pool(x, "avgpool", size, stride, padding)

    def _pool(self, x, op, size, stride, padding) -> str:
        n, h, w, c = self._expect_rank(x, 4, op)
        stride = size if stride is None else stride
        ho = (h + 2 * padding - size) // stride + 1
        wo = (w + 2 * padding - size) // stride + 1
        if ho <= 0 or wo <= 0:
            raise GraphError(f"{op}: window larger than input")
        return self._add(op, [x], (n, ho, wo, c), size=size, stride=stride,
                         padding=padding)

    def lrn(self, x: str, size: int = 5) -> str:
        shape = self._expect_rank(x, 4, "lrn")
        return self._add("lrn", [x], shape, size=size)

    def activation(self, x: str, func: str = "relu") -> str:
        return self._add("activation", [x], self.shape(x), func=func)

    def add(self, a: str, b: str) -> str:
        if self.shape(a) != self.shape(b):
            raise GraphError(
                f"add: shape mismatch {self.shape(a)} vs {self.shape(b)}")
        return self._add("add", [a, b], self.shape(a))

    def pad(self, x: str, amount: int) -> str:
        n, h, w, c = self._expect_rank(x, 4, "pad")
        return self._add("pad", [x], (n, h + 2 * amount, w + 2 * amount, c),
                         amount=amount)

    def flatten(self, x: str) -> str:
        shape = self.shape(x)
        rest = 1
        for d in shape[1:]:
            rest *= d
        return self._add("flatten", [x], (shape[0], rest))

    def dense(self, x: str, units: int, activation: Optional[str] = None) -> str:
        n, _f = self._expect_rank(x, 2, "dense")
        nid = self._add("dense", [x], (n, units), units=units)
        if activation:
            nid = self.activation(nid, activation)
        return nid

    # -- analysis ---------------------------------------------------------------

    def _expect_rank(self, nid: str, rank: int, op: str) -> Tuple[int, ...]:
        shape = self.shape(nid)
        if len(shape) != rank:
            raise GraphError(f"{op}: expected rank-{rank} input, got {shape}")
        return shape

    def consumers(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {nid: [] for nid in self.nodes}
        for node in self.nodes.values():
            for ref in node.inputs:
                out[ref].append(node.id)
        return out

    def topological(self) -> List[Node]:
        """Nodes in construction order (the builder only references earlier
        nodes, so construction order is topological by construction)."""
        return [self.nodes[nid] for nid in self.order]

    def validate(self) -> None:
        if not self.outputs:
            raise GraphError("graph has no outputs")
        seen = set()
        for node in self.topological():
            for ref in node.inputs:
                if ref not in seen:
                    raise GraphError(f"{node.id} uses {ref} before definition")
            seen.add(node.id)

    def __len__(self) -> int:
        return len(self.nodes)
