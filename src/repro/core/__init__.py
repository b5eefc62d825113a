"""Core of the Cambricon-F reproduction: FISA, tensors, decomposition,
machines, and the functional fractal executor."""

from .isa import DependencyKind, Instruction, Opcode, SourceLoc
from .machine import (
    LevelSpec,
    Machine,
    cambricon_f1,
    cambricon_f100,
    custom_machine,
)
from .executor import FractalExecutor
from .gcpause import gc_paused
from .store import TensorStore
from .tensor import FP16, FP32, INT32, DType, Region, Tensor

__all__ = [
    "DependencyKind",
    "Instruction",
    "Opcode",
    "SourceLoc",
    "LevelSpec",
    "Machine",
    "cambricon_f1",
    "cambricon_f100",
    "custom_machine",
    "FractalExecutor",
    "gc_paused",
    "TensorStore",
    "FP16",
    "FP32",
    "INT32",
    "DType",
    "Region",
    "Tensor",
]
