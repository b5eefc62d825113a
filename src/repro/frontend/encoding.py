"""FISA binary encoding.

The paper's productivity argument rests on "a same binary code [running]
on platforms from cloud to end".  This module defines that binary: a
compact, versioned serialization of a FISA program (tensor table +
instruction stream) with exact round-tripping.

Layout (all integers little-endian):

``FISA`` magic, u16 version, then the tensor table::

    u32 count
    per tensor: u32 id | str name | u8 dtype | u8 space | u8 ndim | u32 dims...

then the instruction stream::

    u32 count
    per instruction:
        u8 opcode ordinal
        u8 n_inputs | u8 n_outputs | u8 n_attrs
        per operand: u32 tensor id | u8 ndim | per dim (u32 lo, u32 hi)
        per attr: str key | u8 tag | payload  (i: i64, f: f64, s: str, b: u8)

Strings are u16-length-prefixed UTF-8.  Tensor ids are table indices local
to the binary, so encodings are deterministic and position-independent.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from ..core.isa import Instruction, Opcode
from ..core.tensor import FP16, FP32, INT32, Region, Tensor

MAGIC = b"FISA"
VERSION = 1

_OPCODE_LIST = list(Opcode)
_OPCODE_ORDINAL = {op: i for i, op in enumerate(_OPCODE_LIST)}

_DTYPE_LIST = [FP16, FP32, INT32]
_DTYPE_ORDINAL = {d.name: i for i, d in enumerate(_DTYPE_LIST)}

_SPACE_LIST = ["global", "partial"]
_SPACE_ORDINAL = {s: i for i, s in enumerate(_SPACE_LIST)}


class EncodingError(ValueError):
    """Malformed or unsupported FISA binary."""


# -- primitive writers ---------------------------------------------------------


class _Writer:
    def __init__(self):
        self.parts: List[bytes] = []

    def u8(self, v: int) -> None:
        self.parts.append(struct.pack("<B", v))

    def u16(self, v: int) -> None:
        self.parts.append(struct.pack("<H", v))

    def u32(self, v: int) -> None:
        self.parts.append(struct.pack("<I", v))

    def i64(self, v: int) -> None:
        self.parts.append(struct.pack("<q", v))

    def f64(self, v: float) -> None:
        self.parts.append(struct.pack("<d", v))

    def string(self, s: str) -> None:
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise EncodingError("string too long")
        self.u16(len(raw))
        self.parts.append(raw)

    def bytes(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise EncodingError("truncated FISA binary")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def string(self) -> str:
        return self._take(self.u16()).decode("utf-8")

    def done(self) -> bool:
        return self.pos == len(self.data)


# -- encoding ------------------------------------------------------------------


def _collect_tensors(program: List[Instruction]) -> List[Tensor]:
    seen: Dict[int, Tensor] = {}
    for inst in program:
        for r in inst.inputs + inst.outputs:
            seen.setdefault(r.tensor.uid, r.tensor)
    return list(seen.values())


def _encode_attr(w: _Writer, key: str, value) -> None:
    w.string(key)
    if isinstance(value, bool):
        w.u8(ord("b"))
        w.u8(1 if value else 0)
    elif isinstance(value, int):
        w.u8(ord("i"))
        w.i64(value)
    elif isinstance(value, float):
        w.u8(ord("f"))
        w.f64(value)
    elif isinstance(value, str):
        w.u8(ord("s"))
        w.string(value)
    elif value is None:
        w.u8(ord("n"))
    else:
        raise EncodingError(f"unencodable attr {key}={value!r}")


def encode_program(program: List[Instruction]) -> bytes:
    """Serialize an instruction list to the FISA binary format."""
    w = _Writer()
    w.parts.append(MAGIC)
    w.u16(VERSION)

    tensors = _collect_tensors(program)
    index = {t.uid: i for i, t in enumerate(tensors)}
    w.u32(len(tensors))
    for t in tensors:
        w.u32(index[t.uid])
        w.string(t.name)
        try:
            w.u8(_DTYPE_ORDINAL[t.dtype.name])
        except KeyError:
            raise EncodingError(f"unencodable dtype {t.dtype.name}")
        w.u8(_SPACE_ORDINAL.get(t.space, 0))
        w.u8(t.ndim)
        for d in t.shape:
            w.u32(d)

    w.u32(len(program))
    for inst in program:
        w.u8(_OPCODE_ORDINAL[inst.opcode])
        attrs = {k: v for k, v in inst.attrs.items() if k != "acc_chain"}
        w.u8(len(inst.inputs))
        w.u8(len(inst.outputs))
        w.u8(len(attrs))
        for region in inst.inputs + inst.outputs:
            w.u32(index[region.tensor.uid])
            w.u8(region.ndim)
            for lo, hi in region.bounds:
                w.u32(lo)
                w.u32(hi)
        for key in sorted(attrs):
            _encode_attr(w, key, attrs[key])
    return w.bytes()


# -- decoding ------------------------------------------------------------------


def decode_program(data: bytes) -> Tuple[List[Tensor], List[Instruction]]:
    """Parse a FISA binary back into (tensor table, instruction list).

    Decoded tensors are fresh objects (new uids) with the original names,
    shapes, dtypes and spaces; regions are rebuilt against them, so a
    decoded program is structurally identical and runnable.
    """
    r = _Reader(data)
    if r._take(4) != MAGIC:
        raise EncodingError("bad magic; not a FISA binary")
    version = r.u16()
    if version != VERSION:
        raise EncodingError(f"unsupported FISA version {version}")

    n_tensors = r.u32()
    table: Dict[int, Tensor] = {}
    for _ in range(n_tensors):
        tid = r.u32()
        name = r.string()
        dtype = _DTYPE_LIST[r.u8()]
        space = _SPACE_LIST[r.u8()]
        ndim = r.u8()
        shape = tuple(r.u32() for _ in range(ndim))
        table[tid] = Tensor(name, shape, dtype, space)

    def read_region() -> Region:
        tid = r.u32()
        if tid not in table:
            raise EncodingError(f"operand references unknown tensor {tid}")
        ndim = r.u8()
        bounds = tuple((r.u32(), r.u32()) for _ in range(ndim))
        return Region(table[tid], bounds)

    n_inst = r.u32()
    program: List[Instruction] = []
    for _ in range(n_inst):
        op_ord = r.u8()
        if op_ord >= len(_OPCODE_LIST):
            raise EncodingError(f"unknown opcode ordinal {op_ord}")
        opcode = _OPCODE_LIST[op_ord]
        n_in, n_out, n_attrs = r.u8(), r.u8(), r.u8()
        inputs = tuple(read_region() for _ in range(n_in))
        outputs = tuple(read_region() for _ in range(n_out))
        attrs = {}
        for _ in range(n_attrs):
            key = r.string()
            tag = chr(r.u8())
            if tag == "b":
                attrs[key] = bool(r.u8())
            elif tag == "i":
                attrs[key] = r.i64()
            elif tag == "f":
                attrs[key] = r.f64()
            elif tag == "s":
                attrs[key] = r.string()
            elif tag == "n":
                attrs[key] = None
            else:
                raise EncodingError(f"unknown attr tag {tag!r}")
        program.append(Instruction(opcode, inputs, outputs, attrs))
    if not r.done():
        raise EncodingError("trailing bytes after instruction stream")
    return list(table.values()), program


# -- disassembly ---------------------------------------------------------------


def _region_text(region: Region) -> str:
    name = region.tensor.name.split(".")[-1]
    if region.is_full():
        return name
    dims = ",".join(f"{lo}:{hi}" for lo, hi in region.bounds)
    return f"{name}[{dims}]"


def disassemble(program: List[Instruction]) -> str:
    """Render a program as assembler text (re-assemblable; see
    :func:`repro.frontend.assembler.assemble`).

    Tensor names are reduced to their final dotted component, so programs
    whose short names collide should be disassembled with care.
    """
    lines = ["; disassembled FISA program"]
    for t in _collect_tensors(program):
        short = t.name.split(".")[-1]
        dims = " ".join(str(d) for d in t.shape)
        suffix = "" if t.dtype.name == "fp16" else f" {t.dtype.name}"
        lines.append(f"tensor {short} {dims}{suffix}")
    for inst in program:
        operands = [_region_text(r) for r in inst.outputs]
        operands += [_region_text(r) for r in inst.inputs]
        attrs = " ".join(
            f"{k}={v}" for k, v in sorted(inst.attrs.items())
            if k not in ("acc_chain",) and v is not None)
        line = f"{inst.opcode.value} " + ", ".join(operands)
        if attrs:
            line += f" {attrs}"
        lines.append(line)
    return "\n".join(lines) + "\n"
