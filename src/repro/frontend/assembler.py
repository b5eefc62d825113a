"""FISA text assembler.

The paper programs Cambricon-F with inline assembly (Fig 11's k-NN).  This
module parses an equivalent textual form into a
:class:`~repro.workloads.builder.Workload` runnable on both the functional
executor and the timing simulator.

Grammar (line oriented; ``;`` and ``#`` start comments)::

    tensor  <name> <d0> <d1> ...  [fp16|fp32|int32]
    input   <name> <d0> <d1> ...  [dtype]      ; tensor the host binds
    output  <name>                             ; marks a declared tensor
    <OpName> <dst>[, <dst2>...], <src>, ... [key=value ...]

Operands are tensor names with optional region suffixes
(``dist[0:128, :]``).  The first operand of an instruction is its output
(FISA results are always written to external operands); ``Merge1D`` takes
one output and any number of sorted inputs.  Opcode names match Table 3
case-insensitively (``MatMul``, ``Cv2D``, ``Sort1D``, ...).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from ..core.isa import Instruction, Opcode, SourceLoc
from ..core.tensor import DType, FP16, FP32, INT32, Region, Tensor
from ..workloads.builder import Workload


class AssemblyError(ValueError):
    """A parse or semantic error, carrying the offending line/column."""

    def __init__(self, lineno: int, message: str,
                 column: Optional[int] = None):
        where = f"line {lineno}"
        if column is not None:
            where += f", col {column}"
        super().__init__(f"{where}: {message}")
        self.lineno = lineno
        self.column = column


_DTYPES: Dict[str, DType] = {"fp16": FP16, "fp32": FP32, "int32": INT32}

_OPCODES: Dict[str, Opcode] = {op.value.lower(): op for op in Opcode}

#: number of *output* operands per opcode (all Table-3 ops have exactly one)
_N_OUTPUTS = {op: 1 for op in Opcode}

_OPERAND_RE = re.compile(r"^([A-Za-z_][\w.]*)(\[(.*)\])?$")
_ATTR_RE = re.compile(r"^(\w+)=([^\s]+)$")


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _split_operands(text: str) -> List[str]:
    """Split on commas that are not inside region brackets."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _column_of(raw: str, text: str) -> Optional[int]:
    """1-based column of ``text`` in the original source line, if present."""
    pos = raw.find(text)
    return pos + 1 if pos >= 0 else None


def _parse_region(lineno: int, text: str, tensors: Dict[str, Tensor],
                  raw: str = "") -> Region:
    column = _column_of(raw, text)
    m = _OPERAND_RE.match(text)
    if not m:
        raise AssemblyError(lineno, f"bad operand {text!r}", column)
    name, _, slices = m.groups()
    if name not in tensors:
        raise AssemblyError(lineno, f"undeclared tensor {name!r}", column)
    region = tensors[name].region()
    if slices is None or not slices.strip():
        return region
    try:
        for dim, spec in enumerate(s.strip() for s in slices.split(",")):
            if spec == ":":
                continue
            if ":" in spec:
                lo_s, hi_s = spec.split(":", 1)
                lo = int(lo_s) if lo_s else 0
                hi = int(hi_s) if hi_s else region.shape[dim]
                region = region.slice_dim(dim, lo, hi)
            else:
                idx = int(spec)
                region = region.slice_dim(dim, idx, idx + 1)
    except (ValueError, IndexError) as err:
        raise AssemblyError(lineno, f"bad region {text!r}: {err}", column)
    return region


def assemble(source: str, name: str = "asm", lint: bool = True) -> Workload:
    """Assemble FISA text into a Workload.

    With ``lint=True`` (the default) the parsed program is run through the
    static analyzer (:mod:`repro.analysis`) and any analyzer *error* --
    shape mismatch, use-before-write, decomposition hazard -- is raised as
    an :class:`AssemblyError` pointing at the offending source line.
    Warnings never block assembly.  ``repro lint`` passes ``lint=False``
    to collect the diagnostics itself instead of catching exceptions.
    """
    tensors: Dict[str, Tensor] = {}
    inputs: Dict[str, Tensor] = {}
    outputs: Dict[str, Tensor] = {}
    program: List[Instruction] = []

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        head, *rest = line.split(None, 1)
        body = rest[0] if rest else ""
        keyword = head.lower()
        column = len(raw) - len(raw.lstrip()) + 1

        if keyword in ("tensor", "input"):
            tokens = body.split()
            if len(tokens) < 2:
                raise AssemblyError(lineno, "tensor needs a name and dimensions")
            tname = tokens[0]
            if tname in tensors:
                raise AssemblyError(lineno, f"duplicate tensor {tname!r}")
            dtype = FP16
            dims: List[int] = []
            for tok in tokens[1:]:
                if tok in _DTYPES:
                    dtype = _DTYPES[tok]
                else:
                    try:
                        dims.append(int(tok))
                    except ValueError:
                        raise AssemblyError(lineno, f"bad dimension {tok!r}")
            if not dims:
                raise AssemblyError(lineno, "tensor needs at least one dimension")
            t = Tensor(f"{name}.{tname}", tuple(dims), dtype)
            tensors[tname] = t
            if keyword == "input":
                inputs[t.name] = t
            continue

        if keyword == "output":
            tname = body.strip()
            if tname not in tensors:
                raise AssemblyError(lineno, f"undeclared tensor {tname!r}")
            outputs[tensors[tname].name] = tensors[tname]
            continue

        opcode = _OPCODES.get(keyword)
        if opcode is None:
            raise AssemblyError(lineno, f"unknown opcode {head!r}", column)

        # split attrs (key=value tokens at the end) from operands
        attr_text: Dict[str, object] = {}
        operand_text = body
        while True:
            operand_text = operand_text.rstrip()
            tail = operand_text.rsplit(None, 1)
            if len(tail) == 2 and _ATTR_RE.match(tail[1]):
                key, value = _ATTR_RE.match(tail[1]).groups()
                attr_text[key] = _parse_value(value)
                operand_text = tail[0].rstrip(",")
            else:
                break

        operands = [_parse_region(lineno, op, tensors, raw)
                    for op in _split_operands(operand_text)]
        n_out = _N_OUTPUTS[opcode]
        if len(operands) < n_out + 1:
            raise AssemblyError(
                lineno, f"{opcode.value} needs an output and at least one input",
                column)
        outs = tuple(operands[:n_out])
        ins = tuple(operands[n_out:])
        program.append(Instruction(
            opcode, ins, outs, attr_text,
            loc=SourceLoc(file=name, line=lineno, column=column)))

    workload = Workload(name=name, program=program, inputs=inputs,
                        outputs=outputs, params={}, meta={"source": "assembly"})
    if lint:
        _lint(workload)
    return workload


def _lint(workload: Workload) -> None:
    """Run the static analyzer over a freshly parsed program; raise an
    AssemblyError naming the first offending source line on any error."""
    from ..analysis import analyze_workload  # deferred: avoids import cycles

    result = analyze_workload(workload)
    if result.ok:
        return
    first = result.errors[0]
    lineno = first.loc.line if first.loc is not None else 0
    column = first.loc.column if first.loc is not None else None
    listing = "; ".join(d.format() for d in result.errors[:10])
    raise AssemblyError(
        lineno, f"static analysis rejected the program: {listing}", column)
