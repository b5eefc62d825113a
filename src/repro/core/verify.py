"""Differential verification harness.

The repository's core guarantee is that fractal execution is
*semantics-preserving*: any program, any machine, same numbers as the
reference kernels.  This module packages that check as a library feature
(and a CLI command), so users extending the ISA or the decomposition rules
can verify their changes against the whole workload suite in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .executor import FractalExecutor, run_reference
from .isa import Instruction
from .machine import Machine, cambricon_f1
from .store import TensorStore
from .tensor import Tensor


@dataclass
class TensorMismatch:
    """One output tensor that diverged."""

    tensor: str
    max_abs_error: float
    mismatched_elements: int
    total_elements: int


@dataclass
class VerificationReport:
    """Outcome of one differential run."""

    program_name: str
    machine_name: str
    instructions: int
    outputs_checked: int
    max_abs_error: float = 0.0
    mismatches: List[TensorMismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = (f"{verdict}: {self.program_name} on {self.machine_name} "
                f"({self.instructions} instructions, "
                f"{self.outputs_checked} outputs, "
                f"max |err| {self.max_abs_error:.2e})")
        for m in self.mismatches:
            line += (f"\n  {m.tensor}: {m.mismatched_elements}/"
                     f"{m.total_elements} elements off, "
                     f"max |err| {m.max_abs_error:.2e}")
        return line


def bit_identical(got: np.ndarray, want: np.ndarray) -> bool:
    """Same dtype, shape and bytes.  Unlike ``np.array_equal``, -0.0
    differs from +0.0 and equal NaN payloads match."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _gather_tensors(program: Sequence[Instruction]) -> Dict[int, Tensor]:
    out: Dict[int, Tensor] = {}
    for inst in program:
        for r in inst.inputs + inst.outputs:
            out.setdefault(r.tensor.uid, r.tensor)
    return out


def verify_program(
    program: Sequence[Instruction],
    machine: Optional[Machine] = None,
    inputs: Optional[Dict[str, np.ndarray]] = None,
    outputs: Optional[Iterable[Tensor]] = None,
    seed: int = 0,
    atol: float = 1e-7,
    rtol: float = 1e-6,
    name: str = "program",
    input_scale: float = 0.25,
    preflight: bool = False,
) -> VerificationReport:
    """Run ``program`` fractally and against the reference kernels.

    ``inputs`` maps tensor names to arrays; unspecified source tensors get
    seeded random data scaled by ``input_scale`` (kept small so deep
    networks don't blow up numerically and absolute errors stay readable).
    ``outputs`` restricts which tensors are compared (default: every tensor
    any instruction writes).  ``preflight=True`` additionally runs the
    static analyzer first and raises
    :class:`repro.analysis.AnalysisError` on any error-severity
    diagnostic, so malformed programs fail fast instead of mid-run.
    """
    machine = machine if machine is not None else cambricon_f1()
    program = list(program)
    if preflight:
        from ..analysis import analyze

        analyze(program, name=name).raise_if_errors()
    tensors = _gather_tensors(program)
    written = {r.tensor.uid for inst in program for r in inst.outputs}
    sources = [t for uid, t in tensors.items() if uid not in written]
    check = list(outputs) if outputs is not None else [
        tensors[uid] for uid in written
        if tensors[uid].space == "global"]

    rng = np.random.default_rng(seed)
    frac, ref = TensorStore(), TensorStore()
    supplied = inputs or {}
    for t in sources:
        arr = supplied.get(t.name)
        if arr is None:
            arr = input_scale * rng.normal(size=t.shape)
        frac.bind(t, arr)
        ref.bind(t, arr)

    for inst in program:
        run_reference(inst, ref)
    FractalExecutor(machine, frac).run_program(program)

    report = VerificationReport(
        program_name=name,
        machine_name=machine.name,
        instructions=len(program),
        outputs_checked=len(check),
    )
    for t in check:
        got = frac.read(t.region())
        want = ref.read(t.region())
        err = np.abs(got - want)
        max_err = float(err.max()) if err.size else 0.0
        report.max_abs_error = max(report.max_abs_error, max_err)
        bad = int((err > atol + rtol * np.abs(want)).sum())
        if bad:
            report.mismatches.append(TensorMismatch(
                tensor=t.name,
                max_abs_error=max_err,
                mismatched_elements=bad,
                total_elements=int(err.size),
            ))
    return report


def verify_suite(machine: Optional[Machine] = None,
                 seed: int = 0) -> List[VerificationReport]:
    """Differentially verify every miniature paper benchmark."""
    from ..workloads import PAPER_BENCHMARKS, small_benchmark

    reports = []
    for bench in sorted(PAPER_BENCHMARKS):
        w = small_benchmark(bench)
        reports.append(verify_program(
            w.program, machine=machine, seed=seed, name=bench,
            outputs=list(w.outputs.values())))
    return reports
