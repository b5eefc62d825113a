"""Parameter sweeps over (machine, workload, feature) grids.

The evaluation harness repeatedly needs "simulate these workloads on these
machine variants and tabulate": this module does that once, properly --
records with consistent fields, optional CSV export, a formatted table,
and (``workers=N``) a process-pool mode that simulates independent
(machine, variant) cells in parallel while keeping the output order
deterministic.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.isa import Instruction
from ..core.machine import Machine
from .simulator import FractalSimulator

#: feature-flag presets usable as sweep variants
FEATURE_VARIANTS: Dict[str, Dict[str, bool]] = {
    "baseline": {},
    "no-ttt": {"use_ttt": False},
    "no-broadcast": {"use_broadcast": False},
    "no-concat": {"use_concatenation": False},
    "no-optimizations": {"use_ttt": False, "use_broadcast": False,
                         "use_concatenation": False},
    "sibling-links": {"use_sibling_links": True},
}


@dataclass(frozen=True)
class SweepRecord:
    """One (machine, variant, workload) simulation outcome."""

    machine: str
    variant: str
    workload: str
    total_time: float
    attained_ops: float
    peak_fraction: float
    operational_intensity: float
    root_traffic: int
    ttt_elided_bytes: int
    preassign_fraction: float


def _run_cell(
    m_name: str,
    machine: Machine,
    v_name: str,
    flags: Dict[str, bool],
    workloads: Sequence[Tuple[str, Sequence[Instruction]]],
) -> List[SweepRecord]:
    """Simulate every workload of one (machine, variant) grid cell.

    One :class:`FractalSimulator` per cell (its signature memo warms across
    the cell's workloads, as in the serial path).
    """
    variant_machine = machine.with_features(**flags) if flags else machine
    sim = FractalSimulator(variant_machine, collect_profiles=False)
    records: List[SweepRecord] = []
    for w_name, program in workloads:
        rep = sim.simulate(list(program))
        records.append(SweepRecord(
            machine=m_name,
            variant=v_name,
            workload=w_name,
            total_time=rep.total_time,
            attained_ops=rep.attained_ops,
            peak_fraction=rep.peak_fraction(variant_machine.peak_ops),
            operational_intensity=rep.operational_intensity,
            root_traffic=rep.root_traffic,
            ttt_elided_bytes=rep.stats.elided_bytes,
            preassign_fraction=rep.stats.preassign_fraction,
        ))
    return records


def _simulate_cell(
    m_name: str,
    machine: Machine,
    v_name: str,
    flags: Dict[str, bool],
    workloads: Sequence[Tuple[str, Sequence[Instruction]]],
    obs_wire: Optional[Dict[str, object]] = None,
):
    """Pool entry point for one grid cell; module-level so it pickles.

    Returns ``(records, telemetry)``: with ``obs_wire`` (the parent's
    trace + enable flags, see :func:`repro.obs.worker.build_wire`) the
    cell runs inside a :func:`repro.obs.worker.worker_capture` scope and
    ships back a ``WorkerTelemetry`` bundle; without it (legacy callers)
    telemetry is None.
    """
    if obs_wire is None:
        return _run_cell(m_name, machine, v_name, flags, workloads), None
    from ..obs.events import event_context
    from ..obs.worker import worker_capture
    with worker_capture(obs_wire) as capture, \
            event_context(machine=m_name, variant=v_name):
        records = _run_cell(m_name, machine, v_name, flags, workloads)
    return records, capture.telemetry


def run_sweep(
    machines: Mapping[str, Machine],
    workloads: Mapping[str, Sequence[Instruction]],
    variants: Optional[Mapping[str, Dict[str, bool]]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
) -> List[SweepRecord]:
    """Simulate every combination; returns one record per cell.

    With ``workers=N`` (N > 1) the independent (machine, variant) cells
    are fanned out over a process pool: each worker process builds its own
    per-cell simulator, and the results are merged back **in grid order**
    (machines x variants x workloads, exactly as the serial path emits
    them), so the record list -- and everything derived from it (CSV,
    tables, committed benchmark artifacts) -- is byte-identical regardless
    of worker count or completion order.  ``progress`` callbacks fire in
    the parent as each cell's results are collected.

    Observability: the whole sweep runs under one trace context (reusing
    an enclosing :func:`repro.obs.trace.trace_scope` when the caller has
    one, minting a fresh trace otherwise).  Pool children re-attach their
    telemetry under that trace and ship :class:`WorkerTelemetry` bundles
    back; the parent merges them into its registries with ``worker=<n>``
    labels and appends one run-ledger row per cell plus a parent
    ``sweep`` row -- all fail-soft and cost-free when telemetry, the
    event log, and the ledger are off.
    """
    from ..obs.events import event_context
    from ..obs.ledger import record_run
    from ..obs.trace import ensure_trace
    from ..obs.worker import build_wire, ledger_fields, merge_worker_telemetry
    from ..telemetry import get_registry

    variants = dict(variants) if variants is not None else {"baseline": {}}
    cells = [
        (m_name, machine, v_name, flags)
        for m_name, machine in machines.items()
        for v_name, flags in variants.items()
    ]
    workload_items = list(workloads.items())
    registry = get_registry()
    t0 = time.perf_counter()

    with ensure_trace(sweep=True) as ctx:
        parallel = workers is not None and workers > 1 and len(cells) > 1
        if parallel:
            from concurrent.futures import ProcessPoolExecutor

            records: List[SweepRecord] = []
            profile_samples = 0
            with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
                futures = [
                    pool.submit(_simulate_cell, m_name, machine, v_name,
                                flags, workload_items, build_wire(ctx, i))
                    for i, (m_name, machine, v_name, flags) in enumerate(cells)
                ]
                # Collect in submission (= grid) order; completion order is
                # irrelevant to the merged output.
                for (m_name, _machine, v_name, _flags), future in zip(cells,
                                                                      futures):
                    cell_records, wt = future.result()
                    if wt is not None:
                        merge_worker_telemetry(wt)
                        profile_samples += int(
                            (wt.profile or {}).get("samples", 0))
                        record_run("sweep-cell", machine=m_name,
                                   variant=v_name,
                                   trace_id=wt.trace_id, span_id=wt.span_id,
                                   workloads=len(workload_items),
                                   **ledger_fields(wt))
                    if progress:
                        for w_name, _ in workload_items:
                            progress(f"{m_name}/{v_name}/{w_name}")
                    records.extend(cell_records)
        else:
            records = []
            for m_name, machine, v_name, flags in cells:
                cell_t0 = time.perf_counter()
                with event_context(machine=m_name, variant=v_name):
                    variant_machine = (machine.with_features(**flags)
                                       if flags else machine)
                    sim = FractalSimulator(variant_machine,
                                           collect_profiles=False)
                    for w_name, program in workload_items:
                        if progress:
                            progress(f"{m_name}/{v_name}/{w_name}")
                        rep = sim.simulate(list(program))
                        records.append(SweepRecord(
                            machine=m_name,
                            variant=v_name,
                            workload=w_name,
                            total_time=rep.total_time,
                            attained_ops=rep.attained_ops,
                            peak_fraction=rep.peak_fraction(
                                variant_machine.peak_ops),
                            operational_intensity=rep.operational_intensity,
                            root_traffic=rep.root_traffic,
                            ttt_elided_bytes=rep.stats.elided_bytes,
                            preassign_fraction=rep.stats.preassign_fraction,
                        ))
                record_run("sweep-cell", machine=m_name, variant=v_name,
                           makespan_s=time.perf_counter() - cell_t0,
                           workloads=len(workload_items))
        if registry.enabled:
            registry.count("sweep.cells", len(cells))
        sweep_fields: Dict[str, object] = {}
        if parallel and profile_samples:
            sweep_fields["profile_samples"] = profile_samples
        record_run("sweep", cells=len(cells),
                   workers=workers if parallel else None,
                   workloads=len(workload_items),
                   makespan_s=time.perf_counter() - t0,
                   **sweep_fields)
    return records


def to_csv(records: Iterable[SweepRecord]) -> str:
    """Render records as CSV text (header + one row per record)."""
    records = list(records)
    out = io.StringIO()
    if not records:
        return ""
    writer = csv.DictWriter(out, fieldnames=list(asdict(records[0])))
    writer.writeheader()
    for rec in records:
        writer.writerow(asdict(rec))
    return out.getvalue()


def format_table(records: Iterable[SweepRecord]) -> str:
    """Human-readable sweep table."""
    rows = [f"{'machine':14s} {'variant':16s} {'workload':12s} "
            f"{'time':>10s} {'of peak':>8s} {'OI':>8s} {'traffic':>10s}"]
    for r in records:
        rows.append(
            f"{r.machine:14s} {r.variant:16s} {r.workload:12s} "
            f"{r.total_time * 1e3:8.2f}ms {r.peak_fraction:8.1%} "
            f"{r.operational_intensity:8.1f} {r.root_traffic / 2**20:8.1f}Mi"
        )
    return "\n".join(rows)
