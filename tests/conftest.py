"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import FractalExecutor, Instruction, TensorStore, custom_machine
from repro.core.executor import run_reference
from repro.plan.regions import TensorTable

KB = 1 << 10


@pytest.fixture(scope="session", autouse=True)
def _hermetic_run_ledger(tmp_path_factory):
    """Keep the suite out of ``~/.cache``: point the run ledger at a tmp dir.

    Respects an explicit ``$REPRO_LEDGER`` (CI sets one to collect the
    test-run ledger as an artifact); only the unset case is redirected.
    """
    if "REPRO_LEDGER" not in os.environ:
        os.environ["REPRO_LEDGER"] = str(tmp_path_factory.mktemp("ledger"))
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(20190622)  # ISCA'19 opening day


def tiny_machine(fanouts=(3, 2), mems=(64 * KB, 8 * KB, 2 * KB)):
    """A small fractal machine that still forces real SD/PD decomposition."""
    return custom_machine("tiny", list(fanouts), list(mems),
                          [1e9] * (len(fanouts) + 1))


def tensor_ids(*region_lists):
    """Dense ids for the tensors the regions name, in first-seen order,
    and their :class:`repro.plan.regions.TensorTable`: what
    ``repro.plan.batch._build_access`` and ``_Binder`` take."""
    tensors = list({r.tensor.uid: r.tensor for regions in region_lists
                    for r in regions}.values())
    return ({t.uid: i for i, t in enumerate(tensors)},
            TensorTable(tensors, tensors,
                        ndim=max(len(t.shape) for t in tensors)))


def run_both(inst: Instruction, arrays, machine=None):
    """Run ``inst`` on the reference kernel and the fractal executor.

    ``arrays`` maps input Region -> numpy array.  Returns (fractal, reference)
    output arrays for the instruction's first output.
    """
    machine = machine or tiny_machine()
    frac_store, ref_store = TensorStore(), TensorStore()
    for region, arr in arrays.items():
        frac_store.bind(region.tensor, arr)
        ref_store.bind(region.tensor, arr)
    run_reference(inst, ref_store)
    FractalExecutor(machine, frac_store).run(inst)
    out = inst.outputs[0]
    return frac_store.read(out), ref_store.read(out)


def assert_fractal_matches(inst: Instruction, arrays, machine=None, atol=1e-9):
    got, want = run_both(inst, arrays, machine)
    np.testing.assert_allclose(got, want, atol=atol, rtol=1e-7)
