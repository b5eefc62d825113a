"""The products of the 18 profile plans, pinned in a committed fixture.

Per (benchmark, machine) pair: the step count, the analysis digest, the
plan document without ``compile_seconds``, every replay-schedule item
(:func:`repro.plan.analysis._item_fields`) and the arena
(:func:`repro.plan.analysis._arena_fields`).  A change that must leave
what a plan compiles to, and how it replays, as it is checks it here.

Three names depend on what ran earlier in the process, so they are
renumbered before hashing: partial tensor names (``%eu0`` in a fresh
process, ``%eu3510`` after two other compiles) and tensor uids in
first-seen order, chain ids from the counter's value when the compile
starts (a compile draws its chain ids in one sequence).  Every plan is
a fresh :func:`~repro.plan.compile_program`, never a shared cache entry.

Regenerate the fixture, after a change that means to move a product,
with ``PYTHONPATH=src python tests/test_plan_products.py``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro import cambricon_f1, cambricon_f100
from repro.core.decomposition import base
from repro.plan import compile_program
from repro.plan.analysis import _arena_fields, _item_fields
from repro.workloads import profile_benchmark
from repro.workloads.suite import PROFILE_BENCHMARKS

pytestmark = pytest.mark.plan

FIXTURE = Path(__file__).parent / "fixtures" / "plan_products.json"
MACHINES = {"f1": cambricon_f1, "f100": cambricon_f100}
PAIRS = [f"{bench}.{machine}" for bench in sorted(PROFILE_BENCHMARKS)
         for machine in MACHINES]


def _sha(value) -> str:
    return hashlib.sha256(value.encode("utf-8")).hexdigest()


def _document(doc: dict, chain_base: int) -> str:
    """The plan document, renumbered, as canonical JSON."""
    doc = dict(doc)
    del doc["compile_seconds"]
    names = {}
    tensors = []
    for entry in doc["tensors"]:
        entry = dict(entry)
        partial = re.fullmatch(r"%(.*\D)(\d+)", entry["name"])
        if partial:
            number = names.setdefault(entry["name"], len(names))
            entry["name"] = f"%{partial.group(1)}#{number}"
        tensors.append(entry)
    doc["tensors"] = tensors
    steps = []
    for step in doc["steps"]:
        if "acc_chain" in step["attrs"]:
            step = dict(step, attrs=dict(step["attrs"]))
            step["attrs"]["acc_chain"] -= chain_base
        steps.append(step)
    doc["steps"] = steps
    doc["spans"] = [dict(span, chains=[[lo - chain_base, hi - chain_base, d]
                                       for lo, hi, d in span["chains"]])
                    for span in doc["spans"]]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _spec(spec, uid):
    return (uid(spec[0]),) + tuple(spec[1:])


def _access(fields, uid):
    if fields[0] == "loop":
        return fields[:3] + (tuple(_spec(s, uid) for s in fields[3]),)
    return fields[:1] + (uid(fields[1]),) + fields[2:]


def _item(fields, uid):
    """``_item_fields`` with every tensor uid renumbered."""
    head, rest = fields[:8], fields[8:]
    if head[0] == "BatchedItem":
        k, gathers, scatter, shape, nelems = rest
        rest = (k, tuple(_access(a, uid) for a in gathers),
                _access(scatter, uid), shape, nelems)
    elif head[0] == "FoldItem":
        k, terms, out = rest
        rest = (k, tuple(_spec(t, uid) for t in terms), _spec(out, uid))
    else:
        mask, ins, outs = rest
        rest = (mask, tuple(_spec(s, uid) for s in ins),
                tuple(_spec(s, uid) for s in outs))
    return head + rest


def products(pair: str) -> dict:
    """The pinned products of one ``"<benchmark>.<machine>"`` pair."""
    bench, machine = pair.rsplit(".", 1)
    program = profile_benchmark(bench).program
    chain_base = base._chain_counter.value
    plan = compile_program(MACHINES[machine](), program)
    schedule = plan.replay_schedule()
    uids = {}

    def uid(value):
        return uids.setdefault(value, len(uids))

    items = [_item(_item_fields(item, schedule.tensor), uid)
             for item in schedule.items]
    total, bindings, zero_items, zero_externals = _arena_fields(
        schedule.arena, schedule.tensor)
    arena = (total, [(uid(u), off) for u, off in bindings], zero_items,
             [uid(u) for u in zero_externals])
    return {
        "steps": plan.n_steps,
        "analysis_digest": plan.analysis["digest"],
        "document": _sha(_document(plan.to_doc(), chain_base)),
        "items": len(items),
        "items_digest": _sha(repr(items)),
        "arena_elems": total,
        "arena_digest": _sha(repr(arena)),
    }


@pytest.mark.parametrize("pair", PAIRS)
def test_profile_plan_products_are_pinned(pair):
    pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert products(pair) == pinned[pair]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({pair: products(pair) for pair in PAIRS},
                                  indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")
