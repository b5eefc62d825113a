"""Parallel Decomposer (PD).

PD subdivides a sub-level instruction into fractal instructions assigned to
the node's FFUs.  It also identifies *shared* operands -- input regions that
appear in every FFU's part (e.g. the weight tensor of a batch-split
convolution) -- which the data-broadcasting mechanism transfers once instead
of per-FFU.  At the start of each FISA cycle PD additionally drains the
commission register: reduction operations RC has delegated back to the FFUs.

Instructions with one template key split alike, up to where their operands
sit, so a plan can be moved onto another such instruction instead of being
split again (:meth:`ParallelDecomposer.plan_from`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Set, Tuple

from ..decomposition import Split, decompose_parallel
from ..decomposition.base import _operand_moves, _share_template_key, _translate
from ..isa import Instruction


@dataclass
class ParallelPlan:
    """PD output: the FFU parts, their shared operands, and g(.) metadata."""

    split: Optional[Split]
    #: the undivided instruction (inherited whole by one FFU when no rule
    #: can split it)
    whole: Optional[Instruction] = None
    #: region keys present in *every* part's inputs (broadcast candidates)
    shared_keys: Set[Tuple] = field(default_factory=set)
    #: shared operand bytes (counted once)
    shared_bytes: int = 0
    commissioned: List[Instruction] = field(default_factory=list)

    @property
    def parts(self) -> List[Instruction]:
        if self.split is None:
            return []
        return self.split.parts

    @property
    def reduction(self) -> List[Instruction]:
        if self.split is None:
            return []
        return self.split.reduction

    def moved(self, inst: Instruction,
              commissioned: List[Instruction]) -> "ParallelPlan":
        """This plan for ``inst``, which shares ``whole``'s
        :func:`~repro.core.decomposition.base._template_key`: the parts,
        reductions and shared keys moved by one region offset per operand
        tensor, and every PD partial renewed.  The moved steps share their
        sources' signatures and template keys."""
        moves = {}
        for old, new, shift in _operand_moves(self.whole, inst):
            moves[old.uid] = (new, shift if any(shift) else None)
        split = self.split
        shared: Set[Tuple] = set()
        if split is not None:
            sources = split.parts + split.reduction
            steps = _translate(sources, moves, ())
            for source, step in zip(sources, steps):
                _share_template_key(source, step)
            n = len(split.parts)
            split = replace(split, parts=steps[:n], reduction=steps[n:])
            for uid, bounds in self.shared_keys:
                tensor, shift = moves[uid]
                if shift is not None:
                    bounds = tuple([(lo + s, hi + s)
                                    for (lo, hi), s in zip(bounds, shift)])
                shared.add((tensor.uid, bounds))
        return ParallelPlan(split=split, whole=inst, shared_keys=shared,
                            shared_bytes=self.shared_bytes,
                            commissioned=commissioned)


class ParallelDecomposer:
    """Splits instructions across ``n_ffus`` and tracks shared operands."""

    def __init__(self, n_ffus: int):
        if n_ffus < 1:
            raise ValueError("need at least one FFU")
        self.n_ffus = n_ffus
        self._commission_register: List[Instruction] = []

    def commission(self, instructions: List[Instruction]) -> None:
        """RC writes delegated reductions into the commission register (CMR)."""
        self._commission_register.extend(instructions)

    def plan_drain(self) -> List[Instruction]:
        """Drain and return any still-pending commissioned instructions
        (called once after the last FISA cycle of a program)."""
        drained, self._commission_register = self._commission_register, []
        return drained

    def plan(self, inst: Instruction) -> ParallelPlan:
        """Fan ``inst`` out across the FFUs; drains the commission register."""
        commissioned, self._commission_register = self._commission_register, []
        split = decompose_parallel(inst, self.n_ffus)
        plan = ParallelPlan(split=split, whole=inst, commissioned=commissioned)
        if split is not None and len(split.parts) > 1:
            plan.shared_keys, plan.shared_bytes = shared_operands(split.parts)
        return plan

    def plan_from(self, template: ParallelPlan,
                  inst: Instruction) -> ParallelPlan:
        """:meth:`plan` for ``inst`` without splitting it: ``template``, the
        plan of an instruction with ``inst``'s template key and this fan-out,
        moved onto ``inst`` (:meth:`ParallelPlan.moved`).  Drains the
        commission register as :meth:`plan` does."""
        commissioned, self._commission_register = self._commission_register, []
        return template.moved(inst, commissioned)


def shared_operands(parts: List[Instruction]) -> Tuple[Set[Tuple], int]:
    """Input region keys common to every part, and their total bytes."""
    key_sets = [
        {r.key() for r in p.inputs}
        for p in parts
    ]
    common = set.intersection(*key_sets) if key_sets else set()
    if not common:
        return set(), 0
    by_key = {r.key(): r for p in parts for r in p.inputs}
    return common, sum(by_key[k].nbytes for k in common)
