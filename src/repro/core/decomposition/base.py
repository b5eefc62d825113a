"""Fractal decomposition framework (paper Sections 2.2-2.3).

A fractal operation ``f(X) = g(f(X_A), f(X_B), ...)`` is represented here by
a :class:`Split`: the sub-instructions ``f(X_i)`` (the *parts*), and the
retrieving operator ``g`` materialized as a list of ordinary FISA
*reduction* instructions.  Each opcode registers an ordered list of
:class:`SplitRule`\\ s -- the rows of the paper's Table 2 -- and the two
decomposer entry points choose among them:

* :func:`decompose_parallel` -- the Parallel Decomposer (PD): split one
  instruction into up to ``n`` balanced parts for the node's FFUs.
* :func:`shrink_sequential` -- the Sequential Decomposer (SD): binary-split
  an instruction until every piece's working set fits the node's memory
  capacity, yielding a sequential instruction list.

Rules are ordered so that independent and input-dependent axes are preferred
over output-dependent ones; output-dependent splits allocate *partial*
tensors and emit ``g`` instructions (Add chains, Merge) that the Reduction
Controller later steers to LFUs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ... import obs, telemetry
from ..isa import DependencyKind, Instruction, Opcode
from ..tensor import Region, Tensor, total_bytes

_partial_counter = itertools.count()


class _Counter:
    """An ``itertools.count`` whose position can be read and moved.

    Not atomic across threads.  Chain ids need only be unique among the
    steps one node decodes, and one thread decomposes and decodes them.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 0):
        self.value = start

    def __next__(self) -> int:
        value = self.value
        self.value = value + 1
        return value


#: accumulation chain ids, unique per process; the demotion decoder
#: numbers the chains it sees itself, so no result depends on them.
_chain_counter = _Counter()


def make_partial(shape: Tuple[int, ...], dtype, tag: str) -> Tensor:
    """Allocate a fresh partial-result tensor (lives in node-local space).

    The name is ``%`` + ``tag`` + a counter; tags end in a letter so that
    re-emission (:func:`_reemit`) can read the tag back off a name.
    """
    return Tensor(
        name=f"%{tag}{next(_partial_counter)}",
        shape=shape,
        dtype=dtype,
        space="partial",
    )


@dataclass
class Split:
    """One application of ``f(X) = g(f(X_A), f(X_B), ...)``.

    ``parts`` compute on operand subsets; ``reduction`` is the ``g``
    instruction list (empty for independent / input-dependent splits).
    ``redundant_bytes`` counts input bytes loaded more than once relative to
    an exact partition (Table 2's "Data Redundancy" column).
    """

    parts: List[Instruction]
    reduction: List[Instruction] = field(default_factory=list)
    dependency: DependencyKind = DependencyKind.INDEPENDENT
    axis: str = ""
    redundant_bytes: int = 0

    @property
    def degree(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class SplitRule:
    """A named way to split one opcode (one row of Table 2).

    ``extent`` reports how many ways the rule could split the given
    instruction (the axis length); ``apply`` performs an ``n``-way split.
    """

    name: str
    dependency: DependencyKind
    g_name: str  # human name of the retrieving operator ("-", "Add", "Merge")
    redundancy: str  # human name of the data redundancy ("-", "Weight", ...)
    extent: Callable[[Instruction], int]
    apply: Callable[[Instruction, int], Split]


_RULES: Dict[Opcode, List[SplitRule]] = {}


def register_rules(opcode: Opcode, rules: Sequence[SplitRule]) -> None:
    """Register the ordered (most- to least-preferred) rules for an opcode."""
    _RULES[opcode] = list(rules)


def rules_for(opcode: Opcode) -> List[SplitRule]:
    return list(_RULES.get(opcode, []))


def footprint(inst: Instruction) -> int:
    """Working-set bytes of an instruction (deduplicated operand bytes)."""
    return inst.io_bytes()


def splittable_extent(inst: Instruction) -> int:
    """Largest split degree any rule offers for this instruction."""
    return max((r.extent(inst) for r in rules_for(inst.opcode)), default=1)


def _pick_rule(inst: Instruction, want: int) -> Optional[SplitRule]:
    """First (most preferred) rule that can split at all; among the rules,
    prefer one that can reach the wanted degree, falling back to the best
    available.

    An *accumulating* instruction (its output already holds a partial sum
    from an earlier sequential step) must not be given to an
    output-dependent rule: the g(.) chain would overwrite the accumulated
    output instead of adding to it.
    """
    rules = rules_for(inst.opcode)
    if inst.attrs.get("accumulate"):
        rules = [r for r in rules if r.dependency is not DependencyKind.OUTPUT_DEPENDENT]
    candidates = [r for r in rules if r.extent(inst) >= 2]
    if not candidates:
        return None
    for rule in candidates:
        if rule.extent(inst) >= want:
            return rule
    return max(candidates, key=lambda r: r.extent(inst))


def decompose_parallel(inst: Instruction, n: int) -> Optional[Split]:
    """Split ``inst`` into up to ``n`` parts for n FFUs (the PD stage).

    Returns ``None`` when no rule can split the instruction (degenerate
    granularity); the caller then runs it on a single FFU or an LFU.

    ``acc_local_out`` propagates to the parts: while a sequential
    accumulation chain is open at this node, each child keeps its own slice
    of the running sum resident (its TTT covers consecutive chain steps)
    and only writes back when the chain closes.  ``acc_chain`` is this
    node's static-allocator bookkeeping and is stripped.

    Splits *compose*: when the preferred axis is shorter than ``n`` (a
    batch of 8 facing 512 FFUs), each part is recursively split along the
    next axes until the fan-out is covered -- otherwise most FFUs of a wide
    node would idle.  Inner g(.) reductions run before the outer ones.
    """
    if n < 2:
        return None
    rule = _pick_rule(inst, n)
    if rule is None:
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.count("decompose.degenerate",
                           labels={"opcode": inst.opcode.value})
        if obs.get_event_log().enabled:
            # Degenerate granularity leaves n-1 FFUs idle below this node --
            # worth a structured warning for offline triage.
            obs.log_event("decompose", "degenerate_split", "warn",
                          opcode=inst.opcode.value, fanout=n)
        return None
    degree = min(n, rule.extent(inst))
    split = rule.apply(inst, degree)
    registry = telemetry.get_registry()
    if registry.enabled:
        registry.count("decompose.parallel_splits",
                       labels={"opcode": inst.opcode.value, "rule": rule.name})
        registry.count("decompose.parallel_parts", len(split.parts))
        if split.reduction:
            registry.count("decompose.reductions", len(split.reduction))
        if split.redundant_bytes:
            registry.count("decompose.redundant_bytes", split.redundant_bytes)
    if "acc_chain" in inst.attrs:
        split.parts[:] = [_strip_chain_attrs(p) for p in split.parts]

    remaining = n // max(1, len(split.parts))
    if remaining >= 2:
        parts: List[Instruction] = []
        inner_reductions: List[Instruction] = []
        dependency = split.dependency
        redundancy = split.redundant_bytes
        for part in split.parts:
            sub = decompose_parallel(part, remaining)
            if sub is None:
                parts.append(part)
                continue
            parts.extend(sub.parts)
            inner_reductions.extend(sub.reduction)
            redundancy += sub.redundant_bytes
            dependency = _stronger_dependency(dependency, sub.dependency)
        split = Split(parts=parts,
                      reduction=inner_reductions + split.reduction,
                      dependency=dependency,
                      axis=split.axis + "*",
                      redundant_bytes=redundancy)
    return split


_DEP_ORDER = {
    DependencyKind.INDEPENDENT: 0,
    DependencyKind.INPUT_DEPENDENT: 1,
    DependencyKind.OUTPUT_DEPENDENT: 2,
}


def _stronger_dependency(a: DependencyKind, b: DependencyKind) -> DependencyKind:
    return a if _DEP_ORDER[a] >= _DEP_ORDER[b] else b


def _strip_chain_attrs(inst: Instruction) -> Instruction:
    attrs = {k: v for k, v in inst.attrs.items() if k != "acc_chain"}
    return Instruction(inst.opcode, inst.inputs, inst.outputs, attrs)


def sequentialize_add_reduction(split: Split, inst: Instruction) -> Split:
    """Rewrite an Add-reduction split for *sequential* execution.

    When the parts of an output-dependent split run one after another on the
    same node (SD, not PD), there is no coherence hazard in letting each
    part accumulate directly into the output instead of materializing
    partials and summing them afterwards -- this is what a MAC array does
    natively.  The rewrite:

    * points every part at the original output region;
    * sets ``accumulate=True`` on parts after the first (the first inherits
      the parent's flag, so nested K-splits compose);
    * sets ``acc_local_out=True`` on all but the last part, telling the
      demotion decoder to keep the running sum resident locally and only
      write back once (the paper's controller achieves the same through the
      static memory segment).

    Splits whose g(.) is not a same-shape Add chain (Merge, scalar-combine
    of unequal shapes) are returned unchanged.
    """
    if not _accumulates(split, inst):
        return split
    out = inst.outputs[0]
    parent_acc = bool(inst.attrs.get("accumulate", False))
    parent_local = bool(inst.attrs.get("acc_local_out", False))
    chain_id = next(_chain_counter)
    new_parts: List[Instruction] = []
    last = len(split.parts) - 1
    for i, part in enumerate(split.parts):
        attrs = dict(part.attrs)
        attrs["accumulate"] = True if i > 0 else parent_acc
        attrs["acc_local_out"] = True if i < last else parent_local
        attrs["acc_chain"] = chain_id
        new_parts.append(Instruction(part.opcode, part.inputs, (out,), attrs))
    return Split(parts=new_parts, reduction=[],
                 dependency=DependencyKind.OUTPUT_DEPENDENT,
                 axis=split.axis + "+acc", redundant_bytes=split.redundant_bytes)


def _accumulates(split: Split, inst: Instruction) -> bool:
    """Whether :func:`sequentialize_add_reduction` rewrites ``split``: an
    output-dependent split whose g(.) is a chain of Adds over partials
    shaped like ``inst``'s output."""
    if split.dependency is not DependencyKind.OUTPUT_DEPENDENT or not split.reduction:
        return False
    if any(r.opcode is not Opcode.ADD1D for r in split.reduction):
        return False
    shape = inst.outputs[0].shape
    return all(p.outputs[0].shape == shape for p in split.parts)


def best_shrink_split(inst: Instruction) -> Optional[Split]:
    """The binary split that most reduces the working set.

    SD's goal differs from PD's: it must *shrink the footprint* toward the
    memory capacity, so it greedily evaluates every registered rule and
    picks the one whose larger half has the smallest working set (ties
    favour reduction-free rules, then Table-2 order).  Without this, a rule
    ordering tuned for FFU fan-out can split one axis down to extent 1
    before touching the axis that actually carries the bytes -- e.g. slicing
    a MatMul's N to single columns while the left matrix stays whole.

    An Add-reduction candidate is scored as
    :func:`sequentialize_add_reduction` would rewrite it -- every part
    writing the output, no g(.) -- but only the winner is rewritten, so
    only a kept split draws an accumulation-chain id.
    """
    best: Optional[Split] = None
    best_score = None
    current_fp = footprint(inst)
    for order, rule in enumerate(rules_for(inst.opcode)):
        if rule.extent(inst) < 2:
            continue
        split = rule.apply(inst, 2)
        if _accumulates(split, inst):
            out = inst.outputs[0]
            fp = max(total_bytes(p.inputs + (out,)) for p in split.parts)
            reduces = 0
        else:
            fp = max(footprint(p) for p in split.parts)
            reduces = 1 if split.reduction else 0
        if fp >= current_fp:
            continue  # no progress along this axis
        score = (fp, reduces, order)
        if best_score is None or score < best_score:
            best, best_score = split, score
    return None if best is None else sequentialize_add_reduction(best, inst)


def shrink_sequential(
    inst: Instruction, capacity_bytes: int, max_steps: int = 1_000_000
) -> List[Instruction]:
    """Sequentially decompose ``inst`` until each piece fits ``capacity_bytes``.

    This is the SD stage: the result is an ordered instruction list
    (including any ``g`` reduction instructions) that computes ``inst``
    exactly, each step's working set within capacity.  Pieces that cannot be
    split further are emitted as-is even if oversized -- the hardware would
    stream them; the timing model charges their full traffic.

    The binary split tree (:func:`best_shrink_split` at every oversized
    node) is emitted depth first, parts before reductions.  Sub-instructions
    of one split have the same structure and differ only in where their
    operands sit (the paper's fractal claim), so each distinct shape is
    split once per call: a later sub-instruction with the same
    :func:`_template_key` re-emits the first one's steps by region offset
    (:func:`_reemit`), with fresh partial tensors and the chain ids its own
    split would have drawn.  The cost grows with the number of distinct
    shapes, not with the steps emitted.  ``max_steps`` bounds the
    split-tree nodes, re-emitted ones included.  The steps come as a
    :class:`SequentialSteps`, which lists the copies, unless ``inst``
    fits as it is.
    """
    if footprint(inst) <= capacity_bytes and max_steps > 0:
        return [inst]
    walk = _ShrinkWalk(capacity_bytes, max_steps)
    _shrink(walk, inst)
    out = walk.out
    registry = telemetry.get_registry()
    if registry.enabled and len(out) > 1:
        registry.count("decompose.sequential_steps", len(out),
                       labels={"opcode": inst.opcode.value})
    return out


class SequentialSteps(list):
    """The steps of one sequential decomposition, in order.

    ``copies`` lists each run SD re-emitted from a template as ``(start,
    end, source)``: ``self[start:end]`` are ``self[source:source + end -
    start]`` moved by one region offset per tensor, partials renewed, and
    share their signature objects.  Runs do not overlap, and each source
    run lies before its copy.
    """

    __slots__ = ("copies",)

    def __init__(self) -> None:
        super().__init__()
        self.copies: List[Tuple[int, int, int]] = []


class _ShrinkWalk:
    """The state of one :func:`shrink_sequential` call.

    ``templates`` maps a :func:`_template_key` to the first sub-instruction
    with that key, the ``[start, end)`` span of ``out`` it produced, the
    number of split-tree nodes under it and the range of chain ids its
    split drew.  Scoped to the call: no template outlives it.
    """

    __slots__ = ("capacity", "budget", "out", "templates")

    def __init__(self, capacity: int, max_steps: int):
        self.capacity = capacity
        self.budget = max_steps
        self.out = SequentialSteps()
        self.templates: Dict[Tuple, Tuple[Instruction, int, int, int, range]] = {}

    def charge(self, nodes: int) -> None:
        self.budget -= nodes
        if self.budget < 0:
            raise RuntimeError("sequential decomposition exploded; check capacity")


def _shrink(walk: _ShrinkWalk, inst: Instruction) -> int:
    """Append the steps of ``inst`` to ``walk.out``; returns its tree nodes."""
    walk.charge(1)
    out = walk.out
    if footprint(inst) <= walk.capacity:
        out.append(inst)
        return 1
    key = _template_key(inst)
    template = walk.templates.get(key)
    if template is not None:
        first, start, end, nodes, drawn = template
        walk.charge(nodes - 1)
        out.copies.append((len(out), len(out) + end - start, start))
        out.extend(_reemit(first, out[start:end], inst, drawn))
        return nodes
    start, nodes, first_id = len(out), 1, _chain_counter.value
    split = best_shrink_split(inst)
    if split is None:
        out.append(inst)
    else:
        for sub in split.parts + split.reduction:
            nodes += _shrink(walk, sub)
    walk.templates[key] = (inst, start, len(out), nodes,
                           range(first_id, _chain_counter.value))
    return nodes


def _template_key(inst: Instruction) -> Tuple:
    """What decides the split tree of ``inst``, up to operand placement.

    The signature fixes opcode, shapes, dtypes and attrs; ``acc_chain`` is
    outside it, but whether the steps carry a chain is not.  Operands that
    share a tensor add their offset from the first operand on it, because
    :func:`footprint` counts equal regions once: ``Add(x, x)`` must not
    reuse the tree of ``Add(x, y)``.  Computed once and kept on ``inst``,
    as its signature is (:func:`_share_template_key` hands it to a copy).
    """
    cached = inst.__dict__.get("_tkey")
    if cached is not None:
        return cached
    first: Dict[int, Tuple[int, Tuple[Tuple[int, int], ...]]] = {}
    shared = []
    for i, r in enumerate(inst.inputs + inst.outputs):
        j, bounds = first.setdefault(r.tensor.uid, (i, r.bounds))
        if j != i:
            shared.append((i, j, tuple(lo - b for (lo, _), (b, _)
                                       in zip(r.bounds, bounds))))
    key = inst.signature(), "acc_chain" in inst.attrs, tuple(shared)
    object.__setattr__(inst, "_tkey", key)
    return key


def _share_template_key(source: Instruction, copy: Instruction) -> None:
    """Give ``copy`` the :func:`_template_key` of ``source``, which it
    copies moved one to one: that keeps the offsets between operands that
    share a tensor."""
    object.__setattr__(copy, "_tkey", _template_key(source))


def _reemit(first: Instruction, steps: Sequence[Instruction],
            inst: Instruction, drawn: range) -> List[Instruction]:
    """``first``'s ``steps`` re-expressed over the operands of ``inst``.

    The two share a :func:`_template_key`, so each tensor of ``first``'s
    operands maps to one tensor of ``inst``'s by one shift.  Every other
    tensor in ``steps`` is a partial created under ``first`` and gets a
    fresh twin.  ``first``'s subtree drew the chain ids ``drawn``; the copy
    draws as many, each at the same offset, so its ids are the ones
    decomposing ``inst`` would have drawn and the steps equal an
    untemplated decomposition's, chain ids included.  ``first``'s own chain
    id becomes ``inst``'s.  Order, bounds, opcodes, ``loc`` and the other
    attrs are unchanged, so each step keeps its template's signature.
    Twin regions skip bounds validation (:meth:`Region.unchecked`): each is
    a validated region shifted inside a validated operand, or a validated
    region of a same-shape fresh partial.
    """
    moves: Dict[int, Tuple[Tensor, Optional[Tuple[int, ...]]]] = {}
    for old, new, shift in _operand_moves(first, inst):
        moves[old.uid] = (new, shift if any(shift) else None)
    chains = _chain_renames(first, inst, drawn)
    _chain_counter.value += len(drawn)
    return _translate(steps, moves, chains)


def _operand_moves(first: Instruction, inst: Instruction
                   ) -> Tuple[Tuple[Tensor, Tensor, Tuple[int, ...]], ...]:
    """``(tensor of first, tensor of inst, shift)`` per operand tensor of
    ``first``, in operand order: two instructions with one
    :func:`_template_key` place each tensor's operands at one shift."""
    moves: Dict[int, Tuple[Tensor, Tensor, Tuple[int, ...]]] = {}
    for old, new in zip(first.inputs + first.outputs, inst.inputs + inst.outputs):
        moves[old.tensor.uid] = (old.tensor, new.tensor, tuple([
            n - o for (n, _), (o, _) in zip(new.bounds, old.bounds)]))
    return tuple(moves.values())


def _chain_renames(first: Instruction, inst: Instruction,
                   drawn: range) -> Tuple[Tuple[int, int, int], ...]:
    """The chain ids :func:`_reemit` renames, as ``(lo, hi, delta)``: an id
    in ``[lo, hi)`` becomes ``id + delta``.  ``first``'s drawn ids move to
    the ids the copy draws next, and ``first``'s own id becomes
    ``inst``'s.  Called before the copy draws its ids."""
    renames = []
    if drawn:
        renames.append((drawn.start, drawn.stop,
                        _chain_counter.value - drawn.start))
    if "acc_chain" in first.attrs:
        chain = first.attrs["acc_chain"]
        renames.append((chain, chain + 1, inst.attrs["acc_chain"] - chain))
    return tuple(renames)


def _translate(steps: Sequence[Instruction],
               moves: Dict[int, Tuple[Tensor, Optional[Tuple[int, ...]]]],
               chains: Sequence[Tuple[int, int, int]],
               region: Callable[[Tensor, Tuple], Region] = Region.unchecked,
               ) -> List[Instruction]:
    """``steps`` with every region moved and every chain id renamed.

    A region of a tensor in ``moves`` (uid -> the tensor it moves to and
    the shift, or None for none) moves there; any other tensor gets a
    fresh same-shape partial twin, added to ``moves``.  Moved regions are
    built with ``region``; a twin's regions keep their validated bounds.
    A chain id in ``[lo, hi)`` of an interval of ``chains`` becomes ``id +
    delta`` (:func:`_chain_renames`); any other raises
    :class:`ValueError`.  Each copy shares its step's signature object.
    """

    def rename(chain: int) -> int:
        for lo, hi, delta in chains:
            if lo <= chain < hi:
                return chain + delta
        raise ValueError(f"unknown chain id {chain}")

    moved: Dict[int, Region] = {}  # id(source region) -> its twin

    def move(r: Region) -> Region:
        twin = moved.get(id(r))
        if twin is not None:
            return twin
        t = r.tensor
        target = moves.get(t.uid)
        if target is None:
            twin_tensor = make_partial(t.shape, t.dtype,
                                       t.name[1:].rstrip("0123456789"))
            twin = Region.unchecked(twin_tensor, r.bounds)
            moves[t.uid] = (twin_tensor, None)
        else:
            tensor, shift = target
            if shift is not None:
                twin = region(tensor, tuple([
                    (lo + s, hi + s) for (lo, hi), s in zip(r.bounds, shift)]))
            elif tensor is t:
                twin = r
            elif tensor.shape == t.shape:
                twin = Region.unchecked(tensor, r.bounds)
            else:
                twin = region(tensor, r.bounds)
        moved[id(r)] = twin
        return twin

    out: List[Instruction] = []
    for step in steps:
        attrs = step.attrs
        if "acc_chain" in attrs:
            attrs = dict(attrs)
            attrs["acc_chain"] = rename(attrs["acc_chain"])
        twin = Instruction(step.opcode, tuple(map(move, step.inputs)),
                           tuple(map(move, step.outputs)), attrs, step.loc)
        object.__setattr__(twin, "_sig", step.signature())
        out.append(twin)
    return out


# ---------------------------------------------------------------------------
# Shared helpers for rule implementations
# ---------------------------------------------------------------------------


def chain_reduce(
    partials: List[Region], out: Region, opcode: Opcode = Opcode.ADD1D
) -> List[Instruction]:
    """Combine ``partials`` pairwise into ``out`` with ``opcode``.

    Produces ``len(partials) - 1`` instructions; intermediates are fresh
    partial tensors, the final instruction writes ``out``.
    """
    if not partials:
        raise ValueError("no partials to reduce")
    if len(partials) == 1:
        # Plain copy via identity activation keeps the instruction stream
        # uniform (one instruction always defines `out`).
        return [Instruction(Opcode.ACT1D, (partials[0],), (out,), {"func": "identity"})]
    acc = partials[0]
    insts: List[Instruction] = []
    for i, nxt in enumerate(partials[1:]):
        last = i == len(partials) - 2
        if last:
            dst = out
        else:
            t = make_partial(acc.shape, acc.dtype, "red")
            dst = t.region()
        insts.append(Instruction(opcode, (acc, nxt), (dst,)))
        acc = dst
    return insts


def input_redundancy(parts: List[Instruction], original: Instruction) -> int:
    """Extra input bytes across parts relative to the original operands."""
    loaded = sum(sum(r.nbytes for r in p.inputs) for p in parts)
    exact = sum(r.nbytes for r in original.inputs)
    return max(0, loaded - exact)
