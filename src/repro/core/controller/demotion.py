"""Demotion Decoder (DD) -- the key controller component.

For each sub-level instruction, DD:

1. checks operand dependencies against in-flight instructions and stalls on
   read-after-write hazards (unless the TTT can forward the local copy);
2. checks storage requirements, allocates local memory space, and generates
   DMA instructions for loads and write-backs;
3. consults the Tensor Transposition Table and rebinds operands that are
   already locally resident, eliding their DMA loads;
4. binds the new local addresses to the operands of the sub-level
   instruction handed to PD and RC.

Operands fall into two classes:

* *external* -- regions of tensors in the parent's memory: allocated in the
  current FISA cycle's recycled segment and DMA-transferred;
* *local* -- partial tensors created by this node's own sequential
  decomposition: they live across multiple FISA cycles, so they are placed
  in the static segment (allocated once, keyed by the parity of the owning
  FISA-level instruction) and never cross the parent link.

When an allocation does not fit (oversized unsplittable steps, or partial
sets larger than the static segment) DD falls back to *streaming*: the
operand is processed directly against parent memory, charged as DMA traffic
with no local residency (so no TTT record).

A caller that already knows how a step decodes need not decode it:
:meth:`DemotionDecoder.skip` passes the step, and the next
:meth:`DemotionDecoder.decode` first writes the skipped step's TTT records.
:meth:`DemotionDecoder.static_view` says what a decode would read of the
state that outlives a step, which the caller must compare first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..isa import Instruction
from ..memory.allocator import AllocationError, Block, NodeMemoryManager
from ..memory.ttt import TensorTranspositionTable
from ..tensor import Region


class DMAKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class DMARequest:
    """One DMA transfer between parent memory and local storage."""

    region_key: Tuple
    nbytes: int
    kind: DMAKind
    local_offset: int  # -1 for streamed transfers with no local residency


@dataclass
class DecodedInstruction:
    """DD output for one FISA cycle: the instruction with bound operands
    plus its DMA plan and hazard information."""

    index: int
    inst: Instruction
    loads: List[DMARequest] = field(default_factory=list)
    stores: List[DMARequest] = field(default_factory=list)
    #: index of the in-flight instruction whose WB must complete before our
    #: LD may start (RAW hazard that the TTT could not forward); None if clear.
    stall_on: Optional[int] = None
    ttt_hits: int = 0
    elided_bytes: int = 0
    forwarded: bool = False
    streamed_bytes: int = 0

    @property
    def load_bytes(self) -> int:
        return sum(r.nbytes for r in self.loads)

    @property
    def store_bytes(self) -> int:
        return sum(r.nbytes for r in self.stores)


class DemotionDecoder:
    """Decodes upper-level instructions into locally-bound sub-instructions.

    ``local_uids`` is the set of tensor uids created by this node's own
    decomposition (SD partials); everything else is external.  ``window``
    tracks the outputs of the last three decoded instructions (the ones
    still in the LD/EX/RD/WB pipeline) for RAW detection.
    """

    PIPELINE_WINDOW = 3

    #: first static-segment owner of an accumulation chain; chains are
    #: numbered from here in first-seen order, above any FISA-instruction
    #: index an SD partial's owner takes.
    CHAIN_OWNER_BASE = 1 << 40

    def __init__(
        self,
        memory: NodeMemoryManager,
        ttt: Optional[TensorTranspositionTable] = None,
        local_uids: Optional[Set[int]] = None,
    ):
        self.memory = memory
        self.ttt = ttt
        self.local_uids: Set[int] = set(local_uids or ())
        self._static_blocks: Dict[int, Block] = {}
        self._chain_owners: Dict[int, int] = {}
        self._window: List[Tuple[int, Sequence[Region]]] = []
        #: the latest step when :meth:`skip` passed it: its cycle, the step
        #: and its TTT records as :meth:`written` gives them
        self._skipped: Optional[Tuple[int, Instruction,
                                      Tuple[Tuple[int, bool, int], ...]]] = None

    def mark_local(self, uid: int) -> None:
        """Register a tensor as node-local (an SD-created partial)."""
        self.local_uids.add(uid)

    def decode(
        self, index: int, inst: Instruction, owner: Optional[int] = None
    ) -> DecodedInstruction:
        """Run one sub-level instruction through the demotion phase.

        ``owner`` is the index of the FISA-level instruction this step was
        sequentially decomposed from (selects the static-segment parity).
        """
        self._resume()
        self.memory.begin_fisa_cycle(index)
        if self.ttt is not None:
            self.ttt.begin_cycle(index)

        decoded = DecodedInstruction(index=index, inst=inst)

        seen: Set[Tuple] = set()
        for region in inst.inputs:
            key = region.key()
            if key in seen:
                continue
            seen.add(key)
            if region.tensor.uid in self.local_uids:
                self._touch_local(region, owner if owner is not None else index)
            else:
                self._load_external(region, decoded)
            if decoded.stall_on is None:
                writer = self._raw_writer(region)
                if writer is not None and not decoded.forwarded:
                    decoded.stall_on = writer

        acc = bool(inst.attrs.get("accumulate", False))
        acc_local = bool(inst.attrs.get("acc_local_out", False))
        chain = inst.attrs.get("acc_chain")
        for region in inst.outputs:
            if region.key() in seen:
                continue
            seen.add(region.key())
            if region.tensor.uid in self.local_uids:
                self._touch_local(region, owner if owner is not None else index)
            else:
                self._handle_output(region, decoded, acc, acc_local, chain,
                                    owner if owner is not None else index)

        self._push_window(index, inst.outputs)
        return decoded

    # -- steps decoded elsewhere ---------------------------------------------------

    def static_view(self, inst: Instruction) -> Optional[Tuple]:
        """What decoding ``inst`` would read of state that outlives a step.

        Per operand: ``"local"`` for an SD partial resident in the static
        segment, and for an output of an accumulation chain ``"acc"`` or
        ``"spilled"`` by where its running sum lives; None otherwise.
        Returns None instead when the decode would change that state --
        allocate, free or spill static space, or number a chain -- so such
        a step is always decoded.
        """
        local = self.local_uids
        blocks = self._static_blocks
        view: List[Optional[str]] = []
        for region in inst.inputs:
            if not local or region.tensor.uid not in local:
                view.append(None)
            elif region.tensor.uid in blocks:
                view.append("local")
            else:
                return None
        attrs = inst.attrs
        acc_local = attrs.get("acc_local_out", False)
        acc = acc_local or attrs.get("accumulate", False)
        for region in inst.outputs:
            if local and region.tensor.uid in local:
                if region.tensor.uid not in blocks:
                    return None
                view.append("local")
            elif acc:
                block = blocks.get(("acc", region.key()))
                if block is None or not acc_local:
                    return None  # opens or closes a chain
                view.append("acc" if block.offset >= 0 else "spilled")
            else:
                view.append(None)
        return tuple(view)

    def written(self, index: int, inst: Instruction) -> Tuple[Tuple[int, bool, int], ...]:
        """The TTT records decoding ``inst`` as step ``index`` wrote, as
        (operand position, inputs first; is_output; offset within the
        cycle's recycled segment).  Call it right after that decode."""
        if self.ttt is None:
            return ()
        keys = [r.key() for r in inst.inputs + inst.outputs]
        base = self.memory.recycled[index % NodeMemoryManager.N_RECYCLED].base
        return tuple((keys.index(key), rec.is_output, rec.local_offset - base)
                     for key, rec in self.ttt.written(index).items())

    def skip(self, index: int, inst: Instruction,
             records: Tuple[Tuple[int, bool, int], ...]) -> None:
        """Pass step ``index`` without decoding it.

        The caller knows the step decodes as an earlier one did: the same
        transfers, hits and stall offset, and ``records`` (as
        :meth:`written` gives them) for the TTT records.  Only what a later
        decode reads is kept: the step joins the RAW window, and its
        records reach the TTT when the next step is decoded.  A step that
        can be skipped touches no static state (:meth:`static_view`), and
        the recycled segments' blocks are dead once their cycle ends.
        """
        self._skipped = (index, inst, records)
        self._push_window(index, inst.outputs)

    def _resume(self) -> None:
        """Write the last skipped step's TTT records, as its decode would."""
        if self._skipped is None:
            return
        cycle, inst, records = self._skipped
        self._skipped = None
        if self.ttt is None:
            return
        self.ttt.begin_cycle(cycle)
        base = self.memory.recycled[cycle % NodeMemoryManager.N_RECYCLED].base
        regions = inst.inputs + inst.outputs
        for pos, is_output, offset in records:
            self.ttt.record(regions[pos], base + offset, is_output=is_output)

    # -- operand classes ------------------------------------------------------

    def _touch_local(self, region: Region, owner: int) -> None:
        """Static-segment residency for an SD partial (allocated once)."""
        uid = region.tensor.uid
        if uid in self._static_blocks:
            return
        try:
            self._static_blocks[uid] = self.memory.alloc_static(
                region.tensor.nbytes, tag=f"sd:{region.tensor.name}", owner=owner
            )
        except AllocationError:
            # Spill: the partial overflows the static segment and lives in
            # parent memory instead; its producers/consumers stream it.
            self._static_blocks[uid] = Block("spilled", -1, region.tensor.nbytes,
                                             f"spill:{region.tensor.name}", owner)
            self.local_uids.discard(uid)

    def _load_external(self, region: Region, decoded: DecodedInstruction) -> None:
        record = self.ttt.lookup(region) if self.ttt is not None else None
        if record is not None:
            decoded.ttt_hits += 1
            decoded.elided_bytes += region.nbytes
            if record.is_output:
                decoded.forwarded = True
            return
        try:
            block = self.memory.alloc(region.nbytes, tag=f"in:{region.tensor.name}")
            offset = block.offset
        except AllocationError:
            offset = -1  # streamed: no residency
            decoded.streamed_bytes += region.nbytes
        decoded.loads.append(DMARequest(region.key(), region.nbytes, DMAKind.LOAD, offset))
        if self.ttt is not None and offset >= 0:
            self.ttt.record(region, offset, is_output=False)

    def _store_external(self, region: Region, decoded: DecodedInstruction) -> None:
        try:
            block = self.memory.alloc(region.nbytes, tag=f"out:{region.tensor.name}")
            offset = block.offset
        except AllocationError:
            offset = -1
            decoded.streamed_bytes += region.nbytes
        decoded.stores.append(DMARequest(region.key(), region.nbytes, DMAKind.STORE, offset))
        if self.ttt is not None and offset >= 0:
            self.ttt.record(region, offset, is_output=True)

    def _handle_output(
        self,
        region: Region,
        decoded: DecodedInstruction,
        acc: bool,
        acc_local: bool,
        chain,
        owner: int,
    ) -> None:
        """Place an external output, honouring accumulation-chain residency.

        A chain's running sum lives in the static segment under its region
        key: the first part establishes residency (loading the prior value
        from the parent if this node itself received an accumulating
        instruction), middle parts touch it for free, and the last part
        issues the single write-back and retires the entry.  The segment's
        owner for a chain is its first-seen ordinal at this decoder, not
        its process-wide ``acc_chain`` id, so a simulation depends only on
        the node's own program.
        """
        if not (acc or acc_local):
            self._store_external(region, decoded)
            return
        key = ("acc", region.key())
        block = self._static_blocks.get(key)
        if block is None:
            static_owner = owner
            if chain is not None:
                static_owner = self._chain_owners.setdefault(
                    chain, self.CHAIN_OWNER_BASE + len(self._chain_owners))
            try:
                block = self.memory.alloc_static(
                    region.nbytes, tag=f"acc:{region.tensor.name}", owner=static_owner
                )
            except AllocationError:
                block = Block("spilled", -1, region.nbytes,
                              f"spill:{region.tensor.name}", static_owner)
            self._static_blocks[key] = block
            if acc:
                # This node inherited a partial sum: fetch the prior value.
                decoded.loads.append(
                    DMARequest(region.key(), region.nbytes, DMAKind.LOAD, block.offset)
                )
        elif block.offset < 0:
            # Spilled chain: every touch streams through the parent.
            decoded.loads.append(
                DMARequest(region.key(), region.nbytes, DMAKind.LOAD, -1))
            decoded.streamed_bytes += region.nbytes
        if not acc_local:
            decoded.stores.append(
                DMARequest(region.key(), region.nbytes, DMAKind.STORE, block.offset)
            )
            self._static_blocks.pop(key, None)  # chain complete
            if self.ttt is not None and block.offset >= 0:
                self.ttt.record(region, block.offset, is_output=True)

    # -- hazards -------------------------------------------------------------

    def _raw_writer(self, region: Region) -> Optional[int]:
        """Index of the most recent in-flight instruction writing ``region``."""
        uid = region.tensor.uid
        for idx, outputs in reversed(self._window):
            for out in outputs:
                if out.tensor.uid == uid and out.overlaps(region):
                    return idx
        return None

    def _push_window(self, index: int, outputs: Sequence[Region]) -> None:
        self._window.append((index, outputs))
        if len(self._window) > self.PIPELINE_WINDOW:
            self._window.pop(0)
