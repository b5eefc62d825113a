"""Tensor Transposition Table (paper Section 3.6).

The TTT records which parent-memory regions are currently resident in local
storage so the Demotion Decoder can rebind a load to a local address and
skip the DMA.  Two mechanisms ride on it:

* *load elision* -- an adjacent instruction re-reading the same input region
  (e.g. convolution weights across sequential batch chunks) hits the table;
* *pipeline forwarding* -- an instruction whose input is exactly the
  previous instruction's output reads the local copy instead of waiting for
  (and re-fetching after) the write-back.

Consistency is guaranteed without a protocol by a validity period of two
FISA cycles: the table is split into two banks, an instruction entering EX
claims the bank the before-previous instruction used (overwriting its
records), so no record outlives the data it points to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..tensor import Region


@dataclass(frozen=True)
class TTTRecord:
    """One table entry: a parent region resident at a local address."""

    region_key: Tuple
    local_offset: int
    nbytes: int
    cycle: int
    is_output: bool  # True when the resident copy is an instruction result


class TensorTranspositionTable:
    """Two-bank resident-region table with a two-cycle validity period."""

    def __init__(self):
        self._banks: Tuple[Dict[Tuple, TTTRecord], Dict[Tuple, TTTRecord]] = ({}, {})
        self._cycle: Optional[int] = None
        #: lookups that found a record, those that found none, and the
        #: hits on an instruction's result.  A simulation looks up only
        #: the steps it decodes: a step that takes an earlier step's
        #: outcome (:meth:`repro.core.controller.demotion.DemotionDecoder.skip`)
        #: adds nothing.
        self.hits = 0
        self.misses = 0
        self.forwards = 0

    def begin_cycle(self, index: int) -> None:
        """Enter FISA cycle ``index``; reclaims (clears) bank ``index mod 2``.

        Records written two cycles ago lived in this bank and are now
        expired -- exactly the paper's validity mechanism.
        """
        self._cycle = index
        self._banks[index % 2].clear()

    def record(self, region: Region, local_offset: int, is_output: bool = False) -> None:
        """Note that ``region`` is resident locally (written this cycle)."""
        if self._cycle is None:
            raise RuntimeError("begin_cycle must be called first")
        rec = TTTRecord(region.key(), local_offset, region.nbytes, self._cycle, is_output)
        self._banks[self._cycle % 2][region.key()] = rec

    def lookup(self, region: Region) -> Optional[TTTRecord]:
        """Find a still-valid resident copy of ``region`` (exact match).

        Checks the current bank first (records from this cycle), then the
        other bank (records from the previous cycle), and counts the lookup
        in ``hits``/``misses`` and ``forwards``.
        """
        if self._cycle is None:
            return None
        key = region.key()
        for bank_idx in (self._cycle % 2, (self._cycle + 1) % 2):
            rec = self._banks[bank_idx].get(key)
            if rec is not None:
                self.hits += 1
                if rec.is_output:
                    self.forwards += 1
                return rec
        self.misses += 1
        return None

    def written(self, cycle: int) -> Dict[Tuple, TTTRecord]:
        """The records written in ``cycle``, by region key (none unless it
        is the latest cycle begun)."""
        if self._cycle != cycle:
            return {}
        return self._banks[cycle % 2]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def valid_records(self) -> int:
        return len(self._banks[0]) + len(self._banks[1])
