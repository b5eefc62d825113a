"""Concrete tensor storage for functional execution.

The functional executor models every node's memory as views into one global
store: a mapping from tensor uid to a numpy array.  (Physically the data
would be copied down the hierarchy; numerically, views are equivalent, and
the *timing* simulator is the component that accounts for the copies.)
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from .tensor import Region, Tensor


class TensorStore:
    """Maps logical tensors to backing numpy arrays.

    Every array the store holds is C-contiguous float64, so a replay
    binding (:class:`repro.plan.batch.ReplayBinding`) can address it by
    offset and stride.  The store keeps the binding of the last schedule
    replayed on it (:meth:`bound`) until one of its arrays changes.

    ``zero_copy_reads`` / ``copied_reads`` are plain-int tallies of the
    :meth:`read` fast and slow paths (mirrored into the telemetry registry
    as ``store.zero_copy_reads`` / ``store.copied_reads`` by the executor;
    kept as bare attributes because ``read`` is the hottest line of
    functional execution).  ``static_zero_copy`` counts operand reads whose
    runtime aliasing-guard scan was skipped entirely because the plan
    analyzer proved the step alias-free (``PlanStep.safe_zero_copy``);
    the executor bumps it, the store just hosts the tally next to its
    siblings.
    """

    def __init__(self):
        self._arrays: Dict[int, np.ndarray] = {}
        self._tensors: Dict[int, Tensor] = {}
        #: uids whose array :meth:`ensure` zero-filled, and uids whose array
        #: is the caller's own (:meth:`share`); any other array is a copy
        #: the caller bound with :meth:`bind`.
        self._scratch: Set[int] = set()
        self._shared: Set[int] = set()
        self.zero_copy_reads: int = 0
        self.copied_reads: int = 0
        self.static_zero_copy: int = 0
        #: the replay binding of the last schedule :meth:`bound` bound, and
        #: the size of its arena (the executor mirrors it as the
        #: ``store.arena_bytes`` gauge).
        self.binding = None
        self.arena_bytes: int = 0

    def bind(self, tensor: Tensor, array: np.ndarray) -> None:
        """Copy ``array`` into the store as the tensor's contents.

        Binding a tensor the caller bound before copies into its buffer in
        place, which keeps the store's replay binding valid; any other bind
        drops the binding.
        """
        arr = np.asarray(array, dtype=np.float64)
        if arr.shape != tensor.shape:
            raise ValueError(f"shape mismatch: tensor {tensor.shape}, array {arr.shape}")
        uid = tensor.uid
        current = self._arrays.get(uid)
        if (current is not None and uid not in self._scratch
                and uid not in self._shared):
            current[...] = arr
            return
        self._attach(tensor, arr.copy())

    def share(self, tensor: Tensor, array: np.ndarray) -> None:
        """Attach ``array`` itself as the tensor's contents, copied only if
        it is not C-contiguous float64.  Nothing the store runs may write
        the tensor: its writes would land in the caller's array."""
        arr = np.ascontiguousarray(array, dtype=np.float64)
        if arr.shape != tensor.shape:
            raise ValueError(f"shape mismatch: tensor {tensor.shape}, array {arr.shape}")
        self._attach(tensor, arr)
        self._shared.add(tensor.uid)

    def _attach(self, tensor: Tensor, arr: np.ndarray) -> None:
        uid = tensor.uid
        self._arrays[uid] = arr
        self._tensors[uid] = tensor
        self._scratch.discard(uid)
        self._shared.discard(uid)
        self.binding = None

    def caller_bound(self, tensor: Tensor) -> bool:
        """Did :meth:`bind` or :meth:`share` give the tensor its contents?"""
        return tensor.uid in self._arrays and tensor.uid not in self._scratch

    def ensure(self, tensor: Tensor) -> np.ndarray:
        """Materialize (zero-filled) storage for ``tensor`` if absent."""
        if tensor.uid not in self._arrays:
            self._arrays[tensor.uid] = np.zeros(tensor.shape, dtype=np.float64)
            self._tensors[tensor.uid] = tensor
            self._scratch.add(tensor.uid)
        return self._arrays[tensor.uid]

    def has(self, tensor: Tensor) -> bool:
        return tensor.uid in self._arrays

    def bound(self, schedule):
        """The store's binding of ``schedule``
        (:class:`repro.plan.batch.ReplayBinding`), bound on first use."""
        binding = self.binding
        if binding is None or binding.schedule is not schedule:
            binding = schedule.bind(self)
            self.binding = binding
            self.arena_bytes = binding.arena.nbytes
        return binding

    def reset_tallies(self) -> None:
        """Zero the read tallies, so that they count from here on."""
        self.zero_copy_reads = self.copied_reads = self.static_zero_copy = 0

    def read(self, region: Region, copy: bool = True) -> np.ndarray:
        """The region's contents.

        By default a private copy (callers may mutate it freely).  With
        ``copy=False`` -- the zero-copy fast path on the hottest line of
        functional execution -- a **read-only view** of the backing array
        is returned instead: no bytes move, and an in-place-mutating caller
        trips numpy's writeable guard rather than corrupting the store.
        Callers must only take the view when the region cannot alias a
        pending write (see ``FractalExecutor._read_operands``).
        """
        base = self.ensure(region.tensor)
        view = base[tuple(slice(lo, hi) for lo, hi in region.bounds)]
        if copy:
            self.copied_reads += 1
            return view.copy()
        view.flags.writeable = False  # fresh view object; base is untouched
        self.zero_copy_reads += 1
        return view

    def _coerce(self, region: Region, value, verb: str) -> np.ndarray:
        """Validate/shape ``value`` for storage into ``region``.

        1-D opcode outputs (sort/merge/count/hsum) are flat; an exact-size
        reshape is allowed so rank-1 results land in rank-N regions.  Shared
        by :meth:`write` and :meth:`write_accumulate` (the two copies had
        drifted apart in their error prefixes only).
        """
        value = np.asarray(value, dtype=np.float64)
        if value.shape != region.shape:
            if value.size == region.nelems:
                value = value.reshape(region.shape)
            else:
                raise ValueError(
                    f"{verb} shape mismatch: region {region.shape}, "
                    f"value {value.shape}"
                )
        return value

    def write(self, region: Region, value: np.ndarray) -> None:
        base = self.ensure(region.tensor)
        slices = tuple(slice(lo, hi) for lo, hi in region.bounds)
        base[slices] = self._coerce(region, value, "write")

    def write_accumulate(self, region: Region, value: np.ndarray) -> None:
        """Add ``value`` into the region (MAC-array style accumulation)."""
        base = self.ensure(region.tensor)
        slices = tuple(slice(lo, hi) for lo, hi in region.bounds)
        base[slices] += self._coerce(region, value, "accumulate")

    def tensor(self, uid: int) -> Optional[Tensor]:
        return self._tensors.get(uid)

    def array(self, tensor: Tensor) -> np.ndarray:
        """Direct reference to the backing array (read-only use)."""
        return self.ensure(tensor)
