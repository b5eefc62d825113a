"""Logical tensors and region algebra.

Cambricon-F instructions never address raw bytes: every operand is a region
of a tensor living in the *parent* node's memory ("all operands are
external", Section 4 of the paper).  Decomposition therefore manipulates
*regions* -- rectangular sub-boxes of logical tensors.  This module provides
the small algebra the rest of the system builds on:

* :class:`DType` -- element types with byte widths.
* :class:`Tensor` -- a named logical tensor (shape + dtype + address space).
* :class:`Region` -- a rectangular view into a tensor, with volume/byte
  accounting, overlap tests and hashable signatures (used as TTT keys and
  broadcast-dedup keys).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple


class DType:
    """An element type, defined by a name and a byte width."""

    _registry = {}

    def __init__(self, name: str, itemsize: int):
        self.name = name
        self.itemsize = itemsize
        DType._registry[name] = self

    def __repr__(self) -> str:
        return f"dtype({self.name})"

    def __eq__(self, other) -> bool:
        return isinstance(other, DType) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("DType", self.name))

    @classmethod
    def from_name(cls, name: str) -> "DType":
        return cls._registry[name]


#: 16-bit fixed/float data, the native width of the Cambricon-F MAC array.
FP16 = DType("fp16", 2)
#: 32-bit accumulation / reduction type.
FP32 = DType("fp32", 4)
#: 32-bit integer, used by COUNT1D outputs and index tensors.
INT32 = DType("int32", 4)


_tensor_counter = itertools.count()


@dataclass(frozen=True)
class Tensor:
    """A named logical tensor.

    ``space`` identifies the address space the tensor lives in.  The root
    program allocates tensors in space ``"global"``; the demotion decoder
    rebinds operands into per-node local spaces as instructions descend the
    fractal hierarchy.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: DType = FP16
    space: str = "global"
    uid: int = field(default_factory=lambda: next(_tensor_counter))

    def __post_init__(self):
        if any(d <= 0 for d in self.shape):
            raise ValueError(f"tensor {self.name!r} has non-positive dim: {self.shape}")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nelems(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def nbytes(self) -> int:
        return self.nelems * self.dtype.itemsize

    def region(self) -> "Region":
        """The full-tensor region."""
        return Region(self, tuple((0, d) for d in self.shape))

    def __getitem__(self, slices) -> "Region":
        return self.region()[slices]


def _normalize_bounds(
    bounds: Sequence[Tuple[int, int]], shape: Tuple[int, ...]
) -> Tuple[Tuple[int, int], ...]:
    if len(bounds) != len(shape):
        raise ValueError(f"rank mismatch: bounds {bounds} vs shape {shape}")
    out = []
    for (lo, hi), dim in zip(bounds, shape):
        if not (0 <= lo < hi <= dim):
            raise ValueError(f"bounds ({lo}, {hi}) invalid for dim {dim}")
        out.append((lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class Region:
    """A rectangular view ``tensor[lo0:hi0, lo1:hi1, ...]``.

    Regions are immutable; slicing produces new regions whose bounds are
    expressed in the *original* tensor's coordinates, so two regions of the
    same tensor can always be compared for overlap.
    """

    tensor: Tensor
    bounds: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "bounds", _normalize_bounds(self.bounds, self.tensor.shape)
        )

    @classmethod
    def unchecked(cls, tensor: Tensor,
                  bounds: Tuple[Tuple[int, int], ...]) -> "Region":
        """A region built without validating ``bounds``.

        Only for bounds valid by construction: a validated region shifted
        inside a validated operand on ``tensor``, a validated region's
        bounds on a tensor of the same shape, or a validated region
        narrowed within its own bounds (:meth:`slice_dim`,
        :meth:`split_dim_halo`).  Anything read from outside the program
        goes through the checking constructor.
        """
        region = object.__new__(cls)
        # Set as the dataclass constructor does: writing ``__dict__``
        # directly would give each region its own dict object.
        object.__setattr__(region, "tensor", tensor)
        object.__setattr__(region, "bounds", bounds)
        return region

    # -- geometry ---------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.bounds)

    @property
    def ndim(self) -> int:
        return len(self.bounds)

    @property
    def nelems(self) -> int:
        n = 1
        for lo, hi in self.bounds:
            n *= hi - lo
        return n

    @property
    def nbytes(self) -> int:
        return self.nelems * self.tensor.dtype.itemsize

    @property
    def dtype(self) -> DType:
        return self.tensor.dtype

    def is_full(self) -> bool:
        return all(lo == 0 and hi == d for (lo, hi), d in zip(self.bounds, self.tensor.shape))

    # -- slicing ----------------------------------------------------------

    def slice_dim(self, dim: int, start: int, stop: int) -> "Region":
        """Sub-region along one dimension, in *region-local* coordinates.

        The check below keeps the slice inside this region's bounds, so
        the result needs no second check against the tensor.
        """
        lo, hi = self.bounds[dim]
        new_lo, new_hi = lo + start, lo + stop
        if not (lo <= new_lo < new_hi <= hi):
            raise ValueError(
                f"slice [{start}:{stop}) out of range for dim {dim} of extent {hi - lo}"
            )
        bounds = list(self.bounds)
        bounds[dim] = (new_lo, new_hi)
        return Region.unchecked(self.tensor, tuple(bounds))

    def __getitem__(self, slices) -> "Region":
        if not isinstance(slices, tuple):
            slices = (slices,)
        if len(slices) > self.ndim:
            raise ValueError("too many indices")
        region = self
        for dim, sl in enumerate(slices):
            if sl is Ellipsis:
                raise ValueError("Ellipsis not supported; give explicit slices")
            if isinstance(sl, int):
                region = region.slice_dim(dim, sl, sl + 1)
            elif isinstance(sl, slice):
                if sl.step not in (None, 1):
                    raise ValueError("strided regions are not supported")
                extent = region.shape[dim]
                start = 0 if sl.start is None else sl.start
                stop = extent if sl.stop is None else sl.stop
                region = region.slice_dim(dim, start, stop)
            else:
                raise TypeError(f"bad index {sl!r}")
        return region

    def split_dim(self, dim: int, parts: int) -> Tuple["Region", ...]:
        """Split a dimension into ``parts`` near-equal contiguous chunks.

        Chunks differ by at most one element; empty chunks are dropped (when
        ``parts`` exceeds the extent, fewer regions are returned).
        """
        extent = self.shape[dim]
        parts = max(1, min(parts, extent))
        base, rem = divmod(extent, parts)
        out, offset = [], 0
        for i in range(parts):
            size = base + (1 if i < rem else 0)
            if size == 0:
                continue
            out.append(self.slice_dim(dim, offset, offset + size))
            offset += size
        return tuple(out)

    def split_dim_halo(
        self, dim: int, parts: int, halo_lo: int, halo_hi: int
    ) -> Tuple["Region", ...]:
        """Split with a halo (overlap) on each side -- input-dependent splits.

        Each chunk is expanded by up to ``halo_lo`` elements on the low side
        and ``halo_hi`` on the high side, clipped to the region.  Used for
        spatial convolution/pooling splits (Table 2 "Overlapped" redundancy).
        """
        core = self.split_dim(dim, parts)
        lo0, hi0 = self.bounds[dim]
        out = []
        for chunk in core:
            lo, hi = chunk.bounds[dim]
            lo = max(lo0, lo - halo_lo)
            hi = min(hi0, hi + halo_hi)
            if not lo < hi:
                raise ValueError(f"halo ({halo_lo}, {halo_hi}) empties a chunk of dim {dim}")
            bounds = list(chunk.bounds)
            bounds[dim] = (lo, hi)
            out.append(Region.unchecked(chunk.tensor, tuple(bounds)))
        return tuple(out)

    # -- relations --------------------------------------------------------

    def same_tensor(self, other: "Region") -> bool:
        return self.tensor.uid == other.tensor.uid

    def overlaps(self, other: "Region") -> bool:
        """True when the two regions share at least one element."""
        if not self.same_tensor(other):
            return False
        return all(
            a_lo < b_hi and b_lo < a_hi
            for (a_lo, a_hi), (b_lo, b_hi) in zip(self.bounds, other.bounds)
        )

    def contains(self, other: "Region") -> bool:
        if not self.same_tensor(other):
            return False
        return all(
            a_lo <= b_lo and b_hi <= a_hi
            for (a_lo, a_hi), (b_lo, b_hi) in zip(self.bounds, other.bounds)
        )

    def intersection(self, other: "Region") -> Optional["Region"]:
        if not self.overlaps(other):
            return None
        bounds = tuple(
            (max(a_lo, b_lo), min(a_hi, b_hi))
            for (a_lo, a_hi), (b_lo, b_hi) in zip(self.bounds, other.bounds)
        )
        return Region(self.tensor, bounds)

    # -- identity ---------------------------------------------------------

    def key(self) -> Tuple:
        """Hashable identity usable as a TTT / broadcast-dedup key."""
        return (self.tensor.uid, self.bounds)

    def local_slices(self, parent: "Region") -> Tuple[slice, ...]:
        """numpy-style slices of this region inside ``parent``'s box."""
        if not parent.contains(self):
            raise ValueError("region is not contained in parent")
        return tuple(
            slice(lo - p_lo, hi - p_lo)
            for (lo, hi), (p_lo, _) in zip(self.bounds, parent.bounds)
        )

    def __repr__(self) -> str:
        dims = ",".join(f"{lo}:{hi}" for lo, hi in self.bounds)
        return f"{self.tensor.name}[{dims}]"


def total_bytes(regions: Iterable[Region]) -> int:
    """Sum of region sizes (duplicates counted once by key)."""
    seen, total = set(), 0
    for r in regions:
        k = r.key()
        if k in seen:
            continue
        seen.add(k)
        total += r.nbytes
    return total
