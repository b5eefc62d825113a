"""Region algebra tests: slicing, splitting, overlap, identity."""

import pytest
from hypothesis import given, strategies as st

from repro.core.tensor import FP16, FP32, Region, Tensor, total_bytes


def make(shape=(8, 6), dtype=FP16, name="t"):
    return Tensor(name, shape, dtype)


class TestTensor:
    def test_basic_properties(self):
        t = make((4, 5, 6))
        assert t.ndim == 3
        assert t.nelems == 120
        assert t.nbytes == 240  # fp16

    def test_fp32_bytes(self):
        t = make((10,), dtype=FP32)
        assert t.nbytes == 40

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Tensor("bad", (4, 0))
        with pytest.raises(ValueError):
            Tensor("bad", (-1,))

    def test_uids_unique(self):
        a, b = make(), make()
        assert a.uid != b.uid

    def test_region_covers_whole_tensor(self):
        t = make((3, 4))
        r = t.region()
        assert r.shape == (3, 4)
        assert r.is_full()

    def test_getitem_shortcut(self):
        t = make((8, 6))
        assert t[2:5, :].shape == (3, 6)


class TestRegionSlicing:
    def test_slice_dim_local_coordinates(self):
        r = make((10, 10)).region()[2:8, :]
        inner = r.slice_dim(0, 1, 3)
        assert inner.bounds[0] == (3, 5)  # 2 + [1, 3)

    def test_getitem_int_index(self):
        r = make((4, 4)).region()[1]
        assert r.shape == (1, 4)

    def test_getitem_rejects_step(self):
        with pytest.raises(ValueError):
            make().region()[::2]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            make((4, 4)).region().slice_dim(0, 2, 6)

    def test_split_dim_exact_partition(self):
        r = make((10, 4)).region()
        parts = r.split_dim(0, 3)
        assert [p.shape[0] for p in parts] == [4, 3, 3]
        assert parts[0].bounds[0] == (0, 4)
        assert parts[2].bounds[0] == (7, 10)

    def test_split_dim_more_parts_than_extent(self):
        parts = make((2, 4)).region().split_dim(0, 5)
        assert len(parts) == 2

    def test_split_dim_halo_expands_and_clips(self):
        r = make((10, 4)).region()
        parts = r.split_dim_halo(0, 2, halo_lo=1, halo_hi=1)
        assert parts[0].bounds[0] == (0, 6)  # clipped low, +1 high
        assert parts[1].bounds[0] == (4, 10)

    def test_is_full_false_for_subregion(self):
        assert not make((4, 4)).region()[1:3, :].is_full()


class TestRegionRelations:
    def test_overlap_same_tensor(self):
        t = make((10, 10))
        a, b = t.region()[0:5, :], t.region()[4:9, :]
        assert a.overlaps(b) and b.overlaps(a)

    def test_no_overlap_disjoint(self):
        t = make((10, 10))
        assert not t.region()[0:5, :].overlaps(t.region()[5:10, :])

    def test_no_overlap_different_tensors(self):
        assert not make().region().overlaps(make().region())

    def test_contains(self):
        t = make((10, 10))
        assert t.region().contains(t.region()[2:4, 3:7])
        assert not t.region()[2:4, :].contains(t.region())

    def test_intersection(self):
        t = make((10, 10))
        inter = t.region()[0:6, :].intersection(t.region()[4:10, :])
        assert inter.bounds[0] == (4, 6)

    def test_intersection_empty(self):
        t = make((10, 10))
        assert t.region()[0:5, :].intersection(t.region()[5:10, :]) is None

    def test_key_identity(self):
        t = make((10, 10))
        assert t.region()[1:3, :].key() == t.region()[1:3, :].key()
        assert t.region()[1:3, :].key() != t.region()[1:4, :].key()

    def test_local_slices(self):
        t = make((10, 10))
        parent = t.region()[2:8, 1:9]
        child = t.region()[4:6, 3:5]
        assert parent.contains(child)
        assert child.local_slices(parent) == (slice(2, 4), slice(2, 4))

    def test_local_slices_requires_containment(self):
        t = make((10, 10))
        with pytest.raises(ValueError):
            t.region()[0:2, :].local_slices(t.region()[5:9, :])


class TestTotalBytes:
    def test_deduplicates_by_key(self):
        t = make((8, 8))
        r = t.region()[0:4, :]
        assert total_bytes([r, r, t.region()[4:8, :]]) == t.nbytes


# -- property-based tests -----------------------------------------------------

dims = st.integers(min_value=1, max_value=12)


@given(extent=st.integers(1, 50), parts=st.integers(1, 10))
def test_split_dim_partitions_exactly(extent, parts):
    """A split covers every index exactly once, in order."""
    r = Tensor("p", (extent,)).region()
    chunks = r.split_dim(0, parts)
    covered = []
    for c in chunks:
        lo, hi = c.bounds[0]
        covered.extend(range(lo, hi))
    assert covered == list(range(extent))
    sizes = [c.shape[0] for c in chunks]
    assert max(sizes) - min(sizes) <= 1  # near-equal


@given(
    shape=st.tuples(dims, dims),
    a=st.tuples(st.integers(0, 11), st.integers(0, 11)),
    b=st.tuples(st.integers(0, 11), st.integers(0, 11)),
)
def test_overlap_iff_intersection(shape, a, b):
    """overlaps() agrees with intersection(); both are symmetric."""
    t = Tensor("q", shape)

    def mk(point):
        bounds = tuple((min(p, d - 1), min(p, d - 1) + 1) for p, d in zip(point, shape))
        return Region(t, bounds)

    ra, rb = mk(a), mk(b)
    assert ra.overlaps(rb) == rb.overlaps(ra)
    inter = ra.intersection(rb)
    assert (inter is not None) == ra.overlaps(rb)
    if inter is not None:
        assert ra.contains(inter) and rb.contains(inter)


@given(extent=st.integers(2, 40), parts=st.integers(1, 6),
       halo=st.integers(0, 3))
def test_split_halo_stays_in_bounds(extent, parts, halo):
    r = Tensor("h", (extent,)).region()
    for chunk in r.split_dim_halo(0, parts, halo, halo):
        lo, hi = chunk.bounds[0]
        assert 0 <= lo < hi <= extent
