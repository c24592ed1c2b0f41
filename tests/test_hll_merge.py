"""Merge semantics (FIXTURES.md F3): k-way split == single sketch at register
level, commutativity/associativity, direct-count drop rules, mixed
representations, incompatible-b rejection.

Reference: CardinalityEstimator.cs:615-730 and the merge test families in
CardinalityEstimatorTests.cs:175-189,384-453."""

import numpy as np
import pytest

from cardinalityestimation_ray.sketches import hashing
from cardinalityestimation_ray.sketches.constants import (
    DIRECT_COUNTER_MAX_ELEMENTS,
    sparse_max_elements,
    std_error,
)
from cardinalityestimation_ray.sketches.hll import HyperLogLog, get_sigma


def _stream(n, seed=42):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**62, size=n, dtype=np.int64)


@pytest.mark.parametrize("k", [2, 8, 60])
def test_kway_split_register_identical(k):
    vals = _stream(60_000)
    single = HyperLogLog(b=14)
    single.add_values(vals)
    rng = np.random.default_rng(k)
    assign = rng.integers(0, k, size=len(vals))
    parts = []
    for i in range(k):
        p = HyperLogLog(b=14)
        p.add_values(vals[assign == i])
        parts.append(p)
    merged = HyperLogLog(b=14)
    for p in parts:
        merged.merge(p)
    assert np.array_equal(merged.registers(), single.registers())
    assert merged.count_additions == single.count_additions
    assert merged.estimate() == single.estimate()
    n_unique = len(np.unique(vals))
    assert abs(merged.estimate() / n_unique - 1) <= 10 * std_error(14)


def _scalar_registers(hashes, b):
    """Per-hash reference register update (one max per hash)."""
    ref = np.zeros(1 << b, dtype=np.uint8)
    for h in hashes.tolist():
        i = h >> (64 - b)
        ref[i] = max(ref[i], get_sigma(h, 64 - b))
    return ref


def _hashes_at(idx, b, rng):
    """One hash per entry of the register indices ``idx``, random ranks."""
    idx = np.asarray(idx).astype(np.uint64)
    low = rng.integers(0, 2**62, size=len(idx), dtype=np.int64)
    low = low.astype(np.uint64) >> rng.integers(0, 62, size=len(idx)).astype(np.uint64)
    return (idx << np.uint64(64 - b)) | (low >> np.uint64(b))


def _batch_hashes(b, n, seed):
    """(values, hashes) of one batch; ``n="dup"`` repeats each of
    (sparse cap or m) // 2 register indices three times with fresh ranks."""
    m = 1 << b
    rng = np.random.default_rng(seed)
    if n == "dup":
        idx = rng.choice(m, size=(sparse_max_elements(m) or m) // 2, replace=False)
        return None, _hashes_at(np.repeat(idx, 3), b, rng)
    count = {"m-1": m - 1, "m": m, "4m": 4 * m}[n]
    values = rng.integers(0, 2**62, size=count, dtype=np.int64)
    return values, hashing.hash_fixed_batch(values)


@pytest.mark.parametrize("start", ["sparse", "dense"])
@pytest.mark.parametrize("n", ["m-1", "m", "4m", "dup"])
@pytest.mark.parametrize("b", [4, 6, 10, 12, 16])
def test_register_update_matches_scalar_reference(b, n, start):
    """Batches of about m (index, rank) pairs through every add path:
    add_values' chunks, one direct add_hashes call, and the registers of
    a direct-mode state, from sparse and from dense starts. A dense start
    adds ``pre`` hashes that occupy more registers than the sparse cap and
    outnumber the direct cap, so its dense bank exists before the batch."""
    values, hashes = _batch_hashes(b, n, seed=b)
    rng = np.random.default_rng(100 + b)
    pre = hashing.hash_fixed_batch(rng.integers(0, 2**62, size=5, dtype=np.int64))
    if start == "dense":
        occupied = rng.choice(1 << b, size=sparse_max_elements(1 << b) + 1,
                              replace=False)
        occupied = np.r_[occupied, rng.integers(
            0, 1 << b, size=DIRECT_COUNTER_MAX_ELEMENTS)]
        pre = np.r_[pre, _hashes_at(occupied, b, rng)]
    ref_batch = _scalar_registers(hashes, b)
    ref = np.maximum(ref_batch, _scalar_registers(pre, b))

    def started():
        hll = HyperLogLog(b=b)
        hll.add_hashes(pre)
        if start == "dense":
            assert hll.direct is None and not hll.is_sparse
        return hll

    hll = started()
    hll.add_hashes(hashes)
    assert np.array_equal(hll.registers(), ref)
    assert hll.count_additions == len(pre) + len(hashes)
    assert hll.is_sparse == (start == "sparse"
                             and np.count_nonzero(ref) <= hll.sparse_max)
    back = HyperLogLog.from_bytes(hll.to_bytes())
    assert np.array_equal(back.registers(), ref)

    if values is not None:
        hll = started()
        hll.add_values(values)
        assert np.array_equal(hll.registers(), ref)
        assert hll.count_additions == len(pre) + len(values)
        assert hll.is_sparse == (start == "sparse"
                                 and np.count_nonzero(ref) <= hll.sparse_max)

    if len(hashes) <= DIRECT_COUNTER_MAX_ELEMENTS:
        rebuilt = HyperLogLog.from_state(
            b=b, direct={int(h) for h in hashes}, is_sparse=start == "sparse",
            sparse={} if start == "sparse" else None,
            dense=None if start == "sparse" else np.zeros(1 << b, np.uint8),
            count_additions=len(hashes))
        assert np.array_equal(rebuilt.registers(), ref_batch)
        back = HyperLogLog.from_bytes(rebuilt.to_bytes())
        assert np.array_equal(back.registers(), ref_batch)


def test_merge_commutative_and_associative():
    a0, b0, c0 = (HyperLogLog(b=12) for _ in range(3))
    a0.add_values(_stream(500, seed=1))
    b0.add_values(_stream(800, seed=2))
    c0.add_values(_stream(50, seed=3))
    ab = a0.copy().merge(b0)
    ba = b0.copy().merge(a0)
    assert ab == ba
    abc1 = ab.copy().merge(c0)
    bc = b0.copy().merge(c0)
    abc2 = a0.copy().merge(bc)
    assert abc1 == abc2


def test_merge_direct_union_stays_exact():
    a = HyperLogLog(b=14)
    a.add_values(np.arange(40, dtype=np.int64))
    b = HyperLogLog(b=14)
    b.add_values(np.arange(20, 80, dtype=np.int64))
    merged = a.copy().merge(b)
    assert merged.direct is not None
    assert merged.estimate() == 80  # exact union


def test_merge_direct_overflow_drops_direct():
    # CardinalityEstimator.cs:668-684: union >100 drops the direct set
    a = HyperLogLog(b=14)
    a.add_values(np.arange(70, dtype=np.int64))
    b = HyperLogLog(b=14)
    b.add_values(np.arange(70, 140, dtype=np.int64))
    merged = a.copy().merge(b)
    assert merged.direct is None
    assert abs(merged.estimate() / 140 - 1) <= 10 * std_error(14)


def test_merge_one_side_without_direct_drops_direct():
    a = HyperLogLog(b=14)
    a.add_values(np.arange(10, dtype=np.int64))
    b = HyperLogLog(b=14, use_direct_counting=False)
    b.add_values(np.arange(5, 15, dtype=np.int64))
    merged = a.copy().merge(b)
    assert merged.direct is None
    other_way = b.copy().merge(a)
    assert other_way.direct is None
    assert np.array_equal(merged.registers(), other_way.registers())


def test_merge_mixed_representations():
    sparse = HyperLogLog(b=14, use_direct_counting=False)
    sparse.add_values(_stream(200, seed=5))
    assert sparse.is_sparse
    dense = HyperLogLog(b=14, use_direct_counting=False)
    dense.add_values(_stream(50_000, seed=6))
    assert not dense.is_sparse

    # sparse x sparse stays sparse below the cap
    s2 = HyperLogLog(b=14, use_direct_counting=False)
    s2.add_values(_stream(150, seed=7))
    ss = sparse.copy().merge(s2)
    assert ss.is_sparse

    # sparse x dense -> dense; order must not matter
    sd = sparse.copy().merge(dense)
    ds = dense.copy().merge(sparse)
    assert not sd.is_sparse and not ds.is_sparse
    assert np.array_equal(sd.registers(), ds.registers())

    # dense x dense
    dd = dense.copy().merge(sd)
    assert not dd.is_sparse


def test_sparse_merge_promotes_on_overflow():
    a = HyperLogLog(b=8, use_direct_counting=False)  # sparse_max = 256//15-10 = 7
    b = HyperLogLog(b=8, use_direct_counting=False)
    a.add_values(np.arange(4, dtype=np.int64))
    b.add_values(np.arange(100, 108, dtype=np.int64))
    assert not b.is_sparse or b.is_sparse  # representation depends on spread
    merged = a.copy().merge(b)
    single = HyperLogLog(b=8, use_direct_counting=False)
    single.add_values(np.r_[np.arange(4), np.arange(100, 108)].astype(np.int64))
    assert np.array_equal(merged.registers(), single.registers())


def test_merge_incompatible_b_raises():
    a = HyperLogLog(b=12)
    b = HyperLogLog(b=14)
    with pytest.raises(ValueError):
        a.merge(b)


def test_merge_incompatible_hash_raises():
    a = HyperLogLog(b=12, hash_name="fnv1a")
    b = HyperLogLog(b=12, hash_name="murmur3")
    with pytest.raises(ValueError):
        a.merge(b)


@pytest.mark.parametrize("n", [0, 10, 5_000, 200_000])
def test_merge_into_empty_sketch_copies(n):
    """Merging many sketches is a fold into an empty one, as the
    checkpoint merge does: one part gives a sketch equal to it, with the
    same blob, and the inputs are not mutated (copy-ctor parity,
    CardinalityEstimatorTests.cs:270-280)."""
    a = HyperLogLog(b=12)
    a.add_values(np.arange(n, dtype=np.int64))
    b = HyperLogLog(b=12)
    b.add_values(np.arange(5, 20, dtype=np.int64))
    a_before = a.copy()
    one = HyperLogLog(b=12).merge(a)
    assert one == a and one.to_bytes() == a.to_bytes()
    merged = HyperLogLog(b=12).merge(a).merge(b)
    assert merged == a_before.copy().merge(b)
    assert a == a_before


def test_count_additions_sums_on_merge():
    a = HyperLogLog(b=12)
    a.add_values(np.arange(100, dtype=np.int64))
    b = HyperLogLog(b=12)
    b.add_values(np.arange(50, dtype=np.int64))
    merged = a.copy().merge(b)
    assert merged.count_additions == 150


def test_copy_preserves_everything():
    hll = HyperLogLog(b=10)
    hll.add_values(_stream(5000, seed=9))
    cp = hll.copy()
    assert cp == hll
    assert cp.count_additions == hll.count_additions
    cp.add_values(_stream(100, seed=10))
    assert cp != hll  # deep copy: mutation does not leak back


def test_add_values_slicing_changes_no_state():
    """How a stream is sliced into add calls must not change any observable
    state: wire blobs (flags byte included), registers, direct exactness,
    merges."""
    rng = np.random.default_rng(7)
    vals = rng.choice(rng.random(50), size=20_000)  # 50 distinct float64
    whole = HyperLogLog(b=14)
    whole.add_values(vals)
    sliced = HyperLogLog(b=14)
    for part in np.array_split(vals, 4):
        sliced.add_values(part)
    assert whole.to_bytes() == sliced.to_bytes()
    assert whole.to_bytes()[8] == 3  # flags: isSparse | hasDirect
    assert whole == sliced
    assert whole.estimate() == 50

    h = rng.integers(0, 2 ** 63, size=50_000, dtype=np.int64).astype(np.uint64)
    plain = HyperLogLog(b=14)
    plain.add_hashes(h)
    chunked = HyperLogLog(b=14)
    for part in np.array_split(h, 7):
        chunked.add_hashes(part)
    assert plain == chunked
    assert np.array_equal(plain.registers(), chunked.registers())
    assert plain.estimate() == chunked.estimate()

    # direct-count exactness with duplicates, through a round trip
    small = rng.integers(0, 2 ** 63, size=50, dtype=np.int64).astype(np.uint64)
    c = HyperLogLog(b=14)
    c.add_hashes(small)
    c.add_hashes(small)
    assert c.estimate() == len(np.unique(small))
    assert HyperLogLog.from_bytes(c.to_bytes()).estimate() == c.estimate()

    # sparse x dense merges agree with a single-sketch build
    m1 = HyperLogLog(b=14)
    m1.add_hashes(small)
    m1.merge(plain)
    m2 = HyperLogLog(b=14)
    m2.add_hashes(small)
    m2.add_hashes(h)
    assert m1 == m2
