"""Golden-vector and vectorized-vs-scalar equivalence tests for hashing.

Golden vectors from the reference test suite (FIXTURES.md F4):
- FNV-1a:   CardinalityEstimation.Test/Hash/Fnv1ATests.cs:35-41
- Murmur3:  CardinalityEstimation.Test/Hash/Murmur3Tests.cs:35-41
"""

import struct

import numpy as np
import pyarrow as pa
import pytest

from cardinalityestimation_ray.sketches import hashing


def test_fnv1a_golden_vectors():
    assert hashing.fnv1a64(b"") == 14695981039346656037
    assert hashing.fnv1a64(bytes([1, 2, 3, 4, 5])) == 1109817072422714760
    assert hashing.fnv1a64(bytes([255] * 4)) == 11047178588169845073


def test_murmur3_golden_vectors():
    assert hashing.murmur3_128_x64_low64(b"") == 0
    assert hashing.murmur3_128_x64_low64(bytes([1, 2, 3, 4, 5])) == 18344466521425217038
    assert hashing.murmur3_128_x64_low64(bytes([255] * 4)) == 4889297221962843713


#: every registered hash with a scalar rule (``polars`` has none)
_SCALAR_HASHES = sorted(set(hashing.HASH_FUNCTIONS) - {"polars"})


def _assert_batch_matches_scalar(vals, fmt):
    for name in _SCALAR_HASHES:
        vec = hashing.hash_fixed_batch(vals, name)
        for v, h in zip(vals, vec):
            assert hashing.hash_scalar(struct.pack(fmt, v.item()),
                                       name) == int(h), (name, v)


@pytest.mark.parametrize("dtype,fmt", [
    (np.int32, "<i"), (np.uint32, "<I"), (np.int64, "<q"), (np.uint64, "<Q"),
    # big-endian arrays hash their values
    (">i4", "<i"), (">u4", "<I"), (">i8", "<q"), (">u8", "<Q"),
])
def test_fnv1a_vectorized_matches_scalar_ints(dtype, fmt):
    """Every hash's batch kernel equals its scalar rule on each element's
    little-endian byte image, whatever the array's byte order."""
    rng = np.random.default_rng(7)
    info = np.iinfo(dtype)
    vals = rng.integers(info.min, info.max, size=257,
                        dtype=info.dtype.newbyteorder("=")).astype(dtype)
    vals[:4] = [0, 1, info.min, info.max]
    _assert_batch_matches_scalar(vals, fmt)


@pytest.mark.parametrize("dtype,fmt", [(np.float32, "<f"), (np.float64, "<d"),
                                       (">f4", "<f"), (">f8", "<d")])
def test_fnv1a_vectorized_matches_scalar_floats(dtype, fmt):
    rng = np.random.default_rng(8)
    vals = rng.normal(size=64).astype(dtype)
    _assert_batch_matches_scalar(vals, fmt)


def test_fnv1a_arrow_binary_matches_scalar():
    strings = ["", "a", "doc-000000000042", "x" * 300, "héllo wörld", "tail"]
    arr = pa.array(strings, type=pa.string())
    vec = hashing.hash_arrow_binary(arr, "fnv1a")
    for s, h in zip(strings, vec):
        assert hashing.fnv1a64(s.encode("utf-8")) == int(h)
    # sliced arrays (non-zero offset) must hash identically
    sl = arr.slice(2, 3)
    vec_sl = hashing.hash_arrow_binary(sl, "fnv1a")
    assert list(vec_sl) == list(vec[2:5])
    # large_string path
    larr = pa.array(strings, type=pa.large_string())
    assert list(hashing.hash_arrow_binary(larr, "fnv1a")) == list(vec)
    # the bare default is the LIBRARY default hash (round-4 session-9
    # review: a raw-fnv1a default silently mismatched every sketch built
    # with default settings)
    assert hashing.DEFAULT_HASH == "fnv1a_mix"
    dflt = hashing.hash_arrow_binary(arr)
    assert list(dflt) == list(hashing.hash_arrow_binary(arr, "fnv1a_mix"))
    assert list(dflt) != list(vec)


def test_int_identity_rule_matches_bytes():
    """Reference invariant: Add(123) == Add(LE bytes of 123)
    (CardinalityEstimatorTests.cs:750-770)."""
    h_int = hashing.fnv1a64_fixed(np.asarray([123], dtype=np.int32))[0]
    h_bytes = hashing.fnv1a64(struct.pack("<i", 123))
    assert int(h_int) == h_bytes


def test_bit_length_u64():
    vals = np.array([0, 1, 2, 3, 8, (1 << 50) - 1, 1 << 51, (1 << 63), (1 << 64) - 1],
                    dtype=np.uint64)
    expect = [0, 1, 2, 2, 4, 50, 52, 64, 64]
    assert list(hashing.bit_length_u64(vals)) == expect
    small = vals[vals < (1 << 53)]
    assert list(hashing.bit_length_u64_small(small)) == [0, 1, 2, 2, 4, 50, 52]


def test_splitmix64_deterministic_and_dispersed():
    x = np.arange(10_000, dtype=np.uint64)
    h = hashing.splitmix64(x)
    assert len(np.unique(h)) == len(h)
    assert np.array_equal(h, hashing.splitmix64(x))


def test_polars_hash_backend():
    """polars-native string hash: deterministic, well-dispersed, usable as an
    HLL hash (stable within a polars version)."""
    import pyarrow as pa

    from cardinalityestimation_ray.sketches.hll import HyperLogLog

    strings = [f"doc-{i}" for i in range(5000)]
    arr = pa.array(strings)
    h1 = hashing.hash_arrow_binary(arr, "polars")
    h2 = hashing.hash_arrow_binary(arr, "polars")
    assert np.array_equal(h1, h2)
    assert len(np.unique(h1)) == len(strings)

    a = HyperLogLog(b=12, hash_name="polars")
    a.add_arrow(arr.slice(0, 3000))
    b = HyperLogLog(b=12, hash_name="polars")
    b.add_arrow(arr.slice(3000))
    merged = a.merge(b)
    single = HyperLogLog(b=12, hash_name="polars")
    single.add_arrow(arr)
    assert merged == single
    assert abs(merged.estimate() / 5000 - 1) < 10 * single.std_error


class TestNullSemantics:
    """Nulls in Arrow columns are skipped by every sketch ingest path
    (SQL COUNT(DISTINCT) semantics) — ADVICE round-1 fix."""

    def test_hll_add_arrow_skips_nulls(self):
        import pyarrow as pa
        from cardinalityestimation_ray.sketches.hll import HyperLogLog

        vals = pa.array(["a", None, "b", None, "a", ""], type=pa.string())
        h = HyperLogLog(b=14)
        h.add_arrow(vals)
        # distinct non-null: {"a", "b", ""} -> exact via direct mode
        assert h.estimate() == 3
        assert h.count_additions == 4  # nulls not counted as additions

    def test_hll_null_not_same_as_empty_string(self):
        import pyarrow as pa
        from cardinalityestimation_ray.sketches.hll import HyperLogLog

        only_nulls = pa.array([None, None], type=pa.string())
        h = HyperLogLog(b=14)
        h.add_arrow(only_nulls)
        assert h.estimate() == 0

    def test_bloom_and_cms_skip_nulls(self):
        import pyarrow as pa
        from cardinalityestimation_ray.sketches.bloom import BloomFilter
        from cardinalityestimation_ray.sketches.countmin import CountMinSketch

        vals = pa.array([None, "x"], type=pa.string())
        bf = BloomFilter(num_bits=1 << 12, num_hashes=5)
        bf.add_arrow(vals)
        assert bf.contains("x")
        assert not bf.contains("")  # the null did not smuggle in ""

        cms = CountMinSketch(depth=4, width=256)
        cms.add_arrow(vals)
        assert cms.query("x") >= 1
        assert cms.query("") == 0

    def test_hll_numeric_nulls_skipped(self):
        import pyarrow as pa
        from cardinalityestimation_ray.sketches.hll import HyperLogLog

        vals = pa.array([1, None, 2, 2], type=pa.int32())
        h = HyperLogLog(b=14)
        h.add_arrow(vals)
        assert h.estimate() == 2
        assert h.count_additions == 3


def test_murmur3_fixed_vectorized_bit_exact():
    """Vectorized murmur3 fixed-width path == scalar reference-parity
    implementation on every supported dtype's byte image."""
    import struct

    import numpy as np

    from cardinalityestimation_ray.sketches.hashing import (
        hash_fixed_batch,
        murmur3_128_x64_low64,
        murmur3_128_x64_low64_fixed,
    )

    rng = np.random.default_rng(9)
    vals32 = rng.integers(-2**31, 2**31, size=100).astype(np.int32)
    out = murmur3_128_x64_low64_fixed(vals32)
    for i, v in enumerate(vals32):
        assert int(out[i]) == murmur3_128_x64_low64(struct.pack("<i", int(v)))
    vals64 = rng.integers(-2**62, 2**62, size=100).astype(np.int64)
    out = hash_fixed_batch(vals64, "murmur3")
    for i, v in enumerate(vals64):
        assert int(out[i]) == murmur3_128_x64_low64(struct.pack("<q", int(v)))


def test_registry_holds_default_reference_parity_and_polars():
    assert set(hashing.HASH_FUNCTIONS) == {
        "fnv1a_mix", "fnv1a", "murmur3", "xxhash128", "polars"}


@pytest.mark.parametrize("name", sorted(hashing.HASH_FUNCTIONS))
def test_distinct_floats_stay_distinct(name):
    """Every hash, ``polars`` included, reads a float's byte image: a rule
    that cast the value to uint64 collapsed these five floats to 2."""
    from cardinalityestimation_ray.sketches.hll import HyperLogLog

    h = HyperLogLog(b=14, hash_name=name)
    h.add_values(np.array([1.0, 1.5, 1.9, -0.5, 0.2]))
    assert h.estimate() == 5


_SUPPORTED = "supported hashes: fnv1a, fnv1a_mix, murmur3, polars, xxhash128"


@pytest.mark.parametrize("make", ["hll", "hll_from_state", "countmin",
                                  "bloom", "theta"])
def test_constructors_reject_unknown_hash(make):
    from cardinalityestimation_ray.sketches import (
        BloomFilter, CountMinSketch, HyperLogLog, ThetaSketch)

    build = {
        "hll": lambda h: HyperLogLog(hash_name=h),
        "hll_from_state": lambda h: HyperLogLog.from_state(
            b=14, direct=set(), is_sparse=True, sparse={}, dense=None,
            count_additions=0, hash_name=h),
        "countmin": lambda h: CountMinSketch(hash_name=h),
        "bloom": lambda h: BloomFilter(hash_name=h),
        "theta": lambda h: ThetaSketch(hash_name=h),
    }[make]
    with pytest.raises(ValueError, match=_SUPPORTED):
        build("xxhash64")


@pytest.mark.parametrize("kind", ["bloom", "countmin", "theta"])
def test_from_bytes_rejects_blob_naming_unknown_hash(kind):
    """A BLM2/CMS2/THE2 blob embeds its hash name as a length byte plus the
    name; one naming a retired hash fails at decode, not at its first add."""
    from cardinalityestimation_ray.sketches import (
        BloomFilter, CountMinSketch, ThetaSketch)

    cls, sk = {
        "bloom": (BloomFilter, BloomFilter(num_bits=1 << 10, num_hashes=3,
                                           hash_name="murmur3")),
        "countmin": (CountMinSketch, CountMinSketch(depth=2, width=1 << 6,
                                                    hash_name="murmur3")),
        "theta": (ThetaSketch, ThetaSketch(k=64, hash_name="murmur3")),
    }[kind]
    sk.add_values(np.arange(100, dtype=np.int64))
    blob = sk.to_bytes()
    assert cls.from_bytes(blob).hash_name == "murmur3"
    renamed = blob.replace(b"\x07murmur3", b"\x08xxhash64", 1)
    assert renamed != blob
    with pytest.raises(ValueError, match=_SUPPORTED):
        cls.from_bytes(renamed)
