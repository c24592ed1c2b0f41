"""F7 fixtures (FIXTURES.md): count-min / Bloom / t-digest / KLL against
exact answers computed at generation time; merge-equivalence (exact for
count-min and Bloom, bounded for t-digest/KLL); wire round-trips;
adversarial blobs."""

import collections

import numpy as np
import pytest

from cardinalityestimation_ray.sketches.bloom import BloomFilter
from cardinalityestimation_ray.sketches.countmin import CountMinSketch
from cardinalityestimation_ray.sketches.kll import KLLSketch
from cardinalityestimation_ray.sketches.tdigest import TDigest


@pytest.fixture(scope="module")
def zipf_stream():
    rng = np.random.default_rng(0)
    vals = rng.zipf(1.3, size=500_000).astype(np.int64)
    return vals[vals < 100_000]


@pytest.fixture(scope="module")
def normal_stream():
    return np.random.default_rng(1).normal(size=500_000)


# ---------------------------------------------------------------------------
# count-min


def test_countmin_never_underestimates_and_bounded(zipf_stream):
    cms = CountMinSketch.from_error(eps=0.001, delta=0.01)
    cms.add_values(zipf_stream)
    true = collections.Counter(zipf_stream.tolist())
    probe = [v for v, _ in true.most_common(50)]
    est = cms.query_values(np.asarray(probe, dtype=np.int64))
    for v, e in zip(probe, est):
        assert int(e) >= true[v]
        assert int(e) - true[v] <= cms.eps * cms.total * 3

    assert cms.total == len(zipf_stream)


def test_countmin_merge_exact_equivalence(zipf_stream):
    single = CountMinSketch(depth=5, width=1 << 14)
    single.add_values(zipf_stream)
    parts = [CountMinSketch(depth=5, width=1 << 14) for _ in range(4)]
    for i, chunk in enumerate(np.array_split(zipf_stream, 4)):
        parts[i].add_values(chunk)
    merged = parts[0]
    for p in parts[1:]:
        merged.merge(p)
    assert merged == single


def test_countmin_weighted_adds():
    cms = CountMinSketch(depth=4, width=1 << 12)
    cms.add_values(np.asarray([7, 8], dtype=np.int64),
                   weights=np.asarray([10, 3]))
    # element identity is the byte image: query with the same dtype as added
    assert int(cms.query_values(np.asarray([7], dtype=np.int64))[0]) >= 10
    assert cms.total == 13
    # scalar convenience path round-trips through the int32 encoding rule
    cms.add_values(np.asarray([9], dtype=np.int32))
    assert cms.query(9) >= 1


def test_countmin_roundtrip_and_validation(zipf_stream):
    cms = CountMinSketch(depth=3, width=1 << 10)
    cms.add_values(zipf_stream[:10_000])
    rt = CountMinSketch.from_bytes(cms.to_bytes())
    assert rt == cms
    with pytest.raises(ValueError):
        CountMinSketch.from_bytes(b"XXXX" + cms.to_bytes()[4:])
    with pytest.raises(ValueError):
        CountMinSketch.from_bytes(cms.to_bytes()[:-8])
    with pytest.raises(ValueError):
        CountMinSketch(depth=0)
    with pytest.raises(ValueError):
        CountMinSketch(width=1000)  # not a power of two
    a, b = CountMinSketch(depth=3, width=1 << 10), CountMinSketch(depth=4, width=1 << 10)
    with pytest.raises(ValueError):
        a.merge(b)


# ---------------------------------------------------------------------------
# bloom


def test_bloom_no_false_negatives_bounded_fpr():
    rng = np.random.default_rng(2)
    members = rng.integers(0, 2**60, 50_000, dtype=np.int64)
    non = rng.integers(2**60, 2**61, 50_000, dtype=np.int64)
    bf = BloomFilter.from_capacity(50_000, fpp=0.01)
    bf.add_values(members)
    assert bf.contains_values(members).all()
    assert bf.contains_values(non).mean() < 0.03
    assert abs(bf.estimate_cardinality() / 50_000 - 1) < 0.05


def test_bloom_merge_exact_equivalence():
    rng = np.random.default_rng(3)
    members = rng.integers(0, 2**60, 20_000, dtype=np.int64)
    full = BloomFilter.from_capacity(20_000, 0.01)
    full.add_values(members)
    a = BloomFilter.from_capacity(20_000, 0.01)
    b = BloomFilter.from_capacity(20_000, 0.01)
    a.add_values(members[:10_000])
    b.add_values(members[10_000:])
    assert a.merge(b) == full


def test_bloom_roundtrip_and_validation():
    bf = BloomFilter(num_bits=1 << 12, num_hashes=5)
    bf.add_values(np.arange(100, dtype=np.int64))
    rt = BloomFilter.from_bytes(bf.to_bytes())
    assert rt == bf
    assert rt.count_additions == 100
    with pytest.raises(ValueError):
        BloomFilter.from_bytes(b"XXXX" + bf.to_bytes()[4:])
    with pytest.raises(ValueError):
        BloomFilter.from_bytes(bf.to_bytes()[:-1])
    with pytest.raises(ValueError):
        BloomFilter(num_bits=1000)
    a, b = BloomFilter(1 << 12, 5), BloomFilter(1 << 13, 5)
    with pytest.raises(ValueError):
        a.merge(b)


def test_bloom_scalar_api():
    bf = BloomFilter(num_bits=1 << 14, num_hashes=7)
    bf.add_values(np.asarray([123], dtype=np.int32))
    assert bf.contains(np.int32(123))
    assert bf.contains(123)          # python-int scalar, same canonical image
    assert bf.contains(np.int64(123))
    assert not bf.contains(2**70)    # beyond uint64: certain non-member


def test_bloom_wire_preserves_hash_name():
    """Round-4 review fix: the BLM1 wire format dropped hash_name, so a
    custom-hash filter rebuilt from its own blob rejected every one of its
    own keys (reproduced 0/100 self-membership under a non-default hash)."""
    keys = np.arange(1000, dtype=np.int64)
    bf = BloomFilter(num_bits=1 << 14, num_hashes=5, hash_name="murmur3")
    bf.add_values(keys)
    rt = BloomFilter.from_bytes(bf.to_bytes())
    assert rt.hash_name == "murmur3"
    assert rt == bf
    assert rt.contains_values(keys).all()  # zero false negatives survive wire
    # explicit mismatched rebuild hash is a loud error, not a silent mistag
    with pytest.raises(ValueError, match="built under hash"):
        BloomFilter.from_bytes(bf.to_bytes(), hash_name="fnv1a_mix")
    # matching explicit hash is fine
    assert BloomFilter.from_bytes(bf.to_bytes(), hash_name="murmur3") == bf


def test_bloom_legacy_blm1_blob_readable():
    import struct

    bf = BloomFilter(num_bits=1 << 10, num_hashes=3)
    bf.add_values(np.arange(50, dtype=np.int64))
    legacy = (b"BLM1" + struct.pack("<QHQ", bf.num_bits, bf.num_hashes,
                                    bf.count_additions)
              + np.packbits(bf.bits, bitorder="little").tobytes())
    rt = BloomFilter.from_bytes(legacy)
    assert rt == bf  # BLM1 carries no hash field -> default hash assumed
    rt2 = BloomFilter.from_bytes(legacy, hash_name="murmur3")
    assert rt2.hash_name == "murmur3"


def test_bloom_eq_is_hash_sensitive():
    a = BloomFilter(num_bits=1 << 10, num_hashes=3, hash_name="fnv1a_mix")
    b = BloomFilter(num_bits=1 << 10, num_hashes=3, hash_name="murmur3")
    assert a != b  # merge() treats them as incompatible; __eq__ must agree
    assert a == BloomFilter(num_bits=1 << 10, num_hashes=3)


def test_bloom_cross_width_membership():
    """Round-4 review fix: hash identity is the byte image, so an int32
    build probed with int64 values of the same keys returned 0 matches.
    Integer/float values now canonicalize to 8-byte images on both sides."""
    keys32 = np.arange(500, dtype=np.int32)
    bf = BloomFilter(num_bits=1 << 14, num_hashes=5)
    bf.add_values(keys32)
    assert bf.contains_values(keys32.astype(np.int64)).all()
    assert bf.contains_values(keys32.astype(np.uint32)).all()
    assert bf.contains_values(keys32).all()
    f32 = np.asarray([0.5, 1.25, -3.75], dtype=np.float32)
    bff = BloomFilter(num_bits=1 << 14, num_hashes=5)
    bff.add_values(f32)
    assert bff.contains_values(f32.astype(np.float64)).all()


def test_countmin_wire_preserves_hash_name():
    """Same bug class as the Bloom BLM1 fix: a custom-hash CMS rebuilt from
    its own blob under the default hash queried the wrong counters."""
    vals = np.arange(2000, dtype=np.int64) % 37
    cms = CountMinSketch(depth=4, width=1 << 10, hash_name="murmur3")
    cms.add_values(vals)
    rt = CountMinSketch.from_bytes(cms.to_bytes())
    assert rt.hash_name == "murmur3"
    assert rt == cms
    probe = np.arange(37, dtype=np.int64)
    assert (rt.query_values(probe) == cms.query_values(probe)).all()
    assert (rt.query_values(probe) >= 2000 // 37).all()  # never underestimates
    with pytest.raises(ValueError, match="built under hash"):
        CountMinSketch.from_bytes(cms.to_bytes(), hash_name="fnv1a_mix")


def test_countmin_legacy_cms1_blob_readable():
    import struct

    cms = CountMinSketch(depth=3, width=1 << 8)
    cms.add_values(np.arange(100, dtype=np.int64))
    legacy = (b"CMS1" + struct.pack("<HIQ", cms.depth, cms.width, cms.total)
              + cms.counts.tobytes())
    rt = CountMinSketch.from_bytes(legacy)
    assert rt == cms  # CMS1 carries no hash field -> default hash assumed
    assert CountMinSketch.from_bytes(
        legacy, hash_name="murmur3").hash_name == "murmur3"
    # truncation inside the new header layout still raises loudly
    with pytest.raises(ValueError):
        CountMinSketch.from_bytes(cms.to_bytes()[:-5])


def test_theta_truncated_hash_name_raises_value_error():
    import struct

    # THE2 blob with a multibyte hash name, truncated mid-name: the length
    # check must fire (ValueError) before the UTF-8 decode can raise
    name = "héash".encode()
    blob = (b"THE2" + struct.pack("<IQQB", 64, 0, 0, len(name))
            + name[:2])  # cut inside the 2-byte é sequence
    from cardinalityestimation_ray.sketches.theta import ThetaSketch

    with pytest.raises(ValueError, match="truncated theta blob"):
        ThetaSketch.from_bytes(blob)


# ---------------------------------------------------------------------------
# t-digest


def test_tdigest_quantile_rank_error(normal_stream):
    td = TDigest(delta=200)
    for chunk in np.array_split(normal_stream, 10):
        td.add_values(chunk)
    for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        true_q = float(np.quantile(normal_stream, q))
        assert abs(td.cdf(true_q) - q) < 0.01, q
    assert td.quantile(0.0) == normal_stream.min()
    assert td.quantile(1.0) == normal_stream.max()
    assert td.n_centroids <= 2 * 200


def test_tdigest_merge_within_bound(normal_stream):
    parts = [TDigest(100) for _ in range(8)]
    for i, chunk in enumerate(np.array_split(normal_stream, 8)):
        parts[i].add_values(chunk)
    merged = parts[0]
    for p in parts[1:]:
        merged.merge(p)
    assert merged.total_weight == pytest.approx(len(normal_stream))
    for q in (0.05, 0.5, 0.95):
        true_q = float(np.quantile(normal_stream, q))
        assert abs(merged.cdf(true_q) - q) < 0.02, q


def test_tdigest_roundtrip_and_validation(normal_stream):
    td = TDigest(delta=100)
    td.add_values(normal_stream[:50_000])
    rt = TDigest.from_bytes(td.to_bytes())
    assert rt.quantile(0.5) == td.quantile(0.5)
    assert rt.total_weight == pytest.approx(td.total_weight)
    with pytest.raises(ValueError):
        TDigest.from_bytes(b"XXXX" + td.to_bytes()[4:])
    with pytest.raises(ValueError):
        TDigest.from_bytes(td.to_bytes()[:-3])
    with pytest.raises(ValueError):
        TDigest(delta=5)
    with pytest.raises(ValueError):
        TDigest(100).merge(TDigest(200))


def test_tdigest_nan_and_empty():
    td = TDigest()
    td.add_values(np.asarray([np.nan, np.nan]))
    assert np.isnan(td.quantile(0.5))
    td.add_values(np.asarray([1.0]))
    assert td.quantile(0.5) == 1.0


# ---------------------------------------------------------------------------
# KLL


def test_kll_rank_error(normal_stream):
    kll = KLLSketch(k=200)
    for chunk in np.array_split(normal_stream, 10):
        kll.add_values(chunk)
    assert kll.n == len(normal_stream)
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        est = kll.quantile(q)
        assert abs((normal_stream <= est).mean() - q) < 0.02, q
    assert kll.quantile(0.0) == normal_stream.min()
    assert kll.quantile(1.0) == normal_stream.max()


def test_kll_merge_within_bound(normal_stream):
    parts = [KLLSketch(k=200, seed=i) for i in range(8)]
    for i, chunk in enumerate(np.array_split(normal_stream, 8)):
        parts[i].add_values(chunk)
    merged = parts[0]
    for p in parts[1:]:
        merged.merge(p)
    assert merged.n == len(normal_stream)
    for q in (0.1, 0.5, 0.9):
        est = merged.quantile(q)
        assert abs((normal_stream <= est).mean() - q) < 0.03, q


def test_kll_roundtrip_and_validation(normal_stream):
    kll = KLLSketch(k=128)
    kll.add_values(normal_stream[:30_000])
    rt = KLLSketch.from_bytes(kll.to_bytes())
    assert rt.n == kll.n
    assert rt.quantile(0.5) == kll.quantile(0.5)
    with pytest.raises(ValueError):
        KLLSketch.from_bytes(b"XXXX" + kll.to_bytes()[4:])
    with pytest.raises(ValueError):
        KLLSketch.from_bytes(kll.to_bytes()[:-5])
    with pytest.raises(ValueError):
        KLLSketch(k=4)
    with pytest.raises(ValueError):
        KLLSketch(128).merge(KLLSketch(200))


def test_kll_weight_conservation():
    """Total retained weight (sum of 2^level over items) must equal n
    exactly after any number of compactions — the odd-length/offset==1
    path used to discard the unpaired item (round-1 ADVICE fix)."""
    for seed in range(5):
        kll = KLLSketch(k=16, seed=seed)  # tiny k -> many compactions
        rng = np.random.default_rng(seed)
        total = 0
        for _ in range(30):
            m = int(rng.integers(1, 400))
            kll.add_values(rng.normal(size=m))
            total += m
        weight = sum(len(c) * 2 ** lvl for lvl, c in enumerate(kll.compactors))
        assert weight == total == kll.n


def test_minhash_short_docs_not_all_duplicates():
    """Docs shorter than the shingle width must not collapse to a shared
    all-sentinel signature (round-1 ADVICE fix)."""
    import pyarrow as pa
    from cardinalityestimation_ray.stages.dedup import (
        estimate_jaccard, minhash_signatures)

    text = pa.array(["cat", "dog", "cat", "", "elephant rides a bicycle daily"])
    sig = minhash_signatures(text, num_perm=64, ngram=8)
    assert not np.any(sig == np.iinfo(np.uint64).max)  # no sentinel survives
    # identical short docs still match exactly...
    assert estimate_jaccard(sig[0], sig[2]) == 1.0
    # ...but different short docs do not
    assert estimate_jaccard(sig[0], sig[1]) < 0.5
    assert estimate_jaccard(sig[0], sig[3]) < 0.5


def test_cms_unique_collapse_identical_to_raw():
    """The large-batch (unique hash, count) collapse must produce EXACTLY
    the same counters and total as the raw element-at-a-time path."""
    import numpy as np

    from cardinalityestimation_ray.sketches.countmin import CountMinSketch

    rng = np.random.default_rng(0)
    vals = (rng.zipf(1.2, 200_000) % 5_000).astype(np.int32)
    collapsed = CountMinSketch(depth=4, width=1 << 12)
    collapsed.add_values(vals)  # > threshold -> collapse path
    raw = CountMinSketch(depth=4, width=1 << 12)
    old = CountMinSketch.UNIQUE_COLLAPSE_THRESHOLD
    try:
        CountMinSketch.UNIQUE_COLLAPSE_THRESHOLD = 1 << 62  # force raw
        raw.add_values(vals)
    finally:
        CountMinSketch.UNIQUE_COLLAPSE_THRESHOLD = old
    assert collapsed.total == raw.total == len(vals)
    assert np.array_equal(collapsed.counts, raw.counts)

    # float batches skip the value-collapse (np.unique equates NaNs, the
    # hash distinguishes bit patterns) but still match via hash-collapse
    fvals = rng.choice(np.r_[rng.normal(size=50), np.nan], 200_000)
    fc = CountMinSketch(depth=4, width=1 << 12)
    fc.add_values(fvals)
    fr = CountMinSketch(depth=4, width=1 << 12)
    try:
        CountMinSketch.UNIQUE_COLLAPSE_THRESHOLD = 1 << 62
        fr.add_values(fvals)
    finally:
        CountMinSketch.UNIQUE_COLLAPSE_THRESHOLD = old
    assert fc == fr


def test_tdigest_zero_weight_rows_do_not_poison():
    """Round-3 review regression: zero-weight rows are dropped (a weight-0
    compression cluster had mean 0/0 = NaN and poisoned every quantile);
    negative/NaN weights raise."""
    import numpy as np
    import pytest

    from cardinalityestimation_ray.sketches.tdigest import TDigest

    td = TDigest()
    td.add_values(np.array([1.0, 2.0, 3.0]),
                  weights=np.array([0.0, 0.0, 5.0]))
    assert td.quantile(0.5) == 3.0
    with pytest.raises(ValueError):
        TDigest().add_values(np.array([1.0]), weights=np.array([-1.0]))
    with pytest.raises(ValueError):
        TDigest().add_values(np.array([1.0]),
                             weights=np.array([float("nan")]))


def test_kll_default_seed_is_per_instance():
    from cardinalityestimation_ray.sketches.kll import KLLSketch

    a, b = KLLSketch(), KLLSketch()
    assert a.seed != b.seed  # independent compaction coins per partial
    # explicit seed stays deterministic
    assert KLLSketch(seed=7).seed == KLLSketch(seed=7).seed == 7


def test_hashing_registry_and_narrow_dtypes():
    import numpy as np
    import pytest

    from cardinalityestimation_ray.sketches import hashing

    # polars scalar path raises an actionable error, not a bare KeyError
    with pytest.raises(ValueError, match="polars"):
        hashing.hash_scalar(b"x", "polars")
    # int16 widens through the int32 image; bool raises (reference rule)
    assert np.array_equal(
        hashing.hash_fixed_batch(np.array([5, -3], dtype=np.int16)),
        hashing.hash_fixed_batch(np.array([5, -3], dtype=np.int32)))
    with pytest.raises(TypeError):
        hashing.hash_fixed_batch(np.array([True, False]))


def test_generic_partials_string_list_explode(ray_session):
    import pyarrow as pa
    import ray.data

    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        tree_merge_partials,
    )

    tbl = pa.table({
        "words": pa.array([["a", "b"], ["b", None, "c"], []],
                          type=pa.list_(pa.string())),
    })
    partials = ray.data.from_arrow(tbl).map_batches(
        SketchPartials("hll", "words", b=12), batch_format="pyarrow")
    sk, total = tree_merge_partials(partials, "hll")
    assert total == 4  # null element excluded
    assert sk.estimate() == 3  # a, b, c


def test_keyed_partials_schema_stable_with_all_null_batches(ray_session):
    """Round-3 review regression: a fully-filtered batch must emit the SAME
    key-column type as normal batches (int32 keys previously came back
    int32 from the empty path but int64 from the normal path, crashing
    block concatenation)."""
    import pyarrow as pa
    import ray.data

    from cardinalityestimation_ray.pipelines.distinct import (
        distinct_column_by_key,
    )
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        sketch_merge_aggregate,
    )

    t1 = pa.table({"k": pa.array([1, 2], type=pa.int32()),
                   "v": pa.array([10, 20], type=pa.int64())})
    t2 = pa.table({"k": pa.array([1, 3], type=pa.int32()),
                   "v": pa.array([None, None], type=pa.int64())})
    ds = ray.data.from_arrow(t1).union(ray.data.from_arrow(t2))
    out = distinct_column_by_key(ds, "v", "k", b=12,
                                 estimate_name="d", count_name="n")
    udaf = ds.map_batches(
        SketchPartials("hll", "v", key_column="k", b=12),
        batch_format="pyarrow").groupby("k").aggregate(
        sketch_merge_aggregate("hll", {"b": 12}, finalize="estimate")
    ).to_pandas()
    # key 3's values are ALL null: SQL GROUP BY keeps the group with
    # COUNT(DISTINCT)=0 (round-4 session-9 fix — it was dropped before),
    # through the combiner tree and through the groupby UDAF alike
    for got in (dict(zip(out["k"], out["d"])),
                dict(zip(udaf["k"], udaf["estimate"]))):
        assert got == {1: 1, 2: 1, 3: 0}


_PARTIAL_KINDS = {
    "hll": {"b": 11},
    "theta": {"k": 64},
    "countmin": {"depth": 3, "width": 256},
    "bloom": {"num_bits": 1 << 12, "num_hashes": 3},
    "tdigest": {"delta": 50},
    "kll": {"k": 50, "seed": 3},
}
_NUMERIC_ONLY = {"tdigest", "kll"}  # no string elements


def _partials_batch():
    """400 rows keyed a/b/c/None/ghost. Every value column has nulls, and
    every ghost row holds no value: a null list, an empty list, a list of
    nulls, or a null scalar."""
    import pyarrow as pa

    rng = np.random.default_rng(41)
    n = 400
    keys = rng.choice(np.array(["a", "b", "c", None], dtype=object), size=n)
    ghost = np.arange(n) % 37 == 5
    keys[ghost] = "ghost"
    ints, lists = [], []
    for i in range(n):
        if ghost[i]:
            lists.append([None, [], [None, None]][i % 3])
            ints.append(None)
            continue
        ints.append(None if rng.random() < 0.1 else int(rng.integers(500)))
        if rng.random() < 0.05:
            lists.append(None)
            continue
        vals = rng.integers(0, 3000, size=int(rng.integers(0, 60)))
        lists.append([None if rng.random() < 0.03 else int(v)
                      for v in vals])

    def words(v):
        return None if v is None else f"w{v}"

    return pa.table({
        "k": pa.array(keys.tolist(), type=pa.string()),
        "list_int32": pa.array(lists, type=pa.list_(pa.int32())),
        "list_string": pa.array(
            [None if lst is None else [words(v) for v in lst]
             for lst in lists], type=pa.list_(pa.string())),
        "int64": pa.array(ints, type=pa.int64()),
        "string": pa.array([words(v) for v in ints], type=pa.string()),
    })


@pytest.mark.parametrize("kind,column", [
    (kind, column) for kind in _PARTIAL_KINDS
    for column in ("list_int32", "list_string", "int64", "string")
    if not (kind in _NUMERIC_ONLY and "string" in column)])
def test_keyed_partials_match_global_partials(kind, column):
    """SketchPartials' one keyed path (rows sorted by key, one flatten, one
    value segment per key) against its global path, for every kind and
    column shape: each key's row is the global stage over that key's rows
    byte for byte (KLL with a fixed seed), an all-null group
    gives (empty sketch, 0), null keys are dropped, and a sliced batch gives
    what a fresh copy of it gives."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        build_sketch,
    )

    params = _PARTIAL_KINDS[kind]
    batch = _partials_batch()
    keyed = SketchPartials(kind, column, key_column="k", **params)
    glob = SketchPartials(kind, column, **params)
    out = keyed(batch)
    rows = dict(zip(out["k"].to_pylist(),
                    zip(out["sketch"].to_pylist(),
                        out["n_added"].to_pylist())))
    assert sorted(rows) == ["a", "b", "c", "ghost"]
    assert out.schema.field("k").type == pa.string()
    for key, (blob, n) in rows.items():
        g = glob(batch.filter(pc.equal(batch["k"], key)))
        assert (blob, n) == (g["sketch"][0].as_py(), g["n_added"][0].as_py())
    assert rows["ghost"] == (build_sketch(kind, params).to_bytes(), 0)
    assert sum(n for _, n in rows.values()) < \
        glob(batch)["n_added"][0].as_py()  # null-key rows hold values

    sliced = batch.slice(13, 300)
    copied = pa.Table.from_pylist(sliced.to_pylist(), schema=batch.schema)
    assert keyed(sliced).equals(keyed(copied))
    assert glob(sliced).equals(glob(copied))


def test_token_partials_dedup_blob_identical(int_collapse_cases):
    """The unique-before-hash token collapse must emit byte-identical
    partial blobs to the raw path — registers because duplicates are
    register no-ops, count_additions because HyperLogLog.add_values still
    counts raw adds (reference CountAdditions semantics count every add).
    The partial stage hands HLL whole segments, global and keyed; every
    branch of the collapse (bitmap and sort) is covered."""
    import pyarrow as pa

    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.stages.sketch_stages import SketchPartials

    rng = np.random.default_rng(23)
    n_docs, per_doc = 300, 400  # 120k tokens > the collapse threshold
    offsets = np.arange(0, (n_docs + 1) * per_doc, per_doc, dtype=np.int32)
    z = rng.zipf(1.3, n_docs * per_doc) % 2000
    source = pa.array(rng.choice(["a", "b"], size=n_docs))
    stages = [SketchPartials(b=11), SketchPartials(key_column="source", b=11)]
    for name, vals, _ in int_collapse_cases(z):
        batch = pa.table({
            "tokens": pa.ListArray.from_arrays(pa.array(offsets),
                                               pa.array(vals)),
            "source": source,
        })
        assert len(vals) > HyperLogLog.UNIQUE_COLLAPSE_THRESHOLD

        dedup = HyperLogLog(b=11)
        dedup.add_values(vals)
        dedup_out = [stage(batch) for stage in stages]
        old = HyperLogLog.UNIQUE_COLLAPSE_THRESHOLD
        try:
            HyperLogLog.UNIQUE_COLLAPSE_THRESHOLD = 1 << 62  # force raw
            raw = HyperLogLog(b=11)
            raw.add_values(vals)
            raw_out = [stage(batch) for stage in stages]
        finally:
            HyperLogLog.UNIQUE_COLLAPSE_THRESHOLD = old
        assert dedup.to_bytes() == raw.to_bytes(), name
        assert dedup.count_additions == len(vals), name
        for key_column, d, r in zip((None, "source"), dedup_out, raw_out):
            assert d.equals(r), \
                f"{name}: dedup != raw for key_column={key_column}"
            # n_added is the RAW token count, not the unique count
            assert sum(d["n_added"].to_pylist()) == n_docs * per_doc, name


def test_bloom_unique_collapse_identical_to_raw(int_collapse_cases):
    """The large-batch unique-before-hash collapse must leave bits AND
    count_additions identical to the raw path (bit sets are idempotent;
    count_additions counts raw adds and rides the wire), on every branch
    of the collapse."""
    rng = np.random.default_rng(9)
    for name, vals, _ in int_collapse_cases(
            rng.zipf(1.2, 200_000) % 10_000):
        collapsed = BloomFilter(num_bits=1 << 14, num_hashes=5)
        collapsed.add_values(vals)
        raw = BloomFilter(num_bits=1 << 14, num_hashes=5)
        old = BloomFilter.UNIQUE_COLLAPSE_THRESHOLD
        try:
            BloomFilter.UNIQUE_COLLAPSE_THRESHOLD = 1 << 62
            raw.add_values(vals)
        finally:
            BloomFilter.UNIQUE_COLLAPSE_THRESHOLD = old
        assert collapsed == raw, name
        assert collapsed.count_additions == raw.count_additions \
            == len(vals), name


def test_countmin_unique_collapse_identical_to_raw(int_collapse_cases):
    """Count-min's counted collapse (values + counts before hashing) must
    leave every counter AND the total identical to the raw path, on every
    branch of the collapse."""
    rng = np.random.default_rng(13)
    for name, vals, _ in int_collapse_cases(
            rng.zipf(1.2, 200_000) % 10_000):
        collapsed = CountMinSketch(depth=4, width=1 << 12)
        collapsed.add_values(vals)
        raw = CountMinSketch(depth=4, width=1 << 12)
        old = CountMinSketch.UNIQUE_COLLAPSE_THRESHOLD
        try:
            CountMinSketch.UNIQUE_COLLAPSE_THRESHOLD = 1 << 62
            raw.add_values(vals)
        finally:
            CountMinSketch.UNIQUE_COLLAPSE_THRESHOLD = old
        assert np.array_equal(collapsed.counts, raw.counts), name
        assert collapsed.total == raw.total == len(vals), name
        assert collapsed.to_bytes() == raw.to_bytes(), name


def test_collapse_ints_equals_np_unique(int_collapse_cases):
    """``Sketch._collapse_ints`` returns exactly ``np.unique``'s output —
    values, sorted order and dtype, and with ``return_counts`` the counts
    too — for every integer dtype, on both branches (dense non-negative ->
    bitmap, anything else -> sort), and passes short or non-integer
    batches through untouched."""
    from cardinalityestimation_ray.sketches.hll import HyperLogLog

    sk = HyperLogLog(b=11)
    n = HyperLogLog.UNIQUE_COLLAPSE_THRESHOLD + 1
    rng = np.random.default_rng(31)
    z = rng.zipf(1.3, n) % 1000
    checked = set()
    for name, vals, bitmap in int_collapse_cases(z):
        got = sk._collapse_ints(vals)
        want = np.unique(vals)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        got, counts = sk._collapse_ints(vals, return_counts=True)
        want, want_counts = np.unique(vals, return_counts=True)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert counts.dtype == want_counts.dtype, name
        assert np.array_equal(counts, want_counts), name
        checked.add(bitmap)
    assert checked == {True, False}
    for dt in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32,
               np.int64, np.uint64):
        info = np.iinfo(dt)
        small = min(info.max, 1000)
        for lo, hi in ((0, small), (max(info.min, -small), small),
                       (0, info.max)):
            vals = rng.integers(lo, hi, n, dtype=dt, endpoint=True)
            got = sk._collapse_ints(vals)
            want = np.unique(vals)
            assert got.dtype == want.dtype and np.array_equal(got, want), \
                (dt, lo, hi)
            got, counts = sk._collapse_ints(vals, return_counts=True)
            want, want_counts = np.unique(vals, return_counts=True)
            assert got.dtype == want.dtype and np.array_equal(got, want), \
                (dt, lo, hi)
            assert np.array_equal(counts, want_counts), (dt, lo, hi)
    short = z[:100].astype(np.int32)
    assert sk._collapse_ints(short) is short
    floats = z.astype(np.float64)
    assert sk._collapse_ints(floats) is floats
    got, counts = sk._collapse_ints(floats, return_counts=True)
    assert got is floats and counts is None


def test_numpy_scalar_identity_matches_batch():
    """Round-4 session-9 review: encode_element collapsed ANY small int to
    the int32 image, so np.int64(5) and np.array([5], int64) hashed apart —
    a scalar add/query could never match a batch add. Numpy scalars now
    follow their dtype width; plain Python ints keep the C# literal rule."""
    import numpy as np

    from cardinalityestimation_ray.sketches import HyperLogLog, hashing
    from cardinalityestimation_ray.sketches.countmin import CountMinSketch

    h = HyperLogLog(b=14)
    h.add(np.int64(5))
    h.add_values(np.array([5], dtype=np.int64))
    assert h.estimate() == 1

    cms = CountMinSketch()
    cms.add_values(np.asarray([7, 7, 7], dtype=np.int64))
    assert cms.query(np.int64(7)) >= 3

    # C# literal rule unchanged: Python int 123 == LE int32 bytes
    assert hashing.encode_element(123) == (123).to_bytes(4, "little")
    # numpy dtypes follow their width
    assert hashing.encode_element(np.int64(123)) == \
        (123).to_bytes(8, "little")
    assert hashing.encode_element(np.int16(3)) == \
        hashing.encode_element(np.int32(3))  # narrow ints widen via int32


def test_hll_eq_compares_hash_name():
    """Reference Equals compares hashFunction; ours must too — the v3 wire
    relabel (custom hash -> default on from_bytes) is now visible to ==."""
    from cardinalityestimation_ray.sketches import HyperLogLog

    a = HyperLogLog(b=14, hash_name="xxhash128")
    a.add("x")
    rb = HyperLogLog.from_bytes(a.to_bytes())
    assert rb != a  # relabeled to the default hash
    rb.hash_name = a.hash_name
    assert rb == a  # state itself is lossless


def test_kll_copies_flip_independent_coins():
    """Copies seeded with self.seed+1 made every copy of one sketch flip
    IDENTICAL compaction coins — correlated rank errors across merge
    branches sharing a copied accumulator base."""
    import numpy as np

    from cardinalityestimation_ray.sketches.kll import KLLSketch

    base = KLLSketch(k=8)
    base.add_values(np.arange(100, dtype=np.float64))
    c1, c2 = base.copy(), base.copy()
    coins1 = [c1._rng.integers(0, 2) for _ in range(24)]
    coins2 = [c2._rng.integers(0, 2) for _ in range(24)]
    assert coins1 != coins2  # 2^-24 false-failure odds
    # copies still carry identical STATE
    assert c1.n == c2.n == base.n
    assert all(np.array_equal(x, y)
               for x, y in zip(c1.compactors, c2.compactors))


def test_kll_retained_size_tracks_published_schedule():
    """Round-4 VERDICT item #5: the level-capacity schedule is the
    DataSketches-style c_h = k*(2/3)^(H-1-h) (floored at 8), so total
    retained size must track the published geometric bound
    sum_h c_h <= 3k + floor_overhead — NOT grow with n. Streamed 1M
    values at three k's; also pins that retention is ~k in practice
    (the schedule's whole point)."""
    import numpy as np

    from cardinalityestimation_ray.sketches.kll import KLLSketch

    rng = np.random.default_rng(0)
    for k in (128, 200, 512):
        s = KLLSketch(k=k, seed=1)
        for _ in range(100):
            s.add_values(rng.standard_normal(10_000))
        levels = len(s.compactors)
        assert s.retained <= 3 * k + 8 * levels, (k, s.retained, levels)
        # capacity schedule shape: every level's occupancy respects its cap
        for h, items in enumerate(s.compactors):
            assert len(items) <= s._capacity(h) + 1, (k, h)
        # weight conservation through the schedule
        _, w = s._weighted_items()
        assert w.sum() == s.n
