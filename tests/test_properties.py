"""Property-based tests (hypothesis) — the reference's random-grid testing
technique upgraded to generated properties: split/merge invariance, wire
round-trips, order insensitivity, for all sketch kinds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardinalityestimation_ray.sketches.bloom import BloomFilter
from cardinalityestimation_ray.sketches.countmin import CountMinSketch
from cardinalityestimation_ray.sketches.hll import HyperLogLog

_elements = st.lists(st.integers(min_value=-2**31, max_value=2**31 - 1),
                     min_size=0, max_size=500)


def _arr(xs):
    return np.asarray(xs, dtype=np.int64)


@settings(max_examples=30, deadline=None)
@given(xs=_elements, b=st.integers(4, 16), cut=st.integers(0, 500))
def test_hll_split_merge_equals_single(xs, b, cut):
    cut = min(cut, len(xs))
    single = HyperLogLog(b=b)
    single.add_values(_arr(xs))
    a = HyperLogLog(b=b)
    a.add_values(_arr(xs[:cut]))
    c = HyperLogLog(b=b)
    c.add_values(_arr(xs[cut:]))
    merged = a.merge(c)
    assert np.array_equal(merged.registers(), single.registers())
    assert merged.direct == single.direct
    assert merged.estimate() == single.estimate()


@settings(max_examples=30, deadline=None)
@given(xs=_elements, b=st.integers(4, 16))
def test_hll_wire_roundtrip_any_state(xs, b):
    sk = HyperLogLog(b=b)
    sk.add_values(_arr(xs))
    back = HyperLogLog.from_bytes(sk.to_bytes())
    assert back == sk
    assert back.estimate() == sk.estimate()


@settings(max_examples=20, deadline=None)
@given(xs=_elements, batch=st.integers(1, 50))
def test_hll_batching_insensitive(xs, batch):
    whole = HyperLogLog(b=10)
    whole.add_values(_arr(xs))
    chunked = HyperLogLog(b=10)
    for lo in range(0, len(xs), batch):
        chunked.add_values(_arr(xs[lo:lo + batch]))
    assert chunked == whole


@settings(max_examples=20, deadline=None)
@given(xs=_elements)
def test_hll_order_insensitive(xs):
    fwd = HyperLogLog(b=12)
    fwd.add_values(_arr(xs))
    rev = HyperLogLog(b=12)
    rev.add_values(_arr(xs[::-1]))
    assert fwd == rev


@settings(max_examples=20, deadline=None)
@given(xs=_elements, depth=st.integers(1, 8), logw=st.integers(4, 12),
       cut=st.integers(0, 500))
def test_countmin_split_merge_and_roundtrip(xs, depth, logw, cut):
    cut = min(cut, len(xs))
    w = 1 << logw
    single = CountMinSketch(depth=depth, width=w)
    single.add_values(_arr(xs))
    a = CountMinSketch(depth=depth, width=w)
    a.add_values(_arr(xs[:cut]))
    b = CountMinSketch(depth=depth, width=w)
    b.add_values(_arr(xs[cut:]))
    assert a.merge(b) == single
    assert CountMinSketch.from_bytes(single.to_bytes()) == single
    # never underestimates
    if xs:
        uniq = _arr(sorted(set(xs)))
        est = single.query_values(uniq)
        import collections

        true = collections.Counter(xs)
        for v, e in zip(uniq, est):
            assert e >= true[int(v)]


@settings(max_examples=20, deadline=None)
@given(xs=_elements, logm=st.integers(3, 14), k=st.integers(1, 10),
       cut=st.integers(0, 500))
def test_bloom_split_merge_no_false_negatives(xs, logm, k, cut):
    cut = min(cut, len(xs))
    m = 1 << logm
    a = BloomFilter(num_bits=m, num_hashes=k)
    a.add_values(_arr(xs[:cut]))
    b = BloomFilter(num_bits=m, num_hashes=k)
    b.add_values(_arr(xs[cut:]))
    merged = a.merge(b)
    single = BloomFilter(num_bits=m, num_hashes=k)
    single.add_values(_arr(xs))
    assert merged == single
    if xs:
        assert merged.contains_values(_arr(xs)).all()
    assert BloomFilter.from_bytes(merged.to_bytes()) == merged


@settings(max_examples=20, deadline=None)
@given(xs=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False), min_size=1, max_size=400),
       delta=st.integers(20, 200))
def test_tdigest_quantile_monotone_and_bounded(xs, delta):
    from cardinalityestimation_ray.sketches.tdigest import TDigest

    td = TDigest(delta=delta)
    td.add_values(np.asarray(xs))
    qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    vals = [td.quantile(q) for q in qs]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[0] == min(xs)
    assert vals[-1] == max(xs)
    assert min(xs) <= td.quantile(0.5) <= max(xs)


@settings(max_examples=20, deadline=None)
@given(xs=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False), min_size=1, max_size=400),
       k=st.integers(8, 128))
def test_kll_quantile_monotone_and_membership(xs, k):
    from cardinalityestimation_ray.sketches.kll import KLLSketch

    kll = KLLSketch(k=k)
    kll.add_values(np.asarray(xs))
    qs = [0.0, 0.25, 0.5, 0.75, 1.0]
    vals = [kll.quantile(q) for q in qs]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
    # KLL quantiles are actual retained stream items (plus min/max)
    pool = set(xs)
    assert all(v in pool for v in vals)


@settings(max_examples=15, deadline=None)
@given(xs=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False), min_size=2, max_size=300),
       cut=st.integers(1, 299))
def test_quantile_sketches_merge_bounds(xs, cut):
    from cardinalityestimation_ray.sketches.kll import KLLSketch
    from cardinalityestimation_ray.sketches.tdigest import TDigest

    cut = min(cut, len(xs) - 1)
    for cls, kw in ((TDigest, {"delta": 100}), (KLLSketch, {"k": 64})):
        a = cls(**kw)
        a.add_values(np.asarray(xs[:cut]))
        b = cls(**kw)
        b.add_values(np.asarray(xs[cut:]))
        merged = a.merge(b)
        assert merged.quantile(0.0) == min(xs)
        assert merged.quantile(1.0) == max(xs)
        assert min(xs) <= merged.quantile(0.5) <= max(xs)


_byte_strings = st.lists(st.binary(min_size=0, max_size=40), min_size=1,
                         max_size=60)


@settings(max_examples=30, deadline=None)
@given(data=_byte_strings)
def test_binary_hash_vectorized_matches_scalar(data):
    import pyarrow as pa

    from cardinalityestimation_ray.sketches import hashing

    arr = pa.array(data, type=pa.binary())
    # every byte-rule hash; "polars" has no scalar rule to compare against
    for name, scalar in hashing.HASH_FUNCTIONS.items():
        if name == "polars":
            continue
        vec = hashing.hash_arrow_binary(arr, name)
        for s, h in zip(data, vec):
            assert scalar(s) == int(h), (name, s)


@settings(max_examples=20, deadline=None)
@given(xs=_elements, ys=_elements, probe=st.integers(-2**31, 2**31 - 1))
def test_countmin_merge_monotone(xs, ys, probe):
    from cardinalityestimation_ray.sketches.countmin import CountMinSketch

    a = CountMinSketch(depth=3, width=1 << 8)
    a.add_values(_arr(xs))
    b = CountMinSketch(depth=3, width=1 << 8)
    b.add_values(_arr(ys))
    p = np.asarray([probe], dtype=np.int64)
    ea = int(a.query_values(p)[0])
    eb = int(b.query_values(p)[0])
    merged = a.merge(b)
    em = int(merged.query_values(p)[0])
    assert em >= max(ea, eb)
    assert em <= ea + eb  # counters add exactly


def _registry():
    import cardinalityestimation_ray.sketches  # noqa: F401  registers kinds
    from cardinalityestimation_ray.sketches.base import Sketch

    return Sketch.REGISTRY


def test_registry_holds_one_sketch_per_question():
    assert set(_registry()) == {
        "bloom", "countmin", "hll", "kll", "priority_sample", "tdigest",
        "theta", "weighted_dlt_sample"}


#: small constructor args of every kind that hashes its elements
_HASHED_KINDS = {
    "hll": {"b": 10},
    "theta": {"k": 64},
    "bloom": {"num_bits": 1 << 12, "num_hashes": 3},
    "countmin": {"depth": 3, "width": 1 << 8},
}


@pytest.mark.parametrize("hash_name", ["fnv1a", "murmur3", "xxhash128"])
@pytest.mark.parametrize("kind", sorted(_HASHED_KINDS))
@settings(max_examples=10, deadline=None)
@given(xs=_elements)
def test_decoded_sketch_adds_like_its_source(kind, hash_name, xs):
    """A blob decoded under its sketch's hash is that sketch: adding the
    same values to it and to a copy of the source gives the same state and
    the same hash (the reference requires a deserialized sketch to share
    the hash it was built under, SURVEY.md §1.1)."""
    from cardinalityestimation_ray.sketches import sketch_from_bytes

    sk = _registry()[kind](**_HASHED_KINDS[kind], hash_name=hash_name)
    sk.add_values(_arr(xs))
    back = sketch_from_bytes(kind, sk.to_bytes(), sk.hash_name)
    back.add_values(_arr(xs))
    again = sk.copy()
    again.add_values(_arr(xs))
    assert back.hash_name == again.hash_name == hash_name
    assert back.to_bytes() == again.to_bytes()


@settings(max_examples=100, deadline=None)
@given(blob=st.binary(min_size=0, max_size=200))
def test_from_bytes_fuzz_never_crashes(blob):
    """Adversarial robustness: arbitrary blobs either parse or raise
    ValueError — no other exception type escapes any registered kind's
    deserializer."""
    for cls in _registry().values():
        try:
            cls.from_bytes(blob)
        except ValueError:
            pass


#: every header a registered decoder accepts: legacy and current magics,
#: and HLL's wire major versions 1-3
_MAGICS = [b"CMS1", b"CMS2", b"BLM1", b"BLM2", b"TDG1", b"KLL1", b"THE1",
           b"THE2", b"PSM1", b"WDL1", b"\x03\x00", b"\x02\x00", b"\x01\x00"]


@settings(max_examples=100, deadline=None)
@given(magic=st.sampled_from(_MAGICS), tail=st.binary(min_size=0, max_size=120))
def test_from_bytes_fuzz_with_valid_magic(magic, tail):
    """Blobs that pass the magic/version check but carry garbage payloads
    must still fail with ValueError only, for every registered kind."""
    blob = magic + tail
    for cls in _registry().values():
        try:
            cls.from_bytes(blob)
        except ValueError:
            pass  # the only exception type allowed to escape


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.integers(min_value=0, max_value=1 << 48),
                     min_size=0, max_size=600),
       n_parts=st.integers(min_value=1, max_value=6),
       k=st.sampled_from([16, 64, 256]))
def test_theta_merge_equals_single_stream(vals, n_parts, k):
    """Theta sketch: any partition of the stream merges to the identical
    retained set, theta and estimate (deterministic hash tags)."""
    import numpy as np

    from cardinalityestimation_ray.sketches.theta import ThetaSketch

    arr = np.asarray(vals, dtype=np.int64)
    single = ThetaSketch(k=k)
    single.add_values(arr)
    merged = ThetaSketch(k=k)
    for part in np.array_split(arr, n_parts):
        p = ThetaSketch(k=k)
        p.add_values(part)
        merged.merge(p)
    assert merged.theta64 == single.theta64
    assert np.array_equal(merged.retained, single.retained)
    assert merged.estimate() == single.estimate()


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.integers(min_value=0, max_value=1000),
                     min_size=0, max_size=400),
       k=st.sampled_from([16, 128]))
def test_theta_exact_regime_matches_set(vals, k):
    import numpy as np

    from cardinalityestimation_ray.sketches.theta import ThetaSketch

    s = ThetaSketch(k=k)
    s.add_values(np.asarray(vals, dtype=np.int64))
    if s.is_exact():
        assert s.estimate() == len(set(vals))
    back = ThetaSketch.from_bytes(s.to_bytes())
    assert back.estimate() == s.estimate()
    assert back.theta64 == s.theta64


@given(st.lists(st.text(alphabet=st.characters(min_codepoint=32,
                                               max_codepoint=126),
                        max_size=30),
                min_size=2, max_size=12),
       st.sampled_from(["char_ngram", "word_ngram"]),
       st.integers(min_value=2, max_value=9))
@settings(max_examples=60, deadline=None)
def test_batched_jaccard_matches_scalar_on_ascii(texts, verify, ngram):
    """doc_distinct_grams + batched_pair_jaccard == the scalar per-pair
    kernels on arbitrary printable-ascii text (the hot minhash-verify
    path's correctness contract)."""
    import numpy as np

    from cardinalityestimation_ray.pipelines.dedup import _text_sim
    from cardinalityestimation_ray.stages.dedup import (
        batched_pair_jaccard,
        doc_distinct_grams,
    )

    n = len(texts)
    ii, jj = np.triu_indices(n, k=1)
    grams, indptr = doc_distinct_grams(texts, verify=verify, ngram=ngram)
    got = batched_pair_jaccard(grams, indptr, ii, jj)
    want = np.array([_text_sim(texts[a], texts[b], verify, ngram)
                     for a, b in zip(ii, jj)])
    np.testing.assert_array_equal(got, want)
