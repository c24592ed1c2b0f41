"""KMV/theta sketch: exact regime, estimate bounds, set expressions, merge
laws, wire format."""

import numpy as np
import pytest

from cardinalityestimation_ray.sketches.theta import ThetaSketch


def _sk(values, k=4096):
    s = ThetaSketch(k=k)
    s.add_values(np.asarray(values, dtype=np.int64))
    return s


class TestExactRegime:
    def test_exact_until_k(self):
        s = _sk(range(1000), k=4096)
        assert s.is_exact()
        assert s.estimate() == 1000

    def test_exact_set_ops(self):
        a = _sk(range(0, 600), k=4096)
        b = _sk(range(400, 1000), k=4096)
        assert ThetaSketch.union_estimate(a, b) == 1000
        assert ThetaSketch.intersection_estimate(a, b) == 200
        assert ThetaSketch.difference_estimate(a, b) == 400
        assert abs(ThetaSketch.jaccard_estimate(a, b) - 0.2) < 1e-12

    def test_duplicates_collapse(self):
        s = _sk([7] * 500 + [8] * 500)
        assert s.estimate() == 2


class TestEstimateRegime:
    def test_estimate_within_rse(self):
        for n in (50_000, 300_000):
            s = _sk(np.arange(n), k=4096)
            assert not s.is_exact()
            rel = abs(s.estimate() / n - 1)
            assert rel < 4 * s.rse(), (n, rel)

    def test_intersection_direct_beats_iE_shape(self):
        # overlapping large sets: direct estimate within 5 sigma of truth
        rng = np.random.default_rng(0)
        a_vals = np.arange(0, 200_000)
        b_vals = np.arange(150_000, 350_000)  # true intersection 50k
        a = _sk(a_vals, k=4096)
        b = _sk(b_vals, k=4096)
        est = ThetaSketch.intersection_estimate(a, b)
        # sample-based error: ~ union * rse; 5 sigma margin
        assert abs(est - 50_000) < 5 * 350_000 * a.rse(), est

    def test_difference_estimate(self):
        a = _sk(np.arange(0, 200_000), k=4096)
        b = _sk(np.arange(150_000, 350_000), k=4096)
        est = ThetaSketch.difference_estimate(a, b)
        assert abs(est - 150_000) < 5 * 350_000 * a.rse(), est

    def test_jaccard_estimate_trimmed_regime(self):
        # sample-ratio Jaccard vs ground truth far above k (both sketches
        # trimmed): true J = 50k / 350k
        a = _sk(np.arange(0, 200_000), k=4096)
        b = _sk(np.arange(150_000, 350_000), k=4096)
        est = ThetaSketch.jaccard_estimate(a, b)
        true_j = 50_000 / 350_000
        assert abs(est - true_j) < 5 * true_j * a.rse() / (true_j ** 0.5), \
            (est, true_j)


class TestMergeLaws:
    def test_merge_equals_single_stream(self):
        rng = np.random.default_rng(1)
        vals = rng.integers(0, 1 << 40, size=100_000)
        parts = np.array_split(vals, 7)
        merged = ThetaSketch(k=1024)
        for p in parts:
            s = ThetaSketch(k=1024)
            s.add_values(p)
            merged.merge(s)
        single = ThetaSketch(k=1024)
        single.add_values(vals)
        assert merged.estimate() == single.estimate()
        assert np.array_equal(merged.retained, single.retained)
        assert merged.theta64 == single.theta64

    def test_merge_commutative(self):
        a1 = _sk(range(0, 50_000), k=512)
        b1 = _sk(range(25_000, 80_000), k=512)
        a2 = _sk(range(0, 50_000), k=512)
        b2 = _sk(range(25_000, 80_000), k=512)
        x = a1.merge(b1)
        y = b2.merge(a2)
        assert x.estimate() == y.estimate()
        assert np.array_equal(x.retained, y.retained)

    def test_merge_guards(self):
        with pytest.raises(ValueError):
            ThetaSketch(k=64).merge(ThetaSketch(k=128))
        a = ThetaSketch(k=64)
        b = ThetaSketch(k=64, hash_name="murmur3")
        with pytest.raises(ValueError):
            a.merge(b)


class TestWire:
    def test_round_trip(self):
        for n in (0, 10, 100_000):
            s = _sk(range(n), k=256)
            back = ThetaSketch.from_bytes(s.to_bytes())
            assert back.estimate() == s.estimate()
            assert back.theta64 == s.theta64
            assert np.array_equal(back.retained, s.retained)

    @pytest.mark.parametrize("mutate", [
        lambda b: b[:3],
        lambda b: b"XXXX" + b[4:],
        lambda b: b[:-4],
        lambda b: b[:4] + (5).to_bytes(4, "little") + b[8:],  # k < 16
    ])
    def test_adversarial(self, mutate):
        blob = mutate(_sk(range(1000), k=64).to_bytes())
        with pytest.raises(ValueError):
            ThetaSketch.from_bytes(blob)

    def test_registry(self):
        from cardinalityestimation_ray.sketches.base import Sketch

        assert Sketch.REGISTRY["theta"] is ThetaSketch


def test_corrupt_unsorted_blob_rejected():
    """Retained hashes must be strictly increasing — a blob with duplicates
    would silently break the assume_unique set-expression kernels."""

    s = _sk(range(100), k=64)
    blob = bytearray(s.to_bytes())
    off = len(blob) - len(s.retained) * 8  # payload start, any header version
    # overwrite the second retained hash with a copy of the first
    blob[off + 8:off + 16] = blob[off:off + 8]
    with pytest.raises(ValueError):
        ThetaSketch.from_bytes(bytes(blob))


class TestHashTagging:
    """Round-2 ADVICE fixes: hash identity travels with the blob and the
    set-expression helpers enforce compatibility like merge() does."""

    def test_wire_roundtrip_preserves_custom_hash(self):
        s = ThetaSketch(k=64, hash_name="xxhash128")
        s.add_values(np.arange(500, dtype=np.int64))
        back = ThetaSketch.from_bytes(s.to_bytes())
        assert back.hash_name == "xxhash128"
        assert np.array_equal(back.retained, s.retained)

    def test_wire_rejects_conflicting_hash_request(self):
        s = ThetaSketch(k=64, hash_name="xxhash128")
        s.add_values(np.arange(50, dtype=np.int64))
        with pytest.raises(ValueError, match="built under hash"):
            ThetaSketch.from_bytes(s.to_bytes(), hash_name="fnv1a_mix")

    def test_legacy_the1_blob_still_readable(self):
        import struct

        s = _sk(range(200), k=64)
        legacy = (b"THE1"
                  + struct.pack("<IQQ", s.k,
                                0 if s.theta64 >= (1 << 64) else s.theta64,
                                len(s.retained))
                  + s.retained.tobytes())
        back = ThetaSketch.from_bytes(legacy, hash_name="xxhash128")
        assert back.hash_name == "xxhash128"
        assert np.array_equal(back.retained, s.retained)
        # default: library default hash
        assert ThetaSketch.from_bytes(legacy).hash_name == "fnv1a_mix"

    def test_generic_blob_rebuild_keeps_hash(self):
        from cardinalityestimation_ray.sketches import sketch_from_bytes

        s = ThetaSketch(k=64, hash_name="murmur3")
        s.add_values(np.arange(300, dtype=np.int64))
        back = sketch_from_bytes("theta", s.to_bytes())
        assert back.hash_name == "murmur3"

    @pytest.mark.parametrize("op", ["intersection_estimate",
                                    "difference_estimate",
                                    "jaccard_estimate"])
    def test_set_ops_reject_mismatched_sketches(self, op):
        a = ThetaSketch(k=64, hash_name="fnv1a_mix")
        b_hash = ThetaSketch(k=64, hash_name="xxhash128")
        b_k = ThetaSketch(k=128, hash_name="fnv1a_mix")
        for s in (a, b_hash, b_k):
            s.add_values(np.arange(100, dtype=np.int64))
        with pytest.raises(ValueError, match="different hash"):
            getattr(ThetaSketch, op)(a, b_hash)
        with pytest.raises(ValueError, match="different k"):
            getattr(ThetaSketch, op)(a, b_k)


def test_pairwise_overlap_matrix_exact_regime(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from cardinalityestimation_ray.pipelines.distinct import (
        pairwise_overlap_matrix,
    )

    # three keys with known overlaps: A={0..49}, B={25..74}, C={100..119}
    rows = []
    for key, lo, hi in (("A", 0, 50), ("B", 25, 75), ("C", 100, 120)):
        for v in range(lo, hi):
            rows.append({"source": key, "tokens": [f"t{v}"]})
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(3)
    got = pairwise_overlap_matrix(ds, "source", k=4096)
    m = {(a, b): (na, nb, ni, j) for a, b, na, nb, ni, j in zip(
        got["key_a"], got["key_b"], got["n_a"], got["n_b"],
        got["n_intersection"], got["jaccard"])}
    assert m[("A", "B")][:3] == (50, 50, 25)
    assert m[("A", "B")][3] == 25 / 75
    assert m[("A", "C")][:3] == (50, 20, 0)
    assert m[("A", "C")][3] == 0.0
    assert m[("B", "C")][:3] == (50, 20, 0)
    assert len(got) == 3


def test_pairwise_overlap_matrix_empty(ray_session):
    import pandas as pd
    import ray.data

    from cardinalityestimation_ray.pipelines.distinct import (
        pairwise_overlap_matrix,
    )

    ds = ray.data.from_pandas(pd.DataFrame({"source": [], "tokens": []}))
    assert len(pairwise_overlap_matrix(ds, "source")) == 0


def test_pairwise_overlap_matrix_distributed_matches_direct(ray_session):
    """Scale path == driver path BIT-FOR-BIT, exact and trimmed regimes."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cardinalityestimation_ray.pipelines.distinct import (
        pairwise_overlap_matrix,
        pairwise_overlap_matrix_distributed,
    )

    # exact regime (theta == 1 everywhere): known overlaps
    rows = []
    for key, lo, hi in (("A", 0, 50), ("B", 25, 75), ("C", 100, 120)):
        for v in range(lo, hi):
            rows.append({"source": key, "tokens": [f"t{v}"]})
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(3)
    direct = pairwise_overlap_matrix(ds, "source", k=4096)
    dist = pairwise_overlap_matrix_distributed(ds, "source", k=4096,
                                               n_buckets=8)
    pd.testing.assert_frame_equal(dist, direct)

    # trimmed regime: per-key distinct >> k=16 so thetas differ per key;
    # overlapping ranges exercise the below-other-theta counts, and the
    # zero-overlap pair exercises the all-pairs (not just nonzero) emit
    rows = []
    for key, lo, hi in (("s1", 0, 300), ("s2", 150, 500), ("s3", 600, 680)):
        for v in range(lo, hi):
            rows.append({"source": key, "tokens": [f"tok{v}", f"tok{v + 1}"]})
    ds2 = ray.data.from_pandas(pd.DataFrame(rows)).repartition(6)
    direct2 = pairwise_overlap_matrix(ds2, "source", k=16)
    assert (direct2["n_a"].to_numpy() > 16).any()  # really trimmed
    dist2 = pairwise_overlap_matrix_distributed(ds2, "source", k=16,
                                                n_buckets=4)
    pd.testing.assert_frame_equal(dist2, direct2)


def test_pairwise_overlap_matrix_distributed_edges(ray_session):
    import pandas as pd
    import pytest
    import ray.data

    from cardinalityestimation_ray.pipelines.distinct import (
        pairwise_overlap_matrix_distributed,
    )

    one = ray.data.from_pandas(pd.DataFrame(
        {"source": ["A"] * 5, "tokens": [["x"], ["y"], ["z"], ["x"], ["y"]]}))
    out = pairwise_overlap_matrix_distributed(one, "source")
    assert len(out) == 0
    assert list(out.columns) == ["key_a", "key_b", "n_a", "n_b",
                                 "n_intersection", "jaccard"]

    with pytest.raises(ValueError, match="power of two"):
        pairwise_overlap_matrix_distributed(one, "source", n_buckets=3)
    with pytest.raises(ValueError, match="power of two"):
        pairwise_overlap_matrix_distributed(one, "source", n_buckets=1)


def test_theta_unique_collapse_identical_to_raw(int_collapse_cases):
    """The large-batch unique-before-hash collapse must leave the sketch
    state identical (KMV keeps distinct hashes only, so duplicates are
    no-ops) in both the exact and trimmed regimes, on every branch of the
    collapse."""
    import numpy as np

    from cardinalityestimation_ray.sketches.theta import ThetaSketch

    rng = np.random.default_rng(5)
    for name, vals, _ in int_collapse_cases(
            rng.zipf(1.2, 200_000) % 30_000):
        for k in (256, 1 << 16):  # trimmed and exact regimes
            collapsed = ThetaSketch(k=k)
            collapsed.add_values(vals)
            raw = ThetaSketch(k=k)
            old = ThetaSketch.UNIQUE_COLLAPSE_THRESHOLD
            try:
                ThetaSketch.UNIQUE_COLLAPSE_THRESHOLD = 1 << 62
                raw.add_values(vals)
            finally:
                ThetaSketch.UNIQUE_COLLAPSE_THRESHOLD = old
            assert collapsed.theta64 == raw.theta64, (name, k)
            assert np.array_equal(collapsed.retained, raw.retained), (name, k)


def test_theta_batching_invariant():
    """KMV state is a deterministic function of the SET of hashes seen, so
    chunked adds == one whole-batch add (the stage feeds theta whole
    batches for speed — this is the invariant that makes it legal)."""
    import numpy as np

    from cardinalityestimation_ray.sketches.theta import ThetaSketch

    rng = np.random.default_rng(11)
    vals = (rng.zipf(1.2, 120_000) % 40_000).astype(np.int32)
    whole = ThetaSketch(k=512)
    whole.add_values(vals)
    chunked = ThetaSketch(k=512)
    for lo in range(0, len(vals), 1000):
        chunked.add_values(vals[lo:lo + 1000])
    assert whole.theta64 == chunked.theta64
    assert np.array_equal(whole.retained, chunked.retained)
