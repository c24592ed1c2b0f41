"""Round-4 session-9 pipeline review regressions: SQL null/NaN semantics
and numeric-equality edges that the clean testdata never exercises."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest  # noqa: F401


def test_inner_join_never_matches_null_keys(ray_session):
    """pandas merge treats NaN/None as equal; SQL INNER JOIN does not."""
    import ray.data

    from cardinalityestimation_ray.pipelines.joins import bucketed_inner_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, None, 2], type=pa.int64()),
        "x": pa.array([10, 11, 12], type=pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([None, 2], type=pa.int64()),
        "y": pa.array([20, 21], type=pa.int64())}))
    out = bucketed_inner_join(left, right, "k").to_pandas()
    assert out["k"].tolist() == [2]
    assert out["x"].tolist() == [12] and out["y"].tolist() == [21]


def test_inner_join_keeps_int64_above_2_53(ray_session):
    """The union pads each side with nulls in the other side's columns; a
    padded int64 column once went through pandas as float64, so ids above
    2^53 came back rounded (2^53 + 1 -> 2^53) and typed float64."""
    import ray.data

    from cardinalityestimation_ray.pipelines.joins import bucketed_inner_join

    big = [2**53 + 1, 2**53 + 3]
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2], type=pa.int64()),
        "x": pa.array(big, type=pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2], type=pa.int64()),
        "y": pa.array(big[::-1], type=pa.int64())}))
    out = bucketed_inner_join(left, right, "k", num_buckets=4).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert out["x"].tolist() == big and out["y"].tolist() == big[::-1]
    assert [str(out[c].dtype) for c in ("k", "x", "y")] == ["int64"] * 3


def test_quantile_thresholds_ignore_nan(ray_session):
    """A NaN float passes is_valid and sorts last — it must not be selected
    as a quantile threshold (a NaN threshold made the band filter drop
    EVERY row via the fill_null(False) mask)."""
    import ray.data

    from cardinalityestimation_ray.pipelines.filtering import (
        filter_by_column_quantile,
    )
    from cardinalityestimation_ray.pipelines.quantiles import (
        exact_quantiles_by_key,
    )

    vals = [float(i) for i in range(1, 20)] + [np.nan] * 5
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(vals)), type=pa.int64()),
        "v": pa.array(vals, type=pa.float64())}))
    q = exact_quantiles_by_key(ds, "v", qs=[0.0, 1.0])
    got = dict(zip(q["q"], q["value"]))
    assert got[0.0] == 1.0 and got[1.0] == 19.0  # NaN never ranks
    kept = filter_by_column_quantile(ds, "v", q_low=0.0, q_high=1.0)
    kept_df = kept.to_pandas()
    # every real value passes the full band; NaN rows never pass
    assert len(kept_df) == 19 and not kept_df["v"].isna().any()


def test_minhash_text_verify_tolerates_null_texts(ray_session):
    """Null texts share identical signatures (hashed like ''), so they form
    a phase-1 candidate pair — the text-verify mode must score them as
    empty strings, not crash np.unique on None."""
    import ray.data

    from cardinalityestimation_ray.pipelines.dedup import minhash_dedup_pairs

    df = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([None, None, "a real document body here", ""],
                         type=pa.string()),
    })
    pairs = minhash_dedup_pairs(ray.data.from_arrow(df),
                                verify="char_ngram", threshold=0.9,
                                num_perm=16, num_bands=4)
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    # nulls and the empty string all verify as "" -> mutual exact dups
    assert {(0, 1), (0, 3), (1, 3)} <= found
    assert not any(2 in p for p in found)


def test_tumbling_distinct_agg_preserves_key_dtype(ray_session):
    """An int64 key must come back int64, not the string split from the
    composite window key."""
    import ray.data

    from cardinalityestimation_ray.pipelines.windows import (
        tumbling_distinct_agg,
    )

    tbl = pa.table({
        "k": pa.array([7, 7, 8], type=pa.int64()),
        "ts": pa.array([pd.Timestamp("2024-01-01 00:01"),
                        pd.Timestamp("2024-01-01 00:02"),
                        pd.Timestamp("2024-01-01 00:03")]),
        "user_id": pa.array([1, 2, 1], type=pa.int64()),
    })
    out = tumbling_distinct_agg(ray.data.from_arrow(tbl), key_column="k",
                                ts_column="ts", id_column="user_id")
    assert out["k"].dtype == np.int64
    assert sorted(out["k"].tolist()) == [7, 8]
    assert out.loc[out["k"] == 7, "distinct_ids"].iloc[0] == 2


def test_topk_per_group_ranks_string_nulls_last(ray_session):
    """Object-dtype None crashed np.unique inside the top-k ranking; string
    nulls now rank last like NaN/NaT."""
    import ray.data

    from cardinalityestimation_ray.pipelines.ranking import topk_per_group

    tbl = pa.table({
        "g": pa.array(["a", "a", "a"], type=pa.string()),
        "v": pa.array(["zz", None, "mm"], type=pa.string()),
        "id": pa.array([1, 2, 3], type=pa.int64()),
    })
    out = topk_per_group(ray.data.from_arrow(tbl), "g", "v", 2,
                         tie_col="id").to_pandas()
    assert out["id"].tolist() == [1, 3]  # null row never beats real values


def test_semi_join_int_probe_beyond_2pow53(ray_session):
    """An int64 probe whose float64 cast is lossy cannot equal ANY float
    build key — it must not round onto a nearby one (and with negate=True
    it must be kept)."""
    import ray.data

    from cardinalityestimation_ray.pipelines.membership import (
        broadcast_semi_join,
    )

    build = np.array([9007199254740992.0, 0.5])  # fractional set stays float
    probe = ray.data.from_arrow(pa.table({
        "k": pa.array([9007199254740993, 9007199254740992, 7],
                      type=pa.int64())}))
    kept = broadcast_semi_join(probe, build, column="k").to_pandas()
    assert kept["k"].tolist() == [9007199254740992]
    anti = broadcast_semi_join(probe, build, column="k",
                               negate=True).to_pandas()
    assert sorted(anti["k"].tolist()) == [7, 9007199254740993]


def test_ann_rejects_string_ids_early(ray_session):
    import ray.data

    from cardinalityestimation_ray.pipelines.ann import (
        ann_topk_brute,
        ann_topk_ivf,
    )

    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(["a", "b"], type=pa.string()),
        "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]],
                              type=pa.list_(pa.float32())),
    }))
    q = np.eye(2, dtype=np.float32)
    with pytest.raises(ValueError, match="integer type"):
        ann_topk_brute(ds, q, k=1)
    with pytest.raises(ValueError, match="integer type"):
        ann_topk_ivf(ds, q, k=1)


def test_minhash_est_margin_widens_text_verify(ray_session):
    """est_margin=0.0 exact-verifies every cross-group candidate; the
    default 0.8 margin is documented and must accept explicit override."""
    import ray.data

    from cardinalityestimation_ray.pipelines.dedup import minhash_dedup_pairs

    base = ("the quick brown fox jumps over the lazy dog again and again "
            "in the same field every single day of the long summer")
    docs = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array([base, base + " extra tail"], type=pa.string()),
    })
    wide = minhash_dedup_pairs(ray.data.from_arrow(docs),
                               verify="char_ngram", threshold=0.7,
                               est_margin=0.0, num_perm=16, num_bands=8)
    assert (0, 1) in set(zip(wide["id_a"], wide["id_b"]))


def test_global_token_partials_skip_parents_keep_null_contract():
    """The flatten returns row offsets, not parent indices; null elements
    are dropped with the offsets following them, so the HLL partial's blob
    is byte-identical to the blob of the same lists with the nulls
    removed."""
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        _flatten_list_column,
    )

    typ = pa.list_(pa.int32())
    dirty = pa.table({"tokens": pa.array(
        [[1, None, 2], None, [], [None], [3, 4, None]], type=typ)})
    clean = pa.table({"tokens": pa.array(
        [[1, 2], None, [], [], [3, 4]], type=typ)})
    values, offsets = _flatten_list_column(dirty["tokens"])
    assert values.dtype == np.int32
    assert values.tolist() == [1, 2, 3, 4]
    assert offsets.tolist() == [0, 2, 2, 2, 2, 4]
    stage = SketchPartials(b=12)
    assert stage(dirty).equals(stage(clean))
