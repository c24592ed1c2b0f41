"""Embedding analytics: centroid/norm parity with numpy references across
block layouts; ragged and null vectors rejected loudly."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from cardinalityestimation_ray.pipelines.embeddings import (
    label_centroids,
    norm_stats_by_label,
)


@pytest.fixture(scope="module")
def _ray(ray_session):
    return ray_session


def _ds(vectors, labels, n_blocks=1):
    import ray.data

    df = pd.DataFrame({"embedding": [list(map(float, v)) for v in vectors],
                       "label": labels})
    ds = ray.data.from_pandas(df)
    return ds.repartition(n_blocks) if n_blocks > 1 else ds


@pytest.mark.parametrize("n_blocks", [1, 4])
def test_centroids_match_numpy(_ray, n_blocks):
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(200, 8)).astype(np.float32)
    labels = rng.integers(0, 3, 200)
    got = label_centroids(_ds(mat, labels, n_blocks))
    for lab in range(3):
        want = mat[labels == lab].astype(np.float64).mean(axis=0)
        sub = got[got["label"] == lab].sort_values("dim")
        assert sub["n"].eq((labels == lab).sum()).all()
        np.testing.assert_allclose(sub["centroid"], want, rtol=1e-9)
    assert got["dim"].min() == 1 and got["dim"].max() == 8


def test_norm_stats_match_numpy(_ray):
    rng = np.random.default_rng(6)
    mat = rng.normal(size=(100, 16)).astype(np.float32)
    labels = rng.integers(0, 2, 100)
    got = norm_stats_by_label(_ds(mat, labels, 3))
    norms = np.sqrt((mat.astype(np.float64) ** 2).sum(axis=1))
    for lab in range(2):
        sub = got[got["label"] == lab].iloc[0]
        sel = norms[labels == lab]
        assert sub["n"] == len(sel)
        assert sub["avg_norm"] == pytest.approx(sel.mean())
        assert sub["min_norm"] == pytest.approx(sel.min())
        assert sub["max_norm"] == pytest.approx(sel.max())


def test_ragged_vectors_raise(_ray):
    ds = _ds([[1.0, 2.0], [1.0, 2.0, 3.0]], [0, 0])
    with pytest.raises(Exception, match="ragged"):
        label_centroids(ds)


def test_null_vectors_raise(_ray):
    import pyarrow as pa
    import ray.data

    tbl = pa.table({
        "embedding": pa.array([[1.0, 2.0], None],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0, 1], pa.int32()),
    })
    with pytest.raises(Exception, match="null"):
        norm_stats_by_label(ray.data.from_arrow(tbl))


def test_empty(_ray):
    got = label_centroids(_ds([], []))
    assert len(got) == 0
    got = norm_stats_by_label(_ds([], []))
    assert len(got) == 0


def test_null_labels_dropped(_ray):
    import pyarrow as pa
    import ray.data

    tbl = pa.table({
        "embedding": pa.array([[1.0, 0.0], [0.0, 1.0], [3.0, 4.0]],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0, None, 0], pa.int32()),
    })
    got = label_centroids(ray.data.from_arrow(tbl))
    assert set(got["label"]) == {0}
    assert got[got["dim"] == 1]["centroid"].iloc[0] == pytest.approx(2.0)
    norms = norm_stats_by_label(ray.data.from_arrow(tbl))
    assert norms["n"].tolist() == [2]


def test_nearest_centroid_matches_numpy(_ray):
    import ray.data

    rng = np.random.default_rng(11)
    mat = rng.normal(size=(120, 6)).astype(np.float32)
    labels = rng.integers(0, 4, 120)
    df = pd.DataFrame({
        "vec_id": np.arange(120),
        "embedding": [list(map(float, v)) for v in mat],
        "label": labels,
    })
    ds = ray.data.from_pandas(df).repartition(3)

    from cardinalityestimation_ray.pipelines.embeddings import (
        assign_nearest_centroid,
    )

    cents = label_centroids(ds)
    got = (assign_nearest_centroid(ds, cents).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    # reference: centroid matrix + brute-force argmin with label tiebreak,
    # compared PER ROW via vec_id (a label permutation must fail)
    cmat = np.stack([mat[labels == k].astype(np.float64).mean(axis=0)
                     for k in range(4)])
    d = np.sqrt(((mat.astype(np.float64)[:, None, :] - cmat[None]) ** 2)
                .sum(axis=2))
    want = np.argmin(np.floor(d * 1e9).astype(np.int64), axis=1)
    assert got["vec_id"].tolist() == list(range(120))
    assert got["nearest_label"].tolist() == want.tolist()
    np.testing.assert_allclose(got["dist"],
                               d[np.arange(120), want], rtol=1e-9)


def test_nearest_centroid_dim_mismatch(_ray):
    from cardinalityestimation_ray.pipelines.embeddings import (
        assign_nearest_centroid,
    )

    ds = _ds(np.ones((4, 3), np.float32), [0, 0, 1, 1], 1)
    cents = label_centroids(_ds(np.ones((4, 5), np.float32), [0, 0, 1, 1]))
    with pytest.raises(Exception, match="dim"):
        assign_nearest_centroid(ds, cents, id_column="label").to_pandas()


# --- ann helpers (pure-unit, no Ray) --------------------------------------


def test_ann_to_matrix_layouts():
    """vector_matrix (the one vector-column reader of ANN, embeddings and
    embedding dedup) must read list / large_list / fixed_size_list columns
    via the zero-copy flatten path (incl. sliced arrays), keep the value
    dtype, and raise on null or ragged rows."""
    import pyarrow as pa

    from cardinalityestimation_ray.functions.text import vector_matrix

    mat = np.arange(12, dtype=np.float32).reshape(4, 3)
    for typ in (pa.list_(pa.float32()), pa.large_list(pa.float32()),
                pa.list_(pa.float32(), 3), pa.list_(pa.float64())):
        arr = pa.array([list(r) for r in mat], type=typ)
        assert vector_matrix(arr).dtype == typ.value_type.to_pandas_dtype()
        np.testing.assert_array_equal(vector_matrix(arr), mat)
        # sliced view must not leak neighbor rows
        np.testing.assert_array_equal(vector_matrix(arr.slice(1, 2)),
                                      mat[1:3])
        chunked = pa.chunked_array([arr.slice(0, 2), arr.slice(2, 2)])
        np.testing.assert_array_equal(vector_matrix(chunked), mat)

    with pytest.raises(ValueError, match="null vec row"):
        vector_matrix(pa.array([[1.0, 2.0], None], pa.list_(pa.float32())),
                      "vec")
    with pytest.raises(ValueError, match="ragged"):
        vector_matrix(pa.array([[1.0, 2.0], [3.0]], pa.list_(pa.float32())))
    assert vector_matrix(pa.array([], pa.list_(pa.float32()))).shape == (0, 0)


def test_embedding_dedup_rejects_null_and_ragged_rows(_ray):
    """Embedding near-dup reads its vectors through the same reader, so a
    null or ragged row raises its named ValueError there too."""
    import pyarrow as pa
    import ray.data

    from cardinalityestimation_ray.pipelines.dedup import (
        embedding_dedup_pairs,
    )

    # 40 rows alternating two kinds, so every block holds both
    for rows, match in (([[1.0, 2.0], None] * 20, "null embedding row"),
                        ([[1.0, 2.0], [3.0]] * 20, "ragged embedding")):
        tbl = pa.table({
            "vec_id": pa.array(np.arange(40), pa.int64()),
            "embedding": pa.array(rows, pa.list_(pa.float32())),
        })
        with pytest.raises(Exception, match=match):
            embedding_dedup_pairs(ray.data.from_arrow(tbl))


def test_ann_finalize_topk_matches_pandas_reference():
    """The lexsort finalize must equal the per-group sort_values reference
    (cosine desc, id asc tie-break) including duplicate-cosine ties."""
    from cardinalityestimation_ray.pipelines.ann import _finalize_topk

    rng = np.random.default_rng(7)
    n = 500
    partials = pd.DataFrame({
        "query_id": rng.integers(0, 5, n),
        "vec_id": rng.permutation(n).astype(np.int64),
        # quantized cosines force plenty of exact ties
        "cosine": np.round(rng.random(n), 2),
    })
    k = 7
    got = _finalize_topk(partials, k, "vec_id")

    rows = []
    for qid, grp in partials.groupby("query_id"):
        top = grp.sort_values(["cosine", "vec_id"],
                              ascending=[False, True]).head(k)
        for rank, (_, row) in enumerate(top.iterrows()):
            rows.append((int(qid), rank, int(row["vec_id"]),
                         float(row["cosine"])))
    want = pd.DataFrame(rows, columns=["query_id", "rank", "vec_id", "cosine"])
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)

    empty = _finalize_topk(pd.DataFrame(), k, "vec_id")
    assert list(empty.columns) == ["query_id", "rank", "vec_id", "cosine"]
    assert len(empty) == 0
