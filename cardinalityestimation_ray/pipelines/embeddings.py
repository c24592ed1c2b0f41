"""Embedding-column analytics: per-label centroids and norm statistics —
the standard class-prototype / embedding-health checks run over a vector
column before clustering or nearest-centroid labeling.

Ray-Data shape: one ``map_batches`` pass folds each batch to per-label
partials and only the labels x dims table reaches the driver. Float
accumulation goes through :mod:`..functions.detsum` superaccumulator
limbs (exact fixed-point int64 lanes), so the aggregated sums are
BITWISE-REPRODUCIBLE across block layouts and parallelism levels — Ray's
groupby combines integer limb columns (associative, exact) and the single
float rounding happens once on the driver, yielding the correctly-rounded
true sum (== ``math.fsum`` of the inputs). Accumulation is float64
regardless of the stored float32 values (parity with SQL ``avg``).

The vector column is ``list<float>``; every row must have the same
length (validated loudly — a ragged embedding column is a data bug, not
a case to paper over). Rows with a NULL label are dropped (the keyed
stages' convention); NULL vectors raise.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.detsum import (
    N_LIMBS,
    accumulate_limbs,
    blob_to_limbs,
    detsum_aggregate,
    limbs_to_blobs,
    limbs_to_float,
)
from ..functions.text import vector_matrix
from ..sources.io import typed_frame


def _limb_col(limbs: np.ndarray, rows_per_blob: int = 1) -> pa.Array:
    """Binary limb-blob column from an (n_keys, N_LIMBS) array."""
    return pa.array(limbs_to_blobs(limbs, rows_per_blob), pa.binary())


def label_centroids(ds, *, vector_column: str = "embedding",
                    label_column: str = "label") -> pd.DataFrame:
    """Per-label mean vector, as (label, dim, centroid, n) rows.

    ``dim`` is 1-based (matching SQL list indexing, so the oracle is
    ``avg(embedding[dim]) ... GROUP BY label, dim``). The per-cell sums
    accumulate through exact superaccumulator limbs, so the centroids are
    bit-identical for any block layout / parallelism level.
    """
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        lab_col = batch[label_column]
        if lab_col.null_count:
            import pyarrow.compute as pc

            batch = batch.filter(pc.is_valid(lab_col))
        mat = vector_matrix(batch[vector_column],
                            vector_column).astype(np.float64)
        labels = batch[label_column].to_numpy(zero_copy_only=False)
        if mat.shape[0] == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64()),
                             "limbs": pa.array([], pa.binary())})
        uniq, codes = np.unique(labels, return_inverse=True)
        k, d = len(uniq), mat.shape[1]
        cell = np.repeat(codes * d, d) + np.tile(np.arange(d), len(codes))
        limbs = accumulate_limbs(mat.reshape(-1), cell, k * d)
        cnt = np.bincount(codes, minlength=k).astype(np.int64)
        # one blob per label packing all d dim-sums — the groupby has
        # |labels| groups, not |labels| x d
        return pa.table({
            "label": pa.array(uniq.astype(np.int64)),
            "cnt": pa.array(cnt),
            "limbs": _limb_col(limbs, rows_per_blob=d),
        })

    agg = (ds.map_batches(partials, batch_format="pyarrow")
           .groupby("label")
           .aggregate(Sum("cnt", alias_name="n"),
                      detsum_aggregate("limbs", alias_name="s",
                                       finalize="blob"))
           .to_pandas())
    if len(agg) == 0:
        return typed_frame(None, {"label": "int64", "dim": "int64",
                                  "centroid": "float64", "n": "int64"})
    labels = agg["label"].to_numpy().astype(np.int64)
    counts = agg["n"].to_numpy().astype(np.int64)
    sums = [blob_to_limbs(blob) for blob in agg["s"]]
    d = sums[0].shape[0]
    out = pd.DataFrame({
        "label": np.repeat(labels, d),
        "dim": np.tile(np.arange(1, d + 1), len(labels)),
        "centroid": np.array([limbs_to_float(row)
                              for limbs in sums for row in limbs])
        / np.repeat(counts, d),
        "n": np.repeat(counts, d),
    })
    return out.sort_values(["label", "dim"]).reset_index(drop=True)


def norm_stats_by_label(ds, *, vector_column: str = "embedding",
                        label_column: str = "label") -> pd.DataFrame:
    """Per-label embedding-norm health stats: (label, n, avg_norm,
    min_norm, max_norm) over L2 norms.

    The per-row norm is layout-invariant (one numpy reduction along a
    fixed axis); the cross-row sum goes through exact superaccumulator
    limbs, so avg_norm is bit-identical for any block layout. Min/max/n
    are commutative-exact already.
    """
    from ray.data.aggregate import Max, Min, Sum

    def norms(batch: pa.Table) -> pa.Table:
        lab_col = batch[label_column]
        if lab_col.null_count:
            import pyarrow.compute as pc

            batch = batch.filter(pc.is_valid(lab_col))
        mat = vector_matrix(batch[vector_column],
                            vector_column).astype(np.float64)
        labels = batch[label_column].to_numpy(zero_copy_only=False)
        if mat.shape[0] == 0:
            empty = np.zeros((0, N_LIMBS), dtype=np.int64)
            return pa.table({"label": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64()),
                             "lo": pa.array([], pa.float64()),
                             "hi": pa.array([], pa.float64()),
                             "limbs": _limb_col(empty)})
        n = np.sqrt((mat * mat).sum(axis=1)).astype(np.float64)
        uniq, codes = np.unique(labels, return_inverse=True)
        k = len(uniq)
        limbs = accumulate_limbs(n, codes, k)
        lo = np.full(k, np.inf)
        hi = np.full(k, -np.inf)
        np.minimum.at(lo, codes, n)
        np.maximum.at(hi, codes, n)
        return pa.table({
            "label": pa.array(uniq.astype(np.int64)),
            "cnt": pa.array(np.bincount(codes, minlength=k)
                            .astype(np.int64)),
            "lo": pa.array(lo),
            "hi": pa.array(hi),
            "limbs": _limb_col(limbs),
        })

    agg = (ds.map_batches(norms, batch_format="pyarrow")
           .groupby("label")
           .aggregate(Sum("cnt", alias_name="n"),
                      Min("lo", alias_name="min_norm"),
                      Max("hi", alias_name="max_norm"),
                      detsum_aggregate("limbs", alias_name="norm_sum"))
           .to_pandas())
    if len(agg) == 0:
        return typed_frame(None, {"label": "int64", "n": "int64",
                                  "avg_norm": "float64", "min_norm": "float64",
                                  "max_norm": "float64"})
    agg["avg_norm"] = agg["norm_sum"].to_numpy() / agg["n"].to_numpy()
    agg["label"] = agg["label"].astype("int64")
    agg["n"] = agg["n"].astype("int64")
    return (agg[["label", "n", "avg_norm", "min_norm", "max_norm"]]
            .sort_values("label").reset_index(drop=True))


def assign_nearest_centroid(ds, centroids: pd.DataFrame, *,
                            vector_column: str = "embedding",
                            id_column: str = "vec_id"):
    """Nearest-centroid labeling: each vector gets the label of the
    closest centroid by Euclidean distance — the classify half of
    centroid-based clustering / label propagation.

    ``centroids`` is the (label, dim, centroid) long-form frame
    :func:`label_centroids` returns (1-based dims). The centroid matrix
    broadcasts once via ``ray.put``; each batch computes its (n, k)
    distance matrix with one vectorized pass. Selection uses the
    QUANTIZED distance ``floor(dist * 1e9)`` with the label as tie-break,
    so it is deterministic and SQL-reproducible (``list_distance`` +
    ``row_number``). Distances use the direct ``sqrt(sum((x - c)^2))``
    form for float parity with SQL ``list_distance``.

    Returns a Dataset of (id, nearest_label, dist).
    """
    import ray

    wide = centroids.pivot(index="label", columns="dim", values="centroid")
    wide = wide.sort_index()
    labels_arr = wide.index.to_numpy(np.int64)
    cmat = wide.to_numpy(np.float64)  # (k, d), dims 1..d in column order
    if np.isnan(cmat).any():
        raise ValueError("centroid table has missing (label, dim) cells")
    table_ref = ray.put((labels_arr, cmat))

    class Assign:
        def __init__(self):
            self.labels, self.cmat = ray.get(table_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = vector_matrix(batch[vector_column],
                                vector_column).astype(np.float64)
            n = mat.shape[0]
            if n == 0:
                return pa.table({
                    id_column: batch[id_column],
                    "nearest_label": pa.array([], pa.int64()),
                    "dist": pa.array([], pa.float64()),
                })
            if mat.shape[1] != self.cmat.shape[1]:
                raise ValueError(
                    f"vector dim {mat.shape[1]} != centroid dim "
                    f"{self.cmat.shape[1]}")
            # direct (x - c)^2 per pair: (n, k, d) reduced over d — same
            # arithmetic as SQL list_distance (no |x|^2+|c|^2-2xc trick,
            # which differs in the last ulp)
            diff = mat[:, None, :] - self.cmat[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            qd = np.floor(dist * 1e9).astype(np.int64)
            best = np.argmin(qd, axis=1)  # argmin takes the FIRST minimum;
            # labels are sorted ascending, so ties pick the smallest label
            rows = np.arange(n)
            return pa.table({
                id_column: batch[id_column],
                "nearest_label": pa.array(self.labels[best]),
                "dist": pa.array(dist[rows, best]),
            })

    return ds.map_batches(Assign, batch_format="pyarrow",
                          concurrency=(1, 8))
