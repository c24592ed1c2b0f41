"""Exact grouped scalar statistics over the tokens corpus (Sum/Min/Max/Count
ride-alongs — the reference's CountAdditions exact-counter generalized,
CardinalityEstimator.cs:321)."""

from __future__ import annotations

import pandas as pd

from ..sources.io import typed_frame


def ntok_stats_by_source(tokens_ds) -> pd.DataFrame:
    """Per-source exact n_tok statistics (count/sum/min/max). Null sources
    are excluded (engine-wide keyed convention; the oracle states
    ``WHERE source IS NOT NULL`` — and Ray's sort-based groupby can crash
    on a null string key, so the drop is required, not stylistic)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Min, Sum

    def drop_null_source(batch: pa.Table) -> pa.Table:
        col = batch["source"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if col.null_count:
            batch = batch.filter(pc.is_valid(col))
        return batch

    tokens_ds = tokens_ds.map_batches(drop_null_source, batch_format="pyarrow")
    out = tokens_ds.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_tok", alias_name="total_tokens"),
        Min("n_tok", alias_name="min_tokens"),
        Max("n_tok", alias_name="max_tokens"),
    )
    df = typed_frame(out, {"source": "object", "n_docs": "int64",
                           "total_tokens": "int64", "min_tokens": "int64",
                           "max_tokens": "int64"})
    return df.sort_values("source").reset_index(drop=True)


def column_histogram(ds, column: str, *, lo: float, hi: float,
                     n_bins: int) -> pd.DataFrame:
    """Exact fixed-width histogram of a numeric column, distributed.

    Per-batch ``np.bincount`` combiner emits at most ``n_bins`` (bin, cnt)
    rows per batch; one small ``groupby(bin).sum`` reduces them — the
    all-to-all moves bins-per-batch rows, never the data. Out-of-range
    values clamp into the edge bins and nulls are dropped (SQL WHERE
    semantics).

    Returns (bin, bin_lo, cnt) for NON-EMPTY bins, matching the SQL
    group-by shape::

        SELECT least(greatest(floor((v - lo) / ((hi - lo) / n)), 0), n-1)
               AS bin, count(*) FROM t WHERE v IS NOT NULL GROUP BY bin

    Bin edges are computed with the identical float64 expression on both
    sides, so edge-value binning is bit-reproducible.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    width = (hi - lo) / n_bins

    def batch_bins(batch: pa.Table) -> pa.Table:
        col = batch[column]
        if col.null_count:
            col = col.drop_null()
        v = col.to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]  # NaN floats bin nowhere (like SQL NULLs)
        bins = np.clip(np.floor((v - lo) / width), 0, n_bins - 1)
        cnt = np.bincount(bins.astype(np.int64), minlength=n_bins)
        nz = np.flatnonzero(cnt)
        return pa.table({"bin": pa.array(nz.astype(np.int64)),
                         "cnt": pa.array(cnt[nz].astype(np.int64))})

    out = typed_frame(ds.map_batches(batch_bins, batch_format="pyarrow")
                      .groupby("bin").aggregate(Sum("cnt", alias_name="cnt")),
                      {"bin": "int64", "bin_lo": "float64", "cnt": "int64"})
    out["bin"] = out["bin"].astype("int64")
    out["bin_lo"] = lo + out["bin"].to_numpy(dtype="float64") * width
    return (out[["bin", "bin_lo", "cnt"]]
            .sort_values("bin").reset_index(drop=True))


def column_histogram_by_key(ds, column: str, key_column: str, *,
                            lo: float, hi: float,
                            n_bins: int) -> pd.DataFrame:
    """Per-key exact fixed-width histogram: same combiner shape as
    :func:`column_histogram` but grouped — at most keys x n_bins rows per
    batch enter the single small groupby. Returns (key, bin, bin_lo, cnt)
    for non-empty (key, bin) cells, null keys and NaN values dropped."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    width = (hi - lo) / n_bins

    def batch_bins(batch: pa.Table) -> pa.Table:
        for c in (key_column, column):
            col = batch[c]
            if col.null_count:
                batch = batch.filter(pc.is_valid(col))
        v = batch[column].to_numpy(zero_copy_only=False).astype(np.float64)
        keep = ~np.isnan(v)
        v = v[keep]
        keys = batch[key_column].to_numpy(zero_copy_only=False)[keep]
        bins = np.clip(np.floor((v - lo) / width), 0, n_bins - 1) \
            .astype(np.int64)
        uk, codes = np.unique(keys, return_inverse=True)
        cnt = np.bincount(codes * n_bins + bins,
                          minlength=len(uk) * n_bins)
        nz = np.flatnonzero(cnt)
        return pa.table({
            key_column: pa.array(uk[nz // n_bins]),
            "bin": pa.array((nz % n_bins).astype(np.int64)),
            "cnt": pa.array(cnt[nz].astype(np.int64)),
        })

    out = typed_frame(ds.map_batches(batch_bins, batch_format="pyarrow")
                      .groupby([key_column, "bin"])
                      .aggregate(Sum("cnt", alias_name="cnt")),
                      {key_column: "object", "bin": "int64",
                       "bin_lo": "float64", "cnt": "int64"})
    out["bin"] = out["bin"].astype("int64")
    out["bin_lo"] = lo + out["bin"].to_numpy(dtype="float64") * width
    return (out[[key_column, "bin", "bin_lo", "cnt"]]
            .sort_values([key_column, "bin"]).reset_index(drop=True))
