"""Quantile pipelines: t-digest and KLL over a numeric column, global or
per key (approximate, published rank-error bounds; asserted against exact
quantiles in tests), plus EXACT distributed quantiles for discrete columns
via value-count aggregation (oracle-checkable against SQL quantile_disc).

Layout sensitivity (by design): t-digest/KLL compaction depends on
insertion and merge order, so sketch-path quantiles can differ across
block layouts / parallelism levels — always within the rank-error bound
(pinned by the ``ntok_quantile_rank_errors`` oracle). The layout-invariant
twin is the exact value-count path (``exact_quantiles`` /
``ntok_quantiles_exact_by_source`` — bit-identical across parallelism;
COVERAGE.md determinism matrix)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.io import typed_frame
from ..stages.sketch_stages import SketchPartials, tree_merge_partials

_DEFAULT_QS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def _keyed_quantiles_schema(key_column: str) -> dict:
    return {key_column: "object", "q": "float64", "value": "float64",
            "n": "int64"}


def column_quantiles(ds, column: str, *, kind: str = "tdigest",
                     params: dict | None = None,
                     qs=_DEFAULT_QS) -> pd.DataFrame:
    """Global approximate quantiles of ``column`` via t-digest (default) or KLL."""
    if params is None:
        params = {"delta": 200} if kind == "tdigest" else {"k": 200}
    partials = ds.map_batches(
        SketchPartials(kind, column, **params), batch_format="pyarrow")
    sk, total = tree_merge_partials(partials, kind, params)
    if total == 0:
        # keep the non-empty schema (q, value, n) so an empty input stays
        # schema-stable against the SQL oracle (round-5 oracle-eligibility)
        return pd.DataFrame({"q": list(qs), "value": [float("nan")] * len(qs),
                             "n": np.zeros(len(qs), dtype=np.int64)})
    return pd.DataFrame({
        "q": list(qs),
        "value": [sk.quantile(float(q)) for q in qs],
        "n": [total] * len(qs),
    })


def exact_quantiles_by_key(ds, column: str, key_column: str | None = None,
                           *, qs=_DEFAULT_QS) -> pd.DataFrame:
    """EXACT quantiles of a DISCRETE numeric column, distributed.

    The scale-correct exact path for integer / bounded-cardinality columns
    (token counts, lengths, categorical codes): a per-batch ``np.unique``
    combiner reduces each batch to (key, value, count) rows, a single
    groupby sums them, and only the VALUE-COUNT table — bounded by the
    number of distinct values, not the number of rows — reaches the
    driver, where a cumulative-sum rank lookup reads off the quantiles.
    No full sort of the data, no row-scale shuffle. For continuous
    columns whose distinct-value count approaches the row count, use
    :func:`column_quantiles` (t-digest/KLL) instead — documented contract.

    Semantics match SQL ``quantile_disc`` (PostgreSQL
    ``percentile_disc``): the smallest value whose cumulative count
    reaches ``ceil(q * n)`` (at least 1) — so results are
    oracle-checkable with zero tolerance.

    Returns (key_column?, q, value, n) sorted by (key, q).
    """
    from ray.data.aggregate import Sum

    group_cols = ([key_column] if key_column else []) + [column]

    def value_counts(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tbl = pa.table({c: batch[c] for c in group_cols})
        # null values never rank (SQL quantile_disc ignores NULLs; Arrow's
        # group_by would otherwise keep a null-key group whose NaN value
        # could be SELECTED as a threshold — review fix)
        if tbl[column].null_count:
            tbl = tbl.filter(pc.is_valid(tbl[column]))
        # float NaN never ranks either (round-4 session-9 review fix: a
        # NaN passes is_valid, sorts last, and would be SELECTED as a
        # high-quantile threshold — and a NaN threshold makes
        # filter_by_column_quantile drop EVERY row via the fill_null(False)
        # mask). Engine contract: NaN values are excluded from ranking and
        # never pass a quantile band, same as nulls (DuckDB instead orders
        # NaN above all values — documented divergence)
        if pa.types.is_floating(tbl.schema.field(column).type):
            col2 = tbl[column]
            if isinstance(col2, pa.ChunkedArray):
                col2 = col2.combine_chunks()
            nan_mask = pc.is_nan(col2)
            if pc.any(nan_mask).as_py():
                tbl = tbl.filter(pc.invert(nan_mask))
        # null KEYS are excluded (engine-wide keyed convention; Ray's
        # sort-based groupby also crashes on a null string key —
        # round-4 adversarial-sweep fix)
        if key_column and tbl[key_column].null_count:
            tbl = tbl.filter(pc.is_valid(tbl[key_column]))
        return (tbl.group_by(group_cols)
                .aggregate([([], "count_all")])
                .rename_columns(group_cols + ["cnt"]))

    per_value = (ds.map_batches(value_counts, batch_format="pyarrow")
                 .groupby(group_cols[0] if len(group_cols) == 1
                          else group_cols)
                 .aggregate(Sum("cnt", alias_name="cnt")))
    vc = per_value.to_pandas()

    def _quantiles(sub: pd.DataFrame) -> pd.DataFrame:
        sub = sub.sort_values(column)
        values = sub[column].to_numpy()
        cum = np.cumsum(sub["cnt"].to_numpy(np.int64))
        n = int(cum[-1])
        ranks = np.maximum(1, np.ceil(np.asarray(qs, dtype=np.float64) * n))
        idx = np.searchsorted(cum, ranks, side="left")
        return pd.DataFrame({
            "q": np.asarray(qs, dtype=np.float64),
            "value": values[idx],
            "n": np.int64(n),
        })

    if not key_column:
        if len(vc) == 0:
            return pd.DataFrame({"q": np.asarray(qs, dtype=np.float64),
                                 "value": [float("nan")] * len(qs),
                                 "n": np.int64(0)})
        return _quantiles(vc).reset_index(drop=True)
    if len(vc) == 0:
        return typed_frame(None, _keyed_quantiles_schema(key_column))
    out = (vc.groupby(key_column, sort=True, group_keys=True)
           .apply(_quantiles, include_groups=False)
           .reset_index(level=0).reset_index(drop=True))
    return out[[key_column, "q", "value", "n"]]


def column_quantiles_by_key(ds, column: str, key_column: str, *,
                            kind: str = "tdigest", params: dict | None = None,
                            qs=_DEFAULT_QS) -> pd.DataFrame:
    """Per-key approximate quantiles (low-cardinality keys; combiner tree)."""
    if params is None:
        params = {"delta": 200} if kind == "tdigest" else {"k": 200}
    partials = ds.map_batches(
        SketchPartials(kind, column, key_column=key_column, **params),
        batch_format="pyarrow")
    merged = tree_merge_partials(partials, kind, params,
                                 key_column=key_column)
    rows = []
    for key in sorted(merged):
        sk, n = merged[key]
        for q in qs:
            rows.append({key_column: key, "q": q,
                         "value": sk.quantile(float(q)), "n": n})
    return typed_frame(pd.DataFrame(rows), _keyed_quantiles_schema(key_column))


def percentile_ranks(ds, column: str, *, id_column: str):
    """Per-row empirical CDF value (SQL ``cume_dist() OVER (ORDER BY
    column)``): the standard percentile-normalization step for a quality
    signal before thresholding.

    Distributed shape: the VALUE-COUNT table (same combiner as
    :func:`exact_quantiles_by_key` — bounded by distinct values, with the
    same null-value drop) is cumulated on the driver and broadcast via
    ``ray.put`` as (sorted values, cumulative counts); a second stateless
    pass maps each row with one ``searchsorted``. ``cume_dist = (# rows
    with value <= v) / n`` is an exact integer ratio, so the result is
    bit-reproducible against SQL. Null values are dropped (SQL window
    functions rank them separately; callers with nulls should filter
    first — documented contract).

    Returns a Dataset of (id, value, cume_dist).
    """
    import ray
    from ray.data.aggregate import Sum

    def value_counts(batch: pa.Table) -> pa.Table:
        col = batch[column]
        if col.null_count:
            col = col.drop_null()
        tbl = pa.table({column: col})
        return (tbl.group_by([column])
                .aggregate([([], "count_all")])
                .rename_columns([column, "cnt"]))

    vc = (ds.map_batches(value_counts, batch_format="pyarrow")
          .groupby(column).aggregate(Sum("cnt", alias_name="cnt"))
          .to_pandas())
    if len(vc) == 0:
        values = np.array([], dtype=np.float64)
        cum = np.array([], dtype=np.int64)
        n = 0
    else:
        vc = vc.sort_values(column)
        values = vc[column].to_numpy()
        cum = vc["cnt"].to_numpy(np.int64).cumsum()
        n = int(cum[-1])
    table_ref = ray.put((values, cum, n))

    class Rank:
        def __init__(self):
            self.values, self.cum, self.n = ray.get(table_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            col = batch[column]
            if col.null_count:
                batch = batch.filter(pc.is_valid(col))
                col = batch[column]
            v = col.to_numpy(zero_copy_only=False)
            if self.n == 0 or len(v) == 0:
                cd = np.zeros(len(v), dtype=np.float64)
            else:
                pos = np.searchsorted(self.values, v, side="right")
                # pos == 0 would mean a value smaller than every counted
                # value — impossible when ranking the counted dataset
                if np.any(pos == 0):
                    raise ValueError(
                        "value below the broadcast CDF table — rank the "
                        "same dataset the table was built from")
                cd = self.cum[pos - 1] / self.n
            return pa.table({
                id_column: batch[id_column],
                column: col,
                "cume_dist": pa.array(cd.astype(np.float64)),
            })

    return ds.map_batches(Rank, batch_format="pyarrow", concurrency=(1, 8))
