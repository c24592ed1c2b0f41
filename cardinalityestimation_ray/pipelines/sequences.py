"""Per-key event-sequence analytics over the events stream table:

- **transition counts** (Markov / funnel analysis): how often each
  ``event_type -> event_type`` step occurs within a user's time-ordered
  stream;
- **rolling aggregates**: each event annotated with the mean of its
  trailing window of values (SQL ``ROWS k PRECEDING`` frame) — classic
  event-stream feature engineering.

Both use the same distributed shape as the session windows
(`windows.session_window_stats`): keys hash-partition into a bounded
number of buckets and each bucket runs ONE vectorized lexsort + segmented
scan — no per-key Python dispatch, per-task work bounded by bucket size.
The scan orders by (key, ts, event_id) — a TOTAL order, so results are
deterministic and SQL-window-reproducible even with tied timestamps.
Null keys, null timestamps, and (for the transition matrix) null event
types are dropped before the scan — the keyed-stage convention, stated
in each oracle (review fix: pandas' groupby silently dropped null-type
PAIRS while the lag() oracle kept (type, NULL) rows; filtering null
types up front makes both sides agree by construction).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.io import typed_frame
from .windows import _drop_null_ts, _key_bucket, _ts_micros


def _bucketed(events_ds, columns: dict, *, key_column: str,
              ts_column: str, id_column: str, num_buckets: int,
              drop_null_columns: tuple = ()):
    """Project to (key, _ts_us, id, *columns) with a hash-bucket column;
    rows with a null key / ts / any ``drop_null_columns`` value drop."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        batch = _drop_null_ts(batch, ts_column)
        for col_name in drop_null_columns:
            col = batch[col_name]
            if col.null_count:
                batch = batch.filter(pc.is_valid(col))
        keys = batch[key_column]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        valid = pc.is_valid(keys)
        if not pc.all(valid).as_py():
            batch = batch.filter(valid)
            keys = keys.filter(valid)
        ts = batch[ts_column]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        cols = {
            key_column: keys,
            "_ts_us": _ts_micros(ts),
            id_column: batch[id_column],
        }
        for name in columns:
            cols[name] = batch[name]
        cols["_bucket"] = pa.array(_key_bucket(keys, num_buckets))
        return pa.table(cols)

    return events_ds.map_batches(add_bucket, batch_format="pyarrow")


def event_transition_counts(events_ds, *, key_column: str = "user_id",
                            ts_column: str = "ts",
                            id_column: str = "event_id",
                            type_column: str = "event_type",
                            num_buckets: int = 256) -> pd.DataFrame:
    """Global (from_type, to_type, cnt) over consecutive events of each
    key ordered by (ts, id) — the user-journey transition matrix.

    Rows with a null event type are dropped BEFORE pairing (so a
    [a, NULL, b] stream yields the a->b transition; the SQL oracle
    filters null types identically). Per-bucket segmented scan emits
    per-bucket partial counts; one small ``groupby(from, to).sum``
    reduces them (transition matrix is |types|^2-bounded, never
    row-scale).
    """
    from ray.data.aggregate import Sum

    bucketed = _bucketed(events_ds, {type_column: None},
                         key_column=key_column, ts_column=ts_column,
                         id_column=id_column, num_buckets=num_buckets,
                         drop_null_columns=(type_column,))

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        def empty() -> pd.DataFrame:
            # sentinel dtypes follow the input column so every bucket
            # emits the same schema (review fix: a hardcoded object dtype
            # mismatched int-typed event columns across blocks)
            tdt = group[type_column].dtype if len(group.columns) else "object"
            return typed_frame(None, {"from_type": tdt, "to_type": tdt,
                                      "cnt": "int64"})

        if len(group) == 0:
            return empty()
        codes, _ = pd.factorize(group[key_column].to_numpy())
        ts = group["_ts_us"].to_numpy()
        ids = group[id_column].to_numpy()
        order = np.lexsort((ids, ts, codes))
        c = codes[order]
        types = group[type_column].to_numpy()[order]
        same = c[1:] == c[:-1]
        frm = types[:-1][same]
        to = types[1:][same]
        if len(frm) == 0:
            return empty()
        out = (pd.DataFrame({"from_type": frm, "to_type": to})
               .groupby(["from_type", "to_type"], sort=False)
               .size().rename("cnt").reset_index())
        return out

    partial = (bucketed.groupby("_bucket")
               .map_groups(per_bucket, batch_format="pandas"))
    agg = typed_frame(partial.groupby(["from_type", "to_type"])
                      .aggregate(Sum("cnt", alias_name="cnt")),
                      {"from_type": "object", "to_type": "object",
                       "cnt": "int64"})
    if "_bucket" in agg.columns:
        agg = agg.drop(columns=["_bucket"])
    agg["cnt"] = agg["cnt"].astype("int64")
    return (agg.sort_values(["from_type", "to_type"])
            .reset_index(drop=True))


def rolling_mean_by_key(events_ds, *, value_column: str = "value",
                        window: int = 4, key_column: str = "user_id",
                        ts_column: str = "ts",
                        id_column: str = "event_id",
                        num_buckets: int = 256):
    """Each event annotated with the mean of its own + the (window-1)
    preceding values of the same key, ordered by (ts, id) — SQL::

        avg(value) OVER (PARTITION BY key ORDER BY ts, id
                         ROWS window-1 PRECEDING)

    Returns a Dataset of (id, key, rolling_mean). Null values propagate
    as SQL avg does (nulls excluded from numerator AND denominator) via
    paired (value-as-0, is-valid) window sums; a window whose values are
    ALL null yields NaN — pandas' float-null representation, identical to
    how DuckDB's fetchdf renders SQL NULL, so oracle compares agree (an
    Arrow-level consumer wanting a true null should mask on NaN). Sums are DIRECT shifted
    adds, O(window * n) vectorized — deliberately NOT a cumsum-difference
    scheme, which leaks prefix-magnitude rounding error into near-zero
    window sums. Meant for small feature windows (k <= ~64).
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    bucketed = _bucketed(events_ds, {value_column: None},
                         key_column=key_column, ts_column=ts_column,
                         id_column=id_column, num_buckets=num_buckets)

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) == 0:
            return typed_frame(None, {id_column: "int64",
                                      key_column: group[key_column].dtype,
                                      "rolling_mean": "float64"})
        codes, _ = pd.factorize(group[key_column].to_numpy())
        ts = group["_ts_us"].to_numpy()
        ids = group[id_column].to_numpy()
        vals = group[value_column].to_numpy(dtype=np.float64, na_value=np.nan)
        order = np.lexsort((ids, ts, codes))
        c, v = codes[order], vals[order]
        valid = ~np.isnan(v)
        v0 = np.where(valid, v, 0.0)
        # segmented trailing-window sums via DIRECT shifted adds — O(window
        # * n) vectorized, and numerically exact for the small windows this
        # is meant for (a cumsum-difference scheme leaks prefix-magnitude
        # rounding error into near-zero window sums)
        n_rows = len(c)
        wsum = v0.copy()
        wcnt = valid.astype(np.int64)
        for k in range(1, window):
            if k >= n_rows:
                break
            same_seg = c[k:] == c[:-k]  # sorted by code: equal => same key
            wsum[k:] += np.where(same_seg, v0[:-k], 0.0)
            wcnt[k:] += np.where(same_seg, valid[:-k], False)
        mean = np.where(wcnt > 0, wsum / np.maximum(wcnt, 1), np.nan)
        return pd.DataFrame({
            id_column: ids[order].astype(np.int64),
            key_column: group[key_column].to_numpy()[order],
            "rolling_mean": mean,
        })

    out = (bucketed.groupby("_bucket")
           .map_groups(per_bucket, batch_format="pandas"))
    return out
