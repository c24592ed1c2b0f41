"""Windowed aggregates over the events stream table.

Ray Data is a batch engine with no event-time watermarks; windows are
expressed as (SURVEY.md §2.7 / ray guide "streaming-shaped workloads"):

- tumbling windows: a vectorized bucket column + grouped aggregate — the
  shuffle moves per-batch pre-aggregated (key, bucket) partials only;
- session windows: keys hash-partition into a bounded number of buckets
  and each bucket runs ONE vectorized lexsort + np.diff segmented scan
  (round-2 VERDICT fix — no per-key map_groups dispatch; ordering
  assumption: all events of one key land in one bucket, which the hash
  partitioning guarantees).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.detsum import accumulate_limbs, detsum_aggregate, limbs_to_blobs
from ..sources.io import typed_frame


def _exact_window_partials(tbl: pa.Table, key_column: str,
                           value_column: str) -> pa.Table:
    """Per-(key, window_start) combiner row: event count + the value sum
    as an exact superaccumulator limb blob (``functions/detsum.py``), so
    the downstream groupby-merge is integer addition — value_sum comes out
    BITWISE-IDENTICAL for any block layout / parallelism level and equals
    the correctly-rounded true sum. Null values are excluded from the sum
    but counted in n_events (SQL ``sum(value)`` / ``count(*)`` semantics;
    a window whose values are all null sums to 0.0 — stated in the
    oracles via ``coalesce``)."""
    def _arr(col):
        return col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col

    keys = _arr(tbl[key_column]).to_numpy(zero_copy_only=False)
    ws = _arr(tbl["window_start"]).to_numpy(zero_copy_only=False)
    vcol = _arr(tbl[value_column])
    if len(keys) == 0:
        return pa.table({key_column: pa.array([], tbl.schema
                                              .field(key_column).type),
                         "window_start": pa.array([], pa.timestamp("us")),
                         "n_events": pa.array([], pa.int64()),
                         "limbs": pa.array([], pa.binary())})
    uk, kcodes = np.unique(keys, return_inverse=True)
    uw, wcodes = np.unique(ws, return_inverse=True)
    comp = kcodes.astype(np.int64) * len(uw) + wcodes
    uc, ccodes = np.unique(comp, return_inverse=True)
    valid = pc.is_valid(vcol).to_numpy(zero_copy_only=False)
    vals = vcol.to_numpy(zero_copy_only=False).astype(np.float64)
    limbs = accumulate_limbs(vals[valid], ccodes[valid], len(uc))
    return pa.table({
        key_column: pa.array(uk[uc // len(uw)]),
        "window_start": pa.array(uw[uc % len(uw)]).cast(pa.timestamp("us")),
        "n_events": pa.array(np.bincount(ccodes, minlength=len(uc))
                             .astype(np.int64)),
        "limbs": pa.array(limbs_to_blobs(limbs), pa.binary()),
    })


def _ts_micros(ts: pa.Array) -> pa.Array:
    """Timestamp column -> int64 MICROSECONDS, any input resolution.

    A bare ``cast(pa.int64())`` returns the raw tick count — nanoseconds
    for pandas-default timestamp[ns] inputs — which silently made every
    gap/window comparison 1000x stricter (round-3 review regression test).
    """
    return ts.cast(pa.timestamp("us")).cast(pa.int64())


def _drop_null_ts(batch: pa.Table, ts_column: str) -> pa.Table:
    """Rows with a null event time belong to NO window and are dropped
    (round-3 review fix: a null ts crashed the tumbling/sliding cast and
    silently merged into the last session in the segmented scan)."""
    import pyarrow.compute as pc

    col = batch[ts_column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        batch = batch.filter(pc.is_valid(col))
    return batch


def _drop_null_window_rows(batch: pa.Table, ts_column: str,
                           key_column: str) -> pa.Table:
    """Null ts rows belong to no window; null KEY rows are excluded like
    every keyed stage (engine-wide convention — Ray's sort-based groupby
    also crashes on a null string key; round-4 adversarial-sweep fix).
    Oracles state both as ``WHERE ts IS NOT NULL AND key IS NOT NULL``."""
    import pyarrow.compute as pc

    batch = _drop_null_ts(batch, ts_column)
    keys = batch[key_column]
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if keys.null_count:
        batch = batch.filter(pc.is_valid(keys))
    return batch


def tumbling_window_agg(events_ds, *, window_minutes: int = 60,
                        key_column: str = "event_type",
                        ts_column: str = "ts",
                        value_column: str = "value") -> pd.DataFrame:
    """Per (key, tumbling window): exact count and sum.

    Vectorized bucketing inside map_batches (epoch-floor arithmetic), then a
    pre-aggregated combiner so the groupby shuffles one row per
    (key, window) per batch. The value sum rides exact superaccumulator
    limbs, so it is bit-identical across block layouts / parallelism.
    """
    from ray.data.aggregate import Sum

    window_us = np.int64(window_minutes * 60 * 1_000_000)

    def bucketize(batch: pa.Table) -> pa.Table:
        batch = _drop_null_window_rows(batch, ts_column, key_column)
        ts = batch[ts_column]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        micros = _ts_micros(ts).to_numpy(zero_copy_only=False)
        bucket = (micros // window_us) * window_us
        tbl = pa.table({
            key_column: batch[key_column],
            "window_start": pa.array(bucket).cast(pa.timestamp("us")),
            value_column: batch[value_column],
        })
        # combiner: aggregate within the batch before the shuffle
        return _exact_window_partials(tbl, key_column, value_column)

    partial = events_ds.map_batches(bucketize, batch_format="pyarrow")
    out = partial.groupby([key_column, "window_start"]).aggregate(
        detsum_aggregate("limbs", alias_name="value_sum"),
        Sum("n_events", alias_name="n_events"),
    )
    df = typed_frame(out, _window_sum_schema(key_column))
    df = df[[key_column, "window_start", "value_sum", "n_events"]]
    return df.sort_values([key_column, "window_start"]).reset_index(drop=True)


def tumbling_distinct_agg(events_ds, *, window_minutes: int = 60,
                          key_column: str = "event_type",
                          ts_column: str = "ts",
                          id_column: str = "user_id",
                          kind: str = "theta",
                          params: dict | None = None) -> pd.DataFrame:
    """Per (key, tumbling window): DISTINCT-id estimate through a mergeable
    sketch UDAF — the streaming "windowed COUNT(DISTINCT)" that exact
    aggregation cannot do without shuffling every id.

    Composition: vectorized window bucketing (epoch-floor) -> composite
    (key, window) group key -> per-batch sketch partials (KB-sized blobs,
    the ONLY thing that shuffles) -> Ray-native
    ``groupby().aggregate(sketch_merge_aggregate(...))`` tree reduction.
    With the default theta sketch below its retention cap k the estimate
    is EXACT (theta=1, every distinct hash retained), so small-scale runs
    are oracle-checkable against SQL COUNT(DISTINCT) with no tolerance
    while the identical pipeline degrades gracefully to ~1/sqrt(k) RSE at
    web scale.

    Returns (key_column, window_start, distinct_ids) sorted.
    """
    from ..stages.sketch_stages import SketchPartials, sketch_merge_aggregate

    if params is None:
        params = {"k": 4096}
    window_us = np.int64(window_minutes * 60 * 1_000_000)
    sep = "\x1f"  # unit separator: cannot appear in the key values
    # remember the INPUT key dtype: the composite wkey is a string, and the
    # output key column is rebuilt from rsplit — without a cast back, an
    # int64 key came out as the string "7" (round-4 session-9 review fix;
    # sibling tumbling_window_agg preserves the dtype)
    sch = events_ds.schema()
    ktype = (dict(zip(sch.names, sch.types)).get(key_column)
             if sch is not None else None)
    if not isinstance(ktype, pa.DataType):
        # pandas-backed datasets report PYTHON types here; without an
        # Arrow type the key stays string (the pre-fix behavior)
        ktype = None

    def bucketize(batch: pa.Table) -> pa.Table:
        batch = _drop_null_ts(batch, ts_column)
        ts = batch[ts_column]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        micros = _ts_micros(ts).to_numpy(zero_copy_only=False)
        bucket = (micros // window_us) * window_us
        key = batch[key_column]
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        composite = pc.binary_join_element_wise(
            pc.cast(key, pa.string()), pa.scalar(sep),
            pa.array(bucket.astype("U")), pa.scalar(""))
        return pa.table({
            "wkey": composite,
            id_column: batch[id_column],
        })

    partials = events_ds.map_batches(bucketize, batch_format="pyarrow") \
        .map_batches(SketchPartials(kind, id_column, key_column="wkey",
                                    **params),
                     batch_format="pyarrow")
    out = partials.groupby("wkey").aggregate(
        sketch_merge_aggregate(kind, params, finalize="estimate",
                               name="distinct_ids"))
    df = out.to_pandas()
    if len(df) == 0:
        return typed_frame(None, {
            key_column: (pa.array([], type=ktype).to_pandas().dtype
                         if ktype is not None else "object"),
            "window_start": "datetime64[us]",
            "distinct_ids": "int64",
        })
    split = df["wkey"].str.rsplit(sep, n=1, expand=True)
    key_vals = pa.array(split[0].to_numpy(dtype=object))
    if ktype is not None and not pa.types.is_string(ktype) and \
            not pa.types.is_large_string(ktype):
        key_vals = key_vals.cast(ktype)
    df[key_column] = key_vals.to_pandas()
    df["window_start"] = pd.to_datetime(
        split[1].astype(np.int64), unit="us")
    df["distinct_ids"] = df["distinct_ids"].astype("int64")
    return (df[[key_column, "window_start", "distinct_ids"]]
            .sort_values([key_column, "window_start"])
            .reset_index(drop=True))


def _window_sum_schema(key_column: str) -> dict:
    return {key_column: "object", "window_start": "datetime64[us]",
            "value_sum": "float64", "n_events": "int64"}


def sliding_window_agg(events_ds, *, window_minutes: int = 60,
                       slide_minutes: int = 15,
                       key_column: str = "event_type",
                       ts_column: str = "ts",
                       value_column: str = "value") -> pd.DataFrame:
    """Per (key, sliding window) exact count/sum; window length must be a
    multiple of the slide. Each event is replicated into its
    window/slide containing windows inside map_batches (vectorized repeat),
    then the tumbling combiner + grouped sum runs unchanged."""
    from ray.data.aggregate import Sum

    if window_minutes % slide_minutes:
        raise ValueError("window_minutes must be a multiple of slide_minutes")
    k = window_minutes // slide_minutes
    slide_us = np.int64(slide_minutes * 60 * 1_000_000)

    def explode(batch: pa.Table) -> pa.Table:
        batch = _drop_null_window_rows(batch, ts_column, key_column)
        ts = batch[ts_column]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        micros = _ts_micros(ts).to_numpy(zero_copy_only=False)
        base = (micros // slide_us) * slide_us
        n = len(micros)
        starts = (np.repeat(base, k)
                  - np.tile(np.arange(k, dtype=np.int64) * slide_us, n))
        keys = batch[key_column]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        vals = batch[value_column]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), k))
        tbl = pa.table({
            key_column: keys.take(idx),
            "window_start": pa.array(starts).cast(pa.timestamp("us")),
            value_column: vals.take(idx),
        })
        return _exact_window_partials(tbl, key_column, value_column)

    partial = events_ds.map_batches(explode, batch_format="pyarrow")
    out = partial.groupby([key_column, "window_start"]).aggregate(
        detsum_aggregate("limbs", alias_name="value_sum"),
        Sum("n_events", alias_name="n_events"),
    )
    df = typed_frame(out, _window_sum_schema(key_column))
    df = df[[key_column, "window_start", "value_sum", "n_events"]]
    return df.sort_values([key_column, "window_start"]).reset_index(drop=True)


def _key_bucket(keys: pa.Array, num_buckets: int) -> np.ndarray:
    """Hash-bucket a key column (integer or string/binary), vectorized."""
    from ..sketches import hashing

    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if pa.types.is_integer(keys.type):
        # bitwise reinterpretation, NOT a checked Arrow cast — negative ids
        # (sentinel -1 users, signed hash keys) must wrap, not raise
        # (round-3 review fix: cast(pa.uint64()) raised ArrowInvalid)
        h = hashing.splitmix64(
            keys.to_numpy(zero_copy_only=False).astype(np.uint64))
    else:
        h = hashing.hash_arrow_binary(keys, "fnv1a_mix")
    return (h % np.uint64(num_buckets)).astype(np.int32)


def session_window_stats(events_ds, *, gap_minutes: int = 30,
                         key_column: str = "user_id",
                         ts_column: str = "ts",
                         num_buckets: int = 256) -> pd.DataFrame:
    """Per key: number of session windows (gap > gap_minutes starts a new
    session) and the longest session length in events.

    Segmented-scan shape (round-2 VERDICT fix: the old
    ``groupby(key).map_groups`` dispatched one Python call + pandas frame
    per key — a per-group tax at billions of users): keys hash-partition
    into ``num_buckets`` groups, and each bucket runs ONE vectorized pass —
    lexsort by (key, ts), then a single ``np.diff`` segmentation computing
    every key's sessions at once. Null keys are excluded (SQL GROUP BY
    semantics, matching the keyed sketch stages).
    """
    import pyarrow.compute as pc

    gap_us = np.int64(gap_minutes * 60 * 1_000_000)

    def add_bucket(batch: pa.Table) -> pa.Table:
        batch = _drop_null_ts(batch, ts_column)
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
        return pa.table({
            key_column: keys,
            "_ts_us": _ts_micros(ts),
            "_bucket": pa.array(_key_bucket(keys, num_buckets)),
        })

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) == 0:
            return typed_frame(None, {key_column: group[key_column].dtype,
                                      "n_sessions": "int64",
                                      "max_session_events": "int64"})
        keys = group[key_column].to_numpy()
        ts = group["_ts_us"].to_numpy()
        codes, _ = pd.factorize(keys)
        order = np.lexsort((ts, codes))
        c = codes[order]
        t = ts[order]
        new_key = np.r_[True, c[1:] != c[:-1]]
        new_sess = new_key | np.r_[True, (t[1:] - t[:-1]) > gap_us]
        counts = np.bincount(np.cumsum(new_sess) - 1)
        sess_rows = np.flatnonzero(new_sess)
        key_first_sess = np.flatnonzero(new_key[sess_rows])
        n_sessions = np.diff(np.r_[key_first_sess, len(sess_rows)])
        max_events = np.maximum.reduceat(counts, key_first_sess)
        return pd.DataFrame({
            key_column: keys[order][new_key],
            "n_sessions": n_sessions.astype(np.int64),
            "max_session_events": max_events.astype(np.int64),
        })

    out = (events_ds.map_batches(add_bucket, batch_format="pyarrow")
           .groupby("_bucket")
           .map_groups(per_bucket, batch_format="pandas"))
    df = typed_frame(out, {key_column: "object", "n_sessions": "int64",
                           "max_session_events": "int64"})
    if "_bucket" in df.columns:
        df = df.drop(columns=["_bucket"])
    return df.sort_values(key_column).reset_index(drop=True)
