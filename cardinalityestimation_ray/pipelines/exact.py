"""Exact distributed aggregates (the oracle-matchable complements of the
sketches): exact distinct counts via two-level dedup, exact grouped counts.

Pattern: always pre-aggregate/dedupe inside map_batches (combiner) so the
groupby shuffle moves deduped pairs, never raw rows."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..sources.io import typed_frame


def _local_unique_pairs(batch: pa.Table, key_column: str,
                        value_column: str) -> pa.Table:
    """Within-batch dedup of (key, value) pairs (the combiner).

    Null VALUES are excluded — SQL COUNT(DISTINCT v) ignores nulls, and the
    sketch stages already filter them, so keeping them here made the exact
    oracle disagree with its own estimate (round-3 review fix). Null KEYS
    are excluded too (the engine-wide keyed convention, matching the keyed
    sketch stages — and Ray's sort-based groupby crashes outright on a
    null string key; round-4 adversarial-sweep fix). Oracles state it as
    ``WHERE key IS NOT NULL``."""
    import pyarrow.compute as pc

    tbl = batch.select([key_column, value_column])
    if tbl[value_column].null_count:
        tbl = tbl.filter(pc.is_valid(tbl[value_column]))
    if tbl[key_column].null_count:
        tbl = tbl.filter(pc.is_valid(tbl[key_column]))
    return tbl.group_by([key_column, value_column]).aggregate([]).select(
        [key_column, value_column])


def exact_distinct_by_key(ds, value_column: str, key_column: str, *,
                          distinct_name: str = "distinct_values") -> pd.DataFrame:
    """Exact per-key COUNT(DISTINCT value): local pair-dedup inside
    map_batches, global pair-dedup via groupby, then a per-key count.

    Shuffles only deduped (key, value) pairs — the exact-dedup analogue of
    the partial-sketch pattern. Matches DuckDB COUNT(DISTINCT ...) exactly.
    """
    from ray.data.aggregate import Count

    pairs = ds.map_batches(
        lambda b: _local_unique_pairs(b, key_column, value_column),
        batch_format="pyarrow")
    uniq = pairs.groupby([key_column, value_column]).count()
    out = uniq.groupby(key_column).aggregate(Count(alias_name=distinct_name))
    df = typed_frame(out, {key_column: "object", distinct_name: "int64"})
    df = df[[key_column, distinct_name]]
    return df.sort_values(key_column).reset_index(drop=True)


def exact_distinct_global(ds, value_column: str, *,
                          distinct_name: str = "distinct_values") -> pd.DataFrame:
    """Exact global COUNT(DISTINCT value): within-batch dedup (combiner) ->
    global dedup via groupby(value) -> count. Works at any cardinality
    (unlike the HLL direct regime); shuffles deduped values only."""

    def local_unique(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tbl = batch.select([value_column])
        if tbl[value_column].null_count:  # SQL: nulls are not distinct values
            tbl = tbl.filter(pc.is_valid(tbl[value_column]))
        return tbl.group_by([value_column]).aggregate([]).select([value_column])

    uniq = ds.map_batches(local_unique, batch_format="pyarrow")
    n = uniq.groupby(value_column).count().count()
    return pd.DataFrame({distinct_name: [int(n)]})


def exact_count_by_key(ds, key_column: str, *,
                       count_name: str = "n_rows") -> pd.DataFrame:
    """Exact per-key COUNT(*) with a per-batch combiner. Null keys are
    excluded (engine-wide keyed convention; oracles state
    ``WHERE key IS NOT NULL``)."""
    from ray.data.aggregate import Sum

    def local_counts(batch: pa.Table) -> pa.Table:
        keys = batch[key_column]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        if keys.null_count:
            keys = keys.drop_null()
        counted = pa.table({key_column: keys}).group_by(key_column).aggregate(
            [([], "count_all")])
        return counted.rename_columns([key_column, "cnt"])

    partial = ds.map_batches(local_counts, batch_format="pyarrow")
    out = partial.groupby(key_column).aggregate(Sum("cnt", alias_name=count_name))
    df = typed_frame(out, {key_column: "object", count_name: "int64"})
    df = df[[key_column, count_name]]
    return df.sort_values(key_column).reset_index(drop=True)
