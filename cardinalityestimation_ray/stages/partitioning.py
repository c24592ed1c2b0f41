"""Partitioning utilities — the reference's PartitionStrategy family
(RoundRobin / Chunked / Hash element->shard assignment,
/root/reference/CardinalityEstimation/CardinalityEstimatorExtensions.cs:
295-369) re-expressed for Ray Data, plus the explicit salted two-level
merge for skewed keys required by the north rule.

For HLL-family sketches partitioning is correctness-free (register-max merge
is placement-independent, CardinalityEstimator.cs:606-609); these utilities
exist for LOAD BALANCE.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sketches import hashing
from .sketch_stages import SketchPartials, sketch_merge_aggregate


def create_sketches(n: int, kind: str = "hll", params: dict | None = None) -> list:
    """Reference CreateMultiple (CardinalityEstimatorExtensions.cs:184-196):
    n identically-configured sketches for sharded processing. In Ray this is
    usually implicit (each map task builds its own from the same spec); the
    explicit helper exists for driver-side sharding."""
    from .sketch_stages import build_sketch

    return [build_sketch(kind, dict(params or {})) for _ in range(n)]


def round_robin(ds, n: int):
    """Reference RoundRobin (i % n): Ray's repartition without shuffle —
    block splitting/coalescing, no data movement by key."""
    return ds.repartition(n)


def chunked(ds, n: int):
    """Reference Chunked (contiguous i/chunk): Ray's default block layout
    already is contiguous ranges of the input; repartition(n) keeps it."""
    return ds.repartition(n)


def add_hash_bucket(ds, column: str, num_buckets: int,
                    bucket_column: str = "bucket"):
    """Reference Hash strategy (GetHashCode % n): append a deterministic
    bucket column; downstream ``groupby(bucket_column)`` (or a bucketed
    two-sided join) co-locates equal keys."""

    def bucketize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch[column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        # null-SAFE: a numeric column with one null converts to float64 and
        # every element would hash via the wrong byte image, scattering the
        # SAME key across different buckets batch-to-batch. Nulls fill with
        # a sentinel BEFORE conversion (dtype preserved); null keys land in
        # one deterministic bucket and join/group logic already treats them
        # as matching nothing.
        if pa.types.is_string(t) or pa.types.is_large_string(t) or \
                pa.types.is_binary(t) or pa.types.is_large_binary(t):
            if col.null_count:
                col = pc.fill_null(col, "")
            h = hashing.hash_arrow_binary(col, hashing.DEFAULT_HASH)
        else:
            if col.null_count:
                col = pc.fill_null(col, pa.scalar(0, type=t))
            # width-canonical, so an int32 key and the same int64 key of
            # the other join side land in one bucket
            h = hashing.hash_fixed_batch(
                hashing.canonical_width(col.to_numpy(zero_copy_only=False)),
                hashing.DEFAULT_HASH)
        bucket = (h % np.uint64(num_buckets)).astype(np.int32)
        return batch.append_column(bucket_column, pa.array(bucket))

    return ds.map_batches(bucketize, batch_format="pyarrow")


def salted_distinct_column_by_key(ds, value_column: str, key_column: str, *,
                                  b: int = 14, num_salts: int = 16,
                                  hash_name: str = hashing.DEFAULT_HASH,
                                  estimate_name: str = "distinct_values",
                                  count_name: str = "n_rows"):
    """Per-key distinct values with an EXPLICIT salted two-level merge;
    ``value_column`` may be a list column (distinct tokens) or a scalar one
    (e.g. distinct doc_ids). Returns a Dataset
    (key, estimate_name, count_name).

    Even with per-batch partial sketches, a heavily skewed key funnels all
    its partials into one reducer in ``groupby(key).aggregate``. Salt
    assignment is deterministic: the partial row's sketch-blob hash. Level 1
    groups on (key, salt) so a hot key's merge fans across ``num_salts``
    reducers; level 2 folds the <= num_salts salted sketches per key.
    Register-max commutativity makes the result IDENTICAL to the unsalted
    merge (asserted in tests).
    """
    from ray.data.aggregate import Sum

    def add_salt(batch: pa.Table) -> pa.Table:
        col = batch["sketch"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        h = hashing.hash_arrow_binary(col, hashing.DEFAULT_HASH)
        salt = (h % np.uint64(num_salts)).astype(np.int32)
        return batch.append_column("salt", pa.array(salt))

    params = {"b": b, "hash_name": hash_name}
    salted = ds.map_batches(
        SketchPartials("hll", value_column, key_column=key_column, **params),
        batch_format="pyarrow",
    ).map_batches(add_salt, batch_format="pyarrow")
    lvl1 = salted.groupby([key_column, "salt"]).aggregate(
        sketch_merge_aggregate("hll", params),
        Sum("n_added", alias_name="n_added"),
    )
    lvl2 = lvl1.groupby(key_column).aggregate(
        sketch_merge_aggregate("hll", params, blob_column="hll",
                               finalize="estimate"),
        Sum("n_added", alias_name=count_name),
    )
    return lvl2.rename_columns({"estimate": estimate_name})


def salted_distinct_tokens_by_key(tokens_ds, key_column: str = "source", *,
                                  b: int = 14, num_salts: int = 16,
                                  hash_name: str = hashing.DEFAULT_HASH):
    """Per-key distinct tokens with the salted two-level merge of
    :func:`salted_distinct_column_by_key`. Returns a Dataset
    (key, distinct_tokens, total_tokens)."""
    return salted_distinct_column_by_key(
        tokens_ds, "tokens", key_column, b=b, num_salts=num_salts,
        hash_name=hash_name, estimate_name="distinct_tokens",
        count_name="total_tokens")
