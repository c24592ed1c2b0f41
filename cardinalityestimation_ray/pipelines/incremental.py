"""Incremental sketch maintenance — the mergeability payoff.

Sketches are unions, so corpus appends (a new day of crawl shards) update
results WITHOUT rescanning history: load the prior keyed sketch table,
sketch only the new data, merge, write back atomically. Combined with the
per-partition checkpoint store this gives end-to-end incremental +
resumable distinct counting (reference EP3 serialize/merge lifecycle,
SURVEY.md §3, as an operational loop)."""

from __future__ import annotations

import os

import pandas as pd

from ..sketches import hashing
from ..sketches.hll import HyperLogLog
from ..sources.io import read_sketch_results, write_sketch_results
from ..stages.sketch_stages import SketchPartials, tree_merge_partials
from .distinct import _keyed_result_frame


def incremental_distinct_update(results_path: str, new_tokens_ds, *,
                                key_column: str = "source", b: int = 14,
                                hash_name: str = hashing.DEFAULT_HASH,
                                value_column: str = "tokens"
                                ) -> pd.DataFrame:
    """Merge new data into a persisted keyed sketch table.

    ``value_column`` selects what is counted: the default tokens list gives
    distinct tokens per key; a scalar column such as doc_id gives distinct
    doc_ids per key.

    Returns the updated summary (key, estimate, n_added). The write is
    atomic (tmp + rename), so a crashed update leaves the previous table
    intact and rerunning is safe (the new data's partials are recomputed,
    not double-merged). The stored sketches keep the hash the table
    records, so an update under another ``hash_name`` or ``b`` raises the
    merge's mismatch, even when it holds only new keys.
    """
    prior = (read_sketch_results(results_path, key_name=key_column)
             if os.path.exists(results_path) else {})
    params = {"b": b, "hash_name": hash_name}
    partials = new_tokens_ds.map_batches(
        SketchPartials("hll", value_column, key_column=key_column, **params),
        batch_format="pyarrow")
    fresh = tree_merge_partials(partials, "hll", params,
                                key_column=key_column)
    # every key's result is one sketch built from ``params``: a stored
    # sketch of another b or hash raises here, before anything is written,
    # whether or not the update holds its key
    merged: dict = {}
    for k in set(prior) | set(fresh):
        sk, n = HyperLogLog(**params), 0
        for part in (prior.get(k), fresh.get(k)):
            if part is not None:
                sk.merge(part[0])
                n += part[1]
        merged[k] = (sk, n)
    write_sketch_results(merged, results_path, kind="hll",
                         key_name=key_column)
    return _keyed_result_frame(merged, key_column, "distinct_tokens",
                               "total_tokens")
