"""Sequence packing for pretraining: assign each document its position in
the concat-and-chunk token stream (GPT-style packing — concatenate every
document within a key in doc-id order, slice the stream into
``max_tokens``-sized training sequences, and report where each document
starts).

The core primitive is a DISTRIBUTED EXCLUSIVE PREFIX SUM over (key,
doc_id)-ordered rows — computed without any per-key map_groups over
unbounded groups and without a global sort:

1. rows bucket by ``doc_id // bucket_width`` (order-preserving range
   buckets — contiguous id ranges stay contiguous, so per-bucket sums
   compose in bucket order);
2. one small groupby aggregates per-(key, bucket) token totals; only this
   keys x buckets table reaches the driver, which turns it into exclusive
   per-(key, bucket) starting offsets and broadcasts them via ray.put;
3. a second groupby co-locates each (key, bucket) and a single vectorized
   pass per group (sort by doc_id, cumsum, add the bucket's broadcast
   offset) emits the final positions.

Partitioning assumption (documented per north_rule): work per task is one
(key, bucket) range — bounded by bucket_width regardless of key skew; the
driver state is keys x buckets scalars, never rows. Document ids must be
integers; ranges may be sparse (bucket sums only cover ids present).

Reference semantics note: the reference library has no packing operator —
this is one of the beyond-reference training-data operators (brief: LLM
pipeline ops are first-class), expressed with the same partial/combine
shape as the sketch merges.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.io import typed_frame


def pack_sequences(tokens_ds, *, max_tokens: int,
                   key_column: str = "source",
                   id_column: str = "doc_id",
                   count_column: str = "n_tok"):
    """Concat-and-chunk packing positions for every document.

    Within each ``key_column`` group, documents are concatenated in
    ascending ``id_column`` order into one token stream that is sliced
    into ``max_tokens``-sized sequences. Returns a Dataset with columns
    (key, id, n_tok, seq_id, seq_offset) where ``seq_id`` is the training
    sequence containing the document's FIRST token and ``seq_offset`` its
    position inside that sequence (a document longer than the remaining
    room spans into following sequences; start position is what's
    reported). Equivalent SQL::

        SELECT key, id, n_tok,
               cum_prev // max_tokens AS seq_id,
               cum_prev %  max_tokens AS seq_offset
        FROM (SELECT *, COALESCE(SUM(n_tok) OVER (
                  PARTITION BY key ORDER BY id
                  ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW), 0)
                  AS cum_prev ...)
    """
    if max_tokens <= 0:
        raise ValueError(f"max_tokens must be positive, got {max_tokens}")
    prefixed = keyed_prefix_sums(tokens_ds, key_column=key_column,
                                 id_column=id_column,
                                 value_column=count_column)

    def finish(batch: pa.Table) -> pa.Table:
        cum_prev = batch["cum_prev"].to_numpy(zero_copy_only=False)
        return (batch
                .append_column("seq_id", pa.array(cum_prev // max_tokens))
                .append_column("seq_offset",
                               pa.array(cum_prev % max_tokens))
                .drop_columns(["cum_prev"]))

    return prefixed.map_batches(finish, batch_format="pyarrow")


def keyed_prefix_sums(ds, *, key_column: str, id_column: str,
                      value_column: str, bucket_width: int = 1 << 20,
                      unique_ids: bool = False):
    """Exclusive prefix sum of ``value_column`` over (key, id)-ordered rows.

    Returns a Dataset of (key, id, value, cum_prev) where ``cum_prev`` is
    the sum of ``value`` over all rows of the same key with smaller id.
    See the module docstring for the three-phase distributed shape.

    Assumptions: ids are unique within a key (ties would make the scan
    order — and therefore cum_prev — ambiguous, exactly as in SQL); null
    values count as 0 in the running sums (SQL window-SUM semantics) but
    pass through unchanged in the value column. Rows with a NULL key or
    NULL id are DROPPED (the keyed sketch stages' convention — review
    fix: pandas' phase-2 groupby silently dropped null keys while Ray's
    phase-3 groupby delivered them, so the offset lookup KeyError'd).

    ``unique_ids=True`` ENFORCES the uniqueness assumption: equal (key, id)
    rows always co-locate in the same phase-3 group, so the per-group check
    is a global duplicate detector at zero extra passes — callers whose
    rank semantics would silently go nondeterministic on duplicates
    (deterministic_shuffle) turn this on and get a ValueError instead.
    """
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    def add_bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        for col in (key_column, id_column):
            if batch[col].null_count:
                batch = batch.filter(pc.is_valid(batch[col]))
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        if len(ids) and not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(
                f"{id_column} must be integral for range-bucketed prefix "
                f"sums, got {ids.dtype}")
        bucket = ids.astype(np.int64) // bucket_width
        return batch.append_column("_bucket", pa.array(bucket))

    bucketed = ds.map_batches(add_bucket, batch_format="pyarrow")

    # phase 1+2: per-(key, bucket) totals -> driver-side exclusive scan in
    # bucket order (keys x buckets scalars only), broadcast once
    totals = (bucketed.groupby([key_column, "_bucket"])
              .aggregate(Sum(value_column, alias_name="_bucket_total"))
              .to_pandas())
    if len(totals) == 0:
        # empty input: Ray's empty grouped aggregate is column-less and the
        # downstream groupbys would KeyError — emit the typed empty shape
        return bucketed.drop_columns(["_bucket"]).map_batches(
            lambda b: b.append_column(
                "cum_prev", pa.array([0] * len(b), type=pa.int64())),
            batch_format="pyarrow")
    offsets: dict[tuple, int] = {}
    # all-null groups sum to None; SQL window-SUM treats nulls as absent
    totals["_bucket_total"] = totals["_bucket_total"].fillna(0)
    for key, grp in totals.groupby(key_column, sort=False):
        grp = grp.sort_values("_bucket")
        run = np.r_[0, grp["_bucket_total"].to_numpy().cumsum()[:-1]]
        for b, off in zip(grp["_bucket"], run):
            offsets[(key, int(b))] = int(off)
    offsets_ref = ray.put(offsets)

    # phase 3: co-locate each (key, bucket), one vectorized pass per group
    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) == 0:
            return typed_frame(None, {**group.dtypes.to_dict(),
                                      "cum_prev": "int64"})
        offs = ray.get(offsets_ref)
        group = group.sort_values(id_column, kind="mergesort")
        if unique_ids:
            gid = group[id_column].to_numpy()
            dup = gid[1:] == gid[:-1]
            if dup.any():
                raise ValueError(
                    f"duplicate {id_column} within key "
                    f"{group[key_column].iloc[0]!r}: id "
                    f"{gid[1:][dup][0]!r} appears more than once (rank "
                    f"order would be nondeterministic)")
        vals = group[value_column].to_numpy()
        if vals.dtype.kind != "i":  # nullable -> float/object; null = 0
            vals = np.nan_to_num(vals.astype(np.float64), nan=0.0)
        base = offs[(group[key_column].iloc[0], int(group["_bucket"].iloc[0]))]
        group = group.assign(
            cum_prev=base + np.r_[0, vals.cumsum()[:-1]].astype(np.int64))
        return group

    out = (bucketed.groupby([key_column, "_bucket"])
           .map_groups(per_bucket, batch_format="pandas"))
    return out.drop_columns(["_bucket"])


def select_token_budget(tokens_ds, budgets: dict, *,
                        key_column: str = "source",
                        id_column: str = "doc_id",
                        count_column: str = "n_tok",
                        default_budget: int | None = None,
                        bucket_width: int = 1 << 20):
    """Deterministic source-mixing selection: keep each key's documents in
    ascending id order until that key's TOKEN budget is exhausted.

    The training-data use: compose a pretraining mix ("2B tokens of web,
    500M of code, 100M of wiki") reproducibly — no sampling randomness, no
    driver-side iteration; the cut is pure window arithmetic. A document is
    kept iff the tokens BEFORE it (same key, smaller id) total less than
    the key's budget, i.e. the budget cuts mid-document rather than
    dropping the straddler (the packing consumer trims the tail). SQL::

        ... WHERE cum_prev < budget(key)

    ``budgets`` maps key -> token budget; keys absent from the mapping get
    ``default_budget`` (None = keep everything for that key). Returns the
    kept rows with their ``cum_prev`` column (total tokens of the same key
    before each row — also each doc's start offset in the mix stream).
    """
    import ray

    prefixed = keyed_prefix_sums(tokens_ds, key_column=key_column,
                                 id_column=id_column,
                                 value_column=count_column,
                                 bucket_width=bucket_width)
    budgets_ref = ray.put(dict(budgets))

    def keep(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch
        import pyarrow.compute as pc

        b = ray.get(budgets_ref)
        col = batch[key_column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        codes = pc.dictionary_encode(col)
        # budget per DISTINCT key (None -> +inf keeps everything), gathered
        # to rows via the dictionary indices — no per-row Python
        lim_by_code = np.array(
            [np.inf if (v := b.get(k, default_budget)) is None else float(v)
             for k in codes.dictionary.to_pylist()])
        lims = lim_by_code[codes.indices.to_numpy(zero_copy_only=False)]
        cum = batch["cum_prev"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(cum < lims))

    return prefixed.map_batches(keep, batch_format="pyarrow")
