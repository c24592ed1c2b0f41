"""Joins.

The reference has no joins (SURVEY.md §2.7); a corpus engine still needs
two: broadcast semi-join (``membership.bloom_semi_join`` — no shuffle) and a
partitioned hash join for two large sides. ``bucketed_inner_join`` is the
portable explicit pattern from the Ray guide: both sides get a deterministic
``bucket = hash(key) % B`` column, co-grouped per bucket, joined pairwise
with pandas inside ``map_groups``. Salt hot keys by raising B.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.partitioning import add_hash_bucket


def _empty_ds():
    """Typed-columnless empty Dataset — the join result when an input's
    schema is unrecoverable (Ray reports ``schema() is None`` for a
    dataset whose execution produced zero blocks, e.g. an empty table
    upstream of a filter). Callers impose their final schema on empty
    frames (round-4 empty-input fix)."""
    import ray.data

    return ray.data.from_arrow(pa.table({}))


def bucketed_inner_join(ds_left, ds_right, key: str, *,
                        num_buckets: int = 32,
                        suffixes: tuple = ("_l", "_r")):
    """Inner join of two Datasets on ``key`` via explicit hash buckets.

    Returns a Dataset. Both sides are tagged, unioned, co-grouped by
    bucket, split back into their own columns and types in Arrow, and
    merged per bucket — each bucket's data is the only thing co-located, so
    memory per task is corpus/B.
    """
    lschema = ds_left.schema()
    rschema = ds_right.schema()
    if lschema is None or rschema is None:  # an empty side: inner join = []
        return _empty_ds()

    def drop_null_keys(batch: pa.Table) -> pa.Table:
        # SQL INNER JOIN never matches NULL keys; pandas merge treats
        # NaN/None as EQUAL, so null rows must go before bucketing
        # (round-4 session-9 review fix)
        col = batch[key]
        if col.null_count:
            batch = batch.filter(pc.is_valid(col))
        return batch

    left = add_hash_bucket(
        ds_left.map_batches(drop_null_keys, batch_format="pyarrow"),
        key, num_buckets)
    right = add_hash_bucket(
        ds_right.map_batches(drop_null_keys, batch_format="pyarrow"),
        key, num_buckets)

    def tag(side):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.append_column("__side", pa.array([side] * len(batch),
                                                          type=pa.int8()))
        return fn

    both = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow"))

    def join_bucket(group: pa.Table) -> pd.DataFrame:
        # the union pads each side's rows with nulls in the other side's
        # columns; split in Arrow, so no padded int64 column goes through
        # pandas as float64 (ids above 2^53 would round). Types Ray has no
        # Arrow form for (``object``) are left as the block holds them.
        frames = []
        for side, sch in enumerate((lschema, rschema)):
            tbl = group.filter(pc.equal(group["__side"], side))
            frames.append(pa.table(
                [tbl[n].cast(t) if isinstance(t, pa.DataType) else tbl[n]
                 for n, t in zip(sch.names, sch.types)],
                names=sch.names).to_pandas())
        return pd.merge(*frames, on=key, suffixes=suffixes)

    return both.groupby("bucket").map_groups(join_bucket,
                                             batch_format="pyarrow")


def asof_join(ds_left, ds_right, *, by: str, on: str,
              right_columns: list[str], num_buckets: int = 32,
              strict: bool = True, how: str = "inner",
              right_on: str | None = None,
              suffix: str = "_r"):
    """As-of join: for every left row, the LAST right row with the same
    ``by`` key whose ``right_on`` (default: ``on``) value is earlier
    (``strict=True`` -> ``<``, else ``<=``) — the streaming/event-time
    operator Ray Data lacks natively (DuckDB's ``ASOF JOIN`` is the exact
    oracle).

    Implementation: both sides hash-bucket by ``by`` (so a key's rows
    co-locate), ONE vectorized pass per bucket — right rows sort once by
    (key, on); left rows binary-search a composite (key, on) rank, so the
    per-bucket cost is O((L+R) log R) with zero per-key Python dispatch.
    Memory per task is corpus/num_buckets. ``how="left"`` keeps unmatched
    left rows with nulls.
    """
    import numpy as np

    from ..stages.partitioning import add_hash_bucket

    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how}")
    r_on_col = right_on or on
    right_sel = sorted({by, r_on_col, *right_columns})
    out_right = [c for c in right_columns if c != by]

    # The whole per-bucket path is ARROW-native: a pandas union of the two
    # sides would null-fill across schemas and silently promote int64 left
    # columns to float64 (corrupting ids >= 2^53) — so both sides are
    # schema-ALIGNED up front (typed null columns for the other side's
    # fields, right columns carried under a "__r_" prefix) and the join
    # emits typed Arrow takes (null take-index -> typed null).
    left_schema = ds_left.schema()
    if left_schema is None:  # empty left side: no rows can join (round-4
        return _empty_ds()   # empty-input fix; see _empty_ds)
    left_types = dict(zip(left_schema.names, left_schema.types))
    left_cols = list(left_schema.names)
    rschema = ds_right.schema()
    if rschema is None:
        # empty right side: inner join = []; left join = left rows with
        # null right columns (typed pa.null() — the element types are
        # unrecoverable from an empty dataset)
        if how == "inner":
            return _empty_ds()

        def null_right(batch: pa.Table) -> pa.Table:
            for c in out_right:
                name = f"{c}{suffix}" if c in left_cols else c
                batch = batch.append_column(name, pa.nulls(len(batch)))
            return batch

        return ds_left.map_batches(null_right, batch_format="pyarrow")
    right_types = {n: t for n, t in zip(rschema.names, rschema.types)
                   if n in right_sel}
    out_cols = {c: f"{c}{suffix}" if c in left_cols else c
                for c in out_right}

    left = add_hash_bucket(ds_left, by, num_buckets)
    right = add_hash_bucket(ds_right.select_columns(right_sel),
                            by, num_buckets)

    def align(side):
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            cols, names = [], []
            for c in left_cols:
                names.append(c)
                cols.append(batch[c] if side == 0
                            else pa.nulls(n, type=left_types[c]))
            for c in right_sel:
                names.append(f"__r_{c}")
                cols.append(batch[c] if side == 1
                            else pa.nulls(n, type=right_types[c]))
            names.append("bucket")
            cols.append(batch["bucket"])
            names.append("__side")
            cols.append(pa.array(np.full(n, side, dtype=np.int8)))
            return pa.table(dict(zip(names, cols)))
        return fn

    both = left.map_batches(align(0), batch_format="pyarrow").union(
        right.map_batches(align(1), batch_format="pyarrow"))

    def _codes(keys: pa.ChunkedArray | pa.Array, n_l: int):
        """Joint dictionary codes for both sides' keys; null key -> -1."""
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        enc = keys.dictionary_encode()
        idx = pc.fill_null(enc.indices, -1).to_numpy(zero_copy_only=False)
        codes = idx.astype(np.int64)
        return codes[:n_l], codes[n_l:]

    def join_bucket(tbl: pa.Table) -> pa.Table:
        side = tbl["__side"]
        lo_t = tbl.filter(pc.equal(side, 0))
        hi_t = tbl.filter(pc.equal(side, 1))
        n_l = len(lo_t)
        matched = np.full(n_l, -1, dtype=np.int64)
        if n_l and len(hi_t):
            lk = lo_t[by].combine_chunks()
            rk = hi_t[f"__r_{by}"].combine_chunks()
            if lk.type != rk.type:  # e.g. int32 vs int64: one common type
                common = pa.unify_schemas(
                    [pa.schema([(by, lk.type)]), pa.schema([(by, rk.type)])],
                    promote_options="permissive").field(by).type
                lk, rk = lk.cast(common), rk.cast(common)
            lc, rc = _codes(pa.chunked_array([lk, rk]), n_l)
            l_on = lo_t[on].to_numpy(zero_copy_only=False)
            r_on = hi_t[f"__r_{r_on_col}"].to_numpy(zero_copy_only=False)
            # composite rank: key-major, then on-value (merge both sides'
            # on-values into one sorted domain so ranks are comparable)
            on_sorted = np.unique(np.concatenate([l_on, r_on]))
            l_rank = np.searchsorted(on_sorted, l_on).astype(np.int64)
            r_rank = np.searchsorted(on_sorted, r_on).astype(np.int64)
            span = np.int64(len(on_sorted) + 1)
            r_comp = rc * span + r_rank
            order = np.argsort(r_comp, kind="stable")
            r_comp_s = r_comp[order]
            sside = "left" if strict else "right"
            pos = np.searchsorted(r_comp_s, lc * span + l_rank,
                                  side=sside) - 1
            ok = pos >= 0
            cand = np.where(ok, order[np.clip(pos, 0, None)], 0)
            # predecessor must share the key; null keys (-1) match nothing
            ok &= (rc[cand] == lc) & (lc >= 0)
            matched = np.where(ok, cand, -1)
        if how == "inner":
            keep_idx = pa.array(np.flatnonzero(matched >= 0))
            out = lo_t.select(left_cols).take(keep_idx)
            ridx = pa.array(matched[matched >= 0])
            for c in out_right:
                out = out.append_column(
                    out_cols[c],
                    hi_t[f"__r_{c}"].combine_chunks().take(ridx))
            return out
        out = lo_t.select(left_cols)
        ridx = pa.array(np.clip(matched, 0, None), mask=matched < 0)
        for c in out_right:
            out = out.append_column(
                out_cols[c], hi_t[f"__r_{c}"].combine_chunks().take(ridx))
        return out

    return both.groupby("bucket").map_groups(join_bucket,
                                             batch_format="pyarrow")


def interval_join(ds_left, ds_right, *, by: str, on: str, lo: str, hi: str,
                  right_columns: list[str] | None = None,
                  num_buckets: int = 32, how: str = "inner",
                  suffix: str = "_r"):
    """Point-in-interval join for per-key NON-OVERLAPPING intervals: each
    left row matches the right interval of the same ``by`` key with
    ``lo <= on <= hi`` (validity windows / SCD2 dimension rows; the classic
    range-join special case).

    Composition: as-of on the interval START (non-strict — the candidate is
    the latest interval whose ``lo`` is at or before the point; under the
    non-overlap assumption it is the ONLY candidate), then a vectorized
    post-filter on ``hi``. Oracle: plain SQL ``JOIN ... ON key match AND on
    BETWEEN lo AND hi``. Overlapping intervals are NOT supported (only the
    latest-starting match would be returned) — that variant needs an
    interval-tree stage; document before reaching for this one.
    """
    right_columns = right_columns or [lo, hi]
    for needed in (lo, hi):
        if needed not in right_columns:
            right_columns = [*right_columns, needed]
    joined = asof_join(ds_left, ds_right, by=by, on=on,
                       right_columns=right_columns, num_buckets=num_buckets,
                       strict=False, how=how, right_on=lo, suffix=suffix)
    left_cols = set(ds_left.schema().names)
    hi_col = f"{hi}{suffix}" if hi in left_cols else hi
    on_col = on

    def in_window(batch: pa.Table) -> pa.Table:
        inside = pc.less_equal(batch[on_col], batch[hi_col])
        if how == "inner":
            return batch.filter(pc.fill_null(inside, False))
        # left join: null out right columns where the interval missed
        keep = pc.fill_null(inside, True)
        if bool(pc.all(keep).as_py() if len(batch) else True):
            return batch
        cols = {}
        out_names = [c if c not in left_cols else f"{c}{suffix}"
                     for c in right_columns]
        for name in batch.column_names:
            col = batch[name]
            if name in out_names:
                col = pc.if_else(keep, col, pa.nulls(len(batch),
                                                     type=col.type))
            cols[name] = col
        return pa.table(cols)

    return joined.map_batches(in_window, batch_format="pyarrow")


def broadcast_join(ds_big, small_table, key: str, *,
                   right_key: str | None = None, how: str = "inner",
                   suffix: str = "_r"):
    """Map-side hash join of a big Dataset against a SMALL dimension table
    (pyarrow Table / pandas DataFrame) — the 100 TB pattern for dimension
    lookups: the small side ships once via ``ray.put`` (plasma-cached per
    node), each batch joins locally with pyarrow's C++ hash join, and the
    big side NEVER shuffles.

    ``how``: "inner" or "left" (left = keep unmatched big-side rows with
    nulls). Collision-named small-side columns get ``suffix``.
    """
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how}")
    if isinstance(small_table, pd.DataFrame):
        small_table = pa.Table.from_pandas(small_table,
                                           preserve_index=False)
    rkey = right_key or key
    schema = ds_big.schema()
    big_cols = set(schema.names)
    rename = {c: (f"{c}{suffix}" if c in big_cols and c != rkey else c)
              for c in small_table.column_names}
    small_table = small_table.rename_columns(
        [rename[c] for c in small_table.column_names])
    rkey_renamed = rename.get(rkey, rkey)
    # canonicalize key width: pyarrow's hash join rejects int32-vs-int64
    # key pairs, and dimension tables routinely use narrower ids
    big_key_type = dict(zip(schema.names, schema.types))[key]
    if small_table.schema.field(rkey_renamed).type != big_key_type:
        idx = small_table.column_names.index(rkey_renamed)
        small_table = small_table.set_column(
            idx, rkey_renamed,
            small_table[rkey_renamed].cast(big_key_type))
    small_ref = ray.put(small_table)
    join_type = "inner" if how == "inner" else "left outer"

    class Probe:
        def __init__(self):
            self.small = ray.get(small_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            return batch.join(self.small, keys=[key],
                              right_keys=[rkey_renamed],
                              join_type=join_type)

    return ds_big.map_batches(Probe, batch_format="pyarrow",
                              concurrency=(1, 8))
