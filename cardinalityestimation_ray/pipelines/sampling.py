"""Deterministic distributed sampling: uniform, stratified and weighted.

Each sampler keeps the rows with the best hash priority of a row id
(sketches/priority_sample.py), so the selected sample is a PURE FUNCTION of
the row set: bit-identical at any block layout, parallelism level or merge
order, reproducible across reruns, and SQL-oracle-able.

- uniform: :class:`PrioritySample`, bottom-k by priority
  (:func:`priority_sample_column`);
- stratified: the same sampler with ``key_column``, one bottom-k per key
  (:func:`stratified_sample_summary`);
- weighted: :class:`WeightedDLTSample`, Duffield–Lund–Thorup priority
  sampling (:func:`weighted_dlt_sample_rows`).

All three run one partial stage (:func:`_sample_partial`) through the
scaffold the HLL pipelines use: one partial sample per batch, or per key
per batch, holding at most k (DLT: k+1) survivors, then the combiner tree
to one sample per key on the driver. No shuffle; every moved row is one of
the survivors of its block. Row contract: a null id, value or weight drops
the row, and so does a non-finite or negative weight; zero weights count
toward n but are never sampled.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sketches.priority_sample import PrioritySample, WeightedDLTSample
from ..sources.io import typed_frame
from ..stages.sketch_stages import segment_rows_by_key, tree_merge_partials


def _sample_partial(value_column: str, id_column: str, *, k: int,
                    seed: int, weight_column: str | None = None,
                    key_column: str | None = None):
    """The partial stage of every sampler (a ``map_batches`` function): a
    batch in, partial :class:`PrioritySample` rows out, or
    :class:`WeightedDLTSample` rows when ``weight_column`` is set.

    Rows follow :class:`SketchPartials`' contract: one ``{sketch,
    n_added}`` row per batch, or with ``key_column`` one row per non-null
    key (key column first, typed like the input), null-key rows dropped,
    and a key whose rows all drop still gets (empty sample, 0)."""
    cls = PrioritySample if weight_column is None else WeightedDLTSample
    # one column may play two parts (an id that is also the payload)
    columns = list(dict.fromkeys(
        c for c in (id_column, value_column, weight_column) if c))

    def partial(batch: pa.Table) -> pa.Table:
        table = batch.select(columns)
        if key_column is None:
            bounds = np.array([0, table.num_rows])
        else:
            keys, order, bounds = segment_rows_by_key(batch[key_column])
            table = table.take(order[:bounds[-1]])
        keep = np.ones(table.num_rows, dtype=bool)
        for c in columns:
            if table[c].null_count:
                keep &= pc.is_valid(table[c]).to_numpy(zero_copy_only=False)
        if not keep.all():
            table = table.filter(keep)
        arrays = [table[id_column].to_numpy(zero_copy_only=False),
                  table[value_column].to_numpy(
                      zero_copy_only=False).astype("float64")]
        if weight_column is not None:
            arrays.append(table[weight_column].to_numpy(
                zero_copy_only=False).astype("float64"))
            good = np.isfinite(arrays[2]) & (arrays[2] >= 0)
            if not good.all():
                arrays = [a[good] for a in arrays]
                keep[keep] = good
        cuts = np.concatenate([[0], np.cumsum(keep)])[bounds]
        blobs = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            s = cls(k=k, seed=seed)
            add = s.add_tagged if weight_column is None else s.add_weighted
            add(*(a[lo:hi] for a in arrays))
            blobs.append(s.to_bytes())
        out = {} if key_column is None else {key_column: keys}
        out["sketch"] = pa.array(blobs, type=pa.binary())
        out["n_added"] = pa.array(np.diff(cuts), type=pa.int64())
        return pa.table(out)

    return partial


def _sample_stats(s: PrioritySample, total: int) -> dict:
    samp = s.sample()
    return {
        "n_total": int(total),
        "n_sample": int(len(samp)),
        "sample_min": float(samp.min()) if len(samp) else float("nan"),
        "sample_max": float(samp.max()) if len(samp) else float("nan"),
    }


def priority_sample_column(ds, value_column: str, id_column: str, *,
                           k: int = 1024, seed: int = 0,
                           key_column: str | None = None):
    """Deterministic uniform k-sample of ``value_column``, keyed by hash
    priority of ``id_column`` (unique non-null ids). Returns
    (PrioritySample, n_rows_sampled_from); with ``key_column``, one sample
    per key: ``{key: (PrioritySample, n_rows)}`` (stratified sampling)."""
    params = {"k": k, "seed": seed}
    partial = _sample_partial(value_column, id_column, key_column=key_column,
                              **params)
    return tree_merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"), "priority_sample",
        params, key_column=key_column)


def priority_sample_summary(ds, value_column: str, id_column: str, *,
                            k: int = 1024, seed: int = 0) -> pd.DataFrame:
    """Driver-facing summary of the deterministic uniform sample — every
    column is a pure function of the data, so the whole row is
    oracle-checkable (ORDER BY mix64(id) LIMIT k in SQL)."""
    s, total = priority_sample_column(ds, value_column, id_column,
                                      k=k, seed=seed)
    return pd.DataFrame([{**_sample_stats(s, total), "k": int(k)}],
                        columns=["n_total", "n_sample", "k", "sample_min",
                                 "sample_max"])


def stratified_sample_summary(ds, value_column: str, id_column: str,
                              key_column: str, *, k: int = 256,
                              seed: int = 0) -> pd.DataFrame:
    """Per-key (stratified) uniform k-sample summary — the training-data
    use: a balanced per-source sample regardless of source skew. One row
    per non-null key, sorted by key: (key, n_total, n_sample, sample_min,
    sample_max), every column a pure function of the row set."""
    merged = priority_sample_column(ds, value_column, id_column, k=k,
                                    seed=seed, key_column=key_column)
    rows = [{key_column: key, **_sample_stats(*merged[key])}
            for key in sorted(merged)]
    return typed_frame(pd.DataFrame(rows), {
        key_column: "object", "n_total": "int64", "n_sample": "int64",
        "sample_min": "float64", "sample_max": "float64"})


def weighted_dlt_sample_rows(ds, value_column: str, weight_column: str,
                             id_column: str, *, k: int = 1024,
                             seed: int = 0) -> pd.DataFrame:
    """Deterministic Duffield–Lund–Thorup weighted sample, returned as the
    per-row frame (value, weight, est_weight) of the selected top-k.

    Because the DLT priority crosses only exactly-rounded IEEE ops
    (power-of-two scaling + one division — see
    sketches/priority_sample.py:WeightedDLTSample), the frame is both
    layout-invariant AND value-level SQL-oracle-checkable; est_weight is
    the per-row unbiased subset-sum estimator max(w, tau), emitted per row
    precisely so no accumulation-order float sum enters the contract."""
    params = {"k": k, "seed": seed}
    partial = _sample_partial(value_column, id_column,
                              weight_column=weight_column, **params)
    s, _total = tree_merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"), "weighted_dlt_sample",
        params)
    return pd.DataFrame({
        value_column: s.sample(),
        weight_column: s.sample_weights(),
        "est_weight": s.sample_est_weights(),
    })
