"""Distributed uniform sampling via the mergeable bottom-k reservoir sketch.

The reservoir is just another mergeable sketch (sketches/reservoir.py), so
the global sample falls out of the same partial/combiner-tree scaffold the
HLL pipelines use: per-batch partial reservoirs -> two-level merge_block
tree -> one k-row sample on the driver. No shuffle, no corpus
materialization; every moved row is one of the <= k survivors of its block.

Layout sensitivity: reservoir/weighted-reservoir draws depend on
per-partial RNG streams and merge order, so the selected sample can differ
across block layouts / parallelism levels (the inclusion DISTRIBUTION is
pinned by tests). The layout-INVARIANT twins are the hash-priority
samplers below (``priority_sample_column`` /
``weighted_priority_sample_column`` — deterministic functions of the row
set, bit-identical at any parallelism; COVERAGE.md determinism matrix).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..sketches.reservoir import ReservoirSample
from ..sources.io import typed_frame
from ..stages.sketch_stages import SketchPartials, tree_merge_partials


def reservoir_sample_column(ds, column: str, *, k: int = 1024
                            ) -> tuple[ReservoirSample, int]:
    """Uniform k-sample of a numeric column; a list column samples its
    elements. Returns (merged reservoir, total values seen)."""
    partials = ds.map_batches(
        SketchPartials("reservoir", column, k=k), batch_format="pyarrow")
    rs, total = tree_merge_partials(partials, "reservoir")
    if rs is None:
        rs = ReservoirSample(k=k)
    return rs, total


def reservoir_sample_summary(ds, column: str, *, k: int = 1024
                             ) -> pd.DataFrame:
    """Driver-facing summary row: population size, sample size, and sample
    bounds (the sample itself is random; the summary shape is stable)."""
    rs, total = reservoir_sample_column(ds, column, k=k)
    samp = rs.sample()
    return pd.DataFrame({
        "n_total": [int(total)],
        "n_sample": [int(len(samp))],
        "k": [int(k)],
        "sample_min": [float(samp.min()) if len(samp) else float("nan")],
        "sample_max": [float(samp.max()) if len(samp) else float("nan")],
    })


def stratified_sample_by_key(ds, column: str, key_column: str, *,
                             k: int = 256) -> dict:
    """Per-key (stratified) uniform k-sample — one mergeable reservoir per
    key through the SAME keyed-partial scaffold the grouped sketch merges
    use: per-batch per-key partial reservoirs (<= k survivors per key per
    block are all that moves), combiner-tree merge, driver holds only
    |keys| reservoirs of k values each. The training-data use: a balanced
    per-source sample for eval/inspection regardless of source skew.

    Returns {key: (ReservoirSample, n_rows_for_key)}.
    """
    partials = ds.map_batches(
        SketchPartials("reservoir", column, key_column=key_column, k=k),
        batch_format="pyarrow",
    )
    return tree_merge_partials(partials, "reservoir", key_column=key_column)


def stratified_sample_summary(ds, column: str, key_column: str, *,
                              k: int = 256) -> pd.DataFrame:
    """Driver-facing per-key summary (stable shape; the sample itself is
    random): (key, n_total, n_sample, sample_min, sample_max)."""
    merged = stratified_sample_by_key(ds, column, key_column, k=k)
    rows = []
    for key in sorted(merged):
        rs, total = merged[key]
        samp = rs.sample()
        rows.append({
            key_column: key,
            "n_total": int(total),
            "n_sample": int(len(samp)),
            "sample_min": float(samp.min()) if len(samp) else float("nan"),
            "sample_max": float(samp.max()) if len(samp) else float("nan"),
        })
    return typed_frame(pd.DataFrame(rows), {
        key_column: "object", "n_total": "int64", "n_sample": "int64",
        "sample_min": "float64", "sample_max": "float64"})


def weighted_sample_column(ds, value_column: str, weight_column: str, *,
                           k: int = 1024):
    """Weight-proportional k-sample (without replacement, A-ES) of a numeric
    column — e.g. quality-weighted document sampling for training-data
    curation. Per-batch partial reservoirs -> combiner tree; only <= k rows
    per block ever move. Returns (WeightedReservoirSample, n_rows)."""
    import pyarrow as pa

    from ..sketches.reservoir import WeightedReservoirSample
    from ..stages.sketch_stages import tree_merge_partials

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # row-exclusion semantics: a null value/weight AND any non-finite
        # or negative weight excludes the ROW (round-3 review fix — a
        # literal NaN float is valid to Arrow, so the null filter alone let
        # it through to add_weighted, which raises and killed the job on
        # one bad row)
        valid = pc.and_(pc.is_valid(batch[value_column]),
                        pc.is_valid(batch[weight_column]))
        if not pc.all(valid).as_py():
            batch = batch.filter(valid)
        import numpy as np

        vals = batch[value_column].to_numpy(
            zero_copy_only=False).astype("float64")
        wts = batch[weight_column].to_numpy(
            zero_copy_only=False).astype("float64")
        good = np.isfinite(wts) & (wts >= 0)
        if not good.all():
            vals = vals[good]
            wts = wts[good]
        r = WeightedReservoirSample(k=k)
        r.add_weighted(vals, wts)
        return pa.table({
            "sketch": pa.array([r.to_bytes()], type=pa.binary()),
            "n_added": pa.array([len(vals)], type=pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    rs, total = tree_merge_partials(partials, "weighted_reservoir")
    if rs is None:
        rs = WeightedReservoirSample(k=k)
    return rs, total


def weighted_sample_summary(ds, value_column: str, weight_column: str, *,
                            k: int = 1024) -> pd.DataFrame:
    rs, total = weighted_sample_column(ds, value_column, weight_column, k=k)
    samp = rs.sample()
    return pd.DataFrame({
        "n_total": [int(total)],
        "n_sample": [int(len(samp))],
        "k": [int(k)],
        "total_weight": [float(rs.total_weight)],
        "sample_mean": [float(samp.mean()) if len(samp) else float("nan")],
    })


# ---------------------------------------------------------------------------
# Deterministic (layout-invariant) samplers — hash-priority bottom-k.
# Same distributed shape as the RNG reservoirs above (per-batch partials,
# <= k survivors per block, combiner tree), but the selected sample is a
# PURE FUNCTION of the row set (sketches/priority_sample.py): bit-identical
# across block layouts / parallelism, reproducible across reruns, and — for
# the uniform variant — SQL-oracle-able.

def priority_sample_column(ds, value_column: str, id_column: str, *,
                           k: int = 1024, seed: int = 0):
    """Deterministic uniform k-sample of ``value_column``, keyed by hash
    priority of ``id_column`` (unique non-null ids; nulls in id OR value
    drop the row — SQL semantics, stated in any oracle). Returns
    (PrioritySample, n_rows_sampled_from)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..sketches.priority_sample import PrioritySample
    from ..stages.sketch_stages import tree_merge_partials

    def partial(batch: pa.Table) -> pa.Table:
        valid = pc.and_(pc.is_valid(batch[id_column]),
                        pc.is_valid(batch[value_column]))
        if not pc.all(valid).as_py():
            batch = batch.filter(valid)
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        vals = batch[value_column].to_numpy(
            zero_copy_only=False).astype("float64")
        s = PrioritySample(k=k, seed=seed)
        s.add_tagged(ids, vals)
        return pa.table({
            "sketch": pa.array([s.to_bytes()], type=pa.binary()),
            "n_added": pa.array([len(vals)], type=pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    s, total = tree_merge_partials(partials, "priority_sample")
    if s is None:
        s = PrioritySample(k=k, seed=seed)
    return s, total


def priority_sample_summary(ds, value_column: str, id_column: str, *,
                            k: int = 1024, seed: int = 0) -> pd.DataFrame:
    """Driver-facing summary of the deterministic uniform sample — every
    column is a pure function of the data, so the whole row is
    oracle-checkable (ORDER BY mix64(id) LIMIT k in SQL)."""
    s, total = priority_sample_column(ds, value_column, id_column,
                                      k=k, seed=seed)
    samp = s.sample()
    return pd.DataFrame({
        "n_total": [int(total)],
        "n_sample": [int(len(samp))],
        "k": [int(k)],
        "sample_min": [float(samp.min()) if len(samp) else float("nan")],
        "sample_max": [float(samp.max()) if len(samp) else float("nan")],
    })


def weighted_priority_sample_column(ds, value_column: str,
                                    weight_column: str, id_column: str, *,
                                    k: int = 1024, seed: int = 0):
    """Deterministic weight-proportional k-sample (E&S keys with
    hash-derived u). Row exclusion matches weighted_sample_column: null
    id/value/weight and non-finite or negative weights drop the ROW;
    weight-0 rows count toward n/total_weight but are never sampled.
    Returns (WeightedPrioritySample, n_rows)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..sketches.priority_sample import WeightedPrioritySample
    from ..stages.sketch_stages import tree_merge_partials

    def partial(batch: pa.Table) -> pa.Table:
        valid = pc.and_(
            pc.and_(pc.is_valid(batch[id_column]),
                    pc.is_valid(batch[value_column])),
            pc.is_valid(batch[weight_column]))
        if not pc.all(valid).as_py():
            batch = batch.filter(valid)
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        vals = batch[value_column].to_numpy(
            zero_copy_only=False).astype("float64")
        wts = batch[weight_column].to_numpy(
            zero_copy_only=False).astype("float64")
        good = np.isfinite(wts) & (wts >= 0)
        if not good.all():
            ids, vals, wts = ids[good], vals[good], wts[good]
        s = WeightedPrioritySample(k=k, seed=seed)
        s.add_weighted(ids, vals, wts)
        return pa.table({
            "sketch": pa.array([s.to_bytes()], type=pa.binary()),
            "n_added": pa.array([len(vals)], type=pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    s, total = tree_merge_partials(partials, "weighted_priority_sample")
    if s is None:
        s = WeightedPrioritySample(k=k, seed=seed)
    return s, total


def weighted_dlt_sample_rows(ds, value_column: str, weight_column: str,
                             id_column: str, *, k: int = 1024,
                             seed: int = 0) -> pd.DataFrame:
    """Deterministic Duffield–Lund–Thorup weighted sample, returned as the
    per-row frame (value, weight, est_weight) of the selected top-k.

    Row exclusion matches the sibling samplers (null id/value/weight and
    non-finite/negative weights drop the row; zero weights are counted but
    never sampled). Because the DLT priority crosses only exactly-rounded
    IEEE ops (power-of-two scaling + one division — see
    sketches/priority_sample.py:WeightedDLTSample), the frame is both
    layout-invariant AND value-level SQL-oracle-checkable; est_weight is
    the per-row unbiased subset-sum estimator max(w, tau), emitted per row
    precisely so no accumulation-order float sum enters the contract."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..sketches.priority_sample import WeightedDLTSample
    from ..stages.sketch_stages import tree_merge_partials

    def partial(batch: pa.Table) -> pa.Table:
        valid = pc.and_(
            pc.and_(pc.is_valid(batch[id_column]),
                    pc.is_valid(batch[value_column])),
            pc.is_valid(batch[weight_column]))
        if not pc.all(valid).as_py():
            batch = batch.filter(valid)
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        vals = batch[value_column].to_numpy(
            zero_copy_only=False).astype("float64")
        wts = batch[weight_column].to_numpy(
            zero_copy_only=False).astype("float64")
        good = np.isfinite(wts) & (wts >= 0)
        if not good.all():
            ids, vals, wts = ids[good], vals[good], wts[good]
        s = WeightedDLTSample(k=k, seed=seed)
        s.add_weighted(ids, vals, wts)
        return pa.table({
            "sketch": pa.array([s.to_bytes()], type=pa.binary()),
            "n_added": pa.array([len(vals)], type=pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    s, _total = tree_merge_partials(partials, "weighted_dlt_sample")
    if s is None:
        s = WeightedDLTSample(k=k, seed=seed)
    return pd.DataFrame({
        value_column: s.sample(),
        weight_column: s.sample_weights(),
        "est_weight": s.sample_est_weights(),
    })


def weighted_priority_sample_summary(ds, value_column: str,
                                     weight_column: str, id_column: str, *,
                                     k: int = 1024,
                                     seed: int = 0) -> pd.DataFrame:
    """Summary of the deterministic weighted sample. total_weight rides the
    exact superaccumulator and sample_mean is computed over the canonical
    selection order, so the frame is bit-identical across layouts (the
    SELECTION itself crosses log(), hence no SQL oracle — rows-only)."""
    s, total = weighted_priority_sample_column(
        ds, value_column, weight_column, id_column, k=k, seed=seed)
    samp = s.sample()
    return pd.DataFrame({
        "n_total": [int(total)],
        "n_sample": [int(len(samp))],
        "k": [int(k)],
        "total_weight": [float(s.total_weight)],
        "sample_mean": [float(samp.mean()) if len(samp) else float("nan")],
    })
