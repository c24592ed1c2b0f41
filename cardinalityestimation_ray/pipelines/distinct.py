"""Distinct-count pipelines (the flagship: EP1/EP2 lifted onto Ray Data).

Every pipeline is: tokens Dataset -> stateless vectorized partial-sketch
map_batches -> tiny merge stage. The raw corpus is never shuffled; only
KB-scale sketch partials move (SURVEY.md §7.3)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..sketches import hashing
from ..sketches.hll import HyperLogLog
from ..sources.io import typed_frame
from ..stages.sketch_stages import SketchPartials, tree_merge_partials

_U64_SPAN = float(1 << 64)


def _keyed_result_frame(merged: dict, key_column: str, estimate_name: str,
                        count_name: str) -> pd.DataFrame:
    keys = sorted(merged)
    return typed_frame(pd.DataFrame(
        {
            key_column: keys,
            estimate_name: [merged[k][0].estimate() for k in keys],
            count_name: [merged[k][1] for k in keys],
        }
    ), {key_column: "object", estimate_name: "int64", count_name: "int64"})


def global_distinct_tokens(tokens_ds, b: int = 14,
                           hash_name: str = hashing.DEFAULT_HASH,
                           fanout: int = 64,
                           concurrency=None,
                           batch_size: int | None = None) -> dict:
    """Estimate distinct token ids across the corpus.

    Returns {"distinct_tokens": int, "total_tokens": int, "sketch": HyperLogLog}.
    Partial rows (one <=2^b-byte sketch per input batch) reduce through the
    combiner tree, so the driver folds a bounded number of rows no matter how
    many blocks the corpus has.

    ``batch_size=None`` (default, round-3 measurement) feeds whole blocks to
    the partial stage — with reads already sized to CPU slots, re-slicing to
    a fixed row count only adds coalesce/copy overhead (by-source: 1.10 s ->
    0.79 s); cache residency inside a large batch is handled by the stage's
    add path (HyperLogLog.add_values hashes 8k values at a time), not by
    the batch size.

    ``concurrency``: None runs the scan as stateless tasks (cheap, elastic —
    right for this stage's trivial per-actor state); an int or (min, max)
    runs it as an ACTOR POOL (``map_batches(SketchPartials, concurrency=…)``),
    the pattern for stages with real per-actor setup cost. Both produce
    identical results (tested).
    """
    params = {"b": b, "hash_name": hash_name}
    if concurrency is None:
        partials = tokens_ds.map_batches(
            SketchPartials(**params), batch_format="pyarrow",
            batch_size=batch_size)
    else:
        partials = tokens_ds.map_batches(
            SketchPartials, batch_format="pyarrow",
            fn_constructor_kwargs=params,
            concurrency=concurrency, num_cpus=1, batch_size=batch_size)
    sketch, total = tree_merge_partials(partials, "hll", params,
                                        fanout=fanout)
    return {
        "distinct_tokens": sketch.estimate(),
        "total_tokens": total,
        "sketch": sketch,
    }


def distinct_tokens_by_source(tokens_ds, b: int = 14,
                              hash_name: str = hashing.DEFAULT_HASH,
                              batch_size: int | None = None) -> pd.DataFrame:
    """Per-source distinct-token estimate + exact token count.

    The merge runs over partial-sketch rows (a few per source per batch), so
    nothing heavier than KB-scale sketches ever moves; skewed sources cost
    nothing extra because each input batch contributes at most one partial per
    source (the salted two-level merge collapsed to its limit — the per-batch
    partial IS the salt). The rows merge through the combiner tree
    (``tree_merge_partials``), so there is no all-to-all.
    """
    params = {"b": b, "hash_name": hash_name}
    partials = tokens_ds.map_batches(
        SketchPartials(key_column="source", **params),
        batch_format="pyarrow", batch_size=batch_size,
    )
    merged = tree_merge_partials(partials, "hll", params, key_column="source")
    return _keyed_result_frame(merged, "source", "distinct_tokens",
                               "total_tokens")


def distinct_column_by_key(ds, value_column: str, key_column: str,
                           b: int = 14, *,
                           estimate_name: str = "distinct_values",
                           count_name: str = "n_rows",
                           hash_name: str = hashing.DEFAULT_HASH
                           ) -> pd.DataFrame:
    """Per-key approximate COUNT(DISTINCT value_column) + exact COUNT(*),
    merged through the combiner tree (``tree_merge_partials``).

    Exact (direct-count mode) whenever a key's distinct count is <= 100 —
    the reference's exact regime (HllConstants.cs:42)."""
    params = {"b": b, "hash_name": hash_name}
    partials = ds.map_batches(
        SketchPartials("hll", value_column, key_column=key_column, **params),
        batch_format="pyarrow",
    )
    merged = tree_merge_partials(partials, "hll", params,
                                 key_column=key_column)
    return _keyed_result_frame(merged, key_column, estimate_name, count_name)


def distinct_docs_by_source(tokens_ds, b: int = 14,
                            hash_name: str = hashing.DEFAULT_HASH):
    """Per-source distinct doc_id estimate (exact when <=100 via direct mode)."""
    return distinct_column_by_key(
        tokens_ds, "doc_id", "source", b=b,
        estimate_name="distinct_docs", count_name="n_docs",
        hash_name=hash_name,
    )


def flagship_summary(tokens_ds, b: int = 14,
                     hash_name: str = hashing.DEFAULT_HASH) -> pd.DataFrame:
    """The entry() pipeline: global + per-source distinct counts, one frame.

    ONE corpus scan: the per-source keyed partials tree-merge to one sketch
    per source, and the register-max union of those sketches IS the global
    sketch (lossless union) — so the global row costs a driver-side merge of
    a few KB sketches, not a second scan (round-2 review fix)."""
    params = {"b": b, "hash_name": hash_name}
    partials = tokens_ds.map_batches(
        SketchPartials(key_column="source", **params),
        batch_format="pyarrow", batch_size=None)
    merged = tree_merge_partials(partials, "hll", params, key_column="source")
    per_source = _keyed_result_frame(merged, "source", "distinct_tokens",
                                     "total_tokens")
    glob = HyperLogLog(**params)
    for sk, _ in merged.values():
        glob.merge(sk)
    glob_row = pd.DataFrame(
        {
            "source": ["__all__"],
            "distinct_tokens": [glob.estimate()],
            "total_tokens": [sum(n for _, n in merged.values())],
        }
    )
    out = pd.concat([glob_row, per_source], ignore_index=True)
    return out.sort_values("source").reset_index(drop=True)


def set_ops_distinct(ds, value_column: str, key_column: str,
                     key_a: str, key_b: str, *, b: int = 14,
                     hash_name: str = hashing.DEFAULT_HASH) -> pd.DataFrame:
    """Sketch set operations between two key slices in ONE scan.

    Builds per-key sketches (keyed partials -> tree merge) for the two keys
    and reports |A|, |B|, |A∪B| (lossless: register max IS the union
    sketch) and |A∩B| by inclusion–exclusion (reference limitation: HLL
    cannot sketch intersections, SURVEY.md §2.7 — exact whenever both
    slices are in the ≤100 direct-count regime, which is what the driver
    oracle checks).
    """
    import pyarrow.compute as pc

    def only_keys(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch[key_column],
                                     value_set=pa.array([key_a, key_b])))

    params = {"b": b, "hash_name": hash_name}
    partials = ds.map_batches(only_keys, batch_format="pyarrow").map_batches(
        SketchPartials("hll", value_column, key_column=key_column, **params),
        batch_format="pyarrow")
    merged = tree_merge_partials(partials, "hll", params,
                                 key_column=key_column)
    empty = HyperLogLog(**params)
    sk_a = merged.get(key_a, (empty, 0))[0]
    sk_b = merged.get(key_b, (empty, 0))[0]
    return pd.DataFrame({
        "n_distinct_a": [sk_a.estimate()],
        "n_distinct_b": [sk_b.estimate()],
        "n_union": [HyperLogLog.union_estimate(sk_a, sk_b)],
        "n_intersection": [HyperLogLog.intersection_estimate(sk_a, sk_b)],
    })


def theta_set_ops_tokens(tokens_ds, key_column: str, key_a: str, key_b: str,
                         *, k: int = 4096,
                         token_column: str = "tokens") -> pd.DataFrame:
    """Theta-sketch set expressions between two keys' TOKEN sets, one scan.

    Unlike the HLL inclusion–exclusion path, the KMV/theta sketch estimates
    |A ∩ B| and |A \\ B| DIRECTLY from its hash samples (bounded relative
    error ~1/sqrt(k)); while both slices stay under k distinct values the
    sketch is exact (sketches/theta.py). Partials per batch per key ->
    combiner tree; only <=k-hash sample rows move.
    """
    import pyarrow.compute as pc

    from ..sketches.theta import ThetaSketch

    def only_keys(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch[key_column],
                                     value_set=pa.array([key_a, key_b])))

    params = {"k": k}
    partials = tokens_ds.map_batches(only_keys, batch_format="pyarrow") \
        .map_batches(
            SketchPartials("theta", token_column, key_column=key_column,
                           **params),
            batch_format="pyarrow")
    merged = tree_merge_partials(partials, "theta", params,
                                 key_column=key_column)
    empty = ThetaSketch(**params)
    sk_a = merged.get(key_a, (empty, 0))[0]
    sk_b = merged.get(key_b, (empty, 0))[0]
    return pd.DataFrame({
        "n_distinct_a": [sk_a.estimate()],
        "n_distinct_b": [sk_b.estimate()],
        "n_union": [ThetaSketch.union_estimate(sk_a, sk_b)],
        "n_intersection": [ThetaSketch.intersection_estimate(sk_a, sk_b)],
        "n_a_minus_b": [ThetaSketch.difference_estimate(sk_a, sk_b)],
    })


_OVERLAP_SCHEMA = {
    "key_a": "object", "key_b": "object", "n_a": "int64", "n_b": "int64",
    "n_intersection": "int64", "jaccard": "float64",
}


def pairwise_overlap_matrix(tokens_ds, key_column: str, *, k: int = 4096,
                            token_column: str = "tokens") -> pd.DataFrame:
    """Pairwise token-set overlap between ALL keys (source-similarity
    matrix): one scan builds a keyed theta sketch per key, the driver
    reads off every pair's intersection/jaccard DIRECTLY from the hash
    samples — |keys| x k driver state, no pairwise corpus scans, no
    shuffle beyond the <=k-hash partial rows.

    Exact while each key's distinct-token count stays under k (theta=1);
    above k the estimates carry the ~1/sqrt(k) KMV error. Returns
    (key_a, key_b, n_a, n_b, n_intersection, jaccard) for key_a < key_b.

    **Key-cardinality bound** (documented contract): driver memory is
    |keys| x k x 8 bytes and the pair loop is O(|keys|^2 x k) driver
    compute — sized for GROUPING keys (sources, languages, shards:
    10-10^3 keys -> <=4 GiB and seconds of driver work at k=4096), NOT
    for per-document keys. Above ~10^3 keys use
    :func:`pairwise_overlap_matrix_distributed`, which computes the same
    matrix (bit-identical, asserted in tests) with the hash samples
    never leaving the cluster — driver state falls to O(|keys|) scalars
    plus the pair output itself.
    """
    from ..sketches.theta import ThetaSketch

    params = {"k": k}
    partials = tokens_ds.map_batches(
        SketchPartials("theta", token_column, key_column=key_column,
                       **params),
        batch_format="pyarrow")
    merged = tree_merge_partials(partials, "theta", params,
                                 key_column=key_column)
    keys = sorted(merged)
    estimates = {k: int(merged[k][0].estimate()) for k in keys}
    rows = []
    for i, ka in enumerate(keys):
        sk_a = merged[ka][0]
        for kb in keys[i + 1:]:
            sk_b = merged[kb][0]
            inter = ThetaSketch.intersection_estimate(sk_a, sk_b)
            # the direct sample-ratio estimator (theta.py) — consistent
            # with the sketch layer and cheaper than a per-pair
            # union-merge; identical to inter/union in the exact regime
            jac = ThetaSketch.jaccard_estimate(sk_a, sk_b)
            rows.append({
                "key_a": ka, "key_b": kb,
                "n_a": estimates[ka], "n_b": estimates[kb],
                "n_intersection": int(inter),
                "jaccard": float(jac),
            })
    # rows are generated in sorted (key_a, key_b) order from sorted(merged)
    return typed_frame(pd.DataFrame(rows), _OVERLAP_SCHEMA)


def pairwise_overlap_matrix_distributed(
        tokens_ds, key_column: str, *, k: int = 4096,
        token_column: str = "tokens", n_buckets: int = 256) -> pd.DataFrame:
    """Scale path for :func:`pairwise_overlap_matrix` — same matrix,
    bit-identical values (asserted in ``tests/test_theta.py``), but the
    per-key hash samples NEVER land on the driver.

    The theta estimators decompose into co-occurrence counts: a hash
    retained by two keys is automatically below the pair's common theta
    (each retained set only holds hashes below its own theta, and the
    common theta is the min), so

    - ``n_intersection(a, b)`` needs only the count of hashes retained by
      BOTH keys, and
    - the Jaccard denominator needs, per key, the count of its retained
      hashes below each OTHER key's theta — a |keys| x |distinct
      non-exact thetas| matrix ``C`` built with one histogram pass.

    Shape: keyed theta partials -> per-key
    ``groupby(key).map_groups`` merge (a Dataset row per key, blob <= k
    hashes) -> per-key scalars (theta/estimate/|retained|) to the driver
    (O(|keys|) tiny rows) -> hash-range-bucketed ``groupby`` over exploded
    (key, hash) sample rows, each bucket emitting pre-aggregated
    co-occurrence pairs (segment-sorted predecessor-shift enumeration, the
    :mod:`.similarity` combiner shape) and theta-histogram partials ->
    vectorized driver assembly over ``triu_indices``.

    Driver memory: O(|keys| + |keys| x T + nonzero pairs) vs the direct
    path's |keys| x k hashes; driver compute O(|keys|^2) numpy vs
    O(|keys|^2 x k) Python. The |keys|^2/2-row OUTPUT is the remaining
    bound — inherent to a dense pairwise matrix (at 3x10^4 keys that is
    ~4.5x10^8 rows; beyond that a dense matrix is the wrong ask).
    """
    import numpy as np

    from ..sketches.base import sketch_from_bytes
    from ..stages.sketch_stages import _merge_block_fn

    if n_buckets < 2 or (n_buckets & (n_buckets - 1)):
        raise ValueError(
            f"n_buckets must be a power of two >= 2, got {n_buckets}")
    shift = 64 - (int(n_buckets).bit_length() - 1)  # h >> shift in [0, B)

    partials = tokens_ds.map_batches(
        SketchPartials("theta", token_column, key_column=key_column, k=k),
        batch_format="pyarrow")

    merge_keyed = _merge_block_fn("theta", key_column)

    def merge_group(grp: pa.Table) -> pa.Table:
        sub = merge_keyed(grp)
        if sub.num_rows != 1:
            raise AssertionError("groupby handed a multi-key group")
        return sub

    # the keyed groupby leaves EXACTLY one (key, blob) row per key,
    # cluster-resident
    merged_ds = (partials
                 .groupby(key_column)
                 .map_groups(merge_group, batch_format="pyarrow")
                 .materialize())

    def meta_rows(tbl: pa.Table) -> pa.Table:
        ks, exact, th, nret, est = [], [], [], [], []
        for key, blob in zip(tbl[key_column].to_pylist(),
                             tbl["sketch"].to_pylist()):
            sk = sketch_from_bytes("theta", blob)
            ks.append(key)
            exact.append(sk.is_exact())
            th.append(0 if sk.is_exact() else sk.theta64)
            nret.append(len(sk.retained))
            est.append(int(sk.estimate()))
        return pa.table({
            key_column: tbl[key_column],  # typed even on empty blocks
            "exact": pa.array(exact, type=pa.bool_()),
            "theta64": pa.array(np.asarray(th, dtype=np.uint64)),
            "n_retained": pa.array(nret, type=pa.int64()),
            "estimate": pa.array(est, type=pa.int64()),
        })

    meta = merged_ds.map_batches(meta_rows, batch_format="pyarrow").to_pandas()
    if len(meta) < 2:
        return typed_frame(None, _OVERLAP_SCHEMA)
    meta = meta.sort_values(key_column).reset_index(drop=True)
    n = len(meta)
    keys = meta[key_column].tolist()
    key_idx = {key: i for i, key in enumerate(keys)}
    exact = meta["exact"].to_numpy(bool)
    theta64 = meta["theta64"].to_numpy(np.uint64)
    n_ret = meta["n_retained"].to_numpy(np.int64)
    est = meta["estimate"].to_numpy(np.int64)
    # distinct NON-exact thetas (exact keys need no below-theta counts:
    # every retained hash of any key is below 2^64)
    thetas = np.unique(theta64[~exact])
    n_thetas = len(thetas)

    def explode(tbl: pa.Table) -> pa.Table:
        hs, ks = [], []
        for key, blob in zip(tbl[key_column].to_pylist(),
                             tbl["sketch"].to_pylist()):
            sk = sketch_from_bytes("theta", blob)
            hs.append(sk.retained)
            ks.append(np.full(len(sk.retained), key_idx[key],
                              dtype=np.int32))
        h = (np.concatenate(hs) if hs
             else np.empty(0, dtype=np.uint64))
        kix = (np.concatenate(ks) if ks
               else np.empty(0, dtype=np.int32))
        return pa.table({
            "bucket": pa.array((h >> np.uint64(shift)).astype(np.int32)),
            "kix": pa.array(kix),
            "h": pa.array(h),
        })

    def bucket_counts(grp: pa.Table) -> pa.Table:
        """One hash-range bucket: pre-aggregated pair co-occurrences
        (kind=0) and theta-histogram partials (kind=1)."""
        h = grp["h"].to_numpy(zero_copy_only=False).astype(np.uint64)
        kix = grp["kix"].to_numpy(zero_copy_only=False).astype(np.int64)
        packs = []
        # --- co-occurrence pairs: runs of equal h, predecessor shift.
        # kix ascends within a run, so a < b for free; a key appears at
        # most once per run (per-key retained hashes are distinct).
        order = np.lexsort((kix, h))
        hs, ks = h[order], kix[order]
        if len(hs) > 1:
            seg_id = np.cumsum(np.r_[True, hs[1:] != hs[:-1]]) - 1
            kmax = int(np.bincount(seg_id).max())
            for d in range(1, kmax):
                same = seg_id[d:] == seg_id[:-d]
                if not same.any():
                    break
                packs.append((ks[:-d][same] << 32) + (ks[d:][same] << 1))
        # --- theta histogram: element contributes to C[key, t] for every
        # non-exact theta t > h, i.e. bins >= searchsorted(right)
        if n_thetas:
            bins = np.searchsorted(thetas, h, side="right").astype(np.int64)
            live = bins < n_thetas
            if live.any():
                packs.append((kix[live] << 32) + (bins[live] << 1) + 1)
        if not packs:
            return pa.table({"pack": pa.array([], type=pa.int64()),
                             "count": pa.array([], type=pa.int64())})
        allp = np.concatenate(packs)
        up, uc = np.unique(allp, return_counts=True)
        return pa.table({"pack": pa.array(up),
                         "count": pa.array(uc.astype(np.int64))})

    agg = (merged_ds.map_batches(explode, batch_format="pyarrow")
           .groupby("bucket")
           .map_groups(bucket_counts, batch_format="pyarrow"))

    # the reduced rows are O(nonzero pairs + |keys| x T) — stream + fold
    parts_p, parts_c = [], []
    for batch in agg.iter_batches(batch_size=None, batch_format="pyarrow"):
        parts_p.append(batch["pack"].to_numpy(zero_copy_only=False))
        parts_c.append(batch["count"].to_numpy(zero_copy_only=False))
    if parts_p:
        pack = np.concatenate(parts_p).astype(np.int64)
        cnt = np.concatenate(parts_c).astype(np.int64)
        order = np.argsort(pack, kind="stable")
        pack, cnt = pack[order], cnt[order]
        first = np.r_[True, pack[1:] != pack[:-1]]
        upack = pack[first]
        ucnt = np.add.reduceat(cnt, np.flatnonzero(first))
    else:
        upack = np.empty(0, dtype=np.int64)
        ucnt = np.empty(0, dtype=np.int64)

    kind = upack & 1
    hi = upack >> 32                               # key index a
    lo = (upack >> 1) & np.int64((1 << 31) - 1)    # key index b / theta bin
    # C[key, t] = count of key's retained hashes below thetas[t]
    C = np.zeros((n, max(n_thetas, 1)), dtype=np.int64)
    tmask = kind == 1
    C[hi[tmask], lo[tmask]] = ucnt[tmask]
    C = np.cumsum(C, axis=1)

    ia, ib = np.triu_indices(n, 1)  # lexicographic (key_a, key_b) order
    ppack = (ia.astype(np.int64) << 32) + (ib.astype(np.int64) << 1)
    pair_pack = upack[~tmask]
    pair_cnt = ucnt[~tmask]
    if len(pair_pack):
        pos = np.minimum(np.searchsorted(pair_pack, ppack),
                         len(pair_pack) - 1)
        inter = np.where(pair_pack[pos] == ppack, pair_cnt[pos], 0) \
            .astype(np.int64)
    else:
        inter = np.zeros(len(ia), dtype=np.int64)

    both_exact = exact[ia] & exact[ib]
    # effective theta comparison: exact == 2^64 beats any stored value
    a_is_min = (~exact[ia]) & (exact[ib] | (theta64[ia] <= theta64[ib]))
    b_is_min = (~exact[ib]) & (exact[ia] | (theta64[ib] <= theta64[ia]))
    theta_c = np.where(a_is_min, theta64[ia], theta64[ib])  # valid ~both_exact
    t_idx = np.searchsorted(thetas, theta_c) if n_thetas else \
        np.zeros(len(ia), dtype=np.int64)
    t_idx = np.minimum(t_idx, max(n_thetas - 1, 0))
    ca = np.where(both_exact | a_is_min, n_ret[ia], C[ia, t_idx])
    cb = np.where(both_exact | b_is_min, n_ret[ib], C[ib, t_idx])

    with np.errstate(invalid="ignore", divide="ignore"):
        inter_est = np.where(
            both_exact, inter,
            np.rint(inter / (np.maximum(theta_c, 1).astype(np.float64)
                             / _U64_SPAN)).astype(np.int64)).astype(np.int64)
        union = ca + cb - inter
        jaccard = np.where(union == 0, 1.0, inter / np.maximum(union, 1))

    keys_arr = np.asarray(keys, dtype=object)
    return pd.DataFrame({
        "key_a": keys_arr[ia], "key_b": keys_arr[ib],
        "n_a": est[ia], "n_b": est[ib],
        "n_intersection": inter_est,
        "jaccard": jaccard.astype(np.float64),
    })
