"""Approximate-nearest-neighbor search over an embedding column.

- ``ann_topk_brute``: exact cosine top-k — the broadcast pattern (query
  matrix ``ray.put`` once, numpy matmul per batch, per-batch partial top-k
  rows, driver-side final heap over q*k*n_batches tiny rows).
- ``ann_topk_ivf``: the scale path — coarse k-means cells (trained on a
  fixed-count distributed bottom-k sample), vectors pre-assigned to cells,
  queries probe only their ``nprobe`` nearest cells, so each batch scores
  only the matching subset. Same output shape; recall < 1 controlled by
  nprobe.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.text import vector_matrix
from ..sources.io import typed_frame


def _normalize(mat: np.ndarray) -> np.ndarray:
    return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)


def _exact_cosine(rows_f4: np.ndarray, q_f8: np.ndarray) -> np.ndarray:
    """Layout-invariant cosine for the REPORTED winners: elementwise
    multiply + numpy's fixed-order pairwise sum over d. The selection GEMM
    (``x @ q.T``) reduces in a shape-dependent order — batch height varies
    with block layout / parallelism, so its low bits drifted across runs
    (observed: ann_topk_ivf hashed differently at 8 vs 32 CPUs with
    identical ids/ranks). Recomputing only the <= k*q selected pairs per
    batch costs nothing and makes the emitted value a pure per-row
    function. ``rows_f4`` is the normalized float32 winner block; ``q_f8``
    one query vector (d,) or a matching (m, d) block."""
    return (rows_f4.astype(np.float64) * q_f8).sum(axis=1)


def _local_topk(x: np.ndarray, ids: np.ndarray, q_f4: np.ndarray,
                q64: np.ndarray, kk: int):
    """Per-batch top-kk per query by the layout-invariant
    (exact cosine desc, id asc) order — GEMM as a PREFILTER only.

    The float32 GEMM's low bits depend on row position and kernel shape
    (observed: an sgemm edge column gave one row of a 250-way EXACT tie a
    1-ulp-high score, so raw-GEMM selection ejected the id the global
    tie-break prefers — skewed-base ann_topk_ivf_exact divergence, round-4
    session 8). So: keep every row within a d*eps margin of the kk-th GEMM
    score, recompute the exact per-row float64 cosine on those candidates
    (:func:`_exact_cosine`), and rank by (exact desc, id asc). The margin
    (8x the classic d*eps forward-error bound on a float32 dot of unit
    vectors) guarantees the exact top-kk survive the prefilter; candidate
    counts stay O(kk + tie-cluster), so the recompute is negligible.

    Yields (query_index, selected_ids, exact_cosines) per query.
    """
    if kk <= 0 or len(ids) == 0:
        return
    sims = x @ q_f4.T  # (n, q) float32 prefilter
    n, nq = sims.shape
    margin = np.float32(8 * x.shape[1] * np.finfo(np.float32).eps)
    kth = -np.partition(-sims, kk - 1, axis=0)[kk - 1]  # (q,), kk <= n
    for qi in range(nq):
        cand = np.flatnonzero(sims[:, qi] >= kth[qi] - margin)
        ex = _exact_cosine(x[cand], q64[qi])
        order = np.lexsort((ids[cand], -ex))[:kk]
        yield qi, ids[cand[order]], ex[order]


def _finalize_topk(partials: pd.DataFrame, k: int,
                   id_column: str) -> pd.DataFrame:
    """Driver-side final top-k over the tiny candidate set
    (<= queries * k * n_batches rows by construction). Shared by the brute
    and IVF paths so the empty-frame schema and the (cosine desc, id asc)
    tie-break cannot diverge between them."""
    if len(partials) == 0:
        return typed_frame(None, {"query_id": "int64", "rank": "int64",
                                  id_column: "int64", "cosine": "float64"})
    qid = partials["query_id"].to_numpy(np.int64)
    ids = partials[id_column].to_numpy(np.int64)
    cos = partials["cosine"].to_numpy(np.float64)
    # one lexsort replaces the per-group sort_values + iterrows loop:
    # (query asc, cosine desc, id asc) — identical ordering and tie-break
    order = np.lexsort((ids, -cos, qid))
    qid, ids, cos = qid[order], ids[order], cos[order]
    starts = np.flatnonzero(np.r_[True, qid[1:] != qid[:-1]])
    seg_len = np.diff(np.r_[starts, len(qid)])
    rank = np.arange(len(qid), dtype=np.int64) - np.repeat(starts, seg_len)
    keep = rank < k
    return pd.DataFrame({"query_id": qid[keep], "rank": rank[keep],
                         id_column: ids[keep], "cosine": cos[keep]})


def _require_int_ids(emb_ds, id_column: str) -> None:
    """The scoring stages and the top-k finalize are int64-typed end to
    end; fail at the entry point with the constraint named instead of an
    astype error two stages in (round-4 session-9 review)."""
    sch = emb_ds.schema()
    if sch is None:
        return
    t = dict(zip(sch.names, sch.types)).get(id_column)
    if not isinstance(t, pa.DataType):
        return  # pandas-backed datasets report Python types here
    if not pa.types.is_integer(t):
        raise ValueError(
            f"ANN id column {id_column!r} must be an integer type, got "
            f"{t} (map string ids to int64 upstream, e.g. a dictionary "
            f"encode or a hash, and keep the mapping for the join back)")


def ann_topk_brute(emb_ds, queries: np.ndarray, k: int = 10, *,
                   vector_column: str = "embedding",
                   id_column: str = "vec_id") -> pd.DataFrame:
    """Exact cosine top-k for each query vector (baseline + verifier).

    Returns (query_id, rank, vec_id, cosine), rank 0 = best.
    """
    import ray

    _require_int_ids(emb_ds, id_column)
    q_unit = _normalize(np.asarray(queries, dtype=np.float32))
    qref = ray.put(q_unit)

    class Score:
        def __init__(self):
            self.q = ray.get(qref)  # fetched once per actor, not per batch
            self.q64 = self.q.astype(np.float64)

        def __call__(self, batch: pa.Table) -> pa.Table:
            x = _normalize(vector_matrix(batch[vector_column], vector_column)
                           .astype(np.float32))
            ids = (batch[id_column].to_numpy(zero_copy_only=False)
                   .astype(np.int64))
            kk = min(k, len(ids))
            out_qid, out_id, out_cos = [], [], []
            # _local_topk selects by (exact cosine desc, id asc) — a pure
            # per-row function, so duplicate embeddings and GEMM low-bit
            # drift can't eject the id the driver tie-break prefers
            for qi, sel_ids, sel_cos in _local_topk(x, ids, self.q,
                                                    self.q64, kk):
                out_qid.extend([qi] * len(sel_ids))
                out_id.extend(sel_ids.tolist())
                out_cos.extend(sel_cos.tolist())
            return pa.table({
                "query_id": pa.array(out_qid, type=pa.int64()),
                id_column: pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_cos, type=pa.float64()),
            })

    partials = emb_ds.map_batches(Score, batch_format="pyarrow",
                                  concurrency=(1, 8)).to_pandas()
    return _finalize_topk(partials, k, id_column)


def _fixed_count_sample(emb_ds, n: int, *, vector_column: str,
                        id_column: str, seed: int) -> np.ndarray:
    """Uniform fixed-count sample of vectors, never O(corpus) anywhere.

    Bottom-k-by-hash-tag (distributed reservoir): each batch keeps its n
    smallest deterministic tags (splitmix64 of the id), then a distributed
    ``sort(tag).limit(n)`` over the ≤ n-per-block candidates hands the
    driver EXACTLY n rows. Replaces round 1's
    ``random_sample(fraction).take_all()``, which materialized a constant
    FRACTION of the corpus on the driver (round-1 VERDICT fix).
    """
    from ..sketches import hashing

    def bottom(batch: pa.Table) -> pa.Table:
        ids_col = batch[id_column]
        if isinstance(ids_col, pa.ChunkedArray):
            ids_col = ids_col.combine_chunks()
        # integer ids only — the ANN entry points validate this up front
        # (a string branch here was dead generality: the scoring stages
        # and the top-k finalize are int64-typed; round-4 session-9 review)
        h = ids_col.to_numpy(zero_copy_only=False).astype(np.uint64)
        tags = hashing.splitmix64(h + np.uint64(seed))
        kk = min(n, len(tags))
        if len(tags) > kk:
            idx = np.argpartition(tags, kk - 1)[:kk]
        else:
            idx = np.arange(len(tags))
        vec = batch[vector_column]
        if isinstance(vec, pa.ChunkedArray):
            vec = vec.combine_chunks()
        return pa.table({
            "tag": pa.array(tags[idx]),
            vector_column: vec.take(pa.array(idx)),
        })

    cand = emb_ds.map_batches(bottom, batch_format="pyarrow")
    rows = cand.sort("tag").limit(n).take_all()
    if not rows:
        return np.empty((0, 0), dtype=np.float32)
    return np.stack([r[vector_column] for r in rows]).astype(np.float32)


def _kmeans_lite(sample: np.ndarray, n_cells: int, iters: int = 8,
                 seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = sample[rng.choice(len(sample), size=n_cells, replace=False)]
    for _ in range(iters):
        assign = np.argmax(sample @ centers.T, axis=1)
        for c in range(n_cells):
            members = sample[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        centers = _normalize(centers)
    return centers


def ann_topk_ivf(emb_ds, queries: np.ndarray, k: int = 10, *,
                 n_cells: int = 16, nprobe: int = 4,
                 sample_count: int = 4096,
                 vector_column: str = "embedding",
                 id_column: str = "vec_id", seed: int = 11) -> pd.DataFrame:
    """IVF-style ANN: probe only the nprobe nearest coarse cells per query.

    Scale shape: centroid training reads a FIXED-COUNT sample (``sample_count``
    rows via distributed bottom-k-by-tag — O(sample_count) on the driver no
    matter the corpus size); the scoring stage broadcasts (centroids, queries)
    once and each batch scores only rows whose cell is probed by some query.
    At nprobe == n_cells this degrades gracefully to brute force.

    Determinism: the training sample is a pure function of the row set
    (splitmix64 tags are a bijection of unique ids — no ties), k-means from
    it is seeded numpy on the driver, and the reported cosine is the
    layout-invariant :func:`_exact_cosine` recompute — so the output is
    bit-identical across block layouts / parallelism levels (COVERAGE.md
    determinism matrix; before the recompute, GEMM's shape-dependent
    reduction drifted the cosine low bits at 8 vs 32 CPUs). Residual
    caveat: a 1-ulp near-tie at a cell-assignment or local-selection
    boundary could still flip a candidate between layouts — inherent to
    approximate search over float scores, never observed at test scale;
    ``nprobe == n_cells`` (``ann_topk_ivf_exact``) remains the exact-recall
    regime the oracle checks.
    """
    import ray

    _require_int_ids(emb_ds, id_column)
    q_unit = _normalize(np.asarray(queries, dtype=np.float32))
    sample = _fixed_count_sample(emb_ds, sample_count,
                                 vector_column=vector_column,
                                 id_column=id_column, seed=seed)
    if sample.size == 0:  # empty corpus: typed empty frame like every path
        return _finalize_topk(pd.DataFrame(), k, id_column)
    sample = _normalize(sample)
    n_cells = min(n_cells, len(sample))
    centers = _kmeans_lite(sample, n_cells, seed=seed)
    # cells each query probes
    probe = np.argsort(-(q_unit @ centers.T), axis=1)[:, :nprobe]  # (q, nprobe)
    bundle = ray.put((q_unit, centers, probe))

    class Score:
        def __init__(self):
            self.q, self.centers, self.probe = ray.get(bundle)
            self.q64 = self.q.astype(np.float64)
            # cell -> query ids probing it
            self.cell_queries = {c: np.flatnonzero((self.probe == c).any(axis=1))
                                 for c in range(len(self.centers))}

        def __call__(self, batch: pa.Table) -> pa.Table:
            x = _normalize(vector_matrix(batch[vector_column], vector_column)
                           .astype(np.float32))
            ids = (batch[id_column].to_numpy(zero_copy_only=False)
                   .astype(np.int64))
            cells = np.argmax(x @ self.centers.T, axis=1)
            out_qid, out_id, out_cos = [], [], []
            for c in np.unique(cells):
                qids = self.cell_queries.get(int(c))
                if qids is None or len(qids) == 0:
                    continue
                mask = cells == c
                sub = x[mask]
                sub_ids = ids[mask]
                kk = min(k, len(sub_ids))
                # _local_topk selects by (exact cosine desc, id asc) — a
                # pure per-row function, so GEMM low-bit drift can't eject
                # the id the driver tie-break prefers (matters in the
                # nprobe == n_cells exact regime the oracle checks)
                for qi, sel_ids, sel_cos in _local_topk(
                        sub, sub_ids, self.q[qids], self.q64[qids], kk):
                    out_qid.extend([int(qids[qi])] * len(sel_ids))
                    out_id.extend(sel_ids.tolist())
                    out_cos.extend(sel_cos.tolist())
            return pa.table({
                "query_id": pa.array(out_qid, type=pa.int64()),
                id_column: pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_cos, type=pa.float64()),
            })

    partials = emb_ds.map_batches(Score, batch_format="pyarrow",
                                  concurrency=(1, 8)).to_pandas()
    return _finalize_topk(partials, k, id_column)
