"""Frequency pipelines: exact top-k (pre-aggregated groupby) and count-min
point estimates."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sketches.countmin import CountMinSketch
from ..sources.io import typed_frame
from ..stages.sketch_stages import (
    SketchPartials,
    _flatten_list_column,
    tree_merge_partials,
)

_TOKEN_COUNTS = {"token": "int32", "cnt": "int64"}
_BIGRAM_COUNTS = {"token_a": "int32", "token_b": "int32", "cnt": "int64"}


def _batch_token_counts(batch: pa.Table, token_column: str) -> pa.Table:
    """Pre-aggregate token counts within a batch (the combiner): emits at most
    one row per distinct token per batch, so the downstream groupby shuffles
    vocabulary-sized partials, never the corpus."""
    values, _ = _flatten_list_column(batch[token_column])
    uniq, counts = np.unique(values, return_counts=True)
    return pa.table({
        "token": pa.array(uniq, type=pa.int32()),
        "cnt": pa.array(counts.astype(np.int64)),
    })


def token_topk_exact(tokens_ds, k: int = 100, token_column: str = "tokens"):
    """Exact top-k most frequent token ids.

    Per-batch combiner -> groupby(token).sum -> deterministic sort
    (count desc, token asc) -> limit k. The only all-to-all moves
    (distinct-tokens-per-batch) rows.
    """
    from ray.data.aggregate import Sum

    partial = tokens_ds.map_batches(
        lambda b: _batch_token_counts(b, token_column), batch_format="pyarrow")
    agg = partial.groupby("token").aggregate(Sum("cnt", alias_name="cnt"))

    def block_topk(tbl: pa.Table) -> pa.Table:
        # post-groupby every token lives in exactly one row, so a per-block
        # top-k is a lossless prune: any global top-k row survives its own
        # block's top-k. Shrinks the final sort from vocab-sized to
        # k x blocks rows.
        if len(tbl) <= k:
            return tbl
        cnt = tbl["cnt"].to_numpy(zero_copy_only=False)
        tok = tbl["token"].to_numpy(zero_copy_only=False)
        idx = np.lexsort((tok, -cnt))[:k]
        return tbl.take(pa.array(np.sort(idx)))

    pruned = agg.map_batches(block_topk, batch_format="pyarrow",
                             batch_size=None)
    top = pruned.sort(["cnt", "token"], descending=[True, False]).limit(k)
    return typed_frame(top, _TOKEN_COUNTS)


def heavy_hitters(make_tokens_ds, phi: float = 0.01, *,
                  depth: int = 5, width: int | None = None,
                  token_column: str = "tokens") -> pd.DataFrame:
    """EXACT phi-heavy hitters (tokens with count >= phi * N) via a two-pass
    sketch-then-verify plan that never shuffles the corpus:

    1. build a count-min sketch (partials + merge tree);
    2. per batch, query the broadcast sketch for the batch's distinct tokens
       and emit only candidates with estimate >= phi*N — count-min never
       underestimates, so NO true heavy hitter can be dismissed;
    3. exact-count the candidate set (combiner + tiny groupby) and filter.

    ``make_tokens_ds`` is a zero-arg factory (the dataset is consumed twice).
    Output is exact -> oracle-checkable against GROUP BY ... HAVING.
    """
    import math

    import ray
    from ray.data.aggregate import Sum

    if width is None:
        # candidate completeness only needs the CMS overestimate to stay
        # below ~phi/4 of N beyond truth; wider just shrinks the candidate
        # set that exact verification filters anyway
        width = 1 << max(10, math.ceil(math.log2(4 * math.e / phi)))

    params = {"depth": depth, "width": width}
    partials = make_tokens_ds().map_batches(
        SketchPartials("countmin", token_column, **params),
        batch_format="pyarrow",
    )
    cms, total = tree_merge_partials(partials, "countmin", params)
    if total == 0:
        return typed_frame(None, _TOKEN_COUNTS)
    threshold = phi * total
    cms_ref = ray.put(cms.to_bytes())  # broadcast once; plasma-cached per node

    def candidate_counts(batch: pa.Table) -> pa.Table:
        # stateless task: full scheduler width; the broadcast blob fetch is
        # zero-copy from the local object store after the first task per node
        sketch = CountMinSketch.from_bytes(ray.get(cms_ref))
        values, _ = _flatten_list_column(batch[token_column])
        uniq, counts = np.unique(values, return_counts=True)
        est = sketch.query_values(uniq.astype(np.int32))
        keep = est >= threshold
        return pa.table({
            "token": pa.array(uniq[keep].astype(np.int32)),
            "cnt": pa.array(counts[keep].astype(np.int64)),
        })

    cand = make_tokens_ds().map_batches(candidate_counts,
                                        batch_format="pyarrow")
    agg = cand.groupby("token").aggregate(Sum("cnt", alias_name="cnt"))
    df = typed_frame(agg, _TOKEN_COUNTS)
    df = df[df["cnt"] >= threshold]
    return df.sort_values(["cnt", "token"],
                          ascending=[False, True]).reset_index(drop=True)


def exact_token_counts(tokens_ds, probe_tokens, *,
                       token_column: str = "tokens") -> pd.DataFrame:
    """EXACT occurrence counts for a small probe set of token ids.

    One corpus scan: each batch histograms its flat tokens against the
    (closure-broadcast) sorted probe array via searchsorted — emitting
    len(probes) partial rows per batch — then a tiny groupby-sum. No
    vocabulary-sized shuffle, nothing row-scale on the driver; this is the
    exact-verify pass that upgrades sketch answers (CMS estimates, Bloom
    positives) to oracle-checkable truths.

    Probes compare in int64, so out-of-int32-range probes (impossible in
    an int32 token column) correctly count 0. Probes must be unique.
    """
    from ray.data.aggregate import Sum

    probes = np.asarray(probe_tokens, dtype=np.int64)
    if len(np.unique(probes)) != len(probes):
        raise ValueError("probe_tokens must be unique")
    if len(probes) == 0:
        return typed_frame(None, {"token": "int64", "cnt": "int64"})
    sorted_probes = np.sort(probes)

    def partial(batch: pa.Table) -> pa.Table:
        values, _ = _flatten_list_column(batch[token_column])
        v = values.astype(np.int64)
        pos = np.clip(np.searchsorted(sorted_probes, v), 0,
                      len(sorted_probes) - 1)
        hit = sorted_probes[pos] == v
        counts = np.zeros(len(sorted_probes), dtype=np.int64)
        np.add.at(counts, pos[hit], 1)
        return pa.table({
            "slot": pa.array(np.arange(len(sorted_probes), dtype=np.int64)),
            "cnt": pa.array(counts),
        })

    agg = tokens_ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("slot").aggregate(Sum("cnt", alias_name="cnt")).to_pandas()
    counts = np.zeros(len(sorted_probes), dtype=np.int64)
    if len(agg):
        counts[agg["slot"].to_numpy()] = agg["cnt"].to_numpy()
    # back to the caller's probe order
    out = counts[np.searchsorted(sorted_probes, probes)]
    return pd.DataFrame({"token": probes, "cnt": out})


def token_frequencies_cms(tokens_ds, probe_tokens: np.ndarray, *,
                          depth: int = 5, width: int = 1 << 16,
                          token_column: str = "tokens") -> pd.DataFrame:
    """Count-min frequency estimates for the probe tokens.

    Guarantees est >= true count and est <= true + eps*N w.p. 1-delta
    (published count-min bounds); the sketch is built distributed (partial
    per batch, merge = elementwise add) and queried on the driver.
    """
    params = {"depth": depth, "width": width}
    partials = tokens_ds.map_batches(
        SketchPartials("countmin", token_column, **params),
        batch_format="pyarrow",
    )
    # tree-task memory = fanout x blob size: at the default width 2^16 a
    # CMS blob is depth x width x 8 B ~= 2.6 MB, so the global tree's
    # fanout=64 would hand each merge task ~170 MB — cap the bundle to
    # keep merge tasks within a lean worker heap (elementwise add is
    # bandwidth-bound anyway; 16 blobs per task loses no parallelism)
    cms, total = tree_merge_partials(partials, "countmin", params, fanout=16)
    probes = np.asarray(probe_tokens, dtype=np.int32)
    est = cms.query_values(probes)
    return pd.DataFrame({
        "token": probes,
        "est_count": est.astype(np.int64),
        "total_tokens": np.int64(total),
    })


def token_bigram_topk(tokens_ds, k: int = 20,
                      token_column: str = "tokens") -> pd.DataFrame:
    """Exact top-k most frequent consecutive token PAIRS (bigrams).

    The windowed-n-gram pattern over token streams: pairs are packed into
    one int64 per bigram inside the batch (vectorized shift-or, document
    boundaries masked), pre-aggregated per batch, then the same
    combiner -> groupby -> lossless per-block prune -> sort/limit plan as
    :func:`token_topk_exact`.

    Scale caveat (unlike unigram top-k): the bigram vocabulary grows toward
    V^2, so the per-batch combiner compresses far less — the groupby can
    approach corpus-sized input on natural text. This exact operator is the
    small/medium-corpus oracle; at 100 TB run the CMS candidates + exact
    verify plan instead (:func:`heavy_hitters` with packed bigram ids),
    which never shuffles more than the candidate set.
    """
    from ray.data.aggregate import Sum

    def batch_bigram_counts(batch: pa.Table) -> pa.Table:
        pair = _packed_bigrams(batch, token_column)
        if len(pair) == 0:
            return pa.table({"token_a": pa.array([], type=pa.int32()),
                             "token_b": pa.array([], type=pa.int32()),
                             "cnt": pa.array([], type=pa.int64())})
        uniq, counts = np.unique(pair, return_counts=True)
        return pa.table({
            "token_a": pa.array((uniq >> 32).astype(np.int32)),
            "token_b": pa.array((uniq & 0xFFFFFFFF).astype(np.uint32)
                                .view(np.int32)),
            "cnt": pa.array(counts.astype(np.int64)),
        })

    partial = tokens_ds.map_batches(batch_bigram_counts,
                                    batch_format="pyarrow")
    agg = partial.groupby(["token_a", "token_b"]).aggregate(
        Sum("cnt", alias_name="cnt"))

    def block_topk(tbl: pa.Table) -> pa.Table:
        if len(tbl) <= k:
            return tbl
        cnt = tbl["cnt"].to_numpy(zero_copy_only=False)
        a = tbl["token_a"].to_numpy(zero_copy_only=False)
        b = tbl["token_b"].to_numpy(zero_copy_only=False)
        idx = np.lexsort((b, a, -cnt))[:k]
        return tbl.take(pa.array(np.sort(idx)))

    pruned = agg.map_batches(block_topk, batch_format="pyarrow",
                             batch_size=None)
    top = pruned.sort(["cnt", "token_a", "token_b"],
                      descending=[True, False, False]).limit(k)
    return typed_frame(top, _BIGRAM_COUNTS)


def _packed_bigrams(batch: pa.Table, token_column: str) -> np.ndarray:
    """int64-packed consecutive token pairs of a batch (doc-boundary masked)."""
    values, offsets = _flatten_list_column(batch[token_column])
    if len(values) < 2:
        return np.empty(0, dtype=np.int64)
    # pair (i, i + 1) crosses a document boundary iff a row starts at i + 1
    starts = offsets[1:-1]
    same_doc = np.ones(len(values) - 1, dtype=bool)
    same_doc[starts[(starts > 0) & (starts < len(values))] - 1] = False
    # low word masked: negative ids must not sign-extend over the high word
    return ((values[:-1].astype(np.int64) << 32)
            | (values[1:].astype(np.int64) & 0xFFFFFFFF))[same_doc]


def bigram_heavy_hitters(make_tokens_ds, phi: float = 0.001, *,
                         depth: int = 5, width: int | None = None,
                         token_column: str = "tokens") -> pd.DataFrame:
    """EXACT phi-heavy-hitter BIGRAMS — the 100 TB-scale answer to
    :func:`token_bigram_topk`'s full-vocabulary shuffle.

    Same provably-exact two-pass plan as :func:`heavy_hitters` (CMS build ->
    broadcast -> candidate filter -> exact verify), run over int64-packed
    consecutive token pairs: nothing bigger than the candidate set (bounded
    by ~1/phi plus CMS collisions) ever reaches the groupby, no matter how
    large the bigram vocabulary grows.
    """
    import math

    import ray
    from ray.data.aggregate import Sum

    if width is None:
        width = 1 << max(10, math.ceil(math.log2(4 * math.e / phi)))

    params = {"depth": depth, "width": width}

    def build_partial(batch: pa.Table) -> pa.Table:
        cms = CountMinSketch(**params)
        pairs = _packed_bigrams(batch, token_column)
        cms.add_values(pairs)
        return pa.table({
            "sketch": pa.array([cms.to_bytes()], type=pa.binary()),
            "n_added": pa.array([len(pairs)], type=pa.int64()),
        })

    partials = make_tokens_ds().map_batches(build_partial,
                                            batch_format="pyarrow")
    cms, total = tree_merge_partials(partials, "countmin", params)
    if total == 0:
        return typed_frame(None, _BIGRAM_COUNTS)
    threshold = phi * total
    cms_ref = ray.put(cms.to_bytes())

    def candidate_counts(batch: pa.Table) -> pa.Table:
        sketch = CountMinSketch.from_bytes(ray.get(cms_ref))
        pairs = _packed_bigrams(batch, token_column)
        uniq, counts = np.unique(pairs, return_counts=True)
        est = sketch.query_values(uniq)
        keep = est >= threshold
        return pa.table({
            "pair": pa.array(uniq[keep]),
            "cnt": pa.array(counts[keep].astype(np.int64)),
        })

    cand = make_tokens_ds().map_batches(candidate_counts,
                                        batch_format="pyarrow")

    agg = cand.groupby("pair").aggregate(Sum("cnt", alias_name="cnt"))
    df = typed_frame(agg, {"pair": "int64", "cnt": "int64"})
    df = df[df["cnt"] >= threshold].copy()
    df["token_a"] = (df["pair"].to_numpy() >> 32).astype(np.int32)
    df["token_b"] = (df["pair"].to_numpy() & 0xFFFFFFFF).astype(np.uint32) \
        .view(np.int32)
    return df[["token_a", "token_b", "cnt"]].sort_values(
        ["cnt", "token_a", "token_b"],
        ascending=[False, True, True]).reset_index(drop=True)
