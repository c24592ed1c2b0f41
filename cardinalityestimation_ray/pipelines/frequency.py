"""Frequency pipelines over a token column: exact top-k (pre-aggregated
groupby), exact phi-heavy hitters (count-min candidates, then an exact
verify) and count-min point estimates.

A bigram is a token of the bigram column. :func:`bigram_column` packs each
row's consecutive token pairs into one int64 apiece, and every bigram query
is its token query run over that column, with ``(token_a, token_b)``
unpacked from the packed id before any prune or sort, so bigrams order by
their signed ids. So tokens and bigrams share one count-min build
(:func:`count_min`), one phi -> width rule (:func:`cms_width`), one
candidate filter (:func:`candidate_sums`) and one top-k plan.
"""

from __future__ import annotations

import math

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
#: the packed-bigram column :func:`_bigrams` adds
_BIGRAMS = "bigrams"
#: count-min blob bytes one merge task holds: a CMS blob is depth x width
#: x 8 B (2.6 MB at the default 5 x 2^16), so the tree's default fanout of
#: 64 would hand each merge task ~170 MB there. Elementwise add is
#: bandwidth-bound, so a smaller fan-in loses no parallelism.
_MERGE_TASK_BYTES = 40 << 20


def bigram_column(col) -> pa.Array:
    """``list<int64>``: row i holds row i's consecutive token pairs, each
    packed as ``token_a << 32 | token_b``. The low word is masked, so a
    negative ``token_b`` does not sign-extend over ``token_a``. Null tokens
    are dropped first, as by every reader of a token column
    (``_flatten_list_column``), and no pair crosses a row."""
    values, offsets = _flatten_list_column(col)
    bounds = np.zeros(len(offsets), dtype=np.int64)
    np.cumsum(np.maximum(np.diff(offsets) - 1, 0), out=bounds[1:])
    v = values.astype(np.int64)
    # pair (i, i + 1) stays in its row iff no row starts at i + 1
    same_row = np.ones(max(len(v) - 1, 0), dtype=bool)
    starts = offsets[1:-1]
    same_row[starts[(starts > 0) & (starts < len(v))] - 1] = False
    pairs = ((v[:-1] << 32) | (v[1:] & 0xFFFFFFFF))[same_row]
    return pa.ListArray.from_arrays(pa.array(bounds, type=pa.int32()),
                                    pa.array(pairs, type=pa.int64()))


def _bigrams(tokens_ds, token_column: str):
    """``tokens_ds`` as its one-column packed-bigram dataset."""
    return tokens_ds.map_batches(
        lambda batch: pa.table({_BIGRAMS: bigram_column(batch[token_column])}),
        batch_format="pyarrow")


def _keys(values: np.ndarray, bigrams: bool) -> dict:
    """The key columns of counted values: the token, typed like the
    column's values, or a packed bigram's ``(token_a, token_b)``."""
    if not bigrams:
        return {"token": values}
    return {"token_a": (values >> 32).astype(np.int32),
            "token_b": (values & 0xFFFFFFFF).astype(np.uint32)
            .view(np.int32)}


def _value_counts(batch: pa.Table, column: str):
    """(distinct values, their counts) of a batch's column."""
    values, _ = _flatten_list_column(batch[column])
    return np.unique(values, return_counts=True)


def _topk(ds, k: int, column: str, bigrams: bool) -> pd.DataFrame:
    """The one exact top-k plan: per-batch value counts (the combiner: at
    most one row per distinct value per batch, so the groupby shuffles
    vocabulary-sized partials, never the corpus) -> groupby(keys).sum ->
    lossless per-block prune -> sort (count desc, keys asc) -> limit k.
    Prune and sort see the unpacked key columns, so bigrams order by
    signed ``(token_a, token_b)``."""
    from ray.data.aggregate import Sum

    schema = _BIGRAM_COUNTS if bigrams else _TOKEN_COUNTS
    names = list(schema)[:-1]

    def batch_counts(batch: pa.Table) -> pa.Table:
        uniq, counts = _value_counts(batch, column)
        return pa.table({**_keys(uniq, bigrams),
                         "cnt": counts.astype(np.int64)})

    def block_topk(tbl: pa.Table) -> pa.Table:
        # post-groupby every key lives in exactly one row, so a per-block
        # top-k is a lossless prune: any global top-k row survives its own
        # block's top-k. Shrinks the final sort from vocab-sized to
        # k x blocks rows.
        if len(tbl) <= k:
            return tbl
        cnt = tbl["cnt"].to_numpy(zero_copy_only=False)
        keys = [tbl[c].to_numpy(zero_copy_only=False) for c in names]
        idx = np.lexsort((*reversed(keys), -cnt))[:k]
        return tbl.take(pa.array(np.sort(idx)))

    agg = ds.map_batches(batch_counts, batch_format="pyarrow") \
        .groupby(names).aggregate(Sum("cnt", alias_name="cnt"))
    pruned = agg.map_batches(block_topk, batch_format="pyarrow",
                             batch_size=None)
    top = pruned.sort(["cnt", *names],
                      descending=[True] + [False] * len(names)).limit(k)
    return typed_frame(top, schema)


def cms_width(phi: float) -> int:
    """The count-min width of a phi-heavy-hitter query. Candidate
    completeness only needs the overestimate to stay below ~phi/4 of N
    beyond truth; wider just shrinks the candidate set that the exact
    verify filters anyway."""
    return 1 << max(10, math.ceil(math.log2(4 * math.e / phi)))


def count_min(ds, column: str, *, depth: int, width: int):
    """The one count-min build: :class:`SketchPartials` over ``column``,
    merged by :func:`tree_merge_partials` with at most
    ``_MERGE_TASK_BYTES`` of blobs per merge task. Returns (sketch, number
    of values added)."""
    params = {"depth": depth, "width": width}
    partials = ds.map_batches(SketchPartials("countmin", column, **params),
                              batch_format="pyarrow")
    fanout = min(64, max(2, _MERGE_TASK_BYTES // (8 * depth * width)))
    return tree_merge_partials(partials, "countmin", params, fanout=fanout)


def candidate_sums(ds, column: str, cms: CountMinSketch, threshold: float):
    """The one candidate filter, as a Dataset of exact (token, cnt) sums
    over the values of ``column`` whose count-min estimate is >=
    ``threshold``.

    ``cms`` is broadcast once (plasma-cached per node). Each batch queries
    it for its distinct values in the column's own dtype: count-min hashes
    each value's byte image at its width, so a cast would read other cells.
    Count-min never underestimates, so no value with count >= ``threshold``
    is dismissed. The kept per-batch counts are summed by value (combiner
    + tiny groupby).
    """
    import ray
    from ray.data.aggregate import Sum

    cms_ref = ray.put(cms.to_bytes())

    def candidates(batch: pa.Table) -> pa.Table:
        # stateless task: full scheduler width; the broadcast blob fetch is
        # zero-copy from the local object store after the first task per node
        sketch = CountMinSketch.from_bytes(ray.get(cms_ref))
        uniq, counts = _value_counts(batch, column)
        keep = sketch.query_values(uniq) >= threshold
        return pa.table({"token": uniq[keep],
                         "cnt": counts[keep].astype(np.int64)})

    return ds.map_batches(candidates, batch_format="pyarrow") \
        .groupby("token").aggregate(Sum("cnt", alias_name="cnt"))


def _heavy_hitters(make_ds, column: str, phi: float, depth: int,
                   width: int | None, bigrams: bool) -> pd.DataFrame:
    """The one heavy-hitter plan: :func:`count_min` over a first scan,
    :func:`candidate_sums` over a second, then keep count >= phi * N, with
    the key columns unpacked, by count desc, keys asc."""
    schema = _BIGRAM_COUNTS if bigrams else _TOKEN_COUNTS
    cms, total = count_min(make_ds(), column, depth=depth,
                           width=cms_width(phi) if width is None else width)
    if total == 0:
        return typed_frame(None, schema)
    threshold = phi * total
    df = typed_frame(candidate_sums(make_ds(), column, cms, threshold),
                     {"token": "int64", "cnt": "int64"})
    df = df[df["cnt"] >= threshold]
    df = typed_frame(pd.DataFrame({**_keys(df["token"].to_numpy(), bigrams),
                                   "cnt": df["cnt"].to_numpy()}), schema)
    names = list(schema)[:-1]
    return df.sort_values(["cnt", *names],
                          ascending=[False] + [True] * len(names)
                          ).reset_index(drop=True)


def token_topk_exact(tokens_ds, k: int = 100, token_column: str = "tokens"):
    """Exact top-k most frequent token ids, (token, cnt) by count desc,
    token asc. Tokens keep the column's value type."""
    return _topk(tokens_ds, k, token_column, bigrams=False)


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
    Output is exact -> oracle-checkable against GROUP BY ... HAVING; tokens
    keep the column's value type.
    """
    return _heavy_hitters(make_tokens_ds, token_column, phi, depth, width,
                          bigrams=False)


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
    (published count-min bounds); the sketch is built distributed
    (:func:`count_min`) and queried on the driver with int32 probes, the
    token columns' type.
    """
    cms, total = count_min(tokens_ds, token_column, depth=depth, width=width)
    probes = np.asarray(probe_tokens, dtype=np.int32)
    est = cms.query_values(probes)
    return pd.DataFrame({
        "token": probes,
        "est_count": est.astype(np.int64),
        "total_tokens": np.int64(total),
    })


def token_bigram_topk(tokens_ds, k: int = 20,
                      token_column: str = "tokens") -> pd.DataFrame:
    """Exact top-k most frequent consecutive token PAIRS (bigrams):
    :func:`token_topk_exact` over the packed-bigram column, as (token_a,
    token_b, cnt) by count desc, then signed token_a, token_b asc.

    Scale caveat (unlike unigram top-k): the bigram vocabulary grows toward
    V^2, so the per-batch combiner compresses far less — the groupby can
    approach corpus-sized input on natural text. This exact operator is the
    small/medium-corpus oracle; at 100 TB run
    :func:`bigram_heavy_hitters` instead, which never shuffles more than
    the candidate set.
    """
    return _topk(_bigrams(tokens_ds, token_column), k, _BIGRAMS,
                 bigrams=True)


def bigram_heavy_hitters(make_tokens_ds, phi: float = 0.001, *,
                         depth: int = 5, width: int | None = None,
                         token_column: str = "tokens") -> pd.DataFrame:
    """EXACT phi-heavy-hitter BIGRAMS — the 100 TB-scale answer to
    :func:`token_bigram_topk`'s full-vocabulary shuffle.

    :func:`heavy_hitters` over the packed-bigram column: nothing bigger
    than the candidate set (bounded by ~1/phi plus CMS collisions) ever
    reaches the groupby, no matter how large the bigram vocabulary grows.
    """
    return _heavy_hitters(lambda: _bigrams(make_tokens_ds(), token_column),
                          _BIGRAMS, phi, depth, width, bigrams=True)
