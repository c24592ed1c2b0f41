"""Exact n-gram Jaccard similarity join over the documents table.

First-class exact all-pairs similarity (the round-2 VERDICT / brief item:
"n-gram Jaccard" as its OWN operator, not just a verify mode inside the
MinHash pipeline). Where :mod:`.dedup` trades exactness for LSH recall,
this operator is EXACT — every pair of documents whose word-n-gram Jaccard
similarity meets the threshold is reported with its true similarity — and
therefore oracle-checkable in SQL (DuckDB list-slice n-grams + self-join).

Shape (Ray-Data-first, documented per the north rule):

1. ``NgramRows`` (stateless map_batches, zero-copy Arrow in): tokenize,
   64-bit-hash each token, fold every ``n`` consecutive token hashes into
   one gram hash (equal gram <=> equal token tuple, whitespace tokens can't
   contain the joiner), per-doc DISTINCT via one lexsort — emits
   ``(gram, part, doc_id, n_grams)`` rows. Only hashes shuffle: the index
   row is ~28 B regardless of document size.
2. candidate generation: ``groupby(part)`` super-buckets (256 groups, not
   one group per distinct gram) and ONE vectorized pass per part —
   segment-sorted predecessor-shift pair enumeration, pre-aggregated to
   ``(id_a, id_b, co_partial)`` inside the part (combiner).
3. global ``groupby([id_a, id_b])`` sums the per-part co-occurrence
   counts; Jaccard = co / (na + nb - co) from the carried per-doc distinct
   gram counts; threshold filter.

Scale bound: a gram shared by k documents contributes O(k^2) pairs — the
inverted-index join is inherently quadratic in document frequency. The
``max_df`` cap drops grams with df > max_df from the index entirely
(classic stop-gram pruning; boilerplate n-grams are precisely the ones that
carry no dedup signal). With the cap the per-part work is O(rows * max_df)
and the pair set is bounded; similarities become lower bounds because
dropped grams still count in na/nb (documented, deliberate — a pair that
only matches on ubiquitous boilerplate should NOT be reported as a near
duplicate). ``max_df=None`` (default) is the exact regime the oracle
checks.

Reference scope note: the reference (saguiitay/CardinalityEstimation) has
no similarity-join analogue; this operator is part of the training-data
dedup suite the brief adds on top (`exact n-gram Jaccard` alongside
minhash/simhash/embedding near-dup in pipelines/dedup.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import row_ids, split_tokens
from ..sketches import hashing
from ..sources.io import typed_frame

#: same super-bucket fanout as the LSH dedup pipelines
NUM_PARTS = 256

_FOLD = np.uint64(0x100000001B3)  # FNV-1a 64 prime, reused as fold multiplier


def _word_ngram_hashes(text: pa.Array, n: int,
                       hash_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-document word-n-gram hashes, vectorized.

    Returns ``(gram_hashes, parents)`` — one row per n-gram occurrence
    (NOT yet per-doc-distinct), ``parents[i]`` the batch row the gram came
    from. Tokenization matches the corpus tokenizer
    (`sources/corpus.py:tokenize_documents_batch`): ascii whitespace split,
    empties dropped — so the DuckDB ``regexp_split_to_array`` oracle sees
    the identical token stream.
    """
    flat, offsets = split_tokens(pc.ascii_split_whitespace(text))
    h = hashing.hash_arrow_binary(flat, hash_name).astype(np.uint64)
    par = row_ids(offsets)
    if len(h) < n:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    # fold n consecutive token hashes (FNV-style multiply-xor, uint64 wrap);
    # a window is a valid n-gram only if all n tokens share one document
    with np.errstate(over="ignore"):
        g = h[: len(h) - n + 1].copy()
        for off in range(1, n):
            g *= _FOLD
            g ^= h[off: len(h) - n + 1 + off]
    same_doc = par[: len(par) - n + 1] == par[n - 1:]
    return g[same_doc], par[: len(par) - n + 1][same_doc]


class NgramRows:
    """map_batches stage: documents -> distinct-gram inverted-index rows."""

    def __init__(self, *, n: int = 3, text_column: str = "text",
                 id_column: str = "doc_id",
                 hash_name: str = hashing.DEFAULT_HASH):
        self.n = n
        self.text_column = text_column
        self.id_column = id_column
        self.hash_name = hash_name

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_column]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        g, par = _word_ngram_hashes(text, self.n, self.hash_name)
        ids = batch[self.id_column].to_numpy(zero_copy_only=False)
        if len(g) == 0:
            return pa.table({
                "gram": pa.array([], type=pa.int64()),
                "part": pa.array([], type=pa.int32()),
                self.id_column: pa.array([], type=pa.int64()),
                "n_grams": pa.array([], type=pa.int64()),
            })
        # per-doc DISTINCT grams: one lexsort + first-occurrence mask
        order = np.lexsort((g, par))
        gs, ps = g[order], par[order]
        first = np.r_[True, (ps[1:] != ps[:-1]) | (gs[1:] != gs[:-1])]
        gs, ps = gs[first], ps[first]
        n_grams = np.zeros(len(batch), dtype=np.int64)
        np.add.at(n_grams, ps, 1)
        return pa.table({
            "gram": pa.array(gs.view(np.int64)),
            "part": pa.array((gs % NUM_PARTS).astype(np.int32)),
            self.id_column: pa.array(ids[ps].astype(np.int64)),
            "n_grams": pa.array(n_grams[ps]),
        })


def _part_pairs(group: pd.DataFrame, id_column: str,
                max_df: int | None) -> pd.DataFrame:
    """One super-bucket: emit per-part co-occurrence partials.

    Segment-sort by gram, then predecessor-shift enumeration: pass d pairs
    every row with the row d positions earlier IF both are in the same gram
    segment — each pass is one vectorized compare over the part, and d is
    bounded by the largest segment (<= max_df under the cap). Within a
    segment doc ids are ascending, so id_a < id_b for free.
    """
    empty = typed_frame(None, {"id_a": "int64", "id_b": "int64",
                               "na": "int64", "nb": "int64", "co": "int64",
                               "pair_bucket": "int32"})
    if len(group) < 2:
        return empty
    g = group["gram"].to_numpy().astype(np.int64)
    ids = group[id_column].to_numpy().astype(np.int64)
    nd = group["n_grams"].to_numpy().astype(np.int64)
    order = np.lexsort((ids, g))
    g, ids, nd = g[order], ids[order], nd[order]
    seg_id = np.cumsum(np.r_[True, g[1:] != g[:-1]]) - 1
    counts = np.bincount(seg_id)
    if max_df is not None:
        keep = counts[seg_id] <= max_df
        if not keep.all():
            g, ids, nd = g[keep], ids[keep], nd[keep]
            if len(g) < 2:
                return empty
            seg_id = np.cumsum(np.r_[True, g[1:] != g[:-1]]) - 1
            counts = np.bincount(seg_id)
    kmax = int(counts.max())
    if kmax < 2:
        return empty
    frames_a, frames_b, frames_na, frames_nb = [], [], [], []
    for d in range(1, kmax):
        same = seg_id[d:] == seg_id[:-d]
        if not same.any():
            break
        frames_a.append(ids[:-d][same])
        frames_b.append(ids[d:][same])
        frames_na.append(nd[:-d][same])
        frames_nb.append(nd[d:][same])
    if not frames_a:
        return empty
    out = pd.DataFrame({
        "id_a": np.concatenate(frames_a),
        "id_b": np.concatenate(frames_b),
        "na": np.concatenate(frames_na),
        "nb": np.concatenate(frames_nb),
    })
    # combiner: collapse this part's repeats before the global shuffle
    out = (out.groupby(["id_a", "id_b", "na", "nb"], as_index=False)
           .size().rename(columns={"size": "co"}))
    # single-key bucket for the global combine — Ray's multi-key
    # groupby().aggregate() costs ~10s of fixed overhead even on 13k rows
    # in this version, so the reduce is a single-key map_groups instead
    out["pair_bucket"] = (
        (out["id_a"].to_numpy(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
         ^ out["id_b"].to_numpy(np.uint64)) % np.uint64(NUM_PARTS)
    ).astype(np.int32)
    return out


_JACCARD_PAIRS = {"id_a": "int64", "id_b": "int64", "jaccard": "float64"}


def ngram_jaccard_pairs(docs_ds, *, n: int = 3, threshold: float = 0.2,
                        max_df: int | None = None,
                        text_column: str = "text",
                        id_column: str = "doc_id") -> pd.DataFrame:
    """All document pairs with word-``n``-gram Jaccard >= ``threshold``.

    EXACT when ``max_df`` is None (the DuckDB-oracled regime); with
    ``max_df`` set, grams in more than ``max_df`` documents are pruned from
    the index (stop-gram removal — the 100 TB regime; reported similarities
    become lower bounds, see module docstring).

    Returns a DataFrame (id_a, id_b, jaccard), id_a < id_b, sorted.
    """
    from .dedup import _spread

    rows = _spread(docs_ds).map_batches(
        NgramRows(n=n, text_column=text_column, id_column=id_column),
        batch_format="pyarrow")
    partials = rows.groupby("part").map_groups(
        lambda grp: _part_pairs(grp, id_column, max_df),
        batch_format="pandas")

    def combine_and_score(grp: pd.DataFrame) -> pd.DataFrame:
        """One pair_bucket: sum per-part co partials, then Jaccard + filter.
        na/nb are functionally determined by the ids, so grouping on all
        four keys is still one group per pair."""
        if len(grp) == 0:
            return typed_frame(None, _JACCARD_PAIRS)
        agg = (grp.groupby(["id_a", "id_b", "na", "nb"], as_index=False)
               ["co"].sum())
        co = agg["co"].to_numpy(np.float64)
        jac = co / (agg["na"].to_numpy(np.float64)
                    + agg["nb"].to_numpy(np.float64) - co)
        keep = jac >= threshold
        return pd.DataFrame({
            "id_a": agg["id_a"].to_numpy(np.int64)[keep],
            "id_b": agg["id_b"].to_numpy(np.int64)[keep],
            "jaccard": jac[keep],
        })

    pairs = typed_frame(partials.groupby("pair_bucket")
                        .map_groups(combine_and_score, batch_format="pandas"),
                        _JACCARD_PAIRS)
    return pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)
