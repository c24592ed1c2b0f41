"""TF-IDF distinctive-term extraction: for every document, the k terms
with the highest ``tf * ln(N / df)`` — the classic keyword/topic signal
used for corpus exploration and search-index prep.

Ray-Data shape (same two-pass broadcast pattern as
:mod:`.lm_score`):

1. **DF pass** — per-batch distinct (doc, token) pairs via one Arrow hash
   aggregation, then ``groupby(token).sum`` of per-batch doc counts (each
   document lives in exactly one row/batch, so per-batch distinctness is
   global distinctness). Only the vocabulary-sized DF table reaches the
   driver.
2. **Score pass** — the DF table broadcasts once via ``ray.put`` (sorted
   token-hash array + aligned int64 df array); each batch computes per-doc
   term frequencies with one dictionary-encode + lexsort, scores them, and
   keeps the top k per document.

Ranking is on the QUANTIZED score ``floor(tfidf * 1e9)`` with the term
string as tie-break, so the selection is deterministic and reproducible in
ANSI SQL (both sides compute ``ln`` in float64; a selection flip would need
the true score to sit within one ulp of a 1e-9 quantization boundary).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sketches import hashing
from ..sources.io import typed_frame
from .lm_score import _flat_tokens


def document_frequencies(docs_ds, *, text_column: str = "text"
                         ) -> pd.DataFrame:
    """(token, df) — number of documents containing each token."""
    from ray.data.aggregate import Sum

    def batch_df(batch: pa.Table) -> pa.Table:
        flat, parents = _flat_tokens(batch[text_column])
        pairs = (pa.table({"token": flat,
                           "doc": pa.array(parents)})
                 .group_by(["token", "doc"]).aggregate([]))
        return (pairs.group_by(["token"])
                .aggregate([([], "count_all")])
                .rename_columns(["token", "df"]))

    return typed_frame(docs_ds.map_batches(batch_df, batch_format="pyarrow")
                       .groupby("token").aggregate(Sum("df", alias_name="df")),
                       {"token": "object", "df": "int64"})


def top_tfidf_terms(docs_ds, k: int = 3, *, text_column: str = "text",
                    id_column: str = "doc_id", n_docs: int | None = None,
                    df_table: pd.DataFrame | None = None,
                    min_df: int = 1, max_df_frac: float = 1.0,
                    hash_name: str = hashing.DEFAULT_HASH):
    """Top-k TF-IDF terms per document.

    Returns a Dataset with up to k rows per document:
    (id, term, tf, df_docs, tfidf), ranked by (floor(tfidf*1e9) desc,
    term asc). ``n_docs`` and ``df_table`` default to a count + DF pass
    over ``docs_ds`` itself (the corpus is read twice — the standard
    two-pass trade against materializing it).

    **Broadcast bound** (round-3 verdict item #5): the raw-web-text DF
    table is vocabulary-sized and unbounded. ``min_df`` drops terms
    appearing in fewer documents (broadcast size <= total (doc, term)
    pairs / min_df — and in practice the Zipf head); ``max_df_frac``
    drops near-stopwords with df/N above the fraction (classic
    TfidfVectorizer knobs). Pruned terms are simply NOT candidate
    keywords: the score pass skips them instead of raising its
    missing-token error. Defaults (1, 1.0) keep the exact,
    oracle-checkable behavior.
    """
    import ray

    if df_table is None:
        df_table = document_frequencies(docs_ds, text_column=text_column)
    if n_docs is None:
        n_docs = docs_ds.count()
    n_docs = float(n_docs)
    pruned = min_df > 1 or max_df_frac < 1.0
    if pruned:
        keep = df_table["df"] >= min_df
        if max_df_frac < 1.0:
            keep &= df_table["df"] <= max_df_frac * n_docs
        df_table = df_table[keep].reset_index(drop=True)
    tok_arr = pa.array(df_table["token"], type=pa.string())
    h = hashing.hash_arrow_binary(tok_arr, hash_name)
    order = np.argsort(h)
    sorted_h = h[order]
    df_arr = df_table["df"].to_numpy(np.int64)[order]
    if len(sorted_h) > 1 and np.any(sorted_h[1:] == sorted_h[:-1]):
        raise ValueError(
            f"64-bit token-hash collision in a {len(sorted_h)}-entry "
            f"vocabulary under {hash_name!r} — rebuild with another hash")
    table_ref = ray.put((sorted_h, df_arr))

    class Score:
        def __init__(self):
            self.sorted_h, self.df = ray.get(table_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch[id_column]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            empty = pa.table({
                id_column: ids.slice(0, 0),
                "term": pa.array([], type=pa.string()),
                "tf": pa.array([], type=pa.int64()),
                "df_docs": pa.array([], type=pa.int64()),
                "tfidf": pa.array([], type=pa.float64()),
            })
            flat, parents = _flat_tokens(batch[text_column])
            if len(parents) == 0:
                return empty
            dict_arr = flat.dictionary_encode()
            codes = np.asarray(dict_arr.indices)
            order = np.lexsort((codes, parents))
            ds_, cs_ = parents[order], codes[order]
            first = np.r_[True, (np.diff(ds_) != 0) | (np.diff(cs_) != 0)]
            starts = np.flatnonzero(first)
            tf = np.diff(np.r_[starts, len(ds_)])
            udoc, ucode = ds_[starts], cs_[starts]

            vocab = dict_arr.dictionary
            vh = hashing.hash_arrow_binary(vocab, hash_name)
            pos = np.minimum(np.searchsorted(self.sorted_h, vh),
                             max(len(self.sorted_h) - 1, 0))
            if len(self.sorted_h):
                in_table = self.sorted_h[pos] == vh
                df_per_code = np.where(in_table, self.df[pos], 1)
            else:
                in_table = np.zeros(len(vh), dtype=bool)
                df_per_code = np.ones(len(vh), dtype=np.int64)
            if not pruned and not np.all(in_table):
                raise ValueError(
                    "token missing from the DF table — pass the df_table "
                    "built over the same corpus being scored")
            if pruned:
                # pruned-out terms are not keyword candidates
                scored = in_table[ucode]
                udoc, ucode, tf = udoc[scored], ucode[scored], tf[scored]
                if len(udoc) == 0:
                    return empty

            score = tf * np.log(n_docs / df_per_code[ucode])
            qs = np.floor(score * 1e9).astype(np.int64)
            terms = vocab.to_numpy(zero_copy_only=False)[ucode]
            pdf = pd.DataFrame({
                "_row": udoc, "term": terms, "tf": tf,
                "df_docs": df_per_code[ucode], "tfidf": score, "_qs": qs,
            })
            top = (pdf.sort_values(["_row", "_qs", "term"],
                                   ascending=[True, False, True],
                                   kind="stable")
                   .groupby("_row", sort=True).head(k))
            rows = pa.array(top["_row"].to_numpy())
            return pa.table({
                id_column: ids.take(rows),
                "term": pa.array(top["term"], type=pa.string()),
                "tf": pa.array(top["tf"].to_numpy(np.int64)),
                "df_docs": pa.array(top["df_docs"].to_numpy(np.int64)),
                "tfidf": pa.array(top["tfidf"].to_numpy(np.float64)),
            })

    return docs_ds.map_batches(Score, batch_format="pyarrow",
                               concurrency=(1, 8))
