"""Pointwise mutual information over token bigrams — the classic
collocation / phrase-mining signal ("new york" scores high because its
joint count dwarfs what its unigram frequencies predict).

Ray-Data shape: ONE streaming pass tokenizes each batch once and emits
both unigram and bigram count partials as a tagged union table (one
dictionary encode serves both views), reduced by a single
``groupby(is_bigram, a, b).sum``; the two vocabulary-bounded tables are
split, joined and scored on the driver where they are aggregate-sized. ``min_count`` prunes the long tail before
scoring (PMI is noise below a handful of observations — standard
practice, and it bounds the driver table).

Scale caveat (same as the exact `token_bigram_topk`): the bigram
aggregate is V^2-bounded. For an open web-scale vocabulary, feed the
candidate set from `frequency.bigram_heavy_hitters` (CMS candidates +
exact verify) into the same scoring instead of the exact groupby.

Ranking uses the quantized score ``floor(pmi * 1e9)`` with (a, b) as
tie-break, so top-k selection is deterministic and SQL-reproducible.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.text import doc_bigram_codes, flat_tokens
from ..sources.io import typed_frame


def _tagged_counts(docs_ds, *, text_column: str):
    """ONE streaming pass emitting both unigram and bigram count partials
    as a tagged union table (is_bigram, a, b, cnt) reduced by a single
    groupby — the corpus is read and tokenized once, not once per
    aggregate (review fix)."""
    from ray.data.aggregate import Sum

    def batch_counts(batch: pa.Table) -> pa.Table:
        empty = pa.table({"is_bigram": pa.array([], pa.int8()),
                          "a": pa.array([], pa.string()),
                          "b": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        flat, parents = flat_tokens(batch[text_column])
        if len(parents) == 0:
            return empty
        codes, a, b, _d, vocab = doc_bigram_codes(flat, parents)
        u_uniq, u_cnt = np.unique(codes, return_counts=True)
        packed = (a << np.int64(32)) | b
        b_uniq, b_cnt = np.unique(packed, return_counts=True)
        return pa.table({
            "is_bigram": pa.array(np.r_[np.zeros(len(u_uniq), np.int8),
                                        np.ones(len(b_uniq), np.int8)]),
            "a": pa.concat_arrays([
                vocab.take(pa.array(u_uniq)).cast(pa.string()),
                vocab.take(pa.array(b_uniq >> np.int64(32)))
                     .cast(pa.string())]),
            "b": pa.concat_arrays([
                pa.array([""] * len(u_uniq), pa.string()),
                vocab.take(pa.array(b_uniq & np.int64(0xFFFFFFFF)))
                     .cast(pa.string())]),
            "cnt": pa.array(np.r_[u_cnt, b_cnt].astype(np.int64)),
        })

    out = typed_frame(docs_ds.map_batches(batch_counts, batch_format="pyarrow")
                      .groupby(["is_bigram", "a", "b"])
                      .aggregate(Sum("cnt", alias_name="cnt")),
                      {"is_bigram": "int8", "a": "object", "b": "object",
                       "cnt": "int64"})
    uni = (out[out["is_bigram"] == 0][["a", "cnt"]]
           .rename(columns={"a": "token"}).reset_index(drop=True))
    bg = out[out["is_bigram"] == 1][["a", "b", "cnt"]].reset_index(drop=True)
    return uni, bg


def bigram_counts(docs_ds, *, text_column: str = "text") -> pd.DataFrame:
    """(a, b, cnt) exact bigram counts — combiner + one small groupby."""
    _, bg = _tagged_counts(docs_ds, text_column=text_column)
    return bg


def pmi_top_pairs(docs_ds, k: int = 20, *, min_count: int = 5,
                  text_column: str = "text") -> pd.DataFrame:
    """Top-k bigrams by PMI among pairs with ``cnt >= min_count``.

    Returns (a, b, c_ab, c_a, c_b, pmi) with
    ``pmi = ln((c_ab / N_bigrams) / ((c_a / N_tokens) * (c_b / N_tokens)))``.
    """
    uni, bg = _tagged_counts(docs_ds, text_column=text_column)
    n_uni = float(uni["cnt"].sum())
    n_bg = float(bg["cnt"].sum())
    bg = bg[bg["cnt"] >= min_count]
    uni = uni.rename(columns={"token": "tok", "cnt": "c_tok"})
    m = (bg.merge(uni.rename(columns={"tok": "a", "c_tok": "c_a"}), on="a")
         .merge(uni.rename(columns={"tok": "b", "c_tok": "c_b"}), on="b"))
    c_ab = m["cnt"].to_numpy(np.float64)
    c_a = m["c_a"].to_numpy(np.float64)
    c_b = m["c_b"].to_numpy(np.float64)
    pmi = np.log((c_ab / n_bg) / ((c_a / n_uni) * (c_b / n_uni)))
    out = pd.DataFrame({
        "a": m["a"], "b": m["b"],
        "c_ab": m["cnt"].astype("int64"),
        "c_a": m["c_a"].astype("int64"), "c_b": m["c_b"].astype("int64"),
        "pmi": pmi,
        "_qs": np.floor(pmi * 1e9).astype(np.int64),
    })
    out = (out.sort_values(["_qs", "a", "b"],
                           ascending=[False, True, True], kind="stable")
           .head(k).drop(columns="_qs"))
    return typed_frame(out.sort_values(["a", "b"]).reset_index(drop=True),
                       {"a": "object", "b": "object", "c_ab": "int64",
                        "c_a": "int64", "c_b": "int64", "pmi": "float64"})
