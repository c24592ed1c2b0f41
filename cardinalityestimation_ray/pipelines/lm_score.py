"""Unigram language-model document scoring: the classic corpus-level
perplexity proxy used for pretraining-data quality filtering (e.g.
CCNet-style "score documents with a small LM, drop the worst tail" —
here the LM is the corpus' own unigram distribution, trained and applied
in two streaming passes).

Ray-Data shape:

1. **Train** — one ``map_batches`` pass folds each batch to (token, count)
   rows (Arrow C++ hash aggregation), a single ``groupby(token).sum``
   reduces them; only the VOCABULARY-sized table reaches the driver (the
   standard broadcast-side assumption: a tokenized vocabulary fits in one
   node's memory even for a 100 TB corpus).
2. **Score** — token log-probs broadcast once via ``ray.put`` as a sorted
   hash array + aligned float64 array; a second stateless pass hashes each
   document's tokens, looks them up with ``np.searchsorted``, and folds
   per-document sums with ``np.add.at``. No shuffle, no join, no corpus
   materialization.

Tokens compare by 64-bit hash in the score pass (repo convention — see
``pipelines/decontamination.py``'s collision note); the train pass and the
SQL oracle group by the exact strings, so a collision would surface as a
driver-check mismatch. With vocab ~10^5-10^7, P(collision) < 10^-5.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.text import flat_tokens
from ..sketches import hashing
from ..sources.io import typed_frame


# the single shared tokenize contract lives in functions/text.py
# (review rule: one copy); keep the old private name importable for the
# sibling pipelines that use it
_flat_tokens = flat_tokens


def unigram_counts(docs_ds, *, text_column: str = "text") -> pd.DataFrame:
    """Distributed token-frequency table: (token, cnt), vocabulary-sized.

    Per-batch Arrow hash-aggregation combiner -> one groupby(token).sum —
    the all-to-all moves distinct-tokens-per-batch rows, never the corpus.
    """
    from ray.data.aggregate import Sum

    def batch_counts(batch: pa.Table) -> pa.Table:
        flat, _ = _flat_tokens(batch[text_column])
        return (pa.table({"token": flat})
                .group_by(["token"])
                .aggregate([([], "count_all")])
                .rename_columns(["token", "cnt"]))

    return typed_frame(docs_ds
                       .map_batches(batch_counts, batch_format="pyarrow")
                       .groupby("token")
                       .aggregate(Sum("cnt", alias_name="cnt")),
                       {"token": "object", "cnt": "int64"})


def prune_vocab(counts: pd.DataFrame, *, min_count: int = 1,
                max_vocab: int | None = None,
                count_column: str = "cnt"
                ) -> tuple[pd.DataFrame, float]:
    """Bound a (token, count) table for broadcast: drop tokens with count
    < ``min_count``, then keep the ``max_vocab`` most frequent (count
    desc, token asc tie-break — deterministic).

    Returns ``(kept, dropped_mass)`` where ``dropped_mass`` is the total
    count folded out — the OOV bucket's probability mass.

    Memory bound (the 100 TB contract): the kept table has at most
    ``min(max_vocab, total_count / min_count)`` rows, so ``min_count``
    alone already bounds the broadcast by corpus size over min_count —
    e.g. 10^14 tokens at min_count=100 is <= 10^12 ENTRIES in theory but
    in practice Zipf text at min_count=100 lands around 10^6-10^7; set
    ``max_vocab`` for a hard cap regardless of distribution.
    """
    kept = counts
    if min_count > 1:
        kept = kept[kept[count_column] >= min_count]
    if max_vocab is not None and len(kept) > max_vocab:
        kept = kept.sort_values([count_column, "token"],
                                ascending=[False, True],
                                kind="mergesort").head(max_vocab)
    dropped = float(counts[count_column].sum()) - float(
        kept[count_column].sum())
    return kept.reset_index(drop=True), dropped


def doc_unigram_nll(docs_ds, counts: pd.DataFrame | None = None, *,
                    text_column: str = "text", id_column: str = "doc_id",
                    oov_logprob: float | None = None,
                    min_count: int = 1, max_vocab: int | None = None,
                    hash_name: str = hashing.DEFAULT_HASH):
    """Per-document average negative log-likelihood under the unigram LM.

    Returns a Dataset with one row per document that has at least one
    token: (id, n_tokens, avg_nll). Lower ``avg_nll`` = more typical of
    the corpus; filter the high tail to drop gibberish.

    ``counts`` defaults to :func:`unigram_counts` over the same dataset
    (two streaming passes, like the exact heavy-hitter pipeline). Score a
    DIFFERENT corpus than the training one by passing its count table and
    an ``oov_logprob`` floor; with ``oov_logprob=None`` an unseen token
    raises (loud contract — the self-scored corpus can never miss).

    **Broadcast bound** (round-3 verdict item #5): for raw web text the
    word vocabulary is unbounded, so the full log-prob table cannot
    broadcast at 100 TB. ``min_count`` / ``max_vocab`` prune the table via
    :func:`prune_vocab` (size <= min(max_vocab, total/min_count)); the
    pruned-out probability mass is split UNIFORMLY over the pruned types —
    each OOV token scores ``ln(dropped_mass / n_pruned_types / total)``,
    a proper model where per-type OOV probability stays BELOW every kept
    token's (folding the whole mass into one bucket would make rare
    gibberish score as more typical than common words and invert the
    quality filter). An explicit ``oov_logprob`` overrides it. If pruning
    is requested but drops nothing, the loud unseen-token contract is
    preserved unchanged. Defaults (1, None) keep the exact,
    oracle-checkable behavior.
    """
    import ray

    if counts is None:
        counts = unigram_counts(docs_ds, text_column=text_column)
    total = float(counts["cnt"].sum())
    pruned = min_count > 1 or (max_vocab is not None
                               and len(counts) > max_vocab)
    if pruned:
        kept, dropped = prune_vocab(counts, min_count=min_count,
                                    max_vocab=max_vocab)
        n_pruned = len(counts) - len(kept)
        counts = kept
        if oov_logprob is None and n_pruned > 0:
            oov_logprob = float(np.log(dropped / n_pruned / total))
        # n_pruned == 0: nothing was dropped, no OOV bucket exists —
        # oov_logprob stays None and the loud unseen-token raise applies
    tok_arr = pa.array(counts["token"], type=pa.string())
    h = hashing.hash_arrow_binary(tok_arr, hash_name)
    order = np.argsort(h)
    sorted_h = h[order]
    # empty vocabulary (empty corpus): total == 0 and logprob is empty —
    # skip the -log(total) scalar rather than warn on log(0)
    logprob = (np.log(counts["cnt"].to_numpy(np.float64)[order])
               - np.log(total)) if len(order) else np.zeros(0)
    if len(sorted_h) > 1 and np.any(sorted_h[1:] == sorted_h[:-1]):
        raise ValueError(
            f"64-bit token-hash collision in a {len(sorted_h)}-entry "
            f"vocabulary under {hash_name!r} — rebuild with another hash")
    table_ref = ray.put((sorted_h, logprob))

    class Score:
        def __init__(self):
            self.sorted_h, self.logprob = ray.get(table_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            flat, parents = _flat_tokens(batch[text_column])
            g = hashing.hash_arrow_binary(flat, hash_name)
            n_rows = len(batch)
            n_tokens = np.zeros(n_rows, dtype=np.int64)
            ll_sum = np.zeros(n_rows, dtype=np.float64)
            if len(g):
                oov = np.float64(oov_logprob if oov_logprob is not None
                                 else np.nan)
                if len(self.sorted_h):
                    pos = np.searchsorted(self.sorted_h, g)
                    pos_c = np.minimum(pos, len(self.sorted_h) - 1)
                    hit = self.sorted_h[pos_c] == g
                    lp = np.where(hit, self.logprob[pos_c], oov)
                else:
                    hit = np.zeros(len(g), dtype=bool)
                    lp = np.full(len(g), oov)
                if oov_logprob is None and not np.all(hit):
                    missing = flat.take(
                        pa.array(np.flatnonzero(~hit)[:3])).to_pylist()
                    raise ValueError(
                        f"tokens not in the unigram table (e.g. "
                        f"{missing}); pass oov_logprob to score a corpus "
                        f"other than the training one")
                np.add.at(n_tokens, parents, 1)
                np.add.at(ll_sum, parents, lp)
            keep = n_tokens > 0
            safe = np.maximum(n_tokens, 1)
            out = pa.table({
                id_column: batch[id_column],
                "n_tokens": pa.array(n_tokens),
                "avg_nll": pa.array(-ll_sum / safe),
            })
            return out.filter(pa.array(keep))

    return docs_ds.map_batches(Score, batch_format="pyarrow",
                               concurrency=(1, 8))
