"""Exact word-n-gram Jaccard similarity join (pipelines/similarity.py).

Checks against a brute-force set-based Python reference (exactness), the
max_df stop-gram cap (bounded degenerate-gram work, lower-bound semantics),
and edge cases (short docs, empty input, cross-batch doc integrity).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray_session


def _brute_jaccard(df: pd.DataFrame, n: int) -> dict[tuple[int, int], float]:
    grams = {}
    for doc_id, text in zip(df["doc_id"], df["text"]):
        toks = text.split()
        grams[doc_id] = {tuple(toks[i:i + n])
                         for i in range(len(toks) - n + 1)}
    out = {}
    ids = sorted(grams)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(grams[a] & grams[b])
            if inter:
                out[(a, b)] = inter / (len(grams[a] | grams[b]))
    return out


@pytest.fixture(scope="module")
def sim_docs(_ray):
    import ray.data

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(80)]  # small vocab -> real gram overlap
    docs, ids = [], []
    for i in range(60):
        docs.append(" ".join(rng.choice(vocab, size=40)))
        ids.append(i)
    # near-dups: one word changed
    for j in range(6):
        words = docs[j].split()
        words[7] = "CHANGED"
        docs.append(" ".join(words))
        ids.append(1000 + j)
    # exact dup
    docs.append(docs[10])
    ids.append(2000)
    # short docs: below the trigram width
    docs.append("one two")
    ids.append(3000)
    docs.append("")
    ids.append(3001)
    df = pd.DataFrame({"doc_id": ids, "text": docs})

    def make():
        return ray.data.from_pandas(df).repartition(4)

    return make, df


def test_ngram_jaccard_matches_brute_reference(sim_docs):
    from cardinalityestimation_ray.pipelines.similarity import (
        ngram_jaccard_pairs,
    )

    make, df = sim_docs
    threshold = 0.3
    got = ngram_jaccard_pairs(make(), n=3, threshold=threshold)
    brute = {k: v for k, v in _brute_jaccard(df, 3).items()
             if v >= threshold}
    assert set(zip(got["id_a"], got["id_b"])) == set(brute)
    for a, b, j in zip(got["id_a"], got["id_b"], got["jaccard"]):
        assert j == pytest.approx(brute[(a, b)], abs=1e-12)
    # planted structure: exact dup at jaccard 1.0, near-dups high
    asdict = dict(zip(zip(got["id_a"], got["id_b"]), got["jaccard"]))
    assert asdict[(10, 2000)] == 1.0
    for j in range(6):
        assert asdict[(j, 1000 + j)] > 0.7


def test_ngram_jaccard_short_and_empty_docs(sim_docs):
    from cardinalityestimation_ray.pipelines.similarity import (
        ngram_jaccard_pairs,
    )

    make, _ = sim_docs
    got = ngram_jaccard_pairs(make(), n=3, threshold=0.0)
    # docs with < n tokens produce no grams, hence no pairs
    assert not ((got["id_a"] >= 3000) | (got["id_b"] >= 3000)).any()


def test_ngram_jaccard_empty_input(_ray):
    import ray.data

    from cardinalityestimation_ray.pipelines.similarity import (
        ngram_jaccard_pairs,
    )

    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                      "text": pd.Series([], dtype="string")}))
    got = ngram_jaccard_pairs(ds, n=3, threshold=0.5)
    assert len(got) == 0
    assert list(got.columns) == ["id_a", "id_b", "jaccard"]


def test_ngram_jaccard_max_df_prunes_boilerplate(_ray):
    """A gram present in EVERY doc (boilerplate) is pruned under max_df;
    pairs that only share boilerplate disappear, true near-dups (sharing
    many sub-threshold-df grams) survive with lower-bound similarity."""
    import ray.data

    from cardinalityestimation_ray.pipelines.similarity import (
        ngram_jaccard_pairs,
    )

    rng = np.random.default_rng(5)
    vocab = [f"t{i}" for i in range(5000)]  # big vocab -> no chance overlap
    boiler = "COPYRIGHT ACME CORP ALL RIGHTS RESERVED"
    docs, ids = [], []
    for i in range(120):
        body = " ".join(rng.choice(vocab, size=30))
        docs.append(body + " " + boiler)
        ids.append(i)
    # one true near-dup pair
    docs.append(docs[0].replace("COPYRIGHT", "COPYRIGHT"))  # identical
    ids.append(5000)
    df = pd.DataFrame({"doc_id": ids, "text": docs})
    ds = ray.data.from_pandas(df).repartition(4)

    capped = ngram_jaccard_pairs(ds, n=3, threshold=0.2, max_df=8)
    found = set(zip(capped["id_a"], capped["id_b"]))
    assert (0, 5000) in found  # true dup survives the cap
    # boilerplate-only pairs are gone (119*120/2 pairs would share only the
    # boilerplate grams; with the cap none of them reach the threshold)
    assert len(found) < 10


def test_ngram_jaccard_doc_split_across_blocks(_ray):
    """Same corpus, 1 block vs 8 blocks -> identical pairs (per-doc gram
    counts must not depend on batching)."""
    import ray.data

    from cardinalityestimation_ray.pipelines.similarity import (
        ngram_jaccard_pairs,
    )

    rng = np.random.default_rng(11)
    vocab = [f"v{i}" for i in range(60)]
    df = pd.DataFrame({
        "doc_id": np.arange(50, dtype=np.int64),
        "text": [" ".join(rng.choice(vocab, size=25)) for _ in range(50)],
    })
    a = ngram_jaccard_pairs(ray.data.from_pandas(df).repartition(1),
                            n=3, threshold=0.05)
    b = ngram_jaccard_pairs(ray.data.from_pandas(df).repartition(8),
                            n=3, threshold=0.05)
    pd.testing.assert_frame_equal(a, b)


def test_ngram_jaccard_dedup_keep_clusters(sim_docs):
    from cardinalityestimation_ray.pipelines.dedup import pairs_to_clusters
    from cardinalityestimation_ray.pipelines.similarity import (
        ngram_jaccard_pairs,
    )

    make, _ = sim_docs
    keep = pairs_to_clusters(ngram_jaccard_pairs(make(), n=3, threshold=0.5))
    row = keep[keep["doc_id"] == 2000]
    assert len(row) == 1 and not bool(row["keep"].iloc[0])
    assert int(row["cluster_id"].iloc[0]) == 10
