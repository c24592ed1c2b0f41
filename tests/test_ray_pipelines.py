"""Ray Data pipeline tests (session-scoped Ray fixture, sf0.001 testdata +
synthetic planted fixtures).

Covers: distinct pipelines vs exact answers, block-split invariance
(FIXTURES.md F6: same input at different parallelism -> identical merged
registers), dedup with planted duplicates, ANN self-match, text analysis,
multimodal plumbing."""

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray_session


@pytest.fixture(scope="module")
def tokens_small(sf_dir):
    from cardinalityestimation_ray.sources.corpus import read_tokens

    def make(parallelism=None):
        return read_tokens(sf_dir, parallelism=parallelism)

    return make


def test_global_distinct_matches_exact(tokens_small, sf_dir):
    import duckdb

    from cardinalityestimation_ray.pipelines.distinct import global_distinct_tokens

    res = global_distinct_tokens(tokens_small(), b=14)
    exact_distinct, exact_total = duckdb.sql(f"""
        SELECT count(DISTINCT t), count(t) FROM (
          SELECT unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                 x -> x <> '')) AS t
          FROM '{sf_dir}/documents.parquet')
    """).fetchone()
    assert res["total_tokens"] == exact_total
    # <=100 distinct surrogate tokens -> direct mode -> exact
    assert res["distinct_tokens"] == exact_distinct


def test_block_split_invariance(tokens_small):
    """F6: different block layouts must produce bit-identical merged registers."""
    from cardinalityestimation_ray.pipelines.distinct import global_distinct_tokens

    a = global_distinct_tokens(tokens_small(parallelism=1), b=12)
    b = global_distinct_tokens(tokens_small(parallelism=7), b=12)
    assert np.array_equal(a["sketch"].registers(), b["sketch"].registers())
    assert a["total_tokens"] == b["total_tokens"]
    assert a["distinct_tokens"] == b["distinct_tokens"]


def test_synthetic_corpus_deterministic_and_partition_independent(_ray):
    from cardinalityestimation_ray.sources.corpus import (
        synthesize_corpus_batch,
        synthetic_corpus_dataset,
    )

    t1 = synthesize_corpus_batch(np.arange(100))
    t2 = synthesize_corpus_batch(np.arange(100))
    assert t1.equals(t2)
    # per-doc regeneration is independent of the batch it rides in
    solo = synthesize_corpus_batch(np.asarray([42]))
    assert solo["tokens"][0].as_py() == t1["tokens"][42].as_py()
    # through Ray, any block layout yields the same rows
    ds = synthetic_corpus_dataset(500, docs_per_block=100)
    df = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    direct = synthesize_corpus_batch(np.arange(500)).to_pandas()
    assert (df["doc_id"] == direct["doc_id"]).all()
    assert df["n_tok"].tolist() == direct["n_tok"].tolist()
    assert df["tokens"].map(list).tolist() == direct["tokens"].map(list).tolist()


def test_tokenize_per_row_token_equality(sf_dir):
    """input_hint invariant: pipeline tokens == independently computed tokens."""
    import pyarrow.parquet as pq

    from cardinalityestimation_ray.sources.corpus import (
        read_tokens,
        tokenize_documents_batch,
    )

    via_ray = read_tokens(sf_dir).to_pandas().sort_values("doc_id")
    direct = tokenize_documents_batch(
        pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "source"])
    ).to_pandas().sort_values("doc_id")
    assert via_ray["doc_id"].tolist() == direct["doc_id"].tolist()
    assert via_ray["tokens"].map(list).tolist() == direct["tokens"].map(list).tolist()


def test_exact_distinct_and_counts(sf_dir, _ray):
    import duckdb
    import ray.data

    from cardinalityestimation_ray.pipelines.exact import (
        exact_count_by_key,
        exact_distinct_by_key,
    )

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id"])
    got = exact_distinct_by_key(ev, "user_id", "event_type",
                                distinct_name="d")
    want = duckdb.sql(f"""
        SELECT event_type, count(DISTINCT user_id) AS d
        FROM '{sf_dir}/events.parquet' GROUP BY event_type ORDER BY event_type
    """).df()
    assert got["d"].astype(int).tolist() == want["d"].astype(int).tolist()

    got2 = exact_count_by_key(ev, "event_type", count_name="n")
    want2 = duckdb.sql(f"""
        SELECT event_type, count(*) AS n FROM '{sf_dir}/events.parquet'
        GROUP BY event_type ORDER BY event_type
    """).df()
    assert got2["n"].astype(int).tolist() == want2["n"].astype(int).tolist()


def test_topk_and_cms_bounds(tokens_small):
    from cardinalityestimation_ray.pipelines.frequency import (
        token_frequencies_cms,
        token_topk_exact,
    )

    top = token_topk_exact(tokens_small(), k=10)
    assert (top["cnt"].values[:-1] >= top["cnt"].values[1:]).all()
    cms = token_frequencies_cms(tokens_small(), top["token"].values[:5])
    truth = dict(zip(top["token"], top["cnt"]))
    for t, e in zip(cms["token"], cms["est_count"]):
        assert e >= truth[int(t)]
        assert e <= truth[int(t)] + 0.01 * cms["total_tokens"][0] + 1


def test_quantiles_bounds(tokens_small, sf_dir):
    import pyarrow.parquet as pq

    from cardinalityestimation_ray.pipelines.quantiles import column_quantiles

    ntok = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    from cardinalityestimation_ray.functions.text import token_count_whitespace

    exact = token_count_whitespace(ntok["text"].combine_chunks()).to_numpy()
    for kind in ("tdigest", "kll"):
        df = column_quantiles(tokens_small(), "n_tok", kind=kind,
                              qs=(0.25, 0.5, 0.75))
        for _, row in df.iterrows():
            frac = (exact <= row["value"]).mean()
            assert abs(frac - row["q"]) < 0.08, (kind, row["q"], frac)


# ---------------------------------------------------------------------------
# dedup (planted fixtures)


@pytest.fixture(scope="module")
def planted_docs(_ray):
    import ray.data

    rng = np.random.default_rng(0)
    vocab = [f"word{i}" for i in range(500)]
    docs, ids = [], []
    for i in range(150):
        docs.append(" ".join(rng.choice(vocab, size=60)))
        ids.append(i)
    for j in range(8):
        words = docs[j].split()
        words[5] = "CHANGED"
        docs.append(" ".join(words))
        ids.append(1000 + j)
    for j in range(8, 12):
        docs.append(docs[j])
        ids.append(2000 + j)
    df = pd.DataFrame({"doc_id": ids, "text": docs})

    def make():
        return ray.data.from_pandas(df).repartition(4)

    return make, df


def test_exact_dedup(planted_docs):
    from cardinalityestimation_ray.pipelines.dedup import (
        exact_dedup,
        exact_dedup_stats,
    )

    make, df = planted_docs
    stats = exact_dedup_stats(make())
    assert stats["n_docs"][0] == len(df)
    assert stats["n_distinct"][0] == len(df) - 4
    kept = exact_dedup(make()).to_pandas()
    assert len(kept) == len(df) - 4
    assert not (kept["doc_id"] >= 2000).any()
    # kept-row IDENTITY: exactly the min-id row per distinct text
    expect = (df.sort_values("doc_id").drop_duplicates("text")
              .sort_values("doc_id").reset_index(drop=True))
    got = kept.sort_values("doc_id").reset_index(drop=True)[expect.columns]
    pd.testing.assert_frame_equal(got, expect)


def test_exact_dedup_within_batch_duplicates(planted_docs):
    """Duplicates packed into the SAME block must also collapse (exercises
    the per-batch combiner path, not just the bucket groupby)."""
    import ray.data

    from cardinalityestimation_ray.pipelines.dedup import exact_dedup

    _, df = planted_docs
    single = ray.data.from_pandas(df).repartition(1)
    kept = exact_dedup(single).to_pandas()
    expect = (df.sort_values("doc_id").drop_duplicates("text")
              .sort_values("doc_id").reset_index(drop=True))
    got = kept.sort_values("doc_id").reset_index(drop=True)[expect.columns]
    pd.testing.assert_frame_equal(got, expect)


def test_minhash_dedup(planted_docs):
    from cardinalityestimation_ray.pipelines.dedup import (
        minhash_dedup_pairs,
        pairs_to_clusters,
    )

    make, _ = planted_docs
    pairs = minhash_dedup_pairs(make(), threshold=0.6)
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    assert {(j, 2000 + j) for j in range(8, 12)} <= found  # exact dups certain
    near = {(j, 1000 + j) for j in range(8)}
    assert len(found & near) >= 6  # probabilistic recall
    keep = pairs_to_clusters(minhash_dedup_pairs(make(), threshold=0.6))
    assert (keep[keep["doc_id"] >= 2000]["keep"] == False).all()  # noqa: E712


def test_minhash_exact_jaccard_verify(planted_docs):
    from cardinalityestimation_ray.pipelines.dedup import minhash_dedup_pairs

    make, df = planted_docs
    pairs = minhash_dedup_pairs(make(), threshold=0.9, verify="char_ngram")
    # exact duplicates have char-ngram jaccard 1.0
    exact = pairs[pairs["similarity"] == 1.0]
    assert {(j, 2000 + j) for j in range(8, 12)} <= set(
        zip(exact["id_a"], exact["id_b"]))


def test_simhash_dedup(planted_docs):
    from cardinalityestimation_ray.pipelines.dedup import simhash_dedup_pairs

    make, _ = planted_docs
    pairs = simhash_dedup_pairs(make(), max_hamming=3)
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    assert {(j, 2000 + j) for j in range(8, 12)} <= found
    with pytest.raises(ValueError):
        simhash_dedup_pairs(make(), max_hamming=5, num_bands=4)


def test_embedding_dedup_and_ann(_ray):
    import ray.data

    from cardinalityestimation_ray.pipelines.ann import (
        ann_topk_brute,
        ann_topk_ivf,
    )
    from cardinalityestimation_ray.pipelines.dedup import embedding_dedup_pairs

    rng = np.random.default_rng(1)
    base = rng.standard_normal((80, 16)).astype(np.float32)
    near = base[:6] + 0.01 * rng.standard_normal((6, 16)).astype(np.float32)
    vecs = np.vstack([base, near])
    ids = list(range(80)) + list(range(500, 506))
    df = pd.DataFrame({"vec_id": ids, "embedding": list(vecs)})

    def make():
        return ray.data.from_pandas(df).repartition(2)

    pairs = embedding_dedup_pairs(make(), threshold=0.95)
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    assert len(found & {(i, 500 + i) for i in range(6)}) >= 5

    queries = vecs[:3]
    bf = ann_topk_brute(make(), queries, k=5)
    for qi in range(3):
        best = bf[(bf.query_id == qi) & (bf["rank"] == 0)]
        assert best["vec_id"].iloc[0] == ids[qi]
        assert best["cosine"].iloc[0] > 0.999
    ivf_full = ann_topk_ivf(make(), queries, k=5, n_cells=4, nprobe=4)
    for qi in range(3):
        assert set(ivf_full[ivf_full.query_id == qi]["vec_id"]) == \
            set(bf[bf.query_id == qi]["vec_id"])

    # layout invariance incl. the reported cosine: GEMM's shape-dependent
    # reduction used to drift the low bits with batch height (ann.py
    # _exact_cosine recompute); frames must now be BIT-identical across
    # block layouts for both paths
    def make_n(blocks):
        return ray.data.from_pandas(df).repartition(blocks)

    bf7 = ann_topk_brute(make_n(7), queries, k=5)
    pd.testing.assert_frame_equal(bf, bf7)
    ivf7 = ann_topk_ivf(make_n(7), queries, k=5, n_cells=4, nprobe=4)
    pd.testing.assert_frame_equal(ivf_full, ivf7)
    ivf_part = ann_topk_ivf(make_n(1), queries, k=5, n_cells=4, nprobe=2)
    ivf_part7 = ann_topk_ivf(make_n(7), queries, k=5, n_cells=4, nprobe=2)
    pd.testing.assert_frame_equal(ivf_part, ivf_part7)


# ---------------------------------------------------------------------------
# text analysis + multimodal


def test_text_functions_pipeline(sf_dir, _ray):
    import duckdb
    import ray.data

    from cardinalityestimation_ray.functions.text import (
        BPE_ISH_PATTERN,
        quality_features,
    )

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    feats = docs.map_batches(lambda b: quality_features(b),
                             batch_format="pyarrow").to_pandas()
    want = duckdb.sql(f"""
        SELECT doc_id, length(text) AS n_chars,
               len(regexp_extract_all(text, '{BPE_ISH_PATTERN}')) AS n_pieces
        FROM '{sf_dir}/documents.parquet'
    """).df()
    merged = feats.merge(want, on="doc_id", suffixes=("", "_want"))
    assert (merged["n_chars"] == merged["n_chars_want"]).all()
    assert (merged["n_pieces"] == merged["n_pieces_want"]).all()
    assert feats["quality_score"].between(0, 1).all()


def test_language_id_samples(_ray):
    import ray.data

    from cardinalityestimation_ray.functions.text import language_id

    tbl = pa.table({
        "text": [
            "the cat sat on the mat and it was happy that day",
            "el perro corre en la casa y no se va",
            "der Hund ist in dem Haus und nicht auf der Strasse",
            "le chat est dans la maison et il ne veut pas sortir",
            "你好世界",
            "zzz qqq",
        ]
    })
    out = ray.data.from_arrow(tbl).map_batches(
        language_id, batch_format="pyarrow").to_pandas()
    assert out["lang_guess"].tolist() == ["en", "es", "de", "fr", "zh", "unknown"]


def test_multimodal_plumbing(_ray):
    import ray.data

    from cardinalityestimation_ray.stages.multimodal import (
        media_pipeline,
        synthesize_media_batch,
    )

    ds = ray.data.from_arrow(synthesize_media_batch(np.arange(64)))
    feats = media_pipeline(ds, batch_size=16).to_pandas()
    assert len(feats) == 64
    assert len(feats["features"][0]) == 6
    assert feats["phash"].nunique() > 1
    # determinism
    feats2 = media_pipeline(
        ray.data.from_arrow(synthesize_media_batch(np.arange(64))),
        batch_size=16).to_pandas()
    assert feats["phash"].tolist() == feats2["phash"].tolist()


def test_salted_two_level_merge_identical(tokens_small):
    """north_rule skew handling: salted (key, salt) two-level merge must give
    byte-identical estimates to the direct merge (register-max commutes)."""
    from cardinalityestimation_ray.pipelines.distinct import (
        distinct_tokens_by_source,
    )
    from cardinalityestimation_ray.stages.partitioning import (
        salted_distinct_tokens_by_key,
    )

    direct = distinct_tokens_by_source(tokens_small(parallelism=5), b=12)
    salted = salted_distinct_tokens_by_key(
        tokens_small(parallelism=5), "source", b=12, num_salts=8
    ).to_pandas().sort_values("source").reset_index(drop=True)
    assert salted["distinct_tokens"].tolist() == \
        direct["distinct_tokens"].tolist()
    assert salted["total_tokens"].tolist() == direct["total_tokens"].tolist()


def test_hash_bucket_partitioning(tokens_small):
    from cardinalityestimation_ray.stages.partitioning import add_hash_bucket

    ds = add_hash_bucket(tokens_small(), "doc_id", 8)
    df = ds.to_pandas()
    assert df["bucket"].between(0, 7).all()
    # deterministic: same doc -> same bucket across runs
    df2 = add_hash_bucket(tokens_small(), "doc_id", 8).to_pandas()
    merged = df.merge(df2, on="doc_id", suffixes=("_a", "_b"))
    assert (merged["bucket_a"] == merged["bucket_b"]).all()


def test_heavy_hitters_exact(tokens_small):
    import duckdb

    from cardinalityestimation_ray.pipelines.frequency import heavy_hitters

    df = heavy_hitters(lambda: tokens_small(), phi=0.02)
    want = duckdb.sql("""
        WITH counts AS (
          SELECT t, count(*) AS cnt FROM (
            SELECT unnest(list_filter(regexp_split_to_array(text, '\\s+'),
                   x -> x <> '')) AS t
            FROM '/root/testdata/sf0.001/documents.parquet')
          GROUP BY t
        ), total AS (SELECT sum(cnt) AS n FROM counts)
        SELECT cnt FROM counts, total WHERE cnt >= 0.02 * total.n
        ORDER BY cnt DESC
    """).df()
    assert df["cnt"].astype(int).tolist() == want["cnt"].astype(int).tolist()


def test_generic_partials_string_column(tokens_small):
    """count-min / Bloom over a STRING column (doc_id) through the generic
    partial stage — Arrow zero-copy hash path."""
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        tree_merge_partials,
    )

    partials = tokens_small().map_batches(
        SketchPartials("bloom", "doc_id", num_bits=1 << 16, num_hashes=5),
        batch_format="pyarrow")
    bf, total = tree_merge_partials(partials, "bloom")
    assert total == 500  # sf0.001 has 500 docs
    assert bf.contains("doc-0")
    assert not bf.contains("doc-nonexistent-xyz")

    cpart = tokens_small().map_batches(
        SketchPartials("countmin", "source", depth=4, width=1 << 12),
        batch_format="pyarrow")
    cms, ctotal = tree_merge_partials(cpart, "countmin")
    assert ctotal == 500
    assert cms.query("src0") >= 1


def test_json_parse_functions(_ray):
    import ray.data

    from cardinalityestimation_ray.functions.parse import (
        extract_json_int,
        extract_json_str,
    )

    tbl = pa.table({"props": ['{"k": 42, "tag": "a"}', '{"k": -7}',
                              "not json", '{"other": 1}']})
    out = ray.data.from_arrow(tbl).map_batches(
        lambda b: extract_json_str(extract_json_int(b, "props", "k"),
                                   "props", "tag"),
        batch_format="pyarrow").to_pandas()
    assert out["k"].tolist()[:2] == [42, -7]
    assert pd.isna(out["k"][2]) and pd.isna(out["k"][3])
    assert out["tag"][0] == "a"


def test_hll_set_operation_estimates():
    from cardinalityestimation_ray.sketches.hll import HyperLogLog

    a = HyperLogLog(b=14)
    a.add_values(np.arange(0, 60, dtype=np.int64))
    b = HyperLogLog(b=14)
    b.add_values(np.arange(40, 100, dtype=np.int64))
    # direct (exact) regime: union 100, intersection 20
    assert HyperLogLog.union_estimate(a, b) == 100
    assert HyperLogLog.intersection_estimate(a, b) == 20
    assert HyperLogLog.jaccard_estimate(a, b) == pytest.approx(0.2)
    # large regime stays within a loose inclusion-exclusion bound
    big_a = HyperLogLog(b=14)
    big_a.add_values(np.arange(0, 60_000, dtype=np.int64))
    big_b = HyperLogLog(b=14)
    big_b.add_values(np.arange(30_000, 90_000, dtype=np.int64))
    inter = HyperLogLog.intersection_estimate(big_a, big_b)
    assert abs(inter / 30_000 - 1) < 0.1


def test_bucketed_inner_join_matches_duckdb(sf_dir, _ray):
    import duckdb
    import ray.data

    from cardinalityestimation_ray.pipelines.joins import bucketed_inner_join

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_custkey",
                                            "o_totalprice"])
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_name"])
    cust = cust.map_batches(
        lambda b: b.rename_columns(["o_custkey", "c_name"]),
        batch_format="pyarrow")
    joined = bucketed_inner_join(orders, cust, "o_custkey",
                                 num_buckets=8).to_pandas()
    want = duckdb.sql(f"""
        SELECT o.o_orderkey, o.o_custkey, o.o_totalprice, c.c_name
        FROM '{sf_dir}/orders.parquet' o
        JOIN '{sf_dir}/customer.parquet' c ON o.o_custkey = c.c_custkey
    """).df()
    assert len(joined) == len(want)
    a = joined.sort_values("o_orderkey").reset_index(drop=True)
    b = want.sort_values("o_orderkey").reset_index(drop=True)
    assert a["o_orderkey"].tolist() == b["o_orderkey"].tolist()
    assert a["c_name"].tolist() == b["c_name"].tolist()


def test_video_frame_sample_stage(_ray):
    import ray.data

    from cardinalityestimation_ray.stages.multimodal import (
        VideoFrameSampleStage,
        synthesize_media_batch,
    )

    tbl = synthesize_media_batch(np.arange(20), media_type="video")
    tbl = tbl.set_column(tbl.schema.get_field_index("duration_ms"),
                         "duration_ms",
                         pa.array(np.full(20, 8000, dtype=np.int32)))
    out = ray.data.from_arrow(tbl).map_batches(
        VideoFrameSampleStage, batch_format="pyarrow", batch_size=8,
        concurrency=2).to_pandas()
    assert len(out) == 20
    assert len(out["frame_ts_ms"][0]) == 8
    assert out["frame_ts_ms"][0][0] == 0
    assert len(out["frame_features"][0]) == 8 * 16
    with pytest.raises(NotImplementedError):
        VideoFrameSampleStage(decoder="pyav")


def test_empty_input_edge_cases(_ray):
    import ray.data

    from cardinalityestimation_ray.pipelines.distinct import (
        global_distinct_tokens,
    )
    from cardinalityestimation_ray.pipelines.quantiles import column_quantiles

    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.string()),
        "tokens": pa.array([], type=pa.list_(pa.int32())),
        "n_tok": pa.array([], type=pa.int32()),
        "source": pa.array([], type=pa.string()),
    }))
    res = global_distinct_tokens(empty, b=12)
    assert res["distinct_tokens"] == 0 and res["total_tokens"] == 0
    q = column_quantiles(
        ray.data.from_arrow(pa.table({"n_tok": pa.array([], type=pa.int32())})),
        "n_tok", qs=(0.5,))
    assert np.isnan(q["value"][0])

    # docs with zero tokens (empty lists) flow through
    one_empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["a", "b"]),
        "tokens": pa.array([[], [5, 5, 7]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([0, 3], type=pa.int32()),
        "source": pa.array(["s", "s"]),
    }))
    res2 = global_distinct_tokens(one_empty, b=12)
    assert res2["total_tokens"] == 3
    assert res2["distinct_tokens"] == 2


def test_groupby_strategy_matches_tree(tokens_small):
    """The combiner tree the keyed pipelines merge through and the public
    hash-partitioned groupby UDAF (``sketch_merge_aggregate``) must produce
    identical results over the same partial rows."""
    from ray.data.aggregate import Sum

    from cardinalityestimation_ray.pipelines.distinct import (
        distinct_column_by_key,
        distinct_tokens_by_source,
    )
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        sketch_merge_aggregate,
    )

    def udaf(value_column):
        partials = tokens_small().map_batches(
            SketchPartials("hll", value_column, key_column="source", b=12),
            batch_format="pyarrow")
        return partials.groupby("source").aggregate(
            sketch_merge_aggregate("hll", {"b": 12}, finalize="estimate"),
            Sum("n_added", alias_name="n_added"),
        ).to_pandas().sort_values("source").reset_index(drop=True)

    tree = distinct_tokens_by_source(tokens_small(), b=12)
    grp = udaf("tokens")
    assert tree["source"].tolist() == grp["source"].tolist()
    assert tree["distinct_tokens"].tolist() == grp["estimate"].tolist()
    assert tree["total_tokens"].tolist() == grp["n_added"].tolist()

    t2 = distinct_column_by_key(tokens_small(), "doc_id", "source", b=12)
    g2 = udaf("doc_id")
    assert t2["source"].tolist() == g2["source"].tolist()
    assert t2["distinct_values"].tolist() == g2["estimate"].tolist()
    assert t2["n_rows"].tolist() == g2["n_added"].tolist()


def test_cli_driver_subprocess():
    import json
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "cardinalityestimation_ray", "distinct",
         "--input", "/root/testdata/sf0.001", "--num-cpus", "4"],
        capture_output=True, text=True, timeout=300,
        cwd=REPO)
    assert out.returncode == 0, out.stderr[-500:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["distinct_tokens"] == 31  # exact (direct regime)
    assert res["total_tokens"] > 0


def test_skewed_corpus_per_source_accuracy(_ray):
    """Skew handling end-to-end: the synthetic corpus is deliberately skewed
    (web=70%); per-source estimates must match per-source EXACT distinct
    counts (vocab-bitmap method) within the HLL bound for every source."""
    import ray.data

    from cardinalityestimation_ray.pipelines.distinct import (
        distinct_tokens_by_source,
    )
    from cardinalityestimation_ray.sources.corpus import (
        CorpusConfig,
        synthesize_corpus_batch,
        synthetic_corpus_dataset,
    )

    cfg = CorpusConfig(vocab_size=50_000)
    n_docs = 20_000
    got = distinct_tokens_by_source(
        synthetic_corpus_dataset(n_docs, cfg, docs_per_block=2000), b=14)

    # exact per-source distinct via vocab bitmaps on the same deterministic data
    tbl = synthesize_corpus_batch(np.arange(n_docs), cfg).to_pandas()
    exact = {}
    totals = {}
    for src, grp in tbl.groupby("source"):
        toks = np.concatenate(grp["tokens"].to_numpy())
        exact[src] = len(np.unique(toks))
        totals[src] = len(toks)
    assert set(got["source"]) == set(exact)
    for _, row in got.iterrows():
        err = abs(row["distinct_tokens"] / exact[row["source"]] - 1)
        assert err <= 10 * 1.04 / 2 ** 7, (row["source"], err)
        assert row["total_tokens"] == totals[row["source"]]
    # the hot source dominates volume (skew really present)
    web_share = totals["web"] / sum(totals.values())
    assert web_share > 0.6


def test_actor_pool_scan_identical_to_stateless(tokens_small):
    """Actor-pool flagship scan (north_rule: 'actor pools for stateful
    stages') produces bit-identical registers to the stateless-task scan."""
    from cardinalityestimation_ray.pipelines.distinct import (
        global_distinct_tokens,
    )

    stateless = global_distinct_tokens(tokens_small(), b=12)
    pooled = global_distinct_tokens(tokens_small(), b=12, concurrency=(1, 3))
    assert np.array_equal(pooled["sketch"].registers(),
                          stateless["sketch"].registers())
    assert pooled["total_tokens"] == stateless["total_tokens"]


def test_ivf_recall_vs_brute(_ray):
    """IVF at moderate nprobe must recover most of brute-force top-k on a
    clustered corpus (round-1 VERDICT: recall assertion vs brute)."""
    import ray.data

    from cardinalityestimation_ray.pipelines.ann import (
        ann_topk_brute,
        ann_topk_ivf,
    )

    rng = np.random.default_rng(5)
    # 8 well-separated clusters of 100 vectors each
    centers = rng.standard_normal((8, 32)).astype(np.float32) * 4
    vecs = np.vstack([
        c + 0.3 * rng.standard_normal((100, 32)).astype(np.float32)
        for c in centers])
    ids = np.arange(len(vecs))
    df = pd.DataFrame({"vec_id": ids, "embedding": list(vecs)})

    def make():
        return ray.data.from_pandas(df).repartition(4)

    queries = vecs[::100][:5] + 0.05 * rng.standard_normal((5, 32)).astype(np.float32)
    bf = ann_topk_brute(make(), queries, k=10)
    ivf = ann_topk_ivf(make(), queries, k=10, n_cells=8, nprobe=3,
                       sample_count=400)
    recalls = []
    for qi in range(5):
        want = set(bf[bf.query_id == qi]["vec_id"])
        got = set(ivf[ivf.query_id == qi]["vec_id"])
        recalls.append(len(want & got) / len(want))
    assert np.mean(recalls) >= 0.9, recalls


def test_embedding_dedup_degenerate_bucket_capped(_ray):
    """A pile of near-identical embeddings (the web-scale degenerate case)
    must still dedup without the O(n^2) verify: windowed path keeps chain
    connectivity for union-find."""
    import ray.data

    from cardinalityestimation_ray.pipelines.dedup import embedding_dedup_pairs

    rng = np.random.default_rng(9)
    base = rng.standard_normal(16).astype(np.float32)
    clones = base + 1e-4 * rng.standard_normal((300, 16)).astype(np.float32)
    other = rng.standard_normal((50, 16)).astype(np.float32)
    vecs = np.vstack([clones, other])
    df = pd.DataFrame({"vec_id": np.arange(len(vecs)), "embedding": list(vecs)})

    def make():
        return ray.data.from_pandas(df).repartition(2)

    pairs = embedding_dedup_pairs(make(), threshold=0.99, max_bucket=64,
                                  window=8)
    # chain connectivity: union-find over pairs must put all 300 clones in
    # one cluster
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = {find(i) for i in range(300)}
    assert roots == {0}
    # no false positives into the unrelated vectors
    assert not any(i >= 300 for i in pairs["id_a"]) and \
        not any(i >= 300 and j < 300 for i, j in zip(pairs["id_a"], pairs["id_b"]))


def test_broadcast_semi_join_exact(_ray):
    """Bloom prefilter + exact verify == plain membership filter; anti-join
    is the complement."""
    import ray.data

    from cardinalityestimation_ray.pipelines.membership import (
        broadcast_semi_join,
    )

    rng = np.random.default_rng(4)
    vals = rng.integers(0, 10_000, size=20_000)
    keys = rng.choice(10_000, size=500, replace=False)
    ds = ray.data.from_pandas(pd.DataFrame({"k": vals})).repartition(4)

    semi = broadcast_semi_join(ds, keys, "k").to_pandas()
    anti = broadcast_semi_join(ds, keys, "k", negate=True).to_pandas()
    member = np.isin(vals, keys)
    assert len(semi) == int(member.sum())
    assert len(anti) == int((~member).sum())
    assert set(semi["k"]) <= set(keys.tolist())
    assert not (set(anti["k"]) & set(keys.tolist()))


def test_broadcast_semi_join_null_probe_keys_excluded(_ray):
    """SQL [NOT] IN semantics: NULL probe keys match nothing AND are
    excluded from the anti-join (round-2 ADVICE fix: they surfaced as NaN,
    missed the join, and with negate=True were wrongly kept)."""
    import pyarrow as pa
    import ray.data

    from cardinalityestimation_ray.pipelines.membership import (
        broadcast_semi_join,
    )

    tbl = pa.table({"k": pa.array([1, None, 2, None, 3, 7, 8],
                                  type=pa.int64())})
    ds = ray.data.from_arrow(tbl)
    keys = np.array([2, 3, 4], dtype=np.int64)
    semi = broadcast_semi_join(ds, keys, "k").to_pandas()
    anti = broadcast_semi_join(ds, keys, "k", negate=True).to_pandas()
    assert sorted(semi["k"]) == [2, 3]
    assert sorted(anti["k"]) == [1, 7, 8]  # nulls in NEITHER result


def test_salted_distinct_column_matches_unsalted(_ray):
    import ray.data

    from cardinalityestimation_ray.pipelines.distinct import (
        distinct_column_by_key,
    )
    from cardinalityestimation_ray.stages.partitioning import (
        salted_distinct_column_by_key,
    )

    rng = np.random.default_rng(2)
    n = 5000
    df = pd.DataFrame({
        "val": rng.integers(0, 800, size=n),
        "grp": rng.choice(["a", "b", "c"], size=n, p=[0.8, 0.15, 0.05]),
    })

    def make():
        return ray.data.from_pandas(df).repartition(6)

    salted = salted_distinct_column_by_key(
        make(), "val", "grp", b=12, num_salts=8,
        estimate_name="distinct_values", count_name="n_rows"
    ).to_pandas().sort_values("grp").reset_index(drop=True)
    plain = distinct_column_by_key(
        make(), "val", "grp", b=12,
        estimate_name="distinct_values", count_name="n_rows",
    )
    if not isinstance(plain, pd.DataFrame):
        plain = plain.to_pandas()
    plain = plain.sort_values("grp").reset_index(drop=True)
    # register-max commutativity: estimates identical, not just close
    assert salted["distinct_values"].tolist() == plain["distinct_values"].tolist()
    assert salted["n_rows"].tolist() == plain["n_rows"].tolist()


def test_token_bigram_topk_exact(_ray):
    """Bigram counts match a per-document brute-force count."""
    import collections

    import ray.data

    from cardinalityestimation_ray.pipelines.frequency import token_bigram_topk

    rng = np.random.default_rng(7)
    docs = [rng.integers(0, 30, size=rng.integers(0, 40)).astype(np.int32)
            for _ in range(300)]
    df = pd.DataFrame({
        "doc_id": [f"d{i}" for i in range(300)],
        "tokens": [list(map(int, d)) for d in docs],
    })
    want = collections.Counter()
    for d in docs:
        for x, y in zip(d[:-1], d[1:]):
            want[(int(x), int(y))] += 1
    top = token_bigram_topk(
        ray.data.from_pandas(df).repartition(4), k=15)
    want_sorted = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:15]
    got = list(zip(zip(top["token_a"], top["token_b"]), top["cnt"]))
    assert [c for _, c in got] == [c for _, c in want_sorted]
    # exact pair identity also holds (no tie ambiguity with full ordering)
    assert {(tuple(p), c) for p, c in got} <= set(
        (k, v) for k, v in want.items())


def test_clean_text_redaction():
    import pyarrow as pa

    from cardinalityestimation_ray.functions.text import clean_text

    batch = pa.table({"text": pa.array([
        "see https://site.example/p?a=1 and mail bob.smith+x@corp.io now",
        "  messy\t\t spacing  here ",
        "https://a.b@weird.example/path stays one URL",
    ])})
    out = clean_text(batch)["clean_text"].to_pylist()
    assert out[0] == "see <URL> and mail <EMAIL> now"
    assert out[1] == "messy spacing here"
    assert out[2] == "<URL> stays one URL"


def test_bigram_heavy_hitters_exact(_ray):
    """CMS-candidates + exact-verify bigram plan == brute force at any phi."""
    import collections

    import ray.data

    from cardinalityestimation_ray.pipelines.frequency import (
        bigram_heavy_hitters,
    )

    rng = np.random.default_rng(13)
    # skew: pair (1, 2) planted heavily
    docs = []
    for _ in range(400):
        d = rng.integers(0, 50, size=20).astype(np.int32).tolist()
        if rng.random() < 0.5:
            d[3:5] = [1, 2]
        docs.append(d)
    df = pd.DataFrame({"doc_id": range(400), "tokens": docs})

    want = collections.Counter()
    total = 0
    for d in docs:
        for x, y in zip(d[:-1], d[1:]):
            want[(x, y)] += 1
            total += 1
    phi = 0.01
    expected = {(a, b): c for (a, b), c in want.items() if c >= phi * total}

    out = bigram_heavy_hitters(
        lambda: ray.data.from_pandas(df).repartition(4), phi=phi)
    got = {(int(r.token_a), int(r.token_b)): int(r.cnt)
           for r in out.itertuples()}
    assert got == expected


def test_heavy_hitters_int64_tokens_match_int32(tokens_small):
    """A list<int64> token column gives the int32 column's heavy hitters:
    the candidate filter queries the count-min sketch in the dtype it was
    built from (a sketch built over int64 values answers 0 for an int32
    query of the same value)."""
    from cardinalityestimation_ray.pipelines.frequency import heavy_hitters

    def as_int64(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("tokens")
        return batch.set_column(
            i, "tokens", batch["tokens"].cast(pa.list_(pa.int64())))

    want = heavy_hitters(lambda: tokens_small(), phi=0.02)
    got = heavy_hitters(
        lambda: tokens_small().map_batches(as_int64, batch_format="pyarrow"),
        phi=0.02)
    assert len(want) > 0
    assert list(zip(got["token"].tolist(), got["cnt"].tolist())) == \
        list(zip(want["token"].tolist(), want["cnt"].tolist()))


def test_bigram_queries_null_empty_and_sliced_batches(_ray):
    """Both bigram queries over batches with null tokens, empty and null
    rows and a sliced batch equal a pure-Python count: null tokens are
    dropped before pairing, and no pair crosses a row."""
    import collections

    import ray.data

    from cardinalityestimation_ray.pipelines.frequency import (
        bigram_heavy_hitters,
        token_bigram_topk,
    )

    rng = np.random.default_rng(11)
    tables = []
    for t in range(4):
        rows = []
        for _ in range(60):
            r = rng.random()
            if r < 0.1:
                rows.append(None)
            elif r < 0.2:
                rows.append([])
            else:
                ids = rng.integers(-4, 8, rng.integers(1, 12))
                rows.append([None if rng.random() < 0.1 else int(x)
                             for x in ids])
        tbl = pa.table({"tokens": pa.array(rows, pa.list_(pa.int32()))})
        tables.append(tbl.slice(7, 40) if t == 2 else tbl)
    want = collections.Counter()
    for tbl in tables:
        for row in tbl["tokens"].to_pylist():
            vals = [x for x in row or [] if x is not None]
            want.update(zip(vals[:-1], vals[1:]))
    ranked = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))

    def rows(df):
        return [((a, b), c) for a, b, c in zip(
            df["token_a"].tolist(), df["token_b"].tolist(),
            df["cnt"].tolist())]

    top = token_bigram_topk(ray.data.from_arrow(tables), k=len(want) + 5)
    assert rows(top) == ranked
    assert rows(token_bigram_topk(ray.data.from_arrow(tables), k=10)) == \
        ranked[:10]
    phi = 0.01
    total = sum(want.values())
    heavy = bigram_heavy_hitters(lambda: ray.data.from_arrow(tables), phi=phi)
    assert rows(heavy) == [(p, c) for p, c in ranked if c >= phi * total]
    assert len(heavy) > 0


def test_bigram_negative_ids_distinct(_ray):
    """Negative int32 token ids (padding sentinels) must not collapse
    distinct bigrams via sign extension (self-review fix)."""
    import ray.data

    from cardinalityestimation_ray.pipelines.frequency import token_bigram_topk

    df = pd.DataFrame({
        "doc_id": [0, 1],
        "tokens": [[5, -1, 5, -1], [7, -1, 7, -1]],
    })
    top = token_bigram_topk(ray.data.from_pandas(df), k=10)
    got = {(int(a), int(b)): int(c)
           for a, b, c in zip(top["token_a"], top["token_b"], top["cnt"])}
    assert got == {(5, -1): 2, (7, -1): 2, (-1, 5): 1, (-1, 7): 1}


def test_review_fixes_null_and_empty_paths(_ray):
    """Round-2 self-review regression: an empty corpus doesn't crash
    exact_dedup_stats."""
    import pyarrow as pa
    import ray.data

    from cardinalityestimation_ray.pipelines.dedup import exact_dedup_stats

    # empty corpus -> zeros, not TypeError
    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "text": pa.array([], type=pa.string()),
    }))
    stats = exact_dedup_stats(empty)
    assert stats["n_docs"][0] == 0 and stats["n_distinct"][0] == 0


def test_empty_inputs_typed_frames(_ray):
    """Every pipeline must return a typed empty frame on empty input
    (round-2 empty-input sweep: Ray's empty grouped aggregates come back
    column-less, which used to KeyError in several sort/select tails)."""
    import pyarrow as pa
    import ray.data

    from cardinalityestimation_ray.pipelines.ann import ann_topk_brute
    from cardinalityestimation_ray.pipelines.exact import (
        exact_count_by_key,
        exact_distinct_by_key,
    )
    from cardinalityestimation_ray.pipelines.stats import ntok_stats_by_source

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.string()),
        "tokens": pa.array([], type=pa.list_(pa.int32())),
        "n_tok": pa.array([], type=pa.int32()),
        "source": pa.array([], type=pa.string())}))
    emb = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([], type=pa.int64()),
        "embedding": pa.array([], type=pa.list_(pa.float32()))}))
    ev = ray.data.from_arrow(pa.table({
        "event_type": pa.array([], type=pa.string()),
        "user_id": pa.array([], type=pa.int64())}))

    s = ntok_stats_by_source(docs)
    assert len(s) == 0 and "total_tokens" in s.columns
    q = np.zeros((2, 4), dtype=np.float32)
    a = ann_topk_brute(emb, q, k=3)
    assert len(a) == 0 and list(a.columns) == ["query_id", "rank", "vec_id",
                                               "cosine"]
    assert [str(t) for t in a.dtypes] == ["int64", "int64", "int64",
                                          "float64"]
    from cardinalityestimation_ray.pipelines.ann import ann_topk_ivf

    ai = ann_topk_ivf(emb, q, k=3)  # empty-sample early return, same schema
    assert len(ai) == 0 and list(ai.columns) == list(a.columns)
    assert list(ai.dtypes) == list(a.dtypes)
    d = exact_distinct_by_key(ev, "user_id", "event_type")
    assert len(d) == 0 and "distinct_values" in d.columns
    c = exact_count_by_key(ev.select_columns(["event_type"]), "event_type")
    assert len(c) == 0 and "n_rows" in c.columns


def test_all_null_value_column(_ray):
    """SQL GROUP BY keeps a group whose values are all null —
    COUNT(DISTINCT v) is 0, the group row still exists. The keyed partial
    stage used to DROP such groups (round-4 session-9 review: its sibling
    stage kept them); the one SketchPartials stage now agrees with SQL."""
    import pyarrow as pa
    import ray.data

    from cardinalityestimation_ray.pipelines.distinct import (
        distinct_column_by_key,
    )

    tbl = pa.table({
        "v": pa.array([None, None, None], type=pa.int64()),
        "g": pa.array(["a", "a", "b"]),
    })
    out = distinct_column_by_key(ray.data.from_arrow(tbl), "v", "g")
    got0 = {r["g"]: r["distinct_values"] for r in out.to_dict("records")}
    assert got0 == {"a": 0, "b": 0}

    mixed = pa.table({
        "v": pa.array([1, None, 1, 2], type=pa.int64()),
        "g": pa.array(["a", "a", "b", "b"]),
    })
    out2 = distinct_column_by_key(ray.data.from_arrow(mixed), "v", "g")
    got = {r["g"]: r["distinct_values"] for r in out2.to_dict("records")}
    assert got == {"a": 1, "b": 2}


def test_null_keys_and_null_token_elements(_ray):
    """High-effort review regressions: null key rows are excluded (not
    NaN-crash), null token elements don't flip the batch to float64 hashing,
    and cross-batch token identity holds."""
    import pyarrow as pa
    import ray.data

    from cardinalityestimation_ray.pipelines.distinct import (
        distinct_tokens_by_source,
        global_distinct_tokens,
    )

    tbl = pa.table({
        "doc_id": pa.array(["a", "b", "c", "d"]),
        "tokens": pa.array([[1, None, 2], [1, 2], None, [3]],
                           type=pa.list_(pa.int32())),
        "source": pa.array(["s1", None, "s1", "s2"]),
    })

    def make():
        return ray.data.from_arrow(tbl)

    g = global_distinct_tokens(make())
    assert g["distinct_tokens"] == 3      # {1, 2, 3}; nulls not elements
    assert g["total_tokens"] == 5
    df = distinct_tokens_by_source(make())
    got = {r["source"]: r["distinct_tokens"] for r in df.to_dict("records")}
    assert got == {"s1": 2, "s2": 1}      # null-source row excluded


def test_semi_join_mixed_integer_widths(_ray):
    """int32 build keys against an int64 column must still join exactly
    (byte-image widths canonicalized on both sides)."""
    import pyarrow as pa
    import ray.data

    from cardinalityestimation_ray.pipelines.membership import (
        broadcast_semi_join,
    )

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([10, 20, 30, 40], type=pa.int64())}))
    keys32 = np.array([10, 30], dtype=np.int32)
    out = broadcast_semi_join(ds, keys32, "k").to_pandas()
    assert sorted(out["k"]) == [10, 30]


def test_asof_join_matches_pandas_merge_asof(_ray):
    """Vectorized bucketed as-of join == pandas merge_asof per key, both
    strict and non-strict, inner and left."""
    import ray.data

    from cardinalityestimation_ray.pipelines.joins import asof_join

    rng = np.random.default_rng(5)
    n_l, n_r = 2000, 800
    left = pd.DataFrame({
        "k": rng.integers(0, 40, n_l),
        "t": rng.integers(0, 10_000, n_l),
        "payload": np.arange(n_l),
    })
    right = pd.DataFrame({
        "k": rng.integers(0, 50, n_r),  # some keys absent on the left
        "t": rng.integers(0, 10_000, n_r),
        "val": rng.normal(size=n_r),
    })
    # dedupe right on (k, t): ties are implementation-arbitrary in any
    # as-of engine, so make the ground truth unique
    right = right.drop_duplicates(["k", "t"]).reset_index(drop=True)

    for strict in (True, False):
        got = asof_join(
            ray.data.from_pandas(left).repartition(4),
            ray.data.from_pandas(right).repartition(3),
            by="k", on="t", right_columns=["t", "val"], num_buckets=8,
            strict=strict).to_pandas()
        exp_rows = []
        for k, lg in left.groupby("k"):
            rg = right[right["k"] == k].sort_values("t")
            for _, row in lg.iterrows():
                cand = rg[rg["t"] < row["t"]] if strict else \
                    rg[rg["t"] <= row["t"]]
                if len(cand):
                    last = cand.iloc[-1]
                    exp_rows.append((row["k"], row["t"], row["payload"],
                                     last["t"], last["val"]))
        exp = pd.DataFrame(exp_rows,
                           columns=["k", "t", "payload", "t_r", "val"])
        got_s = got.sort_values(["k", "t", "payload"]).reset_index(drop=True)
        exp_s = exp.sort_values(["k", "t", "payload"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got_s[exp_s.columns.tolist()], exp_s, check_dtype=False)

    # left join keeps unmatched rows with nulls
    got_left = asof_join(
        ray.data.from_pandas(left).repartition(4),
        ray.data.from_pandas(right).repartition(3),
        by="k", on="t", right_columns=["t", "val"], num_buckets=8,
        how="left").to_pandas()
    assert len(got_left) == len(left)
    inner_n = len(asof_join(
        ray.data.from_pandas(left).repartition(4),
        ray.data.from_pandas(right).repartition(3),
        by="k", on="t", right_columns=["t", "val"],
        num_buckets=8).to_pandas())
    assert got_left["val"].notna().sum() == inner_n


def test_interval_join_matches_sql_between(_ray):
    """Point-in-interval join == SQL `JOIN ON key AND t BETWEEN lo AND hi`
    for per-key non-overlapping validity windows."""
    import duckdb
    import ray.data

    from cardinalityestimation_ray.pipelines.joins import interval_join

    rng = np.random.default_rng(9)
    # non-overlapping windows per key: consecutive [start, start+width-1]
    intervals = []
    for k in range(20):
        start = 0
        for _ in range(rng.integers(1, 6)):
            width = int(rng.integers(5, 50))
            gap = int(rng.integers(0, 20))
            intervals.append((k, start, start + width - 1, len(intervals)))
            start += width + gap
    right = pd.DataFrame(intervals, columns=["k", "lo", "hi", "iv_id"])
    left = pd.DataFrame({
        "k": rng.integers(0, 25, 3000),
        "t": rng.integers(0, 300, 3000),
        "row_id": np.arange(3000),
    })

    got = interval_join(
        ray.data.from_pandas(left).repartition(4),
        ray.data.from_pandas(right).repartition(2),
        by="k", on="t", lo="lo", hi="hi",
        right_columns=["lo", "hi", "iv_id"], num_buckets=8).to_pandas()

    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    exp = con.sql("""
        SELECT l.k, l.t, l.row_id, r.lo, r.hi, r.iv_id
        FROM l JOIN r ON l.k = r.k AND l.t BETWEEN r.lo AND r.hi
    """).df()
    cols = ["k", "t", "row_id", "lo", "hi", "iv_id"]
    got_s = got[cols].sort_values(["row_id"]).reset_index(drop=True)
    exp_s = exp[cols].sort_values(["row_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got_s, exp_s, check_dtype=False)

    # left join: every left row present, misses have null iv_id
    got_left = interval_join(
        ray.data.from_pandas(left).repartition(4),
        ray.data.from_pandas(right).repartition(2),
        by="k", on="t", lo="lo", hi="hi",
        right_columns=["lo", "hi", "iv_id"], num_buckets=8,
        how="left").to_pandas()
    assert len(got_left) == len(left)
    assert got_left["iv_id"].notna().sum() == len(exp)


def test_broadcast_join_matches_sql(_ray, sf_dir):
    import duckdb
    import pyarrow.parquet as pq
    import ray.data

    from cardinalityestimation_ray.pipelines.joins import broadcast_join

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    got = broadcast_join(cust, nation, "c_nationkey",
                         right_key="n_nationkey").to_pandas()
    exp = duckdb.sql(f"""
        SELECT c.c_custkey, c.c_nationkey, n.n_name
        FROM '{sf_dir}/customer.parquet' c
        JOIN '{sf_dir}/nation.parquet' n ON c.c_nationkey = n.n_nationkey
    """).df()
    cols = ["c_custkey", "c_nationkey", "n_name"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values("c_custkey").reset_index(drop=True),
        exp[cols].sort_values("c_custkey").reset_index(drop=True),
        check_dtype=False)

    # left join: unmatched keys survive with null names
    bogus = pd.DataFrame({"c_custkey": [999999], "c_nationkey": [-1]})
    big = ray.data.from_pandas(pd.concat(
        [cust.to_pandas(), bogus], ignore_index=True))
    left = broadcast_join(big, nation, "c_nationkey",
                          right_key="n_nationkey", how="left").to_pandas()
    assert len(left) == cust.count() + 1
    assert left.loc[left["c_custkey"] == 999999, "n_name"].isna().all()


def test_topk_per_group_matches_sql_row_number(_ray, sf_dir):
    import duckdb
    import ray.data

    from cardinalityestimation_ray.pipelines.ranking import topk_per_group

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"])
    got = topk_per_group(orders, "o_custkey", "o_totalprice", 3,
                         tie_col="o_orderkey", num_buckets=8).to_pandas()
    exp = duckdb.sql(f"""
        SELECT o_custkey, o_orderkey, o_totalprice FROM (
          SELECT *, row_number() OVER (
            PARTITION BY o_custkey
            ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn
          FROM '{sf_dir}/orders.parquet') WHERE rn <= 3
    """).df()
    cols = ["o_custkey", "o_orderkey", "o_totalprice"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        exp[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False)


def test_asof_join_preserves_int64_and_timestamp_dtypes(_ray):
    """Round-3 review regression: the per-bucket join is Arrow-native, so
    int64 ids above 2^53 survive exactly (a pandas union would NaN-promote
    them to float64) and timestamp right columns stay typed under
    how='left' even when some buckets have an empty right side."""
    import ray.data

    from cardinalityestimation_ray.pipelines.joins import asof_join

    big_id = (1 << 60) + 12345  # not representable in float64
    left = pd.DataFrame({
        "k": [1, 1, 2, 3],
        "t": pd.to_datetime([10, 20, 15, 5], unit="s"),
        "big": np.array([big_id, big_id + 1, big_id + 2, big_id + 3],
                        dtype=np.int64),
    })
    right = pd.DataFrame({
        "k": [1, 2],
        "t": pd.to_datetime([5, 12], unit="s"),
        "val": [1.5, 2.5],
    })
    out = asof_join(
        ray.data.from_pandas(left).repartition(2),
        ray.data.from_pandas(right).repartition(1),
        by="k", on="t", right_columns=["t", "val"], num_buckets=4,
        how="left").to_pandas().sort_values("big").reset_index(drop=True)
    assert out["big"].dtype == np.int64
    assert out["big"].tolist() == [big_id, big_id + 1, big_id + 2,
                                   big_id + 3]
    assert str(out["t_r"].dtype).startswith("datetime64")
    # k=3 has no right rows anywhere -> typed nulls
    assert out.loc[out["k"] == 3, "val"].isna().all()
    assert out.loc[out["k"] == 3, "t_r"].isna().all()
    assert out.loc[out["k"] == 1, "val"].notna().all()


def test_topk_per_group_unsigned_values_and_null_keys(_ray):
    """Round-3 review regressions: unsigned value columns must rank
    correctly (naive -values wraps so 0 ranked LARGEST), and null group
    keys are excluded like every other keyed stage."""
    import ray.data

    from cardinalityestimation_ray.pipelines.ranking import topk_per_group

    tbl = pa.table({
        "g": pa.array([1, 1, 1, None, 2], type=pa.int64()),
        "v": pa.array([0, 5, 3, 9, 7], type=pa.uint64()),
        "id": pa.array([10, 11, 12, 13, 14], type=pa.int64()),
    })
    got = topk_per_group(ray.data.from_arrow(tbl), "g", "v", 2,
                         tie_col="id", num_buckets=4).to_pandas()
    assert sorted(got["id"].tolist()) == [11, 12, 14]  # not the v=0 row
    assert got["g"].notna().all()


def test_session_windows_negative_keys(_ray):
    """Round-3 review regression: negative integer keys must hash-bucket
    (bitwise wrap), not raise ArrowInvalid."""
    import ray.data

    from cardinalityestimation_ray.pipelines.windows import (
        session_window_stats,
    )

    df = pd.DataFrame({
        "user_id": [-1, -1, 7, 7, 7],
        "ts": pd.to_datetime([0, 10_000, 0, 50, 4000], unit="s"),
    })
    out = session_window_stats(ray.data.from_pandas(df), gap_minutes=30)
    got = dict(zip(out["user_id"], out["n_sessions"]))
    assert got == {-1: 2, 7: 2}


def test_minhash_kwarg_typos_raise(planted_docs):
    from cardinalityestimation_ray.pipelines.dedup import (
        minhash_dedup_keep_distributed,
        minhash_dedup_pairs,
    )

    make, _ = planted_docs
    with pytest.raises(TypeError):
        minhash_dedup_pairs(make(), threshhold=0.9)  # typo must not pass
    with pytest.raises(TypeError):
        minhash_dedup_keep_distributed(make(), num_bangs=32)


# ---------------------------------------------------------------------------
# round-3 whole-package review regressions


def test_bloom_semi_join_null_batch_not_poisoned(_ray):
    """One null in a numeric probe batch must not flip the batch to float64
    hashing (which misfiltered EVERY row); nulls are excluded per SQL."""
    import ray
    import ray.data

    from cardinalityestimation_ray.pipelines.membership import (
        bloom_semi_join,
    )
    from cardinalityestimation_ray.sketches.bloom import BloomFilter

    bf = BloomFilter(num_bits=1 << 16, num_hashes=5)
    bf.add_values(np.arange(0, 50, dtype=np.int64))
    ref = ray.put(bf.to_bytes())
    tbl = pa.table({"k": pa.array([1, 2, None, 40, 999], type=pa.int64())})
    semi = bloom_semi_join(ray.data.from_arrow(tbl), ref, "k").to_pandas()
    assert sorted(semi["k"]) == [1, 2, 40]
    anti = bloom_semi_join(ray.data.from_arrow(tbl), ref, "k",
                           negate=True).to_pandas()
    assert sorted(anti["k"]) == [999]  # null excluded from anti-join too


def test_bloom_semi_join_cross_width_and_custom_hash(_ray):
    """Round-4 review fixes, end to end: (a) an int32-built filter probed
    against an int64 column joined 0 rows (byte-image width mismatch) —
    BloomFilter now canonicalizes integer images; (b) a custom-hash filter
    round-tripped through to_bytes lost its hash_name and rejected every
    member — the BLM2 wire format embeds it."""
    import ray
    import ray.data

    from cardinalityestimation_ray.pipelines.membership import (
        bloom_semi_join,
    )
    from cardinalityestimation_ray.sketches.bloom import BloomFilter

    bf = BloomFilter(num_bits=1 << 16, num_hashes=5, hash_name="murmur3")
    bf.add_values(np.arange(0, 50, dtype=np.int32))  # int32 build side
    ref = ray.put(bf.to_bytes())
    tbl = pa.table({"k": pa.array([1, 2, 40, 999, 12345], type=pa.int64())})
    semi = bloom_semi_join(ray.data.from_arrow(tbl), ref, "k").to_pandas()
    assert sorted(semi["k"]) == [1, 2, 40]
    anti = bloom_semi_join(ray.data.from_arrow(tbl), ref, "k",
                           negate=True).to_pandas()
    assert sorted(anti["k"]) == [999, 12345]


def test_add_hash_bucket_null_does_not_scatter_keys(_ray):
    """A null in one batch must not change the bucket of NON-null keys
    (float64-image hashing scattered the same key across buckets)."""
    import ray.data

    from cardinalityestimation_ray.stages.partitioning import (
        add_hash_bucket,
    )

    with_null = pa.table({"k": pa.array([7, None, 12], type=pa.int64())})
    without = pa.table({"k": pa.array([7, 12], type=pa.int64())})
    b1 = add_hash_bucket(ray.data.from_arrow(with_null), "k", 64).to_pandas()
    b2 = add_hash_bucket(ray.data.from_arrow(without), "k", 64).to_pandas()
    m1 = dict(zip(b1["k"].dropna(), b1.loc[b1["k"].notna(), "bucket"]))
    m2 = dict(zip(b2["k"], b2["bucket"]))
    assert m1 == m2


def test_bucketed_joins_match_across_integer_widths(_ray):
    """An int32 key column joined to an int64 one returns every match:
    add_hash_bucket hashes keys width-canonically, so equal keys of both
    sides share a bucket (native-width hashing put int32 2 and int64 2 in
    different buckets and dropped most matches)."""
    import ray.data

    from cardinalityestimation_ray.pipelines.joins import (
        asof_join,
        bucketed_inner_join,
    )

    keys = np.arange(200)
    left = pa.table({"k": pa.array(keys, type=pa.int32()),
                     "t": pa.array(np.full(200, 10, dtype=np.int64))})
    right = pa.table({"k": pa.array(keys, type=pa.int64()),
                      "t": pa.array(np.full(200, 5, dtype=np.int64)),
                      "v": pa.array(keys * 2)})

    inner = bucketed_inner_join(ray.data.from_arrow(left),
                                ray.data.from_arrow(right), "k",
                                num_buckets=64).to_pandas()
    assert sorted(inner["k"]) == keys.tolist()
    assert (inner["v"] == inner["k"] * 2).all()

    asof = asof_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                     by="k", on="t", right_columns=["v"],
                     num_buckets=64).to_pandas()
    assert dict(zip(asof["k"], asof["v"])) == {k: 2 * k for k in keys}


def test_incremental_update_custom_hash_roundtrip(tmp_path, _ray):
    """Round-3 review regression: a second incremental run under a
    non-default hash must MERGE, not raise on hash mismatch."""
    import ray.data

    from cardinalityestimation_ray.pipelines.incremental import (
        incremental_distinct_update,
    )

    path = str(tmp_path / "inc.parquet")
    df1 = pd.DataFrame({"source": ["a", "b"], "tokens": [[1, 2], [3]]})
    df2 = pd.DataFrame({"source": ["a"], "tokens": [[2, 4]]})
    incremental_distinct_update(path, ray.data.from_pandas(df1),
                                hash_name="xxhash128")
    out = incremental_distinct_update(path, ray.data.from_pandas(df2),
                                      hash_name="xxhash128")
    got = dict(zip(out["source"], out["distinct_tokens"]))
    assert got == {"a": 3, "b": 1}  # {1,2,4} and {3}


def test_incremental_update_under_another_hash_raises(tmp_path, _ray):
    """The results table stores each sketch's hash, so an update under a
    different hash meets the merge's hash check instead of merging two
    hash spaces (which counted 100 values twice as about 200)."""
    import ray.data

    from cardinalityestimation_ray.pipelines.incremental import (
        incremental_distinct_update,
    )
    from cardinalityestimation_ray.sources.io import read_sketch_results

    path = str(tmp_path / "inc.parquet")
    df = pd.DataFrame({"source": ["a"] * 100, "doc": np.arange(100)})
    incremental_distinct_update(path, ray.data.from_pandas(df),
                                hash_name="murmur3", value_column="doc")
    stored = read_sketch_results(path, key_name="source")
    assert stored["a"][0].hash_name == "murmur3"
    with pytest.raises(ValueError, match="different hash"):
        incremental_distinct_update(path, ray.data.from_pandas(df),
                                    value_column="doc")


def test_incremental_update_of_new_keys_under_another_hash_raises(
        tmp_path, _ray):
    """An update that holds only new keys still meets the stored table's
    hash: every key's result merges into one sketch built from the call's
    b and hash, so the call raises before it writes, and the table is not
    left holding sketches of two hashes."""
    import ray.data

    from cardinalityestimation_ray.pipelines.incremental import (
        incremental_distinct_update,
    )

    path = tmp_path / "inc.parquet"
    old = pd.DataFrame({"source": ["a"] * 100, "doc": np.arange(100)})
    incremental_distinct_update(str(path), ray.data.from_pandas(old),
                                hash_name="murmur3", value_column="doc")
    before = path.read_bytes()
    new = pd.DataFrame({"source": ["b"] * 50, "doc": np.arange(50)})
    with pytest.raises(ValueError, match="different hash"):
        incremental_distinct_update(str(path), ray.data.from_pandas(new),
                                    value_column="doc")
    assert path.read_bytes() == before


def test_global_distinct_sketch_keeps_its_hash(_ray):
    """The merged sketch comes back under the stage's hash, so adding the
    same tokens again leaves its estimate where it was."""
    import ray.data

    from cardinalityestimation_ray.pipelines.distinct import (
        global_distinct_tokens,
    )

    tokens = pa.array([[1, 2, 3], [4, 5]], type=pa.list_(pa.int32()))
    res = global_distinct_tokens(
        ray.data.from_arrow(pa.table({"tokens": tokens})), hash_name="murmur3")
    sketch = res["sketch"]
    assert sketch.hash_name == "murmur3"
    assert sketch.estimate() == 5
    sketch.add_values(np.arange(1, 6, dtype=np.int32))
    assert sketch.estimate() == 5


def test_probe_membership_out_of_range_probe_is_false(tokens_small):
    from cardinalityestimation_ray.pipelines.membership import (
        probe_token_membership,
    )

    probes = np.array([5, 2**40], dtype=np.int64)  # 2nd can't be int32
    out = probe_token_membership(tokens_small(), probes)
    assert bool(out.loc[out["token"] == 2**40, "member"].iloc[0]) is False


def test_extract_json_int_rejects_floats_and_overflow(_ray):
    from cardinalityestimation_ray.functions.parse import extract_json_int

    tbl = pa.table({"props": pa.array([
        '{"k": 7}', '{"k": 1.5}', '{"k": 2e8}',
        '{"k": 99999999999999999999999}', '{"x": 1}', "not json",
        '{"k": -12}',
        # the int64 bound is EXACT (TRY_CAST semantics): max / max+1 and
        # min / min-1 (round-4 session-9 review — 19-digit in-range
        # values like snowflake ids were blanket-nulled before)
        '{"k": 9223372036854775807}', '{"k": 9223372036854775808}',
        '{"k": -9223372036854775808}', '{"k": -9223372036854775809}',
    ])})
    out = extract_json_int(tbl, "props", "k")
    assert out["k"].to_pylist() == [
        7, None, None, None, None, None, -12,
        2**63 - 1, None, -(2**63), None]


def test_ann_brute_deterministic_under_ties(_ray):
    """Duplicate embeddings (cosine ties at the k boundary) must yield the
    id-ascending tie-break deterministically."""
    import ray.data

    from cardinalityestimation_ray.pipelines.ann import ann_topk_brute

    base = np.zeros((6, 4), dtype=np.float32)
    base[:, 0] = 1.0  # six identical unit vectors: all cosine 1.0
    df = pd.DataFrame({
        "vec_id": [50, 10, 40, 30, 20, 60],
        "embedding": [row for row in base],
    })
    q = np.array([[1.0, 0, 0, 0]], dtype=np.float32)
    out = ann_topk_brute(ray.data.from_pandas(df).repartition(1), q, k=3)
    assert out["vec_id"].tolist() == [10, 20, 30]  # smallest ids win ties


def test_windows_null_timestamps_dropped(_ray):
    """Null event times belong to no window: tumbling must not crash and
    sessions must not absorb null-ts rows."""
    import ray.data

    from cardinalityestimation_ray.pipelines.windows import (
        session_window_stats,
        tumbling_window_agg,
    )

    tbl = pa.table({
        "event_type": ["a", "a", "a"],
        "user_id": pa.array([1, 1, 1], type=pa.int64()),
        "ts": pa.array([1_700_000_000_000_000, None, 1_700_003_600_000_000],
                       type=pa.timestamp("us")),
        "value": [1.0, 2.0, 3.0],
    })
    out = tumbling_window_agg(ray.data.from_arrow(tbl), window_minutes=60)
    assert out["n_events"].sum() == 2  # the null-ts row is dropped
    sess = session_window_stats(ray.data.from_arrow(tbl), gap_minutes=30)
    assert sess.loc[sess["user_id"] == 1, "n_sessions"].iloc[0] == 2


def test_exact_distinct_ignores_null_values(_ray):
    import ray.data

    from cardinalityestimation_ray.pipelines.exact import (
        exact_distinct_by_key,
        exact_distinct_global,
    )

    tbl = pa.table({
        "k": ["a", "a", "a", "b"],
        "v": pa.array([1, None, 1, None], type=pa.int64()),
    })
    by_key = exact_distinct_by_key(ray.data.from_arrow(tbl), "v", "k",
                                   distinct_name="d")
    got = dict(zip(by_key["k"], by_key["d"]))
    assert got.get("a") == 1 and got.get("b") in (None, 0)  # SQL: b has 0
    glob = exact_distinct_global(ray.data.from_arrow(tbl), "v")
    assert int(glob["distinct_values"][0]) == 1


def test_quality_features_and_vocab_null_safe(_ray):
    from cardinalityestimation_ray.functions.text import (
        distinct_tokens_per_row,
        quality_features,
    )

    tbl = pa.table({"text": pa.array(["hello world", None])})
    out = quality_features(tbl)
    assert out["n_chars"].to_pylist() == [11, 0]
    assert out["n_tokens"].to_pylist() == [2, 0]

    toks = pa.table({"tokens": pa.array([[1, 2, None, 2], [None, None]],
                                        type=pa.list_(pa.int32()))})
    vv = distinct_tokens_per_row(toks)
    assert vv["n_distinct_tokens"].to_pylist() == [2, 0]


def test_corpus_generator_guards(_ray):
    from cardinalityestimation_ray.sources.corpus import (
        CorpusConfig,
        synthesize_corpus_batch,
    )

    with pytest.raises(ValueError, match="10\\^12"):
        synthesize_corpus_batch(np.array([10**12 + 5]))
    # s == 1 uses the log-uniform limit instead of dividing by zero
    t = synthesize_corpus_batch(np.arange(50), CorpusConfig(zipf_s=1.0))
    assert t.num_rows == 50
    flat = [x for row in t["tokens"].to_pylist() for x in row]
    assert min(flat) >= 0 and max(flat) < 100_000


# ---------------------------------------------------------------------------
# generic mergeable-UDAF surface (sketch_merge_aggregate — north-star: every
# sketch kind pluggable into ds.groupby().aggregate(...) tree reduction)


def test_udaf_theta_keyed_exact(_ray, sf_dir):
    """Theta UDAF through Ray's native groupby-aggregate == exact COUNT
    (DISTINCT) below the retention cap (theta=1 keeps every hash)."""
    import duckdb
    import ray.data

    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        sketch_merge_aggregate,
    )

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id"])
    partials = ev.map_batches(
        SketchPartials("theta", "user_id", key_column="event_type", k=4096),
        batch_format="pyarrow")
    out = partials.groupby("event_type").aggregate(
        sketch_merge_aggregate("theta", {"k": 4096},
                               finalize="estimate", name="distinct_users"))
    got = out.to_pandas().sort_values("event_type").reset_index(drop=True)
    want = duckdb.sql(f"""
        SELECT event_type, count(DISTINCT user_id) AS distinct_users
        FROM '{sf_dir}/events.parquet' GROUP BY event_type ORDER BY event_type
    """).df()
    assert got["event_type"].tolist() == want["event_type"].tolist()
    assert got["distinct_users"].astype(int).tolist() == \
        want["distinct_users"].astype(int).tolist()


def test_udaf_countmin_counter_identity(tokens_small, sf_dir):
    """count-min merge is a counter SUM — order-invariant, so the UDAF path
    must agree exactly with a single-process build on every probe."""
    import duckdb

    from cardinalityestimation_ray.sketches.countmin import CountMinSketch
    from cardinalityestimation_ray.sketches import sketch_from_bytes
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        sketch_merge_aggregate,
    )

    params = {"depth": 4, "width": 1 << 12}
    partials = tokens_small().map_batches(
        SketchPartials("countmin", "source", **params),
        batch_format="pyarrow")
    res = partials.aggregate(
        sketch_merge_aggregate("countmin", params, name="cms"))
    cms = sketch_from_bytes("countmin", res["cms"])

    local = CountMinSketch(**params)
    src = duckdb.sql(
        f"SELECT source FROM '{sf_dir}/documents.parquet'").df()["source"]
    local.add_arrow(pa.array(src, type=pa.string()))
    for probe in src.unique():
        assert cms.query(probe) == local.query(probe)


def test_udaf_tdigest_quantile_and_bloom_blob(tokens_small, sf_dir):
    import duckdb

    from cardinalityestimation_ray.sketches import sketch_from_bytes
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        sketch_merge_aggregate,
    )

    partials = tokens_small().map_batches(
        SketchPartials("tdigest", "n_tok", delta=200),
        batch_format="pyarrow")
    res = partials.aggregate(
        sketch_merge_aggregate("tdigest", {"delta": 200},
                               finalize=lambda sk: sk.quantile(0.5),
                               name="p50"))
    vals = duckdb.sql(f"""
        SELECT len({_TOK_SQL}) AS n FROM '{sf_dir}/documents.parquet'
    """).df()["n"].to_numpy()
    # rank-error bound: the estimate's rank must be within 2% of the median's
    rank = (vals <= res["p50"]).mean()
    assert 0.45 <= rank <= 0.55

    bpart = tokens_small().map_batches(
        SketchPartials("bloom", "doc_id", num_bits=1 << 16, num_hashes=5),
        batch_format="pyarrow")
    blob = bpart.aggregate(
        sketch_merge_aggregate("bloom", {"num_bits": 1 << 16, "num_hashes": 5},
                               finalize="sketch", name="bloom"))["bloom"]
    bf = sketch_from_bytes("bloom", blob)
    assert bf.contains("doc-0") and bf.contains("doc-42")
    assert not bf.contains("doc-definitely-not-there")


_TOK_SQL = ("list_filter(regexp_split_to_array(text, '\\s+'), "
            "x -> x <> '')")


def test_extract_json_str_unescapes_and_keys_are_literal(_ray):
    """Round-4 session-9 review: extracted string values must be JSON-
    DECODED (a\\\"b == a\"b), invalid escapes yield null, and keys with
    regex metacharacters match literally instead of wildcarding/raising."""
    from cardinalityestimation_ray.functions.parse import (
        extract_json_int,
        extract_json_str,
    )

    tbl = pa.table({"j": pa.array([
        '{"s": "plain"}', '{"s": "a\\"b"}', '{"s": "line\\nbreak"}',
        '{"s": "u\\u00e9"}', '{"s": "bad\\x"}', None])})
    out = extract_json_str(tbl, "j", "s")
    assert out["s"].to_pylist() == ["plain", 'a"b', "line\nbreak", "ué",
                                    None, None]
    t2 = pa.table({"j": pa.array(['{"aXb": 7}', '{"a.b": 9}'])})
    assert extract_json_int(t2, "j", "a.b")["a.b"].to_pylist() == [None, 9]
    t3 = pa.table({"j": pa.array(['{"price(": 3}'])})
    assert extract_json_int(t3, "j", "price(")["price("].to_pylist() == [3]


def test_ttr_and_avg_token_len_exact(_ray):
    """Round-4 session-9 review: the TTR denominator must exclude null
    list elements like the numerator does, and avg_token_len must be the
    exact mean token length (not n_chars minus assumed single-space
    separators, which whitespace runs inflate)."""
    from cardinalityestimation_ray.functions.text import (
        distinct_tokens_per_row,
        quality_features,
    )

    tbl = pa.table({"tokens": pa.array(
        [[1, 2, 2, None], [None, None], []],
        type=pa.list_(pa.int32()))})
    out = distinct_tokens_per_row(tbl)
    assert out["n_distinct_tokens"].to_pylist() == [2, 0, 0]
    assert out["type_token_ratio"].to_pylist() == [2 / 3, 1.0, 1.0]

    docs = pa.table({"text": pa.array(["  a   b  ", "ab cd", ""])})
    q = quality_features(docs)
    assert q["avg_token_len"].to_pylist() == [1.0, 2.0, 0.0]


def test_broadcast_semi_join_build_side_contract(_ray):
    """Round-4 VERDICT item #7: the broadcast pattern must REFUSE an
    oversized build side (the silent-OOM-at-100x failure mode) and name
    the bucketed join as the alternative; within the cap it must behave
    identically, and an explicit larger cap is an opt-in override."""
    import ray.data

    from cardinalityestimation_ray.pipelines.membership import (
        broadcast_semi_join,
    )

    ds = ray.data.from_pandas(pd.DataFrame({"k": np.arange(100)}))
    big_build = np.arange(5_000)
    with pytest.raises(ValueError, match="bucketed hash join"):
        broadcast_semi_join(ds, big_build, "k", max_build_keys=1_000)
    # duplicates don't count: 5000 values, 500 distinct -> under the cap
    dup_build = np.repeat(np.arange(500), 10)
    out = broadcast_semi_join(ds, dup_build, "k", max_build_keys=1_000)
    assert out.count() == 100
    # explicit override admits the large build side
    out = broadcast_semi_join(ds, big_build, "k", max_build_keys=10_000)
    assert out.count() == 100


def test_collect_build_keys_streams_and_caps(ray_session):
    """Round-5 review fix: build keys are extracted per-block-unique with
    an incremental cap — the driver never holds build ROWS, and an
    oversized distinct set raises mid-stream."""
    import numpy as np
    import ray.data

    from cardinalityestimation_ray.pipelines.membership import (
        collect_build_keys,
    )

    # duplicates collapse per block AND across blocks; nulls dropped
    ds = ray.data.from_items(
        [{"k": int(i % 700)} for i in range(7000)]
        + [{"k": None}]).repartition(8)
    keys = collect_build_keys(ds, "k", max_build_keys=1_000)
    np.testing.assert_array_equal(np.sort(keys), np.arange(700))

    # 5000 distinct keys > cap=1000: raises with the cap in the message
    big = ray.data.range(5000).map_batches(
        lambda b: {"k": b["id"]}, batch_format="numpy").repartition(8)
    with pytest.raises(ValueError, match="max_build_keys"):
        collect_build_keys(big, "k", max_build_keys=1_000)

    # empty build side -> empty typed array, no crash
    empty = ds.filter(lambda r: False)
    assert len(collect_build_keys(empty, "k")) == 0

    # string keys work (object-dtype fold)
    sds = ray.data.from_items([{"k": f"s{i % 40}"} for i in range(400)])
    skeys = collect_build_keys(sds, "k")
    assert len(skeys) == 40 and "s7" in set(skeys)


def test_collect_build_keys_cap_is_exact(ray_session):
    """The buffered fold collapses only when its buffer doubles, yet the cap
    is exact: 1000 distinct keys (each repeated across 64 blocks) pass at
    cap 1000 and raise at cap 999."""
    import numpy as np
    import ray.data

    from cardinalityestimation_ray.pipelines.membership import (
        collect_build_keys,
    )

    ds = ray.data.range(64_000).map_batches(
        lambda b: {"k": b["id"] % 1000}, batch_format="numpy").repartition(64)
    keys = collect_build_keys(ds, "k", max_build_keys=1000)
    np.testing.assert_array_equal(keys, np.arange(1000))
    with pytest.raises(ValueError, match="max_build_keys=999"):
        collect_build_keys(ds, "k", max_build_keys=999)
