"""Driver-contract tests: __ray_entry__.entry() and representative queries
run inside an existing Ray session (as the driver does) — no ray.init calls
anywhere in the import or execution path."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", REPO / "__ray_entry__.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_entry_runs_with_stable_schema(entry_mod):
    df = entry_mod.entry()
    assert len(df) > 0
    assert list(df.columns) == ["source", "distinct_tokens", "total_tokens"]
    assert (df["distinct_tokens"] >= 0).all()
    # __all__ row aggregates the per-source rows' volume
    total_row = df[df["source"] == "__all__"]
    assert len(total_row) == 1
    assert total_row["total_tokens"].iloc[0] == \
        df[df["source"] != "__all__"]["total_tokens"].sum()


def test_queries_and_oracles_registered(entry_mod):
    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    assert len(qs) >= 20
    assert set(oracles) <= set(qs)  # every oracle has a query
    # round 5: FULL oracle coverage — every queries() entry carries a SQL
    # oracle (the driver's no_oracle class is extinct); a new query without
    # one fails here, not in the driver scorecard
    assert set(qs) == set(oracles), sorted(set(qs) - set(oracles))


def test_representative_queries_run_at_sf0001(entry_mod):
    sf = "/root/testdata/sf0.001"
    qs = entry_mod.queries()
    out = qs["hll_distinct_tokens_global"](sf)
    assert out["distinct_tokens"][0] == 31  # exact (direct regime)
    stats = qs["ntok_stats_by_source"](sf)
    assert len(stats) == 20
    hh = qs["heavy_hitter_counts"](sf)
    assert (hh["cnt"].values[:-1] >= hh["cnt"].values[1:]).all()



def test_error_bounds_flag_a_source_missing_from_the_estimate(entry_mod,
                                                              sf_dir,
                                                              monkeypatch):
    """distinct_docs_error_bounds merges estimate and exact counts OUTER:
    a source that only one side reports is a failed row, not a dropped one
    (an inner merge would hide a pipeline that lost a source)."""
    from cardinalityestimation_ray.pipelines import distinct

    real = distinct.distinct_docs_by_source
    dropped = []

    def drop_one_source(ds, **kwargs):
        est = real(ds, **kwargs)
        dropped.append(sorted(est["source"])[0])
        return est[est["source"] != dropped[0]]

    monkeypatch.setattr(distinct, "distinct_docs_by_source", drop_one_source)
    out = entry_mod.queries()["distinct_docs_error_bounds"](sf_dir)
    assert len(out) == 20
    by_source = dict(zip(out["source"], out["within_bound"]))
    assert by_source.pop(dropped[0]) is False
    assert all(by_source.values())

def test_planted_dup_controls_at_sf0001(entry_mod):
    """The planted-duplicate controls must reproduce the residue-class
    arithmetic exactly (500 ids, M=200: classes 0..99 of 3 docs, 100..199
    of 2 -> 400 pairs, 200 clusters) — both recall (identical signatures
    collide in every band) and precision (exact verify kills everything
    else)."""
    sf = "/root/testdata/sf0.001"
    qs = entry_mod.queries()
    expected = {(a, b) for a in range(500) for b in range(a + 1, 500)
                if a % 200 == b % 200}
    mh = qs["minhash_planted_dup_pairs"](sf)
    assert set(zip(mh["id_a"], mh["id_b"])) == expected
    sh = qs["simhash_planted_dup_pairs"](sf)
    assert set(zip(sh["id_a"], sh["id_b"])) == expected
    assert (sh["hamming"] == 0).all()
    cl = qs["minhash_planted_clusters"](sf)
    assert len(cl) == 500
    assert (cl["cluster_id"] == cl["doc_id"] % 200).all()
    assert (cl["keep"] == (cl["doc_id"] < 200)).all()


def test_planted_dup_positive_recall_small_modulus(entry_mod):
    """Mass-duplication regime: M=20 over 500 ids plants 20 residue
    classes of 25 identical docs each -> 6000 pairs, exercising the
    identical-signature collapse path with groups well under
    identical_cap (all-pairs semantics preserved)."""
    from cardinalityestimation_ray.pipelines.dedup import minhash_dedup_pairs

    docs = entry_mod._planted_docs("/root/testdata/sf0.001", M=20)
    pairs = minhash_dedup_pairs(docs, threshold=1.0, verify="char_ngram")
    expected = {(a, b) for a in range(500) for b in range(a + 1, 500)
                if a % 20 == b % 20}
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert got == expected
    assert (pairs["similarity"] == 1.0).all()


def test_bloom_semi_join_filters(ray_session):
    import ray
    import ray.data

    from cardinalityestimation_ray.pipelines.membership import bloom_semi_join
    from cardinalityestimation_ray.sketches.bloom import BloomFilter

    bf = BloomFilter(num_bits=1 << 14, num_hashes=7)
    bf.add_values(np.arange(0, 50, dtype=np.int64))
    ref = ray.put(bf.to_bytes())
    ds = ray.data.from_items([{"k": int(i)} for i in range(100)]).repartition(2)
    kept = bloom_semi_join(ds, ref, "k").to_pandas()
    assert set(kept["k"]) >= set(range(50))  # no false negatives
    anti = bloom_semi_join(
        ray.data.from_items([{"k": int(i)} for i in range(100)]).repartition(2),
        ref, "k", negate=True).to_pandas()
    assert set(anti["k"]).isdisjoint(set(kept["k"]))
    assert len(kept) + len(anti) == 100


def test_partition_helper_trivia(ray_session):
    import ray.data

    from cardinalityestimation_ray.stages.partitioning import (
        chunked,
        create_sketches,
        round_robin,
    )

    sketches = create_sketches(4, "hll", {"b": 12})
    assert len(sketches) == 4 and all(s.b == 12 for s in sketches)
    ds = ray.data.range(100)
    assert round_robin(ds, 5).count() == 100
    assert chunked(ds, 5).count() == 100


def test_chunk_passages_edges(ray_session):
    """Window/stride arithmetic edges: exact-multiple lengths, shorter-
    than-window docs, empty docs, stride > window (gapped sampling)."""
    import pyarrow as pa

    from cardinalityestimation_ray.functions.text import chunk_passages

    t = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": [" ".join(f"t{i}" for i in range(10)),
                 " ".join(f"u{i}" for i in range(6)),    # n == window
                 "short one",
                 ""],
    })
    out = chunk_passages(t, window=6, stride=4).to_pylist()
    by_doc = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append(r)
    # doc1 n=10: passages at 0 and 4 (ceil((10-6)/4)=1 extra)
    assert [r["passage"] for r in by_doc[1]] == [
        "t0 t1 t2 t3 t4 t5", "t4 t5 t6 t7 t8 t9"]
    # doc2 n==window: single full passage
    assert [r["n_tokens"] for r in by_doc[2]] == [6]
    # doc3 shorter than window: whole doc
    assert [r["passage"] for r in by_doc[3]] == ["short one"]
    # doc4 empty: one empty passage keeps the doc represented
    assert [r["n_tokens"] for r in by_doc[4]] == [0]

    # stride > window (gapped sampling): every start is a stride offset
    # INSIDE the doc; no start past the end (review fix: the uncapped
    # passage count produced negative lengths here)
    gap = chunk_passages(t, window=2, stride=9).to_pylist()
    g1 = [r for r in gap if r["doc_id"] == 1]  # n=10: starts 0, 9
    assert [(r["passage_id"], r["n_tokens"], r["passage"]) for r in g1] == \
        [(0, 2, "t0 t1"), (1, 1, "t9")]
    import pytest

    with pytest.raises(ValueError):
        chunk_passages(t, window=0, stride=1)


def test_chunk_passages_property(ray_session):
    """Property vs a straight-line reference: for random docs and any
    (window, stride) — including stride > window — passages enumerate
    exactly the in-doc stride offsets with min(window, n-start) tokens."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import pyarrow as pa

    from cardinalityestimation_ray.functions.text import chunk_passages

    @settings(max_examples=40, deadline=None)
    @given(window=st.integers(1, 12), stride=st.integers(1, 15),
           seed=st.integers(0, 10_000))
    def check(window, stride, seed):
        rng = np.random.default_rng(seed)
        docs = []
        for d in range(5):
            n = int(rng.integers(0, 30))
            docs.append(" ".join(f"w{d}_{i}" for i in range(n)))
        t = pa.table({"doc_id": list(range(5)), "text": docs})
        out = chunk_passages(t, window=window, stride=stride).to_pylist()
        got = {}
        for r in out:
            got.setdefault(r["doc_id"], []).append(r)
        for d, text in enumerate(docs):
            toks = text.split()
            n = len(toks)
            # reference rule: start at stride offsets inside the doc,
            # stopping once the previous passage already reached the end
            starts = [0]
            s = stride
            while s < n and starts[-1] + window < n:
                starts.append(s)
                s += stride
            rows = got[d]
            assert len(rows) == len(starts), (d, n, window, stride)
            for pid, (row, s) in enumerate(zip(rows, starts)):
                want = toks[s:s + window]
                assert row["passage_id"] == pid
                assert row["n_tokens"] == len(want)
                assert row["passage"] == " ".join(want)

    check()


def test_exact_regime_guard_rejects_oversized_corpus(entry_mod, tmp_path):
    """Round-5 review fix: the exact-regime oracle queries must fail with
    an actionable message — not an opaque value mismatch — when the corpus
    outgrows the regime bound."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    pq.write_table(
        pa.table({"doc_id": np.arange(30_000, dtype=np.int64)}),
        tmp_path / "documents.parquet")
    with pytest.raises(ValueError, match="exact-regime"):
        entry_mod._assert_exact_regime(str(tmp_path), 16_384, "kll test")
    # under the bound: no-op
    entry_mod._assert_exact_regime(str(tmp_path), 30_000, "ok")


@pytest.mark.parametrize("query", ["_q_minhash_dedup_pairs",
                                   "_q_simhash_dedup_pairs"])
def test_dedup_pair_guards_check_real_group_size(entry_mod, tmp_path, query):
    """The all-pairs dedup oracles hold while every ``doc_id % 150`` group
    stays within identical_cap=64. 300 docs are far under any doc-count
    bound, but 100 of them share residue 7: the guard must count the real
    classes and name the largest one."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    ids = np.concatenate([np.arange(200), 7 + 150 * np.arange(2, 102)])
    pq.write_table(pa.table({"doc_id": ids.astype(np.int64)}),
                   tmp_path / "documents.parquet")
    with pytest.raises(ValueError,
                       match=r"class 7 of .* holds 102 docs"):
        getattr(entry_mod, query)(str(tmp_path))


def test_sources_compile_without_escape_warnings():
    """Every source file compiles with SyntaxWarning/DeprecationWarning as
    errors, so an invalid escape such as '\\d' in a non-raw string (which
    newer Pythons reject) cannot slip into the SQL oracles or the package."""
    import warnings
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    files = [root / "__ray_entry__.py",
             *sorted((root / "cardinalityestimation_ray").rglob("*.py"))]
    assert len(files) > 10
    for path in files:
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            warnings.simplefilter("error", DeprecationWarning)
            compile(path.read_text(), str(path), "exec")
