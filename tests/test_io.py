"""Sources & sinks: format dispatch, partitioned writes with manifests,
sketch-result round trips (mergeable across runs)."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray_session


def test_read_formats(tmp_path, _ray):
    import ray.data

    from cardinalityestimation_ray.sources.io import read_table

    df = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    pq_path = str(tmp_path / "t.parquet")
    csv_path = str(tmp_path / "t.csv")
    json_path = str(tmp_path / "t.json")
    df.to_parquet(pq_path)
    df.to_csv(csv_path, index=False)
    df.to_json(json_path, orient="records", lines=True)
    for path in (pq_path, csv_path, json_path):
        got = read_table(path, columns=["a"]).to_pandas()
        assert sorted(got["a"].tolist()) == [1, 2, 3], path
        assert list(got.columns) == ["a"]


def test_write_partitioned_manifest(tmp_path, _ray):
    import ray.data

    from cardinalityestimation_ray.sources.io import (
        is_complete_output,
        read_table,
        write_partitioned,
    )

    ds = ray.data.range(10_000).repartition(4)
    out = str(tmp_path / "out")
    assert not is_complete_output(out)
    manifest = write_partitioned(ds, out, min_rows_per_file=2000)
    assert manifest["n_files"] >= 1
    assert is_complete_output(out)
    back = read_table(out)
    assert back.count() == 10_000


def test_write_partitioned_rewrite_cleans_crashed_attempt(tmp_path, _ray):
    """A rerun over a manifest-less (crashed) output directory must sweep
    the stale part files first — Ray names part files uniquely per run, so
    without the sweep the crashed attempt's rows survive alongside the
    fresh ones and the rewritten output silently doubles."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from cardinalityestimation_ray.sources.io import (
        is_complete_output,
        read_table,
        write_partitioned,
    )

    out = str(tmp_path / "out")
    os.makedirs(out)
    # simulate a crashed earlier attempt: orphan part file, no manifest
    import pyarrow as pa

    pq.write_table(pa.table({"id": pa.array(range(500), type=pa.int64())}),
                   os.path.join(out, "crashed_attempt_part.parquet"))
    assert not is_complete_output(out)

    ds = ray.data.range(10_000).repartition(4)
    manifest = write_partitioned(ds, out, min_rows_per_file=2000)
    assert is_complete_output(out)
    assert "crashed_attempt_part.parquet" not in set(manifest["files"])
    assert read_table(out).count() == 10_000  # not 10_500

    # overwrite of a COMPLETE directory replaces it (never appends): the
    # stale manifest is dropped first so a crash mid-rewrite reads as
    # incomplete, and the old rows are gone from the rewritten output
    manifest = write_partitioned(ds.limit(1_000), out,
                                 min_rows_per_file=2000)
    assert read_table(out).count() == 1_000


def test_sketch_results_roundtrip_and_incremental_merge(tmp_path):
    import pyarrow.parquet as pq

    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.sources.io import (
        read_sketch_results,
        write_sketch_results,
    )

    day1 = {}
    for src in ("web", "books"):
        sk = HyperLogLog(b=12)
        sk.add_values(np.arange(1000, dtype=np.int64))
        day1[src] = (sk, 1000)
    path = str(tmp_path / "results" / "day1.parquet")
    write_sketch_results(day1, path, kind="hll", key_name="source")
    loaded = read_sketch_results(path, key_name="source")
    assert set(loaded) == {"web", "books"}
    assert loaded["web"][0] == day1["web"][0]
    # the table stores each sketch's hash (the HLL v3 blob has none), so a
    # reloaded sketch keeps it; merging it with another hash's sketch raises
    mm = HyperLogLog(b=12, hash_name="murmur3")
    mm.add_values(np.arange(100, dtype=np.int64))
    mm_path = str(tmp_path / "results" / "murmur3.parquet")
    write_sketch_results({"web": (mm, 100)}, mm_path, kind="hll",
                         key_name="source")
    back = read_sketch_results(mm_path, key_name="source")["web"][0]
    assert back == mm
    fresh = HyperLogLog(b=12)
    fresh.add_values(np.arange(100, dtype=np.int64))
    with pytest.raises(ValueError, match="different hash"):
        back.merge(fresh)
    # a table without the hash column decodes under the default rule
    legacy = pq.read_table(mm_path).drop_columns(["hash"])
    pq.write_table(legacy, mm_path)
    assert read_sketch_results(mm_path, key_name="source")["web"][0] \
        .hash_name == "fnv1a_mix"
    # incremental: merge yesterday's sketch with today's new data
    today = HyperLogLog(b=12)
    today.add_values(np.arange(500, 1500, dtype=np.int64))
    merged = loaded["web"][0].merge(today)
    assert abs(merged.estimate() / 1500 - 1) < 0.05


def test_incremental_update_equals_single_pass(tmp_path, _ray):
    """Two incremental updates over day-1 and day-2 slices must equal one
    pass over the union (register-level, since merge is exact union)."""
    from cardinalityestimation_ray.pipelines.incremental import (
        incremental_distinct_update,
    )
    from cardinalityestimation_ray.sources.corpus import (
        synthetic_corpus_dataset,
    )
    from cardinalityestimation_ray.sources.io import read_sketch_results
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        tree_merge_partials,
    )

    def day(lo, hi):
        import ray.data

        from cardinalityestimation_ray.sources.corpus import (
            synthesize_corpus_batch,
        )

        return ray.data.from_arrow(
            synthesize_corpus_batch(np.arange(lo, hi))).repartition(3)

    path = str(tmp_path / "results.parquet")
    incremental_distinct_update(path, day(0, 2000))
    df2 = incremental_distinct_update(path, day(2000, 4000))

    single = tree_merge_partials(
        day(0, 4000).map_batches(SketchPartials(b=14, key_column="source"),
                                 batch_format="pyarrow"),
        "hll", key_column="source")
    stored = read_sketch_results(path, key_name="source")
    assert set(stored) == set(single)
    for k in single:
        assert stored[k][0] == single[k][0], k
        assert stored[k][1] == single[k][1]
    assert df2["total_tokens"].sum() == sum(v[1] for v in single.values())


def test_write_partitioned_by_key(tmp_path, _ray):
    import os

    import ray.data

    from cardinalityestimation_ray.sources.corpus import synthesize_corpus_batch
    from cardinalityestimation_ray.sources.io import (
        read_table,
        write_partitioned,
    )

    ds = ray.data.from_arrow(synthesize_corpus_batch(np.arange(2000)))
    out = str(tmp_path / "by_source")
    manifest = write_partitioned(ds, out, partition_cols=["source"])
    assert manifest["n_files"] >= 1
    subdirs = [d for d in os.listdir(out) if d.startswith("source=")]
    assert len(subdirs) >= 5  # hive-style per-key directories
    back = read_table(out)
    assert back.count() == 2000


def test_tokenizer_whitespace_parity_with_re2():
    """ascii_split_whitespace must equal RE2 \\s+ splitting (the DuckDB
    oracle's rule) on every ASCII whitespace class and mixed runs."""
    import pyarrow as pa
    import pyarrow.compute as pc

    # every RE2 \s class member (\x0b vertical tab is the one divergence:
    # ascii_split treats it as whitespace, RE2 \s does not — absent from
    # the corpus, documented in tokenize_documents_batch)
    texts = pa.array([
        "a b", "a\tb", "a\nb", "a\rb", "a\x0cb",
        " lead", "trail ", "a  \t\n b", "", "   ", "one",
        "multi word doc with\ttabs\nand newlines\r\n",
    ])
    re2 = pc.split_pattern_regex(texts, r"\s+")
    fast = pc.ascii_split_whitespace(texts)

    def stream(lists):
        flat = pc.list_flatten(lists)
        return flat.filter(pc.not_equal(flat, pa.scalar(""))).to_pylist()

    assert stream(re2) == stream(fast)
