"""Empty-input robustness (round-4).

A 100 TB job can legitimately see an empty partition selection (a day
with no data, a filter that drops everything, a fresh incremental root).
Ray loses the schema on empty datasets — ``to_pandas()`` returns a
COLUMN-LESS frame and ``ds.schema()`` can be None — which crashed 45 of
the 91 queries before the round-4 empty-input pass. One function owns the
typed-result contract: ``sources.io.typed_frame(result, schema)`` passes a
non-empty frame through and turns an empty one (``len(df) == 0``, column-
less or not) or None into the typed empty frame of ``schema``. Every
pipeline's driver-side return, every per-group empty inside a
``map_groups`` UDF and every query wrapper goes through it; the join
library short-circuits unrecoverable-schema inputs.

The standalone probe runs ALL queries (`scripts/check_oracles.py
--sf /tmp/sf_empty`, 79/79 oracle-eligible matched at round 4); this
module pins the mechanism classes cheaply: one representative query per
fix class through the dtype-sensitive oracle compare, plus the library
empty contracts.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import duckdb
import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    import pyarrow.parquet as pq

    out = tmp_path_factory.mktemp("sf_empty")
    for name in TABLES:
        t = pq.read_table(f"/root/testdata/sf0.001/{name}.parquet")
        pq.write_table(t.slice(0, 0), out / f"{name}.parquet")
    return str(out)


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location(
        "check_oracles_empty", REPO / "scripts/check_oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def oracle_con(empty_dir, harness):
    con = duckdb.connect()
    for t in harness.TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{empty_dir}/{t}.parquet')")
    return con


#: one per fix class:
#: - doc_length_stats: column-less to_pandas -> typed empty (typed_frame)
#: - hll_distinct_docs_by_source: keyed result frame float64 -> int64 empty
#: - asof_last_click: ds.schema() is None inside the join library
#: - top_orders_per_customer: map_groups output loses schema
#: - ann_topk: query-vector construction from an empty take()
#: - cms_error_bounds: driver-side iloc[0] on an empty probe merge
#: - ntok_quantiles_by_source: sketch-tree keyed frame typed empty
#: - chunk_passages: flat-map expansion of zero docs
#: and one per pipeline module whose result goes through typed_frame
#: (frequency, tfidf, association, sequences, distinct overlap, windows,
#: dedup, similarity, stats, lm_score, embeddings, exact, sampling,
#: packing, incremental)
EMPTY_QUERIES = [
    "doc_length_stats",
    "hll_distinct_docs_by_source",
    "asof_last_click",
    "top_orders_per_customer",
    "ann_topk",
    "cms_error_bounds",
    "ntok_quantiles_by_source",
    "chunk_passages",
    "token_topk_counts",
    "top_tfidf_terms",
    "pmi_top_pairs",
    "event_transition_counts",
    "source_overlap_matrix",
    "tumbling_event_windows",
    "session_window_stats",
    "simhash_dedup_pairs",
    "ngram_jaccard_pairs",
    "ntok_stats_by_source",
    "doc_unigram_nll",
    "embedding_norm_stats",
    "exact_distinct_users_by_type",
    "stratified_sample_by_source",
    "pack_sequences_by_source",
    "incremental_distinct_docs",
]


@pytest.mark.parametrize("name", EMPTY_QUERIES)
def test_empty_input_oracle_parity(ray_session, empty_dir, harness,
                                   oracle_con, name):
    import __ray_entry__ as entry

    mine = harness._canon(harness._to_pandas(
        entry.queries()[name](empty_dir)))
    ref = harness._canon(oracle_con.execute(
        entry.oracle_sql()[name]).fetchdf())
    ok, why = harness._values_match(mine, ref)
    assert ok, f"{name}: {why}"


def test_joins_short_circuit_empty_schema(ray_session, empty_dir):
    """An input whose schema Ray lost (empty upstream) must yield an empty
    join result, not AttributeError on schema().names."""
    import ray.data

    from cardinalityestimation_ray.pipelines.joins import (
        asof_join,
        bucketed_inner_join,
    )

    empty = ray.data.read_parquet(f"{empty_dir}/events.parquet",
                                  columns=["event_id", "ts", "user_id"])
    # force a derived (schema-less when empty) dataset
    derived = empty.map_batches(lambda b: b, batch_format="pyarrow")
    out = bucketed_inner_join(derived, derived, "user_id").to_pandas()
    assert len(out) == 0
    out2 = asof_join(derived, derived, by="user_id", on="ts",
                     right_columns=["ts"]).to_pandas()
    assert len(out2) == 0


def test_asof_left_join_empty_right_keeps_left(ray_session):
    """how='left' against an empty right side keeps every left row with a
    null right column (typed null — element types are unrecoverable)."""
    import pandas as pd
    import ray.data

    from cardinalityestimation_ray.pipelines.joins import asof_join

    left = ray.data.from_items([
        {"user_id": 1, "ts": pd.Timestamp("2024-01-01"), "event_id": 10},
        {"user_id": 2, "ts": pd.Timestamp("2024-01-02"), "event_id": 20},
    ])
    right = (ray.data.from_items([{"user_id": 1,
                                   "ts": pd.Timestamp("2024-01-01")}])
             .filter(lambda r: False))
    out = asof_join(left, right, by="user_id", on="ts",
                    right_columns=["ts"], how="left").to_pandas()
    assert sorted(out["event_id"]) == [10, 20]
    assert out["ts_r"].isna().all()


@pytest.mark.parametrize("pipeline", ["tokens_by_source", "column_by_key"])
def test_keyed_result_frames_typed_when_empty(ray_session, empty_dir,
                                              pipeline):
    from cardinalityestimation_ray.pipelines.distinct import (
        distinct_column_by_key,
        distinct_tokens_by_source,
    )
    from cardinalityestimation_ray.sources.corpus import read_tokens

    if pipeline == "tokens_by_source":
        df = distinct_tokens_by_source(read_tokens(empty_dir), b=14)
        cols = ["source", "distinct_tokens", "total_tokens"]
    else:
        df = distinct_column_by_key(read_tokens(empty_dir), "doc_id",
                                    "source", b=14,
                                    estimate_name="distinct_docs",
                                    count_name="n_docs")
        cols = ["source", "distinct_docs", "n_docs"]
    assert len(df) == 0
    assert sorted(df.columns) == sorted(cols)
    assert str(df[cols[1]].dtype) == "int64"
    assert str(df[cols[2]].dtype) == "int64"


def test_typed_frame_contract():
    """Non-empty frames pass through untouched; empty (column-less or
    not) and None become the typed empty frame of the schema."""
    import pandas as pd

    from cardinalityestimation_ray.sources.io import typed_frame

    schema = {"key": "object", "n": "int64", "x": "float64"}
    full = pd.DataFrame({"key": ["a"], "n": [1], "x": [0.5]})
    assert typed_frame(full, schema) is full
    for empty in (None, pd.DataFrame(), full.iloc[:0].astype(str)):
        out = typed_frame(empty, schema)
        assert len(out) == 0
        assert list(out.columns) == list(schema)
        assert {c: str(t) for c, t in out.dtypes.items()} == schema
