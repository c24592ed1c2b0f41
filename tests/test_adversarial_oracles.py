"""Adversarial-data oracle parity (round-4).

The driver's testdata is clean — no nulls, ascii text, no duplicate texts —
so engine-vs-oracle agreement on nulls/empty/unicode was asserted by
convention but never executed until the round-4 adversarial sweep
(`scripts/gen_adversarial_testdata.py`), which surfaced 26 divergences:
Ray's sort-based groupby crashing on null string keys, SQL keeping NULL
groups the engine drops, NULLS-LAST ordering in top-k, the pandas
nullable-int promotion silently breaking the broadcast join's byte-image
hashing, and DuckDB json_extract raising on malformed JSON.

This module regenerates the adversarial tables into a tmp dir and runs one
representative query per fixed class through the same dtype-sensitive
compare the standalone sweep uses. Full-surface adversarial runs stay in
the script (`--sf /tmp/sf_adv`); this pins the classes.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pytest

# adv_dir / harness fixtures come from tests/conftest.py and call the
# generator script's generate() directly — ONE copy of the recipe


@pytest.fixture(scope="module")
def oracle_con(adv_dir, harness):
    con = duckdb.connect()
    for t in harness.TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{adv_dir}/{t}.parquet')")
    return con


#: one query per fixed divergence class (round-4 adversarial sweep):
#: - event_counts_by_type: null string group key (Ray sort-groupby crash)
#: - lineitem_qty_stats: null key + null measure in min/max
#: - hll_distinct_lang_by_source: null VALUE under a keyed sketch (count(lang))
#: - tumbling_event_windows: null ts / null key window assignment
#: - top_orders_per_customer: NULL value must rank LAST under ORDER BY DESC
#: - bloom_anti_join_customers: nullable-int build side (float64 promotion)
#:   must still match integer probes
#: - doc_chars_cume_dist: null value excluded from the rank table
#: - chunk_passages: empty doc -> '' passage (not NULL) on both sides
#: - event_props_sum: malformed / fractional / >int64 JSON props -> NULL
QUERIES = [
    "event_counts_by_type",
    "lineitem_qty_stats",
    "hll_distinct_lang_by_source",
    "tumbling_event_windows",
    "top_orders_per_customer",
    "bloom_anti_join_customers",
    "doc_chars_cume_dist",
    "chunk_passages",
    "event_props_sum",
]


@pytest.mark.parametrize("name", QUERIES)
def test_adversarial_oracle_parity(ray_session, adv_dir, harness, oracle_con, name):
    import __ray_entry__ as entry

    mine = harness._canon(harness._to_pandas(entry.queries()[name](adv_dir)))
    ref = harness._canon(oracle_con.execute(entry.oracle_sql()[name]).fetchdf())
    ok, why = harness._values_match(mine, ref)
    assert ok, f"{name}: {why}"
    assert len(mine) > 0


def test_generic_partials_keep_all_null_value_groups(ray_session):
    """A key whose values are ALL null still emits an (empty-sketch, 0)
    row — SQL keeps the group with COUNT(DISTINCT v) = 0 (round-4 fix:
    the keyed partial stage silently dropped the group)."""
    import pyarrow as pa

    from cardinalityestimation_ray.sketches import sketch_from_bytes
    from cardinalityestimation_ray.stages.sketch_stages import SketchPartials

    batch = pa.table({
        "k": pa.array(["a", "a", "ghost", None]),
        "v": pa.array([1, 2, None, 5], type=pa.int64()),
    })
    out = SketchPartials("theta", "v", key_column="k", k=64)(batch)
    rows = {out["k"][i].as_py(): (out["sketch"][i].as_py(),
                                  out["n_added"][i].as_py())
            for i in range(len(out))}
    assert set(rows) == {"a", "ghost"}  # null key dropped, ghost kept
    assert rows["ghost"][1] == 0
    assert sketch_from_bytes("theta", rows["ghost"][0]).estimate() == 0
    assert sketch_from_bytes("theta", rows["a"][0]).estimate() == 2


def test_broadcast_semi_join_nullable_int_build(ray_session):
    """Build keys arriving as float64 (pandas nullable-int promotion) must
    match an int64 probe column — the byte-image hash used to miss every
    probe, silently turning the anti-join into keep-everything."""
    import ray

    from cardinalityestimation_ray.pipelines.membership import (
        broadcast_semi_join,
    )

    ds = ray.data.from_items([{"id": i} for i in range(20)])
    build = np.array([2.0, 5.0, np.nan])  # promoted int column
    semi = broadcast_semi_join(ds, build, "id").to_pandas()
    assert sorted(semi["id"]) == [2, 5]
    anti = broadcast_semi_join(ds, build, "id", negate=True).to_pandas()
    assert len(anti) == 18
    # fractional probes can never match integer build keys
    dsf = ray.data.from_items([{"id": float(x)} for x in
                               [2.0, 2.5, 5.0, 7.0]])
    semif = broadcast_semi_join(dsf, np.array([2, 5]), "id").to_pandas()
    assert sorted(semif["id"]) == [2.0, 5.0]


def test_topk_null_values_rank_last(ray_session):
    """ORDER BY v DESC parity: NULL values sort after every real value."""
    import ray

    from cardinalityestimation_ray.pipelines.ranking import topk_per_group

    rows = [{"g": "a", "v": float(i), "id": i} for i in range(5)]
    rows.append({"g": "a", "v": None, "id": 99})
    ds = ray.data.from_items(rows)
    got = topk_per_group(ds, "g", "v", 3, tie_col="id").to_pandas()
    assert sorted(got["id"]) == [2, 3, 4]  # 99 (null v) not in top-3
    # ...but a small group still surfaces its null-value rows (SQL keeps
    # them at the end of the window, inside k when the group is short)
    got2 = topk_per_group(ds, "g", "v", 6, tie_col="id").to_pandas()
    assert sorted(got2["id"]) == [0, 1, 2, 3, 4, 99]
