"""Windowed aggregates vs DuckDB window SQL; shared-accumulator actor parity
with a single private sketch (the ConcurrentCardinalityEstimator test
family translated: concurrent pushes in any order == sequential result)."""

import numpy as np
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray_session


def test_tumbling_windows_match_oracle(sf_dir):
    import duckdb
    import ray.data

    from cardinalityestimation_ray.pipelines.windows import tumbling_window_agg

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "value"])
    got = tumbling_window_agg(ev, window_minutes=30)
    want = duckdb.sql(f"""
        SELECT event_type, time_bucket(INTERVAL '30 minutes', ts) AS w,
               count(*) AS n, sum(value) AS s
        FROM '{sf_dir}/events.parquet' GROUP BY 1, 2 ORDER BY 1, 2
    """).df()
    assert got["n_events"].astype(int).tolist() == want["n"].astype(int).tolist()
    assert np.allclose(got["value_sum"], want["s"])


def test_session_windows_match_oracle(sf_dir):
    import duckdb
    import ray.data

    from cardinalityestimation_ray.pipelines.windows import session_window_stats

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])
    got = session_window_stats(ev, gap_minutes=60)
    want = duckdb.sql(f"""
        WITH flagged AS (
          SELECT user_id, ts,
            CASE WHEN ts - lag(ts) OVER w > INTERVAL '60 minutes'
                 OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
          FROM '{sf_dir}/events.parquet'
          WINDOW w AS (PARTITION BY user_id ORDER BY ts))
        SELECT user_id, CAST(sum(new_s) AS BIGINT) AS n_sessions
        FROM flagged GROUP BY user_id ORDER BY user_id
    """).df()
    assert got["n_sessions"].astype(int).tolist() == \
        want["n_sessions"].astype(int).tolist()


def test_shared_sketch_actor_parity(_ray):
    import ray

    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.stages.shared_actor import (
        create_shared_sketch,
    )

    actor = create_shared_sketch("hll", {"b": 12})
    vals = np.arange(30_000, dtype=np.int64)
    chunks = np.array_split(vals, 7)
    ray.get([actor.add_values.remote(c) for c in chunks])
    single = HyperLogLog(b=12)
    single.add_values(vals)
    assert ray.get(actor.estimate.remote()) == single.estimate()
    assert ray.get(actor.count_additions.remote()) == 30_000
    blob = ray.get(actor.to_bytes.remote())
    assert np.array_equal(HyperLogLog.from_bytes(blob).registers(),
                          single.registers())


def test_shared_sketch_actor_merge_blob_and_reset(_ray):
    import ray

    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.stages.shared_actor import (
        create_shared_sketch,
    )

    actor = create_shared_sketch("hll", {"b": 12})
    side = HyperLogLog(b=12)
    side.add_values(np.arange(500, dtype=np.int64))
    ray.get(actor.merge_blob.remote(side.to_bytes()))
    assert ray.get(actor.estimate.remote()) == side.estimate()
    ray.get(actor.reset.remote())
    assert ray.get(actor.estimate.remote()) == 0


def test_shared_sketch_actor_merge_blob_custom_hash(_ray):
    """A custom-hash accumulator must accept partials built under the SAME
    hash: the HLL v3 blob carries no hash name, so merge_blob has to thread
    the actor's own hash label into the rebuild (a bare from_bytes labeled
    the push with the default hash and merge() rejected it)."""
    import ray

    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.stages.shared_actor import (
        create_shared_sketch,
    )

    actor = create_shared_sketch("hll", {"b": 12, "hash_name": "murmur3"})
    side = HyperLogLog(b=12, hash_name="murmur3")
    side.add_values(np.arange(500, dtype=np.int64))
    ray.get(actor.merge_blob.remote(side.to_bytes()))
    assert ray.get(actor.estimate.remote()) == side.estimate()

    # a kind whose wire format EMBEDS the hash must still reject a real
    # mismatch (theta THE2): pushing a default-hash blob into a murmur3
    # accumulator raises instead of silently merging wrong hash spaces
    from cardinalityestimation_ray.sketches.theta import ThetaSketch

    theta_actor = create_shared_sketch("theta", {"k": 256,
                                                 "hash_name": "murmur3"})
    foreign = ThetaSketch(k=256)  # default hash
    foreign.add_values(np.arange(100, dtype=np.int64))
    with pytest.raises(Exception, match="hash"):
        ray.get(theta_actor.merge_blob.remote(foreign.to_bytes()))


def test_shared_actor_other_kinds(_ray):
    import ray

    from cardinalityestimation_ray.stages.shared_actor import (
        create_shared_sketch,
    )

    cms = create_shared_sketch("countmin", {"depth": 3, "width": 1 << 10})
    ray.get(cms.add_values.remote(np.asarray([5, 5, 7], dtype=np.int64)))
    blob = ray.get(cms.to_bytes.remote())
    from cardinalityestimation_ray.sketches.countmin import CountMinSketch

    back = CountMinSketch.from_bytes(blob)
    assert back.total == 3


def test_sliding_windows_match_pandas(sf_dir):
    import pandas as pd
    import ray.data

    from cardinalityestimation_ray.pipelines.windows import sliding_window_agg

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "value"])
    got = sliding_window_agg(ev, window_minutes=60, slide_minutes=20)

    raw = pd.read_parquet(f"{sf_dir}/events.parquet",
                          columns=["event_type", "ts", "value"])
    slide = np.int64(20 * 60 * 1_000_000)
    k = 3
    micros = raw["ts"].astype("int64").to_numpy()
    base = micros // slide * slide
    rows = []
    for i in range(k):
        rows.append(pd.DataFrame({
            "event_type": raw["event_type"],
            "window_start": base - i * slide,
            "value": raw["value"],
        }))
    want = pd.concat(rows).groupby(["event_type", "window_start"]).agg(
        value_sum=("value", "sum"), n_events=("value", "size")).reset_index()
    want["window_start"] = want["window_start"].astype("datetime64[us]")
    want = want.sort_values(["event_type", "window_start"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert got["n_events"].astype(int).tolist() == want["n_events"].tolist()
    assert np.allclose(got["value_sum"], want["value_sum"])

    with pytest.raises(ValueError):
        sliding_window_agg(ev, window_minutes=50, slide_minutes=20)


def test_live_progress_actor_during_scan(_ray, sf_dir):
    """ConcurrentCardinalityEstimator's live-count use case end-to-end:
    partial blobs stream to a named SharedSketch during the scan; the final
    polled estimate equals the pipeline's own result, for a global scan
    and for a keyed one."""
    import ray

    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.sources.corpus import read_tokens
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        tree_merge_partials,
    )
    from cardinalityestimation_ray.stages.shared_actor import (
        create_shared_sketch,
    )

    actor = create_shared_sketch("hll", {"b": 12}, name="scan-progress")
    partials = read_tokens(sf_dir).map_batches(
        SketchPartials(b=12, progress_actor="scan-progress"),
        batch_format="pyarrow")
    sketch, total = tree_merge_partials(partials, "hll")
    # fire-and-forget sends: poll until the actor has absorbed every partial
    import time

    deadline = time.time() + 30
    while time.time() < deadline:
        if ray.get(actor.count_additions.remote()) == total:
            break
        time.sleep(0.2)
    assert ray.get(actor.count_additions.remote()) == total
    assert ray.get(actor.estimate.remote()) == sketch.estimate()

    # keyed scan: every per-key blob is pushed too, so the polled sketch is
    # the union of the merged per-key sketches
    ray.get(actor.reset.remote())
    partials = read_tokens(sf_dir).map_batches(
        SketchPartials(key_column="source", b=12,
                       progress_actor="scan-progress"),
        batch_format="pyarrow")
    merged = tree_merge_partials(partials, "hll", key_column="source")
    union = HyperLogLog(b=12)
    for sk, _ in merged.values():
        union.merge(sk)
    total = sum(n for _, n in merged.values())
    deadline = time.time() + 30
    while time.time() < deadline:
        if ray.get(actor.count_additions.remote()) == total:
            break
        time.sleep(0.2)
    assert ray.get(actor.count_additions.remote()) == total > 0
    polled = HyperLogLog.from_bytes(ray.get(actor.to_bytes.remote()))
    assert ray.get(actor.estimate.remote()) == union.estimate()
    assert np.array_equal(polled.registers(), union.registers())
    ray.kill(actor)


def test_windows_empty_input(_ray):
    """Empty event streams produce typed empty frames, not KeyError
    (round-2 empty-input sweep)."""
    import pyarrow as pa
    import ray.data

    from cardinalityestimation_ray.pipelines.windows import (
        session_window_stats,
        sliding_window_agg,
        tumbling_window_agg,
    )

    def empty():
        return ray.data.from_arrow(pa.table({
            "event_type": pa.array([], type=pa.string()),
            "user_id": pa.array([], type=pa.int64()),
            "ts": pa.array([], type=pa.timestamp("us")),
            "value": pa.array([], type=pa.float64()),
        }))

    t = tumbling_window_agg(empty())
    assert len(t) == 0 and "n_events" in t.columns
    sl = sliding_window_agg(empty(), window_minutes=60, slide_minutes=30)
    assert len(sl) == 0 and "window_start" in sl.columns
    se = session_window_stats(empty())
    assert len(se) == 0 and "n_sessions" in se.columns
