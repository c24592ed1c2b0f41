"""Task-retry resilience: a worker dies mid-scan (os._exit), Ray reschedules
the task, and the merged result is still exact — the sketch UDFs are pure
functions of their block, so retries are safe (SURVEY.md §4 'stragglers /
retries')."""

import os

import numpy as np
import pytest


def test_worker_death_retry_yields_exact_result(ray_session, tmp_path):
    import ray
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        tree_merge_partials,
    )

    marker = str(tmp_path / "crashed_once")
    import pyarrow as pa

    stage = SketchPartials(b=12)

    def flaky(batch: pa.Table) -> pa.Table:
        # first task to see this marker missing kills its worker process —
        # Ray reschedules the task on another worker
        if not os.path.exists(marker):
            try:
                with open(marker, "x") as f:
                    f.write("x")
                os._exit(1)
            except FileExistsError:
                pass
        return stage(batch)

    tokens = pa.array([list(range(i, i + 50)) for i in range(0, 2000, 50)],
                      type=pa.list_(pa.int32()))
    tbl = pa.table({"tokens": tokens})
    ds = ray.data.from_arrow(tbl).repartition(8).map_batches(
        flaky, batch_format="pyarrow")
    sketch, total = tree_merge_partials(ds, "hll")
    assert total == 40 * 50
    single = HyperLogLog(b=12)
    for row in tbl["tokens"]:
        single.add_values(np.asarray(row.as_py(), dtype=np.int32))
    assert np.array_equal(sketch.registers(), single.registers())
    assert os.path.exists(marker)  # the crash really happened


def test_actor_pool_worker_death_retry_yields_exact_result(ray_session,
                                                           tmp_path):
    """Same resilience for the STATEFUL pattern: a map_batches actor-pool
    worker dies mid-scan, Ray restarts the actor and retries its task, and
    the merged result is register-identical — so per-actor state
    (`__init__`-loaded models/indexes) is safe to combine with retries as
    long as `__call__` stays a pure function of its block."""
    import ray
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import pyarrow as pa

    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        tree_merge_partials,
    )

    marker = str(tmp_path / "actor_crashed_once")

    class FlakyStage:
        def __init__(self):
            self.stage = SketchPartials(b=12)

        def __call__(self, batch: pa.Table) -> pa.Table:
            if not os.path.exists(marker):
                try:
                    with open(marker, "x") as f:
                        f.write("x")
                    os._exit(1)
                except FileExistsError:
                    pass
            return self.stage(batch)

    tokens = pa.array([list(range(i, i + 50)) for i in range(0, 2000, 50)],
                      type=pa.list_(pa.int32()))
    tbl = pa.table({"tokens": tokens})
    # the 8 input blocks exist before the pool starts, so its two actors
    # are the scan's only CPU users: a fixed-size pool that takes the last
    # free CPUs of a shared session must not starve a repartition task
    # feeding it
    ds = ray.data.from_arrow(tbl).repartition(8).materialize().map_batches(
        FlakyStage, batch_format="pyarrow", concurrency=2)
    sketch, total = tree_merge_partials(ds, "hll")
    assert total == 40 * 50
    single = HyperLogLog(b=12)
    for row in tbl["tokens"]:
        single.add_values(np.asarray(row.as_py(), dtype=np.int32))
    assert np.array_equal(sketch.registers(), single.registers())
    assert os.path.exists(marker)  # the crash really happened


def test_merge_task_worker_death_retry_yields_identical_registers(ray_session,
                                                                 tmp_path):
    """The combiner tree's merges are plain Ray tasks: the first of its two
    kills its worker (os._exit), Ray retries it on another worker, and the
    merged registers equal both a flat fold and an undisturbed run of the
    tree."""
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import pyarrow as pa

    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        _merge_block_fn,
        combine_partials,
    )

    marker = str(tmp_path / "merge_crashed_once")
    merge = _merge_block_fn("hll")

    def dying_merge(tbl: pa.Table) -> pa.Table:
        if not os.path.exists(marker):
            try:
                with open(marker, "x") as f:
                    f.write("x")
                os._exit(1)
            except FileExistsError:
                pass
        return merge(tbl)

    tokens = pa.array([list(range(i, i + 50)) for i in range(0, 2000, 50)],
                      type=pa.list_(pa.int32()))
    ds = ray.data.from_arrow(pa.table({"tokens": tokens})).repartition(
        8).map_batches(SketchPartials(b=12), batch_format="pyarrow")
    table, n_tasks = combine_partials(ds, dying_merge, fanout=4)
    clean, _ = combine_partials(ds, merge, fanout=4)
    assert os.path.exists(marker)  # the crash really happened
    assert n_tasks == 2
    assert table["n_added"].to_pylist() == [2000]
    got = HyperLogLog.from_bytes(table["sketch"][0].as_py())
    single = HyperLogLog(b=12)
    single.add_values(np.arange(2000, dtype=np.int32))
    assert np.array_equal(got.registers(), single.registers())
    assert table["sketch"][0].as_py() == clean["sketch"][0].as_py()


def test_fused_read_partial_worker_death_retry_yields_exact_result(
        ray_session, tmp_path):
    """Over Parquet files the read fuses into the partial stage, so a worker
    death kills a read and its partial sketch together: the first fused
    task exits (os._exit), Ray retries it, and the merged registers equal a
    flat fold. (The tests above start from ``from_arrow``, which never
    reaches the fused read.)"""
    import re

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        _scan_copy,
        tree_merge_partials,
    )

    data = tmp_path / "data"
    data.mkdir()
    for i in range(4):
        tokens = pa.array([list(range(j, j + 50))
                           for j in range(i * 500, (i + 1) * 500, 50)],
                          type=pa.list_(pa.int32()))
        pq.write_table(pa.table({"tokens": tokens}),
                       str(data / f"part-{i}.parquet"))
    marker = str(tmp_path / "fused_crashed_once")
    stage = SketchPartials(b=12)

    def flaky(batch: pa.Table) -> pa.Table:
        if not os.path.exists(marker):
            try:
                with open(marker, "x") as f:
                    f.write("x")
                os._exit(1)
            except FileExistsError:
                pass
        return stage(batch)

    ds = ray.data.read_parquet(str(data), columns=["tokens"]).map_batches(
        flaky, batch_format="pyarrow")
    sketch, total = tree_merge_partials(ds, "hll")
    assert os.path.exists(marker)  # the crash really happened
    assert total == 2000
    single = HyperLogLog(b=12)
    single.add_values(np.arange(2000, dtype=np.int32))
    assert np.array_equal(sketch.registers(), single.registers())
    # the task that died was a fused read + partial task
    stats = type(ds)(*_scan_copy(ds, int(ray.cluster_resources()["CPU"])))\
        .materialize().stats()
    assert re.findall(r"^Operator \d+ (.+?): ", stats, re.M) == \
        ["ReadParquet->MapBatches(flaky)"]
