"""The combiner tree must actually REDUCE: exactly one merged row per key
reaches the driver, whatever the number of partial blocks, and the registers
equal a flat fold. Its merges are plain Ray tasks over the partial blocks'
object refs, so Ray Data's operator fusion cannot reach them — fused
``map_batches`` merge levels once saw only their own block's row and let
every partial row through to the driver (found via `bench.py --stats` in
round 4: 64 read blocks -> 64 rows reaching the driver).

The other fusion here is wanted: a Parquet read fuses into the partial stage
(one task per read task), on a scan copy that leaves the caller's plan
alone."""

import os
import re
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest


def _partials(n_blocks: int, tokens_per_block: int = 40,
              key_column: str | None = None):
    import ray.data

    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
    )

    tokens = pa.array(
        [list(range(i * tokens_per_block, (i + 1) * tokens_per_block))
         for i in range(n_blocks)], type=pa.list_(pa.int32()))
    cols = {"tokens": tokens}
    if key_column is not None:
        cols[key_column] = pa.array(
            ["a" if i % 2 else "b" for i in range(n_blocks)])
    return (ray.data.from_arrow(pa.table(cols))
            .repartition(n_blocks)
            .map_batches(SketchPartials(b=12, key_column=key_column),
                         batch_format="pyarrow"))


def _write_parquet_files(directory, n_files: int, rows: int = 500,
                         per_row: int = 20) -> int:
    """``n_files`` Parquet files of disjoint list<int32> token rows; returns
    the token count (tokens are 0..count-1)."""
    import pyarrow.parquet as pq

    for i in range(n_files):
        base = i * rows * per_row
        tokens = pa.array(
            [list(range(base + r * per_row, base + (r + 1) * per_row))
             for r in range(rows)], type=pa.list_(pa.int32()))
        pq.write_table(pa.table({"tokens": tokens}),
                       os.path.join(directory, f"part-{i}.parquet"))
    return n_files * rows * per_row


def _operator_names(stats: str) -> list[str]:
    """The executed operators named in a Dataset's ``stats()`` text."""
    return re.findall(r"^Operator \d+ (.+?): ", stats, re.M)


def _executed_scan(ds):
    """(operator names, partial blocks) of the scan copy that
    combine_partials executes for ``ds``, from Ray's stats of one run."""
    from cardinalityestimation_ray.stages.sketch_stages import _scan_copy

    scan = _scan_copy(ds)
    n_blocks = sum(len(bundle.blocks)
                   for bundle in scan.iter_internal_ref_bundles())
    return _operator_names(scan.stats()), n_blocks


def _parquet_partials(directory, **read_args):
    import ray.data

    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
    )

    return ray.data.read_parquet(str(directory), columns=["tokens"],
                                 **read_args).map_batches(
        SketchPartials(b=12), batch_format="pyarrow")


def _assert_flat_fold(ds, n_tokens: int):
    from cardinalityestimation_ray.stages.sketch_stages import (
        tree_merge_partials,
    )

    sketch, total = tree_merge_partials(ds, "hll")
    assert total == n_tokens
    assert np.array_equal(sketch.registers(), _flat(n_tokens).registers())


def _flat(n_tokens: int):
    from cardinalityestimation_ray.sketches.hll import HyperLogLog

    single = HyperLogLog(b=12)
    single.add_values(np.arange(n_tokens, dtype=np.int32))
    return single


def test_combiner_tree_sends_one_row_to_driver(ray_session):
    """128 one-row partial blocks at fanout 8 -> exactly one row reaches the
    driver. The first task takes 8 refs; each later one takes its
    predecessor's output plus 7 new refs (17 tasks reach ref 127); the last
    ref and the running merge go to one final task: 19 tasks."""
    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.stages.sketch_stages import (
        _merge_block_fn,
        combine_partials,
    )

    table, n_tasks = combine_partials(_partials(128), _merge_block_fn("hll"),
                                      fanout=8)
    assert table.num_rows == 1, (
        f"{table.num_rows} partial rows reached the driver")
    assert n_tasks == 19
    assert table["n_added"][0].as_py() == 128 * 40
    merged = HyperLogLog.from_bytes(table["sketch"][0].as_py())
    assert np.array_equal(merged.registers(), _flat(128 * 40).registers())


def test_keyed_combiner_tree_sends_one_row_per_key(ray_session):
    """Keyed: 128 blocks alternating between 2 keys -> exactly one row per
    key reaches the driver, with each key's exact token count."""
    from cardinalityestimation_ray.stages.sketch_stages import (
        _merge_block_fn,
        combine_partials,
        tree_merge_partials,
    )

    n_blocks, per = 128, 20
    partials = _partials(n_blocks, per, key_column="source")
    table, _ = combine_partials(partials, _merge_block_fn("hll", "source"),
                                fanout=8)
    assert sorted(table["source"].to_pylist()) == ["a", "b"]

    merged = tree_merge_partials(partials, "hll", key_column="source",
                                 fanout=8)
    assert set(merged) == {"a", "b"}
    assert merged["a"][1] == (n_blocks // 2) * per
    assert merged["b"][1] == (n_blocks // 2) * per


def test_combiner_tree_edge_cases(ray_session):
    """A lone block still goes through one merge task (it may hold several
    partial rows); no rows at all gives no table and no task; fanout < 2
    cannot reduce and is refused. The CPU left to the merges is set on a
    copy: the caller's dataset keeps its own execution options."""
    import ray.data
    from ray.data import ExecutionResources

    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        _merge_block_fn,
        combine_partials,
        tree_merge_partials,
    )

    tokens = pa.array([[i, i + 1] for i in range(40)],
                      type=pa.list_(pa.int32()))
    one_block = ray.data.from_arrow(pa.table({"tokens": tokens})).map_batches(
        SketchPartials(b=12), batch_format="pyarrow", batch_size=10)
    table, n_tasks = combine_partials(one_block, _merge_block_fn("hll"))
    assert (table.num_rows, n_tasks) == (1, 1)
    assert table["n_added"][0].as_py() == 80
    assert one_block.context.execution_options.exclude_resources == \
        ExecutionResources.zero()

    empty = one_block.filter(expr="n_added < 0")
    assert combine_partials(empty, _merge_block_fn("hll")) == (None, 0)
    assert tree_merge_partials(empty, "hll") == (None, 0)
    assert tree_merge_partials(empty, "hll", key_column="source") == {}

    with pytest.raises(ValueError, match="fanout"):
        combine_partials(one_block, _merge_block_fn("hll"), fanout=1)


def test_bench_stats_reports_single_driver_row():
    """`bench.py --stats` is the diagnostic that caught the fusion no-op —
    keep it working, and keep its headline assertions true: exactly one
    row reaches the driver, after at least one merge task, and the scan is
    the one fused read + partial operator (subprocess: bench owns its own
    Ray session; tiny corpus via GRAFT_BENCH_DOCS)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, GRAFT_BENCH_DOCS="2000", RAY_GRAFT_CPUS="4")
    out = subprocess.run(
        [sys.executable, "bench.py", "--stats"], env=env,
        capture_output=True, text=True, timeout=300, cwd=root)
    assert out.returncode == 0, out.stderr[-500:]
    m = re.search(r"\((\d+) merge tasks, (\d+) rows reach the driver; "
                  r"scan: (.+)\)$", out.stdout, re.M)
    assert m, out.stdout[-500:]
    assert int(m.group(1)) >= 1, out.stdout[-500:]
    assert int(m.group(2)) == 1, out.stdout[-500:]
    assert m.group(3) == FUSED, out.stdout[-500:]


def test_tree_merge_result_identical_to_flat_fold(ray_session):
    """Combiner tree == single-sketch ground truth, registers and n_added
    both (merge is associative/commutative, so where the tree cuts its
    fan-in groups must not matter)."""
    from cardinalityestimation_ray.stages.sketch_stages import (
        tree_merge_partials,
    )

    n_blocks, per = 96, 40
    sketch, total = tree_merge_partials(_partials(n_blocks, per), "hll",
                                        fanout=8)
    assert total == n_blocks * per
    assert np.array_equal(sketch.registers(),
                          _flat(n_blocks * per).registers())


def test_keyed_merge_blocks_keep_input_key_type():
    """Round-4 session-9 review: the keyed tree-merge block kernels emitted
    untyped key arrays — null-typed for an empty bundle, int64 for int32
    keys — so sibling bundles produced unconcatenatable schemas."""
    from cardinalityestimation_ray.sketches import HyperLogLog
    from cardinalityestimation_ray.stages.sketch_stages import (
        _merge_block_fn,
    )

    merge = _merge_block_fn("hll", "k")
    sk = HyperLogLog(b=14)
    sk.add(1)
    empty = pa.table({"k": pa.array([], type=pa.int32()),
                      "sketch": pa.array([], type=pa.binary()),
                      "n_added": pa.array([], type=pa.int64())})
    full = pa.table({"k": pa.array([7, 7], type=pa.int32()),
                     "sketch": pa.array([sk.to_bytes()] * 2, type=pa.binary()),
                     "n_added": pa.array([1, 1], type=pa.int64())})
    a = merge(empty)
    b = merge(full)
    assert a.schema.field("k").type == pa.int32()
    assert b.schema.field("k").type == pa.int32()
    merged = pa.concat_tables([a, b])
    assert merged.num_rows == 1 and merged["n_added"][0].as_py() == 2


FUSED = "ReadParquet->MapBatches(SketchPartials)"


def test_parquet_read_fuses_into_partial_stage(ray_session, tmp_path):
    """4 files on the 4-CPU session: Ray's automatic parallelism would split
    each read task's output into more blocks, and a split read never fuses
    with the next stage. The scan copy pins the read to its 4 tasks, so one
    fused operator runs 4 tasks and emits one partial block per file. Fails
    loudly if a Ray upgrade stops the fusion."""
    n_tokens = _write_parquet_files(tmp_path, 4)
    ds = _parquet_partials(tmp_path)
    assert _executed_scan(ds) == ([FUSED], 4)
    _assert_flat_fold(ds, n_tokens)


def test_scan_copy_leaves_the_callers_plan_alone(ray_session, tmp_path):
    """The scan copy rebuilds the chain on copied operators: the caller's
    Dataset keeps its logical plan, its automatic read parallelism, its
    execution options, and still runs Ray's split read."""
    from ray.data import ExecutionResources

    n_tokens = _write_parquet_files(tmp_path, 4)
    ds = _parquet_partials(tmp_path)
    plan, dag = ds._logical_plan, ds._logical_plan.dag
    read = dag.input_dependencies[0]
    _assert_flat_fold(ds, n_tokens)
    assert ds._logical_plan is plan and plan.dag is dag
    assert dag.input_dependencies == [read] and read._parallelism == -1
    assert read.output_dependencies == [dag]
    assert ds.context.execution_options.exclude_resources == \
        ExecutionResources.zero()
    names = _operator_names(ds.materialize().stats())
    assert names[0].startswith("ReadParquet->SplitBlocks("), names
    assert names[1] == "MapBatches(SketchPartials)", names


def test_explicit_override_num_blocks_is_honoured(ray_session, tmp_path):
    """A caller that set ``override_num_blocks`` gets its block count: the
    read keeps its split (8 blocks from 4 files) and does not fuse."""
    n_tokens = _write_parquet_files(tmp_path, 4)
    ds = _parquet_partials(tmp_path, override_num_blocks=8)
    names, n_blocks = _executed_scan(ds)
    assert FUSED not in names and n_blocks == 8, (names, n_blocks)
    _assert_flat_fold(ds, n_tokens)


def test_single_file_fuses_into_one_task(ray_session, tmp_path):
    """One file, one read task: the scan copy pins that too, so the read
    and the partial stage run as one fused task with one partial block
    (faster than Ray's split read plus one-block partial tasks at every
    file size measured; NOTES.md)."""
    n_tokens = _write_parquet_files(tmp_path, 1, rows=2000)
    ds = _parquet_partials(tmp_path)
    assert _executed_scan(ds) == ([FUSED], 1)
    _assert_flat_fold(ds, n_tokens)
