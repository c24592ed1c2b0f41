"""The combiner tree must actually REDUCE: the driver folds at most
``fanout`` tables into exactly one merged row per key, whatever the number
of partial blocks, and the registers equal a flat fold. Its merges are
plain Ray tasks over the partial blocks' object refs, so Ray Data's
operator fusion cannot reach them — fused
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


def _scan_dataset(ds):
    """The scan copy that combine_partials executes for ``ds``, wrapped in
    a Dataset."""
    import ray

    from cardinalityestimation_ray.stages.sketch_stages import _scan_copy

    return type(ds)(*_scan_copy(ds, int(ray.cluster_resources()["CPU"])))


def _executed_scan(ds):
    """(operator names, partial blocks) of the scan copy that
    combine_partials executes for ``ds``, from Ray's stats of one run."""
    scan = _scan_dataset(ds)
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
    """128 one-row partial blocks at fanout 8 -> exactly one merged row.
    The first task takes 8 refs; each later one takes its predecessor's
    output plus 7 new refs, so 18 tasks take 8 + 17 * 7 = 127 refs; the
    driver folds the last merge output and the last ref: 2 rows, 18
    tasks."""
    from cardinalityestimation_ray.sketches.hll import HyperLogLog
    from cardinalityestimation_ray.stages.sketch_stages import (
        _merge_block_fn,
        combine_partials,
    )

    table, n_tasks = combine_partials(_partials(128), _merge_block_fn("hll"),
                                      fanout=8)
    assert table.num_rows == 1, (
        f"{table.num_rows} partial rows came out of the tree")
    assert n_tasks == 18
    assert table["n_added"][0].as_py() == 128 * 40
    merged = HyperLogLog.from_bytes(table["sketch"][0].as_py())
    assert np.array_equal(merged.registers(), _flat(128 * 40).registers())


def test_keyed_combiner_tree_sends_one_row_per_key(ray_session):
    """Keyed: 128 blocks alternating between 2 keys -> exactly one merged
    row per key, with each key's exact token count."""
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
    """A lone block needs no merge task: the driver folds its partial rows
    into one; no rows at all gives no table and no task, so the global
    merge gives an empty sketch and the keyed one no keys; fanout < 2
    cannot reduce and is refused. The CPU left to the merges is set on a
    copy: the caller's dataset keeps its own execution options."""
    import ray.data
    from ray.data import ExecutionResources

    from cardinalityestimation_ray.sketches.hll import HyperLogLog
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
    assert (table.num_rows, n_tasks) == (1, 0)
    assert table["n_added"][0].as_py() == 80
    assert one_block.context.execution_options.exclude_resources == \
        ExecutionResources.zero()

    empty = one_block.filter(expr="n_added < 0")
    assert combine_partials(empty, _merge_block_fn("hll")) == (None, 0)
    assert tree_merge_partials(empty, "hll") == (HyperLogLog(), 0)
    assert tree_merge_partials(empty, "hll", key_column="source") == {}

    with pytest.raises(ValueError, match="fanout"):
        combine_partials(one_block, _merge_block_fn("hll"), fanout=1)


def test_bench_stats_reports_single_driver_row():
    """`bench.py --stats` is the diagnostic that caught the fusion no-op —
    keep it working, and keep its headline assertions true: the driver
    folds at most ``fanout`` (64) partial rows into exactly one merged row,
    and the scan is the one fused read + partial operator (subprocess:
    bench owns its own Ray session; tiny corpus via GRAFT_BENCH_DOCS)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, GRAFT_BENCH_DOCS="2000", RAY_GRAFT_CPUS="4")
    out = subprocess.run(
        [sys.executable, "bench.py", "--stats"], env=env,
        capture_output=True, text=True, timeout=300, cwd=root)
    assert out.returncode == 0, out.stderr[-500:]
    m = re.search(r"\((\d+) merge tasks, the driver folded (\d+) partial "
                  r"rows into (\d+); scan: (.+)\)$", out.stdout, re.M)
    assert m, out.stdout[-500:]
    assert 1 <= int(m.group(2)) <= 64, out.stdout[-500:]
    assert int(m.group(3)) == 1, out.stdout[-500:]
    assert m.group(4) == FUSED, out.stdout[-500:]


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


# --- the plain scan path: a plan that is one fused map runs as plain tasks

def _write_keyed_parquet(directory, n_files: int = 4, rows: int = 300) -> None:
    """Parquet files of list<int32> tokens plus a low-cardinality ``source``
    key (with nulls), several row groups per file."""
    import pyarrow.parquet as pq

    for i in range(n_files):
        base = i * rows * 10
        tokens = pa.array(
            [list(range(base + r * 10, base + r * 10 + r % 7))
             for r in range(rows)], type=pa.list_(pa.int32()))
        source = pa.array([None if r % 11 == 0 else "abc"[r % 3]
                           for r in range(rows)])
        pq.write_table(pa.table({"tokens": tokens, "source": source}),
                       os.path.join(directory, f"part-{i}.parquet"),
                       row_group_size=70)


def _row_multiset(rows, key_column: str | None = None) -> list[tuple]:
    """(key, blob, n_added) of each partial row, sorted: the rows with
    their batch boundaries, not just a total."""
    return sorted(((r[key_column] if key_column else None), r["sketch"],
                   r["n_added"]) for r in rows)


def _plain_scan_rows(ds, key_column: str | None = None):
    """(scan, row multiset) of the plain path's output for ``ds``."""
    import ray

    from cardinalityestimation_ray.stages.sketch_stages import _PartialScan

    scan = _PartialScan(ds)
    assert scan.reason is None, scan.describe()
    tables = [ray.get(ref) for ref, rows in scan.outputs() if rows]
    rows = pa.concat_tables(tables).to_pylist() if tables else []
    return scan, _row_multiset(rows, key_column)


def _scan_cases(directory):
    """name -> (partial stage Dataset, key column) for the multiset test."""
    import ray.data

    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
    )

    def parquet(columns=("tokens",)):
        return ray.data.read_parquet(str(directory), columns=list(columns))

    arrow = pa.table({"tokens": pa.array(
        [[i, i + 1, i * 7] for i in range(640)], type=pa.list_(pa.int32()))})
    blocks = [arrow.slice(i, 10) for i in range(0, 640, 10)]
    stage = SketchPartials(b=12)
    return {
        # Ray never fuses a map with a batch size onto a read (the read may
        # change row counts), so over Parquet such a stage runs on the
        # materialized read's blocks, grouped by the operator's bundler
        "parquet_batch_size_100": (parquet().materialize().map_batches(
            stage, batch_format="pyarrow", batch_size=100), None),
        "arrow_64_blocks_batch_25": (ray.data.from_arrow(blocks).map_batches(
            stage, batch_format="pyarrow", batch_size=25), None),
        "filter_then_map": (parquet().filter(
            lambda row: len(row["tokens"]) % 2 == 0).map_batches(
            stage, batch_format="pyarrow"), None),
        "keyed_source": (parquet(("tokens", "source")).map_batches(
            SketchPartials(b=12, key_column="source"),
            batch_format="pyarrow"), "source"),
        "kll_seeded": (parquet().map_batches(
            SketchPartials("kll", "tokens", k=40, seed=7),
            batch_format="pyarrow"), None),
    }


def test_plain_scan_runs_one_named_task_per_file(ray_session, tmp_path,
                                                 caplog):
    """4 Parquet files: the fused plan runs as 4 plain tasks named after
    the fused operator (as Ray's timeline records them), and the registers
    equal a flat fold."""
    import logging
    import time

    import ray

    n_tokens = _write_parquet_files(tmp_path, 4)
    ds = _parquet_partials(tmp_path)
    caplog.set_level(logging.DEBUG, logger="cardinalityestimation_ray")
    t0 = time.time()
    _assert_flat_fold(ds, n_tokens)
    (record,) = [r for r in caplog.records
                 if r.name == "cardinalityestimation_ray"]
    assert (record.scan.reason, record.scan.op_name,
            record.scan.n_tasks) == (None, FUSED, 4)
    for _ in range(50):  # task events reach the timeline about once a second
        named = [e for e in ray.timeline()
                 if e.get("cat") == f"task::{FUSED}" and e["ts"] / 1e6 >= t0]
        if len(named) >= 4:
            break
        time.sleep(0.2)
    assert len(named) == 4, named


@pytest.mark.parametrize("case", [
    "parquet_batch_size_100", "arrow_64_blocks_batch_25", "filter_then_map",
    "keyed_source", "kll_seeded"])
def test_plain_scan_rows_equal_ray_data(ray_session, tmp_path, case):
    """The plain path emits the same multiset of partial rows — key, blob
    and count of every batch — as Ray Data running the same scan copy."""
    _write_keyed_parquet(tmp_path)
    ds, key_column = _scan_cases(tmp_path)[case]
    scan, plain = _plain_scan_rows(ds, key_column)
    assert plain == _row_multiset(_scan_dataset(ds).take_all(), key_column)
    assert plain and scan.n_tasks >= 1
    if case == "arrow_64_blocks_batch_25":
        # batches of 25 over 10-row blocks: the bundler groups 3 blocks
        assert scan.n_tasks == 22


def test_batch_size_over_parquet_is_not_one_fused_map(ray_session, tmp_path):
    """A stage with a batch size straight over a read is two operators in
    Ray's plan, so it runs on the executor, with the same result."""
    import ray.data

    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        _PartialScan,
    )

    n_tokens = _write_parquet_files(tmp_path, 4)
    ds = ray.data.read_parquet(str(tmp_path), columns=["tokens"]).map_batches(
        SketchPartials(b=12), batch_format="pyarrow", batch_size=100)
    assert _PartialScan(ds).reason == "unfused"
    _assert_flat_fold(ds, n_tokens)


@pytest.mark.parametrize("variant,reason", [
    ("actor_pool", "actor pool"), ("override_num_blocks", "split read"),
    ("repartition", "all-to-all"), ("cpu_limit", "resource limits")])
def test_other_plans_take_the_executor(ray_session, tmp_path, variant,
                                       reason):
    """An actor pool, a split read and an all-to-all operator are not one
    fused task-pool map, and plain tasks could not honour a caller's
    resource limits: those scans stay on Ray Data's executor, and the
    merged registers still equal a flat fold."""
    import ray.data
    from ray.data import ExecutionResources

    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        _PartialScan,
    )

    n_tokens = _write_parquet_files(tmp_path, 4)
    read = ray.data.read_parquet(
        str(tmp_path), columns=["tokens"],
        **({"override_num_blocks": 8}
           if variant == "override_num_blocks" else {}))
    if variant == "actor_pool":
        ds = read.map_batches(SketchPartials, fn_constructor_kwargs={"b": 12},
                              batch_format="pyarrow", concurrency=2)
    else:
        if variant == "repartition":
            read = read.repartition(4)
        ds = read.map_batches(SketchPartials(b=12), batch_format="pyarrow")
    if variant == "cpu_limit":
        ds.context.execution_options.resource_limits = \
            ExecutionResources(cpu=2)
    assert _PartialScan(ds).reason == reason
    _assert_flat_fold(ds, n_tokens)


@pytest.mark.parametrize("source", ["arrow", "parquet"])
def test_plain_scan_leaves_the_callers_plan_alone(ray_session, tmp_path,
                                                  source):
    """Planning rewrites the logical plan it is given: the plain path plans
    a fresh one, so the caller's plan keeps its dag object, that dag its
    input dependencies, and the Dataset its execution options."""
    import ray.data

    from cardinalityestimation_ray.stages.sketch_stages import (
        SketchPartials,
        _PartialScan,
    )

    if source == "parquet":
        n_tokens = _write_parquet_files(tmp_path, 4)
        read = ray.data.read_parquet(str(tmp_path), columns=["tokens"])
    else:
        n_tokens = 4000
        read = ray.data.from_arrow(pa.table({"tokens": pa.array(
            [list(range(i, i + 40)) for i in range(0, n_tokens, 40)],
            type=pa.list_(pa.int32()))}))
    ds = read.map_batches(SketchPartials(b=12), batch_format="pyarrow")
    assert _PartialScan(ds).reason is None
    plan, dag = ds._logical_plan, ds._logical_plan.dag
    deps = list(dag.input_dependencies)
    options = repr(ds.context.execution_options)
    _assert_flat_fold(ds, n_tokens)
    assert ds._logical_plan is plan and plan.dag is dag
    assert len(dag.input_dependencies) == len(deps)
    assert all(a is b for a, b in zip(dag.input_dependencies, deps))
    assert repr(ds.context.execution_options) == options


def _package_records(caplog):
    return [r for r in caplog.records if r.name == "cardinalityestimation_ray"]


def test_combine_partials_logs_the_plain_path(ray_session, tmp_path, caplog):
    """One DEBUG record per combine_partials call names the plain path, its
    operator and task count, the pinned read and no CPU held back."""
    import logging

    from cardinalityestimation_ray.stages.sketch_stages import (
        _merge_block_fn,
        combine_partials,
    )

    _write_parquet_files(tmp_path, 4)
    caplog.set_level(logging.DEBUG, logger="cardinalityestimation_ray")
    combine_partials(_parquet_partials(tmp_path), _merge_block_fn("hll"))
    (record,) = _package_records(caplog)
    assert record.levelno == logging.DEBUG
    assert f"scan: plain tasks ({FUSED}, 4 tasks); read pinned: yes; " \
        "CPU left to merges: no; 0 merge tasks" in record.getMessage()


def test_combine_partials_logs_the_executor_path(ray_session, tmp_path,
                                                 caplog):
    """On the executor path the record gives the reason (here a split
    read), that the read was not pinned, and the CPU left to the merges;
    nothing is logged at INFO or above."""
    import logging

    from cardinalityestimation_ray.stages.sketch_stages import (
        _merge_block_fn,
        combine_partials,
    )

    _write_parquet_files(tmp_path, 4)
    caplog.set_level(logging.DEBUG, logger="cardinalityestimation_ray")
    combine_partials(_parquet_partials(tmp_path, override_num_blocks=8),
                     _merge_block_fn("hll"))
    (record,) = _package_records(caplog)
    assert record.levelno == logging.DEBUG
    assert "scan: executor (split read); read pinned: no; " \
        "CPU left to merges: yes; 0 merge tasks" in record.getMessage()
