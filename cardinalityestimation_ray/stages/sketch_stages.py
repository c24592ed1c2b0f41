"""The partial-sketch stage, the merge primitive that folds its rows, and the
AggregateFn builder for Ray's own groupby merge.

The scale pattern (SURVEY.md §3/EP2, §7.3): :class:`SketchPartials` is one
``map_batches`` stage for every sketch kind and every column shape. It turns
each Arrow batch into *tiny partial-sketch rows* — one per batch, or one per
key per batch — so nothing heavier than kilobyte-scale partials ever moves,
never raw values. Like the reference's one estimator whose ``Add`` overloads
cover every element type (CardinalityEstimator.cs:68-71), the stage reads
list-vs-scalar from the column's Arrow type, and ``_flatten_list_column``
(``functions/text.py``) owns the null contract for both. How values are added is the sketch class's
business (``add_values`` / ``add_arrow``); the stage only decides whether a
kind gets its segment whole or in slices.

The reference's shape is partition-then-merge (Parallel.ForEach plus a
batched PLINQ merge tree, CardinalityEstimatorExtensions.cs:224-280,
ConcurrentCardinalityEstimator.cs:709-773), and :func:`combine_partials`
runs it as plain Ray tasks when the plan is one fused map, else on Ray
Data's streaming executor:

- The scan. Over a Parquet read, :func:`_scan_copy` fuses the read into
  the partial stage: one ``ReadParquet->MapBatches(SketchPartials)`` task
  per read task, so the read output never enters the object store (unless
  the caller set ``override_num_blocks``). When Ray plans that copy as one
  fused map (every chain the pipelines build over Parquet or an in-memory
  source), :class:`_PartialScan` runs it as plain tasks and no executor
  starts; anything else streams from the executor.
- The merge. Plain Ray tasks of ``fanout`` partial blocks each, over the
  blocks' object refs, and one driver fold of the at most ``fanout``
  tables pending at the end. Ray completes tasks in any order, which is
  safe because the merge is associative and, for the register-max kinds,
  commutative (reference CardinalityEstimator.cs:606-609; see
  :func:`sketch_merge_aggregate` for the order-dependent kinds).

Keyed pipelines merge here too. The explicit skew path is the salted
merge (``stages/partitioning.py``); a caller with very high-cardinality
keys uses ``sketch_merge_aggregate`` directly.

``combine_partials`` logs one DEBUG record per call to the package logger
(``cardinalityestimation_ray``): the scan path, whether the read was
pinned and whether a CPU was left to the merges.
"""

from __future__ import annotations

import copy
import logging
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.text import _as_array, _flatten_list_column
from ..sketches.base import Sketch, sketch_from_bytes

logger = logging.getLogger("cardinalityestimation_ray")


def build_sketch(kind: str, params: dict) -> Sketch:
    """Instantiate a registered sketch kind from a picklable spec."""
    return Sketch.REGISTRY[kind](**params)


def segment_rows_by_key(keys) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Group a batch's rows by key without sorting any values: returns (the
    distinct non-null keys, typed like the input's values; a row order;
    row bounds) such that key ``i``'s rows, in batch order, are
    ``order[bounds[i]:bounds[i + 1]]``. Null-key rows come last, at
    ``order[bounds[-1]:]``, so ``order[:bounds[-1]]`` drops them."""
    codes = pc.dictionary_encode(_as_array(keys))
    n_keys = len(codes.dictionary)
    # null keys take code n_keys: they sort after every key's rows
    row_codes = pc.fill_null(codes.indices, n_keys) \
        .to_numpy(zero_copy_only=False)
    order = np.argsort(row_codes, kind="stable")
    bounds = np.searchsorted(row_codes[order], np.arange(n_keys + 1))
    return codes.dictionary, order, bounds


class SketchPartials:
    """map_batches stage: a batch in, partial-sketch rows out, for any
    registered sketch kind over a list or scalar column.

    Emits ``{sketch: binary, n_added: int64}``: one row per batch when
    ``key_column`` is None, else one row per non-null key in the batch,
    with the key column first, typed like the input keys' values
    (so every block's schema concatenates). ``n_added`` counts the
    non-null values added. A key whose values are all null (or whose lists
    are empty) still gets its row, (empty sketch, 0), as SQL keeps the group
    with COUNT(DISTINCT) = 0. Rows with a null key are dropped (a
    documented divergence from SQL GROUP BY's null group).

    Keyed batches sort their ROWS once by dictionary key code, flatten once,
    and cut one value segment per key at the row offsets — never a sort over
    the values. ``**params`` are the sketch's constructor arguments, so the
    stage pickles cheaply into Ray tasks and actors. ``progress_actor``
    names a SharedSketch actor that receives every emitted blob
    fire-and-forget, so a running estimate can be polled mid-scan (the
    reference's ConcurrentCardinalityEstimator use case).
    """

    #: values per add call for kinds whose state depends on how the stream
    #: is sliced (KLL compaction coins, t-digest buffers), so their blobs
    #: stay what they were. A kind that defines
    #: ``UNIQUE_COLLAPSE_THRESHOLD`` owns its add policy and gets each
    #: segment whole.
    CHUNK = 8192

    def __init__(self, kind: str = "hll", value_column: str = "tokens", *,
                 key_column: str | None = None,
                 progress_actor: str | None = None, **params):
        self.kind = kind
        self.value_column = value_column
        self.key_column = key_column
        self.params = params
        self.progress_actor = progress_actor
        self._progress_handle = None
        self._whole = hasattr(Sketch.REGISTRY[kind],
                              "UNIQUE_COLLAPSE_THRESHOLD")

    def _blob(self, values) -> bytes:
        sk = build_sketch(self.kind, self.params)
        add = sk.add_arrow if isinstance(values, pa.Array) else sk.add_values
        step = max(len(values), 1) if self._whole else self.CHUNK
        for lo in range(0, len(values), step):
            add(values[lo:lo + step])
        blob = sk.to_bytes()
        if self.progress_actor is not None:
            if self._progress_handle is None:
                self._progress_handle = ray.get_actor(self.progress_actor)
            self._progress_handle.merge_blob.remote(blob)  # fire-and-forget
        return blob

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.value_column]
        if self.key_column is None:
            values, _ = _flatten_list_column(col)
            return pa.table({
                "sketch": pa.array([self._blob(values)], type=pa.binary()),
                "n_added": pa.array([len(values)], type=pa.int64()),
            })
        keys, order, row_bounds = segment_rows_by_key(batch[self.key_column])
        values, offsets = _flatten_list_column(
            col.take(order[:row_bounds[-1]]))
        cuts = offsets[row_bounds]
        return pa.table({
            self.key_column: keys,
            "sketch": pa.array([self._blob(values[lo:hi])
                                for lo, hi in zip(cuts[:-1], cuts[1:])],
                               type=pa.binary()),
            "n_added": pa.array(np.diff(cuts), type=pa.int64()),
        })


#: the name the benchmark harness imports; the stage is ``SketchPartials``
HllTokenPartials = SketchPartials


def sketch_merge_aggregate(kind: str, params: dict | None = None, *,
                           blob_column: str = "sketch",
                           finalize: "str | object" = "sketch",
                           name: str | None = None):
    """Mergeable Ray AggregateFn over partial-sketch blob rows for ANY
    registered sketch kind — the north-star's "all sketches as mergeable
    UDAFs" surface: ``ds.groupby(key).aggregate(sketch_merge_aggregate(
    "tdigest", {"delta": 200}, finalize=lambda sk: sk.quantile(0.5)))``.

    Accumulator = the sketch's own wire blob (kilobyte-scale), so Ray's
    groupby-aggregate tree-reduction ships sketches, never raw values —
    the same two-level merge shape the reference builds by hand with
    Parallel.ForEach + PLINQ (ConcurrentCardinalityEstimator.cs:709-773).
    Blobs decode through :func:`sketch_from_bytes` under ``params``'
    ``hash_name``, so an HLL accumulator keeps its hash.

    ``finalize``: ``"sketch"`` → the merged wire blob (binary);
    ``"estimate"`` → ``sk.estimate()`` (kinds exposing it: hll, theta);
    or any callable ``sk -> scalar`` (cloudpickled into the reduce tasks).
    The output column is ``name``; by default the kind for ``"sketch"``
    and ``"estimate"`` otherwise.
    Merge-order caveat: hll/theta/countmin/bloom and the two hash-priority
    samplers merge exactly order-invariantly; tdigest/kll are order- or
    coin-dependent, so finalize those to values with published error
    bounds, not to blobs expected to be bit-stable across runs.
    """
    from ray.data.aggregate import AggregateFn

    params = dict(params or {})

    def decode(blob: bytes) -> Sketch:
        return sketch_from_bytes(kind, blob, params.get("hash_name"))

    def init(_key):
        return build_sketch(kind, params).to_bytes()

    def accumulate_block(acc: bytes, block) -> bytes:
        sk = decode(acc)
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        for blob in tbl[blob_column]:
            sk.merge(decode(blob.as_py()))
        return sk.to_bytes()

    def merge(a: bytes, bb: bytes) -> bytes:
        sk = decode(a)
        sk.merge(decode(bb))
        return sk.to_bytes()

    def finalize_fn(acc: bytes):
        if finalize == "sketch":
            return acc
        sk = decode(acc)
        if finalize == "estimate":
            return sk.estimate()
        return finalize(sk)

    if name is None:
        name = kind if finalize == "sketch" else "estimate"
    return AggregateFn(
        init=init,
        merge=merge,
        accumulate_block=accumulate_block,
        finalize=finalize_fn,
        name=name,
    )


def _merge_block_fn(kind: str, key_column: str | None = None):
    """The kind's row merge: a table of partial rows in, one row per key out
    (one row when ``key_column`` is None, none for an empty table).

    Its rows need no hash label: an HLL blob re-encodes without one, and
    the other hashed kinds' blobs carry theirs.

    The key column keeps the INPUT's type: an untyped ``pa.array(keys)``
    infers null for an empty table and int64 for int32 keys, and sibling
    outputs would then no longer concatenate."""

    def merge_block(tbl: pa.Table) -> pa.Table:
        keys = (tbl[key_column].to_pylist() if key_column is not None
                else [None] * tbl.num_rows)
        acc: dict = {}
        counts: dict = {}
        for k, blob, n in zip(keys, tbl["sketch"].to_pylist(),
                              tbl["n_added"].to_pylist()):
            sk = sketch_from_bytes(kind, blob)
            if k in acc:
                acc[k].merge(sk)
                counts[k] += n
            else:
                acc[k] = sk
                counts[k] = n
        cols = {}
        if key_column is not None:
            cols[key_column] = pa.array(
                list(acc), type=tbl.schema.field(key_column).type)
        cols["sketch"] = pa.array([sk.to_bytes() for sk in acc.values()],
                                  type=pa.binary())
        cols["n_added"] = pa.array(list(counts.values()), type=pa.int64())
        return pa.table(cols)

    return merge_block


def _scan_copy(ds, cpus: int):
    """The (execution plan, logical plan) that :func:`combine_partials`
    scans for ``ds`` on ``cpus`` CPUs: a Parquet read fuses into the
    partial stage, and on Ray Data's executor (:class:`_PartialScan`) the
    scan runs one CPU short. The caller's plans are never touched, and are
    returned when neither rule applies. No ``Dataset`` is built (each is a
    blocking stats-actor call); the executor path wraps the pair in one.

    One CPU short: merge tasks run outside Ray Data, and each one waits for
    the one before, so at most one runs at a time. Excluding one CPU from
    the executor (Ray Data's setting for other work on the same cluster)
    lets that task start as soon as its inputs exist instead of queueing
    behind scan tasks; on a 4-vCPU host it also keeps one worker process
    free of the scan's ~110 MB footprint (the ``ray.data`` import, the
    Parquet reader, mapped object-store pages). Skipped on a one-CPU
    cluster and when the caller set resource limits.

    Fused read: with automatic parallelism Ray asks for 200 blocks by
    default (fewer for a small input, never fewer than 2x the cluster's
    CPUs) and, when the files give fewer read tasks, splits each task's
    output into more blocks. A read that splits its output never fuses with
    the next stage, so 4 files become 4 read tasks plus 20 one-block
    partial tasks. When the plan is a linear chain rooted at such a read,
    the copy rebuilds the chain on copied operators with the read's
    parallelism pinned to the number of tasks it produces anyway (Ray
    stored it on the operator when it planned the read): no split, and one
    ``Read->MapBatches(...)`` task per read task whose only output is its
    partial rows. That holds for a single file too: one fused task beat
    the split read plus its one-block partial tasks on every file count and
    size measured, up to a 43 MB file of 19 M tokens (NOTES.md). Ray's split
    is kept only when the caller set ``override_num_blocks``.
    """
    from ray.data import ExecutionResources
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.read_operator import Read

    leave_cpu = cpus >= 2 and \
        ds.context.execution_options.is_resource_limits_default()

    chain = []
    op = ds._logical_plan.dag
    while len(op.input_dependencies) == 1:
        chain.append(op)
        op = op.input_dependencies[0]
    n_tasks = 0
    if isinstance(op, Read) and op._parallelism == -1 \
            and not ds._plan.has_computed_output():
        n_tasks = op.estimated_num_outputs() or 0
    if not (leave_cpu or n_tasks):
        return ds._plan, ds._logical_plan

    plan = ds._plan.deep_copy()
    dag = ds._logical_plan.dag
    if n_tasks:
        dag = copy.copy(op)
        dag._parallelism = n_tasks
        dag._output_dependencies = []
        for old in reversed(chain):
            new = copy.copy(old)
            new._input_dependencies = [dag]
            new._output_dependencies = []
            dag._output_dependencies.append(new)
            dag = new
    if leave_cpu:
        opts = plan._context.execution_options
        opts.exclude_resources = opts.exclude_resources.add(
            ExecutionResources(cpu=1))
    logical_plan = LogicalPlan(dag, plan._context)
    plan.link_logical_plan(logical_plan)
    return plan, logical_plan


def _scan_task(transformer, data_context, task_ctx, *blocks):
    """The body of one plain scan task of :class:`_PartialScan`: the fused
    map operator's transformer over one input bundle, set up as Ray Data's
    own map task sets it up. Returns (its output rows as one table, or
    None; their count)."""
    from ray.data import DataContext
    from ray.data._internal.execution.interfaces import TaskContext
    from ray.data.block import BlockAccessor

    DataContext._set_current(data_context)
    TaskContext.set_current(task_ctx)
    transformer.set_target_max_block_size(task_ctx.target_max_block_size)
    try:
        tables = [BlockAccessor.for_block(block).to_arrow() for block in
                  transformer.apply_transform(iter(blocks), task_ctx)]
    finally:
        TaskContext.reset_current()
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return None, 0
    table = pa.concat_tables(tables, promote_options="permissive")
    return table, table.num_rows


class _PartialScan:
    """The scan :func:`combine_partials` runs: the output block refs of
    :func:`_scan_copy` of ``ds``, with their row counts.

    Plain tasks when Ray's optimized physical plan of the copy is exactly
    ``InputDataBuffer -> TaskPoolMapOperator`` (one fused map): the input
    bundles, grouped by the operator's own bundler, each go to one task
    that runs the operator's map transformer (put in the object store once
    per scan) with the operator's remote args. The task is made as Ray
    Data makes its map tasks (``cached_remote_fn``: retried after a worker
    death). At most 2x the cluster's CPUs of them are in flight. Every
    other plan, and a caller that set resource limits, streams from Ray
    Data's executor; ``reason`` says why.

    ``get_execution_plan`` rewrites the ``LogicalPlan`` it is given, so
    the scan plans a fresh one over the copy's operators, never the
    caller's plan."""

    def __init__(self, ds):
        from ray.data._internal.execution.operators.input_data_buffer import (
            InputDataBuffer,
        )
        from ray.data._internal.execution.operators.map_operator import (
            MapOperator,
        )
        from ray.data._internal.execution.operators.task_pool_map_operator \
            import TaskPoolMapOperator
        from ray.data._internal.logical.interfaces import LogicalPlan
        from ray.data._internal.logical.optimizers import get_execution_plan

        t0 = time.perf_counter()
        self._ds = ds
        self._cpus = int(ray.cluster_resources().get("CPU", 0))
        self._plan, self._logical_plan = _scan_copy(ds, self._cpus)
        self.pinned = self._logical_plan.dag is not ds._logical_plan.dag
        self.op_name = self.reason = None
        self.n_tasks = 0
        self.submit_s = 0.0
        options = self._plan._context.execution_options
        if self._plan.has_computed_output():
            self.reason = "materialized"
        elif not options.is_resource_limits_default():
            self.reason = "resource limits"
        else:
            op = get_execution_plan(LogicalPlan(self._logical_plan.dag,
                                                self._plan._context)).dag
            chain = [op]
            while chain[-1].input_dependencies:
                chain.append(chain[-1].input_dependencies[0])
            maps = [o for o in chain if isinstance(o, MapOperator)]
            if any(o.get_additional_split_factor() > 1 for o in maps):
                self.reason = "split read"
            elif not all(isinstance(o, TaskPoolMapOperator) for o in maps):
                self.reason = "actor pool"
            elif len(maps) + 1 < len(chain):
                self.reason = "all-to-all"
            elif len(chain) != 2 or not isinstance(chain[1], InputDataBuffer):
                self.reason = "unfused"
            else:
                self.op_name = op.name
                self._op, self._source = op, chain[1]
        self.cpu_left = self.reason is not None and \
            options.exclude_resources.cpu > \
            ds.context.execution_options.exclude_resources.cpu
        self.plan_s = time.perf_counter() - t0

    def outputs(self):
        """Yield (block ref, rows) for every output block: a table per
        plain task in completion order, or the executor's blocks."""
        if self.reason is not None:
            ds = self._ds
            if self._plan is not ds._plan:
                ds = type(ds)(self._plan, self._logical_plan)
            for bundle in ds.iter_internal_ref_bundles():
                for ref, meta in bundle.blocks:
                    yield ref, meta.num_rows
            return
        from ray.data._internal.execution.interfaces import TaskContext
        from ray.data._internal.remote_fn import cached_remote_fn

        t0 = time.perf_counter()
        op = self._op
        bundles = self._bundles()
        transformer = ray.put(op.get_map_transformer())
        limit = 2 * self._cpus
        limit = max(min(limit, op.get_concurrency() or limit), 1)
        self.plan_s += time.perf_counter() - t0
        self.n_tasks = len(bundles)
        in_flight: dict = {}
        args = task = None
        for i, bundle in enumerate(bundles):
            if len(in_flight) >= limit:
                yield from self._first_done(in_flight)
            t0 = time.perf_counter()
            task_ctx = TaskContext(
                task_idx=i, op_name=op.name,
                target_max_block_size=op.actual_target_max_block_size,
                kwargs=op.get_map_task_kwargs())
            bundle_args = op._get_runtime_ray_remote_args(input_bundle=bundle)
            if bundle_args != args:
                args = bundle_args
                task = cached_remote_fn(_scan_task).options(
                    **args, name=op.name, num_returns=2)
            table_ref, rows_ref = task.remote(
                transformer, op.data_context, task_ctx, *bundle.block_refs)
            in_flight[rows_ref] = table_ref
            self.submit_s += time.perf_counter() - t0
        while in_flight:
            yield from self._first_done(in_flight)

    def _bundles(self) -> list:
        """The operator's input bundles, grouped as its own bundler groups
        them (for a read, starting the source builds its read tasks)."""
        op, source = self._op, self._source
        source.start(self._plan._context.execution_options)
        bundler = op._block_ref_bundler
        bundles = []
        while source.has_next():
            bundler.add_bundle(source.get_next())
            while bundler.has_bundle():
                bundles.append(bundler.get_next_bundle()[1])
        bundler.done_adding_bundles()
        while bundler.has_bundle():
            bundles.append(bundler.get_next_bundle()[1])
        return bundles

    @staticmethod
    def _first_done(in_flight):
        ready, _ = ray.wait(list(in_flight), num_returns=1)
        for rows_ref in ready:
            yield in_flight.pop(rows_ref), ray.get(rows_ref)

    def describe(self) -> str:
        if self.reason is None:
            path = f"plain tasks ({self.op_name}, {self.n_tasks} tasks)"
        else:
            path = f"executor ({self.reason})"
        return (f"scan: {path}; read pinned: "
                f"{'yes' if self.pinned else 'no'}; CPU left to merges: "
                f"{'yes' if self.cpu_left else 'no'}")


def _merge(merge_fn, *tables: pa.Table) -> pa.Table:
    """One node of the combiner tree: concatenate, then row-merge."""
    return merge_fn(pa.concat_tables(tables, promote_options="permissive"))


_merge_task = ray.remote(num_cpus=1)(_merge)


def combine_partials(partials_ds, merge_fn, *,
                     fanout: int = 64) -> tuple[pa.Table | None, int]:
    """The merge primitive: a combiner tree over the object refs of a
    partial stage's output blocks, rooted on the driver (the reference's
    batched merge tree, ConcurrentCardinalityEstimator.cs:709-773, with a
    parameter fan-in).

    The scan (:class:`_PartialScan`) runs :func:`_scan_copy` of
    ``partials_ds``, where a Parquet read with automatic parallelism fuses
    into the partial stage. Plain tasks when Ray's plan of that copy is one
    fused map: one task per input bundle, at most 2x the cluster's CPUs in
    flight, no streaming executor. Else the executor
    (``iter_internal_ref_bundles``), with one CPU left to the merges.
    ``partials_ds`` and its plan are left as they are. Either way the
    output refs arrive in completion order and blocks with no rows are
    skipped. Every ``fanout`` pending refs go to one plain ``num_cpus=1``
    merge task that concatenates them and applies ``merge_fn`` (one row
    per key out), and its output ref rejoins the pending list. The merges
    are ordinary tasks, not Ray Data operators, so nothing fuses them onto
    the partial stage. When the scan ends, the driver applies ``merge_fn``
    once to the tables still pending (at most ``fanout``), so the result
    has one row per key whatever the number of blocks. Driver state is at
    most ``fanout`` tables plus the merged one, and the plain scan's
    in-flight refs.

    Scan and merge tasks are pure functions of their inputs, so Ray's task
    retry after a worker death reproduces them exactly.

    Logs one DEBUG record to the ``cardinalityestimation_ray`` logger,
    whose ``scan`` attribute is the :class:`_PartialScan` (path, operator,
    task count, planning and submit seconds) and whose ``folded_rows``
    attribute counts the partial rows the driver folded.

    Returns (merged table, or None when no block had rows; merge tasks run).
    """
    if fanout < 2:
        raise ValueError(f"fanout must be >= 2, got {fanout}")
    t0 = time.perf_counter()
    pending: list = []
    n_tasks = 0
    scan = _PartialScan(partials_ds)
    for ref, rows in scan.outputs():
        if rows == 0:
            continue
        pending.append(ref)
        if len(pending) == fanout:
            pending = [_merge_task.remote(merge_fn, *pending)]
            n_tasks += 1
    table = None
    folded_rows = 0
    if pending:
        tables = ray.get(pending)
        folded_rows = sum(t.num_rows for t in tables)
        table = _merge(merge_fn, *tables)
    wall_s = time.perf_counter() - t0
    logger.debug(
        "combine_partials %s; %d merge tasks; driver folded %d rows; %.3f s "
        "(plan %.3f, submit %.3f)", scan.describe(), n_tasks, folded_rows,
        wall_s, scan.plan_s, scan.submit_s,
        extra={"scan": scan, "folded_rows": folded_rows})
    return table, n_tasks


def tree_merge_partials(partials_ds, kind: str, params: dict | None = None,
                        *, key_column: str | None = None, fanout: int = 64):
    """Merge a partial stage's rows with :func:`combine_partials` and decode
    its one merged row per key on the driver. No all-to-all anywhere.

    ``params`` are the constructor arguments the partial stage built its
    sketches with (``SketchPartials(kind, column, **params)``). The result
    decodes through :func:`sketch_from_bytes` under their ``hash_name``,
    so it can be added to under the stage's hash.

    Global (``key_column=None``): returns (merged sketch, total n_added);
    with no rows, an empty ``build_sketch(kind, params)`` and 0. Keyed:
    returns ``dict[key, (sketch, n_added)]``. Every merge task holds one
    sketch per key, and the driver's fold up to ``fanout`` tables of such
    rows; a caller whose keys are too many for that uses
    ``groupby(key).aggregate(sketch_merge_aggregate(...))`` directly, which
    hash-partitions the merge."""
    params = params or {}
    table, _ = combine_partials(
        partials_ds, _merge_block_fn(kind, key_column), fanout=fanout)

    def decode(blob: bytes) -> Sketch:
        return sketch_from_bytes(kind, blob, params.get("hash_name"))

    if key_column is None:
        if table is None:
            return build_sketch(kind, params), 0
        return decode(table["sketch"][0].as_py()), table["n_added"][0].as_py()
    if table is None:
        return {}
    return {k: (decode(blob), n)
            for k, blob, n in zip(table[key_column].to_pylist(),
                                  table["sketch"].to_pylist(),
                                  table["n_added"].to_pylist())}
