"""Per-partition lineage + checkpoint store for resumable sketch jobs.

north_rule requirement: "resumable from checkpoint with per-partition
lineage + metrics". Design (SURVEY.md §4 "Checkpoint / resume"):

- partition = one input Parquet file (the natural retry/skip unit);
- each finished partition writes ONE atomic record (tmp + os.replace):
  {partition_id, input_file, input_bytes, row_count, token_count,
   sketch: {kind, b64 blob}, metrics, format_version, status};
- resume = scan the manifest dir, skip completed partitions whose input
  signature (size) still matches, schedule only the rest, merge saved +
  fresh partials (register-max merge is order-independent, so the merged
  result is identical to an uninterrupted run).

The per-partition work runs as raw Ray tasks rather than a Dataset stage —
the one place the Dataset API can't express the semantics we need (atomic
per-input-file lineage records written from inside the task). Everything
inside the task is the same vectorized batch kernel the Dataset stages use.
"""

from __future__ import annotations

import base64
import json
import os
import time
from dataclasses import asdict, dataclass, field

import pyarrow.parquet as pq
import ray

from ..sketches.base import sketch_from_bytes
from ..sketches.hll import HyperLogLog
from ..stages.sketch_stages import SketchPartials

FORMAT_VERSION = 1


@dataclass
class LineageRecord:
    partition_id: str
    input_file: str
    input_bytes: int
    row_count: int
    token_count: int
    sketch_kind: str
    sketch_b64: str
    wall_time_s: float
    status: str = "complete"
    format_version: int = FORMAT_VERSION
    metrics: dict = field(default_factory=dict)

    def sketch_blob(self) -> bytes:
        return base64.b64decode(self.sketch_b64)


class CheckpointStore:
    """Atomic per-partition lineage records under ``root/partitions/``."""

    def __init__(self, root: str):
        self.root = root
        self.part_dir = os.path.join(root, "partitions")
        os.makedirs(self.part_dir, exist_ok=True)

    def _path(self, partition_id: str) -> str:
        return os.path.join(self.part_dir, f"{partition_id}.json")

    def write(self, record: LineageRecord) -> None:
        path = self._path(record.partition_id)
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(asdict(record), f)
        os.replace(tmp, path)  # atomic on POSIX

    def read(self, partition_id: str) -> LineageRecord | None:
        path = self._path(partition_id)
        if not os.path.exists(path):
            return None
        with open(path) as f:
            data = json.load(f)
        if data.get("format_version", 0) > FORMAT_VERSION:
            raise ValueError(
                f"checkpoint {partition_id} written by a newer format version "
                f"{data.get('format_version')}")
        return LineageRecord(**data)

    def completed(self) -> dict[str, LineageRecord]:
        out = {}
        for name in os.listdir(self.part_dir):
            if not name.endswith(".json"):
                continue
            rec = self.read(name[:-5])
            if rec is not None and rec.status == "complete":
                out[rec.partition_id] = rec
        return out

    def manifest(self, recs: dict[str, LineageRecord] | None = None) -> dict:
        """Totals over ``recs`` (default: every completed record in the
        store, read afresh)."""
        if recs is None:
            recs = self.completed()
        return {
            "n_partitions": len(recs),
            "rows": sum(r.row_count for r in recs.values()),
            "tokens": sum(r.token_count for r in recs.values()),
            "wall_time_s": round(sum(r.wall_time_s for r in recs.values()), 3),
        }


def _partition_id_for(path: str) -> str:
    """Stable partition id: basename stem + short digest of the full path,
    so same-named files in different directories get distinct lineage
    records (round-1 ADVICE fix)."""
    import hashlib

    base = os.path.basename(path).replace(".parquet", "").replace(".", "_")
    # 16 hex chars = 64 bits: a 32-bit digest has ~50% birthday collision
    # odds at ~77k same-named files (part-0.parquet across shard dirs is
    # the NORM at scale), and a collision silently drops one file's tokens
    digest = hashlib.sha1(os.path.abspath(path).encode()).hexdigest()[:16]
    return f"{base}_{digest}"


@ray.remote(num_cpus=1)
def _process_partition(input_file: str, partition_id: str,
                       checkpoint_root: str, b: int,
                       token_column: str, hash_name: str) -> str:
    """Task body: sketch one input file, write its lineage record atomically.

    Idempotent: re-running overwrites with identical content (deterministic
    kernel), and a crash mid-write leaves only a tmp file that is ignored.
    ``partition_id`` is computed ON THE DRIVER (round-2 ADVICE fix: deriving
    it in the worker via os.path.abspath resolves relative paths against the
    worker's cwd, which differs across nodes — fresh records then fell
    outside the driver's 'wanted' set and were silently dropped).
    Registered once at import, like ``_merge_task``, so a job call does not
    pickle and export the function to the GCS again.
    """
    t0 = time.perf_counter()
    # use_threads=False: the TASK is the parallelism unit here — letting
    # pyarrow's internal pool fan out inside a 1-CPU Ray task oversubscribes
    # the node and distorts cluster-size scaling
    table = pq.read_table(input_file, columns=[token_column],
                          use_threads=False)
    stage = SketchPartials("hll", token_column, b=b, hash_name=hash_name)
    out = stage(table)
    blob = out["sketch"][0].as_py()
    n_added = int(out["n_added"][0].as_py())
    record = LineageRecord(
        partition_id=partition_id,
        input_file=input_file,
        input_bytes=os.path.getsize(input_file),
        row_count=table.num_rows,
        token_count=n_added,
        sketch_kind="hll",
        sketch_b64=base64.b64encode(blob).decode(),
        wall_time_s=round(time.perf_counter() - t0, 4),
        metrics={"b": b, "hash": hash_name, "token_column": token_column},
    )
    CheckpointStore(checkpoint_root).write(record)
    return record.partition_id


def resumable_distinct_tokens(input_files: list[str], checkpoint_root: str, *,
                              b: int = 14, token_column: str = "tokens",
                              hash_name: str | None = None,
                              max_in_flight: int = 32,
                              fail_after: int | None = None) -> dict:
    """Resumable global distinct-token job over a list of Parquet files.

    Skips partitions with a valid lineage record (input size, b, AND hash
    unchanged — resuming under a different hash function must reprocess, not
    silently merge sketches hashed under different functions), processes the
    rest as parallel Ray tasks, then merges saved + fresh partial sketches.
    The final merge is restricted to records for the CURRENT ``input_files``
    — stale records for inputs removed from the job no longer inflate the
    result (both round-1 ADVICE fixes). ``fail_after`` aborts the driver
    loop after N fresh completions (test hook simulating a crash —
    completed partitions keep their records, so the next call resumes).
    """
    from ..sketches import hashing as _hashing

    hash_name = hash_name or _hashing.DEFAULT_HASH
    # normalize on the DRIVER so partition ids are cwd-independent
    # (workers on other nodes must not re-resolve relative paths)
    input_files = [os.path.abspath(p) for p in input_files]
    spec = {"b": b, "hash": hash_name, "token_column": token_column}

    def same_spec(rec) -> bool:
        return all(rec.metrics.get(k) == v for k, v in spec.items())

    store = CheckpointStore(checkpoint_root)
    done = store.completed()
    pending = []
    for path in sorted(input_files):
        rec = done.get(_partition_id_for(path))
        if rec is not None and rec.input_bytes == os.path.getsize(path) \
                and same_spec(rec):
            continue
        pending.append(path)

    fresh_done = 0
    in_flight: dict = {}
    queue = list(pending)
    aborted = False
    while queue or in_flight:
        while queue and len(in_flight) < max_in_flight:
            path = queue.pop()
            ref = _process_partition.remote(
                path, _partition_id_for(path), checkpoint_root, b,
                token_column, hash_name)
            in_flight[ref] = path
        ready, _ = ray.wait(list(in_flight), num_returns=1)
        for ref in ready:
            ray.get(ref)
            del in_flight[ref]
            fresh_done += 1
            if fail_after is not None and fresh_done >= fail_after:
                # simulate driver crash: abandon remaining work
                for pending_ref in in_flight:
                    ray.cancel(pending_ref, force=True)
                aborted = True
                in_flight = {}
                queue = []
                break

    wanted = {_partition_id_for(p) for p in input_files}
    # one closing read serves the merge AND the manifest, which still
    # counts every completed record in the store, stale ones included
    all_recs = store.completed()
    recs = {pid: r for pid, r in all_recs.items()
            if pid in wanted and same_spec(r)}
    if not aborted:
        # completeness gate (round-3 review fix): a lineage record written
        # to a worker-local (non-shared) checkpoint_root, or lost to a
        # failed write, previously just VANISHED from the merge and the job
        # returned a silently undercounted estimate. checkpoint_root must
        # be driver-visible shared storage; fail loudly when it isn't.
        missing = wanted - set(recs)
        if missing:
            raise RuntimeError(
                f"{len(missing)} processed partition(s) have no readable "
                f"lineage record under {checkpoint_root!r} (e.g. "
                f"{sorted(missing)[:3]}). The checkpoint_root must be on "
                "storage visible to the driver and every worker node.")
    merged = HyperLogLog(b=b, hash_name=hash_name)
    for r in recs.values():
        merged.merge(sketch_from_bytes("hll", r.sketch_blob(), hash_name))
    return {
        "distinct_tokens": merged.estimate(),
        "total_tokens": sum(r.token_count for r in recs.values()),
        "rows": sum(r.row_count for r in recs.values()),
        "n_partitions": len(recs),
        "n_fresh": fresh_done,
        "n_skipped": len(input_files) - len(pending),
        "aborted": aborted,
        "sketch": merged,
        "manifest": store.manifest(all_recs),
    }
