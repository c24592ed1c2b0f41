"""F6 checkpoint/resume fixtures: kill after j partitions, resume from the
lineage manifest, final merged result must equal the uninterrupted run."""

import glob
import os

import numpy as np
import pytest


@pytest.fixture(scope="module")
def corpus_files(ray_session, tmp_path_factory):
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    from cardinalityestimation_ray.sources.corpus import write_synthetic_corpus

    path = str(tmp_path_factory.mktemp("ckpt_corpus"))
    write_synthetic_corpus(path, 4000, docs_per_block=500)
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    assert len(files) >= 6
    return files


def test_uninterrupted_run_and_idempotent_rerun(corpus_files, tmp_path):
    from cardinalityestimation_ray.state.checkpoint import (
        resumable_distinct_tokens,
    )

    ckpt = str(tmp_path / "ckpt_a")
    res = resumable_distinct_tokens(corpus_files, ckpt, b=14)
    assert res["n_partitions"] == len(corpus_files)
    assert res["rows"] == 4000
    assert res["n_skipped"] == 0 and not res["aborted"]

    # second run: everything skipped, identical result
    res2 = resumable_distinct_tokens(corpus_files, ckpt, b=14)
    assert res2["n_fresh"] == 0
    assert res2["n_skipped"] == len(corpus_files)
    assert res2["distinct_tokens"] == res["distinct_tokens"]
    assert np.array_equal(res2["sketch"].registers(), res["sketch"].registers())


def test_kill_and_resume_equals_uninterrupted(corpus_files, tmp_path):
    from cardinalityestimation_ray.state.checkpoint import (
        CheckpointStore,
        resumable_distinct_tokens,
    )

    ckpt_full = str(tmp_path / "full")
    full = resumable_distinct_tokens(corpus_files, ckpt_full, b=12)

    ckpt = str(tmp_path / "crash")
    crashed = resumable_distinct_tokens(corpus_files, ckpt, b=12, fail_after=2,
                                        max_in_flight=2)
    assert crashed["aborted"]
    n_done = len(CheckpointStore(ckpt).completed())
    assert 2 <= n_done < len(corpus_files)

    resumed = resumable_distinct_tokens(corpus_files, ckpt, b=12)
    assert not resumed["aborted"]
    assert resumed["n_skipped"] == n_done
    assert resumed["n_partitions"] == len(corpus_files)
    # bit-identical final state vs the uninterrupted run
    assert np.array_equal(resumed["sketch"].registers(),
                          full["sketch"].registers())
    assert resumed["total_tokens"] == full["total_tokens"]
    assert resumed["rows"] == full["rows"]


def test_changed_input_invalidates_partition(corpus_files, tmp_path):
    import shutil

    from cardinalityestimation_ray.state.checkpoint import (
        resumable_distinct_tokens,
    )

    # copy corpus so we can mutate one file
    work = tmp_path / "mutable"
    work.mkdir()
    files = []
    for f in corpus_files:
        dst = str(work / os.path.basename(f))
        shutil.copy(f, dst)
        files.append(dst)
    ckpt = str(tmp_path / "ckpt_m")
    resumable_distinct_tokens(files, ckpt, b=12)

    # rewrite one file with fewer rows -> size changes -> that partition's
    # record is invalidated and exactly that file is reprocessed
    import pyarrow.parquet as pq

    tbl = pq.read_table(files[0])
    pq.write_table(tbl.slice(0, tbl.num_rows // 2), files[0])
    res = resumable_distinct_tokens(files, ckpt, b=12)
    assert res["n_fresh"] == 1
    assert res["n_skipped"] == len(files) - 1


def test_different_b_invalidates(corpus_files, tmp_path):
    from cardinalityestimation_ray.state.checkpoint import (
        resumable_distinct_tokens,
    )

    ckpt = str(tmp_path / "ckpt_b")
    resumable_distinct_tokens(corpus_files[:2], ckpt, b=12)
    res = resumable_distinct_tokens(corpus_files[:2], ckpt, b=14)
    assert res["n_fresh"] == 2  # different precision -> recompute


def test_corrupt_partition_fails_cleanly_then_resumes(corpus_files, tmp_path):
    """A corrupted input partition fails the job loudly; completed partitions
    keep their lineage records, and after restoring the file the rerun only
    processes what is missing."""
    import shutil

    from cardinalityestimation_ray.state.checkpoint import (
        CheckpointStore,
        resumable_distinct_tokens,
    )

    work = tmp_path / "mutable2"
    work.mkdir()
    files = []
    for f in corpus_files:
        dst = str(work / os.path.basename(f))
        shutil.copy(f, dst)
        files.append(dst)

    # the scheduler pops the pending queue from its tail, so corrupt the
    # FIRST (sorted) partition — it is processed last and the rest complete
    backup = files[0] + ".bak"
    shutil.copy(files[0], backup)
    with open(files[0], "wb") as f:
        f.write(b"not a parquet file")

    ckpt = str(tmp_path / "ckpt_corrupt")
    with pytest.raises(Exception):
        resumable_distinct_tokens(files, ckpt, b=12, max_in_flight=1)
    done_after_crash = len(CheckpointStore(ckpt).completed())
    assert 0 < done_after_crash < len(files)

    shutil.copy(backup, files[0])
    res = resumable_distinct_tokens(files, ckpt, b=12)
    assert res["n_partitions"] == len(files)
    assert res["n_skipped"] == done_after_crash


def test_removed_input_file_not_merged_from_stale_records(corpus_files, tmp_path):
    """Round-1 ADVICE fix: resume merges only records for the CURRENT
    input_files; dropping a file from the job must drop its partition."""
    from cardinalityestimation_ray.state.checkpoint import (
        resumable_distinct_tokens,
    )

    ckpt = str(tmp_path / "stale")
    full = resumable_distinct_tokens(corpus_files, ckpt, b=14)
    subset = corpus_files[:-2]
    res = resumable_distinct_tokens(subset, ckpt, b=14)
    assert res["n_partitions"] == len(subset)
    assert res["n_fresh"] == 0  # all subset records reused
    assert res["rows"] < full["rows"]

    # direct run on the subset in a fresh store must agree exactly
    fresh = resumable_distinct_tokens(subset, str(tmp_path / "fresh"), b=14)
    assert res["distinct_tokens"] == fresh["distinct_tokens"]
    assert res["rows"] == fresh["rows"]


def test_hash_change_forces_reprocess(corpus_files, tmp_path):
    """Round-1 ADVICE fix: a checkpoint written under hash A must not be
    merged into a job running hash B."""
    from cardinalityestimation_ray.state.checkpoint import (
        resumable_distinct_tokens,
    )

    ckpt = str(tmp_path / "hashswap")
    a = resumable_distinct_tokens(corpus_files, ckpt, b=14,
                                  hash_name="fnv1a_mix")
    b_run = resumable_distinct_tokens(corpus_files, ckpt, b=14,
                                      hash_name="fnv1a")
    assert b_run["n_skipped"] == 0  # nothing reused across hash functions
    assert b_run["n_fresh"] == len(corpus_files)

    # and the re-run result matches a clean run under the new hash
    clean = resumable_distinct_tokens(corpus_files, str(tmp_path / "clean"),
                                      b=14, hash_name="fnv1a")
    assert b_run["distinct_tokens"] == clean["distinct_tokens"]


def test_same_basename_different_dirs_distinct_partitions(tmp_path, ray_session):
    """Round-1 ADVICE fix: partition id includes a path digest so two files
    named block_0.parquet in different directories don't share a record."""
    from cardinalityestimation_ray.sources.corpus import write_synthetic_corpus
    from cardinalityestimation_ray.state.checkpoint import (
        _partition_id_for, resumable_distinct_tokens,
    )

    import shutil

    d1 = str(tmp_path / "a"); d2 = str(tmp_path / "b")
    from cardinalityestimation_ray.sources.corpus import CorpusConfig
    write_synthetic_corpus(d1, 300, CorpusConfig(seed=1), docs_per_block=300)
    write_synthetic_corpus(d2, 300, CorpusConfig(seed=2), docs_per_block=300)
    src1 = sorted(glob.glob(os.path.join(d1, "*.parquet")))[0]
    src2 = sorted(glob.glob(os.path.join(d2, "*.parquet")))[0]
    f1 = os.path.join(d1, "block.parquet"); f2 = os.path.join(d2, "block.parquet")
    os.replace(src1, f1); os.replace(src2, f2)
    assert os.path.basename(f1) == os.path.basename(f2)
    assert _partition_id_for(f1) != _partition_id_for(f2)

    ckpt = str(tmp_path / "ckpt")
    res = resumable_distinct_tokens([f1, f2], ckpt, b=14)
    assert res["n_partitions"] == 2
    assert res["rows"] == 600


def test_relative_paths_resolve_on_driver(corpus_files, tmp_path, monkeypatch):
    """Round-2 ADVICE fix: partition ids are computed on the DRIVER from
    driver-resolved absolute paths, so a relative input path produces the
    same lineage record as its absolute form (workers must not re-resolve
    against their own cwd)."""
    from cardinalityestimation_ray.state.checkpoint import (
        resumable_distinct_tokens,
    )

    ckpt = str(tmp_path / "relpath")
    target = corpus_files[0]
    monkeypatch.chdir(os.path.dirname(target))
    rel = os.path.basename(target)
    first = resumable_distinct_tokens([rel], ckpt, b=14)
    assert first["n_partitions"] == 1
    assert first["n_fresh"] == 1
    # absolute-path rerun reuses the SAME record (no reprocess, no drop)
    second = resumable_distinct_tokens([target], ckpt, b=14)
    assert second["n_fresh"] == 0
    assert second["n_skipped"] == 1
    assert second["distinct_tokens"] == first["distinct_tokens"]


def test_records_read_twice_and_manifest_counts_stale(corpus_files, tmp_path,
                                                      monkeypatch):
    """One call reads every lineage record twice — once to plan, once to
    merge — and builds the manifest from the closing read. The manifest
    still counts every completed record in the store, stale records of
    inputs dropped from the job included, so it equals a fresh read."""
    from cardinalityestimation_ray.state.checkpoint import (
        CheckpointStore,
        resumable_distinct_tokens,
    )

    ckpt = str(tmp_path / "reads")
    resumable_distinct_tokens(corpus_files, ckpt, b=14)
    subset = corpus_files[:-2]
    reads = []
    original = CheckpointStore.read

    def counting_read(self, partition_id):
        reads.append(partition_id)
        return original(self, partition_id)

    monkeypatch.setattr(CheckpointStore, "read", counting_read)
    res = resumable_distinct_tokens(subset, ckpt, b=14)
    assert len(reads) == 2 * len(corpus_files)
    assert res["n_partitions"] == len(subset)
    monkeypatch.undo()
    assert res["manifest"] == CheckpointStore(ckpt).manifest()
    assert res["manifest"]["n_partitions"] == len(corpus_files)
    assert res["manifest"]["rows"] > res["rows"]


def test_task_function_registered_once(corpus_files, tmp_path, monkeypatch):
    """The per-partition task is a module-level remote function: a second
    job call registers nothing (``ray.remote`` raising does not stop it)
    and gives the same registers."""
    import ray

    from cardinalityestimation_ray.state.checkpoint import (
        resumable_distinct_tokens,
    )

    first = resumable_distinct_tokens(corpus_files, str(tmp_path / "a"), b=14)

    def no_remote(*args, **kwargs):
        raise AssertionError("ray.remote called during a job")

    monkeypatch.setattr(ray, "remote", no_remote)
    second = resumable_distinct_tokens(corpus_files, str(tmp_path / "b"),
                                       b=14)
    assert second["n_fresh"] == len(corpus_files)
    assert np.array_equal(second["sketch"].registers(),
                          first["sketch"].registers())
