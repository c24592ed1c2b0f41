"""Sources & sinks.

Readers dispatch on format (parquet/csv/json) with column pruning where the
format supports it. Sinks write partitioned Parquet directories (never one
giant file) plus a tiny JSON manifest so a rerun can detect completed
outputs — the resumable-output layout described in SURVEY.md §4.
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..sketches.base import sketch_from_bytes


def read_table(path: str, *, format: str | None = None,
               columns: list[str] | None = None, **kwargs):
    """Read a Dataset from parquet (default), csv, or json files."""
    import ray.data

    fmt = format
    if fmt is None:
        name = path.rstrip("/").lower()
        if name.endswith(".csv"):
            fmt = "csv"
        elif name.endswith((".json", ".jsonl")):
            fmt = "json"
        else:
            fmt = "parquet"
    if fmt == "parquet":
        return ray.data.read_parquet(path, columns=columns, **kwargs)
    if fmt == "csv":
        ds = ray.data.read_csv(path, **kwargs)
    elif fmt == "json":
        ds = ray.data.read_json(path, **kwargs)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if columns:
        ds = ds.select_columns(columns)
    return ds


def write_partitioned(ds, path: str, *, min_rows_per_file: int = 100_000,
                      partition_cols: list[str] | None = None) -> dict:
    """Write a Dataset as a partitioned Parquet directory + _MANIFEST.json.

    ``partition_cols`` produces hive-style key directories (one directory per
    key value — the resumable/skippable output layout); otherwise a flat
    directory of part files. Atomic-ish: data files land first, the manifest
    last — a rerun treats a directory without a manifest as incomplete and
    rewrites it. Rewriting CLEANS the stale part files first: Ray names part
    files uniquely per run, so without the sweep a crashed attempt's
    partials would survive alongside the fresh files and silently DOUBLE
    rows in the rewritten output (they are unreferenced by any manifest,
    but globbed reads and the new manifest's os.walk would pick them up).
    """
    os.makedirs(path, exist_ok=True)
    # manifest goes first (a crash mid-rewrite must leave the directory
    # marked INCOMPLETE, never a stale manifest over fresh partial files)
    manifest_path = os.path.join(path, "_MANIFEST.json")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    stale = [os.path.join(root, f)
             for root, _, fs in os.walk(path)
             for f in fs if f.endswith(".parquet")]
    for p in stale:
        os.remove(p)
    kwargs = {}
    if partition_cols:
        kwargs["partition_cols"] = partition_cols
    try:
        ds.write_parquet(path, min_rows_per_file=min_rows_per_file, **kwargs)
    except TypeError:  # older Ray releases
        # the failed attempt may have written part files before raising
        # (Ray re-raises worker errors, so TypeError can surface after
        # tasks ran) — re-sweep so the retry's manifest can't include
        # stale partials
        for root, _, fs in os.walk(path):
            for f in fs:
                if f.endswith(".parquet"):
                    os.remove(os.path.join(root, f))
        ds.write_parquet(path, **kwargs)
    files = sorted(
        os.path.relpath(os.path.join(root, f), path)
        for root, _, fs in os.walk(path) for f in fs if f.endswith(".parquet"))
    manifest = {"n_files": len(files), "files": files}
    tmp = os.path.join(path, "_MANIFEST.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, manifest_path)
    return manifest


def is_complete_output(path: str) -> bool:
    return os.path.exists(os.path.join(path, "_MANIFEST.json"))


# ---------------------------------------------------------------------------
# result frames


def typed_frame(result, schema: dict) -> pd.DataFrame:
    """The package's one typed-result contract.

    ``result`` is a Ray Dataset, a DataFrame or None; ``schema`` maps each
    column name to a pandas dtype. A non-empty frame passes through
    untouched. An empty result — ``len(df) == 0``, including the
    COLUMN-LESS frame Ray's ``to_pandas()`` returns for an empty Dataset
    (zero blocks -> schema lost) — or None becomes the typed empty frame
    built from ``schema``, so an empty job is a normal typed state with
    the same columns as a non-empty one.
    """
    if result is not None and not isinstance(result, pd.DataFrame):
        result = result.to_pandas()
    if result is not None and len(result):
        return result
    return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in schema.items()})


# ---------------------------------------------------------------------------
# sketch-result tables


def write_sketch_results(merged: dict, path: str, *, kind: str,
                         key_name: str = "key") -> None:
    """Persist a keyed merge result (dict[key, (Sketch, n_added)]) as a
    Parquet table (key, kind, sketch blob, hash, estimate, n_added) — the
    reference's serializer round-trip (EP3) as a queryable results table.
    ``hash`` is each sketch's ``hash_name`` (null for kinds without one):
    the HLL v3 blob does not carry it."""
    keys = sorted(merged)
    sketches = [merged[k][0] for k in keys]
    tbl = pa.table({
        key_name: pa.array(keys),
        "kind": pa.array([kind] * len(keys)),
        "sketch": pa.array([sk.to_bytes() for sk in sketches],
                           type=pa.binary()),
        "hash": pa.array([getattr(sk, "hash_name", None) for sk in sketches],
                         type=pa.string()),
        "estimate": pa.array([getattr(sk, "estimate", lambda: None)()
                              for sk in sketches], type=pa.int64()),
        "n_added": pa.array([merged[k][1] for k in keys], type=pa.int64()),
    })
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)


def read_sketch_results(path: str, *, key_name: str = "key") -> dict:
    """Load a sketch-results table back into dict[key, (Sketch, n_added)] —
    sketches remain mergeable across job runs (incremental corpus updates).

    Each blob decodes through :func:`sketch_from_bytes` under the table's
    stored ``hash``, so a sketch comes back labelled with the hash it was
    built under, and merging it with sketches of another hash raises. A
    table written without the ``hash`` column decodes under the default
    rule (the blob's own hash, else the default)."""
    tbl = pq.read_table(path)
    hashes = (tbl["hash"].to_pylist() if "hash" in tbl.column_names
              else [None] * tbl.num_rows)
    return {key: (sketch_from_bytes(kind, blob, hash_name), n)
            for key, kind, blob, hash_name, n in zip(
                tbl[key_name].to_pylist(), tbl["kind"].to_pylist(),
                tbl["sketch"].to_pylist(), hashes,
                tbl["n_added"].to_pylist())}
