"""Ray Data stages that build partial sketches, and the combiner tree that
merges them.

The scale pattern (SURVEY.md §3/EP2, §7.3): a stateless-or-actor
``map_batches`` stage turns each Arrow batch into *tiny partial-sketch rows*
(one per key per batch, each <= 2^b bytes), so nothing heavier than
kilobyte-scale partials ever moves — never raw tokens. Over a Parquet read
the reference's one partial estimator per partition holds literally: the scan
that :func:`combine_partials` runs fuses the read into the partial stage, one
``ReadParquet->MapBatches(...)`` task per read task, so the read output never
enters the object store (unless the caller set ``override_num_blocks``).
:func:`combine_partials` then merges those rows over the blocks' object
refs: plain Ray tasks of ``fanout`` blocks each, with exactly one merged row
per key reaching the driver. Ray completes tasks in any order, which is safe
because the merge is associative and, for the register-max kinds,
commutative (reference CardinalityEstimator.cs:606-609; see
:func:`sketch_merge_aggregate` for the order-dependent kinds).
High-cardinality keys merge with ``groupby(key).aggregate`` over the
AggregateFn builders here instead.

This replaces the reference's Parallel.ForEach + batched PLINQ merge tree
(CardinalityEstimatorExtensions.cs:224-280,
ConcurrentCardinalityEstimator.cs:709-773): Ray's streaming executor runs the
partial stage, and plain Ray tasks run the merge tree.
"""

from __future__ import annotations

import copy

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..sketches import hashing
from ..sketches.base import Sketch
from ..sketches.hll import HyperLogLog


def build_sketch(kind: str, params: dict) -> Sketch:
    """Instantiate a registered sketch kind from a picklable spec."""
    return Sketch.REGISTRY[kind](**params)


def sketch_from_blob(kind: str, blob: bytes) -> Sketch:
    from ..sketches.base import sketch_from_bytes

    return sketch_from_bytes(kind, blob)


def _flatten_list_column(col, with_parents: bool = True):
    """(flat Arrow array, parent row indices as numpy) of a list column —
    the ONE owner of the null-element contract.

    Null ELEMENTS inside lists are dropped with parents kept aligned (SQL
    semantics — and critically, a single null would otherwise flip a
    numeric flat array to float64 on to_numpy, making every token in the
    batch hash via the 8-byte image instead of the 4-byte one and silently
    inflating distinct counts). Null LISTS contribute no elements (Arrow
    flatten skips them). With ``with_parents=False`` the parents are not
    computed and come back as None (callers that only need the values).
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = pc.list_flatten(col)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    valid = pc.is_valid(flat) if flat.null_count else None
    if valid is not None:
        flat = flat.filter(valid)
    if not with_parents:
        return flat, None
    parents = pc.list_parent_indices(col)
    if isinstance(parents, pa.ChunkedArray):
        parents = parents.combine_chunks()
    if valid is not None:
        parents = parents.filter(valid)
    return flat, parents.to_numpy(zero_copy_only=False)


def _flatten_tokens(batch: pa.Table, token_column: str,
                    with_parents: bool = True):
    """(flat int32 numpy values, parent row indices or None) of a
    list<int32> column — numpy view of :func:`_flatten_list_column` (see its
    docstring for the null contract)."""
    flat, parents = _flatten_list_column(batch[token_column], with_parents)
    return flat.to_numpy(zero_copy_only=False), parents


def _drop_null_keys(batch: pa.Table, key_column: str) -> pa.Table:
    """Rows with a null key are excluded from keyed sketch partials
    (documented divergence from SQL GROUP BY's null group — a null key
    would otherwise NaN-poison the dictionary-code sort in every keyed
    stage)."""
    col = batch[key_column]
    if col.null_count:
        batch = batch.filter(pc.is_valid(col))
    return batch


def _hash_column(batch: pa.Table, column: str, hash_name: str) -> np.ndarray:
    col = batch[column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) or \
            pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return hashing.hash_arrow_binary(col, hash_name)
    return hashing.hash_fixed_batch(col.to_numpy(zero_copy_only=False), hash_name)


class HllTokenPartials:
    """map_batches stage: tokens batch -> one partial-sketch row per key.

    Emits {key?, sketch: binary, n_added: int64}. With ``key_column=None``
    a single global partial row per batch. Designed as a callable class so
    ``map_batches(HllTokenPartials(...), concurrency=N)`` runs it in an actor
    pool where construction cost (none to speak of, but uniform with heavier
    stages) is paid once per actor.
    """

    def __init__(self, b: int = 14, *, token_column: str = "tokens",
                 key_column: str | None = None,
                 use_direct_counting: bool = True,
                 hash_name: str = hashing.DEFAULT_HASH,
                 progress_actor: str | None = None):
        self.b = b
        self.token_column = token_column
        self.key_column = key_column
        self.use_direct = use_direct_counting
        self.hash_name = hash_name
        # live-progress hook: name of a SharedSketch actor that receives each
        # partial blob fire-and-forget, so a running estimate can be polled
        # mid-scan (the reference's ConcurrentCardinalityEstimator use case)
        self.progress_actor = progress_actor
        self._progress_handle = None

    def _push_progress(self, blob: bytes) -> None:
        if self.progress_actor is None:
            return
        if self._progress_handle is None:
            import ray

            self._progress_handle = ray.get_actor(self.progress_actor)
        self._progress_handle.merge_blob.remote(blob)  # fire-and-forget

    def _new_sketch(self) -> HyperLogLog:
        return HyperLogLog(b=self.b, use_direct_counting=self.use_direct,
                           hash_name=self.hash_name)

    #: chunk size for the hash+add loop — keeps every temporary in L1/L2 so
    #: the bandwidth-bound vectorized passes don't hit DRAM under high
    #: concurrency. Round-2 re-measurement (interleaved best-of-5 to beat
    #: shared-VM noise): 8k wins at b=14 (53 vs 43 M tok/s/core) and b=16
    #: (56 vs 25 — the 64 KB register bank competes with 64k-element
    #: chunk temporaries for L2); whole-batch is ~2x slower than either
    CHUNK = 8192

    #: keyed-path strategy switch: at or below this many distinct keys per
    #: batch, per-key filter + chunked hash/add (L2-resident, no full-batch
    #: temporaries); above it, hash-once + argsort segmentation (per-key
    #: filters would cost O(n_keys * n_rows))
    FILTER_KEYED_MAX_KEYS = 64

    #: above this many tokens, collapse to UNIQUE values before hashing:
    #: duplicate tokens are register no-ops, and the unique sort on the
    #: narrow token dtype is cheaper than hashing + scattering the raw
    #: stream (measured 43-88ms -> 12ms on a driver-shape 958k-token Zipf
    #: int32 block). count_additions is restored to the RAW count after the
    #: adds so blobs stay bit-identical to the undeduped path (reference
    #: CountAdditions semantics count every add). Integer dtypes only.
    TOKEN_DEDUP_THRESHOLD = 1 << 15

    @classmethod
    def _dedup_tokens(cls, values: np.ndarray) -> np.ndarray:
        if (len(values) > cls.TOKEN_DEDUP_THRESHOLD
                and np.issubdtype(values.dtype, np.integer)):
            return np.unique(values)
        return values

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.key_column is not None:
            batch = _drop_null_keys(batch, self.key_column)
        if self.key_column is None:
            values, _ = _flatten_tokens(batch, self.token_column,
                                        with_parents=False)
            n_raw = len(values)
            values = self._dedup_tokens(values)
            sk = self._new_sketch()
            for lo in range(0, len(values), self.CHUNK):
                sk.add_hashes(
                    hashing.hash_fixed_batch(values[lo:lo + self.CHUNK],
                                             self.hash_name))
            sk.count_additions = n_raw
            blob = sk.to_bytes()
            self._push_progress(blob)
            return pa.table({
                "sketch": pa.array([blob], type=pa.binary()),
                "n_added": pa.array([n_raw], type=pa.int64()),
            })
        keys = batch[self.key_column]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        codes = pc.dictionary_encode(keys)
        key_values = codes.dictionary.to_pylist()
        if len(key_values) <= self.FILTER_KEYED_MAX_KEYS:
            # few keys (the by-source shape): process one key at a time —
            # filter its rows (pyarrow C++ gather of just that key's
            # tokens), then the same chunked hash+add loop the GLOBAL path
            # uses, so every hash temporary stays L2-resident. This skips
            # the full-batch uint64 hash buffer + stable argsort + gather
            # (three extra DRAM passes) of the many-keys path below —
            # which is what made keyed partials 2x slower per token than
            # global under 32-way concurrency on a bandwidth-bound box
            # (measured 58 -> 40 ms per 940k-token block single-core).
            out_keys, out_blobs, out_counts = [], [], []
            idx = codes.indices
            for code in range(len(key_values)):
                sub = batch.filter(pc.equal(idx, code))
                vals, _ = _flatten_tokens(sub, self.token_column,
                                          with_parents=False)
                n_raw = len(vals)
                vals = self._dedup_tokens(vals)
                sk = self._new_sketch()
                if len(vals) >= sk.m:
                    sk.reserve_dense()
                for lo in range(0, len(vals), self.CHUNK):
                    sk.add_hashes(hashing.hash_fixed_batch(
                        vals[lo:lo + self.CHUNK], self.hash_name))
                sk.count_additions = n_raw
                out_keys.append(key_values[code])
                out_blobs.append(sk.to_bytes())
                out_counts.append(n_raw)
            return pa.table({
                self.key_column: pa.array(out_keys, type=keys.type),
                "sketch": pa.array(out_blobs, type=pa.binary()),
                "n_added": pa.array(out_counts, type=pa.int64()),
            })
        # many keys: per-key row filters would cost O(n_keys * n_rows);
        # group tokens by key with one sort and walk the segments.
        values, parents = _flatten_tokens(batch, self.token_column)
        token_keys = codes.indices.to_numpy(zero_copy_only=False)[parents]
        raw_counts = np.bincount(token_keys, minlength=len(key_values)) \
            .astype(np.int64)
        if (len(values) > self.TOKEN_DEDUP_THRESHOLD
                and np.issubdtype(values.dtype, np.integer)):
            # dedup variant: one (key, value) lexsort replaces the
            # key-argsort AND collapses duplicates, so only unique
            # (key, token) pairs pay the hash pass (blob parity with the
            # raw path: registers unchanged, count_additions restored from
            # raw_counts below)
            order = np.lexsort((values, token_keys))
            tk_sorted = token_keys[order]
            v_sorted = values[order]
            keep = np.r_[True, (tk_sorted[1:] != tk_sorted[:-1])
                         | (v_sorted[1:] != v_sorted[:-1])] \
                if len(tk_sorted) else np.zeros(0, dtype=bool)
            tk_sorted = tk_sorted[keep]
            v_uniq = v_sorted[keep]
            h_sorted = np.empty(len(v_uniq), dtype=np.uint64)
            for lo in range(0, len(v_uniq), self.CHUNK):
                hi = min(lo + self.CHUNK, len(v_uniq))
                h_sorted[lo:hi] = hashing.hash_fixed_batch(
                    v_uniq[lo:hi], self.hash_name)
        else:
            h = np.empty(len(values), dtype=np.uint64)
            for lo in range(0, len(values), self.CHUNK):
                hi = min(lo + self.CHUNK, len(values))
                h[lo:hi] = hashing.hash_fixed_batch(values[lo:hi],
                                                    self.hash_name)
            order = np.argsort(token_keys, kind="stable")
            tk_sorted = token_keys[order]
            h_sorted = h[order]
        out_keys, out_blobs, out_counts = [], [], []
        present = set()
        if len(tk_sorted) == 0:
            bounds = np.array([0])  # no tokens: only the zero-token fill below
        else:
            bounds = np.r_[0, np.flatnonzero(np.diff(tk_sorted)) + 1,
                           len(tk_sorted)]
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            code = int(tk_sorted[lo])
            sk = self._new_sketch()
            if hi - lo >= sk.m:
                # register-bank-sized segment: the sketch would promote to
                # dense within a few chunks anyway — skip the sparse phase's
                # per-chunk dict merge (measured 0.24s -> 0.06s per 940k-token
                # block with 10 keys). `direct` exactness is unaffected.
                sk.reserve_dense()
            for c in range(lo, hi, self.CHUNK):
                sk.add_hashes(h_sorted[c:min(c + self.CHUNK, hi)])
            sk.count_additions = int(raw_counts[code])
            out_keys.append(key_values[code])
            out_blobs.append(sk.to_bytes())
            out_counts.append(int(raw_counts[code]))
            present.add(code)
        # keys whose docs had zero tokens still yield an (empty-sketch) row
        for code, key in enumerate(key_values):
            if code not in present:
                out_keys.append(key)
                out_blobs.append(self._new_sketch().to_bytes())
                out_counts.append(0)
        # key column emitted under the INPUT key type: a python-list
        # round-trip would re-infer int64 for int32 keys while the
        # fully-filtered path kept the original type, and the two block
        # schemas then fail to concatenate (round-3 review fix)
        return pa.table({
            self.key_column: pa.array(out_keys, type=keys.type),
            "sketch": pa.array(out_blobs, type=pa.binary()),
            "n_added": pa.array(out_counts, type=pa.int64()),
        })


class HllColumnPartials:
    """map_batches stage hashing a scalar column (e.g. doc_id) into partials.

    Same output shape as HllTokenPartials; counts distinct *rows* instead of
    distinct tokens.
    """

    def __init__(self, value_column: str, b: int = 14, *,
                 key_column: str | None = None,
                 use_direct_counting: bool = True,
                 hash_name: str = hashing.DEFAULT_HASH):
        self.value_column = value_column
        self.b = b
        self.key_column = key_column
        self.use_direct = use_direct_counting
        self.hash_name = hash_name

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.key_column is not None:
            batch = _drop_null_keys(batch, self.key_column)
        col = batch[self.value_column]
        if self.key_column is None:
            if col.null_count:
                # SQL COUNT(DISTINCT) semantics: null values are not
                # elements
                batch = batch.filter(pc.is_valid(col))
            if len(batch) == 0:
                return pa.table({
                    "sketch": pa.array([], type=pa.binary()),
                    "n_added": pa.array([], type=pa.int64()),
                })
            h = _hash_column(batch, self.value_column, self.hash_name)
            sk = HyperLogLog(b=self.b, use_direct_counting=self.use_direct,
                             hash_name=self.hash_name)
            sk.add_hashes(h)
            return pa.table({
                "sketch": pa.array([sk.to_bytes()], type=pa.binary()),
                "n_added": pa.array([len(h)], type=pa.int64()),
            })
        keys = batch[self.key_column]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        if len(batch) == 0:
            return pa.table({
                self.key_column: pa.array([], type=keys.type),
                "sketch": pa.array([], type=pa.binary()),
                "n_added": pa.array([], type=pa.int64()),
            })
        # null VALUES are not elements (SQL COUNT(DISTINCT)), but their
        # GROUPS still exist — a key whose values are all null emits an
        # (empty sketch, 0) row like GROUP BY does (round-4 session-9
        # review: this stage dropped such groups while its sibling
        # GenericSketchPartials kept them)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if col.null_count:
            valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
            vmask = pa.array(valid)
            h_valid = _hash_column(batch.filter(vmask), self.value_column,
                                   self.hash_name)
            h_all = np.zeros(len(batch), dtype=np.uint64)
            h_all[np.flatnonzero(valid)] = h_valid
        else:
            valid = np.ones(len(batch), dtype=bool)
            h_all = _hash_column(batch, self.value_column, self.hash_name)
        codes = pc.dictionary_encode(keys)
        key_values = codes.dictionary.to_pylist()
        row_codes = codes.indices.to_numpy(zero_copy_only=False)
        order = np.argsort(row_codes, kind="stable")
        rc_sorted = row_codes[order]
        h_sorted = h_all[order]
        v_sorted = valid[order]
        bounds = np.r_[0, np.flatnonzero(np.diff(rc_sorted)) + 1, len(rc_sorted)]
        out_keys, out_blobs, out_counts = [], [], []
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            m = v_sorted[lo:hi]
            sk = HyperLogLog(b=self.b, use_direct_counting=self.use_direct,
                             hash_name=self.hash_name)
            sk.add_hashes(h_sorted[lo:hi][m])
            out_keys.append(key_values[int(rc_sorted[lo])])
            out_blobs.append(sk.to_bytes())
            out_counts.append(int(m.sum()))
        # typed keys: must match the fully-filtered path's schema exactly
        return pa.table({
            self.key_column: pa.array(out_keys, type=keys.type),
            "sketch": pa.array(out_blobs, type=pa.binary()),
            "n_added": pa.array(out_counts, type=pa.int64()),
        })


def hll_merge_aggregate(b: int = 14, *, blob_column: str = "sketch",
                        hash_name: str = hashing.DEFAULT_HASH,
                        finalize_to: str = "estimate"):
    """Mergeable Ray AggregateFn over partial-sketch blob rows.

    Ray runs accumulate per block and merge across blocks/groups — exactly
    the reference's two-level merge tree (partial combine then final fold,
    ConcurrentCardinalityEstimator.cs:709-773), scheduled by the streaming
    executor. ``finalize_to``: "estimate" (int) or "sketch" (binary blob).
    """
    from ray.data.aggregate import AggregateFn

    def init(_key):
        return HyperLogLog(b=b, hash_name=hash_name).to_bytes()

    def accumulate_block(acc: bytes, block) -> bytes:
        sk = HyperLogLog.from_bytes(acc, hash_name)
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        for blob in tbl[blob_column]:
            sk.merge(HyperLogLog.from_bytes(blob.as_py(), hash_name))
        return sk.to_bytes()

    def merge(a: bytes, bb: bytes) -> bytes:
        sk = HyperLogLog.from_bytes(a, hash_name)
        sk.merge(HyperLogLog.from_bytes(bb, hash_name))
        return sk.to_bytes()

    def finalize(acc: bytes):
        if finalize_to == "sketch":
            return acc
        return HyperLogLog.from_bytes(acc, hash_name).estimate()

    return AggregateFn(
        init=init,
        merge=merge,
        accumulate_block=accumulate_block,
        finalize=finalize,
        name="hll" if finalize_to == "sketch" else "estimate",
    )


def sketch_merge_aggregate(kind: str, params: dict | None = None, *,
                           blob_column: str = "sketch",
                           finalize: "str | object" = "sketch",
                           name: str | None = None):
    """Generic mergeable Ray AggregateFn over partial-sketch blob rows for
    ANY registered sketch kind — the north-star's "all sketches as mergeable
    UDAFs" surface: ``ds.groupby(key).aggregate(sketch_merge_aggregate(
    "tdigest", {"delta": 200}, finalize=lambda sk: sk.quantile(0.5)))``.

    Accumulator = the sketch's own wire blob (kilobyte-scale), so Ray's
    groupby-aggregate tree-reduction ships sketches, never raw values —
    the same two-level merge shape the reference builds by hand with
    Parallel.ForEach + PLINQ (ConcurrentCardinalityEstimator.cs:709-773).

    ``finalize``: ``"sketch"`` → the merged wire blob (binary);
    ``"estimate"`` → ``sk.estimate()`` (kinds exposing it: hll, theta);
    or any callable ``sk -> scalar`` (cloudpickled into the reduce tasks).
    Merge-order caveat: hll/theta/countmin/bloom merges are exactly
    order-invariant; tdigest/kll/reservoir are order- or coin-dependent,
    so finalize those to values with published error bounds, not to blobs
    expected to be bit-stable across runs.
    """
    from ray.data.aggregate import AggregateFn

    params = dict(params or {})

    def init(_key):
        return build_sketch(kind, params).to_bytes()

    def accumulate_block(acc: bytes, block) -> bytes:
        sk = sketch_from_blob(kind, acc)
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        for blob in tbl[blob_column]:
            sk.merge(sketch_from_blob(kind, blob.as_py()))
        return sk.to_bytes()

    def merge(a: bytes, bb: bytes) -> bytes:
        sk = sketch_from_blob(kind, a)
        sk.merge(sketch_from_blob(kind, bb))
        return sk.to_bytes()

    def finalize_fn(acc: bytes):
        if finalize == "sketch":
            return acc
        sk = sketch_from_blob(kind, acc)
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


class GenericSketchPartials:
    """map_batches stage: build one partial sketch (any registered kind) per
    batch over a scalar column or an exploded list<...> column.

    Emits {sketch: binary, n_added: int64} (plus the key column when keyed).
    The sketch spec (kind + constructor params) is plain data, so the stage
    pickles cheaply into Ray tasks/actors.
    """

    CHUNK = 8192
    #: sketches fed whole batches instead of 8k chunks: count-min/bloom
    #: because their per-add state exceeds L2 anyway (chunking only
    #: multiplies passes over it), theta because one whole-batch add is
    #: one value-collapse + one trim instead of ~100 per-chunk re-trims
    #: (measured 34 -> 10 ms per driver-shape 958k-token block;
    #: KMV state is batching-invariant, asserted in tests)
    UNCHUNKED_KINDS = frozenset({"countmin", "bloom", "theta"})

    def __init__(self, kind: str, params: dict | None, value_column: str, *,
                 explode_list: bool = False, key_column: str | None = None):
        self.kind = kind
        self.params = dict(params or {})
        self.value_column = value_column
        self.explode_list = explode_list
        self.key_column = key_column
        if kind in self.UNCHUNKED_KINDS:
            self.CHUNK = 1 << 31

    def _new(self) -> Sketch:
        return build_sketch(self.kind, self.params)

    def _values(self, batch: pa.Table):
        if self.explode_list:
            col = batch[self.value_column]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            vt = col.type.value_type
            if pa.types.is_string(vt) or pa.types.is_binary(vt) or \
                    pa.types.is_large_string(vt) or \
                    pa.types.is_large_binary(vt):
                # string/binary elements stay ARROW for the zero-copy hash
                # path (round-3 review fix: .to_numpy() produced an object
                # array that crashed the fixed-width hash kernels)
                return _flatten_list_column(col)
            return _flatten_tokens(batch, self.value_column)
        col = batch[self.value_column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        if pa.types.is_string(t) or pa.types.is_binary(t) or \
                pa.types.is_large_string(t) or pa.types.is_large_binary(t):
            return col, None  # string columns stay Arrow (zero-copy hash path)
        return col.to_numpy(zero_copy_only=False), None

    def _add_chunked(self, sk: Sketch, values) -> None:
        if hasattr(sk, "reserve_dense") and len(values) >= getattr(sk, "m", 0):
            # register-bank-sized stream into a chunked HLL add: pre-promote
            # to dense so each chunk is a vectorized scatter-max, not a
            # sparse dict merge (storage-only hint; direct exactness kept)
            sk.reserve_dense()
        if isinstance(values, pa.Array):
            for lo in range(0, len(values), self.CHUNK):
                sk.add_arrow(values.slice(lo, self.CHUNK))
            return
        for lo in range(0, len(values), self.CHUNK):
            sk.add_values(values[lo:lo + self.CHUNK])

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.key_column is not None:
            batch = _drop_null_keys(batch, self.key_column)
        # keys present BEFORE the null-value row filter: a key whose values
        # are ALL null must still emit an (empty-sketch, n_added=0) row —
        # SQL keeps the group with COUNT(DISTINCT v) = 0, and the
        # HllTokenPartials zero-token path already does this (round-4
        # adversarial-sweep consistency fix)
        pre_filter_keys = None
        if self.key_column is not None:
            kc = batch[self.key_column]
            if isinstance(kc, pa.ChunkedArray):
                kc = kc.combine_chunks()
            pre_filter_keys = (kc.unique(), kc.type)
        if not self.explode_list:
            col = batch[self.value_column]
            if col.null_count:
                # SQL semantics: null values are not elements (the numpy
                # conversion would otherwise turn them into counted NaNs).
                # Filter whole rows so key alignment is preserved.
                batch = batch.filter(pc.is_valid(col))
        values, parents = self._values(batch)
        if self.key_column is None:
            sk = self._new()
            self._add_chunked(sk, values)
            return pa.table({
                "sketch": pa.array([sk.to_bytes()], type=pa.binary()),
                "n_added": pa.array([len(values)], type=pa.int64()),
            })
        keys = batch[self.key_column]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        codes = pc.dictionary_encode(keys)
        key_values = codes.dictionary.to_pylist()
        row_codes = codes.indices.to_numpy(zero_copy_only=False)
        value_codes = row_codes if parents is None else row_codes[parents]
        order = np.argsort(value_codes, kind="stable")
        vc_sorted = value_codes[order]
        if isinstance(values, pa.Array):
            v_sorted = values.take(pa.array(order))
        else:
            v_sorted = values[order]
        out_keys, out_blobs, out_counts = [], [], []
        if len(vc_sorted) == 0:
            bounds = np.array([0])
        else:
            bounds = np.r_[0, np.flatnonzero(np.diff(vc_sorted)) + 1,
                           len(vc_sorted)]
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            sk = self._new()
            self._add_chunked(sk, v_sorted[lo:hi])
            out_keys.append(key_values[int(vc_sorted[lo])])
            out_blobs.append(sk.to_bytes())
            out_counts.append(hi - lo)
        # keys seen before the null-value filter but absent from the value
        # segments (all values null / zero list elements) still emit an
        # empty-sketch row — SQL keeps the group at count 0
        if pre_filter_keys is not None:
            seen = set(out_keys)
            for key in pre_filter_keys[0].to_pylist():
                if key not in seen:
                    sk = self._new()
                    out_keys.append(key)
                    out_blobs.append(sk.to_bytes())
                    out_counts.append(0)
        # typed keys: must match the fully-filtered path's schema exactly
        return pa.table({
            self.key_column: pa.array(out_keys, type=keys.type),
            "sketch": pa.array(out_blobs, type=pa.binary()),
            "n_added": pa.array(out_counts, type=pa.int64()),
        })


def _decoder(kind: str, hash_name: str | None):
    """Blob -> sketch for ``kind``. ``hash_name`` labels rebuilt HLL
    sketches: the v3 HLL wire format does not carry its hash."""
    if kind == "hll":
        return lambda blob: HyperLogLog.from_bytes(blob, hash_name)
    return lambda blob: sketch_from_blob(kind, blob)


def _merge_block_fn(kind: str, key_column: str | None = None,
                    hash_name: str | None = None):
    """The kind's row merge: a table of partial rows in, one row per key out
    (one row when ``key_column`` is None, none for an empty table).

    The key column keeps the INPUT's type: an untyped ``pa.array(keys)``
    infers null for an empty table and int64 for int32 keys, and sibling
    outputs would then no longer concatenate."""
    decode = _decoder(kind, hash_name)

    def merge_block(tbl: pa.Table) -> pa.Table:
        keys = (tbl[key_column].to_pylist() if key_column is not None
                else [None] * tbl.num_rows)
        acc: dict = {}
        counts: dict = {}
        for k, blob, n in zip(keys, tbl["sketch"].to_pylist(),
                              tbl["n_added"].to_pylist()):
            sk = decode(blob)
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


def _scan_copy(ds):
    """The copy of ``ds`` that :func:`combine_partials` executes: its
    executor runs one CPU short, and a Parquet read fuses into the partial
    stage. The caller's Dataset and logical plan are never touched.

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

    cpus = int(ray.cluster_resources().get("CPU", 0))
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
        return ds

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
    return type(ds)(plan, LogicalPlan(dag, plan._context))


@ray.remote(num_cpus=1)
def _merge_task(merge_fn, *tables: pa.Table) -> pa.Table:
    """One node of the combiner tree: concatenate, then row-merge."""
    return merge_fn(pa.concat_tables(tables, promote_options="permissive"))


def combine_partials(partials_ds, merge_fn, *,
                     fanout: int = 64) -> tuple[pa.Table | None, int]:
    """The merge primitive: a combiner tree over the object refs of a
    partial stage's output blocks (the reference's batched merge tree,
    ConcurrentCardinalityEstimator.cs:709-773, with a parameter fan-in).

    The scan runs on :func:`_scan_copy` of ``partials_ds``: one CPU is left
    to the merges, and a Parquet read with automatic parallelism fuses into
    the partial stage (one partial block per read task instead of Ray's
    split blocks). ``partials_ds`` and its plan are left as they are. The
    block refs stream in as the executor produces them
    (``iter_internal_ref_bundles``); blocks with no rows are skipped. Every
    ``fanout`` pending refs go to one plain ``num_cpus=1`` merge task that
    concatenates them and applies ``merge_fn`` (one row per key out), and
    its output ref rejoins the pending list. When the stream ends, one last
    merge task takes what is pending unless that is already a single merge
    output. The merges are ordinary tasks, not Ray Data operators, so the
    executor cannot fuse them onto the partial stage, and exactly one merged
    table — one row per key — reaches the driver whatever the number of
    blocks. Driver state is at most ``fanout`` refs plus that table.

    Merge tasks are pure functions of their inputs, so Ray's task retry
    after a worker death reproduces them exactly.

    Returns (merged table, or None when no block had rows; merge tasks run).
    """
    if fanout < 2:
        raise ValueError(f"fanout must be >= 2, got {fanout}")
    pending: list = []
    n_tasks = 0
    partials_ds = _scan_copy(partials_ds)
    for bundle in partials_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows == 0:
                continue
            pending.append(ref)
            if len(pending) == fanout:
                pending = [_merge_task.remote(merge_fn, *pending)]
                n_tasks += 1
    if not pending:
        return None, n_tasks
    if len(pending) > 1 or n_tasks == 0:
        pending = [_merge_task.remote(merge_fn, *pending)]
        n_tasks += 1
    return ray.get(pending[0]), n_tasks


def tree_merge_partials(partials_ds, kind: str, *,
                        key_column: str | None = None,
                        hash_name: str | None = None, fanout: int = 64):
    """Merge a partial stage's rows with :func:`combine_partials` and decode
    the one merged row per key on the driver. No all-to-all anywhere.

    Global (``key_column=None``): returns (merged sketch | None, total
    n_added). Keyed: returns ``dict[key, (sketch, n_added)]``. Every merge
    task and the driver hold one sketch per key, so the keyed form is for
    LOW-cardinality keys (sources, languages, shards); high-cardinality keys
    belong in ``groupby(key).aggregate(sketch_merge_aggregate(...))``, which
    hash-partitions the merge itself."""
    table, _ = combine_partials(
        partials_ds, _merge_block_fn(kind, key_column, hash_name),
        fanout=fanout)
    decode = _decoder(kind, hash_name)
    if key_column is None:
        if table is None or table.num_rows == 0:
            return None, 0
        return decode(table["sketch"][0].as_py()), table["n_added"][0].as_py()
    if table is None:
        return {}
    return {k: (decode(blob), n)
            for k, blob, n in zip(table[key_column].to_pylist(),
                                  table["sketch"].to_pylist(),
                                  table["n_added"].to_pylist())}
