"""Sketch ABC + registry.

Every sketch kind plugs into the same Ray Data scaffold (partial sketch per
batch inside ``map_batches`` → associative merge in a tiny reduce stage) via
this interface, mirroring the reference's user-extension surface
(/root/reference/CardinalityEstimation/ICardinalityEstimator.cs:32-58 and the
pluggable hash delegates at CardinalityEstimator.cs:39-46).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
import pyarrow as pa


class Sketch(ABC):
    """A mergeable, serializable sketch over a stream of elements."""

    __slots__ = ()

    #: registry of sketch kinds: name -> class
    REGISTRY: dict[str, type["Sketch"]] = {}

    kind: str = "abstract"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if getattr(cls, "kind", None) and cls.kind != "abstract":
            Sketch.REGISTRY[cls.kind] = cls

    # --- update -------------------------------------------------------
    @abstractmethod
    def add_values(self, values: np.ndarray) -> None:
        """Vectorized add of a numpy array of elements."""

    @staticmethod
    def _drop_nulls(arr: pa.Array) -> pa.Array:
        """SQL semantics: nulls are not elements (shared by every kind —
        without this, numpy conversion silently turns nulls into counted
        NaNs)."""
        return arr.drop_null() if arr.null_count else arr

    def _collapse_ints(self, values: np.ndarray, return_counts=False):
        """The ONE unique-collapse of integer batches: an integer batch
        longer than the kind's ``UNIQUE_COLLAPSE_THRESHOLD`` becomes its
        sorted distinct values in the input dtype — exactly ``np.unique``'s
        output, so hashes, state and blobs match the raw path. HLL, theta
        and Bloom ignore duplicates; count-min takes the counted form
        (``return_counts=True``: (values, counts), counts None when the
        batch passes through). Non-negative values with ``max <= 8 * len``
        take a presence bitmap (scatter + flatnonzero, no sort; the bool
        bitmap is never larger than the intp index copy the scatter makes),
        or ``np.bincount`` + flatnonzero when counted; any other span sorts.
        Other dtypes pass through (np.unique equates NaNs that hash
        apart)."""
        n = len(values)
        if n <= self.UNIQUE_COLLAPSE_THRESHOLD \
                or not np.issubdtype(values.dtype, np.integer):
            return (values, None) if return_counts else values
        hi = int(values.max())
        if hi <= 8 * n and int(values.min()) >= 0:
            if return_counts:
                counts = np.bincount(values.astype(np.intp, copy=False))
                seen = np.flatnonzero(counts)
                return seen.astype(values.dtype, copy=False), counts[seen]
            seen = np.zeros(hi + 1, dtype=bool)
            seen[values] = True
            return np.flatnonzero(seen).astype(values.dtype, copy=False)
        return np.unique(values, return_counts=return_counts)

    def add_arrow(self, arr: pa.Array | pa.ChunkedArray) -> None:
        """Add an Arrow array — the ONE copy of the string-vs-numeric
        dispatch (round-4 session-9 review: four sketches carried identical
        bodies). String/binary columns hash via the zero-copy buffer path
        with the sketch's own ``hash_name`` (requires ``add_hashes``);
        numeric columns go through ``add_values`` via numpy conversion.
        Nulls are skipped (SQL semantics) in both paths."""
        if isinstance(arr, pa.ChunkedArray):
            for chunk in arr.chunks:
                self.add_arrow(chunk)
            return
        arr = self._drop_nulls(arr)
        t = arr.type
        if pa.types.is_string(t) or pa.types.is_binary(t) or \
                pa.types.is_large_string(t) or pa.types.is_large_binary(t):
            from . import hashing

            self.add_hashes(hashing.hash_arrow_binary(
                arr, getattr(self, "hash_name", hashing.DEFAULT_HASH)))
        else:
            self.add_values(arr.to_numpy(zero_copy_only=False))

    # --- merge / query ------------------------------------------------
    @abstractmethod
    def merge(self, other: "Sketch") -> "Sketch":
        """In-place associative, commutative union merge."""

    # --- wire ---------------------------------------------------------
    @abstractmethod
    def to_bytes(self) -> bytes: ...

    @classmethod
    @abstractmethod
    def from_bytes(cls, blob: bytes) -> "Sketch": ...


def sketch_from_bytes(kind: str, blob: bytes,
                      hash_name: str | None = None) -> Sketch:
    """The one decode rule for a ``kind`` blob. The reference requires every
    sketch in a merge or a deserialize to share the hash (SURVEY.md §1.1),
    and its v3 HLL blob does not carry it, so the caller states it:

    - a blob that names its hash (BLM2, CMS2, THE2) is labelled with that
      hash, and raises "built under hash" when ``hash_name`` differs;
    - a blob that names none (HLL v3, BLM1, CMS1, THE1) takes
      ``hash_name``, else the default hash.

    Kinds without a hash (KLL, t-digest, the samplers) take no
    ``hash_name``: pass None for them."""
    cls = Sketch.REGISTRY[kind]
    if hash_name is None:
        return cls.from_bytes(blob)
    return cls.from_bytes(blob, hash_name)
