"""Bottom-k (KMV) theta sketch — distinct counting WITH set-expression
support (intersection / difference), the operation HLL structurally cannot
sketch (SURVEY.md §2.7: reference Merge is union-only; intersections fall
back to inclusion–exclusion with unbounded relative error).

Classic K-Minimum-Values / theta-sketch construction (Bar-Yossef et al.
2002; Dasgupta et al., "Theta sketch framework", 2016 — published work; the
reference repo contains no analogue):

- retain the k smallest distinct 64-bit hashes below a threshold theta
  (theta = 1.0 until k is exceeded, then the (k+1)-th smallest normalized
  hash);
- estimate |A| = (len(retained)) / theta  (exact while theta == 1.0);
- union: merge retained sets under min(theta_a, theta_b), re-trim to k;
- intersection: the retained samples below min(theta_a, theta_b) are
  uniform samples of each set, so |A ∩ B| ≈ |retained_A ∩ retained_B| /
  theta — a DIRECT estimate whose relative error stays bounded by the
  sample size, unlike inclusion–exclusion.

Relative standard error ≈ 1/sqrt(k-1) for the union-style estimates.

Exact regime: while a sketch has never trimmed (theta == 1.0) it holds the
full distinct hash set, so counts and set ops are exact — mirrors the
reference's direct-count mode and gives the driver an oracle-checkable
regime.
"""

from __future__ import annotations

import struct

import numpy as np

from . import hashing
from .base import Sketch

_MAGIC = b"THE1"  # legacy: no embedded hash name
_MAGIC_V2 = b"THE2"  # adds the hash-name field (hashing.pack_hash_name)
_U64_SPAN = float(1 << 64)


class ThetaSketch(Sketch):
    kind = "theta"

    __slots__ = ("k", "theta64", "retained", "hash_name")

    def __init__(self, k: int = 4096, *,
                 hash_name: str = hashing.DEFAULT_HASH):
        if k < 16:
            raise ValueError(f"k must be >= 16, got {k}")
        self.k = k
        # threshold as a raw uint64 bound (exclusive); 2^64 == "no trim yet",
        # stored as 0 sentinel is ambiguous so keep python int
        self.theta64: int = 1 << 64
        self.retained = np.empty(0, dtype=np.uint64)
        self.hash_name = hashing.check_hash_name(hash_name)

    # ------------------------------------------------------------------

    @property
    def theta(self) -> float:
        return self.theta64 / _U64_SPAN

    def _trim(self, values: np.ndarray) -> None:
        """Keep distinct values < theta; if more than k survive, keep the k
        smallest and lower theta to the (k+1)-th smallest."""
        values = np.unique(values)  # sorted distinct
        if self.theta64 < (1 << 64):
            values = values[values < np.uint64(self.theta64)]
        if len(values) > self.k:
            self.theta64 = int(values[self.k])
            values = values[:self.k]
        self.retained = values

    def add_hashes(self, h: np.ndarray) -> None:
        h = np.ascontiguousarray(h, dtype=np.uint64)
        self._trim(np.concatenate([self.retained, h]))

    #: above this many elements, collapse integer batches to unique values
    #: before hashing (:meth:`Sketch._collapse_ints`): KMV keeps distinct
    #: hashes only, so duplicates are no-ops, deduplicating the narrow value
    #: dtype is cheaper than _trim's u64 unique over the raw hash stream,
    #: and only uniques pay the hash pass. Worst case (all-unique input)
    #: adds one narrow pass of the same order as the u64 sort it shrinks —
    #: a wash.
    UNIQUE_COLLAPSE_THRESHOLD = 1 << 15

    def add_values(self, values: np.ndarray) -> None:
        values = self._collapse_ints(np.asarray(values))
        self.add_hashes(hashing.hash_fixed_batch(values, self.hash_name))

    # add_arrow: inherited from Sketch (one copy of the
    # string-vs-numeric dispatch lives on the base class)

    # ------------------------------------------------------------------

    def estimate(self) -> int:
        if self.theta64 >= (1 << 64):
            return len(self.retained)  # exact: nothing was ever trimmed
        return int(round(len(self.retained) / self.theta))

    def is_exact(self) -> bool:
        return self.theta64 >= (1 << 64)

    def merge(self, other: "ThetaSketch") -> "ThetaSketch":
        if other.k != self.k:
            raise ValueError("cannot merge theta sketches with different k")
        if other.hash_name != self.hash_name:
            raise ValueError("cannot merge theta sketches with different hash")
        self.theta64 = min(self.theta64, other.theta64)
        self._trim(np.concatenate([self.retained, other.retained]))
        return self

    def copy(self) -> "ThetaSketch":
        out = ThetaSketch(self.k, hash_name=self.hash_name)
        out.theta64 = self.theta64
        out.retained = self.retained.copy()
        return out

    # ------------------------------------------------------------------
    # set expressions

    @staticmethod
    def _common_theta(a: "ThetaSketch", b: "ThetaSketch") -> int:
        # same compatibility contract as merge() (round-2 ADVICE fix: the
        # set-expression helpers silently returned near-zero intersections
        # for sketches built under different hashes instead of raising)
        if a.k != b.k:
            raise ValueError("cannot combine theta sketches with different k")
        if a.hash_name != b.hash_name:
            raise ValueError(
                "cannot combine theta sketches with different hash")
        return min(a.theta64, b.theta64)

    @staticmethod
    def intersection_estimate(a: "ThetaSketch", b: "ThetaSketch") -> int:
        t64 = ThetaSketch._common_theta(a, b)
        bound = np.uint64(t64) if t64 < (1 << 64) else None
        ra = a.retained if bound is None else a.retained[a.retained < bound]
        rb = b.retained if bound is None else b.retained[b.retained < bound]
        common = len(np.intersect1d(ra, rb, assume_unique=True))
        if t64 >= (1 << 64):
            return common  # both exact
        return int(round(common / (t64 / _U64_SPAN)))

    @staticmethod
    def union_estimate(a: "ThetaSketch", b: "ThetaSketch") -> int:
        return a.copy().merge(b).estimate()

    @staticmethod
    def difference_estimate(a: "ThetaSketch", b: "ThetaSketch") -> int:
        """|A \\ B| — directly from the samples (not inclusion–exclusion)."""
        t64 = ThetaSketch._common_theta(a, b)
        bound = np.uint64(t64) if t64 < (1 << 64) else None
        ra = a.retained if bound is None else a.retained[a.retained < bound]
        rb = b.retained if bound is None else b.retained[b.retained < bound]
        only_a = len(np.setdiff1d(ra, rb, assume_unique=True))
        if t64 >= (1 << 64):
            return only_a
        return int(round(only_a / (t64 / _U64_SPAN)))

    @staticmethod
    def jaccard_estimate(a: "ThetaSketch", b: "ThetaSketch") -> float:
        t64 = ThetaSketch._common_theta(a, b)
        bound = np.uint64(t64) if t64 < (1 << 64) else None
        ra = a.retained if bound is None else a.retained[a.retained < bound]
        rb = b.retained if bound is None else b.retained[b.retained < bound]
        union = len(np.union1d(ra, rb))
        if union == 0:
            return 1.0
        return len(np.intersect1d(ra, rb, assume_unique=True)) / union

    def rse(self) -> float:
        """Relative standard error bound ~ 1/sqrt(k-1)."""
        return 1.0 / np.sqrt(self.k - 1)

    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        # theta64 == 2^64 encoded as 0 (no value can reach it as a bound).
        # THE2 embeds the hash name (round-2 ADVICE fix: generic tree merges
        # rebuilt custom-hash theta sketches as DEFAULT_HASH, mistagging
        # them); THE1 blobs (the same header without the hash field) remain
        # readable.
        t = 0 if self.theta64 >= (1 << 64) else self.theta64
        return (_MAGIC_V2
                + struct.pack("<IQQ", self.k, t, len(self.retained))
                + hashing.pack_hash_name(self.hash_name)
                + self.retained.tobytes())

    @classmethod
    def from_bytes(cls, blob: bytes,
                   hash_name: str | None = None) -> "ThetaSketch":
        magic = blob[:4]
        if magic not in (_MAGIC, _MAGIC_V2):
            raise ValueError("invalid theta blob: bad magic")
        try:
            k, t, cnt = struct.unpack_from("<IQQ", blob, 4)
        except struct.error as e:
            raise ValueError(f"truncated theta blob: {e}") from None
        off = 4 + struct.calcsize("<IQQ")
        if magic == _MAGIC_V2:
            hash_name, off = hashing.unpack_hash_name(blob, off, hash_name,
                                                      "theta")
        if k < 16 or cnt > k:
            raise ValueError(f"invalid theta blob: k={k} cnt={cnt}")
        if len(blob) - off != cnt * 8:
            raise ValueError(
                f"invalid theta blob: expected {cnt * 8} payload bytes, "
                f"got {len(blob) - off}")
        out = cls(k, hash_name=hash_name or hashing.DEFAULT_HASH)
        out.theta64 = (1 << 64) if t == 0 else t
        out.retained = np.frombuffer(blob, dtype=np.uint64, count=cnt,
                                     offset=off).copy()
        if out.theta64 < (1 << 64) and len(out.retained) and \
                int(out.retained.max()) >= out.theta64:
            raise ValueError("invalid theta blob: retained value >= theta")
        if len(out.retained) > 1 and \
                not bool(np.all(out.retained[1:] > out.retained[:-1])):
            # set-expression kernels rely on assume_unique sorted samples
            raise ValueError(
                "invalid theta blob: retained hashes must be strictly "
                "increasing")
        return out
