"""Count-min sketch (Cormode & Muthukrishnan 2005), batch-vectorized.

Listed by the reference only as future roadmap (ROADMAP.md:169-172); built
from the published paper. Point-query overestimate <= eps * N with
probability >= 1 - delta for width >= e/eps, depth >= ln(1/delta).

Row hashes derive from one 64-bit base hash via Kirsch–Mitzenmacher double
hashing (h1 + i*h2), so a batch costs one full hash pass plus `depth`
cheap mix+mask passes and `depth` bincounts. Merge = elementwise add
(commutative/associative — safe under Ray's unordered reduce).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import hashing
from .base import Sketch

_U64 = np.uint64
_MAGIC = b"CMS1"   # legacy: no embedded hash name (read-only)
_MAGIC_V2 = b"CMS2"  # adds the hash-name field (hashing.pack_hash_name)


class CountMinSketch(Sketch):
    kind = "countmin"

    __slots__ = ("depth", "width", "hash_name", "counts", "total")

    def __init__(self, depth: int = 5, width: int = 1 << 15,
                 hash_name: str = hashing.DEFAULT_HASH):
        if depth < 1 or depth > 64:
            raise ValueError(f"depth must be in [1, 64], got {depth}")
        if width < 2 or (width & (width - 1)) != 0:
            raise ValueError(f"width must be a power of two >= 2, got {width}")
        self.depth = depth
        self.width = width
        self.hash_name = hashing.check_hash_name(hash_name)
        self.counts = np.zeros((depth, width), dtype=np.uint64)
        self.total = 0

    @classmethod
    def from_error(cls, eps: float, delta: float,
                   hash_name: str = hashing.DEFAULT_HASH) -> "CountMinSketch":
        """Size the sketch for additive error eps*N at confidence 1-delta."""
        width = 1 << max(1, math.ceil(math.log2(math.e / eps)))
        depth = max(1, math.ceil(math.log(1.0 / delta)))
        return cls(depth=depth, width=width, hash_name=hash_name)

    @property
    def eps(self) -> float:
        return math.e / self.width

    @property
    def delta(self) -> float:
        return math.exp(-self.depth)

    # ------------------------------------------------------------------

    def _row_indices(self, h: np.ndarray, row: int) -> np.ndarray:
        # Kirsch–Mitzenmacher: g_i(x) = h1(x) + i*h2(x); h2 forced odd so the
        # stride is invertible mod the power-of-two width
        h2 = hashing.splitmix64(h) | _U64(1)
        return ((h + _U64(row) * h2) & _U64(self.width - 1)).astype(np.int64)

    #: above this many raw elements, collapse to (unique hash, count) before
    #: the per-row bincounts — on Zipf-shaped batches (vocab << batch) this
    #: cuts the add cost ~5x (one sort replaces depth x full-size bincounts)
    UNIQUE_COLLAPSE_THRESHOLD = 1 << 16

    def add_hashes(self, h: np.ndarray,
                   weights: np.ndarray | None = None) -> None:
        h = np.ascontiguousarray(h, dtype=np.uint64)
        if weights is None and len(h) > self.UNIQUE_COLLAPSE_THRESHOLD:
            h, weights = np.unique(h, return_counts=True)
        if weights is not None:
            weights = np.asarray(weights)
            if not np.all(np.equal(np.mod(weights, 1), 0)) or                     np.any(weights < 0):
                # fractional weights would truncate in the uint64 counters
                # and break the est >= true guarantee
                raise ValueError(
                    "count-min weights must be non-negative integers")
        self.total += int(len(h) if weights is None else weights.sum())
        h2 = hashing.splitmix64(h) | _U64(1)
        mask = _U64(self.width - 1)
        for i in range(self.depth):
            idx = ((h + _U64(i) * h2) & mask).astype(np.int64)
            if weights is None:
                self.counts[i] += np.bincount(idx, minlength=self.width
                                              ).astype(np.uint64)
            else:
                self.counts[i] += np.bincount(
                    idx, weights=weights.astype(np.float64),
                    minlength=self.width).astype(np.uint64)

    def add_values(self, values: np.ndarray,
                   weights: np.ndarray | None = None) -> None:
        values = np.asarray(values)
        if weights is None:
            # collapse BEFORE hashing (Sketch._collapse_ints): only the
            # uniques pay the hash pass. Counters are identical — the hash
            # is a pure function of the value, so the (hash, count)
            # multiset is unchanged.
            values, weights = self._collapse_ints(values, return_counts=True)
        self.add_hashes(hashing.hash_fixed_batch(values, self.hash_name), weights)

    # add_arrow: inherited from Sketch (one copy of the
    # string-vs-numeric dispatch lives on the base class)

    def query_hashes(self, h: np.ndarray) -> np.ndarray:
        """Point-frequency estimates for pre-hashed elements (vectorized)."""
        h = np.ascontiguousarray(h, dtype=np.uint64)
        h2 = hashing.splitmix64(h) | _U64(1)
        mask = _U64(self.width - 1)
        est = None
        for i in range(self.depth):
            idx = ((h + _U64(i) * h2) & mask).astype(np.int64)
            row = self.counts[i][idx]
            est = row if est is None else np.minimum(est, row)
        return est

    def query_values(self, values: np.ndarray) -> np.ndarray:
        return self.query_hashes(hashing.hash_fixed_batch(values, self.hash_name))

    def query(self, element) -> int:
        data = hashing.encode_element(element)
        h = np.asarray([hashing.hash_scalar(data, self.hash_name)], dtype=np.uint64)
        return int(self.query_hashes(h)[0])

    # ------------------------------------------------------------------

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        if (other.depth, other.width) != (self.depth, self.width):
            raise ValueError("cannot merge count-min sketches of different shape")
        if other.hash_name != self.hash_name:
            raise ValueError("cannot merge count-min sketches with different hashes")
        self.counts += other.counts
        self.total += other.total
        return self

    def copy(self) -> "CountMinSketch":
        out = CountMinSketch(self.depth, self.width, self.hash_name)
        out.counts = self.counts.copy()
        out.total = self.total
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountMinSketch):
            return NotImplemented
        return (self.depth == other.depth and self.width == other.width
                and self.hash_name == other.hash_name
                and self.total == other.total
                and bool(np.array_equal(self.counts, other.counts)))

    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        # CMS2 embeds the hash name (same fix as theta THE2 / bloom BLM2:
        # from_bytes otherwise silently rebuilt custom-hash sketches under
        # the default hash, so every query probed the wrong counters);
        # CMS1 blobs (the same header without the hash field) remain
        # readable.
        return (_MAGIC_V2
                + struct.pack("<HIQ", self.depth, self.width, self.total)
                + hashing.pack_hash_name(self.hash_name)
                + self.counts.tobytes())

    @classmethod
    def from_bytes(cls, blob: bytes,
                   hash_name: str | None = None) -> "CountMinSketch":
        magic = blob[:4]
        if magic not in (_MAGIC, _MAGIC_V2):
            raise ValueError("invalid count-min blob: bad magic")
        try:
            depth, width, total = struct.unpack_from("<HIQ", blob, 4)
        except struct.error as e:
            raise ValueError(f"truncated count-min blob: {e}") from None
        off = 4 + struct.calcsize("<HIQ")
        if magic == _MAGIC_V2:
            hash_name, off = hashing.unpack_hash_name(blob, off, hash_name,
                                                      "count-min")
        out = cls(depth=depth, width=width,
                  hash_name=hash_name or hashing.DEFAULT_HASH)
        expected = depth * width * 8
        payload = blob[off:]
        if len(payload) != expected:
            raise ValueError(
                f"invalid count-min blob: expected {expected} payload bytes, "
                f"got {len(payload)}")
        out.counts = np.frombuffer(payload, dtype=np.uint64).reshape(depth, width).copy()
        out.total = total
        return out
