"""Bloom filter (Bloom 1970), batch-vectorized.

Listed by the reference only as future roadmap (ROADMAP.md:169-172); built
from the published construction. k hash positions per element via
Kirsch–Mitzenmacher double hashing; zero false negatives; FPR ~
(1 - e^{-kn/m})^k. Merge = bitwise OR (same shape/hash required).

In-memory representation is a bool array (1 byte/bit) so batch updates are
pure fancy-index assignments; the wire format packs to 1 bit via
np.packbits. Size the filter with from_capacity(n, fpp).

Width canonicalization: membership is a cross-column contract — a filter
built from an int32 column is routinely probed with an int64 column of the
same logical values (e.g. an exploded list<int32> token filter probed by a
BIGINT key column). So every batch and scalar value hashes through
:func:`hashing.canonical_width` (integers as int64, floats as float64).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import hashing
from .base import Sketch

_U64 = np.uint64
_MAGIC = b"BLM1"   # legacy: no embedded hash name (read-only)
_MAGIC_V2 = b"BLM2"  # adds the hash-name field (hashing.pack_hash_name)


class BloomFilter(Sketch):
    kind = "bloom"

    __slots__ = ("num_bits", "num_hashes", "hash_name", "bits", "count_additions")

    def __init__(self, num_bits: int = 1 << 20, num_hashes: int = 7,
                 hash_name: str = hashing.DEFAULT_HASH):
        if num_bits < 8 or (num_bits & (num_bits - 1)) != 0:
            raise ValueError(f"num_bits must be a power of two >= 8, got {num_bits}")
        if not (1 <= num_hashes <= 64):
            raise ValueError(f"num_hashes must be in [1, 64], got {num_hashes}")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.hash_name = hashing.check_hash_name(hash_name)
        self.bits = np.zeros(num_bits, dtype=bool)
        self.count_additions = 0

    @classmethod
    def from_capacity(cls, n: int, fpp: float = 0.01,
                      hash_name: str = hashing.DEFAULT_HASH) -> "BloomFilter":
        """Optimal power-of-two sizing for n elements at false-positive rate fpp."""
        m = max(8, -n * math.log(fpp) / (math.log(2) ** 2))
        num_bits = 1 << math.ceil(math.log2(m))
        k = max(1, round(num_bits / max(n, 1) * math.log(2)))
        return cls(num_bits=num_bits, num_hashes=min(k, 64), hash_name=hash_name)

    # ------------------------------------------------------------------

    def add_hashes(self, h: np.ndarray) -> None:
        h = np.ascontiguousarray(h, dtype=np.uint64)
        self.count_additions += len(h)
        h2 = hashing.splitmix64(h) | _U64(1)
        mask = _U64(self.num_bits - 1)
        for i in range(self.num_hashes):
            self.bits[((h + _U64(i) * h2) & mask).astype(np.int64)] = True

    #: above this many elements, collapse integer batches to unique values
    #: before hashing (:meth:`Sketch._collapse_ints`) — bit sets are
    #: idempotent, so duplicates are no-ops and only uniques pay the hash +
    #: scatter passes. count_additions keeps counting RAW adds (it is on
    #: the wire).
    UNIQUE_COLLAPSE_THRESHOLD = 1 << 15

    def add_values(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        n_raw = len(values)
        values = self._collapse_ints(values)
        self.add_hashes(hashing.hash_fixed_batch(
            hashing.canonical_width(values), self.hash_name))
        self.count_additions += n_raw - len(values)

    # add_arrow: inherited from Sketch (one copy of the
    # string-vs-numeric dispatch lives on the base class)

    def contains_hashes(self, h: np.ndarray) -> np.ndarray:
        h = np.ascontiguousarray(h, dtype=np.uint64)
        h2 = hashing.splitmix64(h) | _U64(1)
        mask = _U64(self.num_bits - 1)
        out = np.ones(len(h), dtype=bool)
        for i in range(self.num_hashes):
            out &= self.bits[((h + _U64(i) * h2) & mask).astype(np.int64)]
        return out

    def contains_values(self, values: np.ndarray) -> np.ndarray:
        return self.contains_hashes(
            hashing.hash_fixed_batch(hashing.canonical_width(values),
                                     self.hash_name))

    def contains(self, element) -> bool:
        if isinstance(element, (int, np.integer, float, np.floating)) \
                and not isinstance(element, (bool, np.bool_)):
            # scalar ints/floats take the canonical-width batch path so
            # contains(np.int32(x)) agrees with add_values(int64 column).
            # Ints beyond uint64 range can't exist in any numpy-built
            # filter: certain non-member.
            if isinstance(element, int) and not -(2**63) <= element < 2**64:
                return False
            return bool(self.contains_values(np.asarray([element]))[0])
        data = hashing.encode_element(element)
        h = np.asarray([hashing.hash_scalar(data, self.hash_name)], dtype=np.uint64)
        return bool(self.contains_hashes(h)[0])

    def estimate_cardinality(self) -> int:
        """Swamidass–Baldi estimate from the fill ratio."""
        x = int(np.count_nonzero(self.bits))
        if x == 0:
            return 0
        if x >= self.num_bits:
            return self.num_bits  # saturated
        return int(round(-self.num_bits / self.num_hashes
                         * math.log(1.0 - x / self.num_bits)))

    @property
    def fill_ratio(self) -> float:
        return float(np.count_nonzero(self.bits)) / self.num_bits

    # ------------------------------------------------------------------

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (other.num_bits, other.num_hashes) != (self.num_bits, self.num_hashes):
            raise ValueError("cannot merge Bloom filters of different shape")
        if other.hash_name != self.hash_name:
            raise ValueError("cannot merge Bloom filters with different hashes")
        self.bits |= other.bits
        self.count_additions += other.count_additions
        return self

    def copy(self) -> "BloomFilter":
        out = BloomFilter(self.num_bits, self.num_hashes, self.hash_name)
        out.bits = self.bits.copy()
        out.count_additions = self.count_additions
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (self.num_bits == other.num_bits
                and self.num_hashes == other.num_hashes
                and self.hash_name == other.hash_name
                and bool(np.array_equal(self.bits, other.bits)))

    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        # BLM2 embeds the hash name (same fix as theta's THE2: from_bytes
        # otherwise silently rebuilt custom-hash filters as the default
        # hash, turning every probe into a false negative); BLM1 blobs
        # (the same header without the hash field) remain readable.
        return (_MAGIC_V2
                + struct.pack("<QHQ", self.num_bits, self.num_hashes,
                              self.count_additions)
                + hashing.pack_hash_name(self.hash_name)
                + np.packbits(self.bits, bitorder="little").tobytes())

    @classmethod
    def from_bytes(cls, blob: bytes,
                   hash_name: str | None = None) -> "BloomFilter":
        magic = blob[:4]
        if magic not in (_MAGIC, _MAGIC_V2):
            raise ValueError("invalid bloom blob: bad magic")
        try:
            num_bits, num_hashes, adds = struct.unpack_from("<QHQ", blob, 4)
        except struct.error as e:
            raise ValueError(f"truncated bloom blob: {e}") from None
        off = 4 + struct.calcsize("<QHQ")
        if magic == _MAGIC_V2:
            hash_name, off = hashing.unpack_hash_name(blob, off, hash_name,
                                                      "bloom")
        if num_bits < 8 or num_bits > (1 << 40) or (num_bits & (num_bits - 1)):
            raise ValueError(f"invalid bloom blob: num_bits {num_bits}")
        out = cls(num_bits=num_bits, num_hashes=num_hashes,
                  hash_name=hash_name or hashing.DEFAULT_HASH)
        payload = blob[off:]
        if len(payload) != num_bits // 8:
            raise ValueError(
                f"invalid bloom blob: expected {num_bits // 8} payload bytes, "
                f"got {len(payload)}")
        out.bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                                 bitorder="little").astype(bool)
        out.count_additions = adds
        return out
