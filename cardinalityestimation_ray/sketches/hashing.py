"""Hash functions and byte-encoding rules for sketch elements.

Element identity follows the reference: every element is normalized to bytes
(UTF-8 for strings, little-endian fixed width for numbers) and those bytes are
hashed to a 64-bit value which is the canonical datum
(/root/reference/CardinalityEstimation/CardinalityEstimator.cs:346-528, 755).
The reference pins that Add(123) and Add(LE-bytes(123)) collide
(CardinalityEstimatorTests.cs:750-770) — the byte encoding IS the identity.

``HASH_FUNCTIONS`` registers five hash names, and each stays for one reason:

- ``fnv1a_mix`` (default) is FNV-1a plus a splitmix64 finalizer; it stays as
  the throughput default, since it vectorizes to a few numpy passes per batch
  and the finalizer fixes FNV's weak top bits, which HLL indexes on.
- ``fnv1a`` stays for reference parity: bit-exact with Hash/Fnv1A.cs (golden
  vectors CardinalityEstimation.Test/Hash/Fnv1ATests.cs:35-41).
- ``murmur3`` stays for reference parity: Murmur3 x64-128, low 64 bits, as in
  Hash/Murmur3.cs (golden vectors Hash/Murmur3Tests.cs:35-41).
- ``xxhash128`` stays because it is the reference's own default
  (XxHash128 -> low64, CardinalityEstimator.cs:212-213); the bit-exact port in
  ``xxh3.py`` lets sketches merge with blobs from the C# library.
- ``polars`` stays as the string-path throughput backend that ``bench.py``
  measures: polars' native string hash, stable only within one polars version,
  so not for persisted identity. Its fixed-width input uses ``fnv1a_mix``.

``splitmix64()`` is a mixer, not a registered hash name: ``fnv1a_mix``,
count-min/Bloom double hashing, dedup and priority sampling call it directly.
Sketch constructors call :func:`check_hash_name`, so an unknown name fails at
construction or decode rather than at the first add.

All vectorized kernels are pure numpy over uint64 with wrap-around semantics —
no Python per-element loops.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

U64 = np.uint64

_FNV_OFFSET = U64(14695981039346656037)
_FNV_PRIME = U64(1099511628211)
_MASK64 = 0xFFFFFFFFFFFFFFFF

DEFAULT_HASH = "fnv1a_mix"

# ---------------------------------------------------------------------------
# bit utilities


_M32 = U64(0xFFFFFFFF)


def bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized bit length (position of highest set bit; 0 for 0).

    Split-32 frexp: each 32-bit half is < 2^53 so its float64 image is exact
    and ``frexp`` returns the bit length directly — two cheap vector passes,
    exact over the full uint64 range.
    """
    x = x.astype(np.uint64, copy=False)
    hi = (x >> U64(32)).astype(np.float64)
    lo = (x & _M32).astype(np.float64)
    _, e_hi = np.frexp(hi)
    _, e_lo = np.frexp(lo)
    return np.where(e_hi > 0, e_hi + 32, e_lo).astype(np.uint8)


def bit_length_u64_small(x: np.ndarray) -> np.ndarray:
    """Bit length for values known to be < 2^53 (single exact frexp pass)."""
    _, e = np.frexp(x.astype(np.float64))
    return e.astype(np.uint8)


# ---------------------------------------------------------------------------
# FNV-1a 64 — scalar (bit-exact reference parity) and vectorized


def fnv1a64(data: bytes) -> int:
    """Scalar FNV-1a 64 over raw bytes (reference Hash/Fnv1A.cs:68-86 parity)."""
    h = 14695981039346656037
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def fnv1a64_fixed(values: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a 64 of a contiguous little-endian fixed-width
    integer/float array (:func:`hash_fixed_batch` brings its input there).

    Each element is its little-endian byte image (4 bytes for 32-bit dtypes,
    8 for 64-bit), matching the reference's typed Add overloads
    (CardinalityEstimator.cs:376-459), FNV-1a folded byte by byte: one xor
    and one multiply per byte column of the array's own byte view.
    """
    width = values.dtype.itemsize
    if width not in (4, 8):
        raise TypeError(f"unsupported dtype for fixed-width hash: {values.dtype}")
    columns = values.view(np.uint8).reshape(-1, width)
    h = np.full(len(columns), _FNV_OFFSET, dtype=np.uint64)
    for j in range(width):
        np.bitwise_xor(h, columns[:, j], out=h)
        np.multiply(h, _FNV_PRIME, out=h)
    return h


def fnv1a64_bytes_array(data: np.ndarray, offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a 64 over n variable-length byte strings.

    ``data`` is the concatenated uint8 buffer, ``offsets[i]``/``lengths[i]``
    delimit element i. Runs max(lengths) masked vector passes — fast for
    short-string columns (doc ids, source labels); equals the scalar fnv1a64
    on every element.
    """
    n = len(lengths)
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    if n == 0:
        return h
    maxlen = int(lengths.max())
    minlen = int(lengths.min())
    offsets = offsets.astype(np.int64, copy=False)
    lengths = lengths.astype(np.int64, copy=False)
    tmp = np.empty(n, dtype=np.uint64)
    # common prefix: every string is active — no compaction, in-place ops
    for j in range(minlen):
        tmp[:] = data[offsets + j]
        np.bitwise_xor(h, tmp, out=h)
        np.multiply(h, _FNV_PRIME, out=h)
    # tail: compact the shrinking active set once per position
    active = np.arange(n)
    off = offsets
    lens = lengths
    for j in range(minlen, maxlen):
        keep = lens > j
        if not keep.all():
            active = active[keep]
            off = off[keep]
            lens = lens[keep]
        b = data[off + j].astype(np.uint64)
        h[active] = (h[active] ^ b) * _FNV_PRIME
    return h


def hash_arrow_binary(arr: pa.Array, hash_name: str = DEFAULT_HASH) -> np.ndarray:
    """Hash each element of an Arrow string/binary array (zero-copy buffers).

    ``fnv1a`` folds the raw bytes; ``fnv1a_mix`` (library default) applies the
    splitmix64 finalizer on top; ``polars`` delegates to polars' native Rust
    string hash (~10x faster on long strings; stable within a polars
    version — use for throughput, not for cross-version persisted identity).

    Output is positional (one hash per input slot); a null entry hashes as
    the empty string because the offsets buffer carries no gap for it.
    Callers needing SQL null semantics (the sketch ``add_arrow`` paths do
    this) must ``drop_null()``/filter before calling.
    """
    if hash_name == "polars":
        import polars as pl

        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        return pl.from_arrow(arr).hash(seed=0).to_numpy()
    if isinstance(arr, pa.ChunkedArray):
        if arr.num_chunks == 1:
            arr = arr.chunk(0)
        else:
            arr = arr.combine_chunks()
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        off_dtype = np.int64
    elif pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
        off_dtype = np.int32
    else:
        raise TypeError(f"expected string/binary array, got {arr.type}")
    offsets = np.frombuffer(arr.buffers()[1], dtype=off_dtype,
                            count=len(arr) + arr.offset + 1)[arr.offset:]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    starts = offsets[:-1].astype(np.int64)
    lengths = (offsets[1:] - offsets[:-1]).astype(np.int64)
    if hash_name == "xxhash128":
        from .xxh3 import xxh128_dotnet_bytes_array

        return xxh128_dotnet_bytes_array(data, starts, lengths)
    if hash_name == "murmur3":
        # scalar per-string loop — murmur3's 16-byte block structure does
        # not vectorize cleanly over variable lengths; provided for parity
        # (reference default usage), not throughput
        return np.fromiter(
            (murmur3_128_x64_low64(
                data[starts[i]:starts[i] + lengths[i]].tobytes())
             for i in range(len(starts))),
            dtype=np.uint64, count=len(starts))
    h = fnv1a64_bytes_array(data, starts, lengths)
    if hash_name == "fnv1a":
        return h
    if hash_name == "fnv1a_mix":
        return splitmix64(h)
    raise ValueError(f"unsupported hash for binary arrays: {hash_name}")


# ---------------------------------------------------------------------------
# splitmix64 finalizer (Steele/Lea/Flood, public domain)

_SM_GAMMA = U64(0x9E3779B97F4A7C15)
_SM_M1 = U64(0xBF58476D1CE4E5B9)
_SM_M2 = U64(0x94D049BB133111EB)


def splitmix64_inplace(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place (one scratch buffer)."""
    tmp = np.empty_like(z)
    z += _SM_GAMMA
    np.right_shift(z, U64(30), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, _SM_M1, out=z)
    np.right_shift(z, U64(27), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, _SM_M2, out=z)
    np.right_shift(z, U64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    return splitmix64_inplace(x.astype(np.uint64, copy=True))


def splitmix64_scalar(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def fnv1a64_mix(data: bytes) -> int:
    """Library default hash: FNV-1a folded bytes + splitmix64 finalizer.

    Plain FNV-1a avalanches the high bits poorly (HLL indexes on the TOP b
    bits, reference CardinalityEstimator.cs:768) — sequential integers skew
    the estimate by >50%. The splitmix64 finalizer fixes the distribution
    while preserving the reference's byte-identity rule (equal bytes ->
    equal hash). This mirrors the reference defaulting to XxHash128 rather
    than raw FNV for quality (CardinalityEstimator.cs:212-213).
    """
    return splitmix64_scalar(fnv1a64(data))


# ---------------------------------------------------------------------------
# Murmur3 x64-128 (low 64 bits) — scalar, for reference parity tests


def _rotl64(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _MASK64


def _fmix64(k: int) -> int:
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _MASK64
    k ^= k >> 33
    return k


def murmur3_128_x64_low64(data: bytes, seed: int = 0) -> int:
    """MurmurHash3 x64-128 (Austin Appleby, public domain), low 64 bits.

    Matches the reference default usage (Hash/Murmur3.cs:50,67-81): hash the
    bytes with seed 0 and keep the first 8 bytes of the 128-bit digest.
    """
    c1 = 0x87C37B91114253D5
    c2 = 0x4CF5AD432745937F
    length = len(data)
    h1 = seed
    h2 = seed
    nblocks = length // 16
    for i in range(nblocks):
        k1 = int.from_bytes(data[i * 16: i * 16 + 8], "little")
        k2 = int.from_bytes(data[i * 16 + 8: i * 16 + 16], "little")
        k1 = (k1 * c1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * c2) & _MASK64
        h1 ^= k1
        h1 = _rotl64(h1, 27)
        h1 = (h1 + h2) & _MASK64
        h1 = (h1 * 5 + 0x52DCE729) & _MASK64
        k2 = (k2 * c2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * c1) & _MASK64
        h2 ^= k2
        h2 = _rotl64(h2, 31)
        h2 = (h2 + h1) & _MASK64
        h2 = (h2 * 5 + 0x38495AB5) & _MASK64
    tail = data[nblocks * 16:]
    k1 = 0
    k2 = 0
    if len(tail) > 8:
        k2 = int.from_bytes(tail[8:].ljust(8, b"\0"), "little")
        k2 = (k2 * c2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * c1) & _MASK64
        h2 ^= k2
    if len(tail) > 0:
        k1 = int.from_bytes(tail[:8].ljust(8, b"\0"), "little")
        k1 = (k1 * c1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * c2) & _MASK64
        h1 ^= k1
    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    h1 = _fmix64(h1)
    h2 = _fmix64(h2)
    h1 = (h1 + h2) & _MASK64
    return h1


def murmur3_128_x64_low64_fixed(values: np.ndarray) -> np.ndarray:
    """Vectorized Murmur3 x64-128 low64 for 4/8-byte LE elements.

    For inputs <= 8 bytes the algorithm reduces to the k1 tail path +
    finalization (no 16-byte blocks, k2 == 0) — bit-identical to
    :func:`murmur3_128_x64_low64` on the element's byte image (tested),
    expressed as ~12 numpy passes per batch.
    """
    if values.dtype == np.float32:
        values = values.view(np.uint32)
    elif values.dtype == np.float64:
        values = values.view(np.uint64)
    width = values.dtype.itemsize
    if width == 4:
        k1 = values.astype(np.uint32, copy=False).astype(np.uint64)
    elif width == 8:
        k1 = values.view(np.uint64).astype(np.uint64, copy=False).copy()
    else:
        raise TypeError(f"unsupported dtype for murmur3 fixed: {values.dtype}")
    c1 = U64(0x87C37B91114253D5)
    c2 = U64(0x4CF5AD432745937F)
    k1 = k1 * c1
    k1 = (k1 << U64(31)) | (k1 >> U64(33))
    k1 *= c2
    h1 = k1 ^ U64(width)     # h1 = (0 ^ k1) ^ length
    h2 = np.full(len(k1), U64(width))  # h2 = 0 ^ length
    h1 = h1 + h2
    h2 = h2 + h1

    def fmix(h):
        h ^= h >> U64(33)
        h *= U64(0xFF51AFD7ED558CCD)
        h ^= h >> U64(33)
        h *= U64(0xC4CEB9FE1A85EC53)
        h ^= h >> U64(33)
        return h

    h1 = fmix(h1)
    h2 = fmix(h2)
    return h1 + h2


# ---------------------------------------------------------------------------
# scalar element encoding (reference byte-identity rules)


def encode_int32(x: int) -> bytes:
    return struct.pack("<i", x)


def encode_int64(x: int) -> bytes:
    return struct.pack("<q", x)


def encode_uint64(x: int) -> bytes:
    return struct.pack("<Q", x)


def encode_float32(x: float) -> bytes:
    return struct.pack("<f", x)


def encode_float64(x: float) -> bytes:
    return struct.pack("<d", x)


def encode_str(x: str) -> bytes:
    return x.encode("utf-8")


def encode_element(x) -> bytes:
    """Normalize a scalar element to its identity bytes (reference rules).

    Identity is TYPED, exactly like the reference's Add overloads: a plain
    Python int follows the C# literal rule (int32 image when the value
    fits, else int64/uint64), while a NUMPY scalar follows its dtype width
    — np.int64(5) hashes the 8-byte image even though 5 fits in int32
    (round-4 session-9 review: the old value-range rule made np.int64(5)
    and np.array([5], np.int64) hash DIFFERENTLY, so a scalar add/query
    could never match a batch add of the same value). To probe a sketch
    built from an int64 batch, query with np.int64(v) (or a batch call).
    """
    if isinstance(x, bytes):
        return x
    if isinstance(x, str):
        return encode_str(x)
    if isinstance(x, (bool, np.bool_)):
        raise TypeError("bool elements are not supported")
    if isinstance(x, (int, np.integer)):
        if isinstance(x, (np.int32, np.uint32)):
            return struct.pack("<I", int(np.uint32(x)))
        if isinstance(x, (np.int8, np.int16, np.uint8, np.uint16)):
            # the batch kernels widen narrow ints via the int32 image
            return encode_int32(int(x))
        if isinstance(x, np.uint64):
            return encode_uint64(int(x))
        if isinstance(x, np.int64):
            return encode_int64(int(x))
        v = int(x)
        if -(2**31) <= v < 2**31:
            return encode_int32(v)
        return encode_int64(v) if v < 2**63 else encode_uint64(v)
    if isinstance(x, (float, np.floating)):
        if isinstance(x, np.float32):
            return encode_float32(float(x))
        return encode_float64(float(x))
    raise TypeError(f"unsupported element type: {type(x)}")


def _xxh128_dotnet_scalar(data: bytes) -> int:
    from .xxh3 import xxh128_dotnet

    return xxh128_dotnet(data)


def _polars_scalar_unsupported(data: bytes) -> int:
    raise ValueError(
        "the 'polars' hash backend is a batch string-path accelerator "
        "(hash_arrow_binary); it has no scalar byte-image rule — use "
        "add_arrow/add_values, or pick fnv1a_mix (the default) for scalar "
        "adds")


HASH_FUNCTIONS = {
    "fnv1a": fnv1a64,
    "fnv1a_mix": fnv1a64_mix,
    "murmur3": murmur3_128_x64_low64,
    # the reference DEFAULT: BitConverter.ToUInt64(XxHash128.Hash(x))
    # (CardinalityEstimator.cs:212-213) — bit-exact numpy port in xxh3.py
    "xxhash128": _xxh128_dotnet_scalar,
    # registered so a configured-but-unsupported path raises an actionable
    # error instead of a bare KeyError mid-pipeline (round-3 review fix)
    "polars": _polars_scalar_unsupported,
}


def check_hash_name(hash_name: str) -> str:
    """Return ``hash_name`` if it is registered, else raise ``ValueError``
    naming the supported hashes."""
    if hash_name not in HASH_FUNCTIONS:
        raise ValueError(f"unknown hash {hash_name!r}; supported hashes: "
                         f"{', '.join(sorted(HASH_FUNCTIONS))}")
    return hash_name


def pack_hash_name(hash_name: str) -> bytes:
    """The hash-name field that ends a BLM2/CMS2/THE2 header: a u8 length,
    then the name's UTF-8 bytes."""
    raw = hash_name.encode()
    if len(raw) > 255:
        raise ValueError("hash_name too long to serialize")
    return bytes([len(raw)]) + raw


def unpack_hash_name(blob: bytes, off: int, hash_name: str | None,
                     what: str) -> tuple[str, int]:
    """Read the :func:`pack_hash_name` field of a ``what`` blob at ``off``:
    (the embedded name, the offset after the field). A blob names its own
    hash, so a caller that names a different one is refused."""
    # length check BEFORE decode: a blob truncated inside a non-ASCII hash
    # name must raise ValueError, not UnicodeDecodeError
    if len(blob) <= off or len(blob) < off + 1 + blob[off]:
        raise ValueError(f"truncated {what} blob: hash name")
    end = off + 1 + blob[off]
    embedded = bytes(blob[off + 1:end]).decode()
    if hash_name is not None and hash_name != embedded:
        raise ValueError(
            f"{what} blob was built under hash {embedded!r}, "
            f"cannot rebuild as {hash_name!r}")
    return embedded, end


def hash_scalar(data: bytes, hash_name: str = DEFAULT_HASH) -> int:
    return HASH_FUNCTIONS[hash_name](data)


def canonical_width(values) -> np.ndarray:
    """One byte image per logical number, for hashes compared ACROSS
    columns: every integer as its 64-bit two's-complement image and every
    float as float64 (bool, uint64 and non-numeric arrays pass through;
    uint64 >= 2^63 wraps to the same 8-byte image, so identity holds).

    The hash identity is the byte image, so native-width hashing makes an
    int32 value and the same int64 value two different elements. Bloom
    membership (a filter built from an int32 column, probed with an int64
    key column) and hash-bucketed joins (both sides' equal keys must land
    in one bucket) hash through this rule. HLL, count-min and theta keep
    native-width images for reference parity; they estimate within one
    column, where width is stable.
    """
    v = np.asarray(values)
    if v.dtype == np.bool_:
        return v
    if np.issubdtype(v.dtype, np.integer):
        return v.astype(np.int64, copy=False) if v.dtype != np.uint64 else v
    if np.issubdtype(v.dtype, np.floating):
        return v.astype(np.float64, copy=False)
    return v


def hash_fixed_batch(values: np.ndarray, hash_name: str = DEFAULT_HASH) -> np.ndarray:
    """Vectorized hash of a fixed-width numeric array under `hash_name`.

    Every hash reads each element's little-endian byte image, so a batch
    agrees with :func:`hash_scalar` of :func:`encode_element` of the same
    typed value; ``polars`` has no numeric kernel of its own and uses
    ``fnv1a_mix``'s. The input is brought to a contiguous little-endian
    array here, once, so the kernels read their byte views as they are.
    """
    values = np.asarray(values)
    dt = values.dtype
    if dt == np.bool_:
        raise TypeError("bool elements are not supported")  # reference rule
    if dt.kind in "iu" and dt.itemsize < 4:
        # narrow ints hash via their widened 4-byte image — the reference
        # encodes small ints through the int32 rule (round-3 review fix:
        # int8/int16 columns crashed the fixed-width kernels)
        values = values.astype(np.int32 if dt.kind == "i" else np.uint32)
    elif dt.kind == "f" and dt.itemsize < 4:
        values = values.astype(np.float32)
    values = np.ascontiguousarray(values,
                                  dtype=values.dtype.newbyteorder("<"))
    if hash_name == "fnv1a":
        return fnv1a64_fixed(values)
    if hash_name in ("fnv1a_mix", "polars"):
        return splitmix64_inplace(fnv1a64_fixed(values))
    if hash_name == "xxhash128":
        from .xxh3 import xxh128_dotnet_fixed

        return xxh128_dotnet_fixed(values)
    if hash_name == "murmur3":
        return murmur3_128_x64_low64_fixed(values)
    raise ValueError(f"unknown hash function: {hash_name}")
