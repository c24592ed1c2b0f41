"""XXH3-128 (xxHash v0.8 "XXH128") — bit-exact numpy port, seed 0.

Closes the last default-config interop gap with the reference
(``CardinalityEstimator.cs:212-213``): its default hash is
``BitConverter.ToUInt64(System.IO.Hashing.XxHash128.Hash(x))`` — .NET
writes the canonical big-endian high64 first, so reading the first 8 bytes
little-endian yields ``byteswap64(high64)`` of the XXH3-128 value. That
composite is registered as hash name ``"xxhash128"``; sketches built with
it merge bit-identically with v3 blobs produced by the C# library under
its default hash.

Implemented from the published xxHash specification (Yann Collet, BSD-2;
github.com/Cyan4973/xxHash, spec in doc/xxhash_spec.md). ``_KSECRET`` is
the algorithm's public 192-byte default secret constant — embedded like
the HLL bias tables because the algorithm is defined over it. Golden
vectors in ``tests/test_xxh3.py`` were generated with the official
reference implementation (v0.8.2 single header vendored by pyarrow).

Layout: scalar reference (`xxh3_128`), used for >240-byte inputs and as
the property-test oracle; vectorized length-class kernels for 0..240-byte
inputs (`xxh128_dotnet_bytes_array`), which covers every token/word
workload; fixed-width vectorized path (`xxh128_dotnet_fixed`) for the
4-/8-byte integer identity images (len 4-8 class, one code path).
"""

from __future__ import annotations

import struct

import numpy as np

U64 = np.uint64
_M32 = U64(0xFFFFFFFF)
_MASK64 = (1 << 64) - 1

_P32_1 = 0x9E3779B1
_P32_2 = 0x85EBCA77
_P32_3 = 0xC2B2AE3D
_P64_1 = 0x9E3779B185EBCA87
_P64_2 = 0xC2B2AE3D27D4EB4F
_P64_3 = 0x165667B19E3779F9
_P64_4 = 0x85EBCA77C2B2AE63
_P64_5 = 0x27D4EB2F165667C5
_PMX_1 = 0x165667919E3779F9
_PMX_2 = 0x9FB21C651E98DF25

# the public default secret (XXH3_kSecret in the spec)
_KSECRET = bytes.fromhex(
    "b8fe6c3923a44bbe7c01812cf721ad1c"
    "ded46de9839097db7240a4a4b7b3671f"
    "cb79e64eccc0e578825ad07dccff7221"
    "b8084674f743248ee03590e6813a264c"
    "3c2852bb91c300cb88d0658b1b532ea3"
    "71644897a20df94e3819ef46a9deacd8"
    "a8fa763fe39c343ff9dcbbc7c70b4f1d"
    "8a51e04bcdb45931c89f7ec9d9787364"
    "eac5ac8334d3ebc3c581a0fffa1363eb"
    "170ddd51b7f0da49d316552629d4689e"
    "2b16be587d47a1fc8ff8b8d17ad031ce"
    "45cb3a8f95160428afd7fbcabb4b407e")

_SEC64 = np.frombuffer(_KSECRET, dtype=np.uint8)


def _sec_u64(off: int) -> int:
    return struct.unpack_from("<Q", _KSECRET, off)[0]


def _sec_u32(off: int) -> int:
    return struct.unpack_from("<I", _KSECRET, off)[0]


# ---------------------------------------------------------------------------
# scalar reference implementation (python ints, wrap at 2^64)


def _avalanche64(h: int) -> int:
    """XXH64 avalanche."""
    h &= _MASK64
    h ^= h >> 33
    h = (h * _P64_2) & _MASK64
    h ^= h >> 29
    h = (h * _P64_3) & _MASK64
    h ^= h >> 32
    return h


def _avalanche3(h: int) -> int:
    """XXH3 avalanche."""
    h &= _MASK64
    h ^= h >> 37
    h = (h * _PMX_1) & _MASK64
    h ^= h >> 32
    return h


def _mul128(a: int, b: int) -> tuple[int, int]:
    p = (a & _MASK64) * (b & _MASK64)
    return p & _MASK64, (p >> 64) & _MASK64


def _fold64(a: int, b: int) -> int:
    lo, hi = _mul128(a, b)
    return lo ^ hi


def _swap32(x: int) -> int:
    return int.from_bytes((x & 0xFFFFFFFF).to_bytes(4, "little"), "big")


def _swap64(x: int) -> int:
    return int.from_bytes((x & _MASK64).to_bytes(8, "little"), "big")


def _rotl32(x: int, r: int) -> int:
    x &= 0xFFFFFFFF
    return ((x << r) | (x >> (32 - r))) & 0xFFFFFFFF


def _r64(data: bytes, off: int) -> int:
    return struct.unpack_from("<Q", data, off)[0]


def _r32(data: bytes, off: int) -> int:
    return struct.unpack_from("<I", data, off)[0]


def _len_0(seed: int = 0) -> tuple[int, int]:
    lo = _avalanche64(seed ^ _sec_u64(64) ^ _sec_u64(72))
    hi = _avalanche64(seed ^ _sec_u64(80) ^ _sec_u64(88))
    return hi, lo


def _len_1to3(data: bytes, seed: int = 0) -> tuple[int, int]:
    ln = len(data)
    c1, c2, c3 = data[0], data[ln >> 1], data[ln - 1]
    combl = (c1 << 16) | (c2 << 24) | c3 | (ln << 8)
    combh = _rotl32(_swap32(combl), 13)
    bfl = ((_sec_u32(0) ^ _sec_u32(4)) + seed) & _MASK64
    bfh = ((_sec_u32(8) ^ _sec_u32(12)) - seed) & _MASK64
    return _avalanche64(combh ^ bfh), _avalanche64(combl ^ bfl)


def _len_4to8(data: bytes, seed: int = 0) -> tuple[int, int]:
    ln = len(data)
    seed ^= (_swap32(seed & 0xFFFFFFFF) << 32)
    lo32 = _r32(data, 0)
    hi32 = _r32(data, ln - 4)
    in64 = lo32 + (hi32 << 32)
    bitflip = ((_sec_u64(16) ^ _sec_u64(24)) + seed) & _MASK64
    keyed = in64 ^ bitflip
    m_lo, m_hi = _mul128(keyed, _P64_1 + (ln << 2))
    m_hi = (m_hi + ((m_lo << 1) & _MASK64)) & _MASK64
    m_lo ^= m_hi >> 3
    m_lo ^= m_lo >> 35
    m_lo = (m_lo * _PMX_2) & _MASK64
    m_lo ^= m_lo >> 28
    return _avalanche3(m_hi), m_lo


def _len_9to16(data: bytes, seed: int = 0) -> tuple[int, int]:
    ln = len(data)
    bfl = ((_sec_u64(32) ^ _sec_u64(40)) - seed) & _MASK64
    bfh = ((_sec_u64(48) ^ _sec_u64(56)) + seed) & _MASK64
    in_lo = _r64(data, 0)
    in_hi = _r64(data, ln - 8)
    m_lo, m_hi = _mul128(in_lo ^ in_hi ^ bfl, _P64_1)
    m_lo = (m_lo + ((ln - 1) << 54)) & _MASK64
    in_hi ^= bfh
    m_hi = (m_hi + in_hi
            + ((in_hi & 0xFFFFFFFF) * (_P32_2 - 1))) & _MASK64
    m_lo ^= _swap64(m_hi)
    h_lo, h_hi = _mul128(m_lo, _P64_2)
    h_hi = (h_hi + m_hi * _P64_2) & _MASK64
    return _avalanche3(h_hi), _avalanche3(h_lo)


def _mix16(data: bytes, off: int, sec_off: int, seed: int) -> int:
    in_lo = _r64(data, off)
    in_hi = _r64(data, off + 8)
    return _fold64(in_lo ^ ((_sec_u64(sec_off) + seed) & _MASK64),
                   in_hi ^ ((_sec_u64(sec_off + 8) - seed) & _MASK64))


def _mix32(acc_lo: int, acc_hi: int, data: bytes, off1: int, off2: int,
           sec_off: int, seed: int) -> tuple[int, int]:
    acc_lo = (acc_lo + _mix16(data, off1, sec_off, seed)) & _MASK64
    acc_lo ^= (_r64(data, off2) + _r64(data, off2 + 8)) & _MASK64
    acc_hi = (acc_hi + _mix16(data, off2, sec_off + 16, seed)) & _MASK64
    acc_hi ^= (_r64(data, off1) + _r64(data, off1 + 8)) & _MASK64
    return acc_lo, acc_hi


def _final_17plus(acc_lo: int, acc_hi: int, ln: int,
                  seed: int) -> tuple[int, int]:
    h_lo = (acc_lo + acc_hi) & _MASK64
    h_hi = (acc_lo * _P64_1 + acc_hi * _P64_4
            + ((ln - seed) & _MASK64) * _P64_2) & _MASK64
    return (-_avalanche3(h_hi)) & _MASK64, _avalanche3(h_lo)


def _len_17to128(data: bytes, seed: int = 0) -> tuple[int, int]:
    ln = len(data)
    acc_lo = (ln * _P64_1) & _MASK64
    acc_hi = 0
    for i in range((ln - 1) // 32, -1, -1):
        acc_lo, acc_hi = _mix32(acc_lo, acc_hi, data,
                                16 * i, ln - 16 * (i + 1), 32 * i, seed)
    return _final_17plus(acc_lo, acc_hi, ln, seed)


_MIDSIZE_START = 3
_MIDSIZE_LAST = 17


def _len_129to240(data: bytes, seed: int = 0) -> tuple[int, int]:
    ln = len(data)
    acc_lo = (ln * _P64_1) & _MASK64
    acc_hi = 0
    for i in range(4):
        acc_lo, acc_hi = _mix32(acc_lo, acc_hi, data,
                                32 * i, 32 * i + 16, 32 * i, seed)
    acc_lo = _avalanche3(acc_lo)
    acc_hi = _avalanche3(acc_hi)
    for i in range(4, ln // 32):
        acc_lo, acc_hi = _mix32(
            acc_lo, acc_hi, data, 32 * i, 32 * i + 16,
            _MIDSIZE_START + 32 * (i - 4), seed)
    acc_lo, acc_hi = _mix32(acc_lo, acc_hi, data, ln - 16, ln - 32,
                            136 - _MIDSIZE_LAST - 16, (-seed) & _MASK64)
    return _final_17plus(acc_lo, acc_hi, ln, seed)


def _accumulate_512(acc: list[int], data: bytes, off: int,
                    sec_off: int) -> None:
    for i in range(8):
        dv = _r64(data, off + 8 * i)
        dk = dv ^ _sec_u64(sec_off + 8 * i)
        acc[i ^ 1] = (acc[i ^ 1] + dv) & _MASK64
        acc[i] = (acc[i] + (dk & 0xFFFFFFFF) * (dk >> 32)) & _MASK64


def _scramble(acc: list[int], sec_off: int) -> None:
    for i in range(8):
        a = acc[i] ^ (acc[i] >> 47) ^ _sec_u64(sec_off + 8 * i)
        acc[i] = (a * _P32_1) & _MASK64


def _merge_accs(acc: list[int], sec_off: int, start: int) -> int:
    result = start
    for i in range(4):
        result = (result + _fold64(
            acc[2 * i] ^ _sec_u64(sec_off + 16 * i),
            acc[2 * i + 1] ^ _sec_u64(sec_off + 16 * i + 8))) & _MASK64
    return _avalanche3(result)


def _hash_long(data: bytes) -> tuple[int, int]:
    ln = len(data)
    acc = [_P32_3, _P64_1, _P64_2, _P64_3, _P64_4, _P32_2, _P64_5, _P32_1]
    nb_stripes_per_block = (192 - 64) // 8  # 16
    block_len = 64 * nb_stripes_per_block  # 1024
    nb_blocks = (ln - 1) // block_len
    for n in range(nb_blocks):
        for s in range(nb_stripes_per_block):
            _accumulate_512(acc, data, n * block_len + s * 64, 8 * s)
        _scramble(acc, 192 - 64)
    nb_stripes = ((ln - 1) - block_len * nb_blocks) // 64
    for s in range(nb_stripes):
        _accumulate_512(acc, data, nb_blocks * block_len + s * 64, 8 * s)
    _accumulate_512(acc, data, ln - 64, 192 - 64 - 7)
    lo = _merge_accs(acc, 11, (ln * _P64_1) & _MASK64)
    hi = _merge_accs(acc, 192 - 64 - 11,
                     (~(ln * _P64_2)) & _MASK64)
    return hi, lo


def xxh3_128(data: bytes) -> tuple[int, int]:
    """(high64, low64) of XXH3-128, seed 0, default secret."""
    ln = len(data)
    if ln == 0:
        return _len_0()
    if ln <= 3:
        return _len_1to3(data)
    if ln <= 8:
        return _len_4to8(data)
    if ln <= 16:
        return _len_9to16(data)
    if ln <= 128:
        return _len_17to128(data)
    if ln <= 240:
        return _len_129to240(data)
    return _hash_long(data)


def xxh128_dotnet(data: bytes) -> int:
    """The reference's default 64-bit hash:
    BitConverter.ToUInt64(XxHash128.Hash(x)) == byteswap64(high64)."""
    hi, _lo = xxh3_128(data)
    return _swap64(hi)


# ---------------------------------------------------------------------------
# vectorized kernels (length-class dispatch, seed 0)
#
# Only the HIGH word feeds the dotnet composite, so the low-word tail
# finalizers are skipped where the algorithm allows.

_VP64_1 = U64(_P64_1)
_VP64_2 = U64(_P64_2)
_VP64_4 = U64(_P64_4)
_VPMX_1 = U64(_PMX_1)
_VP32_2M1 = U64(_P32_2 - 1)


def _vgather64(data: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Unaligned little-endian u64 loads at arbitrary byte positions."""
    out = data[pos].astype(np.uint64)
    for j in range(1, 8):
        out |= data[pos + j].astype(np.uint64) << U64(8 * j)
    return out


def _vgather32(data: np.ndarray, pos: np.ndarray) -> np.ndarray:
    out = data[pos].astype(np.uint64)
    for j in range(1, 4):
        out |= data[pos + j].astype(np.uint64) << U64(8 * j)
    return out


def _v_mul_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a_lo = a & _M32
    a_hi = a >> U64(32)
    b_lo = b & _M32
    b_hi = b >> U64(32)
    ll = a_lo * b_lo
    mid1 = a_lo * b_hi + (ll >> U64(32))
    mid2 = a_hi * b_lo + (mid1 & _M32)
    return a_hi * b_hi + (mid1 >> U64(32)) + (mid2 >> U64(32))


def _v_fold64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b) ^ _v_mul_hi(a, b)


def _v_avalanche3(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> U64(37))
    h = h * _VPMX_1
    return h ^ (h >> U64(32))


def _v_avalanche64(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> U64(33))
    h = h * _VP64_2
    h = h ^ (h >> U64(29))
    h = h * U64(_P64_3)
    return h ^ (h >> U64(32))


def _v_swap32_in_u64(x: np.ndarray) -> np.ndarray:
    """byteswap the low-32-bit value held in a uint64 lane."""
    return (((x & U64(0xFF)) << U64(24)) | ((x & U64(0xFF00)) << U64(8))
            | ((x >> U64(8)) & U64(0xFF00)) | ((x >> U64(24)) & U64(0xFF)))


def _v_rotl32_in_u64(x: np.ndarray, r: int) -> np.ndarray:
    return (((x << U64(r)) | (x >> U64(32 - r)))) & _M32


def _vhigh_1to3(data, starts, lns):
    c1 = data[starts].astype(np.uint64)
    c2 = data[starts + (lns >> 1)].astype(np.uint64)
    c3 = data[starts + lns - 1].astype(np.uint64)
    combl = (c1 << U64(16)) | (c2 << U64(24)) | c3 \
        | (lns.astype(np.uint64) << U64(8))
    combh = _v_rotl32_in_u64(_v_swap32_in_u64(combl), 13)
    bfh = U64(_sec_u32(8) ^ _sec_u32(12))
    return _v_avalanche64(combh ^ bfh)


def _vhigh_4to8_from_parts(in64: np.ndarray, lns: np.ndarray) -> np.ndarray:
    keyed = in64 ^ U64(_sec_u64(16) ^ _sec_u64(24))
    mult = _VP64_1 + (lns.astype(np.uint64) << U64(2))
    m_lo = keyed * mult
    m_hi = _v_mul_hi(keyed, mult) + (m_lo << U64(1))
    return _v_avalanche3(m_hi)


def _vhigh_4to8(data, starts, lns):
    lo32 = _vgather32(data, starts)
    hi32 = _vgather32(data, starts + lns - 4)
    return _vhigh_4to8_from_parts(lo32 | (hi32 << U64(32)), lns)


def _vhigh_9to16(data, starts, lns):
    bfl = U64(_sec_u64(32) ^ _sec_u64(40))
    bfh = U64(_sec_u64(48) ^ _sec_u64(56))
    in_lo = _vgather64(data, starts)
    in_hi = _vgather64(data, starts + lns - 8)
    keyed = in_lo ^ in_hi ^ bfl
    m_lo = keyed * _VP64_1
    m_hi = _v_mul_hi(keyed, _VP64_1)
    m_lo = m_lo + ((lns.astype(np.uint64) - U64(1)) << U64(54))
    ih = in_hi ^ bfh
    m_hi = m_hi + ih + (ih & _M32) * _VP32_2M1
    m_lo = m_lo ^ m_hi.byteswap()
    h_hi = _v_mul_hi(m_lo, _VP64_2) + m_hi * _VP64_2
    return _v_avalanche3(h_hi)


def _v_mix16(data, pos, sec_off):
    in_lo = _vgather64(data, pos)
    in_hi = _vgather64(data, pos + 8)
    return _v_fold64(in_lo ^ U64(_sec_u64(sec_off)),
                     in_hi ^ U64(_sec_u64(sec_off + 8)))


def _v_mix32(acc_lo, acc_hi, data, pos1, pos2, sec_off):
    acc_lo = acc_lo + _v_mix16(data, pos1, sec_off)
    acc_lo = acc_lo ^ (_vgather64(data, pos2) + _vgather64(data, pos2 + 8))
    acc_hi = acc_hi + _v_mix16(data, pos2, sec_off + 16)
    acc_hi = acc_hi ^ (_vgather64(data, pos1) + _vgather64(data, pos1 + 8))
    return acc_lo, acc_hi


def _vhigh_final_17plus(acc_lo, acc_hi, lns):
    h_hi = acc_lo * _VP64_1 + acc_hi * _VP64_4 \
        + lns.astype(np.uint64) * _VP64_2
    return (U64(0) - _v_avalanche3(h_hi))


def _vhigh_17to128(data, starts, lns, i0: int):
    """One subclass: all rows share i0 = (ln-1)//32 (same round count)."""
    acc_lo = lns.astype(np.uint64) * _VP64_1
    acc_hi = np.zeros(len(starts), dtype=np.uint64)
    for i in range(i0, -1, -1):
        acc_lo, acc_hi = _v_mix32(acc_lo, acc_hi, data,
                                  starts + 16 * i,
                                  starts + lns - 16 * (i + 1), 32 * i)
    return _vhigh_final_17plus(acc_lo, acc_hi, lns)


def _vhigh_129to240(data, starts, lns, nb: int):
    """One subclass: all rows share nb = ln//32 (same round count)."""
    acc_lo = lns.astype(np.uint64) * _VP64_1
    acc_hi = np.zeros(len(starts), dtype=np.uint64)
    for i in range(4):
        acc_lo, acc_hi = _v_mix32(acc_lo, acc_hi, data,
                                  starts + 32 * i, starts + 32 * i + 16,
                                  32 * i)
    acc_lo = _v_avalanche3(acc_lo)
    acc_hi = _v_avalanche3(acc_hi)
    for i in range(4, nb):
        acc_lo, acc_hi = _v_mix32(acc_lo, acc_hi, data,
                                  starts + 32 * i, starts + 32 * i + 16,
                                  _MIDSIZE_START + 32 * (i - 4))
    acc_lo, acc_hi = _v_mix32(acc_lo, acc_hi, data,
                              starts + lns - 16, starts + lns - 32,
                              136 - _MIDSIZE_LAST - 16)
    return _vhigh_final_17plus(acc_lo, acc_hi, lns)


def xxh128_dotnet_fixed(values: np.ndarray) -> np.ndarray:
    """Vectorized dotnet-composite hash of a fixed-width (4- or 8-byte)
    numeric array — the reference's Add(int/long/float/double) identity.
    Reads the elements' little-endian images: :func:`hashing.hash_fixed_batch`
    hands it a contiguous little-endian array."""
    width = values.dtype.itemsize
    n = len(values)
    lns = np.full(n, width, dtype=np.int64)
    if width == 4:
        lo = values.view(np.uint32).astype(np.uint64)
        in64 = lo | (lo << U64(32))
    elif width == 8:
        # len==8: lo32=bytes[0:4], hi32=bytes[4:8] reassemble the original
        # little-endian word exactly, so in64 IS the raw value
        in64 = values.view(np.uint64)
    else:
        raise TypeError(f"unsupported width for xxh128_dotnet_fixed: {width}")
    return _vhigh_4to8_from_parts(in64, lns).byteswap()


def xxh128_dotnet_bytes_array(data: np.ndarray, starts: np.ndarray,
                              lengths: np.ndarray) -> np.ndarray:
    """Vectorized dotnet-composite hash over a flat byte buffer with
    per-row (start, length) — zero-copy over Arrow string/binary buffers.

    Rows dispatch by length class; every class the algorithm defines for
    <= 240 bytes is vectorized (17..240 further subclassed by round count);
    longer rows (rare for token workloads) fall back to the scalar
    reference implementation.
    """
    n = len(starts)
    out = np.empty(n, dtype=np.uint64)
    lns = lengths.astype(np.int64)

    idx0 = np.flatnonzero(lns == 0)
    if len(idx0):
        hi0, _ = _len_0()
        out[idx0] = U64(hi0)

    sel = np.flatnonzero((lns >= 1) & (lns <= 3))
    if len(sel):
        out[sel] = _vhigh_1to3(data, starts[sel], lns[sel])

    sel = np.flatnonzero((lns >= 4) & (lns <= 8))
    if len(sel):
        out[sel] = _vhigh_4to8(data, starts[sel], lns[sel])

    sel = np.flatnonzero((lns >= 9) & (lns <= 16))
    if len(sel):
        out[sel] = _vhigh_9to16(data, starts[sel], lns[sel])

    mid = np.flatnonzero((lns >= 17) & (lns <= 128))
    if len(mid):
        i0s = (lns[mid] - 1) // 32
        for i0 in range(4):
            sub = mid[i0s == i0]
            if len(sub):
                out[sub] = _vhigh_17to128(data, starts[sub], lns[sub], i0)

    big = np.flatnonzero((lns >= 129) & (lns <= 240))
    if len(big):
        nbs = lns[big] // 32
        for nb in range(4, 8):
            sub = big[nbs == nb]
            if len(sub):
                out[sub] = _vhigh_129to240(data, starts[sub], lns[sub], nb)

    huge = np.flatnonzero(lns > 240)
    for i in huge:
        hi, _lo = xxh3_128(data[starts[i]:starts[i] + lns[i]].tobytes())
        out[i] = U64(hi)  # pre-swap: the final byteswap produces dotnet form

    return out.byteswap()
