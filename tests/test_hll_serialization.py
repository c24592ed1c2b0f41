"""Wire-format tests (FIXTURES.md F5): v3.1 byte-layout pins, round-trip
grid, metamorphic equivalences, adversarial blobs.

Reference: CardinalityEstimatorSerializer.cs:125-348 and
CardinalityEstimatorSerializerTests.cs:62-122,179-298,403-418,457-666."""

import re
import struct

import numpy as np
import pytest

from cardinalityestimation_ray.sketches.hll import (
    WIRE_FORMAT_MAJOR,
    WIRE_FORMAT_MINOR,
    HyperLogLog,
)


def test_direct_blob_layout_n10():
    # 101 bytes: 2+2 version, 4 bits, 1 flags, 4 count, 10*8 hashes, 8 adds
    hll = HyperLogLog(b=14)
    hll.add_values(np.arange(10, dtype=np.int64))
    blob = hll.to_bytes()
    assert len(blob) == 101
    major, minor, bits, flags = struct.unpack_from("<HHiB", blob, 0)
    assert (major, minor) == (WIRE_FORMAT_MAJOR, WIRE_FORMAT_MINOR)
    assert bits == 14
    assert flags & 1  # hasDirect
    assert flags & 2  # isSparse
    (count,) = struct.unpack_from("<i", blob, 9)
    assert count == 10
    (adds,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    assert adds == 10


def test_sparse_blob_layout():
    # 21 + 3*s bytes: 9 header + 4 count + 3 per entry + 8 trailer
    hll = HyperLogLog(b=14, use_direct_counting=False)
    hll.add_values(np.arange(150, dtype=np.int64))
    assert hll.is_sparse
    s = len(hll.sparse)
    assert len(hll.to_bytes()) == 21 + 3 * s


def test_dense_blob_layout():
    hll = HyperLogLog(b=14, use_direct_counting=False)
    hll.add_values(np.arange(50_000, dtype=np.int64))
    assert not hll.is_sparse
    assert len(hll.to_bytes()) == 21 + (1 << 14)


@pytest.mark.parametrize("b", [4, 8, 12, 14, 16])
@pytest.mark.parametrize("n", [1, 50, 99, 100, 101, 500, 1000])
def test_roundtrip_grid(b, n):
    # CardinalityEstimatorSerializerTests.cs:281-298
    hll = HyperLogLog(b=b)
    hll.add_values(np.arange(n, dtype=np.int64))
    back = HyperLogLog.from_bytes(hll.to_bytes())
    assert back == hll
    assert back.estimate() == hll.estimate()
    assert back.count_additions == hll.count_additions


def test_direct_mode_ships_only_direct_set_and_rebuilds_registers():
    # CardinalityEstimator.cs:297-307: direct blobs carry only the hash set;
    # registers are rebuilt on deserialize
    hll = HyperLogLog(b=14)
    hll.add_values(np.arange(42, dtype=np.int64))
    back = HyperLogLog.from_bytes(hll.to_bytes())
    assert back.direct == hll.direct
    assert np.array_equal(back.registers(), hll.registers())


def test_roundtrip_then_readd_is_noop():
    # CardinalityEstimatorSerializerTests.cs:193-237
    vals = np.random.default_rng(3).integers(0, 2**62, 5000, dtype=np.int64)
    hll = HyperLogLog(b=12)
    hll.add_values(vals)
    back = HyperLogLog.from_bytes(hll.to_bytes())
    est_before = back.estimate()
    back.add_values(vals)  # same elements again
    assert back.estimate() == est_before


def test_add_path_vs_merge_path_same_serialized_size():
    # CardinalityEstimatorTests.cs:384-411
    vals = np.random.default_rng(4).integers(0, 2**62, 10_000, dtype=np.int64)
    single = HyperLogLog(b=12)
    single.add_values(vals)
    a = HyperLogLog(b=12)
    b = HyperLogLog(b=12)
    a.add_values(vals[::2])
    b.add_values(vals[1::2])
    merged = a.merge(b)
    assert len(merged.to_bytes()) == len(single.to_bytes())


def test_deterministic_blobs():
    # entries written sorted -> equal states serialize identically
    vals = np.random.default_rng(5).integers(0, 2**62, 3000, dtype=np.int64)
    a = HyperLogLog(b=12)
    a.add_values(vals)
    b = HyperLogLog(b=12)
    for chunk in np.array_split(vals, 7):
        b.add_values(chunk)
    assert a.to_bytes() == b.to_bytes()


# ---------------------------------------------------------------------------
# adversarial blobs (CardinalityEstimatorSerializerTests.cs:457-666)


def _header(bits, flags, major=WIRE_FORMAT_MAJOR, minor=WIRE_FORMAT_MINOR):
    return struct.pack("<HHiB", major, minor, bits, flags)


@pytest.mark.parametrize("bits", [-1, 0, 3, 17, 30])
def test_rejects_out_of_range_bits(bits):
    blob = _header(bits, 2) + struct.pack("<i", 0) + struct.pack("<Q", 0)
    with pytest.raises(ValueError, match="bitsPerIndex"):
        HyperLogLog.from_bytes(blob)


@pytest.mark.parametrize("count", [-1, 101, 2**30])
def test_rejects_bad_direct_count(count):
    blob = _header(14, 3) + struct.pack("<i", count) + struct.pack("<Q", 0)
    with pytest.raises(ValueError, match="directCount"):
        HyperLogLog.from_bytes(blob)


def test_rejects_oversized_sparse_count():
    m = 1 << 14
    blob = _header(14, 2) + struct.pack("<i", m + 1) + struct.pack("<Q", 0)
    with pytest.raises(ValueError, match="sparse"):
        HyperLogLog.from_bytes(blob)


def test_rejects_negative_sparse_count():
    blob = _header(14, 2) + struct.pack("<i", -5) + struct.pack("<Q", 0)
    with pytest.raises(ValueError, match="sparse"):
        HyperLogLog.from_bytes(blob)


@pytest.mark.parametrize("length", [0, 100, (1 << 14) - 1, (1 << 14) + 1])
def test_rejects_dense_length_mismatch(length):
    blob = _header(14, 0) + struct.pack("<i", length) + b"\0" * length + struct.pack("<Q", 0)
    with pytest.raises(ValueError, match="dense"):
        HyperLogLog.from_bytes(blob)


def test_rejects_truncated_dense_payload():
    m = 1 << 14
    blob = _header(14, 0) + struct.pack("<i", m) + b"\0" * (m // 2)
    with pytest.raises(ValueError, match="[Tt]runcated"):
        HyperLogLog.from_bytes(blob)


def test_rejects_future_major_version():
    blob = _header(14, 2, major=WIRE_FORMAT_MAJOR + 1) + struct.pack("<i", 0) + struct.pack("<Q", 0)
    with pytest.raises(ValueError, match="version"):
        HyperLogLog.from_bytes(blob)


def test_rejects_truncated_header():
    with pytest.raises(ValueError):
        HyperLogLog.from_bytes(b"\x03\x00")


def test_reads_v2_format_with_hash_id():
    # v2.1 layout: [maj][min][hashId u8][bits i32][flags][payload][adds u64]
    payload = struct.pack("<HH", 2, 1) + struct.pack("<B", 0)  # fnv1a
    payload += struct.pack("<i", 14) + struct.pack("<B", 3)
    payload += struct.pack("<i", 1) + struct.pack("<Q", 12345)
    payload += struct.pack("<Q", 7)
    hll = HyperLogLog.from_bytes(payload)
    assert hll.hash_name == "fnv1a"
    assert hll.direct == {12345}
    assert hll.count_additions == 7
    assert hll.estimate() == 1


# sparse-payload edge cases pinned to the v3.1 bytes the per-entry decoder
# produced: accepted blobs map to their re-serialized bytes, rejected ones
# to their exact message (the first offending entry wins over a later
# truncation)
_ACCEPTED_PAYLOADS = {
    "empty": ("030001000e00000002000000000000000000000000",
              "030001000e00000002000000000000000000000000"),
    "zero_rank": ("030001000e00000002020000000700000900030500000000000000",
                  "030001000e00000002020000000700000900030500000000000000"),
    "repeated_index_last_wins": (
        "030001000e00000002030000000900030700020900010300000000000000",
        "030001000e00000002020000000700020900010300000000000000"),
}
_REJECTED_PAYLOADS = {
    "truncated_entries": ("030001000e0000000203000000090003070002",
                          "truncated serialized sketch"),
    "truncated_mid_entry": ("030001000e000000020300000009000307000201",
                            "truncated serialized sketch"),
    "truncated_trailer": ("030001000e00000002010000000900030000",
                          "truncated serialized sketch"),
    "rank_before_index": (
        "030001000e0000000203000000050046004001",
        "invalid serialized data: sparse rank 70 > 51 for bitsPerIndex=14"),
    "index_before_truncation": (
        "030001000e0000000203000000050001004063",
        "invalid serialized data: sparse register index 16384 >= m=16384"),
    "direct_truncated": (
        "030001000e000000030300000001000000000000000200000000000000",
        "truncated serialized sketch"),
}


@pytest.mark.parametrize("case", sorted(_ACCEPTED_PAYLOADS))
def test_sparse_payload_edge_cases_reserialize_pinned(case):
    blob_hex, out_hex = _ACCEPTED_PAYLOADS[case]
    hll = HyperLogLog.from_bytes(bytes.fromhex(blob_hex))
    assert hll.to_bytes().hex() == out_hex
    assert HyperLogLog.from_bytes(hll.to_bytes()) == hll


@pytest.mark.parametrize("case", sorted(_REJECTED_PAYLOADS))
def test_payload_edge_cases_reject_pinned(case):
    blob_hex, message = _REJECTED_PAYLOADS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HyperLogLog.from_bytes(bytes.fromhex(blob_hex))
