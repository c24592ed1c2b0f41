"""Bitwise-reproducible float64 summation, independent of block layout.

A plain float ``Sum`` aggregate adds values in whatever order the streaming
executor delivered the blocks, so the low bits of the result change with
parallelism (observed: ``embedding_norm_stats`` hashed differently at 8 vs
32 CPUs while staying oracle-green under rtol). This module removes the
order dependence by making the accumulation EXACT: every finite float64 is
decomposed — exactly, no rounding — onto a fixed-point grid of 32-bit limbs
held in int64 lanes (a superaccumulator in the spirit of ReproBLAS /
Collange et al., "Numerical reproducibility for the parallel reduction on
multi- and many-core architectures", 2015). Integer addition is associative
and commutative, so ANY partial order — per-batch combine, Ray groupby
shuffle, tree merge — yields the same limbs, and the final limbs-to-float
conversion rounds once, correctly. The result is not merely reproducible:
it is the correctly-rounded true sum (bit-equal to ``math.fsum``).

Grid layout: a value ``x = M * 2**(e-53)`` (``M`` the 53-bit signed
mantissa from ``np.frexp``) has its lowest bit at exponent
``p = e - 53 >= -1126`` (smallest subnormal: ``2**-1074 = 2**52 * 2**-1126``),
highest at ``p + 52 <= 971 + 52``. With limbs of 32 bits anchored at
``2**-1126``, bit positions span ``[0, 2098 + 52)`` → 68 limbs cover every
finite float64. Each value lands in at most three adjacent limbs.

Overflow bounds (documented, enforced by normalization): per-batch
accumulation is followed by a carry pass that returns every limb to
``(-2**32, 2**32)``, so int64 lanes survive ``2**31`` merged partials —
far beyond any real block count.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

#: bits per limb
LIMB_BITS = 32
#: number of int64 limb lanes covering all finite float64 magnitudes
N_LIMBS = 68
#: the grid anchor: limb 0, bit 0 has weight 2**-_BIAS
_BIAS = 1126
_MASK = np.uint64(0xFFFFFFFF)


def accumulate_limbs(values: np.ndarray, key_idx: np.ndarray | None = None,
                     n_keys: int = 1) -> np.ndarray:
    """Exactly accumulate float64 ``values`` into per-key limb lanes.

    Returns an ``(n_keys, N_LIMBS)`` int64 array, carry-normalized so every
    limb is in ``(-2**32, 2**32)``. ``key_idx`` maps each value to its key
    row (``None`` = single key). Raises on non-finite input — an exact sum
    of infinities/NaNs is not meaningful and silently absorbing them would
    hide upstream bugs.

    The accumulator is ``n_keys x 68 x 8`` bytes — sized for
    bounded-cardinality aggregates (stats per label/window/source, global
    folds; ~0.5 KB per key). A float sum keyed by a HIGH-cardinality
    column should pre-bucket per batch (each batch only pays for ITS
    distinct keys, as the embedding/window combiners do) so no single
    call sees the full key space. Throughput ~7-10 M values/s/core
    (quiet box) — ~10x a naive float sum, the price of exactness; keep
    it off token-scale hot paths.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.size and not np.isfinite(x).all():
        raise ValueError("reproducible sum requires finite float64 input")
    acc = np.zeros(n_keys * N_LIMBS, dtype=np.int64)
    if x.size:
        m, e = np.frexp(x)
        big = np.rint(m * 9007199254740992.0).astype(np.int64)  # m * 2**53
        sign = np.sign(big)
        mag = np.abs(big).astype(np.uint64)
        q = (e.astype(np.int64) - 53) + _BIAS  # >= 0 for nonzero x
        nz = mag != 0
        q[~nz] = 0  # x == 0 contributes zero chunks; park it at limb 0
        limb = (q >> 5).astype(np.int64)
        r = (q & 31).astype(np.uint64)
        lo = (mag & _MASK) << r          # < 2**63, fits uint64
        hi = (mag >> np.uint64(32)) << r  # < 2**52, fits
        c0 = (lo & _MASK).astype(np.int64) * sign
        c1 = ((lo >> np.uint64(32)) + (hi & _MASK)).astype(np.int64) * sign
        c2 = (hi >> np.uint64(32)).astype(np.int64) * sign
        base = limb if key_idx is None else \
            np.asarray(key_idx, dtype=np.int64) * N_LIMBS + limb
        # scatter-add via chunked bincount with float64 weights — ~100x
        # faster than np.add.at and still EXACT: chunk values < 2**33 and
        # chunks of <= 2**19 rows bound every partial sum below 2**52,
        # inside float64's exact-integer range; int64 accumulation between
        # chunks carries no rounding at all. bincount is O(n + n_keys *
        # N_LIMBS) per chunk, so fall back to np.add.at (exact, slower)
        # when the key space dwarfs the chunk
        size = acc.shape[0]
        if size <= max(1 << 22, 8 * x.size):
            for lo in range(0, x.size, 1 << 19):
                hi = lo + (1 << 19)
                b = base[lo:hi]
                for off, c in ((0, c0), (1, c1), (2, c2)):
                    acc += np.bincount(b + off,
                                       weights=c[lo:hi]
                                       .astype(np.float64),
                                       minlength=size).astype(np.int64)
        else:
            np.add.at(acc, base, c0)
            np.add.at(acc, base + 1, c1)
            np.add.at(acc, base + 2, c2)
    return normalize_limbs(acc.reshape(n_keys, N_LIMBS))


def normalize_limbs(limbs: np.ndarray) -> np.ndarray:
    """Carry-propagate so every limb is in ``(-2**32, 2**32)``.

    Input limbs may hold up to ``2**31`` un-normalized partial adds; the
    value represented is unchanged. The top limb absorbs the final carry
    (it cannot overflow: the represented value is a sum of at most ``2**31``
    finite float64s, < 2**(1024 + 31), whose top-limb weight is 2**1050).
    """
    out = np.array(limbs, dtype=np.int64, copy=True)
    if out.ndim == 1:
        out = out.reshape(1, -1)
    for i in range(out.shape[1] - 1):
        carry = out[:, i] >> LIMB_BITS  # arithmetic shift = floor division
        out[:, i] -= carry << LIMB_BITS
        out[:, i + 1] += carry
    return out.reshape(limbs.shape)


def limbs_to_float(limbs: np.ndarray) -> float:
    """Convert one limb row to the correctly-rounded float64 it represents.

    Reconstructs the exact integer numerator with Python bignums and lets
    ``Fraction.__float__`` (correctly rounded in CPython) do the single
    rounding step — so the result equals ``math.fsum`` of the inputs.
    """
    row = np.asarray(limbs, dtype=np.int64).reshape(-1)
    total = 0
    for i in range(row.shape[0] - 1, -1, -1):
        total = (total << LIMB_BITS) + int(row[i])
    if total == 0:
        return 0.0
    return float(Fraction(total, 1 << _BIAS))


def reproducible_sum(values: np.ndarray) -> float:
    """Correctly-rounded, order-independent sum of a float64 array."""
    return limbs_to_float(accumulate_limbs(np.asarray(values)))


def limbs_to_blobs(limbs: np.ndarray, rows_per_blob: int = 1) -> list[bytes]:
    """Little-endian int64 limb blobs — the wire form the
    :func:`detsum_aggregate` UDAF ships through Ray's groupby tree (one
    binary column instead of 68 int64 columns). ``rows_per_blob`` packs
    several limb rows per blob (e.g. all the dims of one label), so a
    vector-valued exact sum is ONE aggregation group, not ``d``."""
    lanes = np.ascontiguousarray(limbs, dtype="<i8").reshape(
        -1, rows_per_blob * N_LIMBS)
    return [lanes[i].tobytes() for i in range(lanes.shape[0])]


def blob_to_limbs(blob: bytes) -> np.ndarray:
    """(rows, N_LIMBS) int64 array from one limb blob."""
    flat = np.frombuffer(blob, dtype="<i8").astype(np.int64)
    if flat.size % N_LIMBS:
        raise ValueError(f"limb blob length {flat.size} not a multiple "
                         f"of {N_LIMBS}")
    return flat.reshape(-1, N_LIMBS)


def detsum_aggregate(blob_column: str = "limbs", *,
                     alias_name: str = "detsum",
                     finalize: str = "float"):
    """Mergeable Ray AggregateFn over limb-blob partial rows.

    Same shape as the sketch UDAFs (``stages/sketch_stages.py``):
    accumulate per block, merge across blocks/groups — but here the merge
    is integer limb addition, so the aggregation is EXACT and the result
    bit-identical for any block layout. Blobs may pack several limb rows
    (a vector-valued sum); all blobs in one group must pack the same
    number. ``finalize``: "float" (correctly-rounded float64 sum;
    single-row blobs only) or "blob" (mergeable limb blob — decode with
    :func:`blob_to_limbs` + :func:`limbs_to_float` per row).
    """
    from ray.data.aggregate import AggregateFn

    def _add(a: np.ndarray | None, b: np.ndarray | None):
        if a is None:
            return b
        if b is None:
            return a
        if a.shape != b.shape:
            raise ValueError(f"limb blob shape mismatch: {a.shape} "
                             f"vs {b.shape}")
        return normalize_limbs(a + b)

    def accumulate_block(acc: bytes, block) -> bytes:
        import pyarrow as pa

        tbl = block if isinstance(block, pa.Table) else \
            pa.Table.from_pandas(block)
        part = None
        for b in tbl[blob_column]:
            if b.is_valid:
                part = _add(part, blob_to_limbs(b.as_py()))
        prev = blob_to_limbs(acc) if acc else None
        total = _add(prev, part)
        return b"" if total is None else \
            total.astype("<i8").tobytes()

    def merge(a: bytes, b: bytes) -> bytes:
        pa_, pb = (blob_to_limbs(a) if a else None,
                   blob_to_limbs(b) if b else None)
        total = _add(pa_, pb)
        return b"" if total is None else total.astype("<i8").tobytes()

    def finalize_fn(acc: bytes):
        if finalize == "blob":
            return acc
        limbs = blob_to_limbs(acc) if acc else \
            np.zeros((1, N_LIMBS), dtype=np.int64)
        if limbs.shape[0] != 1:
            raise ValueError("finalize='float' needs single-row blobs; "
                             "use finalize='blob' for packed rows")
        return limbs_to_float(limbs[0])

    return AggregateFn(init=lambda _key: b"", merge=merge,
                       accumulate_block=accumulate_block,
                       finalize=finalize_fn, name=alias_name)
