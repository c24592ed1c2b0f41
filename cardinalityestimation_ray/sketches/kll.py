"""KLL quantile sketch (Karnin, Lang, Liberty, "Optimal quantile
approximation in streams", FOCS 2016), batch-vectorized.

Listed by the reference only as future roadmap (ROADMAP.md:169-172); built
from the published paper. Level h holds items with weight 2^h; a full level
is sorted and every other item (random even/odd offset) is promoted, giving
additive rank error eps ~ O(1/k) with high probability.

Randomness is a per-sketch counter-based PCG stream seeded explicitly, so a
single-threaded run is reproducible; merge order changes the stream (bounds
still hold — tests assert bounds, not exact values, SURVEY.md §7.4).
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .base import Sketch

_MAGIC = b"KLL1"


class KLLSketch(Sketch):
    kind = "kll"

    __slots__ = ("k", "seed", "compactors", "n", "_min", "_max", "_rng")

    def __init__(self, k: int = 200, seed: int | None = None):
        if k < 8:
            raise ValueError(f"k must be >= 8, got {k}")
        self.k = k
        # seed=None (default) draws per-instance entropy — every distributed
        # partial must flip INDEPENDENT compaction coins or per-level rank
        # errors correlate across the merge tree instead of cancelling
        # (round-3 review found KLL sharing seed 42 everywhere)
        self.seed = (int.from_bytes(os.urandom(8), "little")
                     if seed is None else seed)
        self.compactors: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = 0
        self._min = math.inf
        self._max = -math.inf
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    # ------------------------------------------------------------------

    def _capacity(self, level: int) -> int:
        # c_h = k * (2/3)^(H-1-h), floored at 8; top levels get full k
        height = len(self.compactors)
        return max(8, int(math.ceil(self.k * (2.0 / 3.0) ** (height - 1 - level))))

    def add_values(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if len(values) == 0:
            return
        self.n += len(values)
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        self.compactors[0] = np.concatenate([self.compactors[0], values])
        self._compact_all()

    def _compact_all(self) -> None:
        level = 0
        while level < len(self.compactors):
            if len(self.compactors[level]) > self._capacity(level):
                self._compact_level(level)
            level += 1

    def _compact_level(self, level: int) -> None:
        items = np.sort(self.compactors[level], kind="stable")
        if len(items) < 2:
            return
        offset = int(self._rng.integers(0, 2))
        keep = np.empty(0, dtype=np.float64)
        if len(items) % 2 == 1:
            # odd count: the last item has no pair partner — keep it in
            # place at its own weight regardless of the random offset, so
            # total retained weight stays exactly n (round-1 ADVICE fix:
            # offset==1 used to silently discard it).
            keep = items[-1:]
            items = items[:-1]
        promoted = items[offset::2]
        self.compactors[level] = keep
        if level + 1 >= len(self.compactors):
            self.compactors.append(np.empty(0, dtype=np.float64))
        self.compactors[level + 1] = np.concatenate(
            [self.compactors[level + 1], promoted])

    # ------------------------------------------------------------------

    def _weighted_items(self) -> tuple[np.ndarray, np.ndarray]:
        vals, weights = [], []
        for level, items in enumerate(self.compactors):
            if len(items):
                vals.append(items)
                weights.append(np.full(len(items), 2.0 ** level))
        if not vals:
            return np.empty(0), np.empty(0)
        v = np.concatenate(vals)
        w = np.concatenate(weights)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def rank(self, x: float) -> float:
        """Approximate fraction of items <= x."""
        v, w = self._weighted_items()
        if len(v) == 0:
            return math.nan
        total = w.sum()
        return float(w[v <= x].sum() / total)

    def quantile(self, q: float) -> float:
        v, w = self._weighted_items()
        if len(v) == 0:
            return math.nan
        if q <= 0:
            return self._min
        if q >= 1:
            return self._max
        cumw = np.cumsum(w)
        target = q * cumw[-1]
        i = int(np.searchsorted(cumw, target, side="left"))
        return float(v[min(i, len(v) - 1)])

    def quantiles(self, qs) -> np.ndarray:
        return np.asarray([self.quantile(float(q)) for q in qs])

    @property
    def retained(self) -> int:
        return sum(len(c) for c in self.compactors)

    def eps(self) -> float:
        """Rough additive rank-error bound ~ 1.7/k (single-stream constant)."""
        return 1.7 / self.k

    # ------------------------------------------------------------------

    def merge(self, other: "KLLSketch") -> "KLLSketch":
        if other.k != self.k:
            raise ValueError("cannot merge KLL sketches with different k")
        while len(self.compactors) < len(other.compactors):
            self.compactors.append(np.empty(0, dtype=np.float64))
        for level, items in enumerate(other.compactors):
            if len(items):
                self.compactors[level] = np.concatenate(
                    [self.compactors[level], items])
        self.n += other.n
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._compact_all()
        return self

    def copy(self) -> "KLLSketch":
        # the copy gets FRESH coin entropy: seeding every copy with
        # self.seed + 1 made all copies of one sketch (and copies of
        # copies) flip identical compaction coins, correlating rank errors
        # across merge branches that share a copied accumulator base
        # (round-4 session-9 review — the same independence invariant the
        # per-instance __init__ entropy exists for)
        out = KLLSketch(self.k)
        out.compactors = [c.copy() for c in self.compactors]
        out.n = self.n
        out._min = self._min
        out._max = self._max
        return out

    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        parts = [_MAGIC, struct.pack("<IIQdd", self.k, len(self.compactors),
                                     self.n, self._min, self._max)]
        for c in self.compactors:
            parts.append(struct.pack("<Q", len(c)))
            parts.append(c.tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "KLLSketch":
        if blob[:4] != _MAGIC:
            raise ValueError("invalid KLL blob: bad magic")
        try:
            k, levels, n, mn, mx = struct.unpack_from("<IIQdd", blob, 4)
        except struct.error as e:
            raise ValueError(f"truncated KLL blob: {e}") from None
        if k < 8:
            raise ValueError(f"invalid KLL blob: k {k}")
        if levels > 64:
            raise ValueError(f"invalid KLL blob: {levels} levels")
        off = 4 + struct.calcsize("<IIQdd")
        out = cls(k)
        out.compactors = []
        for _ in range(levels):
            if off + 8 > len(blob):
                raise ValueError("truncated KLL blob")
            (cnt,) = struct.unpack_from("<Q", blob, off)
            off += 8
            if off + cnt * 8 > len(blob):
                raise ValueError("truncated KLL blob")
            out.compactors.append(
                np.frombuffer(blob, dtype=np.float64, count=cnt, offset=off).copy())
            off += cnt * 8
        if not out.compactors:
            out.compactors = [np.empty(0, dtype=np.float64)]
        out.n = n
        out._min = mn
        out._max = mx
        return out
