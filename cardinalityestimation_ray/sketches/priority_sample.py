"""Deterministic (layout-invariant) sampling via hash-derived priorities.

Each row's priority is a PURE FUNCTION of its identity —
``priority = splitmix64(id XOR splitmix64(seed))`` — so the sample is a
deterministic function of the ROW SET: bit-identical at any block layout,
parallelism level, or merge order, and reproducible across reruns for free
(the property ``deterministic_shuffle`` already provides for ordering,
extended here to sampling).

Two samplers, one per question:

- :class:`PrioritySample` — uniform: the bottom-k by priority is a uniform
  k-subset (classic bottom-k sampling, Cohen & Kaplan 2007).
- :class:`WeightedDLTSample` — weight-proportional: Duffield–Lund–Thorup
  priority sampling (JACM 2007), priority ``w / u`` with
  ``u = (priority + 0.5) / 2**64``, plus an unbiased subset-sum estimator.

Statistics: splitmix64 is a bijective finalizer with good avalanche
(Steele/Lea/Flood 2014, public domain), so over the choice of ``seed`` the
priorities of distinct ids behave as i.i.d. uniform u64 — the randomness
lives in the seed. Ids must be UNIQUE for exact uniformity: duplicate ids
share one priority, so their inclusions are perfectly correlated (they
enter/leave the sample together; nothing crashes).

Both are SQL-expressible (the splitmix64 chain runs in DuckDB via 32-bit-
split modular multiplication on HUGEINT, and DLT adds only a power-of-two
scaling and one division), so their queries carry real value-level oracles
— see ``__ray_entry__._mix64_tag_sql``.

Reference scope note: sampling is beyond the reference library (a C# HLL
estimator); this module exists for the training-data-pipeline surface
(SURVEY.md §2.7 sampling) where reproducible curation matters.
"""

from __future__ import annotations

import struct

import numpy as np

from .base import Sketch
from .hashing import splitmix64_inplace, splitmix64_scalar

_PSM_MAGIC = b"PSM1"
_WDL_MAGIC = b"WDL1"

#: 2**-64 as float64 — maps a u64 priority into (0, 1) via (p + 0.5) * 2**-64
_INV_2_64 = float(np.ldexp(1.0, -64))


def priorities_for_ids(ids: np.ndarray, seed: int) -> np.ndarray:
    """uint64 priority per id: ``splitmix64(uint64(id) ^ splitmix64(seed))``.

    Negative int64 ids reinterpret via two's complement (the SQL oracle
    mirrors this with ``id + 2**64``); the mix is a bijection, so distinct
    ids can NEVER tie.
    """
    ids = np.asarray(ids)
    if ids.dtype.kind == "i":
        ids = ids.view(f"u{ids.dtype.itemsize}")
    u = ids.astype(np.uint64, copy=True)  # owned buffer for the in-place mix
    if seed:
        u ^= np.uint64(splitmix64_scalar(int(seed)))
    return splitmix64_inplace(u)


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


class PrioritySample(Sketch):
    """Deterministic uniform bottom-k sample keyed by hash priority.

    State is kept CANONICAL — sorted ascending by (priority, value) and
    truncated to k — so ``to_bytes`` is identical no matter how partials
    were split or merged.
    """

    kind = "priority_sample"

    __slots__ = ("k", "seed", "tags", "values", "n")

    def __init__(self, k: int = 1024, seed: int = 0):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = _check_seed(seed)
        self.tags = np.empty(0, dtype=np.uint64)
        self.values = np.empty(0, dtype=np.float64)
        self.n = 0

    def _canonicalize(self, tags: np.ndarray, values: np.ndarray) -> None:
        order = np.lexsort((values, tags))[:self.k]
        self.tags = np.ascontiguousarray(tags[order])
        self.values = np.ascontiguousarray(values[order])

    def add_tagged(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Add rows identified by ``ids`` (ints; unique for exact
        uniformity) carrying sample payload ``values``."""
        values = np.asarray(values, dtype=np.float64)
        ids = np.asarray(ids)
        if len(ids) != len(values):
            raise ValueError("ids and values must align")
        if len(values) == 0:
            return
        self.n += len(values)
        tags = priorities_for_ids(ids, self.seed)
        self._canonicalize(np.concatenate([self.tags, tags]),
                           np.concatenate([self.values, values]))

    def add_values(self, values: np.ndarray) -> None:
        raise TypeError(
            "PrioritySample needs row identities: use add_tagged(ids, "
            "values) — hashing the VALUE would correlate duplicate values")

    def sample(self) -> np.ndarray:
        """The selected values in canonical (priority) order."""
        return self.values.copy()

    def merge(self, other: "PrioritySample") -> "PrioritySample":
        if other.k != self.k:
            raise ValueError("cannot merge priority samples with different k")
        if other.seed != self.seed:
            raise ValueError(
                f"cannot merge priority samples with different seeds "
                f"({self.seed} != {other.seed}) — priorities would not be "
                f"comparable")
        self.n += other.n
        self._canonicalize(np.concatenate([self.tags, other.tags]),
                           np.concatenate([self.values, other.values]))
        return self

    def copy(self) -> "PrioritySample":
        out = PrioritySample(self.k, self.seed)
        out.tags = self.tags.copy()
        out.values = self.values.copy()
        out.n = self.n
        return out

    def to_bytes(self) -> bytes:
        header = _PSM_MAGIC + struct.pack("<IQQQ", self.k, self.seed,
                                          self.n, len(self.tags))
        return (header + self.tags.astype("<u8").tobytes()
                + self.values.astype("<f8").tobytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PrioritySample":
        if blob[:4] != _PSM_MAGIC:
            raise ValueError("invalid priority-sample blob: bad magic")
        try:
            k, seed, n, cnt = struct.unpack_from("<IQQQ", blob, 4)
        except struct.error as e:
            raise ValueError(f"truncated priority-sample blob: {e}") from None
        if k < 1 or cnt > k:
            raise ValueError(f"invalid priority-sample blob: k={k} cnt={cnt}")
        off = 4 + struct.calcsize("<IQQQ")
        if len(blob) - off != cnt * 16:
            raise ValueError(
                f"invalid priority-sample blob: expected {cnt * 16} payload "
                f"bytes, got {len(blob) - off}")
        out = cls(k, seed)
        out.tags = np.frombuffer(blob, dtype="<u8", count=cnt,
                                 offset=off).astype(np.uint64)
        out.values = np.frombuffer(blob, dtype="<f8", count=cnt,
                                   offset=off + cnt * 8).astype(np.float64)
        out.n = n
        return out


class WeightedDLTSample(Sketch):
    """Deterministic Duffield–Lund–Thorup priority sample (JACM 2007,
    "Priority sampling for estimation of arbitrary subset sums"): priority
    ``q_i = w_i / u_i`` with hash-derived ``u_i in (0, 1)``; keep the
    top-k by priority; threshold ``tau`` = the (k+1)-th priority (0 when
    at most k weighted rows exist); per-row subset-sum estimator
    ``max(w_i, tau)`` (unbiased, DLT Theorem 1).

    The priority crosses ONLY exactly-rounded IEEE operations — ``u`` is a
    power-of-two scaling of the splitmix64 tag and the priority a single
    division — so selection, threshold and estimator are bit-reproducible
    in DuckDB (``__ray_entry__`` reproduces the splitmix64 chain via
    ``_mix64_tag_sql`` and the division verbatim). An Efraimidis–Spirakis
    key ``-log(u)/w`` would cross ``log``, whose last bit differs between
    numpy's vectorized kernel and a SQL engine's libm.

    State keeps k+1 entries canonical (priority desc, value asc, weight
    asc): the global top-(k+1) is contained in the union of partial
    top-(k+1)s, so ``tau`` is exact under ANY merge topology — the same
    layout-invariance contract as :class:`PrioritySample`.
    """

    kind = "weighted_dlt_sample"

    __slots__ = ("k", "seed", "priorities", "values", "weights", "n")

    def __init__(self, k: int = 1024, seed: int = 0):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = _check_seed(seed)
        self.priorities = np.empty(0, dtype=np.float64)
        self.values = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self.n = 0

    def _canonicalize(self, pri, values, weights) -> None:
        # keep k+1 rows: row k (0-indexed) IS tau when present
        order = np.lexsort((weights, values, -pri))[:self.k + 1]
        self.priorities = np.ascontiguousarray(pri[order])
        self.values = np.ascontiguousarray(values[order])
        self.weights = np.ascontiguousarray(weights[order])

    def add_weighted(self, ids: np.ndarray, values: np.ndarray,
                     weights: np.ndarray) -> None:
        """Weights must be finite and >= 0; zero-weight rows count toward
        ``n`` but can never be sampled (priority 0 == the tau floor)."""
        values = np.asarray(values, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        ids = np.asarray(ids)
        if not (len(ids) == len(values) == len(weights)):
            raise ValueError("ids, values and weights must align")
        if not np.all(weights >= 0) or not np.isfinite(weights).all():
            raise ValueError("weights must be finite, >= 0 and non-NaN")
        if len(values) == 0:
            return
        self.n += len(values)
        pos = weights > 0
        if not pos.all():
            ids, values, weights = ids[pos], values[pos], weights[pos]
        if len(values) == 0:
            return
        u = (priorities_for_ids(ids, self.seed).astype(np.float64)
             + 0.5) * _INV_2_64
        pri = weights / u
        self._canonicalize(np.concatenate([self.priorities, pri]),
                           np.concatenate([self.values, values]),
                           np.concatenate([self.weights, weights]))

    def add_values(self, values: np.ndarray) -> None:
        raise TypeError(
            "WeightedDLTSample needs row identities and weights: use "
            "add_weighted(ids, values, weights)")

    @property
    def tau(self) -> float:
        """The DLT threshold: the (k+1)-th priority, 0 when it does not
        exist (at most k positively-weighted rows seen)."""
        return (float(self.priorities[self.k])
                if len(self.priorities) > self.k else 0.0)

    def sample(self) -> np.ndarray:
        """Selected payload values (top-k by priority, canonical order)."""
        return self.values[:self.k].copy()

    def sample_weights(self) -> np.ndarray:
        return self.weights[:self.k].copy()

    def sample_est_weights(self) -> np.ndarray:
        """Per-row unbiased weight estimator max(w_i, tau) — exactly the
        quantity the SQL oracle reproduces (greatest of two bit-identical
        doubles)."""
        return np.maximum(self.weights[:self.k], self.tau)

    def merge(self, other: "WeightedDLTSample") -> "WeightedDLTSample":
        if other.k != self.k:
            raise ValueError("cannot merge DLT samples with different k")
        if other.seed != self.seed:
            raise ValueError(
                f"cannot merge DLT samples with different seeds "
                f"({self.seed} != {other.seed})")
        self.n += other.n
        self._canonicalize(
            np.concatenate([self.priorities, other.priorities]),
            np.concatenate([self.values, other.values]),
            np.concatenate([self.weights, other.weights]))
        return self

    def copy(self) -> "WeightedDLTSample":
        out = WeightedDLTSample(self.k, self.seed)
        out.priorities = self.priorities.copy()
        out.values = self.values.copy()
        out.weights = self.weights.copy()
        out.n = self.n
        return out

    def to_bytes(self) -> bytes:
        header = _WDL_MAGIC + struct.pack("<IQQQ", self.k, self.seed,
                                          self.n, len(self.priorities))
        return (header + self.priorities.astype("<f8").tobytes()
                + self.values.astype("<f8").tobytes()
                + self.weights.astype("<f8").tobytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WeightedDLTSample":
        if blob[:4] != _WDL_MAGIC:
            raise ValueError("invalid DLT-sample blob: bad magic")
        try:
            k, seed, n, cnt = struct.unpack_from("<IQQQ", blob, 4)
        except struct.error as e:
            raise ValueError(f"truncated DLT-sample blob: {e}") from None
        if k < 1 or cnt > k + 1:
            raise ValueError(f"invalid DLT-sample blob: k={k} cnt={cnt}")
        off = 4 + struct.calcsize("<IQQQ")
        if len(blob) - off != cnt * 24:
            raise ValueError(
                f"invalid DLT-sample blob: expected {cnt * 24} payload "
                f"bytes, got {len(blob) - off}")
        out = cls(k, seed)
        out.priorities = np.frombuffer(blob, dtype="<f8", count=cnt,
                                       offset=off).astype(np.float64)
        out.values = np.frombuffer(blob, dtype="<f8", count=cnt,
                                   offset=off + cnt * 8).astype(np.float64)
        out.weights = np.frombuffer(blob, dtype="<f8", count=cnt,
                                    offset=off + cnt * 16).astype(np.float64)
        out.n = n
        return out
