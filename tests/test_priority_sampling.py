"""Deterministic hash-priority sampling (sketches/priority_sample.py):
canonical layout-invariant state, E&S weighted inclusion, exact
total_weight, the SQL oracle's splitmix64 chain, and Ray end-to-end
bit-identity across block layouts."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from cardinalityestimation_ray.sketches.priority_sample import (
    PrioritySample,
    WeightedPrioritySample,
    priorities_for_ids,
)

REPO = Path(__file__).resolve().parent.parent


def _entry():
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", REPO / "__ray_entry__.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# ---------------------------------------------------------------------------
# pure-sketch canonical state


def test_priority_sample_layout_invariant_blobs():
    rng = np.random.default_rng(3)
    ids = np.arange(10_000, dtype=np.int64)
    vals = (ids * 3 % 997).astype(np.float64)
    whole = PrioritySample(k=64, seed=7)
    whole.add_tagged(ids, vals)
    for splits in (2, 7, 33):
        perm = rng.permutation(len(ids))
        parts = []
        for chunk in np.array_split(perm, splits):
            p = PrioritySample(k=64, seed=7)
            p.add_tagged(ids[chunk], vals[chunk])
            parts.append(p)
        rng.shuffle(parts)
        acc = parts[0]
        for p in parts[1:]:
            acc = acc.merge(p)
        # bit-identical wire state no matter the split / merge order
        assert acc.to_bytes() == whole.to_bytes()
    assert whole.n == len(ids)
    assert len(whole.sample()) == 64


def test_weighted_priority_sample_layout_invariant_and_exact_weight():
    rng = np.random.default_rng(4)
    ids = np.arange(10_000, dtype=np.int64)
    vals = ids.astype(np.float64)
    # mixed magnitudes so a float-ordered sum WOULD drift
    wts = np.where(ids % 100 == 0, 1e12, 1e-6) + (ids % 7)
    whole = WeightedPrioritySample(k=32, seed=9)
    whole.add_weighted(ids, vals, wts)
    parts = []
    for chunk in np.array_split(rng.permutation(len(ids)), 11):
        q = WeightedPrioritySample(k=32, seed=9)
        q.add_weighted(ids[chunk], vals[chunk], wts[chunk])
        parts.append(q)
    rng.shuffle(parts)
    acc = parts[0]
    for q in parts[1:]:
        acc = acc.merge(q)
    assert acc.to_bytes() == whole.to_bytes()
    # superaccumulator: correctly-rounded true sum, any order
    assert acc.total_weight == math.fsum(wts)


def test_priority_sample_wire_roundtrip_and_validation():
    s = PrioritySample(k=16, seed=5)
    s.add_tagged(np.arange(100), np.arange(100.0))
    blob = s.to_bytes()
    rt = PrioritySample.from_bytes(blob)
    assert rt.to_bytes() == blob and rt.n == 100 and rt.seed == 5
    with pytest.raises(ValueError, match="bad magic"):
        PrioritySample.from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="payload"):
        PrioritySample.from_bytes(blob[:-3])
    with pytest.raises(ValueError, match="different k"):
        PrioritySample(k=8).merge(PrioritySample(k=4))
    with pytest.raises(ValueError, match="different seeds"):
        PrioritySample(k=8, seed=1).merge(PrioritySample(k=8, seed=2))
    with pytest.raises(TypeError, match="add_tagged"):
        s.add_values(np.arange(3.0))


def test_weighted_priority_sample_wire_and_edges():
    s = WeightedPrioritySample(k=8, seed=1)
    s.add_weighted(np.arange(5), np.arange(5.0),
                   np.array([0.0, 1.0, 1.0, 0.0, 1.0]))
    # weight-0 rows count toward n / total_weight, never sampled
    assert s.n == 5 and s.total_weight == 3.0 and len(s.sample()) == 3
    blob = s.to_bytes()
    rt = WeightedPrioritySample.from_bytes(blob)
    assert rt.to_bytes() == blob and rt.total_weight == 3.0
    with pytest.raises(ValueError, match="bad magic"):
        WeightedPrioritySample.from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="finite"):
        s.add_weighted(np.array([1]), np.array([1.0]), np.array([np.nan]))
    with pytest.raises(ValueError, match="finite"):
        s.add_weighted(np.array([1]), np.array([1.0]), np.array([-1.0]))
    with pytest.raises(ValueError, match="different seeds"):
        WeightedPrioritySample(k=8, seed=1).merge(
            WeightedPrioritySample(k=8, seed=2))


def test_negative_ids_reinterpret_twos_complement():
    p = priorities_for_ids(np.array([-1, -2**63], dtype=np.int64), 3)
    q = priorities_for_ids(
        np.array([2**64 - 1, 2**63], dtype=np.uint64), 3)
    assert np.array_equal(p, q)


# ---------------------------------------------------------------------------
# distribution over seeds (the randomness lives in the seed)


def test_priority_sample_uniform_over_seeds():
    n, k, trials = 100, 20, 300
    ids = np.arange(n, dtype=np.int64)
    vals = ids.astype(np.float64)
    counts = np.zeros(n)
    for seed in range(trials):
        s = PrioritySample(k=k, seed=seed)
        s.add_tagged(ids, vals)
        counts[s.sample().astype(int)] += 1
    p = k / n
    sigma = np.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(counts - trials * p) < 5 * sigma), counts


def test_weighted_priority_sample_inclusion_tracks_weight():
    # two weight classes, 10x apart; E&S first-draw inclusion ratio for
    # k << n approaches the weight ratio
    n, k, trials = 200, 10, 400
    ids = np.arange(n, dtype=np.int64)
    vals = ids.astype(np.float64)
    wts = np.where(ids < n // 2, 1.0, 10.0)
    counts = np.zeros(n)
    for seed in range(trials):
        s = WeightedPrioritySample(k=k, seed=seed)
        s.add_weighted(ids, vals, wts)
        counts[s.sample().astype(int)] += 1
    lo = counts[: n // 2].mean()
    hi = counts[n // 2:].mean()
    assert hi > 5 * lo, (lo, hi)


# ---------------------------------------------------------------------------
# SQL oracle parity (the mix64 chain in __ray_entry__._mix64_tag_sql)


def test_mix64_sql_matches_numpy_kernel():
    duckdb = pytest.importorskip("duckdb")
    entry = _entry()
    ids = np.array([0, 1, 2, 997, 12345678901234, 2**62, 2**63 - 1,
                    -1, -2**63], dtype=np.int64)
    con = duckdb.connect()
    con.execute("CREATE TABLE t AS SELECT unnest(?::BIGINT[]) AS x",
                [ids.tolist()])
    for seed in (0, 7, 123456789):
        q = entry._mix64_tag_sql("SELECT x AS val, x AS id FROM t", seed)
        got = con.execute(q).fetchnumpy()
        exp = priorities_for_ids(ids, seed)
        by_val = {int(v): int(t) for v, t in
                  zip(got["val"], got["tag"].astype(np.uint64))}
        assert all(by_val[int(i)] == int(e) for i, e in zip(ids, exp))


# ---------------------------------------------------------------------------
# Ray end-to-end: bit-identical frames across block layouts


def test_priority_sampling_ray_layout_invariance(ray_session):
    import ray.data

    from cardinalityestimation_ray.pipelines.sampling import (
        priority_sample_summary,
        weighted_priority_sample_summary,
    )

    n = 5_000
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "x": (np.arange(n) * 17 % 1009).astype(np.float64),
        "w": (np.arange(n) % 13 + 1).astype(np.float64),
    })
    frames_u, frames_w = [], []
    for blocks in (1, 7):
        ds = ray.data.from_pandas(df).repartition(blocks)
        frames_u.append(priority_sample_summary(ds, "x", "id", k=128, seed=7))
        ds = ray.data.from_pandas(df).repartition(blocks)
        frames_w.append(weighted_priority_sample_summary(
            ds, "x", "w", "id", k=64, seed=7))
    pd.testing.assert_frame_equal(frames_u[0], frames_u[1])
    pd.testing.assert_frame_equal(frames_w[0], frames_w[1])
    assert frames_u[0]["n_sample"].iloc[0] == 128
    # the uniform selection equals the brute-force bottom-k by priority
    tags = priorities_for_ids(df["id"].to_numpy(), 7)
    sel = df["x"].to_numpy()[np.argsort(tags)[:128]]
    assert frames_u[0]["sample_min"].iloc[0] == sel.min()
    assert frames_u[0]["sample_max"].iloc[0] == sel.max()


def test_priority_sampling_null_rows_dropped(ray_session):
    import ray.data

    from cardinalityestimation_ray.pipelines.sampling import (
        priority_sample_summary,
    )

    df = pd.DataFrame({
        "id": pd.array([1, 2, None, 4], dtype="Int64"),
        "x": pd.array([10.0, None, 30.0, 40.0], dtype="Float64"),
    })
    ds = ray.data.from_pandas(df)
    out = priority_sample_summary(ds, "x", "id", k=8, seed=1)
    # rows 2 (null x) and 3 (null id) drop -> n_total counts 2 valid rows
    assert out["n_total"].iloc[0] == 2
    assert out["n_sample"].iloc[0] == 2


# ---------------------------------------------------------------------------
# DLT (Duffield–Lund–Thorup) priority sampling


def _dlt(k=16, seed=9):
    from cardinalityestimation_ray.sketches.priority_sample import (
        WeightedDLTSample,
    )

    return WeightedDLTSample(k=k, seed=seed)


def test_dlt_merge_topology_invariant_and_tau():
    rng = np.random.default_rng(3)
    ids = np.arange(500)
    w = rng.integers(1, 1000, size=500).astype(float)

    whole = _dlt()
    whole.add_weighted(ids, ids.astype(float), w)

    # 7 uneven shards merged in a scrambled order
    shards = np.array_split(rng.permutation(500), 7)
    merged = _dlt()
    for sh in shards:
        part = _dlt()
        part.add_weighted(ids[sh], ids[sh].astype(float), w[sh])
        merged = merged.merge(part)

    assert np.array_equal(whole.sample(), merged.sample())
    assert whole.tau == merged.tau
    assert np.array_equal(whole.sample_est_weights(),
                          merged.sample_est_weights())

    # tau is the (k+1)-th largest priority, computed from first principles
    from cardinalityestimation_ray.sketches.priority_sample import (
        _INV_2_64,
        priorities_for_ids,
    )

    u = (priorities_for_ids(ids, 9).astype(np.float64) + 0.5) * _INV_2_64
    pri = w / u
    assert whole.tau == float(np.sort(pri)[::-1][16])
    # estimator floor: every reported est weight >= tau, >= its raw weight
    est = whole.sample_est_weights()
    assert (est >= whole.tau).all() and (est >= whole.sample_weights()).all()


def test_dlt_small_population_tau_zero_exact():
    s = _dlt(k=16)
    s.add_weighted(np.arange(5), np.arange(5, dtype=float),
                   np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert s.tau == 0.0
    # n <= k: the sample IS the population and est == raw weight exactly
    assert sorted(s.sample_weights().tolist()) == [1, 2, 3, 4, 5]
    assert np.array_equal(s.sample_est_weights(), s.sample_weights())


def test_dlt_zero_weight_rows_counted_never_sampled():
    s = _dlt(k=4)
    s.add_weighted(np.arange(10), np.arange(10, dtype=float),
                   np.array([0.0] * 8 + [5.0, 7.0]))
    assert s.n == 10
    assert sorted(s.sample_weights().tolist()) == [5.0, 7.0]
    assert s.tau == 0.0  # only 2 positive rows -> no (k+1)-th priority


def test_dlt_wire_roundtrip_and_validation():
    from cardinalityestimation_ray.sketches.priority_sample import (
        WeightedDLTSample,
    )

    s = _dlt(k=8, seed=5)
    s.add_weighted(np.arange(100), np.arange(100, dtype=float),
                   np.arange(1, 101, dtype=float))
    blob = s.to_bytes()
    t = WeightedDLTSample.from_bytes(blob)
    assert t.k == 8 and t.seed == 5 and t.n == 100
    assert np.array_equal(t.sample(), s.sample())
    assert t.tau == s.tau
    with pytest.raises(ValueError):
        WeightedDLTSample.from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        WeightedDLTSample.from_bytes(blob[:-8])
    with pytest.raises(ValueError):
        _dlt().merge(_dlt(k=3))
    with pytest.raises(ValueError):
        _dlt(seed=1).merge(_dlt(seed=2))
    with pytest.raises(ValueError):
        s.add_weighted(np.arange(2), np.arange(2, dtype=float),
                       np.array([1.0, -1.0]))


def test_dlt_inclusion_tracks_weight():
    # heavier rows must be sampled (much) more often across seeds
    ids = np.arange(400)
    w = np.where(ids < 200, 1.0, 20.0)
    heavy_hits = light_hits = 0
    for seed in range(40):
        s = _dlt(k=40, seed=seed)
        s.add_weighted(ids, ids.astype(float), w)
        sel = s.sample().astype(int)
        heavy_hits += int((sel >= 200).sum())
        light_hits += int((sel < 200).sum())
    assert heavy_hits > 8 * light_hits


def test_dlt_ray_pipeline_layout_invariance(ray_session):
    import ray.data

    from cardinalityestimation_ray.pipelines.sampling import (
        weighted_dlt_sample_rows,
    )

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "doc_id": np.arange(1000, dtype=np.int64),
        "n_chars": rng.integers(1, 500, size=1000).astype(np.int64),
    })
    frames = []
    for blocks in (1, 3, 17):
        ds = ray.data.from_pandas(df).repartition(blocks)
        out = weighted_dlt_sample_rows(ds, "doc_id", "n_chars", "doc_id",
                                       k=64, seed=7)
        frames.append(out.sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(frames[0], frames[1])
    pd.testing.assert_frame_equal(frames[0], frames[2])
