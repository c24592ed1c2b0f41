"""Deterministic hash-priority sampling (sketches/priority_sample.py,
pipelines/sampling.py): canonical layout-invariant state, DLT weighted
inclusion and threshold, the SQL oracle's splitmix64 chain, the shared
partial's row contract, and Ray end-to-end bit-identity across block
layouts for the uniform, stratified and weighted pipelines."""

import importlib.util
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from cardinalityestimation_ray.sketches.priority_sample import (
    PrioritySample,
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
    )

    n = 5_000
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "x": (np.arange(n) * 17 % 1009).astype(np.float64),
    })
    frames = []
    for blocks in (1, 7):
        ds = ray.data.from_pandas(df).repartition(blocks)
        frames.append(priority_sample_summary(ds, "x", "id", k=128, seed=7))
    pd.testing.assert_frame_equal(frames[0], frames[1])
    assert frames[0]["n_sample"].iloc[0] == 128
    # the uniform selection equals the brute-force bottom-k by priority
    tags = priorities_for_ids(df["id"].to_numpy(), 7)
    sel = df["x"].to_numpy()[np.argsort(tags)[:128]]
    assert frames[0]["sample_min"].iloc[0] == sel.min()
    assert frames[0]["sample_max"].iloc[0] == sel.max()


#: (id, x, w, kept by the uniform sampler, kept by DLT), one row per case
_ROW_CASES = [
    (1, 10.0, 1.0, True, True),
    (2, None, 1.0, False, False),          # null value
    (None, 30.0, 1.0, False, False),       # null id
    (4, 40.0, None, True, False),          # null weight
    (5, 50.0, float("nan"), True, False),  # NaN weight
    (6, 60.0, -5.0, True, False),          # negative weight
    (7, 70.0, 0.0, True, True),            # zero weight: counted, not sampled
    (8, 80.0, 2.0, True, True),
]


@pytest.mark.parametrize("pipeline", ["uniform", "dlt"])
def test_priority_sampling_null_rows_dropped(ray_session, pipeline):
    """The shared partial's row exclusion on both pipelines: a null id or
    value drops the row; for DLT so does a null, NaN or negative weight,
    and a zero weight is counted in n_total but never sampled."""
    import pyarrow as pa
    import ray.data

    from cardinalityestimation_ray.pipelines.sampling import (
        _sample_partial,
        priority_sample_column,
        priority_sample_summary,
        weighted_dlt_sample_rows,
    )

    ids, xs, ws, kept_u, kept_w = zip(*_ROW_CASES)
    tbl = pa.table({"id": pa.array(ids, pa.int64()),
                    "x": pa.array(xs, pa.float64()),
                    "w": pa.array(ws, pa.float64())})
    assert tbl["w"].null_count == 1  # NaN stays a value, not a null
    kept = kept_u if pipeline == "uniform" else kept_w
    weight_column = None if pipeline == "uniform" else "w"
    part = _sample_partial("x", "id", k=8, seed=1,
                           weight_column=weight_column)(tbl)
    assert part["n_added"].to_pylist() == [sum(kept)]

    def ds():
        return ray.data.from_arrow([tbl.slice(0, 3), tbl.slice(3)])

    if pipeline == "uniform":
        out = priority_sample_summary(ds(), "x", "id", k=8, seed=1)
        assert out["n_total"].iloc[0] == out["n_sample"].iloc[0] == 6
        s, total = priority_sample_column(ds(), "x", "id", k=8, seed=1)
        assert total == 6
        assert sorted(s.sample()) == [x for x, k in zip(xs, kept) if k]
    else:
        out = weighted_dlt_sample_rows(ds(), "x", "w", "id", k=8, seed=1)
        assert sorted(out["x"]) == [10.0, 80.0]
        assert sorted(out["w"]) == [1.0, 2.0]


# ---------------------------------------------------------------------------
# stratified sampling: keyed PrioritySample

_K = 16


def _stratified_table():
    """Skewed keys (web ~84 %, books ~16 %, a 5-row key), null keys, and a
    key ("ghost") whose values are all null; ids shuffled, some values
    null, weights with zeros and NaNs."""
    import pyarrow as pa

    rng = np.random.default_rng(17)
    n = 4000
    src = rng.choice(np.array(["web", "books"], dtype=object), size=n,
                     p=[0.84, 0.16])
    src[rng.random(n) < 0.04] = None
    src[:5] = "wiki"
    src[5:40:7] = "ghost"
    x_null = (rng.random(n) < 0.02) | (src == "ghost")
    w = (np.arange(n) % 9).astype(np.float64)
    w[rng.random(n) < 0.02] = np.nan
    return pa.table({
        "id": pa.array(rng.permutation(n).astype(np.int64) + 10**6),
        "x": pa.array((np.arange(n) * 31 % 2003).astype(np.float64),
                      mask=x_null),
        "w": pa.array(w),
        "src": pa.array(src.tolist(), pa.string()),
    })


def test_stratified_sample_pinned_across_layouts(ray_session):
    """The stratified summary is bit-identical at 1, 7 and 17 blocks, and
    each key's selection is the brute-force bottom-k by priority over that
    key's rows (null-key rows dropped, the all-null key kept empty)."""
    import ray.data

    from cardinalityestimation_ray.pipelines.sampling import (
        priority_sample_column,
        stratified_sample_summary,
    )

    tbl = _stratified_table()
    frames = [stratified_sample_summary(
        ray.data.from_arrow(tbl).repartition(blocks), "x", "id", "src",
        k=_K, seed=7) for blocks in (1, 7, 17)]
    for f in frames[1:]:
        pd.testing.assert_frame_equal(frames[0], f, check_exact=True)
    out = frames[0].set_index("src")
    assert out.index.tolist() == ["books", "ghost", "web", "wiki"]
    merged = priority_sample_column(
        ray.data.from_arrow(tbl).repartition(7), "x", "id", k=_K, seed=7,
        key_column="src")
    assert sorted(merged) == out.index.tolist()
    df = tbl.to_pandas()
    for key, row in out.iterrows():
        rows = df[(df["src"] == key) & df["x"].notna()]
        tags = priorities_for_ids(rows["id"].to_numpy(), 7)
        sel = rows["x"].to_numpy()[np.argsort(tags)[:_K]]
        s, n = merged[key]
        assert n == row["n_total"] == len(rows)
        assert np.array_equal(s.sample(), sel)
        assert row["n_sample"] == len(sel) == min(_K, len(rows))
        if len(sel):
            assert (row["sample_min"], row["sample_max"]) == \
                (sel.min(), sel.max())
        else:
            assert np.isnan(row["sample_min"]) and np.isnan(row["sample_max"])
    assert out.loc["ghost", "n_total"] == 0
    assert out.loc["wiki", "n_sample"] == 5


@pytest.mark.parametrize("weight_column", [None, "w"])
def test_keyed_sample_partials_match_global(weight_column):
    """The shared partial's keyed path against its global path, uniform
    and DLT: each key's row is the global partial over that key's rows byte
    for byte, the all-null key gives (empty sample, 0), null keys are
    dropped, and a sliced batch gives what a fresh copy of it gives."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from cardinalityestimation_ray.pipelines.sampling import _sample_partial
    from cardinalityestimation_ray.sketches.priority_sample import (
        WeightedDLTSample,
    )

    tbl = _stratified_table()
    keyed = _sample_partial("x", "id", k=_K, seed=7,
                            weight_column=weight_column, key_column="src")
    glob = _sample_partial("x", "id", k=_K, seed=7,
                           weight_column=weight_column)
    out = keyed(tbl)
    assert out.column_names == ["src", "sketch", "n_added"]
    assert out.schema.field("src").type == pa.string()
    rows = dict(zip(out["src"].to_pylist(),
                    zip(out["sketch"].to_pylist(),
                        out["n_added"].to_pylist())))
    assert sorted(rows) == ["books", "ghost", "web", "wiki"]
    for key, (blob, n) in rows.items():
        g = glob(tbl.filter(pc.equal(tbl["src"], key)))
        assert (blob, n) == (g["sketch"][0].as_py(), g["n_added"][0].as_py())
    cls = PrioritySample if weight_column is None else WeightedDLTSample
    assert rows["ghost"] == (cls(k=_K, seed=7).to_bytes(), 0)
    assert sum(n for _, n in rows.values()) < \
        glob(tbl)["n_added"][0].as_py()  # null-key rows hold values

    sliced = tbl.slice(13, 3000)
    copied = pa.Table.from_pylist(sliced.to_pylist(), schema=tbl.schema)
    assert keyed(sliced).equals(keyed(copied))
    assert glob(sliced).equals(glob(copied))


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
