"""DGIM exponential histogram — windowed-count sketch contract.

The structural guarantee under test: for ANY cut, |estimate − exact| ≤
the emitted ⌈straddler/2⌉ bound, after single builds AND after ordered
folds of time-range partials; plus the size-class invariant, state
compactness, and the distributed pipeline end-to-end."""

import numpy as np
import pytest

from bqf_ray.sketches.dgim import ExponentialHistogram


def _check_all_cuts(eh, ts, cuts, L):
    for cut in cuts:
        est, bound = eh.estimate_after(int(cut))
        exact = int((ts > cut).sum())
        assert abs(est - exact) <= bound, (cut, est, exact, bound)
        if exact > 4 * L:
            # published relative bound (1/(2L) for single builds; ≤
            # 1/(L−1) after adjacent-only fold compaction) + slack
            assert abs(est - exact) / exact <= 1.0 / (L - 1) + 1e-9


@pytest.mark.parametrize("L", [4, 8, 32])
def test_single_build_bound_and_invariants(L):
    rng = np.random.RandomState(L)
    n = 60_000
    ts = np.sort(rng.randint(0, 5_000_000, size=n)).astype(np.int64)
    eh = ExponentialHistogram.from_sorted(ts, L=L)
    assert eh.n == n and eh.sizes.sum() == n
    assert (np.diff(eh.ends) >= 0).all()
    _, cnts = np.unique(eh.sizes, return_counts=True)
    assert (cnts <= L + 1).all()                   # canonical size classes
    assert len(eh.sizes) <= (L + 1) * (int(np.log2(n)) + 2)
    _check_all_cuts(eh, ts, rng.randint(-1, 5_000_001, size=200), L)
    # boundary semantics: strict ts > cut
    est, bound = eh.estimate_after(int(ts[-1]))
    assert est == 0 and bound == 0
    whole, b0 = eh.estimate_after(int(ts[0]) - 1)
    assert whole == n and b0 == 0                  # no span contains the cut


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ordered_fold_preserves_bound(seed):
    rng = np.random.RandomState(seed)
    n = rng.randint(5_000, 80_000)
    ts = np.sort(rng.randint(0, 1_000_000, size=n)).astype(np.int64)
    splits = np.sort(rng.choice(n, rng.randint(1, 19), replace=False))
    L = 16
    eh = ExponentialHistogram(L=L)
    for p in np.split(ts, splits):
        eh.merge_newer(ExponentialHistogram.from_sorted(p, L=L))
    assert eh.n == n
    assert (np.diff(eh.ends) >= 0).all()
    _check_all_cuts(eh, ts, rng.randint(0, 1_000_000, size=150), L)
    # state stays fold-bounded, far below the stream
    assert len(eh.sizes) < (L + 1) * 64


def test_merge_rejects_overlap_and_l_mismatch():
    a = ExponentialHistogram.from_sorted(np.array([1, 5, 9]), L=4)
    b = ExponentialHistogram.from_sorted(np.array([7, 11]), L=4)
    with pytest.raises(ValueError, match="ordered merge"):
        a.merge_newer(b)
    c = ExponentialHistogram.from_sorted(np.array([20]), L=8)
    with pytest.raises(ValueError, match="L mismatch"):
        a.merge_newer(c)
    with pytest.raises(ValueError, match="ascending"):
        ExponentialHistogram.from_sorted(np.array([3, 1]), L=4)


def test_arrays_roundtrip():
    rng = np.random.RandomState(9)
    ts = np.sort(rng.randint(0, 99_999, size=7_000)).astype(np.int64)
    eh = ExponentialHistogram.from_sorted(ts, L=8)
    back = ExponentialHistogram.from_arrays(*eh.to_arrays())
    for cut in rng.randint(0, 99_999, size=40):
        assert back.estimate_after(int(cut)) == eh.estimate_after(int(cut))


def test_arrays_roundtrip_negative_timestamps():
    """Pre-1970 (negative) timestamps survive the codec: only an empty
    sketch decodes to "no timestamp"."""
    from bqf_ray.sketches.dgim import ExponentialHistogramSum as EHS

    def roundtrip(eh):
        return type(eh).from_arrays(*eh.to_arrays())

    old, new = np.array([-100, -90, -80]), np.array([-50, -40])
    for build in (lambda t: ExponentialHistogram.from_sorted(t, L=4),
                  lambda t: EHS.from_sorted(t, np.ones(len(t)), L=4)):
        eh = roundtrip(build(old))
        assert (eh.min_ts, eh.max_ts) == (-100, -80)
        assert eh.estimate_after(-1000) == build(old).estimate_after(-1000)
        eh.merge_newer(roundtrip(build(new)))
        assert eh.estimate_after(-1000) == (5, 0)
        empty = roundtrip(build(np.array([], dtype=np.int64)))
        assert (empty.n, empty.min_ts, empty.max_ts) == (0, None, None)


def test_eh_window_counts_pipeline(ray_session):
    import pandas as pd
    import ray

    from bqf_ray.pipelines.windowed import eh_window_counts
    rng = np.random.RandomState(3)
    base = np.int64(1_700_000_000_000_000)
    us = base + np.sort(rng.randint(0, 30 * 86_400_000_000, size=20_000,
                                    dtype=np.int64))
    df = pd.DataFrame({"ts": us.astype("datetime64[us]")})
    got = eh_window_counts(ray.data.from_pandas(df).repartition(9),
                           [3600, 86400, 604800], L=32, num_partitions=8)
    hi = int(us.max())
    for _, row in got.iterrows():
        exact = int((us > hi - row["window_s"] * 1_000_000).sum())
        assert row["n_exact"] == exact
        assert bool(row["within_bound"])


# -- sum variant ------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eh_sum_bound_single_and_folded(seed):
    from bqf_ray.sketches.dgim import ExponentialHistogramSum as EHS
    rng = np.random.RandomState(seed)
    n = rng.randint(3_000, 60_000)
    ts = np.sort(rng.randint(0, 800_000, size=n)).astype(np.int64)
    v = rng.randint(0, 2_000, size=n).astype(np.int64)
    L = 32
    splits = np.sort(rng.choice(n, rng.randint(1, 15), replace=False))
    eh = EHS(L=L)
    for ps, pv in zip(np.split(ts, splits), np.split(v, splits)):
        eh.merge_newer(EHS.from_sorted(ps, pv, L=L))
    assert eh.total == int(v.sum()) and eh.sums.sum() == int(v.sum())
    assert (np.diff(eh.ends) >= 0).all()
    vmax = int(v.max())
    for cut in rng.randint(-1, 800_001, size=120):
        est, bound = eh.estimate_after(int(cut))
        exact = int(v[ts > cut].sum())
        assert abs(est - exact) <= bound, (cut, est, exact, bound)
        if exact > 30 * vmax:
            # ~1/L relative + v_max additive, with slack
            assert abs(est - exact) <= exact / L + vmax
    # state is sketch-sized, not stream-sized
    assert len(eh.sums) < 40 * L


def test_eh_sum_rejects_bad_input():
    from bqf_ray.sketches.dgim import ExponentialHistogramSum as EHS
    with pytest.raises(ValueError, match="non-negative"):
        EHS.from_sorted(np.array([1, 2]), np.array([1, -1]), L=4)
    with pytest.raises(ValueError, match="ascending"):
        EHS.from_sorted(np.array([2, 1]), np.array([1, 1]), L=4)
    a = EHS.from_sorted(np.array([5, 9]), np.array([1, 2]), L=4)
    b = EHS.from_sorted(np.array([7]), np.array([3]), L=4)
    with pytest.raises(ValueError, match="ordered merge"):
        a.merge_newer(b)


def test_eh_window_sums_pipeline(ray_session):
    import pandas as pd
    import ray

    from bqf_ray.pipelines.windowed import eh_window_sums
    rng = np.random.RandomState(5)
    base = np.int64(1_700_000_000_000_000)
    us = base + np.sort(rng.randint(0, 20 * 86_400_000_000, size=15_000,
                                    dtype=np.int64))
    vals = np.round(rng.gamma(2.0, 30.0, size=15_000), 2)
    df = pd.DataFrame({"ts": us.astype("datetime64[us]"), "value": vals})
    got = eh_window_sums(ray.data.from_pandas(df).repartition(8),
                         [3600, 86400, 604800], L=32, num_partitions=8)
    units = np.rint(vals * 100).astype(np.int64)
    hi = int(us.max())
    for _, row in got.iterrows():
        exact = int(units[us > hi - row["window_s"] * 1_000_000].sum())
        assert row["sum_units_exact"] == exact
        assert bool(row["within_bound"])


def test_eh_window_counts_by_key_pipeline(ray_session):
    import pandas as pd
    import ray

    from bqf_ray.pipelines.windowed import eh_window_counts_by_key
    rng = np.random.RandomState(11)
    n = 12_000
    base = np.int64(1_700_000_000_000_000)
    us = base + rng.randint(0, 14 * 86_400_000_000, size=n, dtype=np.int64)
    keys = rng.choice(["a", "b", "c"], size=n)
    df = pd.DataFrame({"ts": us.astype("datetime64[us]"), "k": keys})
    got = eh_window_counts_by_key(
        ray.data.from_pandas(df).repartition(7), "k",
        [3600, 86400, 604800], L=16, num_partitions=6)
    hi = int(us.max())                      # global clock
    assert len(got) == 3 * 3
    for _, row in got.iterrows():
        m = keys == row["k"]
        exact = int((us[m] > hi - row["window_s"] * 1_000_000).sum())
        assert row["n_exact"] == exact
        assert bool(row["within_bound"])


def test_window_quantile_sketch_rank_bound(ray_session):
    """Per-pane KLL merge answers cell-aligned trailing windows within
    the rank tolerance, verified against numpy exact quantile ranks."""
    import pandas as pd
    import ray

    from bqf_ray.pipelines.windowed import window_quantile_sketch
    rng = np.random.RandomState(7)
    n = 30_000
    base = np.int64(1_700_000_000_000_000)
    us = base + rng.randint(0, 20 * 86_400_000_000, size=n,
                            dtype=np.int64)
    vals = rng.gamma(2.0, 30.0, size=n)
    df = pd.DataFrame({"ts": us.astype("datetime64[us]"), "value": vals})
    got = window_quantile_sketch(
        ray.data.from_pandas(df).repartition(8),
        [2 * 86400, 7 * 86400], qs=(0.25, 0.5, 0.75), k=200, tol=0.03)
    CELL = 86_400_000_000
    cells = (us // CELL) * CELL
    hi = int(cells.max())
    assert len(got) == 6
    for _, row in got.iterrows():
        m = cells > hi + CELL - 1 - row["window_s"] * 1_000_000
        assert row["n_window"] == int(m.sum())
        assert bool(row["within_bound"])


def test_window_heavy_hitters_exact(ray_session):
    import collections

    import pandas as pd
    import ray

    from bqf_ray.pipelines.windowed import window_heavy_hitters
    rng = np.random.RandomState(1)
    n = 20_000
    base = np.int64(1_700_000_000_000_000)
    us = base + rng.randint(0, 15 * 86_400_000_000, n, dtype=np.int64)
    keys = rng.zipf(1.3, n).clip(max=5000).astype(np.int64)
    df = pd.DataFrame({"ts": us.astype("datetime64[us]"),
                       "user_id": keys})
    m = 32
    got = window_heavy_hitters(ray.data.from_pandas(df).repartition(7),
                               [3 * 86400, 10 * 86400], "user_id", m=m)
    CELL = 86_400_000_000
    cells = (us // CELL) * CELL
    hi = int(cells.max())
    for w in (3 * 86400, 10 * 86400):
        memb = cells > hi + CELL - 1 - w * 1_000_000
        nw = int(memb.sum())
        cnt = collections.Counter(keys[memb])
        exp = sorted((w, k, c) for k, c in cnt.items()
                     if c > nw / (m + 1))
        gg = got[got["window_s"] == w]
        assert sorted(zip(gg["window_s"], gg["user_id"],
                          gg["cnt"])) == exp


def test_pane_pipelines_empty_input(ray_session):
    """Every pane-family pipeline degrades gracefully on an empty
    stream (typed empty/zero frames, no crash on the env fold)."""
    import pandas as pd
    import pyarrow as pa
    import ray

    from bqf_ray.pipelines.windowed import (eh_window_counts,
                                            eh_window_counts_by_key,
                                            eh_window_sums,
                                            window_heavy_hitters,
                                            window_quantile_sketch)
    empty = ray.data.from_arrow(pa.table({
        "ts": pa.array([], pa.timestamp("us")),
        "user_id": pa.array([], pa.int64()),
        "value": pa.array([], pa.float64())}))
    c = eh_window_counts(empty, [3600])
    assert list(c["n_exact"]) == [0] and list(c["within_bound"]) == [True]
    s = eh_window_sums(empty, [3600])
    assert list(s["sum_units_exact"]) == [0]
    k = eh_window_counts_by_key(empty, "user_id", [3600])
    assert len(k) == 0
    q = window_quantile_sketch(empty, [3600])
    assert len(q) == 0
    h = window_heavy_hitters(empty, [3600], "user_id")
    assert len(h) == 0


def test_window_distinct_bitmap_and_sample_exact(ray_session):
    import hashlib

    import pandas as pd
    import ray

    from bqf_ray.pipelines.windowed import (window_distinct_bitmap,
                                            window_sample)
    rng = np.random.RandomState(2)
    n = 8000
    base = np.int64(1_700_000_000_000_000)
    us = base + rng.randint(0, 12 * 86_400_000_000, n, dtype=np.int64)
    keys = rng.randint(0, 900, n).astype(np.int64)
    df = pd.DataFrame({"ts": us.astype("datetime64[us]"),
                       "user_id": keys,
                       "event_id": np.arange(n, dtype=np.int64)})
    ds = ray.data.from_pandas(df).repartition(6)
    CELL = 86_400_000_000
    cells = (us // CELL) * CELL
    hi = int(cells.max())

    d = window_distinct_bitmap(ds, [2 * 86400, 8 * 86400], "user_id")
    for _, row in d.iterrows():
        m = cells > hi + CELL - 1 - row["window_s"] * 1_000_000
        assert row["n_distinct"] == len(np.unique(keys[m]))

    s = window_sample(ds, [2 * 86400, 8 * 86400], 7, "event_id",
                      salt="t")
    hs = np.array([int(hashlib.md5(f"{i}t".encode())
                       .hexdigest()[:16], 16) for i in range(n)],
                  dtype=np.uint64)
    for w in (2 * 86400, 8 * 86400):
        m = cells > hi + CELL - 1 - w * 1_000_000
        ids = np.arange(n)[m]
        order = np.lexsort((ids, hs[m]))[:7]
        exp = [(w, int(ids[j]), rk)
               for rk, j in enumerate(order, 1)]
        gg = s[s["window_s"] == w]
        assert list(zip(gg["window_s"], gg["id"], gg["rk"])) == exp


def test_eh_window_sums_by_key_pipeline(ray_session):
    import pandas as pd
    import ray

    from bqf_ray.pipelines.windowed import eh_window_sums_by_key
    rng = np.random.RandomState(13)
    n = 12_000
    base = np.int64(1_700_000_000_000_000)
    us = base + rng.randint(0, 14 * 86_400_000_000, n, dtype=np.int64)
    keys = rng.choice(["a", "b", "c"], size=n)
    vals = np.round(rng.gamma(2.0, 25.0, size=n), 2)
    df = pd.DataFrame({"ts": us.astype("datetime64[us]"), "k": keys,
                       "value": vals})
    got = eh_window_sums_by_key(
        ray.data.from_pandas(df).repartition(7), "k",
        [86400, 604800], L=16, num_partitions=6)
    units = np.rint(vals * 100).astype(np.int64)
    hi = int(us.max())
    assert len(got) == 6
    for _, row in got.iterrows():
        m = (keys == row["k"]) & (us > hi - row["window_s"] * 1_000_000)
        assert row["sum_units_exact"] == int(units[m].sum())
        assert bool(row["within_bound"])


@pytest.mark.parametrize("case", ["null_ts", "ts_ms", "pre_1970"])
@pytest.mark.parametrize("fn", ["eh_window_counts", "eh_window_sums",
                                "eh_window_counts_by_key",
                                "eh_window_sums_by_key"])
def test_eh_window_input_cases(ray_session, fn, case):
    """Every EH entry point drops a null-ts row, reads a ms timestamp
    column in its own unit, and folds events before 1970."""
    import pyarrow as pa
    import ray

    from bqf_ray.pipelines import windowed
    n, minute = 500, 60_000_000
    base = (-3_000 * 86_400_000_000 if case == "pre_1970"
            else 1_700_000_000_000_000)
    us = base + np.arange(n, dtype=np.int64) * minute
    keys = np.array(["a", "b", "c"])[np.arange(n) % 3]
    vals = np.round(np.random.RandomState(0).gamma(2.0, 20.0, n), 2)
    ts = (pa.array(us // 1000, pa.timestamp("ms")) if case == "ts_ms"
          else pa.array(us, pa.timestamp("us")))
    tbl = pa.table({"ts": ts, "k": keys, "value": vals})
    if case == "null_ts":
        tbl = pa.concat_tables([tbl, pa.table({
            "ts": pa.array([None], ts.type), "k": ["a"], "value": [1.0]})])
    ds = ray.data.from_arrow(tbl).repartition(3)
    wins = [600, 3600, 86400]
    keyed, summed = fn.endswith("_by_key"), "sums" in fn
    args = (ds, "k", wins) if keyed else (ds, wins)
    got = getattr(windowed, fn)(*args, num_partitions=4)
    weight = np.rint(vals * 100).astype(np.int64) if summed else \
        np.ones(n, dtype=np.int64)
    exact_col = "sum_units_exact" if summed else "n_exact"
    assert len(got) == len(wins) * (3 if keyed else 1)
    for _, row in got.iterrows():
        m = us > us.max() - row["window_s"] * 1_000_000
        if keyed:
            m &= keys == row["k"]
        assert row[exact_col] == int(weight[m].sum())
        assert bool(row["within_bound"])


def test_window_counts_bqf_saturated_exact(ray_session):
    import collections

    import pandas as pd
    import ray

    from bqf_ray.pipelines.windowed import window_counts_bqf
    rng = np.random.RandomState(3)
    n = 9000
    base = np.int64(1_700_000_000_000_000)
    us = base + rng.randint(0, 12 * 86_400_000_000, n, dtype=np.int64)
    # INT keys: the probe must share the build's prepare_hash (int
    # fmix64, not string xxh64) — regression for the hash-mismatch bug
    keys = rng.randint(0, 12, n).astype(np.int64)
    df = pd.DataFrame({"ts": us.astype("datetime64[us]"), "k": keys})
    got = window_counts_bqf(ray.data.from_pandas(df).repartition(6),
                            [2 * 86400, 9 * 86400], "k",
                            count_size=6)          # cap 63: saturation real
    CELL = 86_400_000_000
    cells = (us // CELL) * CELL
    hi = int(cells.max())
    for w in (2 * 86400, 9 * 86400):
        memb = cells > hi + CELL - 1 - w * 1_000_000
        cnt = collections.Counter(keys[memb])
        exp = sorted((w, k, min(c, 63)) for k, c in cnt.items())
        gg = got[got["window_s"] == w]
        assert sorted(zip(gg["window_s"], gg["k"], gg["cnt"])) == exp
    # saturation actually engaged somewhere
    assert (got["cnt"] == 63).any()


def test_pane_store_incremental_update_and_query(ray_session, tmp_path):
    import pandas as pd
    import ray

    from bqf_ray.pipelines.windowed import (query_pane_store,
                                            update_pane_store)
    rng = np.random.RandomState(4)
    base = np.int64(1_700_000_000_000_000)
    CELL = 86_400_000_000
    us_all = base + np.sort(rng.randint(0, 12 * CELL, size=9000,
                                        dtype=np.int64))
    bound = ((base + 8 * CELL) // CELL) * CELL   # ALIGNED watermark:
    early = us_all[us_all < bound]               # only closed cells fed
    root = str(tmp_path / "panes")

    def mk(us):
        return ray.data.from_pandas(pd.DataFrame(
            {"ts": us.astype("datetime64[us]")})).repartition(5)

    n_early = len(np.unique((early // CELL) * CELL))
    n_all = len(np.unique((us_all // CELL) * CELL))
    meta1 = update_pane_store(mk(early), root)
    assert len(meta1) == n_early                   # one pane per cell
    # incremental run over the FULL stream: only the new cells write
    meta2 = update_pane_store(mk(us_all), root)
    assert len(meta2) == n_all - n_early > 0
    assert {m["part"] for m in meta1}.isdisjoint(
        {m["part"] for m in meta2})
    # window answers from the store carry the DGIM certificate
    got = query_pane_store(root, [2 * 86400, 9 * 86400])
    cells = (us_all // CELL) * CELL
    hi = int(cells.max())
    for _, row in got.iterrows():
        cut = hi + CELL - 1 - row["window_s"] * 1_000_000
        exact = int((us_all > cut).sum())
        assert abs(row["estimate"] - exact) <= row["bound"]
        assert row["n_total"] == len(us_all)
