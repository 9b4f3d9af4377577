"""Join primitives: broadcast dimension join and partitioned hash join."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from bqf_ray.pipelines.relational import broadcast_join, partitioned_hash_join


@pytest.fixture(scope="module")
def tables(ray_session):
    import ray
    rng = np.random.RandomState(4)
    left = pa.table({
        "k": pa.array(rng.randint(0, 200, 5000).astype(np.int64)),
        "v": pa.array(rng.random_sample(5000)),
    })
    dim = pd.DataFrame({"k": np.arange(0, 150, dtype=np.int64),
                        "name": [f"dim{i}" for i in range(150)]})
    return ray.data.from_arrow(left).repartition(4), left.to_pandas(), dim


def test_broadcast_inner_join(tables):
    ds, left, dim = tables
    out = broadcast_join(ds, dim, key="k").to_pandas()
    exp = left.merge(dim, on="k", how="inner")
    assert len(out) == len(exp)
    got = out.sort_values(["k", "v"]).reset_index(drop=True)
    exp = exp.sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["k", "v", "name"]],
                                  exp[["k", "v", "name"]])


def test_broadcast_join_drops_unmatched(tables):
    ds, left, dim = tables
    out = broadcast_join(ds, dim, key="k").to_pandas()
    assert out["k"].max() < 150          # keys ≥150 have no dim row
    assert (left["k"] >= 150).sum() > 0  # …and such keys existed


def test_partitioned_hash_join_matches_pandas(ray_session, tables):
    import ray
    ds, left, dim = tables
    right = pa.table({
        "k": pa.array(np.arange(0, 180, dtype=np.int64)),
        "w": pa.array(np.arange(0, 180, dtype=np.int64) * 10),
    })
    right_ds = ray.data.from_arrow(right).repartition(3)
    out = partitioned_hash_join(ds, right_ds, key="k",
                                num_buckets=8).to_pandas()
    exp = left.merge(right.to_pandas().rename(columns={"w": "w_r"}), on="k")
    assert len(out) == len(exp)
    got = out.sort_values(["k", "v"]).reset_index(drop=True)
    exps = exp.sort_values(["k", "v"]).reset_index(drop=True)
    np.testing.assert_array_equal(got["w_r"].to_numpy(),
                                  exps["w_r"].to_numpy())


def test_native_join_matches_manual(ray_session, tables):
    import ray
    from bqf_ray.pipelines.relational import native_join
    ds, left, dim = tables
    right = pa.table({
        "k": pa.array(np.arange(0, 180, dtype=np.int64)),
        "w": pa.array(np.arange(0, 180, dtype=np.int64) * 10),
    })
    right_ds = ray.data.from_arrow(right).repartition(3)
    out = native_join(ds, right_ds, key="k", num_partitions=4).to_pandas()
    exp = left.merge(right.to_pandas(), on="k")
    assert len(out) == len(exp)
    wcol = "w_r" if "w_r" in out.columns else "w"
    got = out.sort_values(["k", "v"]).reset_index(drop=True)
    exps = exp.sort_values(["k", "v"]).reset_index(drop=True)
    np.testing.assert_array_equal(got[wcol].to_numpy(), exps["w"].to_numpy())


def test_semi_join_and_anti(ray_session, tables):
    import ray
    from bqf_ray.pipelines.relational import semi_join
    ds, left, _ = tables
    wanted = pa.table({"kk": pa.array(np.array([2, 5, 7, 7, 999],
                                               dtype=np.int64))})
    right_ds = ray.data.from_arrow(wanted).repartition(2)
    out = semi_join(ds, right_ds, "k", "kk", num_buckets=4).to_pandas()
    exp = left[left["k"].isin([2, 5, 7])]
    assert sorted(out.columns) == sorted(left.columns)   # helper cols gone
    assert len(out) == len(exp)
    np.testing.assert_array_equal(
        np.sort(out["v"].to_numpy()), np.sort(exp["v"].to_numpy()))

    anti = semi_join(ds, right_ds, "k", "kk", num_buckets=4,
                     anti=True).to_pandas()
    assert len(anti) == len(left) - len(exp)
    assert not anti["k"].isin([2, 5, 7]).any()


def test_asof_join_matches_pandas(ray_session):
    import pandas as pd
    import ray
    from bqf_ray.pipelines.relational import asof_join
    rng = np.random.RandomState(17)
    nl, nr = 800, 300
    left = pd.DataFrame({
        "k": rng.randint(0, 40, nl).astype(np.int64),
        "t": rng.randint(0, 10_000, nl).astype(np.int64),
        "lv": rng.randint(0, 1_000_000, nl).astype(np.int64),
    })
    right = pd.DataFrame({
        "k": rng.randint(0, 45, nr).astype(np.int64),   # some keys missing
        "t": rng.randint(0, 10_000, nr).astype(np.int64),
        "rv": rng.randint(0, 1_000_000, nr).astype(np.int64),
    }).drop_duplicates(["k", "t"])                      # deterministic ties
    lds = ray.data.from_pandas(left).repartition(4)
    rds = ray.data.from_pandas(right).repartition(3)

    for how in ["inner", "left"]:
        got = (asof_join(lds, rds, on="t", by="k", num_buckets=8, how=how)
               .to_pandas().sort_values(["k", "t", "lv"])
               .reset_index(drop=True))
        exp = pd.merge_asof(left.sort_values("t"), right.sort_values("t"),
                            on="t", by="k", direction="backward",
                            suffixes=("", "_r"))
        exp = exp.rename(columns={"rv": "rv_r"})
        if how == "inner":
            exp = exp[exp["rv_r"].notna()]
        exp = (exp.sort_values(["k", "t", "lv"]).reset_index(drop=True))
        assert len(got) == len(exp), how
        np.testing.assert_array_equal(got["lv"].to_numpy(),
                                      exp["lv"].to_numpy())
        g = got["rv_r"].to_numpy(dtype=np.float64, na_value=np.nan)
        e = exp["rv_r"].to_numpy(dtype=np.float64, na_value=np.nan)
        np.testing.assert_array_equal(np.isnan(g), np.isnan(e))
        np.testing.assert_array_equal(g[~np.isnan(g)], e[~np.isnan(e)])


def test_interval_join_matches_bruteforce(ray_session):
    import pandas as pd
    import ray
    from bqf_ray.pipelines.relational import interval_join
    rng = np.random.RandomState(9)
    left = pd.DataFrame({
        "id": np.arange(2000, dtype=np.int64),
        "v": rng.uniform(0, 100, 2000),
    })
    iv = pd.DataFrame({
        "band": np.arange(30, dtype=np.int64),
        "lo": rng.uniform(0, 90, 30),
    })
    iv["hi"] = iv["lo"] + rng.uniform(1, 25, 30)     # overlapping bands
    ds = ray.data.from_pandas(left).repartition(4)
    got = (interval_join(ds, iv, "v", "lo", "hi")
           .to_pandas().sort_values(["id", "band_r"]).reset_index(drop=True))
    exp = (left.merge(iv, how="cross"))
    exp = exp[(exp["v"] >= exp["lo"]) & (exp["v"] < exp["hi"])]
    exp = (exp.rename(columns={"band": "band_r"})
           .sort_values(["id", "band_r"]).reset_index(drop=True))
    assert len(got) == len(exp)
    np.testing.assert_array_equal(got["id"].to_numpy(), exp["id"].to_numpy())
    np.testing.assert_array_equal(got["band_r"].to_numpy(),
                                  exp["band_r"].to_numpy())
    # closed="both" includes the hi endpoint
    iv2 = pd.DataFrame({"band": [0], "lo": [0.0], "hi": [100.0]})
    left2 = pd.DataFrame({"id": [0], "v": [100.0]})
    ds2 = ray.data.from_pandas(left2)
    assert len(interval_join(ds2, iv2, "v", "lo", "hi").to_pandas()) == 0
    assert len(interval_join(ds2, iv2, "v", "lo", "hi",
                             closed="both").to_pandas()) == 1


@pytest.mark.parametrize("how", ["left", "full"])
def test_partitioned_outer_join_matches_pandas(ray_session, how):
    import pandas as pd
    import ray

    rng = np.random.RandomState(5)
    left = pd.DataFrame({"k": rng.randint(0, 50, 200).astype(np.int64),
                         "lv": np.arange(200, dtype=np.int64)})
    right = pd.DataFrame({"k": rng.randint(25, 75, 80).astype(np.int64),
                          "rv": np.arange(80, dtype=np.int64)})
    want = left.merge(right.rename(columns={"rv": "rv_r"}), on="k",
                      how={"full": "outer"}.get(how, how))
    got = partitioned_hash_join(
        ray.data.from_pandas(left).repartition(4),
        ray.data.from_pandas(right).repartition(3),
        key="k", num_buckets=8, how=how).to_pandas()
    # nullable ints come back as pandas nullable / float — normalize
    for df in (want, got):
        for c in df.columns:
            df[c] = pd.to_numeric(df[c]).astype("float64")
    want = want.sort_values(list(want.columns)).reset_index(drop=True)
    got = got[sorted(got.columns)].sort_values(
        list(got.columns)).reset_index(drop=True)
    want = want[sorted(want.columns)]
    pd.testing.assert_frame_equal(got, want)


def test_partitioned_join_rejects_bad_how(ray_session):
    import ray
    ds = ray.data.from_items([{"k": 1}])
    with pytest.raises(ValueError):
        partitioned_hash_join(ds, ds, key="k", how="right")


def test_bloom_semi_join_matches_plain(ray_session, tables):
    import ray
    from bqf_ray.pipelines.relational import bloom_semi_join, semi_join
    ds, left, _ = tables
    rng = np.random.default_rng(3)
    rk = rng.integers(0, 400, size=500).astype(np.int64)   # hits + misses
    right_ds = ray.data.from_arrow(
        pa.table({"kk": pa.array(rk)})).repartition(3)
    for anti, budget in ((False, 0), (True, 0), (False, 10**6),
                         (True, 10**6)):
        fast = bloom_semi_join(ds, right_ds, "k", "kk", anti=anti,
                               fp=0.2, broadcast_budget=budget).to_pandas()
        plain = semi_join(ds, right_ds, "k", "kk", num_buckets=4,
                          anti=anti).to_pandas()  # budget 0 = Bloom path
        assert sorted(fast.columns) == sorted(plain.columns)
        assert len(fast) == len(plain)
        np.testing.assert_array_equal(
            np.sort(fast["v"].to_numpy()), np.sort(plain["v"].to_numpy()))


def test_bloom_anti_join_high_fp_still_exact(ray_session, tables):
    # fp only tunes exchange volume — a terrible filter must not change
    # the result
    import ray
    from bqf_ray.pipelines.relational import bloom_semi_join
    ds, left, _ = tables
    right_ds = ray.data.from_arrow(pa.table(
        {"kk": pa.array(np.array([2, 5, 7], dtype=np.int64))}))
    out = bloom_semi_join(ds, right_ds, "k", "kk", anti=True,
                          fp=0.5, expected_keys=2).to_pandas()
    exp = left[~left["k"].isin([2, 5, 7])]
    assert len(out) == len(exp)
    assert not out["k"].isin([2, 5, 7]).any()


def test_time_band_join_matches_bruteforce(ray_session):
    import ray
    import pandas as pd
    from bqf_ray.pipelines.relational import time_band_join
    rng = np.random.default_rng(61)
    def mk(n, base):
        return pd.DataFrame({
            "event_id": np.arange(base, base + n, dtype=np.int64),
            "user_id": rng.integers(0, 30, size=n),
            "ts": pd.to_datetime(rng.integers(0, 4000, size=n), unit="s")})
    A, B = mk(800, 0), mk(900, 10_000)
    W = 120  # seconds
    out = time_band_join(ray.data.from_pandas(A), ray.data.from_pandas(B),
                         on="ts", by="user_id",
                         band_us=W * 1_000_000).take_all()
    got = {(r["a_id"], r["b_id"]): r["dt_us"] for r in out}
    exp = {}
    m = A.merge(B, on="user_id", suffixes=("_a", "_b"))
    dt = (m["ts_b"] - m["ts_a"]).dt.total_seconds()
    sel = m[dt.abs() <= W]
    for _, r in sel.iterrows():
        exp[(r["event_id_a"], r["event_id_b"])] = int(
            (r["ts_b"] - r["ts_a"]).total_seconds() * 1_000_000)
    assert got == exp and len(exp) > 100


def test_time_band_join_time_sliced_equivalence(ray_session):
    # hot key: one user holds 40% of both streams — sliced plan must
    # return exactly the plain plan's pairs (each found once)
    import ray
    import pandas as pd
    from bqf_ray.pipelines.relational import time_band_join
    rng = np.random.default_rng(71)
    def mk(n, base):
        uid = rng.integers(0, 20, size=n)
        uid[: int(0.4 * n)] = 7
        return pd.DataFrame({
            "event_id": np.arange(base, base + n, dtype=np.int64),
            "user_id": uid,
            "ts": pd.to_datetime(rng.integers(0, 5000, size=n), unit="s")})
    A, B = mk(700, 0), mk(700, 10_000)
    kw = dict(on="ts", by="user_id", band_us=90 * 1_000_000)
    da, db = ray.data.from_pandas(A), ray.data.from_pandas(B)
    plain = time_band_join(da, db, **kw).take_all()
    sliced = time_band_join(da, db, time_sliced=True, **kw).take_all()
    p = sorted((r["a_id"], r["b_id"], r["dt_us"]) for r in plain)
    s = sorted((r["a_id"], r["b_id"], r["dt_us"]) for r in sliced)
    assert len(s) == len(set(s))          # no duplicate pair emission
    assert p == s and len(p) > 500


def test_bloom_semi_join_empty_right(ray_session):
    # regression: the broadcast fast path crashed on a 0-row right side
    import ray
    from bqf_ray.pipelines.relational import bloom_semi_join
    left = ray.data.from_arrow(pa.table(
        {"k": pa.array(np.arange(50, dtype=np.int64))}))
    right = ray.data.from_arrow(pa.table({"kk": pa.array([], pa.int64())}))
    anti = bloom_semi_join(left, right, "k", "kk", anti=True).to_pandas()
    assert len(anti) == 50
    semi = bloom_semi_join(left, right, "k", "kk", anti=False).to_pandas()
    assert len(semi) == 0


# ---------------------------------------------------------------------------
# merge_changes (CDC upsert/delete apply)
# ---------------------------------------------------------------------------

def _merge_brute(base, changes, delete_op="D"):
    """base: {k: payload}, changes: list of (k, seq, op, payload)."""
    last = {}
    for k, seq, op, payload in changes:
        if k not in last or seq > last[k][0]:
            last[k] = (seq, op, payload)
    out = dict(base)
    for k, (_, op, payload) in last.items():
        if op == delete_op:
            out.pop(k, None)
        else:
            out[k] = payload
    return out


def test_merge_changes_matches_brute_force(ray_session):
    import ray

    from bqf_ray.pipelines.relational import merge_changes
    rng = np.random.default_rng(11)
    bk = np.arange(0, 200, 2, dtype=np.int64)          # even keys only
    bv = rng.integers(0, 1000, len(bk)).astype(np.int64)
    ck = rng.integers(0, 220, 500).astype(np.int64)    # inserts beyond base
    cs = np.arange(500, dtype=np.int64)
    co = np.where(rng.random(500) < 0.25, "D", "U")
    cv = rng.integers(0, 1000, 500).astype(np.int64)
    base = ray.data.from_arrow(pa.table(
        {"k": pa.array(bk), "val": pa.array(bv)})).repartition(4)
    chg = ray.data.from_arrow(pa.table(
        {"k": pa.array(ck), "seq": pa.array(cs), "op": pa.array(co),
         "val": pa.array(cv)})).repartition(7)
    got = merge_changes(base, chg, "k", "seq", "op", ["val"],
                        num_buckets=8).to_pandas()
    exp = _merge_brute(dict(zip(bk.tolist(), bv.tolist())),
                       list(zip(ck.tolist(), cs.tolist(), co.tolist(),
                                cv.tolist())))
    assert dict(zip(got["k"], got["val"])) == exp
    assert len(got) == len(exp)           # no duplicate keys emitted


def test_merge_changes_string_keys_and_edge_cases(ray_session):
    import ray

    from bqf_ray.pipelines.relational import merge_changes
    base = ray.data.from_arrow(pa.table({
        "k": pa.array(["a", "b", "c"]),
        "val": pa.array([1, 2, 3], pa.int64())}))
    # delete of a key absent from base is a no-op; latest seq wins;
    # op ties are impossible by the unique-(key,seq) contract
    chg = ray.data.from_arrow(pa.table({
        "k": pa.array(["b", "b", "zz", "q", "c"]),
        "seq": pa.array([1, 5, 2, 3, 9], pa.int64()),
        "op": pa.array(["U", "D", "U", "D", "U"]),
        "val": pa.array([20, 0, 77, 0, 30], pa.int64())}))
    got = merge_changes(base, chg, "k", "seq", "op", ["val"],
                        num_buckets=4).to_pandas()
    assert dict(zip(got["k"], got["val"])) == {"a": 1, "c": 30, "zz": 77}


def test_merge_changes_rejects_null_keys(ray_session):
    import pytest
    import ray

    from bqf_ray.pipelines.relational import merge_changes
    base = ray.data.from_arrow(pa.table({
        "k": pa.array([1, None], pa.int64()),
        "val": pa.array([1, 2], pa.int64())}))
    chg = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.int64()), "seq": pa.array([], pa.int64()),
        "op": pa.array([], pa.string()), "val": pa.array([], pa.int64())}))
    with pytest.raises(Exception, match="null keys"):
        merge_changes(base, chg, "k", "seq", "op", ["val"]).take_all()


def test_unpivot(ray_session):
    """Melt matches the UNION ALL reference: row multiplicity, metric
    labels, null passthrough, int→float cast."""
    import ray
    from bqf_ray.pipelines.relational import unpivot
    t = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                  "a": pa.array([1.5, None, 3.0]),
                  "b": pa.array([10, 20, 30], pa.int64())})
    ds = ray.data.from_arrow(t).repartition(2)
    got = (unpivot(ds, ["k"], ["a", "b"]).to_pandas()
           .sort_values(["metric", "k"]).reset_index(drop=True))
    assert len(got) == 6
    assert got[got.metric == "b"]["value"].tolist() == [10.0, 20.0, 30.0]
    av = got[got.metric == "a"]["value"]
    assert av.iloc[0] == 1.5 and np.isnan(av.iloc[1]) and av.iloc[2] == 3.0


def test_survivorship(ray_session):
    """Per-COLUMN last-non-null by order matches a pandas ffill-tail
    reference; differs from whole-row LWW when rows carry disjoint
    fields; partitioning-invariant; all-null column stays null."""
    import pandas as pd
    import ray
    from bqf_ray.pipelines.relational import survivorship
    rng = np.random.default_rng(23)
    n = 5000
    key = rng.integers(0, 60, n).astype(np.int64)
    seq = rng.permutation(n).astype(np.int64)
    a = rng.uniform(0, 10, n)
    a[rng.random(n) < 0.5] = np.nan          # → null below
    b = np.array([f"s{x}" for x in rng.integers(0, 5, n)], dtype=object)
    bmask = rng.random(n) < 0.6
    t = pa.table({"k": pa.array(key), "seq": pa.array(seq),
                  "a": pa.array(np.where(np.isnan(a), None, a).tolist(),
                                pa.float64()),
                  "b": pa.array([None if m else v
                                 for v, m in zip(b, bmask)], pa.string()),
                  "c": pa.array([None] * n, pa.int64())})
    outs = []
    for parts in (1, 9):
        ds = ray.data.from_arrow(t).repartition(parts)
        outs.append(survivorship(ds, "k", "seq", ["a", "b", "c"])
                    .to_pandas().sort_values("k").reset_index(drop=True))
    assert outs[0].equals(outs[1])
    got = outs[0].set_index("k")
    df = t.to_pandas().sort_values(["k", "seq"])
    for kk, g in df.groupby("k"):
        for c in ("a", "b"):
            nn = g[c].dropna()
            want = nn.iloc[-1] if len(nn) else None
            gv = got.loc[kk, c]
            if want is None:
                assert pd.isna(gv)
            else:
                assert gv == want
        assert pd.isna(got.loc[kk, "c"])     # all-null column
    # at least one key where row-LWW differs from per-column merge
    diffs = 0
    for kk, g in df.groupby("k"):
        last_row = g.iloc[-1]
        nn = g["a"].dropna()
        if len(nn) and pd.isna(last_row["a"]):
            diffs += 1
    assert diffs > 0


def test_snapshot_delta_matches_reference_and_roundtrips(ray_session):
    """I/U/D classification vs a pandas set reference, null-safe payload
    compare, D rows null payload — and the defining property:
    merge_changes(old, snapshot_delta(old, new)) == new."""
    import ray

    from bqf_ray.pipelines.relational import merge_changes, snapshot_delta
    rng = np.random.default_rng(3)
    n = 3000
    keys = np.arange(n, dtype=np.int64)
    val = rng.integers(0, 50, n).astype(np.float64)
    st = rng.choice(["A", "B", None], n, p=[0.45, 0.45, 0.1])
    old = pa.table({"k": keys[keys % 7 != 0], "v": val[keys % 7 != 0],
                    "s": pa.array(st[keys % 7 != 0])})
    nv = np.where(keys % 3 == 0, val + 1.0, val)
    new = pa.table({"k": keys[keys % 5 != 0], "v": nv[keys % 5 != 0],
                    "s": pa.array(st[keys % 5 != 0])})
    d_old = ray.data.from_arrow(old).repartition(6)
    d_new = ray.data.from_arrow(new).repartition(4)
    delta = snapshot_delta(d_old, d_new, "k", ["v", "s"]).materialize()
    df = delta.to_pandas()

    o = old.to_pandas().set_index("k")
    nn = new.to_pandas().set_index("k")
    both = sorted(set(o.index) & set(nn.index))
    ob, nb = o.loc[both], nn.loc[both]
    ch = (ob.v != nb.v) | (ob.s.fillna("\0") != nb.s.fillna("\0"))
    assert sorted(df[df.op == "I"].k) == sorted(set(nn.index) - set(o.index))
    assert sorted(df[df.op == "D"].k) == sorted(set(o.index) - set(nn.index))
    assert sorted(df[df.op == "U"].k) == sorted(np.array(both)[ch.values])
    assert df[df.op == "D"].v.isna().all()
    assert df[df.op == "D"].s.isna().all()

    chg = delta.map_batches(
        lambda b: b.append_column(
            "seq", pa.array(np.ones(len(b), np.int64))),
        batch_format="pyarrow")
    merged = (merge_changes(d_old, chg, "k", "seq", "op", ["v", "s"])
              .to_pandas().sort_values("k").reset_index(drop=True))
    ref = new.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(merged[["k", "v", "s"]],
                                  ref[["k", "v", "s"]])


def test_snapshot_delta_rejects_duplicates_and_null_keys(ray_session):
    import ray

    from bqf_ray.pipelines.relational import snapshot_delta
    dup = pa.table({"k": pa.array([1, 1], pa.int64()),
                    "v": pa.array([1.0, 2.0])})
    uni = pa.table({"k": pa.array([1], pa.int64()),
                    "v": pa.array([1.0])})
    with pytest.raises(Exception, match="unique per key"):
        snapshot_delta(ray.data.from_arrow(dup),
                       ray.data.from_arrow(uni), "k", ["v"]).to_pandas()
    nk = pa.table({"k": pa.array([None], pa.int64()),
                   "v": pa.array([1.0])})
    with pytest.raises(Exception, match="null keys"):
        snapshot_delta(ray.data.from_arrow(nk),
                       ray.data.from_arrow(uni), "k", ["v"]).to_pandas()


def test_key_sample_join_correlated_and_unbiased_shape(ray_session):
    """Key-level correlated sampling: every join GROUP is kept whole or
    dropped whole (never partially), and the sampled join equals the
    full join filtered to the sampled key set — the property that makes
    1/rate scale-up unbiased."""
    import ray

    from bqf_ray.pipelines.relational import key_sample_join
    from bqf_ray.pipelines.sampling import _key_u64, _threshold

    rng = np.random.RandomState(2)
    lk = np.arange(300, dtype=np.int64)
    left = pa.table({"k": pa.array(lk), "lv": pa.array(lk * 10)})
    rk = rng.randint(0, 300, 900).astype(np.int64)
    right = pa.table({"k": pa.array(rk), "rv": pa.array(rk + 1)})
    got = key_sample_join(ray.data.from_arrow(left).repartition(4),
                          ray.data.from_arrow(right).repartition(4),
                          "k", rate=0.3, salt="t", algo="md5",
                          num_buckets=8).to_pandas()

    thr = np.uint64(_threshold(0.3))
    u = _key_u64(pa.table({"k": pa.array(lk)}), "k", "t", "md5")
    kept = set(lk[u < thr].tolist())
    # sampled join == full join restricted to kept keys
    full = left.to_pandas().merge(
        right.to_pandas().rename(columns={"rv": "rv"}), on="k")
    exp = full[full["k"].isin(kept)]
    assert sorted(zip(got["k"], got["lv"], got["rv_r"])) == \
        sorted(zip(exp["k"], exp["lv"], exp["rv"]))
    # group-atomicity: observed key multiplicities match the full join's
    obs = got.groupby("k").size().to_dict()
    expc = exp.groupby("k").size().to_dict()
    assert obs == expc


def test_join_hot_keys_exact_contributions(ray_session):
    import pandas as pd
    import ray

    from bqf_ray.pipelines.relational import join_hot_keys
    rng = np.random.RandomState(1)
    lk = rng.zipf(1.4, 5000).clip(max=200).astype(np.int64)
    rk = rng.zipf(1.4, 4000).clip(max=250).astype(np.int64)
    got = join_hot_keys(
        ray.data.from_arrow(pa.table({"a": pa.array(lk)})).repartition(5),
        ray.data.from_arrow(pa.table({"b": pa.array(rk)})).repartition(4),
        "a", right_key="b", k=10, num_buckets=8).to_pandas()
    cl = pd.Series(lk).value_counts()
    cr = pd.Series(rk).value_counts()
    keys = sorted(set(cl.index) | set(cr.index))
    ref = pd.DataFrame({
        "key": keys,
        "c_left": [int(cl.get(k, 0)) for k in keys],
        "c_right": [int(cr.get(k, 0)) for k in keys]})
    ref["contribution"] = ref["c_left"] * ref["c_right"]
    ref = (ref.sort_values(["contribution", "key"],
                           ascending=[False, True]).head(10)
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True)[["key", "c_left", "c_right",
                                    "contribution"]], ref)


def test_one_sided_bucket_joins_no_keyerror(ray_session):
    """A hash bucket whose blocks all came from ONE side lacks the
    other side's columns (per-block union schema alignment) — every
    bucketed join must degrade to a typed empty side, not KeyError
    (fuzz seed 2468 hit this in pit_join).  Keys chosen so bucket 1
    (mod 2) holds ONLY right/dim rows."""
    import pandas as pd
    import ray

    from bqf_ray.pipelines.relational import (asof_join, nearest_join,
                                              pit_join, semi_join)
    left = pa.table({"user_id": pa.array([0, 2, 4], pa.int64()),
                     "ts": pa.array([10, 20, 30], pa.int64()),
                     "event_id": pa.array([1, 2, 3], pa.int64())})
    right = pa.table({"user_id": pa.array([1, 3], pa.int64()),
                      "ts": pa.array([5, 6], pa.int64()),
                      "val": pa.array([7.0, 8.0])})
    lds = ray.data.from_arrow(left).repartition(2)
    rds = ray.data.from_arrow(right).repartition(2)
    a = asof_join(lds, rds, on="ts", by="user_id",
                  num_buckets=2).to_pandas()
    assert len(a) == 0                   # inner semantics, no matches
    n = nearest_join(lds, rds, on="ts", by="user_id", num_buckets=2,
                     how="left").to_pandas()
    assert len(n) == 3 and n["ts_r"].isna().all()
    s = semi_join(lds, rds, "user_id", num_buckets=2).to_pandas()
    assert len(s) == 0
    dim = pa.table({"user_id": pa.array([1, 3], pa.int64()),
                    "valid_from": pa.array([0, 0], pa.int64()),
                    "tid": pa.array([1, 2], pa.int64()),
                    "v": pa.array([9.0, 10.0])})
    p = pit_join(lds, ray.data.from_arrow(dim).repartition(2),
                 by="user_id", ts_col="ts", tie_col="tid",
                 num_buckets=2, suffix="").to_pandas()
    assert len(p) == 3 and pd.isna(p["v"]).all()


def test_partitioned_hash_join_builds_without_partial_execution(
        ray_session, monkeypatch):
    """Building the join over mapped inputs must not run a throwaway
    limit-1 execution to learn each side's schema."""
    import pyarrow.compute as pc
    import ray
    from ray.data._internal.plan import ExecutionPlan

    left = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(100, dtype=np.int64)),
        "a": pa.array(np.arange(100, dtype=np.int64) * 2)}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(50, 150, dtype=np.int64)),
        "b": pa.array(["r%d" % i for i in range(50, 150)])}))

    def plus_one(batch):
        return batch.set_column(1, "a", pc.add(batch.column("a"), 1))

    lm = left.map_batches(plus_one, batch_format="pyarrow")
    rm = right.map_batches(lambda b: b, batch_format="pyarrow")

    def no_iter(self, *a, **kw):
        raise AssertionError("partial execution while building the join")

    monkeypatch.setattr(ExecutionPlan, "execute_to_iterator", no_iter)
    joined = partitioned_hash_join(lm, rm, key="k", num_buckets=8)
    monkeypatch.undo()
    got = joined.to_pandas().sort_values("k").reset_index(drop=True)
    assert list(got["k"]) == list(range(50, 100))
    assert list(got["a"]) == [2 * k + 1 for k in range(50, 100)]
    assert list(got["b_r"]) == ["r%d" % k for k in range(50, 100)]
