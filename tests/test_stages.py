"""Ray-level tests: global sketch build (one ``SketchAgg`` aggregate),
partitioned build, salted aggregate, checkpoint/resume."""

import os

import numpy as np
import pyarrow as pa
import pytest

from bqf_ray.functions.tokenize import token_hashes
from bqf_ray.pipelines.build_index import BqfIndex, build_bqf_index
from bqf_ray.sketches.bqf import BqfEc
from bqf_ray.sketches.countmin import CountMin
from bqf_ray.sketches.hll import HyperLogLog
from bqf_ray.sources.pages import generate_pages
from bqf_ray.stages.sketch_stage import (PartitionedSketch, build_partitioned,
                                         build_sketch)
from bqf_ray.state.checkpoint import SketchCheckpoint


_token_key_fn = __import__("bqf_ray.pipelines.build_index", fromlist=["shingle_key_fn"]).shingle_key_fn("text", 1, 0)


def _exact_token_counts(table: pa.Table, cap=255):
    h, _ = token_hashes(table.column("text"))
    uniq, cnt = np.unique(h, return_counts=True)
    return uniq, np.minimum(cnt, cap)


@pytest.fixture(scope="module")
def pages_table():
    return generate_pages(1200, seed=3)


@pytest.fixture(scope="module")
def pages_ds(ray_session, pages_table):
    import ray
    return ray.data.from_arrow(pages_table).repartition(8)


def test_build_sketch(ray_session, pages_ds, pages_table):
    sk = build_sketch(pages_ds, _token_key_fn, lambda: HyperLogLog(p=12))
    uniq, _ = _exact_token_counts(pages_table)
    est = sk.estimate()
    assert abs(est - len(uniq)) / len(uniq) < 4 * sk.error_bound()
    # order-invariant states: the merged partials equal one sketch fed
    # every key
    keys, _ = _token_key_fn(pages_table)
    for factory in (lambda: HyperLogLog(p=12),
                    lambda: CountMin(width=1024, depth=4)):
        ref = factory()
        ref.update_batch(keys, None)
        assert (build_sketch(pages_ds, _token_key_fn, factory).to_bytes()
                == ref.to_bytes())


@pytest.mark.parametrize("empty", ["from_arrow", "filtered"])
def test_build_sketch_over_no_rows(ray_session, empty):
    import ray
    if empty == "from_arrow":
        ds = ray.data.from_arrow(pa.table({"text": pa.array([], pa.string())}))
    else:
        ds = (ray.data.from_arrow(generate_pages(50, seed=1))
              .filter(lambda row: False))
    sk = build_sketch(ds, _token_key_fn, lambda: HyperLogLog(p=12))
    assert sk.estimate() == 0.0


def test_build_partitioned_bqf(ray_session, pages_ds, pages_table):
    blob_ds = build_partitioned(
        pages_ds, _token_key_fn, lambda: BqfEc(q=10, count_size=8),
        num_partitions=8, batch_size=256)
    ps = PartitionedSketch.from_dataset(blob_ds, 8)
    assert len(ps.shards) <= 8
    uniq, exact = _exact_token_counts(pages_table)
    got = ps.query_batch(uniq)
    np.testing.assert_array_equal(got, exact)
    # enumerate over shards covers exactly the distinct keys
    ek, ec = ps.enumerate()
    assert len(ek) == len(uniq)


def test_checkpoint_resume_skips_done(ray_session, pages_ds, pages_table, tmp_path):
    ckdir = str(tmp_path / "ck")
    lineage = ["pages:seed=3:n=1200"]
    idx = build_bqf_index(pages_ds, num_partitions=6, q=10,
                          checkpoint_dir=ckdir, input_lineage=lineage,
                          batch_size=256)
    uniq, exact = _exact_token_counts(pages_table)
    np.testing.assert_array_equal(idx.query_tokens(uniq), exact)
    m1 = SketchCheckpoint.load_manifest(ckdir)
    assert len(m1["partitions"]) == len(idx.psketch.shards)

    # delete two shards; resume must rebuild exactly those
    for p in [0, 3]:
        os.remove(os.path.join(ckdir, f"part-{p:05d}.sketch"))
    done = SketchCheckpoint.resume_plan(ckdir, m1["config"], lineage)
    assert 0 not in done and 3 not in done and len(done) == len(m1["partitions"]) - 2

    idx2 = build_bqf_index(pages_ds, num_partitions=6, q=10,
                           checkpoint_dir=ckdir, input_lineage=lineage,
                           batch_size=256)
    np.testing.assert_array_equal(idx2.query_tokens(uniq), exact)

    # config change invalidates the checkpoint
    assert SketchCheckpoint.resume_plan(
        ckdir, {**m1["config"], "q": 11}, lineage) == set()
    # lineage change invalidates too
    assert SketchCheckpoint.resume_plan(
        ckdir, m1["config"], ["other-input"]) == set()

    # reload from disk alone
    idx3 = BqfIndex.load(ckdir)
    np.testing.assert_array_equal(idx3.query_tokens(uniq), exact)


def test_probe_documents_fimpera(ray_session, pages_ds, pages_table):
    import ray
    idx = build_bqf_index(pages_ds, num_partitions=4, q=12, batch_size=512)
    docs = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([pages_table["text"][0].as_py(),
                          "zzqx1 zzqx2 zzqx3"]),
    })
    out = (idx.probe_documents(ray.data.from_arrow(docs), concurrency=1)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # doc 0's tokens all exist in the corpus → full presence
    assert out.loc[0, "presence_ratio"] == 1.0
    assert out.loc[0, "minimum"] >= 1
    # absent tokens → zero presence
    assert out.loc[1, "presence_ratio"] == 0.0
    assert out.loc[1, "minimum"] == 0


def test_salted_aggregate_matches_plain(ray_session, pages_ds, pages_table):
    from bqf_ray.stages.partition import salted_aggregate
    import pandas as pd
    out = salted_aggregate(pages_ds.select_columns(["lang", "warc_ts"]),
                           "lang", {"warc_ts": "count"}, num_salts=8).to_pandas()
    exact = (pages_table.to_pandas().groupby("lang").size()
             .rename("count_rows").reset_index())
    merged = out.sort_values("lang").reset_index(drop=True)
    exact = exact.sort_values("lang").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        merged[["lang", "count_rows"]].astype({"count_rows": "int64"}), exact)


def test_partitioned_sketch_empty_top_partition():
    """P must come from the build config, not max(shards)+1: with the
    highest-numbered partition empty, inference would misroute EVERY key
    (ADVICE r1).  No Ray needed — pure routing check."""
    P = 8
    # keys chosen so partitions 6 and 7 receive nothing
    keys = np.array([0, 1, 2, 3, 4, 5, 8, 9, 13], dtype=np.uint64)
    shards = {}
    for p in range(P):
        sub = keys[keys % P == p]
        if len(sub) == 0:
            continue
        sk = BqfEc(q=8, count_size=8)
        sk.update_batch(sub, np.ones(len(sub), dtype=np.uint64))
        shards[p] = sk
    assert max(shards) + 1 < P          # the trap the old inference fell into
    ps = PartitionedSketch(shards, num_partitions=P)
    assert ps.P == P
    np.testing.assert_array_equal(ps.query_batch(keys),
                                  np.ones(len(keys), dtype=np.uint64))
    # keys routed to genuinely empty partitions report 0
    absent = np.array([6, 7, 14, 15], dtype=np.uint64)
    np.testing.assert_array_equal(ps.query_batch(absent),
                                  np.zeros(len(absent), dtype=np.uint64))
    with pytest.raises(AssertionError):
        PartitionedSketch(shards, num_partitions=4)   # shard id out of range


def test_checkpoint_detects_corrupted_shard(tmp_path):
    """A same-size corrupted shard must fail the sha check on resume and
    on manifest-driven load (ADVICE r1)."""
    ckdir = str(tmp_path / "ck")
    sk = BqfEc(q=8, count_size=8)
    sk.update_batch(np.array([1, 2, 3], dtype=np.uint64),
                    np.array([1, 1, 1], dtype=np.uint64))
    ck = SketchCheckpoint(ckdir, {"q": 8}, ["frag0"])
    ck.write_partition(0, sk.to_bytes(), 3)
    ck.write_manifest()
    assert SketchCheckpoint.resume_plan(ckdir, {"q": 8}, ["frag0"]) == {0}

    # flip one byte in place (size unchanged)
    path = os.path.join(ckdir, "part-00000.sketch")
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(path, "wb").write(bytes(blob))

    assert SketchCheckpoint.resume_plan(ckdir, {"q": 8}, ["frag0"]) == set()
    with pytest.raises(IOError):
        SketchCheckpoint.load_all(ckdir)


def test_update_bqf_index_incremental(ray_session, tmp_path):
    """Incremental maintenance: build(A) + update(add=B) must equal
    build(A∪B); then update(remove=B) restores build(A) exactly.
    Untouched partitions must not be rewritten."""
    import ray
    from bqf_ray.pipelines.build_index import build_bqf_index, update_bqf_index
    from bqf_ray.sources.pages import generate_pages

    pages = generate_pages(800, seed=31)
    a_tbl = pages.slice(0, 600)
    b_tbl = pages.slice(600, 200)
    A = ray.data.from_arrow(a_tbl).repartition(4)
    B = ray.data.from_arrow(b_tbl).repartition(2)
    AB = ray.data.from_arrow(pages).repartition(4)

    d_ref = str(tmp_path / "ref")
    d_inc = str(tmp_path / "inc")
    # 16-bit counters: common tokens exceed the default 8-bit cap at this
    # corpus size, and removing through a SATURATED counter is lossy by
    # (documented, reference-shared) design
    ref = build_bqf_index(AB, num_partitions=6, q=16, count_size=16,
                          checkpoint_dir=d_ref, batch_size=256)
    base = build_bqf_index(A, num_partitions=6, q=16, count_size=16,
                           checkpoint_dir=d_inc, batch_size=256)
    base_keys, base_cnts = base.psketch.enumerate()

    upd = update_bqf_index(d_inc, add_ds=B)
    uk, uc = upd.psketch.enumerate()
    rk, rc = ref.psketch.enumerate()
    uo, ro = np.argsort(uk), np.argsort(rk)
    np.testing.assert_array_equal(uk[uo], rk[ro])
    np.testing.assert_array_equal(uc[uo], rc[ro])

    back = update_bqf_index(d_inc, remove_ds=B)
    bk, bc = back.psketch.enumerate()
    bo, ao = np.argsort(bk), np.argsort(base_keys)
    np.testing.assert_array_equal(bk[bo], base_keys[ao])
    np.testing.assert_array_equal(bc[bo], base_cnts[ao])

    # manifest stays sha-consistent → resume_plan accepts every shard
    m = SketchCheckpoint.load_manifest(d_inc)
    done = SketchCheckpoint.resume_plan(d_inc, m["config"],
                                        m["input_lineage"])
    assert done == {int(p) for p in m["partitions"]}


def test_partitioned_empty_highest_partition(ray_session):
    """Regression: P must come from the build config, not max(shards)+1.
    Keys chosen so the highest-numbered partition receives nothing —
    inferring P from populated shards would misroute EVERY probe."""
    import ray
    P = 8
    keys = np.arange(0, 1600, dtype=np.uint64) * np.uint64(P) \
        + (np.arange(1600, dtype=np.uint64) % np.uint64(P - 1))  # never part P-1
    tbl = pa.table({"key": pa.array(keys.astype(np.int64))})

    def key_fn(batch):
        return (np.asarray(batch.column("key"), dtype=np.int64)
                .astype(np.uint64), None)

    blob_ds = build_partitioned(ray.data.from_arrow(tbl).repartition(4),
                                key_fn, lambda: BqfEc(q=12, count_size=8),
                                num_partitions=P, batch_size=256)
    ps = PartitionedSketch.from_dataset(blob_ds, P)
    assert ps.P == P and (P - 1) not in ps.shards
    np.testing.assert_array_equal(ps.query_batch(keys),
                                  np.ones(len(keys), dtype=np.uint64))
    # absent keys that route to the empty partition report 0, not garbage
    absent = np.arange(7, 8000, 8, dtype=np.uint64) * np.uint64(P) \
        + np.uint64(P - 1)
    assert (ps.query_batch(absent) == 0).all()


@pytest.mark.parametrize("combine", [False, True])
def test_partitioned_n_keys_counts_stored_keys(ray_session, combine):
    """Both plans report ``n_keys`` as the keys the shard stores: with
    hash_bits=16, k and k+2^16 share one fingerprint (and one
    partition), so 2,000 input keys are 1,000 stored keys."""
    import ray
    k = np.arange(1000, dtype=np.uint64)
    keys = np.concatenate([k, k + np.uint64(1 << 16)])
    tbl = pa.table({"key": pa.array(keys.astype(np.int64))})

    def key_fn(batch):
        return (np.asarray(batch.column("key"), dtype=np.int64)
                .astype(np.uint64), None)

    meta = build_partitioned(
        ray.data.from_arrow(tbl).repartition(3), key_fn,
        lambda: BqfEc(q=10, count_size=8, hash_bits=16),
        num_partitions=4, batch_size=256, combine=combine).take_all()
    assert sum(int(r["n_keys"]) for r in meta) == 1000


def _plans_of(run):
    """The ``build_bqf_index`` plan records ``run()`` leaves behind."""
    import uuid

    from bqf_ray.plans import plan_log, recent_plans
    marker = uuid.uuid4().hex
    plan_log("test-marker", marker)
    run()
    recs = recent_plans()
    start = max(i for i, r in enumerate(recs) if r["plan"] == marker)
    return [r for r in recs[start + 1:] if r["op"] == "build_bqf_index"]


def test_build_index_logs_one_plan(ray_session):
    """Every build runs the one key-run exchange and logs one ``runs``
    record; ``forced`` says whether the caller passed the ignored
    ``combine``."""
    import ray
    rng = np.random.RandomState(5)
    words = np.array([f"w{i:07d}" for i in rng.permutation(10**6)[:60_000]])
    varied = pa.table({"text": [" ".join(words[i:i + 50])
                                for i in range(0, 60_000, 50)]})
    repeated = pa.table({"text": ["the same few words"] * 1200})
    empty = pa.table({"text": pa.array([], pa.string())})

    def build(tbl, **kw):
        return lambda: build_bqf_index(ray.data.from_arrow(tbl),
                                       num_partitions=2, q=10,
                                       batch_size=1024, **kw)

    def summary(recs):
        return [(r["plan"], r["forced"]) for r in recs]

    for tbl in (varied, repeated, empty):
        assert summary(_plans_of(build(tbl))) == [("runs", 0)]
    assert summary(_plans_of(build(varied, combine=False))) == [("runs", 1)]


def test_rollup_aggregate_levels(ray_session):
    import ray
    import pandas as pd
    from bqf_ray.pipelines.aggregates import rollup_aggregate
    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], size=2000),
        "b": rng.choice(["p", "q"], size=2000),
        "v": rng.integers(0, 1000, size=2000).astype(np.int64)})
    out = rollup_aggregate(ray.data.from_pandas(df), ["a", "b"], "v")
    got = {(r["a"], r["b"]): (r["n"], r["total"]) for r in out.take_all()}
    fine = df.groupby(["a", "b"])["v"].agg(["count", "sum"])
    for (a, b), row in fine.iterrows():
        assert got[(a, b)] == (row["count"], row["sum"])
    mid = df.groupby("a")["v"].agg(["count", "sum"])
    for a, row in mid.iterrows():
        assert got[(a, None)] == (row["count"], row["sum"])
    assert got[(None, None)] == (len(df), df["v"].sum())
    assert len(got) == len(fine) + len(mid) + 1


def test_cube_and_grouping_sets(ray_session):
    import ray
    import pandas as pd
    from bqf_ray.pipelines.aggregates import (cube_aggregate,
                                              grouping_sets_aggregate)
    rng = np.random.default_rng(17)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], size=2500),
        "b": rng.choice(["p", "q"], size=2500),
        "v": rng.integers(0, 1000, size=2500).astype(np.int64)})
    ds = ray.data.from_pandas(df).repartition(6)
    out = cube_aggregate(ds, ["a", "b"], "v")
    got = {(r["a"], r["b"]): (r["n"], r["total"]) for r in out.take_all()}
    fine = df.groupby(["a", "b"])["v"].agg(["count", "sum"])
    for (a, b), row in fine.iterrows():
        assert got[(a, b)] == (row["count"], row["sum"])
    # CUBE adds the (b)-only level that ROLLUP lacks
    bonly = df.groupby("b")["v"].agg(["count", "sum"])
    for b, row in bonly.iterrows():
        assert got[(None, b)] == (row["count"], row["sum"])
    aonly = df.groupby("a")["v"].agg(["count", "sum"])
    for a, row in aonly.iterrows():
        assert got[(a, None)] == (row["count"], row["sum"])
    assert got[(None, None)] == (len(df), df["v"].sum())
    assert len(got) == len(fine) + len(aonly) + len(bonly) + 1

    # explicit grouping sets: just (a) and (b) — no fine level, no total
    out2 = grouping_sets_aggregate(ds, ["a", "b"], "v", [("a",), ("b",)])
    got2 = {(r["a"], r["b"]): (r["n"], r["total"]) for r in out2.take_all()}
    assert len(got2) == len(aonly) + len(bonly)
    for a, row in aonly.iterrows():
        assert got2[(a, None)] == (row["count"], row["sum"])
    for b, row in bonly.iterrows():
        assert got2[(None, b)] == (row["count"], row["sum"])

    # duplicate sets rejected
    import pytest
    with pytest.raises(AssertionError):
        grouping_sets_aggregate(ds, ["a", "b"], "v", [("a",), ("a",)])


def test_pivot_counts_and_sums(ray_session):
    import ray
    import pandas as pd
    from bqf_ray.pipelines.aggregates import pivot_counts
    rng = np.random.default_rng(21)
    df = pd.DataFrame({
        "k": rng.integers(0, 40, size=3000),
        "cat": rng.choice(["a", "b", "c", "zz"], size=3000),
        "v": rng.integers(0, 100, size=3000).astype(np.int64)})
    # counts, with an out-of-list category folded into n_other
    out = pivot_counts(ray.data.from_pandas(df), "k", "cat",
                       ["a", "b"], other="other").take_all()
    got = {r["k"]: r for r in out}
    for k, grp in df.groupby("k"):
        vc = grp["cat"].value_counts()
        assert got[k]["n_a"] == vc.get("a", 0)
        assert got[k]["n_b"] == vc.get("b", 0)
        assert got[k]["n_other"] == vc.get("c", 0) + vc.get("zz", 0)
    # sums, other dropped
    out2 = pivot_counts(ray.data.from_pandas(df), "k", "cat",
                        ["a", "b", "c", "zz"], value_col="v",
                        other=None).take_all()
    got2 = {r["k"]: r for r in out2}
    assert "n_other" not in out2[0]
    for k, grp in df.groupby("k"):
        s = grp.groupby("cat")["v"].sum()
        for c in ["a", "b", "c", "zz"]:
            assert got2[k][f"n_{c}"] == s.get(c, 0)


def test_funnel_two_step_matches_bruteforce(ray_session):
    import ray
    import pandas as pd
    from bqf_ray.pipelines.windowed import funnel
    rng = np.random.default_rng(7)
    n = 6000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 300, size=n),
        "ts": pd.to_datetime(rng.integers(0, 3_600_000, size=n), unit="ms"),
        "event_type": rng.choice(["click", "view", "purchase"], size=n,
                                 p=[0.4, 0.5, 0.1])})
    W = 600
    out = funnel(ray.data.from_pandas(df), ["click", "purchase"],
                 within_s=W).take_all()
    got = {r["user_id"]: r["first_start"] for r in out}
    exp = {}
    for uid, g in df.groupby("user_id"):
        clicks = g.loc[g.event_type == "click", "ts"].sort_values()
        buys = g.loc[g.event_type == "purchase", "ts"].sort_values()
        for c in clicks:
            if ((buys > c) & (buys <= c + pd.Timedelta(seconds=W))).any():
                exp[uid] = c
                break
    assert got == exp and len(exp) > 5


def test_funnel_three_step_strict_order(ray_session):
    import ray
    import pandas as pd
    from bqf_ray.pipelines.windowed import funnel
    rows = [
        # completes: a < b < c within 100s
        (1, 0, "a"), (1, 10, "b"), (1, 20, "c"),
        # wrong order — no completion
        (2, 0, "b"), (2, 10, "a"), (2, 20, "b"), (2, 500, "c"),
        # equal timestamps are NOT strictly later
        (3, 0, "a"), (3, 0, "b"), (3, 10, "c"),
        # window exceeded
        (4, 0, "a"), (4, 10, "b"), (4, 200, "c"),
        # greedy trap: first b leads to late c, later b to early c —
        # greedy still finds the min end (monotone chain ends)
        (5, 0, "a"), (5, 5, "b"), (5, 8, "b"), (5, 50, "c"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "sec", "event_type"])
    df["ts"] = pd.to_datetime(df.pop("sec"), unit="s")
    out = funnel(ray.data.from_pandas(df), ["a", "b", "c"],
                 within_s=100).take_all()
    got = sorted(r["user_id"] for r in out)
    assert got == [1, 5]
    # user 2: 'a' at t=10 has b at 20 and c at 500 > 10+100 → excluded


def test_retention_cohorts_matches_pandas(ray_session):
    import ray
    import pandas as pd
    from bqf_ray.pipelines.windowed import retention_cohorts
    rng = np.random.default_rng(13)
    n = 4000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 120, size=n),
        "ts": pd.to_datetime(rng.integers(0, 14 * 86400, size=n), unit="s")})
    out = retention_cohorts(ray.data.from_pandas(df)).take_all()
    got = {(r["cohort"], r["day_offset"]): r["n_users"] for r in out}
    d = df.assign(day=df["ts"].dt.floor("D")).drop_duplicates(
        ["user_id", "day"])
    first = d.groupby("user_id")["day"].min().rename("cohort")
    j = d.join(first, on="user_id")
    j["off"] = (j["day"] - j["cohort"]).dt.days
    exp = j.groupby(["cohort", "off"]).size()
    assert len(got) == len(exp)
    for (c, o), v in exp.items():
        assert got[(c.to_pydatetime(), o)] == v


def test_funnel_property_random(ray_session):
    """Randomized property check: funnel output equals the brute-force
    ANY-chain search for 3 steps across many users/seeds."""
    import ray
    import pandas as pd
    from bqf_ray.pipelines.windowed import funnel
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        n = 1500
        df = pd.DataFrame({
            "user_id": rng.integers(0, 60, size=n),
            "ts": pd.to_datetime(rng.integers(0, 5000, size=n), unit="s"),
            "event_type": rng.choice(["a", "b", "c", "x"], size=n)})
        W = 800
        out = funnel(ray.data.from_pandas(df), ["a", "b", "c"],
                     within_s=W).take_all()
        got = {r["user_id"]: r["first_start"] for r in out}
        exp = {}
        for uid, g in df.groupby("user_id"):
            ta = np.sort(g.loc[g.event_type == "a", "ts"].astype(
                "datetime64[us]").astype(np.int64).to_numpy())
            tb = np.sort(g.loc[g.event_type == "b", "ts"].astype(
                "datetime64[us]").astype(np.int64).to_numpy())
            tc = np.sort(g.loc[g.event_type == "c", "ts"].astype(
                "datetime64[us]").astype(np.int64).to_numpy())
            best = None
            for a in ta:                      # brute force: any chain
                for b in tb[tb > a]:
                    if (tc[(tc > b) & (tc <= a + W * 10**6)]).size:
                        best = a
                        break
                if best is not None:
                    break
            if best is not None:
                exp[uid] = np.int64(best).astype(
                    "datetime64[us]").item()
        assert got == exp, seed


def test_rolling_window_sum_matches_pandas(ray_session):
    import ray
    import pandas as pd
    from bqf_ray.pipelines.windowed import rolling_window_sum
    rng = np.random.default_rng(31)
    n = 3000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 50, size=n),
        "ts": pd.to_datetime(rng.integers(0, 10_000, size=n), unit="s"),
        "value": rng.integers(0, 500, size=n).astype(np.int64)})
    out = rolling_window_sum(ray.data.from_pandas(df), k=4).take_all()
    got = {r["event_id"]: (r["roll_sum"], r["n_window"]) for r in out}
    d = df.sort_values(["user_id", "ts", "event_id"])
    g = d.groupby("user_id")["value"]
    d["rs"] = g.rolling(4, min_periods=1).sum().to_numpy().astype(np.int64)
    d["nw"] = g.rolling(4, min_periods=1).count().to_numpy().astype(np.int64)
    assert len(got) == n
    for _, r in d.iterrows():
        assert got[r["event_id"]] == (r["rs"], r["nw"]), r["event_id"]


def test_global_top_n_matches_sorted(ray_session):
    import ray
    import pandas as pd
    from bqf_ray.pipelines.aggregates import global_top_n
    rng = np.random.default_rng(41)
    df = pd.DataFrame({
        "k": rng.integers(0, 10_000, size=5000),
        "s": rng.choice(["aa", "bb", "cc"], size=5000),
        "id": np.arange(5000, dtype=np.int64)})
    ds = ray.data.from_pandas(df).repartition(8)
    got = global_top_n(ds, ["k", "id"], n=50,
                       descending=[True, False]).to_pandas()
    exp = df.sort_values(["k", "id"], ascending=[False, True]).head(50)
    assert got["id"].tolist() == exp["id"].tolist()
    # string sort key, ascending
    got2 = global_top_n(ds, ["s", "id"], n=10, descending=False).to_pandas()
    exp2 = df.sort_values(["s", "id"]).head(10)
    assert got2["id"].tolist() == exp2["id"].tolist()


def test_lag_diff_matches_pandas(ray_session):
    import ray
    import pandas as pd
    from bqf_ray.pipelines.windowed import lag_diff
    rng = np.random.default_rng(51)
    n = 2500
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 40, size=n),
        "ts": pd.to_datetime(rng.integers(0, 8000, size=n), unit="s")})
    out = lag_diff(ray.data.from_pandas(df)).take_all()
    got = {r["event_id"]: r["lag_diff"] for r in out}
    d = df.sort_values(["user_id", "ts", "event_id"])
    exp_us = (d.groupby("user_id")["ts"].diff()
              .dt.total_seconds() * 1_000_000)
    for eid, v in zip(d["event_id"], exp_us):
        if pd.isna(v):
            assert got[eid] is None
        else:
            assert got[eid] == int(round(v))


def test_pivot_counts_null_keys_excluded(ray_session):
    # regression: a null key used to wrap the scatter index and corrupt
    # the last real key's counts
    import ray
    from bqf_ray.pipelines.aggregates import pivot_counts
    rows = ([{"k": 1, "cat": "a"}] * 3 + [{"k": 2, "cat": "a"}] * 2
            + [{"k": None, "cat": "a"}] * 5)
    out = pivot_counts(ray.data.from_items(rows), "k", "cat",
                       ["a"], other=None).take_all()
    got = {r["k"]: r["n_a"] for r in out}
    assert got == {1: 3, 2: 2}


def test_global_top_n_timestamp_and_uint(ray_session):
    # regression: descending negation crashed datetime64 and wrapped
    # uint64; rank-based keys must handle both
    import ray
    import pandas as pd
    from bqf_ray.pipelines.aggregates import global_top_n
    rng = np.random.default_rng(77)
    df = pd.DataFrame({
        "ts": pd.to_datetime(rng.integers(0, 100_000, size=800), unit="s"),
        "id": np.arange(800, dtype=np.int64)})
    got = global_top_n(ray.data.from_pandas(df).repartition(4),
                       ["ts", "id"], n=20,
                       descending=[True, False]).to_pandas()
    exp = df.sort_values(["ts", "id"], ascending=[False, True]).head(20)
    assert got["id"].tolist() == exp["id"].tolist()


def test_fingerprint_dup_pairs_exact_at_hamming3(ray_session):
    """Pigeonhole exactness: for max_hamming<=3 the 4x16-band blocking
    must find EVERY pair — compared against O(n^2) brute force over
    random fingerprints engineered to include near pairs."""
    import ray
    from bqf_ray.pipelines.dedup import fingerprint_dup_pairs
    rng = np.random.default_rng(83)
    base = rng.integers(0, 2**63, size=300, dtype=np.int64)
    fps = [base]
    # planted near-duplicates at hamming 1..3 of the first 60
    for k in (1, 2, 3):
        flip = base[:60].copy()
        for b in rng.choice(64, size=k, replace=False):
            flip = flip ^ np.int64(1 << int(b))
        fps.append(flip)
    all_fp = np.concatenate(fps)
    ids = np.arange(len(all_fp), dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids), "fp": pa.array(all_fp)})).repartition(4)
    got = {(r["doc_a"], r["doc_b"]): r["hamming"]
           for r in fingerprint_dup_pairs(ds, "fp",
                                          max_hamming=3).take_all()}

    def pop(x):
        return bin(int(x) & 0xFFFFFFFFFFFFFFFF).count("1")
    exp = {}
    u = all_fp.view(np.uint64)
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            h = pop(u[i] ^ u[j])
            if h <= 3:
                exp[(ids[i], ids[j])] = h
    assert got == exp and len(exp) >= 180


def test_global_top_n_edges(ray_session):
    import ray
    from bqf_ray.pipelines.aggregates import global_top_n
    ds = ray.data.from_arrow(pa.table(
        {"v": pa.array(np.array([3, 1, 2], dtype=np.int64))}))
    # n larger than the dataset: all rows, fully sorted
    got = global_top_n(ds, ["v"], n=100, descending=False).to_pandas()
    assert got["v"].tolist() == [1, 2, 3]


def test_bucketed_agg_matches_pandas(ray_session):
    """bucketed_agg == groupby().aggregate() for sum/min/max/count over
    mixed string+int keys — incl. the internal separator byte, empty
    strings, NULL keys (SQL semantics: one group), and fractional float
    keys — for any partitioning/bucket count.  Null keys matter because
    pyarrow 16.1's MULTI-key group_by splits null-key groups
    size-dependently (single-key merges them), which bucketed_agg works
    around with is-null flag columns."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from bqf_ray.stages.partition import bucketed_agg

    rng = np.random.RandomState(9)
    n = 5_000
    tbl = pa.table({
        "ka": pa.array(rng.choice(
            ["a", "b", None, "d\x1fw", ""], n).tolist()),
        "kb": pa.array(rng.randint(-3, 3, n), pa.int64()),
        "v": pa.array(rng.randint(0, 100, n), pa.int64()),
    })
    want = (tbl.to_pandas().groupby(["ka", "kb"], dropna=False)
            .agg(sv=("v", "sum"), mn=("v", "min"), cnt=("v", "count"))
            .reset_index().sort_values(["ka", "kb"], na_position="last")
            .reset_index(drop=True))
    for parts, nb, loc in [(1, 3, False), (6, 17, False),
                           (1, 3, True), (6, 17, True)]:
        got = (bucketed_agg(ray.data.from_arrow(tbl).repartition(parts),
                            ["ka", "kb"],
                            [("v", "sum", "sv"), ("v", "min", "mn"),
                             ("v", "count", "cnt")], num_buckets=nb,
                            combine_local=loc)
               .to_pandas().sort_values(["ka", "kb"], na_position="last")
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[["ka", "kb", "sv", "mn", "cnt"]],
            want[["ka", "kb", "sv", "mn", "cnt"]], check_dtype=False)

    # combine_local with NULLS in the aggregated column: count counts
    # valid rows only, partial counts re-sum exactly
    ntbl = pa.table({"k": pa.array(["x", "x", "y", None]),
                     "v": pa.array([1, None, 3, 4], pa.int64())})
    got = (bucketed_agg(ray.data.from_arrow(ntbl).repartition(2), ["k"],
                        [("v", "sum", "sv"), ("v", "count", "cnt")],
                        num_buckets=3, combine_local=True)
           .to_pandas().sort_values("k", na_position="last")
           .reset_index(drop=True))
    assert got["sv"].tolist() == [1, 3, 4]
    assert got["cnt"].tolist() == [1, 1, 1]

    # fractional float keys must route without a safe-cast crash
    ftbl = pa.table({"kf": pa.array([1.5, 1.5, 2.25, None]),
                     "v": pa.array([1, 2, 3, 4], pa.int64())})
    got = (bucketed_agg(ray.data.from_arrow(ftbl), ["kf"],
                        [("v", "sum", "sv")], num_buckets=3)
           .to_pandas().sort_values("kf", na_position="last")
           .reset_index(drop=True))
    assert got["sv"].tolist() == [3, 3, 4]


def test_rolling_time_range_sum_matches_duckdb(ray_session):
    """RANGE-frame rolling sum == DuckDB window, including the
    peer-row rule (duplicate timestamps see each other both ways)."""
    import duckdb
    import ray

    from bqf_ray.pipelines.windowed import rolling_time_range_sum
    rng = np.random.RandomState(11)
    n = 4000
    ts = (np.sort(rng.randint(0, 3_000, n)) * 1_000_000).astype(
        "datetime64[us]")   # second resolution -> many exact ties
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(rng.randint(0, 25, n).astype(np.int64)),
        "ts": pa.array(ts),
        "v": pa.array(rng.randint(-50, 50, n).astype(np.int64))})
    got = (rolling_time_range_sum(
               ray.data.from_arrow(t).repartition(8), range_s=120,
               value_col="v")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("ev", t.to_pandas())
    exp = con.execute("""
        SELECT event_id, SUM(v) OVER w::BIGINT AS range_sum,
               COUNT(*) OVER w::BIGINT AS n_window
        FROM ev
        WINDOW w AS (PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN INTERVAL 120 SECONDS PRECEDING
                           AND CURRENT ROW)
        ORDER BY event_id""").df()
    assert list(got["range_sum"]) == list(exp["range_sum"])
    assert list(got["n_window"]) == list(exp["n_window"])


# --------------------------------------------------------------------------
# the one keyed exchange: bucket_of + exchange
# --------------------------------------------------------------------------

def _bucket_columns():
    nan_a = np.array([0x7FF8000000000000], np.uint64).view(np.float64)[0]
    nan_b = np.array([0x7FF8000000000BAD], np.uint64).view(np.float64)[0]
    return {
        "int64": pa.array([5, -3, None, 5, 2**62, None, -1], pa.int64()),
        "uint64": pa.array([2**63 + 5, 2**64 - 1, None, 7, 2**63 + 5],
                           pa.uint64()),
        "string": pa.array(["a", "", None, "hé", "a", None]),
        "float": pa.array([nan_a, 1.5, nan_b, None, -0.0, 1.5],
                          pa.float64()),
    }


@pytest.mark.parametrize("kind", ["int64", "uint64", "string", "float"])
def test_bucket_of_in_range_and_per_value(kind):
    """A value's bucket is in [0, B) and depends on the value alone —
    not on its batch, its row position or the array's chunking."""
    from bqf_ray.stages.partition import bucket_of
    col = _bucket_columns()[kind]
    B = 7
    b = bucket_of(col, num_buckets=B)
    assert b.dtype == np.int64 and len(b) == len(col)
    assert ((b >= 0) & (b < B)).all()
    alone = [bucket_of(col.slice(i, 1), num_buckets=B)[0]
             for i in range(len(col))]
    assert list(b) == alone
    chunked = pa.chunked_array([col.slice(0, 2), col.slice(2, 1),
                                col.slice(3)])
    assert list(bucket_of(chunked, num_buckets=B)) == list(b)
    vals = col.to_pylist()
    for i, v in enumerate(vals):         # equal values share a bucket
        for j, w in enumerate(vals):
            same = (v is None and w is None) or (
                v is not None and w is not None and
                (v == w or (kind == "float" and v != v and w != w)))
            if same:
                assert b[i] == b[j], (v, w)


def test_bucket_of_two_nan_payloads_share_a_bucket():
    from bqf_ray.stages.partition import _col_hash64, bucket_of
    col = _bucket_columns()["float"]
    assert np.isnan(col[0].as_py()) and np.isnan(col[2].as_py())
    assert _col_hash64(col)[0] == _col_hash64(col)[2]
    assert len(set(bucket_of(col, num_buckets=1 << 20)[[0, 2]])) == 1


def test_col_hash64_uint64_high_bit_and_low_values():
    """uint64 keys past 2^63 hash (no int64 cast error); below 2^63 they
    hash exactly as the same int64 values do, so their routing is
    unchanged."""
    from bqf_ray.stages.partition import _col_hash64
    hi = _col_hash64(pa.array(np.array([2**63 + 5], np.uint64)))
    assert hi.dtype == np.uint64 and len(hi) == 1
    low = [0, 1, 5, 2**62, 2**63 - 1]
    assert list(_col_hash64(pa.array(low, pa.uint64()))) == \
        list(_col_hash64(pa.array(low, pa.int64())))
    assert list(_col_hash64(pa.array([None], pa.uint64()))) != \
        list(_col_hash64(pa.array([0], pa.uint64())))


def test_bucket_of_multi_column_matches_bucketed_agg_routing():
    """bucketed_agg routes through bucket_of: the chained fmix64 over
    the key columns (its routing before the exchange helper existed)."""
    from bqf_ray.functions.hashing import fmix64
    from bqf_ray.stages.partition import _col_hash64, bucket_of
    a = pa.array([1, 2, None, 4], pa.int64())
    s = pa.array(["x", "y", "x", None])
    phi = np.uint64(0x9E3779B97F4A7C15)
    h = np.zeros(4, np.uint64)
    for c in (a, s):
        h = fmix64(h * phi + _col_hash64(c))
    assert list(bucket_of(a, s, num_buckets=64)) == \
        list((h % np.uint64(64)).astype(np.int64))


def test_exchange_one_fold_call_per_bucket(ray_session):
    """Every key's rows reach exactly one fold call, the routing column
    is dropped before the fold, and no row is lost or duplicated."""
    import uuid

    import ray

    from bqf_ray.stages.partition import exchange
    rng = np.random.RandomState(5)
    k = rng.randint(0, 500, 6000).astype(np.int64)
    t = pa.table({"k": pa.array(k), "v": pa.array(np.arange(len(k)))})

    def fold(g: pa.Table) -> pa.Table:
        assert g.column_names == ["k", "v"]
        return pa.table({"k": g.column("k"), "v": g.column("v"),
                         "call": pa.array([uuid.uuid4().hex] * g.num_rows)})

    out = exchange(ray.data.from_arrow(t).repartition(7), fold, "k",
                   16).to_pandas()
    assert sorted(out["v"]) == list(range(len(k)))
    assert (out.groupby("k")["call"].nunique() == 1).all()
    assert out["call"].nunique() <= 16


def test_exchange_colocates_unioned_sides(ray_session):
    """A join-shaped exchange over a.union(b): equal keys from both
    sides meet in one fold call."""
    import ray

    from bqf_ray.stages.partition import exchange
    a = pa.table({"key": pa.array(["u%d" % i for i in range(0, 300)]),
                  "side": pa.array(np.zeros(300, np.int8))})
    b = pa.table({"key": pa.array(["u%d" % i for i in range(150, 450)]),
                  "side": pa.array(np.ones(300, np.int8))})

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        both = df.groupby("key")["side"].nunique()
        return pa.table({"key": pa.array(both.index.tolist(), pa.string()),
                         "n_sides": pa.array(both.to_numpy(np.int64))})

    out = exchange(ray.data.from_arrow(a).union(ray.data.from_arrow(b)),
                   fold, "key", 8).to_pandas()
    assert len(out) == 450 and out["key"].is_unique
    got = dict(zip(out["key"], out["n_sides"]))
    assert all(got["u%d" % i] == (2 if 150 <= i < 300 else 1)
               for i in range(450))


# hash-bucket exchanges go through stages.partition.exchange; these
# groupby-on-a-routing-column sites partition by DATA, not a hash bucket
_ROUTED_BY_DATA = {
    ("build_index.py", "__part"),    # BQF shard id key % P (manifests)
    ("graph.py", "__sp"),            # vertex-shard routes (checkpoints)
    ("graph.py", "__tp"),            # destination-shard fold
    ("ranking.py", "__part"),        # range partitions
    ("relational.py", "__tb"),       # interval time bucket (replicas)
    ("knn.py", "__cell"),            # IVF cell: one ranking per cell
    ("dedup.py", "__bkey"),          # LSH band code: one verify per code
    ("contamination.py", "__bkey"),  # LSH band code: one verify per code
}


def _routing_groupbys(path):
    """(lineno, column) of every ``.groupby(...)`` whose keys are all
    ``__``-prefixed routing columns (string literals, lists of them, or
    module-level string constants)."""
    import ast
    tree = ast.parse(open(path).read())
    consts = {t.id: n.value.value for n in tree.body
              if isinstance(n, ast.Assign)
              and isinstance(n.value, ast.Constant)
              and isinstance(n.value.value, str)
              for t in n.targets if isinstance(t, ast.Name)}

    def keys(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, ast.Name) and node.id in consts:
            return [consts[node.id]]
        if isinstance(node, ast.List):
            ks = [keys(e) for e in node.elts]
            return None if None in ks else [k for kk in ks for k in kk]
        return None

    out = []
    for n in ast.walk(tree):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "groupby" and n.args):
            ks = keys(n.args[0])
            if ks and all(k.startswith("__") for k in ks):
                out.extend((n.lineno, k) for k in ks)
    return out


def test_no_hand_rolled_bucket_exchange():
    """No pipeline groups by a hand-made ``__`` routing column except the
    data-partitioned sites above: hash-bucket exchanges use
    ``stages.partition.exchange`` and its one routing hash."""
    import glob
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(root, "bqf_ray", "pipelines",
                                          "*.py")))
    paths.append(os.path.join(root, "__ray_entry__.py"))
    found = {(os.path.basename(p), col, ln) for p in paths
             for ln, col in _routing_groupbys(p)}
    stray = sorted(f for f in found if f[:2] not in _ROUTED_BY_DATA)
    assert not stray, f"hand-rolled routing-column groupby: {stray}"
    # the scan sees the allowed sites, so it is not vacuous
    assert {f[:2] for f in found} == _ROUTED_BY_DATA
