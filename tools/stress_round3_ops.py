"""Throughput stress for the round-3 operator batch at 10-250x sf0.1
scale: interval self-join (5M intervals), lag-1 autocorrelation (10M
rows), skyline (10M points), grouped mode / MAD / weighted median /
winsorize (10M rows), joint MI counts (10M rows), Z-order keys (10M
rows), BFS hops (2M-edge graph).  Deterministic synthetic tables
cached under /tmp/bqf_bench.  Run: python tools/stress_round3_ops.py."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import ray  # noqa: E402

N = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
N_IV = N // 2
N_EDGES = N // 5
CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
ray.init(address="local", num_cpus=CPUS, include_dashboard=False)

from tools import canary  # noqa: E402
from tools.canary import _h  # noqa: E402


_SECTION = "a"
_B_ONLY = bool(os.environ.get("STRESS_R3B_ONLY"))


def run(name, fn, rows):
    if not (_B_ONLY and _SECTION == "a"):
        canary.run(name, fn, rows)


# ---- 10M-row base table: id, k10k, k100, cat_a, cat_b, value, x, y ----
base_cache = f"/tmp/bqf_bench/stress_r3_{N}"
if not os.path.exists(os.path.join(base_cache, "_DONE")):
    os.makedirs(base_cache, exist_ok=True)

    def gen(batch):
        i = np.asarray(batch["id"], dtype=np.int64)
        h = _h(i)
        return pa.table({
            "id": pa.array(i),
            "k10k": pa.array((h % np.uint64(10_000)).astype(np.int64)),
            "k100k": pa.array((h % np.uint64(100_000)).astype(np.int64)),
            "cat_a": pa.array((h % np.uint64(1000)).astype(np.int64)),
            "cat_b": pa.array(((h >> np.uint64(20)) % np.uint64(100))
                              .astype(np.int64)),
            "value": pa.array(((h % np.uint64(1_000_003))
                               .astype(np.float64)) / 1000.0),
            "w": pa.array(((h >> np.uint64(8)) % np.uint64(9) + 1)
                          .astype(np.int64)),
            "ts_us": pa.array(((h % np.uint64(30 * 86_400))
                               .astype(np.int64)) * 1_000_000),
        })

    (ray.data.range(N, override_num_blocks=CPUS * 4)
     .map_batches(gen, batch_format="pyarrow").write_parquet(base_cache))
    open(os.path.join(base_cache, "_DONE"), "w").write(str(N))

base = ray.data.read_parquet(base_cache)

# ---- interval table: 5M short intervals on a 30-day line --------------
iv_cache = f"/tmp/bqf_bench/stress_r3_iv_{N_IV}"
if not os.path.exists(os.path.join(iv_cache, "_DONE")):
    os.makedirs(iv_cache, exist_ok=True)

    def gen_iv(batch):
        i = np.asarray(batch["id"], dtype=np.int64)
        h = _h(i)
        # ~5M intervals / 30 days ≈ 2 starts per us-second; lengths
        # 0-120 s keep pair density realistic (concurrent sessions)
        s = (h % np.uint64(30 * 86_400)).astype(np.int64) * 1_000_000
        ln = ((h >> np.uint64(17)) % np.uint64(120)).astype(np.int64) \
            * 1_000_000
        return pa.table({"u": pa.array(i), "s": pa.array(s),
                         "e": pa.array(s + ln)})

    (ray.data.range(N_IV, override_num_blocks=CPUS * 4)
     .map_batches(gen_iv, batch_format="pyarrow").write_parquet(iv_cache))
    open(os.path.join(iv_cache, "_DONE"), "w").write(str(N_IV))

iv = ray.data.read_parquet(iv_cache)

from bqf_ray.pipelines.aggregates import (clip_to_quantiles,  # noqa: E402
                                          grouped_mad, grouped_mode,
                                          grouped_weighted_median,
                                          joint_mi_counts, skyline)
from bqf_ray.pipelines.graph import bfs_hops  # noqa: E402
from bqf_ray.pipelines.relational import interval_self_join  # noqa: E402
from bqf_ray.pipelines.windowed import lag_autocorr_components  # noqa: E402
from bqf_ray.stages.partition import zorder_key  # noqa: E402

run("zorder 10M", lambda: zorder_key(
    base.map_batches(lambda b: pa.table(
        {"x": pa.array(np.asarray(b["cat_a"], dtype=np.int64)),
         "y": pa.array(np.asarray(b["cat_b"], dtype=np.int64))}),
        batch_format="pyarrow"),
    ["x", "y"], bits=10, num_partitions=64).count(), N)

run("skyline 10M", lambda: skyline(
    base.map_batches(lambda b: pa.table(
        {"x": b["value"],
         "y": pa.array(_h(np.asarray(b["id"], dtype=np.int64)
                          + 77).astype(np.float64))}),
        batch_format="pyarrow"), "x", "y").count(), N)

run("grouped_mode 10M/100k", lambda: grouped_mode(
    base, "k100k", "cat_b").count(), N)

run("grouped_mad 10M/10k", lambda: grouped_mad(
    base, "k10k", "value").count(), N)

run("weighted_median 10M/10k", lambda: grouped_weighted_median(
    base.map_batches(lambda b: pa.table(
        {"k": b["k10k"],
         "v": pa.array((np.asarray(b["value"]) * 1000).astype(np.int64)),
         "w": b["w"]}), batch_format="pyarrow"),
    "k", "v", "w").count(), N)

run("winsorize 10M/1k", lambda: clip_to_quantiles(
    base.select_columns(["id", "cat_a", "value"]), "cat_a", "value",
    0.05, 0.95).count(), N)

run("joint_mi 10M (1kx100)", lambda: joint_mi_counts(
    base, "cat_a", "cat_b").count(), N)

run("autocorr 10M/64keys", lambda: lag_autocorr_components(
    base.map_batches(lambda b: pa.table(
        {"event_id": b["id"],
         "ts": pa.array(np.asarray(b["ts_us"], dtype=np.int64)
                        .astype("datetime64[us]")),
         "event_type": pa.array(
             np.char.add("k", (np.asarray(b["k10k"], dtype=np.int64)
                               % 64).astype("U3"))),
         "value": b["value"]}), batch_format="pyarrow"),
    scale=100).count(), N)

run("interval_join 5M", lambda: interval_self_join(
    iv, "s", "e", tie_col="u", bucket_width_s=600,
    exclude_equal="u").count(), N_IV)

# ---- BFS over a 2M-edge random graph (500k nodes) ---------------------
edges = ray.data.range(N_EDGES, override_num_blocks=CPUS * 2) \
    .map_batches(lambda b: (lambda i, h: pa.table(
        {"a": pa.array((h % np.uint64(500_000)).astype(np.int64)),
         "b": pa.array(((h >> np.uint64(13)) % np.uint64(500_000))
                       .astype(np.int64))}))(
        np.asarray(b["id"], dtype=np.int64),
        _h(np.asarray(b["id"], dtype=np.int64))),
        batch_format="pyarrow")
seeds = np.arange(0, 500_000, 9973, dtype=np.int64)
run("bfs 2M edges", lambda: bfs_hops(edges, seeds, max_hops=8).num_rows,
    N_EDGES)

# ---- follow-on section (STRESS_R3B=1): session-2 operators -------------
# (must run BEFORE ray.shutdown(): a post-shutdown dataset op would
# auto-reinit Ray with default settings and skew the numbers)
if os.environ.get("STRESS_R3B") or _B_ONLY:
    _SECTION = "b"
    from bqf_ray.pipelines.aggregates import (category_purity,
                                              grouped_cont_quantiles)
    from bqf_ray.pipelines.audit import grouped_checksum
    from bqf_ray.pipelines.embeddings import embedding_covariance
    from bqf_ray.pipelines.graph import edge_triangle_support
    from bqf_ray.pipelines.ranking import grouped_relative_ranks
    from bqf_ray.pipelines.windowed import rolling_median, scd2_intervals

    def with_ts(b):
        return pa.table({
            "id": b["id"], "k10k": b["k10k"], "value": b["value"],
            "ts": pa.array(np.asarray(b["ts_us"], dtype=np.int64)
                           .astype("datetime64[us]"))})

    evt = base.map_batches(with_ts, batch_format="pyarrow")
    run("rolling_median 10M/10k", lambda: rolling_median(
        evt, "k10k", "ts", "id", "value", window=7).count(), N)
    run("scd2 10M/10k", lambda: scd2_intervals(
        evt, "k10k", "ts", "id").count(), N)
    run("relative_ranks 10M/10k", lambda: grouped_relative_ranks(
        base, "k10k", "value", "id").count(), N)
    run("purity 10M/100k", lambda: category_purity(
        base, "k100k", "cat_b").count(), N)
    run("cont_quantiles 10M/10k", lambda: grouped_cont_quantiles(
        base, "k10k", "value").count(), N)
    run("grouped_checksum 10M/1k", lambda: grouped_checksum(
        base, "cat_a", ["id", "value"]).count(), N)

    vecs_cache = f"/tmp/bqf_bench/stress_r3_vecs"
    if not os.path.exists(os.path.join(vecs_cache, "_DONE")):
        os.makedirs(vecs_cache, exist_ok=True)

        def gen_vecs(batch):
            i = np.asarray(batch["id"], dtype=np.int64)
            h = _h(i)
            base_v = (h[:, None] * np.arange(1, 65, dtype=np.uint64)
                      [None, :])
            x = ((base_v % np.uint64(2_000_001)).astype(np.float64)
                 / 1_000_000.0 - 1.0).astype(np.float32)
            return pa.table({"embedding": pa.array(
                list(x), pa.list_(pa.float32()))})

        (ray.data.range(1_000_000, override_num_blocks=CPUS * 2)
         .map_batches(gen_vecs, batch_format="pyarrow")
         .write_parquet(vecs_cache))
        open(os.path.join(vecs_cache, "_DONE"), "w").write("1")
    vec_ds = ray.data.read_parquet(vecs_cache)
    run("covariance 1Mx64", lambda: embedding_covariance(
        vec_ds).count(), 1_000_000)

    edges2 = ray.data.range(N_EDGES, override_num_blocks=CPUS * 2) \
        .map_batches(lambda b: (lambda i, h: pa.table(
            {"a": pa.array((h % np.uint64(500_000)).astype(np.int64)),
             "b": pa.array(((h >> np.uint64(13)) % np.uint64(500_000))
                           .astype(np.int64))}))(
            np.asarray(b["id"], dtype=np.int64),
            _h(np.asarray(b["id"], dtype=np.int64))),
            batch_format="pyarrow")
    run("edge_support 2M edges", lambda: edge_triangle_support(
        edges2).count(), N_EDGES)

ray.shutdown()
