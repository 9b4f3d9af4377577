"""Throughput stress for the session-3h sketch/statistics batch:
compressed-bitmap grouped distinct (10M rows), DGIM window counts
(10M events), hash-bootstrap CI (B=20 replicates x 10M rows), and the
correlated key-sample join (5M x 10M at rate 0.1).
Run: python tools/stress_r3h_ops.py [N]."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import ray  # noqa: E402

N = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
ray.init(address="local", num_cpus=CPUS, include_dashboard=False)

from tools.canary import _h, run  # noqa: E402


def do_bitmap():
    """16 groups x 10M rows over a 20M-id dense domain (bitset-heavy)."""
    from bqf_ray.pipelines.aggregates import grouped_distinct_bitmap
    ids = np.arange(N, dtype=np.int64)
    h = _h(ids)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array((h % np.uint64(16)).astype(np.int64)),
        "uid": pa.array((_h(ids + 3) % np.uint64(20_000_000))
                        .astype(np.int64)),
    })).repartition(CPUS * 2).materialize()
    out = grouped_distinct_bitmap(ds, "k", "uid")
    return int(out["n_distinct"].sum())


def do_eh():
    """10M timestamps over a 90-day span, 4 trailing windows."""
    from bqf_ray.pipelines.windowed import eh_window_counts
    ids = np.arange(N, dtype=np.int64)
    base = np.int64(1_700_000_000_000_000)
    us = base + (_h(ids) % np.uint64(90 * 86_400_000_000)).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({
        "ts": pa.array(us.astype("datetime64[us]"))
    })).repartition(CPUS * 2).materialize()
    out = eh_window_counts(ds, [3600, 86400, 604800, 30 * 86400],
                           L=32, num_partitions=64)
    assert bool(out["within_bound"].all())
    return int(out["n_exact"].sum())


def do_bootstrap():
    """B=20 md5 half-sample replicates x 10M rows, 8 keys."""
    from bqf_ray.pipelines.aggregates import bootstrap_mean_ci
    ids = np.arange(N, dtype=np.int64)
    h = _h(ids)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array((h % np.uint64(8)).astype(np.int64)),
        "rid": pa.array(ids),
        "v": pa.array(((h >> np.uint64(20)) % np.uint64(10_000))
                      .astype(np.float64) / 100.0),
    })).repartition(CPUS * 2).materialize()
    out = bootstrap_mean_ci(ds, "k", "v", "rid", n_reps=20, rate=0.5,
                            lo_rank=2, hi_rank=19)
    return len(out)


def do_key_sample_join():
    """orders(N/2) x lineitem(N) at rate 0.1 — shuffle moves ~10%."""
    from bqf_ray.pipelines.relational import key_sample_join
    nl = N // 2
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(nl, dtype=np.int64)),
        "lv": pa.array(np.arange(nl, dtype=np.int64) % 997),
    })).repartition(CPUS * 2).materialize()
    ids = np.arange(N, dtype=np.int64)
    right = ray.data.from_arrow(pa.table({
        "k": pa.array((_h(ids) % np.uint64(nl)).astype(np.int64)),
        "rv": pa.array(ids % 31),
    })).repartition(CPUS * 2).materialize()
    out = key_sample_join(left, right, "k", rate=0.1, salt="s",
                          algo="xxh64", num_buckets=CPUS * 2)
    return out.count()


if __name__ == "__main__":
    run("grouped_distinct_bitmap", do_bitmap, N)
    run("eh_window_counts", do_eh, N)
    run("bootstrap_mean_ci (B=20)", do_bootstrap, N)
    run("key_sample_join r=0.1", do_key_sample_join, N + N // 2)
    ray.shutdown()
