"""Throughput stress for the session-3d operator batch:
interval_coalesce (10M intervals), time_weighted_avg (10M events),
decayed_sum (10M events), cs_heavy_counts (10M keys), and
label_propagation (2M-edge graph).  Deterministic synthetic inputs;
prints per-op wall + rows/s with the cold-touch canary.
Run: python tools/stress_r3d_ops.py [N]."""
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


NU = N // 100          # users
ids = np.arange(N, dtype=np.int64)
h = _h(ids)
users = (h % np.uint64(NU)).astype(np.int64)
ts_s = (_h(ids + 7) % np.uint64(30 * 86400)).astype(np.int64)
events = pa.table({
    "user_id": pa.array(users),
    "event_id": pa.array(ids),
    "ts": pa.array((ts_s * 1_000_000).astype("datetime64[us]")),
    "value": pa.array(((h >> np.uint64(40)).astype(np.float64)
                       % 1000.0))})


def do_coalesce():
    from bqf_ray.pipelines.windowed import interval_coalesce
    iv = pa.table({
        "user_id": events.column("user_id"),
        "lo": pa.array(ts_s * 1_000_000),
        "hi": pa.array((ts_s + 300) * 1_000_000)})
    ds = ray.data.from_arrow(iv).repartition(64)
    return interval_coalesce(ds, "user_id", "lo", "hi").count()


run(f"interval_coalesce ({N//10**6}M)", do_coalesce, N)


def do_twap():
    from bqf_ray.pipelines.windowed import time_weighted_avg
    ds = ray.data.from_arrow(events).repartition(64)
    return time_weighted_avg(ds, "user_id", "ts", "event_id",
                             "value").count()


run(f"time_weighted_avg ({N//10**6}M)", do_twap, N)


def do_decay():
    from bqf_ray.pipelines.aggregates import decayed_sum
    ds = ray.data.from_arrow(events).repartition(64)
    return decayed_sum(ds, "user_id", "ts", "value", k_max=20).count()


run(f"decayed_sum ({N//10**6}M)", do_decay, N)


def do_cs():
    from bqf_ray.pipelines.aggregates import cs_heavy_counts
    # heavy-tailed keys: square-skewed over 1M keys + 2 planted heavies
    u = (h >> np.uint64(11)).astype(np.float64) / 2**53
    keys = (u * u * 1_000_000).astype(np.int64)
    keys[: N // 50] = 77                      # 2% heavy key
    ds = ray.data.from_arrow(pa.table({
        "u": pa.array(keys)})).repartition(64)
    out = cs_heavy_counts(ds, "u", m=128, width=8192, depth=7, seed=29)
    assert out["within_bound"].all(), "CS bound violated at stress scale"
    return len(out)


run(f"cs_heavy_counts ({N//10**6}M)", do_cs, N)


def do_lpa():
    from bqf_ray.pipelines.graph import label_propagation
    NE, NV = N // 5, N // 25
    eid = np.arange(NE, dtype=np.int64)
    u1 = (_h(eid) >> np.uint64(11)).astype(np.float64) / 2**53
    u2 = (_h(eid + NE) >> np.uint64(11)).astype(np.float64) / 2**53
    a = (u1 * u1 * NV).astype(np.int64)
    b = (u2 * NV).astype(np.int64)
    keep = a != b
    ds = ray.data.from_arrow(pa.table({
        "a": pa.array(a[keep]), "b": pa.array(b[keep])})).repartition(64)
    return label_propagation(ds, rounds=3).num_rows


run(f"label_propagation ({N//5//10**6}M e)", do_lpa, N // 5)
ray.shutdown()
