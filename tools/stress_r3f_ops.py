"""Throughput stress for the session-3f operator batch: validate_rows +
benford (10M rows, zero-shuffle), grouped_ntile / grouped_kendall /
resample_locf (10M rows, 100k keys), nearest_join (5M left x 2M right),
sssp (10M weighted edges).  Deterministic synthetic inputs; prints
per-op wall + rows/s with the cold-touch canary.
Run: python tools/stress_r3f_ops.py [N]."""
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


ids = np.arange(N, dtype=np.int64)
h = _h(ids)
KEYS = 100_000
BASE = np.int64(1_600_000_000_000_000)


def events_tbl(n):
    i = np.arange(n, dtype=np.int64)
    hh = _h(i)
    return pa.table({
        "user_id": pa.array((hh % np.uint64(KEYS)).astype(np.int64)),
        "ts": pa.array((BASE + (_h(i + 7) % np.uint64(30 * 86400))
                        .astype(np.int64) * 1_000_000)
                       .astype("datetime64[us]")),
        "event_id": pa.array(i),
        "value": pa.array(((hh >> np.uint64(20)) % np.uint64(100_000))
                          .astype(np.float64) / 100.0)})


def do_validate():
    import pyarrow.compute as pc
    from bqf_ray.pipelines.audit import validate_rows
    ds = ray.data.from_arrow(events_tbl(N)).repartition(CPUS * 2) \
        .materialize()
    rules = [
        ("hi", lambda b: np.asarray(pc.fill_null(
            pc.greater(b.column("value"), 900.0), False), dtype=bool)),
        ("lo", lambda b: np.asarray(pc.fill_null(
            pc.less(b.column("value"), 10.0), False), dtype=bool)),
    ]
    return validate_rows(ds, rules, ["event_id"]).count()


def do_benford():
    from bqf_ray.pipelines.audit import benford_digits
    ds = ray.data.from_arrow(events_tbl(N)).repartition(CPUS * 2) \
        .materialize()
    return benford_digits(ds, "value").count()


def do_ntile():
    from bqf_ray.pipelines.ranking import grouped_ntile
    ds = ray.data.from_arrow(events_tbl(N)).repartition(CPUS * 2) \
        .materialize()
    return grouped_ntile(ds, "user_id", "ts", "event_id", 4).count()


def do_kendall():
    from bqf_ray.pipelines.aggregates import grouped_kendall
    ds = ray.data.from_arrow(events_tbl(N)).repartition(CPUS * 2) \
        .materialize()
    return grouped_kendall(ds, "user_id", "ts", "value").count()


def do_locf():
    from bqf_ray.pipelines.windowed import resample_locf
    ds = ray.data.from_arrow(events_tbl(N)).repartition(CPUS * 2) \
        .materialize()
    return resample_locf(ds, 21600).count()   # 120 grid pts/key

def do_nearest():
    from bqf_ray.pipelines.relational import nearest_join
    nl, nr = N // 2, N // 5
    il = np.arange(nl, dtype=np.int64)
    left = ray.data.from_arrow(pa.table({
        "k": pa.array((_h(il) % np.uint64(KEYS)).astype(np.int64)),
        "ts": pa.array((BASE + (_h(il + 3) % np.uint64(30 * 86400))
                        .astype(np.int64) * 1_000_000)
                       .astype("datetime64[us]")),
        "lid": pa.array(il)})).repartition(CPUS * 2).materialize()
    ir = np.arange(nr, dtype=np.int64)
    # unique (k, ts): ts strides by key so duplicates can't collide
    rt = BASE + ((ir // KEYS) * 97 + 1) * 1_000_000
    right = ray.data.from_arrow(pa.table({
        "k": pa.array((ir % KEYS).astype(np.int64)),
        "ts": pa.array(rt.astype("datetime64[us]")),
        "rid": pa.array(ir)})).repartition(CPUS).materialize()
    return nearest_join(left, right, on="ts", by="k",
                        how="left").count()


def do_sssp():
    from bqf_ray.pipelines.graph import sssp
    edges = ray.data.from_arrow(pa.table({
        "a": pa.array((h % np.uint64(1_000_000)).astype(np.int64)),
        "b": pa.array((_h(ids + 11) % np.uint64(1_000_000))
                      .astype(np.int64)),
        "w": pa.array(((h >> np.uint64(30)) % np.uint64(99) + 1)
                      .astype(np.int64)),
    })).repartition(CPUS * 2).materialize()
    seeds = np.arange(0, 1_000_000, 997, dtype=np.int64)
    return len(sssp(edges, seeds, rounds=4))


run("validate_rows", do_validate, N)
run("benford_digits", do_benford, N)
run("grouped_ntile", do_ntile, N)
run("grouped_kendall", do_kendall, N)
run("resample_locf", do_locf, N)
run("nearest_join", do_nearest, N // 2)
run("sssp_4rounds", do_sssp, N)
ray.shutdown()
