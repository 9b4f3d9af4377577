"""Throughput stress for the session-3e operator batch: hits (10M-edge
directed multigraph) and rollup/cube (10M rows, 2 key columns).
Deterministic synthetic inputs; prints per-op wall + rows/s with the
cold-touch canary.  Run: python tools/stress_r3e_ops.py [N]."""
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


def do_hits():
    """10M edges, 100k hubs -> 1M authorities (Zipf-free uniform)."""
    from bqf_ray.pipelines.graph import hits
    edges = ray.data.from_arrow(pa.table({
        "s": pa.array((h % np.uint64(100_000)).astype(np.int64)),
        "t": pa.array((_h(ids + 3) % np.uint64(1_000_000)
                       ).astype(np.int64) + 10_000_000),
    })).repartition(CPUS * 2).materialize()
    nodes, hub, auth = hits(edges, "s", "t", rounds=2)
    return len(nodes)


def do_rollup():
    """ROLLUP over (200-key, 50-key) columns at 10M rows."""
    from bqf_ray.pipelines.aggregates import rollup
    ds = ray.data.from_arrow(pa.table({
        "a": pa.array((h % np.uint64(200)).astype(np.int64)),
        "b": pa.array((_h(ids + 11) % np.uint64(50)).astype(np.int64)),
        "v": pa.array((h >> np.uint64(32)).astype(np.int64)),
    })).repartition(CPUS * 2).materialize()
    out = rollup(ds, ["a", "b"],
                 [("v", "count", "n"), ("v", "sum", "s"),
                  ("v", "min", "mn")], num_buckets=64,
                 combine_local=True)
    return out.count()


def do_rollup_highcard():
    """ROLLUP with a 1M-cardinality finest level (near-unique keys:
    combiner off — the local pass would be wasted work)."""
    from bqf_ray.pipelines.aggregates import rollup
    ds = ray.data.from_arrow(pa.table({
        "a": pa.array((h % np.uint64(1_000_000)).astype(np.int64)),
        "b": pa.array((_h(ids + 11) % np.uint64(8)).astype(np.int64)),
        "v": pa.array((h >> np.uint64(32)).astype(np.int64)),
    })).repartition(CPUS * 2).materialize()
    out = rollup(ds, ["a", "b"],
                 [("v", "count", "n"), ("v", "sum", "s"),
                  ("v", "min", "mn")], num_buckets=64,
                 combine_local=False)
    return out.count()


run("hits_2rounds_10Me", do_hits, N)
run("rollup_lowcard", do_rollup, N)
run("rollup_1M_finest", do_rollup_highcard, N)
ray.shutdown()
