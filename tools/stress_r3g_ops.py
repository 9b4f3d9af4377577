"""Throughput stress for the session-3g graph batch: personalized
pagerank (10M weighted edges), k-truss (2M edges, k=4, 2 rounds), and
random walks (1M walks x 8 steps over 2M edges, xx64 scale path).
Run: python tools/stress_r3g_ops.py [N]."""
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


def do_ppr():
    from bqf_ray.pipelines.graph import pagerank
    ids = np.arange(N, dtype=np.int64)
    h = _h(ids)
    edges = ray.data.from_arrow(pa.table({
        "s": pa.array((h % np.uint64(1_000_000)).astype(np.int64)),
        "t": pa.array((_h(ids + 5) % np.uint64(1_000_000))
                      .astype(np.int64)),
        "w": pa.array(((h >> np.uint64(33)) % np.uint64(9) + 1)
                      .astype(np.int64)),
    })).repartition(CPUS * 2).materialize()
    seeds = np.arange(0, 1_000_000, 1009, dtype=np.int64)
    nodes, ranks, _ = pagerank(edges, "s", "t", iters=5,
                               weight_col="w", restart_nodes=seeds)
    return len(nodes)


def do_ktruss():
    from bqf_ray.pipelines.graph import ktruss
    m = N // 5
    ids = np.arange(m, dtype=np.int64)
    # 20k nodes -> avg degree ~200: E[common nbrs] ~ deg^2/n = 2, so
    # k=4 (support >= 2) keeps a real surviving core
    edges = ray.data.from_arrow(pa.table({
        "a": pa.array((_h(ids) % np.uint64(20_000)).astype(np.int64)),
        "b": pa.array((_h(ids + 9) % np.uint64(20_000))
                      .astype(np.int64)),
    })).repartition(CPUS * 2).materialize()
    return ktruss(edges, k=4, rounds=2).count()


def do_walks():
    from bqf_ray.pipelines.graph import random_walks
    m = N // 5
    ids = np.arange(m, dtype=np.int64)
    edges = ray.data.from_arrow(pa.table({
        "a": pa.array((_h(ids) % np.uint64(200_000)).astype(np.int64)),
        "b": pa.array((_h(ids + 13) % np.uint64(200_000))
                      .astype(np.int64)),
    })).repartition(CPUS * 2).materialize()
    seeds = np.arange(0, 200_000, 2, dtype=np.int64)   # 100k seeds
    out = random_walks(edges, seeds, walk_len=8, walks_per_seed=10,
                       salt="s", algo="xx64")
    return out.count()


run("ppr_5iters", do_ppr, N)
run("ktruss_k4_2rounds", do_ktruss, N // 5)
run("random_walks_1Mx8", do_walks, 1_000_000 * 8)
ray.shutdown()
