"""Throughput stress for the late-round-3 operator batch: k-core
(power-law 2M-edge graph), path trigrams (10M events), RRF fusion
(4M docs' stats).  Deterministic synthetic inputs; prints per-op
wall + rows/s with the cold-touch canary.  Run:
python tools/stress_r3c_ops.py [N]."""
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


# ---- k-core: 2M-edge graph, Zipf-ish degrees over 400k nodes ----
NE = N // 5
NV = N // 25


def kcore_edges():
    ids = np.arange(NE, dtype=np.int64)
    h1, h2 = _h(ids), _h(ids + NE)
    # power-law-ish endpoint draw: square the unit hash to skew low
    u1 = (h1 >> np.uint64(11)).astype(np.float64) / 2**53
    u2 = (h2 >> np.uint64(11)).astype(np.float64) / 2**53
    a = (u1 * u1 * NV).astype(np.int64)
    b = (u2 * NV).astype(np.int64)
    keep = a != b
    return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep])})


def do_kcore():
    from bqf_ray.pipelines.graph import kcore
    ds = ray.data.from_arrow(kcore_edges()).repartition(64)
    return kcore(ds, k=4, rounds=16).num_rows


run("kcore k=4 (2M edges)", do_kcore, NE)


# ---- path trigrams: N events over N/100 users, 8 event types ----
def do_trigrams():
    from bqf_ray.pipelines.graph import path_ngram_counts
    ids = np.arange(N, dtype=np.int64)
    h = _h(ids)
    tbl = pa.table({
        "user_id": pa.array((h % np.uint64(N // 100)).astype(np.int64)),
        "event_id": pa.array(ids),
        "ts": pa.array(((_h(ids + 7) % np.uint64(30 * 86400)).astype(
            np.int64) * 1_000_000).astype("datetime64[us]")),
        "event_type": pa.array(
            np.array([f"e{j}" for j in range(8)])[
                (h >> np.uint64(40)).astype(np.int64) % 8])})
    ds = ray.data.from_arrow(tbl).repartition(64)
    return path_ngram_counts(ds, n=3).count()


run(f"path trigrams ({N//1_000_000}M ev)", do_trigrams, N)


# ---- RRF: N/2.5 docs' integer stats, 2 metrics, top-100 ----
ND = int(N // 2.5)


def do_rrf():
    from bqf_ray.pipelines.ranking import rrf_fuse
    ids = np.arange(ND, dtype=np.int64)
    tbl = pa.table({
        "doc_id": pa.array(ids),
        "n_chars": pa.array((_h(ids) % np.uint64(100_000)).astype(
            np.int64)),
        "n_tokens": pa.array((_h(ids + 3) % np.uint64(20_000)).astype(
            np.int64))})
    ds = ray.data.from_arrow(tbl).repartition(64)
    return rrf_fuse(ds, [("n_chars", True), ("n_tokens", True)],
                    "doc_id", top=100).count()


run(f"rrf_fuse ({ND//1_000_000}M docs)", do_rrf, ND)
ray.shutdown()
