"""High-cardinality stress for the grouped-sketch surface (VERDICT r2
item #8): the sf fixtures have ≤200 group keys, so this measures the
native blob-per-group UDAF path vs the sparse-register plan where the
unique-key-shuffle lesson predicts divergence.

Ops: grouped_hll_sparse at 2M and 10M keys; the sketch_agg UDAF
groupby at 100k and 1M keys (same rows — the crossover row); and
grouped_top_terms over 10M synthesized short docs with 1M keys.
Deterministic synthetic inputs; per-op wall + rows/s + canary.
Run: python tools/stress_grouped_sketch.py [N]."""
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


def table_for(nk):
    return pa.table({
        "k": pa.array((h % np.uint64(nk)).astype(np.int64)),
        "v": pa.array(ids)})


def do_sparse(nk):
    def f():
        from bqf_ray.pipelines.aggregates import grouped_hll_sparse
        ds = ray.data.from_arrow(table_for(nk)).repartition(64)
        return grouped_hll_sparse(ds, "k", "v", p=12).count()
    return f


run("grouped_hll_sparse (2M keys)", do_sparse(2_000_000), N)
run("grouped_hll_sparse (10M keys)", do_sparse(10_000_000), N)


def do_udaf(nk):
    def f():
        from bqf_ray.sketches.hll import HyperLogLog
        from bqf_ray.stages.udaf import sketch_agg
        ds = ray.data.from_arrow(table_for(nk)).repartition(64)
        return ds.groupby("k").aggregate(
            sketch_agg(lambda: HyperLogLog(p=12), on="v",
                       finalize="estimate", name="est")).count()
    return f


run("hll UDAF groupby (100k keys)", do_udaf(100_000), N)
run("hll UDAF groupby (1M keys)", do_udaf(1_000_000), N)


def do_top_terms():
    from bqf_ray.pipelines.text_stats import grouped_top_terms
    # 10M short docs, 1M keys, zipf-ish 50k-token vocab
    u = (h >> np.uint64(11)).astype(np.float64) / 2**53
    vocab = np.array([f"t{i}" for i in range(50_000)])
    toks = vocab[(u * u * 50_000).astype(np.int64)]
    t2 = vocab[(_h(ids + 3) % np.uint64(50_000)).astype(np.int64)]
    t3 = vocab[(_h(ids + 9) % np.uint64(50_000)).astype(np.int64)]
    import pyarrow.compute as pc
    text = pc.binary_join_element_wise(
        pa.array(toks), pa.array(t2), pa.array(t3), " ")
    tbl = pa.table({
        "key": pa.array((h % np.uint64(1_000_000)).astype(np.int64)
                        ).cast(pa.string()),
        "text": text})
    ds = ray.data.from_arrow(tbl).repartition(64)

    def f():
        return grouped_top_terms(ds, "key", k=3, text_col="text").count()
    return f


run("grouped_top_terms (1M keys)", do_top_terms(), N)
ray.shutdown()
