"""Round-5 stress: the bucketed (fully-distributed) edge-triangle-
support tier vs the broadcast plan — bit-identical assert at 2M edges,
then a past-budget run where the broadcast plan is impossible
(broadcast_budget_bytes below the edge list) to prove the former hard
ceiling is gone.  Also exercises ktruss + clustering_coefficients on
the bucketed plan end-to-end.
Run: python tools/stress_r5_ops.py [N_edges]."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import ray  # noqa: E402

N = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
ray.init(address="local", num_cpus=CPUS, include_dashboard=False)

from tools.canary import _h, run  # noqa: E402


def _edges(m, n_nodes):
    ids = np.arange(m, dtype=np.int64)
    return ray.data.from_arrow(pa.table({
        "a": pa.array((_h(ids) % np.uint64(n_nodes)).astype(np.int64)),
        "b": pa.array((_h(ids + 9) % np.uint64(n_nodes))
                      .astype(np.int64)),
    })).repartition(CPUS * 2).materialize()


from bqf_ray.pipelines.graph import (clustering_coefficients,  # noqa: E402
                                     edge_triangle_support, ktruss)

EDGES = _edges(N, 20_000)


def do_broadcast():
    global BC
    BC = edge_triangle_support(EDGES, mode="broadcast",
                               num_buckets=128).to_pandas() \
        .sort_values(["a", "b"]).reset_index(drop=True)
    return len(BC)


def do_bucketed():
    global BK
    BK = edge_triangle_support(EDGES, mode="bucketed",
                               num_buckets=128).to_pandas() \
        .sort_values(["a", "b"]).reset_index(drop=True)
    return len(BK)


def do_past_budget():
    # budget far below 16*N: auto MUST route bucketed (broadcast would
    # need the full edge list on the driver)
    df = edge_triangle_support(EDGES, broadcast_budget_bytes=1 << 20,
                               num_buckets=128).to_pandas() \
        .sort_values(["a", "b"]).reset_index(drop=True)
    assert df.equals(BC), "past-budget bucketed != broadcast"
    return len(df)


def do_ktruss_bucketed():
    return ktruss(EDGES, k=4, rounds=2, mode="bucketed",
                  num_buckets=128).count()


def do_clustering_bucketed():
    return clustering_coefficients(EDGES, mode="bucketed",
                                   num_buckets=128).count()


def do_kmv_containment_1m():
    """1M synthetic docs (200 tokens, 40M-token vocab — formula-
    generated per batch, nothing driver-resident), 20 planted pairs at
    containment 0.7, KMV k=32: verifies recall on the planted pairs
    and the estimator's error at crawl shape."""
    from bqf_ray.pipelines.dedup import containment_pairs_kmv

    N_DOCS, TOKS, VOCAB, PLANT = 1_000_000, 200, 40_000_000, 20
    BASE = N_DOCS // 2

    def gen(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("id"), dtype=np.int64)
        texts = []
        for d in ids:
            if BASE <= d < BASE + PLANT:
                src = d - BASE
                tok = (_h(src * np.int64(TOKS)
                          + np.arange(140, dtype=np.int64))
                       % np.uint64(VOCAB))
                fresh = (_h(d * np.int64(TOKS)
                            + np.arange(140, 200, dtype=np.int64))
                         % np.uint64(VOCAB)) + np.uint64(VOCAB)
                tok = np.concatenate([tok, fresh])
            else:
                tok = (_h(d * np.int64(TOKS)
                          + np.arange(TOKS, dtype=np.int64))
                       % np.uint64(VOCAB))
            texts.append(" ".join(f"t{v}" for v in tok))
        return pa.table({"doc_id": pa.array(ids),
                         "text": pa.array(texts)})

    docs = (ray.data.range(N_DOCS, override_num_blocks=CPUS * 4)
            .map_batches(gen, batch_format="pyarrow", batch_size=4096))
    km = containment_pairs_kmv(docs, threshold=0.4, s=1,
                               k=32).to_pandas()
    planted = {(BASE + i, i) for i in range(PLANT)}
    hits = [r for r in km.itertuples()
            if (r.doc_a, r.doc_b) in planted]
    errs = [abs(r.containment - 0.7) for r in hits]
    print(f"  kmv 1M: {len(km)} pairs out, planted recall "
          f"{len(hits)}/{PLANT}, err mean "
          f"{np.mean(errs):.3f} max {np.max(errs):.3f}", flush=True)
    assert len(hits) == PLANT
    return len(km)


run("kmv_containment_1M_docs", do_kmv_containment_1m, 1_000_000)
run("edge_support_broadcast", do_broadcast, N)
run("edge_support_bucketed", do_bucketed, N)
assert BC.equals(BK), "bucketed != broadcast at 2M edges"
print("bit-identical: OK", flush=True)
run("edge_support_past_budget(1MiB)", do_past_budget, N)
run("ktruss_k4_2rounds_bucketed", do_ktruss_bucketed, N)
run("clustering_coeffs_bucketed", do_clustering_bucketed, N)
ray.shutdown()
