"""Budget-gated plan switches log exactly one ``bqf_ray.plans`` record
per call, naming the branch taken and the numbers behind it, and both
branches return the same answer."""

import uuid

import numpy as np
import pyarrow as pa


def _run_logged(op, run):
    """``run()``'s result and the ``op`` plan records it left behind."""
    from bqf_ray.plans import plan_log, recent_plans
    marker = uuid.uuid4().hex
    plan_log("test-marker", marker)
    out = run()
    recs = recent_plans()
    start = max(i for i, r in enumerate(recs) if r["plan"] == marker)
    return out, [r for r in recs[start + 1:] if r["op"] == op]


def test_bloom_semi_join_logs_its_plan(ray_session):
    import ray
    from bqf_ray.pipelines.relational import bloom_semi_join
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(300, dtype=np.int64)),
        "v": pa.array(np.arange(300, dtype=np.int64) * 7)}))
    right = ray.data.from_arrow(pa.table(
        {"kk": pa.array(np.arange(0, 600, 3, dtype=np.int64))}))  # 200 keys
    outs = {}
    for budget, plan in ((200, "broadcast"), (199, "bloom")):
        out, recs = _run_logged("bloom_semi_join", lambda: bloom_semi_join(
            left, right, "k", "kk", anti=True,
            broadcast_budget=budget).to_pandas())
        assert [(r["plan"], r["n_keys"], r["broadcast_budget"])
                for r in recs] == [(plan, 200, budget)]
        outs[plan] = sorted(out["k"])
    assert outs["broadcast"] == outs["bloom"] == \
        [k for k in range(300) if k % 3]


def test_collocations_logs_its_plan(ray_session):
    import ray
    from bqf_ray.pipelines.text_stats import collocations
    texts = ["a b c a b", "b c a b d", "a b d d a b"]
    ds = ray.data.from_arrow(pa.table({"text": pa.array(texts)}))
    outs = {}
    for budget, plan in ((4, "broadcast"), (3, "bucketed")):   # 4 tokens
        out, recs = _run_logged("collocations", lambda: collocations(
            ds, min_count=1, top=10, broadcast_budget=budget).to_pandas())
        assert [(r["plan"], r["n_vocab"], r["broadcast_budget"],
                 r["hash_collision"]) for r in recs] == \
            [(plan, 4, budget, 0)]
        outs[plan] = out.sort_values(["token_a", "token_b"]) \
            .reset_index(drop=True)
    assert outs["broadcast"].equals(outs["bucketed"])
    assert len(outs["broadcast"]) > 0


def test_bpe_train_logs_its_plan(ray_session):
    import ray
    from bqf_ray.pipelines.vocab import bpe_train
    texts = ["low lower lowest", "newer newest wider", "low new wide"]
    ds = ray.data.from_arrow(pa.table({"text": pa.array(texts)}))
    outs = {}
    for budget, plan in ((8, "driver"), (7, "dataset")):   # 8 words
        out, recs = _run_logged("bpe_train", lambda: bpe_train(
            ds, num_merges=5, min_pair_count=1,
            driver_vocab_budget=budget))
        assert [(r["plan"], r["n_words"], r["driver_vocab_budget"])
                for r in recs] == [(plan, 8, budget)]
        outs[plan] = out
    assert outs["driver"] == outs["dataset"]
    assert len(outs["driver"]) == 5


def test_dbscan_embeddings_logs_its_pair_plan(ray_session, monkeypatch):
    """``dbscan_embeddings(mode="auto")`` picks its pair plan inside
    ``embedding_dup_pairs``: one record per call, driven by the budget
    against the materialized (id, vec) projection's bytes."""
    import functools

    import ray

    from bqf_ray.pipelines import dedup
    from bqf_ray.pipelines.clustering import dbscan_embeddings
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1.0, size=(40, 8)).astype(np.float32)
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(len(x), dtype=np.int64)),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(x.reshape(-1), pa.float32()), 8).cast(
            pa.list_(pa.float32()))}))
    orig = dedup.embedding_dup_pairs

    def run(budget):
        monkeypatch.setattr(dedup, "embedding_dup_pairs", functools.partial(
            orig, broadcast_budget_bytes=budget))
        return _run_logged("embedding_dup_pairs", lambda: dbscan_embeddings(
            ds, sim_threshold=0.5, min_pts=1).to_pandas())

    _, recs = run(1 << 30)
    assert [r["plan"] for r in recs] == ["exact"]
    size = recs[0]["table_bytes"]
    for budget, plan in ((size, "exact"), (size - 1, "blocked")):
        out, recs = run(budget)
        assert [(r["plan"], r["table_bytes"], r["budget_bytes"])
                for r in recs] == [(plan, size, budget)]
        assert sorted(out["vec_id"]) == list(range(len(x)))
