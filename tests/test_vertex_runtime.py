"""The vertex runtime at P = 1: the one shard lives on the driver (no
shard actor, no co-bucket funnel), every run of a vertex entry point
leaves exactly one plan record, and PageRank keeps one checkpoint
layout at every P."""
import json
import os
import uuid

import numpy as np
import pyarrow as pa
import pytest

_ENTRIES = ["pagerank", "kcore", "label_propagation", "hits", "sssp",
            "bfs_hops"]


def _graph(seed=3, E=1500, N=160):
    rng = np.random.default_rng(seed)
    return pa.table({
        "a": pa.array(rng.integers(0, N, E).astype(np.int64)),
        "b": pa.array(rng.integers(0, N, E).astype(np.int64)),
        "w": pa.array(rng.integers(1, 9, E).astype(np.int64))})


def _run(name, tbl, **kw):
    """One entry point over ``tbl`` in 4 blocks, output comparable."""
    import ray

    from bqf_ray.pipelines import graph
    ds = ray.data.from_arrow(tbl).repartition(4)
    seeds = np.array([0, 7], dtype=np.int64)
    if name == "pagerank":
        n, r, u = graph.pagerank(ds, "a", "b", iters=4, weight_col="w",
                                 **kw)
        return list(n), [int(x) for x in r], u
    if name == "hits":
        return [list(v) for v in graph.hits(ds, "a", "b", rounds=2, **kw)]
    out = {"kcore": lambda: graph.kcore(ds, 3, rounds=4, **kw),
           "label_propagation": lambda: graph.label_propagation(
               ds, rounds=3, **kw),
           "sssp": lambda: graph.sssp(ds, seeds, rounds=4, **kw),
           "bfs_hops": lambda: graph.bfs_hops(ds, seeds, max_hops=4,
                                              **kw)}[name]()
    return sorted(map(tuple, out.to_pandas().to_numpy().tolist()))


def _new_shard_actors(run):
    """``run()``'s output and the vertex-shard actors it started."""
    import ray
    before = set(ray._private.state.actors())
    out = run()
    return out, [a for k, a in ray._private.state.actors().items()
                 if k not in before
                 and a["ActorClassName"] == "_VertexShard"]


def _plans(name, run):
    """``run()``'s output and the plan records ``name`` left."""
    from bqf_ray.plans import plan_log, recent_plans
    marker = uuid.uuid4().hex
    plan_log("test-marker", marker)
    out = run()
    recs = recent_plans()
    start = max(i for i, r in enumerate(recs) if r["plan"] == marker)
    return out, [r for r in recs[start + 1:] if r["op"] == name]


@pytest.mark.parametrize("name", _ENTRIES)
def test_p1_runs_start_no_actor_and_equal_four_shards(ray_session, name):
    tbl = _graph()
    ref = _run(name, tbl, mode="sharded", num_shards=4)
    for kw in (dict(mode="sharded", num_shards=1), dict(mode="auto"),
               dict(mode="broadcast", node_budget=1)):
        out, actors = _new_shard_actors(lambda: _run(name, tbl, **kw))
        assert actors == [], kw
        assert out == ref, kw


@pytest.mark.parametrize("name", _ENTRIES)
def test_below_budget_run_logs_one_broadcast_plan(ray_session, name):
    tbl = _graph(5, E=400, N=60)
    out, recs = _plans(name, lambda: _run(name, tbl, mode="auto"))
    assert [(r["plan"], r["P"], r["forced"]) for r in recs] \
        == [("broadcast", 1, 0)]
    assert recs[0]["n_nodes"] <= recs[0]["node_budget"]
    forced, recs = _plans(name, lambda: _run(name, tbl,
                                             mode="broadcast"))
    assert [(r["plan"], r["P"], r["forced"]) for r in recs] \
        == [("broadcast", 1, 1)]
    assert forced == out


@pytest.mark.parametrize("budget,driver_folds", [(5, 1), (4, 0)])
def test_p1_round_scans_every_block_once(ray_session, budget,
                                         driver_folds):
    """A P = 1 round is one scan task per edge block — no one-group
    co-bucket in between — whose partials the driver folds while they
    fit its row budget; past it they fold in tasks, by node."""
    import ray

    from bqf_ray.pipelines.graph import _Runtime, _sum_by
    edges = ray.data.from_arrow(_graph()).repartition(5).materialize()
    rt = _Runtime("test", 1, budget=budget)
    rt.shards[0].init(np.arange(3, dtype=np.int64), {})
    calls = []

    def one_per_batch(state, e):
        return np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)

    def combine(node, val):
        calls.append(len(node))
        return _sum_by(node, val)

    staged = rt.round(rt.cobucket(edges, "a"), (), one_per_batch, combine,
                      lambda shard: shard.staged)
    assert [v.tolist() for v in staged[0]] == [[0], [edges.num_blocks()]]
    assert edges.num_blocks() == 5
    assert calls == [5] * driver_folds


def test_pagerank_ignores_old_broadcast_checkpoint(ray_session, tmp_path):
    """A directory holding the retired broadcast layout (``pr_meta.json``
    + ``pr_state.npz``, matching config) is not resumed from."""
    import ray

    from bqf_ray.pipelines.graph import _pr_ckpt_config, pagerank
    from bqf_ray.state.checkpoint import _atomic_write
    tbl = _graph(9)
    direct = pagerank(ray.data.from_arrow(tbl), "a", "b", iters=5,
                      weight_col="w")
    nodes, ranks, unit = direct
    ck = str(tmp_path / "old")
    os.makedirs(ck)
    cfg = _pr_ckpt_config(len(nodes), unit, 17, 20, "w", None)
    _atomic_write(os.path.join(ck, "pr_meta.json"),
                  json.dumps({"config": cfg, "iter": 3}).encode())
    np.savez(os.path.join(ck, "pr_state.npz"), nodes=nodes,
             ranks=np.ones(len(nodes), dtype=np.int64))
    got = pagerank(ray.data.from_arrow(tbl), "a", "b", iters=5,
                   weight_col="w", checkpoint_dir=ck)
    assert list(got[0]) == list(nodes)
    assert [int(x) for x in got[1]] == [int(x) for x in ranks]


def test_pagerank_p1_writes_and_resumes_shard_layout(ray_session,
                                                     tmp_path):
    import ray

    from bqf_ray.pipelines.graph import pagerank
    tbl = _graph(11)
    ck = str(tmp_path / "p1")

    def run(iters, **kw):
        return pagerank(ray.data.from_arrow(tbl), "a", "b", iters=iters,
                        weight_col="w", mode="broadcast", **kw)

    direct = run(6)
    run(3, checkpoint_dir=ck)
    assert sorted(os.listdir(ck)) == ["pr_shard_00000.npz",
                                      "pr_sharded_meta.json"]
    with open(os.path.join(ck, "pr_sharded_meta.json")) as f:
        meta = json.load(f)
    assert (meta["P"], meta["iter"]) == (1, 3)
    resumed = run(6, checkpoint_dir=ck)
    assert [int(x) for x in resumed[1]] == [int(x) for x in direct[1]]
    # the finished run's file IS what a re-run returns: marking its
    # ranks shows the resume read it instead of recomputing
    st_p = os.path.join(ck, "pr_shard_00000.npz")
    dat = np.load(st_p)
    np.savez(st_p, nodes=dat["nodes"], ranks=dat["ranks"] + 1)
    again = run(6, checkpoint_dir=ck)
    assert [int(x) for x in again[1]] == [int(x) + 1 for x in direct[1]]


def test_sssp_message_relaxes_only_the_frontier():
    """An SSSP round relaxes only from the nodes the last round improved
    (each undirected edge both ways at P = 1, the doubled view's ``x → y``
    at P > 1) and drops candidates that cannot improve a known node."""
    from bqf_ray.pipelines.graph import _sssp_message
    state = (np.array([1, 2, 3], dtype=np.int64),
             np.array([0, 5, 1], dtype=np.int64),
             np.array([False, True, True]))
    e = {"x": np.array([1, 4, 3, 2], dtype=np.int64),
         "y": np.array([4, 2, 5, 3], dtype=np.int64),
         "w": np.ones(4, dtype=np.int64)}
    both = _sssp_message(state, e, True)
    assert [v.tolist() for v in both] == [[2, 4, 5], [2, 6, 2]]
    one_way = _sssp_message(state, e, False)
    assert [v.tolist() for v in one_way] == [[5], [2]]
