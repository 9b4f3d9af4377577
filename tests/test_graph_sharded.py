"""Sharded plans for kcore / label_propagation / hits: identical
results vs the broadcast plans on random graphs, plus auto dispatch."""

import numpy as np
import pyarrow as pa
import pytest

from bqf_ray.pipelines.graph import hits, kcore, label_propagation


def _edges(seed, E=2500, N=250):
    rng = np.random.default_rng(seed)
    return pa.table({
        "a": pa.array(rng.integers(0, N, E).astype(np.int64)),
        "b": pa.array(rng.integers(0, N, E).astype(np.int64))})


@pytest.mark.parametrize("k", [2, 4])
def test_kcore_sharded_equals_broadcast(ray_session, k):
    import ray
    tbl = _edges(31)
    a = kcore(ray.data.from_arrow(tbl).repartition(5), k, rounds=5,
              mode="broadcast").to_pandas().sort_values("node")
    b = kcore(ray.data.from_arrow(tbl).repartition(5), k, rounds=5,
              mode="sharded", num_shards=6).to_pandas().sort_values("node")
    assert a["node"].tolist() == b["node"].tolist()
    assert a["core_deg"].tolist() == b["core_deg"].tolist()


def test_kcore_sharded_unconverged_rounds(ray_session):
    """rounds=1 exercises the final extra-degree-pass path."""
    import ray
    tbl = _edges(37, E=900, N=120)
    a = kcore(ray.data.from_arrow(tbl), 3, rounds=1,
              mode="broadcast").to_pandas().sort_values("node")
    b = kcore(ray.data.from_arrow(tbl), 3, rounds=1,
              mode="sharded", num_shards=4).to_pandas().sort_values("node")
    assert a["node"].tolist() == b["node"].tolist()
    assert a["core_deg"].tolist() == b["core_deg"].tolist()


def test_kcore_auto_dispatch(ray_session):
    import ray
    tbl = _edges(41, E=600, N=80)
    a = kcore(ray.data.from_arrow(tbl), 2, rounds=4, mode="broadcast")
    b = kcore(ray.data.from_arrow(tbl), 2, rounds=4, mode="auto",
              node_budget=5, num_shards=3)
    pa_, pb = (a.to_pandas().sort_values("node").reset_index(drop=True),
               b.to_pandas().sort_values("node").reset_index(drop=True))
    assert pa_.equals(pb)


@pytest.mark.parametrize("rounds", [1, 3])
def test_lpa_sharded_equals_broadcast(ray_session, rounds):
    import ray
    tbl = _edges(43)
    a = label_propagation(ray.data.from_arrow(tbl).repartition(4),
                          rounds=rounds, mode="broadcast"
                          ).to_pandas().sort_values("node")
    b = label_propagation(ray.data.from_arrow(tbl).repartition(4),
                          rounds=rounds, mode="sharded", num_shards=5
                          ).to_pandas().sort_values("node")
    assert a["node"].tolist() == b["node"].tolist()
    assert a["community"].tolist() == b["community"].tolist()


def test_lpa_auto_dispatch(ray_session):
    import ray
    tbl = _edges(47, E=500, N=60)
    a = label_propagation(ray.data.from_arrow(tbl), rounds=2,
                          mode="broadcast").to_pandas().sort_values("node")
    b = label_propagation(ray.data.from_arrow(tbl), rounds=2,
                          mode="auto", node_budget=5, num_shards=3
                          ).to_pandas().sort_values("node")
    assert a["community"].tolist() == b["community"].tolist()


@pytest.mark.parametrize("rounds", [1, 2])
def test_hits_sharded_equals_broadcast(ray_session, rounds):
    import ray
    tbl = _edges(53)
    an, ah, aa = hits(ray.data.from_arrow(tbl).repartition(6),
                      "a", "b", rounds=rounds, mode="broadcast")
    bn, bh, ba = hits(ray.data.from_arrow(tbl).repartition(6),
                      "a", "b", rounds=rounds, mode="sharded",
                      num_shards=5)
    assert list(an) == list(bn)
    assert list(ah) == list(bh)
    assert list(aa) == list(ba)


def test_hits_sharded_dataset_output(ray_session):
    import ray
    tbl = _edges(59, E=800, N=90)
    an, ah, aa = hits(ray.data.from_arrow(tbl), "a", "b", rounds=2,
                      mode="broadcast")
    ds = hits(ray.data.from_arrow(tbl), "a", "b", rounds=2,
              mode="sharded", num_shards=4, output="dataset")
    df = ds.to_pandas().sort_values("node").reset_index(drop=True)
    assert df["node"].tolist() == list(an)
    assert df["hub"].tolist() == list(ah)
    assert df["auth"].tolist() == list(aa)


def test_hits_auto_dispatch(ray_session):
    import ray
    tbl = _edges(61, E=500, N=70)
    a = hits(ray.data.from_arrow(tbl), "a", "b", rounds=1,
             mode="broadcast")
    b = hits(ray.data.from_arrow(tbl), "a", "b", rounds=1,
             mode="auto", node_budget=5, num_shards=3)
    assert list(a[0]) == list(b[0])
    assert list(a[1]) == list(b[1])
    assert list(a[2]) == list(b[2])


def test_bfs_sharded_equals_broadcast(ray_session):
    import ray

    from bqf_ray.pipelines.graph import bfs_hops
    tbl = _edges(67, E=2000, N=300)
    seeds = np.array([0, 5], dtype=np.int64)
    a = bfs_hops(ray.data.from_arrow(tbl), seeds, max_hops=4,
                 mode="broadcast").to_pandas().sort_values("node")
    b = bfs_hops(ray.data.from_arrow(tbl), seeds, max_hops=4,
                 mode="sharded", num_shards=5
                 ).to_pandas().sort_values("node")
    assert a["node"].tolist() == b["node"].tolist()
    assert a["hop"].tolist() == b["hop"].tolist()


def test_bfs_auto_handoff(ray_session):
    import ray

    from bqf_ray.pipelines.graph import bfs_hops
    tbl = _edges(71, E=1200, N=200)
    seeds = np.array([3], dtype=np.int64)
    a = bfs_hops(ray.data.from_arrow(tbl), seeds, max_hops=5,
                 mode="broadcast").to_pandas().sort_values("node")
    b = bfs_hops(ray.data.from_arrow(tbl), seeds, max_hops=5,
                 mode="auto", node_budget=10, num_shards=3
                 ).to_pandas().sort_values("node")
    assert a["node"].tolist() == b["node"].tolist()
    assert a["hop"].tolist() == b["hop"].tolist()


_ENTRIES = ["pagerank", "kcore", "label_propagation", "hits", "sssp",
            "bfs_hops", "random_walks"]

# the keyword that sends each entry point's auto plan to the sharded
# tier on the 2-node graph
_AUTO_TO_SHARDED = {"pagerank": {"node_budget": 1},
                    "kcore": {"node_budget": 1},
                    "label_propagation": {"node_budget": 1},
                    "hits": {"node_budget": 1},
                    "sssp": {"node_budget": 0},
                    "bfs_hops": {"node_budget": 0},
                    "random_walks": {"broadcast_budget_bytes": 1}}


def _tiny(n_edges):
    a = np.array([1], dtype=np.int64)[:n_edges]
    b = np.array([2], dtype=np.int64)[:n_edges]
    return pa.table({"a": pa.array(a), "b": pa.array(b),
                     "w": pa.array(np.full(len(a), 3, dtype=np.int64))})


def _run(name, tbl, **kw):
    """Run one entry point; return its output in a comparable form."""
    import ray

    from bqf_ray.pipelines.graph import (bfs_hops, pagerank, random_walks,
                                         sssp)
    ds = ray.data.from_arrow(tbl)
    seeds = np.array([1], dtype=np.int64)
    if name == "pagerank":
        n, r, u = pagerank(ds, "a", "b", iters=3, **kw)
        return list(n), [int(x) for x in r], u
    if name == "hits":
        n, h, a = hits(ds, "a", "b", rounds=2, **kw)
        return list(n), list(h), list(a)
    if name == "random_walks":
        out = random_walks(ds, seeds, walk_len=3, walks_per_seed=2, **kw)
        return set(map(tuple, out.to_pandas().to_numpy().tolist()))
    out = {"kcore": lambda: kcore(ds, 1, rounds=3, **kw),
           "label_propagation": lambda: label_propagation(ds, rounds=2,
                                                          **kw),
           "sssp": lambda: sssp(ds, seeds, rounds=3, **kw),
           "bfs_hops": lambda: bfs_hops(ds, seeds, max_hops=3, **kw)}[name]()
    return sorted(map(tuple, out.to_pandas().to_numpy().tolist()))


@pytest.mark.parametrize("n_edges,shards", [(0, 1), (0, 4), (1, 16)])
@pytest.mark.parametrize("name", _ENTRIES)
def test_sharded_tiny_graphs_equal_broadcast(ray_session, name, n_edges,
                                             shards):
    """Empty graph (1 and 4 shards) and a 2-node graph over 16 shards:
    every sharded entry point equals its broadcast plan."""
    tbl = _tiny(n_edges)
    assert _run(name, tbl, mode="sharded", num_shards=shards) \
        == _run(name, tbl, mode="broadcast")


@pytest.mark.parametrize("name", _ENTRIES)
def test_sharded_run_logs_one_plan(ray_session, name):
    """Exactly one ``sharded`` plan record per sharded run, forced or
    chosen by ``auto``."""
    import uuid

    from bqf_ray.plans import plan_log, recent_plans

    def plans_of(run):
        marker = uuid.uuid4().hex
        plan_log("test-marker", marker)
        out = run()
        recs = recent_plans()
        start = max(i for i, r in enumerate(recs) if r["plan"] == marker)
        return out, [r for r in recs[start + 1:] if r["op"] == name]

    tbl = _tiny(1)
    forced, recs = plans_of(lambda: _run(name, tbl, mode="sharded",
                                         num_shards=2))
    assert [(r["plan"], r["forced"]) for r in recs] == [("sharded", 1)]
    auto, recs = plans_of(lambda: _run(name, tbl, mode="auto",
                                       num_shards=2,
                                       **_AUTO_TO_SHARDED[name]))
    assert [(r["plan"], r["forced"]) for r in recs] == [("sharded", 0)]
    assert auto == forced
