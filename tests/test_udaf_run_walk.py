"""The run walk of stages/udaf.py against Ray's own ``_aggregate``.

``_aggregate_runs`` must give the same block as Ray's per-row walk, column
by column (NaN equal to NaN), for every key type it takes on, and hand the
rest back to Ray's method.  A Ray upgrade that changes ``_aggregate`` then
fails here instead of drifting silently.
"""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from ray.data._internal.arrow_block import ArrowBlockAccessor
from ray.data._internal.planner.exchange.sort_task_spec import SortKey
from ray.data._internal.table_block import TableBlockAccessor
from ray.data.aggregate import Count, Max, Mean, Min, Sum
from ray.data.block import BlockAccessor

from bqf_ray.sketches.countmin import CountMin
from bqf_ray.sketches.hll import HyperLogLog
from bqf_ray.sketches.kll import KLL
from bqf_ray.sketches.tdigest import TDigest
from bqf_ray.stages import udaf
from bqf_ray.stages.udaf import sketch_agg

N = 600


def _aggs():
    return [
        Count(), Sum("v"), Min("v"), Max("v"), Mean("v"),
        sketch_agg(lambda: HyperLogLog(p=10), on="item", name="hll"),
        sketch_agg(lambda: CountMin(width=256, depth=3), on="item",
                   name="countmin"),
        sketch_agg(lambda: KLL(k=64), on="v", prepare="value", name="kll"),
        sketch_agg(lambda: TDigest(delta=50), on="v", prepare="value",
                   name="tdigest"),
        # two aggregates under one name: Ray renames the second "dup_2"
        Sum("item", alias_name="dup"), Max("item", alias_name="dup"),
    ]


def _keys(kind: str, rng) -> dict:
    """Key columns of N rows for one key kind."""
    small = rng.integers(0, 5, N)
    null = rng.random(N) < 0.2
    if kind == "int64":
        return {"k": pa.array(small - 2, pa.int64())}
    if kind == "uint64_high":
        return {"k": pa.array((small.astype(np.uint64)
                               + np.uint64(1 << 63)), pa.uint64())}
    if kind == "string":
        return {"k": pa.array([["", "a", "ab", "b", "é"][i] for i in small])}
    if kind == "binary":
        return {"k": pa.array([bytes([i]) * i for i in small], pa.binary())}
    if kind == "bool":
        return {"k": pa.array(small % 2 == 0)}
    if kind == "timestamp":
        return {"k": pa.array(small * 1_000_000_007, pa.timestamp("ns"))}
    if kind == "float_nan":
        vals = np.array([-0.0, 0.0, 1.5, np.nan, -2.0])[small]
        return {"k": pa.array(vals)}
    if kind == "nullable_int":
        return {"k": pa.array(small, pa.int64(), mask=null)}
    if kind == "float_nan_null":
        vals = np.array([0.5, np.nan, 1.5, np.nan, -2.0])[small]
        return {"k": pa.array(vals, mask=null)}
    if kind == "two_keys_nulls":      # window_heavy_hitters' null-k rows
        return {"window_s": pa.array(small % 2 * 60, pa.int64()),
                "k": pa.array([f"k{i}" for i in small], mask=null)}
    raise AssertionError(kind)


KINDS = ["int64", "uint64_high", "string", "binary", "bool", "timestamp",
         "float_nan", "nullable_int", "float_nan_null", "two_keys_nulls"]


def _table(kind: str, seed: int = 0, sort: bool = True) -> tuple:
    rng = np.random.default_rng(seed)
    cols = _keys(kind, rng)
    keys = list(cols)
    cols["item"] = pa.array(rng.zipf(1.3, N).astype(np.int64) % 10_000)
    cols["v"] = pa.array(rng.lognormal(0.0, 1.0, N))
    tbl = pa.table(cols)
    if sort:
        tbl = tbl.sort_by([(k, "ascending") for k in keys])
    return tbl, keys


def _same(got: pa.Table, want: pa.Table) -> None:
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows
    for name in want.column_names:
        for a, b in zip(got.column(name).to_pylist(),
                        want.column(name).to_pylist()):
            nan_pair = (isinstance(a, float) and isinstance(b, float)
                        and math.isnan(a) and math.isnan(b))
            assert nan_pair or (a == b and type(a) is type(b)), (name, a, b)


def _check(block, keys) -> pa.Table:
    acc = BlockAccessor.for_block(block)
    sort_key = SortKey(keys)
    got = acc._aggregate(sort_key, _aggs())
    _same(got, udaf._RAY_AGGREGATE(acc, sort_key, _aggs()))
    return got


def test_run_walk_is_installed():
    assert TableBlockAccessor._aggregate is udaf._aggregate_runs
    assert udaf._RAY_AGGREGATE is not udaf._aggregate_runs


@pytest.mark.parametrize("sort", [True, False])
@pytest.mark.parametrize("kind", KINDS)
def test_run_walk_equals_ray_walk(kind, sort):
    tbl, keys = _table(kind, sort=sort)
    out = _check(tbl, keys)
    assert 1 < out.num_rows <= N


@pytest.mark.parametrize("kind", KINDS)
def test_run_walk_small_blocks(kind):
    tbl, keys = _table(kind)
    assert _check(tbl.slice(0, 1), keys).num_rows == 1
    assert _check(tbl.slice(0, 0), keys).num_rows == 0
    first = tbl.slice(0, 1)
    one_group = pa.concat_tables([first] * 7)
    assert _check(one_group, keys).num_rows == 1


def test_global_pandas_and_nested_keys_keep_rays_method():
    tbl, _ = _table("int64")
    assert _check(tbl, None).num_rows == 1                 # global
    df = tbl.to_pandas()
    got = BlockAccessor.for_block(df)._aggregate(SortKey("k"), _aggs())
    want = udaf._RAY_AGGREGATE(BlockAccessor.for_block(df), SortKey("k"),
                               _aggs())
    pd.testing.assert_frame_equal(got, want)
    lst = tbl.set_column(0, "k", pa.array(
        [[int(x) % 2] for x in tbl.column("k").to_pylist()]))
    _check(lst, ["k"])                                      # list key


def test_walk_reads_one_row_per_group(monkeypatch):
    rng = np.random.default_rng(3)
    g = np.sort(rng.integers(0, 16, 20_000))
    tbl = pa.table({"g": pa.array(g), "item": pa.array(
        rng.integers(0, 1000, 20_000)), "v": pa.array(rng.random(20_000))})
    calls = []
    get_row = ArrowBlockAccessor._get_row

    def counted(self, *a, **kw):
        calls.append(1)
        return get_row(self, *a, **kw)

    monkeypatch.setattr(ArrowBlockAccessor, "_get_row", counted)
    out = BlockAccessor.for_block(tbl)._aggregate(SortKey("g"), _aggs())
    assert out.num_rows == 16
    assert len(calls) <= 16


def test_worker_unpickling_a_sketch_agg_runs_the_walk(ray_session):
    import ray

    def installed(agg):
        from ray.data._internal.table_block import TableBlockAccessor
        fn = TableBlockAccessor._aggregate
        return type(agg).__name__, f"{fn.__module__}.{fn.__name__}"

    # a runtime_env of its own gives the task a worker no test has used
    task = ray.remote(installed).options(
        runtime_env={"env_vars": {"RUN_WALK_TEST_WORKER": "fresh"}})
    agg = sketch_agg(lambda: HyperLogLog(p=10), on="item", name="hll")
    assert ray.get(task.remote(agg)) == (
        "SketchAgg", "bqf_ray.stages.udaf._aggregate_runs")
