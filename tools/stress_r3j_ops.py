"""Throughput stress for the pane-family windowed sketches at 10M
events: per-pane KLL quantiles and per-pane Misra-Gries heavy hitters
(the EH count/sum rows live in stress_r3h/r3i).
Run: python tools/stress_r3j_ops.py [N]."""
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

BASE = np.int64(1_700_000_000_000_000)


def _stream():
    ids = np.arange(N, dtype=np.int64)
    h = _h(ids)
    us = BASE + (h % np.uint64(90 * 86_400_000_000)).astype(np.int64)
    # zipf-ish keys so heavy hitters exist
    z = (_h(ids + 3) % np.uint64(1 << 30)).astype(np.float64) / (1 << 30)
    keys = np.minimum((1.0 / np.maximum(z, 1e-9)) ** 0.9,
                      1_000_000).astype(np.int64)
    return ray.data.from_arrow(pa.table({
        "ts": pa.array(us.astype("datetime64[us]")),
        "user_id": pa.array(keys),
        "value": pa.array(((h >> np.uint64(20)) % np.uint64(10_000))
                          .astype(np.float64) / 100.0),
    })).repartition(CPUS * 2).materialize()


def do_quant():
    from bqf_ray.pipelines.windowed import window_quantile_sketch
    out = window_quantile_sketch(_stream(),
                                 [7 * 86400, 30 * 86400, 90 * 86400],
                                 qs=(0.25, 0.5, 0.75), k=200, tol=0.03)
    assert bool(out["within_bound"].all())
    return len(out)


def do_hh():
    from bqf_ray.pipelines.windowed import window_heavy_hitters
    out = window_heavy_hitters(_stream(), [7 * 86400, 30 * 86400],
                               "user_id", m=64)
    assert len(out) > 0
    return len(out)


def do_distinct():
    from bqf_ray.pipelines.windowed import window_distinct_bitmap
    out = window_distinct_bitmap(_stream(), [7 * 86400, 30 * 86400],
                                 "user_id")
    return int(out["n_distinct"].sum())


def do_sample():
    from bqf_ray.pipelines.windowed import window_sample
    ids_ds = _stream()
    # sample by synthetic event id: reuse user_id column as id domain
    out = window_sample(ids_ds, [7 * 86400, 30 * 86400], 100, "user_id",
                        salt="s")
    return len(out)


def do_bqf():
    from bqf_ray.pipelines.windowed import window_counts_bqf
    out = window_counts_bqf(_stream(), [7 * 86400, 30 * 86400],
                            "user_id", count_size=8, q=14)
    return len(out)


def do_pane_store(tmp="/tmp/stress_pane_store"):
    import shutil

    from bqf_ray.pipelines.windowed import (query_pane_store,
                                            update_pane_store)
    shutil.rmtree(tmp, ignore_errors=True)
    update_pane_store(_stream(), tmp)
    out = query_pane_store(tmp, [7 * 86400, 30 * 86400])
    return int(out["n_total"].iloc[0])


if __name__ == "__main__":
    run("window_quantile_sketch", do_quant, N)
    run("window_heavy_hitters (m=64)", do_hh, N)
    run("window_distinct_bitmap", do_distinct, N)
    run("window_sample (k=100, md5)", do_sample, N)
    run("window_counts_bqf (q=14)", do_bqf, N)
    run("pane_store build+query", do_pane_store, N)
    ray.shutdown()
