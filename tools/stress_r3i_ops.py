"""Throughput stress for the session-3i batch: EH window sums (10M),
grouped EH by key (10M x 100 keys), grouped Welch t (10M x 100k keys),
linear-interp resample (10M x 100k keys), clustering coefficients
(2M edges), Frequent-Directions covariance (1M x 64 dims).
Run: python tools/stress_r3i_ops.py [N]."""
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


def _events(n_keys):
    ids = np.arange(N, dtype=np.int64)
    h = _h(ids)
    us = BASE + (h % np.uint64(60 * 86_400_000_000)).astype(np.int64)
    return ray.data.from_arrow(pa.table({
        "ts": pa.array(us.astype("datetime64[us]")),
        "user_id": pa.array((_h(ids + 7) % np.uint64(n_keys))
                            .astype(np.int64)),
        "event_id": pa.array(ids),
        "value": pa.array(((h >> np.uint64(20)) % np.uint64(10_000))
                          .astype(np.float64) / 100.0),
    })).repartition(CPUS * 2).materialize()


def do_eh_sums():
    from bqf_ray.pipelines.windowed import eh_window_sums
    ds = _events(100)
    out = eh_window_sums(ds, [3600, 86400, 604800, 30 * 86400],
                         L=32, num_partitions=64)
    assert bool(out["within_bound"].all())
    return int(out["sum_units_exact"].sum())


def do_eh_by_key():
    from bqf_ray.pipelines.windowed import eh_window_counts_by_key
    ds = _events(100)
    out = eh_window_counts_by_key(ds, "user_id", [86400, 604800],
                                  L=16, num_partitions=16)
    assert bool(out["within_bound"].all())
    return len(out)


def do_welch():
    from bqf_ray.pipelines.aggregates import grouped_welch_ttest
    ids = np.arange(N, dtype=np.int64)
    h = _h(ids)
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array((h % np.uint64(100_000)).astype(np.int64)),
        "grp": pa.array(np.where((h >> np.uint64(40))
                                 % np.uint64(2) == 0, "x", "y")),
        "v": pa.array(((h >> np.uint64(20)) % np.uint64(10_000))
                      .astype(np.float64) / 100.0),
    })).repartition(CPUS * 2).materialize()
    out = grouped_welch_ttest(ds, "k", "grp", "x", "y", "v",
                              num_buckets=CPUS * 2)
    return out.count()


def do_interp():
    from bqf_ray.pipelines.windowed import resample_interp
    ds = _events(100_000)
    return resample_interp(ds, 21_600, num_buckets=CPUS * 2).count()


def do_clustering():
    from bqf_ray.pipelines.graph import clustering_coefficients
    m = N // 5
    ids = np.arange(m, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({
        "a": pa.array((_h(ids) % np.uint64(100_000)).astype(np.int64)),
        "b": pa.array((_h(ids + 9) % np.uint64(100_000))
                      .astype(np.int64)),
    })).repartition(CPUS).materialize()
    return clustering_coefficients(ds, num_buckets=CPUS * 2).count()


def do_freqdir():
    from bqf_ray.pipelines.embeddings import frequent_directions_cov
    n, d = N // 10, 64
    ids = np.arange(n * d, dtype=np.int64)
    q = ((_h(ids) % np.uint64(4001)).astype(np.int64) - 2000) / 1000.0
    flat = pa.array(q.astype(np.float32))
    vecs = pa.FixedSizeListArray.from_arrays(flat, d).cast(
        pa.list_(pa.float32()))
    ds = ray.data.from_arrow(pa.table({"embedding": vecs})) \
        .repartition(CPUS * 2).materialize()
    out = frequent_directions_cov(ds, ell=32, scale=1000)
    assert bool(out["within_published_bound"].iloc[0])
    assert bool(out["within_certificate"].iloc[0])
    return int(out["n"].iloc[0])


if __name__ == "__main__":
    run("eh_window_sums", do_eh_sums, N)
    run("eh_window_by_key (100)", do_eh_by_key, N)
    run("grouped_welch (100k keys)", do_welch, N)
    run("resample_interp (100k keys)", do_interp, N)
    run("clustering_coeffs (2M e)", do_clustering, N // 5)
    run("freq_directions (1M x 64)", do_freqdir, N // 10)
    ray.shutdown()
