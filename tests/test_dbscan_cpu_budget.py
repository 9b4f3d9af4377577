"""dbscan_embeddings over parquet at 2 CPUs: its actor pools must leave
CPU for the upstream ReadParquet, or the run never finishes."""
import os
import subprocess
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = """
import sys
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
rng = np.random.default_rng(5)
centers = rng.normal(0, 1.0, size=(3, 8))
x = np.concatenate([c + rng.normal(0, 0.1, size=(40, 8))
                    for c in centers]).astype(np.float32)
pq.write_table(pa.table({
    "vec_id": pa.array(np.arange(len(x), dtype=np.int64)),
    "embedding": pa.FixedSizeListArray.from_arrays(
        pa.array(x.reshape(-1), pa.float32()), 8).cast(
        pa.list_(pa.float32()))}), sys.argv[1])
ray.init(address="local", num_cpus=2, include_dashboard=False)
from bqf_ray.pipelines.clustering import dbscan_embeddings
out = dbscan_embeddings(ray.data.read_parquet(sys.argv[1]),
                        sim_threshold=0.8, min_pts=2).to_pandas()
print("ROWS", len(out), int((out["role"] == "core").sum()))
ray.shutdown()
"""


def test_dbscan_parquet_finishes_at_two_cpus(tmp_path):
    env = dict(os.environ, PYTHONPATH=_REPO)
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(tmp_path / "emb.parquet")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    try:
        out, _ = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        proc.terminate()                  # ray.init's handler shuts down
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise AssertionError("dbscan_embeddings did not finish within "
                             "240 s under ray.init(num_cpus=2)")
    assert proc.returncode == 0
    rows = [ln.split() for ln in out.splitlines() if ln.startswith("ROWS")]
    assert rows and int(rows[0][1]) == 120 and int(rows[0][2]) > 0
