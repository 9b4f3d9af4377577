"""mg_heavy_keys over parquet at 2 CPUs: its Recount actor pool must leave
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
rng = np.random.default_rng(7)
keys = np.concatenate([np.full(400, 5), np.full(300, 9),
                       rng.integers(100, 10_000, 1300)]).astype(np.int64)
rng.shuffle(keys)
pq.write_table(pa.table({"k": pa.array(keys)}), sys.argv[1],
               row_group_size=250)
ray.init(address="local", num_cpus=2, include_dashboard=False)
from bqf_ray.pipelines.aggregates import mg_heavy_keys
out = mg_heavy_keys(ray.data.read_parquet(sys.argv[1]), "k",
                    m=8).to_pandas()
print("HEAVY", " ".join(str(k) for k in sorted(out["k"])))
ray.shutdown()
"""


def test_mg_heavy_keys_parquet_finishes_at_two_cpus(tmp_path):
    env = dict(os.environ, PYTHONPATH=_REPO)
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(tmp_path / "keys.parquet")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    try:
        out, _ = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        proc.terminate()                  # ray.init's handler shuts down
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise AssertionError("mg_heavy_keys did not finish within 180 s "
                             "under ray.init(num_cpus=2)")
    assert proc.returncode == 0
    rows = [ln.split() for ln in out.splitlines() if ln.startswith("HEAVY")]
    assert rows and rows[0][1:] == ["5", "9"]
