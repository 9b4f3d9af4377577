"""Measured-vs-published error for the quantile and cardinality
sketches at 10M values — the empirical side of the bounds the oracles
assert: each sketch is built DISTRIBUTED (per-block partials merged by
``build_sketch``), then evaluated against exact answers computed with numpy on
the same data.  Run: python tools/sketch_accuracy.py [N]."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import ray  # noqa: E402

N = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
ray.init(address="local", num_cpus=CPUS, include_dashboard=False)

from bqf_ray.stages.sketch_stage import build_sketch  # noqa: E402
from tools.canary import _h  # noqa: E402


ids = np.arange(N, dtype=np.int64)
h = _h(ids)
# heavy-tailed values: exercise quantile sketches where they are weakest
vals = ((h % np.uint64(1 << 30)).astype(np.float64) / (1 << 30))
vals = (1.0 / np.maximum(vals, 1e-12)) ** 0.5
ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)})) \
    .repartition(CPUS * 2).materialize()

QS = (0.01, 0.25, 0.5, 0.75, 0.99)
sorted_vals = np.sort(vals)


def values(batch: pa.Table):
    return np.asarray(batch.column("v"), dtype=np.float64), None


def hashes(batch: pa.Table):
    return _h(np.asarray(batch.column("v"), dtype=np.float64)
              .view(np.int64)), None


def build(factory, key_fn=values):
    return build_sketch(ds, key_fn, factory)


def rank_of(x: float) -> float:
    return float(np.searchsorted(sorted_vals, x, side="right")) / N


def report_quant(name, sk, published):
    worst = 0.0
    for q in QS:
        est = float(np.atleast_1d(sk.quantile(q))[0])
        worst = max(worst, abs(rank_of(est) - q))
    print(f"{name:22s} worst |rank err| = {worst:.5f}  "
          f"(published ≤ {published})", flush=True)


from bqf_ray.sketches.ddsketch import DDSketch  # noqa: E402
from bqf_ray.sketches.kll import KLL  # noqa: E402
from bqf_ray.sketches.tdigest import TDigest  # noqa: E402

report_quant("KLL(k=200)", build(lambda: KLL(k=200, seed=3)), "~0.0115 @k=200")
report_quant("t-digest(delta=200)",
             build(lambda: TDigest(delta=200)), "rank err ≪ 0.01 at tails")

dd = build(lambda: DDSketch(alpha=0.01))
worst_rel = 0.0
for q in QS:
    est = float(dd.quantile(q))
    exact = float(np.quantile(sorted_vals, q, method="inverted_cdf"))
    worst_rel = max(worst_rel, abs(est - exact) / exact)
print(f"{'DDSketch(a=0.01)':22s} worst RELATIVE err = {worst_rel:.5f}  "
      f"(published ≤ 0.01)", flush=True)

from bqf_ray.sketches.hll import HyperLogLog  # noqa: E402

hll = build(lambda: HyperLogLog(p=14), hashes)
exact_distinct = len(np.unique(vals))
rel = abs(hll.estimate() - exact_distinct) / exact_distinct
print(f"{'HLL(p=14)':22s} |rel err| = {rel:.5f}  "
      f"(RSE 1.04/√2^14 = {1.04 / np.sqrt(1 << 14):.5f})", flush=True)

ray.shutdown()
