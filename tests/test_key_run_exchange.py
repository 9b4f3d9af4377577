"""The partitioned build's key-run exchange: each shard equals a Ray-free
build over the same (key, count) rows, and a build reads its input once."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from bqf_ray.pipelines.build_index import build_bqf_index
from bqf_ray.sketches.bqf import BqfCf, BqfEc, BqfOom
from bqf_ray.sources.pages import generate_pages
from bqf_ray.stages.sketch_stage import build_partitioned, key_runs

P = 4   # divides 2^16, so keys sharing a 16-bit fingerprint share a shard
FACTORIES = {
    "ec": lambda: BqfEc(q=8, count_size=8, hash_bits=16),
    "oom": lambda: BqfOom(q=8, count_size=5, hash_bits=16),
    "cf": lambda: BqfCf(q=8, hash_bits=16),
}


def _rows(codec: str):
    """Distinct 20-bit keys, about 70 pairs of which share a 16-bit
    fingerprint, with counts past the 8-bit cap.  The summing codecs also get repeated keys; BqfOom keeps
    the max exponent per row, so its rows stay distinct and the result
    does not depend on where batch boundaries fall."""
    rng = np.random.default_rng(11)
    keys = rng.choice(1 << 20, 3000, replace=False).astype(np.uint64)
    if codec != "oom":
        keys = np.concatenate([keys, keys[:1000], keys[:10]])
    counts = rng.integers(1, 300, len(keys)).astype(np.uint64)
    return keys, counts


@pytest.mark.parametrize("skip", [None, {1}])
@pytest.mark.parametrize("codec", sorted(FACTORIES))
@pytest.mark.parametrize("blocks", [1, 3, 7])
def test_key_run_exchange_is_exact(ray_session, blocks, codec, skip):
    import ray

    def key_fn(batch: pa.Table):
        return (np.asarray(batch.column("key"), dtype=np.uint64),
                np.asarray(batch.column("count"), dtype=np.uint64))

    keys, counts = _rows(codec)
    factory = FACTORIES[codec]
    ds = ray.data.from_arrow(pa.table({
        "key": pa.array(keys), "count": pa.array(counts)})).repartition(blocks)
    meta = build_partitioned(ds, key_fn, factory, num_partitions=P,
                             batch_size=500, skip_partitions=skip).take_all()
    got = {int(r["part"]): r["sha256"] for r in meta}

    part = keys % np.uint64(P)
    want = {}
    for p in range(P):
        if skip and p in skip:
            continue
        sk = factory().for_partition(P, p)
        sk.update_batch(keys[part == p], counts[part == p])
        want[p] = hashlib.sha256(sk.to_bytes()).hexdigest()
    assert got == want


def test_key_runs_rows():
    keys = np.array([9, 5, 2, 9, 6, 5, 9], dtype=np.uint64)
    t = key_runs(keys, None, 3, skip_partitions={1})
    assert t.to_pydict() == {"__part": [0, 2],
                             "key": [[6, 9], [2, 5]],
                             "count": [[1, 3], [1, 2]]}
    t = key_runs(keys, np.arange(7, dtype=np.uint64), 3)
    assert t.to_pydict() == {"__part": [0, 2],
                             "key": [[6, 9], [2, 5]],
                             "count": [[4, 9], [2, 6]]}
    empty = key_runs(np.empty(0, np.uint64), None, 3)
    assert empty.num_rows == 0 and empty.schema == t.schema


def test_build_bqf_index_reads_input_once(ray_session, tmp_path):
    """A map stage upstream of the build runs once per input batch: no
    batch is read a second time to pick a plan."""
    import ray
    log = tmp_path / "batches.log"

    def tap(batch: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return batch

    ds = (ray.data.from_arrow(generate_pages(600, seed=4)).repartition(3)
          .map_batches(tap, batch_format="pyarrow", batch_size=None))
    idx = build_bqf_index(ds, num_partitions=4, q=10, batch_size=256)
    assert idx.psketch.elements_inside > 0
    lines = log.read_text().split()
    assert len(lines) == 3 and sum(map(int, lines)) == 600
