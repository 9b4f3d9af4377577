"""Sharded live sketch service — the raw-Ray-actor tier.

Batch builds use Dataset shuffles (stages/sketch_stage.py).  What the
Dataset API genuinely cannot express is a SHARED MUTABLE index serving
interleaved inserts and queries with read-your-writes semantics (e.g. a
crawler that must ask "have I seen this URL/shingle?" while still
ingesting).  That is the one place the engine drops to raw ``@ray.remote``
actors (task brief: "(c) raw Ray tasks/actors as a last resort — and
document the partitioning assumption").

Partitioning assumption: keys route to shard ``key % P``; every shard
owns a disjoint key range, so per-shard sketches need no coordination and
the service scales linearly in P.  Updates within one shard serialize
through its actor mailbox (that is what makes reads consistent);
cross-shard calls fan out concurrently.  Snapshot = per-shard
``to_bytes`` gathered into a PartitionedSketch / checkpoint dir —
re-entering the batch world.
"""

from __future__ import annotations

import numpy as np

from bqf_ray.sketches.base import MergeableSketch
from bqf_ray.stages.sketch_stage import route


def _shard_actor_cls():
    import ray

    @ray.remote(num_cpus=0.5)
    class SketchShard:
        def __init__(self, factory_blob: bytes):
            self.sketch = MergeableSketch.from_bytes(factory_blob)

        def update(self, keys: np.ndarray, counts: np.ndarray | None) -> int:
            self.sketch.update_batch(keys, counts)
            return len(keys)

        def query(self, keys: np.ndarray) -> np.ndarray:
            return self.sketch.query_batch(keys)

        def update_report_new(self, keys: np.ndarray) -> np.ndarray:
            """Insert a key stream slice; return the keys whose count
            crossed 2 DURING this slice, in their emission order — the
            reference filter tool's streaming output contract
            (/root/reference/src/bqf_cf.cpp:56-77), scoped per shard."""
            keys = np.asarray(keys, dtype=np.uint64)
            if len(keys) == 0:
                return keys
            uniq, first_idx, inv, cnt = np.unique(
                keys, return_index=True, return_inverse=True,
                return_counts=True)
            # "repeated" is codec-reported: BqfCf's backpack bit reports
            # 1 once a key is seen >= 2 times (and 0 for both absent and
            # seen-once); counting codecs report the count itself
            from bqf_ray.sketches.bqf import BqfCf
            thr = 1 if isinstance(self.sketch, BqfCf) else 2
            before = self.sketch.query_batch(uniq) >= thr
            self.sketch.update_batch(keys, None)
            after = self.sketch.query_batch(uniq) >= thr
            newly = after & ~before
            # emission position within the slice: a key occurring >= 2
            # times here crossed at (approximately) its second local
            # occurrence, else at its first
            pos = first_idx.copy()
            need2 = np.flatnonzero(newly & (cnt >= 2))
            if len(need2):
                order = np.argsort(inv, kind="stable")
                grp_starts = np.searchsorted(inv[order],
                                             np.arange(len(uniq)))
                pos[need2] = order[grp_starts[need2] + 1]
            sel = np.flatnonzero(newly)
            return uniq[sel][np.argsort(pos[sel], kind="stable")]

        def snapshot(self) -> bytes:
            return self.sketch.to_bytes()

        def n_elements(self) -> int:
            return getattr(self.sketch, "elements_inside", -1)

    return SketchShard


class ShardedSketchService:
    """P live shard actors over disjoint key ranges (key % P)."""

    def __init__(self, factory, num_shards: int = 8):
        import ray

        self.P = int(num_shards)
        cls = _shard_actor_cls()
        seed_blob = factory().to_bytes()
        self.shards = [cls.remote(seed_blob) for _ in range(self.P)]
        self._ray = ray

    def update(self, keys: np.ndarray, counts: np.ndarray | None = None) -> int:
        """Insert a batch; returns rows accepted.  Blocks until every
        touched shard applied its slice (read-your-writes)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if counts is not None:
            counts = np.asarray(counts, dtype=np.uint64)
        order, bounds = route(keys, self.P)
        futs = []
        for p in range(self.P):
            idx = order[bounds[p]:bounds[p + 1]]
            if len(idx):
                futs.append(self.shards[p].update.remote(
                    keys[idx], counts[idx] if counts is not None else None))
        return int(sum(self._ray.get(futs)))

    def query(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=np.uint64)
        order, bounds = route(keys, self.P)
        futs, slices = [], []
        for p in range(self.P):
            idx = order[bounds[p]:bounds[p + 1]]
            if len(idx):
                futs.append(self.shards[p].query.remote(keys[idx]))
                slices.append(idx)
        for idx, res in zip(slices, self._ray.get(futs)):
            out[idx] = res
        return out

    def snapshot(self):
        """Freeze to a PartitionedSketch (batch-world handoff)."""
        from bqf_ray.stages.sketch_stage import PartitionedSketch
        blobs = self._ray.get([s.snapshot.remote() for s in self.shards])
        return PartitionedSketch({p: MergeableSketch.from_bytes(b)
                                  for p, b in enumerate(blobs)},
                                 num_partitions=len(blobs))

    def checkpoint(self, directory: str, config: dict,
                   input_lineage: list[str] | None = None) -> None:
        from bqf_ray.state.checkpoint import SketchCheckpoint
        ck = SketchCheckpoint(directory, config, input_lineage)
        blobs = self._ray.get([s.snapshot.remote() for s in self.shards])
        counts = self._ray.get([s.n_elements.remote() for s in self.shards])
        for p, (b, n) in enumerate(zip(blobs, counts)):
            ck.write_partition(p, b, n)
        ck.write_manifest()

    def n_elements(self) -> int:
        return int(sum(self._ray.get(
            [s.n_elements.remote() for s in self.shards])))

    def shutdown(self) -> None:
        for s in self.shards:
            self._ray.kill(s)
        self.shards = []
