"""Ray Data stages that build a :class:`MergeableSketch` over a dataset.

Global and grouped sketches are one plan: a :class:`SketchAgg`
(``stages/udaf.py``) run by Ray Data's own aggregate — mappers feed
each block's keys to a partial sketch, reducers merge partials
pairwise — so :func:`build_sketch` is ``ds.aggregate`` over one
``SketchAgg`` and a grouped sketch is
``ds.groupby(col).aggregate(sketch_agg(...))`` (SURVEY.md §3.1 "Ray
shape" / §7.3).  This module adds the two shapes that plan cannot
express:

1. **Partitioned build** (`build_partitioned`): one key-run exchange on
   ``key % P`` co-locates every occurrence of a key.  Each map batch sums
   its equal keys and emits one row per non-empty partition, holding
   that partition's sorted keys and counts as two list columns
   (:func:`key_runs`); ``groupby("__part").map_groups`` then builds one
   sketch per partition from one ``update_batch`` call.  The exchange
   moves at most P rows per batch, whatever the key cardinality, so
   there is no plan to choose.  Keys are disjoint across shards, so the
   shard set IS the global sketch — probes route by the same
   ``key % P``.  Each shard is a quotient filter pinned to its partition
   (``for_partition``): it drops the low key bits ``key % P`` fixes.
   This is the shape for sketches whose size grows with distinct keys
   (BQF), where merging overlapping partials would thrash.

2. **Partitioned sketch** (`PartitionedSketch`): the shard set as one
   queryable sketch, routing each probe key to its shard by ``key % P``
   (:func:`route`); ``ray.put`` it once to serve lookups from a
   data-parallel stage.

Hash-space partitioning by ``key % P`` is uniform for hashed tokens by
construction, so no salting is needed HERE; salting applies to
natural-key groupbys (see ``stages/partition.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bqf_ray.sketches.base import MergeableSketch
from bqf_ray.stages.udaf import KeyFn, SketchAgg


def build_sketch(ds, key_fn: KeyFn, factory: Callable[[], MergeableSketch]
                 ) -> MergeableSketch:
    """One ``factory()`` sketch fed ``key_fn`` of every block of ``ds``:
    ``ds.aggregate`` over one :class:`SketchAgg`.  A dataset without
    rows gives the empty ``factory()`` sketch."""
    out = ds.aggregate(SketchAgg(factory, key_fn, "bytes", "blob"))
    if out is None:
        return factory()
    return MergeableSketch.from_bytes(out["blob"])


# ---------------------------------------------------------------------------
# partitioned build (disjoint key ranges)
# ---------------------------------------------------------------------------

def _run_heads(a: np.ndarray) -> np.ndarray:
    """Indices where a new value starts in the grouped array ``a``."""
    return np.flatnonzero(np.r_[len(a) > 0, a[1:] != a[:-1]])


def key_runs(keys: np.ndarray, counts: np.ndarray | None, num_partitions: int,
             skip_partitions: set[int] | None = None) -> pa.Table:
    """One batch's keys as runs: equal keys summed, sorted by (key % P,
    key), one row per non-empty partition → Table[(__part: int64,
    key: list<uint64>, count: list<uint64>)].  Rows of
    ``skip_partitions`` are dropped here, before any exchange."""
    keys = np.asarray(keys, dtype=np.uint64)
    order = np.argsort(keys)
    keys = keys[order]
    head = _run_heads(keys)
    if counts is None:
        counts = np.diff(np.r_[head, len(keys)]).astype(np.uint64)
    elif len(head):
        counts = np.add.reduceat(np.asarray(counts, np.uint64)[order], head)
    else:
        counts = np.empty(0, dtype=np.uint64)
    keys = keys[head]
    # the narrowest dtype that holds P-1 makes the stable sort a radix sort
    part = (keys % np.uint64(num_partitions)).astype(
        np.min_scalar_type(num_partitions - 1))
    if skip_partitions:
        keep = ~np.isin(part, list(skip_partitions))
        keys, counts, part = keys[keep], counts[keep], part[keep]
    order = np.argsort(part, kind="stable")    # keys stay sorted per run
    keys, counts, part = keys[order], counts[order], part[order]
    head = _run_heads(part)
    offsets = pa.array(np.r_[head, len(part)].astype(np.int32))
    return pa.table({
        "__part": pa.array(part[head].astype(np.int64)),
        "key": pa.ListArray.from_arrays(offsets, pa.array(keys)),
        "count": pa.ListArray.from_arrays(offsets, pa.array(counts)),
    })


def run_arrays(group: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """The (keys, counts) a group of :func:`key_runs` rows carries."""
    return (pc.list_flatten(group.column("key")).to_numpy(),
            pc.list_flatten(group.column("count")).to_numpy())


def route(keys: np.ndarray, num_partitions: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """``(order, bounds)``: ``keys[order[bounds[p]:bounds[p + 1]]]`` are
    the keys of partition ``key % P`` = p, in input order, from one
    stable sort by partition."""
    P = int(num_partitions)
    part = (keys % np.uint64(P)).astype(np.min_scalar_type(P - 1))
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(P + 1))
    return order, bounds


def build_partitioned(ds, key_fn: KeyFn, factory: Callable[[], MergeableSketch],
                      num_partitions: int = 16, batch_size: int | None = 4096,
                      sink_dir: str | None = None,
                      skip_partitions: set[int] | None = None,
                      combine: bool = False,
                      partial_factory: Callable[[], MergeableSketch] | None = None):
    """One exchange: each map batch emits its (key, count) runs, one row
    per ``key % P`` partition (:func:`key_runs`), and one sketch is built
    per partition from all its rows → Dataset[(part, blob, n_keys, bytes,
    sha256)].  ``factory`` must make quotient filters: each shard is
    pinned to its partition (``factory().for_partition(P, part)``).

    The exchange moves at most P rows per batch, carrying per-batch-unique
    keys, not raw occurrences (ray_guide 'Aggregation at scale').  With
    ``sink_dir`` set, shard blobs are written from inside the build tasks
    (atomic + idempotent) and the returned dataset carries metadata only —
    nothing big flows to the driver.  ``skip_partitions`` drops
    already-checkpointed partitions before the exchange (resume path).
    ``combine`` and ``partial_factory`` are accepted for compatibility and
    ignored: there is one exchange plan.
    """
    P = int(num_partitions)

    def to_runs(batch: pa.Table) -> pa.Table:
        keys, counts = key_fn(batch)
        return key_runs(keys, counts, P, skip_partitions)

    def build(group: pa.Table) -> pa.Table:
        """Build one shard and return its metadata row.  With
        ``sink_dir`` the blob is written from inside the task (atomic,
        deterministic name → idempotent under retries) and only
        metadata flows back."""
        import hashlib
        import os

        from bqf_ray.state.checkpoint import _atomic_write
        part = int(group.column("__part")[0].as_py())
        sk = factory().for_partition(P, part)
        sk.update_batch(*run_arrays(group))
        blob = sk.to_bytes()
        size, sha = len(blob), hashlib.sha256(blob).hexdigest()
        if sink_dir is not None:
            _atomic_write(os.path.join(sink_dir, f"part-{part:05d}.sketch"),
                          blob)
            blob = b""
        return pa.table({
            "part": pa.array([part], pa.int64()),
            "blob": pa.array([blob], pa.binary()),
            "n_keys": pa.array([sk.elements_inside], pa.int64()),
            "bytes": pa.array([size], pa.int64()),
            "sha256": pa.array([sha], pa.string()),
        })

    return (ds.map_batches(to_runs, batch_format="pyarrow",
                           batch_size=batch_size)
            .groupby("__part")
            .map_groups(build, batch_format="pyarrow"))


class PartitionedSketch:
    """P shard sketches over disjoint key ranges (key % P routing).

    ``num_partitions`` must be the P the build used: the build's groupby
    only emits partitions that received keys, so inferring P from the
    populated shard dict is wrong whenever the highest-numbered partition
    is empty (key%P would then misroute every probe).  Partitions absent
    from ``shards`` are genuinely empty and report count 0."""

    def __init__(self, shards: dict[int, MergeableSketch],
                 num_partitions: int | None = None):
        if num_partitions is None:
            num_partitions = max(shards) + 1 if shards else 0
        assert all(0 <= p < num_partitions for p in shards), \
            f"shard ids {sorted(shards)} out of range for P={num_partitions}"
        self.P = int(num_partitions)
        self.shards = shards

    @classmethod
    def from_dataset(cls, blob_ds, num_partitions: int) -> "PartitionedSketch":
        """``num_partitions`` is REQUIRED here: a build's groupby emits only
        non-empty partitions, so P cannot be inferred from the blob rows
        (an empty highest partition would silently shrink P and misroute
        every key%P probe)."""
        shards = {}
        for row in blob_ds.take_all():
            shards[int(row["part"])] = MergeableSketch.from_bytes(row["blob"])
        return cls(shards, num_partitions)

    def query_batch(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=np.uint64)
        if not self.shards or len(keys) == 0:
            return out
        order, bounds = route(keys, self.P)
        for p, sk in self.shards.items():
            idx = order[bounds[p]:bounds[p + 1]]
            if len(idx):
                out[idx] = sk.query_batch(keys[idx])
        return out

    def enumerate(self) -> tuple[np.ndarray, np.ndarray]:
        ks, cs = [], []
        for p in sorted(self.shards):
            k, c = self.shards[p].enumerate()
            ks.append(k)
            cs.append(c)
        return (np.concatenate(ks) if ks else np.empty(0, dtype=np.uint64),
                np.concatenate(cs) if cs else np.empty(0, dtype=np.uint64))

    @property
    def elements_inside(self) -> int:
        return sum(s.elements_inside for s in self.shards.values())

