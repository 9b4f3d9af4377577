"""Ray Data stages that turn any :class:`MergeableSketch` into a
distributed UDAF.

Three shapes (SURVEY.md §3.1 "Ray shape" / §7.3):

1. **Partial + tree-reduce** (`build_sketch`): stateless ``map_batches``
   emits one serialized partial sketch per input block, then
   :func:`tree_merge` reduces them level-by-level with a
   ``groupby(part_id // fanout)`` shuffle per level — the canonical
   mergeable-UDAF plan.  Works for any sketch; network cost per level is
   (#partials / fanout) × sketch_size.

2. **Partitioned build** (`build_partitioned`): one key-run exchange on
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
   (BQF), where a tree-merge of overlapping partials would thrash.

3. **Probe** (`ProbeStage`): broadcast the (shard) sketch blobs once via
   ``ray.put``; an actor pool deserializes in ``__init__`` and serves
   vectorized lookups per batch — the reference's query pipeline
   (/root/reference/src/abstract_bqf.cpp:169-191) as a data-parallel stage.

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

KeyFn = Callable[[pa.Table], tuple[np.ndarray, np.ndarray | None]]
"""batch → (uint64 keys, optional counts). May emit any number of keys."""


# ---------------------------------------------------------------------------
# shape 1: partials + tree merge
# ---------------------------------------------------------------------------

def partial_sketches(ds, key_fn: KeyFn, factory: Callable[[], MergeableSketch],
                     batch_size: int | None = 4096, label: str = "sketch"):
    """Dataset → Dataset[(part_id: int64, blob: binary)] — one partial
    sketch per input batch, built inside stateless tasks."""

    def make_partial(batch: pa.Table) -> pa.Table:
        keys, counts = key_fn(batch)
        sk = factory()
        sk.update_batch(keys, counts)
        return pa.table({"blob": pa.array([sk.to_bytes()], pa.binary())})

    return ds.map_batches(make_partial, batch_format="pyarrow",
                          batch_size=batch_size)


def _merge_block(batch: pa.Table) -> pa.Table:
    blobs = batch.column("blob").to_pylist()
    sk = MergeableSketch.from_bytes(blobs[0])
    for b in blobs[1:]:
        sk.merge(MergeableSketch.from_bytes(b))
    return pa.table({"blob": pa.array([sk.to_bytes()], pa.binary())})


def tree_merge(blob_ds, fanout: int = 64):
    """Tree-reduce a Dataset of sketch blobs to ONE sketch: each level
    ``repartition(ceil(n/fanout))`` packs ~fanout blobs per block and a
    whole-block ``map_batches`` merges them.  Depth = log_fanout(n); each
    level moves only the partial blobs, never row data.  Returns the final
    sketch object.  fanout=64 keeps typical single-node runs to ONE merge
    level (each level is a barrier + driver sync); fixed-size sketches
    merge fast enough that wide fan-in is compute-cheap."""
    ds = blob_ds
    n = ds.count()
    while n > 1:
        levels = max(1, (n + fanout - 1) // fanout)
        ds = (ds.repartition(levels)
                .map_batches(_merge_block, batch_format="pyarrow",
                             batch_size=None))
        ds = ds.materialize()
        n = ds.count()
    rows = ds.take_all()
    assert len(rows) == 1, f"tree_merge ended with {len(rows)} blobs"
    return MergeableSketch.from_bytes(rows[0]["blob"])


def build_sketch(ds, key_fn: KeyFn, factory: Callable[[], MergeableSketch],
                 batch_size: int | None = 4096, fanout: int = 64
                 ) -> MergeableSketch:
    """read → partial per block → tree merge → one sketch."""
    return tree_merge(partial_sketches(ds, key_fn, factory, batch_size),
                      fanout=fanout)


# ---------------------------------------------------------------------------
# shape 2: partitioned build (disjoint key ranges)
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


# ---------------------------------------------------------------------------
# shape 4: grouped build (one merged sketch per group value)
# ---------------------------------------------------------------------------

def build_grouped(ds, group_col: str, value_fn, factory,
                  batch_size: int | None = 4096):
    """One merged sketch per distinct value of ``group_col`` — the grouped
    mergeable-UDAF plan: a per-batch combiner builds one partial sketch per
    (batch, group), then a single ``groupby(group_col)`` shuffle merges
    blobs per group.  Returns Dataset[(group_col, blob: binary)].

    ``value_fn(batch) -> np.ndarray`` must return one value per input ROW
    (aligned with ``group_col``).

    Scale note: raw rows never cross the exchange — shuffle volume is
    n_blocks × groups_per_block × sketch_size.  A skewed (hot) group costs
    nothing extra: each batch contributes one fixed-size partial for it no
    matter how many of the batch's rows it owns, so no salting is needed.
    """

    def partials(batch: pa.Table) -> pa.Table:
        vals = np.asarray(value_fn(batch))
        groups = batch.column(group_col).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(groups, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(len(uniq) + 1))
        blobs = []
        for i in range(len(uniq)):
            sk = factory()
            sk.update_batch(vals[order[bounds[i]:bounds[i + 1]]])
            blobs.append(sk.to_bytes())
        return pa.table({group_col: pa.array(list(uniq)),
                         "blob": pa.array(blobs, pa.binary())})

    def merge_group(batch: pa.Table) -> pa.Table:
        blobs = batch.column("blob").to_pylist()
        sk = MergeableSketch.from_bytes(blobs[0])
        sk.merge_many([MergeableSketch.from_bytes(b) for b in blobs[1:]])
        return pa.table({group_col: batch.column(group_col).slice(0, 1),
                         "blob": pa.array([sk.to_bytes()], pa.binary())})

    return (ds.map_batches(partials, batch_format="pyarrow",
                           batch_size=batch_size)
            .groupby(group_col)
            .map_groups(merge_group, batch_format="pyarrow"))


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


# ---------------------------------------------------------------------------
# shape 3: probe stage
# ---------------------------------------------------------------------------

class ProbeStage:
    """Actor-pool ``map_batches`` stage: look up a key column against a
    broadcast (partitioned) sketch; appends a ``count`` column.

    Pass ``sketch_ref = ray.put(partitioned_or_plain_sketch)`` from the
    driver — the blob ships to each actor ONCE (object-store broadcast),
    never per batch.
    """

    def __init__(self, sketch_ref, key_fn: KeyFn | None = None,
                 key_col: str = "key", out_col: str = "count"):
        import ray
        self.sketch = ray.get(sketch_ref)
        self.key_fn = key_fn
        self.key_col = key_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.key_fn is not None:
            keys, _ = self.key_fn(batch)
        else:
            keys = np.asarray(batch.column(self.key_col), dtype=np.int64).astype(np.uint64)
        counts = self.sketch.query_batch(keys)
        return batch.append_column(self.out_col,
                                   pa.array(counts.astype(np.int64)))
