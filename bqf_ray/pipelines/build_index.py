"""Flagship pipeline: build a partitioned BQF token/shingle index over web
pages, checkpoint it with lineage, and probe documents against it.

Ray shape (SURVEY.md §3.1):
    read_parquet(pages) ──map_batches(extract if needed)──
    map_batches(tokenize+shingle+hash → key runs: equal keys summed,
                one row of key/count lists per key%P partition)──
    groupby(key%P) ── map_groups(build shard sketch, write shard) ──
    manifest
The build reads its input once.
Probe (§3.2): broadcast shards via ray.put → actor-pool map_batches.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bqf_ray.functions.tokenize import shingle_hashes, token_hashes
from bqf_ray.plans import plan_log
from bqf_ray.sketches.bqf import BqfEc, fimpera_from_abundances
from bqf_ray.stages.sketch_stage import (PartitionedSketch, build_partitioned,
                                         key_runs, route, run_arrays)
from bqf_ray.state.checkpoint import SketchCheckpoint


def shingle_key_fn(text_col: str = "text", s: int = 1, seed: int = 0):
    """KeyFn: batch → xxhash64 keys of every s-token shingle of text_col."""

    def key_fn(batch: pa.Table):
        th, offs = token_hashes(batch.column(text_col), seed=seed)
        if s == 1:
            return th, None
        sh, _ = shingle_hashes(th, offs, s)
        return sh, None

    return key_fn


def content_key_fn(text_col: str = "text",
                   prefix_tokens: int | None = None):
    """KeyFn: ONE content key per document (exact-dedup key as an index
    key) — for indexes that answer "has this document been seen?"."""

    def key_fn(batch: pa.Table):
        from bqf_ray.pipelines.dedup import content_keys
        return content_keys(batch, text_col, prefix_tokens), None

    return key_fn


def _key_fn_from_config(config: dict):
    if config.get("key_kind", "shingle") == "content_prefix":
        return content_key_fn(config["text_col"],
                              config.get("prefix_tokens"))
    return shingle_key_fn(config["text_col"], config["s"], config["seed"])


def build_bqf_index(pages_ds, *, text_col: str = "text", s: int = 1,
                    num_partitions: int = 16, count_size: int = 8,
                    q: int = 14, hash_bits: int = 64, seed: int = 0,
                    checkpoint_dir: str | None = None,
                    input_lineage: list[str] | None = None,
                    batch_size: int | None = 2048,
                    combine: bool | None = None,
                    key_kind: str = "shingle",
                    prefix_tokens: int | None = None) -> "BqfIndex":
    """Build (or resume) the partitioned BQF index.

    If ``checkpoint_dir`` holds a manifest for the same (config, lineage),
    finished partitions are skipped — only missing shards recompute
    (north-rule resumability).  ``combine`` is accepted for compatibility
    and ignored: every build runs the one key-run exchange of
    :func:`build_partitioned`.
    """
    config = {"s": s, "num_partitions": num_partitions, "q": q,
              "count_size": count_size, "hash_bits": hash_bits, "seed": seed,
              "text_col": text_col}
    # only non-default key settings enter the config (and thus the
    # manifest's config hash): pre-existing shingle-index checkpoints
    # keep their hash and stay resumable
    if key_kind != "shingle":
        config["key_kind"] = key_kind
    if prefix_tokens is not None:
        config["prefix_tokens"] = prefix_tokens
    lineage = input_lineage or []
    done: set[int] = set()
    ckpt = None
    if checkpoint_dir is not None:
        done = SketchCheckpoint.resume_plan(checkpoint_dir, config, lineage)
        ckpt = SketchCheckpoint(checkpoint_dir, config, lineage)
        prev = SketchCheckpoint.load_manifest(checkpoint_dir)
        if done and prev:
            # carry forward finished partitions' manifest entries
            for p, info in prev["partitions"].items():
                if int(p) in done:
                    ckpt.manifest.partitions[p] = info

    plan_log("build_bqf_index", "runs", forced=int(combine is not None))
    factory = lambda: BqfEc(q=q, count_size=count_size, hash_bits=hash_bits)
    blob_ds = build_partitioned(
        pages_ds, _key_fn_from_config(config), factory,
        num_partitions=num_partitions, batch_size=batch_size,
        sink_dir=checkpoint_dir, skip_partitions=done or None)
    meta = blob_ds.take_all()         # small: one metadata row per partition

    shards: dict[int, object] = {}
    if checkpoint_dir is not None:
        for row in meta:
            ckpt.manifest.partitions[str(int(row["part"]))] = {
                "n_keys": int(row["n_keys"]), "bytes": int(row["bytes"]),
                "sha256": row.get("sha256"),
                "fragments": lineage, "ts": 0.0,
            }
        ckpt.write_manifest()
        shards = SketchCheckpoint.load_all(checkpoint_dir)
    else:
        from bqf_ray.sketches.base import MergeableSketch
        for row in meta:
            shards[int(row["part"])] = MergeableSketch.from_bytes(row["blob"])
    return BqfIndex(PartitionedSketch(shards, num_partitions), config)


def update_bqf_index(checkpoint_dir: str, add_ds=None, remove_ds=None,
                     ) -> "BqfIndex":
    """Incrementally maintain a CHECKPOINTED index: apply new documents
    (inserts) and retracted documents (decrement-or-delete, the
    reference's remove semantics /root/reference/src/rsqf.cpp:294-377)
    without rebuilding untouched state.

    Plan: the build's key-run exchange (:func:`key_runs`), with a
    constant sign column per side; ONE task per touched partition loads
    its shard blob from the checkpoint, applies adds then removes, and
    rewrites the blob atomically — partitions receiving no delta are
    never read or written.  The manifest is refreshed with the new
    sizes/hashes.
    Requires shared storage for the checkpoint dir (same assumption as
    the checkpoint design itself).  Within one call, adds apply before
    removes.  Caveat (shared with the reference): removing from a
    SATURATED BqfEc counter is lossy."""
    import hashlib
    import os

    m = SketchCheckpoint.load_manifest(checkpoint_dir)
    assert m is not None, f"no manifest in {checkpoint_dir}"
    config = m["config"]
    P = int(config["num_partitions"])
    key_fn = _key_fn_from_config(config)

    def to_runs(sign: int):
        def fn(batch: pa.Table) -> pa.Table:
            runs = key_runs(*key_fn(batch), P)
            return runs.append_column(
                "sign", pa.array(np.full(runs.num_rows, sign, np.int8)))
        return fn

    parts = []
    if add_ds is not None:
        parts.append(add_ds.map_batches(to_runs(1), batch_format="pyarrow"))
    if remove_ds is not None:
        parts.append(remove_ds.map_batches(to_runs(-1),
                                           batch_format="pyarrow"))
    if not parts:
        return BqfIndex.load(checkpoint_dir)
    runs = parts[0] if len(parts) == 1 else parts[0].union(parts[1])

    def apply_delta(group: pa.Table) -> pa.Table:
        part = int(group.column("__part")[0].as_py())
        adds = group.filter(pc.equal(group.column("sign"), 1))
        removes = group.filter(pc.equal(group.column("sign"), -1))
        path = os.path.join(checkpoint_dir, f"part-{part:05d}.sketch")
        if os.path.exists(path):
            with open(path, "rb") as f:
                from bqf_ray.sketches.base import MergeableSketch
                sk = MergeableSketch.from_bytes(f.read())
        else:
            # a brand-new partition only receives adds
            from bqf_ray.sketches.bqf import BqfEc
            sk = BqfEc(q=int(config["q"]),
                       count_size=int(config["count_size"]),
                       hash_bits=int(config["hash_bits"])
                       ).for_partition(P, part)
        sk.update_batch(*run_arrays(adds))
        sk.remove_batch(*run_arrays(removes))
        blob = sk.to_bytes()
        from bqf_ray.state.checkpoint import _atomic_write
        _atomic_write(path, blob)
        return pa.table({
            "part": pa.array([part], pa.int64()),
            "n_keys": pa.array([sk.elements_inside], pa.int64()),
            "bytes": pa.array([len(blob)], pa.int64()),
            "sha256": pa.array([hashlib.sha256(blob).hexdigest()],
                               pa.string()),
        })

    meta = (runs.groupby("__part")
            .map_groups(apply_delta, batch_format="pyarrow")
            .take_all())                       # one row per touched shard

    ckpt = SketchCheckpoint(checkpoint_dir, config,
                            m.get("input_lineage", []))
    ckpt.manifest.partitions = dict(m.get("partitions", {}))
    for row in meta:
        ckpt.manifest.partitions[str(int(row["part"]))] = {
            "n_keys": int(row["n_keys"]), "bytes": int(row["bytes"]),
            "sha256": row["sha256"], "fragments": [], "ts": 0.0,
        }
    ckpt.write_manifest()
    return BqfIndex.load(checkpoint_dir)


class BqfIndex:
    """Partitioned BQF + its config; probe-side entry points."""

    def __init__(self, psketch: PartitionedSketch, config: dict):
        self.psketch = psketch
        self.config = config

    @classmethod
    def load(cls, checkpoint_dir: str) -> "BqfIndex":
        m = SketchCheckpoint.load_manifest(checkpoint_dir)
        assert m is not None
        return cls(PartitionedSketch(SketchCheckpoint.load_all(checkpoint_dir),
                                     m["config"]["num_partitions"]),
                   m["config"])

    def query_tokens(self, keys: np.ndarray) -> np.ndarray:
        return self.psketch.query_batch(keys)

    def probe_documents(self, docs_ds, *, text_col: str = "text",
                        id_col: str = "doc_id", z: int = 0,
                        concurrency: int = 4, routed: bool = False,
                        shard_num_cpus: float = 0.25):
        """Documents → per-document fimpera stats vs the index
        (reference query pipeline, /root/reference/src/abstract_bqf.cpp:
        169-248).  Returns a Dataset with columns
        (id, minimum, maximum, average, presence_ratio).

        Two probe modes:

        - ``routed=False`` (default): broadcast the whole PartitionedSketch
          once via ``ray.put`` — right while the index ≪ node RAM.
        - ``routed=True``: ONE actor per shard, each holding only its own
          shard sketch; probe tasks route key slices by ``key % P`` and
          fan out concurrent shard RPCs.  Per-actor memory is one shard
          (index_size / P), so the index can exceed any single worker's
          RAM — the 10^12-doc path (r1 verdict #6).  Keys landing on
          empty partitions short-circuit to count 0 without an RPC.
        """
        import ray

        s = self.config["s"]
        seed = self.config["seed"]
        P = self.psketch.P

        def extract_keys(batch: pa.Table):
            th, offs = token_hashes(batch.column(text_col), seed=seed)
            if s == 1:
                return th, offs
            return shingle_hashes(th, offs, s)

        def stats_table(batch: pa.Table, ab: np.ndarray,
                        koffs: np.ndarray) -> pa.Table:
            mins, maxs, avgs, ratios = fimpera_from_abundances(ab, koffs, z)
            return pa.table({
                id_col: batch.column(id_col),
                "minimum": pa.array(mins.astype(np.int64)),
                "maximum": pa.array(maxs.astype(np.int64)),
                "average": pa.array(avgs),
                "presence_ratio": pa.array(ratios),
            })

        if routed:
            from bqf_ray.state.shard_actors import _shard_actor_cls
            actor_cls = _shard_actor_cls()
            handles = {
                p: actor_cls.options(num_cpus=shard_num_cpus).remote(
                    sk.to_bytes())
                for p, sk in self.psketch.shards.items()}

            def routed_probe(batch: pa.Table) -> pa.Table:
                keys, koffs = extract_keys(batch)
                ab = np.zeros(len(keys), dtype=np.uint64)
                order, bounds = route(keys, P) if handles else (None, None)
                futs, idxs = [], []
                for p, h in handles.items():
                    idx = order[bounds[p]:bounds[p + 1]]
                    if len(idx):
                        futs.append(h.query.remote(keys[idx]))
                        idxs.append(idx)
                for idx, res in zip(idxs, ray.get(futs)):
                    ab[idx] = res
                return stats_table(batch, ab, koffs)

            return docs_ds.map_batches(routed_probe, batch_format="pyarrow",
                                       batch_size=1024)

        ref = ray.put(self.psketch)

        class Probe:
            def __init__(self):
                self.sketch = ray.get(ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                keys, koffs = extract_keys(batch)
                ab = self.sketch.query_batch(keys)
                return stats_table(batch, ab, koffs)

        # fractional CPUs: a probe pool that reserves every core starves the
        # upstream read stage and the pipeline deadlocks on small sessions
        return docs_ds.map_batches(Probe, batch_format="pyarrow",
                                   batch_size=1024, concurrency=concurrency,
                                   num_cpus=0.5)
