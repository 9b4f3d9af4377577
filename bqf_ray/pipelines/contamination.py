"""Test-set decontamination: flag corpus documents that share token
n-grams with a benchmark ("held-out") document set.

The canonical training-data hygiene pass: before training on a web
corpus, remove every document that overlaps the evaluation benchmarks at
the n-gram level.  Three execution shapes, all over the same shingle
machinery the BQF index uses (``functions/tokenize.shingle_hashes`` — the
web-text analog of the reference's rolling s-mer register,
/root/reference/src/bqf_cf.cpp:80-116):

- ``method="broadcast"`` (default): the benchmark side is SMALL by
  construction (test sets are thousands of documents, the corpus is
  billions), so its distinct shingle-hash set is collected once, sorted,
  and broadcast via ``ray.put``; corpus batches probe it with a
  vectorized ``searchsorted``.  Zero shuffles; the only data movement is
  one small sorted array to each worker.
- ``method="semijoin"``: both sides stay distributed — corpus
  (doc, shingle) rows and benchmark (shingle) rows are bucket
  co-partitioned on ``bucket_of(shingle)`` (one groupby shuffle), hits are
  counted per doc in-bucket, then one tiny groupby(doc) sum.  The shape
  for benchmark sets too large to broadcast.
- ``method="bloom"``: a blocked Bloom filter over the benchmark shingles
  (built distributedly via merged partial sketches) is broadcast
  instead of the exact set — ~1 byte/element instead of 8.  Counts are
  an UPPER bound (Bloom false positives only over-flag, never
  under-flag: no contaminated document escapes), with FP rate ≤ the
  filter's published ``(1-e^{-kn/m})^k`` bound.

Matching is on 64-bit shingle hashes, so two distinct n-grams collide
with probability ~2^-64 — the same contract every dedup operator here
uses.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from bqf_ray.functions.tokenize import shingle_hashes, token_hashes


def _doc_distinct_shingles(batch: pa.Table, text_col: str, id_col: str,
                           n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc DISTINCT shingle hashes: (doc_ids_repeated, shingles)."""
    th, offs = token_hashes(batch.column(text_col), seed=seed)
    sh, soffs = shingle_hashes(th, offs, n) if n > 1 else (th, offs)
    doc_ids = np.asarray(batch.column(id_col))
    did = np.repeat(doc_ids, np.diff(soffs))
    if len(sh) == 0:
        return did.astype(np.int64), sh
    order = np.lexsort((sh, did))
    did, sh = did[order], sh[order]
    first = np.concatenate([[True],
                            (did[1:] != did[:-1]) | (sh[1:] != sh[:-1])])
    return did[first].astype(np.int64), sh[first]


def benchmark_shingle_set(bench_ds, n: int = 3, text_col: str = "text",
                          seed: int = 0) -> np.ndarray:
    """Sorted distinct uint64 shingle hashes of the benchmark corpus.

    The benchmark is the SMALL side (a test set); per-batch distinct
    happens in parallel tasks, only deduped hash arrays reach the driver.
    """

    def keys(batch: pa.Table) -> pa.Table:
        th, offs = token_hashes(batch.column(text_col), seed=seed)
        sh, _ = shingle_hashes(th, offs, n) if n > 1 else (th, offs)
        return pa.table({"key": pa.array(np.unique(sh).astype(np.int64))})

    parts = [np.asarray(b.column("key"), dtype=np.int64)
             for b in bench_ds.map_batches(keys, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow")]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts).astype(np.uint64))


def decontaminate(ds, bench_ds, n: int = 3, text_col: str = "text",
                  id_col: str = "doc_id", seed: int = 0,
                  method: str = "broadcast", num_buckets: int = 32,
                  bloom_fp: float = 0.001):
    """Dataset[(doc_id, n_contaminated)] — corpus docs sharing ≥1 token
    ``n``-gram with ``bench_ds``, with the count of DISTINCT shared
    n-grams per doc.  See module docstring for the three methods."""
    import ray

    if method == "broadcast":
        bench = benchmark_shingle_set(bench_ds, n, text_col, seed)
        ref = ray.put(bench)

        class Probe:
            def __init__(self):
                self.bench = ray.get(ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                did, sh = _doc_distinct_shingles(batch, text_col, id_col,
                                                 n, seed)
                if len(sh) == 0:
                    return pa.table({id_col: pa.array([], pa.int64()),
                                     "n_contaminated": pa.array([], pa.int64())})
                pos = np.searchsorted(self.bench, sh)
                hit = pos < len(self.bench)
                hit &= self.bench[np.minimum(pos, len(self.bench) - 1)] == sh
                u, inv = np.unique(did, return_inverse=True)
                cnt = np.zeros(len(u), dtype=np.int64)
                np.add.at(cnt, inv[hit], 1)
                keep = cnt > 0
                return pa.table({id_col: pa.array(u[keep]),
                                 "n_contaminated": pa.array(cnt[keep])})

        return ds.map_batches(Probe, batch_format="pyarrow",
                              concurrency=(1, 8), num_cpus=0.5)

    if method == "bloom":
        from bqf_ray.sketches.bloom import BlockedBloom
        from bqf_ray.stages.sketch_stage import build_sketch

        def key_fn(batch: pa.Table):
            th, offs = token_hashes(batch.column(text_col), seed=seed)
            sh, _ = shingle_hashes(th, offs, n) if n > 1 else (th, offs)
            return sh.astype(np.uint64), None

        n_bench = max(int(bench_ds.count()), 1)
        # rough distinct-shingle upper bound: docs × avg shingles; the
        # filter only needs an order-of-magnitude capacity figure
        bloom = build_sketch(
            bench_ds, key_fn,
            lambda: BlockedBloom.from_capacity(n_bench * 256, fp=bloom_fp,
                                               seed=seed))
        ref = ray.put(bloom)

        class BloomProbe:
            def __init__(self):
                self.bloom = ray.get(ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                did, sh = _doc_distinct_shingles(batch, text_col, id_col,
                                                 n, seed)
                if len(sh) == 0:
                    return pa.table({id_col: pa.array([], pa.int64()),
                                     "n_contaminated": pa.array([], pa.int64())})
                hit = self.bloom.query_batch(sh.astype(np.uint64)) > 0
                u, inv = np.unique(did, return_inverse=True)
                cnt = np.zeros(len(u), dtype=np.int64)
                np.add.at(cnt, inv[hit], 1)
                keep = cnt > 0
                return pa.table({id_col: pa.array(u[keep]),
                                 "n_contaminated": pa.array(cnt[keep])})

        return ds.map_batches(BloomProbe, batch_format="pyarrow",
                              concurrency=(1, 8), num_cpus=0.5)

    if method == "semijoin":
        from ray.data.aggregate import Sum

        from bqf_ray.stages.partition import exchange

        def corpus_rows(batch: pa.Table) -> pa.Table:
            did, sh = _doc_distinct_shingles(batch, text_col, id_col, n, seed)
            s = sh.astype(np.int64)
            return pa.table({
                id_col: pa.array(did),
                "__sh": pa.array(s),
                "__side": pa.array(np.zeros(len(did), dtype=np.int8)),
            })

        def bench_rows(batch: pa.Table) -> pa.Table:
            th, offs = token_hashes(batch.column(text_col), seed=seed)
            sh, _ = shingle_hashes(th, offs, n) if n > 1 else (th, offs)
            s = np.unique(sh).astype(np.int64)
            return pa.table({
                id_col: pa.array(np.zeros(len(s), dtype=np.int64)),
                "__sh": pa.array(s),
                "__side": pa.array(np.ones(len(s), dtype=np.int8)),
            })

        def count_hits(group: pa.Table) -> pa.Table:
            side = np.asarray(group.column("__side"))
            sh = np.asarray(group.column("__sh"))
            did = np.asarray(group.column(id_col))
            bench = np.unique(sh[side == 1])
            lmask = side == 0
            lsh, ldid = sh[lmask], did[lmask]
            pos = np.searchsorted(bench, lsh)
            hit = pos < len(bench)
            hit &= bench[np.minimum(pos, len(bench) - 1)] == lsh
            u, inv = np.unique(ldid[hit], return_inverse=True)
            cnt = np.zeros(len(u), dtype=np.int64)
            np.add.at(cnt, inv, 1)
            return pa.table({id_col: pa.array(u.astype(np.int64)),
                             "n": pa.array(cnt)})

        hits = exchange(ds.map_batches(corpus_rows, batch_format="pyarrow")
                        .union(bench_ds.map_batches(bench_rows,
                                                    batch_format="pyarrow"))
                        .repartition(16), count_hits, "__sh", num_buckets)
        # a doc's shingles span buckets — one tiny groupby(doc) sum
        return (hits.groupby(id_col)
                .aggregate(Sum("n", alias_name="n_contaminated")))

    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# embedding-level decontamination
# ---------------------------------------------------------------------------

def embedding_decontaminate(corpus_ds, bench_ds, threshold: float = 0.95,
                            vec_col: str = "embedding",
                            id_col: str = "vec_id",
                            method: str = "broadcast",
                            bits: int = 8, tables: int = 16, seed: int = 7):
    """Flag corpus vectors whose cosine similarity to ANY benchmark
    vector reaches ``threshold`` — the embedding-space complement of the
    n-gram :func:`decontaminate` (catches paraphrased test-set leakage
    that token overlap misses).

    - ``method="broadcast"`` (default, exact): benchmark sets are small
      by construction, so the normalized bench matrix ships once via
      ``ray.put``; each corpus batch takes its max cosine against it in
      one matmul.  Zero shuffles.
    - ``method="blocked"``: both sides stay distributed — L
      random-hyperplane tables of ``bits`` bits block the union (the
      :func:`~bqf_ray.pipelines.dedup.embedding_dup_pairs_blocked`
      geometry); in-bucket exact cosine against the bench rows only.
      Recall 1-(1-p^bits)^tables with p = 1-arccos(t)/π; flags are a
      SUBSET of the exact set (misses possible, no false flags).

    Output: (id, max_cos, contaminated) — one row per corpus vector in
    ``broadcast`` mode; in ``blocked`` mode only vectors that collided
    with a bench vector appear (absent row = not flagged).
    """
    import ray

    from bqf_ray.pipelines.knn import _to_matrix

    if method == "broadcast":
        bt = pa.concat_tables(list(bench_ds.select_columns(
            [id_col, vec_col]).iter_batches(batch_format="pyarrow")))
        bm = _to_matrix(bt.column(vec_col))
        bm = bm / np.maximum(
            np.linalg.norm(bm, axis=1, keepdims=True), 1e-30)
        ref = ray.put(bm)

        class Flag:
            def __init__(self):
                self.bm = ray.get(ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                ids = np.asarray(batch.column(id_col), dtype=np.int64)
                m = _to_matrix(batch.column(vec_col))
                m = m / np.maximum(
                    np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
                mc = (m @ self.bm.T).max(axis=1) if len(self.bm) else \
                    np.zeros(len(ids))
                return pa.table({
                    id_col: pa.array(ids),
                    "max_cos": pa.array(mc.astype(np.float64)),
                    "contaminated": pa.array(mc >= threshold)})

        return corpus_ds.map_batches(Flag, batch_format="pyarrow",
                                     batch_size=256, concurrency=(1, 8))

    if method != "blocked":
        raise ValueError(f"unknown method {method!r}")

    rng = np.random.RandomState(seed)
    dim = len(_to_matrix(
        corpus_ds.limit(1).take_batch(1, batch_format="pyarrow")
        .column(vec_col))[0])
    planes = rng.normal(size=(tables, bits, dim))
    pref = ray.put(planes)

    def bucket_rows(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            pl = ray.get(pref)
            ids = np.asarray(batch.column(id_col), dtype=np.int64)
            m = _to_matrix(batch.column(vec_col))
            n = m / np.maximum(
                np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
            out = []
            w = (1 << np.arange(bits, dtype=np.uint64))
            vec_arr = pa.FixedSizeListArray.from_arrays(
                pa.array(n.astype(np.float64).reshape(-1)), n.shape[1])
            for t in range(tables):
                code = ((n @ pl[t].T) > 0).astype(np.uint64) @ w
                key = (code * np.uint64(73856093)
                       + np.uint64(t) * np.uint64(0x9E3779B97F4A7C15))
                out.append(pa.table({
                    id_col: pa.array(ids),
                    "__bkey": pa.array(key.astype(np.int64)),
                    "__side": pa.array(np.full(len(ids), side, np.int8)),
                    "__vec": vec_arr,
                }))
            return pa.concat_tables(out)
        return fn

    both = (corpus_ds.map_batches(bucket_rows(0), batch_format="pyarrow")
            .union(bench_ds.map_batches(bucket_rows(1),
                                        batch_format="pyarrow")))

    def verify_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"), dtype=np.int8)
        if (side == 1).sum() == 0 or (side == 0).sum() == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "max_cos": pa.array([], pa.float64())})
        ids = np.asarray(group.column(id_col), dtype=np.int64)
        va = group.column("__vec")
        if isinstance(va, pa.ChunkedArray):
            va = va.combine_chunks()
        vecs = np.asarray(va.flatten()).reshape(len(group), -1)
        cm, bm = vecs[side == 0], vecs[side == 1]
        mc = (cm @ bm.T).max(axis=1)
        hit = mc >= threshold
        return pa.table({id_col: pa.array(ids[side == 0][hit]),
                         "max_cos": pa.array(mc[hit])})

    from ray.data.aggregate import Max
    flagged = (both.groupby("__bkey")
               .map_groups(verify_bucket, batch_format="pyarrow")
               .groupby(id_col)
               .aggregate(Max("max_cos", alias_name="max_cos")))
    return flagged.map_batches(
        lambda b: b.append_column(
            "contaminated", pa.array(np.ones(len(b), dtype=bool))),
        batch_format="pyarrow")
