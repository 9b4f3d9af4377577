"""Throughput stress for the continuation-batch operators at 10-100x sf0.1
scale: exact NTILE + histogram (10M rows), edit-distance-1 fuzzy matching
(1M names), inverted-index postings + collocations (400k docs), k-means
(500k x 64 vectors, 4 iterations).  Run:
python tools/stress_new_ops.py [n_docs]."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import ray  # noqa: E402

N_DOCS = int(sys.argv[1]) if len(sys.argv) > 1 else 400_000
N_EVENTS = 10_000_000
N_NAMES = 1_000_000
N_VECS = 500_000
CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
ray.init(address="local", num_cpus=CPUS, include_dashboard=False)


from tools.canary import print_canary, run  # noqa: E402


# ---- events-like table for ntile/histogram ----------------------------
ev_cache = f"/tmp/bqf_bench/stressev_{N_EVENTS}"
if not os.path.exists(os.path.join(ev_cache, "_DONE")):
    os.makedirs(ev_cache, exist_ok=True)

    def gen(batch):
        i = np.asarray(batch["id"], dtype=np.int64)
        rng_v = ((i * 2654435761) % 1_000_003).astype(np.float64) / 1000.0
        return pa.table({"event_id": pa.array(i),
                         "value": pa.array(rng_v)})

    (ray.data.range(N_EVENTS, override_num_blocks=CPUS * 4)
     .map_batches(gen, batch_format="pyarrow").write_parquet(ev_cache))
    open(os.path.join(ev_cache, "_DONE"), "w").write(str(N_EVENTS))

FOLLOWON = bool(os.environ.get("STRESS_FOLLOWON"))
CLOSING = bool(os.environ.get("STRESS_CLOSING"))
DEFAULTS = not FOLLOWON and not CLOSING
ev = ray.data.read_parquet(ev_cache)
from bqf_ray.pipelines.ranking import exact_ntile_stats, value_histogram  # noqa: E402

if DEFAULTS:
    run("histogram 10M", lambda: value_histogram(
            ev, "value", 0.0, 1000.0, 50).count(), N_EVENTS)
    run("ntile(100) 10M", lambda: exact_ntile_stats(
        ev, "value", "event_id", 100, num_partitions=64).count(), N_EVENTS)

# ---- names table for fuzzy matching -----------------------------------
names_cache = f"/tmp/bqf_bench/stressnames_{N_NAMES}"
if not os.path.exists(os.path.join(names_cache, "_DONE")):
    os.makedirs(names_cache, exist_ok=True)

    def gen_names(batch):
        i = np.asarray(batch["id"], dtype=np.int64)
        return pa.table({"name": pa.array(
            [f"Customer#{v:09d}" for v in i])})

    (ray.data.range(N_NAMES, override_num_blocks=CPUS * 2)
     .map_batches(gen_names, batch_format="pyarrow")
     .write_parquet(names_cache))
    open(os.path.join(names_cache, "_DONE"), "w").write(str(N_NAMES))

names = ray.data.read_parquet(names_cache)
from bqf_ray.pipelines.fuzzy import edit1_pairs  # noqa: E402

if DEFAULTS:
    run("edit1_pairs 1M names", lambda: edit1_pairs(
        names, "name").count(), N_NAMES)

# ---- docs table for postings / collocations ---------------------------
from bqf_ray.functions.hashing import xxhash64_array  # noqa: E402
from bqf_ray.sources.pages import pages_dataset  # noqa: E402

cache = f"/tmp/bqf_bench/docsfull_{N_DOCS}"
if not os.path.exists(os.path.join(cache, "_DONE")):
    os.makedirs(cache, exist_ok=True)
    ds = pages_dataset(N_DOCS, seed=7, parallelism=CPUS)

    def to_docs(batch):
        ids = (xxhash64_array(batch.column("url"))
               >> np.uint64(1)).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids),
                         "text": batch.column("text")})
    ds.map_batches(to_docs, batch_format="pyarrow").write_parquet(cache)
    open(os.path.join(cache, "_DONE"), "w").write(str(N_DOCS))

docs = ray.data.read_parquet(cache, columns=["doc_id", "text"])
from bqf_ray.pipelines.text_stats import collocations, postings  # noqa: E402

if DEFAULTS:
    run(f"postings {N_DOCS//1000}k docs", lambda: postings(
        docs, "text", "doc_id").count(), N_DOCS)
    run(f"collocations {N_DOCS//1000}k", lambda: collocations(
        docs, min_count=5, top=50).count(), N_DOCS)

# ---- embeddings for k-means -------------------------------------------
emb_cache = f"/tmp/bqf_bench/stressemb_{N_VECS}"
if not os.path.exists(os.path.join(emb_cache, "_DONE")):
    os.makedirs(emb_cache, exist_ok=True)

    def gen_emb(batch):
        i = np.asarray(batch["id"], dtype=np.int64)
        rng = np.random.default_rng(1234)
        centers = rng.normal(0, 0.25, size=(16, 64))
        c = (i % 16).astype(np.int64)
        noise_seed = (i * 48271 % (1 << 31)).astype(np.int64)
        # deterministic per-row noise from the row id
        noise = ((noise_seed[:, None] * np.arange(1, 65) % 997) / 997.0
                 - 0.5) * 0.1
        x = np.clip(centers[c] + noise, -0.99, 0.99).astype(np.float32)
        return pa.table({
            "vec_id": pa.array(i),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(x.reshape(-1)), 64).cast(pa.list_(pa.float32()))})

    (ray.data.range(N_VECS, override_num_blocks=CPUS * 2)
     .map_batches(gen_emb, batch_format="pyarrow").write_parquet(emb_cache))
    open(os.path.join(emb_cache, "_DONE"), "w").write(str(N_VECS))

emb = ray.data.read_parquet(emb_cache)
from bqf_ray.pipelines.clustering import kmeans_cluster_stats  # noqa: E402

if DEFAULTS:
    run("kmeans 500k x64 i4", lambda: kmeans_cluster_stats(
        emb, k=16, iters=4).count(), N_VECS)

# ---- follow-on batch ops over the same cached tables -------------------
if FOLLOWON:
    from bqf_ray.pipelines.aggregates import grouped_exact_quantiles  # noqa: E402
    from bqf_ray.pipelines.audit import dataset_checksum  # noqa: E402
    from bqf_ray.pipelines.dedup import dedup_lines_within  # noqa: E402
    from bqf_ray.pipelines.ranking import global_row_numbers  # noqa: E402

    ev2 = ray.data.read_parquet(ev_cache)

    def add_type(batch):
        i = np.asarray(batch.column("event_id"), dtype=np.int64)
        types = np.array(["click", "view", "purchase", "scroll", "other"],
                         dtype=object)
        return batch.append_column(
            "event_type", pa.array(types[(i % 5)].tolist(), pa.string()))

    typed = ev2.map_batches(add_type, batch_format="pyarrow")
    run("grouped_disc_q 10M", lambda: grouped_exact_quantiles(
        typed, "event_type", "value", (0.25, 0.5, 0.9)).count(), N_EVENTS)
    run("row_numbers 10M", lambda: global_row_numbers(
        ev2, "value", "event_id", num_partitions=64).count(), N_EVENTS)
    run("checksum 10M", lambda: dataset_checksum(
        ev2, ["event_id", "value"]).count(), N_EVENTS)
    run(f"dedup_within {N_DOCS//1000}k", lambda: dedup_lines_within(
        docs, sep=" ").count(), N_DOCS)

# ---- late-r2 closing-batch ops (STRESS_CLOSING=1) -----------------------
if CLOSING:
    from bqf_ray.pipelines.dedup import containment_pairs  # noqa: E402
    from bqf_ray.pipelines.text_stats import grouped_top_terms  # noqa: E402
    from bqf_ray.pipelines.vocab import bpe_encode_token_counts, bpe_train  # noqa: E402

    def add_host(batch):
        i = np.asarray(batch.column("doc_id"), dtype=np.int64)
        return batch.append_column(
            "source", pa.array([f"host{v % 200}" for v in i], pa.string()))

    hosted = docs.map_batches(add_host, batch_format="pyarrow")
    run(f"containment {N_DOCS//1000}k", lambda: containment_pairs(
        docs, threshold=0.5, s=3, df_cap=50).count(), N_DOCS)
    run(f"top_terms {N_DOCS//1000}k", lambda: grouped_top_terms(
        hosted, key_col="source", k=10).count(), N_DOCS)
    merges = [(l, r) for l, r, _ in bpe_train(docs, num_merges=32,
                                              min_pair_count=1)]
    run(f"bpe_encode {N_DOCS//1000}k", lambda: bpe_encode_token_counts(
        docs, merges).count(), N_DOCS)

print_canary()
ray.shutdown()
