"""Throughput stress for the round-2 training-data operators at 10-100x
the sf0.1 document count: decontamination, repetition stats, sequence
packing, per-domain capping, distinctive terms.  Reuses the cached
pages-derived docs table from stress_jaccard.  Run:
python tools/stress_curation_ops.py [n_docs]."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import ray  # noqa: E402

N = int(sys.argv[1]) if len(sys.argv) > 1 else 400_000
CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
ray.init(address="local", num_cpus=CPUS, include_dashboard=False)

from tools.canary import run  # noqa: E402
from bqf_ray.functions.hashing import xxhash64_array  # noqa: E402
from bqf_ray.sources.pages import pages_dataset  # noqa: E402

cache = f"/tmp/bqf_bench/docsfull_{N}"
if not os.path.exists(os.path.join(cache, "_DONE")):
    os.makedirs(cache, exist_ok=True)
    ds = pages_dataset(N, seed=7, parallelism=CPUS)

    def to_docs(batch):
        ids = (xxhash64_array(batch.column("url"))
               >> np.uint64(1)).astype(np.int64)
        import pyarrow.compute as pc
        host = pc.replace_substring_regex(batch.column("url"),
                                          r"^https?://([^/]+)/.*$", r"\1")
        return pa.table({"doc_id": pa.array(ids),
                         "text": batch.column("text"),
                         "lang": batch.column("lang"),
                         "source": host})
    ds.map_batches(to_docs, batch_format="pyarrow").write_parquet(cache)
    open(os.path.join(cache, "_DONE"), "w").write(str(N))


docs = ray.data.read_parquet(cache, columns=["doc_id", "text"])
docs_lang = ray.data.read_parquet(cache, columns=["doc_id", "text", "lang"])
docs_src = ray.data.read_parquet(cache, columns=["doc_id", "source"])


def _decon():
    from bqf_ray.pipelines.contamination import decontaminate

    def part(bench):
        def f(b):
            did = np.asarray(b.column("doc_id"))
            m = (did % 100 == 0) if bench else (did % 100 != 0)
            return b.filter(pa.array(m))
        return f
    corpus = docs.map_batches(part(False), batch_format="pyarrow")
    bench = docs.map_batches(part(True), batch_format="pyarrow")
    out = decontaminate(corpus, bench, n=3)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _rep():
    from bqf_ray.pipelines.text_stats import repetition_stats
    out = repetition_stats(docs)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _pack():
    from bqf_ray.pipelines.pack import pack_sequences
    out = pack_sequences(docs_lang, budget=2048, strategy="greedy")
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _cap():
    from bqf_ray.pipelines.text_stats import cap_per_key
    out = cap_per_key(docs_src, key_col="source", max_rows=50)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _terms():
    from bqf_ray.pipelines.text_stats import distinctive_terms
    out = distinctive_terms(docs, top=3)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


ONLY = os.environ.get("STRESS_ONLY")


def want(name):
    return ONLY is None or name in ONLY.split(",")


if want("decontaminate"): run("decontaminate", _decon, N)
if want("repetition_stats"): run("repetition_stats", _rep, N)
if want("pack_sequences"): run("pack_sequences", _pack, N)
if want("cap_per_key"): run("cap_per_key", _cap, N)
if want("distinctive_terms"): run("distinctive_terms", _terms, N)

def _spans():
    from bqf_ray.pipelines.dedup import dedup_spans
    out = dedup_spans(docs, window=8, min_count=2)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _lines():
    from bqf_ray.pipelines.dedup import dedup_lines
    out = dedup_lines(docs, min_count=1000, sep=" ")
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _chunks():
    from bqf_ray.pipelines.pack import chunk_documents
    out = chunk_documents(docs, chunk=64, overlap=8)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _mix():
    from bqf_ray.pipelines.sampling import rebalance_mixture
    out = rebalance_mixture(docs_lang, {"en": 0.5, "de": 0.3, "fr": 0.2},
                            strat_col="lang")
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _cc():
    from bqf_ray.pipelines.dedup import minhash_lsh_pairs
    from bqf_ray.pipelines.graph import near_dup_removal
    pairs = minhash_lsh_pairs(docs, threshold=0.6, s=3).select_columns(
        ["doc_a", "doc_b"]).materialize()
    out = near_dup_removal(docs, pairs)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


if want("dedup_spans_w8"): run("dedup_spans_w8", _spans, N)
if want("dedup_lines"): run("dedup_lines", _lines, N)
if want("chunk_documents"): run("chunk_documents", _chunks, N)
if want("rebalance_mixture"): run("rebalance_mixture", _mix, N)
if want("minhash+cc_removal"): run("minhash+cc_removal", _cc, N)


# --------------------------------------------------------------------------
# late-r2 additions: events-shaped + profiling operators at 10-100x sf0.1
# --------------------------------------------------------------------------

NEV = int(os.environ.get("STRESS_EVENTS", str(max(N * 25, 1_000_000))))
ev_cache = f"/tmp/bqf_bench/events2_{NEV}"
if any(want(x) for x in ("funnel", "retention", "pivot", "json_extract", "bloom_anti", "band_join")):
    if not os.path.exists(os.path.join(ev_cache, "_DONE")):
        os.makedirs(ev_cache, exist_ok=True)

        def gen_events(batch):
            from bqf_ray.functions.hashing import fmix64
            ids = np.asarray(batch.column("id"), dtype=np.int64)
            r1 = fmix64(ids.view(np.uint64))
            r2 = fmix64((ids + 1).view(np.uint64))
            uid = (r1 % np.uint64(NEV // 50)).astype(np.int64)
            ts = (np.int64(1_700_000_000_000_000)
                  + (r2 % np.uint64(30 * 86400 * 1_000_000)).astype(np.int64))
            types = np.array(["click", "view", "purchase", "signup",
                              "error"])
            et = types[(r1 >> np.uint64(32)) % np.uint64(5)]
            k = (r2 >> np.uint64(32)) % np.uint64(100)
            props = np.char.add(np.char.add('{"k": ',
                                            k.astype(np.int64).astype("U")),
                                "}")
            return pa.table({
                "event_id": pa.array(ids),
                "user_id": pa.array(uid),
                "ts": pa.array(ts.astype("datetime64[us]")),
                "event_type": pa.array(et.astype("U")),
                "props": pa.array(props.astype("U"))})

        (ray.data.range(NEV, override_num_blocks=CPUS * 4)
         .map_batches(gen_events, batch_format="pyarrow")
         .write_parquet(ev_cache))
        open(os.path.join(ev_cache, "_DONE"), "w").write(str(NEV))
    events = ray.data.read_parquet(ev_cache)


def _funnel():
    from bqf_ray.pipelines.windowed import funnel
    out = funnel(events, ["click", "view", "purchase"], within_s=7200)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _retention():
    from bqf_ray.pipelines.windowed import retention_cohorts
    out = retention_cohorts(events)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _pivot():
    from bqf_ray.pipelines.aggregates import pivot_counts
    out = pivot_counts(events, "user_id", "event_type",
                       ["click", "view", "purchase", "signup", "error"],
                       other=None)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _json():
    from bqf_ray.pipelines.json_ops import json_rollup
    out = json_rollup(events)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _profile():
    from bqf_ray.pipelines.profile import profile_table
    out = profile_table(docs)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _bloom_anti():
    from bqf_ray.pipelines.relational import bloom_semi_join
    import pyarrow.compute as _pc
    left = events.select_columns(["user_id", "event_type"])
    right = events.map_batches(
        lambda b: b.filter(_pc.equal(b.column("event_type"), "purchase"))
        .select(["user_id"]), batch_format="pyarrow")
    out = bloom_semi_join(left, right, "user_id", anti=True)
    return sum(b.num_rows for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _band():
    from bqf_ray.pipelines.relational import time_band_join
    import pyarrow.compute as _pc

    def only(et):
        return lambda b: b.filter(_pc.equal(b.column("event_type"), et))
    a = events.map_batches(only("click"), batch_format="pyarrow")
    b = events.map_batches(only("purchase"), batch_format="pyarrow")
    out = time_band_join(a, b, on="ts", by="user_id",
                         band_us=60 * 1_000_000)
    return sum(bt.num_rows for bt in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


def _phash():
    from bqf_ray.sources.media import media_dataset
    from bqf_ray.pipelines.multimodal import media_dup_pairs
    from bqf_ray.functions.hashing import xxhash64_array
    NM = 100_000
    md = media_dataset(NM, seed=11, parallelism=CPUS)

    def rekey(delta):
        def fn(b):
            h = ((xxhash64_array(b.column("payload")) >> np.uint64(2))
                 << np.uint64(1)).astype(np.int64) + delta
            return b.set_column(b.schema.get_field_index("media_id"),
                                "media_id", pa.array(h))
        return fn
    both = (md.map_batches(rekey(0), batch_format="pyarrow")
            .union(md.map_batches(rekey(1), batch_format="pyarrow")))
    out = media_dup_pairs(both, max_hamming=3)
    return sum(bt.num_rows for bt in out.iter_batches(batch_size=4096, batch_format="pyarrow"))


if want("media_phash"): run("media_phash", rows=200_000, fn=_phash)
if want("band_join"): run("band_join", rows=NEV, fn=_band)
if want("funnel"): run("funnel", rows=NEV, fn=_funnel)
if want("retention"): run("retention", rows=NEV, fn=_retention)
if want("pivot"): run("pivot", rows=NEV, fn=_pivot)
if want("json_extract"): run("json_extract", rows=NEV, fn=_json)
if want("profile"): run("profile", _profile, N)
if want("bloom_anti"): run("bloom_anti", rows=NEV, fn=_bloom_anti)
ray.shutdown()
