"""The benchmark's two workloads: load generation, one pipeline run ("rep")
through the public API, and the exact oracle each rep is gated against.

Every input is made from the workload seed before timing starts: pages via
``bqf_ray.sources.pages.generate_pages`` written to parquet, keyed rows via
numpy.  The oracles are plain numpy over the same keys, computed once in the
driver, so a rep's gate is a comparison, not a recomputation.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from bqf_ray.functions.tokenize import shingle_hashes, token_hashes
from bqf_ray.pipelines.build_index import build_bqf_index
from bqf_ray.sketches.base import MergeableSketch
from bqf_ray.sketches.countmin import CountMin
from bqf_ray.sketches.hll import HyperLogLog
from bqf_ray.sketches.kll import KLL
from bqf_ray.sketches.tdigest import TDigest
from bqf_ray.sources.pages import generate_pages
from bqf_ray.stages.udaf import prepare_hash, sketch_agg
from bqf_ray.text.extract import ExtractText

BATCH = 1024          # map batch size, as in bench.py's headline
PARTITIONS = 32       # shard count, as in bench.py's headline
Q0 = 8                # initial shard q; shards auto-grow with their keys
COUNT_BITS = 8        # counters saturate at 2^8 - 1
COUNT_CAP = (1 << COUNT_BITS) - 1
N_FILES = 4           # parquet files per corpus
UNSEEN_SEED_OFFSET = 7919   # probe pages the index never saw
LEDGER_PAGES = 2000   # pages the Ray-free ledger and the pipelines pass use
LEDGER_UNSEEN = 1000  # unseen pages the pipelines pass also probes

# Sketch parameters of the UDAF workload and of the kernel ledger.
HLL_P = 12
KLL_K = 200
CM_WIDTH, CM_DEPTH = 2048, 5
TD_DELTA = 200
UDAF_GROUPS = 16
UDAF_BLOCKS = 4
QUANTILES = np.array([0.1, 0.25, 0.5, 0.75, 0.9])

# Input sizes per scale.  "full" is what BENCHMARK.json runs; "small" is the
# benchmark's own test.
SIZES = {
    "full": {"shingle_pages": 8_000, "udaf_rows": 150_000, "warm_pages": 64,
             "setups": 2, "rep_timeout_s": 45},
    "small": {"shingle_pages": 600, "udaf_rows": 40_000, "warm_pages": 32,
              "setups": 1, "rep_timeout_s": 60},
}


class GateError(Exception):
    """A rep's output disagrees with the exact oracle."""


def stream_keys(texts, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The index key stream of a text column: token hashes (s=1) or s-token
    shingle hashes, with per-document offsets -- what ``shingle_key_fn``
    and ``probe_documents`` compute per batch."""
    th, offs = token_hashes(texts)
    if s == 1:
        return th, offs
    return shingle_hashes(th, offs, s)


def write_parquet(table: pa.Table, path: str) -> list[str]:
    os.makedirs(path, exist_ok=True)
    files = []
    step = -(-table.num_rows // N_FILES)
    for i in range(N_FILES):
        f = os.path.join(path, f"part-{i}.parquet")
        pq.write_table(table.slice(i * step, step), f)
        files.append(f)
    return files


def set_ledger_pages(wl, pages: pa.Table, seed: int, workdir: str) -> None:
    """Inputs of the traced run's Ray-free ledger and its pipelines pass.

    The first ``LEDGER_PAGES`` pages, in memory and as parquet, with the
    exact counts of their ``wl.s`` keys; and the probe docs: those pages
    plus ``LEDGER_UNSEEN`` pages from a seed the index never saw, with the
    oracle ``gate_probe`` checks each probe row against."""
    wl.ledger_pages = pages.slice(0, LEDGER_PAGES)
    wl.ledger_files = write_parquet(wl.ledger_pages.select(["url", "html"]),
                                    os.path.join(workdir, "ledger"))
    keys, _ = stream_keys(wl.ledger_pages.column("text"), wl.s)
    wl.ledger_okeys, wl.ledger_ocounts = np.unique(keys, return_counts=True)

    unseen = generate_pages(LEDGER_UNSEEN, seed=seed + UNSEEN_SEED_OFFSET)
    docs = pa.concat_tables([wl.ledger_pages, unseen])
    wl.probe_files = write_parquet(docs.select(["url", "html"]),
                                   os.path.join(workdir, "probe"))
    keys, offs = stream_keys(docs.column("text"), wl.s)
    n_kgrams = np.diff(offs)
    n_present = np.bincount(np.repeat(np.arange(len(n_kgrams)), n_kgrams),
                            weights=np.isin(keys, wl.ledger_okeys),
                            minlength=len(n_kgrams)).astype(np.int64)
    wl.probe_expect = {
        u: (int(p), int(n), i < wl.ledger_pages.num_rows)
        for i, (u, p, n) in enumerate(zip(docs.column("url").to_pylist(),
                                          n_present, n_kgrams))}


def first_batch_unique_ratio(keys: np.ndarray, offs: np.ndarray) -> float:
    """Distinct / total keys of the first ``BATCH`` documents: the property
    ``build_bqf_index``'s combine/row auto-plan samples."""
    head = keys[: offs[min(BATCH, len(offs) - 1)]]
    return len(np.unique(head)) / max(len(head), 1)


def gate_index(psketch, okeys: np.ndarray, ocounts: np.ndarray) -> None:
    keys, counts = psketch.enumerate()
    order = np.argsort(keys)
    keys, counts = keys[order], counts[order]
    if not np.array_equal(keys, okeys):
        raise GateError(f"enumerate() holds {len(keys)} keys, "
                        f"oracle {len(okeys)}")
    expect = np.minimum(ocounts, COUNT_CAP).astype(np.uint64)
    if not np.array_equal(counts, expect):
        bad = int(np.count_nonzero(counts != expect))
        raise GateError(f"{bad} enumerated counts differ from the oracle")
    got = psketch.query_batch(okeys)
    if not np.array_equal(got, expect):
        fn = int(np.count_nonzero(got == 0))
        raise GateError(f"query_batch differs from the oracle "
                        f"({fn} false negatives)")


def gate_probe(rows, expect: dict, bound: float) -> None:
    """``probe_documents`` rows against ``expect`` (url -> (k-grams present
    in the index, k-grams, doc was indexed)): indexed docs are fully present,
    no doc misses a present k-gram, and the FP rate over absent k-grams is
    within ``bound``."""
    urls = [r["url"] for r in rows]
    if len(urls) != len(expect) or set(urls) != expect.keys():
        raise GateError(f"{len(rows)} probe rows do not match the "
                        f"{len(expect)} probe docs")
    fp = absent = 0
    for r in rows:
        p, n, seen = expect[r["url"]]
        got = round(r["presence_ratio"] * n)
        if seen and r["presence_ratio"] != 1.0:
            raise GateError(f"indexed doc {r['url']} presence_ratio "
                            f"{r['presence_ratio']}")
        if got < p:
            raise GateError(f"false negatives in {r['url']}")
        fp += got - p
        absent += n - p
    if absent and fp / absent > bound:
        raise GateError(f"FP rate {fp / absent} > bound {bound}")


def final_q(psketch) -> int:
    return max(sk.q for sk in psketch.shards.values())


def fp_bound(psketch) -> float:
    """2^-r, r = the remainder bits of the largest shard (64-bit hashes)."""
    return 2.0 ** -(64 - final_q(psketch))


def bits_per_element(psketch) -> float:
    nbytes = sum(len(sk.to_bytes()) for sk in psketch.shards.values())
    return nbytes * 8 / psketch.elements_inside


def pages_ds(files: list[str], columns=("html",)):
    """Parquet pages -> ExtractText, as the benchmark's pipelines read them."""
    import ray
    return (ray.data.read_parquet(files, columns=list(columns))
            .map_batches(ExtractText(), batch_format="pyarrow",
                         batch_size=BATCH))


def build_index(files: list[str], s: int):
    return build_bqf_index(pages_ds(files), s=s, q=Q0, count_size=COUNT_BITS,
                           num_partitions=PARTITIONS, batch_size=BATCH)


class IndexWorkload:
    """pages -> ExtractText -> s-token hashes -> build_bqf_index (32 shards)."""

    def __init__(self, s: int, n_pages: int):
        self.s, self.n_pages = s, n_pages

    def generate(self, seed: int, workdir: str) -> None:
        pages = generate_pages(self.n_pages, seed=seed)
        self.files = write_parquet(pages.select(["url", "html"]),
                                   os.path.join(workdir, "pages"))
        keys, offs = stream_keys(pages.column("text"), self.s)
        self.okeys, self.ocounts = np.unique(keys, return_counts=True)
        self.unique_ratio = first_batch_unique_ratio(keys, offs)
        self.key_stream = keys
        self.rows_per_rep = self.n_pages
        self.index = None
        set_ledger_pages(self, pages, seed, workdir)

    def build(self, files):
        return build_index(files, self.s)

    def setup(self, warm_files: list[str]) -> None:
        """Set-up after Ray starts.  Here: one tiny run of the pipeline on
        ``warm_files``, which starts the workers and imports the stages."""
        self.build(warm_files)

    def rep(self):
        self.index = self.build(self.files)
        return self.index

    def gate(self, index) -> None:
        gate_index(index.psketch, self.okeys, self.ocounts)

    def record(self) -> dict:
        return {"bits_per_element": bits_per_element(self.index.psketch),
                "final_q": final_q(self.index.psketch),
                "preagg_unique_ratio": self.unique_ratio}


def udaf_aggs():
    return [
        sketch_agg(lambda: HyperLogLog(p=HLL_P), on="item", name="hll"),
        sketch_agg(lambda: CountMin(width=CM_WIDTH, depth=CM_DEPTH),
                   on="item", name="countmin"),
        sketch_agg(lambda: KLL(k=KLL_K), on="value", prepare="value",
                   name="kll"),
        sketch_agg(lambda: TDigest(delta=TD_DELTA), on="value",
                   prepare="value", name="tdigest"),
    ]


def gate_bounds(sk) -> float:
    """The bound each sketch's error is gated against (see README.md)."""
    if isinstance(sk, HyperLogLog):
        return 4 * sk.error_bound()       # published figure is 1 sigma
    if isinstance(sk, CountMin):
        return sk.error_bound()[1]        # share of keys over eps*N <= delta
    return sk.error_bound()               # KLL 3/k, t-digest 6/delta ranks


def sketch_error(sk, hashed: np.ndarray, svalues: np.ndarray) -> float:
    """Observed error of one sketch against exact numpy values, in the
    unit of ``gate_bounds``.  ``hashed``: the uint64 keys the sketch saw
    (HLL, Count-Min); ``svalues``: the sorted values (KLL, t-digest)."""
    if isinstance(sk, HyperLogLog):
        n = len(np.unique(hashed))
        return abs(sk.estimate() - n) / n
    if isinstance(sk, CountMin):
        uniq, cnt = np.unique(hashed, return_counts=True)
        err = sk.query_batch(uniq).astype(np.int64) - cnt
        if (err < 0).any():
            return float("inf")           # Count-Min never underestimates
        eps = sk.error_bound()[0]
        return float(np.mean(err > eps * len(hashed)))
    # rank error with ties: zero while q lies in the estimate's rank range
    est = np.asarray(sk.quantile(QUANTILES))
    lo = np.searchsorted(svalues, est, side="left") / len(svalues)
    hi = np.searchsorted(svalues, est, side="right") / len(svalues)
    return float(np.max(np.maximum(0.0, np.maximum(lo - QUANTILES,
                                                   QUANTILES - hi))))


class UdafWorkload:
    """Zipf-skewed keyed rows -> groupby(g).aggregate(sketch_agg(HLL | KLL |
    Count-Min | t-digest)).  No text layer is involved."""

    s = 8                      # shingle size of the ledger's page sample

    def __init__(self, n_rows: int):
        self.n_rows = n_rows

    def generate(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        w = 1.0 / np.arange(1, UDAF_GROUPS + 1) ** 1.3
        g = rng.choice(UDAF_GROUPS, self.n_rows, p=w / w.sum())
        item = np.minimum(rng.zipf(1.2, self.n_rows), 1 << 40)
        value = rng.lognormal(0.0, 1.5, self.n_rows)
        self.table = pa.table({"g": g.astype(np.int64),
                               "item": item.astype(np.int64),
                               "value": value})
        self.oracle = {}
        for k in range(UDAF_GROUPS):
            m = g == k
            self.oracle[k] = (prepare_hash(pa.array(item[m])),
                              np.sort(value[m]))
        self.unique_ratio = len(np.unique(g[:BATCH])) / BATCH
        # the text layers have no input here: the ledger and the pipelines
        # pass run on a page sample from the same seed
        set_ledger_pages(self, generate_pages(LEDGER_PAGES, seed=seed), seed,
                         workdir)
        self.key_stream = prepare_hash(pa.array(item))
        self.values = value
        self.rows_per_rep = self.n_rows
        self.refs = None
        self.result = None

    def put_blocks(self, n_rows: int | None = None) -> list:
        """The first ``n_rows`` rows (all by default) as ``UDAF_BLOCKS``
        blocks in Ray's object store."""
        import ray
        n = n_rows or self.n_rows
        step = -(-n // UDAF_BLOCKS)
        return [ray.put(self.table.slice(i, step)) for i in range(0, n, step)]

    def dataset(self, refs):
        import ray
        return ray.data.from_arrow_refs(refs).groupby("g").aggregate(
            *udaf_aggs())

    def setup(self, warm_files: list[str]) -> None:
        self.dataset(self.put_blocks(4000)).take_all()

    def rep(self):
        self.result = self.dataset(self.refs).take_all()
        return self.result

    def gate(self, rows) -> None:
        if sorted(r["g"] for r in rows) != list(range(UDAF_GROUPS)):
            raise GateError("missing or extra groups")
        for r in rows:
            hashed, svalues = self.oracle[r["g"]]
            for name in ("hll", "countmin", "kll", "tdigest"):
                sk = MergeableSketch.from_bytes(r[name])
                err = sketch_error(sk, hashed, svalues)
                if err > gate_bounds(sk):
                    raise GateError(f"group {r['g']} {name} error {err} > "
                                    f"bound {gate_bounds(sk)}")

    def record(self) -> dict:
        nbytes = sum(len(r[k]) for r in self.result
                     for k in ("hll", "countmin", "kll", "tdigest"))
        return {"bits_per_element": nbytes * 8 / self.n_rows,
                "final_q": None, "preagg_unique_ratio": self.unique_ratio}


def make(name: str, scale: str):
    sz = SIZES[scale]
    if name == "shingle_index":
        return IndexWorkload(8, sz["shingle_pages"])
    if name == "sketch_udaf":
        return UdafWorkload(sz["udaf_rows"])
    raise SystemExit(f"unknown workload {name!r}; one of "
                     f"{', '.join(WORKLOADS)}")


WORKLOADS = ("shingle_index", "sketch_udaf")
