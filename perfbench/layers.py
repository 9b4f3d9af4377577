"""The traced run: per-layer metrics for one workload.

Three parts, all timed from this file around calls into each layer's public
functions (nothing inside ``bqf_ray`` is instrumented):

1. one traced pipeline run, rebuilt from the public stage functions
   (``build_partitioned`` + ``shingle_key_fn``, ``sketch_agg``), gated like
   a normal run, with the per-operator wall, CPU, rows and bytes read from
   ``Dataset.stats()``;
2. the same job run Ray-free in this one process -- the stream-processing
   baseline that ``stages.ray_overhead_ratio`` divides by;
3. the Ray-free kernel ledger: every kernel timed after a warm-up call, on
   the workload's own keys, plus one ``build_bqf_index`` call on the
   workload's page sample and one ``probe_documents`` call on those pages
   and unseen ones, both gated.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from bqf_ray.functions.hashing import fmix64
from bqf_ray.functions.tokenize import shingle_hashes, token_hashes
from bqf_ray.pipelines.build_index import shingle_key_fn
from bqf_ray.sketches.base import MergeableSketch
from bqf_ray.sketches.bqf import BqfEc, fimpera_from_abundances
from bqf_ray.sketches.countmin import CountMin
from bqf_ray.sketches.hll import HyperLogLog
from bqf_ray.sketches.kll import KLL
from bqf_ray.sketches.tdigest import TDigest
from bqf_ray.stages.sketch_stage import PartitionedSketch, build_partitioned
from bqf_ray.text.extract import ExtractText

import workloads as W

LEDGER_STREAM = 1_000_000   # keys fed to the non-BQF sketches in the ledger
N_PARTIALS = 8              # partial sketches per merge measurement
MIN_TIMED_S = 0.05          # repeat a sub-millisecond kernel to this long


class Spans:
    """In-memory spans: name, parent, start, end (seconds since the first
    span).  A span's self time is its duration minus its children's."""

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[str] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append({"name": name, "parent": parent,
                                 "start": start - self._t0,
                                 "end": end - self._t0})

    def dur(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)

    def summary(self) -> list[dict]:
        out = []
        for r in self.records:
            d = r["end"] - r["start"]
            kids = sum(c["end"] - c["start"] for c in self.records
                       if c["parent"] == r["name"])
            out.append({"name": r["name"], "parent": r["parent"],
                        "dur_s": d, "self_s": d - kids})
        return out


def timed(spans: Spans, name: str, fn, *args, **kw):
    with spans.span(name):
        return fn(*args, **kw)


def batches(table: pa.Table):
    for off in range(0, table.num_rows, W.BATCH):
        yield table.slice(off, W.BATCH)


# --- Dataset.stats() ---------------------------------------------------------

def operator_stats(ds) -> list[dict]:
    """Per-operator wall, CPU, rows and bytes, in execution order."""
    ops = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            ops.append({
                "op": op.operator_name, "sub": bool(op.is_sub_operator),
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                "rows": int((op.output_num_rows or {}).get("sum", 0)),
                "bytes": int((op.output_size_bytes or {}).get("sum", 0)),
            })

    walk(ds._get_stats_summary())
    return ops


def stage_roles(ops: list[dict]) -> dict:
    """Fold operators into read / map / shuffle / build.

    map: the fused map operators before the exchange (ExtractText, key
    hashing and per-batch pre-aggregation) and, for a UDAF, AggregateMap
    (the map-side ``accumulate_block``); shuffle: the exchange sub-operators
    (Repartition*, Sort*) and AggregateReduce (which pulls and merges the
    partial accumulators); build: the operators after the exchange (shard
    build or merge, UDAF finalize).  The exchange volume is the output of
    the operator that feeds the first shuffle operator."""
    roles = {r: {"wall_s": 0.0, "cpu_s": 0.0} for r in
             ("read", "map", "shuffle", "build")}
    after = False
    feed = None
    prev = None
    for op in ops:
        name = op["op"]
        if name.startswith(("Read", "From")):
            role = "read"
        elif name == "AggregateMap":
            role = "map"
        elif op["sub"] or name == "AggregateReduce":
            role = "shuffle"
            if not after and prev is not None:
                feed = prev
            after = True
        else:
            role = "build" if after else "map"
        op["role"] = role
        roles[role]["wall_s"] += op["wall_s"]
        roles[role]["cpu_s"] += op["cpu_s"]
        prev = op
    feed = feed or {"rows": 0, "bytes": 0}
    return {"roles": roles, "shuffle_rows": feed["rows"],
            "shuffle_bytes": feed["bytes"]}


# --- 1. the traced pipeline run -------------------------------------------------

def auto_plan_combine(keys_first_batch: np.ndarray) -> bool:
    """The combine/row choice ``build_bqf_index`` makes from its first
    batch, repeated so the rebuilt pipeline runs the same plan."""
    n = len(np.unique(keys_first_batch))
    return n >= 20_000 and n >= 0.5 * max(len(keys_first_batch), 1)


def traced_build(wl, spans: Spans):
    """build_bqf_index's plan, rebuilt from the public stage functions so
    the Dataset (and its stats) stays in hand."""
    first = pq.read_table(wl.files[0], columns=["html"]).slice(0, W.BATCH)
    keys, _ = shingle_key_fn("text", wl.s)(ExtractText()(first))
    combine = auto_plan_combine(keys)
    with spans.span("plan"):
        ds = build_partitioned(
            W.pages_ds(wl.files), shingle_key_fn("text", wl.s),
            lambda: BqfEc(q=W.Q0, count_size=W.COUNT_BITS),
            num_partitions=W.PARTITIONS, batch_size=W.BATCH, combine=combine,
            partial_factory=lambda: BqfEc(q=W.Q0, count_size=W.COUNT_BITS))
    ds = timed(spans, "execute", ds.materialize)
    with spans.span("collect"):
        shards = {int(r["part"]): MergeableSketch.from_bytes(r["blob"])
                  for r in ds.take_all()}
    return ds, PartitionedSketch(shards, W.PARTITIONS), combine


def finalize_estimates(batch: pa.Table) -> pa.Table:
    """UDAF finalize: decode each group's blobs and read the estimates."""
    out = {"hll_estimate": [], "kll_median": [], "tdigest_median": []}
    for hll, kll, td in zip(batch.column("hll").to_pylist(),
                            batch.column("kll").to_pylist(),
                            batch.column("tdigest").to_pylist()):
        out["hll_estimate"].append(MergeableSketch.from_bytes(hll).estimate())
        out["kll_median"].append(MergeableSketch.from_bytes(kll).quantile(.5))
        out["tdigest_median"].append(
            MergeableSketch.from_bytes(td).quantile(.5))
    for k, v in out.items():
        batch = batch.append_column(k, pa.array(v, pa.float64()))
    return batch


def traced_pipeline(wl, spans: Spans):
    """Returns (gate errors, operator stats, plan record, traced wall)."""
    plan = {}
    with spans.span("traced_rep"):
        if isinstance(wl, W.IndexWorkload):
            ds, psk, plan["combine"] = traced_build(wl, spans)
        else:
            with spans.span("plan"):
                ds = wl.dataset(wl.refs).map_batches(
                    finalize_estimates, batch_format="pyarrow")
            ds = timed(spans, "execute", ds.materialize)
            rows = timed(spans, "collect", ds.take_all)
    errors = []
    try:
        if isinstance(wl, W.IndexWorkload):
            W.gate_index(psk, wl.okeys, wl.ocounts)
        else:
            wl.gate(rows)
    except W.GateError as e:
        errors.append(str(e))
    return errors, operator_stats(ds), plan, spans.dur("traced_rep")


# --- 2. the Ray-free single-process job ------------------------------------------

def single_process_job(wl) -> None:
    """The workload's job in this process, no Ray: the baseline for
    ``stages.ray_overhead_ratio``."""
    if isinstance(wl, W.IndexWorkload):
        table = pq.read_table(wl.files, columns=["html"])
        uks, ucs = [], []
        for b in batches(table):
            keys, _ = shingle_key_fn("text", wl.s)(ExtractText()(b))
            u, c = np.unique(keys, return_counts=True)
            uks.append(u)
            ucs.append(c)
        keys, counts = np.concatenate(uks), np.concatenate(ucs)
        part = keys % np.uint64(W.PARTITIONS)
        for p in range(W.PARTITIONS):
            m = part == p
            u, inv = np.unique(keys[m], return_inverse=True)
            c = np.zeros(len(u), np.uint64)
            np.add.at(c, inv, counts[m].astype(np.uint64))
            sk = BqfEc(q=W.Q0, count_size=W.COUNT_BITS)
            sk.update_batch(u, c)
            sk.to_bytes()
    else:
        table = wl.table
        g = table.column("g").to_numpy()
        items = W.prepare_hash(table.column("item"))
        values = table.column("value").to_numpy()
        for k in range(W.UDAF_GROUPS):
            m = g == k
            for sk, vals in ((HyperLogLog(p=W.HLL_P), items[m]),
                             (CountMin(width=W.CM_WIDTH, depth=W.CM_DEPTH),
                              items[m]),
                             (KLL(k=W.KLL_K), values[m]),
                             (TDigest(delta=W.TD_DELTA), values[m])):
                sk.update_batch(vals)
                sk.to_bytes()


# --- 3. the kernel ledger --------------------------------------------------------

def rate(spans: Spans, name: str, n: float, fn, *args) -> float:
    """n / seconds of ``fn(*args)``, repeated until ``MIN_TIMED_S``."""
    reps, t = 0, 0.0
    with spans.span(name):
        while t < MIN_TIMED_S:
            t0 = time.perf_counter()
            fn(*args)
            t += time.perf_counter() - t0
            reps += 1
    return n * reps / t


def text_ledger(wl, spans: Spans, m: dict) -> None:
    files = wl.ledger_files
    pq.read_table(files[0], columns=["html"])                      # warm-up
    pages = timed(spans, "sources.read", pq.read_table, files,
                  columns=["url", "html"])
    m["sources.read_s"] = (spans.dur("sources.read"), "s")
    m["sources.read_bytes"] = (sum(os.path.getsize(f) for f in files),
                               "bytes")

    ext = ExtractText()
    ext(pages.slice(0, 16))                                        # warm-up
    with spans.span("text.extract"):
        texts = [ext(b).column("text") for b in batches(pages)]
    m["text.extract_rows_per_s"] = (
        pages.num_rows / spans.dur("text.extract"), "rows/s")

    token_hashes(texts[0].slice(0, 16))                            # warm-up
    with spans.span("functions.token_hashes"):
        toks = [token_hashes(t) for t in texts]
    m["functions.token_hashes_keys_per_s"] = (
        sum(len(th) for th, _ in toks) / spans.dur("functions.token_hashes"),
        "keys/s")

    shingle_hashes(*toks[0], 8)                                    # warm-up
    with spans.span("functions.shingle_hashes"):
        shs = [shingle_hashes(th, offs, 8) for th, offs in toks]
    m["functions.shingle_hashes_keys_per_s"] = (
        sum(len(sh) for sh, _ in shs) / spans.dur("functions.shingle_hashes"),
        "keys/s")



def bqf_ledger(wl, spans: Spans, m: dict) -> PartitionedSketch:
    keys, counts = np.unique(wl.key_stream, return_counts=True)
    counts = counts.astype(np.uint64)
    part = keys % np.uint64(W.PARTITIONS)
    groups = [(keys[part == p], counts[part == p])
              for p in range(W.PARTITIONS)]

    def build(k, c):
        sk = BqfEc(q=W.Q0, count_size=W.COUNT_BITS)
        sk.update_batch(k, c)
        sk.query_batch(np.empty(0, np.uint64))      # finishes compaction
        return sk

    build(*groups[0])                                              # warm-up
    with spans.span("sketches.bqf.update"):
        shards = {p: build(k, c) for p, (k, c) in enumerate(groups)}
    m["sketches.bqf.update_keys_per_s"] = (
        len(keys) / spans.dur("sketches.bqf.update"), "keys/s")

    order = np.random.default_rng(0).permutation(len(keys))
    partials = [build(keys[i], counts[i])
                for i in np.array_split(order, N_PARTIALS)]
    timed(spans, "sketches.bqf.merge_many", partials[0].merge_many,
          partials[1:])
    m["sketches.bqf.merge_many_s"] = (spans.dur("sketches.bqf.merge_many"),
                                      "s")

    shards[0].to_bytes()                                           # warm-up
    with spans.span("sketches.bqf.to_bytes"):
        blobs = [sk.to_bytes() for sk in shards.values()]
    mb = sum(len(b) for b in blobs) / 1e6
    m["sketches.bqf.to_bytes_mb_per_s"] = (
        mb / spans.dur("sketches.bqf.to_bytes"), "MB/s")
    MergeableSketch.from_bytes(blobs[0])                           # warm-up
    with spans.span("sketches.bqf.from_bytes"):
        for b in blobs:
            MergeableSketch.from_bytes(b)
    m["sketches.bqf.from_bytes_mb_per_s"] = (
        mb / spans.dur("sketches.bqf.from_bytes"), "MB/s")

    psk = PartitionedSketch(shards, W.PARTITIONS)
    absent = fmix64(np.arange(len(keys) + 1000, dtype=np.uint64)
                    + np.uint64(0x9E3779B97F4A7C15))
    absent = absent[~np.isin(absent, keys)]
    probe = np.concatenate([keys, absent])
    psk.query_batch(probe[:1000])                                  # warm-up
    got = timed(spans, "sketches.bqf.query", psk.query_batch, probe)
    m["sketches.bqf.query_keys_per_s"] = (
        len(probe) / spans.dur("sketches.bqf.query"), "keys/s")
    m["sketches.bqf.fp_rate"] = (float(np.mean(got[len(keys):] > 0)),
                                 "ratio")
    index = getattr(wl, "index", None)      # the UDAF workload has none
    final = index.psketch if index is not None else psk
    m["sketches.bqf.final_q"] = (W.final_q(final), "log2_slots")
    m["sketches.bqf.fp_bound"] = (W.fp_bound(final), "ratio")
    return psk


def other_sketches_ledger(wl, spans: Spans, m: dict) -> None:
    hashed = wl.key_stream[:LEDGER_STREAM]
    if isinstance(wl, W.UdafWorkload):
        values = wl.values[:LEDGER_STREAM]
    else:   # shingle_index: the key hashes as uniform values in [0, 1)
        values = hashed.astype(np.float64) / 2.0 ** 64
    svalues = np.sort(values)
    makers = {
        "hll": (lambda: HyperLogLog(p=W.HLL_P), hashed),
        "countmin": (lambda: CountMin(width=W.CM_WIDTH, depth=W.CM_DEPTH),
                     hashed),
        "kll": (lambda: KLL(k=W.KLL_K), values),
        "tdigest": (lambda: TDigest(delta=W.TD_DELTA), values),
    }
    chunk = 65_536
    for name, (make, stream) in makers.items():
        make().update_batch(stream[:chunk])                        # warm-up
        with spans.span(f"sketches.{name}.update"):
            sk = make()
            for off in range(0, len(stream), chunk):
                sk.update_batch(stream[off:off + chunk])
            sk.to_bytes()              # t-digest compresses lazily
        m[f"sketches.{name}.update_per_s"] = (
            len(stream) / spans.dur(f"sketches.{name}.update"), "items/s")

        parts = []
        for piece in np.array_split(stream, N_PARTIALS):
            p = make()
            p.update_batch(piece)
            parts.append(p)
        with spans.span(f"sketches.{name}.merge"):
            for p in parts[1:]:
                parts[0].merge(p)
            parts[0].to_bytes()
        m[f"sketches.{name}.merge_s"] = (spans.dur(f"sketches.{name}.merge"),
                                         "s")

        blob = sk.to_bytes()
        m[f"sketches.{name}.serde_mb_per_s"] = (
            rate(spans, f"sketches.{name}.serde", len(blob) / 1e6,
                 lambda: MergeableSketch.from_bytes(sk.to_bytes())), "MB/s")
        err = W.sketch_error(sk, stream if name in ("hll", "countmin")
                             else None, svalues)
        m[f"sketches.{name}.error_vs_bound"] = (err / W.gate_bounds(sk),
                                                "ratio")


def pipelines_ledger(wl, spans: Spans, m: dict, psk) -> list[str]:
    """Times fimpera, one ``build_bqf_index`` and one ``probe_documents``;
    returns the gate errors of the built index and of the probe rows."""
    keys, offs = W.stream_keys(wl.ledger_pages.column("text"), wl.s)
    fimpera_from_abundances(psk.query_batch(keys[:offs[1]]),
                            offs[:2], 0)                           # warm-up
    ab = psk.query_batch(keys)
    timed(spans, "pipelines.fimpera", fimpera_from_abundances, ab, offs, 0)
    m["pipelines.fimpera_rows_per_s"] = (
        (len(offs) - 1) / spans.dur("pipelines.fimpera"), "rows/s")

    index = timed(spans, "pipelines.build_bqf_index", W.build_index,
                  wl.ledger_files, wl.s)
    m["pipelines.build_bqf_index_s"] = (
        spans.dur("pipelines.build_bqf_index"), "s")
    docs = W.pages_ds(wl.probe_files, columns=("url", "html"))
    with spans.span("pipelines.probe_documents"):
        rows = index.probe_documents(docs, id_col="url",
                                     concurrency=1).take_all()
    m["pipelines.probe_documents_s"] = (
        spans.dur("pipelines.probe_documents"), "s")

    errors = []
    try:
        W.gate_index(index.psketch, wl.ledger_okeys, wl.ledger_ocounts)
        W.gate_probe(rows, wl.probe_expect, W.fp_bound(index.psketch))
    except W.GateError as e:
        errors.append(f"pipelines: {e}")
    return errors


# --- the traced run ----------------------------------------------------------

def traced_run(wl, untraced_wall_s: float, record: dict
               ) -> tuple[bool, dict, dict]:
    """Returns (traced rep passed its gate, per-layer metrics, detail)."""
    spans = Spans()
    errors, ops, plan, traced_wall = traced_pipeline(wl, spans)
    st = stage_roles(ops)
    m: dict = {}
    for role in ("map", "shuffle", "build"):
        m[f"stages.{role}_s"] = (st["roles"][role]["wall_s"], "s")
        m[f"stages.{role}_cpu_s"] = (st["roles"][role]["cpu_s"], "s")
    m["stages.shuffle_rows"] = (st["shuffle_rows"], "rows")
    m["stages.shuffle_bytes"] = (st["shuffle_bytes"], "bytes")
    m["stages.preagg_unique_ratio"] = (wl.unique_ratio, "ratio")

    with spans.span("single_process"):
        single_process_job(wl)
    m["stages.ray_overhead_ratio"] = (
        untraced_wall_s / spans.dur("single_process"), "ratio")
    m["trace.overhead_s"] = (traced_wall - untraced_wall_s, "s")

    with spans.span("ledger"):
        text_ledger(wl, spans, m)
        psk = bqf_ledger(wl, spans, m)
        other_sketches_ledger(wl, spans, m)
        errors += pipelines_ledger(wl, spans, m, psk)

    info = {"plan": plan, "final_q": record.get("final_q"),
            "untraced_rep_s": untraced_wall_s,
            "traced_rep_s": traced_wall,
            "operators": ops, "spans": spans.summary(),
            "gate_errors": errors}
    return not errors, m, info
