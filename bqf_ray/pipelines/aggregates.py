"""Grouped-aggregate pipelines: token counts (exact and BQF-backed),
distinct counts (exact and HLL), heavy hitters (Count-Min backed +
exact oracle shape), quantiles (t-digest / KLL), and a TPC-H-Q1-style
relational rollup used as the generic-aggregate smoke.

All wide steps pre-aggregate inside ``map_batches`` (pyarrow group_by per
batch) before the Ray ``groupby`` shuffle, so the exchange carries
per-batch-unique keys only (ray_guide 'Aggregation at scale').
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bqf_ray.functions.tokenize import tokenize_column
from bqf_ray.stages.partition import exchange


def _explode_tokens(batch: pa.Table, text_col: str) -> pa.Table:
    toks, _ = tokenize_column(batch.column(text_col))
    t = pa.table({"token": toks, "n": np.ones(len(toks), dtype=np.int64)})
    return t.group_by(["token"]).aggregate([("n", "sum")]).rename_columns(
        ["token", "partial"])


def token_counts(ds, text_col: str = "text", cap: int | None = None):
    """(token, cnt) over whitespace tokens — exact grouped count.
    ``cap`` saturates counts (the BQF-ec backpack semantics,
    /root/reference/src/bqf_ec.cpp:148-150) for oracle parity with
    :func:`bqf_token_counts`."""
    from ray.data.aggregate import Sum

    agg = (ds.map_batches(lambda b: _explode_tokens(b, text_col),
                          batch_format="pyarrow")
           .groupby("token").aggregate(Sum("partial", alias_name="cnt")))

    if cap is None:
        return agg

    def apply_cap(batch: pa.Table) -> pa.Table:
        c = np.minimum(np.asarray(batch.column("cnt"), dtype=np.int64), cap)
        return batch.set_column(batch.schema.get_field_index("cnt"),
                                "cnt", pa.array(c))

    return agg.map_batches(apply_cap, batch_format="pyarrow")


def bqf_token_counts(ds, text_col: str = "text", count_size: int = 8,
                     num_partitions: int = 8, q: int = 12):
    """(token, cnt) where cnt comes out of a partitioned BQF built over the
    corpus — end-to-end build+probe with the exact saturated-count oracle
    LEAST(count(*), 2^c−1).  Distinct tokens come from an exact pass; their
    counts come from the sketch."""
    import ray
    from bqf_ray.functions.hashing import xxhash64_array
    from bqf_ray.pipelines.build_index import build_bqf_index

    idx = build_bqf_index(ds, text_col=text_col, s=1, q=q,
                          count_size=count_size,
                          num_partitions=num_partitions)
    ref = ray.put(idx.psketch)

    class ProbeCounts:
        def __init__(self):
            self.sk = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            keys = xxhash64_array(batch.column("token"))
            cnt = self.sk.query_batch(keys).astype(np.int64)
            return pa.table({"token": batch.column("token"),
                             "cnt": pa.array(cnt)})

    return (distinct_values(ds, text_col)
            .map_batches(ProbeCounts, batch_format="pyarrow",
                         batch_size=4096, concurrency=2))


def distinct_values(ds, text_col: str = "text"):
    """Dataset[(token)] — distinct whitespace tokens via per-batch unique +
    one native (vectorized) groupby-count, no python-per-group work."""
    from ray.data.aggregate import Count

    def uniq(batch: pa.Table) -> pa.Table:
        toks, _ = tokenize_column(batch.column(text_col))
        return pa.table({"token": pc.unique(toks)})

    return (ds.map_batches(uniq, batch_format="pyarrow")
            .groupby("token").aggregate(Count(alias_name="__c"))
            .drop_columns(["__c"]))


def distinct_tokens_exact(ds, text_col: str = "text"):
    """Single-row Dataset: exact COUNT(DISTINCT token)."""
    from ray.data.aggregate import Count

    counted = (ds.map_batches(lambda b: _explode_tokens(b, text_col),
                              batch_format="pyarrow")
               .groupby("token").aggregate(Count(alias_name="c")))
    n = counted.count()

    import ray
    return ray.data.from_arrow(pa.table({"n_distinct": pa.array([n], pa.int64())}))


def distinct_tokens_check(ds, sketch_factories: dict, text_col: str = "text",
                          num_buckets: int = 16):
    """Exact COUNT(DISTINCT token) AND any set of hash-keyed distinct
    sketches in ONE tokenize pass + ONE bucketed shuffle.

    The separate-pass plan (``distinct_tokens_exact`` then a sketch
    build) tokenizes the corpus twice; tokenization dominates at bench
    scale, so bound-verification queries pay ~2×.  Here each batch ships
    its batch-DISTINCT tokens once, bucketed by ``hash(token) %
    num_buckets``; hash-bucketing partitions the token space, so
    per-bucket distinct counts ADD exactly and per-bucket sketch
    partials merge.  Returns ``(n_exact, {name: sketch})``.  Size
    ``num_buckets`` to the vocabulary (each bucket task deduplicates
    ~vocab/num_buckets strings).
    """
    import ray

    from bqf_ray.functions.hashing import xxhash64_array
    from bqf_ray.sketches.base import MergeableSketch

    names = sorted(sketch_factories)

    def pre(batch: pa.Table) -> pa.Table:
        toks, _ = tokenize_column(batch.column(text_col))
        uniq = pc.unique(toks)
        return pa.table({"token": uniq,
                         "__h": pa.array(xxhash64_array(uniq))})

    def merge_bucket(group: pa.Table) -> pa.Table:
        import pandas as pd
        toks = np.asarray(group.column("token"))
        h = np.asarray(group.column("__h"), dtype=np.uint64)
        codes, uniq = pd.factorize(toks)
        _, first = np.unique(codes, return_index=True)
        hu = h[first]
        cols = {"n_distinct": pa.array([len(uniq)], pa.int64())}
        for name in names:
            sk = sketch_factories[name]()
            sk.update_batch(hu)
            cols[f"__blob_{name}"] = pa.array([sk.to_bytes()], pa.binary())
        return pa.table(cols)

    rows = exchange(ds.map_batches(pre, batch_format="pyarrow"),
                    merge_bucket, "token", num_buckets
                    ).take_all()               # ≤ num_buckets tiny rows
    n_exact = int(sum(r["n_distinct"] for r in rows))
    sketches = {}
    for name in names:
        parts = [MergeableSketch.from_bytes(r[f"__blob_{name}"]) for r in rows]
        if parts:
            sketches[name] = parts[0].merge_many(parts[1:])
        else:
            sketches[name] = sketch_factories[name]()
    return n_exact, sketches


def heavy_hitters(ds, text_col: str = "text", top: int = 20,
                  eps: float = 1e-4, delta: float = 1e-3,
                  candidate_factor: int = 3):
    """EXACT top-k tokens at sketch cost: the textbook two-phase heavy-
    hitter plan.  Phase 1 scores every distinct token against a Count-Min
    sketch and keeps a ``candidate_factor×top`` candidate set via
    PER-BLOCK top-k partials + one tiny merge (no global sort — r1
    verdict #9).  Phase 2 exactly recounts ONLY the candidates in one
    corpus pass (candidate list broadcast via ``ray.put``) and returns
    the true top-k ordered by (cnt DESC, token) — so the output is
    oracle-checkable whenever CM's one-sided ≤ εN error keeps the true
    top-k inside the candidate buffer (holds whp; pytest-checked)."""
    import ray
    from ray.data.aggregate import Sum
    from bqf_ray.functions.hashing import xxhash64_array
    from bqf_ray.functions.tokenize import tokenize_column
    from bqf_ray.pipelines.build_index import shingle_key_fn
    from bqf_ray.sketches.countmin import CountMin
    from bqf_ray.stages.sketch_stage import build_sketch

    k_cand = top * candidate_factor
    cm = build_sketch(ds, shingle_key_fn(text_col, 1, 0),
                      lambda: CountMin.from_error(eps, delta, seed=3))
    ref = ray.put(cm)

    class EstimateTopK:
        def __init__(self):
            self.cm = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            keys = xxhash64_array(batch.column("token"))
            est = self.cm.query_batch(keys).astype(np.int64)
            toks = np.asarray(batch.column("token")).astype("U")
            idx = np.lexsort((toks, -est))[:k_cand]
            return pa.table({"token": batch.column("token").take(pa.array(idx)),
                             "est": pa.array(est[idx])})

    # per-block partials → repartition(1) → one more partial pass = global
    # top-k_cand without sorting all distinct tokens
    cand_rows = (distinct_values(ds, text_col)
                 .map_batches(EstimateTopK, batch_format="pyarrow",
                              concurrency=2)
                 .repartition(1)
                 .map_batches(EstimateTopK, batch_format="pyarrow",
                              batch_size=None, concurrency=1)
                 .take_all())
    cand = sorted(r["token"] for r in cand_rows)
    cand_ref = ray.put(np.array(cand))

    class CountCandidates:
        """Membership via sorted candidate-HASH searchsorted (no string
        comparisons in the corpus pass; the tiny hit set is counted by
        string)."""

        def __init__(self):
            self.cand = ray.get(cand_ref)
            self.cand_h = np.sort(xxhash64_array(self.cand.tolist()))

        def __call__(self, batch: pa.Table) -> pa.Table:
            toks, _ = tokenize_column(batch.column(text_col))
            if len(toks) == 0:
                return pa.table({"token": pa.array([], pa.string()),
                                 "n": pa.array([], pa.int64())})
            h = xxhash64_array(toks)
            pos = np.searchsorted(self.cand_h, h)
            hit = pos < len(self.cand_h)
            hit &= self.cand_h[np.minimum(pos, len(self.cand_h) - 1)] == h
            arr = toks.filter(pa.array(hit)).to_numpy(zero_copy_only=False)
            uniq, cnt = np.unique(arr, return_counts=True)
            return pa.table({"token": pa.array(uniq.tolist(), pa.string()),
                             "n": pa.array(cnt.astype(np.int64))})

    exact = (ds.map_batches(CountCandidates, batch_format="pyarrow",
                            concurrency=2)
             .groupby("token").aggregate(Sum("n", alias_name="cnt")))

    # final selection: the exact table is candidate-bounded (≤ k_cand rows
    # globally), so one local sort replaces a distributed sort+limit
    def final_topk(batch: pa.Table) -> pa.Table:
        cnt = np.asarray(batch.column("cnt"), dtype=np.int64)
        tok = batch.column("token").to_numpy(zero_copy_only=False).astype("U")
        order = np.lexsort((tok, -cnt))[:top]
        return batch.take(pa.array(order))

    return exact.repartition(1).map_batches(final_topk,
                                            batch_format="pyarrow",
                                            batch_size=None)


def value_quantiles(ds, value_col: str, qs=(0.01, 0.25, 0.5, 0.75, 0.99),
                    method: str = "tdigest"):
    """Approximate quantiles of a numeric column via one t-digest, KLL
    or DDSketch (:func:`build_sketch`).  Returns {q: estimate}."""
    from bqf_ray.sketches.kll import KLL
    from bqf_ray.sketches.tdigest import TDigest
    from bqf_ray.stages.sketch_stage import build_sketch

    def key_fn(batch: pa.Table):
        vals = np.asarray(batch.column(value_col), dtype=np.float64)
        return vals, None

    from bqf_ray.sketches.ddsketch import DDSketch

    factory = {"tdigest": lambda: TDigest(delta=300),
               "kll": lambda: KLL(k=400, seed=11),
               "ddsketch": lambda: DDSketch(alpha=0.01)}[method]
    sk = build_sketch(ds, key_fn, factory)
    return {float(q): float(sk.quantile(q)) for q in qs}


def grouped_quantiles(ds, group_col: str, value_col: str,
                      qs=(0.25, 0.5, 0.75), method: str = "tdigest"):
    """Per-group approximate quantiles: one t-digest/KLL per group from
    ``groupby(group_col).aggregate(sketch_agg(...))`` — mappers build
    one partial per (block, group) and only those blobs cross the
    exchange, so hot groups need no salting.  Null and NaN values are
    dropped.  Returns Dataset[(group_col, q: str, estimate: float64)]."""
    from bqf_ray.sketches.base import MergeableSketch
    from bqf_ray.sketches.kll import KLL
    from bqf_ray.sketches.tdigest import TDigest
    from bqf_ray.stages.udaf import sketch_agg

    factory = (lambda: TDigest(delta=300)) if method == "tdigest" \
        else (lambda: KLL(k=400, seed=11))
    blobs = ds.groupby(group_col).aggregate(
        sketch_agg(factory, on=value_col, prepare="value", name="blob"))
    qlist = [float(q) for q in qs]

    def finalize(batch: pa.Table) -> pa.Table:
        groups, qcol, est = [], [], []
        for g, blob in zip(batch.column(group_col).to_pylist(),
                           batch.column("blob").to_pylist()):
            sk = MergeableSketch.from_bytes(blob)
            for q in qlist:
                groups.append(g)
                qcol.append(f"{q:.2f}")
                est.append(float(sk.quantile(q)))
        return pa.table({group_col: pa.array(groups),
                         "q": pa.array(qcol, pa.string()),
                         "estimate": pa.array(est, pa.float64())})

    return blobs.map_batches(finalize, batch_format="pyarrow")


def pricing_summary(ds):
    """TPC-H-Q1-style rollup over lineitem (generic-aggregate smoke):
    per (l_returnflag, l_linestatus): sum_qty, sum_base_price, sum_disc_price,
    avg_qty, count_order — pre-aggregated per batch, tiny final shuffle.

    Money sums accumulate as pre-rounded integer cents
    (``floor(x*100 + 0.5)``) so results are bit-identical regardless of
    summation order — the determinism contract shared with the SQL oracle.
    """

    def _cents(x: np.ndarray) -> np.ndarray:
        return np.floor(x * 100 + 0.5).astype(np.int64)

    def pre(batch: pa.Table) -> pa.Table:
        qty = np.asarray(batch.column("l_quantity"))
        price = np.asarray(batch.column("l_extendedprice"))
        disc = np.asarray(batch.column("l_discount"))
        t = pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "c_qty": pa.array(_cents(qty)),
            "c_base": pa.array(_cents(price)),
            "c_disc": pa.array(_cents(price * (1.0 - disc))),
            "count_order": pa.array(np.ones(len(batch), dtype=np.int64)),
        })
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("c_qty", "sum"), ("c_base", "sum"),
             ("c_disc", "sum"), ("count_order", "sum")]).rename_columns(
            ["l_returnflag", "l_linestatus", "c_qty", "c_base",
             "c_disc", "count_order"])

    from ray.data.aggregate import Sum

    from bqf_ray.stages.partition import bucketed_agg
    agg = bucketed_agg(ds.map_batches(pre, batch_format="pyarrow"),
                       ["l_returnflag", "l_linestatus"],
                       [("c_qty", "sum", "c_qty"),
                        ("c_base", "sum", "c_base"),
                        ("c_disc", "sum", "c_disc"),
                        ("count_order", "sum", "count_order")])

    def final(batch: pa.Table) -> pa.Table:
        c_qty = np.asarray(batch.column("c_qty"), dtype=np.int64)
        c_base = np.asarray(batch.column("c_base"), dtype=np.int64)
        c_disc = np.asarray(batch.column("c_disc"), dtype=np.int64)
        n = np.asarray(batch.column("count_order"), dtype=np.int64)
        return pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "sum_qty": pa.array(c_qty / 100.0, pa.float64()),
            "sum_base_price": pa.array(c_base / 100.0, pa.float64()),
            "sum_disc_price": pa.array(c_disc / 100.0, pa.float64()),
            "avg_qty": pa.array((c_qty / 100.0) / n, pa.float64()),
            "count_order": pa.array(n),
        })

    return agg.map_batches(final, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# multi-level rollup (GROUP BY ROLLUP) in one shuffle
# ---------------------------------------------------------------------------

def rollup_aggregate(ds, group_cols: list[str], value_col: str):
    """``GROUP BY ROLLUP(group_cols)`` over an int64 value: every prefix
    level — (c1..ck), (c1..ck-1), …, () — aggregated (n, total) in ONE
    shuffle.

    Per batch, a local group-by runs once per level and collapsed key
    columns are set to a sentinel; the union of all levels' partials
    rides one ``groupby`` exchange keyed on the full key tuple + level.
    The exchange carries at most ``levels × per-batch-distinct-groups``
    rows — identical asymptotics to a single-level pre-aggregated
    groupby since each coarser level is strictly smaller.  Collapsed
    keys come back as NULL (SQL ROLLUP semantics); ``total`` is an
    exact integer sum (the oracle float convention leaves ratios to the
    caller)."""
    from ray.data.aggregate import Sum

    SENT = "\x00ALL\x00"              # never a real key value
    K = len(group_cols)
    assert K >= 1

    def pre(batch: pa.Table) -> pa.Table:
        base = pa.table({
            **{c: pc.cast(batch.column(c), pa.string())
               for c in group_cols},
            "n": np.ones(batch.num_rows, dtype=np.int64),
            "tot": pc.cast(batch.column(value_col), pa.int64()),
        })
        parts = []
        for lvl in range(K + 1):           # lvl = number of kept cols
            t = base
            for c in group_cols[lvl:]:
                # list-built, not np.full: numpy's U dtype truncates
                # embedded NULs, silently collapsing the sentinel
                t = t.set_column(
                    t.schema.get_field_index(c), c,
                    pa.array([SENT] * t.num_rows, pa.string()))
            g = (t.group_by(group_cols)
                 .aggregate([("n", "sum"), ("tot", "sum")])
                 .rename_columns(group_cols + ["pn", "ptot"]))
            parts.append(g.append_column(
                "__lvl", pa.array(np.full(g.num_rows, lvl, dtype=np.int64))))
        return pa.concat_tables(parts)

    agg = (ds.map_batches(pre, batch_format="pyarrow")
           .groupby(group_cols + ["__lvl"])
           .aggregate(Sum("pn", alias_name="n"),
                      Sum("ptot", alias_name="total")))

    def finish(batch: pa.Table) -> pa.Table:
        lvl = np.asarray(batch.column("__lvl"), dtype=np.int64)
        cols = {}
        for i, c in enumerate(group_cols):
            arr = batch.column(c)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            # collapsed ⟺ the level kept fewer than i+1 columns — no
            # string compare, so sentinel mangling can't corrupt output
            cols[c] = pc.if_else(pa.array(lvl > i),
                                 arr, pa.scalar(None, pa.string()))
        cols["n"] = pc.cast(batch.column("n"), pa.int64())
        cols["total"] = pc.cast(batch.column("total"), pa.int64())
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow")


def grouping_sets_aggregate(ds, group_cols: list[str], value_col: str,
                            sets: list[tuple[str, ...]]):
    """``GROUP BY GROUPING SETS (...)`` over an int64 value in ONE
    shuffle — the arbitrary-subset generalization of
    :func:`rollup_aggregate` (ROLLUP = the prefix chain, CUBE = all
    2^K subsets via :func:`cube_aggregate`).

    Per batch, a local group-by runs once per grouping set with the
    collapsed key columns replaced by a sentinel; all sets' partials
    share one ``groupby`` exchange keyed on the full key tuple plus the
    set index.  The exchange carries at most ``len(sets) ×
    per-batch-distinct-groups`` pre-aggregated rows — each coarser set
    is strictly smaller than the finest, so asymptotics match a single
    pre-aggregated groupby; no second pass, no per-set re-read of the
    input (a naive SQL-engine plan reads the table once per set).
    Collapsed keys return as NULL.  Duplicate sets are rejected (SQL
    would emit duplicate rows; one exchange keyed on (keys, set) can't).
    """
    from ray.data.aggregate import Sum

    SENT = "\x00ALL\x00"              # never a real key value
    K = len(group_cols)
    assert K >= 1
    norm = [tuple(c for c in group_cols if c in set(s)) for s in sets]
    assert len(set(norm)) == len(norm), "duplicate grouping sets"
    for s in sets:
        assert set(s) <= set(group_cols), f"unknown column in set {s}"
    # keep[si][ci] — does set si keep column ci?
    keep = np.array([[c in set(s) for c in group_cols] for s in norm],
                    dtype=bool)

    def pre(batch: pa.Table) -> pa.Table:
        base = pa.table({
            **{c: pc.cast(batch.column(c), pa.string())
               for c in group_cols},
            "n": np.ones(batch.num_rows, dtype=np.int64),
            "tot": pc.cast(batch.column(value_col), pa.int64()),
        })
        parts = []
        for si in range(len(norm)):
            t = base
            for ci, c in enumerate(group_cols):
                if not keep[si, ci]:
                    t = t.set_column(
                        t.schema.get_field_index(c), c,
                        pa.array([SENT] * t.num_rows, pa.string()))
            g = (t.group_by(group_cols)
                 .aggregate([("n", "sum"), ("tot", "sum")])
                 .rename_columns(group_cols + ["pn", "ptot"]))
            parts.append(g.append_column(
                "__set", pa.array(np.full(g.num_rows, si, dtype=np.int64))))
        return pa.concat_tables(parts)

    agg = (ds.map_batches(pre, batch_format="pyarrow")
           .groupby(group_cols + ["__set"])
           .aggregate(Sum("pn", alias_name="n"),
                      Sum("ptot", alias_name="total")))

    def finish(batch: pa.Table) -> pa.Table:
        si = np.asarray(batch.column("__set"), dtype=np.int64)
        cols = {}
        for ci, c in enumerate(group_cols):
            arr = batch.column(c)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            # collapsed ⟺ this row's set dropped the column — membership
            # lookup, never a sentinel string compare
            cols[c] = pc.if_else(pa.array(keep[si, ci]),
                                 arr, pa.scalar(None, pa.string()))
        cols["n"] = pc.cast(batch.column("n"), pa.int64())
        cols["total"] = pc.cast(batch.column("total"), pa.int64())
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow")


def cube_aggregate(ds, group_cols: list[str], value_col: str):
    """``GROUP BY CUBE(group_cols)`` — all 2^K grouping sets in one
    shuffle (see :func:`grouping_sets_aggregate`).  K is bounded by the
    caller (2^K local group-bys per batch); typical analytic cubes are
    K ≤ 4."""
    from itertools import combinations
    K = len(group_cols)
    sets = [tuple(s) for r in range(K + 1)
            for s in combinations(group_cols, r)]
    return grouping_sets_aggregate(ds, group_cols, value_col, sets)


def pivot_counts(ds, key_col: str, cat_col: str, categories: list[str],
                 value_col: str | None = None, other: str | None = "other"):
    """Pivot a category column into per-category aggregate columns:
    one output row per ``key_col`` with ``n_<cat>`` counts (or exact
    int64 sums of ``value_col``).  Categories outside ``categories``
    fold into ``n_<other>`` (dropped when ``other=None``); null keys
    are excluded (documented deviation from SQL's null group).

    The pre-aggregation pivots INSIDE each batch (one int64 column per
    category), so the exchange carries per-batch-distinct keys ×
    (#categories) integers — never raw rows; the reduce is a
    hash-bucketed ``map_groups`` with the same vectorized scatter (the
    repo's standard many-unique-keys shape — Ray's native per-key
    multi-aggregate measured ~10× slower at 10M rows × 200k keys)."""
    cats = list(categories)
    names = [f"n_{c}" for c in cats] + \
        ([f"n_{other}"] if other is not None else [])

    def _pivot_tbl(keys, kcodes, nuniq, ccodes, vals):
        ncols = len(cats) + 1
        flat = np.zeros(nuniq * ncols, dtype=np.int64)
        np.add.at(flat, kcodes * ncols + ccodes, vals)
        mat = flat.reshape(nuniq, ncols)
        cols = {key_col: keys}
        for i, c in enumerate(cats):
            cols[f"n_{c}"] = pa.array(mat[:, i])
        if other is not None:
            cols[f"n_{other}"] = pa.array(mat[:, len(cats)])
        return pa.table(cols)

    def pre(batch: pa.Table) -> pa.Table:
        import pandas as pd
        # null keys: np.asarray of an int column with nulls promotes to
        # float64/NaN, factorize codes NaN as -1, and the -1 wraps the
        # scatter index to the LAST key's columns — silent corruption.
        # Drop null-key rows here (SQL GROUP BY would keep a null
        # group; this operator documents null keys as excluded).
        kc = batch.column(key_col)
        key_type = kc.type
        if kc.null_count:
            batch = batch.filter(pc.is_valid(batch.column(key_col)))
        keys = np.asarray(batch.column(key_col))
        cat = np.asarray(batch.column(cat_col)).astype("U")
        vals = (pc.cast(batch.column(value_col), pa.int64()).to_numpy(
            zero_copy_only=False)
            if value_col is not None
            else np.ones(batch.num_rows, dtype=np.int64))
        kcodes, kuniq = pd.factorize(keys)
        ccodes = np.full(len(cat), len(cats), dtype=np.int64)  # = other
        for i, c in enumerate(cats):
            ccodes[cat == c] = i
        karr = pa.array(kuniq)
        if pa.types.is_null(karr.type):
            # an all-null-key batch must keep the key column's real
            # type or blocks disagree at the shuffle
            karr = karr.cast(key_type)
        return _pivot_tbl(karr, kcodes, len(kuniq), ccodes, vals)

    def merge_bucket(group: pa.Table) -> pa.Table:
        import pandas as pd
        keys = np.asarray(group.column(key_col))
        kcodes, kuniq = pd.factorize(keys)
        ncols = len(cats) + 1
        flat = np.zeros(len(kuniq) * ncols, dtype=np.int64)
        for j, n in enumerate(names):
            col = np.asarray(group.column(n), dtype=np.int64)
            np.add.at(flat, kcodes * ncols + j, col)
        mat = flat.reshape(len(kuniq), ncols)
        cols = {key_col: pa.array(kuniq)}
        for j, n in enumerate(names):
            cols[n] = pa.array(mat[:, j])
        return pa.table(cols)

    return exchange(ds.map_batches(pre, batch_format="pyarrow"),
                    merge_bucket, key_col, 32)


def global_top_n(ds, sort_cols: list[str], n: int,
                 descending: bool | list[bool] = True):
    """Global ORDER BY ... LIMIT n without a global sort: every block
    keeps its local top-n (vectorized lexsort), partials funnel to one
    final top-n.  The exchange carries ≤ n rows per block — at 100 TB a
    full ``ds.sort`` all-to-all for a LIMIT query is pure waste.  Ties
    must be broken by including a unique column in ``sort_cols`` (SQL
    determinism requirement applies to the oracle too)."""
    desc = ([descending] * len(sort_cols) if isinstance(descending, bool)
            else list(descending))
    assert len(desc) == len(sort_cols)

    def _key(batch: pa.Table, c: str, d: bool) -> np.ndarray:
        arr = batch.column(c)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        # dense tie-preserving ranks work for ANY comparable dtype
        # (datetime64 can't be negated; uint64 negation wraps; string
        # needs codes anyway) and are safely negatable for descending
        _, inv = np.unique(np.asarray(arr), return_inverse=True)
        k = inv.astype(np.int64)
        return -k if d else k

    def topn(batch: pa.Table) -> pa.Table:
        keys = [_key(batch, c, d) for c, d in zip(sort_cols, desc)]
        order = np.lexsort(tuple(reversed(keys)))[:n]
        return batch.take(pa.array(order, pa.int64()))

    return (ds.map_batches(topn, batch_format="pyarrow", batch_size=None)
            .repartition(1)
            .map_batches(topn, batch_format="pyarrow", batch_size=None))


def grouped_top_n(ds, key_col: str, sort_cols: list[str], n: int,
                  descending: bool | list[bool] = True,
                  rank_col: str | None = "rk", num_buckets: int = 32):
    """Per-key ``ORDER BY ... LIMIT n`` (the rank-within-group window
    shape) WITHOUT materializing any whole group: every block keeps its
    local per-key top-n (any row in a key's global top-n is also top-n
    within its own block — the lossless subset-top-k argument of
    :func:`global_top_n`), then ONE key-hash-bucketed exchange carrying
    ≤ n rows per (block, key) feeds an exact per-bucket selection.  A
    ``groupby(key).map_groups(head)`` by contrast holds each whole
    group as one task's DataFrame — a hot key (20% of a corpus in one
    language) OOMs that worker at scale.

    Ties must be broken by a unique column in ``sort_cols`` (same SQL
    determinism requirement as the oracle).  Rows with a NULL key or a
    NULL/NaN sort value are excluded.  Appends ``rank_col`` = 1..n per
    key unless None.
    """
    desc = ([descending] * len(sort_cols) if isinstance(descending, bool)
            else list(descending))
    assert len(desc) == len(sort_cols)
    nn = int(n)

    def _codes(tbl: pa.Table, c: str) -> np.ndarray:
        arr = tbl.column(c)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        # dense tie-preserving codes: comparable for any dtype and
        # safely negatable for descending (see global_top_n)
        return np.unique(np.asarray(arr),
                         return_inverse=True)[1].astype(np.int64)

    def _drop_invalid(tbl: pa.Table) -> pa.Table:
        keep = pc.is_valid(tbl.column(key_col))
        for c in sort_cols:
            col = tbl.column(c)
            v = pc.is_valid(col)
            if pa.types.is_floating(col.type):
                v = pc.and_(v, pc.invert(pc.is_nan(pc.fill_null(col, 0.0))))
            keep = pc.and_(keep, v)
        return tbl.filter(keep)

    def _topn(tbl: pa.Table, rank: bool) -> pa.Table:
        if tbl.num_rows == 0:
            if rank and rank_col:
                return tbl.append_column(rank_col,
                                         pa.array([], pa.int64()))
            return tbl
        kc = _codes(tbl, key_col)
        keys = []
        for c, d in zip(sort_cols, desc):
            code = _codes(tbl, c)
            keys.append(-code if d else code)
        order = np.lexsort(tuple(reversed([kc] + keys)))
        kk = kc[order]
        idx = np.arange(len(kk), dtype=np.int64)
        new = np.concatenate([[True], kk[1:] != kk[:-1]])
        run_start = np.maximum.accumulate(np.where(new, idx, 0))
        pos = idx - run_start
        keep = pos < nn
        out = tbl.take(pa.array(order[keep], pa.int64()))
        if rank and rank_col:
            out = out.append_column(rank_col, pa.array(pos[keep] + 1))
        return out

    def partial(batch: pa.Table) -> pa.Table:
        return _topn(_drop_invalid(batch), rank=False)

    def final(group: pa.Table) -> pa.Table:
        return _topn(group, rank=True)

    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    final, key_col, num_buckets)


def grouped_exact_quantiles(ds, key_col: str, value_col: str,
                            qs: tuple = (0.25, 0.5, 0.75),
                            num_buckets: int = 32):
    """EXACT per-group PERCENTILE_DISC quantiles — pure value SELECTION
    (element at ``ceil(q·n)−1`` of the sorted group, the SQL
    ``quantile_disc`` rule): no arithmetic touches the values, so
    results are bit-exact over float64 and over integers up to 2^53
    (values travel through a float64 cast — pre-scale wider integers
    or keep them as floats upstream).  The exact companion to the sketch-backed
    :func:`grouped_quantiles` (KLL bounds, one blob per batch): this one
    shuffles the ROWS (one key-hash-bucketed exchange) and is the right
    tool when groups fit per-bucket memory and exactness is required;
    the sketch path is the 100-TB default.

    Output ``(key_col, n, q_25, q_50, ... )`` — one column per q, named
    by percentage.  Nulls/NaNs in ``value_col`` are excluded.
    """
    q_arr = np.asarray(qs, dtype=np.float64)
    if len(q_arr) and (q_arr.min() < 0.0 or q_arr.max() > 1.0):
        raise ValueError("q outside [0, 1]")
    q_names = [f"q_{int(round(q * 100))}" for q in qs]
    if len(set(q_names)) != len(q_names):
        raise ValueError(f"qs collide on percent names ({q_names})")

    def quantiles_bucket(group: pa.Table) -> pa.Table:
        k = group.column("k")
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        v = np.asarray(group.column("v"), dtype=np.float64)
        if len(v) == 0:
            cols = {key_col: k.slice(0, 0), "n": pa.array([], pa.int64())}
            for name in q_names:
                cols[name] = pa.array([], pa.float64())
            return pa.table(cols)
        # sort rows by (key, value): key via sort_indices on a table so
        # string keys work; runs are per-key sorted value slices
        t = pa.table({"k": k, "v": pa.array(v)})
        idx = pc.sort_indices(t, sort_keys=[("k", "ascending"),
                                            ("v", "ascending")])
        ks = t.column("k").take(idx)
        if isinstance(ks, pa.ChunkedArray):
            ks = ks.combine_chunks()
        vs = np.asarray(t.column("v").take(idx), dtype=np.float64)
        n = len(vs)
        new = _sorted_run_starts(ks)
        starts = np.flatnonzero(new)
        lens = np.diff(np.concatenate([starts, [n]]))
        cols = {key_col: ks.take(pa.array(starts)),
                "n": pa.array(lens.astype(np.int64))}
        for q, name in zip(q_arr, q_names):
            sel = np.maximum(np.ceil(q * lens).astype(np.int64) - 1, 0)
            cols[name] = pa.array(vs[starts + np.minimum(sel, lens - 1)])
        return pa.table(cols)

    return exchange(_valued_rows(ds, key_col, value_col), quantiles_bucket,
                    "k", num_buckets)


def _valued_rows(ds, key_col: str, value_col: str):
    """``(k, v float64)`` rows with a non-null, non-NaN value — the
    exact-quantile projection."""

    def prep(batch: pa.Table) -> pa.Table:
        col = batch.column(value_col)
        mask = pc.is_valid(col)
        if pa.types.is_floating(col.type):
            mask = pc.and_(mask, pc.invert(pc.is_nan(col)))
        batch = batch.filter(mask)
        return pa.table({"k": batch.column(key_col),
                         "v": pc.cast(batch.column(value_col),
                                      pa.float64())})

    return ds.map_batches(prep, batch_format="pyarrow")


def iqr_outliers(ds, key_col: str, value_col: str, id_col: str,
                 factor: float = 1.5, num_buckets: int = 32):
    """Per-group IQR outlier detection (Tukey fence): rows with
    ``value > q75 + factor·(q75 − q25)`` of their group.  Composes
    :func:`grouped_exact_quantiles` (selection-exact, one exchange) with
    a broadcast filter pass — the quantile table ships ONCE via
    ``ray.put`` and each filter actor binds it in ``__init__`` (a
    closure capture would serialize the table into every task spec,
    unbounded at many-group scale); thresholds are the same float
    expression in the SQL oracle, hence bit-exact.

    Output ``(id_col, key_col, value_col, threshold)``.
    """
    import ray

    q = grouped_exact_quantiles(ds, key_col, value_col, (0.25, 0.75),
                                num_buckets=num_buckets).to_pandas()
    keys = q[key_col].to_numpy()
    order = np.argsort(keys)
    keys_sorted = keys[order]
    q25 = q["q_25"].to_numpy()[order]
    q75 = q["q_75"].to_numpy()[order]
    ref = ray.put((keys_sorted, q75 + factor * (q75 - q25)))

    class Flag:
        def __init__(self):
            self.keys_sorted, self.thresh = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            col = batch.column(value_col)
            mask = pc.is_valid(col)
            if pa.types.is_floating(col.type):
                mask = pc.and_(mask, pc.invert(pc.is_nan(col)))
            batch = batch.filter(mask)
            k = np.asarray(batch.column(key_col))
            v = np.asarray(batch.column(value_col), dtype=np.float64)
            ks = self.keys_sorted
            pos = np.searchsorted(ks, k)
            pos = np.minimum(pos, max(len(ks) - 1, 0))
            known = (len(ks) > 0) & (ks[pos] == k)
            t = np.where(known, self.thresh[pos], np.inf)
            keep = v > t
            out = batch.filter(pa.array(keep))
            return out.append_column("threshold", pa.array(t[keep]))

    return ds.select_columns([id_col, key_col, value_col]) \
        .map_batches(Flag, batch_format="pyarrow", concurrency=2)


def _xy_component_sums(ds, key_col: str, x_col: str, y_col: str,
                       x_scale: int, y_scale: int):
    """Shared kernel of :func:`grouped_correlation` /
    :func:`grouped_regression`: per-key EXACT integer component sums
    ``(n, Σx, Σy, Σx², Σy², Σxy)`` in scaled units (the integer-cents
    rule ``floor(v·scale + 0.5)``), pre-aggregated per batch before ONE
    key shuffle.  Null/NaN on either side excludes the row."""
    from ray.data.aggregate import Sum

    def pre(batch: pa.Table) -> pa.Table:
        xs = batch.column(x_col)
        ys = batch.column(y_col)
        mask = pc.and_(pc.is_valid(xs), pc.is_valid(ys))
        for col in (xs, ys):
            if pa.types.is_floating(col.type):
                mask = pc.and_(mask, pc.invert(pc.is_nan(col)))
        batch = batch.filter(mask)
        if len(batch) == 0:
            return pa.table({key_col: pa.array([], pa.string()),
                             **{c: pa.array([], pa.int64()) for c in
                                ("pn", "psx", "psy", "psxx", "psyy",
                                 "psxy")}})
        # floor(v*scale + 0.5): the repo's cents rule (__ray_entry__
        # rolling_sum oracle) — np.rint would round-half-to-even while
        # SQL round() rounds half away, a latent divergence
        x = np.floor(np.asarray(batch.column(x_col), dtype=np.float64)
                     * x_scale + 0.5).astype(np.int64)
        y = np.floor(np.asarray(batch.column(y_col), dtype=np.float64)
                     * y_scale + 0.5).astype(np.int64)
        k = batch.column(key_col)
        t = pa.table({key_col: k,
                      "pn": pa.array(np.ones(len(x), dtype=np.int64)),
                      "psx": pa.array(x), "psy": pa.array(y),
                      "psxx": pa.array(x * x), "psyy": pa.array(y * y),
                      "psxy": pa.array(x * y)})
        agg = t.group_by([key_col]).aggregate(
            [(c, "sum") for c in ("pn", "psx", "psy", "psxx", "psyy",
                                  "psxy")])
        return agg.rename_columns([key_col, "pn", "psx", "psy", "psxx",
                                   "psyy", "psxy"])

    return (ds.map_batches(pre, batch_format="pyarrow")
            .groupby(key_col)
            .aggregate(*[Sum(c, alias_name=c) for c in
                         ("pn", "psx", "psy", "psxx", "psyy", "psxy")]))


def grouped_correlation(ds, key_col: str, x_col: str, y_col: str,
                        x_scale: int = 100, y_scale: int = 1):
    """Per-group Pearson correlation with DETERMINISTIC floats: the six
    component sums (n, Σx, Σy, Σx², Σy², Σxy) accumulate as exact
    integers in scaled units (the engine's integer-cents trick), so the
    one float expression at the end —
    ``(n·Σxy − Σx·Σy) / (√(n·Σx² − Σx²) · √(n·Σy² − Σy²))`` — sees
    identical inputs on any engine and IEEE ops (·, −, /, √) make it
    bit-exact against the SQL oracle (unlike SQL's own ``corr()``,
    whose incremental accumulation is order-dependent).

    Scale invariance of Pearson r means the x/y scaling cancels.  Rows
    with a null/NaN on either side are excluded.  One pre-aggregated
    shuffle of 6 integers per (batch, group).
    """
    summed = _xy_component_sums(ds, key_col, x_col, y_col,
                                x_scale, y_scale)

    def finish(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch.column("pn"), dtype=np.float64)
        sx = np.asarray(batch.column("psx"), dtype=np.float64)
        sy = np.asarray(batch.column("psy"), dtype=np.float64)
        sxx = np.asarray(batch.column("psxx"), dtype=np.float64)
        syy = np.asarray(batch.column("psyy"), dtype=np.float64)
        sxy = np.asarray(batch.column("psxy"), dtype=np.float64)
        denom = np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
        corr = np.where(denom > 0, (n * sxy - sx * sy) / denom, np.nan)
        return pa.table({key_col: batch.column(key_col),
                         "n": pa.array(n.astype(np.int64)),
                         "corr": pa.array(corr)})

    return summed.map_batches(finish, batch_format="pyarrow")


def grouped_regression(ds, key_col: str, x_col: str, y_col: str,
                       x_scale: int = 1, y_scale: int = 100):
    """Per-group simple linear regression (OLS slope + intercept) with
    DETERMINISTIC floats: the same six exact integer component sums as
    :func:`grouped_correlation` feed the two closed-form IEEE
    expressions ``slope = (n·Σxy − Σx·Σy) / (n·Σx² − Σx·Σx)`` and
    ``intercept = (Σy − slope·Σx) / n`` — identical integer inputs +
    identical op order on any engine ⇒ bit-exact vs the SQL oracle
    (unlike SQL's own ``regr_slope``, whose incremental accumulation
    is order-dependent).

    slope/intercept come out in SCALED units (slope in
    y_scale/x_scale·units, intercept in y_scale·units); callers and
    the oracle share the quantization, so parity is in the scaled
    space.  Groups with zero x-variance emit NaN slope/intercept.
    One pre-aggregated shuffle of 6 integers per (batch, group).
    """
    summed = _xy_component_sums(ds, key_col, x_col, y_col,
                                x_scale, y_scale)

    def finish(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch.column("pn"), dtype=np.float64)
        sx = np.asarray(batch.column("psx"), dtype=np.float64)
        sy = np.asarray(batch.column("psy"), dtype=np.float64)
        sxx = np.asarray(batch.column("psxx"), dtype=np.float64)
        sxy = np.asarray(batch.column("psxy"), dtype=np.float64)
        denom = n * sxx - sx * sx
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = np.where(denom != 0, (n * sxy - sx * sy) / denom,
                             np.nan)
            intercept = (sy - slope * sx) / n
        return pa.table({key_col: batch.column(key_col),
                         "n": batch.column("pn"),
                         "slope": pa.array(slope),
                         "intercept": pa.array(intercept)})

    return summed.map_batches(finish, batch_format="pyarrow")


def grouped_distinct_hll(ds, key_col: str, text_col: str = "text",
                         p: int = 14, num_buckets: int = 16,
                         sigmas: float = 4.0):
    """Per-key distinct-token cardinality: an HLL estimate produced
    through the NATIVE Ray Data aggregate surface
    (:func:`bqf_ray.stages.udaf.sketch_agg` in
    ``groupby(key).aggregate(...)``) next to the exact count, with the
    published ±1.04/√2^p bound asserted per key.

    Plan: one corpus pass ships batch-distinct (key, token) pairs
    bucketed by pair hash (integer-code pairing — keys may contain any
    byte; NULL-key rows are excluded); buckets dedupe exactly (they partition the
    pair space) into the globally-distinct pair table — VOCAB-sized,
    so materializing it is the distinct-word-table move, not a corpus
    materialization.  Both consumers then read it: the exact side adds
    per-key counts (one tiny groupby), the estimate side runs the
    sketch UDAF groupby.  Returns a pandas frame
    ``(key, n_distinct_exact, within_bound)`` — key-count-sized.
    """
    import pandas as pd

    from bqf_ray.sketches.hll import HyperLogLog
    from bqf_ray.stages.udaf import sketch_agg
    from ray.data.aggregate import Sum

    def pre(batch: pa.Table) -> pa.Table:
        from bqf_ray.pipelines.text_stats import _keyed_token_partials
        return _keyed_token_partials(batch, key_col, text_col,
                                     with_counts=False)

    def dedupe_bucket(group: pa.Table) -> pa.Table:
        return (group.group_by([key_col, "token"]).aggregate([])
                .select([key_col, "token"]))

    pairs = exchange(ds.map_batches(pre, batch_format="pyarrow"),
                     dedupe_bucket, [key_col, "token"],
                     num_buckets).materialize()

    def count_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({key_col: batch.column(key_col),
                      "pn": pa.array(np.ones(batch.num_rows, np.int64))})
        return (t.group_by([key_col]).aggregate([("pn", "sum")])
                .rename_columns([key_col, "pn"]))

    exact = {r[key_col]: r["n"] for r in
             (pairs.map_batches(count_partial, batch_format="pyarrow")
              .groupby(key_col).aggregate(Sum("pn", alias_name="n"))
              .take_all())}
    est = {r[key_col]: r["est"] for r in
           (pairs.groupby(key_col).aggregate(
               sketch_agg(lambda: HyperLogLog(p=p), on="token",
                          finalize="estimate", name="est"))
            .take_all())}
    rse = 1.04 / np.sqrt(2 ** p)
    keys = sorted(exact)
    return pd.DataFrame({
        key_col: keys,
        "n_distinct_exact": np.array([exact[k] for k in keys], np.int64),
        "within_bound": [abs(est[k] - exact[k]) / max(exact[k], 1)
                         <= sigmas * rse for k in keys]})


def grouped_distinct_bitmap(ds, key_col: str, value_col: str):
    """Per-key EXACT distinct count of a dense integer id column via the
    :class:`~bqf_ray.sketches.bitmap.CompressedBitmap` sketch on the
    NATIVE aggregate surface — the exact end of the mergeable-UDAF
    spectrum (vs HLL's approximate end), so the oracle is bit-exact
    ``COUNT(DISTINCT ...)``, not a bound flag.

    Plan: ``groupby(key).aggregate(sketch_agg(CompressedBitmap))`` —
    mappers fold each block's ids into per-(block, key) bitmap partials
    (Roaring-style ≤8 KiB containers), reducers union them.  Suits
    CATEGORICAL key cardinality (one blob per group rides the engine
    shuffle); for high-cardinality keys use
    :func:`grouped_distinct_hll(sparse=True) <grouped_distinct_hll>`'s
    register-partial plan instead.  Returns ``(key, n_distinct)``
    sorted by key."""
    import pandas as pd

    from bqf_ray.sketches.bitmap import CompressedBitmap
    from bqf_ray.stages.udaf import sketch_agg

    rows = (ds.groupby(key_col)
            .aggregate(sketch_agg(CompressedBitmap, on=value_col,
                                  prepare="int",
                                  finalize=lambda sk: int(sk.count()),
                                  name="n_distinct"))
            .take_all())
    rows.sort(key=lambda r: r[key_col])
    return pd.DataFrame({
        key_col: [r[key_col] for r in rows],
        "n_distinct": np.array([r["n_distinct"] for r in rows], np.int64)})


def grouped_tdigest_check(ds, key_col: str, value_col: str,
                          q: float = 0.5, lo: float = 0.45,
                          hi: float = 0.55):
    """Per-key t-digest quantile through the NATIVE aggregate surface
    (:func:`bqf_ray.stages.udaf.sketch_agg`), bound-checked against the
    EXACT selection quantiles: the estimate must land between the
    ``lo``/``hi`` PERCENTILE_DISC values (t-digest rank error at the
    median is ≪ the ±(hi−lo)/2 window).  Returns a key-count-sized
    pandas frame ``(key, n, q_<lo>, q_<hi>, within_bound)`` — the exact
    columns are oracle-recomputable, the flag is asserted TRUE."""
    from bqf_ray.sketches.tdigest import TDigest
    from bqf_ray.stages.udaf import sketch_agg

    ds = ds.materialize()     # two consumers (est + exact): one input pass
    est = {r[key_col]: r["est"] for r in
           ds.groupby(key_col).aggregate(
               sketch_agg(lambda: TDigest(), on=value_col,
                          prepare="value",
                          finalize=lambda sk: float(sk.quantile(q)),
                          name="est")).take_all()}
    exact = (grouped_exact_quantiles(ds, key_col, value_col, (lo, hi))
             .to_pandas().sort_values(key_col).reset_index(drop=True))
    lo_name = f"q_{int(round(lo * 100))}"
    hi_name = f"q_{int(round(hi * 100))}"
    exact["within_bound"] = [
        bool(exact[lo_name][i] <= est[exact[key_col][i]]
             <= exact[hi_name][i]) for i in range(len(exact))]
    return exact


def mg_heavy_keys(ds, col: str, m: int = 128):
    """EXACT ``HAVING count(*) > n/(m+1)`` frequent keys at O(m) sketch
    memory: phase 1 builds ONE merged Misra–Gries summary over the
    hashed key stream (a merge of per-block partials — no row shuffle),
    whose deterministic guarantee says every key with true frequency
    above ``n/(m+1)`` is among its ≤ m counters; phase 2 exactly
    recounts ONLY rows whose key hash is in that candidate set (hash
    membership via broadcast sorted array — a collision only adds a
    false candidate, which the exact threshold filter then drops) and
    keeps keys above the threshold.  Unlike the Count-Min plan of
    :func:`heavy_hitters`, the candidate superset here is a
    DETERMINISTIC guarantee, not whp — the output equals the SQL
    ``GROUP BY key HAVING cnt > n/(m+1)`` for EVERY input.

    Output ``(col, cnt)``; threshold uses float division exactly like
    the SQL oracle.
    """
    import ray
    from ray.data.aggregate import Sum

    from bqf_ray.functions.hashing import fmix64
    from bqf_ray.sketches.misragries import MisraGries
    from bqf_ray.stages.sketch_stage import build_sketch

    def key_fn(batch: pa.Table):
        vals = batch.column(col)
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        vals = vals.drop_null()
        return fmix64(np.asarray(vals).astype(np.int64)
                      .view(np.uint64)), None

    mg = build_sketch(ds, key_fn, lambda: MisraGries(m=m))
    n_total = mg.n
    cand_hashes, _ = mg.candidates()
    ref = ray.put(np.sort(cand_hashes))

    class Recount:
        def __init__(self):
            self.cand = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            vals = batch.column(col)
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            vals = vals.drop_null()
            v = np.asarray(vals).astype(np.int64)
            h = fmix64(v.view(np.uint64))
            pos = np.searchsorted(self.cand, h)
            pos_c = np.minimum(pos, max(len(self.cand) - 1, 0))
            hit = (len(self.cand) > 0) & (self.cand[pos_c] == h)
            u, c = np.unique(v[hit], return_counts=True)
            return pa.table({col: pa.array(u),
                             "partial": pa.array(c.astype(np.int64))})

    # half a CPU per actor: the pool leaves a CPU for the upstream read
    counts = (ds.map_batches(Recount, batch_format="pyarrow",
                             concurrency=2, num_cpus=0.5)
              .groupby(col).aggregate(Sum("partial", alias_name="cnt")))
    thresh = n_total / (m + 1.0)

    def above(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(pc.greater(batch.column("cnt"),
                                       pa.scalar(thresh)))

    return counts.map_batches(above, batch_format="pyarrow")


def cm_self_join_size(ds, col: str, width: int = 8192, depth: int = 5,
                      seed: int = 17):
    """Self-join size / second frequency moment ``F2 = Σ_k c(k)²`` from
    ONE single-pass Count-Min sketch (inner product with itself,
    Cormode & Muthukrishnan §4.3) beside the exact recompute — emitted
    as ``(exact_join_rows, one_sided_ok, within_eps)`` where both flags
    are SQL-recomputable invariants: the CM inner product never
    underestimates, and overestimates by at most ε·N² (ε = e/width).
    Deterministic seeds make both flags stable under any partitioning.
    The exact side is one pre-aggregated count shuffle (key counts,
    then Σ c² on the tiny distinct table) — NOT a join."""
    import pandas as pd

    from bqf_ray.functions.hashing import fmix64
    from bqf_ray.sketches.countmin import CountMin
    from bqf_ray.stages.sketch_stage import build_sketch

    def key_fn(batch: pa.Table):
        vals = batch.column(col)
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        vals = vals.drop_null()
        return fmix64(np.asarray(vals).astype(np.int64)
                      .view(np.uint64)), None

    cm = build_sketch(ds, key_fn,
                      lambda: CountMin(width=width, depth=depth, seed=seed))
    est = cm.inner_product(cm)
    n = int(cm.total)

    def pre(batch: pa.Table) -> pa.Table:
        vals = batch.column(col)
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        u, c = np.unique(np.asarray(vals.drop_null()).astype(np.int64),
                         return_counts=True)
        return pa.table({col: pa.array(u),
                         "partial": pa.array(c.astype(np.int64))})

    def f2_bucket(group: pa.Table) -> pa.Table:
        # the bucket holds every partial of its keys: Σ c² is exact here
        c = np.asarray(group.group_by(col).aggregate([("partial", "sum")])
                       .column("partial_sum"), dtype=np.int64)
        return pa.table({"f2": pa.array([int((c * c).sum())], pa.int64())})

    exact = sum(r["f2"] for r in exchange(
        ds.map_batches(pre, batch_format="pyarrow"), f2_bucket, col,
        32).take_all())
    eps = np.e / width
    return pd.DataFrame({
        "exact_join_rows": np.array([exact], dtype=np.int64),
        "one_sided_ok": [bool(est >= exact)],
        "within_eps": [bool(est <= exact + eps * float(n) * float(n))],
    })


def theta_overlap(ds_a, ds_b, col: str, k: int = 4096, seed: int = 7):
    """Distinct-set overlap of one key column across two datasets via
    theta / bottom-k sketches: each side builds ONE BottomK (a merge
    of per-block partials, no row shuffle), set algebra happens on the two
    retained hash arrays (:mod:`bqf_ray.sketches.theta`).  While both
    sketches are UNSATURATED (< k distinct keys) every estimate is
    EXACT — the query layer pins k above the fixture cardinality so the
    oracle can hash-compare integer counts; past saturation the same
    code degrades gracefully to the 1/√(k−1) union-scaled bound
    (``saturated`` flips TRUE, which the SQL oracle recomputes as
    ``count(DISTINCT ...) > k`` on either side).

    Output one row: ``(n_a, n_b, n_common, n_either, saturated)``.
    """
    import pandas as pd

    from bqf_ray.functions.hashing import fmix64
    from bqf_ray.sketches.sample import BottomK
    from bqf_ray.sketches.theta import theta_set_estimates
    from bqf_ray.stages.sketch_stage import build_sketch

    def key_fn(batch: pa.Table):
        vals = batch.column(col)
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        vals = vals.drop_null()
        return fmix64(np.asarray(vals).astype(np.int64)
                      .view(np.uint64)), None

    factory = lambda: BottomK(k=k, seed=seed)         # noqa: E731
    sa = build_sketch(ds_a, key_fn, factory)
    sb = build_sketch(ds_b, key_fn, factory)
    est = theta_set_estimates(sa, sb)
    saturated = (len(sa._hashes) >= k) or (len(sb._hashes) >= k)
    n_common = int(round(est["intersection"]))
    return pd.DataFrame({
        "n_a": np.array([int(round(est["a_only"])) + n_common],
                        dtype=np.int64),
        "n_b": np.array([int(round(est["b_only"])) + n_common],
                        dtype=np.int64),
        "n_common": np.array([n_common], dtype=np.int64),
        "n_either": np.array([int(round(est["union"]))], dtype=np.int64),
        "saturated": [bool(saturated)],
    })


def grouped_hll_sparse(ds, key_col: str, value_col: str, p: int = 12,
                       num_buckets: int = 64):
    """Per-key HLL distinct estimates at UNBOUNDED key cardinality —
    the 10M+-group plan the blob-per-group UDAF path can't reach.

    ``sketch_agg`` in ``groupby(key)`` is the right surface at moderate
    cardinality, but it pays one Python ``from_bytes → update →
    to_bytes`` round trip per (block, group) and ships a FIXED-size
    register blob per group (2^p bytes even for a 3-element group):
    at 10M keys that is ~40 GB of exchange for p=12 and tens of
    millions of Python accumulator calls.  Here the unit of exchange is
    a SPARSE register row ``(key, register, rho)`` instead: each batch
    emits its per-(key, register) max rho (vectorized segment-max, no
    per-group Python), ONE hash-bucket exchange co-locates each key's
    rows, and each bucket reduces to per-key estimates with
    ``HyperLogLog.estimate_sparse`` — never materializing a dense
    register matrix.  A key's exchange volume is ≤ min(its distinct
    count, 2^p) rows per contributing block, so tiny groups cost a few
    rows, not a 4 KB blob, and hot groups saturate at 2^p rows/block.

    Estimates are identical to the dense-register HLL (same register
    maxima, same alpha/range corrections).  Returns
    Dataset[(key_col, n_distinct_est: float64)]; NULL keys/values are
    excluded.
    """
    from bqf_ray.functions.hashing import xxhash64_array, fmix64
    from bqf_ray.sketches.hll import HyperLogLog, _register_updates

    P = int(p)

    def _hash_values(col) -> np.ndarray:
        t = col.type
        if (pa.types.is_string(t) or pa.types.is_large_string(t)
                or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
            return xxhash64_array(col)
        vals = col.to_numpy(zero_copy_only=False)
        if np.issubdtype(vals.dtype, np.floating):
            return fmix64(vals.astype(np.float64).view(np.uint64))
        return fmix64(vals.astype(np.int64).view(np.uint64))

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch.column(key_col)),
                       pc.is_valid(batch.column(value_col)))
        batch = batch.filter(keep)
        if batch.num_rows == 0:
            return pa.table({key_col: pa.array([], batch.schema
                                               .field(key_col).type),
                             "__reg": pa.array([], pa.int32()),
                             "__rho": pa.array([], pa.int32())})
        kcol = batch.column(key_col)
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        vcol = batch.column(value_col)
        if isinstance(vcol, pa.ChunkedArray):
            vcol = vcol.combine_chunks()
        h = _hash_values(vcol)
        reg, rho = _register_updates(h, P)
        gids, inv = np.unique(kcol.to_numpy(zero_copy_only=False)
                              if not pa.types.is_string(kcol.type)
                              else np.asarray(kcol), return_inverse=True)
        # segment max over pair codes (gid, reg): one sort, one reduceat
        pair = inv.astype(np.int64) * np.int64(1 << P) + reg
        order = np.argsort(pair, kind="stable")
        ps, rs = pair[order], rho[order]
        first = np.concatenate([[True], ps[1:] != ps[:-1]])
        starts = np.flatnonzero(first)
        rho_max = np.maximum.reduceat(rs.astype(np.int32), starts)
        pu = ps[starts]
        out_keys = pa.array(gids).take(pa.array(pu // np.int64(1 << P)))
        return pa.table({key_col: out_keys,
                         "__reg": pa.array((pu % np.int64(1 << P))
                                           .astype(np.int32)),
                         "__rho": pa.array(rho_max.astype(np.int32))})

    def bucket_estimate(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({key_col: pa.array([], group.schema
                                               .field(key_col).type),
                             "n_distinct_est": pa.array([], pa.float64())})
        karr = group.column(key_col)
        if isinstance(karr, pa.ChunkedArray):
            karr = karr.combine_chunks()
        knp = (np.asarray(karr) if pa.types.is_string(karr.type)
               else karr.to_numpy(zero_copy_only=False))
        gids, inv = np.unique(knp, return_inverse=True)
        reg = np.asarray(group.column("__reg"), dtype=np.int64)
        rho = np.asarray(group.column("__rho"), dtype=np.int32)
        pair = inv.astype(np.int64) * np.int64(1 << P) + reg
        order = np.argsort(pair, kind="stable")
        ps, rs = pair[order], rho[order]
        first = np.concatenate([[True], ps[1:] != ps[:-1]])
        starts = np.flatnonzero(first)
        rho_max = np.maximum.reduceat(rs, starts)
        pu = ps[starts]
        est = HyperLogLog.estimate_sparse(pu // np.int64(1 << P),
                                          rho_max, len(gids), P)
        return pa.table({key_col: pa.array(gids),
                         "n_distinct_est": pa.array(est)})

    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    bucket_estimate, key_col, num_buckets)


def grouped_dd_quantiles(ds, key_col: str, value_col: str,
                         qs: tuple = (0.25, 0.5, 0.75),
                         alpha: float = 0.01, num_buckets: int = 64):
    """Per-key DDSketch quantiles at UNBOUNDED key cardinality — the
    vectorized grouped-quantile plan (``grouped_hll_sparse``'s sibling
    for quantiles).

    ``sketch_agg`` builds one Python sketch object per
    (batch, group): measured 5.5k rows/s at 62k keys
    (tools/stress_grouped_sketch.py) — a per-group-Python wall, not a
    shuffle problem.  A DDSketch is only an integer histogram over
    value-determined geometric buckets, so the whole grouped build
    vectorizes: each batch emits per-(key, bucket) partial COUNTS
    (segment-sum, no sketch objects), ONE hash-bucket exchange
    co-locates keys, and each exchange bucket answers every quantile
    for all its keys with one global cumsum + one vectorized
    searchsorted (bucket codes are ORDER-PRESERVING integers, so
    integer sort = value sort).  Estimates carry DDSketch's published
    guarantee: within relative error ``alpha`` of the exact
    PERCENTILE_DISC value (rank rule ``ceil(q·n)−1``), bit-identical
    under any partitioning (integer counts, deterministic buckets).

    Returns Dataset[(key_col, n, q_25, ...)] — one float64 column per
    q named like :func:`grouped_exact_quantiles`.  NULL/NaN values are
    excluded; zero and negative values use dedicated lanes (exact zero,
    mirrored negative buckets).
    """
    gamma = (1.0 + alpha) / (1.0 - alpha)
    log_gamma = np.log(gamma)
    q_arr = np.asarray(qs, dtype=np.float64)
    q_names = [f"q_{int(round(q * 100))}" for q in qs]
    # order-preserving lane encoding (monotone code ⇔ monotone value):
    #   negative: (1<<50) − idx   (larger idx = more negative = smaller code)
    #   zero:      2<<50
    #   positive: (3<<50) + idx
    NEG0, ZERO, POS0 = np.int64(1) << 50, np.int64(2) << 50, np.int64(3) << 50

    def _codes(v: np.ndarray) -> np.ndarray:
        code = np.full(len(v), ZERO, dtype=np.int64)
        pos, neg = v > 0, v < 0
        if pos.any():
            code[pos] = POS0 + np.ceil(
                np.log(v[pos]) / log_gamma).astype(np.int64)
        if neg.any():
            code[neg] = NEG0 - np.ceil(
                np.log(-v[neg]) / log_gamma).astype(np.int64)
        return code

    def _decode(code: np.ndarray) -> np.ndarray:
        out = np.zeros(len(code), dtype=np.float64)
        pos, neg = code >= POS0, code < ZERO
        mid = 2.0 / (gamma + 1.0)
        out[pos] = mid * np.power(gamma, (code[pos] - POS0)
                                  .astype(np.float64))
        out[neg] = -mid * np.power(gamma, (NEG0 - code[neg])
                                   .astype(np.float64))
        return out

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(value_col)
        keep = pc.and_(pc.is_valid(batch.column(key_col)),
                       pc.is_valid(col))
        if pa.types.is_floating(col.type):
            keep = pc.and_(keep, pc.invert(pc.is_nan(pc.fill_null(col,
                                                                  0.0))))
        batch = batch.filter(keep)
        ktype = batch.schema.field(key_col).type
        if batch.num_rows == 0:
            return pa.table({key_col: pa.array([], ktype),
                             "__code": pa.array([], pa.int64()),
                             "__cnt": pa.array([], pa.int64())})
        kcol = batch.column(key_col)
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        v = np.asarray(batch.column(value_col), dtype=np.float64)
        code = _codes(v)
        knp = (np.asarray(kcol) if pa.types.is_string(kcol.type)
               else kcol.to_numpy(zero_copy_only=False))
        gids, inv = np.unique(knp, return_inverse=True)
        # segment-sum counts per (key, code): sort once, reduceat
        order = np.lexsort((code, inv))
        inv_s, code_s = inv[order], code[order]
        first = np.concatenate([[True], (inv_s[1:] != inv_s[:-1])
                                | (code_s[1:] != code_s[:-1])])
        starts = np.flatnonzero(first)
        cnt = np.diff(np.append(starts, len(inv_s))).astype(np.int64)
        out_keys = pa.array(gids).take(pa.array(inv_s[starts]))
        return pa.table({key_col: out_keys,
                         "__code": pa.array(code_s[starts]),
                         "__cnt": pa.array(cnt)})

    def bucket_quantiles(group: pa.Table) -> pa.Table:
        ktype = group.schema.field(key_col).type
        if group.num_rows == 0:
            cols = {key_col: pa.array([], ktype),
                    "n": pa.array([], pa.int64())}
            for name in q_names:
                cols[name] = pa.array([], pa.float64())
            return pa.table(cols)
        karr = group.column(key_col)
        if isinstance(karr, pa.ChunkedArray):
            karr = karr.combine_chunks()
        knp = (np.asarray(karr) if pa.types.is_string(karr.type)
               else karr.to_numpy(zero_copy_only=False))
        code = np.asarray(group.column("__code"), dtype=np.int64)
        cnt = np.asarray(group.column("__cnt"), dtype=np.int64)
        gids, inv = np.unique(knp, return_inverse=True)
        order = np.lexsort((code, inv))
        inv_s, code_s, cnt_s = inv[order], code[order], cnt[order]
        # merge duplicate (key, code) rows from different blocks
        first = np.concatenate([[True], (inv_s[1:] != inv_s[:-1])
                                | (code_s[1:] != code_s[:-1])])
        starts = np.flatnonzero(first)
        seg = np.cumsum(first) - 1
        csum = np.zeros(len(starts), dtype=np.int64)
        np.add.at(csum, seg, cnt_s)
        inv_u, code_u = inv_s[starts], code_s[starts]
        # global cumsum is monotone ⇒ ONE searchsorted answers every
        # (key, q) pair at once
        cum = np.cumsum(csum)
        n_keys = len(gids)
        key_first = np.concatenate([[True], inv_u[1:] != inv_u[:-1]])
        key_starts = np.flatnonzero(key_first)
        offsets = np.concatenate([[0], cum[key_starts[1:] - 1]])
        totals = np.concatenate([cum[key_starts[1:] - 1],
                                 [cum[-1]]]) - offsets
        cols = {key_col: pa.array(gids),
                "n": pa.array(totals.astype(np.int64))}
        for q, name in zip(q_arr, q_names):
            rank = np.clip(np.ceil(q * totals).astype(np.int64) - 1,
                           0, np.maximum(totals - 1, 0))
            target = offsets + rank + 1
            pos = np.searchsorted(cum, target, side="left")
            cols[name] = pa.array(_decode(code_u[np.minimum(
                pos, len(code_u) - 1)]))
        return pa.table(cols)

    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    bucket_quantiles, key_col, num_buckets)


def token_f2(ds, text_col: str = "text", depth: int = 8,
             bound: float = 0.35):
    """Second moment F2 = sum_k cnt_k^2 of the token-frequency vector
    (the self-join size / repeat-rate statistic): EXACT via the
    pre-aggregated count shuffle of :func:`token_counts` plus the AMS
    tug-of-war estimate (sketches/ams.py) through the native UDAF
    surface — the sketch pass never shuffles anything but one
    (depth x 64)-counter blob per block, so at 100 TB the estimate
    costs one streaming pass while the exact recount is the expensive
    verification companion.

    Returns one row: ``f2_exact`` (int64), ``within_bound`` (the AMS
    estimate within ``bound`` relative error — observed max ~0.1 at
    depth=8, tests/test_new_sketches.py)."""
    from bqf_ray.sketches.ams import AmsF2
    from bqf_ray.stages.udaf import sketch_agg

    exploded = ds.map_batches(lambda b: _explode_tokens(b, text_col),
                              batch_format="pyarrow").materialize()

    est = exploded.aggregate(sketch_agg(
        lambda: AmsF2(depth=depth), on="token", prepare="hash",
        weight_col="partial",
        finalize=lambda sk: sk.estimate_f2(), name="f2_est"))["f2_est"]

    def sq_partial(batch: pa.Table) -> pa.Table:
        c = np.asarray(batch.column("cnt"), dtype=np.int64)
        return pa.table({"sq": pa.array([int((c * c).sum())],
                                        type=pa.int64())})

    from ray.data.aggregate import Sum
    exact = int(exploded.groupby("token")
                .aggregate(Sum("partial", alias_name="cnt"))
                .map_batches(sq_partial, batch_format="pyarrow")
                .sum("sq"))
    ok = abs(est - exact) <= bound * exact
    return pa.table({"f2_exact": pa.array([exact], type=pa.int64()),
                     "within_bound": pa.array([bool(ok)])})


def _sorted_run_starts(k) -> np.ndarray:
    """NULL-SAFE run-boundary mask over a SORTED Arrow key array:
    ``new[i]`` is True where row i starts a new key run.  Plain
    ``pc.not_equal`` yields NULL (→ numpy False) whenever either side
    is null, which silently MERGES a null-key group into the preceding
    key's run — boundaries must compare validity separately: a run
    breaks where validity flips, or both sides are valid and differ.
    Both-null rows stay one group (SQL GROUP BY semantics)."""
    if isinstance(k, pa.ChunkedArray):
        k = k.combine_chunks()
    n = len(k)
    new = np.ones(n, dtype=bool)
    if n > 1:
        a, b = k.slice(1), k.slice(0, n - 1)
        neq = pc.fill_null(pc.not_equal(a, b), False)
        vflip = pc.xor(a.is_valid(), b.is_valid())
        new[1:] = np.asarray(pc.or_(neq, vflip))
    return new


def _attach_group_total(ds, key_col: str, sum_col: str, out_col: str,
                        num_buckets: int = 64):
    """Attach the per-``key_col`` total of ``sum_col`` to every row as
    ``out_col`` — ONE key-hash bucket exchange; in-bucket the total is
    exact because the bucket holds every row of each key.  String and
    int keys (``stages.partition.bucket_of``)."""

    def attach(g: pa.Table) -> pa.Table:
        if not g.num_rows:
            return g.append_column(out_col, pa.array([], pa.int64()))
        idx = pc.sort_indices(g, sort_keys=[(key_col, "ascending")])
        g = g.take(idx)
        n = g.num_rows
        new = _sorted_run_starts(g.column(key_col))
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, n))
        v = np.asarray(g.column(sum_col), dtype=np.int64)
        totals = np.add.reduceat(v, starts)
        return g.append_column(out_col, pa.array(
            np.repeat(totals, lens).astype(np.int64)))

    return exchange(ds, attach, key_col, num_buckets)


def joint_mi_counts(ds, x_col: str, y_col: str, num_buckets: int = 64):
    """EXACT joint/marginal contingency counts between two categorical
    columns — the integer components of mutual information / lift /
    chi-square (feature-leakage and redundancy detection in a curation
    pipeline): one row per distinct ``(x, y)`` with ``(x, y, n_xy,
    n_x, n_y, n)``.  Float ``MI = Σ (n_xy/n)·log(n·n_xy/(n_x·n_y))``
    derives downstream; keeping integer components makes the operator
    SQL-oracle-exact (the repo's established pattern, cf.
    ``value_k_correlation``).

    Plan: ONE corpus exchange (``bucketed_sum`` over the (x, y) pair)
    → two JOINT-TABLE-sized bucketed passes attaching the marginals
    (:func:`_attach_group_total` by x, then by y) → total ``n`` folded
    from the joint table (tiny driver sum).  Null categories group as
    SQL groups (bucketed_agg's null-flag encoding).  Works for string
    and integer categories alike."""
    from bqf_ray.stages.partition import bucketed_sum

    B = int(num_buckets)

    def one(batch: pa.Table) -> pa.Table:
        return pa.table({
            "x": batch.column(x_col), "y": batch.column(y_col),
            "one": pa.array(np.ones(len(batch), dtype=np.int64))})

    joint = bucketed_sum(ds.map_batches(one, batch_format="pyarrow"),
                         ["x", "y"], {"one": "n_xy"},
                         num_buckets=B,
                         combine_local=True).materialize()
    n = int(joint.sum("n_xy") or 0)
    out = _attach_group_total(joint, "x", "n_xy", "n_x", num_buckets=B)
    out = _attach_group_total(out, "y", "n_xy", "n_y", num_buckets=B)

    def add_n(batch: pa.Table) -> pa.Table:
        return batch.append_column("n", pa.array(
            np.full(len(batch), n, dtype=np.int64)))

    return out.map_batches(add_n, batch_format="pyarrow")


def grouped_weighted_median(ds, key_col: str, value_col: str,
                            weight_col: str, num_buckets: int = 32):
    """EXACT lower weighted median per group: the smallest value v in
    the group with ``2 * cumweight(v) >= totweight`` — exactly the
    ``q = 0.5`` case of :func:`grouped_weighted_quantiles`
    (``cum >= 0.5·tot`` ⇔ ``2·cum >= tot``: 0.5·tot is exact in
    float64 for tot < 2^53), delegated there so the validation /
    bucketing / selection logic lives once.  Output: ``(key_col, n,
    tot_w, wmedian)``; null values/weights excluded row-wise,
    negative weights raise."""
    out = grouped_weighted_quantiles(ds, key_col, value_col,
                                     weight_col, qs=(0.5,),
                                     num_buckets=num_buckets)

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["wmedian" if c == "wq_50" else c
             for c in batch.column_names])

    return out.map_batches(rename, batch_format="pyarrow")

def _lookup_hash(col) -> np.ndarray:
    """uint64 probe hash of a key column for the broadcast group
    lookup: null-distinct (a validity constant is XORed in, so NULL
    never aliases '' or -1) and type-stable with the build side."""
    NULLC = np.uint64(0x9E3779B97F4A7C15)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    from bqf_ray.functions.hashing import xxhash64_array
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        h = xxhash64_array(col.fill_null(""))
    else:
        h = np.asarray(col.cast(pa.int64()).fill_null(-1),
                       dtype=np.int64).view(np.uint64).copy()
    if col.null_count:
        h[np.asarray(col.is_null())] ^= NULLC
    return h


def _group_lookup_build(tbl_ds, key_col: str, val_cols: list[str]):
    """Collect a MATERIALIZED group-count-sized table into sorted
    parallel arrays and ``ray.put`` them ONCE: returns the object ref
    holding ``(kh_sorted, val_arrays...)`` — the shared build half of
    every broadcast-threshold map (:func:`clip_to_quantiles`,
    :func:`grouped_mad`, :func:`impute_group_median`)."""
    import ray

    blocks = [t for t in ray.get(tbl_ds.to_arrow_refs()) if t.num_rows]
    if blocks:
        kc = pa.concat_arrays(
            [t.column(key_col).combine_chunks()
             if isinstance(t.column(key_col), pa.ChunkedArray)
             else t.column(key_col) for t in blocks])
        kh = _lookup_hash(kc)
        vals = [np.concatenate(
            [np.asarray(t.column(c), dtype=np.float64) for t in blocks])
            for c in val_cols]
    else:
        kh = np.empty(0, dtype=np.uint64)
        vals = [np.empty(0, dtype=np.float64) for _ in val_cols]
    order = np.argsort(kh)
    return ray.put(tuple([kh[order]] + [v[order] for v in vals]))


def _group_lookup_probe(khs: np.ndarray, key_col_array
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Probe half: ``(pos, hit)`` — clamped positions into the sorted
    arrays plus a mask of keys actually present (a missing group must
    never silently read row 0's thresholds)."""
    h = _lookup_hash(key_col_array)
    pos = np.searchsorted(khs, h)
    inb = pos < len(khs)
    hit = np.zeros(len(h), dtype=bool)
    if len(khs):
        hit[inb] = khs[pos[inb]] == h[inb]
    pos = np.minimum(pos, max(len(khs) - 1, 0))
    return pos, hit


def clip_to_quantiles(ds, key_col: str, value_col: str,
                      lo: float = 0.01, hi: float = 0.99,
                      out_col: str | None = None,
                      num_buckets: int = 32):
    """Per-group quantile winsorization: clip ``value_col`` to its
    group's exact ``[PERCENTILE_DISC(lo), PERCENTILE_DISC(hi)]`` —
    the outlier-capping normalization step before training-data
    statistics.  Composes :func:`grouped_exact_quantiles` (one
    exchange, selection-exact) with the shared broadcast group lookup
    (:func:`_group_lookup_build`) and a vectorized clip map.  Rows
    with null/NaN values — and rows of a group with NO thresholds
    (all-null values) — pass through unclipped.  Output: input columns
    + ``out_col`` (default ``value_col + "_clipped"``)."""
    import ray

    out_col = out_col or f"{value_col}_clipped"
    th = grouped_exact_quantiles(ds, key_col, value_col, qs=(lo, hi),
                                 num_buckets=num_buckets).materialize()
    qlo_name = f"q_{int(round(lo * 100))}"
    qhi_name = f"q_{int(round(hi * 100))}"
    ref = _group_lookup_build(th, key_col, [qlo_name, qhi_name])

    def clip(batch: pa.Table) -> pa.Table:
        khs, lov, hiv = ray.get(ref)  # zero-copy plasma reads
        pos, hit = _group_lookup_probe(khs, batch.column(key_col))
        v = np.asarray(pc.cast(batch.column(value_col), pa.float64()),
                       dtype=np.float64).copy()
        if hit.any():
            v[hit] = np.minimum(np.maximum(v[hit], lov[pos[hit]]),
                                hiv[pos[hit]])
        out = pa.array(v)
        col = batch.column(value_col)
        if col.null_count:
            out = pc.if_else(pc.is_valid(col), out,
                             pa.scalar(None, pa.float64()))
        return batch.append_column(out_col, out)

    return ds.map_batches(clip, batch_format="pyarrow")


def skyline(ds, x_col: str, y_col: str,
            maximize: tuple[bool, bool] = (True, True)):
    """2-D Pareto frontier (skyline): rows not DOMINATED by any other
    row — q dominates p iff q is >= p in both objectives and strictly
    better in at least one (``maximize`` flips either axis).  Ties:
    rows equal to a frontier point in BOTH dims are all kept (neither
    dominates).  The multi-objective "best trade-offs" selection a
    plain ORDER BY can't express.

    Scale plan: the skyline operator distributes losslessly — a row
    dominated by a block-mate is globally dominated, and no frontier
    row is ever locally dominated, so per-block local skylines (one
    vectorized sort + prefix-max sweep each) form a SUPERSET of the
    global frontier whose union is tiny (O(log n) expected on
    independent dims).  One constant-key gather then applies the same
    exact kernel to the union.  No O(n^2) pass anywhere; the full
    corpus is touched once, embarrassingly parallel.

    Rows with null/NaN in either column are excluded.  Comparisons
    only (no arithmetic), so float64 inputs are bit-exact."""
    import pyarrow.compute as pc

    def _vals(tbl: pa.Table, c: str, flip: bool) -> np.ndarray:
        col = tbl.column(c)
        if pa.types.is_timestamp(col.type):
            v = np.asarray(col).astype("datetime64[us]") \
                .astype(np.int64).astype(np.float64)
        else:
            v = np.asarray(pc.cast(col, pa.float64()), dtype=np.float64)
        return -v if flip else v

    def _local(tbl: pa.Table) -> pa.Table:
        keep = pc.is_valid(tbl.column(x_col))
        keep = pc.and_(keep, pc.is_valid(tbl.column(y_col)))
        for c in (x_col, y_col):
            col = tbl.column(c)
            if pa.types.is_floating(col.type):
                keep = pc.and_(keep, pc.invert(
                    pc.is_nan(pc.fill_null(col, 0.0))))
        tbl = tbl.filter(keep)
        if not tbl.num_rows:
            return tbl
        x = _vals(tbl, x_col, not maximize[0])
        y = _vals(tbl, y_col, not maximize[1])
        # dominated(p) iff max{y' : x' > p.x} >= p.y
        #            or  max{y' : x' = p.x} >  p.y
        order = np.lexsort((-y, -x))
        xs, ys = x[order], y[order]
        new = np.r_[True, xs[1:] != xs[:-1]]
        gid = np.cumsum(new) - 1
        gmax = ys[np.flatnonzero(new)]          # per-x max (y desc in run)
        run_max = np.maximum.accumulate(gmax)
        m_gt = np.r_[-np.inf, run_max[:-1]]     # strictly-greater-x max
        dominated = (m_gt[gid] >= ys) | (gmax[gid] > ys)
        sel = order[~dominated]
        out = tbl.take(pa.array(np.sort(sel)))
        return out

    # one bucket: every block's local skyline meets in one final pass
    return exchange(ds.map_batches(_local, batch_format="pyarrow"),
                    _local, x_col, 1)


def grouped_mode(ds, key_col: str, value_col: str,
                 count_name: str = "n", num_buckets: int = 64):
    """Exact per-group MODE: the most frequent ``value_col`` per
    ``key_col``, deterministic tie-break to the smallest value — the
    categorical summarizer (dominant event type per user, majority
    label per cluster).  Composition of two existing scale-shaped
    primitives: one corpus exchange for the ``(key, value)`` counts
    (``bucketed_sum``: 1-int hash-bucket key) and one counts-table
    exchange selecting the per-key argmax (``grouped_top_n`` with
    per-block partial top-1, so no whole group ever materializes).
    Output: ``(key_col, value_col, count_name)``."""
    from bqf_ray.stages.partition import bucketed_sum

    def one(batch: pa.Table) -> pa.Table:
        return pa.table({
            key_col: batch.column(key_col),
            value_col: batch.column(value_col),
            "__one": pa.array(np.ones(len(batch), dtype=np.int64))})

    counts = bucketed_sum(ds.map_batches(one, batch_format="pyarrow"),
                          [key_col, value_col], {"__one": count_name},
                          num_buckets=num_buckets, combine_local=True)
    return grouped_top_n(counts, key_col, [count_name, value_col], n=1,
                         descending=[True, False], rank_col=None,
                         num_buckets=num_buckets)


def grouped_mad(ds, key_col: str, value_col: str,
                num_buckets: int = 32):
    """Exact per-group MEDIAN and MAD (median absolute deviation, the
    robust spread statistic outlier-capped pipelines standardize with):
    ``med = PERCENTILE_DISC(0.5)``, ``mad = PERCENTILE_DISC(0.5) of
    |x − med|`` — both pure value selections (lower median), so
    bit-exact for integers and float64 up to 2^53.

    Two :func:`grouped_exact_quantiles` exchanges with the per-group
    median table broadcast between them via ``ray.put`` + sorted-hash
    lookup (group-count-sized, the :func:`clip_to_quantiles` shape).
    Output: ``(key_col, n, med, mad)``; null/NaN values excluded."""
    import ray

    med = grouped_exact_quantiles(ds, key_col, value_col, qs=(0.5,),
                                  num_buckets=num_buckets).materialize()
    ref = _group_lookup_build(med, key_col, ["q_50"])

    def absdev(batch: pa.Table) -> pa.Table:
        khs, meds = ray.get(ref)
        col = batch.column(value_col)
        mask = pc.is_valid(col)
        if pa.types.is_floating(col.type):
            mask = pc.and_(mask, pc.invert(pc.is_nan(col)))
        batch = batch.filter(mask)
        k = batch.column(key_col)
        pos, hit = _group_lookup_probe(khs, k)
        v = np.asarray(pc.cast(batch.column(value_col), pa.float64()),
                       dtype=np.float64)
        # every valid-value row's key is in the median table by
        # construction (same validity filter built it); ~hit can only
        # be a 64-bit hash collision artifact — drop rather than
        # attribute to a wrong group
        dev = np.abs(v - meds[pos])
        if not hit.all():
            dev = np.where(hit, dev, np.nan)
        return pa.table({key_col: k, "__absdev": pa.array(dev)})

    dev = ds.map_batches(absdev, batch_format="pyarrow")
    mad = grouped_exact_quantiles(dev, key_col, "__absdev", qs=(0.5,),
                                  num_buckets=num_buckets)

    def attach_med(batch: pa.Table) -> pa.Table:
        khs, meds = ray.get(ref)
        k = batch.column(key_col)
        pos, _hit = _group_lookup_probe(khs, k)
        return pa.table({key_col: k, "n": batch.column("n"),
                         "med": pa.array(meds[pos]),
                         "mad": batch.column("q_50")})

    return mad.map_batches(attach_med, batch_format="pyarrow")


def category_purity(ds, key_col: str, value_col: str,
                    num_buckets: int = 64):
    """Exact integer PURITY components of a categorical column per
    group: ``(key, n, n_distinct, sum_sq = Σ n_v²)`` — Gini impurity
    ``1 − sum_sq/n²``, Simpson diversity, and collision entropy all
    derive downstream in float; the int64 components keep the operator
    SQL-oracle-exact (the ``joint_mi_counts`` companion for label-skew
    / source-mix diagnostics).  One corpus exchange with a map-side
    combiner for the ``(key, value)`` counts, then one counts-table
    exchange for the per-key fold."""
    from bqf_ray.stages.partition import bucketed_agg, bucketed_sum

    def one(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch.column(key_col), "v": batch.column(value_col),
            "__one": pa.array(np.ones(len(batch), dtype=np.int64))})

    counts = bucketed_sum(ds.map_batches(one, batch_format="pyarrow"),
                          ["k", "v"], {"__one": "n_v"},
                          num_buckets=num_buckets, combine_local=True)

    def fold_prep(batch: pa.Table) -> pa.Table:
        nv = np.asarray(batch.column("n_v"), dtype=np.int64)
        return pa.table({key_col: batch.column("k"),
                         "n": pa.array(nv), "sq": pa.array(nv * nv),
                         "one": pa.array(np.ones(len(nv),
                                                 dtype=np.int64))})

    return bucketed_agg(counts.map_batches(fold_prep,
                                           batch_format="pyarrow"),
                        [key_col],
                        [("n", "sum", "n"), ("one", "sum", "n_distinct"),
                         ("sq", "sum", "sum_sq")],
                        num_buckets=num_buckets)


def grouped_cont_quantiles(ds, key_col: str, value_col: str,
                           qs: tuple = (0.25, 0.5, 0.75),
                           num_buckets: int = 32):
    """Per-group PERCENTILE_CONT (linearly INTERPOLATED) quantiles —
    the continuous companion to the selection-exact
    :func:`grouped_exact_quantiles`: ``pos = q·(n−1)``, result =
    ``v[⌊pos⌋]·(1−frac) + v[⌈pos⌉]·frac`` — the exact float64
    expression DuckDB's ``quantile_cont`` evaluates (probed over 313
    random quantiles; the algebraically-equal ``lo + frac·(hi−lo)``
    form differs in final ulps and is NOT used).  Same one
    key-hash-bucketed exchange; nulls/NaNs excluded.  Output
    ``(key_col, n, q_<pct>, ...)``."""
    import pyarrow.compute as pc

    q_arr = np.asarray(qs, dtype=np.float64)
    if len(q_arr) and (q_arr.min() < 0.0 or q_arr.max() > 1.0):
        raise ValueError("q outside [0, 1]")
    q_names = [f"q_{int(round(q * 100))}" for q in qs]
    if len(set(q_names)) != len(q_names):
        raise ValueError(f"qs collide on percent names ({q_names})")

    def cont_bucket(group: pa.Table) -> pa.Table:
        k = group.column("k")
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        v = np.asarray(group.column("v"), dtype=np.float64)
        if len(v) == 0:
            cols = {key_col: k.slice(0, 0),
                    "n": pa.array([], pa.int64())}
            for name in q_names:
                cols[name] = pa.array([], pa.float64())
            return pa.table(cols)
        t = pa.table({"k": k, "v": pa.array(v)})
        idx = pc.sort_indices(t, sort_keys=[("k", "ascending"),
                                            ("v", "ascending")])
        ks = t.column("k").take(idx)
        if isinstance(ks, pa.ChunkedArray):
            ks = ks.combine_chunks()
        vs = np.asarray(t.column("v").take(idx), dtype=np.float64)
        n = len(vs)
        new = _sorted_run_starts(ks)
        starts = np.flatnonzero(new)
        lens = np.diff(np.concatenate([starts, [n]]))
        cols = {key_col: ks.take(pa.array(starts)),
                "n": pa.array(lens.astype(np.int64))}
        for q, name in zip(q_arr, q_names):
            pos = q * (lens - 1).astype(np.float64)
            lo = np.floor(pos).astype(np.int64)
            hi = np.ceil(pos).astype(np.int64)
            frac = pos - lo
            vlo = vs[starts + lo]
            vhi = vs[starts + hi]
            cols[name] = pa.array(vlo * (1.0 - frac) + vhi * frac)
        return pa.table(cols)

    return exchange(_valued_rows(ds, key_col, value_col), cont_bucket,
                    "k", num_buckets)


def impute_group_median(ds, key_col: str, value_col: str,
                        out_col: str | None = None,
                        num_buckets: int = 32):
    """Null/NaN IMPUTATION with the group's exact lower median (of the
    valid rows): the standard missing-value fill before training-data
    statistics.  Composes :func:`grouped_exact_quantiles` with a
    ``ray.put`` broadcast of the per-group median table and a
    vectorized fill map (the :func:`clip_to_quantiles` shape).  Groups
    with NO valid value leave their rows null.  Output: input columns
    + ``out_col`` (default ``value_col + "_filled"``, float64)."""
    import ray

    out_col = out_col or f"{value_col}_filled"
    med = grouped_exact_quantiles(ds, key_col, value_col, qs=(0.5,),
                                  num_buckets=num_buckets).materialize()
    ref = _group_lookup_build(med, key_col, ["q_50"])

    def fill(batch: pa.Table) -> pa.Table:
        khs, meds = ray.get(ref)
        col = batch.column(value_col)
        v = np.asarray(pc.cast(pc.fill_null(col, 0.0), pa.float64()),
                       dtype=np.float64).copy()
        invalid = ~np.asarray(pc.is_valid(col))
        if pa.types.is_floating(col.type):
            invalid |= np.asarray(pc.is_nan(pc.fill_null(col, 0.0)))
        pos, hit = _group_lookup_probe(khs, batch.column(key_col))
        fillable = invalid & hit
        v[fillable] = meds[pos[fillable]]
        out = pa.array(v)
        still = invalid & ~hit
        if still.any():
            out = pc.if_else(pa.array(~still), out,
                             pa.scalar(None, pa.float64()))
        return batch.append_column(out_col, out)

    return ds.map_batches(fill, batch_format="pyarrow")


def grouped_weighted_quantiles(ds, key_col: str, value_col: str,
                               weight_col: str, qs: tuple = (0.5,),
                               num_buckets: int = 32):
    """Exact lower WEIGHTED PERCENTILE_DISC per group for every q:
    the smallest value v with ``cumweight(v) >= q · totweight``
    (peer-inclusive cumulative weight over the value-sorted group) —
    the general-q extension of :func:`grouped_weighted_median`, for
    importance-weighted score thresholds.  Pure value selection over
    int64 values / non-negative int64 weights plus ONE float64
    product ``q · tot`` mirrored verbatim by the SQL oracle, so
    results are bit-exact.  One key-hash bucketed exchange.  Output:
    ``(key_col, n, tot_w, wq_<pct>, ...)``; null values/weights
    excluded row-wise, negative weights raise."""
    q_arr = np.asarray(qs, dtype=np.float64)
    if len(q_arr) and (q_arr.min() < 0.0 or q_arr.max() > 1.0):
        raise ValueError("grouped_weighted_quantiles: q outside [0, 1]")
    q_names = [f"wq_{int(round(q * 100))}" for q in qs]
    if len(set(q_names)) != len(q_names):
        raise ValueError(
            "grouped_weighted_quantiles: two qs round to the same "
            f"percent column name ({q_names}) — columns would "
            "silently collide")

    def bucket(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col)
        w = batch.column(weight_col)
        mask = pc.and_(pc.is_valid(v), pc.is_valid(w))
        if pa.types.is_floating(v.type):
            mask = pc.and_(mask, pc.invert(pc.is_nan(pc.fill_null(
                v, 0.0))))
        batch = batch.filter(mask)
        wv = np.asarray(batch.column(weight_col), dtype=np.int64)
        if len(wv) and wv.min() < 0:
            raise ValueError("grouped_weighted_quantiles: negative "
                             "weight")
        return pa.table({
            "k": batch.column(key_col),
            "v": pc.cast(batch.column(value_col), pa.int64()),
            "w": pa.array(wv)})

    def wq_bucket(g: pa.Table) -> pa.Table:
        k = g.column("k")
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        if not g.num_rows:
            cols = {key_col: k.slice(0, 0),
                    "n": pa.array([], pa.int64()),
                    "tot_w": pa.array([], pa.int64())}
            for name in q_names:
                cols[name] = pa.array([], pa.int64())
            return pa.table(cols)
        t = pa.table({"k": k, "v": g.column("v"), "w": g.column("w")})
        idx = pc.sort_indices(t, sort_keys=[("k", "ascending"),
                                            ("v", "ascending")])
        t = t.take(idx)
        ks = t.column("k")
        if isinstance(ks, pa.ChunkedArray):
            ks = ks.combine_chunks()
        v = np.asarray(t.column("v"), dtype=np.int64)
        w = np.asarray(t.column("w"), dtype=np.int64)
        n = len(v)
        new = _sorted_run_starts(ks)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, n))
        tot = np.add.reduceat(w, starts)
        cum = np.cumsum(w)
        run_off = np.repeat(cum[starts] - w[starts], lens)
        cum_run = (cum - run_off).astype(np.float64)
        cols = {key_col: ks.take(pa.array(starts)),
                "n": pa.array(lens.astype(np.int64)),
                "tot_w": pa.array(tot.astype(np.int64))}
        for q, name in zip(q_arr, q_names):
            thr = np.repeat(q * tot.astype(np.float64), lens)
            below = cum_run < thr
            first = starts + np.add.reduceat(
                below.astype(np.int64), starts)
            # a zero-total group (all weights 0): every row "below" is
            # False at q=0 edge cases; clamp into the run
            first = np.minimum(first, starts + lens - 1)
            cols[name] = pa.array(v[first])
        return pa.table(cols)

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"),
                    wq_bucket, "k", num_buckets)


def grouped_string_agg(ds, key_col: str, value_col: str,
                       order_cols: list[str], sep: str = ",",
                       out_col: str = "agg", num_buckets: int = 32):
    """Deterministic ordered ``string_agg`` per key: values
    concatenated in ``(*order_cols, value)`` order with ``sep`` — the
    list-materialization aggregate (audit trails, grouped id lists)
    with an exact SQL mirror.  One key-hash bucketed exchange;
    in-bucket assembly is Arrow-kernel only (sort_indices +
    ListArray wrap + binary_join — the :func:`postings` machinery
    generalized).  Null values are excluded; ``(*order_cols, value)``
    should be unique per key for a deterministic result (same
    requirement as the SQL ``ORDER BY``).  Output: ``(key_col, n,
    out_col)``."""

    def bucket(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch.column(value_col)),
                       pc.is_valid(batch.column(key_col)))
        batch = batch.filter(keep)
        cols = {"k": batch.column(key_col),
                "v": pc.cast(batch.column(value_col), pa.string())}
        for i, c in enumerate(order_cols):
            cols[f"o{i}"] = batch.column(c)
        return pa.table(cols)

    def assemble(g: pa.Table) -> pa.Table:
        if not g.num_rows:
            k = g.column("k")
            if isinstance(k, pa.ChunkedArray):
                k = k.combine_chunks()
            return pa.table({key_col: k.slice(0, 0),
                             "n": pa.array([], pa.int64()),
                             out_col: pa.array([], pa.string())})
        idx = pc.sort_indices(g, sort_keys=(
            [("k", "ascending")]
            + [(f"o{i}", "ascending") for i in range(len(order_cols))]
            + [("v", "ascending")]))
        g = g.take(idx)
        ks = g.column("k")
        if isinstance(ks, pa.ChunkedArray):
            ks = ks.combine_chunks()
        vs = g.column("v")
        if isinstance(vs, pa.ChunkedArray):
            vs = vs.combine_chunks()
        new = _sorted_run_starts(ks)
        starts = np.flatnonzero(new)
        n = g.num_rows
        offs = pa.array(np.append(starts, n).astype(np.int32))
        lists = pa.ListArray.from_arrays(offs, vs)
        joined = pc.binary_join(lists, sep)
        lens = np.diff(np.append(starts, n))
        return pa.table({key_col: ks.take(pa.array(starts)),
                         "n": pa.array(lens.astype(np.int64)),
                         out_col: joined})

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"),
                    assemble, "k", num_buckets)


def cs_heavy_counts(ds, col: str, m: int = 128, width: int = 8192,
                    depth: int = 7, seed: int = 29):
    """Unbiased Count-Sketch point estimates (Charikar, Chen &
    Farach-Colton 2002; sketches/countsketch.py) for the exact
    ``HAVING cnt > n/(m+1)`` frequent keys, bound-checked per key:
    ``|est − cnt| ≤ 4·√(F2/width)`` — per-row Chebyshev at 4σ
    (Var ≤ F2/width) driven exponentially small by the odd-depth
    median.  The signed sketch is the UNBIASED complement of the
    one-sided Count-Min plan in :func:`heavy_hitters`.

    Plan: ONE pre-aggregated exact count shuffle yields the per-key
    table, and `n`, `F2 = Σ cnt²` and the frequent set derive from it
    (native ``aggregate(Sum)`` folds + a threshold filter — the same
    numbers the SQL oracle recomputes); ONE sketch pass (merged
    per-block partials, NO row shuffle) yields the estimates.  Output
    ``(col, cnt, within_bound)`` sorted by key; the oracle recomputes
    the HAVING set + exact counts and asserts the flag TRUE.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    from bqf_ray.functions.hashing import fmix64
    from bqf_ray.sketches.countsketch import CountSketch
    from bqf_ray.stages.sketch_stage import build_sketch

    def pre(batch: pa.Table) -> pa.Table:
        vals = batch.column(col)
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        u, c = np.unique(np.asarray(vals.drop_null()).astype(np.int64),
                         return_counts=True)
        return pa.table({col: pa.array(u),
                         "partial": pa.array(c.astype(np.int64))})

    # exact per-key counts: ONE pre-aggregated exchange; n and F2 fold
    # from the FINAL counts (per-batch Σc² partials would double-count
    # keys that span batches)
    per_key = (ds.map_batches(pre, batch_format="pyarrow")
               .groupby(col).aggregate(Sum("partial", alias_name="cnt"))
               .materialize())
    folds = per_key.map_batches(
        lambda t: pa.table({
            "pn": pa.array([int(np.asarray(t.column("cnt")).sum())]),
            "pf2": pa.array([int((np.asarray(t.column("cnt"),
                                             dtype=np.int64) ** 2).sum())]),
        }), batch_format="pyarrow").to_pandas()
    n_total = int(folds["pn"].sum())
    f2 = int(folds["pf2"].sum())
    thresh = n_total / (m + 1.0)
    heavy = per_key.map_batches(
        lambda b: b.filter(pc.greater(b.column("cnt"),
                                      pa.scalar(thresh))),
        batch_format="pyarrow").to_pandas()
    if heavy.empty:                 # all-empty datasets lose columns
        heavy = pd.DataFrame({col: pd.Series([], dtype=np.int64),
                              "cnt": pd.Series([], dtype=np.int64)})

    cs = build_sketch(
        ds,
        lambda batch: (fmix64(np.asarray(
            batch.column(col).combine_chunks().drop_null()
            if isinstance(batch.column(col), pa.ChunkedArray)
            else batch.column(col).drop_null()).astype(np.int64)
            .view(np.uint64)), None),
        lambda: CountSketch(width=width, depth=depth, seed=seed))

    keys = heavy[col].to_numpy().astype(np.int64)
    est = cs.query_batch(fmix64(keys.view(np.uint64)))
    bound = 4.0 * cs.error_std(float(f2))
    cnt = heavy["cnt"].to_numpy().astype(np.int64)
    out = pd.DataFrame({
        col: keys, "cnt": cnt,
        "within_bound": np.abs(est - cnt).astype(np.float64) <= bound})
    return out.sort_values(col).reset_index(drop=True)


def decayed_sum(ds, key_col: str, ts_col: str, value_col: str,
                k_max: int = 20, scale: int = 100, day_s: int = 86400,
                num_buckets: int = 32):
    """Exponentially time-decayed score per key with EXACT integer
    arithmetic: each row weighs ``2^(k_max − age)`` where ``age`` is
    its whole-day distance from the corpus max day (0 past ``k_max``
    days — the halving-per-day trending score), and
    ``score = Σ floor(v·scale + 0.5) · weight`` sums int64-exactly, so
    the result is BIT-IDENTICAL to the SQL replay (order-dependent
    float decay sums are not).  Null values contribute 0; null
    timestamps get weight 0 (SQL's CASE falls through to ELSE 0).

    Plan: the max day is one native ``Max`` fold; scores ride one
    map-side-combined key exchange (:func:`bqf_ray.stages.partition.
    bucketed_agg`).  An int64-overflow float shadow is summed beside
    the exact column and raises loudly past 2^62.
    Output ``(key_col, decayed)``.
    """
    from ray.data.aggregate import Max

    from bqf_ray.stages.partition import bucketed_agg

    day_us = int(day_s) * 1_000_000
    max_ts = ds.aggregate(Max(ts_col))[f"max({ts_col})"]
    max_day = int(np.int64(np.datetime64(max_ts, "us").astype(np.int64))
                  // day_us)

    def pre(batch: pa.Table) -> pa.Table:
        v = np.asarray(pc.fill_null(pc.cast(batch.column(value_col),
                                            pa.float64()), 0.0))
        vc = np.floor(v * scale + 0.5).astype(np.int64)
        ts = batch.column(ts_col)
        valid = np.asarray(pc.is_valid(ts))
        t = np.asarray(pc.fill_null(ts, pa.scalar(0, pa.timestamp("us")))
                       ).astype("datetime64[us]").astype(np.int64)
        age = max_day - t // day_us
        w = np.where(valid & (age >= 0) & (age <= k_max),
                     np.int64(1) << np.minimum(np.maximum(
                         k_max - age, 0), 62).astype(np.int64),
                     np.int64(0))
        contrib = vc * w
        return pa.table({key_col: batch.column(key_col),
                         "part": pa.array(contrib),
                         "shadow": pa.array(contrib.astype(np.float64))})

    out = bucketed_agg(
        ds.map_batches(pre, batch_format="pyarrow"),
        [key_col], [("part", "sum", "decayed"),
                    ("shadow", "sum", "shadow")],
        num_buckets=num_buckets)

    def finish(batch: pa.Table) -> pa.Table:
        sh = np.asarray(batch.column("shadow"), dtype=np.float64)
        if len(sh) and np.abs(sh).max() >= float(2 ** 62):
            raise OverflowError(
                "decayed_sum: per-key score exceeds the int64 exact "
                "envelope (2^62); lower k_max or scale")
        return batch.drop_columns(["shadow"])

    return out.map_batches(finish, batch_format="pyarrow")


def daily_anomaly(ds, key_col: str, ts_col: str, z_thresh: float = 3.0,
                  day_s: int = 86400, num_buckets: int = 32):
    """Per-key daily-count anomaly z-scores: count events per
    ``(key, day)``, then score each present day against THAT key's
    population mean/std over its present days.  The z-score is exact
    in the IEEE sense — all moments stay int64
    (``n`` days, ``S = Σc``, ``Q = Σc²``) and
    ``z = (n·c − S) / sqrt(n·Q − S²)`` is ONE int→double cast pair,
    one sqrt and one division, so it bit-matches the SQL replay of the
    same expression (a running float mean/var would not).  Keys whose
    counts are all equal (``n·Q == S²``) emit NULL ``z`` /
    ``is_anomaly``; ``is_anomaly = |z| > z_thresh`` otherwise.

    Plan: per-batch ``(key, day)`` count partials (map-side combine),
    ONE key-bucket shuffle so every key's days co-locate, in-bucket
    lexsort + ``np.add.reduceat`` folds for the per-key moments — no
    per-key loop.  ``n·Q`` is shadow-guarded against the 2^62 exact
    envelope.  Output ``(key_col, day, cnt, n_days, s, q, z,
    is_anomaly)``.
    """
    day_us = np.int64(day_s) * 1_000_000

    def pre(batch: pa.Table) -> pa.Table:
        if batch.column(key_col).null_count or \
                batch.column(ts_col).null_count:
            raise ValueError("daily_anomaly: null key/ts row")
        k = np.asarray(batch.column(key_col), dtype=np.int64)
        d = (np.asarray(batch.column(ts_col)).astype("datetime64[us]")
             .astype(np.int64) // day_us) * day_us
        part = pa.table({"k": pa.array(k), "d": pa.array(d)}).group_by(
            ["k", "d"]).aggregate([([], "count_all")])
        return pa.table({
            "k": part.column("k"), "d": part.column("d"),
            "c": pc.cast(part.column("count_all"), pa.int64())})

    def score(group: pa.Table) -> pa.Table:
        k = np.asarray(group.column("k"), dtype=np.int64)
        if not len(k):
            return pa.table({
                key_col: pa.array([], pa.int64()),
                "day": pa.array([], pa.timestamp("us")),
                "cnt": pa.array([], pa.int64()),
                "n_days": pa.array([], pa.int64()),
                "s": pa.array([], pa.int64()),
                "q": pa.array([], pa.int64()),
                "z": pa.array([], pa.float64()),
                "is_anomaly": pa.array([], pa.bool_())})
        d = np.asarray(group.column("d"), dtype=np.int64)
        c = np.asarray(group.column("c"), dtype=np.int64)
        order = np.lexsort((d, k))
        ks, ds_, cs = k[order], d[order], c[order]
        # fold same (key, day) partials from different input blocks
        same = np.zeros(len(ks), dtype=bool)
        same[1:] = (ks[1:] == ks[:-1]) & (ds_[1:] == ds_[:-1])
        cell = np.flatnonzero(~same)
        cc = np.add.reduceat(cs, cell)
        kc, dc = ks[cell], ds_[cell]
        first = np.ones(len(kc), dtype=bool)
        first[1:] = kc[1:] != kc[:-1]
        start = np.flatnonzero(first)
        n_days = np.diff(np.append(start, len(kc)))
        s = np.add.reduceat(cc, start)
        q = np.add.reduceat(cc * cc, start)
        shadow = n_days.astype(np.float64) * q.astype(np.float64)
        if len(shadow) and shadow.max() >= float(2 ** 62):
            raise OverflowError(
                "daily_anomaly: n·Q exceeds the int64 exact envelope "
                "(2^62); split the key range or shorten the horizon")
        reps = n_days
        n_r = np.repeat(n_days, reps)
        s_r = np.repeat(s, reps)
        q_r = np.repeat(q, reps)
        rad = (n_r * q_r - s_r * s_r).astype(np.float64)
        ok = rad > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(ok, (n_r * cc - s_r).astype(np.float64)
                         / np.sqrt(rad), np.nan)
        anom = np.abs(z) > float(z_thresh)
        return pa.table({
            key_col: pa.array(kc),
            "day": pa.array(dc.astype("datetime64[us]"),
                            pa.timestamp("us")),
            "cnt": pa.array(cc),
            "n_days": pa.array(n_r),
            "s": pa.array(s_r), "q": pa.array(q_r),
            "z": pa.array(z, pa.float64(), mask=~ok),
            "is_anomaly": pa.array(anom, pa.bool_(), mask=~ok)})

    return exchange(ds.map_batches(pre, batch_format="pyarrow"), score,
                    "k", num_buckets)


def grouped_spearman(ds, key_col: str, x_col: str, y_col: str,
                     num_buckets: int = 32,
                     max_group_rows: int = 1_000_000):
    """Per-group Spearman rank correlation with DETERMINISTIC floats.

    Tie-averaged ranks stay EXACT by working in CENTERED DOUBLED rank
    units: a tie run spanning 1-based ranks [first, last] has doubled
    average rank ``first + last`` (= ``2·RANK() + peers − 1`` in SQL),
    and subtracting the per-key constant ``n + 1`` centers it so
    ``Σe = 0`` identically.  The three surviving component sums
    (Σeₓe_y, Σeₓ², Σe_y²) accumulate as exact int64 (|e| < n ⇒ the
    sums cap at n³ < 2^60 under the ``max_group_rows`` ≤ 2^20
    envelope — loud raise past it) and ONE IEEE expression
    ``rho = Σeₓe_y / (√Σeₓ² · √Σe_y²)`` bit-matches the SQL replay
    (RANK + peer-count + key-count windows).

    Rows with a null/NaN on either value column are excluded; null
    keys form ONE group (SQL GROUP BY semantics).  Unlike
    :func:`grouped_correlation`, ranks are a per-key ORDER statistic,
    so the pruned raw ``(key, x, y)`` rows ride ONE key-bucketed
    exchange (no map-side pre-aggregation is possible); keys never
    split across buckets, so the fold emits final per-key rows.
    Output ``(key_col, n, s_xy, rho)`` — ``rho`` NULL when n < 2 or
    either side is constant within the key.
    """
    from bqf_ray.pipelines.audit import _key_codes

    def _f64(col) -> np.ndarray:
        arr = np.asarray(col)
        if np.issubdtype(arr.dtype, np.datetime64):
            return arr.astype("datetime64[us]").astype(np.int64) \
                      .astype(np.float64)
        return arr.astype(np.float64)

    def _centered_doubled_ranks(kc: np.ndarray, v: np.ndarray,
                                counts_per_el: np.ndarray) -> np.ndarray:
        """e = (first+last doubled avg rank) − (n_key + 1), exact int64.
        Run boundaries come from integer key codes + value equality on
        null-free floats (no Arrow-null pitfalls here by construction).
        """
        order = np.lexsort((v, kc))
        ks, vs = kc[order], v[order]
        key_new = np.empty(len(ks), dtype=bool)
        key_new[:1] = True
        key_new[1:] = ks[1:] != ks[:-1]
        key_starts = np.flatnonzero(key_new)
        seg_id = np.cumsum(key_new) - 1
        pos1 = (np.arange(len(ks), dtype=np.int64)
                - key_starts[seg_id] + 1)          # 1-based rank in key
        run_new = key_new.copy()
        run_new[1:] |= vs[1:] != vs[:-1]
        run_starts = np.flatnonzero(run_new)
        run_len = np.diff(np.append(run_starts, len(ks)))
        d_run = 2 * pos1[run_starts] + run_len - 1  # first + last
        e_sorted = (np.repeat(d_run, run_len)
                    - (counts_per_el[order] + 1))
        e = np.empty(len(ks), dtype=np.int64)
        e[order] = e_sorted
        return e

    def fold(group: pa.Table) -> pa.Table:
        k = group.column(key_col)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        if not group.num_rows:
            return pa.table({key_col: k.slice(0, 0),
                             "n": pa.array([], pa.int64()),
                             "s_xy": pa.array([], pa.int64()),
                             "rho": pa.array([], pa.float64())})
        kc = _key_codes(k)
        x = _f64(group.column(x_col))
        y = _f64(group.column(y_col))
        order_k = np.argsort(kc, kind="stable")
        kc_s = kc[order_k]
        key_new = np.empty(len(kc_s), dtype=bool)
        key_new[:1] = True
        key_new[1:] = kc_s[1:] != kc_s[:-1]
        key_starts = np.flatnonzero(key_new)
        counts = np.diff(np.append(key_starts, len(kc_s))) \
                   .astype(np.int64)
        if counts.max() > max_group_rows:
            raise ValueError(
                "grouped_spearman: a key has "
                f"{int(counts.max())} rows > max_group_rows="
                f"{max_group_rows} — the exact int64 rank envelope "
                "(Σe² < n³ ≤ 2^60) ends here; sample or pre-quantize "
                "the hot key upstream")
        cnt_per_el = np.empty(len(kc), dtype=np.int64)
        cnt_per_el[order_k] = np.repeat(counts, counts)
        ex = _centered_doubled_ranks(kc, x, cnt_per_el)
        ey = _centered_doubled_ranks(kc, y, cnt_per_el)
        exs, eys = ex[order_k], ey[order_k]
        s_xy = np.add.reduceat(exs * eys, key_starts)
        s_xx = np.add.reduceat(exs * exs, key_starts)
        s_yy = np.add.reduceat(eys * eys, key_starts)
        ok = (counts >= 2) & (s_xx > 0) & (s_yy > 0)
        denom = np.sqrt(np.where(ok, s_xx, 1).astype(np.float64)) \
            * np.sqrt(np.where(ok, s_yy, 1).astype(np.float64))
        rho = np.where(ok, s_xy.astype(np.float64) / denom, np.nan)
        return pa.table({
            key_col: k.take(pa.array(order_k[key_starts])),
            "n": pa.array(counts),
            "s_xy": pa.array(s_xy),
            "rho": pa.array(rho, pa.float64(), mask=~ok)})

    return exchange(_finite_pairs(ds, key_col, x_col, y_col), fold,
                    key_col, num_buckets)


def _finite_pairs(ds, key_col: str, x_col: str, y_col: str):
    """``(key, x, y)`` rows with both values valid and finite — the
    rank-correlation projection."""

    def prune(batch: pa.Table) -> pa.Table:
        sub = batch.select([key_col, x_col, y_col])
        ok = pc.and_(sub.column(x_col).is_valid(),
                     sub.column(y_col).is_valid())
        for c in (x_col, y_col):
            if pa.types.is_floating(sub.schema.field(c).type):
                ok = pc.and_(ok, pc.fill_null(
                    pc.is_finite(sub.column(c)), False))
        return sub.filter(ok)

    return ds.map_batches(prune, batch_format="pyarrow")


def grouping_sets(ds, key_cols: list[str],
                  aggs: list[tuple[str, str, str]],
                  sets: list[list[str]], num_buckets: int = 64,
                  combine_local: bool = True):
    """``GROUP BY GROUPING SETS`` in ONE corpus exchange.

    The corpus is aggregated once at the FINEST level (``key_cols``,
    which every requested set must be a subset of) through
    :func:`bqf_ray.stages.partition.bucketed_agg`; each coarser set then
    re-aggregates the finest TABLE — decomposable partials (count
    re-sums, sum/min/max idempotent-merge), so super-aggregates never
    touch the corpus again.  ``aggs``: [(col, fn, out)] with fn in
    sum/min/max/count (SQL semantics: count = non-null, sum/min/max
    skip nulls, all-null groups yield null).

    Output columns: every key in ``key_cols`` (null where rolled up)
    + ``grp_<key>`` BIGINT 0/1 flags (SQL ``GROUPING(key)`` — the flag,
    not the null, disambiguates genuinely-null key values from rolled-up
    positions) + the agg outputs.  One output Dataset (union of the
    per-set tables).  The grand-total set ``[]`` folds per-block
    partials of the finest table, never the corpus.
    """
    import ray

    from bqf_ray.stages.partition import bucketed_agg

    keys = list(key_cols)
    for s in sets:
        extra = set(s) - set(keys)
        if extra:
            raise ValueError(f"grouping_sets: set {s} has keys {extra} "
                             "outside key_cols")
    _REAGG = {"sum": "sum", "min": "min", "max": "max", "count": "sum"}
    for _, fn, _ in aggs:
        if fn not in _REAGG:
            raise ValueError(f"grouping_sets: non-decomposable fn {fn!r}")

    finest = bucketed_agg(ds, keys, aggs, num_buckets=num_buckets,
                          combine_local=combine_local).materialize()
    schema = finest.schema()
    ktype = {k: schema.base_schema.field(k).type for k in keys}

    def finish(sub_keys: list[str]):
        """Attach null rolled-up keys + grp flags, fix column order."""
        def fn(t: pa.Table) -> pa.Table:
            cols, names = [], []
            for k in keys:
                if k in sub_keys:
                    cols.append(t.column(k))
                else:
                    cols.append(pa.nulls(len(t), type=ktype[k]))
                names.append(k)
            for k in keys:
                flag = 0 if k in sub_keys else 1
                cols.append(pa.array(
                    np.full(len(t), flag, dtype=np.int64)))
                names.append(f"grp_{k}")
            for _, _, out in aggs:
                cols.append(t.column(out))
                names.append(out)
            return pa.table(dict(zip(names, cols)))
        return fn

    outs = []
    for s in sets:
        sub = [k for k in keys if k in s]       # canonical order
        if sub == keys:
            lvl = finest
        elif sub:
            lvl = bucketed_agg(
                finest, sub, [(out, _REAGG[fn], out) for _, fn, out in aggs],
                num_buckets=num_buckets, combine_local=False)
        else:                                   # grand total
            # per-block partial fold, then one tiny final combine
            def block_fold(t: pa.Table) -> pa.Table:
                return t.group_by([], use_threads=False).aggregate(
                    [(out, _REAGG[fn]) for _, fn, out in aggs]
                ).rename_columns([out for _, _, out in aggs])
            lvl = (finest.map_batches(block_fold, batch_format="pyarrow")
                   .repartition(1)
                   .map_batches(block_fold, batch_format="pyarrow"))
        outs.append(lvl.map_batches(finish(sub), batch_format="pyarrow"))
    res = outs[0]
    for o in outs[1:]:
        res = res.union(o)
    return res


def rollup(ds, key_cols: list[str], aggs: list[tuple[str, str, str]],
           **kw):
    """``GROUP BY ROLLUP(key_cols...)`` — prefix grouping sets
    (finest → … → grand total); see :func:`grouping_sets`."""
    sets = [list(key_cols[:i]) for i in range(len(key_cols), -1, -1)]
    return grouping_sets(ds, key_cols, aggs, sets, **kw)


def cube(ds, key_cols: list[str], aggs: list[tuple[str, str, str]],
         **kw):
    """``GROUP BY CUBE(key_cols...)`` — all 2^k key subsets; see
    :func:`grouping_sets`."""
    from itertools import combinations
    keys = list(key_cols)
    sets = [list(c) for r in range(len(keys), -1, -1)
            for c in combinations(keys, r)]
    return grouping_sets(ds, keys, aggs, sets, **kw)


def grouped_kendall(ds, key_col: str, x_col: str, y_col: str,
                    num_buckets: int = 32,
                    max_group_rows: int = 8192):
    """Per-group Kendall tau-b with DETERMINISTIC floats — the
    concordance companion to :func:`grouped_spearman`.

    Every within-key pair (i < j by row identity) is classified exactly
    in int64: ``s = n_concordant − n_discordant`` (pairs tied on either
    side contribute 0), ``n1`` = pairs tied on x, ``n2`` = pairs tied
    on y, ``np`` = C(n,2); ``tau_b = s / (√(np−n1) · √(np−n2))`` in ONE
    IEEE expression that bit-matches the SQL self-join replay.  NULL
    when n < 2 or either side is constant within the key.

    Pairs are an O(n²)-per-key statistic with no decomposable partial
    form, so the pruned raw ``(key, x, y)`` rows ride ONE key-bucketed
    exchange and each key's pairs expand VECTORIZED inside its bucket
    (the segment-pair trick from ``graph.cooccurrence_edges`` — repeat
    + offset arithmetic, no Python pair loop).  ``max_group_rows``
    bounds the quadratic blowup (default 8192 rows/key ⇒ ≤ 33.5M pairs
    per hot key) with a loud raise — sample or pre-quantize hot keys
    upstream, exactly the :func:`grouped_spearman` envelope contract.

    Rows with a null/NaN/±inf on either value column are excluded;
    null keys form ONE group.  Timestamps compare as exact int64 µs.
    Output ``(key_col, n, s, tau)``.
    """
    from bqf_ray.pipelines.audit import _key_codes

    def _vals(col) -> np.ndarray:
        arr = np.asarray(col)
        if np.issubdtype(arr.dtype, np.datetime64):
            return arr.astype("datetime64[us]").astype(np.int64)
        return arr.astype(np.float64)

    def fold(group: pa.Table) -> pa.Table:
        k = group.column(key_col)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        if not group.num_rows:
            return pa.table({key_col: k.slice(0, 0),
                             "n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "tau": pa.array([], pa.float64())})
        kc = _key_codes(k)
        x = _vals(group.column(x_col))
        y = _vals(group.column(y_col))
        order = np.argsort(kc, kind="stable")
        ks, xs, ys = kc[order], x[order], y[order]
        nrows = len(ks)
        key_new = np.empty(nrows, dtype=bool)
        key_new[:1] = True
        key_new[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(key_new)
        counts = np.diff(np.append(starts, nrows)).astype(np.int64)
        if counts.max() > max_group_rows:
            raise ValueError(
                "grouped_kendall: a key has "
                f"{int(counts.max())} rows > max_group_rows="
                f"{max_group_rows} — the exact O(n²) pair envelope "
                "ends here; sample or pre-quantize the hot key "
                "upstream")
        # segment pair expansion: row i pairs with the r_i rows after
        # it in its key segment
        seg_end = np.repeat(starts + counts, counts)
        idx = np.arange(nrows, dtype=np.int64)
        r = seg_end - idx - 1
        first = np.repeat(idx, r)
        off = (np.arange(r.sum(), dtype=np.int64)
               - np.repeat(np.cumsum(r) - r, r))
        second = first + off + 1
        dx = np.sign(xs[second] - xs[first]).astype(np.int64)
        dy = np.sign(ys[second] - ys[first]).astype(np.int64)
        # per-key folds: pairs are key-contiguous (first is sorted)
        pair_starts = np.cumsum(
            np.concatenate([[0], counts * (counts - 1) // 2]))[:-1]
        has = counts >= 2
        ps = pair_starts[has]

        def seg_sum(v):
            out = np.zeros(len(counts), dtype=np.int64)
            if len(ps):
                out[has] = np.add.reduceat(v, ps)
            return out

        s = seg_sum(dx * dy)
        n1 = seg_sum((dx == 0).astype(np.int64))
        n2 = seg_sum((dy == 0).astype(np.int64))
        npair = counts * (counts - 1) // 2
        ok = (counts >= 2) & (npair > n1) & (npair > n2)
        denom = (np.sqrt(np.where(ok, npair - n1, 1).astype(np.float64))
                 * np.sqrt(np.where(ok, npair - n2, 1)
                           .astype(np.float64)))
        tau = np.where(ok, s.astype(np.float64) / denom, np.nan)
        return pa.table({
            key_col: k.take(pa.array(order[starts])),
            "n": pa.array(counts),
            "s": pa.array(s),
            "tau": pa.array(tau, pa.float64(), mask=~ok)})

    return exchange(_finite_pairs(ds, key_col, x_col, y_col), fold,
                    key_col, num_buckets)


def grouped_kendall_binned(ds, key_col: str, x_col: str, y_col: str,
                           bins: int = 64, num_buckets: int = 32):
    """Quantized Kendall tau-b — the SCALE path past
    :func:`grouped_kendall`'s ``max_group_rows`` envelope (r3 verdict
    next-step #8): per key, x and y are binned into ``bins``
    equal-width cells between the key's min and max
    (``bx = min(⌊(x−min)/(max−min)·B⌋, B−1)`` — one IEEE expression a
    SQL oracle replays bit-exactly), and tau-b is computed EXACTLY on
    the binned values from the B×B contingency table — O(n + B²) per
    key instead of O(n²), so a 10M-row hot key costs one linear pass.

    Quantization only converts cross-pairs into ties (bin order
    preserves value order), so the result is exact tau-b of the
    coarsened variables, and the emitted ``tau_err_bound`` is a valid
    (conservative) bound on ``|tau_binned − tau_exact|``:
    with T = newly-tied pairs (binned ties minus exact-value ties,
    both exact integers), ``|s_b − s_e| ≤ T`` and the exact
    denominator is ≥ the binned one, giving
    ``bound = min((T + C(n,2))/denom − 1, 2)`` — every output column
    is deterministic and SQL-recomputable, so the whole row
    hash-matches the oracle (no weak rows-only check).

    Output ``(key_col, n, s, tau, tied_x_binned, tied_y_binned,
    tau_err_bound)``; tau/bound NULL when n < 2 or a side is constant
    (all pairs tied)."""
    from bqf_ray.pipelines.audit import _key_codes

    B = int(bins)

    def _vals(col) -> np.ndarray:
        arr = np.asarray(col)
        if np.issubdtype(arr.dtype, np.datetime64):
            return arr.astype("datetime64[us]").astype(np.int64) \
                .astype(np.float64)
        return arr.astype(np.float64)

    def _bin(v, starts, counts):
        mn = np.minimum.reduceat(v, starts)
        mx = np.maximum.reduceat(v, starts)
        mn_r, mx_r = np.repeat(mn, counts), np.repeat(mx, counts)
        span = mx_r > mn_r
        b = np.zeros(len(v), dtype=np.int64)
        if span.any():
            b[span] = np.minimum(
                np.floor((v[span] - mn_r[span])
                         / (mx_r[span] - mn_r[span]) * B), B - 1
            ).astype(np.int64)
        return b

    def _tie_pairs(kseg, v, nkeys):
        """Per-key Σ C(c,2) over exact value groups."""
        order = np.lexsort((v, kseg))
        ks_, vs_ = kseg[order], v[order]
        new = np.concatenate([[True],
                              (ks_[1:] != ks_[:-1]) | (vs_[1:] != vs_[:-1])])
        st = np.flatnonzero(new)
        c = np.diff(np.append(st, len(ks_))).astype(np.int64)
        out = np.zeros(nkeys, dtype=np.int64)
        np.add.at(out, ks_[st], c * (c - 1) // 2)
        return out

    def fold(group: pa.Table) -> pa.Table:
        k = group.column(key_col)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        if not group.num_rows:
            return pa.table({key_col: k.slice(0, 0),
                             "n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "tau": pa.array([], pa.float64()),
                             "tied_x_binned": pa.array([], pa.int64()),
                             "tied_y_binned": pa.array([], pa.int64()),
                             "tau_err_bound": pa.array([], pa.float64())})
        kc = _key_codes(k)
        x = _vals(group.column(x_col))
        y = _vals(group.column(y_col))
        order = np.argsort(kc, kind="stable")
        ks_, xs, ys = kc[order], x[order], y[order]
        nrows = len(ks_)
        key_new = np.concatenate([[True], ks_[1:] != ks_[:-1]])
        starts = np.flatnonzero(key_new)
        counts = np.diff(np.append(starts, nrows)).astype(np.int64)
        nkeys = len(starts)
        kseg = np.repeat(np.arange(nkeys), counts)
        bx = _bin(xs, starts, counts)
        by = _bin(ys, starts, counts)
        # exact-value tie pairs (for the error bound)
        tx_exact = _tie_pairs(kseg, xs, nkeys)
        ty_exact = _tie_pairs(kseg, ys, nkeys)
        # contingency cells per key
        code = kseg * (B * B) + bx * B + by
        cells, ccnt = np.unique(code, return_counts=True)
        ckey = cells // (B * B)
        cbx = (cells // B) % B
        cby = cells % B
        cell_starts = np.flatnonzero(
            np.concatenate([[True], ckey[1:] != ckey[:-1]]))
        cell_counts = np.diff(np.append(cell_starts, len(cells)))
        s = np.zeros(nkeys, dtype=np.int64)
        n1 = np.zeros(nkeys, dtype=np.int64)
        n2 = np.zeros(nkeys, dtype=np.int64)
        for ki in range(nkeys):
            sl = slice(cell_starts[ki], cell_starts[ki] + cell_counts[ki])
            dbx, dby, dn = cbx[sl], cby[sl], ccnt[sl].astype(np.int64)
            dense = np.zeros((B, B), dtype=np.int64)
            dense[dbx, dby] = dn
            R = dense.cumsum(axis=0).cumsum(axis=1)   # inclusive prefix
            # pairs with (bx' < bx, by' < by) → concordant with cell
            ll = np.where((dbx > 0) & (dby > 0),
                          R[dbx - 1, dby - 1], 0)
            # pairs with (bx' < bx, by' > by) → discordant
            lg = np.where(dbx > 0,
                          R[dbx - 1, B - 1] - R[dbx - 1, dby], 0)
            s[ki] = int((dn * (ll - lg)).sum())
            rowm = dense.sum(axis=1)
            colm = dense.sum(axis=0)
            n1[ki] = int((rowm * (rowm - 1) // 2).sum())
            n2[ki] = int((colm * (colm - 1) // 2).sum())
        npair = counts * (counts - 1) // 2
        ok = (counts >= 2) & (npair > n1) & (npair > n2)
        denom = (np.sqrt(np.where(ok, npair - n1, 1).astype(np.float64))
                 * np.sqrt(np.where(ok, npair - n2, 1)
                           .astype(np.float64)))
        tau = np.where(ok, s.astype(np.float64) / denom, np.nan)
        T = (n1 - tx_exact) + (n2 - ty_exact)
        bound = np.where(
            ok, np.minimum((T + npair).astype(np.float64) / denom - 1.0,
                           2.0), np.nan)
        return pa.table({
            key_col: k.take(pa.array(order[starts])),
            "n": pa.array(counts),
            "s": pa.array(s),
            "tau": pa.array(tau, pa.float64(), mask=~ok),
            "tied_x_binned": pa.array(n1),
            "tied_y_binned": pa.array(n2),
            "tau_err_bound": pa.array(bound, pa.float64(), mask=~ok)})

    return exchange(_finite_pairs(ds, key_col, x_col, y_col), fold,
                    key_col, num_buckets)


def grouped_ks(ds_a, ds_b, key_col: str, value_col: str,
               num_buckets: int = 64, max_rows_per_key: int = 1 << 20):
    """Exact two-sample Kolmogorov–Smirnov distance per key — the
    distribution-drift STATISTIC companion to the per-group drift
    histograms: ``D = max_v |F_a(v) − F_b(v)|`` over the pooled value
    points, kept exact as the integer cross-product
    ``d_int = max |c_a·n_b − c_b·n_a|`` (cumulative counts are
    tie-inclusive, SQL's default RANGE window frame) with ONE final
    IEEE division ``ks = d_int/(n_a·n_b)``.  Keys present on only one
    side are dropped (an empirical CDF needs both samples; mirror with
    ``HAVING`` both counts > 0).

    Like every exact order statistic here (spearman/kendall), the
    pooled rows cannot pre-aggregate: pruned ``(key, v, side)`` rows
    ride ONE key-hash-bucketed exchange; each bucket lexsorts once and
    scores all its keys with segmented cumsums evaluated at
    end-of-tie-run positions (reduceat folds, no per-key loop).  Loud
    ``max_rows_per_key`` envelope; the int64 cross product is safe to
    2^31 rows/key.  Null/NaN values are excluded row-wise.

    Output: ``(key_col, n_a, n_b, d_int, ks_stat)``."""
    CAP = int(max_rows_per_key)

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            v = batch.column(value_col)
            keep = pc.and_(pc.is_valid(v),
                           pc.is_valid(batch.column(key_col)))
            if pa.types.is_floating(v.type):
                keep = pc.and_(keep, pc.invert(
                    pc.is_nan(pc.fill_null(v, 0.0))))
            batch = batch.filter(keep)
            return pa.table({
                "k": batch.column(key_col),
                "v": pc.cast(batch.column(value_col), pa.float64()),
                "s": pa.array(np.full(batch.num_rows, side,
                                      dtype=np.int8))})
        return fn

    pooled = (ds_a.map_batches(tag(0), batch_format="pyarrow")
              .union(ds_b.map_batches(tag(1), batch_format="pyarrow")))

    def score_bucket(group: pa.Table) -> pa.Table:
        k = group.column("k")
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        empty = pa.table({
            key_col: k.slice(0, 0),
            "n_a": pa.array([], pa.int64()),
            "n_b": pa.array([], pa.int64()),
            "d_int": pa.array([], pa.int64()),
            "ks_stat": pa.array([], pa.float64())})
        if not group.num_rows:
            return empty
        kc = np.unique(np.asarray(k), return_inverse=True)[1]
        v = np.asarray(group.column("v"), dtype=np.float64)
        s = np.asarray(group.column("s"), dtype=np.int64)
        order = np.lexsort((v, kc))
        kc, v, s = kc[order], v[order], s[order]
        n = len(kc)
        new = np.r_[True, kc[1:] != kc[:-1]]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], n]
        seg_n = ends - starts
        if int(seg_n.max()) > CAP:
            raise ValueError(
                f"grouped_ks: a key holds {int(seg_n.max())} rows > "
                f"max_rows_per_key={CAP}")
        seg = np.repeat(np.arange(len(starts), dtype=np.int64), seg_n)
        # tie-inclusive cumulative counts per side within each key
        cb_all = np.cumsum(s)
        ca_all = np.cumsum(1 - s)
        off_b = np.repeat(cb_all[starts] - s[starts], seg_n)
        off_a = np.repeat(ca_all[starts] - (1 - s[starts]), seg_n)
        cb = cb_all - off_b
        ca = ca_all - off_a
        nb = np.repeat(cb[ends - 1], seg_n)
        na = np.repeat(ca[ends - 1], seg_n)
        # evaluate only at the LAST row of each equal-value run (the
        # tie-inclusive CDF step point)
        run_end = np.r_[(kc[1:] != kc[:-1]) | (v[1:] != v[:-1]), True]
        d = np.abs(ca * nb - cb * na)
        d = np.where(run_end, d, np.int64(-1))
        d_max = np.maximum.reduceat(d, starts)
        n_a = ca[ends - 1]
        n_b = cb[ends - 1]
        keep = (n_a > 0) & (n_b > 0)
        ks = np.where(keep, d_max / np.maximum(n_a * n_b, 1), 0.0)
        out = pa.table({
            key_col: k.take(pa.array(order[starts])),
            "n_a": pa.array(n_a), "n_b": pa.array(n_b),
            "d_int": pa.array(d_max), "ks_stat": pa.array(ks)})
        return out.filter(pa.array(keep))

    return exchange(pooled, score_bucket, "k", num_buckets)


def bootstrap_mean_ci(ds, key_col: str, value_col: str, id_col: str,
                      n_reps: int = 40, rate: float = 0.5,
                      salt: str = "bs", lo_rank: int | None = None,
                      hi_rank: int | None = None, scale: int = 100,
                      num_buckets: int = 16):
    """Per-key confidence interval for mean(value) via DETERMINISTIC
    hash-bootstrap half-sampling (m-out-of-n bootstrap, Bickel/Götze/
    van Zwet 1997 family): replicate ``b`` keeps row ``r`` iff
    ``md5(id || salt || b) < rate·2^64`` — no RNG state, stable across
    partitioning/resume, and a SQL engine replays every replicate
    exactly.  Values fold as exact integer units (``round(v·scale)``),
    so every replicate sum is order-independent int64 and each
    replicate mean is ONE IEEE division — the whole statistic is
    bit-reproducible, unlike resampling with an RNG.

    Plan: one corpus pass computes per-(key, replicate) partial
    ``(sum_units, n)`` — the B membership tests are vectorized md5
    batches, the partial fold is one ``np.add.at`` over (key, rep)
    codes — then ONE bucketed exchange over (key, rep) folds partials
    (B·n_keys rows, tiny), and the driver sorts each key's B replicate
    means to select the CI order statistics (value-only: tie order
    cannot change the selected value).

    Returns a pandas frame ``(key, n, mean, ci_lo, ci_hi)`` where
    ``mean`` is the full-sample mean and the CI bounds are the
    ``lo_rank``/``hi_rank``-th smallest replicate means (1-based;
    default ⌈0.025·B⌉ / B+1−⌈0.025·B⌉)."""
    import pandas as pd

    from bqf_ray.pipelines.sampling import _key_u64, _threshold
    from bqf_ray.stages.partition import bucketed_sum

    B = int(n_reps)
    thr = np.uint64(_threshold(rate))
    s = int(scale)
    lo_r = int(lo_rank) if lo_rank is not None else max(1, -(-B * 25 // 1000))
    hi_r = int(hi_rank) if hi_rank is not None else B + 1 - (
        int(lo_rank) if lo_rank is not None else max(1, -(-B * 25 // 1000)))

    def partials(batch: pa.Table) -> pa.Table:
        cols = batch.column(value_col)
        valid = pc.and_(cols.is_valid(), pc.invert(pc.is_nan(
            cols.fill_null(0.0))))
        batch = batch.filter(valid)
        if batch.num_rows == 0:
            return pa.table({key_col: pa.array([], batch.schema
                                               .field(key_col).type),
                             "rep": pa.array([], pa.int64()),
                             "su": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        v = np.asarray(batch.column(value_col), dtype=np.float64)
        units = np.rint(v * s).astype(np.int64)
        keys = batch.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        enc = pc.dictionary_encode(keys)
        kcode = np.asarray(enc.indices, dtype=np.int64)
        n_k = len(enc.dictionary)
        # rep = B is the FULL (unsampled) stream for the full-sample mean
        sums = np.zeros((n_k, B + 1), dtype=np.int64)
        cnts = np.zeros((n_k, B + 1), dtype=np.int64)
        np.add.at(sums, (kcode, B), units)
        np.add.at(cnts, (kcode, B), 1)
        for b in range(B):
            u = _key_u64(batch, id_col, f"{salt}{b}", "md5")
            m = u < thr
            np.add.at(sums, (kcode[m], b), units[m])
            np.add.at(cnts, (kcode[m], b), 1)
        ki, rep = np.nonzero(cnts)
        return pa.table({
            key_col: enc.dictionary.take(pa.array(ki)),
            "rep": pa.array(rep.astype(np.int64)),
            "su": pa.array(sums[ki, rep]),
            "n": pa.array(cnts[ki, rep])})

    folded = bucketed_sum(ds.map_batches(partials, batch_format="pyarrow"),
                          [key_col, "rep"], {"su": "su", "n": "n"},
                          num_buckets=num_buckets).to_pandas()

    out = []
    for k, grp in folded.groupby(key_col, sort=True):
        full = grp[grp["rep"] == B]
        reps = grp[grp["rep"] < B]
        means = np.sort(reps["su"].to_numpy(np.int64).astype(np.float64)
                        / reps["n"].to_numpy(np.int64))
        if len(means) < B or len(full) != 1:
            raise ValueError(
                f"key {k!r}: {len(means)}/{B} replicates non-empty — "
                "raise rate or n_reps for sparse keys")
        fs, fn = int(full["su"].iloc[0]), int(full["n"].iloc[0])
        out.append((k, fn, float(fs) / fn,
                    float(means[lo_r - 1]), float(means[hi_r - 1])))
    return pd.DataFrame(out, columns=[key_col, "n", "mean",
                                      "ci_lo", "ci_hi"])


def superspreaders(ds, key_col: str, partner_col: str, k: int = 20,
                   num_buckets: int = 64):
    """Top-k keys by EXACT distinct-partner count ("superspreaders" /
    fan-out census: hosts touching the most distinct URLs, suppliers
    stocking the most distinct parts).  COUNT(DISTINCT) per key at
    scale without per-key sets: the pair space is what must dedupe, so

    1. distinct (key, partner) pairs — ONE pair-hash bucketed exchange,
       in-bucket exact dedupe (buckets partition the pair space);
    2. exact per-key counts — per-bucket count partials pre-aggregated
       before ONE key-bucketed sum exchange;
    3. global top-k — per-block top-k partials, ≤ k rows per block to
       a final merge (:func:`global_top_n`; no global sort).

    Ties break by ascending key (the SQL determinism rule).  Returns
    ``(key, n_partners)``, largest first."""
    from bqf_ray.stages.partition import bucketed_sum

    def pre(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, partner_col])
        # SQL COUNT(DISTINCT partner) semantics: null key or partner
        # contributes nothing
        t = t.filter(pc.and_(t.column(key_col).is_valid(),
                             t.column(partner_col).is_valid()))
        # per-batch dedupe shrinks the exchange
        return t.group_by([key_col, partner_col]).aggregate([])

    def count_bucket(group: pa.Table) -> pa.Table:
        g = group.group_by([key_col, partner_col]).aggregate([])
        return (g.group_by([key_col])
                .aggregate([([key_col], "count")])
                .rename_columns([key_col, "pn"]))

    counts = bucketed_sum(
        exchange(ds.map_batches(pre, batch_format="pyarrow"), count_bucket,
                 [key_col, partner_col], num_buckets),
        [key_col], {"pn": "n_partners"}, num_buckets=num_buckets)
    return global_top_n(counts, ["n_partners", key_col], int(k),
                        descending=[True, False])


def grouped_welch_ttest(ds, key_col: str, group_col: str, a: str, b: str,
                        value_col: str, scale: int = 100,
                        num_buckets: int = 32):
    """Per-key Welch two-sample t statistic between condition ``a`` and
    condition ``b`` rows — the parametric member of the two-sample
    family (the exact-distribution member is the grouped KS distance).
    All moments fold as EXACT integer units (``round(v·scale)``): each
    batch emits ONE row per key carrying both sides' six int64 moments
    (n, Σu, Σu²), so a single key-bucketed sum exchange co-locates and
    folds everything, and the statistic is one fixed IEEE expression
    over exact ints, mirrored verbatim in SQL:

        m = s/n,  var = (q − s·(s/n)) / (n−1),
        t = (m_a − m_b) / sqrt(var_a/n_a + var_b/n_b)

    Keys need n ≥ 2 on BOTH sides (variance defined) — others are
    dropped (mirror ``HAVING``).  Returns ``(key, n_a, n_b, s_a, s_b,
    q_a, q_b, t_stat)`` — components oracle-exact, t bit-exact."""
    import pyarrow.compute as pc

    from bqf_ray.stages.partition import bucketed_sum

    SC = float(scale)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(value_col)
        ok = pc.and_(col.is_valid(), batch.column(key_col).is_valid())
        if pa.types.is_floating(col.type):
            ok = pc.and_(ok, pc.invert(pc.is_nan(col.fill_null(0.0))))
        t = batch.filter(ok)
        g = t.column(group_col)
        keep = pc.or_(pc.equal(g, a), pc.equal(g, b))
        t = t.filter(pc.fill_null(keep, False))
        names = [key_col, "pna", "psa", "pqa", "pnb", "psb", "pqb"]
        if t.num_rows == 0:
            e = pa.array([], pa.int64())
            return pa.table({key_col: pa.array([], batch.schema
                                               .field(key_col).type),
                             **{c: e for c in names[1:]}})
        v = np.asarray(t.column(value_col), dtype=np.float64)
        u = np.rint(v * SC).astype(np.int64)
        side = np.where(np.asarray(pc.equal(t.column(group_col), a)), 0, 1)
        keys = t.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        enc = pc.dictionary_encode(keys)
        kc = np.asarray(enc.indices, dtype=np.int64)
        nk = len(enc.dictionary)
        code = kc * 2 + side
        n = np.bincount(code, minlength=2 * nk).astype(np.int64)
        s = np.bincount(code, weights=u.astype(np.float64),
                        minlength=2 * nk).astype(np.int64)
        q = np.bincount(code, weights=(u * u).astype(np.float64),
                        minlength=2 * nk).astype(np.int64)
        n, s, q = (x.reshape(nk, 2) for x in (n, s, q))
        return pa.table({
            key_col: enc.dictionary,
            "pna": pa.array(n[:, 0]), "psa": pa.array(s[:, 0]),
            "pqa": pa.array(q[:, 0]),
            "pnb": pa.array(n[:, 1]), "psb": pa.array(s[:, 1]),
            "pqb": pa.array(q[:, 1])})

    sums = bucketed_sum(ds.map_batches(partial, batch_format="pyarrow"),
                        [key_col],
                        {"pna": "n_a", "psa": "s_a", "pqa": "q_a",
                         "pnb": "n_b", "psb": "s_b", "pqb": "q_b"},
                        num_buckets=num_buckets)

    def finish(batch: pa.Table) -> pa.Table:
        na = np.asarray(batch.column("n_a"), dtype=np.int64)
        nb = np.asarray(batch.column("n_b"), dtype=np.int64)
        keep = (na >= 2) & (nb >= 2)
        t = batch.filter(pa.array(keep))
        na, nb = na[keep], nb[keep]
        sa = np.asarray(t.column("s_a"), dtype=np.int64)
        sb = np.asarray(t.column("s_b"), dtype=np.int64)
        qa = np.asarray(t.column("q_a"), dtype=np.int64)
        qb = np.asarray(t.column("q_b"), dtype=np.int64)
        ma = sa / na
        mb = sb / nb
        va = (qa - sa * (sa / na)) / (na - 1)
        vb = (qb - sb * (sb / nb)) / (nb - 1)
        tstat = (ma - mb) / np.sqrt(va / na + vb / nb)
        return t.select([key_col, "n_a", "n_b", "s_a", "s_b",
                         "q_a", "q_b"]).append_column(
            "t_stat", pa.array(tstat, pa.float64()))

    return sums.map_batches(finish, batch_format="pyarrow")


def grouped_normal_equations(ds, key_col: str, y_col: str,
                             x_cols: list[str], scales: list[int],
                             y_scale: int = 100, num_buckets: int = 32):
    """Per-key multi-feature OLS as EXACT integer normal-equation
    components — the matrix generalization of the 1-feature
    ``grouped_regression``: for features x₁..x_p (plus intercept) emit
    every entry of XᵀX and Xᵀy as int64 sums of quantized units, ONE
    key-bucketed exchange.  The solve (a p+1 × p+1 SPD system) is a
    driver/consumer-side float step on a key-count-sized table — kept
    OUT of the operator so the distributed part stays bit-exact and
    SQL-oracle-checkable (the k-means/covariance determinism rule).

    Output one row per key: ``n``, ``sx_i``, ``sy``, ``sxx_i_j``
    (i ≤ j), ``sxy_i`` — column names enumerate indices, e.g.
    ``sxx_0_1``.  Nulls/NaNs in y or any x drop the row (mirror
    ``WHERE`` every column IS NOT NULL).  Overflow envelope: per-block
    partials ride float64 bincount weights, exact while
    ``max|q_i·q_j| · block_rows < 2^53`` (quantized units ≤ ~1e6 at
    4096-row blocks); the folded totals are int64 —
    ``max|q_i·q_j| · n < 2^63``."""
    import pyarrow.compute as pc

    from bqf_ray.stages.partition import bucketed_sum

    p = len(x_cols)
    if len(scales) != p:
        raise ValueError("scales must align with x_cols")

    names = (["pn"] + [f"sx_{i}" for i in range(p)] + ["sy"]
             + [f"sxx_{i}_{j}" for i in range(p) for j in range(i, p)]
             + [f"sxy_{i}" for i in range(p)])

    def partial(batch: pa.Table) -> pa.Table:
        keep = batch.column(key_col).is_valid()
        for c in [y_col] + x_cols:
            col = batch.column(c)
            keep = pc.and_(keep, col.is_valid())
            if pa.types.is_floating(col.type):
                keep = pc.and_(keep, pc.invert(pc.is_nan(
                    col.fill_null(0.0))))
        t = batch.filter(keep)
        if t.num_rows == 0:
            e = pa.array([], pa.int64())
            return pa.table({key_col: pa.array([], batch.schema
                                               .field(key_col).type),
                             **{c: e for c in names}})
        y = np.rint(np.asarray(t.column(y_col), dtype=np.float64)
                    * y_scale).astype(np.int64)
        X = np.stack([np.rint(np.asarray(t.column(c), dtype=np.float64)
                              * s).astype(np.int64)
                      for c, s in zip(x_cols, scales)], axis=1)
        keys = t.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        enc = pc.dictionary_encode(keys)
        kc = np.asarray(enc.indices, dtype=np.int64)
        nk = len(enc.dictionary)
        cols = {}
        cols["pn"] = np.bincount(kc, minlength=nk).astype(np.int64)

        def fold(vals):
            return np.bincount(kc, weights=vals.astype(np.float64),
                               minlength=nk).astype(np.int64)

        for i in range(p):
            cols[f"sx_{i}"] = fold(X[:, i])
        cols["sy"] = fold(y)
        for i in range(p):
            for j in range(i, p):
                cols[f"sxx_{i}_{j}"] = fold(X[:, i] * X[:, j])
        for i in range(p):
            cols[f"sxy_{i}"] = fold(X[:, i] * y)
        return pa.table({key_col: enc.dictionary,
                         **{c: pa.array(cols[c]) for c in names}})

    out_names = {c: ("n" if c == "pn" else c) for c in names}
    return bucketed_sum(ds.map_batches(partial, batch_format="pyarrow"),
                        [key_col], out_names, num_buckets=num_buckets)


def target_encode_loo(ds, key_col: str, y_col: str, id_col: str,
                      scale: int = 100, num_buckets: int = 32):
    """Leave-one-out target encoding — the leakage-safe categorical
    feature map (each row's encoding excludes its OWN target):
    ``loo_i = (Σ_k u − u_i) / (n_k − 1)`` with u the integer-unit
    target.  Components are exact ints, the encoding one IEEE division
    per row — SQL-bit-exact.

    Plan: per-key ``(n, Σu)`` in ONE bucketed exchange (key-count
    sized), shipped once via the shared broadcast group lookup
    (``ray.put``, no per-task reserialization); the encode pass is a
    zero-shuffle ``map_batches``.  Keys with ``n < 2`` have no
    leave-one-out value and their rows are dropped (mirror
    ``WHERE n >= 2``).  Output ``(id, key, target_loo)``."""
    import pyarrow.compute as pc
    import ray

    from bqf_ray.stages.partition import bucketed_sum

    SC = float(scale)

    def to_units(batch: pa.Table) -> pa.Table:
        col = batch.column(y_col)
        keep = pc.and_(col.is_valid(), batch.column(key_col).is_valid())
        if pa.types.is_floating(col.type):
            keep = pc.and_(keep, pc.invert(pc.is_nan(col.fill_null(0.0))))
        t = batch.filter(keep)
        v = np.asarray(t.column(y_col), dtype=np.float64)
        return pa.table({
            id_col: pc.cast(t.column(id_col), pa.int64()),
            key_col: t.column(key_col),
            "u": pa.array(np.rint(v * SC).astype(np.int64))})

    units = ds.map_batches(to_units, batch_format="pyarrow")

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({key_col: batch.column(key_col),
                      "pn": pa.array(np.ones(batch.num_rows, np.int64)),
                      "ps": batch.column("u")})
        return (t.group_by([key_col])
                .aggregate([("pn", "sum"), ("ps", "sum")])
                .rename_columns([key_col, "pn", "ps"]))

    sums = bucketed_sum(units.map_batches(partial, batch_format="pyarrow"),
                        [key_col], {"pn": "n", "ps": "s"},
                        num_buckets=num_buckets)
    ref = _group_lookup_build(sums.materialize(), key_col, ["n", "s"])

    def encode(batch: pa.Table) -> pa.Table:
        khs, n_arr, s_arr = ray.get(ref)
        pos, hit = _group_lookup_probe(khs, batch.column(key_col))
        n = n_arr[pos].astype(np.int64)
        s = s_arr[pos].astype(np.int64)
        u = np.asarray(batch.column("u"), dtype=np.int64)
        keep = hit & (n >= 2)
        t = batch.filter(pa.array(keep))
        loo = (s[keep] - u[keep]) / (n[keep] - 1)
        return pa.table({
            id_col: t.column(id_col),
            key_col: t.column(key_col),
            "target_loo": pa.array(loo, pa.float64())})

    return units.map_batches(encode, batch_format="pyarrow")
