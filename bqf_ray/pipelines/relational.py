"""Relational join patterns (ray_guide 'Joins and lookups').

The reference has no joins (SURVEY.md §2.4), but a complete engine needs
them for dimension enrichment and fact-fact matching:

- :func:`broadcast_join` — small side (dimension table) shipped once via
  ``ray.put``; each batch does a vectorized searchsorted/take lookup.  No
  shuffle.
- :func:`partitioned_hash_join` — both sides large: tag rows with
  ``bucket = bucket_of(key)``, union the two tagged datasets, one
  ``groupby(bucket)`` shuffle, and join matching buckets pairwise inside
  ``map_groups`` with pandas merge.  Salt hot keys upstream if a bucket
  overflows (documented; hashed integer keys are uniform here).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from bqf_ray.plans import plan_log
from bqf_ray.stages.partition import exchange


def broadcast_join(ds, small_df, key: str, how: str = "inner",
                   concurrency: int = 2):
    """Join a Dataset against a small pandas DataFrame on ``key``.

    ``small_df`` must have unique keys.  Inner or left join."""
    import pandas as pd
    import ray

    small_df = small_df.sort_values(key).reset_index(drop=True)
    assert small_df[key].is_unique, "broadcast side must have unique keys"
    ref = ray.put(small_df)

    class Lookup:
        def __init__(self):
            small = ray.get(ref)
            self.keys = small[key].to_numpy()
            # right side held as Arrow once per actor; per-batch work is
            # a searchsorted + one Table.take (null index → null row for
            # left-join misses) — no pandas round trip per batch
            self.right = pa.Table.from_pandas(small.drop(columns=[key]),
                                              preserve_index=False)

        def __call__(self, batch: pa.Table) -> pa.Table:
            col = batch.column(key)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            lk = col.to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.keys, lk)
            hit = pos < len(self.keys)
            posc = np.minimum(pos, max(len(self.keys) - 1, 0))
            hit &= self.keys[posc] == lk
            if how == "inner":
                batch = batch.filter(pa.array(hit))
                idx = pa.array(posc[hit].astype(np.int64))
            else:
                idx = pa.array(posc.astype(np.int64), mask=~hit)
            right = self.right.take(idx)
            for name in right.column_names:
                batch = batch.append_column(name, right.column(name))
            return batch

    return ds.map_batches(Lookup, batch_format="pyarrow", batch_size=8192,
                          concurrency=concurrency, num_cpus=0.5)


def _tagged(ds, side: int):
    """``ds`` with an int8 ``__side`` column: the side tag every
    co-partitioned join below unions, then exchanges on its key."""

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("__side", pa.array(
            np.full(len(batch), side, dtype=np.int8)))

    return ds.map_batches(tag, batch_format="pyarrow")


def _arrow_field_types(sch) -> dict:
    """{column: pa.DataType} from a Dataset schema (arrow- or
    numpy-backed blocks)."""
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return {f.name: f.type for f in base}
    out = {}
    for n, t in zip(sch.names, sch.types):
        if isinstance(t, pa.DataType):
            out[n] = t
        else:
            dt = np.dtype(t)
            out[n] = pa.string() if dt == object \
                else pa.from_numpy_dtype(dt)
    return out


def _side_select(group: pa.Table, mask, cols, types) -> pa.Table:
    """Select one side's columns from the masked group rows.  A bucket
    whose blocks all came from ONE side can lack the other side's
    columns entirely (union schema alignment is per-block) — degrade
    to a TYPED empty table, never a KeyError (fuzz seed 2468 hit this
    in pit_join when a hash bucket held only dimension rows)."""
    sub = group.filter(pa.array(mask))
    if any(c not in sub.schema.names for c in cols):
        return pa.table({c: pa.array([], types[c]) for c in cols})
    return sub.select(cols)


def native_join(left_ds, right_ds, key: str, num_partitions: int = 16,
                suffix: str = "_r"):
    """Ray Data's built-in hash-partitioned join (available in this Ray
    version; feature-gated because the API is young — the portable
    fallback is :func:`partitioned_hash_join`)."""
    if not hasattr(left_ds, "join"):
        return partitioned_hash_join(left_ds, right_ds, key,
                                     num_buckets=num_partitions,
                                     suffix=suffix)
    return left_ds.join(right_ds, join_type="inner",
                        num_partitions=num_partitions, on=(key,),
                        right_suffix=suffix)


def semi_join(left_ds, right_ds, left_key: str, right_key: str | None = None,
              num_buckets: int = 32, anti: bool = False):
    """Distributed semi-join: left rows whose integer ``left_key`` appears
    in ``right_ds[right_key]`` (``anti=True`` inverts).  Both sides are
    bucket-co-partitioned on ``bucket_of(key)`` — ONE groupby shuffle, no driver
    materialization of either side (r1 verdict: replaces the
    collect-keys-then-broadcast pattern for large right sides).  The right
    side ships only its key column."""
    right_key = right_key or left_key
    sch = left_ds.schema()
    if sch is None:        # fully-empty left: nothing to (anti-)join
        return left_ds
    left_cols = list(sch.names)
    ltypes = _arrow_field_types(sch)

    def tag_left(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column(left_key), dtype=np.int64)
        return (batch.append_column("__jk", pa.array(k))
                .append_column("__side", pa.array(
                    np.zeros(len(batch), dtype=np.int8))))

    def tag_right(batch: pa.Table) -> pa.Table:
        k = np.unique(np.asarray(batch.column(right_key), dtype=np.int64))
        return pa.table({
            "__jk": pa.array(k),
            "__side": pa.array(np.ones(len(k), dtype=np.int8)),
        })

    def filter_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"))
        keys = np.asarray(group.column("__jk"))
        rk = np.unique(keys[side == 1])
        lmask = side == 0
        hit = np.isin(keys[lmask], rk, assume_unique=False)
        if anti:
            hit = ~hit
        keep = np.zeros(len(group), dtype=bool)
        keep[np.flatnonzero(lmask)[hit]] = True
        return _side_select(group, keep, left_cols, ltypes)

    left_tagged = left_ds.map_batches(tag_left, batch_format="pyarrow")
    right_tagged = right_ds.map_batches(tag_right, batch_format="pyarrow")
    return exchange(left_tagged.union(right_tagged), filter_bucket, "__jk",
                    num_buckets)


def bloom_semi_join(left_ds, right_ds, left_key: str,
                    right_key: str | None = None, anti: bool = False,
                    fp: float = 0.01, expected_keys: int | None = None,
                    num_buckets: int = 32,
                    broadcast_budget: int = 2_000_000):
    """Bloom-gated exact semi/anti join on an integer key — the
    big-big join plan when most left rows DON'T match.

    A blocked Bloom filter over the right side's keys is built
    once and broadcast as bits (``ray.put``; ~1.2 GB per 10^9 keys at
    1% fp — far smaller than a key set).  Bloom misses are DEFINITE
    non-members (zero false negatives): for an anti-join they bypass
    the exchange entirely as survivors; for a semi-join they are
    dropped in place.  Only Bloom-POSITIVE rows (true matches + fp of
    the non-matching mass) enter the exact bucket-co-partitioned
    confirmation (:func:`semi_join`), so the shuffle carries
    ``matches + fp·|left|`` rows instead of ``|left|`` — the result is
    exact regardless of fp; fp only tunes the exchange volume.  The
    anti path reads ``left_ds`` twice (both passes stream; nothing
    materializes).  Right sides at or under ``broadcast_budget`` keys
    skip the gate entirely: the exact sorted key set broadcasts once
    (≤16 MB at the default budget) and membership resolves in ONE
    zero-shuffle pass.
    """
    import ray

    from bqf_ray.functions.hashing import fmix64
    from bqf_ray.sketches.bloom import BlockedBloom
    from bqf_ray.stages.sketch_stage import build_sketch

    right_key = right_key or left_key

    def _hash(col) -> np.ndarray:
        return fmix64(np.asarray(col, dtype=np.int64).view(np.uint64))

    def right_keys(batch: pa.Table):
        return _hash(batch.column(right_key)), None

    # materialize the (column-pruned) right key column ONCE: count(),
    # the Bloom build, and the exact-confirm tag_right otherwise each
    # re-execute the full right pipeline
    rk_ds = right_ds.select_columns([right_key]).materialize()
    n = int(expected_keys) if expected_keys is not None \
        else max(int(rk_ds.count()), 1)
    plan_log("bloom_semi_join",
             "broadcast" if n <= int(broadcast_budget) else "bloom",
             n_keys=n, broadcast_budget=int(broadcast_budget))

    if n <= int(broadcast_budget):
        # small right side: broadcast the EXACT sorted key set once and
        # resolve membership in a single zero-shuffle pass (the
        # Bloom-gate's fixed cost — build, probe passes, confirm
        # exchange — only pays off past the budget)
        def distinct_keys(batch: pa.Table) -> pa.Table:
            k = np.unique(np.asarray(batch.column(right_key),
                                     dtype=np.int64))
            return pa.table({right_key: pa.array(k)})

        parts = [np.asarray(b.column(right_key), dtype=np.int64)
                 for b in rk_ds.map_batches(distinct_keys,
                                            batch_format="pyarrow")
                 .iter_batches(batch_size=None, batch_format="pyarrow")]
        keys = np.unique(np.concatenate(parts)) if parts else \
            np.empty(0, dtype=np.int64)
        kref = ray.put(keys)

        class ExactProbe:
            def __init__(self):
                self.keys = ray.get(kref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                lk = np.asarray(batch.column(left_key), dtype=np.int64)
                if len(self.keys) == 0:      # empty right side
                    hit = np.zeros(len(lk), dtype=bool)
                else:
                    pos = np.searchsorted(self.keys, lk)
                    hit = pos < len(self.keys)
                    hit &= self.keys[np.minimum(pos,
                                                len(self.keys) - 1)] == lk
                return batch.filter(pa.array(~hit if anti else hit))

        return left_ds.map_batches(ExactProbe, batch_format="pyarrow",
                                   concurrency=(1, 8))

    bloom = build_sketch(rk_ds, right_keys,
                         lambda: BlockedBloom.from_capacity(n, fp, seed=41))
    ref = ray.put(bloom)

    class Probe:
        """keep_hit=True → keep Bloom-positive rows (candidates);
        False → keep Bloom-miss rows (definite non-members)."""

        def __init__(self, keep_hit: bool):
            self.bloom = ray.get(ref)
            self.keep_hit = keep_hit

        def __call__(self, batch: pa.Table) -> pa.Table:
            hit = self.bloom.query_batch(_hash(batch.column(left_key)))
            return batch.filter(pa.array(hit if self.keep_hit else ~hit))

    cands = left_ds.map_batches(Probe, fn_constructor_args=(True,),
                                batch_format="pyarrow", concurrency=(1, 8))
    confirmed = semi_join(cands, rk_ds, left_key, right_key,
                          num_buckets=num_buckets, anti=anti)
    if not anti:
        return confirmed
    definite = left_ds.map_batches(Probe, fn_constructor_args=(False,),
                                   batch_format="pyarrow",
                                   concurrency=(1, 8))
    return definite.union(confirmed)


def asof_join(left_ds, right_ds, on: str, by: str, num_buckets: int = 32,
              suffix: str = "_r", how: str = "inner"):
    """As-of join (an operator Ray Data lacks): for every left row, attach
    the single right row with the LARGEST ``on`` ≤ left.``on`` among rows
    sharing ``by`` — DuckDB's ``ASOF JOIN ... ON l.by = r.by AND
    l.on >= r.on`` semantics.

    Plan: bucket-co-partition both sides on ``bucket_of(by)`` (one groupby
    shuffle), then a vectorized merge per bucket: lexsort the combined
    rows by (by, on, side) with right rows first at ties, take a running
    maximum of right-row positions, and validate the match is same-key.
    Right-side ties on (by, on) resolve to the highest original row order
    (deterministic; dedupe the right side first if that matters).
    ``how="left"`` keeps unmatched left rows with null right columns."""
    lsch, rsch = left_ds.schema(), right_ds.schema()
    left_cols = list(lsch.names)
    right_cols = [c for c in rsch.names if c != by]

    def to_i64(col) -> np.ndarray:
        arr = np.asarray(col)
        if np.issubdtype(arr.dtype, np.datetime64):
            return arr.astype("datetime64[us]").astype(np.int64)
        return arr.astype(np.int64)

    def rename_right(batch: pa.Table) -> pa.Table:
        names = [c + suffix if c in right_cols else c
                 for c in batch.column_names]
        return batch.rename_columns(names)

    right_cols_final = [c + suffix for c in right_cols]

    ltypes = _arrow_field_types(lsch)
    rt0 = _arrow_field_types(rsch)
    rtypes = {by: rt0[by], **{c + suffix: rt0[c] for c in right_cols}}

    def merge_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"))
        l_tbl = _side_select(group, side == 0, left_cols, ltypes)
        r_tbl = _side_select(group, side == 1,
                             [by] + right_cols_final, rtypes)
        nl, nr = len(l_tbl), len(r_tbl)
        l_by = np.asarray(l_tbl.column(by), dtype=np.int64) if nl else \
            np.empty(0, dtype=np.int64)
        l_on = to_i64(l_tbl.column(on)) if nl else \
            np.empty(0, dtype=np.int64)
        r_by = np.asarray(r_tbl.column(by), dtype=np.int64) if nr else \
            np.empty(0, dtype=np.int64)
        r_on = to_i64(r_tbl.column(on + suffix)) if nr else \
            np.empty(0, dtype=np.int64)
        key = np.concatenate([r_by, l_by])
        t = np.concatenate([r_on, l_on])
        sd = np.concatenate([np.zeros(nr, dtype=np.int8),
                             np.ones(nl, dtype=np.int8)])
        src = np.concatenate([np.arange(nr), np.arange(nl)])
        order = np.lexsort((sd, t, key))     # right before left at ties
        key_s, sd_s, src_s = key[order], sd[order], src[order]
        lastr = np.maximum.accumulate(
            np.where(sd_s == 0, np.arange(len(order)), -1))
        lpos = np.flatnonzero(sd_s == 1)
        p = lastr[lpos]
        valid = (p >= 0) & (key_s[np.maximum(p, 0)] == key_s[lpos])
        l_rows = src_s[lpos]
        r_rows = np.where(valid, src_s[np.maximum(p, 0)], -1)
        if how == "inner":
            l_rows, r_rows = l_rows[valid], r_rows[valid]
            valid = np.ones(len(l_rows), dtype=bool)
        out = l_tbl.take(pa.array(l_rows))
        idx = pa.array([int(r) if v else None
                        for r, v in zip(r_rows, valid)], pa.int64())
        for c in right_cols_final:
            out = out.append_column(c, r_tbl.column(c).take(idx))
        return out

    right_tagged = _tagged(right_ds, 1).map_batches(rename_right,
                                                    batch_format="pyarrow")
    return exchange(_tagged(left_ds, 0).union(right_tagged), merge_bucket,
                    by, num_buckets)


def interval_join(left_ds, intervals_df, val: str, lo: str, hi: str,
                  suffix: str = "_r", closed: str = "left",
                  concurrency: int = 2):
    """Range join: each left row matched to EVERY interval containing its
    ``val`` (``lo <= v < hi``, or ``<= hi`` with ``closed="both"``) — the
    banding/bucketing primitive Ray Data lacks.

    The interval table is the SMALL side (a dimension table of bands /
    ranges): broadcast once via ``ray.put``; each batch sorts its values
    and takes two searchsorted slices per interval — O(R log n) per
    batch, zero shuffle, output rows = matches (inner semantics).
    Overlapping intervals yield one output row per (row, interval) pair.
    For a LARGE keyed interval table, bucket both sides on the key and
    apply this per bucket (compose with the semi_join tagging pattern)."""
    import pandas as pd
    import ray

    iv = intervals_df.reset_index(drop=True)
    lo_a = iv[lo].to_numpy()
    hi_a = iv[hi].to_numpy()
    ref = ray.put((lo_a, hi_a, iv.drop(columns=[lo, hi])))

    class Stab:
        def __init__(self):
            self.lo, self.hi, self.meta = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            v = np.asarray(batch.column(val), dtype=np.float64)
            order = np.argsort(v, kind="stable")
            vs = v[order]
            side = "right" if closed == "both" else "left"
            starts = np.searchsorted(vs, self.lo, "left")
            ends = np.searchsorted(vs, self.hi, side)
            cnt = np.maximum(ends - starts, 0)
            tot = int(cnt.sum())
            if tot == 0:
                out = batch.slice(0, 0)
                for c in self.meta.columns:
                    out = out.append_column(
                        c + suffix,
                        pa.array(pd.Series([], dtype=self.meta[c].dtype)))
                return out
            within = np.arange(tot) - np.repeat(
                np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt)
            rows = order[np.repeat(starts, cnt) + within]
            iv_idx = np.repeat(np.arange(len(self.lo)), cnt)
            out = batch.take(pa.array(rows))
            for c in self.meta.columns:
                out = out.append_column(
                    c + suffix,
                    pa.array(self.meta[c].to_numpy()[iv_idx]))
            return out

    return left_ds.map_batches(Stab, batch_format="pyarrow",
                               concurrency=concurrency, num_cpus=0.5)


def partitioned_hash_join(left_ds, right_ds, key: str, num_buckets: int = 32,
                          suffix: str = "_r", how: str = "inner"):
    """Join two large Datasets on an integer ``key`` via explicit bucket
    co-partitioning (one groupby shuffle over the union).  ``how`` is
    ``inner`` / ``left`` / ``full`` — outer variants are bucket-local and
    therefore exact: a key's rows from BOTH sides land in the same
    bucket, so unmatched rows are detected without any global pass."""
    if how not in ("inner", "left", "full"):
        raise ValueError(f"unsupported how={how!r}")
    left_ds, lsch = _with_schema(left_ds)
    right_ds, rsch = _with_schema(right_ds)

    # schemas differ → carry each side's columns; union aligns by name with
    # nulls, so rename right columns (except key/side) upfront
    right_cols = [c for c in rsch.names if c != key]

    def rename_right(batch: pa.Table) -> pa.Table:
        names = [c + suffix if c in right_cols else c
                 for c in batch.column_names]
        return batch.rename_columns(names)

    right_tagged = _tagged(right_ds, 1).map_batches(rename_right,
                                                    batch_format="pyarrow")

    # select each side's columns from the schemas captured at tag time —
    # inferring sides via dropna would silently drop a genuinely all-null
    # column on one side within a bucket
    left_cols = list(lsch.names)
    right_cols_final = [key] + [c + suffix for c in right_cols]

    # explicit output schema: pandas promotes int columns with unmatched
    # rows to float64 (NaN), which would give outer-join buckets
    # divergent block schemas — emit Arrow with the declared types
    # (nulls for unmatched) instead
    ltypes, rtypes = _arrow_field_types(lsch), _arrow_field_types(rsch)
    fields = {n: ltypes[n] for n in left_cols}
    for c in right_cols:
        fields[c + suffix] = rtypes[c]
    out_names = sorted(fields)

    # Arrow-native in-bucket join (Acero hash join): no pandas round
    # trip, no object boxing, and integer columns keep their exact type
    # through outer joins natively (nulls for unmatched) — the pandas
    # merge this replaces needed a nullable-Int workaround to stop
    # unmatched rows promoting int64 hash keys to lossy float64.
    jt = {"inner": "inner", "left": "left outer",
          "full": "full outer"}[how]

    def join_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"))
        lt = _side_select(group, side == 0, left_cols, fields)
        rt = _side_select(group, side == 1, right_cols_final, fields)
        if how == "inner" and (lt.num_rows == 0 or rt.num_rows == 0):
            return pa.table({n: pa.array([], fields[n])
                             for n in out_names})
        out = lt.join(rt, keys=key, join_type=jt)
        # stable declared schema across buckets (union blocks can carry
        # widened/null types for a side absent from a bucket)
        return pa.table({n: out.column(n).cast(fields[n])
                         for n in out_names})

    return exchange(_tagged(left_ds, 0).union(right_tagged), join_bucket,
                    key, num_buckets)


def _with_schema(ds):
    """``(ds, schema)`` without a throwaway partial execution: the schema
    when Ray knows it for free (a read, a materialized dataset), else
    ``ds`` materialized once — the caller then joins the materialized
    side, so each side executes exactly once."""
    sch = ds.schema(fetch_if_missing=False)
    if sch is None:
        ds = ds.materialize()
        sch = ds.schema()
    return ds, sch


def time_band_join(left_ds, right_ds, on: str, by: str, band_us: int,
                   left_id: str = "event_id", right_id: str = "event_id",
                   num_buckets: int = 32, time_sliced: bool = False):
    """Stream-stream band join: every (left, right) pair with equal
    ``by`` key and ``|right.on − left.on| ≤ band_us`` microseconds —
    the "purchases within ±5 min of a click" shape that an as-of join
    (nearest one) and an interval join (static ranges) don't cover.

    One ``bucket_of(by)`` co-partitioning shuffle; per bucket both sides sort
    once and every left row finds its right-range via TWO merge-rank
    passes (searchsorted on the concatenated (key, ts) order — no
    per-key loop), then pairs materialize with repeat/arange gathers.
    Output volume is the true pair count; band width controls it.
    Output: (a_id, b_id, dt_us = right.on − left.on).

    ``time_sliced=True`` handles HOT KEYS: instead of one group per
    key, rows co-partition on (key, t // band_us) cells — right rows
    fan out to their cell and both neighbors (3×), left rows stay in
    one cell, and the cell id joins the match key so every pair is
    found exactly once, in the left row's cell.  A key holding 25% of
    the stream then splits across ~span/band cells instead of one
    group (the north-rule skew requirement, applied to joins)."""
    W = np.int64(band_us)
    S = max(W, np.int64(1))              # slice width >= band

    def tag(side: int, id_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            u = np.asarray(batch.column(by), dtype=np.int64)
            t = np.asarray(batch.column(on)).astype("datetime64[us]"
                                                    ).astype(np.int64)
            i = np.asarray(pc.cast(batch.column(id_col), pa.int64()))
            if not time_sliced:
                c = np.zeros(len(u), dtype=np.int64)
            else:
                home = t // S
                if side == 1:            # right fans to 3 cells
                    u = np.repeat(u, 3)
                    t = np.repeat(t, 3)
                    i = np.repeat(i, 3)
                    c = (np.repeat(home, 3)
                         + np.tile(np.array([-1, 0, 1], dtype=np.int64),
                                   len(home)))
                else:
                    c = home
            return pa.table({
                "u": pa.array(u), "t": pa.array(t), "c": pa.array(c),
                "i": pa.array(i),
                "__side": pa.array(np.full(len(u), side, dtype=np.int8))})
        return fn

    def _rank(uq, tq, uk, tk, side_of_query_after: bool):
        """# of key rows with (u, t) strictly before / up-to each query
        — queries placed after equal keys gives 'count <=', before
        gives 'count <'."""
        n_k = len(uk)
        s = np.concatenate([np.zeros(n_k, dtype=np.int8),
                            np.full(len(uq),
                                    1 if side_of_query_after else -1,
                                    dtype=np.int8)])
        uu = np.concatenate([uk, uq])
        tt = np.concatenate([tk, tq])
        order = np.lexsort((s, tt, uu))
        n_before = np.cumsum(np.concatenate(
            [[0], (s[order] == 0).astype(np.int64)]))[:-1]
        pos = np.empty(len(s), dtype=np.int64)
        pos[order] = n_before
        return pos[n_k:]

    def join_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"))
        u = np.asarray(group.column("u"), dtype=np.int64)
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        if time_sliced and len(u):
            # fold the cell id into the match key: dense (u, c) codes
            c = np.asarray(group.column("c"), dtype=np.int64)
            pair = np.stack([u, c], axis=1)
            _, u = np.unique(pair, axis=0, return_inverse=True)
            u = u.astype(np.int64)
        la = side == 0
        ua, ta, ia = u[la], t[la], i[la]
        ub, tb, ib = u[~la], t[~la], i[~la]
        empty = pa.table({"a_id": pa.array([], pa.int64()),
                          "b_id": pa.array([], pa.int64()),
                          "dt_us": pa.array([], pa.int64())})
        if not len(ua) or not len(ub):
            return empty
        ob = np.lexsort((tb, ub))
        ub, tb, ib = ub[ob], tb[ob], ib[ob]
        lo = _rank(ua, ta - W, ub, tb, side_of_query_after=False)
        hi = _rank(ua, ta + W, ub, tb, side_of_query_after=True)
        # clamp to the user's own segment: rows outside [lo, hi) with a
        # different user are impossible — _rank counted rows of EARLIER
        # users too, but lo/hi share that offset, so the range is
        # user-pure as long as t±W doesn't cross into another user's
        # rows of the same (u) — u is the primary sort key, so it can't
        cnt = np.maximum(hi - lo, 0)
        if cnt.sum() == 0:
            return empty
        a_rep = np.repeat(np.arange(len(ua)), cnt)
        b_idx = (np.arange(int(cnt.sum()), dtype=np.int64)
                 - np.repeat(np.cumsum(cnt) - cnt, cnt)
                 + np.repeat(lo, cnt))
        ok = ub[b_idx] == ua[a_rep]
        a_rep, b_idx = a_rep[ok], b_idx[ok]
        return pa.table({
            "a_id": pa.array(ia[a_rep]),
            "b_id": pa.array(ib[b_idx]),
            "dt_us": pa.array(tb[b_idx] - ta[a_rep])})

    both = (left_ds.map_batches(tag(0, left_id), batch_format="pyarrow")
            .union(right_ds.map_batches(tag(1, right_id),
                                        batch_format="pyarrow")))
    # (u, c) is the match key: c is 0 unless time_sliced
    return exchange(both, join_bucket, ["u", "c"], num_buckets)


def merge_changes(base_ds, changes_ds, key: str, seq_col: str, op_col: str,
                  payload_cols: list[str], num_buckets: int = 64,
                  delete_op: str = "D"):
    """Apply a CDC change stream to a base table (the lakehouse MERGE /
    upsert-and-delete compaction step a 100-TB crawl refresh needs).

    ``base_ds``: ``(key, *payload_cols)``, unique per key.
    ``changes_ds``: ``(key, seq_col, op_col, *payload_cols)`` — for each
    key the change with the HIGHEST ``seq_col`` wins (caller guarantees
    ``(key, seq)`` unique); its op decides: ``delete_op`` drops the key,
    anything else upserts the change's payload (keys absent from base
    insert).  Keys untouched by changes keep their base row.

    ONE bucket exchange (key-hash bucket over the union of both tagged
    sides; the pattern of :func:`time_band_join`), per-bucket resolution
    is Arrow sort + vectorized run detection + ``pc.is_in`` — buckets
    partition the key space, so the result is exact for any input
    partitioning.  Null keys are rejected loudly (SQL MERGE requires a
    key).  Output columns: ``(key, *payload_cols)``.
    """
    import pyarrow.compute as pc

    out_cols = [key, *payload_cols]

    def tag_base(batch: pa.Table) -> pa.Table:
        col = batch.column(key)
        if col.null_count:
            raise ValueError("merge_changes: null keys in base")
        t = batch.select(out_cols)
        t = t.append_column("__seq", pa.array(
            np.zeros(len(batch), dtype=np.int64)))
        t = t.append_column("__del", pa.array(
            np.zeros(len(batch), dtype=np.bool_)))
        return t.append_column("__side", pa.array(
            np.zeros(len(batch), dtype=np.int8)))

    def tag_change(batch: pa.Table) -> pa.Table:
        col = batch.column(key)
        if col.null_count:
            raise ValueError("merge_changes: null keys in changes")
        t = batch.select(out_cols)
        t = t.append_column("__seq", pc.cast(batch.column(seq_col),
                                             pa.int64()))
        t = t.append_column("__del", pc.equal(batch.column(op_col),
                                              pa.scalar(delete_op)))
        return t.append_column("__side", pa.array(
            np.ones(len(batch), dtype=np.int8)))

    def resolve(g: pa.Table) -> pa.Table:
        side = np.asarray(g.column("__side"))
        ch = g.filter(pa.array(side == 1))
        base = g.filter(pa.array(side == 0))
        if ch.num_rows:
            # last change per key: sort (key, seq) ascending, keep the
            # final row of each key run
            idx = pc.sort_indices(ch, sort_keys=[(key, "ascending"),
                                                 ("__seq", "ascending")])
            ch = ch.take(idx)
            k = ch.column(key)
            if isinstance(k, pa.ChunkedArray):
                k = k.combine_chunks()
            n = ch.num_rows
            last = np.ones(n, dtype=bool)
            if n > 1:
                last[:-1] = np.asarray(
                    pc.not_equal(k.slice(1), k.slice(0, n - 1)))
            ch = ch.filter(pa.array(last))
            ck = ch.column(key)
            if isinstance(ck, pa.ChunkedArray):
                ck = ck.combine_chunks()
            untouched = pc.invert(pc.is_in(base.column(key),
                                           value_set=ck))
            base = base.filter(untouched)
            kept = ch.filter(pc.invert(ch.column("__del")))
        else:
            kept = ch
        return pa.concat_tables([base.select(out_cols),
                                 kept.select(out_cols)])

    both = (base_ds.map_batches(tag_base, batch_format="pyarrow")
            .union(changes_ds.map_batches(tag_change,
                                          batch_format="pyarrow")))
    return exchange(both, resolve, key, num_buckets)


def interval_self_join(ds, start_col: str, end_col: str, tie_col: str,
                       bucket_width_s: int = 14400,
                       exclude_equal: str | None = None,
                       carry_cols: list[str] | None = None):
    """All OVERLAPPING interval pairs within one dataset — the interval
    self-join (``a.start <= b.end AND b.start <= a.end``, closed
    intervals) that neither an equi-join nor :func:`time_band_join`
    (fixed ± band around a point) covers.  Concurrent-session
    detection, meeting-conflict checks, span-collision audits.

    Scale plan: each interval is replicated to every
    ``bucket_width_s``-wide time bucket it spans (replication factor
    ≈ 1 + len/width — pick the width ≥ the typical interval length),
    ONE int-key shuffle on the bucket id, then a fully vectorized
    in-bucket sweep: sort by ``(start, tie_col)``, one
    ``searchsorted(starts, ends)`` pass gives every row's overlap
    range, pairs materialize with repeat/arange gathers.  Each pair is
    emitted EXACTLY ONCE — in the bucket holding the later start
    ``max(s_a, s_b)`` (both intervals provably span that bucket), by
    masking on the later row's native-replica flag.  No global dedup
    pass, no cross-bucket traffic beyond the replicas.

    Requirements: ``end >= start`` per row (raises otherwise);
    ``(start, tie_col)`` must be a unique total order (SQL-determinism
    requirement, same as every ranked oracle).  ``exclude_equal``
    drops pairs whose two sides share that column's value (e.g. the
    same user).  Output: ``a_<c>`` / ``b_<c>`` for each carried
    column, pair roles ordered by ``(start, tie_col)`` lexicographic —
    identical to the SQL ``a.s < b.s OR (a.s = b.s AND a.tie <
    b.tie)`` join condition.  A hot time bucket (everyone online at
    once) is inherent output density, not key skew; shrink the width
    to split it."""
    import pyarrow.compute as pc

    W = np.int64(bucket_width_s) * 1_000_000
    cols = carry_cols or [c for c in ds.schema().names]

    def _us(col) -> np.ndarray:
        if pa.types.is_timestamp(col.type):
            return np.asarray(col).astype("datetime64[us]").astype(np.int64)
        return np.asarray(col, dtype=np.int64)

    def explode(batch: pa.Table) -> pa.Table:
        s = _us(batch.column(start_col))
        e = _us(batch.column(end_col))
        if len(s) and (e < s).any():
            raise ValueError("interval_self_join: end < start")
        b0, b1 = s // W, e // W
        reps = (b1 - b0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(s), dtype=np.int64), reps)
        total = int(reps.sum())
        run0 = np.repeat(np.cumsum(reps) - reps, reps)
        k = np.arange(total, dtype=np.int64) - run0
        out = batch.select(cols).take(pa.array(idx))
        return (out.append_column("__tb", pa.array(b0[idx] + k))
                .append_column("__nat", pa.array(k == 0))
                .append_column("__s", pa.array(s[idx]))
                .append_column("__e", pa.array(e[idx])))

    def sweep(g: pa.Table) -> pa.Table:
        names = [(f"a_{c}", f"b_{c}") for c in cols]
        if not g.num_rows:
            return pa.table({n: pa.array([], g.schema.field(c).type)
                             for c, (an, bn) in zip(cols, names)
                             for n in (an, bn)})
        tie = g.column(tie_col)
        if isinstance(tie, pa.ChunkedArray):
            tie = tie.combine_chunks()
        tcode = np.unique(np.asarray(tie), return_inverse=True)[1]
        s = np.asarray(g.column("__s"), dtype=np.int64)
        order = np.lexsort((tcode, s))
        g = g.take(pa.array(order))
        s = s[order]
        e = np.asarray(g.column("__e"), dtype=np.int64)
        nat = np.asarray(g.column("__nat"))
        n = len(s)
        hi = np.searchsorted(s, e, side="right")
        lo = np.arange(n, dtype=np.int64) + 1
        cnt = np.maximum(hi - lo, 0)
        ii = np.repeat(np.arange(n, dtype=np.int64), cnt)
        run0 = np.repeat(np.cumsum(cnt) - cnt, cnt)
        jj = np.arange(int(cnt.sum()), dtype=np.int64) - run0 \
            + np.repeat(lo, cnt)
        keep = nat[jj]
        if exclude_equal is not None:
            ex = g.column(exclude_equal)
            if isinstance(ex, pa.ChunkedArray):
                ex = ex.combine_chunks()
            ev = np.asarray(ex)
            keep &= ev[ii] != ev[jj]
        ii, jj = ii[keep], jj[keep]
        data, out_names = [], []
        for c, (an, bn) in zip(cols, names):
            col = g.column(c)
            data += [col.take(pa.array(ii)), col.take(pa.array(jj))]
            out_names += [an, bn]
        return pa.table(dict(zip(out_names, data)))

    return (ds.map_batches(explode, batch_format="pyarrow")
            .groupby("__tb").map_groups(sweep, batch_format="pyarrow"))


def unpivot(ds, id_cols: list[str], value_cols: list[str],
            var_col: str = "metric", value_col: str = "value",
            value_type: pa.DataType | None = None):
    """UNPIVOT / melt: one output row per (input row, value column) —
    wide metrics table → long ``(ids..., metric, value)`` form.  A
    stateless zero-shuffle ``map_batches`` stage: per batch, each value
    column becomes one contiguous slab (id columns ride via zero-copy
    reference, the metric name is a run-length constant), slabs concat
    per batch — no row interleaving, no Python loop over rows.

    All value columns cast to ``value_type`` (default float64); a cast
    that would lose data raises rather than silently truncating.
    """
    import pyarrow.compute as pc

    vt = value_type or pa.float64()

    def melt(batch: pa.Table) -> pa.Table:
        slabs = []
        ids = batch.select(id_cols)
        for vc in value_cols:
            slab = ids.append_column(
                var_col, pa.array([vc] * batch.num_rows, pa.string()))
            slab = slab.append_column(
                value_col, pc.cast(batch.column(vc), vt))
            slabs.append(slab)
        return pa.concat_tables(slabs) if slabs else \
            ids.append_column(var_col, pa.array([], pa.string())) \
               .append_column(value_col, pa.array([], vt))

    return ds.map_batches(melt, batch_format="pyarrow")


def survivorship(ds, key_col: str, order_col: str, cols: list[str],
                 num_buckets: int = 32):
    """MDM golden-record survivorship: for each key, the LAST NON-NULL
    value of EVERY column by ``order_col`` — last-writer-wins per
    COLUMN, not per row (:func:`merge_changes` resolves whole rows;
    here each change row may contribute a different subset of fields,
    the classic contact-record merge).

    Per-block partial: ONE row per (block, key) carrying, per column,
    the block's last non-null value and its order stamp; ONE
    key-hash-bucketed exchange; the identical reduction merges
    partials (the op is an associative per-column argmax over
    (stamp, value) pairs with null-skipping).  ``order_col`` must be
    totally ordered per key (unique — SQL determinism); NULL keys are
    excluded; float NaN counts as a VALUE (only NULL is skipped,
    matching SQL IGNORE NULLS).  Order stamps equal to INT64_MIN are
    reserved as the missing sentinel.

    Output: ``(key, <c>_last ...)``, one row per key.
    """
    import pyarrow.compute as pc

    MISS = np.iinfo(np.int64).min

    def _ord_int(col) -> np.ndarray:
        if pa.types.is_timestamp(col.type):
            return np.asarray(col).astype("datetime64[us]"
                                          ).astype(np.int64)
        return np.asarray(pc.fill_null(pc.cast(col, pa.int64()), MISS),
                          dtype=np.int64)

    def _reduce(tbl: pa.Table, stamps: dict[str, np.ndarray],
                keep_stamps: bool) -> pa.Table:
        k = tbl.column(key_col)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        codes = np.asarray(k.dictionary_encode().indices, dtype=np.int64)
        out: dict[str, pa.Array] = {}
        sel_keys = None
        for c in cols:
            oc = stamps[c]
            o = np.lexsort((oc, codes))
            cs = codes[o]
            new = np.concatenate([[True], cs[1:] != cs[:-1]])
            starts = np.flatnonzero(new)
            ends = np.concatenate([starts[1:], [len(cs)]]) - 1
            sel = o[ends]                     # max-stamp row per key
            if sel_keys is None:
                sel_keys = k.take(pa.array(sel))
            got = pa.array(oc[sel] != MISS)
            col = tbl.column(c)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            vals = pc.if_else(got, col.take(pa.array(sel)),
                              pa.scalar(None, col.type))
            out[c] = vals
            if keep_stamps:
                out[f"__o_{c}"] = pa.array(oc[sel])
        t = pa.table({key_col: sel_keys, **out})
        return t

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column(key_col)))
        cols_all = [key_col, order_col, *cols]
        batch = batch.select(cols_all)
        if batch.num_rows == 0:
            t = batch.select([key_col])
            for c in cols:
                t = t.append_column(c, batch.column(c))
                t = t.append_column(f"__o_{c}", pa.array([], pa.int64()))
            return t
        base = _ord_int(batch.column(order_col))
        stamps = {}
        for c in cols:
            valid = np.asarray(batch.column(c).is_valid())
            stamps[c] = np.where(valid, base, MISS)
        return _reduce(batch, stamps, keep_stamps=True)

    def finish(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return group.drop_columns([f"__o_{c}" for c in cols])
        stamps = {c: np.asarray(group.column(f"__o_{c}"), dtype=np.int64)
                  for c in cols}
        return _reduce(group, stamps, keep_stamps=False)

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), finish,
                    key_col, num_buckets)


def snapshot_delta(old_ds, new_ds, key: str, payload_cols: list[str],
                   num_buckets: int = 64, op_col: str = "op"):
    """Generate a CDC change log from two keyed snapshots — the inverse
    of :func:`merge_changes`: ``merge_changes(old, snapshot_delta(old,
    new), …)`` reproduces ``new`` exactly (property-tested).  For every
    key: present only in ``new`` → ``I`` (insert, new payload), only in
    ``old`` → ``D`` (delete, null payload), in both with any payload
    column distinct (null-safe ``IS DISTINCT FROM``) → ``U`` (update,
    new payload); identical rows emit nothing.

    Both snapshots must be unique per key and null-key free (loud
    raise — a diff over ambiguous keys is meaningless).  Plan: tag
    sides, ONE key-hash bucket exchange over the union (the
    :func:`merge_changes` shape), per-bucket resolution is one Arrow
    sort + vectorized run detection + per-column null-safe compares —
    unchanged keys cancel in-bucket and never reach the output.
    Output ``(key, op_col, *payload_cols)``.
    """
    import pyarrow.compute as pc

    from bqf_ray.pipelines.audit import _key_codes

    cols = [key, *payload_cols]

    def keyed(batch: pa.Table) -> pa.Table:
        if batch.column(key).null_count:
            raise ValueError("snapshot_delta: null keys")
        return batch.select(cols)

    def _distinct(a: pa.Array, b: pa.Array) -> np.ndarray:
        """Null-safe IS DISTINCT FROM, vectorized."""
        av = np.asarray(a.is_valid())
        bv = np.asarray(b.is_valid())
        neq = np.asarray(pc.fill_null(pc.not_equal(a, b), False))
        return (av != bv) | (av & bv & neq)

    def resolve(g: pa.Table) -> pa.Table:
        empty = {key: g.column(key).combine_chunks().slice(0, 0)
                 if isinstance(g.column(key), pa.ChunkedArray)
                 else g.column(key).slice(0, 0),
                 op_col: pa.array([], pa.string()),
                 **{c: g.column(c).combine_chunks().slice(0, 0)
                    if isinstance(g.column(c), pa.ChunkedArray)
                    else g.column(c).slice(0, 0)
                    for c in payload_cols}}
        if not g.num_rows:
            return pa.table(empty)
        idx = pc.sort_indices(g, sort_keys=[(key, "ascending"),
                                            ("__side", "ascending")])
        g = g.take(idx)
        k = g.column(key)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        codes = _key_codes(k)
        side = np.asarray(g.column("__side"), dtype=np.int8)
        n = len(codes)
        new_run = np.empty(n, dtype=bool)
        new_run[:1] = True
        new_run[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.append(starts, n))
        if lens.max() > 2 or \
                (side[starts[lens == 2]] !=
                 np.int8(0)).any() or \
                (side[starts[lens == 2] + 1] != np.int8(1)).any():
            raise ValueError("snapshot_delta: duplicate key within a "
                             "snapshot — inputs must be unique per key")
        single = starts[lens == 1]
        ins = single[side[single] == 1]
        dels = single[side[single] == 0]
        pair_old = starts[lens == 2]
        pair_new = pair_old + 1
        if len(pair_old):
            changed = np.zeros(len(pair_old), dtype=bool)
            oi = pa.array(pair_old, pa.int64())
            ni = pa.array(pair_new, pa.int64())
            for c in payload_cols:
                col = g.column(c)
                changed |= _distinct(col.take(oi).combine_chunks(),
                                     col.take(ni).combine_chunks())
            upd = pair_new[changed]
        else:
            upd = np.empty(0, dtype=np.int64)
        take_new = np.concatenate([ins, upd])
        out_rows = np.concatenate([take_new, dels])
        ops = np.concatenate([
            np.repeat("I", len(ins)), np.repeat("U", len(upd)),
            np.repeat("D", len(dels))]).astype(object)
        sub = g.take(pa.array(out_rows, pa.int64()))
        data = {key: sub.column(key),
                op_col: pa.array(ops, pa.string())}
        nd = len(dels)
        for c in payload_cols:
            col = sub.column(c).combine_chunks() \
                if isinstance(sub.column(c), pa.ChunkedArray) \
                else sub.column(c)
            if nd:
                mask = np.zeros(len(sub), dtype=bool)
                mask[len(take_new):] = True       # delete rows → null
                col = pc.if_else(pa.array(mask),
                                 pa.scalar(None, col.type), col)
            data[c] = col
        return pa.table(data)

    both = _tagged(old_ds.map_batches(keyed, batch_format="pyarrow"), 0) \
        .union(_tagged(new_ds.map_batches(keyed, batch_format="pyarrow"), 1))
    return exchange(both, resolve, key, num_buckets)


def pit_join(left_ds, dim_ds, by: str, ts_col: str,
             valid_from: str = "valid_from", valid_to: str = "valid_to",
             tie_col: str | None = None, how: str = "left",
             num_buckets: int = 32, suffix: str = "_dim"):
    """Point-in-time (validity-interval) join — the SCD2 enrichment
    operator: each left fact row attaches the dimension version whose
    ``[valid_from, valid_to)`` interval contains ``ts_col`` for the
    same ``by`` key.  Among candidates the LATEST ``valid_from`` ≤ ts
    wins (ties by largest ``tie_col``); a winner with ``valid_to`` ≤
    ts is EXPIRED — unlike a plain as-of join the fact then matches
    nothing (TTL'd dimensions leave gaps).  ``valid_to`` NULL = open.

    ``how="left"`` keeps unmatched/expired facts with null dimension
    columns; ``"inner"`` drops them.

    Plan: ONE ``bucket_of(by)`` bucket co-partition of both sides (the
    :func:`asof_join` exchange shape), then a vectorized in-bucket
    merge: lexsort combined rows by (key, t, tie, side) with left
    rows last at exact ties (``valid_from <= ts`` is inclusive), one
    running maximum over dimension positions, same-key + expiry
    validation.  No per-fact search, no interval explosion.
    """
    if how not in ("left", "inner"):
        raise ValueError(f"unsupported how={how!r}")
    lsch, dsch = left_ds.schema(), dim_ds.schema()
    left_cols = list(lsch.names)
    dim_names = dsch.names
    attr_cols = [c for c in dim_names
                 if c not in (by, valid_from, valid_to, tie_col)]
    out_attrs = [c + suffix for c in attr_cols]
    IMAX = np.int64(np.iinfo(np.int64).max)

    def _us(col) -> np.ndarray:
        arr = np.asarray(col)
        if np.issubdtype(arr.dtype, np.datetime64):
            return arr.astype("datetime64[us]").astype(np.int64)
        return arr.astype(np.int64)

    def rename_dim(batch: pa.Table) -> pa.Table:
        return batch.rename_columns([c + suffix if c in attr_cols else c
                                     for c in batch.column_names])

    ltypes = _arrow_field_types(lsch)
    dt0 = _arrow_field_types(dsch)
    dtypes = {(c + suffix if c in attr_cols else c): dt0[c]
              for c in dim_names}

    def merge_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"))
        l_tbl = _side_select(group, side == 1, left_cols, ltypes)
        d_keep = [by, valid_from] + ([valid_to] if valid_to in dim_names
                                     else []) \
            + ([tie_col] if tie_col else []) + out_attrs
        d_tbl = _side_select(group, side == 0, d_keep, dtypes)
        nl, nd = len(l_tbl), len(d_tbl)
        empty = np.empty(0, dtype=np.int64)
        l_by = np.asarray(l_tbl.column(by), dtype=np.int64) if nl else empty
        l_ts = _us(l_tbl.column(ts_col)) if nl else empty
        d_by = np.asarray(d_tbl.column(by), dtype=np.int64) if nd else empty
        d_from = _us(d_tbl.column(valid_from)) if nd else empty
        d_tie = (np.asarray(d_tbl.column(tie_col), dtype=np.int64)
                 if (tie_col and nd) else np.zeros(nd, dtype=np.int64))
        key = np.concatenate([d_by, l_by])
        t = np.concatenate([d_from, l_ts])
        tie = np.concatenate([d_tie, np.full(nl, IMAX)])
        sd = np.concatenate([np.zeros(nd, dtype=np.int8),
                             np.ones(nl, dtype=np.int8)])
        src = np.concatenate([np.arange(nd), np.arange(nl)])
        order = np.lexsort((sd, tie, t, key))
        key_s, sd_s, src_s = key[order], sd[order], src[order]
        lastd = np.maximum.accumulate(
            np.where(sd_s == 0, np.arange(len(order)), -1))
        lpos = np.flatnonzero(sd_s == 1)
        p = lastd[lpos]
        valid = (p >= 0) & (key_s[np.maximum(p, 0)] == key_s[lpos])
        l_rows = src_s[lpos]
        # position 0 can hold a LEFT row when a fact has no prior dim
        # version — clamp unmatched entries to dim index 0 (masked out)
        d_rows = np.where(valid, src_s[np.maximum(p, 0)], 0)
        if valid.any() and valid_to in dim_names:
            import pyarrow.compute as pc
            vt_null = pc.is_null(
                d_tbl.column(valid_to)).to_numpy(zero_copy_only=False)
            vt_us = np.where(vt_null, IMAX,
                             _us_masked(np.asarray(d_tbl.column(valid_to))))
            # expired winner = NO match (do not fall back to an older
            # version: its interval also ended before ts by latest-
            # start-wins over non-overlapping histories)
            valid &= l_ts[l_rows] < vt_us[d_rows]
        if how == "inner":
            l_rows, d_rows = l_rows[valid], d_rows[valid]
            valid = np.ones(len(l_rows), dtype=bool)
        out = l_tbl.take(pa.array(l_rows))
        idx = pa.array(np.where(valid, d_rows, -1), pa.int64(),
                       mask=~valid)
        for c in out_attrs:
            out = out.append_column(c, d_tbl.column(c).take(idx))
        return out

    def _us_masked(arr: np.ndarray) -> np.ndarray:
        if np.issubdtype(arr.dtype, np.datetime64):
            a = arr.astype("datetime64[us]")
            out = a.astype(np.int64)
            return np.where(np.isnat(a), 0, out)
        if arr.dtype == object:
            return np.array([0 if v is None else int(v) for v in arr],
                            dtype=np.int64)
        return arr.astype(np.int64)

    dims = _tagged(dim_ds.map_batches(rename_dim, batch_format="pyarrow"), 0)
    return exchange(_tagged(left_ds, 1).union(dims), merge_bucket, by,
                    num_buckets)


def nearest_join(left_ds, right_ds, on: str, by: str,
                 num_buckets: int = 32, suffix: str = "_r",
                 how: str = "inner"):
    """Nearest-neighbor temporal join: for every left row, attach the
    right row sharing ``by`` whose ``on`` is CLOSEST in absolute
    distance — either direction, ties (equidistant past vs future)
    resolve to the PAST row.  The bidirectional companion to
    :func:`asof_join` (sensor alignment, nearest-quote matching).

    Same plan as :func:`asof_join`: bucket-co-partition both sides on
    ``bucket_of(by)`` (one groupby shuffle), one merged lexsort per bucket
    with rights before lefts at equal ``on``, then TWO linear sweeps —
    a running maximum (last right at-or-before) and a reversed running
    minimum (first right strictly after) — pick the closer, validate
    same-key.  The right side must be unique on ``(by, on)`` for a
    deterministic payload (dedupe upstream; equal-ts duplicate rights
    make the winner partitioning-dependent, same caveat asof_join
    documents).  ``how="left"`` keeps unmatched left rows with null
    right columns."""
    lsch, rsch = left_ds.schema(), right_ds.schema()
    left_cols = list(lsch.names)
    right_cols = [c for c in rsch.names if c != by]

    def to_i64(col) -> np.ndarray:
        arr = np.asarray(col)
        if np.issubdtype(arr.dtype, np.datetime64):
            return arr.astype("datetime64[us]").astype(np.int64)
        return arr.astype(np.int64)

    def rename_right(batch: pa.Table) -> pa.Table:
        names = [c + suffix if c in right_cols else c
                 for c in batch.column_names]
        return batch.rename_columns(names)

    right_cols_final = [c + suffix for c in right_cols]

    ltypes = _arrow_field_types(lsch)
    rt0 = _arrow_field_types(rsch)
    rtypes = {by: rt0[by], **{c + suffix: rt0[c] for c in right_cols}}

    def merge_bucket(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("__side"))
        l_tbl = _side_select(group, side == 0, left_cols, ltypes)
        r_tbl = _side_select(group, side == 1,
                             [by] + right_cols_final, rtypes)
        nl, nr = len(l_tbl), len(r_tbl)
        l_by = np.asarray(l_tbl.column(by), dtype=np.int64) if nl else \
            np.empty(0, dtype=np.int64)
        l_on = to_i64(l_tbl.column(on)) if nl else \
            np.empty(0, dtype=np.int64)
        r_by = np.asarray(r_tbl.column(by), dtype=np.int64) if nr else \
            np.empty(0, dtype=np.int64)
        r_on = to_i64(r_tbl.column(on + suffix)) if nr else \
            np.empty(0, dtype=np.int64)
        key = np.concatenate([r_by, l_by])
        t = np.concatenate([r_on, l_on])
        sd = np.concatenate([np.zeros(nr, dtype=np.int8),
                             np.ones(nl, dtype=np.int8)])
        src = np.concatenate([np.arange(nr), np.arange(nl)])
        order = np.lexsort((sd, t, key))     # rights first at ties
        key_s, t_s, sd_s, src_s = (key[order], t[order], sd[order],
                                   src[order])
        n = len(order)
        pos = np.arange(n, dtype=np.int64)
        back = np.maximum.accumulate(np.where(sd_s == 0, pos, -1))
        fwd = np.minimum.accumulate(
            np.where(sd_s == 0, pos, n)[::-1])[::-1]
        lpos = np.flatnonzero(sd_s == 1)
        pb, pf = back[lpos], fwd[lpos]
        vb = (pb >= 0) & (key_s[np.maximum(pb, 0)] == key_s[lpos])
        vf = (pf < n) & (key_s[np.minimum(pf, n - 1)] == key_s[lpos])
        db = t_s[lpos] - t_s[np.maximum(pb, 0)]
        df = t_s[np.minimum(pf, n - 1)] - t_s[lpos]
        use_b = vb & (~vf | (db <= df))      # equidistant → past
        p = np.where(use_b, pb, np.where(vf, pf, -1))
        valid = p >= 0
        l_rows = src_s[lpos]
        r_rows = np.where(valid, src_s[np.maximum(p, 0)], -1)
        if how == "inner":
            l_rows, r_rows = l_rows[valid], r_rows[valid]
            valid = np.ones(len(l_rows), dtype=bool)
        out = l_tbl.take(pa.array(l_rows))
        idx = pa.array(r_rows, pa.int64(), mask=~valid)
        for c in right_cols_final:
            out = out.append_column(c, r_tbl.column(c).take(idx))
        return out

    right_tagged = _tagged(right_ds, 1).map_batches(rename_right,
                                                    batch_format="pyarrow")
    return exchange(_tagged(left_ds, 0).union(right_tagged), merge_bucket,
                    by, num_buckets)


def cuckoo_revocation_check(universe_ds, revoked_ds, key_col: str,
                            group_col: str, revoked_key_col: str | None = None,
                            fp: float = 0.01, expected_keys: int | None = None,
                            num_buckets: int = 32, bound_slack: float = 3.0):
    """Deletable-membership maintenance with a cuckoo filter (Fan et al.
    2014) — the revocation companion to :func:`bloom_semi_join`: build
    the filter over a UNIQUE-key universe (distributed per-partition
    build + merge), DELETE a revoked key set, then probe every
    universe row and report per-group exact counts beside the filter's
    two contracts:

    - ``zero_fn``: every still-valid key queries positive.  This is
      DETERMINISTIC, not probabilistic: copies(pair, fp) equals the
      number of inserted keys mapping there, each successful delete
      removes exactly one copy, and the stash never drops — so a valid
      key always has ≥1 surviving copy.
    - ``fp_ok``: revoked keys query positive only at the published
      false-positive rate ``≤ 2b/2^f`` (checked with ``bound_slack``×
      multiplicative + small additive binomial slack per group).

    The revoked side must be a SUBSET of the universe keys (raises
    loudly otherwise — deleting never-inserted keys is undefined for
    cuckoo filters, paper §2.2) and is collected DISTINCT to the driver
    (node-sized envelope, the bfs/pagerank broadcast rule); the filter
    ships once via ``ray.put``.  Output: ``(group_col, n_parts,
    n_revoked, n_valid, zero_fn, fp_ok)``."""
    import ray

    from bqf_ray.sketches.cuckoo import CuckooFilter
    from bqf_ray.stages.partition import bucketed_sum
    from bqf_ray.stages.sketch_stage import build_sketch

    rkey = revoked_key_col or key_col

    def distinct_block(batch: pa.Table) -> pa.Table:
        k = np.unique(np.asarray(batch.column(rkey), dtype=np.int64))
        return pa.table({rkey: pa.array(k)})

    parts = [np.asarray(b.column(rkey), dtype=np.int64)
             for b in revoked_ds.select_columns([rkey])
             .map_batches(distinct_block, batch_format="pyarrow")
             .iter_batches(batch_size=None, batch_format="pyarrow")]
    revoked = np.unique(np.concatenate(parts)) if parts else \
        np.empty(0, dtype=np.int64)

    ukey_ds = universe_ds.select_columns([key_col, group_col])
    n = int(expected_keys) if expected_keys is not None \
        else max(int(ukey_ds.count()), 1)

    def keys_of(batch: pa.Table):
        return np.asarray(batch.column(key_col),
                          dtype=np.int64).view(np.uint64), None

    cf = build_sketch(ukey_ds, keys_of,
                      lambda: CuckooFilter.from_capacity(n, fp=fp))
    ok = cf.delete_batch(revoked.view(np.uint64))
    if not ok.all():
        raise ValueError(
            f"cuckoo_revocation_check: {int((~ok).sum())} revoked keys "
            f"were never in the universe (delete is defined only for "
            f"inserted keys)")
    cf_ref = ray.put(cf)
    rev_ref = ray.put(revoked)

    class Probe:
        def __init__(self):
            self.cf = ray.get(cf_ref)
            self.revoked = ray.get(rev_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            k = np.asarray(batch.column(key_col), dtype=np.int64)
            member = self.cf.contains_batch(k.view(np.uint64))
            is_rev = np.isin(k, self.revoked)
            g = batch.column(group_col)
            if isinstance(g, pa.ChunkedArray):
                g = g.combine_chunks()
            codes = np.unique(np.asarray(g), return_inverse=True)[1]
            m = codes.max() + 1 if len(codes) else 0

            def cnt(mask):
                out = np.zeros(m, dtype=np.int64)
                np.add.at(out, codes[mask], 1)
                return out

            first = np.zeros(m, dtype=np.int64)
            first[codes[::-1]] = np.arange(len(codes))[::-1]
            return pa.table({
                group_col: g.take(pa.array(first)),
                "n_parts": pa.array(cnt(np.ones(len(k), dtype=bool))),
                "n_revoked": pa.array(cnt(is_rev)),
                "n_member_valid": pa.array(cnt(member & ~is_rev)),
                "n_member_revoked": pa.array(cnt(member & is_rev))})

    sums = bucketed_sum(
        ukey_ds.map_batches(Probe, batch_format="pyarrow",
                            concurrency=(1, 8)),
        [group_col],
        {"n_parts": "n_parts", "n_revoked": "n_revoked",
         "n_member_valid": "n_member_valid",
         "n_member_revoked": "n_member_revoked"},
        num_buckets=num_buckets)

    bound = 2.0 * cf.slots / float(1 << cf.fbits)

    def finish(batch: pa.Table) -> pa.Table:
        npart = np.asarray(batch.column("n_parts"), dtype=np.int64)
        nrev = np.asarray(batch.column("n_revoked"), dtype=np.int64)
        nmv = np.asarray(batch.column("n_member_valid"), dtype=np.int64)
        nmr = np.asarray(batch.column("n_member_revoked"), dtype=np.int64)
        nval = npart - nrev
        return pa.table({
            group_col: batch.column(group_col),
            "n_parts": pa.array(npart),
            "n_revoked": pa.array(nrev),
            "n_valid": pa.array(nval),
            "zero_fn": pa.array(nmv == nval),
            "fp_ok": pa.array(nmr <= nrev * bound * bound_slack + 3)})

    return sums.map_batches(finish, batch_format="pyarrow")


def key_sample_join(left_ds, right_ds, key: str, rate: float,
                    salt: str = "", algo: str = "md5",
                    num_buckets: int = 32, how: str = "inner",
                    suffix: str = "_r"):
    """CORRELATED key-level sampling join — the unbiased join-sample
    trick (Vengerov et al., "Join size estimation subject to filter
    conditions", VLDB 2015 lineage): independently Bernoulli-sampling
    ROWS of both tables retains a joining pair only with probability
    rate², and join-group sizes bias any aggregate estimate.  Sampling
    the JOIN KEY with the SAME hash predicate on both sides instead
    keeps every join group intact with probability ``rate``, so any
    per-group aggregate over the sampled join scales by 1/rate
    unbiasedly.

    Deterministic and resume-stable (content-hash predicate, no RNG
    state); with ``algo="md5"`` a SQL engine replays the exact sample:
    ``('0x'||substr(md5(key::VARCHAR||salt),1,16))::UBIGINT <
    rate·2^64``.  The sampled sides then join via the explicit bucket
    co-partition of :func:`partitioned_hash_join` — the shuffle moves
    ``rate`` of each table, which is the point: estimate joins at 100 TB
    by shuffling 1 TB."""
    from bqf_ray.pipelines.sampling import hash_sample

    ls = hash_sample(left_ds, rate, key_col=key, salt=salt, algo=algo)
    rs = hash_sample(right_ds, rate, key_col=key, salt=salt, algo=algo)
    return partitioned_hash_join(ls, rs, key, num_buckets=num_buckets,
                                 how=how, suffix=suffix)


def join_hot_keys(left_ds, right_ds, left_key: str,
                  right_key: str | None = None, k: int = 20,
                  num_buckets: int = 64):
    """Join-skew diagnosis — the shuffle-planner's pre-flight check at
    100 TB: for an equi-join, each key contributes ``c_left · c_right``
    output rows, so one hot key (a bot user, an empty-string URL, a
    default timestamp) can dominate the whole exchange.  This reports
    the top-k keys by exact contribution BEFORE anyone pays for the
    join, the signal that drives the library's own mitigations
    (salting via ``stages.partition.add_salt``, broadcast/semi-join
    routing, key quarantine).

    Plan: per-batch (key, side) count partials pre-aggregated, ONE
    key-bucketed exchange; buckets pivot sides wide and compute exact
    ``contribution = c_left · c_right`` plus local top-k partials;
    :func:`~bqf_ray.pipelines.aggregates.global_top_n` funnels ≤ k
    rows per block (no global sort).  Keys absent from a side count 0
    (contribution 0 — never hot).  Ties break by ascending key.
    Returns ``(key, c_left, c_right, contribution)``, largest first."""
    from bqf_ray.pipelines.aggregates import global_top_n
    from bqf_ray.stages.partition import bucketed_sum

    rk = right_key or left_key

    def count_side(key_col: str, out_side: str):
        def fn(batch: pa.Table) -> pa.Table:
            col = batch.column(key_col)
            # null keys never match an equi-join: drop them here so the
            # top-k funnel's rank codes never see a null
            t = pa.table({"key": col.drop_null() if col.null_count
                          else col})
            g = (t.group_by(["key"]).aggregate([("key", "count")])
                 .rename_columns(["key", "pn"]))
            z = np.zeros(len(g), dtype=np.int64)
            pn = np.asarray(g.column("pn"), dtype=np.int64)
            return pa.table({
                "key": g.column("key"),
                "pl": pa.array(pn if out_side == "l" else z),
                "pr": pa.array(pn if out_side == "r" else z)})
        return fn

    both = (left_ds.map_batches(count_side(left_key, "l"),
                                batch_format="pyarrow")
            .union(right_ds.map_batches(count_side(rk, "r"),
                                        batch_format="pyarrow")))
    counts = bucketed_sum(both, ["key"],
                          {"pl": "c_left", "pr": "c_right"},
                          num_buckets=num_buckets)

    def contrib(batch: pa.Table) -> pa.Table:
        cl = np.asarray(batch.column("c_left"), dtype=np.int64)
        cr = np.asarray(batch.column("c_right"), dtype=np.int64)
        return batch.append_column("contribution", pa.array(cl * cr))

    return global_top_n(counts.map_batches(contrib, batch_format="pyarrow"),
                        ["contribution", "key"], int(k),
                        descending=[True, False])
