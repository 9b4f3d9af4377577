"""Exact global-order statistics: equi-width histograms and NTILE
percentile bucketing without an all-to-all sort.

The reference engine has no ordering operators at all (SURVEY.md §2.4 —
"No joins, sorts, top-k..."); these are engine-defined additions in the
same spirit as :func:`bqf_ray.pipelines.aggregates.global_top_n`: every
wide step moves either fixed-size partials (histogram) or each row
exactly once (ntile), never a comparison-sort exchange.

``exact_ntile_stats`` is the classic sample-sort plan made exact:

1. ONE sketch pass plans ``P`` value-range boundaries
   (:func:`bqf_ray.stages.partition.quantile_boundaries` — KLL partials,
   merged, no row movement);
2. ONE cheap counting pass (per-batch ``bincount`` of the routed
   partition id — P-sized arrays to the driver) turns the plan into
   EXACT global rank offsets;
3. ONE hash-free range shuffle co-locates each value interval, where a
   vectorized lexsort assigns ``rank = offset[part] + local_index`` and
   the NTILE cut array maps ranks to tiles.

Ties are safe by construction: ``searchsorted(side="right")`` routing
sends all rows with an equal value to the same partition, so the
within-partition ``(value, id)`` lexsort reproduces the total order
``ORDER BY value, id`` globally.  Balance (and therefore per-group
memory) is bounded by the KLL rank error; the input is read twice
(count pass + shuffle pass), which at 100 TB is the standard sample-sort
trade against materializing a ranked copy.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from bqf_ray.stages.partition import exchange


def value_histogram(ds, value_col: str, lo: float, hi: float, bins: int):
    """Exact equi-width histogram over ``[lo, hi]``.

    Per-batch ``bincount`` partials (at most ``bins`` rows per batch ride
    the exchange) + one tiny groupby-Sum.  Bin rule — shared verbatim
    with the SQL oracle so float rounding agrees bit-for-bit:
    ``bin = min(floor((v - lo) * bins / (hi - lo)), bins - 1)``; rows
    outside ``[lo, hi]`` (and nulls/NaNs) are excluded.

    Returns a Dataset ``(bin, bin_lo, n)`` with ``bin_lo = lo + bin * w``
    where ``w = (hi - lo) / bins``.
    """
    from ray.data.aggregate import Sum

    lo_f, hi_f, nb = float(lo), float(hi), int(bins)
    if not (hi_f > lo_f and nb > 0):
        raise ValueError("need hi > lo and bins > 0")

    def pre(batch: pa.Table) -> pa.Table:
        col = batch.column(value_col)
        v = np.asarray(col.cast(pa.float64()), dtype=np.float64)
        if col.null_count:
            v = v[~np.asarray(col.is_null())]
        v = v[(v >= lo_f) & (v <= hi_f)]
        if len(v) == 0:
            return pa.table({"bin": pa.array([], pa.int64()),
                             "partial": pa.array([], pa.int64())})
        idx = np.floor((v - lo_f) * nb / (hi_f - lo_f)).astype(np.int64)
        np.minimum(idx, nb - 1, out=idx)
        c = np.bincount(idx, minlength=nb)
        nz = np.nonzero(c)[0]
        return pa.table({"bin": pa.array(nz.astype(np.int64)),
                         "partial": pa.array(c[nz].astype(np.int64))})

    agg = (ds.map_batches(pre, batch_format="pyarrow")
             .groupby("bin").aggregate(Sum("partial", alias_name="n")))

    w = (hi_f - lo_f) / nb

    def post(batch: pa.Table) -> pa.Table:
        b = np.asarray(batch.column("bin"), dtype=np.int64)
        return pa.table({"bin": batch.column("bin"),
                         "bin_lo": pa.array(lo_f + b * w),
                         "n": batch.column("n")})

    return agg.map_batches(post, batch_format="pyarrow")


def _ntile_cuts(n_rows: int, k: int) -> np.ndarray:
    """Cumulative tile sizes under SQL NTILE semantics: the first
    ``n_rows % k`` tiles get one extra row.  ``searchsorted(cuts, rank,
    side="right")`` maps a 0-based global rank to its 0-based tile."""
    base, rem = divmod(int(n_rows), int(k))
    sizes = np.full(k, base, dtype=np.int64)
    sizes[:rem] += 1
    return np.cumsum(sizes)


def with_global_rank(ds, value_col: str, id_col: str,
                     num_partitions: int = 32,
                     materialize_routed: bool = False):
    """Internal: route rows by value range, compute exact global rank.

    Returns ``(grouped_ds, offsets, total)`` where ``grouped_ds`` is the
    routed dataset (``__part`` column appended, nulls dropped) and
    ``offsets[p]`` is the exact count of rows in partitions ``< p``.

    ``materialize_routed=True`` pins the routed rows in the object store
    so the exact-count pass and the range shuffle share one input
    execution instead of re-reading the source — faster when the input
    comfortably fits (or spills acceptably); the streaming default is
    the right shape when it does not.
    """
    import pyarrow.compute as pc

    from bqf_ray.stages.partition import (assign_range_partition,
                                          quantile_boundaries)

    def drop_nulls(batch: pa.Table) -> pa.Table:
        col = batch.column(value_col)
        mask = pc.is_valid(col)
        if pa.types.is_floating(col.type):      # NaN is not an Arrow null
            mask = pc.and_(mask, pc.invert(pc.is_nan(col)))
        return batch.filter(mask)

    clean = ds.map_batches(drop_nulls, batch_format="pyarrow")
    P = int(num_partitions)
    if clean.limit(1).count() == 0:     # early-stop probe: one block read
        return clean, np.zeros(P + 1, dtype=np.int64), 0
    boundaries = quantile_boundaries(clean, value_col, num_partitions)
    routed = assign_range_partition(clean, value_col, boundaries)
    if materialize_routed:
        routed = routed.materialize()

    def count_parts(batch: pa.Table) -> pa.Table:
        c = np.bincount(np.asarray(batch.column("__part"), dtype=np.int64),
                        minlength=P).astype(np.int64)
        nz = np.nonzero(c)[0]
        return pa.table({"part": pa.array(nz.astype(np.int64)),
                         "n": pa.array(c[nz])})

    parts = (routed.select_columns(["__part"])
             .map_batches(count_parts, batch_format="pyarrow").to_pandas())
    counts = (parts.groupby("part")["n"].sum()
              .reindex(range(P), fill_value=0).to_numpy().astype(np.int64))
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return routed, offsets, int(offsets[-1])


def exact_ntile_stats(ds, value_col: str, id_col: str, k: int,
                      num_partitions: int = 32,
                      materialize_routed: bool = False):
    """Per-tile (count, min, max) of ``NTILE(k) OVER (ORDER BY value,
    id)`` — exact, via the 3-pass sample-sort plan in the module
    docstring.  Output schema ``(tile, n, min_value, max_value)`` with
    0-based tiles; min/max are selected (not computed) floats, so the
    result is bit-exact against SQL.
    """
    from ray.data.aggregate import Max, Min, Sum

    routed, offsets, total = with_global_rank(ds, value_col, id_col,
                                              num_partitions,
                                              materialize_routed)
    if total == 0:
        import ray
        return ray.data.from_arrow(pa.table({
            "tile": pa.array([], pa.int64()), "n": pa.array([], pa.int64()),
            "min_value": pa.array([], pa.float64()),
            "max_value": pa.array([], pa.float64())}))
    cuts = _ntile_cuts(total, k)

    def per_part(group: pa.Table) -> pa.Table:
        part = int(group.column("__part")[0].as_py())
        vals = np.asarray(group.column(value_col), dtype=np.float64)
        ids = np.asarray(group.column(id_col))
        order = np.lexsort((ids, vals))
        ranks = offsets[part] + np.arange(len(vals), dtype=np.int64)
        tile = np.searchsorted(cuts, ranks, side="right").astype(np.int64)
        sv = vals[order]
        # per-tile partials within this partition: tiles are contiguous
        # runs of the sorted ranks, so first/last of each run give min/max
        t_u, first = np.unique(tile, return_index=True)
        last = np.concatenate([first[1:], [len(tile)]]) - 1
        return pa.table({"tile": pa.array(t_u),
                         "pn": pa.array((last - first + 1).astype(np.int64)),
                         "pmin": pa.array(sv[first]),
                         "pmax": pa.array(sv[last])})

    partials = routed.groupby("__part").map_groups(
        per_part, batch_format="pyarrow")
    return (partials.groupby("tile")
            .aggregate(Sum("pn", alias_name="n"),
                       Min("pmin", alias_name="min_value"),
                       Max("pmax", alias_name="max_value")))


def global_row_numbers(ds, value_col: str, id_col: str,
                       num_partitions: int = 32):
    """Per-row exact global rank: ``(id_col, rank)`` with 1-based
    ``rank = ROW_NUMBER() OVER (ORDER BY value, id)`` — the same
    sample-sort plan as :func:`exact_ntile_stats`, emitting the rank per
    row instead of tile aggregates (quantile normalization, leaderboard
    positions, percentile features)."""
    routed, offsets, total = with_global_rank(ds, value_col, id_col,
                                              num_partitions)
    if total == 0:
        import ray
        id_type = ds.schema().base_schema.field(id_col).type
        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], id_type),
            "rank": pa.array([], pa.int64())}))

    def per_part(group: pa.Table) -> pa.Table:
        part = int(group.column("__part")[0].as_py())
        vals = np.asarray(group.column(value_col), dtype=np.float64)
        ids = np.asarray(group.column(id_col))
        order = np.lexsort((ids, vals))
        ranks = offsets[part] + np.arange(1, len(vals) + 1, dtype=np.int64)
        return pa.table({id_col: pa.array(ids[order]),
                         "rank": pa.array(ranks)})

    return routed.groupby("__part").map_groups(per_part,
                                               batch_format="pyarrow")


def grouped_relative_ranks(ds, key_col: str, value_col: str,
                           id_col: str, num_buckets: int = 32):
    """Exact ``PERCENT_RANK()`` and ``CUME_DIST()`` per key over
    ``value_col`` — the relative-position normalizers (quantile scores
    for mixture weighting / per-domain score calibration).  SQL tie
    semantics exactly: percent_rank uses RANK (ties share the FIRST
    position), cume_dist counts peers INCLUSIVE (ties share the LAST);
    both derive from one lexsort + run-boundary pass per key bucket —
    one key-hash exchange, no per-key loop.  The final ratios divide
    the same int64s the SQL window divides, so float64 results are
    bit-identical.  Rows with null/NaN values are excluded (mirror
    with ``WHERE value IS NOT NULL``).  Output: ``(id_col,
    percent_rank, cume_dist)``."""
    import pyarrow.compute as pc

    def bucket(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col)
        keep = pc.is_valid(v)
        if pa.types.is_floating(v.type):
            keep = pc.and_(keep, pc.invert(pc.is_nan(pc.fill_null(
                v, 0.0))))
        batch = batch.filter(pc.and_(keep, pc.is_valid(
            batch.column(key_col))))
        return pa.table({
            "k": batch.column(key_col),
            "v": pc.cast(batch.column(value_col), pa.float64()),
            "i": pc.cast(batch.column(id_col), pa.int64())})

    def ranks(group: pa.Table) -> pa.Table:
        if not group.num_rows:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "percent_rank": pa.array([], pa.float64()),
                             "cume_dist": pa.array([], pa.float64())})
        kcol = group.column("k")
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        kc = np.unique(np.asarray(kcol), return_inverse=True)[1]
        v = np.asarray(group.column("v"), dtype=np.float64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        order = np.lexsort((v, kc))
        kc, v, i = kc[order], v[order], i[order]
        n = len(kc)
        pos = np.arange(n, dtype=np.int64)
        knew = np.r_[True, kc[1:] != kc[:-1]]
        kstart = np.maximum.accumulate(np.where(knew, pos, 0))
        klen_runs = np.diff(np.r_[np.flatnonzero(knew), n])
        klen = np.repeat(klen_runs, klen_runs)
        # value runs within a key: RANK = first peer position,
        # CUME = last peer position + 1 (both relative to key start)
        vnew = knew | np.r_[True, v[1:] != v[:-1]]
        vstart = np.maximum.accumulate(np.where(vnew, pos, 0))
        vrun_lens = np.diff(np.r_[np.flatnonzero(vnew), n])
        vend = np.repeat(np.flatnonzero(vnew) + vrun_lens, vrun_lens)
        rank = vstart - kstart + 1
        cume = vend - kstart
        pr = np.where(klen > 1, (rank - 1) / np.maximum(klen - 1, 1),
                      0.0)
        cd = cume / klen
        return pa.table({id_col: pa.array(i),
                         "percent_rank": pa.array(pr),
                         "cume_dist": pa.array(cd.astype(np.float64))})

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"), ranks,
                    "k", num_buckets)


def grouped_value_histogram(ds, group_col: str, value_col: str,
                            lo: float, hi: float, bins: int,
                            num_buckets: int = 32):
    """Exact equi-width histogram PER GROUP — the side-by-side
    distribution table drift detection (PSI / KL between sources,
    before/after snapshots) reads from: ``(group, bin, bin_lo, n)``
    with :func:`value_histogram`'s exact bin rule (shared verbatim
    with SQL): ``bin = min(floor((v − lo)·bins/(hi − lo)), bins−1)``,
    out-of-range/null/NaN rows excluded.  Per-batch local (group, bin)
    bincount partials ride one map-side-combined bucket exchange — at
    most ``groups_in_block × bins`` rows per block cross the wire."""
    from bqf_ray.stages.partition import bucketed_sum

    lo_f, hi_f, nb = float(lo), float(hi), int(bins)
    if not (hi_f > lo_f and nb > 0):
        raise ValueError("need hi > lo and bins > 0")

    def pre(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        col = batch.column(value_col)
        keep = pc.is_valid(col)
        if pa.types.is_floating(col.type):
            keep = pc.and_(keep, pc.invert(pc.is_nan(pc.fill_null(
                col, 0.0))))
        keep = pc.and_(keep, pc.is_valid(batch.column(group_col)))
        batch = batch.filter(keep)
        v = np.asarray(batch.column(value_col).cast(pa.float64()),
                       dtype=np.float64)
        inr = (v >= lo_f) & (v <= hi_f)
        batch = batch.filter(pa.array(inr))
        v = v[inr]
        idx = np.floor((v - lo_f) * nb / (hi_f - lo_f)).astype(np.int64)
        np.minimum(idx, nb - 1, out=idx)
        return pa.table({"g": batch.column(group_col),
                         "bin": pa.array(idx),
                         "__one": pa.array(np.ones(len(idx),
                                                   dtype=np.int64))})

    agg = bucketed_sum(ds.map_batches(pre, batch_format="pyarrow"),
                       ["g", "bin"], {"__one": "n"},
                       num_buckets=num_buckets, combine_local=True)
    w = (hi_f - lo_f) / nb

    def post(batch: pa.Table) -> pa.Table:
        b = np.asarray(batch.column("bin"), dtype=np.int64)
        return pa.table({group_col: batch.column("g"),
                         "bin": batch.column("bin"),
                         "bin_lo": pa.array(lo_f + b * w),
                         "n": batch.column("n")})

    return agg.map_batches(post, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# reciprocal-rank fusion (multi-signal ranking merge)
# ---------------------------------------------------------------------------

def rrf_fuse(ds, metrics: list[tuple[str, bool]], id_col: str,
             k0: int = 60, top: int = 100):
    """Reciprocal-rank fusion (Cormack & Clarke 2009): fuse one global
    ranking per metric column into ``score = Σ 1/(k0 + rank_i)`` and
    keep the ``top`` rows — the standard hybrid-retrieval merge (e.g.
    BM25 ranking × embedding ranking).

    ``metrics`` is ``[(col, descending), ...]``; every metric column
    must be INTEGER (raises ``TypeError`` otherwise — float scores
    must be quantized first, the repo's cents rule, so ranks and the
    oracle replay stay exact).  Ranks use SQL ``RANK()`` tie semantics
    exactly: ``rank(v) = 1 + #{rows with a strictly better value}``.
    Rows with a null in ANY metric are excluded from all rankings
    (document the contract in the oracle).

    Plan (no global sort): ONE pass emits per-batch (metric, value,
    count) histogram partials, folded on the driver into a per-metric
    distinct-value → rank table (histogram-sized — bounded by each
    metric's value range, NOT the row count); a second pass broadcasts
    the sorted value/rank arrays (``ray.put``) and maps every row to
    its ranks + score via ``searchsorted``; the LIMIT rides per-block
    top-``top`` partials (:func:`bqf_ray.pipelines.aggregates.
    global_top_n`) — ≤ ``top`` rows per block cross the wire.  The
    score is evaluated LEFT-TO-RIGHT (``(1/(k0+r1) + 1/(k0+r2)) + …``),
    the same association SQL's ``+`` chain uses, so floats are
    bit-identical to the oracle.
    """
    import ray

    from bqf_ray.pipelines.aggregates import global_top_n

    M = [(str(c), bool(d)) for c, d in metrics]
    K0 = int(k0)

    def keep_valid(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        mask = None
        for c, _ in M:
            col = batch.column(c)
            if not pa.types.is_integer(col.type):
                raise TypeError(
                    f"rrf_fuse metric {c!r} has type {col.type}; metrics "
                    "must be integer — quantize float scores first "
                    "(cents rule) so ranks stay exact")
            v = pc.is_valid(col)
            mask = v if mask is None else pc.and_(mask, v)
        return batch.filter(mask)

    # materialized ONCE: the histogram pass and the scoring pass must
    # see the same rows (a value missing from the histogram has no
    # rank), and callers shouldn't pay the upstream pipeline twice.
    clean = ds.map_batches(keep_valid, batch_format="pyarrow").materialize()

    def hist_part(batch: pa.Table) -> pa.Table:
        ms, vs, cs = [], [], []
        for j, (c, _) in enumerate(M):
            vals, cnt = np.unique(
                np.asarray(batch.column(c), dtype=np.int64),
                return_counts=True)
            ms.append(np.full(len(vals), j, dtype=np.int64))
            vs.append(vals)
            cs.append(cnt.astype(np.int64))
        return pa.table({"m": pa.array(np.concatenate(ms)),
                         "v": pa.array(np.concatenate(vs)),
                         "c": pa.array(np.concatenate(cs))})

    got = clean.map_batches(hist_part, batch_format="pyarrow").to_pandas()
    refs = []
    for j, (_, desc) in enumerate(M):
        sub = got[got["m"] == j]
        vals, inv = np.unique(sub["v"].to_numpy().astype(np.int64),
                              return_inverse=True)
        cnt = np.zeros(len(vals), dtype=np.int64)
        np.add.at(cnt, inv, sub["c"].to_numpy().astype(np.int64))
        csum = np.cumsum(cnt)                     # inclusive, value-asc
        total = int(csum[-1]) if len(csum) else 0
        if desc:
            rank = 1 + total - csum               # 1 + #{> v}
        else:
            rank = 1 + csum - cnt                 # 1 + #{< v}
        refs.append(ray.put((vals, rank.astype(np.int64))))

    def score(batch: pa.Table) -> pa.Table:
        out = {id_col: batch.column(id_col)}
        s = None
        for j, (c, _) in enumerate(M):
            vals, rank = ray.get(refs[j])
            v = np.asarray(batch.column(c), dtype=np.int64)
            idx = np.searchsorted(vals, v)
            if len(v) and ((idx >= len(vals)).any()
                           or (vals[np.minimum(idx, len(vals) - 1)]
                               != v).any()):
                raise RuntimeError(
                    f"rrf_fuse: value of {c!r} absent from the rank "
                    "histogram (upstream changed between passes?)")
            r = rank[idx]
            out[f"{c}_rank"] = pa.array(r)
            term = 1.0 / (K0 + r)
            s = term if s is None else s + term   # left-to-right
        out["rrf"] = pa.array(s)
        return pa.table(out)

    scored = clean.map_batches(score, batch_format="pyarrow")
    return global_top_n(scored, ["rrf", id_col], int(top),
                        descending=[True, False])


def grouped_ntile(ds, key_col: str, ts_col: str, id_col: str, n: int,
                  num_buckets: int = 32):
    """Per-key ``NTILE(n) OVER (PARTITION BY key ORDER BY ts, id)`` —
    SQL tile semantics exactly: the first ``cnt % n`` tiles get
    ``cnt // n + 1`` rows, the rest ``cnt // n``.  Same one-bucket-
    shuffle shape as ``windowed.grouped_row_numbers``: keys never split
    across buckets, tiles come from one lexsort + integer arithmetic on
    the 0-based in-key position (no per-key loop).  Output
    ``(id_col, tile)``."""
    from bqf_ray.pipelines.windowed import _keyed_rows

    K = int(n)
    if K < 1:
        raise ValueError("ntile n must be >= 1")

    def tile_bucket(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), dtype=np.int64)
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        if len(u) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "tile": pa.array([], pa.int64())})
        order = np.lexsort((i, t, u))
        us = u[order]
        pos = np.arange(len(us), dtype=np.int64)
        first = np.concatenate([[True], us[1:] != us[:-1]])
        starts = pos[first]
        cnt_run = np.diff(np.append(starts, len(us)))
        r = pos - np.repeat(starts, cnt_run)           # 0-based in key
        c = np.repeat(cnt_run, cnt_run)                # key size per row
        big = c % K                                    # tiles of size+1
        size_big = c // K + 1
        small = np.maximum(c // K, 1)                  # guard c < K
        cut = big * size_big
        tile = np.where(r < cut, r // size_big,
                        big + (r - cut) // small) + 1
        return pa.table({id_col: pa.array(i[order]),
                         "tile": pa.array(tile.astype(np.int64))})

    prep = _keyed_rows(key_col, ts_col, id_col)
    return exchange(ds.map_batches(prep, batch_format="pyarrow"),
                    tile_bucket, "u", num_buckets)
