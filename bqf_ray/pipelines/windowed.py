"""Windowed aggregates over the events stream table.

Ray Data is a (streaming-)batch engine with no event-time watermarks; the
events table is treated as a partitioned log (ray_guide
'Streaming-shaped workloads').  Tumbling windows are a pure groupby on the
window start; sliding windows fan each event out to the windows containing
it inside ``map_batches`` (vectorized) before the same groupby; session
windows shuffle once on ``bucket_of(user)`` and gap-split vectorized per bucket.
Wide finalizers are NATIVE ``aggregate(Sum)`` reducers plus a vectorized
post-map — no python-per-group work anywhere on the exact paths.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bqf_ray.stages.partition import exchange


def _us(col) -> np.ndarray:
    """A timestamp column as int64 epoch microseconds."""
    return np.asarray(col).astype("datetime64[us]").astype(np.int64)


def _keyed_rows(key_col: str, ts_col: str, id_col: str,
                value_col: str | None = None):
    """The per-key ordered-window projection every ``(key, ts, id)``
    operator below shuffles: int64 ``u`` (key), ``t`` (µs), ``i`` (id)
    and, with ``value_col``, ``v`` (int64; timestamps as µs).  Folds
    order a bucket with ``np.lexsort((i, t, u))``."""

    def prep(batch: pa.Table) -> pa.Table:
        cols = {"u": pa.array(np.asarray(batch.column(key_col),
                                         dtype=np.int64)),
                "t": pa.array(_us(batch.column(ts_col))),
                "i": pc.cast(batch.column(id_col), pa.int64())}
        if value_col is not None:
            v = batch.column(value_col)
            cols["v"] = pa.array(_us(v)) if pa.types.is_timestamp(v.type) \
                else pc.cast(v, pa.int64())
        return pa.table(cols)

    return prep


def _window_start_us(ts_us: np.ndarray, size_s: int) -> np.ndarray:
    size_us = np.int64(size_s) * 1_000_000
    return (ts_us // size_us) * size_us


def tumbling_window(ds, size_s: int = 3600, ts_col: str = "ts",
                    key_col: str = "event_type", value_col: str = "value"):
    """Per (window_start, key): count + sum(value).  One shuffle, with
    per-batch pre-aggregation so only partials move."""
    from ray.data.aggregate import Sum

    def pre(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column(ts_col)).astype("datetime64[us]").astype(np.int64)
        ws = _window_start_us(ts, size_s)
        # micro-unit integer accumulation → order-independent float result
        mv = np.floor(np.asarray(batch.column(value_col)) * 1_000_000 + 0.5
                      ).astype(np.int64)
        t = pa.table({
            "window_start": pa.array(ws),
            key_col: batch.column(key_col),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            "mv": pa.array(mv),
        })
        return t.group_by(["window_start", key_col]).aggregate(
            [("n", "sum"), ("mv", "sum")]).rename_columns(
            ["window_start", key_col, "n", "mv"])

    # NATIVE Sum aggregates (vectorized in the shuffle reducer) + one
    # vectorized post-map — no python-per-group finalizer (r1 verdict #8)
    from bqf_ray.stages.partition import bucketed_agg
    out = bucketed_agg(ds.map_batches(pre, batch_format="pyarrow"),
                       ["window_start", key_col],
                       [("n", "sum", "n_events"), ("mv", "sum", "__mv")])
    return out.map_batches(_finalize_window(key_col), batch_format="pyarrow")


def _finalize_window(key_col: str):
    """(window_start µs, key, n_events, __mv) → typed output columns."""

    def fn(batch: pa.Table) -> pa.Table:
        ws = np.asarray(batch.column("window_start"), dtype=np.int64)
        mv = np.asarray(batch.column("__mv"), dtype=np.int64)
        return pa.table({
            "window_start": pa.array(ws.astype("datetime64[us]")),
            key_col: batch.column(key_col),
            "n_events": batch.column("n_events"),
            "sum_value": pa.array(mv / 1_000_000.0, pa.float64()),
        })

    return fn


def sliding_window(ds, size_s: int = 3600, slide_s: int = 900,
                   ts_col: str = "ts", key_col: str = "event_type",
                   value_col: str = "value"):
    """Sliding windows via vectorized fan-out: each event replicates to the
    ``size/slide`` windows covering it, then the tumbling plan runs on the
    expanded rows."""
    from ray.data.aggregate import Sum

    reps = int(np.ceil(size_s / slide_s))

    def expand(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column(ts_col)).astype("datetime64[us]").astype(np.int64)
        slide_us = np.int64(slide_s) * 1_000_000
        size_us = np.int64(size_s) * 1_000_000
        last = (ts // slide_us) * slide_us          # latest window containing ts
        offs = (np.arange(reps, dtype=np.int64) * slide_us)[None, :]
        starts = last[:, None] - offs               # candidate window starts
        valid = (starts + size_us > ts[:, None]) & (starts >= 0)
        ridx = np.repeat(np.arange(len(batch)), reps)[valid.reshape(-1)]
        ws = starts.reshape(-1)[valid.reshape(-1)]
        t = batch.take(pa.array(ridx))
        mv = np.floor(np.asarray(t.column(value_col)) * 1_000_000 + 0.5
                      ).astype(np.int64)
        return pa.table({
            "window_start": pa.array(ws),
            key_col: t.column(key_col),
            "n": pa.array(np.ones(len(ws), dtype=np.int64)),
            "mv": pa.array(mv),
        }).group_by(["window_start", key_col]).aggregate(
            [("n", "sum"), ("mv", "sum")]).rename_columns(
            ["window_start", key_col, "n", "mv"])

    from bqf_ray.stages.partition import bucketed_agg
    out = bucketed_agg(ds.map_batches(expand, batch_format="pyarrow"),
                       ["window_start", key_col],
                       [("n", "sum", "n_events"), ("mv", "sum", "__mv")])
    return out.map_batches(_finalize_window(key_col), batch_format="pyarrow")


def windowed_distinct(ds, size_s: int = 3600, ts_col: str = "ts",
                      key_col: str = "event_type", id_col: str = "user_id",
                      exact: bool = True, hll_p: int = 12):
    """Distinct ids per (window, key) — exact (pre-distinct per batch, one
    native groupby) or HLL-approximate (one sketch per (window, key) built
    from per-batch partials merged in a second tiny groupby; the shuffle
    carries sketch blobs, not ids — the mergeable-UDAF win at scale)."""
    from ray.data.aggregate import Count

    if exact:
        def pre(batch: pa.Table) -> pa.Table:
            ts = np.asarray(batch.column(ts_col)).astype("datetime64[us]").astype(np.int64)
            ws = _window_start_us(ts, size_s)
            t = pa.table({"window_start": pa.array(ws),
                          key_col: batch.column(key_col),
                          id_col: batch.column(id_col)})
            return (t.group_by(["window_start", key_col, id_col])
                    .aggregate([]))

        from bqf_ray.stages.partition import bucketed_agg
        distinct = bucketed_agg(
            ds.map_batches(pre, batch_format="pyarrow"),
            ["window_start", key_col, id_col],
            [(id_col, "count", "__c")])

        from ray.data.aggregate import Sum

        def count_ids(batch: pa.Table) -> pa.Table:
            t = pa.table({"window_start": batch.column("window_start"),
                          key_col: batch.column(key_col),
                          "n": pa.array(np.ones(len(batch), dtype=np.int64))})
            return t.group_by(["window_start", key_col]).aggregate(
                [("n", "sum")]).rename_columns(
                ["window_start", key_col, "n"])

        out = bucketed_agg(
            distinct.map_batches(count_ids, batch_format="pyarrow"),
            ["window_start", key_col], [("n", "sum", "n_distinct")])
    else:
        from bqf_ray.functions.hashing import fmix64
        from bqf_ray.sketches.hll import HyperLogLog

        m_regs = 1 << hll_p

        def partials(batch: pa.Table) -> pa.Table:
            import pandas as pd
            from bqf_ray.sketches.hll import _register_updates
            ts = np.asarray(batch.column(ts_col)).astype("datetime64[us]").astype(np.int64)
            ws = _window_start_us(ts, size_s)
            ids = fmix64(np.asarray(batch.column(id_col)).astype(np.uint64))
            # SPARSE partials: only registers this batch touched cross the
            # shuffle, as (reg_idx << 8 | rho) int32 entries — ≤ one entry
            # per input row instead of a dense 2^p-byte vector per group.
            # Max-merge over sparse entries is bit-identical to dense merge.
            # (Worst case — a group touching all 2^p registers in one batch
            # — costs 4·2^p bytes vs 2^p dense; the sparse side wins by
            # orders of magnitude whenever rows-per-group-per-batch ≪ 2^p,
            # which is the regime every batch-local partial lives in.)
            kcodes, kuniq = pd.factorize(
                np.asarray(batch.column(key_col)).astype("U"))
            wcodes, wuniq = pd.factorize(ws)
            packed = wcodes.astype(np.int64) * len(kuniq) + kcodes
            ug, ginv = np.unique(packed, return_inverse=True)
            ridx, rho = _register_updates(ids, hll_p)
            comp = ginv.astype(np.int64) * m_regs + ridx
            order = np.lexsort((rho, comp))          # comp asc, rho asc
            comp_s, rho_s = comp[order], rho[order]
            last = np.r_[comp_s[1:] != comp_s[:-1], True]   # run max = last
            comp_u, rho_u = comp_s[last], rho_s[last]
            grp = comp_u // m_regs
            entries = ((comp_u % m_regs).astype(np.int32) << np.int32(8)) \
                | rho_u.astype(np.int32)
            offs = np.r_[np.int32(0), np.cumsum(
                np.bincount(grp, minlength=len(ug)), dtype=np.int32)]
            return pa.table({
                "window_start": pa.array(wuniq[ug // len(kuniq)],
                                         pa.int64()),
                key_col: pa.array(kuniq[ug % len(kuniq)], pa.string()),
                "regs": pa.ListArray.from_arrays(
                    pa.array(offs), pa.array(entries))})

        def merge_bucket(group: pa.Table) -> pa.Table:
            """All partials of a (window, key) share this bucket: one
            sparse scatter-max + one vectorized estimate — no python per
            group."""
            import pandas as pd
            ws = np.asarray(group.column("window_start"))
            keys = np.asarray(group.column(key_col)).astype("U")
            col = group.column("regs")
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            ent = np.asarray(col.values, dtype=np.int64)
            row_of = np.repeat(np.arange(len(group), dtype=np.int64),
                               np.diff(np.asarray(col.offsets)))
            kcodes, kuniq = pd.factorize(keys)
            wcodes, wuniq = pd.factorize(ws)
            packed = wcodes.astype(np.int64) * len(kuniq) + kcodes
            ug, ginv = np.unique(packed, return_inverse=True)
            # stay SPARSE end-to-end: max-merge the (group, register)
            # entries by sort + last-of-run, then estimate without ever
            # allocating the (groups × 2^p) dense matrix (estimate_sparse
            # docstring explains why dense is a trap here)
            rho = (ent & np.int64(0xFF))
            comp = ginv[row_of] * np.int64(m_regs) + (ent >> np.int64(8))
            order = np.lexsort((rho, comp))
            comp_s, rho_s = comp[order], rho[order]
            last = np.r_[comp_s[1:] != comp_s[:-1], True]
            est = HyperLogLog.estimate_sparse(comp_s[last] // m_regs,
                                              rho_s[last], len(ug), hll_p)
            return pa.table({
                "window_start": pa.array(wuniq[ug // len(kuniq)], pa.int64()),
                key_col: pa.array(kuniq[ug % len(kuniq)], pa.string()),
                "n_distinct_est": pa.array(est, pa.float64())})

        out = exchange(ds.map_batches(partials, batch_format="pyarrow"),
                       merge_bucket, ["window_start", key_col], 16)

    def to_ts(batch: pa.Table) -> pa.Table:
        ws = np.asarray(batch.column("window_start"), dtype=np.int64)
        return batch.set_column(0, "window_start",
                                pa.array(ws.astype("datetime64[us]")))

    return out.map_batches(to_ts, batch_format="pyarrow")


def windowed_distinct_check(ds, size_s: int = 3600, ts_col: str = "ts",
                            key_col: str = "event_type",
                            id_col: str = "user_id", hll_p: int = 12):
    """Exact distinct AND the HLL estimate per (window, key) in ONE
    bucketed shuffle — the bound-verification plan.

    The pure approximate plan (:func:`windowed_distinct` with
    ``exact=False``) ships only sparse register partials; verifying its
    bound requires the exact count, which inherently means shipping ids.
    Rather than running the exact and approximate pipelines separately
    (two reads + three shuffles), this ships per-batch-DISTINCT
    (window, key, id) triples once, bucketed by hash(window, key), and
    computes both answers per group in the merge: exact via unique-pair
    counting, estimate via a dense register scatter-max over the same
    ids — bit-identical to the sparse-partial merge (register max is
    indifferent to how updates are batched; property-tested).
    """
    import pandas as pd
    from bqf_ray.functions.hashing import fmix64
    from bqf_ray.sketches.hll import HyperLogLog, _register_updates

    m_regs = 1 << hll_p

    def pre(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column(ts_col)).astype(
            "datetime64[us]").astype(np.int64)
        ws = _window_start_us(ts, size_s)
        keys = np.asarray(batch.column(key_col)).astype("U")
        ids = np.asarray(batch.column(id_col)).astype(np.int64)
        kcodes, kuniq = pd.factorize(keys)
        # batch-local dedup of (window, key, id): only distinct triples
        # cross the exchange
        trip = np.stack([ws, kcodes.astype(np.int64), ids], axis=1)
        trip = np.unique(trip, axis=0)
        ws_u, kc_u, id_u = trip[:, 0], trip[:, 1], trip[:, 2]
        return pa.table({
            "window_start": pa.array(ws_u, pa.int64()),
            key_col: pa.array(kuniq[kc_u], pa.string()),
            id_col: pa.array(id_u, pa.int64())})

    def merge_bucket(group: pa.Table) -> pa.Table:
        ws = np.asarray(group.column("window_start"), dtype=np.int64)
        keys = np.asarray(group.column(key_col)).astype("U")
        ids = np.asarray(group.column(id_col), dtype=np.int64)
        kcodes, kuniq = pd.factorize(keys)
        wcodes, wuniq = pd.factorize(ws)
        packed = wcodes.astype(np.int64) * len(kuniq) + kcodes
        # global dedup within the bucket
        pair = np.stack([packed, ids], axis=1)
        pair = np.unique(pair, axis=0)
        gp, gid = pair[:, 0], pair[:, 1]
        ug, ginv = np.unique(gp, return_inverse=True)
        n_exact = np.bincount(ginv, minlength=len(ug)).astype(np.int64)
        ridx, rho = _register_updates(fmix64(gid.astype(np.uint64)), hll_p)
        # sparse max-merge + sparse estimate — same kernel as the
        # approximate path, so the two stay bit-identical
        comp = ginv * np.int64(m_regs) + ridx.astype(np.int64)
        order = np.lexsort((rho, comp))
        comp_s, rho_s = comp[order], rho[order].astype(np.int64)
        last = np.r_[comp_s[1:] != comp_s[:-1], True]
        est = HyperLogLog.estimate_sparse(comp_s[last] // m_regs,
                                          rho_s[last], len(ug), hll_p)
        return pa.table({
            "window_start": pa.array(
                wuniq[ug // len(kuniq)].astype("datetime64[us]")),
            key_col: pa.array(kuniq[ug % len(kuniq)], pa.string()),
            "n_distinct": pa.array(n_exact),
            "n_distinct_est": pa.array(est, pa.float64())})

    return exchange(ds.map_batches(pre, batch_format="pyarrow"),
                    merge_bucket, ["window_start", key_col], 16)


def session_windows(ds, gap_s: int = 1800, ts_col: str = "ts",
                    user_col: str = "user_id", value_col: str = "value",
                    num_buckets: int = 32):
    """Per-user session windows (gap-based): ONE shuffle on
    ``bucket_of(user_id)``, then a fully vectorized per-bucket pass — sort by
    (user, ts), gap/user-change breaks, cumsum session ids, run-length
    aggregation.  No python-per-group work (r1: pandas per-user groups).

    ``sum_value`` accumulates pre-rounded integer microunits
    (``floor(v*1e6 + 0.5)``) so the result is bit-identical to the SQL
    oracle regardless of summation order.  Output: (user_id,
    session_start, session_end, n_events, sum_value)."""
    gap_us = np.int64(gap_s) * 1_000_000

    def sessions_of_bucket(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column(user_col), dtype=np.int64)
        ts = np.asarray(group.column(ts_col)).astype("datetime64[us]") \
            .astype(np.int64)
        mv = np.floor(np.asarray(group.column(value_col)) * 1_000_000 + 0.5
                      ).astype(np.int64)
        order = np.lexsort((ts, u))
        u, ts, mv = u[order], ts[order], mv[order]
        new_sess = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            new_sess[1:] = (u[1:] != u[:-1]) | (ts[1:] - ts[:-1] > gap_us)
        starts = np.flatnonzero(new_sess)
        ends = np.concatenate([starts[1:], [len(u)]])
        lens = ends - starts
        sums = np.add.reduceat(mv, starts) if len(starts) else \
            np.empty(0, dtype=np.int64)
        return pa.table({
            user_col: pa.array(u[starts]),
            "session_start": pa.array(ts[starts].astype("datetime64[us]")),
            "session_end": pa.array(ts[ends - 1].astype("datetime64[us]")),
            "n_events": pa.array(lens.astype(np.int64)),
            "sum_value": pa.array(sums / 1_000_000.0, pa.float64()),
        })

    return exchange(ds, sessions_of_bucket, user_col, num_buckets)


# ---------------------------------------------------------------------------
# funnel analysis (ordered step chain within a window)
# ---------------------------------------------------------------------------

def funnel(ds, steps: list[str], within_s: int, ts_col: str = "ts",
           user_col: str = "user_id", type_col: str = "event_type",
           num_buckets: int = 32):
    """Users who performed ``steps`` IN ORDER (strictly increasing ts),
    with the whole chain finishing within ``within_s`` seconds of the
    first step.  Output: ``(user_id, first_start)`` — the earliest
    qualifying step-0 timestamp per user (ANY-chain semantics, i.e. the
    SQL ``EXISTS`` pair/chain query).

    Plan: filter to funnel events, bucket users (``bucket_of(user)``), ONE
    shuffle, then an entirely vectorized per-bucket chain search over
    ALL users at once:

    - events of each step are kept sorted by ``(user, ts)``;
    - for adjacent steps the "first same-user event strictly later than
      t" is found for every event in one merge-rank pass (lexsort of
      the concatenated arrays with a side tiebreak — queries sort after
      equal-ts keys, giving strict ``>``), no per-user loop;
    - chain end-times propagate backward through the steps (greedy
      earliest-next is optimal: if any chain from a step-0 event
      completes within the window, the greedy one completes no later),
      so a step-0 event qualifies iff its propagated end ≤ ts + W.
    """
    import pyarrow.compute as pc

    K = len(steps)
    assert K >= 2
    assert len(set(steps)) == K, \
        "funnel steps must be distinct (repeat-step funnels are not " \
        "supported; a duplicated name would silently match nothing)"
    W_US = np.int64(within_s) * np.int64(1_000_000)
    step_of = {s: i for i, s in enumerate(steps)}

    def bucket(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column(type_col),
                        value_set=pa.array(steps, pa.string()))
        b = batch.filter(mask)
        ts = np.asarray(b.column(ts_col)).astype("datetime64[us]"
                                                 ).astype(np.int64)
        uid = np.asarray(b.column(user_col), dtype=np.int64)
        st = np.asarray(b.column(type_col)).astype("U")
        sid = np.zeros(len(st), dtype=np.int8)
        for s, i in step_of.items():
            sid[st == s] = np.int8(i)
        return pa.table({
            "u": pa.array(uid), "t": pa.array(ts),
            "s": pa.array(sid, pa.int8())})

    def _first_later(uq, tq, uk, tk):
        """For each query (uq, tq): index into the (user, ts)-sorted key
        arrays of the first entry with same user and ts > tq; len(uk)
        if none (checked by caller via user match)."""
        n_k, n_q = len(uk), len(uq)
        side = np.concatenate([np.zeros(n_k, dtype=np.int8),
                               np.ones(n_q, dtype=np.int8)])
        uu = np.concatenate([uk, uq])
        tt = np.concatenate([tk, tq])
        order = np.lexsort((side, tt, uu))      # queries after equal ts
        n_before = np.cumsum(np.concatenate(
            [[0], (side[order] == 0).astype(np.int64)]))[:-1]
        pos = np.empty(n_k + n_q, dtype=np.int64)
        pos[order] = n_before
        return pos[n_k:]

    def chain_bucket(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), dtype=np.int64)
        t = np.asarray(group.column("t"), dtype=np.int64)
        s = np.asarray(group.column("s"), dtype=np.int8)
        order = np.lexsort((t, u))
        u, t, s = u[order], t[order], s[order]
        per = [(u[s == i], t[s == i]) for i in range(K)]
        INF = np.int64(2**62)
        end = per[K - 1][1].copy()              # last step: end = own ts
        for i in range(K - 2, -1, -1):
            uk, tk = per[i + 1]
            uq, tq = per[i]
            j = _first_later(uq, tq, uk, tk)
            ok = (j < len(uk))
            jj = np.minimum(j, max(len(uk) - 1, 0))
            ok &= (uk[jj] == uq) if len(uk) else False
            nxt = np.where(ok, end[jj] if len(uk) else INF, INF)
            end = nxt
        t0, u0 = per[0][1], per[0][0]
        hit = end <= t0 + W_US
        if not hit.any():
            return pa.table({user_col: pa.array([], pa.int64()),
                             "first_start": pa.array(
                                 [], pa.timestamp("us"))})
        uh, th = u0[hit], t0[hit]
        first = np.concatenate([[True], uh[1:] != uh[:-1]])  # (u,t) sorted
        return pa.table({
            user_col: pa.array(uh[first]),
            "first_start": pa.array(th[first].astype("datetime64[us]"))})

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"),
                    chain_bucket, "u", num_buckets)


def retention_cohorts(ds, bucket_s: int = 86400, ts_col: str = "ts",
                      user_col: str = "user_id", num_buckets: int = 32):
    """Cohort retention: users are cohorted by their FIRST active
    period (``bucket_s``-wide, epoch-aligned); output one row per
    ``(cohort, offset)`` with the number of cohort users active
    ``offset`` periods later.

    Plan: per-batch-distinct (user, period) pairs → one user-bucketed
    shuffle → per bucket, first-of-run gives each user's cohort and the
    (cohort, offset) partial counts — all vectorized — → a final TINY
    groupby over at most periods² rows."""
    from ray.data.aggregate import Sum

    B_US = np.int64(bucket_s) * np.int64(1_000_000)

    def pre(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column(ts_col)).astype("datetime64[us]"
                                                     ).astype(np.int64)
        w = (ts // B_US) * B_US
        uid = np.asarray(batch.column(user_col), dtype=np.int64)
        pair = np.unique(np.stack([uid, w], axis=1), axis=0)
        return pa.table({"u": pa.array(pair[:, 0]),
                         "w": pa.array(pair[:, 1])})

    def cohort_bucket(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), dtype=np.int64)
        w = np.asarray(group.column("w"), dtype=np.int64)
        if len(u) == 0:
            return pa.table({"cohort_i": pa.array([], pa.int64()),
                             "day_offset": pa.array([], pa.int64()),
                             "pn": pa.array([], pa.int64())})
        order = np.lexsort((w, u))
        u, w = u[order], w[order]
        # cross-batch duplicates of (u, w) collapse here
        keep = np.concatenate([[True], (u[1:] != u[:-1]) | (w[1:] != w[:-1])])
        u, w = u[keep], w[keep]
        first = np.concatenate([[True], u[1:] != u[:-1]])
        cohort = w[np.maximum.accumulate(np.where(first,
                                                  np.arange(len(u)), 0))]
        off = (w - cohort) // B_US
        key = np.stack([cohort, off], axis=1)
        uk, inv = np.unique(key, axis=0, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        return pa.table({
            "cohort_i": pa.array(uk[:, 0]),
            "day_offset": pa.array(uk[:, 1]),
            "pn": pa.array(n)})

    from bqf_ray.stages.partition import bucketed_agg
    agg = bucketed_agg(
        exchange(ds.map_batches(pre, batch_format="pyarrow"),
                 cohort_bucket, "u", num_buckets),
        ["cohort_i", "day_offset"], [("pn", "sum", "n_users")])

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        c = np.asarray(batch.column("cohort_i"), dtype=np.int64)
        return pa.table({
            "cohort": pa.array(c.astype("datetime64[us]")),
            "day_offset": pc.cast(batch.column("day_offset"), pa.int64()),
            "n_users": pc.cast(batch.column("n_users"), pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow")


def rolling_window_sum(ds, k: int, value_col: str = "value",
                       ts_col: str = "ts", key_col: str = "user_id",
                       id_col: str = "event_id", num_buckets: int = 32):
    """Per-row rolling aggregate: for every event, the sum and count of
    the last ``k`` rows (inclusive) of the same key, ordered by
    ``(ts, id)`` — SQL ``SUM(v) OVER (PARTITION BY key ORDER BY ts, id
    ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW)``.

    Values are int64 (exact sums; cents-encode floats upstream).  One
    key-bucketed shuffle; inside each bucket every key's frame sums come
    from ONE global cumsum with per-key window clamping (first-of-run
    start offsets propagated by maximum.accumulate) — no per-key loop.
    """
    KK = int(k)
    assert KK >= 1

    def roll_bucket(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), dtype=np.int64)
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        v = np.asarray(group.column("v"), dtype=np.int64)
        if len(u) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "roll_sum": pa.array([], pa.int64()),
                             "n_window": pa.array([], pa.int64())})
        order = np.lexsort((i, t, u))
        u, t, i, v = u[order], t[order], i[order], v[order]
        pos = np.arange(len(u), dtype=np.int64)
        first = np.concatenate([[True], u[1:] != u[:-1]])
        ustart = np.maximum.accumulate(np.where(first, pos, 0))
        lo = np.maximum(pos - (KK - 1), ustart)
        cs = np.concatenate([[0], np.cumsum(v)])
        return pa.table({
            id_col: pa.array(i),
            "roll_sum": pa.array(cs[pos + 1] - cs[lo]),
            "n_window": pa.array(pos + 1 - lo)})

    prep = _keyed_rows(key_col, ts_col, id_col, value_col)
    return exchange(ds.map_batches(prep, batch_format="pyarrow"),
                    roll_bucket, "u", num_buckets)


def lag_diff(ds, value_col: str = "ts", ts_col: str = "ts",
             key_col: str = "user_id", id_col: str = "event_id",
             num_buckets: int = 32, keep_key: bool = False):
    """Per-row LAG difference per key: for every event, ``value −
    previous value`` in ``(ts, id)`` order (SQL ``v − LAG(v) OVER
    (PARTITION BY key ORDER BY ts, id)``); null for each key's first
    row.  For ``value_col == ts_col`` this is the inter-event gap in
    microseconds.  Same one-bucket-shuffle shape as
    :func:`rolling_window_sum`; the diff is one vectorized subtraction
    with first-of-run masking."""
    def diff_bucket(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), dtype=np.int64)
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        v = np.asarray(group.column("v"), dtype=np.int64)
        if len(u) == 0:
            cols = {id_col: pa.array([], pa.int64()),
                    "lag_diff": pa.array([], pa.int64())}
            if keep_key:
                cols[key_col] = pa.array([], pa.int64())
            return pa.table(cols)
        order = np.lexsort((i, t, u))
        u, t, i, v = u[order], t[order], i[order], v[order]
        d = np.empty(len(v), dtype=np.int64)
        d[1:] = v[1:] - v[:-1]
        d[0] = 0
        first = np.concatenate([[True], u[1:] != u[:-1]])
        cols = {id_col: pa.array(i),
                "lag_diff": pa.array(d, mask=first)}  # first-of-key → null
        if keep_key:
            cols[key_col] = pa.array(u)
        return pa.table(cols)

    prep = _keyed_rows(key_col, ts_col, id_col, value_col)
    return exchange(ds.map_batches(prep, batch_format="pyarrow"),
                    diff_bucket, "u", num_buckets)


def grouped_row_numbers(ds, key_col: str = "user_id", ts_col: str = "ts",
                        id_col: str = "event_id", num_buckets: int = 32):
    """Per-key exact rank: ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY
    ts, id)`` for every row — the per-group companion to
    :func:`bqf_ray.pipelines.ranking.global_row_numbers`.  Same
    one-bucket-shuffle shape as :func:`lag_diff`; ranks come from one
    lexsort plus a first-of-run subtraction (no per-key loop)."""
    def rank_bucket(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), dtype=np.int64)
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        if len(u) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "rnk": pa.array([], pa.int64())})
        order = np.lexsort((i, t, u))
        us = u[order]
        pos = np.arange(len(us), dtype=np.int64)
        first = np.concatenate([[True], us[1:] != us[:-1]])
        run_start = pos[first]
        rnk = pos - np.repeat(run_start, np.diff(
            np.concatenate([run_start, [len(us)]]))) + 1
        return pa.table({id_col: pa.array(i[order]),
                         "rnk": pa.array(rnk)})

    prep = _keyed_rows(key_col, ts_col, id_col)
    return exchange(ds.map_batches(prep, batch_format="pyarrow"),
                    rank_bucket, "u", num_buckets)


def rolling_time_range_sum(ds, range_s: int, value_col: str = "value",
                           ts_col: str = "ts", key_col: str = "user_id",
                           id_col: str = "event_id",
                           num_buckets: int = 32):
    """Per-row TIME-RANGE rolling aggregate: for every event, the sum
    and count of same-key rows with ``ts in [ts_i - range, ts_i]`` —
    SQL ``SUM(v) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN
    INTERVAL range PRECEDING AND CURRENT ROW)``, INCLUDING the
    peer-row rule: a RANGE frame ends at the last row sharing the
    current row's timestamp, so ties contribute to each other in both
    directions.

    Values are int64 (exact sums; cents-encode floats upstream).  One
    key-bucketed shuffle; inside the bucket rows are lexsorted by
    (key, ts) and BOTH frame bounds come from structured-array
    ``searchsorted`` over that order — (key, ts-range) left for the
    start, (key, ts) right for the peer-inclusive end — then one
    global cumsum.  No per-key loop, no per-row loop."""
    R = int(range_s) * 1_000_000
    assert R >= 0

    def roll_bucket(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), dtype=np.int64)
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        v = np.asarray(group.column("v"), dtype=np.int64)
        if len(u) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "range_sum": pa.array([], pa.int64()),
                             "n_window": pa.array([], pa.int64())})
        order = np.lexsort((i, t, u))
        u, t, i, v = u[order], t[order], i[order], v[order]
        st = np.empty(len(u), dtype=[("u", "<i8"), ("t", "<i8")])
        st["u"], st["t"] = u, t
        qlo = np.empty(len(u), dtype=st.dtype)
        qlo["u"], qlo["t"] = u, t - R
        lo = np.searchsorted(st, qlo, side="left")
        hi = np.searchsorted(st, st, side="right")
        cs = np.concatenate([[0], np.cumsum(v)])
        return pa.table({
            id_col: pa.array(i),
            "range_sum": pa.array(cs[hi] - cs[lo]),
            "n_window": pa.array(hi - lo)})

    prep = _keyed_rows(key_col, ts_col, id_col, value_col)
    return exchange(ds.map_batches(prep, batch_format="pyarrow"),
                    roll_bucket, "u", num_buckets)


def lag_autocorr_components(ds, key_col: str = "event_type",
                            ts_col: str = "ts", id_col: str = "event_id",
                            value_col: str = "value", scale: int = 100,
                            bucket_width_s: int = 86400,
                            key_buckets: int = 64):
    """EXACT int64 component sums of the LAG-1 autocorrelation of
    ``value_col`` per ``key_col``, over the stream ordered by
    ``(ts, id)`` within each key: for every adjacent pair (prev=x,
    cur=y) emit ``(key, n_pairs, sx, sy, sxy, sxx, syy)`` — Pearson
    r of the lagged series derives downstream in float; the integer
    components keep the operator SQL-oracle-exact (the
    ``value_k_correlation`` pattern, applied to an ORDERED stream).

    An ordered per-key statistic normally needs a per-key global sort.
    Instead the pair stream is MERGEABLE: tag each row with its
    ``(key-hash, ts // width)`` cell, ONE int-key shuffle, and each
    cell computes its inner-pair partials plus its per-key FIRST/LAST
    boundary rows (vectorized run-length pass).  A second tiny
    exchange on the key merges cell partials in time order, adding the
    one boundary pair between consecutive non-empty cells — cell order
    IS stream order because equal timestamps share a cell.  Hot keys
    split across time cells instead of one group (the skew rule).

    Values scale to integers as ``floor(v * scale + 0.5)``; null
    values are excluded row-wise (mirror the oracle with ``WHERE v IS
    NOT NULL``).  Overflow envelope: ``n * (scale*vmax)^2 < 2^63``."""
    W = np.int64(bucket_width_s) * 1_000_000
    SC = float(scale)

    def tag(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col)
        keep = pc.is_valid(v)
        if pa.types.is_floating(v.type):
            keep = pc.and_(keep, pc.invert(pc.is_nan(pc.fill_null(v, 0.0))))
        batch = batch.filter(pc.and_(keep, pc.is_valid(
            batch.column(key_col))))
        ts = _us(batch.column(ts_col))
        mv = np.floor(np.asarray(batch.column(value_col),
                                 dtype=np.float64) * SC + 0.5
                      ).astype(np.int64)
        return pa.table({
            "k": batch.column(key_col),
            "t": pa.array(ts),
            "i": pa.array(np.asarray(batch.column(id_col),
                                     dtype=np.int64)),
            "v": pa.array(mv),
            "ct": pa.array(ts // W)})

    def cell_partial(g: pa.Table) -> pa.Table:
        k = g.column("k")
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        empty = {
            "k": k.slice(0, 0), "cell_t": pa.array([], pa.int64()),
            **{c: pa.array([], pa.int64())
               for c in ("n_pairs", "sx", "sy", "sxy", "sxx", "syy",
                         "first_v", "last_v")}}
        if not g.num_rows:
            return pa.table(empty)
        kc = np.unique(np.asarray(k), return_inverse=True)[1]
        t = np.asarray(g.column("t"), dtype=np.int64)
        i = np.asarray(g.column("i"), dtype=np.int64)
        v = np.asarray(g.column("v"), dtype=np.int64)
        ct = np.asarray(g.column("ct"), dtype=np.int64)
        order = np.lexsort((i, t, kc))
        kc, v, ct = kc[order], v[order], ct[order]
        n = len(kc)
        # one run per (key, time cell): t-order within a key is cell order
        new = np.r_[True, (kc[1:] != kc[:-1]) | (ct[1:] != ct[:-1])]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], n]
        # inner adjacent pairs: positions p, p+1 with same key
        x, y = v[:-1], v[1:]
        inner = ~new[1:]
        seg = np.cumsum(new) - 1  # key run id per row
        segp = seg[:-1]

        def rsum(a):
            s = np.zeros(len(starts), dtype=np.int64)
            np.add.at(s, segp[inner], a[inner])
            return s

        return pa.table({
            "k": k.take(pa.array(order[starts])),
            "cell_t": pa.array(ct[starts]),
            "n_pairs": pa.array(np.int64(ends - starts - 1)),
            "sx": pa.array(rsum(x)), "sy": pa.array(rsum(y)),
            "sxy": pa.array(rsum(x * y)),
            "sxx": pa.array(rsum(x * x)), "syy": pa.array(rsum(y * y)),
            "first_v": pa.array(v[starts]),
            "last_v": pa.array(v[ends - 1])})

    def key_merge(g: pa.Table) -> pa.Table:
        k = g.column("k")
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        empty = {key_col: k.slice(0, 0),
                 **{c: pa.array([], pa.int64())
                    for c in ("n_pairs", "sx", "sy", "sxy",
                              "sxx", "syy")}}
        if not g.num_rows:
            return pa.table(empty)
        kc = np.unique(np.asarray(k), return_inverse=True)[1]
        ct = np.asarray(g.column("cell_t"), dtype=np.int64)
        order = np.lexsort((ct, kc))
        g2 = g.take(pa.array(order))
        kc, ct = kc[order], ct[order]
        cols = {c: np.asarray(g2.column(c), dtype=np.int64)
                for c in ("n_pairs", "sx", "sy", "sxy", "sxx", "syy",
                          "first_v", "last_v")}
        n = len(kc)
        new = np.r_[True, kc[1:] != kc[:-1]]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        # boundary pairs between consecutive cells of the same key
        bx = cols["last_v"][:-1]
        by = cols["first_v"][1:]
        bmask = ~new[1:]
        segp = seg[:-1]

        def fold(name):
            s = np.zeros(len(starts), dtype=np.int64)
            np.add.at(s, seg, cols[name])
            return s

        def bsum(a):
            s = np.zeros(len(starts), dtype=np.int64)
            np.add.at(s, segp[bmask], a[bmask])
            return s

        nb = np.zeros(len(starts), dtype=np.int64)
        np.add.at(nb, segp[bmask], 1)
        return pa.table({
            key_col: k.take(pa.array(order[starts])),
            "n_pairs": pa.array(fold("n_pairs") + nb),
            "sx": pa.array(fold("sx") + bsum(bx)),
            "sy": pa.array(fold("sy") + bsum(by)),
            "sxy": pa.array(fold("sxy") + bsum(bx * by)),
            "sxx": pa.array(fold("sxx") + bsum(bx * bx)),
            "syy": pa.array(fold("syy") + bsum(by * by))})

    return (exchange(ds.map_batches(tag, batch_format="pyarrow"),
                     cell_partial, ["k", "ct"], key_buckets)
            .groupby("k").map_groups(key_merge, batch_format="pyarrow"))


def scd2_intervals(ds, key_col: str, ts_col: str, id_col: str,
                   num_buckets: int = 32):
    """Slowly-changing-dimension TYPE-2 validity intervals over a
    change log: each change row gets ``valid_from = ts`` and
    ``valid_to = LEAD(ts)`` within its key's ``(ts, id)`` order (NULL
    for the current version) — the history-table materialization that
    pairs with :func:`bqf_ray.pipelines.relational.merge_changes`'
    latest-state MERGE.  Same one-key-bucket-shuffle shape as
    :func:`lag_diff`: lexsort + one shifted gather, no per-key loop.
    Output: ``(id_col, key_col, valid_from, valid_to)``."""
    def intervals(group: pa.Table) -> pa.Table:
        k = np.asarray(group.column("u"), dtype=np.int64)
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        if not len(k):
            return pa.table({
                id_col: pa.array([], pa.int64()),
                key_col: pa.array([], pa.int64()),
                "valid_from": pa.array([], pa.timestamp("us")),
                "valid_to": pa.array([], pa.timestamp("us"))})
        order = np.lexsort((i, t, k))
        ks, ts_, is_ = k[order], t[order], i[order]
        nxt = np.empty(len(ts_), dtype=np.int64)
        nxt[:-1] = ts_[1:]
        nxt[-1] = 0
        last = np.ones(len(ks), dtype=bool)
        last[:-1] = ks[1:] != ks[:-1]
        vto = pa.array(nxt.astype("datetime64[us]"), pa.timestamp("us"),
                       mask=last)
        return pa.table({id_col: pa.array(is_), key_col: pa.array(ks),
                         "valid_from": pa.array(
                             ts_.astype("datetime64[us]")),
                         "valid_to": vto})

    prep = _keyed_rows(key_col, ts_col, id_col)
    return exchange(ds.map_batches(prep, batch_format="pyarrow"),
                    intervals, "u", num_buckets)


def rolling_median(ds, key_col: str, ts_col: str, id_col: str,
                   value_col: str, window: int = 7,
                   num_buckets: int = 32):
    """Per-row rolling LOWER MEDIAN over the trailing ``window`` rows
    per key in ``(ts, id)`` order (SQL ``quantile_disc(v, 0.5) OVER
    (... ROWS BETWEEN w−1 PRECEDING AND CURRENT ROW)``, expanding
    frames at each key's start) — the robust smoother for spiky
    metrics.  One key-bucket shuffle; in-bucket the whole bucket's
    frames sort as ONE (n, w) strided matrix (runs padded with +inf so
    windows never cross keys; pads sort last and the frame's m valid
    values stay a prefix), then a vectorized per-row selection at
    ``ceil(m/2)−1``.  Cost n·w·log w per bucket, no per-key loop.
    Output: ``(id_col, med)``; null/NaN values excluded row-wise."""
    W = int(window)
    if W < 1:
        raise ValueError("window must be >= 1")

    def bucket(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col)
        keep = pc.is_valid(v)
        if pa.types.is_floating(v.type):
            keep = pc.and_(keep, pc.invert(pc.is_nan(pc.fill_null(
                v, 0.0))))
        batch = batch.filter(pc.and_(keep, pc.is_valid(
            batch.column(key_col))))
        return pa.table({
            "k": batch.column(key_col), "t": pa.array(_us(
                batch.column(ts_col))),
            "i": pc.cast(batch.column(id_col), pa.int64()),
            "v": pc.cast(batch.column(value_col), pa.float64())})

    def med_bucket(g: pa.Table) -> pa.Table:
        if not g.num_rows:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "med": pa.array([], pa.float64())})
        kcol = g.column("k")
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        kc = np.unique(np.asarray(kcol), return_inverse=True)[1]
        t = np.asarray(g.column("t"), dtype=np.int64)
        i = np.asarray(g.column("i"), dtype=np.int64)
        v = np.asarray(g.column("v"), dtype=np.float64)
        order = np.lexsort((i, t, kc))
        kc, i, v = kc[order], i[order], v[order]
        n = len(kc)
        new = np.r_[True, kc[1:] != kc[:-1]]
        run_id = np.cumsum(new) - 1
        run_start = np.maximum.accumulate(
            np.where(new, np.arange(n), 0))
        pos_in_run = np.arange(n) - run_start
        # padded layout: every run prefixed by W-1 +inf pads
        pad = W - 1
        ppos = np.arange(n) + (run_id + 1) * pad
        L = n + (int(run_id[-1]) + 1) * pad
        padded = np.full(L, np.inf)
        padded[ppos] = v
        from numpy.lib.stride_tricks import sliding_window_view
        wins = np.sort(sliding_window_view(padded, W)[ppos - pad],
                       axis=1)
        m = np.minimum(pos_in_run + 1, W)
        sel = np.ceil(0.5 * m).astype(np.int64) - 1
        return pa.table({id_col: pa.array(i),
                         "med": pa.array(
                             wins[np.arange(n), sel])})

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"),
                    med_bucket, "k", num_buckets)


def activity_islands(ds, key_col: str = "user_id", ts_col: str = "ts",
                     granularity_s: int = 86400,
                     num_buckets: int = 32):
    """Gaps-and-islands per key: bucket timestamps to
    ``granularity_s`` periods, dedupe, and measure the runs of
    CONSECUTIVE active periods — ``(key, n_periods, n_islands,
    max_run)`` — the retention/streak statistic (longest daily-active
    streak, consecutive-failure runs) that SQL solves with the
    ROW_NUMBER-difference trick.  One key-bucket shuffle; in-bucket:
    lexsort, distinct (key, period) via run boundaries, island breaks
    where the key changes or the period step exceeds 1, then contiguous per-key reduceat folds.  No
    per-key loop.  Period = floor division of the epoch (negative
    timestamps floor toward -inf, matching date_trunc)."""
    G = np.int64(granularity_s) * 1_000_000

    def bucket(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column(key_col), dtype=np.int64)
        return pa.table({"k": pa.array(k),
                         "p": pa.array(_us(batch.column(ts_col)) // G)})

    def islands(g: pa.Table) -> pa.Table:
        if not g.num_rows:
            z = pa.array([], pa.int64())
            return pa.table({key_col: z, "n_periods": z,
                             "n_islands": z, "max_run": z})
        k = np.asarray(g.column("k"), dtype=np.int64)
        p = np.asarray(g.column("p"), dtype=np.int64)
        order = np.lexsort((p, k))
        k, p = k[order], p[order]
        keep = np.r_[True, (k[1:] != k[:-1]) | (p[1:] != p[:-1])]
        k, p = k[keep], p[keep]
        n = len(k)
        new_key = np.r_[True, k[1:] != k[:-1]]
        new_island = new_key | np.r_[True, (p[1:] - p[:-1]) != 1]
        isl_start = np.flatnonzero(new_island)
        isl_len = np.diff(np.append(isl_start, n))
        key_start = np.flatnonzero(new_key)
        # islands are laid out key-sorted, so per-key folds are
        # contiguous reduceat segments — no scatter (np.ufunc.at)
        key_of_isl = np.searchsorted(key_start, isl_start,
                                     side="right") - 1
        isl_key_start = np.flatnonzero(
            np.r_[True, key_of_isl[1:] != key_of_isl[:-1]])
        n_islands = np.diff(np.append(isl_key_start, len(isl_start)))
        n_periods = np.add.reduceat(isl_len, isl_key_start)
        max_run = np.maximum.reduceat(isl_len, isl_key_start)
        return pa.table({key_col: pa.array(k[key_start]),
                         "n_periods": pa.array(n_periods),
                         "n_islands": pa.array(n_islands),
                         "max_run": pa.array(max_run)})

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"),
                    islands, "k", num_buckets)


def grouped_first_last(ds, key_col: str, order_cols: list[str],
                       val_col: str, num_buckets: int = 32):
    """``FIRST_VALUE`` / ``NTH_VALUE(2)`` / ``LAST_VALUE`` of
    ``val_col`` per key over the whole partition ordered by
    ``order_cols`` (which must be unique per key — the SQL determinism
    requirement), plus the partition row count ``n``.

    This is an ARGMIN/ARGMAX-style aggregate, so it rides per-block
    partials instead of shuffling every row (contrast
    :func:`grouped_row_numbers`, which must rank all rows): each block
    keeps ≤3 rows per key — the 2 order-smallest and the
    order-largest; any global extreme is a block extreme — with the
    block's per-key row count riding on the first kept row.  ONE
    key-hash-bucketed exchange of those partials feeds an exact
    in-bucket selection.  Rows with a NULL key or a NULL in any order
    column are excluded.

    Output: ``(key, n, first_val, second_val, last_val)`` with
    ``second_val`` NULL for single-row keys.
    """
    def _sorted(tbl: pa.Table):
        """(sorted table, run starts, run lens) by key then order."""
        arrs = []
        for c in reversed(order_cols):
            a = tbl.column(c)
            if pa.types.is_timestamp(a.type):
                arrs.append(np.asarray(a).astype("datetime64[us]")
                            .astype(np.int64))
            else:
                arrs.append(np.asarray(a))
        k = tbl.column(key_col)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        codes = np.asarray(k.dictionary_encode().indices)
        order = np.lexsort((*arrs, codes))
        st = tbl.take(pa.array(order))
        ks = codes[order]
        new = np.concatenate([[True], ks[1:] != ks[:-1]])
        starts = np.flatnonzero(new)
        lens = np.diff(np.concatenate([starts, [len(ks)]]))
        return st, starts, lens

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.is_valid(batch.column(key_col))
        for c in order_cols:
            mask = pc.and_(mask, pc.is_valid(batch.column(c)))
        batch = batch.select([key_col, *order_cols, val_col]).filter(mask)
        if batch.num_rows == 0:
            return batch.append_column("__pc", pa.array([], pa.int64()))
        st, starts, lens = _sorted(batch)
        n = st.num_rows
        cnt = np.zeros(n, dtype=np.int64)
        cnt[starts] = lens
        sel = np.unique(np.concatenate([
            starts,
            (starts + 1)[lens >= 2],
            (starts + lens - 1)[lens >= 2]]))
        return st.take(pa.array(sel)).append_column(
            "__pc", pa.array(cnt[sel]))

    def finish(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            kt = group.schema.field(key_col).type
            vt = group.schema.field(val_col).type
            return pa.table({key_col: pa.array([], kt),
                             "n": pa.array([], pa.int64()),
                             "first_val": pa.array([], vt),
                             "second_val": pa.array([], vt),
                             "last_val": pa.array([], vt)})
        st, starts, lens = _sorted(group)
        vals = st.column(val_col)
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        pcnt = np.asarray(st.column("__pc"), dtype=np.int64)
        n = np.add.reduceat(pcnt, starts)
        first = vals.take(pa.array(starts))
        last = vals.take(pa.array(starts + lens - 1))
        has2 = lens >= 2
        sec = vals.take(pa.array(np.where(has2, starts + 1, starts)))
        sec = pc.if_else(pa.array(has2), sec,
                         pa.scalar(None, vals.type))
        keys = st.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        return pa.table({key_col: keys.take(pa.array(starts)),
                         "n": pa.array(n),
                         "first_val": first,
                         "second_val": sec,
                         "last_val": last})

    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    finish, key_col, num_buckets)


def new_keys_daily(ds, key_col: str = "user_id", ts_col: str = "ts",
                   bucket_s: int = 86400):
    """Cumulative-adoption curve: per day, how many keys were seen for
    the FIRST time, plus the running total — the distinct-growth view
    every crawl/user corpus tracks.

    Three key-count-DECREASING stages: (1) exact ``min(ts)`` per key
    (one bucketed exchange — the only corpus-sized step), (2) per-day
    first-seen counts (map-side-combined exchange over a
    day-cardinality key space), (3) the running sum over the tiny
    day table in ONE block (years of days = thousands of rows —
    repartition(1) is the right plan there, not a window shuffle).
    Day flooring uses floor division of epoch-µs (exact date_trunc
    'day' semantics incl. pre-epoch timestamps).  NULL key/ts rows
    are excluded.  Output: ``(day, new_keys, cum_keys)``."""
    import pyarrow.compute as pc

    from bqf_ray.stages.partition import bucketed_agg

    US = int(bucket_s) * 1_000_000

    def drop_nulls(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(batch.column(key_col)),
                    pc.is_valid(batch.column(ts_col)))
        return batch.select([key_col, ts_col]).filter(m)

    first = bucketed_agg(ds.map_batches(drop_nulls,
                                        batch_format="pyarrow"),
                         [key_col], [(ts_col, "min", "first_ts")])

    def to_day(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch.column("first_ts")).astype(
            "datetime64[us]").astype(np.int64)
        day = np.floor_divide(us, US) * US
        return pa.table({"day": pa.array(day.astype("datetime64[us]")),
                         "n": pa.array(np.ones(len(day),
                                                dtype=np.int64))})

    counts = bucketed_agg(first.map_batches(to_day,
                                            batch_format="pyarrow"),
                          ["day"], [("n", "sum", "new_keys")],
                          combine_local=True)

    def running(batch: pa.Table) -> pa.Table:
        day = np.asarray(batch.column("day")).astype("datetime64[us]")
        new = np.asarray(batch.column("new_keys"), dtype=np.int64)
        order = np.argsort(day.astype(np.int64))
        return pa.table({"day": pa.array(day[order]),
                         "new_keys": pa.array(new[order]),
                         "cum_keys": pa.array(np.cumsum(new[order]))})

    return counts.repartition(1).map_batches(running,
                                             batch_format="pyarrow",
                                             batch_size=None)


def interval_coalesce(ds, key_col: str, lo_col: str, hi_col: str,
                      num_buckets: int = 32):
    """Merge overlapping-or-touching ``[lo, hi]`` intervals per key
    into maximal covered spans (the interval form of gaps-and-islands;
    :func:`activity_islands` is the discrete-period cousin).  Touching
    counts as overlap (``lo == prev_max_hi`` merges), matching the SQL
    islands idiom ``brk = lo > MAX(hi) OVER (... 1 PRECEDING)``.

    Plan: ONE key-bucket shuffle of ±1 sweep events (+1 at ``lo``, −1
    at ``hi``, opens sort before closes at equal positions so touching
    spans stay connected); in-bucket a single lexsort + grouped
    CUMSUM (vectorizable with a per-key offset subtraction, unlike the
    grouped cummax the naive islands plan needs) marks span starts
    where coverage rises 0→1 and ends where it returns to 0.  No
    per-key loop.  Output ``(key_col, span_start, span_end, n)`` with
    ``n`` = intervals merged into the span.
    """
    def bucket(batch: pa.Table) -> pa.Table:
        lo = batch.column(lo_col)
        hi = batch.column(hi_col)
        if lo.null_count or hi.null_count or \
                batch.column(key_col).null_count:
            raise ValueError("interval_coalesce: null key/lo/hi row")
        ts_type = pa.types.is_timestamp(lo.type)
        lo_i = np.asarray(lo).astype("datetime64[us]").astype(np.int64) \
            if ts_type else np.asarray(lo, dtype=np.int64)
        hi_i = np.asarray(hi).astype("datetime64[us]").astype(np.int64) \
            if ts_type else np.asarray(hi, dtype=np.int64)
        if np.any(hi_i < lo_i):
            raise ValueError("interval_coalesce: hi < lo row")
        k = np.asarray(batch.column(key_col), dtype=np.int64)
        kk = np.concatenate([k, k])
        pos = np.concatenate([lo_i, hi_i])
        typ = np.concatenate([np.zeros(len(k), dtype=np.int64),
                              np.ones(len(k), dtype=np.int64)])
        return pa.table({"k": pa.array(kk), "pos": pa.array(pos),
                         "typ": pa.array(typ), "__ts": pa.array(
                             np.full(len(kk), int(ts_type),
                                     dtype=np.int64))})

    def sweep(group: pa.Table) -> pa.Table:
        k = np.asarray(group.column("k"), dtype=np.int64)
        ts_out = bool(len(k)) and bool(group.column("__ts")[0].as_py())
        if not len(k):
            empty_pos = (pa.array([], pa.timestamp("us")))
            return pa.table({key_col: pa.array([], pa.int64()),
                             "span_start": empty_pos,
                             "span_end": pa.array([], pa.timestamp("us")),
                             "n": pa.array([], pa.int64())})
        pos = np.asarray(group.column("pos"), dtype=np.int64)
        typ = np.asarray(group.column("typ"), dtype=np.int64)
        order = np.lexsort((typ, pos, k))
        ks, ps, ty = k[order], pos[order], typ[order]
        delta = 1 - 2 * ty                       # +1 open, -1 close
        cs = np.cumsum(delta)
        first = np.ones(len(ks), dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        # per-key offset: coverage = global cumsum − cumsum at the
        # previous key's last element (coverage closes to 0 per key,
        # so the offset equals cs just before each key start)
        start_idx = np.flatnonzero(first)
        base = np.where(start_idx > 0, cs[start_idx - 1], 0)
        counts = np.diff(np.append(start_idx, len(ks)))
        cov = cs - np.repeat(base, counts)
        is_start = (ty == 0) & (cov == 1)
        is_end = (ty == 1) & (cov == 0)
        si = np.flatnonzero(is_start)
        ei = np.flatnonzero(is_end)
        opens = np.cumsum(ty == 0)
        n = opens[ei] - opens[si] + 1
        if ts_out:
            sa = pa.array(ps[si].astype("datetime64[us]"),
                          pa.timestamp("us"))
            ea = pa.array(ps[ei].astype("datetime64[us]"),
                          pa.timestamp("us"))
        else:
            sa, ea = pa.array(ps[si]), pa.array(ps[ei])
        return pa.table({key_col: pa.array(ks[si]), "span_start": sa,
                         "span_end": ea, "n": pa.array(n)})

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"),
                    sweep, "k", num_buckets)


def time_weighted_avg(ds, key_col: str, ts_col: str, id_col: str,
                      value_col: str, scale: int = 100,
                      num_buckets: int = 32):
    """Time-weighted average per key (TWAP): each value HOLDS until the
    key's next event, ``num = Σ vᵢ·(tᵢ₊₁−tᵢ)`` (int64-exact in scaled
    units × microseconds), ``den = t_last − t_first``,
    ``twa = num/den`` — one IEEE division over exact integers, so the
    double bit-matches the SQL LEAD replay (an order-dependent float
    accumulation would not).  Values quantize by the repo cents rule
    ``floor(v·scale + 0.5)``; null values contribute 0 to ``num`` but
    still advance the clock (SQL's SUM skips the NULL product);
    single-event keys emit ``den = 0`` and NULL ``twa``.

    Plan: the :func:`lag_diff` shape — ONE key-bucket shuffle, in-bucket
    lexsort + shifted gather + ``np.add.reduceat`` per-key folds, no
    per-key loop.  A float shadow of ``num`` raises loudly past the
    2^62 exact envelope.  Output ``(key_col, num, den, twa)``.
    """
    def bucket(batch: pa.Table) -> pa.Table:
        if batch.column(ts_col).null_count or \
                batch.column(key_col).null_count:
            raise ValueError("time_weighted_avg: null key/ts row")
        v = np.asarray(pc.fill_null(pc.cast(batch.column(value_col),
                                            pa.float64()), 0.0))
        vc = np.floor(v * scale + 0.5).astype(np.int64)
        return _keyed_rows(key_col, ts_col, id_col)(batch).append_column(
            "vc", pa.array(vc))

    def twap(group: pa.Table) -> pa.Table:
        k = np.asarray(group.column("u"), dtype=np.int64)
        if not len(k):
            return pa.table({key_col: pa.array([], pa.int64()),
                             "num": pa.array([], pa.int64()),
                             "den": pa.array([], pa.int64()),
                             "twa": pa.array([], pa.float64())})
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        vc = np.asarray(group.column("vc"), dtype=np.int64)
        order = np.lexsort((i, t, k))
        ks, ts_, vs = k[order], t[order], vc[order]
        last = np.ones(len(ks), dtype=bool)
        last[:-1] = ks[1:] != ks[:-1]
        dt = np.zeros(len(ks), dtype=np.int64)
        dt[:-1] = ts_[1:] - ts_[:-1]
        dt[last] = 0
        contrib = vs * dt
        starts = np.flatnonzero(np.concatenate((
            [True], ks[1:] != ks[:-1])))
        num = np.add.reduceat(contrib, starts)
        shadow = np.add.reduceat(contrib.astype(np.float64), starts)
        if len(shadow) and np.abs(shadow).max() >= float(2 ** 62):
            raise OverflowError(
                "time_weighted_avg: Σ v·Δt exceeds the int64 exact "
                "envelope (2^62); lower scale")
        ends = np.append(starts[1:], len(ks)) - 1
        den = ts_[ends] - ts_[starts]
        with np.errstate(invalid="ignore", divide="ignore"):
            twa = np.where(den > 0,
                           num.astype(np.float64) / den.astype(np.float64),
                           np.nan)
        return pa.table({key_col: pa.array(ks[starts]),
                         "num": pa.array(num), "den": pa.array(den),
                         "twa": pa.array(twa, pa.float64(),
                                         mask=~(den > 0))})

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"),
                    twap, "u", num_buckets)


def last_touch_attribution(ds, key_col: str, ts_col: str, id_col: str,
                           type_col: str, conversion_type: str,
                           touch_types: list[str],
                           window_us: int | None = None,
                           num_buckets: int = 32):
    """Last-touch attribution: for every *conversion* event, the most
    recent *touch* event by the same key with ``touch.ts`` STRICTLY
    before ``conv.ts`` (and, when ``window_us`` is set, within the
    lookback window ``touch.ts >= conv.ts − window_us``); ties on equal
    touch ``ts`` break to the larger ``id_col``, matching the SQL
    ``ORDER BY t.ts DESC, t.id DESC ... rn = 1`` replay.  Conversions
    with no eligible touch emit NULL touch columns (LEFT semantics).

    Plan: rows not in ``{conversion_type} ∪ touch_types`` drop at the
    read map (column/row prune), then ONE key-bucket shuffle; in-bucket
    a lexsort on ``(key, ts, role, id)`` — role orders touches AFTER
    conversions at equal ts so a strict-< scan falls out of a single
    ``np.maximum.accumulate`` over touch positions, validated against
    per-key segment starts (no per-key loop, no self-join blow-up).
    Output ``(conversion_id, key_col, conv_ts, touch_id, touch_type,
    touch_ts)`` with nullable touch columns.
    """
    touch_set = list(dict.fromkeys(touch_types))
    if conversion_type in touch_set:
        raise ValueError("last_touch_attribution: conversion_type must "
                         "not be a touch type")

    def bucket(batch: pa.Table) -> pa.Table:
        typ = batch.column(type_col)
        is_conv = pc.equal(typ, conversion_type)
        is_touch = pc.is_in(typ, value_set=pa.array(touch_set))
        keep = pc.fill_null(pc.or_(is_conv, is_touch), False)
        sub = batch.filter(keep)
        if sub.column(key_col).null_count or \
                sub.column(ts_col).null_count:
            raise ValueError("last_touch_attribution: null key/ts row")
        k = np.asarray(sub.column(key_col), dtype=np.int64)
        role = np.asarray(pc.fill_null(pc.is_in(
            sub.column(type_col), value_set=pa.array(touch_set)),
            False)).astype(np.int64)          # 0 conversion, 1 touch
        return pa.table({
            "k": pa.array(k),
            "t": pa.array(np.asarray(sub.column(ts_col)).astype(
                "datetime64[us]").astype(np.int64)),
            "i": pc.cast(sub.column(id_col), pa.int64()),
            "role": pa.array(role),
            "typ": sub.column(type_col)})

    def attribute(group: pa.Table) -> pa.Table:
        k = np.asarray(group.column("k"), dtype=np.int64)
        if not len(k):
            return pa.table({
                "conversion_id": pa.array([], pa.int64()),
                key_col: pa.array([], pa.int64()),
                "conv_ts": pa.array([], pa.timestamp("us")),
                "touch_id": pa.array([], pa.int64()),
                "touch_type": pa.array([], pa.string()),
                "touch_ts": pa.array([], pa.timestamp("us"))})
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        role = np.asarray(group.column("role"), dtype=np.int64)
        order = np.lexsort((i, role, t, k))
        ks, ts_, is_, rs = k[order], t[order], i[order], role[order]
        n = len(ks)
        pos = np.arange(n, dtype=np.int64)
        touch = rs == 1
        last_touch = np.maximum.accumulate(np.where(touch, pos, -1))
        first = np.ones(n, dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        start_idx = np.flatnonzero(first)
        counts = np.diff(np.append(start_idx, n))
        seg_start = np.repeat(start_idx, counts)
        conv_pos = np.flatnonzero(~touch)
        att = last_touch[conv_pos]
        ok = att >= seg_start[conv_pos]
        safe = np.where(ok, att, 0)
        if window_us is not None:
            ok &= ts_[safe] >= ts_[conv_pos] - np.int64(window_us)
            safe = np.where(ok, att, 0)
        # gather touch columns; invalid rows -> null via masked arrays
        # (typ is in pre-sort order, so sorted position p reads
        # typ[order[p]])
        touch_id = pa.array(is_[safe], pa.int64(), mask=~ok)
        touch_ts = pa.array(ts_[safe].astype("datetime64[us]"),
                            pa.timestamp("us"), mask=~ok)
        touch_type = pc.if_else(
            pa.array(ok),
            pc.take(group.column("typ"), pa.array(order[safe])),
            pa.scalar(None, pa.string()))
        return pa.table({
            "conversion_id": pa.array(is_[conv_pos]),
            key_col: pa.array(ks[conv_pos]),
            "conv_ts": pa.array(ts_[conv_pos].astype("datetime64[us]"),
                                pa.timestamp("us")),
            "touch_id": touch_id,
            "touch_type": touch_type,
            "touch_ts": touch_ts})

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"),
                    attribute, "k", num_buckets)


def watermark_scan(ds, order_col: str, ts_col: str, lateness_us: int,
                   cell_bits: int = 20, num_buckets: int = 64):
    """Out-of-order / late-data detection over an arrival stream: for
    each row, ``watermark`` = MAX(``ts_col``) over all rows STRICTLY
    earlier in ``order_col`` (the streaming watermark at that row's
    arrival) and ``is_late`` = watermark known AND ``ts < watermark −
    lateness_us`` — SQL ``MAX(ts) OVER (ORDER BY order ROWS BETWEEN
    UNBOUNDED PRECEDING AND 1 PRECEDING)``.

    A GLOBAL ordered prefix aggregate with NO global sort — the
    two-pass distributed scan.  Pass 1 folds per-CELL maxima (cell =
    ``order >> cell_bits``, monotone in order) through one tiny
    map-side-combined exchange; the driver takes an exclusive
    prefix-max over the sorted cell table (cells ≪ rows — the driver
    envelope, like pagerank's node vector; widen ``cell_bits`` if the
    cell table outgrows it) and broadcasts it.  Pass 2 buckets rows by
    ``bucket_of(cell)`` (whole cells co-located), sorts each bucket once by
    (cell, order), and stitches ``max(cell-exclusive prefix, strict
    in-cell running max)``; the in-cell pass loops over CELLS in the
    bucket (≈ cells/B iterations), never over rows.  The first row
    overall gets a NULL watermark.

    ``order_col`` values must be UNIQUE int64 — ties make the strict
    prefix nondeterministic, so duplicates raise loudly (equal values
    always share a cell, hence a bucket: detection is complete).
    Output: ``(order_col, ts_col, watermark, is_late)``.
    """
    import ray

    from bqf_ray.stages.partition import bucketed_agg

    B = int(num_buckets)
    CB = int(cell_bits)
    NEG = np.int64(np.iinfo(np.int64).min)

    def cell_partials(batch: pa.Table) -> pa.Table:
        o = np.asarray(batch.column(order_col), dtype=np.int64)
        t = np.asarray(batch.column(ts_col)).astype("datetime64[us]"
                                                    ).astype(np.int64)
        cells = o >> CB
        uc, inv = np.unique(cells, return_inverse=True)
        mx = np.full(len(uc), NEG, dtype=np.int64)
        np.maximum.at(mx, inv, t)
        return pa.table({"cell": pa.array(uc), "mx": pa.array(mx)})

    cm = bucketed_agg(ds.map_batches(cell_partials, batch_format="pyarrow"),
                      ["cell"], [("mx", "max", "mx")],
                      num_buckets=B).to_pandas()
    order_c = np.argsort(cm["cell"].to_numpy().astype(np.int64))
    cells_sorted = cm["cell"].to_numpy().astype(np.int64)[order_c]
    mx_sorted = cm["mx"].to_numpy().astype(np.int64)[order_c]
    excl = (np.concatenate([[NEG],
                            np.maximum.accumulate(mx_sorted)[:-1]])
            if len(mx_sorted) else np.empty(0, dtype=np.int64))
    ref = ray.put((cells_sorted, excl))

    late = np.int64(lateness_us)

    def tag(batch: pa.Table) -> pa.Table:
        o = np.asarray(batch.column(order_col), dtype=np.int64)
        t = np.asarray(batch.column(ts_col)).astype("datetime64[us]"
                                                    ).astype(np.int64)
        return pa.table({"o": pa.array(o), "t": pa.array(t),
                         "cell": pa.array(o >> CB)})

    def stitch(g: pa.Table) -> pa.Table:
        cs, es = ray.get(ref)  # zero-copy plasma read
        o = np.asarray(g.column("o"), dtype=np.int64)
        t = np.asarray(g.column("t"), dtype=np.int64)
        c = np.asarray(g.column("cell"), dtype=np.int64)
        order = np.lexsort((o, c))
        o, t, c = o[order], t[order], c[order]
        if len(o) > 1 and (o[1:] == o[:-1]).any():
            raise ValueError(
                f"watermark_scan: duplicate {order_col} values — the "
                "strict-prefix watermark is undefined under ties")
        strict = np.full(len(t), NEG, dtype=np.int64)
        starts = np.concatenate([[True], c[1:] != c[:-1]]) \
            if len(c) else np.empty(0, dtype=bool)
        seg_off = np.flatnonzero(starts)
        seg_end = np.append(seg_off[1:], len(t))
        for s, e in zip(seg_off.tolist(), seg_end.tolist()):
            if e - s > 1:
                strict[s + 1:e] = np.maximum.accumulate(t[s:e - 1])
        base = es[np.searchsorted(cs, c)] if len(c) else \
            np.empty(0, dtype=np.int64)
        wm = np.maximum(base, strict)
        known = wm != NEG
        # avoid NEG - late wraparound on unknown rows
        is_late = known & (t < np.where(known, wm, t) - late)
        return pa.table({
            order_col: pa.array(o),
            ts_col: pa.array(t.astype("datetime64[us]"),
                             pa.timestamp("us")),
            "watermark": pa.array(wm.astype("datetime64[us]"),
                                  pa.timestamp("us"), mask=~known),
            "is_late": pa.array(is_late)})

    return exchange(ds.map_batches(tag, batch_format="pyarrow"),
                    stitch, "cell", B)


def resample_locf(ds, step_s: int, value_col: str = "value",
                  ts_col: str = "ts", key_col: str = "user_id",
                  id_col: str = "event_id", num_buckets: int = 32):
    """Per-key time-grid resample with last-observation-carried-forward
    — the feature-pipeline regularizer: for every epoch-aligned grid
    point ``g`` (multiples of ``step_s``) with ``first_obs ≤ g ≤
    last_obs`` within the key, emit the value of the key's last
    observation at or before ``g`` (ties on equal ts resolve to the
    max ``id`` — deterministic).

    Plan: ONE key-bucket shuffle; inside the bucket the per-key grids
    are GENERATED vectorized (repeat + arange offset arithmetic from
    per-segment min/max — no per-key loop), merged with the events by
    one lexsort ``(key, ts, tag, id)`` (events before grid at equal
    ts), and filled by a single ``maximum.accumulate`` over event row
    indices — every grid row is preceded in-key by its first
    observation, so no cross-key leak is possible.  Grid size per key
    is span/step: pick ``step_s`` near the native event cadence so
    output ≈ input (the grid never materializes on the driver).

    Rows with null ts or null/NaN value are excluded.  Output
    ``(key_col, grid_ts [timestamp µs], value [float64])``."""
    STEP = int(step_s) * 1_000_000
    if STEP <= 0:
        raise ValueError("step_s must be positive")

    def fill_bucket(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), dtype=np.int64)
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        v = np.asarray(group.column("v"), dtype=np.float64)
        empty = pa.table({key_col: pa.array([], pa.int64()),
                          "grid_ts": pa.array([], pa.timestamp("us")),
                          value_col: pa.array([], pa.float64())})
        if len(u) == 0:
            return empty
        order = np.lexsort((i, t, u))
        u, t, i, v = u[order], t[order], i[order], v[order]
        first = np.concatenate([[True], u[1:] != u[:-1]])
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(u)))
        mn = t[starts]
        mx = t[starts + counts - 1]
        gf = -(-mn // STEP) * STEP                # ceil to grid
        gl = (mx // STEP) * STEP                  # floor to grid
        ng = np.maximum((gl - gf) // STEP + 1, 0)
        total = int(ng.sum())
        if total == 0:
            return empty
        seg = np.repeat(np.arange(len(starts), dtype=np.int64), ng)
        within = (np.arange(total, dtype=np.int64)
                  - np.repeat(np.cumsum(ng) - ng, ng))
        g_u = u[starts][seg]
        g_t = gf[seg] + within * STEP
        # merge events (tag 0) + grid (tag 1); at equal (key, ts)
        # events sort first, max id last — maximum.accumulate then
        # carries the latest observation index into each grid row
        au = np.concatenate([u, g_u])
        at = np.concatenate([t, g_t])
        tag = np.concatenate([np.zeros(len(u), dtype=np.int8),
                              np.ones(total, dtype=np.int8)])
        ai = np.concatenate([i, np.zeros(total, dtype=np.int64)])
        morder = np.lexsort((ai, tag, at, au))
        mtag = tag[morder]
        src = np.where(mtag == 0,
                       np.arange(len(morder), dtype=np.int64), -1)
        filled = np.maximum.accumulate(src)
        gmask = mtag == 1
        ev_pos = morder[filled[gmask]]            # index into event half
        return pa.table({
            key_col: pa.array(au[morder][gmask]),
            "grid_ts": pa.array(at[morder][gmask]
                                .astype("datetime64[us]")),
            value_col: pa.array(v[ev_pos])})

    return exchange(_finite_rows(ds, value_col, ts_col, key_col, id_col),
                    fill_bucket, "u", num_buckets)


def _finite_rows(ds, value_col: str, ts_col: str, key_col: str,
                 id_col: str):
    """The resample projection: rows with a ts and a finite value, as
    ``(u, t µs, i, v float64)``."""

    def prep(batch: pa.Table) -> pa.Table:
        ok = pc.and_(batch.column(ts_col).is_valid(),
                     batch.column(value_col).is_valid())
        if pa.types.is_floating(batch.schema.field(value_col).type):
            ok = pc.and_(ok, pc.fill_null(
                pc.is_finite(batch.column(value_col)), False))
        batch = batch.filter(ok)
        return _keyed_rows(key_col, ts_col, id_col)(batch).append_column(
            "v", pc.cast(batch.column(value_col), pa.float64()))

    return ds.map_batches(prep, batch_format="pyarrow")


def cusum_changepoint(ds, key_col: str = "user_id", ts_col: str = "ts",
                      id_col: str = "event_id", value_col: str = "value",
                      scale: int = 100, num_buckets: int = 64,
                      max_rows_per_key: int = 1 << 20):
    """Exact CUSUM changepoint per key: over the key's stream ordered
    by ``(ts, id)``, the split position ``t*`` maximizing the scaled
    CUSUM deviation ``D_t = |n·S_t − t·S_n|`` for ``t ∈ [1, n−1]``
    (``S_t`` = prefix sum of the integer-scaled values), EARLIEST t on
    ties — the integer form of max_t |S_t − (t/n)·S_n| (Page 1954 /
    binary-segmentation split scoring), kept in int64 so the operator
    is SQL-oracle-exact.  Keys with a single surviving row have no
    interior split and are dropped (mirror ``WHERE t < n``).

    The statistic needs every prefix of the key's stream, so (like
    ``grouped_spearman``'s ranks) it cannot pre-aggregate: raw
    ``(key, ts, id, v)`` rows — pruned to 4 columns at the read — ride
    ONE key-hash-bucketed exchange and each bucket scores all its keys
    in one lexsort + vectorized segmented prefix/argmax pass (reduceat
    folds, no per-key loop).  Hot-key envelope is loud: a key past
    ``max_rows_per_key`` (or an overflow-unsafe ``n²·max|v|``) raises
    rather than silently wrapping.

    Values scale as ``floor(v·scale + 0.5)``; null/NaN values are
    excluded row-wise (mirror with ``WHERE v IS NOT NULL``).  Output:
    ``(key_col, n, total, t_star, ts_split, d_max)``."""
    SC = float(scale)
    CAP = int(max_rows_per_key)

    def bucket(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col)
        keep = pc.is_valid(v)
        if pa.types.is_floating(v.type):
            keep = pc.and_(keep, pc.invert(pc.is_nan(pc.fill_null(v, 0.0))))
        batch = batch.filter(pc.and_(keep,
                                     pc.is_valid(batch.column(key_col))))
        ts = np.asarray(batch.column(ts_col)).astype("datetime64[us]"
                                                     ).astype(np.int64)
        mv = np.floor(np.asarray(batch.column(value_col),
                                 dtype=np.float64) * SC + 0.5
                      ).astype(np.int64)
        return pa.table({
            "k": batch.column(key_col), "t": pa.array(ts),
            "i": pa.array(np.asarray(batch.column(id_col),
                                     dtype=np.int64)),
            "v": pa.array(mv)})

    def score_bucket(group: pa.Table) -> pa.Table:
        k = group.column("k")
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        empty = pa.table({
            key_col: k.slice(0, 0),
            "n": pa.array([], pa.int64()),
            "total": pa.array([], pa.int64()),
            "t_star": pa.array([], pa.int64()),
            "ts_split": pa.array([], pa.timestamp("us")),
            "d_max": pa.array([], pa.int64())})
        if not group.num_rows:
            return empty
        kc = np.unique(np.asarray(k), return_inverse=True)[1]
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        v = np.asarray(group.column("v"), dtype=np.int64)
        order = np.lexsort((i, t, kc))
        kc, t, v = kc[order], t[order], v[order]
        n = len(kc)
        new = np.r_[True, kc[1:] != kc[:-1]]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], n]
        seg_n = ends - starts
        n_max = int(seg_n.max())
        if n_max > CAP:
            raise ValueError(
                f"cusum_changepoint: a key holds {n_max} rows > "
                f"max_rows_per_key={CAP}; raise the envelope "
                f"explicitly if n²·max|v| stays under 2^62")
        vmax = int(np.abs(v).max()) if n else 0
        if n_max and vmax and 2 * n_max * n_max * vmax >= 2 ** 62:
            raise ValueError(
                f"cusum_changepoint: n_max={n_max}, max|v|={vmax} "
                f"overflow-unsafe for the int64 n·S_t − t·S_n fold")
        # segmented prefix sums and local positions
        pref = np.cumsum(v)
        seg_off = np.repeat(pref[starts] - v[starts], seg_n)
        s_t = pref - seg_off                       # S_t within key
        t_loc = (np.arange(n, dtype=np.int64)
                 - np.repeat(starts, seg_n) + 1)   # 1-based t
        tot = np.repeat(s_t[ends - 1], seg_n)      # S_n per key
        nn = np.repeat(seg_n, seg_n)
        d = np.abs(nn * s_t - t_loc * tot)
        interior = t_loc < nn                      # t ∈ [1, n−1]
        d = np.where(interior, d, np.int64(-1))
        d_max = np.maximum.reduceat(d, starts)
        keep_seg = seg_n >= 2                      # n==1 ⇒ no interior t
        # earliest position attaining the max, per segment
        big = np.int64(n)
        cand = np.where(d == np.repeat(d_max, seg_n),
                        np.arange(n, dtype=np.int64), big)
        t_pos = np.minimum.reduceat(cand, starts)
        ks = k.take(pa.array(order[starts]))
        sel = pa.array(keep_seg)
        return pa.table({
            key_col: ks,
            "n": pa.array(seg_n.astype(np.int64)),
            "total": pa.array(s_t[ends - 1]),
            "t_star": pa.array(np.where(keep_seg, t_loc[np.minimum(
                t_pos, n - 1)], 0)),
            "ts_split": pa.array(t[np.minimum(t_pos, n - 1)]
                                 .astype("datetime64[us]")),
            "d_max": pa.array(np.where(keep_seg, d_max, 0))}).filter(sel)

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"),
                    score_bucket, "k", num_buckets)


def resample_interp(ds, step_s: int, value_col: str = "value",
                    ts_col: str = "ts", key_col: str = "user_id",
                    id_col: str = "event_id", num_buckets: int = 32):
    """Per-key time-grid resample with LINEAR INTERPOLATION — the
    companion to :func:`resample_locf` for continuous signals: for
    every epoch-aligned grid point ``g`` with ``first_obs ≤ g ≤
    last_obs`` within the key, emit the value interpolated between the
    bracketing observations,

        v = v₁ + (v₂ − v₁) · ratio,   ratio = (g − t₁) / (t₂ − t₁)

    (a fixed IEEE expression over exact µs integers, mirrored verbatim
    in the SQL oracle — no order-dependent float folds).  Observations
    first collapse to ONE per (key, ts) (max ``id`` wins — the LOCF
    tie rule), so ``t₂ > t₁`` strictly; a grid point landing exactly
    on an observation takes its value.

    Same shape as LOCF: ONE key-bucket shuffle; per-key grids
    generated vectorized; bracketing found by one forward
    ``maximum.accumulate`` (prev) and one reverse pass (next) over a
    single merged lexsort — no per-key loop, no driver grid.  Output
    ``(key_col, grid_ts [timestamp µs], value [float64])``."""
    STEP = int(step_s) * 1_000_000
    if STEP <= 0:
        raise ValueError("step_s must be positive")

    def interp_bucket(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), dtype=np.int64)
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        v = np.asarray(group.column("v"), dtype=np.float64)
        empty = pa.table({key_col: pa.array([], pa.int64()),
                          "grid_ts": pa.array([], pa.timestamp("us")),
                          value_col: pa.array([], pa.float64())})
        if len(u) == 0:
            return empty
        order = np.lexsort((i, t, u))
        u, t, v = u[order], t[order], v[order]
        # collapse to one observation per (u, t): LAST in order = max id
        last = np.concatenate([(u[1:] != u[:-1]) | (t[1:] != t[:-1]),
                               [True]])
        u, t, v = u[last], t[last], v[last]
        first = np.concatenate([[True], u[1:] != u[:-1]])
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(u)))
        mn = t[starts]
        mx = t[starts + counts - 1]
        gf = -(-mn // STEP) * STEP
        gl = (mx // STEP) * STEP
        ng = np.maximum((gl - gf) // STEP + 1, 0)
        total = int(ng.sum())
        if total == 0:
            return empty
        seg = np.repeat(np.arange(len(starts), dtype=np.int64), ng)
        within = (np.arange(total, dtype=np.int64)
                  - np.repeat(np.cumsum(ng) - ng, ng))
        g_u = u[starts][seg]
        g_t = gf[seg] + within * STEP
        # merged order: obs (tag 0) before grid at equal (key, ts)
        au = np.concatenate([u, g_u])
        at = np.concatenate([t, g_t])
        tag = np.concatenate([np.zeros(len(u), dtype=np.int8),
                              np.ones(total, dtype=np.int8)])
        morder = np.lexsort((tag, at, au))
        mtag = tag[morder]
        n_m = len(morder)
        src = np.where(mtag == 0, np.arange(n_m, dtype=np.int64), -1)
        prev_pos = np.maximum.accumulate(src)          # last obs ≤ g
        # next obs strictly after in the merged order = first obs with
        # ts > g (equal-ts obs sorted BEFORE the grid row)
        nxt = np.where(mtag == 0, np.arange(n_m, dtype=np.int64), n_m)
        next_pos = np.minimum.accumulate(nxt[::-1])[::-1]
        gmask = mtag == 1
        p_idx = morder[prev_pos[gmask]]                # into obs half
        t1, v1 = t[p_idx], v[p_idx]
        gt = at[morder][gmask]
        exact = t1 == gt
        # clamp: where exact, next is unused (avoid n_m sentinel deref)
        np_pos = next_pos[gmask]
        np_pos = np.where(exact, prev_pos[gmask], np_pos)
        n_idx = morder[np_pos]
        t2, v2 = t[n_idx], v[n_idx]
        ratio = (gt - t1).astype(np.float64) / (t2 - t1 + exact)
        out_v = np.where(exact, v1, v1 + (v2 - v1) * ratio)
        return pa.table({
            key_col: pa.array(au[morder][gmask]),
            "grid_ts": pa.array(gt.astype("datetime64[us]")),
            value_col: pa.array(out_v)})

    return exchange(_finite_rows(ds, value_col, ts_col, key_col, id_col),
                    interp_bucket, "u", num_buckets)


def linear_attribution(ds, window_s: int, key_col: str = "user_id",
                       ts_col: str = "ts", id_col: str = "event_id",
                       type_col: str = "event_type",
                       touch_type: str = "click",
                       convert_type: str = "purchase",
                       value_col: str = "value", scale: int = 100,
                       num_buckets: int = 32):
    """LINEAR multi-touch attribution (the equal-credit counterpart to
    ``last_touch``): every conversion of value ``v`` splits its credit
    equally over the key's touch events in the trailing window
    ``[t_conv − W, t_conv)``.  Credit stays PAIR-GRANULAR —
    ``(touch, conversion, v_cents / n_window)`` — one IEEE division of
    exact ints per row, never a float accumulation, so the whole
    operator is SQL-bit-exact (summing per touch downstream is the
    caller's float-tolerance decision, not this operator's).

    Plan: ONE key-bucket shuffle; inside a bucket, touches sort by a
    fused ``(key_code << 43) | Δts`` integer (key_code = in-bucket
    dense code, so any raw key domain fits; Δts = offset from the
    bucket's min ts — 43 bits ≈ 278 years of µs headroom), so every
    conversion's window is TWO global ``searchsorted`` probes (no
    per-key loop); pair expansion is repeat + offset arithmetic.  Conversions with no in-window touch
    yield nothing (the unattributed/direct share is derivable by
    anti-join).  Output ``(key, touch_id, conversion_id,
    n_window_touches, credit)``."""
    W_US = int(window_s) * 1_000_000
    SC = float(scale)

    def bucket(batch: pa.Table) -> pa.Table:
        g = batch.column(type_col)
        keep = pc.or_(pc.equal(g, touch_type), pc.equal(g, convert_type))
        keep = pc.and_(pc.fill_null(keep, False),
                       pc.and_(batch.column(key_col).is_valid(),
                               batch.column(ts_col).is_valid()))
        t = batch.filter(keep)
        uid = np.asarray(t.column(key_col), dtype=np.int64)
        ts = np.asarray(t.column(ts_col)).astype("datetime64[us]"
                                                 ).astype(np.int64)
        is_conv = np.asarray(pc.equal(t.column(type_col), convert_type))
        val = np.asarray(pc.cast(pc.fill_null(t.column(value_col), 0.0),
                                 pa.float64()))
        return pa.table({
            "u": pa.array(uid), "t": pa.array(ts),
            "i": pc.cast(t.column(id_col), pa.int64()),
            "conv": pa.array(is_conv),
            "cents": pa.array(np.rint(np.nan_to_num(val) * SC)
                              .astype(np.int64))})

    def attribute(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), dtype=np.int64)
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        conv = np.asarray(group.column("conv"))
        cents = np.asarray(group.column("cents"), dtype=np.int64)
        empty = pa.table({
            key_col: pa.array([], pa.int64()),
            "touch_id": pa.array([], pa.int64()),
            "conversion_id": pa.array([], pa.int64()),
            "n_window_touches": pa.array([], pa.int64()),
            "credit": pa.array([], pa.float64())})
        tu, tt, ti = u[~conv], t[~conv], i[~conv]
        cu, ct, ci, cc = u[conv], t[conv], i[conv], cents[conv]
        if len(tu) == 0 or len(cu) == 0:
            return empty
        t0 = int(t.min())
        if int(t.max()) - t0 >= (1 << 43):
            raise ValueError("ts span exceeds the 43-bit fuse window")
        # densify keys to in-bucket codes so (code << 43) never
        # overflows int64 regardless of the raw key domain
        uniq, codes = np.unique(np.concatenate([tu, cu]),
                                return_inverse=True)
        if len(uniq) >= (1 << 20):
            raise ValueError("linear_attribution: > 2^20 distinct keys "
                             "in one bucket — raise num_buckets")
        tcode = codes[:len(tu)].astype(np.int64)
        ccode = codes[len(tu):].astype(np.int64)
        fuse = (tcode << np.int64(43)) | (tt - t0)
        order = np.argsort(fuse, kind="stable")
        fuse, ti_s = fuse[order], ti[order]
        lo = np.searchsorted(fuse, (ccode << np.int64(43))
                             | np.maximum(ct - W_US - t0, 0))
        hi = np.searchsorted(fuse, (ccode << np.int64(43)) | (ct - t0))
        n = hi - lo
        keep = n > 0
        cu, ci, cc, lo, n = cu[keep], ci[keep], cc[keep], lo[keep], n[keep]
        if len(cu) == 0:
            return empty
        total = int(n.sum())
        seg = np.repeat(np.arange(len(cu), dtype=np.int64), n)
        within = (np.arange(total, dtype=np.int64)
                  - np.repeat(np.cumsum(n) - n, n))
        tpos = lo[seg] + within
        return pa.table({
            key_col: pa.array(cu[seg]),
            "touch_id": pa.array(ti_s[tpos]),
            "conversion_id": pa.array(ci[seg]),
            "n_window_touches": pa.array(n[seg]),
            "credit": pa.array(cc[seg].astype(np.float64) / n[seg])})

    return exchange(ds.map_batches(bucket, batch_format="pyarrow"),
                    attribute, "u", num_buckets)


# ---------------------------------------------------------------------------
# Trailing-window sketch family: DGIM exponential histograms and panes
# ---------------------------------------------------------------------------
#
# Every member answers "what arrived in the trailing window (cut, T]?" for
# several window lengths from sketch state.  Two plans serve the family,
# over one projection (:func:`_project`): the EH plan
# (:func:`_eh_windows`) behind the four ``eh_window_*`` entry points, and
# the pane helper (:func:`_pane_windows`) behind the per-cell pane
# sketches.  EH partials cross every exchange, and the pane store's
# files, through one row codec (:func:`_eh_row` / :func:`_eh_from_row`).

def _project(ds, ts_col: str, key_col: str | None = None,
             value_col: str | None = None, *, scale: int | None = None,
             cell_us: int | None = None):
    """The family's one projection and null policy: drop rows whose ts,
    key or value is null and rows whose value is NaN; read the
    timestamp as int64 µs whatever its unit (an integer column is taken
    as µs).  Emits ``ts_us`` — or ``cell``, its epoch-aligned pane
    start, when ``cell_us`` is given — then ``k`` for a key and, for a
    value, int64 ``units = rint(v·scale)`` when ``scale`` is given, else
    float64 ``v``."""
    import pyarrow.compute as pc

    def project(batch: pa.Table) -> pa.Table:
        keep = batch.column(ts_col).is_valid()
        for c in (key_col, value_col):
            if c is not None:
                keep = pc.and_(keep, batch.column(c).is_valid())
        if value_col is not None and pa.types.is_floating(
                batch.schema.field(value_col).type):
            keep = pc.and_(keep, pc.invert(pc.is_nan(
                batch.column(value_col).fill_null(0.0))))
        t = batch.filter(keep)
        ts = np.asarray(t.column(ts_col)).astype("datetime64[us]"
                                                 ).astype(np.int64)
        out = ({"ts_us": ts} if cell_us is None
               else {"cell": (ts // cell_us) * cell_us})
        if key_col is not None:
            out["k"] = t.column(key_col)
        if value_col is not None:
            v = np.asarray(t.column(value_col), dtype=np.float64)
            if scale is None:
                out["v"] = v
            else:
                out["units"] = np.rint(v * float(scale)).astype(np.int64)
        return pa.table(out)

    return ds.map_batches(project, batch_format="pyarrow")


def _eh_fields(cls) -> list[str]:
    """Row-codec column names: the parameters of ``cls.from_arrays``
    after L, i.e. the order of ``to_arrays()`` — so the codec follows
    the class's serde, and the pane store's parquet columns keep these
    names."""
    import inspect
    return list(inspect.signature(cls.from_arrays).parameters)[1:]


def _eh_row(eh) -> dict:
    """One EH partial as one table row: ``to_arrays()`` without L (every
    reader passes its own), scalars as int64 and bucket arrays as raw
    int64 bytes."""
    return {f: (pa.array([a.tobytes()], pa.binary())
                if isinstance(a, np.ndarray) else
                pa.array([int(a)], pa.int64()))
            for f, a in zip(_eh_fields(type(eh)), eh.to_arrays()[1:])}


def _eh_from_row(cls, L: int, row: dict):
    """Inverse of :func:`_eh_row` for one ``take_all()`` row."""
    return cls.from_arrays(L, *(
        np.frombuffer(row[f], dtype=np.int64) if isinstance(row[f], bytes)
        else row[f] for f in _eh_fields(cls)))


def _eh_windows(ds, windows_s: list[int], ts_col: str, L: int,
                num_partitions: int, key_col: str | None = None,
                value_col: str | None = None, scale: int = 100):
    """The one plan behind the four ``eh_window_*`` entry points: event
    counts (``ExponentialHistogram``) or, with ``value_col``, sums of
    integer units ``rint(v·scale)`` (``ExponentialHistogramSum``); per
    key with ``key_col``, else over the whole stream.

    Plan: the projection is materialized once — the envelope, the EH
    build and the exact side all read it, and each lazy consumer would
    otherwise re-run the source read.  One fold takes the [min, max] ts
    envelope.  Events are sliced into ``num_partitions`` uniform TIME
    ranges (EH merge is ordered, so partials must cover disjoint
    ascending spans); one vectorized EH is built per (key, slice) inside
    ``map_groups``; the O(bytes) partials cross to the calling process
    through the row codec and fold per key in slice order.  The exact
    side is a per-batch int64 fold over the same projection.  Every
    key's cuts sit at ``max_ts − W`` (one shared clock).

    Returns ``([key,] window_s, n_exact | sum_units_exact,
    within_bound)``, keys in ``str`` order; ``within_bound`` asserts the
    by-construction certificate ``|est − exact| ≤ ⌈straddler/2⌉``
    against the exact side (the estimate itself depends on the
    partition layout, so it is asserted, not emitted).  The caller folds
    ``n_keys × num_partitions`` partial rows: categorical-to-moderate
    key cardinality."""
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    from bqf_ray.sketches.dgim import (ExponentialHistogram,
                                       ExponentialHistogramSum)

    EH = ExponentialHistogram if value_col is None else \
        ExponentialHistogramSum
    P = int(num_partitions)
    wins = [int(w) for w in windows_s]
    by = [] if key_col is None else ["k"]
    exact_col = "n_exact" if value_col is None else "sum_units_exact"

    def frame(rows) -> pd.DataFrame:
        # rows are (key, window_s, exact, within_bound); the global
        # variants carry key None and drop it here
        cols = [key_col, "window_s", exact_col, "within_bound"]
        skip = 0 if key_col else 1
        return pd.DataFrame([r[skip:] for r in rows], columns=cols[skip:]) \
            .astype({"window_s": "int64", exact_col: "int64",
                     "within_bound": "bool"})

    ehs: dict = {} if key_col else {None: EH(L=L)}
    us = _project(ds, ts_col, key_col, value_col, scale=scale).materialize()
    env = us.aggregate(Min("ts_us", alias_name="lo"),
                       Max("ts_us", alias_name="hi"))
    if env is None or env["lo"] is None:       # empty stream
        return frame([(k, w, 0, True) for k in ehs for w in wins])
    lo, hi = int(env["lo"]), int(env["hi"])
    span = max(hi - lo + 1, 1)
    cuts = {w: hi - w * 1_000_000 for w in wins}

    def slice_pid(batch: pa.Table) -> pa.Table:
        t = np.asarray(batch.column("ts_us"), dtype=np.int64)
        return batch.append_column(
            "__pid", pa.array(((t - lo) * P) // span))

    def build_eh(group: pa.Table) -> pa.Table:
        t = np.asarray(group.column("ts_us"), dtype=np.int64)
        order = np.argsort(t, kind="stable")
        cols = [t[order]]
        if value_col is not None:
            cols.append(np.asarray(group.column("units"),
                                   dtype=np.int64)[order])
        head = {c: group.column(c).slice(0, 1) for c in by + ["__pid"]}
        return pa.table({**head, **_eh_row(EH.from_sorted(*cols, L=L))})

    parts = (us.map_batches(slice_pid, batch_format="pyarrow")
             .groupby(by + ["__pid"])
             .map_groups(build_eh, batch_format="pyarrow").take_all())
    for r in sorted(parts, key=lambda r: (str(r.get("k")), r["__pid"])):
        ehs.setdefault(r.get("k"), EH(L=L)).merge_newer(
            _eh_from_row(EH, L, r))

    def exact_partial(batch: pa.Table) -> pa.Table:
        t = np.asarray(batch.column("ts_us"), dtype=np.int64)
        v = (np.ones(len(t), dtype=np.int64) if value_col is None
             else np.asarray(batch.column("units"), dtype=np.int64))
        code, nk, out = np.zeros(len(t), dtype=np.int64), 1, {}
        if key_col is not None:
            enc = pc.dictionary_encode(batch.column("k").combine_chunks())
            code = np.asarray(enc.indices, dtype=np.int64)
            nk = len(enc.dictionary)
            out["k"] = enc.dictionary.take(
                pa.array(np.tile(np.arange(nk), len(wins))))
        sums = np.zeros((len(wins), nk), dtype=np.int64)
        for i, w in enumerate(wins):
            m = t > cuts[w]
            np.add.at(sums[i], code[m], v[m])
        out["window_s"] = np.repeat(np.asarray(wins, dtype=np.int64), nk)
        out["pn"] = sums.ravel()
        return pa.table(out)

    exact = {(r.get("k"), r["window_s"]): r["n"] for r in
             (us.map_batches(exact_partial, batch_format="pyarrow")
              .groupby(by + ["window_s"])
              .aggregate(Sum("pn", alias_name="n")).take_all())}

    rows = []
    for k in sorted(ehs, key=str):
        for w in wins:
            est, bound = ehs[k].estimate_after(cuts[w])
            ex = int(exact.get((k, w), 0))
            rows.append((k, w, ex, abs(est - ex) <= bound))
    return frame(rows)


def _pane_windows(ds, windows_s: list[int], ts_col: str, cell_s: int,
                  panes, merge, *, key_col: str | None = None,
                  value_col: str | None = None):
    """The one plan behind the pane sketches (the Flink-pane layout):
    project to (cell, k | v) over epoch-aligned ``cell_s`` cells,
    materialized once for the panes and any exact pass; take the
    ``Max(cell)`` envelope; ``panes(us)`` builds a Dataset of per-cell
    partial rows, each carrying its ``cell``; ``merge(rows)`` folds the
    panes inside one window.  Window membership is cell-granular —
    ``cell > t_max_cell_end − W`` — so an exact side that replays it
    sees the identical row set (no partial-pane pollution).

    Returns ``(us, cuts, merged)`` — cuts and merged panes by window —
    or None for an empty stream."""
    from ray.data.aggregate import Max

    CELL = int(cell_s) * 1_000_000
    us = _project(ds, ts_col, key_col, value_col,
                  cell_us=CELL).materialize()
    env = us.aggregate(Max("cell", alias_name="hi"))
    if env is None or env["hi"] is None:       # empty stream
        return None
    hi = int(env["hi"])
    cuts = {int(w): hi + CELL - 1 - int(w) * 1_000_000 for w in windows_s}
    rows = panes(us).take_all()
    return us, cuts, {w: merge([r for r in rows if r["cell"] > c])
                      for w, c in cuts.items()}


def _sketch_panes(factory, prepare: str, on: str = "k"):
    """``(panes, merge)`` for :func:`_pane_windows` when a pane is one
    MergeableSketch: one ``sketch_agg`` blob per cell, and a window
    merges its panes' blobs (None when no pane falls inside it)."""
    from bqf_ray.sketches.base import MergeableSketch
    from bqf_ray.stages.udaf import sketch_agg

    def panes(us):
        return us.groupby("cell").aggregate(
            sketch_agg(factory, on=on, prepare=prepare, name="blob"))

    def merge(rows):
        if not rows:
            return None
        sk = MergeableSketch.from_bytes(rows[0]["blob"])
        for r in rows[1:]:
            sk.merge(MergeableSketch.from_bytes(r["blob"]))
        return sk

    return panes, merge


def eh_window_counts(ds, windows_s: list[int], ts_col: str = "ts",
                     L: int = 32, num_partitions: int = 32):
    """Trailing-window event counts through the DGIM exponential
    histogram (sketches/dgim.py) — the streaming-window member of the
    sketch family: per-node state is O(L·log n) buckets instead of the
    stream, and any trailing window (cut, T] is answerable after the
    fact.  Plan and certificate: :func:`_eh_windows`.

    Returns a pandas frame ``(window_s, n_exact, within_bound)``."""
    return _eh_windows(ds, windows_s, ts_col, L, num_partitions)


def eh_window_sums(ds, windows_s: list[int], ts_col: str = "ts",
                   value_col: str = "value", scale: int = 100,
                   L: int = 32, num_partitions: int = 32):
    """Trailing-window SUM estimates through the sum exponential
    histogram (``sketches.dgim.ExponentialHistogramSum``): values fold
    as exact integer units (``round(v·scale)``), and the certificate
    ``|est − exact| ≤ ⌈straddler_sum/2⌉`` is asserted against exact
    window sums a SQL oracle recomputes (:func:`_eh_windows`).
    Returns ``(window_s, sum_units_exact, within_bound)``."""
    return _eh_windows(ds, windows_s, ts_col, L, num_partitions,
                       value_col=value_col, scale=scale)


def eh_window_counts_by_key(ds, key_col: str, windows_s: list[int],
                            ts_col: str = "ts", L: int = 32,
                            num_partitions: int = 16):
    """GROUPED trailing-window counts through per-key DGIM exponential
    histograms: one sketch per (key, time slice), folded per key in
    slice order — per-key state is O(L·log n_key), so a categorical
    key multiplies the (tiny) partial table, never the stream.  Window
    cuts are anchored at the GLOBAL max timestamp (one shared clock,
    the cross-key-comparable convention).

    Returns ``(key, window_s, n_exact, within_bound)``; plan, envelope
    and certificate: :func:`_eh_windows`."""
    return _eh_windows(ds, windows_s, ts_col, L, num_partitions,
                       key_col=key_col)


def eh_window_sums_by_key(ds, key_col: str, windows_s: list[int],
                          ts_col: str = "ts", value_col: str = "value",
                          scale: int = 100, L: int = 32,
                          num_partitions: int = 16):
    """GROUPED trailing-window SUM estimates — completes the windowed
    matrix ({count, sum} × {global, per-key}): one
    :class:`~bqf_ray.sketches.dgim.ExponentialHistogramSum` per
    (key, time slice), folded per key in slice order, global-clock
    cuts, per-key certificates vs exact integer-unit sums.  Returns
    ``(key, window_s, sum_units_exact, within_bound)``; plan:
    :func:`_eh_windows`."""
    return _eh_windows(ds, windows_s, ts_col, L, num_partitions,
                       key_col=key_col, value_col=value_col, scale=scale)


def window_quantile_sketch(ds, windows_s: list[int],
                           qs: tuple = (0.25, 0.5, 0.75),
                           ts_col: str = "ts", value_col: str = "value",
                           cell_s: int = 86400, k: int = 200,
                           tol: float = 0.03):
    """Sliding-window QUANTILES from mergeable per-pane KLL sketches —
    the quantile member of the windowed-sketch family: values fold into
    one KLL per epoch-aligned time CELL, and any CELL-ALIGNED trailing
    window is answered by merging the panes inside it
    (:func:`_pane_windows`; KLL merge is associative — no re-scan of
    the stream).  Cell-granular membership lets the exact side and a
    SQL oracle replay the IDENTICAL row set, so the published KLL rank
    bound applies cleanly.

    The rank check is distributed: one pass counts rows ≤ each
    (window, q) estimate inside its window, and
    ``|rank − q| ≤ tol`` is asserted per row.  Returns
    ``(window_s, q, n_window, within_bound)``."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from bqf_ray.sketches.kll import KLL

    plan = _pane_windows(
        ds, windows_s, ts_col, cell_s,
        *_sketch_panes(lambda: KLL(k=k, seed=7), "value", on="v"),
        value_col=value_col)
    rows = []
    if plan is not None:
        us, cuts, merged = plan
        ests = {(w, q): float(sk.quantile(q))
                for w, sk in merged.items() if sk is not None for q in qs}
        pairs = sorted(ests)

        def rank_partial(batch: pa.Table) -> pa.Table:
            c = np.asarray(batch.column("cell"), dtype=np.int64)
            v = np.asarray(batch.column("v"), dtype=np.float64)
            le, n = [], []
            for (w, q) in pairs:
                m = c > cuts[w]
                le.append(int((v[m] <= ests[(w, q)]).sum()))
                n.append(int(m.sum()))
            return pa.table({
                "window_s": pa.array([p[0] for p in pairs], pa.int64()),
                "q": pa.array([f"{p[1]:.2f}" for p in pairs]),
                "ple": pa.array(le, pa.int64()),
                "pn": pa.array(n, pa.int64())})

        folded = (us.map_batches(rank_partial, batch_format="pyarrow")
                  .groupby(["window_s", "q"])
                  .aggregate(Sum("ple", alias_name="le"),
                             Sum("pn", alias_name="n")).take_all())
        for r in sorted(folded, key=lambda r: (r["window_s"], r["q"])):
            n = int(r["n"])
            rank = r["le"] / n if n else 0.0
            rows.append((r["window_s"], r["q"], n,
                         abs(rank - float(r["q"])) <= tol))
    return pd.DataFrame(rows, columns=["window_s", "q", "n_window",
                                       "within_bound"]).astype(
        {"window_s": "int64", "n_window": "int64", "within_bound": "bool"})


def window_heavy_hitters(ds, windows_s: list[int], key_col: str,
                         ts_col: str = "ts", m: int = 64,
                         cell_s: int = 86400):
    """Trailing-window frequent keys from mergeable per-pane
    Misra–Gries summaries — the heavy-hitter member of the pane family:
    each epoch-aligned cell keeps an O(m) MG summary; a cell-aligned
    trailing window merges its panes (:func:`_pane_windows`), whose
    DETERMINISTIC guarantee (every key with window frequency >
    n_w/(m+1) survives the merge) makes the output EXACTLY
    ``GROUP BY key HAVING cnt > n_w/(m+1)`` after one candidate-recount
    pass — SQL-oracle-exact per window.

    The recount is ONE distributed pass shared by all windows
    (per-batch: member-mask × broadcast candidate membership, partial
    (window, key) counts), then a threshold filter.  Output
    ``(window_s, key, cnt)``."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    from bqf_ray.sketches.misragries import MisraGries
    from bqf_ray.stages.udaf import prepare_hash

    plan = _pane_windows(
        ds, windows_s, ts_col, cell_s,
        *_sketch_panes(lambda: MisraGries(m=m), "hash"), key_col=key_col)
    rows = []
    if plan is not None:
        us, cuts, merged = plan
        ref = ray.put({w: np.empty(0, dtype=np.uint64) if mg is None
                       else np.sort(mg.candidates()[0])
                       for w, mg in merged.items()})

        class Recount:
            def __init__(self):
                self.cand = ray.get(ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                c = np.asarray(batch.column("cell"), dtype=np.int64)
                keys = batch.column("k")
                if isinstance(keys, pa.ChunkedArray):
                    keys = keys.combine_chunks()
                # probe hashes MUST mirror the MG build's prepare_hash
                # exactly (string keys go through xxhash64, floats
                # through their bit pattern) — an inline integer re-hash
                # would never match the candidate set for non-int key
                # columns.  The projection dropped null keys, so lengths
                # stay aligned.
                h = prepare_hash(keys)
                outs = []
                for w, cut in cuts.items():
                    member = c > cut
                    cw = self.cand[w]
                    pos = np.searchsorted(cw, h)
                    is_cand = np.zeros(len(h), dtype=bool)
                    inb = pos < len(cw)
                    if len(cw):
                        is_cand[inb] = cw[pos[inb]] == h[inb]
                    sel = member & is_cand
                    t = pa.table({"k": keys.filter(pa.array(sel))})
                    g = (t.group_by(["k"]).aggregate([("k", "count")])
                         .rename_columns(["k", "pc"]))
                    outs.append(pa.table({
                        "window_s": pa.array(
                            np.full(len(g), w, dtype=np.int64)),
                        "k": g.column("k"),
                        "pc": g.column("pc"),
                        "pn": pa.array(np.zeros(len(g), dtype=np.int64))}))
                    # the window's row count rides a separate null-key row
                    outs.append(pa.table({
                        "window_s": pa.array([w], pa.int64()),
                        "k": pa.array([None], t.schema.field("k").type),
                        "pc": pa.array([0], pa.int64()),
                        "pn": pa.array([int(member.sum())], pa.int64())}))
                return pa.concat_tables(outs)

        # a quarter CPU per actor: the pool leaves a CPU for the read
        folded = (us.map_batches(Recount, concurrency=4, num_cpus=0.25,
                                 batch_format="pyarrow")
                  .groupby(["window_s", "k"])
                  .aggregate(Sum("pc", alias_name="cnt"),
                             Sum("pn", alias_name="nw")).take_all())
        n_w = {r["window_s"]: int(r["nw"]) for r in folded
               if r["k"] is None}
        rows = sorted((r["window_s"], r["k"], int(r["cnt"]))
                      for r in folded
                      if r["k"] is not None
                      and int(r["cnt"]) > n_w[r["window_s"]] / (m + 1))
    out = pd.DataFrame(rows, columns=["window_s", key_col, "cnt"])
    if not len(out):                       # dtype-stable empty frame
        out = out.astype({"window_s": "int64", "cnt": "int64"})
    return out


def window_distinct_bitmap(ds, windows_s: list[int], key_col: str,
                           ts_col: str = "ts", cell_s: int = 86400):
    """EXACT distinct keys per cell-aligned trailing window via
    per-pane compressed bitmaps (``sketches.bitmap.CompressedBitmap``):
    pane merges are idempotent set unions, so any window is the union
    of its panes — the exact counterpart of the per-window HLL path
    (``windowed_distinct``'s sketch mode) for dense id domains, with a
    bit-exact ``COUNT(DISTINCT)`` oracle instead of a bound flag.
    Returns ``(window_s, n_distinct)``."""
    import pandas as pd

    from bqf_ray.sketches.bitmap import CompressedBitmap

    plan = _pane_windows(ds, windows_s, ts_col, cell_s,
                         *_sketch_panes(CompressedBitmap, "int"),
                         key_col=key_col)
    merged = plan[2] if plan else dict.fromkeys(int(w) for w in windows_s)
    return pd.DataFrame(
        [(w, 0 if bm is None else bm.count()) for w, bm in merged.items()],
        columns=["window_s", "n_distinct"]).astype(
        {"window_s": "int64", "n_distinct": "int64"})


def window_sample(ds, windows_s: list[int], k: int, id_col: str,
                  ts_col: str = "ts", salt: str = "",
                  cell_s: int = 86400):
    """DETERMINISTIC uniform sample of each cell-aligned trailing
    window: the k smallest md5(id||salt) hashes among window members —
    a mergeable per-pane bottom-k (pane partials hold each pane's k
    smallest; window = k smallest of the union), so the sample is
    EXACT and stable under any partitioning, and a SQL engine replays
    it verbatim (``ORDER BY hash LIMIT k`` within the window).
    Returns ``(window_s, id, rk)`` with rk 1..k by ascending hash."""
    import pandas as pd
    import pyarrow.compute as pc

    from bqf_ray.pipelines.sampling import _key_u64

    K = int(k)

    def pane_bottomk(group: pa.Table) -> pa.Table:
        h = _key_u64(group, "k", salt, "md5")
        i = np.asarray(pc.cast(group.column("k"), pa.int64()))
        order = np.lexsort((i, h))[:K]        # id tiebreak: determinism
        return pa.table({"cell": group.column("cell").take(order),
                         "i": pa.array(i[order]),
                         "h": pa.array(h[order].view(np.int64))})

    def merge(rows) -> np.ndarray:
        h = np.array([r["h"] for r in rows], dtype=np.int64).view(np.uint64)
        i = np.array([r["i"] for r in rows], dtype=np.int64)
        return i[np.lexsort((i, h))[:K]]

    plan = _pane_windows(
        ds, windows_s, ts_col, cell_s,
        lambda us: us.groupby("cell").map_groups(pane_bottomk,
                                                 batch_format="pyarrow"),
        merge, key_col=id_col)
    rows = [(w, int(i), rk) for w, ids in (plan[2] if plan else {}).items()
            for rk, i in enumerate(ids, 1)]
    return pd.DataFrame(rows, columns=["window_s", "id", "rk"]) \
        .astype({"window_s": "int64", "id": "int64", "rk": "int64"})


def window_counts_bqf(ds, windows_s: list[int], key_col: str,
                      ts_col: str = "ts", count_size: int = 8,
                      q: int = 10, cell_s: int = 86400):
    """Trailing-window SATURATED counts through per-pane Backpack
    Quotient Filters — the reference's core counting structure
    (/root/reference/src/bqf_ec.cpp:120-154) joined to the pane
    architecture: one BqfEc per epoch-aligned cell, cell-aligned
    windows answered by pane merges (BQF merge = enumerate + rebuild,
    associative), counts clamping at ``2^count_size − 1`` exactly as
    the reference's exact-count codec — so the oracle is
    ``LEAST(count(*), 2^c−1)`` per (window, key), bit-exact.
    Returns ``(window_s, key, cnt)``."""
    import pandas as pd

    from bqf_ray.sketches.bqf import BqfEc
    from bqf_ray.stages.udaf import prepare_hash

    plan = _pane_windows(
        ds, windows_s, ts_col, cell_s,
        *_sketch_panes(lambda: BqfEc(q=q, count_size=count_size), "hash"),
        key_col=key_col)
    rows = []
    if plan is not None:
        us, _, merged = plan
        # distinct keys (tiny here; the corpus form rides
        # distinct_values); probe hashes MUST mirror the build's
        # prepare_hash exactly (string xxh64 vs int fmix64 differ) —
        # share the function, not a re-code
        keys = sorted({r["k"] for r in us.groupby("k").count().take_all()})
        kh = prepare_hash(pa.array(keys))
        for w, sk in merged.items():
            if sk is not None:
                cnt = sk.query_batch(kh).astype(np.int64)
                rows += [(w, kk, int(c)) for kk, c in zip(keys, cnt) if c > 0]
        rows.sort()
    return pd.DataFrame(rows, columns=["window_s", key_col, "cnt"]) \
        .astype({"window_s": "int64", "cnt": "int64"})


def update_pane_store(ds, root: str, ts_col: str = "ts", L: int = 32,
                      cell_s: int = 86400):
    """INCREMENTAL pane maintenance — the crawl-loop form of the
    windowed sketches: per-cell DGIM partials persist through the
    resumable partitioned sink (``state/output.py`` — atomic ``_DONE``
    markers per ``part=<cell>``), so a re-run after new data builds
    ONLY cells without a verified marker; finished panes are never
    recomputed or even read.  Each pane is one EH codec row
    (:func:`_eh_row`) plus its ``cell``.

    Watermark contract (documented, loud): a cell is written once seen
    — callers must feed CLOSED cells only (drop the trailing open cell
    upstream, the standard watermark rule); late rows for a finished
    cell are ignored by the skip.  Returns the per-run write metadata
    (one row per NEW cell)."""
    from bqf_ray.sketches.dgim import ExponentialHistogram
    from bqf_ray.state.output import resumable_write_parquet

    CELL = int(cell_s) * 1_000_000

    def with_cell(batch: pa.Table) -> pa.Table:
        t = np.asarray(batch.column("ts_us"), dtype=np.int64)
        return batch.append_column("cell", pa.array((t // CELL) * CELL))

    def build_pane(group: pa.Table) -> pa.Table:
        t = np.sort(np.asarray(group.column("ts_us"), dtype=np.int64))
        return pa.table({
            "cell": group.column("cell").slice(0, 1),
            **_eh_row(ExponentialHistogram.from_sorted(t, L=L))})

    panes = (_project(ds, ts_col)
             .map_batches(with_cell, batch_format="pyarrow")
             .groupby("cell").map_groups(build_pane,
                                         batch_format="pyarrow"))
    return resumable_write_parquet(panes, root, "cell")


def query_pane_store(root: str, windows_s: list[int], L: int = 32,
                     cell_s: int = 86400):
    """Answer trailing-window counts from a persisted pane store: read
    the O(bytes) pane blobs (finished cells only), ordered-fold per
    window.  No event data is touched — the store IS the state.
    Returns ``(window_s, estimate, bound, n_total)``; the estimate
    carries the DGIM certificate ``|est − exact| ≤ bound``."""
    import pandas as pd

    from bqf_ray.sketches.dgim import ExponentialHistogram
    from bqf_ray.state.output import read_resumable_parquet

    CELL = int(cell_s) * 1_000_000
    rows = sorted(read_resumable_parquet(root).take_all(),
                  key=lambda r: r["cell"])
    if not rows:
        return pd.DataFrame({"window_s": pd.Series([], dtype="int64"),
                             "estimate": pd.Series([], dtype="int64"),
                             "bound": pd.Series([], dtype="int64"),
                             "n_total": pd.Series([], dtype="int64")})
    eh = ExponentialHistogram(L=L)
    for r in rows:
        eh.merge_newer(_eh_from_row(ExponentialHistogram, L, r))
    hi_cell = int(rows[-1]["cell"])
    out = []
    for w in [int(x) for x in windows_s]:
        cut = hi_cell + CELL - 1 - w * 1_000_000
        est, bound = eh.estimate_after(cut)
        out.append((w, est, bound, eh.n))
    return pd.DataFrame(out, columns=["window_s", "estimate", "bound",
                                      "n_total"])


def ohlc_window(ds, size_s: int = 21600, ts_col: str = "ts",
                key_col: str = "event_type", value_col: str = "value",
                id_col: str = "event_id", num_buckets: int = 32):
    """Per (window_start, key) OHLC resample — open/high/low/close of
    ``value_col`` over tumbling windows, the telemetry/market-data
    downsampling primitive: ``open`` = value of the first row by
    ``(ts, id)`` in the window, ``close`` = last, ``high``/``low`` =
    max/min, plus the row count.  Every output is a SELECTED raw value
    or an exact comparison (no float accumulation), so the whole row
    bit-matches the SQL window-function replay.

    Plan: per-batch pre-aggregation collapses each (window, key) to
    ONE partial row carrying (open ts/id/value, close ts/id/value,
    hi, lo, n); partials ride a (window, key)-bucketed exchange and
    fold per group with a lexsort — shuffle volume is
    O(windows × keys × blocks), never the event stream."""
    from bqf_ray.pipelines.audit import _key_codes

    size_us = np.int64(int(size_s)) * 1_000_000

    def _partials(w, kc, ts, ids, v, kvals):
        order = np.lexsort((ids, ts, kc, w))
        w_, kc_, ts_, id_, v_ = (w[order], kc[order], ts[order],
                                 ids[order], v[order])
        new = np.concatenate([[True], (w_[1:] != w_[:-1])
                              | (kc_[1:] != kc_[:-1])])
        st = np.flatnonzero(new)
        en = np.append(st[1:], len(w_)) - 1
        cnt = en - st + 1
        return pa.table({
            "window_start": pa.array(w_[st]),
            key_col: kvals.take(pa.array(order[st])),
            "o_ts": pa.array(ts_[st]), "o_id": pa.array(id_[st]),
            "open": pa.array(v_[st]),
            "c_ts": pa.array(ts_[en]), "c_id": pa.array(id_[en]),
            "close": pa.array(v_[en]),
            "high": pa.array(np.maximum.reduceat(v_, st)),
            "low": pa.array(np.minimum.reduceat(v_, st)),
            "n": pa.array(cnt.astype(np.int64))})

    def pre(batch: pa.Table) -> pa.Table:
        keep = pc.and_(batch.column(ts_col).is_valid(),
                       pc.and_(batch.column(value_col).is_valid(),
                               batch.column(key_col).is_valid()))
        t = batch.filter(keep)
        ts = np.asarray(t.column(ts_col)).astype("datetime64[us]") \
            .astype(np.int64)
        w = (ts // size_us) * size_us
        k = t.column(key_col)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        kc = _key_codes(k)
        ids = np.asarray(t.column(id_col), dtype=np.int64)
        v = np.asarray(t.column(value_col), dtype=np.float64)
        return _partials(w, kc, ts, ids, v, k)

    def fold(group: pa.Table) -> pa.Table:
        w = np.asarray(group.column("window_start"), dtype=np.int64)
        k = group.column(key_col)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        kc = _key_codes(k)
        o_ts = np.asarray(group.column("o_ts"), dtype=np.int64)
        o_id = np.asarray(group.column("o_id"), dtype=np.int64)
        o_v = np.asarray(group.column("open"), dtype=np.float64)
        c_ts = np.asarray(group.column("c_ts"), dtype=np.int64)
        c_id = np.asarray(group.column("c_id"), dtype=np.int64)
        c_v = np.asarray(group.column("close"), dtype=np.float64)
        hi = np.asarray(group.column("high"), dtype=np.float64)
        lo = np.asarray(group.column("low"), dtype=np.float64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        order = np.lexsort((o_id, o_ts, kc, w))
        w_, kc_ = w[order], kc[order]
        new = np.concatenate([[True], (w_[1:] != w_[:-1])
                              | (kc_[1:] != kc_[:-1])])
        st = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        # open: first partial by (o_ts, o_id) — the sort order
        opens = o_v[order][st]
        # close: per-seg argmax of (c_ts, c_id)
        co = np.lexsort((c_id, c_ts, kc, w))
        seg_c = seg[np.argsort(order)][co]     # segment of each row in co order
        last_of_seg = np.zeros(len(st), dtype=np.int64)
        last_of_seg[seg_c] = co                # later rows overwrite
        closes = c_v[last_of_seg]
        nsum = np.zeros(len(st), dtype=np.int64)
        np.add.at(nsum, seg[np.argsort(order)], n)
        his = np.full(len(st), -np.inf)
        np.maximum.at(his, seg[np.argsort(order)], hi)
        los = np.full(len(st), np.inf)
        np.minimum.at(los, seg[np.argsort(order)], lo)
        return pa.table({
            "window_start": pa.array(
                w_[st].astype("datetime64[us]")),
            key_col: k.take(pa.array(order[st])),
            "open": pa.array(opens),
            "high": pa.array(his),
            "low": pa.array(los),
            "close": pa.array(closes),
            "n": pa.array(nsum)})

    return exchange(ds.map_batches(pre, batch_format="pyarrow"), fold,
                    ["window_start", key_col], num_buckets)
