"""Dataset profiling — per-column data-quality stats in two shuffles
(one corpus-sized, one tiny): row count, null count, min/max, EXACT
distinct count, and an HLL estimate checked against its published
bound.  The classic "profile before you train" stage of a web-corpus
pipeline, and a showcase of running an exact plan and a sketch plan
over the same exchange.

Plan shape:
- melt: one pass over the input emits per-batch-DISTINCT
  ``(column, value)`` pairs exchanged on that pair (side 0)
  plus one tiny per-column stat partial per batch (side 1: n, n_null,
  min/max as strings).  Values are string-cast — lossless/injective for
  ints and strings, and shortest-repr doubles round-trip, so distinct
  counts equal the original column's.
- bucket merge: each distinct value lands in exactly ONE bucket, so
  per-bucket unique counts SUM to the exact global distinct, and
  per-bucket sparse HLL register maxima MAX-merge to the global
  registers (register max is associative/commutative/idempotent).
  Each bucket emits one partial row per column it saw: packed sparse
  registers ``(idx << 8) | rho`` as a list<int64>.
- assemble: a second, TINY groupby on column name (≤ buckets + batches rows
  per column) sums exact parts, max-merges sparse registers,
  min/max-folds the stat partials (parsed back through the column's
  real type so "10" < "9" string order never corrupts numeric bounds),
  and emits the bound flag ``hll_ok`` = |est − exact| ≤ rel_bound·exact.

At 100 TB the wide exchange ships batch-distinct (column, value) string
pairs — the ``distinct_tokens`` shape; everything downstream is
per-column-constant.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bqf_ray.functions.hashing import xxhash64_array
from bqf_ray.sketches.hll import HyperLogLog, _register_updates
from bqf_ray.stages.partition import exchange


_DIGEST_LEN = 64


def _digest_long(vals: pa.Array) -> pa.Array:
    """Replace values longer than ``_DIGEST_LEN`` bytes with a
    ``\\x01h<xxh64(v,0)>.<xxh64(v,1)>.<len>`` digest string before the
    distinct exchange, so profiling a long-text column ships ~45-byte
    keys instead of whole documents.  Distinctness is then exact up to
    a 128-bit xxh collision — the same content-key equivalence
    ``exact_dedup`` uses (documented there); real values never collide
    with digests: only >64-byte values are digested and every digest is
    a <50-byte \\x01-prefixed string (\\x01, not NUL — numpy's U dtype
    truncates embedded NULs)."""
    lens = pc.binary_length(vals)
    # also digest any short value that itself starts with the digest
    # prefix, closing the raw-value-impersonates-a-digest collision
    mask = pc.or_(pc.greater(lens, _DIGEST_LEN),
                  pc.starts_with(vals, pattern="\x01h"))
    if not pc.any(mask).as_py():
        return vals
    sub = vals.filter(mask)               # hash ONLY the digested subset
    h1 = xxhash64_array(sub, seed=0)
    h2 = xxhash64_array(sub, seed=1)
    n = np.asarray(pc.binary_length(sub), dtype=np.int64)
    dig = np.char.add(np.char.add(np.char.add(np.char.add(
        "\x01h", h1.astype("U")), "."), h2.astype("U")),
        np.char.add(".", n.astype("U")))
    return pc.replace_with_mask(vals, mask, pa.array(dig.astype("U")))


def _minmax_str(arr) -> tuple[str | None, str | None]:
    if pa.types.is_null(arr.type):
        return None, None
    mm = pc.min_max(arr)
    lo, hi = mm["min"], mm["max"]
    if not lo.is_valid:
        return None, None
    return (pc.cast(lo, pa.string()).as_py(), pc.cast(hi, pa.string()).as_py())


def profile_table(ds, columns: list[str] | None = None, hll_p: int = 12,
                  rel_bound: float = 0.10, num_buckets: int = 16):
    """One row per profiled column: ``(col_name, n, n_null, n_distinct,
    min_v, max_v, hll_ok)``.  min_v/max_v are string-cast (int/string/
    float columns compare correctly; see module docstring).  n_distinct
    is exact and excludes nulls (SQL ``count(DISTINCT x)`` semantics);
    ``hll_ok`` asserts the HLL(p=hll_p) estimate is within
    ``rel_bound`` of it."""
    schema = ds.schema()
    cols = list(columns) if columns else list(schema.names)
    types = {n: t for n, t in zip(schema.names, schema.types)}
    missing = [c for c in cols if c not in types]
    if missing:
        raise ValueError(f"unknown columns: {missing}")
    P = int(hll_p)

    out_schema = pa.schema([
        ("col_name", pa.string()), ("n", pa.int64()),
        ("n_null", pa.int64()), ("n_distinct", pa.int64()),
        ("min_v", pa.string()), ("max_v", pa.string()),
        ("hll_ok", pa.bool_())])

    # union schema for both row kinds crossing the first exchange
    def _rows(col, value, side, n=None, nnull=None, lo=None, hi=None):
        k = len(col)

        def fill(v, typ):
            return pa.array(v if v is not None else [None] * k, typ)
        return pa.table({
            "col": pa.array(col, pa.string()),
            "value": fill(value, pa.string()),
            "side": pa.array(side, pa.int8()),
            "pn": fill(n, pa.int64()), "pnull": fill(nnull, pa.int64()),
            "plo": fill(lo, pa.string()), "phi": fill(hi, pa.string())})

    def melt(batch: pa.Table) -> pa.Table:
        parts = []
        stat_c, stat_n, stat_nn, stat_lo, stat_hi = [], [], [], [], []
        for c in cols:
            arr = batch.column(c)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            stat_c.append(c)
            stat_n.append(batch.num_rows)
            stat_nn.append(arr.null_count)
            lo, hi = (_minmax_str(arr) if batch.num_rows else (None, None))
            stat_lo.append(lo)
            stat_hi.append(hi)
            vals = pc.unique(arr.drop_null().cast(pa.string()))
            if len(vals) == 0:
                continue
            vals = _digest_long(vals)
            parts.append(_rows([c] * len(vals), vals,
                               np.zeros(len(vals), dtype=np.int8)))
        parts.append(_rows(stat_c, None,
                           np.ones(len(stat_c), dtype=np.int8),
                           n=stat_n, nnull=stat_nn, lo=stat_lo, hi=stat_hi))
        return pa.concat_tables(parts)

    def _out_rows(col, side, pn, pnull=None, plo=None, phi=None, regs=None):
        k = len(col)
        return pa.table({
            "col": pa.array(col, pa.string()) if not isinstance(
                col, (pa.Array, pa.ChunkedArray)) else col,
            "side": pa.array(np.full(k, side, dtype=np.int8)),
            "pn": pn if isinstance(pn, (pa.Array, pa.ChunkedArray))
            else pa.array(pn, pa.int64()),
            "pnull": pnull if pnull is not None else pa.nulls(k, pa.int64()),
            "plo": plo if plo is not None else pa.nulls(k, pa.string()),
            "phi": phi if phi is not None else pa.nulls(k, pa.string()),
            "regs": regs if regs is not None
            else pa.nulls(k, pa.list_(pa.int64()))})

    def bucket_merge(group: pa.Table) -> pa.Table:
        import pandas as pd
        side = np.asarray(group.column("side"))
        vrows = group.filter(pa.array(side == 0))
        stats = group.filter(pa.array(side == 1))
        parts = [_out_rows(stats.column("col"), 1, stats.column("pn"),
                           stats.column("pnull"), stats.column("plo"),
                           stats.column("phi"))]
        if vrows.num_rows:
            codes, cuniq = pd.factorize(np.asarray(vrows.column("col")))
            vals = vrows.column("value")
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            h = xxhash64_array(vals)
            # group-level dedup on the STRING value (truly exact — the
            # 64-bit hash only feeds the HLL registers)
            key = np.asarray(pc.binary_join_element_wise(
                vrows.column("col"), vals, "\x00"))
            _, first = np.unique(key, return_index=True)
            cid = codes[first].astype(np.int64)
            hu = h[first]
            order = np.argsort(cid, kind="stable")
            cid, hu = cid[order], hu[order]
            nd = np.bincount(cid, minlength=len(cuniq)).astype(np.int64)
            ridx, rho = _register_updates(hu, P)
            # sparse per-(col, register) max: sort by (pk, -rho), keep
            # first-of-run
            pk = cid * np.int64(1 << P) + ridx
            o2 = np.lexsort((-rho.astype(np.int64), pk))
            pk2, rho2 = pk[o2], rho[o2].astype(np.int64)
            keep = np.concatenate([[True], pk2[1:] != pk2[:-1]])
            pk2, rho2 = pk2[keep], rho2[keep]
            packed = ((pk2 % np.int64(1 << P)) << np.int64(8)) | rho2
            per_col = np.bincount((pk2 // np.int64(1 << P)),
                                  minlength=len(cuniq)).astype(np.int64)
            regs = pa.ListArray.from_arrays(
                pa.array(np.concatenate([[0], np.cumsum(per_col)]),
                         pa.int32()),
                pa.array(packed, pa.int64()))
            parts.append(_out_rows(list(cuniq.astype("U")), 2,
                                   pa.array(nd), regs=regs))
        return pa.concat_tables(parts)

    def assemble(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("side"))
        name = group.column("col")[0].as_py()
        typ = types[name]
        srows = group.filter(pa.array(side == 1))
        vparts = group.filter(pa.array(side == 2))
        n = int(pc.sum(srows.column("pn")).as_py() or 0)
        n_null = int(pc.sum(srows.column("pnull")).as_py() or 0)

        def fold(colname, fn):
            vals = srows.column(colname).drop_null()
            # an all-null column has no typed partials (and possibly a
            # null-typed schema) — nothing to fold
            if len(vals) == 0 or pa.types.is_null(typ):
                return None
            vals = vals.cast(typ)
            return pc.cast(fn(vals), pa.string()).as_py()

        lo = fold("plo", pc.min)
        hi = fold("phi", pc.max)
        nd = int(pc.sum(vparts.column("pn")).as_py() or 0)
        flat = vparts.column("regs").combine_chunks().flatten()
        packed = np.asarray(flat, dtype=np.int64) if len(flat) else \
            np.empty(0, dtype=np.int64)
        est = 0.0
        if len(packed):
            ridx, rho = packed >> np.int64(8), packed & np.int64(0xFF)
            o = np.lexsort((-rho, ridx))
            ridx, rho = ridx[o], rho[o]
            keep = np.concatenate([[True], ridx[1:] != ridx[:-1]])
            est = float(HyperLogLog.estimate_sparse(
                np.zeros(keep.sum(), dtype=np.int64),
                rho[keep].astype(np.uint8), 1, P)[0])
        ok = abs(est - nd) <= rel_bound * max(nd, 1)
        return pa.table({
            "col_name": pa.array([name], pa.string()),
            "n": pa.array([n], pa.int64()),
            "n_null": pa.array([n_null], pa.int64()),
            "n_distinct": pa.array([nd], pa.int64()),
            "min_v": pa.array([lo], pa.string()),
            "max_v": pa.array([hi], pa.string()),
            "hll_ok": pa.array([ok], pa.bool_())})

    return (exchange(ds.map_batches(melt, batch_format="pyarrow"),
                     bucket_merge, ["col", "value"], num_buckets)
            .groupby("col")
            .map_groups(assemble, batch_format="pyarrow"))
