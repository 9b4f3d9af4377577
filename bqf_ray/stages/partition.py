"""Partitioning / skew helpers.

Every hash-bucket exchange in the pipelines goes through :func:`exchange`:
it routes rows by :func:`bucket_of` — the one routing hash, a per-column
``fmix64`` chain over :func:`_col_hash64` — and folds each bucket with one
Python call after Ray Data's sort-based ``groupby(bucket).map_groups``.
The shuffle strategy is therefore one decision made here, not per site;
join-shaped callers tag each side and exchange the union, so both sides
route through the same hash by construction.

The sketch-build shuffle keys on uniform token hashes, which is skew-free
by construction.  Natural-key aggregations (per-host, per-lang — the skewed
dimensions the pages table engineers in: one host ≈25%, one lang ≈70%) go
through :func:`salted_aggregate`: a two-phase groupby where phase 1 groups
on ``(key, salt)`` with ``salt = row_hash % S`` to split hot keys across S
reducers, and phase 2 re-combines the S partials per key — standard salting
(SURVEY.md §4 "Skew").  Correct for any commutative-associative aggregate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from bqf_ray.functions.hashing import fmix64, xxhash64_array


def add_salt(batch: pa.Table, key_col: str, num_salts: int = 16,
             salt_col: str = "__salt") -> pa.Table:
    """Append a salt column spreading each key's rows over ``num_salts``
    sub-keys (deterministic per row position+key so retries are stable)."""
    n = len(batch)
    kh = xxhash64_array(batch.column(key_col))
    row = np.arange(n, dtype=np.uint64)
    salt = (fmix64(kh + row) % np.uint64(num_salts)).astype(np.int64)
    return batch.append_column(salt_col, pa.array(salt))


def salted_aggregate(ds, key_col: str, agg_cols: dict[str, str],
                     num_salts: int = 16):
    """Two-phase skew-safe aggregate.

    ``agg_cols``: {column: "sum"|"count"|"min"|"max"} — commutative
    aggregates only.  Returns a Dataset grouped by ``key_col`` with columns
    named ``{agg}_{col}`` (count gets ``count_rows``).

    Phase 1 shuffles on (key, salt) — a hot key's rows land on up to
    ``num_salts`` different reducers; phase 2 shuffles only the S partial
    rows per key.
    """
    import pyarrow.compute as pc

    def phase1(batch: pa.Table) -> pa.Table:
        batch = add_salt(batch, key_col, num_salts)
        # local pre-aggregation before the wide shuffle
        gb = batch.group_by([key_col, "__salt"])
        aggs = []
        for col, how in agg_cols.items():
            if how == "count":
                aggs.append((col, "count"))
            else:
                aggs.append((col, how))
        return gb.aggregate(aggs)

    def phase2(batch: pa.Table) -> pa.Table:
        gb = batch.group_by([key_col])
        aggs = []
        for col, how in agg_cols.items():
            src = f"{col}_{'count' if how == 'count' else how}"
            # partial counts/sums re-combine with sum; min/max with min/max
            how2 = "sum" if how in ("count", "sum") else how
            aggs.append((src, how2))
        out = gb.aggregate(aggs)
        # normalize names: pyarrow appends _sum/_min/... again
        renames = {}
        for col, how in agg_cols.items():
            src = f"{col}_{'count' if how == 'count' else how}"
            how2 = "sum" if how in ("count", "sum") else how
            renames[f"{src}_{how2}"] = (f"count_rows" if how == "count"
                                        else f"{how}_{col}")
        cols = [renames.get(name, name) for name in out.column_names]
        return out.rename_columns(cols)

    phase1_ds = ds.map_batches(phase1, batch_format="pyarrow")
    # wide shuffle 1: (key, salt) — hot keys split across reducers
    partials = (phase1_ds.groupby([key_col, "__salt"])
                .map_groups(lambda t: phase2_local(t), batch_format="pyarrow"))
    # wide shuffle 2: tiny — ≤ num_salts rows per key
    return (partials.groupby(key_col)
            .map_groups(phase2, batch_format="pyarrow"))


def quantile_boundaries(ds, value_col: str, num_partitions: int,
                        method: str = "kll", k: int = 1024,
                        seed: int = 11) -> np.ndarray:
    """``num_partitions − 1`` interior range boundaries from ONE sketch
    pass (KLL or t-digest, :func:`build_sketch`) — the sample-sort planner.
    Unlike Ray's built-in sort sampling this exposes the boundaries as a
    reusable artifact: compute once, route many datasets/stages with the
    same key ranges (the ONE-partitioning-key-reused-everywhere rule)."""
    from bqf_ray.sketches.kll import KLL
    from bqf_ray.sketches.tdigest import TDigest
    from bqf_ray.stages.sketch_stage import build_sketch

    def key_fn(batch: pa.Table):
        return np.asarray(batch.column(value_col), dtype=np.float64), None

    factory = (lambda: KLL(k=k, seed=seed)) if method == "kll" \
        else (lambda: TDigest(delta=max(k, 100)))
    sk = build_sketch(ds, key_fn, factory)
    P = int(num_partitions)
    return np.array([sk.quantile(i / P) for i in range(1, P)],
                    dtype=np.float64)


def assign_range_partition(ds, value_col: str, boundaries: np.ndarray,
                           part_col: str = "__part"):
    """Append ``part_col = searchsorted(boundaries, value)`` — the routing
    half of a sample-sort/range-shuffle: rows with equal-range values get
    the same partition id, partitions are value-ordered, and downstream
    ``groupby(part_col)`` / partitioned writes see near-uniform sizes
    (balance bounded by the sketch's rank error).  Boundaries are tiny and
    ship inside the closure (one object-store copy per task, not per
    batch)."""
    b = np.asarray(boundaries, dtype=np.float64)

    def assign(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column(value_col), dtype=np.float64)
        part = np.searchsorted(b, v, side="right").astype(np.int64)
        return batch.append_column(part_col, pa.array(part))

    return ds.map_batches(assign, batch_format="pyarrow")


def range_partition_counts(ds, value_col: str, num_partitions: int,
                           method: str = "kll", k: int = 1024):
    """Plan + route + audit in one call: returns
    ``(boundaries, counts: np.ndarray[num_partitions])`` where counts come
    from per-batch bincount partials summed on the driver (P-sized arrays
    only — no row materialization)."""
    P = int(num_partitions)
    boundaries = quantile_boundaries(ds, value_col, P, method=method, k=k)
    routed = assign_range_partition(ds, value_col, boundaries)

    def count_parts(batch: pa.Table) -> pa.Table:
        c = np.bincount(np.asarray(batch.column("__part"), dtype=np.int64),
                        minlength=P).astype(np.int64)
        return pa.table({"part": pa.array(np.arange(P, dtype=np.int64)),
                         "n": pa.array(c)})

    parts = routed.map_batches(count_parts, batch_format="pyarrow").to_pandas()
    counts = (parts.groupby("part")["n"].sum()
              .reindex(range(P), fill_value=0).to_numpy())
    return boundaries, counts


def phase2_local(batch: pa.Table) -> pa.Table:
    """Combine one (key, salt) group's pre-aggregated partials into one row
    (drops the salt column)."""
    import pyarrow.compute as pc
    cols = {}
    for name in batch.column_names:
        if name == "__salt":
            continue
        col = batch.column(name)
        if name.endswith(("_sum", "_count")):
            cols[name] = pa.array([pc.sum(col).as_py()], type=col.type)
        elif name.endswith("_min"):
            cols[name] = pa.array([pc.min(col).as_py()], type=col.type)
        elif name.endswith("_max"):
            cols[name] = pa.array([pc.max(col).as_py()], type=col.type)
        else:  # the key column
            cols[name] = col.slice(0, 1)
    return pa.table(cols)


def _col_hash64(col) -> np.ndarray:
    """uint64 hash of any column for ROUTING (nulls → fixed value;
    grouping downstream is by the real columns, so collisions and the
    null constant only affect placement, never results).  NumPy arrays
    are accepted and hash like the Arrow array of the same dtype."""
    if not isinstance(col, (pa.Array, pa.ChunkedArray)):
        col = pa.array(col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        return xxhash64_array(col.fill_null(""))
    if pa.types.is_floating(t):
        # hash the raw 64-bit pattern — a safe int cast would raise on
        # fractional values.  NaNs are canonicalized first: Arrow's
        # in-bucket grouper treats every NaN payload as ONE group, so
        # differing NaN bit patterns must not route to different buckets
        # (0.0 vs -0.0 stay distinct in Arrow group_by, so their distinct
        # bit patterns are correct as-is).
        vals = col.cast(pa.float64()).fill_null(0.0).to_numpy(
            zero_copy_only=False)
        if np.isnan(vals).any():
            vals = np.where(np.isnan(vals), np.float64("nan"), vals)
        return fmix64(vals.view(np.uint64))
    if pa.types.is_uint64(t):
        # the bit pattern directly: token/shingle hashes use all 64 bits,
        # and below 2^63 (null → all ones) it equals the int64 path's
        return fmix64(col.fill_null(np.iinfo(np.uint64).max).to_numpy(
            zero_copy_only=False))
    vals = col.cast(pa.int64()).fill_null(-1).to_numpy(zero_copy_only=False)
    return fmix64(vals.view(np.uint64))


_PHI = np.uint64(0x9E3779B97F4A7C15)
_ROUTE = "__xbucket"


def bucket_of(*cols, num_buckets: int) -> np.ndarray:
    """The one routing hash: int64 bucket ids in ``[0, num_buckets)`` of
    the key tuple ``cols`` (Arrow or NumPy columns of equal length).  A
    value's bucket depends only on the value — never on its batch, its
    chunking or the other rows — so every dataset routed by the same key
    columns co-locates equal keys."""
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    for col in cols:
        h = fmix64(h * _PHI + _col_hash64(col))
    return (h % np.uint64(num_buckets)).astype(np.int64)


def exchange(ds, fold, keys, num_buckets: int):
    """One keyed exchange: route every row by :func:`bucket_of` over the
    ``keys`` column(s), shuffle, and call ``fold(table)`` once per bucket
    with all of that bucket's rows (routing column already dropped).
    Equal keys always meet in one call; a bucket holds many keys, so the
    fold groups by the real columns itself.  Join-shaped callers tag each
    side and pass ``a.union(b)``."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    B = int(num_buckets)

    def route(batch: pa.Table) -> pa.Table:
        return batch.append_column(_ROUTE, pa.array(bucket_of(
            *(batch.column(k) for k in keys), num_buckets=B)))

    def run(group: pa.Table) -> pa.Table:
        return fold(group.drop_columns([_ROUTE]))

    return (ds.map_batches(route, batch_format="pyarrow")
            .groupby(_ROUTE)
            .map_groups(run, batch_format="pyarrow"))


def _null_fill_scalar(t):
    """An arbitrary valid fill value for ``t`` (used only while a null
    flag column preserves the real null/non-null distinction)."""
    import pyarrow as _pa
    if (_pa.types.is_string(t) or _pa.types.is_large_string(t)
            or _pa.types.is_binary(t) or _pa.types.is_large_binary(t)):
        return pa.scalar("", t) if not _pa.types.is_binary(t) and \
            not _pa.types.is_large_binary(t) else pa.scalar(b"", t)
    return pa.scalar(0, t) if not _pa.types.is_floating(t) else \
        pa.scalar(0.0, t)


def bucketed_agg(ds, key_cols: list[str],
                 aggs: list[tuple[str, str, str]], num_buckets: int = 64,
                 combine_local: bool = False):
    """``groupby(key_cols).aggregate(...)`` as ONE exchange keyed by a
    single small-int hash bucket + an exact in-bucket Arrow
    ``group_by`` — Ray Data's sort-based exchange pays for SORT-KEY
    SHAPE (multi-column / string keys cost several × a 1-int key; see
    BASELINE.md "Shuffle-key-shape A/Bs"), while in-bucket grouping by
    the real columns is a C++ hash aggregation.

    ``aggs``: [(input_col, fn, output_name)] with fn in
    sum/min/max/count — decomposable aggregates only; buckets partition
    the key space, so per-bucket results are globally exact for any
    input partitioning.

    Null keys are supported and aggregate as ONE group per SQL
    semantics — but NOT by passing them to ``Table.group_by``: pyarrow
    16.1's MULTI-key grouper splits null-key groups size-dependently
    (~one group per exec segment; single-key grouping merges them —
    verified empirically, see tests), so nullable key columns are
    grouped as (filled value, is-null flag) pairs and the nulls are
    restored afterwards.

    ``combine_local=True`` adds a MAP-SIDE partial aggregate per block
    before the exchange (count partials re-sum in the bucket), so the
    shuffle carries ≤ one row per (block, key) instead of every input
    row — the combiner rule.  Opt in when per-block key cardinality is
    well below block size (grouped counts over categorical keys); skip
    for near-unique keys where the local pass is wasted work.  The
    size-dependent null-key split is harmless here: split partials are
    still exact partials and re-merge in the bucket.
    """
    import pyarrow.compute as pc

    keys = list(key_cols)

    def local(batch: pa.Table) -> pa.Table:
        # columns come back as [*keys, f"{c}_{fn}"...]
        return batch.group_by(keys).aggregate([(c, fn) for c, fn, _ in aggs])

    # in-bucket plan: raw rows aggregate with the caller's fns; local
    # partials re-combine with sum for sum/count and the same fn for
    # min/max (all four are decomposable)
    if combine_local:
        final_aggs = [(f"{c}_{fn}", "sum" if fn in ("sum", "count")
                       else fn) for c, fn, _ in aggs]
    else:
        final_aggs = [(c, fn) for c, fn, _ in aggs]

    def combine(group: pa.Table) -> pa.Table:
        work = group
        flags = []                      # (key, flag-col) for nullable keys
        for k in keys:
            col = work.column(k)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if col.null_count:
                f = f"__isnull_{k}"
                work = work.append_column(f, col.is_null())
                i = work.schema.get_field_index(k)
                work = work.set_column(
                    i, k, col.fill_null(_null_fill_scalar(col.type)))
                flags.append((k, f))
        g = (work.group_by(keys + [f for _, f in flags])
             .aggregate(final_aggs))
        for k, f in flags:              # restore nulls from the flags
            i = g.schema.get_field_index(k)
            g = g.set_column(i, k, pc.if_else(
                g.column(f), pa.scalar(None, g.schema.field(i).type),
                g.column(k)))
        if flags:
            g = g.drop_columns([f for _, f in flags])
        return g.rename_columns(keys + [out for _, _, out in aggs])

    if combine_local:
        ds = ds.map_batches(local, batch_format="pyarrow")
    return exchange(ds, combine, keys, num_buckets)


def bucketed_sum(ds, key_cols: list[str], sum_cols: dict[str, str],
                 num_buckets: int = 64, combine_local: bool = False):
    """:func:`bucketed_agg` specialization: {input_col: output_name}
    all summed."""
    return bucketed_agg(ds, key_cols,
                        [(c, "sum", out) for c, out in sum_cols.items()],
                        num_buckets=num_buckets,
                        combine_local=combine_local)


def zorder_key(ds, cols: list[str], bits: int = 16, out_col: str = "zkey",
               num_partitions: int | None = None,
               part_col: str = "zpart"):
    """Z-order (Morton) interleave of ``d = len(cols)`` integer columns
    into one locality-preserving sort/partition key — the multi-dim
    data-layout primitive for 100-TB scans: files clustered by ``zkey``
    let a reader prune on range predicates over ANY of the d columns,
    not just a lexicographic prefix.

    Each input must lie in ``[0, 2**bits)`` (caller pre-quantizes;
    violations raise loudly — silent masking would corrupt locality).
    Bit i of column j lands at position ``i*d + j`` (column 0 least
    significant), so ``d*bits`` must fit 63 bits.  With
    ``num_partitions`` also emits ``part_col = (zkey * P) >> (d*bits)``
    — an equi-WIDTH range split of the z-space (P a power of two gives
    perfect prefix buckets).  Pure per-batch vectorized map: the loop
    is over ``bits`` (≤ 16 iterations of whole-array ops), never rows.
    """
    d = len(cols)
    bits = int(bits)
    if d * bits > 63:
        raise ValueError(f"zorder_key: {d} cols x {bits} bits > 63")
    P = int(num_partitions) if num_partitions else None
    if P is not None and d * bits + max(P - 1, 1).bit_length() > 62:
        raise ValueError("zorder_key: num_partitions overflows int64")
    lim = np.int64(1) << np.int64(bits)

    def interleave(batch: pa.Table) -> pa.Table:
        z = np.zeros(len(batch), dtype=np.int64)
        for j, c in enumerate(cols):
            x = np.asarray(batch.column(c), dtype=np.int64)
            if len(x) and (x.min() < 0 or x.max() >= lim):
                raise ValueError(
                    f"zorder_key: {c} outside [0, 2^{bits})")
            for i in range(bits):
                z |= ((x >> np.int64(i)) & np.int64(1)) \
                    << np.int64(i * d + j)
        out = batch.append_column(out_col, pa.array(z))
        if P is not None:
            out = out.append_column(part_col, pa.array(
                (z * np.int64(P)) >> np.int64(d * bits)))
        return out

    return ds.map_batches(interleave, batch_format="pyarrow")
