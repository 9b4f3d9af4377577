"""Data-quality / migration-audit operators.

``dataset_checksum`` — an ORDER-INDEPENDENT content checksum of selected
columns: per-row 64-bit digest (md5-derived, so any ANSI SQL engine can
recompute it), wrapping-summed per batch and reduced to one row.  Because
addition mod 2^63 is commutative, the checksum is invariant to row
order, partitioning, and execution plan — the cheap way to verify that a
copy / migration / rewrite preserved content at 100 TB without a sort or
a shuffle (partials are single integers per batch).

``extract_fields`` — vectorized RE2 named-group scraping of a text
column into typed columns (log parsing, scraping semi-structured text);
DuckDB's regexp_extract replays it exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bqf_ray.stages.partition import exchange

_MOD = 1 << 63


def dataset_checksum(ds, cols: list[str], sep: str = "\x1f"):
    """One-row Dataset ``(n_rows, checksum)``: checksum = Σ row_digest
    mod 2^63 where ``row_digest = md5_hash64(enc(col1) || sep ||
    enc(col2) ...)`` and ``enc(v) = length(v) || ':' || v`` (``'N'`` for
    null).  The length prefix makes cell boundaries unambiguous — values
    containing the separator byte cannot alias across columns, and null
    is distinct from every string.  Order/partitioning-invariant by
    construction."""
    from bqf_ray.functions.hashing import md5_hash64_array

    def pre(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"pn": pa.array([], pa.int64()),
                             "psum": pa.array([], pa.int64())})
        parts = []
        for c in cols:
            s = pc.cast(batch.column(c), pa.string())
            ln = pc.cast(pc.utf8_length(s), pa.string())
            enc = pc.binary_join_element_wise(ln, s, ":")
            parts.append(pc.fill_null(enc, "N"))
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, sep)
        h = md5_hash64_array(joined)
        total = int(h.astype(object).sum()) % _MOD   # python ints: no wrap
        return pa.table({"pn": pa.array([len(batch)], pa.int64()),
                         "psum": pa.array([total], pa.int64())})

    rows = ds.map_batches(pre, batch_format="pyarrow").take_all()
    n = sum(int(r["pn"]) for r in rows)
    s = sum(int(r["psum"]) for r in rows) % _MOD
    import ray
    return ray.data.from_arrow(pa.table({
        "n_rows": pa.array([n], pa.int64()),
        "checksum": pa.array([s], pa.int64())}))


def table_diff(ds_a, ds_b, cols: list[str], num_buckets: int = 64,
               sep: str = "\x1f"):
    """Multiset diff of two datasets over ``cols`` (``EXCEPT ALL`` in
    both directions at once): one output row per distinct row-content
    whose multiplicity differs, as ``(cols..., n_a, n_b)``.  The
    companion to :func:`dataset_checksum` — the checksum says *whether*
    a migration changed content; this says *what* changed.

    Scale shape: each side pre-aggregates per batch (row-content keyed
    on two independent xxhash64s of the length-prefixed cell encoding —
    a 128-bit key, so cross-content collisions are negligible at 10^12
    rows), then the union of the per-batch partials rides ONE
    hash-bucketed exchange.  The exchange carries per-batch-DISTINCT
    rows + two int64 counts, never raw duplicates; identical content on
    both sides cancels at the reduce and never reaches the output."""
    import ray

    from bqf_ray.functions.hashing import xxhash64_array

    def _encode(batch: pa.Table) -> pa.Array:
        parts = []
        for c in cols:
            s = pc.cast(batch.column(c), pa.string())
            ln = pc.cast(pc.utf8_length(s), pa.string())
            enc = pc.binary_join_element_wise(ln, s, ":")
            parts.append(pc.fill_null(enc, "N"))
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, sep)
        return joined

    def _pre(side: int):
        def pre(batch: pa.Table) -> pa.Table:
            batch = batch.select(cols)
            if len(batch) == 0:
                empty = {c: batch.column(c) for c in cols}
                z = pa.array([], pa.int64())
                return pa.table({"__h1": z, "__h2": z, **empty,
                                 "pa_": z, "pb_": z})
            enc = _encode(batch)
            h1 = xxhash64_array(enc, seed=0x517CC1B7)
            h2 = xxhash64_array(enc, seed=0xA76BCF3D)
            order = np.lexsort((h2.view(np.int64), h1.view(np.int64)))
            h1s, h2s = h1[order], h2[order]
            new = np.ones(len(order), dtype=bool)
            new[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
            starts = np.flatnonzero(new)
            cnt = np.diff(np.concatenate([starts, [len(order)]]))
            rep = batch.take(pa.array(order[starts], pa.int64()))
            n = cnt.astype(np.int64)
            zero = np.zeros(len(starts), dtype=np.int64)
            return pa.table({
                "__h1": pa.array(h1s[starts].view(np.int64)),
                "__h2": pa.array(h2s[starts].view(np.int64)),
                **{c: rep.column(c) for c in cols},
                "pa_": pa.array(n if side == 0 else zero),
                "pb_": pa.array(n if side == 1 else zero),
            })
        return pre

    def reduce_bucket(group: pa.Table) -> pa.Table:
        import pandas as pd
        h1 = np.asarray(group.column("__h1"), dtype=np.int64)
        h2 = np.asarray(group.column("__h2"), dtype=np.int64)
        codes, _ = pd.factorize(
            pd.MultiIndex.from_arrays([h1, h2]), sort=False)
        nuniq = codes.max() + 1 if len(codes) else 0
        na = np.zeros(nuniq, dtype=np.int64)
        nb = np.zeros(nuniq, dtype=np.int64)
        np.add.at(na, codes, np.asarray(group.column("pa_"), np.int64))
        np.add.at(nb, codes, np.asarray(group.column("pb_"), np.int64))
        first = np.full(nuniq, -1, dtype=np.int64)
        seen = np.zeros(nuniq, dtype=bool)
        idx = np.arange(len(codes))
        # first occurrence per code: reverse-scatter so earliest wins
        first[codes[::-1]] = idx[::-1]
        seen[codes] = True
        keep = np.flatnonzero(seen & (na != nb))
        rep = group.select(cols).take(pa.array(first[keep], pa.int64()))
        return pa.table({**{c: rep.column(c) for c in cols},
                         "n_a": pa.array(na[keep]),
                         "n_b": pa.array(nb[keep])})

    both = (ds_a.map_batches(_pre(0), batch_format="pyarrow")
            .union(ds_b.map_batches(_pre(1), batch_format="pyarrow")))
    return exchange(both, reduce_bucket, "__h1", num_buckets)


def extract_fields(ds, pattern: str, fields: dict[str, str],
                   text_col: str = "text", keep: list[str] | None = None):
    """Scrape ``fields`` (name → arrow type name: 'string' | 'int64' |
    'float64') out of ``text_col`` with ONE vectorized RE2 pass.  The
    pattern must use named groups matching ``fields`` keys; rows that
    don't match yield nulls (SQL regexp_extract's '' → NULL via NULLIF).
    Stateless single pass."""
    types = {"string": pa.string(), "int64": pa.int64(),
             "float64": pa.float64()}

    def fn(batch: pa.Table) -> pa.Table:
        t = batch.column(text_col)
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        ex = pc.extract_regex(t, pattern)
        if isinstance(ex, pa.ChunkedArray):
            ex = ex.combine_chunks()
        # flatten() merges the parent (no-match) validity into children;
        # .field() would leave '' placeholders that break numeric casts
        flat = ex.flatten()
        names = [ex.type.field(i).name for i in range(ex.type.num_fields)]
        out = {c: batch.column(c) for c in (keep or [])}
        for name, typ in fields.items():
            col = flat[names.index(name)]
            out[name] = pc.cast(col, types[typ])
        return pa.table(out)

    return ds.map_batches(fn, batch_format="pyarrow")


def duplicate_keys(ds, key_cols: list[str], min_count: int = 2,
                   count_name: str = "n", num_buckets: int = 64):
    """Uniqueness-constraint audit: key tuples appearing ≥ ``min_count``
    times, with their multiplicities — the pre-merge integrity check
    every CDC/join pipeline needs (a duplicate join key silently
    multiplies rows downstream).  One map-side-combined bucket
    exchange; output ``(key_cols..., count_name)``."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from bqf_ray.stages.partition import bucketed_sum

    def one(batch: pa.Table) -> pa.Table:
        cols = {c: batch.column(c) for c in key_cols}
        cols["__one"] = pa.array(np.ones(len(batch), dtype=np.int64))
        return pa.table(cols)

    counts = bucketed_sum(ds.map_batches(one, batch_format="pyarrow"),
                          list(key_cols), {"__one": count_name},
                          num_buckets=num_buckets, combine_local=True)
    thr = int(min_count)

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch.column(count_name),
                                             pa.scalar(thr)))

    return counts.map_batches(keep, batch_format="pyarrow")


def _key_codes(k) -> "np.ndarray":
    """Integer group codes for ANY Arrow key column, null-safe: nulls
    code as -1 (one group).  np.unique on an object array raises
    TypeError comparing None with values — dictionary_encode doesn't."""
    import numpy as np
    import pyarrow as _pa
    if isinstance(k, _pa.ChunkedArray):
        k = k.combine_chunks()
    de = k.dictionary_encode()
    return np.asarray(de.indices.fill_null(-1), dtype=np.int64)


def grouped_checksum(ds, key_col: str, cols: list[str],
                     sep: str = "\x1f", num_buckets: int = 32):
    """Per-KEY order-invariant checksums — the incremental-sync
    companion to :func:`dataset_checksum`: one ``(key, n_rows,
    checksum)`` row per key lets two replicas agree on WHICH key
    ranges differ and re-ship only those, instead of one
    whole-dataset verdict.  Same cell encoding (length-prefixed,
    null-safe) and digest-sum-mod-2^63 rule, computed per key: each
    batch emits per-key partials (object-int sums — exact, the
    :func:`dataset_checksum` rule), ONE key-bucketed exchange folds
    them."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from bqf_ray.functions.hashing import md5_hash64_array

    def pre(batch: pa.Table) -> pa.Table:
        k = batch.column(key_col)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        if len(batch) == 0:
            return pa.table({key_col: k.slice(0, 0),
                             "pn": pa.array([], pa.int64()),
                             "psum": pa.array([], pa.int64())})
        parts = []
        for c in cols:
            s = pc.cast(batch.column(c), pa.string())
            ln = pc.cast(pc.utf8_length(s), pa.string())
            enc = pc.binary_join_element_wise(ln, s, ":")
            parts.append(pc.fill_null(enc, "N"))
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, sep)
        h = md5_hash64_array(joined).astype(object)
        kc = _key_codes(k)
        order = np.argsort(kc, kind="stable")
        kc_s, h_s = kc[order], h[order]
        new = np.r_[True, kc_s[1:] != kc_s[:-1]]
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(kc_s)))
        sums = np.add.reduceat(h_s, starts)
        psum = np.array([int(x) % _MOD for x in sums], dtype=np.int64)
        return pa.table({key_col: k.take(pa.array(order[starts])),
                         "pn": pa.array(lens.astype(np.int64)),
                         "psum": pa.array(psum)})

    def fold(g: pa.Table) -> pa.Table:
        k = g.column(key_col)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        if not g.num_rows:
            return pa.table({key_col: k.slice(0, 0),
                             "n_rows": pa.array([], pa.int64()),
                             "checksum": pa.array([], pa.int64())})
        kc = _key_codes(k)
        pn = np.asarray(g.column("pn"), dtype=np.int64)
        ps = np.asarray(g.column("psum"), dtype=np.int64).astype(object)
        order = np.argsort(kc, kind="stable")
        kc_s = kc[order]
        new = np.r_[True, kc_s[1:] != kc_s[:-1]]
        starts = np.flatnonzero(new)
        n = np.add.reduceat(pn[order], starts)
        sums = np.add.reduceat(ps[order], starts)
        cs = np.array([int(x) % _MOD for x in sums], dtype=np.int64)
        return pa.table({key_col: k.take(pa.array(order[starts])),
                         "n_rows": pa.array(n.astype(np.int64)),
                         "checksum": pa.array(cs)})

    return exchange(ds.map_batches(pre, batch_format="pyarrow"), fold,
                    key_col, num_buckets)


def validate_rows(ds, rules, id_cols: list[str]):
    """Validation / quarantine split: rows violating ANY rule, with a
    ``reasons`` column naming every rule they trip (comma-joined in
    the rules' given order) — the dead-letter side of a
    validate-then-route ingestion stage.

    ``rules`` is an ordered list of ``(name, fn)`` where ``fn(batch:
    pa.Table) -> np.ndarray[bool]`` marks VIOLATIONS.  Stateless
    zero-shuffle pass; reason strings assemble via a 2^k lookup table
    (k = len(rules) ≤ 16), never a per-row Python loop.  Clean rows
    are simply dropped — route them separately with the inverse filter
    when a pipeline needs both halves."""
    if not 0 < len(rules) <= 16:
        raise ValueError("1..16 rules required")
    names = [n for n, _ in rules]
    if len(set(names)) != len(names):
        raise ValueError("duplicate rule names")
    lookup = np.array([",".join(n for i, n in enumerate(names)
                                if code >> i & 1)
                       for code in range(1 << len(names))], dtype=object)

    def split(batch: pa.Table) -> pa.Table:
        codes = np.zeros(len(batch), dtype=np.int64)
        for i, (_, fn) in enumerate(rules):
            m = np.asarray(fn(batch), dtype=bool)
            if m.shape != (len(batch),):
                raise ValueError(f"rule {names[i]!r} returned shape "
                                 f"{m.shape}, want ({len(batch)},)")
            codes |= m.astype(np.int64) << i
        bad = codes > 0
        out = batch.filter(pa.array(bad)).select(id_cols)
        return out.append_column(
            "reasons", pa.array(lookup[codes[bad]], pa.string()))

    return ds.map_batches(split, batch_format="pyarrow")


def benford_digits(ds, value_col: str, scale: int = 100):
    """Leading-digit distribution (Benford's-law audit) of a positive
    numeric column: per digit 1..9 the exact count, the total, and
    ``share = cnt / n`` in one IEEE division.  Values are fixed-point
    scaled (``round(v * scale)``, half-even like SQL's ROUND) so the
    leading digit is taken from an exact integer — the digit comes
    from the decimal STRING on both sides (no float log10 edge).
    Non-positive / null / non-finite values are excluded.  Per-batch
    digit bincounts fold through a single 9-row reduce."""
    import pyarrow.compute as pc

    S = int(scale)

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col)
        keep = pc.is_valid(v)
        if pa.types.is_floating(v.type):
            keep = pc.and_(keep, pc.is_finite(pc.fill_null(v, 0.0)))
        v = pc.multiply(pc.cast(v, pa.float64()), pa.scalar(float(S)))
        cents = pc.round(v, ndigits=0, round_mode="half_to_even")
        keep = pc.and_(keep, pc.greater(pc.fill_null(cents, 0.0),
                                        pa.scalar(0.0)))
        ints = pc.cast(pc.if_else(keep, cents, pa.scalar(0.0)),
                       pa.int64())
        first = pc.utf8_slice_codeunits(pc.cast(ints, pa.string()), 0, 1)
        d = np.asarray(pc.cast(first, pa.int64()))
        d = d[np.asarray(keep, dtype=bool)]
        cnt = np.bincount(d, minlength=10)[1:10].astype(np.int64)
        return pa.table({"digit": pa.array(np.arange(1, 10,
                                                     dtype=np.int64)),
                         "cnt": pa.array(cnt)})

    def fold(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("digit"), dtype=np.int64)
        c = np.asarray(batch.column("cnt"), dtype=np.int64)
        tot = np.zeros(10, dtype=np.int64)
        np.add.at(tot, d, c)
        cnt = tot[1:10]
        n = np.int64(cnt.sum())
        share = (cnt.astype(np.float64) / np.float64(n)) if n \
            else np.zeros(9, dtype=np.float64)
        return pa.table({
            "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
            "cnt": pa.array(cnt),
            "n": pa.array(np.full(9, n)),
            "share": pa.array(share)})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .repartition(1)
            .map_batches(fold, batch_format="pyarrow"))


def fd_discover(ds, cols: list[str], num_buckets: int = 64,
                max_cols: int = 6):
    """Single-level functional-dependency DISCOVERY over a column set:
    for every ordered pair ``det → dep`` of ``cols``, the exact
    satisfaction profile ``(n_total, n_det, n_pairs, violations,
    holds)`` where ``violations`` is the g3-style repair count
    ``Σ_det (n_det_rows − majority_dep_count)`` — 0 iff the FD holds
    exactly — the per-pair check TANE/Metanome run at each lattice
    level (Huhtala et al. 1999), done profile-style for all pairs in
    one corpus pass.

    Plan: ONE exploded corpus exchange — each block emits, per pair,
    its rows as ``(pair_id, det_str, dep_str, 1)`` (values stringified
    injectively; nulls stay null and group as ONE value per SQL
    semantics via ``bucketed_agg``'s null-key handling) with a
    map-side combiner, so the shuffle carries distinct
    (pair, det, dep) triples per block, not p·n rows.  Two further
    exchanges fold counts → per-det majorities → per-pair profiles
    over rapidly-shrinking tables.  The p·(p−1) explosion is the
    operator's cost knob: ``max_cols`` raises loudly past 6 columns
    (30 pairs) — widen explicitly for a deliberate profiling sweep.

    Output: one row per ordered pair, ``(det_col, dep_col, n_total,
    n_det, n_pairs, violations, holds)``."""
    import pyarrow.compute as pc

    from bqf_ray.stages.partition import bucketed_agg, bucketed_sum

    cols = list(cols)
    if len(cols) < 2:
        raise ValueError("fd_discover needs at least 2 columns")
    if len(set(cols)) != len(cols):
        raise ValueError(f"fd_discover: duplicate columns in {cols}")
    if len(cols) > int(max_cols):
        raise ValueError(
            f"fd_discover: {len(cols)} columns = "
            f"{len(cols)*(len(cols)-1)} ordered pairs explode the "
            f"corpus; pass max_cols explicitly for a deliberate sweep")
    pairs = [(a, b) for a in cols for b in cols if a != b]

    def explode(batch: pa.Table) -> pa.Table:
        strs = {c: pc.cast(batch.column(c), pa.string()) for c in cols}
        parts = []
        for pid, (a, b) in enumerate(pairs):
            parts.append(pa.table({
                "pair": pa.array(np.full(len(batch), pid,
                                         dtype=np.int64)),
                "d": strs[a], "e": strs[b],
                "one": pa.array(np.ones(len(batch), dtype=np.int64))}))
        return pa.concat_tables(parts)

    counts = bucketed_sum(ds.map_batches(explode, batch_format="pyarrow"),
                          ["pair", "d", "e"], {"one": "n"},
                          num_buckets=num_buckets, combine_local=True)

    def add_one(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "one", pa.array(np.ones(len(batch), dtype=np.int64)))

    per_det = bucketed_agg(counts.map_batches(add_one,
                                              batch_format="pyarrow"),
                           ["pair", "d"],
                           [("n", "sum", "s"), ("n", "max", "mx"),
                            ("one", "sum", "np_")],
                           num_buckets=num_buckets)

    def viol_prep(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch.column("s"), dtype=np.int64)
        mx = np.asarray(batch.column("mx"), dtype=np.int64)
        return pa.table({
            "pair": batch.column("pair"), "s": pa.array(s),
            "viol": pa.array(s - mx),
            "np_": batch.column("np_"),
            "one": pa.array(np.ones(len(s), dtype=np.int64))})

    per_pair = bucketed_agg(per_det.map_batches(viol_prep,
                                                batch_format="pyarrow"),
                            ["pair"],
                            [("s", "sum", "n_total"),
                             ("one", "sum", "n_det"),
                             ("np_", "sum", "n_pairs"),
                             ("viol", "sum", "violations")],
                            num_buckets=8)

    det_names = pa.array([a for a, _ in pairs], pa.string())
    dep_names = pa.array([b for _, b in pairs], pa.string())

    def finish(batch: pa.Table) -> pa.Table:
        pid = np.asarray(batch.column("pair"), dtype=np.int64)
        viol = np.asarray(batch.column("violations"), dtype=np.int64)
        return pa.table({
            "det_col": det_names.take(pa.array(pid)),
            "dep_col": dep_names.take(pa.array(pid)),
            "n_total": batch.column("n_total"),
            "n_det": batch.column("n_det"),
            "n_pairs": batch.column("n_pairs"),
            "violations": batch.column("violations"),
            "holds": pa.array((viol == 0).astype(np.int64))})

    return per_pair.map_batches(finish, batch_format="pyarrow")


def chi2_cells(ds, a_col: str, b_col: str, num_buckets: int = 32):
    """Per-cell chi-square independence decomposition between two
    categorical columns — the drift/association audit beside
    :func:`column_mi`-style scores, emitted CELL-WISE so every float is
    one fixed-shape IEEE expression (a single global chi² would need a
    cross-cell float SUM whose order no SQL engine pins down).

    For each observed cell (a, b): ``o`` = cell count, ``row_n`` /
    ``col_n`` = marginals, ``n`` = total (all exact int64 from ONE
    (a,b)-bucketed exchange + two tiny marginal folds of the
    cell-sized table), and the cell's chi² term
    ``term = d·d / ((n·row_n)·col_n)`` with
    ``d = o·n − row_n·col_n`` (every product evaluated in double,
    left-associated — bit-matching the SQL replay).  ``Σ term`` over
    the emitted rows is the chi² statistic with
    ``(R−1)(C−1)`` dof; the standardized residual is ``sign(d)·√term``.
    Null values group as their own category on each side (the bucketed
    null-safe grouper)."""
    from bqf_ray.stages.partition import bucketed_agg

    cells = bucketed_agg(
        ds.select_columns([a_col, b_col]),
        [a_col, b_col], [(a_col, "count", "o")],
        num_buckets=num_buckets, combine_local=True)

    def finish(batch: pa.Table) -> pa.Table:
        a = batch.column(a_col)
        b = batch.column(b_col)
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        if isinstance(b, pa.ChunkedArray):
            b = b.combine_chunks()
        o = np.asarray(batch.column("o"), dtype=np.int64)
        # +1: null codes are -1 and would alias the LAST category
        # through negative indexing
        ac = _key_codes(a) + 1
        bc = _key_codes(b) + 1
        ra = np.zeros(int(ac.max()) + 1 if len(ac) else 0,
                      dtype=np.int64)
        np.add.at(ra, ac, o)
        cb = np.zeros(int(bc.max()) + 1 if len(bc) else 0,
                      dtype=np.int64)
        np.add.at(cb, bc, o)
        n = int(o.sum())
        row_n = ra[ac]
        col_n = cb[bc]
        d = o.astype(np.float64) * n - \
            row_n.astype(np.float64) * col_n
        term = d * d / ((float(n) * row_n) * col_n)
        return pa.table({
            a_col: a, b_col: b,
            "o": pa.array(o),
            "row_n": pa.array(row_n),
            "col_n": pa.array(col_n),
            "n": pa.array(np.full(len(o), n, dtype=np.int64)),
            "term": pa.array(term)})

    # the cell table is (|A|·|B|)-sized — one block is the right plan
    return cells.repartition(1).map_batches(finish,
                                            batch_format="pyarrow",
                                            batch_size=None)
