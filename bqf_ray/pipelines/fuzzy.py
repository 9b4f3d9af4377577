"""Fuzzy string matching: all pairs of distinct values within Levenshtein
distance 1 (record linkage / entity resolution over name-like columns).

Plan — deletion-neighborhood blocking (FastSS, Bocek et al. 2007) with
exact verification, fully distributed:

1. distinct values (per-batch unique + one native groupby, the
   ``distinct_values`` shape);
2. explode each value into its deletion neighborhood ``D(s) = {s} ∪
   {s minus byte i}``: if ``lev(x, y) <= 1`` then ``D(x) ∩ D(y) != ∅``
   (substitution at i → both sides delete i; indel → the shorter string
   IS a variant of the longer).  Neighborhood keys travel as xxh64
   hashes, not strings — collisions only merge candidate buckets and the
   verifier keeps the result exact;
3. one ``exchange`` on ``key`` co-locates candidates
   into a BOUNDED number of buckets (a per-variant-key groupby would
   mean one Python group call per distinct variant — hundreds of
   thousands of tiny groups); inside each bucket, key runs are found by
   one argsort, pairs expand per run-length class (triu), and a single
   chunked byte-matrix kernel verifies ``lev <= 1`` exactly (no
   per-pair, no per-key Python), emitting only true pairs;
4. one tiny ``groupby(val_a, val_b)`` dedupes pairs discovered through
   several shared variants (string-keyed — no packed-int aliasing).

Cost: a value of length L emits L+1 keys, so the exchange carries
O(total bytes × L) — the standard FastSS trade, right for short entity
strings (names, titles, SKUs); ``max_len`` guards against feeding it
document-sized text.  Buckets are {values sharing one variant}, tiny on
real data; the verify kernel chunks its pair matrix so a hot bucket
degrades to more chunks, never a silent drop.

Distances are BYTE-level (UTF-8): identical to character Levenshtein on
ASCII data; multi-byte text can split code points in variants, which
only widens candidate buckets — the verifier is byte-exact either way.

The reference has no string-similarity operators (SURVEY.md §2.4); this
is an engine-defined addition in the dedup/near-match family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bqf_ray.functions.hashing import _pad_rows, _xxh64_padded
from bqf_ray.stages.partition import exchange


def _bytes_matrix(values: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(padded (n, W32) uint8 matrix, lens int64) for a string array."""
    b = pc.cast(values, pa.large_binary()).combine_chunks() \
        if isinstance(values, pa.ChunkedArray) else values.cast(pa.large_binary())
    buf = np.frombuffer(b.buffers()[2], dtype=np.uint8) \
        if b.buffers()[2] is not None else np.empty(0, dtype=np.uint8)
    offs = np.frombuffer(b.buffers()[1], dtype=np.int64)[b.offset:
                                                         b.offset + len(b) + 1]
    lens = (offs[1:] - offs[:-1]).astype(np.int64)
    W = int(lens.max()) if len(lens) else 0
    W32 = ((W + 31) // 32) * 32
    return _pad_rows(buf, offs[:-1].astype(np.int64), lens, W32), lens


def _deletion_keys(values: pa.Array, max_len: int) -> tuple[np.ndarray,
                                                            np.ndarray]:
    """(row_idx, key) for every deletion-neighborhood member of every
    value: the value itself plus each single-byte deletion.  Vectorized
    per (length, deleted-position) slice — Python loops run over byte
    positions, never rows."""
    mat, lens = _bytes_matrix(values)
    n = len(lens)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    rows = [np.arange(n, dtype=np.int64)]
    keys = [_xxh64_padded(mat, lens, seed=0)]
    W32 = mat.shape[1]
    for i in range(min(int(lens.max()), max_len)):
        sel = np.nonzero(lens > i)[0]
        if len(sel) == 0:
            break
        sub = mat[sel]
        var = np.zeros((len(sel), W32), dtype=np.uint8)
        var[:, :i] = sub[:, :i]
        var[:, i:W32 - 1] = sub[:, i + 1:]
        rows.append(sel)
        keys.append(_xxh64_padded(var, lens[sel] - 1, seed=0))
    return np.concatenate(rows), np.concatenate(keys)


def lev_le1_mask(a: pa.Array, b: pa.Array) -> np.ndarray:
    """Vectorized exact ``levenshtein(a[i], b[i]) <= 1`` over paired
    string arrays (byte-level).  No per-pair Python."""
    A, la = _bytes_matrix(a)
    B, lb = _bytes_matrix(b)
    n = len(la)
    if n == 0:
        return np.zeros(0, dtype=bool)
    W = max(A.shape[1], B.shape[1])
    if A.shape[1] < W:
        A = np.pad(A, ((0, 0), (0, W - A.shape[1])))
    if B.shape[1] < W:
        B = np.pad(B, ((0, 0), (0, W - B.shape[1])))
    out = np.zeros(n, dtype=bool)
    d = la - lb
    pos = np.arange(W, dtype=np.int64)

    eq_len = d == 0
    if eq_len.any():
        mism = ((A[eq_len] != B[eq_len])
                & (pos < la[eq_len, None])).sum(axis=1)
        out[eq_len] = mism <= 1

    one = np.abs(d) == 1
    if one.any():
        # orient so X is the longer string, Y the shorter
        idx = np.nonzero(one)[0]
        longer_is_a = d[idx] > 0
        X = np.where(longer_is_a[:, None], A[idx], B[idx])
        Y = np.where(longer_is_a[:, None], B[idx], A[idx])
        m = np.maximum(la[idx], lb[idx])      # len(X); len(Y) = m - 1
        ly = m - 1
        # k = first mismatch of X[:ly] vs Y[:ly]; k == ly means the
        # extra byte is at the end (always a valid deletion)
        neq = (X != Y) & (pos < ly[:, None])
        any_neq = neq.any(axis=1)
        k = np.where(any_neq, neq.argmax(axis=1), ly)
        # after deleting X[k], need X[k+1 : m] == Y[k : m-1]:
        # with shifted eq2[j] = (X[j+1] == Y[j]), require all j in [k, ly)
        eq2 = (X[:, 1:] == Y[:, :-1]) | (pos[None, : W - 1] >= ly[:, None])
        suff_ok = np.flip(np.cumprod(np.flip(eq2, axis=1), axis=1,
                                     dtype=bool), axis=1)
        at_end = k >= ly
        kk = np.minimum(k, W - 2) if W >= 2 else k * 0
        out[idx] = at_end | suff_ok[np.arange(len(idx)), kk]
    return out


def edit1_pairs(ds, col: str, max_len: int = 64, num_buckets: int = 128):
    """Dataset of ``(val_a, val_b)`` — every unordered pair of DISTINCT
    non-null values of ``col`` (length ≤ ``max_len``) with Levenshtein
    distance exactly 1.  See module docstring for the plan."""
    from ray.data.aggregate import Count

    def uniq(batch: pa.Table) -> pa.Table:
        v = batch.column(col)
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        v = v.drop_null()
        v = v.filter(pc.less_equal(pc.binary_length(
            v.cast(pa.large_binary())), max_len))
        return pa.table({"val": pc.unique(v)})

    distinct = (ds.map_batches(uniq, batch_format="pyarrow")
                .groupby("val").aggregate(Count(alias_name="__c"))
                .drop_columns(["__c"]))

    def explode(batch: pa.Table) -> pa.Table:
        v = batch.column("val")
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        rows, keys = _deletion_keys(v, max_len)
        # distinct (row, key): several deletion positions can yield the
        # same variant string (runs of equal bytes) — one survives, so
        # (val, key) rows are globally unique (vals are distinct here)
        order = np.lexsort((rows, keys))
        rows, keys = rows[order], keys[order]
        first = np.concatenate([[True], (keys[1:] != keys[:-1])
                                | (rows[1:] != rows[:-1])])
        rows, keys = rows[first], keys[first]
        return pa.table({"val": v.take(pa.array(rows)),
                         "key": pa.array(keys.view(np.int64))})

    def verify_bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({"val_a": pa.array([], pa.string()),
                          "val_b": pa.array([], pa.string())})
        keys = np.asarray(group.column("key"), dtype=np.int64)
        vals = group.column("val")
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        new = np.concatenate([[True], keys_s[1:] != keys_s[:-1]])
        starts = np.flatnonzero(new)
        lens = np.diff(np.concatenate([starts, [len(keys_s)]]))
        cand_a, cand_b = [], []
        # per run-length class: one vectorized triu expansion
        for L in np.unique(lens[lens > 1]):
            sel = starts[lens == L]
            idx = sel[:, None] + np.arange(L)[None, :]     # (runs, L)
            rows = order[idx]
            ii, jj = np.triu_indices(L, 1)
            cand_a.append(rows[:, ii].reshape(-1))
            cand_b.append(rows[:, jj].reshape(-1))
        if not cand_a:
            return empty
        ia = np.concatenate(cand_a)
        ib = np.concatenate(cand_b)
        outs = []
        CH = 1 << 20        # verify in bounded-RAM chunks
        for s in range(0, len(ia), CH):
            a = vals.take(pa.array(ia[s:s + CH]))
            b = vals.take(pa.array(ib[s:s + CH]))
            ok = lev_le1_mask(a, b)
            if ok.any():
                sel = pa.array(np.nonzero(ok)[0])
                a, b = a.take(sel), b.take(sel)
                lt = pc.less(a, b)     # canonical order for global dedupe
                outs.append(pa.table({"val_a": pc.if_else(lt, a, b),
                                      "val_b": pc.if_else(lt, b, a)}))
        if not outs:
            return empty
        # in-bucket pre-dedupe shrinks the final exchange
        return (pa.concat_tables(outs)
                .group_by(["val_a", "val_b"]).aggregate([])
                .select(["val_a", "val_b"]))

    def dedupe_bucket(group: pa.Table) -> pa.Table:
        return (group.group_by(["val_a", "val_b"]).aggregate([])
                .select(["val_a", "val_b"]))

    # A lev≤1 pair has exactly ONE shared deletion-variant string (the
    # deletion at the mismatch position / the shorter string itself),
    # so cross-bucket duplicates exist only via 64-bit key collisions —
    # the global dedupe must stay for exactness, but it only needs a
    # 1-int pair-hash exchange + in-bucket group_by, NOT a 27M-row
    # two-string-column distributed sort (the dominant cost at the
    # 1M-name stress scale).
    cand = exchange(distinct.map_batches(explode, batch_format="pyarrow"),
                    verify_bucket, "key", num_buckets)
    return exchange(cand, dedupe_bucket, ["val_a", "val_b"], num_buckets)
