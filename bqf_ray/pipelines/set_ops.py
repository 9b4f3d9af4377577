"""Set-operation cardinalities between two corpora's key sets — exact
AND KMV-estimated in ONE shuffle.

The KMV (bottom-k minimum values) estimators are the textbook ones
(Beyer et al. 2007): with τ = the k-th smallest hash of the UNION
sketch, ``|A∪B| ≈ (k−1)·2^64/τ`` and ``|A∩B| ≈ (|{h < τ present in
both sketches}| / k) · |A∪B|``.  Exact counts ride the same exchange:
each batch ships its batch-distinct ``(key, in_a, in_b)`` rows bucketed
by key hash, so per-bucket distinct/overlap counts ADD exactly while
per-bucket BottomK partials MERGE (both properties hold because a key
lives in exactly one bucket).

Output is one row with the exact values plus bound flags (the
``window_distinct_hll`` oracle pattern): ``union_ok`` / ``inter_ok``
assert the estimates sit within ``sigmas``× the KMV RSE ≈ 1/√(k−2)
(intersection additionally scaled by the match-count binomial error).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bqf_ray.functions.hashing import xxhash64_array
from bqf_ray.functions.tokenize import tokenize_column
from bqf_ray.sketches.sample import BottomK
from bqf_ray.stages.partition import exchange


def token_set_overlap(ds_a, ds_b, text_col: str = "text", k: int = 1024,
                      num_buckets: int = 16, seed: int = 17,
                      sigmas: float = 5.0):
    """Exact + KMV |A|, |B|, |A∩B|, |A∪B| over the distinct-token sets
    of two corpora.  One tokenize pass per side, ONE bucketed shuffle
    total, tiny final merge."""
    def melt(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            toks, _ = tokenize_column(batch.column(text_col))
            uniq = pc.unique(toks)
            h = xxhash64_array(uniq)
            n = len(uniq)
            return pa.table({
                "h": pa.array(h.view(np.int64)),
                "in_a": pa.array(
                    np.full(n, 1 - side, dtype=np.int8)),
                "in_b": pa.array(np.full(n, side, dtype=np.int8))})
        return fn

    def merge_bucket(group: pa.Table) -> pa.Table:
        h = np.asarray(group.column("h"), dtype=np.int64).view(np.uint64)
        ia = np.asarray(group.column("in_a"), dtype=np.int8)
        ib = np.asarray(group.column("in_b"), dtype=np.int8)
        order = np.argsort(h, kind="stable")
        h, ia, ib = h[order], ia[order], ib[order]
        first = np.concatenate([[True], h[1:] != h[:-1]])
        gid = np.cumsum(first) - 1
        n_keys = int(first.sum())
        a_any = np.zeros(n_keys, dtype=np.int8)
        b_any = np.zeros(n_keys, dtype=np.int8)
        np.maximum.at(a_any, gid, ia)
        np.maximum.at(b_any, gid, ib)
        hu = h[first]
        n_a = int((a_any == 1).sum())
        n_b = int((b_any == 1).sum())
        n_inter = int(((a_any == 1) & (b_any == 1)).sum())
        ska, skb = BottomK(k=k, seed=seed), BottomK(k=k, seed=seed)
        ska.update_batch(hu[a_any == 1])
        skb.update_batch(hu[b_any == 1])
        return pa.table({
            "n_a": pa.array([n_a], pa.int64()),
            "n_b": pa.array([n_b], pa.int64()),
            "n_inter": pa.array([n_inter], pa.int64()),
            "n_union": pa.array([n_keys], pa.int64()),
            "blob_a": pa.array([ska.to_bytes()], pa.binary()),
            "blob_b": pa.array([skb.to_bytes()], pa.binary())})

    both = (ds_a.map_batches(melt(0), batch_format="pyarrow")
            .union(ds_b.map_batches(melt(1), batch_format="pyarrow")))
    rows = exchange(both, merge_bucket, "h",
                    num_buckets).take_all()   # ≤ num_buckets tiny rows

    n_a = sum(r["n_a"] for r in rows)
    n_b = sum(r["n_b"] for r in rows)
    n_inter = sum(r["n_inter"] for r in rows)
    n_union = sum(r["n_union"] for r in rows)
    ska = [BottomK.from_bytes(r["blob_a"]) for r in rows]
    skb = [BottomK.from_bytes(r["blob_b"]) for r in rows]
    sa = ska[0].merge_many(ska[1:]) if ska else BottomK(k=k, seed=seed)
    sb = skb[0].merge_many(skb[1:]) if skb else BottomK(k=k, seed=seed)

    # KMV estimators off the two (tiny) sketches, driver-side
    import copy
    su = copy.deepcopy(sa).merge(sb)   # merge never mutates its arg
    union_est = su.estimate()
    kk = min(k, len(su._hashes))
    if kk:
        tau = su._hashes[kk - 1]
        a_set = sa._hashes[sa._hashes <= tau]
        b_set = set(sb._hashes[sb._hashes <= tau].tolist())
        matches = sum(1 for x in a_set.tolist() if x in b_set)
        inter_est = (matches / kk) * union_est
    else:
        inter_est = 0.0

    rse = 1.0 / np.sqrt(max(k - 2, 1))
    union_ok = abs(union_est - n_union) <= sigmas * rse * max(n_union, 1)
    # intersection adds binomial error on the match fraction
    j = n_inter / max(n_union, 1)
    inter_sd = np.sqrt(max(j * (1 - j), 1e-12) / max(kk, 1))
    inter_ok = abs(inter_est - n_inter) <= \
        (sigmas * rse * j + sigmas * inter_sd + 2.0 / max(kk, 1)) \
        * max(n_union, 1)

    import pandas as pd
    return pd.DataFrame({
        "n_a": np.array([n_a], dtype=np.int64),
        "n_b": np.array([n_b], dtype=np.int64),
        "n_inter": np.array([n_inter], dtype=np.int64),
        "n_union": np.array([n_union], dtype=np.int64),
        "union_ok": [bool(union_ok)],
        "inter_ok": [bool(inter_ok)]})
