"""Text-analysis operators: doc stats, language id, quality scoring,
content fingerprints.  All vectorized `map_batches` stages over Arrow.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bqf_ray.functions.hashing import xxhash64_array
from bqf_ray.functions.tokenize import tokenize_column
from bqf_ray.plans import plan_log
from bqf_ray.sources.pages import LANG_CORE
from bqf_ray.stages.partition import exchange


def doc_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(id, n_chars, n_tokens, avg_token_len) — SQL-oracle-checkable."""

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col)
        n_chars = pc.utf8_length(texts).cast(pa.int64())
        toks, offs = tokenize_column(texts)
        n_tokens = np.diff(offs).astype(np.int64)
        tok_lens = np.asarray(pc.utf8_length(toks), dtype=np.int64) \
            if len(toks) else np.empty(0, dtype=np.int64)
        sums = np.zeros(len(batch), dtype=np.int64)
        if len(tok_lens):
            did = np.repeat(np.arange(len(batch)), n_tokens)
            np.add.at(sums, did, tok_lens)
        avg = np.where(n_tokens > 0, sums / np.maximum(n_tokens, 1), 0.0)
        return pa.table({
            id_col: batch.column(id_col),
            "n_chars": n_chars,
            "n_tokens": pa.array(n_tokens),
            "avg_token_len": pa.array(avg, pa.float64()),
        })

    return ds.map_batches(stats, batch_format="pyarrow")


class LangId:
    """Actor-pool language-id stage: per-language core-word hit ratio,
    argmax with deterministic tie-break (language list order, then 'und').

    State (per-language hashed lexicons) is built once per actor in
    __init__, per the actor-pool pattern."""

    LANGS = list(LANG_CORE)

    def __init__(self, text_col: str = "text", min_hits: float = 0.05):
        self.text_col = text_col
        self.min_hits = min_hits
        self.lex = {lang: np.sort(xxhash64_array(words))
                    for lang, words in LANG_CORE.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        from bqf_ray.functions.tokenize import token_hashes
        th, offs = token_hashes(batch.column(self.text_col))
        n_docs = len(offs) - 1
        n_tok = np.diff(offs).astype(np.int64)
        did = np.repeat(np.arange(n_docs), n_tok)
        scores = np.zeros((n_docs, len(self.LANGS)), dtype=np.float64)
        for li, lang in enumerate(self.LANGS):
            lex = self.lex[lang]
            pos = np.searchsorted(lex, th)
            hit = (pos < len(lex))
            posc = np.minimum(pos, len(lex) - 1)
            hit &= lex[posc] == th
            hits = np.zeros(n_docs, dtype=np.int64)
            if hit.any():
                np.add.at(hits, did[hit], 1)
            scores[:, li] = hits / np.maximum(n_tok, 1)
        best = np.argmax(scores, axis=1)
        best_score = scores[np.arange(n_docs), best]
        langs = np.array(self.LANGS, dtype=object)[best]
        langs[best_score < self.min_hits] = "und"
        return batch.append_column("pred_lang", pa.array(langs.tolist(),
                                                         pa.string())) \
                    .append_column("lang_score", pa.array(best_score))


_STOPWORDS = LANG_CORE["en"]


class QualityScore:
    """Heuristic quality score in [0,1]: doc-length band, mean token
    length band, stopword presence, alpha ratio — the usual web-text
    quality signals, deterministic and vectorized."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.stop = np.sort(xxhash64_array(_STOPWORDS))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from bqf_ray.functions.tokenize import token_hashes
        texts = batch.column(self.text_col)
        n = len(batch)
        th, offs = token_hashes(texts)
        n_tok = np.diff(offs).astype(np.int64)
        did = np.repeat(np.arange(n), n_tok)
        toks, _ = tokenize_column(texts)
        tok_lens = np.asarray(pc.utf8_length(toks), dtype=np.int64) \
            if len(toks) else np.empty(0, dtype=np.int64)
        sums = np.zeros(n, dtype=np.int64)
        if len(tok_lens):
            np.add.at(sums, did, tok_lens)
        mean_len = np.where(n_tok > 0, sums / np.maximum(n_tok, 1), 0.0)
        pos = np.searchsorted(self.stop, th)
        hit = (pos < len(self.stop))
        posc = np.minimum(pos, len(self.stop) - 1)
        hit &= self.stop[posc] == th
        stop_hits = np.zeros(n, dtype=np.int64)
        if hit.any():
            np.add.at(stop_hits, did[hit], 1)
        stop_ratio = stop_hits / np.maximum(n_tok, 1)
        # length score: ramps 0→1 over [5, 50] tokens, flat to 2000, then decays
        ls = np.clip((n_tok - 5) / 45.0, 0, 1) * np.where(
            n_tok <= 2000, 1.0, np.maximum(0.2, 2000 / np.maximum(n_tok, 1)))
        # token-length score: ideal mean 3–9 chars
        tl = np.clip(1.0 - np.abs(mean_len - 6.0) / 6.0, 0, 1)
        # stopword score: saturates at 20% stopwords
        ss = np.clip(stop_ratio / 0.2, 0, 1)
        score = 0.4 * ls + 0.3 * tl + 0.3 * ss
        return (batch.append_column("quality", pa.array(score))
                     .append_column("n_tokens", pa.array(n_tok))
                     .append_column("stop_ratio", pa.array(stop_ratio)))


def _per_doc_run_stats(did: np.ndarray, vals: np.ndarray, n_docs: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc (n_distinct_values, max_value_count) over (doc, value)
    rows, vectorized via one lexsort."""
    n_distinct = np.zeros(n_docs, dtype=np.int64)
    top_c = np.zeros(n_docs, dtype=np.int64)
    if len(did) == 0:
        return n_distinct, top_c
    order = np.lexsort((vals, did))
    d, v = did[order], vals[order]
    new = np.concatenate([[True], (d[1:] != d[:-1]) | (v[1:] != v[:-1])])
    starts = np.flatnonzero(new)
    run_len = np.diff(np.concatenate([starts, [len(d)]]))
    run_doc = d[starts]
    np.add.at(n_distinct, run_doc, 1)
    np.maximum.at(top_c, run_doc, run_len)
    return n_distinct, top_c


def repetition_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Gopher-style repetition quality signals per document (Rae et al.
    2021 §A1.1 analogs for token streams): duplicate-token fraction,
    top-token fraction, top-bigram fraction.  Docs with zero tokens are
    dropped (no signal).  One vectorized pass, no shuffle —
    SQL-oracle-checkable (exact integer ratios)."""
    from bqf_ray.functions.tokenize import shingle_hashes, token_hashes

    def stats(batch: pa.Table) -> pa.Table:
        th, offs = token_hashes(batch.column(text_col))
        n = len(batch)
        n_tok = np.diff(offs).astype(np.int64)
        did = np.repeat(np.arange(n), n_tok)
        nd1, top1 = _per_doc_run_stats(did, th, n)
        b2, o2 = shingle_hashes(th, offs, 2)
        n2 = np.diff(o2).astype(np.int64)
        did2 = np.repeat(np.arange(n), n2)
        _, top2 = _per_doc_run_stats(did2, b2, n)
        keep = n_tok > 0
        nt = n_tok[keep]
        dup_frac = 1.0 - nd1[keep] / nt
        top_frac = top1[keep] / nt
        n2k = n2[keep]
        big_frac = np.where(n2k > 0, top2[keep] / np.maximum(n2k, 1), 0.0)
        return pa.table({
            id_col: batch.column(id_col).filter(pa.array(keep)),
            "dup_token_frac": pa.array(dup_frac, pa.float64()),
            "top_token_frac": pa.array(top_frac, pa.float64()),
            "top_bigram_frac": pa.array(big_frac, pa.float64()),
        })

    return ds.map_batches(stats, batch_format="pyarrow")


def distinctive_terms(ds, top: int = 3, text_col: str = "text",
                      id_col: str = "doc_id", num_buckets: int = 64):
    """Per-document top-``top`` distinctive terms, ranked by
    (tf DESC, df ASC, token ASC) — an integer-exact tf-idf ordering
    (highest in-doc frequency, rarest corpus-wide breaks ties), so the
    output is SQL-oracle-checkable with no float scores.

    Plan (two corpus-token-proportional shuffles, exact global df):

    1. per-batch (doc_id, token, tf) rows, DISTINCT per doc, bucketed by
       ``bucket_of(token)`` — every occurrence of a token lands in one
       bucket, so df(token) = the bucket-local row count (rows are
       per-doc-distinct).  df attaches in-bucket: no separate df pass.
    2. re-bucket by ``bucket_of(doc_id)``; per doc a vectorized lexsort ranks
       terms and keeps the top ``top``.

    Output (doc_id, token, tf, df, rnk)."""
    from bqf_ray.functions.tokenize import tokenize_column

    def tf_rows(batch: pa.Table) -> pa.Table:
        toks, offs = tokenize_column(batch.column(text_col))
        th = xxhash64_array(toks)
        n = len(batch)
        n_tok = np.diff(offs).astype(np.int64)
        did = np.repeat(np.asarray(batch.column(id_col)), n_tok)
        if len(th) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "token": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64())})
        order = np.lexsort((th, did))
        d, h = did[order], th[order]
        new = np.concatenate([[True], (d[1:] != d[:-1]) | (h[1:] != h[:-1])])
        starts = np.flatnonzero(new)
        tf = np.diff(np.concatenate([starts, [len(d)]]))
        rep = pa.array(order[starts])           # first occurrence index
        return pa.table({
            id_col: pa.array(d[starts].astype(np.int64)),
            "token": toks.take(rep),
            "tf": pa.array(tf.astype(np.int64)),
        })

    def attach_df(group: pa.Table) -> pa.Table:
        h = xxhash64_array(group.column("token"))
        u, inv, cnt = np.unique(h, return_inverse=True, return_counts=True)
        return group.append_column("df", pa.array(cnt[inv].astype(np.int64)))

    def rank_bucket(group: pa.Table) -> pa.Table:
        d = np.asarray(group.column(id_col), dtype=np.int64)
        tf = np.asarray(group.column("tf"), dtype=np.int64)
        df_ = np.asarray(group.column("df"), dtype=np.int64)
        tok_col = group.column("token")
        if isinstance(tok_col, pa.ChunkedArray):
            tok_col = tok_col.combine_chunks()
        # np.unique on the OBJECT array: codes carry exact lexicographic
        # (code-point == UTF-8 byte) order; astype("U") would strip
        # trailing NULs and merge/ misorder such tokens
        _, tok_codes = np.unique(
            tok_col.to_numpy(zero_copy_only=False), return_inverse=True)
        order = np.lexsort((tok_codes, df_, -tf, d))
        ds_, = (d[order],)
        new = np.concatenate([[True], ds_[1:] != ds_[:-1]])
        starts = np.flatnonzero(new)
        lens = np.diff(np.concatenate([starts, [len(ds_)]]))
        rnk = np.arange(len(ds_)) - np.repeat(starts, lens) + 1
        keep = rnk <= top
        sel = order[keep]
        return pa.table({
            id_col: pa.array(d[sel]),
            "token": group.column("token").take(pa.array(sel)),
            "tf": pa.array(tf[sel]),
            "df": pa.array(df_[sel]),
            "rnk": pa.array(rnk[keep].astype(np.int64)),
        })

    with_df = exchange(ds.map_batches(tf_rows, batch_format="pyarrow"),
                       attach_df, "token", num_buckets)
    return exchange(with_df, rank_bucket, id_col, num_buckets)


# PII patterns (RE2 syntax — pyarrow.compute and DuckDB both run RE2, so
# the SQL oracle reproduces the scrub byte-for-byte).  Replacement order:
# email → ipv4 → phone; occurrence counts are taken on the ORIGINAL text.
PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\+?\d[\d\-\.\(\) ]{7,}\d", "<PHONE>"),
)


def scrub_pii(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Redact emails / IPv4 addresses / phone-like digit runs from the
    text column (vectorized RE2 via ``pyarrow.compute``, zero Python per
    row).  Output: (doc_id, clean_text, n_email, n_ipv4, n_phone)."""

    def scrub(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col)
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        counts = {}
        for name, pat, _ in PII_PATTERNS:
            counts[name] = pc.count_substring_regex(texts, pat).cast(pa.int64())
        clean = texts
        for name, pat, repl in PII_PATTERNS:
            clean = pc.replace_substring_regex(clean, pat, repl)
        return pa.table({
            id_col: batch.column(id_col),
            "clean_text": clean,
            "n_email": counts["email"],
            "n_ipv4": counts["ipv4"],
            "n_phone": counts["phone"],
        })

    return ds.map_batches(scrub, batch_format="pyarrow")


def cap_per_key(ds, key_col: str = "source", id_col: str = "doc_id",
                max_rows: int = 5, num_buckets: int = 64):
    """Domain/host capping (C4-style corpus balancing): keep at most
    ``max_rows`` rows per ``key_col`` value, deterministically the lowest
    ``id_col`` values.  One hash-bucket shuffle (every occurrence of a
    key lands in one bucket), vectorized rank-per-run inside the bucket —
    no global sort.  Hot keys cost only their in-bucket run length."""

    def _local_cap(tbl: pa.Table) -> pa.Table:
        kcol = tbl.column(key_col)
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        # dictionary codes, not astype("U"): "U" strips trailing NULs
        # (merging distinct keys) and renders nulls as the literal
        # string "None"; codes group any byte content exactly, with
        # all nulls as one -1 group
        enc = kcol.dictionary_encode()
        k = np.asarray(enc.indices.fill_null(-1), dtype=np.int64)
        ids = np.asarray(tbl.column(id_col), dtype=np.int64)
        order = np.lexsort((ids, k))
        ks = k[order]
        new = np.concatenate([[True], ks[1:] != ks[:-1]])
        starts = np.flatnonzero(new)
        lens = np.diff(np.concatenate([starts, [len(ks)]]))
        rank = np.arange(len(ks)) - np.repeat(starts, lens)
        return tbl.take(pa.array(np.sort(order[rank < max_rows])))

    # COMBINER: cap locally first, so a hot key ships at most max_rows
    # rows per input batch instead of its full run — bounds the skew any
    # single bucket can receive
    return exchange(ds.map_batches(_local_cap, batch_format="pyarrow"),
                    _local_cap, key_col, num_buckets)


def content_fingerprints(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(id, content_hash, simhash) — exact + fuzzy fingerprints per doc."""
    from bqf_ray.pipelines.dedup import simhash64

    def fp(batch: pa.Table) -> pa.Table:
        ch = xxhash64_array(batch.column(text_col)).astype(np.int64)
        sh = simhash64(batch.column(text_col)).astype(np.int64)
        return pa.table({id_col: batch.column(id_col),
                         "content_hash": pa.array(ch),
                         "simhash": pa.array(sh)})

    return ds.map_batches(fp, batch_format="pyarrow")


def normalize_text(ds, text_col: str = "text", out_col: str = "text_norm",
                   digits_to_zero: bool = True):
    """CCNet-style normalization before fuzzy dedup (Wenzek et al. 2020
    §4.1): lowercase, digits → 0, strip punctuation, collapse
    whitespace.  Dedup over the normalized column catches
    near-identical boilerplate that raw hashing misses.

    Every step is an Arrow RE2 kernel, and DuckDB's regexp_replace is
    RE2 too — the oracle replays the exact same regex semantics
    (``\\w`` = ASCII word chars in both).  Stateless single pass."""
    import pyarrow.compute as pc

    def norm(batch: pa.Table) -> pa.Table:
        t = batch.column(text_col)
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        t = pc.utf8_lower(t)
        if digits_to_zero:
            t = pc.replace_substring_regex(t, r"\d", "0")
        t = pc.replace_substring_regex(t, r"[^\w\s]", "")
        t = pc.replace_substring_regex(t, r"\s+", " ")
        t = pc.utf8_trim_whitespace(t)
        return batch.append_column(out_col, t)

    return ds.map_batches(norm, batch_format="pyarrow")


def postings(ds, text_col: str = "text", id_col: str = "doc_id",
             num_buckets: int = 64):
    """Inverted index: ``(token, df, postings)`` where ``postings`` is the
    comma-joined doc-id list in ascending numeric order and ``df`` its
    length — the search-index build artifact.

    ONE token-hash-bucketed shuffle of per-doc-DISTINCT (token, doc_id)
    pairs; inside a bucket the full posting list assembles with Arrow C++
    kernels only (sort_indices + ListArray + binary_join — no per-token
    Python).  Run boundaries in the assemble stage compare token VALUES,
    so bucket-routing collisions cannot merge different tokens' lists;
    the per-doc-distinct stage dedups on the 64-bit content hash (the
    engine-wide exact-dedup content-key equivalence), so token identity
    there is hash identity.  Posting lists
    are unbounded by design (a stop-word's list is genuinely corpus-sized);
    cap upstream with ``dedup_lines``/stop-word filtering if needed.
    """
    import pyarrow.compute as pc

    from bqf_ray.functions.tokenize import tokenize_column

    def pairs(batch: pa.Table) -> pa.Table:
        toks, offs = tokenize_column(batch.column(text_col))
        th = xxhash64_array(toks)
        n_tok = np.diff(offs).astype(np.int64)
        did = np.repeat(np.asarray(batch.column(id_col), dtype=np.int64),
                        n_tok)
        if len(th) == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             id_col: pa.array([], pa.int64())})
        order = np.lexsort((th, did))
        d, h = did[order], th[order]
        first = np.concatenate([[True],
                                (d[1:] != d[:-1]) | (h[1:] != h[:-1])])
        keep = order[first]
        return pa.table({
            "token": toks.take(pa.array(keep)),
            id_col: pa.array(d[first]),
        })

    def assemble(group: pa.Table) -> pa.Table:
        tbl = pa.table({"token": group.column("token"),
                        "d": group.column(id_col)})
        idx = pc.sort_indices(tbl, sort_keys=[("token", "ascending"),
                                              ("d", "ascending")])
        tok = tbl.column("token").take(idx)
        if isinstance(tok, pa.ChunkedArray):
            tok = tok.combine_chunks()
        d = np.asarray(tbl.column("d").take(idx), dtype=np.int64)
        n = len(d)
        if n == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64()),
                             "postings": pa.array([], pa.string())})
        neq = pc.not_equal(tok.slice(1), tok.slice(0, n - 1))
        new = np.concatenate([[True], np.asarray(neq)])
        starts = np.flatnonzero(new)
        ends = np.concatenate([starts[1:], [n]])
        flat = pc.cast(pa.array(d), pa.string())
        offsets = pa.array(np.concatenate([starts, [n]]).astype(np.int32))
        lists = pa.ListArray.from_arrays(offsets, flat)
        joined = pc.binary_join(lists, ",")
        return pa.table({"token": tok.take(pa.array(starts)),
                         "df": pa.array((ends - starts).astype(np.int64)),
                         "postings": joined})

    return exchange(ds.map_batches(pairs, batch_format="pyarrow"),
                    assemble, "token", num_buckets)


def collocations(ds, min_count: int = 5, top: int = 50,
                 text_col: str = "text", broadcast_budget: int = 2_000_000,
                 num_buckets: int = 64):
    """Top-``top`` adjacent-bigram collocations ranked by lift
    ``(c_ab · N) / (c_a · c_b)`` — the PMI argument as an exact integer
    ratio (PMI itself is its log, a monotone transform left to the
    caller so the oracle needs no cross-engine ``ln``).

    Plan: bigram counts pre-aggregate per batch before ONE groupby-Sum
    shuffle (batch-distinct pairs only); unigram counts ride the
    token_counts shape and materialize at vocab size.  Unigram attach is
    plan-selected like the LM scorer: vocab ≤ ``broadcast_budget`` →
    one sorted-array broadcast (zero extra shuffles); larger vocab →
    two token-hash-bucketed exchanges attaching c_a then c_b in-bucket.
    Final ordering uses :func:`bqf_ray.pipelines.aggregates.global_top_n`
    (per-block partials, no all-to-all sort).

    Output ``(token_a, token_b, c_ab, c_a, c_b, lift)``.
    """
    import ray
    from ray.data.aggregate import Sum

    from bqf_ray.functions.hashing import xxhash64_array
    from bqf_ray.functions.tokenize import tokenize_column
    from bqf_ray.pipelines.aggregates import global_top_n, token_counts

    def bigram_partials(batch: pa.Table) -> pa.Table:
        toks, offs = tokenize_column(batch.column(text_col))
        n_tok = np.diff(offs).astype(np.int64)
        if len(toks) == 0 or (n_tok >= 2).sum() == 0:
            return pa.table({"token_a": pa.array([], pa.string()),
                             "token_b": pa.array([], pa.string()),
                             "partial": pa.array([], pa.int64())})
        # indices of bigram starts: every token except each doc's last
        doc_last = offs[1:] - 1
        is_last = np.zeros(len(toks), dtype=bool)
        is_last[doc_last[n_tok > 0]] = True
        starts = np.flatnonzero(~is_last)
        t = pa.table({"token_a": toks.take(pa.array(starts)),
                      "token_b": toks.take(pa.array(starts + 1)),
                      "n": pa.array(np.ones(len(starts), dtype=np.int64))})
        return (t.group_by(["token_a", "token_b"])
                .aggregate([("n", "sum")])
                .rename_columns(["token_a", "token_b", "partial"]))

    from bqf_ray.stages.partition import bucketed_sum
    bigrams = bucketed_sum(
        ds.map_batches(bigram_partials, batch_format="pyarrow"),
        ["token_a", "token_b"], {"partial": "c_ab"},
        num_buckets=num_buckets)

    uni = token_counts(ds, text_col=text_col).materialize()   # vocab-sized
    n_vocab = uni.count()
    total = uni.sum("cnt") or 0        # None on an empty corpus

    def lift_cols(batch: pa.Table, c_a, c_b) -> pa.Table:
        c_ab = np.asarray(batch.column("c_ab"), dtype=np.int64)
        lift = c_ab.astype(np.float64) * total / \
            (c_a.astype(np.float64) * c_b)
        return pa.table({"token_a": batch.column("token_a"),
                         "token_b": batch.column("token_b"),
                         "c_ab": pa.array(c_ab),
                         "c_a": pa.array(c_a.astype(np.int64)),
                         "c_b": pa.array(c_b.astype(np.int64)),
                         "lift": pa.array(lift)})

    use_broadcast = n_vocab <= broadcast_budget
    collision = False
    if use_broadcast:
        empty_vocab = pa.table({"token": pa.array([], pa.string()),
                                "cnt": pa.array([], pa.int64())})
        vocab_tbl = pa.concat_tables(
            [pa.table(b) for b in uni.iter_batches(batch_format="pyarrow")]
            or [empty_vocab], promote_options="default")
        vh = xxhash64_array(vocab_tbl.column("token"))
        vorder = np.argsort(vh)
        vh_sorted = vh[vorder]
        # a 64-bit collision between two vocab tokens would make the
        # hash-keyed lookup mis-attach counts — detect it up front and
        # route through the value-joining bucketed plan instead (exact)
        if len(vh_sorted) > 1 and (vh_sorted[1:] == vh_sorted[:-1]).any():
            collision = True
            use_broadcast = False
    plan_log("collocations", "broadcast" if use_broadcast else "bucketed",
             n_vocab=n_vocab, broadcast_budget=int(broadcast_budget),
             hash_collision=int(collision))

    if use_broadcast:
        ref = ray.put((vh_sorted,
                       np.asarray(vocab_tbl.column("cnt"),
                                  dtype=np.int64)[vorder]))

        class Attach:
            def __init__(self):
                self.keys, self.cnts = ray.get(ref)

            def _lookup(self, col):
                h = xxhash64_array(col)
                pos = np.searchsorted(self.keys, h)
                # bigram tokens come from the same tokenizer as the
                # vocab, so every probe must hit; a miss means caller
                # misuse (different text column) — fail loudly, never
                # read a neighbor's count
                if len(self.keys) == 0 or pos.max(initial=-1) >= len(
                        self.keys) or not (self.keys[np.minimum(
                            pos, len(self.keys) - 1)] == h).all():
                    raise ValueError(
                        "collocations: bigram token missing from the "
                        "unigram vocabulary — inputs disagree")
                return self.cnts[pos]

            def __call__(self, batch: pa.Table) -> pa.Table:
                if len(batch) == 0:
                    return lift_cols(batch, np.empty(0, np.int64),
                                     np.empty(0, np.int64))
                return lift_cols(batch,
                                 self._lookup(batch.column("token_a")),
                                 self._lookup(batch.column("token_b")))

        scored = (bigrams.filter(expr=f"c_ab >= {int(min_count)}")
                  .map_batches(Attach, batch_format="pyarrow",
                               concurrency=2))
    else:
        scored = _attach_counts_bucketed(
            bigrams.filter(expr=f"c_ab >= {int(min_count)}"), uni,
            lift_cols, num_buckets)

    return global_top_n(scored, ["lift", "token_a", "token_b"], n=top,
                        descending=[True, False, False])


def _attach_counts_bucketed(bigrams, uni, lift_cols, num_buckets: int):
    """Large-vocab path for :func:`collocations`: two token-hash-bucketed
    exchanges; in-bucket attach joins on token VALUES (hash is only the
    routing key, so collisions cannot mis-attach).  The in-bucket join
    is Arrow-native (Acero) — no pandas object boxing in the hot path."""

    def route(side):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.append_column("__side", pa.array(
                np.full(len(batch), side, dtype=np.int8)))
        return fn

    def attach(which_col, out_name):
        def fn(group: pa.Table) -> pa.Table:
            side = np.asarray(group.column("__side"))
            left = (group.filter(pa.array(side == 0))
                    .drop_columns(["__side", "token", "cnt"]))
            right = (group.filter(pa.array(side == 1))
                    .select(["token", "cnt"])
                    .rename_columns([which_col, out_name]))
            return left.join(right, keys=which_col, join_type="inner")
        return fn

    bg = bigrams.map_batches(
        lambda b: b.append_column("token", pa.nulls(len(b), pa.string()))
        .append_column("cnt", pa.nulls(len(b), pa.int64())),
        batch_format="pyarrow").map_batches(route(0), batch_format="pyarrow")
    un = uni.map_batches(
        lambda b: pa.table({
            "token_a": b.column("token"), "token_b": pa.nulls(len(b), pa.string()),
            "c_ab": pa.nulls(len(b), pa.int64()),
            "token": b.column("token"), "cnt": b.column("cnt")}),
        batch_format="pyarrow").map_batches(route(1), batch_format="pyarrow")
    step1 = exchange(bg.union(un), attach("token_a", "c_a"), "token_a",
                     num_buckets)

    bg2 = step1.map_batches(
        lambda b: b.append_column("token", pa.nulls(len(b), pa.string()))
        .append_column("cnt", pa.nulls(len(b), pa.int64())),
        batch_format="pyarrow").map_batches(route(0), batch_format="pyarrow")
    un2 = uni.map_batches(
        lambda b: pa.table({
            "token_a": pa.nulls(len(b), pa.string()),
            "token_b": b.column("token"),
            "c_ab": pa.nulls(len(b), pa.int64()),
            "c_a": pa.nulls(len(b), pa.int64()),
            "token": b.column("token"), "cnt": b.column("cnt")}),
        batch_format="pyarrow").map_batches(route(1), batch_format="pyarrow")
    joined = exchange(bg2.union(un2), attach("token_b", "c_b"), "token_b",
                      num_buckets)

    def finish(batch: pa.Table) -> pa.Table:
        c_a = np.asarray(batch.column("c_a"), dtype=np.int64)
        c_b = np.asarray(batch.column("c_b"), dtype=np.int64)
        return lift_cols(batch, c_a, c_b)

    return joined.map_batches(finish, batch_format="pyarrow")


def _keyed_token_partials(batch: pa.Table, key_col: str, text_col: str,
                          with_counts: bool) -> pa.Table:
    """Per-batch (key, token[, pn]) partials, deduplicated/counted by
    integer CODE pairs — never by joined key⊕token strings, so keys may
    contain any byte.  Rows with a NULL key are EXCLUDED (SQL GROUP BY
    would keep a null group; fill or filter upstream when needed)."""
    toks, offs = tokenize_column(batch.column(text_col))
    keys = pc.cast(batch.column(key_col), pa.string())
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    cols = {key_col: pa.array([], pa.string()),
            "token": pa.array([], pa.string())}
    if with_counts:
        cols["pn"] = pa.array([], pa.int64())
    empty = pa.table(cols)

    valid = np.asarray(keys.is_valid())
    rep = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                    np.diff(offs))
    mask = valid[rep] if len(rep) else np.zeros(0, dtype=bool)
    tnp = toks.to_numpy(zero_copy_only=False)[mask]
    rep = rep[mask]
    if len(tnp) == 0:
        return empty
    t_uniq, t_inv = np.unique(tnp, return_inverse=True)
    knp = np.asarray(keys.to_numpy(zero_copy_only=False), dtype=object)
    vidx = np.flatnonzero(valid)
    # np.unique directly on the object-dtype array: astype("U") would use
    # numpy fixed-width unicode, which strips trailing \x00 and merged /
    # truncated keys differing only in trailing NULs
    k_uniq, k_inv = np.unique(knp[vidx], return_inverse=True)
    code_by_doc = np.full(batch.num_rows, -1, dtype=np.int64)
    code_by_doc[vidx] = k_inv
    pair = code_by_doc[rep] * np.int64(len(t_uniq)) + t_inv
    up, counts = np.unique(pair, return_counts=True)
    k_idx = up // len(t_uniq)
    t_idx = up % len(t_uniq)
    key_arr = pa.array(k_uniq[k_idx].tolist(), pa.string())
    tok_arr = pa.array(t_uniq[t_idx].tolist(), pa.string())
    out = {key_col: key_arr, "token": tok_arr}
    if with_counts:
        out["pn"] = pa.array(counts.astype(np.int64))
    return pa.table(out)


def _topk_per_key(t: pa.Table, key_col: str, k: int,
                  with_rank: bool = False) -> pa.Table:
    """Keep the top-``k`` rows per key by (cnt DESC, token ASC) — one
    lexsort + run-position mask, no per-key Python."""
    keys = t.column(key_col)
    toks = t.column("token")
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    kcodes = np.unique(np.asarray(keys), return_inverse=True)[1]
    tcodes = np.unique(np.asarray(toks), return_inverse=True)[1]
    cnt = np.asarray(t.column("cnt"), dtype=np.int64)
    order = np.lexsort((tcodes, -cnt, kcodes))
    kk = kcodes[order]
    idx = np.arange(len(kk), dtype=np.int64)
    new = np.concatenate([[True], kk[1:] != kk[:-1]]) if len(kk) else \
        np.zeros(0, dtype=bool)
    run_start = np.maximum.accumulate(np.where(new, idx, 0))
    pos = idx - run_start
    keep = pos < k
    out = t.take(pa.array(order[keep]))
    if with_rank:
        out = out.append_column("rank", pa.array(pos[keep] + 1))
    return out


def grouped_top_terms(ds, key_col: str = "source", k: int = 10,
                      text_col: str = "text", num_buckets: int = 32):
    """Exact top-``k`` tokens per key by global count (ties broken
    token-ascending) — the trending-terms / per-site vocabulary shape.

    Plan: per-batch weighted (key, token) partials → ONE exchange keyed
    by ``bucket_of(key, token)`` (buckets partition the PAIR
    space, so in-bucket Arrow group_by sums are globally exact) →
    per-bucket per-key top-k (any global top-k pair is also top-k
    within its own bucket, so partials lose nothing) → a key-bucketed
    final merge ranks ≤ num_buckets × k rows per key.  No multi-column
    distributed sort, no global sort.

    Returns ``(key, token, cnt, rank)`` with rank 1..k.  Keys may
    contain any byte (pairing is by integer codes, not joined strings);
    rows with a NULL key are excluded.
    """
    kk = int(k)

    def partial(batch: pa.Table) -> pa.Table:
        return _keyed_token_partials(batch, key_col, text_col,
                                     with_counts=True)

    def bucket_topk(group: pa.Table) -> pa.Table:
        g = (group.group_by([key_col, "token"])
             .aggregate([("pn", "sum")])
             .rename_columns([key_col, "token", "cnt"]))
        return _topk_per_key(g, key_col, kk)

    def final_topk(group: pa.Table) -> pa.Table:
        # the pair space is partitioned across the first exchange's
        # buckets, so rows here are already exact and distinct — pure
        # selection remains
        return _topk_per_key(group.select([key_col, "token", "cnt"]),
                             key_col, kk, with_rank=True)

    pair_topk = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                         bucket_topk, [key_col, "token"], num_buckets)
    return exchange(pair_topk, final_topk, key_col, num_buckets)


def bm25_components(ds, query_terms: list[str], id_col: str = "doc_id",
                    text_col: str = "text", num_buckets: int = 32):
    """EXACT integer BM25 component table for a fixed query-term set —
    per matching ``(doc, term)``: ``(doc_id, term, tf, dl, df, n_docs,
    sum_dl)``, every column int64 so the operator is SQL-oracle-exact;
    the float score ``Σ idf(df, N) · tf·(k1+1)/(tf + k1·(1−b+b·dl·N/
    sum_dl))`` derives downstream (log/division float policy stays a
    caller choice, the repo's integer-components rule).

    ONE corpus pass (tokenize + vectorized term membership per batch,
    emitting matched rows WITH their doc length attached, plus one
    (n_docs, sum_dl) stat row per batch), then tiny folds: df = row
    count per term over the matched table, scalars from the stat rows,
    both broadcast back over the matched table.  No corpus shuffle at
    all — the exchange carries only matched (doc, term) rows."""
    import ray

    from bqf_ray.functions.tokenize import tokenize_column
    from bqf_ray.stages.partition import bucketed_sum

    terms = sorted(set(query_terms))
    tarr = pa.array(terms, pa.string())

    def scan(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        flat, offs = tokenize_column(batch.column(text_col))
        n_docs = len(ids)
        sum_dl = int(offs[-1]) if len(offs) else 0
        hit = np.asarray(pc.is_in(flat, value_set=tarr))
        kind1 = pa.table({
            id_col: pa.array(np.array([-1], dtype=np.int64)),
            "term": pa.array([""], pa.string()),
            "tf": pa.array(np.array([n_docs], dtype=np.int64)),
            "dl": pa.array(np.array([sum_dl], dtype=np.int64)),
            "__kind": pa.array(np.array([1], dtype=np.int64))})
        if not hit.any():
            return kind1
        pos = np.flatnonzero(hit)
        doc_of = np.searchsorted(offs, pos, side="right") - 1
        tcode = np.asarray(pc.index_in(flat.take(pa.array(pos)),
                                       value_set=tarr), dtype=np.int64)
        pair = doc_of * len(terms) + tcode
        up, tf = np.unique(pair, return_counts=True)
        d_idx = (up // len(terms)).astype(np.int64)
        dls = (offs[1:] - offs[:-1]).astype(np.int64)
        kind0 = pa.table({
            id_col: pa.array(ids[d_idx]),
            "term": pa.array(np.asarray(terms, dtype=object)[
                up % len(terms)], pa.string()),
            "tf": pa.array(tf.astype(np.int64)),
            "dl": pa.array(dls[d_idx]),
            "__kind": pa.array(np.zeros(len(up), dtype=np.int64))})
        return pa.concat_tables([kind0, kind1])

    both = ds.map_batches(scan, batch_format="pyarrow").materialize()

    def only_stats(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("__kind"), 1)) \
            .select([id_col, "tf", "dl"])

    k1 = both.map_batches(only_stats, batch_format="pyarrow")
    n_docs = int(k1.sum("tf") or 0)
    sum_dl = int(k1.sum("dl") or 0)

    def only_matched(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("__kind"), 0)) \
            .drop_columns(["__kind"])

    matched = both.map_batches(only_matched, batch_format="pyarrow")
    df_tbl = bucketed_sum(
        matched.map_batches(
            lambda t: pa.table({
                "term": t.column("term"),
                "__one": pa.array(np.ones(t.num_rows, dtype=np.int64))}),
            batch_format="pyarrow"),
        ["term"], {"__one": "df"}, num_buckets=8).to_pandas()
    # an all-miss corpus leaves the grouped table EMPTY with no columns
    # (ray to_pandas drops schema on fully-empty datasets)
    dfs = (dict(zip(df_tbl["term"], df_tbl["df"].astype(np.int64)))
           if len(df_tbl.columns) else {})
    if not dfs:
        # no term matched anywhere: a typed empty result (an empty
        # dataset that never ran `attach` would surface schema-less)
        z = pa.array([], pa.int64())
        return ray.data.from_arrow(pa.table({
            id_col: z, "term": pa.array([], pa.string()), "tf": z,
            "dl": z, "df": z, "n_docs": z, "sum_dl": z}))
    df_vec = np.array([int(dfs.get(t, 0)) for t in terms],
                      dtype=np.int64)
    ref = ray.put(df_vec)

    def attach(t: pa.Table) -> pa.Table:
        dv = ray.get(ref)
        tcode = np.asarray(pc.index_in(t.column("term"),
                                        value_set=tarr), dtype=np.int64)
        n = t.num_rows
        return (t.append_column("df", pa.array(dv[tcode]))
                .append_column("n_docs", pa.array(
                    np.full(n, n_docs, dtype=np.int64)))
                .append_column("sum_dl", pa.array(
                    np.full(n, sum_dl, dtype=np.int64))))

    return matched.map_batches(attach, batch_format="pyarrow")


def docs_with_all_terms(ds, query_terms: list[str],
                        id_col: str = "doc_id", text_col: str = "text"):
    """Conjunctive boolean retrieval: documents containing EVERY query
    term — the AND query over an implicit inverted index, evaluated
    here as ONE stateless corpus pass (tokenize + vectorized term
    membership + per-doc distinct-term count per batch, exact because
    a document is one row) with NO shuffle at all.  Output:
    ``(id_col, n_terms_hit)`` rows where all terms matched."""
    from bqf_ray.functions.tokenize import tokenize_column

    terms = sorted(set(query_terms))
    tarr = pa.array(terms, pa.string())
    K = len(terms)

    def scan(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        flat, offs = tokenize_column(batch.column(text_col))
        hit = np.asarray(pc.is_in(flat, value_set=tarr))
        pos = np.flatnonzero(hit)
        if not len(pos):
            z = pa.array([], pa.int64())
            return pa.table({id_col: z, "n_terms_hit": z})
        doc_of = np.searchsorted(offs, pos, side="right") - 1
        tcode = np.asarray(pc.index_in(flat.take(pa.array(pos)),
                                       value_set=tarr), dtype=np.int64)
        pair = np.unique(doc_of * K + tcode)
        cnt = np.bincount((pair // K).astype(np.int64),
                          minlength=len(ids))
        full = np.flatnonzero(cnt == K)
        return pa.table({id_col: pa.array(ids[full]),
                         "n_terms_hit": pa.array(
                             np.full(len(full), K, dtype=np.int64))})

    return ds.map_batches(scan, batch_format="pyarrow")


def phrase_search(ds, phrase: list[str], id_col: str = "doc_id",
                  text_col: str = "text"):
    """Exact-phrase retrieval: documents containing the query tokens at
    CONSECUTIVE positions — the positional-index phrase query (the
    ordered companion to :func:`docs_with_all_terms`), evaluated as ONE
    stateless corpus pass with NO shuffle: tokenize each document
    (whitespace, empties dropped — the shared house tokenization),
    then a vectorized L-way shifted equality over the flat token
    stream, masked to windows that stay inside one document.  The loop
    is over the L phrase words (a small constant), never over rows.

    Output: ``(id_col, n_matches, first_pos)`` for matching documents;
    ``first_pos`` is the 1-based token position of the earliest match
    (`row_number` semantics, matching the SQL positional-join replay).
    """
    from bqf_ray.functions.tokenize import tokenize_column

    words = list(phrase)
    if not words or any(not w or w.split() != [w] for w in words):
        raise ValueError(f"phrase must be non-empty whitespace-free "
                         f"tokens, got {phrase!r}")
    L = len(words)

    def scan(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        flat, offs = tokenize_column(batch.column(text_col))
        n = len(flat)
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "n_matches": pa.array([], pa.int64()),
                          "first_pos": pa.array([], pa.int64())})
        if n < L:
            return empty
        m = np.asarray(pc.equal(flat, words[0])).copy()[:n - L + 1]
        for j in range(1, L):
            ej = np.asarray(pc.equal(flat, words[j]))
            m &= ej[j:n - L + 1 + j]
        # window must not cross a document boundary
        starts = np.flatnonzero(m)
        if not len(starts):
            return empty
        doc_a = np.searchsorted(offs, starts, side="right") - 1
        doc_b = np.searchsorted(offs, starts + L - 1, side="right") - 1
        keep = doc_a == doc_b
        starts, doc_a = starts[keep], doc_a[keep]
        if not len(starts):
            return empty
        uniq, inv, cnt = np.unique(doc_a, return_inverse=True,
                                   return_counts=True)
        first = np.full(len(uniq), np.iinfo(np.int64).max)
        np.minimum.at(first, inv, starts)
        first_pos = first - offs[uniq] + 1      # 1-based within doc
        return pa.table({id_col: pa.array(ids[uniq]),
                         "n_matches": pa.array(cnt.astype(np.int64)),
                         "first_pos": pa.array(first_pos)})

    return ds.map_batches(scan, batch_format="pyarrow")


def linear_text_scores(ds, dim: int = 512, text_col: str = "text",
                       id_col: str = "doc_id"):
    """Deterministic hashed bag-of-words LINEAR classifier — the
    fasttext-style quality-filter shape at 100 TB, with every number
    SQL-replayable (no model file, no float accumulation ambiguity):

    - feature index ``f(token) = md5_64(token) mod dim`` (the
      cross-engine md5 convention — ``('0x'||substr(md5(t),1,16))
      ::UBIGINT`` in ANSI SQL);
    - integer weight ``w(f) = (f·2654435761) mod 2001 − 1000`` — a
      deterministic pseudo-random weight in [−1000, 1000] standing in
      for trained parameters (swap in a real weight table broadcast
      via ``ray.put`` in production; the plumbing is identical);
    - per-doc margin = ``Σ w / (1000·n_tokens)`` with the sum exact in
      int64 and ONE final IEEE division, so the float bit-matches SQL.

    Output ``(doc_id, n_tokens, w_sum, margin, keep)`` — one row per
    doc with ≥1 token; ``keep = w_sum > 0`` is the filter decision.
    Stateless vectorized pass: tokenize (Arrow C++), hash distinct
    tokens once, segment-sum by doc — no shuffle at all."""
    from bqf_ray.functions.hashing import md5_hash64_array
    from bqf_ray.functions.tokenize import tokenize_column

    D = np.uint64(int(dim))

    def score(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        toks, offs = tokenize_column(batch.column(text_col))
        h = md5_hash64_array(toks)
        f = (h % D).astype(np.int64)
        wi = (f * 2654435761) % 2001 - 1000
        n = np.diff(offs)
        has = n > 0
        wsum = np.add.reduceat(
            wi, offs[:-1][has]) if has.any() else np.empty(0, np.int64)
        nt = n[has]
        margin = wsum.astype(np.float64) / (1000.0 * nt)
        return pa.table({
            id_col: pa.array(ids[has]),
            "n_tokens": pa.array(nt),
            "w_sum": pa.array(wsum),
            "margin": pa.array(margin),
            "keep": pa.array(wsum > 0)})

    return ds.map_batches(score, batch_format="pyarrow")
