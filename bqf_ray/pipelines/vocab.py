"""Vocabulary building: byte-pair-encoding (BPE) merge training over a
document corpus (Sennrich et al. 2016) — the tokenizer-training step of
an LLM data pipeline.

Shape: ONE corpus-sized pass reduces the corpus to its word-frequency
table (groupby shuffle, corpus-token-proportional — the same plan as
``token_counts``); the merge loop then iterates over that table, which
is vocab-sized (millions of rows at web scale, not trillions), kept as a
materialized Dataset of symbol sequences:

    round k: map_batches emits per-batch weighted pair counts (partial
    aggregation — each partial is at most the batch's distinct-pair
    count) → the tiny partials merge on the driver → argmax pair
    (deterministic tie-break: count DESC, then lexicographic) →
    broadcast → map_batches rewrites the symbol sequences.

Driver state is bounded by the distinct-pair count of the VOCAB (≈ a few
× vocab size), never by the corpus.  Per round the vocab table moves
once; ``num_merges`` rounds total.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from bqf_ray.plans import plan_log


def word_frequencies(ds, text_col: str = "text"):
    """Corpus → Dataset[(word: string, count: int64)] — one pre-aggregated
    groupby shuffle (the token_counts plan)."""
    from ray.data.aggregate import Sum
    from bqf_ray.functions.tokenize import tokenize_column

    def partial(batch: pa.Table) -> pa.Table:
        toks, _ = tokenize_column(batch.column(text_col))
        if len(toks) == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        arr = toks.to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(arr, return_counts=True)
        return pa.table({"word": pa.array(uniq.tolist(), pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("word").aggregate(Sum("n", alias_name="count")))


def _split_chars(batch: pa.Table) -> pa.Table:
    words = batch.column("word").to_pylist()
    counts = batch.column("count")
    syms = pa.array([list(w) for w in words], pa.list_(pa.string()))
    return pa.table({"syms": syms, "count": counts})


def _bpe_local(words: list[str], counts: np.ndarray, num_merges: int,
               min_pair_count: int) -> list[tuple[str, str, int]]:
    """Driver-local merge loop over a small word-frequency table — same
    semantics as the distributed loop (overlapping pair counts, count
    DESC then lexicographic tie-break, greedy left-to-right merge)."""
    vocab = [list(w) for w in words]
    merges: list[tuple[str, str, int]] = []
    for _ in range(int(num_merges)):
        totals: dict[tuple[str, str], int] = {}
        for syms, c in zip(vocab, counts):
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                totals[p] = totals.get(p, 0) + int(c)
        if not totals:
            break
        bn = max(totals.values())
        if bn < min_pair_count:
            break
        bl, br = min(p for p, n in totals.items() if n == bn)
        merges.append((bl, br, bn))
        for k, syms in enumerate(vocab):
            i, new = 0, []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == bl and syms[i + 1] == br:
                    new.append(bl + br)
                    i += 2
                else:
                    new.append(syms[i])
                    i += 1
            vocab[k] = new
    return merges


def bpe_train(ds, num_merges: int = 20, text_col: str = "text",
              min_pair_count: int = 2, driver_vocab_budget: int = 200_000):
    """Learn ``num_merges`` BPE merges from the corpus.  Returns a list of
    (left, right, pair_count) in merge order.  Stops early when no pair
    reaches ``min_pair_count``.

    Auto plan: the corpus-sized pass always runs distributed (one
    groupby shuffle to the word-frequency table).  If the resulting
    VOCAB fits ``driver_vocab_budget`` rows, the merge loop runs
    driver-local (per-round Ray stage overhead dwarfs the work on small
    vocabularies); past the budget it iterates over the vocab as a
    Dataset — the same row-shuffle-vs-local crossover the partitioned
    sketch build uses."""
    import ray

    wf = word_frequencies(ds, text_col).materialize()
    n_words = wf.count()
    local = n_words <= int(driver_vocab_budget)
    plan_log("bpe_train", "driver" if local else "dataset",
             n_words=n_words, driver_vocab_budget=int(driver_vocab_budget))
    if local:
        tbl = pa.concat_tables(
            [b for b in wf.iter_batches(batch_format="pyarrow")]) \
            if n_words else pa.table({"word": pa.array([], pa.string()),
                                      "count": pa.array([], pa.int64())})
        return _bpe_local(tbl.column("word").to_pylist(),
                          np.asarray(tbl.column("count"), dtype=np.int64),
                          num_merges, min_pair_count)

    vocab = (wf
             .map_batches(_split_chars, batch_format="pyarrow")
             .materialize())

    def pair_counts(batch: pa.Table) -> pa.Table:
        col = batch.column("syms")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        cnt = np.asarray(batch.column("count"), dtype=np.int64)
        lens = np.asarray(col.value_lengths(), dtype=np.int64)
        flat = col.flatten().to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            return pa.table({"left": pa.array([], pa.string()),
                             "right": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        offs = np.concatenate([[0], np.cumsum(lens)])
        # adjacent pairs within each word
        n_pairs = np.maximum(lens - 1, 0)
        wid = np.repeat(np.arange(len(lens)), n_pairs)
        within = np.arange(int(n_pairs.sum())) - np.repeat(
            np.concatenate([[0], np.cumsum(n_pairs)[:-1]]), n_pairs)
        li = offs[wid] + within
        left, right = flat[li], flat[li + 1]
        w = cnt[wid]
        # integer pair codes (string-concat keys break on numpy's
        # NUL-truncating unicode arrays)
        lu, linv = np.unique(left, return_inverse=True)
        ru, rinv = np.unique(right, return_inverse=True)
        code = linv.astype(np.int64) * len(ru) + rinv
        uniq, inv = np.unique(code, return_inverse=True)
        agg = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(agg, inv, w)
        return pa.table({
            "left": pa.array(lu[uniq // len(ru)].tolist(), pa.string()),
            "right": pa.array(ru[uniq % len(ru)].tolist(), pa.string()),
            "n": pa.array(agg)})

    merges: list[tuple[str, str, int]] = []
    for _ in range(int(num_merges)):
        totals: dict[tuple[str, str], int] = {}
        for b in (vocab.map_batches(pair_counts, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow")):
            for left, right, n in zip(b.column("left").to_pylist(),
                                      b.column("right").to_pylist(),
                                      b.column("n").to_pylist()):
                totals[(left, right)] = totals.get((left, right), 0) + n
        if not totals:
            break
        best = max(totals.items(), key=lambda kv: (kv[1], kv[0][0], kv[0][1]))
        # deterministic: count DESC, then lexicographically SMALLEST pair
        best = min((kv for kv in totals.items() if kv[1] == best[1]),
                   key=lambda kv: kv[0])
        (bl, br), bn = best
        if bn < min_pair_count:
            break
        merges.append((bl, br, int(bn)))
        merged_ref = ray.put((bl, br))

        def apply_merge(batch: pa.Table) -> pa.Table:
            l, r = ray.get(merged_ref)
            col = batch.column("syms")
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            out = []
            for row in col.to_pylist():
                i, new = 0, []
                while i < len(row):
                    if i + 1 < len(row) and row[i] == l and row[i + 1] == r:
                        new.append(l + r)
                        i += 2
                    else:
                        new.append(row[i])
                        i += 1
                out.append(new)
            return pa.table({"syms": pa.array(out, pa.list_(pa.string())),
                             "count": batch.column("count")})

        vocab = vocab.map_batches(apply_merge,
                                  batch_format="pyarrow").materialize()
    return merges


def bpe_merges_table(ds, num_merges: int = 20, text_col: str = "text"):
    """Driver-facing form: Dataset[(rank, left, right, pair_count)]."""
    import ray
    merges = bpe_train(ds, num_merges=num_merges, text_col=text_col)
    return ray.data.from_arrow(pa.table({
        "rank": pa.array(np.arange(len(merges), dtype=np.int64)),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "pair_count": pa.array([m[2] for m in merges], pa.int64()),
    }))


# ---------------------------------------------------------------------------
# BPE ENCODE — apply a FIXED merge table to a corpus (the production
# "tokenize 100 TB with a frozen tokenizer" shape; training above is the
# artifact-producing step, this is the every-run step).


def encode_words(words, merges) -> tuple[np.ndarray, np.ndarray]:
    """Apply rank-ordered BPE ``merges`` to each word; returns
    ``(flat_tokens: object ndarray, offsets: int64[n_words+1])``.

    Semantics: merges apply strictly in rank order, ONE greedy
    left-to-right non-overlapping pass each (back-to-back occurrences
    merge in the same pass at even run offsets).  For well-ordered
    tables — every non-char token used by a merge is PRODUCED by an
    earlier merge and no token string is producible by two different
    merges — this is bit-identical to the classic lowest-rank-first
    iterative encoder (tests prove it on randomized well-ordered
    tables); degenerate tables follow the rank-ordered definition.

    Vectorized: symbols live in ONE integer-coded array across all
    words; each merge rank is a handful of numpy vector ops (pair mask,
    run-parity overlap filter, scatter + compaction) — no per-word
    Python loop.  Cost is O(num_merges × total_chars)."""
    n = len(words)
    offsets0 = np.zeros(n + 1, dtype=np.int64)
    if n:
        lens = np.fromiter((len(w) for w in words), np.int64, n)
    else:
        lens = np.empty(0, np.int64)
    joined = "".join(words)
    if not joined:
        return np.empty(0, dtype=object), offsets0
    chars = np.array(list(joined), dtype=object)
    uniq, inv = np.unique(chars, return_inverse=True)
    vocab: dict[str, int] = {t: i for i, t in enumerate(uniq.tolist())}
    toks: list[str] = uniq.tolist()          # code -> token string
    sym = inv.astype(np.int64)
    wid = np.repeat(np.arange(n, dtype=np.int64), lens)
    for left, right in merges:
        lc = vocab.get(left)
        rc = vocab.get(right)
        if lc is None or rc is None or len(sym) < 2:
            continue                         # pair cannot occur here
        m = (sym[:-1] == lc) & (sym[1:] == rc) & (wid[:-1] == wid[1:])
        cand = np.flatnonzero(m)
        if cand.size == 0:
            continue
        if cand.size > 1:
            # greedy left-to-right: within a run of consecutive
            # positions only even offsets survive (a merge consumes its
            # right neighbour)
            newrun = np.concatenate([[True], np.diff(cand) > 1])
            run_start = cand[newrun][np.cumsum(newrun) - 1]
            cand = cand[((cand - run_start) % 2) == 0]
        prod = left + right
        pc_ = vocab.get(prod)
        if pc_ is None:
            pc_ = len(toks)
            vocab[prod] = pc_
            toks.append(prod)
        sym[cand] = pc_
        alive = np.ones(len(sym), dtype=bool)
        alive[cand + 1] = False
        sym = sym[alive]
        wid = wid[alive]
    flat = np.array(toks, dtype=object)[sym]
    counts = np.bincount(wid, minlength=n).astype(np.int64)
    return flat, np.concatenate([[0], np.cumsum(counts)])


def bpe_encode_token_counts(ds, merges, text_col: str = "text"):
    """Corpus → Dataset[(token, n)] under a fixed BPE merge table.

    Scale shape: ONE corpus pass reduces to the word-frequency table
    (token-proportional shuffle, the ``token_counts`` plan); encoding
    then runs over DISTINCT words only — the Zipf win: web-scale
    corpora have ~10^12 tokens but ~10^8 distinct words — and a final
    vocabulary-sized groupby sums weighted per-word token counts."""
    from ray.data.aggregate import Sum

    merges = [(str(l), str(r)) for l, r in merges]

    def enc(batch: pa.Table) -> pa.Table:
        words = batch.column("word").to_pylist()
        cnt = np.asarray(batch.column("count"), dtype=np.int64)
        flat, offs = encode_words(words, merges)
        if len(flat) == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64())})
        w = np.repeat(cnt, np.diff(offs))
        u, inv = np.unique(flat, return_inverse=True)
        agg = np.zeros(len(u), dtype=np.int64)
        np.add.at(agg, inv, w)
        return pa.table({"token": pa.array(u.tolist(), pa.string()),
                         "pn": pa.array(agg)})

    return (word_frequencies(ds, text_col)
            .map_batches(enc, batch_format="pyarrow")
            .groupby("token").aggregate(Sum("pn", alias_name="n")))


class BpeEncoder:
    """Actor-pool ``map_batches`` stage: adds a ``list<string>`` token
    column per document under a fixed merge table.

    Per batch: tokenize → DISTINCT words (np.unique) → encode only
    words missing from the per-actor memo cache → fully-vectorized
    gather back to occurrences and docs (flat index arithmetic, no
    per-row loop).  The cache makes steady-state cost proportional to
    NEW distinct words per batch, not corpus tokens.  Use as
    ``map_batches(BpeEncoder, fn_constructor_args=(merges,),
    concurrency=N)``."""

    def __init__(self, merges, text_col: str = "text",
                 out_col: str = "tokens", max_cache: int = 2_000_000):
        from bqf_ray.functions.tokenize import tokenize_column
        self._tokenize = tokenize_column
        self.merges = [(str(l), str(r)) for l, r in merges]
        self.text_col = text_col
        self.out_col = out_col
        self.max_cache = int(max_cache)
        # word -> (object ndarray of tokens)
        self.cache: dict[str, np.ndarray] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat_words, doc_offs = self._tokenize(batch.column(self.text_col))
        words = flat_words.to_numpy(zero_copy_only=False)
        if len(words) == 0:
            empty = pa.array([[]] * batch.num_rows,
                             pa.list_(pa.string()))
            return batch.append_column(self.out_col, empty)
        uniq, inv = np.unique(words, return_inverse=True)
        missing = [w for w in uniq.tolist() if w not in self.cache]
        if missing:
            if len(self.cache) + len(missing) > self.max_cache:
                # eviction empties the memo, so EVERY word of this batch
                # must be (re-)encoded — recompute missing after the
                # clear or the gather below KeyErrors on words that were
                # cached before it
                self.cache.clear()
                missing = uniq.tolist()
            mflat, moffs = encode_words(missing, self.merges)
            for i, w in enumerate(missing):
                self.cache[w] = mflat[moffs[i]:moffs[i + 1]]
        u_toks = [self.cache[w] for w in uniq.tolist()]
        lens_u = np.fromiter((len(t) for t in u_toks), np.int64,
                             len(u_toks))
        flat_u = (np.concatenate(u_toks) if u_toks
                  else np.empty(0, dtype=object))
        offs_u = np.concatenate([[0], np.cumsum(lens_u)])
        # occurrence-level gather: token index ranges per word occurrence
        occ_len = lens_u[inv]
        occ_start = offs_u[:-1][inv]
        total = int(occ_len.sum())
        idx = (np.repeat(occ_start, occ_len)
               + np.arange(total, dtype=np.int64)
               - np.repeat(np.concatenate([[0], np.cumsum(occ_len)[:-1]]),
                           occ_len))
        flat_tokens = flat_u[idx]
        c = np.concatenate([[0], np.cumsum(occ_len)])
        doc_tok_offs = c[doc_offs]
        out = pa.ListArray.from_arrays(
            pa.array(doc_tok_offs, pa.int32()),
            pa.array(flat_tokens.tolist(), pa.string()))
        return batch.append_column(self.out_col, out)


def bpe_encode(ds, merges, text_col: str = "text", out_col: str = "tokens",
               concurrency: int | None = None, batch_size: int = 2048):
    """Tokenize every document with a frozen BPE merge table (adds
    ``out_col: list<string>``) — actor pool so the word memo cache and
    compiled merge table build once per actor, not per batch."""
    return ds.map_batches(
        BpeEncoder, batch_format="pyarrow", batch_size=batch_size,
        fn_constructor_args=(list(merges),),
        fn_constructor_kwargs=dict(text_col=text_col, out_col=out_col),
        # callable-class stages need an actor pool; autoscale up unless
        # the caller pins the pool size
        concurrency=concurrency if concurrency is not None else (1, 8))
