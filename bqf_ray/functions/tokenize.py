"""Tokenization / shingling / windowed-min kernels (vectorized).

These are the engine's analog of the reference's rolling k-mer machinery
(semantics of /root/reference/src/bqf_cf.cpp:80-116 and
/root/reference/src/abstract_bqf.cpp:195-248): documents play the role of
sequences, whitespace tokens play the role of nucleotides, ``s``-token
shingles play the role of s-mers and ``k = s + z`` token windows play the
role of k-mers (fimpera virtualization = min over the z+1 constituent
shingles).

Tokenization is pyarrow's C++ ``utf8_split_whitespace`` (zero-copy list
array); shingle hashing is a vectorized combine over per-token xxhash64
values, so no shingle strings are ever materialized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bqf_ray.functions.hashing import fmix64, xxhash64_array

U64 = np.uint64


def tokenize_column(texts) -> tuple[np.ndarray, np.ndarray]:
    """Split a string column on whitespace.

    Returns ``(flat_tokens, doc_offsets)`` where ``flat_tokens`` is a
    pyarrow StringArray of all tokens (empties dropped) and ``doc_offsets``
    is int64[n_docs+1] into it.
    """
    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), type=pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lists = pc.utf8_split_whitespace(texts)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten()          # respects slices; null rows contribute 0
    nonempty = pc.not_equal(pc.utf8_length(flat), 0)
    lens = lists.value_lengths().fill_null(0)
    offsets = np.concatenate([[0], np.cumsum(np.asarray(lens, dtype=np.int64))])
    # remap offsets after dropping empty tokens
    keep = np.asarray(nonempty).astype(np.int64)
    cum = np.concatenate([[0], np.cumsum(keep)])
    doc_offsets = cum[offsets]
    flat_tokens = flat.filter(nonempty)
    return flat_tokens, doc_offsets


def token_hashes(texts, seed: int = 0, algo: str = "xxh64",
                 ) -> tuple[np.ndarray, np.ndarray]:
    """64-bit hash of every whitespace token; returns (hashes, doc_offsets).

    ``algo="xxh64"`` (default) is the fast vectorized path; ``"md5"``
    (seed ignored) is bit-reproducible in ANSI SQL — see
    :func:`bqf_ray.functions.hashing.md5_hash64_array`.
    """
    toks, offs = tokenize_column(texts)
    if algo == "md5":
        from bqf_ray.functions.hashing import md5_hash64_array
        return md5_hash64_array(toks), offs
    if algo != "xxh64":
        raise ValueError(f"unknown token hash algo {algo!r}")
    # text repeats its tokens (a 1,000-page batch of generated pages has
    # 88k tokens, 1.5k distinct): hash each distinct token once, gather
    enc = pc.dictionary_encode(toks, null_encoding="encode")
    uniq = xxhash64_array(enc.dictionary, seed=seed)
    return uniq[enc.indices.to_numpy(zero_copy_only=False)], offs


def shingle_hashes(token_hash: np.ndarray, doc_offsets: np.ndarray, s: int,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Hashes of all ``s``-token shingles per document (order-sensitive).

    Combine rule: ``H_i = fmix64( Σ_{j<s} rot(h_{i+j}, j*7) )`` — a
    position-dependent mix of the member token hashes, vectorized with a
    strided sum; never builds shingle strings.  Documents shorter than
    ``s`` tokens yield no shingles.  Returns ``(flat_shingle_hashes,
    shingle_doc_offsets)``.
    """
    doc_offsets = np.asarray(doc_offsets, dtype=np.int64)
    n_docs = len(doc_offsets) - 1
    lens = doc_offsets[1:] - doc_offsets[:-1]
    out_lens = np.maximum(lens - s + 1, 0)
    out_offsets = np.concatenate([[0], np.cumsum(out_lens)]).astype(np.int64)
    total = int(out_offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.uint64), out_offsets
    # global index of the first token of each shingle
    doc_id = np.repeat(np.arange(n_docs), out_lens)
    within = np.arange(total, dtype=np.int64) - np.repeat(out_offsets[:-1], out_lens)
    start = doc_offsets[:-1][doc_id] + within
    acc = np.zeros(total, dtype=np.uint64)
    th = token_hash.astype(np.uint64, copy=False)
    for j in range(s):
        r = np.uint64((7 * j) % 64)
        hj = th[start + j]
        acc += (hj << r) | (hj >> (np.uint64(64) - r)) if j else hj
    return fmix64(acc), out_offsets


def sliding_window_min(values: np.ndarray, offsets: np.ndarray, w: int,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per-document sliding-window minimum of width ``w`` (fimpera's
    k-mer-from-s-mer min, /root/reference/src/abstract_bqf.cpp:236-246).

    Fully vectorized: ONE global strided-view min over the concatenated
    value array, then a gather of the window starts that lie inside a
    document (windows crossing doc boundaries are simply never selected)
    — no per-document Python loop."""
    from numpy.lib.stride_tricks import sliding_window_view

    offsets = np.asarray(offsets, dtype=np.int64)
    lens = offsets[1:] - offsets[:-1]
    out_lens = np.maximum(lens - w + 1, 0)
    out_offsets = np.concatenate([[0], np.cumsum(out_lens)]).astype(np.int64)
    total = int(out_offsets[-1])
    if total == 0 or len(values) < w:
        return np.empty(0, dtype=values.dtype), out_offsets
    allmin = sliding_window_view(values, w).min(axis=1)
    within = np.arange(total) - np.repeat(out_offsets[:-1], out_lens)
    starts = np.repeat(offsets[:-1], out_lens) + within
    return allmin[starts], out_offsets


def char_ngram_hashes(texts, n: int = 5, seed: int = 0,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Character n-gram (shingle) hashes per document — rolling content
    fingerprint basis.  Vectorized: reuses the padded-row xxhash via a
    byte-level strided combine."""
    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), type=pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    bin_ = texts.cast(pa.binary())
    off_buf = np.frombuffer(bin_.buffers()[1], dtype=np.int32,
                            count=len(bin_) + bin_.offset + 1)
    data_b = bin_.buffers()[2]
    data = np.frombuffer(data_b, dtype=np.uint8) if data_b is not None else np.empty(0, np.uint8)
    starts = off_buf[bin_.offset:bin_.offset + len(bin_)].astype(np.int64)
    lens = (off_buf[bin_.offset + 1:] - off_buf[bin_.offset:-1]).astype(np.int64)[:len(bin_)]
    out_lens = np.maximum(lens - n + 1, 0)
    out_offsets = np.concatenate([[0], np.cumsum(out_lens)]).astype(np.int64)
    total = int(out_offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.uint64), out_offsets
    doc_id = np.repeat(np.arange(len(bin_)), out_lens)
    within = np.arange(total, dtype=np.int64) - np.repeat(out_offsets[:-1], out_lens)
    gstart = starts[doc_id] + within
    acc = np.zeros(total, dtype=np.uint64)
    for j in range(n):
        b = data[gstart + j].astype(np.uint64)
        acc = acc * np.uint64(1099511628211) + b + np.uint64(seed)
    return fmix64(acc), out_offsets
