"""Backpack Quotient Filter variants — counting codecs over the RSQF kernel.

Mirrors the reference's class family (SURVEY.md §0):

- :class:`Rsqf`    — membership only (count_size=0), /root/reference/src/rsqf.cpp
- :class:`BqfEc`   — exact counts saturating at 2^c−1, /root/reference/src/bqf_ec.cpp
- :class:`BqfOom`  — order-of-magnitude counts: stores ⌊log2(count)⌋ clamped,
                     reports 2^stored, /root/reference/src/bqf_oom.cpp:112-125.
                     Duplicate combine is ``max`` of stored exponents — the
                     order-invariant replacement for the reference's
                     first-wins no-op add (bqf_oom.cpp:112-114), required by
                     the engine's merge-associativity contract.
- :class:`BqfCf`   — counting-filter: 1-bit backpack that flips on the second
                     occurrence (/root/reference/src/bqf_cf.cpp:23-37).  The
                     set {key : seen ≥ 2} equals the reference's emitted
                     first-repeat stream (bqf_cf.cpp:119-205).

Plus :func:`fimpera_query` — the reference's sequence-level k-mer-from-s-mer
query (/root/reference/src/abstract_bqf.cpp:195-248) generalized to token
streams: s-gram shingle abundances are looked up, k-gram abundance is the
min over its z+1 constituent shingles, and per-sequence stats
{minimum, maximum, average, presence_ratio} are returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bqf_ray.sketches.base import register
from bqf_ray.sketches.rsqf import U64, _QuotientFilterKernel


@register
class Rsqf(_QuotientFilterKernel):
    """Plain rank-and-select quotient filter: query → 1/0 membership."""

    def __init__(self, q: int = 10, hash_bits: int = 64, auto_resize: bool = True):
        super().__init__(q=q, hash_bits=hash_bits, count_size=0,
                         auto_resize=auto_resize)

    @classmethod
    def _construct(cls, config):
        return cls(q=int(config["q"]), hash_bits=int(config["hash_bits"]),
                   auto_resize=bool(config["auto_resize"]))


@register
class BqfEc(_QuotientFilterKernel):
    """Exact-count BQF: counts saturate at 2^c−1 (add is a clamped sum,
    /root/reference/src/bqf_ec.cpp:120-133,148-154)."""

    def __init__(self, q: int = 10, count_size: int = 5, hash_bits: int = 64,
                 auto_resize: bool = True):
        assert count_size >= 1
        super().__init__(q=q, hash_bits=hash_bits, count_size=count_size,
                         auto_resize=auto_resize)


@register
class BqfOom(_QuotientFilterKernel):
    """Order-of-magnitude BQF: stored = min(⌊log2(count)⌋, 2^c−1),
    reported = 2^stored (/root/reference/src/bqf_oom.cpp:112-125)."""

    _combine = "max"

    def __init__(self, q: int = 10, count_size: int = 5, hash_bits: int = 64,
                 auto_resize: bool = True):
        # count_size <= 6 keeps the stored-exponent cap 2^c-1 <= 63, so the
        # 1 << stored reconstruction in _to_raw/_report never overflows 64
        # bits (a 2^63 count is unreachable anyway)
        assert 1 <= count_size <= 6, \
            "BqfOom requires count_size in [1, 6] (exponent cap <= 63)"
        super().__init__(q=q, hash_bits=hash_bits, count_size=count_size,
                         auto_resize=auto_resize)

    def _from_raw(self, raw: np.ndarray) -> np.ndarray:
        raw = np.maximum(np.asarray(raw, dtype=np.int64), 1)
        exp = np.floor(np.log2(raw.astype(np.float64))).astype(np.int64)
        # float log2 can undershoot on exact powers near 2^53; fix up
        exp += (np.int64(1) << np.minimum(exp + 1, 62)) <= raw
        return np.minimum(exp, np.int64(self._count_cap())).astype(np.uint64)

    def _to_raw(self, stored: np.ndarray) -> np.ndarray:
        return (np.int64(1) << stored.astype(np.int64))

    def _report(self, stored: np.ndarray, found: np.ndarray) -> np.ndarray:
        return np.where(found, U64(1) << stored.astype(np.uint64), U64(0))


@register
class BqfCf(_QuotientFilterKernel):
    """Counting-filter BQF (c=1): the backpack bit records "seen ≥ 2";
    ``second_occurrence_keys`` is the reference's first-repeat output set
    (/root/reference/src/bqf_cf.cpp:23-37,119-205)."""

    def __init__(self, q: int = 10, hash_bits: int = 64, auto_resize: bool = True):
        super().__init__(q=q, hash_bits=hash_bits, count_size=1,
                         auto_resize=auto_resize)

    @classmethod
    def _construct(cls, config):
        return cls(q=int(config["q"]), hash_bits=int(config["hash_bits"]),
                   auto_resize=bool(config["auto_resize"]))

    def _from_raw(self, raw: np.ndarray) -> np.ndarray:
        return (np.minimum(np.asarray(raw, dtype=np.int64), 2) - 1).astype(np.uint64)

    def _to_raw(self, stored: np.ndarray) -> np.ndarray:
        return stored.astype(np.int64) + 1

    def second_occurrence_keys(self) -> np.ndarray:
        """All keys whose backpack bit is set (seen at least twice)."""
        self._compact()
        keys, stored = self._enumerate_built()
        return self._full_keys(keys[stored == 1])


# ---------------------------------------------------------------------------
# fimpera sequence query (C6)
# ---------------------------------------------------------------------------

@dataclass
class ResultQuery:
    """Per-sequence stats record (mirrors ``result_query``,
    /root/reference/src/headers/additional_methods.hpp:248-253)."""
    minimum: int
    maximum: int
    average: float
    presence_ratio: float


def fimpera_from_abundances(ab: np.ndarray, offsets: np.ndarray, z: int,
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized fimpera aggregation over per-shingle abundances.

    ``ab``: uint64 abundances of consecutive s-gram shingles, concatenated
    per document with ``offsets``; ``z``: k = s + z.  For each document,
    k-gram abundance = min over its z+1 consecutive shingle abundances
    (/root/reference/src/abstract_bqf.cpp:236-246), then:
      minimum  = 0 if any k-gram absent else min abundance
      maximum  = max over present k-grams (0 if none)
      average  = sum(present abundances) / n_kgrams   (float division —
                 deliberate deviation from the reference's integer division
                 at abstract_bqf.cpp:247, documented)
      presence_ratio = n_present / n_kgrams
    Documents with no k-grams report (0, 0, 0.0, 0.0).
    Returns (minimum, maximum, average, presence_ratio) arrays.
    """
    from bqf_ray.functions.tokenize import sliding_window_min

    kab, koffs = sliding_window_min(ab.astype(np.int64), offsets, z + 1)
    n_docs = len(offsets) - 1
    mins = np.zeros(n_docs, dtype=np.int64)
    maxs = np.zeros(n_docs, dtype=np.int64)
    avgs = np.zeros(n_docs, dtype=np.float64)
    ratios = np.zeros(n_docs, dtype=np.float64)
    lens = koffs[1:] - koffs[:-1]
    nz = lens > 0
    if not nz.any():
        return mins, maxs, avgs, ratios
    doc_id = np.repeat(np.arange(n_docs), lens)
    present = kab > 0
    n_present = np.zeros(n_docs, dtype=np.int64)
    np.add.at(n_present, doc_id[present], 1)
    sums = np.zeros(n_docs, dtype=np.int64)
    np.add.at(sums, doc_id, np.where(present, kab, 0))
    big = np.int64(np.iinfo(np.int64).max)
    pm = np.full(n_docs, big)
    np.minimum.at(pm, doc_id[present], kab[present])
    np.maximum.at(maxs, doc_id, kab)
    all_present = np.zeros(n_docs, dtype=bool)
    any_absent = np.zeros(n_docs, dtype=bool)
    np.bitwise_or.at(any_absent, doc_id[~present], True)
    all_present = nz & ~any_absent
    mins = np.where(all_present, np.where(pm == big, 0, pm), 0)
    avgs[nz] = sums[nz] / lens[nz]
    ratios[nz] = n_present[nz] / lens[nz]
    return mins, maxs, avgs, ratios
