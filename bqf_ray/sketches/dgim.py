"""Exponential histogram — DGIM sliding-window count sketch (Datar,
Gionis, Indyk & Motwani, "Maintaining stream statistics over sliding
windows", SODA 2002).

Answers "how many events arrived in the trailing window (cut, T]?" for
ANY cut, from O(L·log n) state instead of the stream itself: events are
held in time-ordered buckets of power-of-2 sizes with at most ``L + 1``
buckets per size (an overflow merges the two OLDEST of that size into
one of double size).  A bucket stores only its size and the timestamp
of its NEWEST event, so bucket spans partition the stream; exactly one
bucket's span contains the cut, and counting it at half its size gives

    |estimate − exact| ≤ ⌈straddler_size / 2⌉     (absolute, emitted)
    relative error     ≤ 1 / (2L)                 (published bound)

Unlike this library's :class:`~bqf_ray.sketches.base.MergeableSketch`
UDAFs, EH state is inherently TIME-ORDERED: ``merge`` is ordered
(older sketch absorbs a strictly-newer one) and NOT commutative, so
this deliberately does not implement the MergeableSketch protocol —
the distributed plan is "time-range partition → per-partition build →
ordered fold of tiny partials", the streaming counterpart of the
associative tree-merge used everywhere else (same split as the
reference's stream output mode, which also routes per-shard state
through ordered actors — /root/reference/src/bqf_cf.cpp:56-77).

Batch construction is fully vectorized: a sorted timestamp batch
starts as all-size-1 buckets, then one carry-propagation pass per
power-of-2 level pairs the oldest ``2m`` buckets (numpy slicing), the
same canonical form the sequential rule maintains.
"""

from __future__ import annotations

import numpy as np

_MAX_LEVELS = 64


def _canonicalize(sizes: np.ndarray, ends: np.ndarray, L: int):
    """Enforce ≤ L+1 buckets per size via oldest-pair merges, level by
    level.  Inputs are time-ordered (oldest first) with power-of-2
    sizes; returns (sizes, ends) time-ordered."""
    out_sizes: list[np.ndarray] = []
    out_ends: list[np.ndarray] = []
    lvl = (np.round(np.log2(np.maximum(sizes, 1)))
           .astype(np.int64) if len(sizes) else
           np.empty(0, dtype=np.int64))
    max_lvl = int(lvl.max()) if len(lvl) else -1
    carry_e = np.empty(0, dtype=np.int64)
    level = 0
    while level <= max_lvl or len(carry_e):
        if level >= _MAX_LEVELS:                  # cannot occur for n < 2^64
            out_sizes.append(np.full(len(carry_e), np.int64(1) << level,
                                     dtype=np.int64))
            out_ends.append(carry_e)
            carry_e = np.empty(0, dtype=np.int64)
            break
        s = np.int64(1) << np.int64(level)
        e_here = ends[lvl == level]
        # carried buckets interleave with this level's natives in time —
        # merge the two time-ordered lists by end_ts
        if len(carry_e):
            e_all = np.sort(np.concatenate([carry_e, e_here]), kind="stable")
        else:
            e_all = e_here
        c = len(e_all)
        m = -(-(c - (L + 1)) // 2) if c > L + 1 else 0
        if m:
            carry_e = e_all[1:2 * m:2]            # newer end of each pair
            keep_e = e_all[2 * m:]
        else:
            keep_e = e_all
            carry_e = np.empty(0, dtype=np.int64)
        if len(keep_e):
            out_sizes.append(np.full(len(keep_e), s, dtype=np.int64))
            out_ends.append(keep_e)
        level += 1
    sizes = np.concatenate(out_sizes) if out_sizes else \
        np.empty(0, dtype=np.int64)
    ends = np.concatenate(out_ends) if out_ends else \
        np.empty(0, dtype=np.int64)
    order = np.argsort(ends, kind="stable")
    return sizes[order], ends[order]


def _compact_adjacent(sizes: np.ndarray, ends: np.ndarray, L: int):
    """Span-safe compaction: merge only ADJACENT equal-size bucket
    pairs (oldest first) while a size class exceeds L+1.  Non-adjacent
    excess (a different-size bucket between two same-size ones) is
    left alone — a merged bucket must cover a contiguous time span or
    the estimate's span-partition argument breaks.  Bucket lists are
    O((L + folds)·log n) small, so a python pass is not a hot path."""
    szs = list(map(int, sizes))
    ens = list(map(int, ends))
    changed = True
    while changed:
        changed = False
        from collections import Counter
        cnt = Counter(szs)
        for s in sorted(cnt):
            while cnt[s] > L + 1:
                pos = next((j for j in range(len(szs) - 1)
                            if szs[j] == s and szs[j + 1] == s), None)
                if pos is None:
                    break
                szs[pos:pos + 2] = [2 * s]
                ens[pos:pos + 2] = [ens[pos + 1]]
                cnt[s] -= 2
                cnt[2 * s] += 1
                changed = True
    return (np.asarray(szs, dtype=np.int64),
            np.asarray(ens, dtype=np.int64))


class ExponentialHistogram:
    """Windowed-count sketch state: time-ordered (sizes, end_ts)."""

    def __init__(self, L: int = 32):
        if L < 1:
            raise ValueError("L >= 1")
        self.L = int(L)
        self.sizes = np.empty(0, dtype=np.int64)
        self.ends = np.empty(0, dtype=np.int64)
        self.n = 0                                 # exact total inserted
        self.min_ts: int | None = None
        self.max_ts: int | None = None

    @classmethod
    def from_sorted(cls, ts: np.ndarray, L: int = 32
                    ) -> "ExponentialHistogram":
        """Build from an ascending int64 timestamp array (vectorized)."""
        self = cls(L)
        ts = np.asarray(ts, dtype=np.int64)
        if len(ts) == 0:
            return self
        if len(ts) > 1 and (np.diff(ts) < 0).any():
            raise ValueError("timestamps must be ascending")
        sizes = np.ones(len(ts), dtype=np.int64)
        self.sizes, self.ends = _canonicalize(sizes, ts, self.L)
        self.n = int(len(ts))
        self.min_ts = int(ts[0])
        self.max_ts = int(ts[-1])
        return self

    def merge_newer(self, other: "ExponentialHistogram"
                    ) -> "ExponentialHistogram":
        """Ordered fold: absorb a sketch over a LATER time range
        (other.min_ts >= self.max_ts required — time-range partitioning
        guarantees it).  Concatenating the time-ordered bucket lists
        preserves the span partition, so the DGIM bound survives the
        fold."""
        if self.L != other.L:
            raise ValueError(f"L mismatch: {self.L} != {other.L}")
        if other.n == 0:
            return self
        if self.n == 0:
            self.sizes, self.ends = other.sizes.copy(), other.ends.copy()
            self.n, self.min_ts, self.max_ts = \
                other.n, other.min_ts, other.max_ts
            return self
        if other.min_ts < self.max_ts:
            raise ValueError(
                f"ordered merge requires other.min_ts ({other.min_ts}) >= "
                f"self.max_ts ({self.max_ts}); repartition by time range")
        sizes = np.concatenate([self.sizes, other.sizes])
        ends = np.concatenate([self.ends, other.ends])
        # NOT _canonicalize: pairing the two oldest of a size across the
        # seam can merge non-ADJACENT buckets (a smaller bucket between
        # them), breaking the span partition the estimate relies on.
        # Only adjacent-in-time merges are span-safe here.
        self.sizes, self.ends = _compact_adjacent(sizes, ends, self.L)
        self.n += other.n
        self.max_ts = other.max_ts
        return self

    def estimate_after(self, cut: int) -> tuple[int, int]:
        """(estimate, bound) for the count of events with ts > cut.
        bound is the by-construction absolute error ⌈straddler/2⌉."""
        if self.n == 0:
            return 0, 0
        i = int(np.searchsorted(self.ends, cut, side="right"))
        if i >= len(self.ends):
            return 0, 0
        inside = int(self.sizes[i + 1:].sum())
        straddler = int(self.sizes[i])
        if i == 0 and self.min_ts is not None and self.min_ts > cut:
            # whole stream inside the window: no span contains the cut
            return inside + straddler, 0
        return inside + straddler - straddler // 2, (straddler + 1) // 2

    def state_nbytes(self) -> int:
        return int(self.sizes.nbytes + self.ends.nbytes)

    # compact serde for shipping partials (driver fold path)
    def to_arrays(self):
        return (np.int64(self.L), np.int64(self.n),
                np.int64(-1 if self.min_ts is None else self.min_ts),
                np.int64(-1 if self.max_ts is None else self.max_ts),
                self.sizes, self.ends)

    @classmethod
    def from_arrays(cls, L, n, min_ts, max_ts, sizes, ends
                    ) -> "ExponentialHistogram":
        self = cls(int(L))
        self.n = int(n)
        if self.n:              # any int64 is a timestamp, pre-1970 too
            self.min_ts, self.max_ts = int(min_ts), int(max_ts)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        return self


class ExponentialHistogramSum:
    """Windowed-SUM exponential histogram over non-negative integer
    values (revenue cents, token counts) — the sum generalization of
    DGIM (Datar et al. 2002 §5 treat a value-v arrival as v unit
    arrivals; exploding is infeasible in batch, so buckets here are
    formed by GEOMETRIC CELLS of the newest-first cumulative sum:
    bucket boundaries fall where cumsum crosses powers of (1 + 1/L),
    giving every bucket sum ≤ ~(newer sum)/L directly).

    Shares the count sketch's estimate machinery: bucket spans
    partition time, exactly one straddles a cut, counted at half its
    sum ⇒ |estimate − exact| ≤ ⌈straddler_sum/2⌉ BY CONSTRUCTION (the
    emitted certificate), with relative error ≈ 1/L + v_max/window_sum
    (tested with slack).  Ordered merge re-cells the concatenated
    bucket list on the grown cumulative axis — merged buckets stay
    within ~2 cell widths because members obeyed their own (narrower)
    cells when created.  Fully vectorized: build and merge are a
    cumsum + log + segment-sum."""

    def __init__(self, L: int = 32):
        if L < 1:
            raise ValueError("L >= 1")
        self.L = int(L)
        self._lg = np.log1p(1.0 / self.L)
        self.sums = np.empty(0, dtype=np.int64)    # oldest → newest
        self.ends = np.empty(0, dtype=np.int64)
        self.total = 0
        self.n = 0
        self.min_ts: int | None = None
        self.max_ts: int | None = None

    def _recell(self, sums: np.ndarray, ends: np.ndarray):
        """(oldest→newest bucket lists) → merged per geometric cell of
        the newest-first cumulative axis."""
        if len(sums) == 0:
            return sums, ends
        s_desc = sums[::-1].astype(np.float64)      # newest first
        c = np.cumsum(s_desc)
        g = np.floor(np.log(np.maximum(c, 1.0)) / self._lg).astype(np.int64)
        # segment-sum consecutive equal cells (g nondecreasing)
        bounds = np.nonzero(np.diff(g))[0] + 1
        starts = np.concatenate(([0], bounds))
        stops = np.concatenate((bounds, [len(g)]))
        cs = np.concatenate(([0], np.cumsum(sums[::-1])))
        out_s = (cs[stops] - cs[starts]).astype(np.int64)
        out_e = ends[::-1][starts]                  # newest end of segment
        return out_s[::-1].copy(), out_e[::-1].copy()

    @classmethod
    def from_sorted(cls, ts: np.ndarray, values: np.ndarray, L: int = 32
                    ) -> "ExponentialHistogramSum":
        self = cls(L)
        ts = np.asarray(ts, dtype=np.int64)
        v = np.asarray(values, dtype=np.int64)
        if len(ts) != len(v):
            raise ValueError("ts/values length mismatch")
        if len(ts) == 0:
            return self
        if len(ts) > 1 and (np.diff(ts) < 0).any():
            raise ValueError("timestamps must be ascending")
        if (v < 0).any():
            raise ValueError("values must be non-negative")
        self.sums, self.ends = self._recell(v, ts)
        self.total = int(v.sum())
        self.n = len(ts)
        self.min_ts, self.max_ts = int(ts[0]), int(ts[-1])
        return self

    def merge_newer(self, other: "ExponentialHistogramSum"
                    ) -> "ExponentialHistogramSum":
        if self.L != other.L:
            raise ValueError(f"L mismatch: {self.L} != {other.L}")
        if other.n == 0:
            return self
        if self.n == 0:
            self.sums, self.ends = other.sums.copy(), other.ends.copy()
            self.total, self.n = other.total, other.n
            self.min_ts, self.max_ts = other.min_ts, other.max_ts
            return self
        if other.min_ts < self.max_ts:
            raise ValueError(
                f"ordered merge requires other.min_ts ({other.min_ts}) >= "
                f"self.max_ts ({self.max_ts}); repartition by time range")
        self.sums, self.ends = self._recell(
            np.concatenate([self.sums, other.sums]),
            np.concatenate([self.ends, other.ends]))
        self.total += other.total
        self.n += other.n
        self.max_ts = other.max_ts
        return self

    def estimate_after(self, cut: int) -> tuple[int, int]:
        """(estimated sum of values with ts > cut, certificate bound)."""
        if self.n == 0:
            return 0, 0
        i = int(np.searchsorted(self.ends, cut, side="right"))
        if i >= len(self.ends):
            return 0, 0
        inside = int(self.sums[i + 1:].sum())
        straddler = int(self.sums[i])
        if i == 0 and self.min_ts is not None and self.min_ts > cut:
            return inside + straddler, 0
        return inside + straddler - straddler // 2, (straddler + 1) // 2

    def state_nbytes(self) -> int:
        return int(self.sums.nbytes + self.ends.nbytes)

    def to_arrays(self):
        return (np.int64(self.L), np.int64(self.n), np.int64(self.total),
                np.int64(-1 if self.min_ts is None else self.min_ts),
                np.int64(-1 if self.max_ts is None else self.max_ts),
                self.sums, self.ends)

    @classmethod
    def from_arrays(cls, L, n, total, min_ts, max_ts, sums, ends
                    ) -> "ExponentialHistogramSum":
        self = cls(int(L))
        self.n = int(n)
        self.total = int(total)
        if self.n:
            self.min_ts, self.max_ts = int(min_ts), int(max_ts)
        self.sums = np.asarray(sums, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        return self
