"""DDSketch — relative-error quantile sketch (Masson, Rim & Lee,
VLDB 2019).

Values map to geometric buckets ``i = ceil(log_gamma(x))`` with
``gamma = (1+alpha)/(1-alpha)``; a quantile is answered by walking the
cumulative bucket counts and returning the bucket's log-midpoint
``2·gamma^i / (gamma+1)``, which is within RELATIVE error ``alpha`` of
the true quantile value — the guarantee quantile sketches with RANK
error (KLL/t-digest, this library's other two) don't give.  Separate
positive / zero / negative stores cover the full real line (negatives
mirror through ``-x``).

Bucket counts are integers and the bucket index set is value-determined,
so ``merge`` (keywise count addition) is exactly associative AND
commutative — bit-identical results under ANY merge tree or input
partitioning, unlike the compaction-based KLL.  When the store exceeds
``max_buckets`` the LOWEST-index buckets collapse into one (the
published collapsing variant): the alpha guarantee then holds for all
quantiles above the collapsed mass, which at the default 2048 buckets
covers > 600 orders of magnitude of dynamic range before any collapse.
"""

from __future__ import annotations

import numpy as np

from bqf_ray.sketches.base import (MergeableSketch, narrow_ints, register,
                                   require)


@register
class DDSketch(MergeableSketch):
    config_fields = ("alpha", "max_buckets")
    config_types = {"alpha": float, "max_buckets": int}

    def __init__(self, alpha: float = 0.01, max_buckets: int = 2048):
        assert 0 < alpha < 1
        self.alpha = float(alpha)
        self.max_buckets = int(max_buckets)
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = np.log(self.gamma)
        # positive / negative stores: sorted bucket indices + counts
        self._pos_idx = np.empty(0, dtype=np.int64)
        self._pos_cnt = np.empty(0, dtype=np.int64)
        self._neg_idx = np.empty(0, dtype=np.int64)
        self._neg_cnt = np.empty(0, dtype=np.int64)
        self.zero_count = 0

    # -- helpers ------------------------------------------------------

    def _bucket(self, x: np.ndarray) -> np.ndarray:
        return np.ceil(np.log(x) / self._log_gamma).astype(np.int64)

    @staticmethod
    def _add(idx_a, cnt_a, idx_b, cnt_b):
        alli = np.concatenate([idx_a, idx_b])
        allc = np.concatenate([cnt_a, cnt_b])
        order = np.argsort(alli, kind="stable")
        alli, allc = alli[order], allc[order]
        new = np.concatenate([[True], alli[1:] != alli[:-1]]) \
            if len(alli) else np.empty(0, dtype=bool)
        gid = np.cumsum(new) - 1
        iu = alli[new]
        cu = np.zeros(len(iu), dtype=np.int64)
        np.add.at(cu, gid, allc)
        return iu, cu

    def _collapse(self):
        for attr_i, attr_c in (("_pos_idx", "_pos_cnt"),
                               ("_neg_idx", "_neg_cnt")):
            idx, cnt = getattr(self, attr_i), getattr(self, attr_c)
            if len(idx) > self.max_buckets:
                cut = len(idx) - self.max_buckets
                # collapse the cut+1 lowest buckets into the (cut+1)-th
                keep_i = idx[cut:].copy()
                keep_c = cnt[cut:].copy()
                keep_c[0] += int(cnt[:cut].sum())
                setattr(self, attr_i, keep_i)
                setattr(self, attr_c, keep_c)

    # -- updates ------------------------------------------------------

    def update_batch(self, keys: np.ndarray, counts=None) -> None:
        """keys = raw float VALUES (use prepare='value')."""
        v = np.asarray(keys, dtype=np.float64)
        if counts is None:
            counts = np.ones(len(v), dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
        if len(v) == 0:
            return
        pos, neg, zero = v > 0, v < 0, v == 0
        self.zero_count += int(counts[zero].sum())
        if pos.any():
            bi, bc = self._group(self._bucket(v[pos]), counts[pos])
            self._pos_idx, self._pos_cnt = self._add(
                self._pos_idx, self._pos_cnt, bi, bc)
        if neg.any():
            bi, bc = self._group(self._bucket(-v[neg]), counts[neg])
            self._neg_idx, self._neg_cnt = self._add(
                self._neg_idx, self._neg_cnt, bi, bc)
        self._collapse()

    @staticmethod
    def _group(idx: np.ndarray, cnt: np.ndarray):
        return DDSketch._add(idx, cnt,
                             np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.int64))

    def merge(self, other: "DDSketch") -> "DDSketch":
        self.check_mergeable(other)
        self._pos_idx, self._pos_cnt = self._add(
            self._pos_idx, self._pos_cnt, other._pos_idx, other._pos_cnt)
        self._neg_idx, self._neg_cnt = self._add(
            self._neg_idx, self._neg_cnt, other._neg_idx, other._neg_cnt)
        self.zero_count += other.zero_count
        self._collapse()
        return self

    # -- queries ------------------------------------------------------

    @property
    def count(self) -> int:
        return int(self._pos_cnt.sum() + self._neg_cnt.sum()
                   + self.zero_count)

    def _bucket_value(self, idx: np.ndarray) -> np.ndarray:
        return 2.0 * np.power(self.gamma, idx.astype(np.float64)) \
            / (self.gamma + 1.0)

    def quantile(self, q) -> np.ndarray | float:
        """q in [0,1] (scalar or array) → value within relative error
        alpha of the true q-quantile, using the SQL PERCENTILE_DISC
        rank rule (element at ``ceil(q·n) − 1`` of the sorted values —
        same convention as ``aggregates.grouped_exact_quantiles``, so
        the bound is checked against the matching exact element)."""
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        n = self.count
        if n == 0:
            out = np.full(len(qs), np.nan)
            return out if np.ndim(q) else float(out[0])
        # global ascending order: negatives (desc bucket idx), zero, pos
        neg_vals = -self._bucket_value(self._neg_idx[::-1])
        neg_cnts = self._neg_cnt[::-1]
        pos_vals = self._bucket_value(self._pos_idx)
        vals = np.concatenate([neg_vals, [0.0], pos_vals])
        cnts = np.concatenate([neg_cnts, [self.zero_count], self._pos_cnt])
        cum = np.cumsum(cnts)
        rank = np.clip(np.ceil(qs * n).astype(np.int64) - 1, 0, n - 1)
        pos = np.searchsorted(cum, rank + 1)
        out = vals[np.minimum(pos, len(vals) - 1)]
        return out if np.ndim(q) else float(out[0])

    def error_bound(self) -> float:
        return self.alpha

    # -- serde --------------------------------------------------------

    def _state_arrays(self):
        return {"pos_idx": narrow_ints(self._pos_idx),
                "pos_cnt": narrow_ints(self._pos_cnt),
                "neg_idx": narrow_ints(self._neg_idx),
                "neg_cnt": narrow_ints(self._neg_cnt),
                "zero": np.array([self.zero_count], dtype=np.int64)}

    def _config(self):
        return {"alpha": self.alpha, "max_buckets": self.max_buckets}

    @classmethod
    def _array_specs(cls, config):
        a, m = config["alpha"], config["max_buckets"]
        require(0 < a < 1 and m >= 1, f"DDSketch alpha={a} max_buckets={m}")
        return {"pos_idx": ("iu", ("pos",)), "pos_cnt": ("iu", ("pos",)),
                "neg_idx": ("iu", ("neg",)), "neg_cnt": ("iu", ("neg",)),
                "zero": ("i", (1,))}

    @classmethod
    def _from_state(cls, config, arrays):
        s = cls(alpha=float(config["alpha"]),
                max_buckets=int(config["max_buckets"]))
        s._pos_idx = arrays["pos_idx"].astype(np.int64)
        s._pos_cnt = arrays["pos_cnt"].astype(np.int64)
        s._neg_idx = arrays["neg_idx"].astype(np.int64)
        s._neg_cnt = arrays["neg_cnt"].astype(np.int64)
        s.zero_count = int(arrays["zero"][0])
        return s
