"""Merging t-digest (Dunning & Ertl, "Computing extremely accurate
quantiles using t-digests").

Fully vectorized compression: sorted points are binned by the k1 scale
function k(q) = (δ/2π)·asin(2q−1), consecutive points with the same
⌊k(q)⌋ merge into one centroid (np.add.reduceat) — centroid count stays
≤ ~δ and accuracy is highest at the tails, per the paper.

Published property: rank error ~O(q(1−q)/δ); tests assert empirical
quantile rank error ≤ 6/δ at the median and tighter at tails, under
arbitrary merge orders.  NOTE: unlike HLL/CM/Bloom/BQF, t-digest merge is
associative only up to its error bound (estimates, not bits, are
order-invariant) — the property tests assert bound-equality.
"""

from __future__ import annotations

import numpy as np

from bqf_ray.sketches.base import MergeableSketch, register, require

_BUFFER_LIMIT = 4096


@register
class TDigest(MergeableSketch):
    config_fields = ("delta",)
    config_types = {"delta": int}

    def __init__(self, delta: int = 200):
        self.delta = int(delta)
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self._buf: list[np.ndarray] = []
        self._buf_n = 0
        self.n = 0.0
        self.min = np.inf
        self.max = -np.inf

    # --- updates -----------------------------------------------------------

    def update_batch(self, keys: np.ndarray, counts=None) -> None:
        """keys are VALUES here (float64); counts are per-value weights."""
        vals = np.asarray(keys, dtype=np.float64)
        if len(vals) == 0:
            return
        if counts is not None:
            w = np.asarray(counts, dtype=np.float64)
        else:
            w = np.ones(len(vals), dtype=np.float64)
        self._buf.append(np.stack([vals, w]))
        self._buf_n += len(vals)
        self.n += float(w.sum())
        self.min = min(self.min, float(vals.min()))
        self.max = max(self.max, float(vals.max()))
        if self._buf_n >= _BUFFER_LIMIT:
            self._compress()

    def _k(self, q: np.ndarray) -> np.ndarray:
        return (self.delta / (2 * np.pi)) * np.arcsin(np.clip(2 * q - 1, -1, 1))

    def _compress(self) -> None:
        if self._buf_n == 0 and len(self.means):
            return
        parts_v = [self.means] + [b[0] for b in self._buf]
        parts_w = [self.weights] + [b[1] for b in self._buf]
        v = np.concatenate(parts_v)
        w = np.concatenate(parts_w)
        self._buf, self._buf_n = [], 0
        if len(v) == 0:
            return
        order = np.argsort(v, kind="stable")
        v, w = v[order], w[order]
        total = w.sum()
        cum = np.cumsum(w)
        q_mid = (cum - w / 2) / total
        bins = np.floor(self._k(q_mid)).astype(np.int64)
        # group consecutive equal bins
        starts = np.flatnonzero(np.concatenate([[True], bins[1:] != bins[:-1]]))
        wsum = np.add.reduceat(w, starts)
        vsum = np.add.reduceat(v * w, starts)
        self.means = vsum / wsum
        self.weights = wsum

    # --- queries -----------------------------------------------------------

    def quantile(self, q) -> np.ndarray | float:
        self._compress()
        scalar = np.isscalar(q)
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        if len(self.means) == 0:
            out = np.full(len(qs), np.nan)
            return float(out[0]) if scalar else out
        cum = np.cumsum(self.weights) - self.weights / 2
        targets = qs * self.n
        out = np.interp(targets, cum, self.means,
                        left=self.min, right=self.max)
        return float(out[0]) if scalar else out

    def cdf(self, x) -> np.ndarray | float:
        self._compress()
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if len(self.means) == 0:
            out = np.full(len(xs), np.nan)
            return float(out[0]) if scalar else out
        cum = np.cumsum(self.weights) - self.weights / 2
        out = np.interp(xs, self.means, cum / self.n, left=0.0, right=1.0)
        return float(out[0]) if scalar else out

    def error_bound(self) -> float:
        """Approximate worst-case rank error at the median."""
        return 6.0 / self.delta

    # --- merge / serde -----------------------------------------------------

    def merge(self, other: "TDigest") -> "TDigest":
        self.check_mergeable(other)
        other._compress()
        if len(other.means):
            self._buf.append(np.stack([other.means, other.weights]))
            self._buf_n += len(other.means)
        self.n += other.n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._compress()
        return self

    def _state_arrays(self):
        self._compress()
        return {"means": self.means, "weights": self.weights,
                "stats": np.array([self.n, self.min, self.max], dtype=np.float64)}

    def _config(self):
        return {"delta": self.delta}

    @classmethod
    def _array_specs(cls, config):
        require(config["delta"] >= 1, f"t-digest delta={config['delta']}")
        return {"means": ("f", ("c",)), "weights": ("f", ("c",)),
                "stats": ("f", (3,))}

    @classmethod
    def _from_state(cls, config, arrays):
        s = cls(delta=int(config["delta"]))
        s.means = arrays["means"].astype(np.float64)
        s.weights = arrays["weights"].astype(np.float64)
        s.n, s.min, s.max = (float(x) for x in arrays["stats"])
        return s
