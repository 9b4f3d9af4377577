"""Count-Min sketch (Cormode & Muthukrishnan 2005).

Published ε–δ bound: with width w = ⌈e/ε⌉ and depth d = ⌈ln(1/δ)⌉,
estimate(x) ∈ [true(x), true(x) + ε·N] with probability ≥ 1−δ, where N is
the total count mass (tested in tests/test_sketch_bounds.py).  Merge =
elementwise add — associative/commutative.  Row hashes are pairwise mixes of
the key: h_i(x) = fmix64(x ⊕ seed_i) % w.
"""

from __future__ import annotations

import numpy as np

from bqf_ray.functions.hashing import fmix64
from bqf_ray.sketches.base import (MergeableSketch, narrow_ints, register,
                                   require)


@register
class CountMin(MergeableSketch):
    config_fields = ("width", "depth", "seed")
    config_types = {"width": int, "depth": int, "seed": int}

    def __init__(self, width: int = 2048, depth: int = 5, seed: int = 0):
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self.table = np.zeros((self.depth, self.width), dtype=np.uint64)
        self.total = np.uint64(0)

    @classmethod
    def from_error(cls, eps: float, delta: float, seed: int = 0) -> "CountMin":
        w = int(np.ceil(np.e / eps))
        d = int(np.ceil(np.log(1.0 / delta)))
        return cls(width=w, depth=d, seed=seed)

    def _row_idx(self, keys: np.ndarray) -> np.ndarray:
        """(depth, n) column indices."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.empty((self.depth, len(keys)), dtype=np.int64)
        for i in range(self.depth):
            h = fmix64(keys ^ np.uint64((self.seed + 0x9E3779B97F4A7C15 * (i + 1))
                                        & 0xFFFFFFFFFFFFFFFF))
            out[i] = (h % np.uint64(self.width)).astype(np.int64)
        return out

    def update_batch(self, keys: np.ndarray, counts=None) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return
        if counts is None:
            counts = np.ones(len(keys), dtype=np.uint64)
        else:
            counts = np.asarray(counts, dtype=np.uint64)
        idx = self._row_idx(keys)
        for i in range(self.depth):
            np.add.at(self.table[i], idx[i], counts)
        self.total += counts.sum()

    def merge(self, other: "CountMin") -> "CountMin":
        self.check_mergeable(other)
        self.table += other.table
        self.total += other.total
        return self

    def query_batch(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.empty(0, dtype=np.uint64)
        idx = self._row_idx(keys)
        est = self.table[0][idx[0]]
        for i in range(1, self.depth):
            est = np.minimum(est, self.table[i][idx[i]])
        return est

    def error_bound(self) -> tuple[float, float]:
        """(eps, delta): P[err > eps*N] < delta."""
        return np.e / self.width, float(np.exp(-self.depth))

    def inner_product(self, other: "CountMin") -> int:
        """Join-size / inner-product estimate (Cormode & Muthukrishnan
        §4.3): ``est = min_d Σ_w A[d,w]·B[d,w]`` over two sketches of
        the SAME config built from different streams.  One-sided:
        ``true ≤ est ≤ true + ε·N_A·N_B`` with probability ≥ 1−δ —
        estimates |R ⋈ S| from two independent single-pass scans with
        no row shuffle at all (each side is one merged global sketch)."""
        self.check_mergeable(other)
        a = self.table.astype(np.float64)
        b = other.table.astype(np.float64)
        per_row = (a * b).sum(axis=1)
        # float64 rounding only matters past 2^53; per-row sums here are
        # ≤ N_A·N_B which the caller's bound already dwarfs
        return int(per_row.min())

    def _state_arrays(self):
        return {"table": narrow_ints(self.table),
                "total": np.array([self.total], dtype=np.uint64)}

    def _config(self):
        return {"width": self.width, "depth": self.depth, "seed": self.seed}

    @classmethod
    def _array_specs(cls, config):
        w, d = config["width"], config["depth"]
        require(w >= 1 and d >= 1, f"Count-Min of {d} x {w} counters")
        return {"table": ("u", (d, w)), "total": ("u", (1,))}

    @classmethod
    def _from_state(cls, config, arrays):
        s = cls(**{k: int(v) for k, v in config.items()})
        s.table = arrays["table"].astype(np.uint64)
        s.total = np.uint64(arrays["total"][0])
        return s
