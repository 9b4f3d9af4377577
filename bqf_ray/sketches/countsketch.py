"""Count-Sketch (Charikar, Chen & Farach-Colton, ICALP 2002).

The SIGNED counterpart of Count-Min (sketches/countmin.py): row ``i``
adds ``s_i(x)·c`` at column ``h_i(x)``, and the point estimate is the
MEDIAN over rows of ``s_i(x)·T[i, h_i(x)]`` — UNBIASED (collisions
cancel in expectation instead of only inflating), with published
error ``|est − f(x)| ≤ O(√(F2/width))`` per row by Chebyshev
(Var ≤ F2/width) and exponentially-small failure after the depth-way
median.  The pipeline flag (aggregates.cs_heavy_counts) checks
``|est − exact| ≤ 4·√(F2/width)`` with an odd depth median.

Column index and sign come from two INDEPENDENT fmix64 mixes per row
(with a power-of-two width the column consumes the low bits, so
deriving the sign from the same hash would correlate it with the
bucket).  Like every hash-based sketch here the pairwise independence
is empirical, validated by simulation tests rather than assumed.

Merge = elementwise table addition — associative/commutative, so
sketch state is BIT-IDENTICAL under any merge tree / partitioning.
"""

from __future__ import annotations

import numpy as np

from bqf_ray.functions.hashing import fmix64
from bqf_ray.sketches.base import (MergeableSketch, narrow_ints, register,
                                   require)

_GOLDEN = 0x9E3779B97F4A7C15
_SIGN_SALT = 0xA24BAED4963EE407


@register
class CountSketch(MergeableSketch):
    config_fields = ("width", "depth", "seed")
    config_types = {"width": int, "depth": int, "seed": int}

    def __init__(self, width: int = 8192, depth: int = 7, seed: int = 0):
        if depth % 2 == 0:
            raise ValueError("depth must be odd (integer-exact median)")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self.table = np.zeros((self.depth, self.width), dtype=np.int64)
        self.total = 0

    def _idx_sign(self, keys: np.ndarray):
        """(depth, n) column indices and ±1 signs from two mixes."""
        keys = np.asarray(keys, dtype=np.uint64)
        idx = np.empty((self.depth, len(keys)), dtype=np.int64)
        sgn = np.empty((self.depth, len(keys)), dtype=np.int64)
        for i in range(self.depth):
            salt = np.uint64((self.seed + _GOLDEN * (i + 1))
                             & 0xFFFFFFFFFFFFFFFF)
            idx[i] = (fmix64(keys ^ salt)
                      % np.uint64(self.width)).astype(np.int64)
            ssalt = np.uint64((self.seed + _SIGN_SALT * (i + 1))
                              & 0xFFFFFFFFFFFFFFFF)
            bit = (fmix64(keys ^ ssalt) >> np.uint64(63)).astype(np.int64)
            sgn[i] = 2 * bit - 1
        return idx, sgn

    def update_batch(self, keys: np.ndarray, counts=None) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return
        if counts is None:
            counts = np.ones(len(keys), dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
        idx, sgn = self._idx_sign(keys)
        for i in range(self.depth):
            np.add.at(self.table[i], idx[i], sgn[i] * counts)
        self.total += int(counts.sum())

    def merge(self, other: "CountSketch") -> "CountSketch":
        self.check_mergeable(other)
        self.table += other.table
        self.total += other.total
        return self

    def query_batch(self, keys: np.ndarray) -> np.ndarray:
        """Median-of-rows signed estimates (int64; depth is odd)."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int64)
        idx, sgn = self._idx_sign(keys)
        ests = np.empty((self.depth, len(keys)), dtype=np.int64)
        for i in range(self.depth):
            ests[i] = sgn[i] * self.table[i][idx[i]]
        ests.sort(axis=0)
        return ests[self.depth // 2]

    def error_std(self, f2: float) -> float:
        """Per-row estimator std-dev bound √(F2/width)."""
        return float(np.sqrt(f2 / self.width))

    def _state_arrays(self):
        return {"table": narrow_ints(self.table),
                "total": np.array([self.total], dtype=np.int64)}

    def _config(self):
        return {"width": self.width, "depth": self.depth, "seed": self.seed}

    @classmethod
    def _array_specs(cls, config):
        w, d = config["width"], config["depth"]
        require(w >= 1 and d >= 1 and d % 2 == 1,
                f"Count-Sketch of {d} x {w} counters (odd depth)")
        return {"table": ("iu", (d, w)), "total": ("i", (1,))}

    @classmethod
    def _from_state(cls, config, arrays):
        s = cls(**{k: int(v) for k, v in config.items()})
        s.table = arrays["table"].astype(np.int64)
        s.total = int(arrays["total"][0])
        return s
