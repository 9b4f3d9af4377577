"""KLL quantile sketch (Karnin, Lang & Liberty 2016, "Optimal quantile
approximation in streams").

Levels of compactors; level h items carry weight 2^h.  A full compactor
sorts its items and promotes every other one (alternating offset) to the
level above.  Rank error is O(1/k) with high probability; tests assert
empirical rank error ≤ 3/k under arbitrary merge orders (like t-digest,
merge is associative up to the error bound, not bitwise).

The offset choice uses a deterministic counter-based coin (seeded) so runs
are reproducible; alternation preserves the unbiasedness argument in
expectation over positions.
"""

from __future__ import annotations

import numpy as np

from bqf_ray.sketches.base import MergeableSketch, register, require

_C = 2.0 / 3.0


@register
class KLL(MergeableSketch):
    config_fields = ("k",)
    config_types = {"k": int, "seed": int}

    def __init__(self, k: int = 200, seed: int = 0):
        self.k = int(k)
        self.seed = int(seed)
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = 0
        self._coin = np.uint64(seed * 2654435761 + 1)
        self.min = np.inf
        self.max = -np.inf

    def _capacity(self, h: int) -> int:
        depth = len(self.levels)
        return max(2, int(np.ceil(self.k * (_C ** (depth - 1 - h)))))

    def _flip(self) -> int:
        # xorshift64* counter coin (python ints to avoid numpy scalar overflow warnings)
        x = int(self._coin)
        x ^= x >> 12
        x = (x ^ (x << 25)) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        self._coin = np.uint64(x)
        return ((x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF) >> 63

    def update_batch(self, keys: np.ndarray, counts=None) -> None:
        """keys are VALUES (float64).  counts, if given, must be small ints —
        values are repeated (weighted stream); prefer None for raw streams."""
        vals = np.asarray(keys, dtype=np.float64)
        if len(vals) == 0:
            return
        if counts is not None:
            vals = np.repeat(vals, np.asarray(counts, dtype=np.int64))
            if len(vals) == 0:
                return
        self.min = min(self.min, float(vals.min()))
        self.max = max(self.max, float(vals.max()))
        self.levels[0] = np.concatenate([self.levels[0], vals])
        self.n += len(vals)
        self._compact_all()

    def _compact_all(self) -> None:
        h = 0
        while h < len(self.levels):
            if len(self.levels[h]) > self._capacity(h):
                if h + 1 == len(self.levels):
                    self.levels.append(np.empty(0, dtype=np.float64))
                items = np.sort(self.levels[h], kind="stable")
                off = self._flip()
                promoted = items[off::2]           # each carries a discarded neighbor
                self.levels[h] = np.empty(0, dtype=np.float64)
                self.levels[h + 1] = np.concatenate([self.levels[h + 1], promoted])
            h += 1

    # --- queries -----------------------------------------------------------

    def _weighted_items(self) -> tuple[np.ndarray, np.ndarray]:
        vs, ws = [], []
        for h, arr in enumerate(self.levels):
            if len(arr):
                vs.append(arr)
                ws.append(np.full(len(arr), float(1 << h)))
        if not vs:
            return np.empty(0), np.empty(0)
        v = np.concatenate(vs)
        w = np.concatenate(ws)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def quantile(self, q) -> np.ndarray | float:
        scalar = np.isscalar(q)
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        v, w = self._weighted_items()
        if len(v) == 0:
            out = np.full(len(qs), np.nan)
            return float(out[0]) if scalar else out
        cum = np.cumsum(w) - w / 2
        out = np.interp(qs * w.sum(), cum, v, left=self.min, right=self.max)
        return float(out[0]) if scalar else out

    def rank(self, x) -> np.ndarray | float:
        """Estimated fraction of items ≤ x."""
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        v, w = self._weighted_items()
        if len(v) == 0:
            out = np.full(len(xs), np.nan)
            return float(out[0]) if scalar else out
        cum = np.concatenate([[0.0], np.cumsum(w)])
        idx = np.searchsorted(v, xs, side="right")
        out = cum[idx] / cum[-1]
        return float(out[0]) if scalar else out

    def error_bound(self) -> float:
        return 3.0 / self.k

    # --- merge / serde -----------------------------------------------------

    def merge(self, other: "KLL") -> "KLL":
        self.check_mergeable(other)
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
        for h, arr in enumerate(other.levels):
            if len(arr):
                self.levels[h] = np.concatenate([self.levels[h], arr])
        self.n += other.n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._coin ^= other._coin
        self._compact_all()
        return self

    def _state_arrays(self):
        flat = np.concatenate([a for a in self.levels]) if self.levels else np.empty(0)
        offs = np.cumsum([0] + [len(a) for a in self.levels]).astype(np.int64)
        return {"flat": flat.astype(np.float64), "offsets": offs,
                "coin": np.array([self._coin], dtype=np.uint64),
                "stats": np.array([self.n, self.min, self.max], dtype=np.float64)}

    def _config(self):
        return {"k": self.k, "seed": self.seed}

    @classmethod
    def _array_specs(cls, config):
        k, seed = config["k"], config["seed"]
        require(k >= 1 and 0 <= seed * 2654435761 + 1 < 1 << 64,
                f"KLL k={k} seed={seed}")
        return {"flat": ("f", ("n",)), "offsets": ("i", ("levels",)),
                "coin": ("u", (1,)), "stats": ("f", (3,))}

    @classmethod
    def _from_state(cls, config, arrays):
        s = cls(k=int(config["k"]), seed=int(config["seed"]))
        flat, offs = arrays["flat"], arrays["offsets"]
        require(len(offs) == 0 or (offs[0] == 0 and offs[-1] == len(flat)
                                   and (np.diff(offs) >= 0).all()),
                "KLL level offsets do not split the items")
        s.levels = [flat[offs[i]:offs[i + 1]].copy() for i in range(len(offs) - 1)]
        if not s.levels:
            s.levels = [np.empty(0, dtype=np.float64)]
        s.n = int(arrays["stats"][0])
        s.min, s.max = float(arrays["stats"][1]), float(arrays["stats"][2])
        s._coin = np.uint64(arrays["coin"][0])
        return s
