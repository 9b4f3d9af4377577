"""Misra–Gries (deterministic frequent-items) mergeable sketch.

Holds at most ``m`` (key → count) counters.  Classic guarantee (Misra &
Gries 1982): for every key, ``true_count − n/(m+1) ≤ mg_count ≤
true_count`` — so every key with frequency > n/(m+1) is GUARANTEED to
be present (a deterministic candidate superset, unlike Count-Min's
probabilistic one).  Mergeability follows Agarwal/Cormode et al.,
"Mergeable Summaries" (PODS 2012): add counts keywise, subtract the
(m+1)-th largest combined count from everything, drop non-positives —
the merged summary keeps the SAME ε = 1/(m+1) error bound on the
combined stream.  That merge is associative-in-bound and (with the
deterministic keywise arithmetic used here) yields identical counter
SETS under any merge tree over the same multiset of inputs only in
bound, not bitwise — so pipelines use it as phase-1 CANDIDATES feeding
an exact recount (the two-phase plan of ``aggregates.heavy_hitters``),
never as final output.

Complements the reference's counting-filter surface (the BQF's
saturating per-key counts, ref:src/backpack_bqf.cpp) with the classic
bounded-memory frequent-items primitive a 100-TB token stream needs:
state is O(m) regardless of the distinct-key count.
"""

from __future__ import annotations

import numpy as np

from bqf_ray.sketches.base import (MergeableSketch, narrow_ints, register,
                                   require)


@register
class MisraGries(MergeableSketch):
    config_fields = ("m",)
    config_types = {"m": int}

    def __init__(self, m: int = 1024):
        assert m >= 1
        self.m = int(m)
        self.n = 0                                    # stream length seen
        self._keys = np.empty(0, dtype=np.uint64)     # sorted ascending
        self._counts = np.empty(0, dtype=np.int64)    # aligned with keys

    # -- core ---------------------------------------------------------

    def _combine(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Keywise-add (keys, counts) into the counters, then apply the
        MG decrement: subtract the (m+1)-th largest count, drop ≤0."""
        allk = np.concatenate([self._keys, keys])
        allc = np.concatenate([self._counts, counts])
        order = np.argsort(allk, kind="stable")
        allk, allc = allk[order], allc[order]
        new = np.concatenate([[True], allk[1:] != allk[:-1]]) \
            if len(allk) else np.empty(0, dtype=bool)
        gid = np.cumsum(new) - 1
        k_u = allk[new]
        c_u = np.zeros(len(k_u), dtype=np.int64)
        np.add.at(c_u, gid, allc)
        if len(k_u) > self.m:
            # decrement by the (m+1)-th largest combined count
            kth = np.partition(c_u, len(c_u) - (self.m + 1))[
                len(c_u) - (self.m + 1)]
            c_u = c_u - kth
            keep = c_u > 0
            k_u, c_u = k_u[keep], c_u[keep]
            if len(k_u) > self.m:       # ties at the cut: keep largest m
                top = np.argsort(-c_u, kind="stable")[: self.m]
                top.sort()
                k_u, c_u = k_u[top], c_u[top]
        self._keys, self._counts = k_u, c_u

    def update_batch(self, keys: np.ndarray, counts=None) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return
        if counts is None:
            counts = np.ones(len(keys), dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
        self.n += int(counts.sum())
        self._combine(keys, counts)

    def merge(self, other: "MisraGries") -> "MisraGries":
        self.check_mergeable(other)
        self.n += other.n
        self._combine(other._keys, other._counts)
        return self

    # -- queries ------------------------------------------------------

    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, lower-bound counts) currently held, key-sorted."""
        return self._keys.copy(), self._counts.copy()

    def error_bound(self) -> float:
        """Max undercount: n/(m+1).  Every key with true frequency
        greater than this is guaranteed present."""
        return self.n / (self.m + 1)

    def estimate(self) -> float:
        """Number of counters held (diagnostic)."""
        return float(len(self._keys))

    # -- serde --------------------------------------------------------

    def _state_arrays(self):
        return {"keys": self._keys, "counts": narrow_ints(self._counts),
                "n": np.array([self.n], dtype=np.int64)}

    def _config(self):
        return {"m": self.m}

    @classmethod
    def _array_specs(cls, config):
        require(config["m"] >= 1, f"Misra-Gries m={config['m']}")
        return {"keys": ("u", ("c",)), "counts": ("iu", ("c",)),
                "n": ("i", (1,))}

    @classmethod
    def _from_state(cls, config, arrays):
        s = cls(m=int(config["m"]))
        s._keys = arrays["keys"].astype(np.uint64)
        s._counts = arrays["counts"].astype(np.int64)
        s.n = int(arrays["n"][0])
        return s
