"""HyperLogLog — distinct-count sketch (Flajolet et al. 2007, with the
standard small/large-range corrections).

Published error bound: relative standard error ≈ 1.04 / sqrt(m), m = 2^p
registers (tested in tests/test_sketch_bounds.py).  Merge = elementwise max
of registers — trivially associative/commutative/idempotent.
"""

from __future__ import annotations

import numpy as np

from bqf_ray.sketches.base import MergeableSketch, register, require


def _register_updates(keys: np.ndarray, p: int):
    """(register index, rho) per key.  rho = 1 + leading zeros of the
    remaining 64-p bits; clz via a lossless halving scan (float tricks
    drop bits past 2^53)."""
    idx = (keys >> np.uint64(64 - p)).astype(np.int64)
    x = (keys << np.uint64(p)) | np.uint64((1 << p) - 1)
    rho = np.ones(len(keys), dtype=np.uint8)
    for shift in (32, 16, 8, 4, 2, 1):
        m = x < (np.uint64(1) << np.uint64(64 - shift))
        rho = np.where(m, rho + np.uint8(shift), rho)
        x = np.where(m, x << np.uint64(shift), x)
    return idx, np.minimum(rho, np.uint8(64 - p + 1))


@register
class HyperLogLog(MergeableSketch):
    config_fields = ("p",)
    config_types = {"p": int}

    def __init__(self, p: int = 14):
        assert 4 <= p <= 20
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def update_batch(self, keys: np.ndarray, counts=None) -> None:
        """counts are ignored — HLL counts distinct keys."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return
        idx, rho = _register_updates(keys, self.p)
        np.maximum.at(self.registers, idx, rho)

    @classmethod
    def grouped_registers(cls, keys: np.ndarray, gids: np.ndarray,
                          n_groups: int, p: int = 12) -> np.ndarray:
        """(n_groups, 2^p) register matrix for many HLLs at once — ONE
        ``np.maximum.at`` over (group, register) pairs instead of a python
        loop building a sketch per group (the windowed-distinct partial
        path)."""
        regs = np.zeros((n_groups, 1 << p), dtype=np.uint8)
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys):
            idx, rho = _register_updates(keys, p)
            np.maximum.at(regs, (np.asarray(gids, dtype=np.int64), idx), rho)
        return regs

    @classmethod
    def estimate_matrix(cls, regs: np.ndarray) -> np.ndarray:
        """Row-wise estimates for an (n, m) register matrix — the
        vectorized form of :meth:`estimate` (same alpha + small/large
        range corrections), so per-group finalizers need no python loop."""
        regs = np.asarray(regs, dtype=np.uint8)
        n, m = regs.shape
        if m == 16:
            alpha = 0.673
        elif m == 32:
            alpha = 0.697
        elif m == 64:
            alpha = 0.709
        else:
            alpha = 0.7213 / (1 + 1.079 / m)
        inv = np.ldexp(1.0, -regs.astype(np.int32)).sum(axis=1)
        e = alpha * m * m / inv
        v = (regs == 0).sum(axis=1)
        small = (e <= 2.5 * m) & (v > 0)
        e = np.where(small, m * np.log(m / np.maximum(v, 1)), e)
        big = e > (1 / 30.0) * 2**64
        if big.any():
            e = np.where(big, -(2.0**64) * np.log(1.0 - e / 2.0**64), e)
        return e

    @classmethod
    def estimate_sparse(cls, gidx: np.ndarray, rho: np.ndarray,
                        n_groups: int, p: int) -> np.ndarray:
        """Row-wise estimates from SPARSE register maxima: ``(gidx[i],
        rho[i])`` lists each group's nonzero registers exactly once with
        its max rho (dedupe before calling).  Never materializes the
        (n_groups, 2^p) dense matrix — beyond the asymptotic win, dense
        register matrices are multi-MB fresh allocations, exactly what
        first-touch page-fault cost makes dominant on overcommitted hosts
        (BASELINE.md measurement).  Same alpha and small/large-range
        corrections as :meth:`estimate_matrix`; tiny float differences vs
        the dense row sum are possible (different summation order), so a
        pipeline must use one form consistently."""
        m = 1 << p
        if m == 16:
            alpha = 0.673
        elif m == 32:
            alpha = 0.697
        elif m == 64:
            alpha = 0.709
        else:
            alpha = 0.7213 / (1 + 1.079 / m)
        gidx = np.asarray(gidx, dtype=np.int64)
        nnz = np.bincount(gidx, minlength=n_groups).astype(np.int64)
        inv_nz = np.ldexp(1.0, -np.asarray(rho, dtype=np.int64))
        inv = ((m - nnz).astype(np.float64)
               + np.bincount(gidx, weights=inv_nz, minlength=n_groups))
        e = alpha * m * m / inv
        v = m - nnz
        small = (e <= 2.5 * m) & (v > 0)
        e = np.where(small, m * np.log(m / np.maximum(v, 1)), e)
        big = e > (1 / 30.0) * 2**64
        if big.any():
            e = np.where(big, -(2.0**64) * np.log(1.0 - e / 2.0**64), e)
        return e

    @classmethod
    def from_registers(cls, row: np.ndarray) -> "HyperLogLog":
        p = int(np.log2(len(row)))
        s = cls(p=p)
        s.registers = np.asarray(row, dtype=np.uint8).copy()
        return s

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        self.check_mergeable(other)
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        if m == 16:
            alpha = 0.673
        elif m == 32:
            alpha = 0.697
        elif m == 64:
            alpha = 0.709
        else:
            alpha = 0.7213 / (1 + 1.079 / m)
        inv = np.ldexp(1.0, -self.registers.astype(np.int32))
        e = alpha * m * m / inv.sum()
        if e <= 2.5 * m:
            v = int(np.count_nonzero(self.registers == 0))
            if v:
                return m * np.log(m / v)          # linear counting
        if e > (1 / 30.0) * 2**64:
            return -(2.0**64) * np.log(1.0 - e / 2.0**64)
        return float(e)

    def error_bound(self) -> float:
        """Relative standard error (1 sigma)."""
        return 1.04 / np.sqrt(self.m)

    def _state_arrays(self):
        return {"registers": self.registers}

    def _config(self):
        return {"p": self.p}

    @classmethod
    def _array_specs(cls, config):
        p = config["p"]
        require(4 <= p <= 20, f"HyperLogLog p={p}")
        return {"registers": ("u", (1 << p,))}

    @classmethod
    def _from_state(cls, config, arrays):
        s = cls(p=int(config["p"]))
        s.registers = arrays["registers"].astype(np.uint8)
        return s
