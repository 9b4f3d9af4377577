"""Cold-page-touch canary and the row printer shared by every
stress/bench tool.

On this virtualized host, first-touch page faults can degrade 100-300x
when the hypervisor is memory-overcommitted (measured 7 MB/s vs 2000+
MB/s warm), dominating every allocation-heavy stage.  Printing the
canary with EVERY stress table row is what makes cross-round wall-clock
comparisons honest (BASELINE.md convention; r2 verdict #9)."""
import time

import numpy as np

MIX = np.uint64(0x9E3779B97F4A7C15)      # 2^64 / golden ratio


def cold_touch_mb_s() -> float:
    """First-touch bandwidth (MB/s) on a fresh 256 MB buffer."""
    t0 = time.time()
    np.ones(32_000_000, dtype=np.float64)
    return round(256 / (time.time() - t0), 1)


def print_canary() -> float:
    v = cold_touch_mb_s()
    print(f"cold_touch_mb_s={v}", flush=True)
    return v


def _h(i: np.ndarray) -> np.ndarray:
    """Deterministic well-mixed uint64 per integer: a golden-ratio
    multiply followed by half of the murmur3 fmix64 finalizer."""
    x = i.astype(np.uint64) * MIX
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    return x


def run(name: str, fn, rows: int) -> None:
    """Time ``fn()`` and print one stress row: wall, rows/s, the count
    ``fn`` returns and the canary taken just before it ran."""
    c = cold_touch_mb_s()
    t0 = time.time()
    n = fn()
    dt = time.time() - t0
    print(f"{name:34s} {dt:8.1f}s  {rows/dt:12.0f} rows/s  ({n} out)  "
          f"[canary {c:.0f} MB/s]", flush=True)
