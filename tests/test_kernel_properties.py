"""Property-based kernel tests — port of the reference's randomized
conformance harness (/root/reference/test/resize_tests.cpp:662-713: sampled
(q, c, n) grids with printed seeds) plus hypothesis-driven oracle checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqf_ray.sketches.base import MergeableSketch
from bqf_ray.sketches.bqf import BqfCf, BqfEc, BqfOom, Rsqf


def _keys(n, seed, bits=64):
    rng = np.random.RandomState(seed)
    k = rng.randint(0, 2**63, n, dtype=np.int64).astype(np.uint64)
    k |= rng.randint(0, 2, n).astype(np.uint64) << np.uint64(63)
    if bits < 64:
        k &= np.uint64((1 << bits) - 1)
    return k


GRID = [(q, c, n, seed)
        for q in (7, 9, 12)
        for c in (1, 4, 8)
        for n in (50, 1000, 4000)
        for seed in (0, 1)
        if 64 - q + c <= 64]          # slot must fit one word (kernel contract)


@pytest.mark.parametrize("q,c,n,seed", GRID)
def test_grid_build_resize_equivalence(q, c, n, seed):
    """resize(n bits) ≡ fresh build at q+n (resize_tests.cpp:274-310)."""
    keys = _keys(n, seed)
    counts = np.random.RandomState(seed + 1).randint(1, 60, n).astype(np.uint64)
    a = BqfEc(q=q, count_size=c, auto_resize=False)
    a.update_batch(keys, counts)
    grow = 2
    a.resize(grow)
    b = BqfEc(q=q + grow, count_size=c, auto_resize=False)
    b.update_batch(keys, counts)
    for name, arr in a._state_arrays().items():
        np.testing.assert_array_equal(arr, b._state_arrays()[name],
                                      err_msg=f"{name} q={q} c={c} n={n} seed={seed}")


@pytest.mark.parametrize("cls", [Rsqf, BqfEc, BqfOom, BqfCf])
@pytest.mark.parametrize("seed", [3, 4])
def test_grid_serde_query_after_roundtrip(cls, seed):
    keys = _keys(3000, seed)
    f = cls(q=9) if cls in (Rsqf, BqfCf) else cls(q=9, count_size=4)
    counts = np.random.RandomState(seed).randint(1, 40, len(keys)).astype(np.uint64)
    f.update_batch(keys, counts)
    g = MergeableSketch.from_bytes(f.to_bytes())
    np.testing.assert_array_equal(f.query_batch(keys), g.query_batch(keys),
                                  err_msg=f"{cls.__name__} seed={seed}")
    absent = _keys(2000, seed + 100)
    absent = np.setdiff1d(absent, keys)
    assert np.all(g.query_batch(absent) == 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(7, 11), st.integers(1, 6),
       st.integers(1, 2000))
def test_hypothesis_ec_oracle(seed, q, c, n):
    """Random (seed, q, c, n): enumerate ≡ dict oracle with saturation."""
    rng = np.random.RandomState(seed % (2**31))
    keys = rng.randint(0, 2**62, n, dtype=np.int64).astype(np.uint64)
    counts = rng.randint(1, 200, n).astype(np.uint64)
    cap = (1 << c) - 1
    f = BqfEc(q=q, count_size=c)
    f.update_batch(keys, counts)
    oracle: dict[int, int] = {}
    for k, v in zip(keys.tolist(), counts.tolist()):
        oracle[k] = min(oracle.get(k, 0) + v, cap)
    gk, gc = f.enumerate()
    assert dict(zip(gk.tolist(), gc.tolist())) == oracle, \
        f"seed={seed} q={q} c={c} n={n}"


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
def test_hypothesis_merge_partitions(seed, parts):
    """Random partitionings merge to the single-build state."""
    rng = np.random.RandomState(seed % (2**31))
    keys = rng.randint(0, 2**62, 5000, dtype=np.int64).astype(np.uint64)
    counts = rng.randint(1, 30, 5000).astype(np.uint64)
    single = BqfEc(q=8, count_size=5)
    single.update_batch(keys, counts)
    assign = rng.randint(0, parts, 5000)
    merged = BqfEc(q=8, count_size=5)
    chunks = []
    for p in range(parts):
        m = assign == p
        sk = BqfEc(q=8, count_size=5)
        sk.update_batch(keys[m], counts[m])
        chunks.append(sk)
    merged.merge_many(chunks)
    sk_, sc_ = single.enumerate()
    mk_, mc_ = merged.enumerate()
    np.testing.assert_array_equal(sk_, mk_, err_msg=f"seed={seed}")
    np.testing.assert_array_equal(sc_, mc_, err_msg=f"seed={seed}")


def test_debug_dump_readable():
    f = BqfEc(q=7, count_size=3)
    f.update_batch(_keys(50, 5))
    s = f.debug_dump(max_slots=40)
    assert "q=7" in s and "occ" in s and "run" in s
    assert len(s.splitlines()) > 3


def test_streaming_resize_peak_allocation():
    """The resize pass allocates the new elements and their rank index
    plus scratch bounded per element and per slot.  tracemalloc peak
    during a 400k-element resize to q = 21 must stay within that
    budget."""
    import tracemalloc

    n = 400_000
    keys = _keys(n, 12)
    f = BqfEc(q=20, count_size=4, auto_resize=False)
    f.update_batch(keys)
    f._compact()
    # per element: old and new slot words, quotients, the sort order and
    # its temporaries (about 10 words); per slot of the new 2^21: the
    # occupieds bitvector, its bool staging array and the rank prefix
    budget = 80 * n + 3 * (1 << 21)
    tracemalloc.start()
    f.resize(1)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert f.elements_inside == len(np.unique(keys))
    assert peak <= budget, f"resize peak {peak} exceeds budget {budget}"
