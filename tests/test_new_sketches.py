"""Round-3 sketches: Misra–Gries frequent items, DDSketch relative-error
quantiles, theta set operations over BottomK, Count-Min inner product.

No Ray needed — these are pure sketch-contract tests (the distributed
plumbing is the one ``SketchAgg`` aggregate, reached through
``sketch_agg`` or ``build_sketch``, that the other sketches already
exercise end-to-end)."""

import numpy as np
import pytest

from bqf_ray.functions.hashing import fmix64
from bqf_ray.sketches.base import MergeableSketch
from bqf_ray.sketches.countmin import CountMin
from bqf_ray.sketches.ddsketch import DDSketch
from bqf_ray.sketches.misragries import MisraGries
from bqf_ray.sketches.sample import BottomK
from bqf_ray.sketches.theta import theta_error_bound, theta_set_estimates


def _zipf_keys(n, n_distinct, seed, a=1.3):
    rng = np.random.RandomState(seed)
    ids = np.minimum(rng.zipf(a, n), n_distinct).astype(np.uint64)
    return fmix64(ids), ids


def _random_merge_tree(parts, rng):
    parts = list(parts)
    while len(parts) > 1:
        a = parts.pop(rng.randint(0, len(parts)))
        b = parts.pop(rng.randint(0, len(parts)))
        parts.append(a.merge(b))
    return parts[0]


# -- Misra–Gries ------------------------------------------------------

@pytest.mark.parametrize("tree_seed", [0, 1, 2])
def test_misra_gries_guarantee_under_merge_trees(tree_seed):
    """Classic MG contract on the MERGED summary: every count is an
    undercount by at most n/(m+1), and every key with true frequency
    above that is guaranteed present — under arbitrary merge trees."""
    n, m = 60_000, 64
    keys, ids = _zipf_keys(n, 5_000, seed=9)
    true = {}
    for k in keys:
        true[int(k)] = true.get(int(k), 0) + 1

    rng = np.random.RandomState(tree_seed)
    chunks = np.array_split(keys, 11)
    parts = []
    for c in chunks:
        s = MisraGries(m=m)
        s.update_batch(c)
        parts.append(s)
    mg = _random_merge_tree(parts, rng)
    assert mg.n == n
    bound = mg.error_bound()
    assert bound == pytest.approx(n / (m + 1))

    held_k, held_c = mg.candidates()
    held = dict(zip(held_k.tolist(), held_c.tolist()))
    assert len(held) <= m
    for k, c in held.items():
        assert c <= true[k], "MG must never overcount"
        assert true[k] - c <= bound + 1e-9
    for k, t in true.items():
        if t > bound:
            assert k in held, f"guaranteed heavy key {k} (n={t}) missing"


def test_misra_gries_weighted_and_serde():
    mg = MisraGries(m=8)
    keys = np.arange(1, 5, dtype=np.uint64)
    mg.update_batch(keys, np.array([10, 20, 30, 40]))
    assert mg.n == 100
    k, c = mg.candidates()
    assert dict(zip(k.tolist(), c.tolist())) == {1: 10, 2: 20, 3: 30, 4: 40}
    blob = mg.to_bytes()
    mg2 = MergeableSketch.from_bytes(blob)
    assert isinstance(mg2, MisraGries) and mg2.n == 100
    assert mg2.to_bytes() == blob


# -- DDSketch ---------------------------------------------------------

@pytest.mark.parametrize("tree_seed", [0, 1])
def test_ddsketch_relative_error_and_merge(tree_seed):
    rng = np.random.RandomState(tree_seed)
    vals = np.random.RandomState(42).gamma(2.0, 100.0, 80_000) + 0.01
    alpha = 0.02
    chunks = np.array_split(vals, 13)
    parts = []
    for c in chunks:
        s = DDSketch(alpha=alpha)
        s.update_batch(c)
        parts.append(s)
    merged = _random_merge_tree(parts, rng)

    single = DDSketch(alpha=alpha)
    single.update_batch(vals)
    # integer bucket counts ⇒ any merge tree is BITWISE the single build
    for name, arr in single._state_arrays().items():
        np.testing.assert_array_equal(arr, merged._state_arrays()[name],
                                      err_msg=name)

    svals = np.sort(vals)
    for q in [0.01, 0.25, 0.5, 0.9, 0.99]:
        # PERCENTILE_DISC rank rule: element at ceil(q·n) − 1
        exact = svals[max(int(np.ceil(q * len(svals))) - 1, 0)]
        est = merged.quantile(q)
        assert abs(est - exact) <= alpha * exact, (q, est, exact)


def test_ddsketch_signs_zero_serde():
    s = DDSketch(alpha=0.01)
    s.update_batch(np.array([-100.0, -1.0, 0.0, 0.0, 1.0, 100.0]))
    assert s.count == 6
    assert s.zero_count == 2
    assert abs(s.quantile(0.999) - 100.0) <= 1.0 + 0.01 * 100
    assert abs(s.quantile(0.0) - (-100.0)) <= 0.01 * 100
    med = s.quantile(0.5)
    assert med == 0.0
    blob = s.to_bytes()
    s2 = MergeableSketch.from_bytes(blob)
    assert isinstance(s2, DDSketch)
    assert s2.count == 6 and s2.to_bytes() == blob


def test_ddsketch_collapse_keeps_upper_quantiles():
    """With a tiny bucket budget the LOWEST buckets collapse; quantiles
    above the collapsed mass keep the alpha guarantee."""
    vals = np.logspace(0, 6, 50_000)          # 6 decades
    s = DDSketch(alpha=0.02, max_buckets=64)
    s.update_batch(vals)
    svals = np.sort(vals)
    for q in [0.9, 0.99]:
        exact = svals[int(np.ceil(q * len(svals))) - 1]
        assert abs(s.quantile(q) - exact) <= 0.02 * exact


# -- theta set ops ----------------------------------------------------

def test_theta_set_estimates_within_bound():
    nA, nB, n_shared = 40_000, 30_000, 12_000
    a_keys = fmix64(np.arange(nA, dtype=np.uint64))
    b_keys = fmix64(np.arange(nA - n_shared, nA - n_shared + nB,
                              dtype=np.uint64))
    a, b = BottomK(k=4096, seed=1), BottomK(k=4096, seed=1)
    a.update_batch(a_keys)
    b.update_batch(b_keys)
    est = theta_set_estimates(a, b)
    rse = theta_error_bound(a, b)
    union = nA + nB - n_shared
    assert rse <= 1.0 / np.sqrt(2048)          # near-full retention
    # error is bounded in UNION units for every set expression
    assert abs(est["union"] - union) <= 5 * rse * union
    assert abs(est["intersection"] - n_shared) <= 5 * rse * union
    assert abs(est["a_only"] - (nA - n_shared)) <= 5 * rse * union
    assert abs(est["b_only"] - (nB - n_shared)) <= 5 * rse * union
    # consistency: union == a_only + b_only + intersection (same sample)
    assert est["union"] == pytest.approx(
        est["a_only"] + est["b_only"] + est["intersection"])


def test_theta_seed_mismatch_raises():
    a, b = BottomK(k=64, seed=1), BottomK(k=64, seed=2)
    with pytest.raises(ValueError):
        theta_set_estimates(a, b)


def test_theta_unsaturated_is_exact():
    a, b = BottomK(k=1024, seed=0), BottomK(k=1024, seed=0)
    a.update_batch(np.arange(100, dtype=np.uint64))
    b.update_batch(np.arange(60, 160, dtype=np.uint64))
    est = theta_set_estimates(a, b)
    assert est["union"] == 160.0
    assert est["intersection"] == 40.0
    assert est["a_only"] == 60.0 and est["b_only"] == 60.0


# -- Count-Min inner product -----------------------------------------

def test_countmin_inner_product_bound():
    keys_a, ids_a = _zipf_keys(50_000, 2_000, seed=3)
    keys_b, ids_b = _zipf_keys(30_000, 2_000, seed=4)
    # exact inner product Σ_k cA(k)·cB(k) == inner join row count
    ca = np.bincount(ids_a.astype(np.int64), minlength=2_001)
    cb = np.bincount(ids_b.astype(np.int64), minlength=2_001)
    exact = int((ca.astype(np.int64) * cb.astype(np.int64)).sum())

    def build(keys):
        parts = []
        for c in np.array_split(keys, 7):
            s = CountMin(width=4096, depth=5, seed=11)
            s.update_batch(c)
            parts.append(s)
        return parts[0].merge_many(parts[1:])

    a, b = build(keys_a), build(keys_b)
    est = a.inner_product(b)
    eps, _ = a.error_bound()
    assert est >= exact, "CM inner product is one-sided (overestimate)"
    assert est <= exact + eps * 50_000 * 30_000


# -- grouped_hll_sparse (high-cardinality grouped distinct) -----------

def test_grouped_hll_sparse_matches_dense(ray_session):
    """Sparse-register grouped HLL == per-key dense HLL estimates (same
    register maxima; tiny float tolerance for the different summation
    order) and within the published bound of exact, across partitions
    and dtypes (int and string keys)."""
    import pyarrow as pa
    import ray

    from bqf_ray.functions.hashing import fmix64
    from bqf_ray.pipelines.aggregates import grouped_hll_sparse
    from bqf_ray.sketches.hll import HyperLogLog

    rng = np.random.RandomState(11)
    n = 50_000
    keys = rng.randint(0, 300, n).astype(np.int64)
    vals = rng.randint(0, 5_000, n).astype(np.int64)
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    got = (grouped_hll_sparse(ray.data.from_arrow(t).repartition(9),
                              "k", "v", p=10)
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert len(got) == len(np.unique(keys))

    p = 10
    rse = 1.04 / np.sqrt(1 << p)
    for k in [0, 7, 123, 299]:
        vv = vals[keys == k]
        dense = HyperLogLog(p=p)
        dense.update_batch(fmix64(vv.view(np.uint64)))
        row = float(got.loc[got["k"] == k, "n_distinct_est"].iloc[0])
        assert row == pytest.approx(dense.estimate(), rel=1e-9)
        exact = len(np.unique(vv))
        assert abs(row - exact) / max(exact, 1) <= 4 * rse

    # string keys path
    ts = pa.table({"k": pa.array([f"key_{x}" for x in keys]),
                   "v": pa.array(vals)})
    got_s = (grouped_hll_sparse(ray.data.from_arrow(ts).repartition(4),
                                "k", "v", p=10)
             .to_pandas())
    row_s = float(got_s.loc[got_s["k"] == "key_7",
                            "n_distinct_est"].iloc[0])
    row_i = float(got.loc[got["k"] == 7, "n_distinct_est"].iloc[0])
    assert row_s == pytest.approx(row_i, rel=1e-9)


def test_grouped_dd_quantiles_matches_sketch_and_bound(ray_session):
    """Vectorized grouped DDSketch == per-key DDSketch object quantiles
    (same buckets, same disc rank rule) and within alpha relative error
    of the exact per-key PERCENTILE_DISC — with negatives, zeros, NaNs,
    null keys, and many partitions."""
    import pyarrow as pa
    import ray

    from bqf_ray.pipelines.aggregates import grouped_dd_quantiles

    rng = np.random.RandomState(23)
    n = 60_000
    keys = rng.randint(0, 400, n).astype(np.int64)
    vals = rng.gamma(2.0, 50.0, n)
    vals[rng.choice(n, 500, replace=False)] *= -1.0     # negatives
    vals[rng.choice(n, 300, replace=False)] = 0.0       # zeros
    vals[rng.choice(n, 200, replace=False)] = np.nan    # dropped
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    qs = (0.25, 0.5, 0.75)
    alpha = 0.01
    got = (grouped_dd_quantiles(ray.data.from_arrow(t).repartition(11),
                                "k", "v", qs=qs, alpha=alpha)
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert len(got) == 400

    from bqf_ray.sketches.ddsketch import DDSketch
    for k in [0, 17, 399]:
        vv = vals[(keys == k) & ~np.isnan(vals)]
        row = got[got["k"] == k].iloc[0]
        assert int(row["n"]) == len(vv)
        ref = DDSketch(alpha=alpha)
        ref.update_batch(vv)
        sv = np.sort(vv)
        for q in qs:
            est = float(row[f"q_{int(round(q * 100))}"])
            assert est == pytest.approx(ref.quantile(q), rel=1e-12), \
                (k, q)
            exact = sv[max(int(np.ceil(q * len(sv))) - 1, 0)]
            assert abs(est - exact) <= alpha * abs(exact) + 1e-12


# ---------------------------------------------------------------------------
# AMS tug-of-war F2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tree_seed", [0, 1, 2])
def test_ams_f2_merge_bit_identity_and_serde(tree_seed):
    """Counter state is BIT-IDENTICAL under any partitioning/merge tree
    (pure counter addition), weighted update == repeated keys, and the
    serde round-trips exactly."""
    from bqf_ray.sketches.ams import AmsF2
    rng = np.random.RandomState(tree_seed)
    keys = rng.randint(0, 5000, 60000).astype(np.uint64)

    whole = AmsF2(depth=4, seed=9)
    whole.update_batch(keys)

    parts = np.array_split(keys, 9)
    order = rng.permutation(9)
    sks = []
    for i in order:
        s = AmsF2(depth=4, seed=9)
        s.update_batch(parts[i])
        sks.append(s)
    merged = sks[0]
    for o in sks[1:]:
        merged.merge(AmsF2.from_bytes(o.to_bytes()))
    assert np.array_equal(merged._counters, whole._counters)
    assert merged.n == whole.n

    # weighted form: (k, c) pairs == c repeats of k
    uk, cnt = np.unique(keys, return_counts=True)
    w = AmsF2(depth=4, seed=9)
    w.update_batch(uk.astype(np.uint64), cnt)
    assert np.array_equal(w._counters, whole._counters)

    rt = AmsF2.from_bytes(whole.to_bytes())
    assert np.array_equal(rt._counters, whole._counters)
    assert (rt.depth, rt.seed, rt.n) == (whole.depth, whole.seed, whole.n)


def test_ams_f2_estimate_bound():
    """Relative error of the depth=8 median-of-means estimate stays
    well inside the 0.35 pipeline bound across seeds (zipf stream)."""
    from bqf_ray.sketches.ams import AmsF2
    rng = np.random.RandomState(1)
    keys = rng.zipf(1.35, 120000)
    keys = keys[keys < 50000].astype(np.uint64)
    exact = float((np.bincount(keys.astype(np.int64)) ** 2).sum())
    worst = 0.0
    for seed in range(12):
        s = AmsF2(depth=8, seed=seed)
        s.update_batch(keys)
        worst = max(worst, abs(s.estimate_f2() - exact) / exact)
    assert worst < 0.35, worst


def test_ams_f2_config_mismatch_raises():
    from bqf_ray.sketches.ams import AmsF2
    a, b = AmsF2(depth=4, seed=1), AmsF2(depth=4, seed=2)
    with pytest.raises(Exception):
        a.merge(b)


# ---------------------------------------------------------------------------
# CuckooFilter
# ---------------------------------------------------------------------------

def _cuckoo_keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(0, 2 ** 63, n,
                                  dtype=np.int64).view(np.uint64))


def _pair_multiset(f):
    """Canonical (min-of-pair, fp) content multiset — position within a
    pair is layout, not content."""
    bkts, fps = f.enumerate_slots()
    alt = f._alt(bkts.astype(np.int64), fps)
    return sorted(zip(np.minimum(bkts, alt).tolist(), fps.tolist()))


def test_cuckoo_zero_fn_and_fp_bound():
    from bqf_ray.sketches.cuckoo import CuckooFilter
    keys = _cuckoo_keys(50_000)
    cf = CuckooFilter.from_capacity(len(keys), fp=0.01, seed=1)
    cf.update_batch(keys)
    assert cf.contains_batch(keys).all(), "false negative"
    rng = np.random.default_rng(9)
    neg = np.setdiff1d(rng.integers(0, 2 ** 63, 200_000,
                                    dtype=np.int64).view(np.uint64), keys)
    fpr = cf.contains_batch(neg).mean()
    assert fpr <= (2 * cf.slots / 2 ** cf.fbits) * 1.5


def test_cuckoo_delete_same_bucket_copies():
    from bqf_ray.sketches.cuckoo import CuckooFilter
    keys = _cuckoo_keys(40_000, seed=3)
    cf = CuckooFilter.from_capacity(len(keys), fp=0.01, seed=1)
    cf.update_batch(keys)
    half = keys[: len(keys) // 2]
    assert cf.delete_batch(half).all()        # incl. shared-(pair,fp) keys
    assert cf.contains_batch(keys[len(keys) // 2:]).all()


def test_cuckoo_merge_content_multiset_order_independent():
    from bqf_ray.sketches.cuckoo import CuckooFilter
    keys = _cuckoo_keys(30_000, seed=5)
    a, b, c = keys[::3], keys[1::3], keys[2::3]

    def build(ks):
        f = CuckooFilter.from_capacity(len(keys), fp=0.01, seed=2)
        f.update_batch(ks)
        return f

    m1 = build(a).merge(build(b)).merge(build(c))
    m2 = build(c).merge(build(a).merge(build(b)))
    assert _pair_multiset(m1) == _pair_multiset(m2)
    assert m1.contains_batch(keys).all() and m2.contains_batch(keys).all()


def test_cuckoo_serde_roundtrip():
    from bqf_ray.sketches.cuckoo import CuckooFilter
    keys = _cuckoo_keys(5_000, seed=7)
    cf = CuckooFilter.from_capacity(len(keys), fp=0.02, seed=4)
    cf.update_batch(keys)
    cf.delete_batch(keys[:100])
    r = MergeableSketch.from_bytes(cf.to_bytes())
    assert _pair_multiset(r) == _pair_multiset(cf)
    assert (r.contains_batch(keys) == cf.contains_batch(keys)).all()


def test_cuckoo_overload_raises_loudly():
    from bqf_ray.sketches.cuckoo import CuckooFilter
    t = CuckooFilter(n_buckets=8, slots=4, fbits=12, seed=0, stash_cap=4)
    with pytest.raises(RuntimeError, match="overloaded"):
        t.update_batch(np.arange(600, dtype=np.uint64))


def test_cuckoo_config_validation():
    from bqf_ray.sketches.cuckoo import CuckooFilter
    with pytest.raises(ValueError, match="power of 2"):
        CuckooFilter(n_buckets=100)
    with pytest.raises(ValueError, match="fbits"):
        CuckooFilter(fbits=20)


def test_cuckoo_revocation_zero_fn_deterministic():
    """Valid keys stay members after ANY subset of deletes (copy-count
    argument) — stress with a fp-collision-heavy small fingerprint."""
    from bqf_ray.sketches.cuckoo import CuckooFilter
    keys = _cuckoo_keys(8_000, seed=11)
    cf = CuckooFilter(n_buckets=1 << 12, slots=4, fbits=6, seed=3,
                      stash_cap=512)
    cf.update_batch(keys)
    rng = np.random.default_rng(1)
    revoked = keys[rng.random(len(keys)) < 0.5]
    assert cf.delete_batch(revoked).all()
    valid = np.setdiff1d(keys, revoked)
    assert cf.contains_batch(valid).all()


# -- Frequent Directions ----------------------------------------------

def _fd_ref(A):
    G = A.astype(np.int64).T @ A.astype(np.int64)
    return G.astype(np.float64)


@pytest.mark.parametrize("tree_seed", [0, 1, 2])
def test_frequent_directions_bounds_under_merge_trees(tree_seed):
    """Structural certificate (err ≤ Σδ) and published bound
    (err ≤ 2‖A‖²_F/ℓ) hold under arbitrary merge trees; frob/n fold
    exactly as integers."""
    from bqf_ray.sketches.freqdir import FrequentDirections
    rng = np.random.RandomState(7)
    n, d, ell = 6_000, 24, 12
    W = rng.randn(d, d) * np.linspace(3, 0.1, d)   # correlated columns
    A = np.rint((rng.randn(n, d) @ W) * 50)
    parts = []
    for chunk in np.array_split(A, 9):
        f = FrequentDirections(ell=ell, d=d)
        f.update_batch(chunk)
        parts.append(f)
    fd = _random_merge_tree(parts, np.random.RandomState(tree_seed))
    assert fd.n == n
    assert fd.frob_sq == int((A.astype(np.int64) ** 2).sum())
    G = _fd_ref(A)
    err = fd.spectral_error_vs(G)
    assert err <= fd.delta_sum * (1 + 1e-9) + 1e-6
    assert fd.delta_sum <= fd.published_bound() + 1e-6
    # the sketch is USEFUL, not just bounded: error well under the top
    # eigenvalue for correlated data
    top = np.abs(np.linalg.eigvalsh(G)).max()
    assert err < 0.5 * top


def test_frequent_directions_serde_and_validation():
    from bqf_ray.sketches.base import MergeableSketch
    from bqf_ray.sketches.freqdir import FrequentDirections
    rng = np.random.RandomState(1)
    fd = FrequentDirections(ell=8, d=16)
    fd.update_batch(np.rint(rng.randn(500, 16) * 100))
    back = MergeableSketch.from_bytes(fd.to_bytes())
    assert np.array_equal(back.B, fd.B)
    assert (back.n, back.frob_sq, back.delta_sum) == \
        (fd.n, fd.frob_sq, fd.delta_sum)
    with pytest.raises(ValueError, match="quantized integers"):
        fd.update_batch(rng.randn(5, 16))          # unquantized floats
    with pytest.raises(ValueError, match="expected"):
        fd.update_batch(np.zeros((3, 7)))


def test_frequent_directions_psd_underestimate():
    """FD always UNDER-estimates: AᵀA − BᵀB ≽ 0."""
    from bqf_ray.sketches.freqdir import FrequentDirections
    rng = np.random.RandomState(3)
    A = np.rint(rng.randn(3_000, 20) * 30)
    fd = FrequentDirections(ell=10, d=20)
    for chunk in np.array_split(A, 5):
        fd.update_batch(chunk)
    diff = _fd_ref(A) - fd.cov_estimate()
    assert np.linalg.eigvalsh(diff).min() >= -1e-6
