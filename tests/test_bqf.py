"""Dict-oracle tests for the RSQF/BQF kernel — ports of the reference's
unit-test strategy (SURVEY.md §5; /root/reference/unitary_tests/cqf_test.cpp):
enumerate-vs-oracle equality, presence/absence, counts incl. saturation and
oom encoding, removal, resize conformance, merge associativity, FP bound,
serde round-trip, bit-packing."""

import numpy as np
import pytest

from bqf_ray.functions.hashing import fmix64
from bqf_ray.sketches.base import MergeableSketch
from bqf_ray.sketches.bqf import BqfCf, BqfEc, BqfOom, Rsqf, fimpera_from_abundances
from bqf_ray.sketches.rsqf import pack_bits, unpack_bits


def _rand_keys(n, seed=0, bits=64):
    rng = np.random.RandomState(seed)
    k = rng.randint(0, 2**63, n, dtype=np.int64).astype(np.uint64)
    k |= rng.randint(0, 2, n).astype(np.uint64) << np.uint64(63)
    if bits < 64:
        k &= np.uint64((1 << bits) - 1)
    return k


# --- bit packing ------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 5, 13, 31, 37, 63, 64])
def test_pack_roundtrip(width):
    rng = np.random.RandomState(width)
    vals = rng.randint(0, 2**62, 1000, dtype=np.int64).astype(np.uint64)
    mask = np.uint64((1 << width) - 1) if width < 64 else np.uint64(2**64 - 1)
    vals &= mask
    words = pack_bits(vals, width)
    assert len(words) == (1000 * width + 63) // 64
    out = unpack_bits(words, width, 1000)
    np.testing.assert_array_equal(out, vals)


# --- enumerate vs dict oracle (cqf_test.cpp:262-270, 336-437) ---------------

def test_rsqf_enumerate_oracle():
    keys = np.unique(_rand_keys(100_000, seed=1))
    f = Rsqf(q=10)  # forces many resizes
    for chunk in np.array_split(keys, 29):
        f.update_batch(chunk)
    got_keys, got_counts = f.enumerate()
    np.testing.assert_array_equal(np.sort(got_keys), keys)
    assert np.all(got_counts == 1)
    assert f.elements_inside == len(keys)


def test_bqf_ec_counts_oracle_with_saturation():
    rng = np.random.RandomState(3)
    keys = _rand_keys(20_000, seed=2)
    counts = rng.randint(1, 100, len(keys)).astype(np.uint64)
    c = 5  # cap 31 — both modes exercised (cqf_test.cpp val%31 analog)
    f = BqfEc(q=10, count_size=c)
    order = rng.permutation(len(keys))
    for chunk in np.array_split(order, 17):
        f.update_batch(keys[chunk], counts[chunk])
    oracle: dict[int, int] = {}
    for k, n in zip(keys.tolist(), counts.tolist()):
        oracle[k] = min(oracle.get(k, 0) + n, 31)
    gk, gc = f.enumerate()
    got = dict(zip(gk.tolist(), gc.tolist()))
    assert got == oracle
    # query path agrees
    qk = keys[:5000]
    np.testing.assert_array_equal(
        f.query_batch(qk), np.array([oracle[k] for k in qk.tolist()], dtype=np.uint64))


def test_presence_absence_no_false_negatives():
    keys = np.unique(_rand_keys(50_000, seed=5))
    absent = np.setdiff1d(_rand_keys(50_000, seed=6), keys)
    f = Rsqf(q=12)
    f.update_batch(keys)
    assert np.all(f.query_batch(keys) == 1)          # zero false negatives
    assert np.all(f.query_batch(absent) == 0)        # full-hash storage: exact


def test_fp_bound_truncated_hash():
    """With hash_bits=h the filter stores the full h-bit hash; for distinct
    64-bit keys the FP rate is the h-bit collision rate ≤ n·2^-h — which,
    with n ≈ α·2^q, is the published α·2^-r bound (README.md:54 analog)."""
    h, q = 28, 14
    n = 12_000
    keys = _rand_keys(n, seed=7)
    f = Rsqf(q=q, hash_bits=h)
    f.update_batch(keys)
    probe = _rand_keys(200_000, seed=8)
    probe = probe[~np.isin(probe & np.uint64((1 << h) - 1),
                           keys & np.uint64((1 << h) - 1))]
    fp = float(np.mean(f.query_batch(probe)))
    assert fp == 0.0  # probes with distinct h-bit hashes can never FP
    # and colliding probes always hit (that IS the 2^-r mechanism)
    collide = keys[:1000] | (np.uint64(1) << np.uint64(63))
    collide = collide[(collide & np.uint64((1 << h) - 1)) ==
                      (keys[:1000] & np.uint64((1 << h) - 1))]
    assert np.all(f.query_batch(collide) == 1)


def test_oom_codec():
    f = BqfOom(q=8, count_size=3)  # exponent cap 7 → reported cap 128
    keys = _rand_keys(200, seed=9)
    counts = np.array([1, 2, 3, 4, 7, 8, 100, 1000] * 25, dtype=np.uint64)
    f.update_batch(keys, counts)
    rep = f.query_batch(keys)
    exp = np.array([1, 2, 2, 4, 4, 8, 64, 128] * 25, dtype=np.uint64)
    np.testing.assert_array_equal(rep, exp)
    assert f.query(int(_rand_keys(1, seed=99)[0])) == 0


def test_oom_merge_is_max():
    a, b = BqfOom(q=8), BqfOom(q=8)
    k = _rand_keys(10, seed=10)
    a.update_batch(k, np.full(10, 4, dtype=np.uint64))    # exp 2
    b.update_batch(k, np.full(10, 16, dtype=np.uint64))   # exp 4
    a.merge(b)
    np.testing.assert_array_equal(a.query_batch(k), np.full(10, 16, dtype=np.uint64))


def test_cf_second_occurrence():
    """cqf_test.cpp:479-501 analog: seen-≥2 set matches exact counts."""
    rng = np.random.RandomState(11)
    stream = _rand_keys(2000, seed=12)[rng.zipf(1.5, 30_000) % 2000]
    f = BqfCf(q=8)
    for chunk in np.array_split(stream, 41):
        f.update_batch(chunk)
    uniq, cnt = np.unique(stream, return_counts=True)
    expected = set(uniq[cnt >= 2].tolist())
    got = set(f.second_occurrence_keys().tolist())
    assert got == expected


def test_remove_matches_oracle():
    """cqf_test.cpp:336-437 remove-all / partial-remove analog."""
    keys = np.unique(_rand_keys(5000, seed=13))
    f = BqfEc(q=10, count_size=8)
    f.update_batch(keys, np.full(len(keys), 10, dtype=np.uint64))
    # partial removal decrements
    f.remove_batch(keys[:100], np.full(100, 4, dtype=np.uint64))
    np.testing.assert_array_equal(f.query_batch(keys[:100]),
                                  np.full(100, 6, dtype=np.uint64))
    # full removal deletes
    f.remove_batch(keys[100:200], np.full(100, 10, dtype=np.uint64))
    assert np.all(f.query_batch(keys[100:200]) == 0)
    # over-removal also deletes (reference: count >= stored → delete slot)
    f.remove_batch(keys[200:300], np.full(100, 99, dtype=np.uint64))
    assert np.all(f.query_batch(keys[200:300]) == 0)
    gk, _ = f.enumerate()
    assert len(gk) == len(keys) - 200
    # untouched keys unaffected
    np.testing.assert_array_equal(f.query_batch(keys[300:]),
                                  np.full(len(keys) - 300, 10, dtype=np.uint64))


def test_resize_equivalence():
    """resize_tests.cpp:274-310 analog: build-at-q then resize(n) ≡
    build-at-(q+n)."""
    keys = _rand_keys(3000, seed=14)
    counts = np.random.RandomState(15).randint(1, 30, 3000).astype(np.uint64)
    a = BqfEc(q=9, count_size=5, auto_resize=False)
    a.update_batch(keys, counts)
    a.resize(3)
    b = BqfEc(q=12, count_size=5, auto_resize=False)
    b.update_batch(keys, counts)
    for name, arr in a._state_arrays().items():
        np.testing.assert_array_equal(arr, b._state_arrays()[name], err_msg=name)


def test_auto_resize_under_load():
    f = BqfEc(q=7, count_size=4)
    keys = np.unique(_rand_keys(40_000, seed=16))
    f.update_batch(keys)
    assert f.q >= 15  # grew
    assert f.elements_inside == len(keys)
    assert np.all(f.query_batch(keys[:1000]) == 1)


def test_merge_tree_equals_single_build():
    """North-rule merge associativity: random merge trees ≡ single build."""
    rng = np.random.RandomState(17)
    keys = _rand_keys(60_000, seed=18)
    counts = rng.randint(1, 50, len(keys)).astype(np.uint64)
    single = BqfEc(q=10, count_size=6)
    single.update_batch(keys, counts)
    chunks = np.array_split(np.arange(len(keys)), 11)
    parts = []
    for ch in chunks:
        p = BqfEc(q=10, count_size=6)
        p.update_batch(keys[ch], counts[ch])
        parts.append(p)
    while len(parts) > 1:
        i = rng.randint(0, len(parts) - 1)
        a = parts.pop(i)
        b = parts.pop(rng.randint(0, len(parts)))
        parts.append(a.merge(b))
    merged = parts[0]
    sk, sc = single.enumerate()
    mk, mc = merged.enumerate()
    np.testing.assert_array_equal(np.sort(sk), np.sort(mk))
    np.testing.assert_array_equal(sc[np.argsort(sk)], mc[np.argsort(mk)])


def test_serde_roundtrip_and_wire_size():
    keys = np.unique(_rand_keys(30_000, seed=19))
    f = BqfEc(q=10, count_size=5, hash_bits=40)
    f.update_batch(keys)
    blob = f.to_bytes()
    g = MergeableSketch.from_bytes(blob)
    assert isinstance(g, BqfEc)
    gk, gc = g.enumerate()
    fk, fc = f.enumerate()
    np.testing.assert_array_equal(gk, fk)
    np.testing.assert_array_equal(gc, fc)
    assert g.q == f.q and g.elements_inside == f.elements_inside
    # wire size ≈ (r + c + metadata) bits/element, NOT 64+ — the quotienting
    # payoff (reference claims ~25 bits/elem at its configs, README.md:10)
    bpe = f.serialized_bits_per_element()
    r = f.hash_bits - f.q
    assert bpe < (r + f.count_size + 8)


def test_query_on_empty_and_pending_only():
    f = BqfEc(q=8, count_size=4)
    assert f.query(123) == 0
    f.insert(42, 3)
    assert f.query(42) == 3  # forces compaction of pending buffer
    assert f.query(43) == 0


def test_fimpera_aggregation():
    # doc 1: shingle abundances [3,1,2,5], z=1 → k-grams min pairs [1,1,2]
    ab = np.array([3, 1, 2, 5, 0, 7], dtype=np.uint64)
    offs = np.array([0, 4, 6])
    mins, maxs, avgs, ratios = fimpera_from_abundances(ab, offs, z=1)
    assert list(mins) == [1, 0]         # doc2 has an absent k-gram → min 0
    assert list(maxs) == [2, 0]         # doc2: min(0,7)=0 → no present kgram
    assert avgs[0] == pytest.approx((1 + 1 + 2) / 3)
    assert ratios[0] == 1.0
    assert ratios[1] == 0.0
    # doc with too few shingles for any k-gram
    m2, x2, a2, r2 = fimpera_from_abundances(
        np.array([5], dtype=np.uint64), np.array([0, 1]), z=3)
    assert (m2[0], x2[0], a2[0], r2[0]) == (0, 0, 0.0, 0.0)


def test_oom_rejects_overflowing_count_size():
    """count_size >= 7 would let the stored exponent exceed 63 and the
    1 << stored reconstruction overflow uint64 (ADVICE r1)."""
    import pytest
    with pytest.raises(AssertionError):
        BqfOom(q=8, count_size=7)
    BqfOom(q=8, count_size=6)          # cap 63: the largest legal config


# --- quotiented wire format: space and layout identity ----------------------

def test_wire_size_shard_shaped_bqf_ec():
    """A benchmark-shaped shard (18.7k fmix64 keys at q=15, load 0.57)
    pays for its elements, not its 2^q + spill slots: r + c + 1 + 2^q/n
    = 49 + 8 + 1 + 1.75 bits plus the header (the slot-array format
    needed 103.5)."""
    f = BqfEc(q=15, count_size=8)
    f.update_batch(fmix64(np.arange(1, 18_701, dtype=np.uint64)))
    assert f.q == 15
    assert f.serialized_bits_per_element() <= 62


def _spill_keys(q, n, seed):
    """Keys whose quotients crowd the top of the table, so runs spill past
    slot 2^q into the slack."""
    rng = np.random.RandomState(seed)
    quot = rng.randint((1 << q) - 16, 1 << q, n).astype(np.uint64)
    rem = rng.randint(0, 2**40, n).astype(np.uint64)
    return np.unique((rem << np.uint64(q)) | quot)


def _layout_case(cls, case):
    kw = {} if cls in (Rsqf, BqfCf) else {"count_size": 3}
    if case == "empty":
        return cls(q=8, **kw)
    if case == "one_key":
        f = cls(q=8, **kw)
        f.insert(0x9E3779B97F4A7C15, 3)
        return f
    if case == "spill":
        f = cls(q=6, auto_resize=False, **kw)
        f.update_batch(_spill_keys(6, 40, seed=21))
        f._compact()
        assert f._extent > 1 << f.q
        return f
    f = cls(q=8, **kw)                                    # "resized"
    keys = _rand_keys(200, seed=22)
    f.update_batch(keys, np.arange(1, 201, dtype=np.uint64) % 9 + 1)
    f.resize(2)
    assert f.q == 10
    return f


@pytest.mark.parametrize("case", ["empty", "one_key", "spill", "resized"])
@pytest.mark.parametrize("cls", [Rsqf, BqfEc, BqfOom, BqfCf])
def test_wire_roundtrip_layout_identity(cls, case):
    """Decoding re-places runs greedily; the in-memory layout is
    canonical, so every layout array and cache comes back identical."""
    f = _layout_case(cls, case)
    g = MergeableSketch.from_bytes(f.to_bytes())
    assert type(g) is cls
    assert (g.q, g._built_q, g.elements_inside, g._extent) == \
        (f.q, f._built_q, f.elements_inside, f._extent)
    ext = f._extent
    np.testing.assert_array_equal(g._slots[:ext], f._slots[:ext])
    words = (ext + 63) // 64
    np.testing.assert_array_equal(g._runends[:words], f._runends[:words])
    assert not g._runends[words:].any() and not f._runends[words:].any()
    for name in ("_occupieds", "_occ_quots", "_runend_pos", "_occ_prefix"):
        np.testing.assert_array_equal(getattr(g, name), getattr(f, name),
                                      err_msg=name)
    fk, fc = f.enumerate()
    gk, gc = g.enumerate()
    np.testing.assert_array_equal(gk, fk)
    np.testing.assert_array_equal(gc, fc)
    assert g.to_bytes() == f.to_bytes()
