"""Partition-pinned quotient filters and the wire-3 counter code: a shard
pinned to its ``key % P`` partition answers exactly like an unpinned one
while storing fewer bits; counters coded by exception round-trip; probes
route with one sort."""

import numpy as np
import pytest

from bqf_ray.functions.hashing import fmix64
from bqf_ray.sketches.base import MergeableSketch
from bqf_ray.sketches.bqf import BqfCf, BqfEc, BqfOom, Rsqf
from bqf_ray.sketches.rsqf import _slot_order
from bqf_ray.stages.sketch_stage import PartitionedSketch, route

MAKERS = {
    "Rsqf": lambda: Rsqf(q=9),
    "BqfEc": lambda: BqfEc(q=9, count_size=8),
    "BqfOom": lambda: BqfOom(q=9, count_size=5),
    "BqfCf": lambda: BqfCf(q=9),
    "BqfEc_h24": lambda: BqfEc(q=9, count_size=8, hash_bits=24),
}


def _keys(n, salt=0):
    return fmix64(np.arange(1, n + 1, dtype=np.uint64) + np.uint64(salt))


def _sorted(keys, counts):
    order = np.argsort(keys)
    return keys[order].tolist(), counts[order].tolist()


def _part_rows(P, p, n=12_000):
    keys = _keys(n)
    keys = keys[keys % np.uint64(P) == p]
    counts = np.where(np.arange(len(keys)) % 9 == 0, 300, 1).astype(np.uint64)
    return keys, counts


@pytest.mark.parametrize("P,p", [(32, 0), (32, 19), (12, 7), (3, 2), (1, 0)])
@pytest.mark.parametrize("name", sorted(MAKERS))
def test_pinned_filter_answers_like_unpinned(name, P, p):
    keys, counts = _part_rows(P, p)
    plain, pinned = MAKERS[name](), MAKERS[name]().for_partition(P, p)
    for f in (plain, pinned):
        f.update_batch(keys[::2], counts[::2])
        f.update_batch(keys[1::2], counts[1::2])
    k = (P & -P).bit_length() - 1
    assert (pinned.low_bits, pinned.residue) == (k, p % (1 << k))
    assert _sorted(*pinned.enumerate()) == _sorted(*plain.enumerate())
    others = _keys(4000, salt=1 << 40)
    probe = np.concatenate([keys, others])      # other residues included
    got = pinned.query_batch(probe)
    np.testing.assert_array_equal(got[:len(keys)], plain.query_batch(keys))
    outside = (others & np.uint64((1 << k) - 1)) != np.uint64(p % (1 << k))
    assert (got[len(keys):][outside] == 0).all()
    if name == "BqfCf":
        assert sorted(pinned.second_occurrence_keys().tolist()) == \
            sorted(plain.second_occurrence_keys().tolist())

    blob = pinned.to_bytes()
    back = MergeableSketch.from_bytes(blob)
    assert (back.low_bits, back.residue) == (pinned.low_bits, pinned.residue)
    np.testing.assert_array_equal(back.query_batch(probe), got)
    assert back.to_bytes() == blob
    # every element saves the k pinned bits
    assert len(plain.to_bytes()) * 8 - len(blob) * 8 >= k * len(keys) - 64


def test_pinned_filter_rejects_other_residues():
    f = BqfEc(q=8, count_size=5).for_partition(8, 3)
    f.update_batch(np.array([3, 11, 19], dtype=np.uint64))
    bad = np.array([11, 4], dtype=np.uint64)
    with pytest.raises(ValueError, match="residue"):
        f.update_batch(bad)
    with pytest.raises(ValueError, match="residue"):
        f.remove_batch(bad)
    f.remove(11)
    assert f.query_batch(np.array([3, 11, 19, 4], np.uint64)).tolist() == \
        [1, 0, 1, 0]
    with pytest.raises(ValueError, match="empty"):
        f.for_partition(8, 3)
    with pytest.raises(ValueError):
        BqfEc(q=8).for_partition(0, 0)


def test_merge_needs_equal_pins():
    a = BqfEc(q=8, count_size=5).for_partition(4, 1)
    b = BqfEc(q=8, count_size=5).for_partition(4, 1)
    a.update_batch(np.array([1, 5], dtype=np.uint64))
    b.update_batch(np.array([5, 9], dtype=np.uint64))
    a.merge(b)
    assert _sorted(*a.enumerate()) == ([1, 5, 9], [1, 2, 1])
    for other in (BqfEc(q=8, count_size=5).for_partition(4, 3),
                  BqfEc(q=8, count_size=5)):
        with pytest.raises(ValueError, match="merge config mismatch"):
            a.merge(other)


def test_pin_keeps_q_below_key_bits():
    """A narrow hash keeps ``q < hash_bits − k`` by pinning fewer bits."""
    f = BqfEc(q=9, count_size=4, hash_bits=12).for_partition(32, 21)
    assert (f.low_bits, f.residue, f.q) == (2, 1, 9)
    keys = np.arange(21, 4096, 32, dtype=np.uint64)
    f.update_batch(keys)
    assert _sorted(*f.enumerate())[0] == keys.tolist()
    assert BqfEc(q=10, hash_bits=11).for_partition(64, 5).low_bits == 0


def test_pinned_filter_grows_and_resizes():
    keys, counts = _part_rows(16, 5, n=40_000)
    f = BqfEc(q=6, count_size=8).for_partition(16, 5)
    f.update_batch(keys, counts)                   # auto-resize past q=6
    assert f.q > 6
    want = _sorted(keys, np.minimum(counts, 255))
    assert _sorted(*f.enumerate()) == want
    f.resize(2)
    assert _sorted(*f.enumerate()) == want
    np.testing.assert_array_equal(f.query_batch(keys), np.minimum(counts, 255))


@pytest.mark.parametrize("counts", [
    np.ones(500), np.full(500, 7), np.full(500, 255), np.arange(500) % 256,
    np.where(np.arange(500) % 10 == 0, 200, 1), np.r_[np.full(499, 3), 0],
], ids=["ones", "sevens", "all_cap", "spread", "mostly_ones", "zero_base"])
def test_counter_exceptions_round_trip(counts):
    """Counters coded by exception decode to the same stored counts; a
    zero stored count (BqfOom exponent, BqfCf bit) is a legal base."""
    keys = _keys(500)
    f = BqfOom(q=9, count_size=5) if counts[-1] == 0 else \
        BqfEc(q=9, count_size=8)
    stored = counts.astype(np.uint64)
    if isinstance(f, BqfOom):
        stored = np.minimum(stored, 31)
        f.update_batch(keys, np.uint64(1) << stored)
    else:
        f.update_batch(keys, stored + (stored == 0))
    blob = f.to_bytes()
    g = MergeableSketch.from_bytes(blob)
    assert _sorted(*g.enumerate()) == _sorted(*f.enumerate())
    for attr in ("_vals", "_run_first", "_occ_quots", "_occupieds",
                 "_occ_prefix"):
        np.testing.assert_array_equal(getattr(g, attr), getattr(f, attr),
                                      err_msg=attr)
    assert g.to_bytes() == blob


def test_counters_cost_by_exception():
    """90% count-1 elements: each counter costs its flag bit plus, on the
    10% exceptions, the exception width — not count_size bits each."""
    keys = _keys(20_000)
    counts = np.where(np.arange(20_000) % 10 == 0, 100, 1).astype(np.uint64)
    f = BqfEc(q=15, count_size=8)
    f.update_batch(keys, counts)
    g = Rsqf(q=15)
    g.update_batch(keys)
    extra = (len(f.to_bytes()) - len(g.to_bytes())) * 8 / len(keys)
    assert 1.0 + 0.1 * 7 <= extra <= 1.0 + 0.1 * 7 + 0.05


@pytest.mark.parametrize("hash_bits", [64, 40, 17, 2])
@pytest.mark.parametrize("n", [0, 1, 5000])
def test_slot_order_is_lexsort_of_quotient_and_remainder(hash_bits, n):
    rng = np.random.default_rng(hash_bits * 7 + n)
    keys = np.unique(rng.integers(0, (1 << hash_bits) - 1, n,
                                  dtype=np.uint64, endpoint=True))
    for q in sorted({1, hash_bits // 2, hash_bits - 1} - {0}):
        quot = keys & np.uint64((1 << q) - 1)
        rem = keys >> np.uint64(q)
        np.testing.assert_array_equal(_slot_order(keys, q, hash_bits),
                                      np.lexsort((rem, quot)))


def _mask_query(psk, keys):
    """The P-boolean-mask routing ``query_batch`` used before."""
    out = np.zeros(len(keys), dtype=np.uint64)
    part = keys % np.uint64(psk.P)
    for p, sk in psk.shards.items():
        m = part == p
        if m.any():
            out[m] = sk.query_batch(keys[m])
    return out


@pytest.mark.parametrize("P", [1, 3, 32])
@pytest.mark.parametrize("pinned", [False, True])
def test_routing_by_one_sort_matches_masks(P, pinned):
    keys = _keys(6000)
    counts = (np.arange(6000) % 5 + 1).astype(np.uint64)
    part = keys % np.uint64(P)
    shards = {}
    for p in range(P):
        if P > 1 and p % 3 == 1:
            continue                        # missing shards: empty partitions
        sk = BqfEc(q=8, count_size=4)
        if pinned:
            sk.for_partition(P, p)
        sk.update_batch(keys[part == p], counts[part == p])
        shards[p] = sk
    psk = PartitionedSketch(shards, P)
    kept = np.isin(part, list(shards))
    np.testing.assert_array_equal(psk.query_batch(keys)[kept], counts[kept])
    probe = np.concatenate([keys, _keys(3000, salt=1 << 50), keys[:100]])
    probe = probe[np.random.default_rng(P).permutation(len(probe))]
    np.testing.assert_array_equal(psk.query_batch(probe),
                                  _mask_query(psk, probe))
    assert psk.query_batch(np.empty(0, np.uint64)).tolist() == []
    assert PartitionedSketch({}, P).query_batch(probe).tolist() == \
        [0] * len(probe)


def test_route_groups_keys_by_partition_in_input_order():
    keys = np.array([7, 3, 12, 5, 8, 0, 11], dtype=np.uint64)
    order, bounds = route(keys, 4)
    groups = [keys[order[bounds[p]:bounds[p + 1]]].tolist() for p in range(4)]
    assert groups == [[12, 8, 0], [5], [], [7, 3, 11]]
