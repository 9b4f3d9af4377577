"""Counter sketches store their state arrays at the narrowest integer width
that holds them (``base.narrow_ints``): blobs shrink, the header format is
unchanged, states round-trip bit-identically, and blobs written at full
width (frozen under ``tests/data/counters_v1``) still decode."""

import json
import os
import struct

import numpy as np
import pytest

from bqf_ray.functions.hashing import fmix64
from bqf_ray.sketches.ams import AmsF2
from bqf_ray.sketches.base import MergeableSketch, narrow_ints
from bqf_ray.sketches.countmin import CountMin
from bqf_ray.sketches.countsketch import CountSketch
from bqf_ray.sketches.ddsketch import DDSketch
from bqf_ray.sketches.misragries import MisraGries

V1_DIR = os.path.join(os.path.dirname(__file__), "data", "counters_v1")


def _header(blob):
    (hlen,) = struct.unpack("<I", blob[4:8])
    return hlen, json.loads(blob[8:8 + hlen])


def _dtypes(blob):
    return {k: v[0] for k, v in _header(blob)[1]["arrays"].items()}


def _keys(n, seed=1):
    rng = np.random.default_rng(seed)
    return fmix64(np.minimum(rng.zipf(1.2, n), 1 << 40).astype(np.uint64))


def _values(n, seed=1):
    rng = np.random.default_rng(seed)
    v = rng.lognormal(0.0, 2.0, n)
    v[::5] *= -1
    v[::11] = 0.0
    return v


# (factory, feed) per counter sketch; each feed gives a state that needs
# more than 8 bits somewhere and uses both signs where the sketch can
SKETCHES = {
    "countmin": (lambda: CountMin(width=256, depth=4, seed=3),
                 lambda s: s.update_batch(_keys(5000))),
    "countsketch": (lambda: CountSketch(width=256, depth=5, seed=3),
                    lambda s: s.update_batch(
                        _keys(5000), np.arange(5000) % 7 - 3)),
    "ams": (lambda: AmsF2(depth=4, seed=3),
            lambda s: s.update_batch(_keys(5000))),
    "misragries": (lambda: MisraGries(m=64),
                   lambda s: s.update_batch(_keys(5000))),
    "ddsketch": (lambda: DDSketch(alpha=0.01),
                 lambda s: s.update_batch(_values(5000))),
}


def _state(s):
    """Every in-memory state field that ``_from_state`` restores."""
    out = {}
    for k, v in vars(s).items():
        if isinstance(v, np.ndarray):
            out[k] = (v.dtype, v.tolist())
        elif isinstance(v, (int, float, np.integer, np.floating)):
            out[k] = (type(v), v)
    return out


def _built(name):
    factory, feed = SKETCHES[name]
    s = factory()
    feed(s)
    return s


@pytest.mark.parametrize("name", sorted(SKETCHES))
def test_round_trip_keeps_state_and_dtypes(name):
    s = _built(name)
    blob = s.to_bytes()
    t = MergeableSketch.from_bytes(blob)
    assert _state(t) == _state(s)
    assert t.to_bytes() == blob
    # at least one array went below the in-memory 64-bit width
    assert any(np.dtype(d).itemsize < 8 for d in _dtypes(blob).values())


@pytest.mark.parametrize("name", sorted(SKETCHES))
def test_empty_state_round_trips(name):
    s = SKETCHES[name][0]()
    blob = s.to_bytes()
    t = MergeableSketch.from_bytes(blob)
    assert _state(t) == _state(s)
    assert t.to_bytes() == blob


@pytest.mark.parametrize("name", sorted(SKETCHES))
def test_merging_decoded_blobs_equals_merging_originals(name):
    factory, _ = SKETCHES[name]
    a, b = _built(name), factory()
    if name == "ddsketch":
        b.update_batch(_values(3000, seed=2) * 1e3)
    elif name == "countsketch":
        b.update_batch(_keys(3000, seed=2), -(np.arange(3000) % 5))
    else:
        b.update_batch(_keys(3000, seed=2))
    decoded = (MergeableSketch.from_bytes(a.to_bytes())
               .merge(MergeableSketch.from_bytes(b.to_bytes())))
    a.merge(b)
    assert _state(decoded) == _state(a)
    assert decoded.to_bytes() == a.to_bytes()


@pytest.mark.parametrize("top,dtype", [
    (255, "uint8"), (256, "uint16"), (65_535, "uint16"), (65_536, "uint32"),
    (2**32 - 1, "uint32"), (2**32, "uint64"),
])
def test_countmin_width_edges(top, dtype):
    s = CountMin(width=64, depth=3)
    s.update_batch(np.array([7], dtype=np.uint64),
                   np.array([top], dtype=np.uint64))
    assert int(s.table.max()) == top
    blob = s.to_bytes()
    assert _dtypes(blob)["table"] == dtype
    t = MergeableSketch.from_bytes(blob)
    assert t.table.dtype == np.uint64
    np.testing.assert_array_equal(t.table, s.table)


def test_countsketch_negative_counters_pick_a_signed_dtype():
    s = CountSketch(width=64, depth=5)
    s.update_batch(_keys(400), np.full(400, -2))
    assert s.table.min() < 0
    blob = s.to_bytes()
    assert np.dtype(_dtypes(blob)["table"]).kind == "i"
    t = MergeableSketch.from_bytes(blob)
    assert t.table.dtype == np.int64
    np.testing.assert_array_equal(t.table, s.table)


@pytest.mark.parametrize("values,dtype", [
    ([0, 255], np.uint8), ([-128, 127], np.int8), ([-129, 0], np.int16),
    ([0, 65_535], np.uint16), ([-1, 32_768], np.int32),
    ([0, 2**32 - 1], np.uint32), ([-(2**31), 2**31 - 1], np.int32),
    ([-1, 2**31], np.int64), ([0, 2**32], np.int64),
])
def test_narrow_ints_picks_the_narrowest_holding_dtype(values, dtype):
    a = np.array(values, dtype=np.int64)
    out = narrow_ints(a)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.astype(np.int64), a)


def test_narrow_ints_keeps_full_width_and_empty_arrays():
    big = np.array([0, 2**63 + 5], dtype=np.uint64)
    assert narrow_ints(big).dtype == np.uint64
    empty = np.empty((5, 0), dtype=np.int64)
    assert narrow_ints(empty).dtype == np.int64


def test_full_size_countmin_under_65535_rows_takes_two_bytes_a_counter():
    s = CountMin(width=2048, depth=5)
    s.update_batch(_keys(65_535))
    blob = s.to_bytes()
    hlen, _ = _header(blob)
    assert _dtypes(blob)["table"] == "uint16"
    # payload: the uint16 table plus the one uint64 total
    assert len(blob) - 8 - hlen <= 2048 * 5 * 2 + 8


# the frozen blobs were written at full width (uint64 / int64 arrays) from
# exactly these inputs; see tests/data/counters_v1/README.md
def _v1_countmin():
    i = np.arange(1, 501, dtype=np.uint64)
    s = CountMin(width=64, depth=3, seed=5)
    s.update_batch(fmix64(i), (i % 7) + 1)
    return s


def _v1_countsketch():
    i = np.arange(1, 501, dtype=np.uint64)
    s = CountSketch(width=64, depth=5, seed=3)
    s.update_batch(fmix64(i), (i.astype(np.int64) % 9) - 4)
    return s


@pytest.mark.parametrize("name,build,wide", [
    ("CountMin", _v1_countmin, "uint64"),
    ("CountSketch", _v1_countsketch, "int64"),
])
def test_full_width_blobs_decode_to_the_same_state(name, build, wide):
    with open(os.path.join(V1_DIR, f"{name}.sketch"), "rb") as f:
        v1 = f.read()
    assert _dtypes(v1)["table"] == wide
    t = MergeableSketch.from_bytes(v1)
    s = build()
    assert _state(t) == _state(s)
    assert t.to_bytes() == s.to_bytes()
    assert len(s.to_bytes()) < len(v1)
