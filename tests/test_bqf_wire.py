"""BQF wire format: frozen slot-array (pre-``wire``) and wire-2 blobs and
checkpoints stay readable, corrupt headers fail with ValueError before any
large allocation, and ``error_bound`` holds on a built index shard."""

import json
import os
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from bqf_ray.functions.hashing import fmix64
from bqf_ray.sketches.base import MergeableSketch
from bqf_ray.sketches.bqf import BqfEc

V1_DIR = os.path.join(os.path.dirname(__file__), "data", "bqf_v1")
V2_DIR = os.path.join(os.path.dirname(__file__), "data", "bqf_v2")
V1_NAMES = ["Rsqf", "BqfEc", "BqfOom", "BqfCf", "BqfEc_empty"]
# the frozen checkpoint was built from exactly this input and call
V1_PAGES = dict(n_rows=40, seed=7)
V1_BUILD = dict(num_partitions=4, q=8, input_lineage=["pages:seed=7:n=40"],
                batch_size=256, combine=False)


def _read(name, data_dir=V1_DIR):
    with open(os.path.join(data_dir, f"{name}.sketch"), "rb") as f:
        return f.read()


def _header(blob):
    (hlen,) = struct.unpack("<I", blob[4:8])
    return json.loads(blob[8:8 + hlen])


def _with_config(blob, **changes):
    """The same blob with header config fields replaced."""
    (hlen,) = struct.unpack("<I", blob[4:8])
    head = _header(blob)
    head["config"].update(changes)
    new = json.dumps(head).encode()
    return blob[:4] + struct.pack("<I", len(new)) + new + blob[8 + hlen:]


@pytest.mark.parametrize("name", V1_NAMES)
def test_v1_blob_decodes_and_reencodes_as_v2(name):
    with open(os.path.join(V1_DIR, "expected.json")) as f:
        expected = json.load(f)[name]
    v1 = _read(name)
    assert "wire" not in _header(v1)["config"]
    f = MergeableSketch.from_bytes(v1)
    keys, counts = f.enumerate()
    assert keys.tolist() == expected["keys"]
    assert counts.tolist() == expected["counts"]

    v2 = f.to_bytes()
    cfg = _header(v2)["config"]
    assert cfg["wire"] == 3 and cfg["n"] == len(expected["keys"])
    g = MergeableSketch.from_bytes(v2)
    gk, gc = g.enumerate()
    assert gk.tolist() == expected["keys"]
    assert gc.tolist() == expected["counts"]
    assert g._extent == f._extent
    np.testing.assert_array_equal(g._slots[:g._extent], f._slots[:f._extent])
    assert g.to_bytes() == v2


def _small_blob():
    f = BqfEc(q=8, count_size=5)
    f.update_batch(fmix64(np.arange(1, 201, dtype=np.uint64)))
    return f.to_bytes()


@pytest.mark.parametrize("corrupt", [
    lambda b: b[:-8],                                   # truncated
    lambda b: b[:40],                                   # truncated header
    lambda b: _with_config(b, n=10**12),                # n inflated
    lambda b: _with_config(b, n=201),                   # n off by one
    lambda b: _with_config(b, q=40),                    # 2^40 slots claimed
    lambda b: _with_config(b, q=70),                    # impossible geometry
    lambda b: _with_config(b, wire=9),                  # unknown format
    lambda b: b"XXXX" + b[4:],                          # bad magic
], ids=["truncated", "truncated_header", "n_inflated", "n_off_by_one",
        "q40", "q70", "unknown_wire", "magic"])
def test_corrupt_blob_raises_value_error_without_large_allocation(corrupt):
    blob = corrupt(_small_blob())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            MergeableSketch.from_bytes(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_run_ends_must_match_occupieds():
    """A run-end bit moved off the last element keeps the popcount but
    breaks the last-bit check; it must fail before placement."""
    f = BqfEc(q=8, count_size=5)
    f.update_batch(fmix64(np.arange(1, 201, dtype=np.uint64)))
    arrays = f._state_arrays()
    words = arrays["run_ends"]
    assert words[-1] >> np.uint64(199 % 64) & np.uint64(1)
    words[-1] ^= np.uint64(1) << np.uint64(199 % 64)     # clear element 199's
    free = int(np.flatnonzero(
        np.unpackbits(words.view(np.uint8), bitorder="little") == 0)[0])
    words[free // 64] |= np.uint64(1) << np.uint64(free % 64)
    f._state_arrays = lambda: arrays
    with pytest.raises(ValueError, match="run ends do not match"):
        MergeableSketch.from_bytes(f.to_bytes())


def _pages_ds():
    import ray

    from bqf_ray.sources.pages import generate_pages
    return ray.data.from_arrow(generate_pages(**V1_PAGES)).repartition(2)


def _sorted_enum(idx):
    keys, counts = idx.psketch.enumerate()
    order = np.argsort(keys)
    return keys[order], counts[order]


def test_v1_checkpoint_resumes(ray_session, tmp_path):
    """A checkpoint whose manifest and shards predate the ``wire`` field
    resumes: sha256 checks pass, finished shards are not rewritten, and
    the missing shard is rebuilt in the current format."""
    from bqf_ray.pipelines.build_index import build_bqf_index
    from bqf_ray.state.checkpoint import SketchCheckpoint

    ck = str(tmp_path / "ck")
    shutil.copytree(os.path.join(V1_DIR, "checkpoint"), ck)
    os.remove(os.path.join(ck, "part-00002.sketch"))
    manifest = SketchCheckpoint.load_manifest(ck)
    assert SketchCheckpoint.resume_plan(
        ck, manifest["config"], V1_BUILD["input_lineage"]) == {0, 1, 3}
    before = {}
    for p in (0, 1, 3):
        path = os.path.join(ck, f"part-{p:05d}.sketch")
        with open(path, "rb") as f:
            before[p] = (f.read(), os.stat(path).st_mtime_ns)
        assert "wire" not in _header(before[p][0])["config"]

    idx = build_bqf_index(_pages_ds(), checkpoint_dir=ck, **V1_BUILD)

    for p, (blob, mtime) in before.items():
        path = os.path.join(ck, f"part-{p:05d}.sketch")
        with open(path, "rb") as f:
            assert f.read() == blob
        assert os.stat(path).st_mtime_ns == mtime
    with open(os.path.join(ck, "part-00002.sketch"), "rb") as f:
        assert _header(f.read())["config"]["wire"] == 3
    after = SketchCheckpoint.load_manifest(ck)
    for p in ("0", "1", "3"):
        assert after["partitions"][p] == manifest["partitions"][p]
    SketchCheckpoint.load_all(ck)                 # every sha256 verifies

    fresh = build_bqf_index(_pages_ds(), **V1_BUILD)
    for got, want in zip(_sorted_enum(idx), _sorted_enum(fresh)):
        np.testing.assert_array_equal(got, want)


def test_error_bound_on_index_shard(ray_session):
    """error_bound() is the shard's own 2^-(key_bits − q) rule (key_bits =
    64 less the low bits its partition pins), and the measured FP rate on
    absent keys stays within it."""
    from bqf_ray.pipelines.build_index import build_bqf_index

    idx = build_bqf_index(_pages_ds(), **V1_BUILD)
    present, _ = idx.psketch.enumerate()
    probe = fmix64(np.arange(1 << 40, (1 << 40) + 100_000, dtype=np.uint64))
    assert not np.isin(probe, present).any()
    for sk in idx.psketch.shards.values():
        assert sk.error_bound() == 2.0 ** -(sk.key_bits - sk.q)
        fp = float(np.mean(sk.query_batch(probe) > 0))
        assert fp <= sk.error_bound()


def test_partition_shard_error_bound_holds(ray_session):
    """A ``build_partitioned`` shard's error_bound() holds for the keys
    routed to it.  Unpinned, a shard of P = 32 keeps 24-bit fingerprints
    whose low 5 bits all agree: its quotients fall in 1/32 of the slots,
    and its measured FP rate (about 599 / 2^19) is 20 times the 2^-14 it
    claims."""
    import pyarrow as pa
    import ray

    from bqf_ray.stages.sketch_stage import build_partitioned

    P, part = 32, 13
    cand = fmix64(np.arange(1, 3_000_001, dtype=np.uint64))
    cand = cand[cand % np.uint64(P) == part]
    present, absent = cand[:599], cand[599:]

    def key_fn(batch: pa.Table):
        return np.asarray(batch.column("key"), dtype=np.uint64), None

    ds = ray.data.from_arrow(pa.table({"key": pa.array(present)}))
    meta = build_partitioned(
        ds, key_fn, lambda: BqfEc(q=10, count_size=4, hash_bits=24),
        num_partitions=P).take_all()
    assert [int(r["part"]) for r in meta] == [part]
    sk = MergeableSketch.from_bytes(meta[0]["blob"])
    assert sk.q == 10 and sk.elements_inside == 599
    assert len(absent) > 80_000
    fp = float(np.mean(sk.query_batch(absent) > 0))
    assert 0 < fp <= sk.error_bound()


@pytest.mark.parametrize("name", V1_NAMES)
def test_v2_blob_decodes_and_reencodes_as_v3(name):
    with open(os.path.join(V2_DIR, "expected.json")) as f:
        expected = json.load(f)
    probe = np.array(expected["probe"], dtype=np.uint64)
    expected = expected[name]
    v2 = _read(name, V2_DIR)
    assert _header(v2)["config"]["wire"] == 2
    f = MergeableSketch.from_bytes(v2)
    v3 = f.to_bytes()
    cfg = _header(v3)["config"]
    assert cfg["wire"] == 3 and cfg["low_bits"] == 0
    g = MergeableSketch.from_bytes(v3)
    for sk in (f, g):
        keys, counts = sk.enumerate()
        assert keys.tolist() == expected["keys"]
        assert counts.tolist() == expected["counts"]
        assert sk.query_batch(probe).tolist() == expected["query"]
    assert g._extent == f._extent
    np.testing.assert_array_equal(g._slots, f._slots)
    assert g.to_bytes() == v3


def test_v2_checkpoint_takes_updates(ray_session, tmp_path):
    """A wire-2 checkpoint resumes and takes updates: the rebuilt shard is
    pinned to its partition, so the index then mixes wire-2 shards with a
    pinned wire-3 one.  ``update_bqf_index`` rewrites only the shards a new
    document touches, each keeping its pin, and the index answers like
    before plus the new keys; removing the document restores the old
    answers."""
    import pyarrow as pa
    import ray

    from bqf_ray.pipelines.build_index import (build_bqf_index,
                                               shingle_key_fn,
                                               update_bqf_index)
    from bqf_ray.state.checkpoint import SketchCheckpoint

    ck = str(tmp_path / "ck")
    shutil.copytree(os.path.join(V2_DIR, "checkpoint"), ck)
    os.remove(os.path.join(ck, "part-00002.sketch"))
    idx = build_bqf_index(_pages_ds(), checkpoint_dir=ck, **V1_BUILD)

    def shard_configs():
        out = {}
        for p in range(4):
            with open(os.path.join(ck, f"part-{p:05d}.sketch"), "rb") as f:
                cfg = _header(f.read())["config"]
            out[p] = (cfg["wire"], cfg.get("low_bits"), cfg.get("residue"))
        return out

    assert shard_configs() == {0: (2, None, None), 1: (2, None, None),
                               2: (3, 2, 2), 3: (2, None, None)}
    before = _sorted_enum(idx)

    # one new word for the pinned shard 2 and one for the wire-2 shard 0
    words = {}
    for i in range(200):
        (key,) = shingle_key_fn("text", 1)(pa.table({"text": [f"zq{i}"]}))[0]
        words.setdefault(int(key % np.uint64(4)), (f"zq{i}", key))
    doc = pa.table({"text": [f"{words[2][0]} {words[0][0]}"]})
    new = np.array(sorted([words[2][1], words[0][1]]), dtype=np.uint64)
    assert not np.isin(new, before[0]).any()

    idx = update_bqf_index(ck, add_ds=ray.data.from_arrow(doc))
    assert shard_configs() == {0: (3, 0, 0), 1: (2, None, None),
                               2: (3, 2, 2), 3: (2, None, None)}
    SketchCheckpoint.load_all(ck)                 # every sha256 verifies
    assert idx.query_tokens(new).tolist() == [1, 1]
    keys, counts = _sorted_enum(idx)
    i = np.searchsorted(before[0], new)
    np.testing.assert_array_equal(keys, np.insert(before[0], i, new))
    np.testing.assert_array_equal(counts, np.insert(before[1], i, 1))

    idx = update_bqf_index(ck, remove_ds=ray.data.from_arrow(doc))
    for got, want in zip(_sorted_enum(idx), before):
        np.testing.assert_array_equal(got, want)


def _pinned_blob():
    """A wire-3 BqfEc shard of partition 1 of 4 with counter exceptions."""
    keys = fmix64(np.arange(1, 801, dtype=np.uint64))
    keys = keys[keys % np.uint64(4) == 1]
    counts = np.where(np.arange(len(keys)) % 5 == 0, 20, 1).astype(np.uint64)
    f = BqfEc(q=8, count_size=5).for_partition(4, 1)
    f.update_batch(keys, counts)
    blob = f.to_bytes()
    cfg = _header(blob)["config"]
    assert (cfg["count_base"], cfg["count_exc_bits"]) == (1, 5)
    assert cfg["n"] % 64
    return blob


def _with_array(blob, name, edit):
    """The same blob with array ``name`` passed through ``edit``."""
    (hlen,) = struct.unpack("<I", blob[4:8])
    head = _header(blob)
    arrays, pos = {}, 8 + hlen
    for k in sorted(head["arrays"]):
        dtype, dims = head["arrays"][k]
        n = int(np.prod(dims)) * np.dtype(dtype).itemsize
        arrays[k] = np.frombuffer(blob[pos:pos + n], dtype=dtype).copy()
        pos += n
    arrays[name] = edit(arrays[name])
    head["arrays"][name][1] = list(arrays[name].shape)
    new = json.dumps(head).encode()
    return (blob[:4] + struct.pack("<I", len(new)) + new
            + b"".join(arrays[k].tobytes() for k in sorted(arrays)))


def _flag_past_n(words):
    n = _header(_pinned_blob())["config"]["n"]
    words[-1] |= np.uint64(1) << np.uint64(n % 64)
    return words


@pytest.mark.parametrize("corrupt", [
    lambda b: _with_config(b, count_base=32),           # base >= 2^c
    lambda b: _with_config(b, count_exc_bits=6),        # width > c
    lambda b: _with_config(b, count_base=30),           # counters past cap
    lambda b: _with_config(b, count_exc_bits=0),        # exceptions unread
    lambda b: _with_array(b, "count_flags", _flag_past_n),
    lambda b: _with_array(b, "count_exc", lambda a: a[:-1]),
    lambda b: _with_config(b, low_bits=64),             # low_bits >= hash_bits
    lambda b: _with_config(b, low_bits=60),             # no remainder left
    lambda b: _with_config(b, residue=4),               # residue >= 2^k
    lambda b: _with_config(b, count_size=0),            # counter arrays extra
    lambda b: _with_config(b, low_bits=[2]),            # not an int
    lambda b: _with_array(b, "rems", lambda a: a[:-1]),
], ids=["base_past_cap", "exc_bits_past_c", "counters_past_cap",
        "exc_length", "flag_past_n", "exc_truncated", "low_bits_64",
        "low_bits_60", "residue", "count_size_0", "low_bits_list",
        "rems_truncated"])
def test_corrupt_v3_blob_raises_value_error_without_large_allocation(corrupt):
    blob = corrupt(_pinned_blob())
    MergeableSketch.from_bytes(_pinned_blob())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            MergeableSketch.from_bytes(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak

