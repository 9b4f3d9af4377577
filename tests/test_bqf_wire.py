"""BQF wire format: frozen slot-array (pre-``wire``) blobs and checkpoints
stay readable, corrupt headers fail with ValueError before any large
allocation, and ``error_bound`` holds on a built index shard."""

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
V1_NAMES = ["Rsqf", "BqfEc", "BqfOom", "BqfCf", "BqfEc_empty"]
# the frozen checkpoint was built from exactly this input and call
V1_PAGES = dict(n_rows=40, seed=7)
V1_BUILD = dict(num_partitions=4, q=8, input_lineage=["pages:seed=7:n=40"],
                batch_size=256, combine=False)


def _read(name):
    with open(os.path.join(V1_DIR, f"{name}.sketch"), "rb") as f:
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
    assert cfg["wire"] == 2 and cfg["n"] == len(expected["keys"])
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
    lambda b: _with_config(b, wire=3),                  # unknown format
    lambda b: b"XXXX" + b[4:],                          # bad magic
], ids=["truncated", "truncated_header", "n_inflated", "n_off_by_one",
        "q40", "q70", "wire3", "magic"])
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
        assert _header(f.read())["config"]["wire"] == 2
    after = SketchCheckpoint.load_manifest(ck)
    for p in ("0", "1", "3"):
        assert after["partitions"][p] == manifest["partitions"][p]
    SketchCheckpoint.load_all(ck)                 # every sha256 verifies

    fresh = build_bqf_index(_pages_ds(), **V1_BUILD)
    for got, want in zip(_sorted_enum(idx), _sorted_enum(fresh)):
        np.testing.assert_array_equal(got, want)


def test_error_bound_on_index_shard(ray_session):
    """error_bound() is the 2^-(64 − q) rule perfbench applies to index
    shards, and the measured FP rate on absent keys stays within it."""
    from bqf_ray.pipelines.build_index import build_bqf_index

    idx = build_bqf_index(_pages_ds(), **V1_BUILD)
    present, _ = idx.psketch.enumerate()
    probe = fmix64(np.arange(1 << 40, (1 << 40) + 100_000, dtype=np.uint64))
    assert not np.isin(probe, present).any()
    for sk in idx.psketch.shards.values():
        assert sk.error_bound() == 2.0 ** -(64 - sk.q)
        fp = float(np.mean(sk.query_batch(probe) > 0))
        assert fp <= sk.error_bound()
