"""A blob whose header names other arrays, dtypes, shapes or config fields
than its sketch writes fails in ``MergeableSketch.from_bytes`` with
``ValueError`` — never ``KeyError``, ``TypeError``, ``AssertionError`` or
a sketch whose queries fail later."""

import json
import struct

import numpy as np
import pytest

from bqf_ray.functions.hashing import fmix64
from bqf_ray.sketches.ams import AmsF2
from bqf_ray.sketches.base import MergeableSketch
from bqf_ray.sketches.countmin import CountMin
from bqf_ray.sketches.countsketch import CountSketch
from bqf_ray.sketches.ddsketch import DDSketch
from bqf_ray.sketches.hll import HyperLogLog
from bqf_ray.sketches.kll import KLL
from bqf_ray.sketches.misragries import MisraGries
from bqf_ray.sketches.tdigest import TDigest

KEYS = fmix64(np.arange(1, 2001, dtype=np.uint64))
VALUES = np.sin(np.arange(2000)) * 100

SKETCHES = {
    "countmin": (lambda: CountMin(width=64, depth=3), KEYS),
    "countsketch": (lambda: CountSketch(width=64, depth=5), KEYS),
    "hll": (lambda: HyperLogLog(p=6), KEYS),
    "kll": (lambda: KLL(k=16), VALUES),
    "tdigest": (lambda: TDigest(delta=20), VALUES),
    "ams": (lambda: AmsF2(depth=4), KEYS),
    "misragries": (lambda: MisraGries(m=16), KEYS % np.uint64(50)),
    "ddsketch": (lambda: DDSketch(alpha=0.05), VALUES),
}


def _blob(name):
    make, data = SKETCHES[name]
    s = make()
    s.update_batch(data)
    return s.to_bytes()


def _head(blob):
    (hlen,) = struct.unpack("<I", blob[4:8])
    return json.loads(blob[8:8 + hlen])


def _with_header(blob, edit):
    (hlen,) = struct.unpack("<I", blob[4:8])
    head = _head(blob)
    edit(head)
    new = json.dumps(head).encode()
    return blob[:4] + struct.pack("<I", len(new)) + new + blob[8 + hlen:]


def _first_array(head):
    return sorted(head["arrays"])[0]


def _rename(head):
    a = _first_array(head)
    head["arrays"]["x" + a] = head["arrays"].pop(a)


def _reshape(head):
    """The largest array re-declared with the same element count."""
    a = max(head["arrays"], key=lambda k: np.prod(head["arrays"][k][1]))
    dims = head["arrays"][a][1]
    head["arrays"][a][1] = [int(np.prod(dims))] if len(dims) > 1 \
        else dims + [1]


def _other_kind(head):
    """Every array re-declared with a dtype kind of the same item size that
    its sketch never writes."""
    for spec in head["arrays"].values():
        dt = np.dtype(spec[0])
        spec[0] = ("bool" if dt.itemsize == 1 else
                   f"i{dt.itemsize}" if dt.kind == "f" else f"f{dt.itemsize}")


def _config_key(head):
    return sorted(k for k in head["config"] if k != "__type__")[0]


def _set_config(value):
    def edit(head):
        head["config"][_config_key(head)] = value
    return edit


EDITS = {
    "renamed_array": _rename,
    "missing_array": lambda h: h["arrays"].pop(_first_array(h)),
    "reshaped_array": _reshape,
    "other_dtype_kind": _other_kind,
    "extra_config": lambda h: h["config"].update(extra=1),
    "missing_config": lambda h: h["config"].pop(_config_key(h)),
    "config_list": _set_config([1]),
    "config_string": _set_config("7"),
    "config_bool": _set_config(True),
    "config_null": _set_config(None),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("name", sorted(SKETCHES))
def test_header_must_match_the_sketch_layout(name, edit):
    blob = _blob(name)
    MergeableSketch.from_bytes(blob)            # the untouched blob decodes
    with pytest.raises(ValueError):
        MergeableSketch.from_bytes(_with_header(blob, EDITS[edit]))


@pytest.mark.parametrize("name,config", [
    ("countmin", {"width": 0, "depth": 0}),
    ("countsketch", {"depth": 4}),
    ("hll", {"p": 3}),
    ("hll", {"p": 40}),
    ("kll", {"k": 0}),
    ("kll", {"seed": -1}),
    ("tdigest", {"delta": 0}),
    ("ams", {"depth": 0}),
    ("misragries", {"m": 0}),
    ("ddsketch", {"alpha": 1.5}),
    ("ddsketch", {"max_buckets": -1}),
])
def test_config_out_of_range_raises_value_error(name, config):
    blob = _with_header(_blob(name), lambda h: h["config"].update(config))
    with pytest.raises(ValueError):
        MergeableSketch.from_bytes(blob)


def test_kll_offsets_must_split_the_items():
    s = KLL(k=16)
    s.update_batch(VALUES)
    arrays = s._state_arrays()
    arrays["offsets"] = arrays["offsets"][::-1].copy()
    s._state_arrays = lambda: arrays
    with pytest.raises(ValueError, match="offsets"):
        MergeableSketch.from_bytes(s.to_bytes())


def test_count_min_table_declared_one_dimensional():
    """The case that used to decode and fail only at query time."""
    blob = _with_header(_blob("countmin"), _reshape)
    assert _head(blob)["arrays"]["table"][1] == [192]
    with pytest.raises(ValueError, match="table"):
        MergeableSketch.from_bytes(blob)
