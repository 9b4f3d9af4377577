"""A sketch blob whose header ``to_bytes`` cannot have written fails in
``MergeableSketch.from_bytes`` with ``ValueError`` and nothing else:
non-numeric dtypes never reach ``np.frombuffer``, and a missing or unknown
``__type__`` or a non-integer shape is rejected before any array is read."""

import json
import struct

import numpy as np
import pytest

from bqf_ray.sketches.base import MergeableSketch
from bqf_ray.sketches.countmin import CountMin


def _blob():
    """A Count-Min blob whose table is stored as uint64 (8-byte items), so
    a corrupt dtype of the same item size passes the length checks."""
    s = CountMin(width=64, depth=3)
    s.update_batch(np.arange(1, 300, dtype=np.uint64),
                   np.full(299, 2**40, dtype=np.uint64))
    blob = s.to_bytes()
    assert json.loads(blob[8:8 + struct.unpack("<I", blob[4:8])[0]]
                      )["arrays"]["table"][0] == "uint64"
    return blob


def _with_header(blob, edit):
    """The same blob with its JSON header passed through ``edit``."""
    (hlen,) = struct.unpack("<I", blob[4:8])
    head = json.loads(blob[8:8 + hlen])
    edit(head)
    new = json.dumps(head).encode()
    return blob[:4] + struct.pack("<I", len(new)) + new + blob[8 + hlen:]


def _table_dtype(dtype):
    def edit(head):
        head["arrays"]["table"][0] = dtype
    return edit


def _table_shape(shape):
    def edit(head):
        head["arrays"]["table"][1] = shape
    return edit


@pytest.mark.parametrize("edit", [
    _table_dtype("garbage"),
    _table_dtype("O"),
    _table_dtype("<U8"),
    _table_dtype("V8"),
    _table_dtype("<U2"),
    _table_dtype("c8"),
    _table_dtype("M8[ns]"),
    _table_dtype("i4,i4"),
    lambda h: h["config"].pop("__type__"),
    lambda h: h["config"].update(__type__="NoSuchSketch"),
    lambda h: h["config"].update(__type__=7),
    _table_shape([3, 21.5]),
    _table_shape([3, "64"]),
    _table_shape([3, True]),
    _table_shape([3, -64]),
    _table_shape(192),
    lambda h: h.pop("arrays"),
    lambda h: h.update(config=[]),
    lambda h: h["arrays"].update(table="uint8"),
], ids=["dtype_garbage", "dtype_object", "dtype_unicode", "dtype_void",
        "dtype_unicode_8_bytes", "dtype_complex", "dtype_datetime",
        "dtype_struct", "no_type", "unknown_type", "type_not_str",
        "shape_float", "shape_str", "shape_bool", "shape_negative",
        "shape_not_list", "no_arrays", "config_not_object",
        "array_spec_not_list"])
def test_corrupt_header_raises_value_error(edit):
    blob = _with_header(_blob(), edit)
    with pytest.raises(ValueError):
        MergeableSketch.from_bytes(blob)


@pytest.mark.parametrize("head", [b"\xff\xfe", b"not json", b"[1, 2]"],
                         ids=["not_utf8", "not_json", "not_object"])
def test_unparseable_header_raises_value_error(head):
    blob = b"BQRS" + struct.pack("<I", len(head)) + head
    with pytest.raises(ValueError):
        MergeableSketch.from_bytes(blob)


def test_untouched_header_still_decodes():
    blob = _blob()
    assert MergeableSketch.from_bytes(_with_header(blob, lambda h: None)
                                      ).to_bytes() == blob
