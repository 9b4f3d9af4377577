"""``token_hashes`` hashes each distinct token once and gathers; its keys
must equal hashing every token with ``xxhash64_array``."""

import numpy as np
import pyarrow as pa
import pytest

from bqf_ray.functions.hashing import xxhash64_array
from bqf_ray.functions.tokenize import token_hashes, tokenize_column

TEXTS = ["the cat and the hat and the bat", "", None, "  \t ",
         "héllo wörld héllo 東京 東京 ñ", "the", "a b c a b c a b c"]


def _inputs():
    arr = pa.array(TEXTS, type=pa.string())
    yield "array", arr
    yield "sliced", arr.slice(2, 4)
    yield "chunked", pa.chunked_array([arr.slice(0, 3), arr.slice(3)])
    yield "large_string", arr.cast(pa.large_string())
    yield "list", TEXTS[:2] + TEXTS[3:]
    yield "all_empty", pa.array(["", None, " "], type=pa.string())
    yield "no_docs", pa.array([], type=pa.string())


@pytest.mark.parametrize("seed", [0, 12345])
@pytest.mark.parametrize("name,texts", list(_inputs()),
                         ids=[n for n, _ in _inputs()])
def test_token_hashes_equal_hashing_every_token(name, texts, seed):
    hashes, offsets = token_hashes(texts, seed=seed)
    toks, want_offsets = tokenize_column(texts)
    assert hashes.dtype == np.uint64
    np.testing.assert_array_equal(hashes, xxhash64_array(toks, seed=seed))
    np.testing.assert_array_equal(offsets, want_offsets)


def test_repeated_tokens_share_one_hash():
    hashes, _ = token_hashes(pa.array(["x y x", "y x"]), seed=3)
    assert hashes[0] == hashes[2] == hashes[4]
    assert hashes[1] == hashes[3] != hashes[0]
