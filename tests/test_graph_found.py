"""``graph._found`` gives the same ``(pos, hit)`` as a plain
``searchsorted`` whether the probe keys arrive sorted (no argsort) or not,
on both sides of its 1,024-id threshold."""

import numpy as np
import pytest

from bqf_ray.pipelines.graph import _found


def _reference(ids, x):
    pos = np.searchsorted(ids, x)
    if not len(ids):
        return pos, np.zeros(len(x), dtype=bool)
    return pos, np.isin(x, ids)


def _case(kind, n_ids):
    rng = np.random.default_rng(n_ids)
    ids = np.unique(rng.integers(0, 4 * n_ids + 10, n_ids))
    x = rng.integers(-5, 4 * n_ids + 20, 3 * n_ids + 7)
    if kind == "sorted":
        x = np.sort(x)
    elif kind == "duplicates":
        x = np.sort(np.repeat(x[:n_ids // 2 + 3], 3))
    elif kind == "unsorted_duplicates":
        x = np.repeat(x[:n_ids // 2 + 3], 3)
    elif kind == "empty_ids":
        ids = ids[:0]
    elif kind == "empty_x":
        x = x[:0]
    elif kind == "one_x":
        x = x[:1]
    return ids, x


@pytest.mark.parametrize("n_ids", [50, 5000])
@pytest.mark.parametrize("kind", ["sorted", "unsorted", "duplicates",
                                  "unsorted_duplicates", "empty_ids",
                                  "empty_x", "one_x"])
def test_found_matches_plain_searchsorted(kind, n_ids):
    ids, x = _case(kind, n_ids)
    pos, hit = _found(ids, x)
    want_pos, want_hit = _reference(ids, x)
    np.testing.assert_array_equal(pos, want_pos)
    np.testing.assert_array_equal(hit, want_hit)
    assert hit.dtype == bool
