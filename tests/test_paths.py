import itertools

import numpy as np
import pytest

from attnpaths.paths import (
    MAX_PATHS,
    path_heads,
    path_label,
)


def test_enumeration_count_and_order():
    # column i is the path with flat index i: itertools.product order, with
    # h_1 the most significant digit (weight H^(L-l) for the layer-l head)
    for n_heads, depth in [(1, 1), (2, 2), (3, 2), (2, 3), (4, 1), (3, 3)]:
        heads = path_heads(n_heads, depth)
        assert heads.shape == (depth, n_heads**depth)
        want = list(itertools.product(range(n_heads), repeat=depth))
        assert [tuple(col) for col in heads.T] == want
        digits = n_heads ** np.arange(depth - 1, -1, -1)
        assert np.array_equal(digits @ heads, np.arange(n_heads**depth))


def test_flat_index_most_significant_first():
    # h_1 is the leading digit: (1, 0) comes after every (0, h)
    assert tuple(path_heads(2, 2)[:, 2]) == (1, 0)
    assert tuple(path_heads(2, 2)[:, 1]) == (0, 1)
    assert tuple(path_heads(3, 3)[:, 2 * 9 + 1 * 3]) == (2, 1, 0)


def test_flat_round_trip_random():
    # the digits of column idx, weighted by H^(L-l), give back idx
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_heads = int(rng.integers(1, 6))
        depth = int(rng.integers(1, 5))
        idx = int(rng.integers(0, n_heads**depth))
        path = path_heads(n_heads, depth)[:, idx]
        assert np.all((path >= 0) & (path < n_heads))
        flat = 0
        for h in path:
            flat = flat * n_heads + int(h)
        assert flat == idx


def test_path_heads_validation():
    with pytest.raises(ValueError):
        path_heads(0, 2)
    with pytest.raises(ValueError):
        path_heads(2, 0)
    with pytest.raises(ValueError):
        path_heads(2, 40)  # 2**40 > MAX_PATHS
    assert 2**40 > MAX_PATHS


def test_path_label_one_based():
    assert path_label((0, 1)) == "(1,2)"
    assert path_label((2,)) == "(3)"
    assert path_label((0, 0, 0)) == "(1,1,1)"
