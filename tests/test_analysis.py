import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnpaths.analysis import (
    HeadScoreTable,
    head_scores,
    prune_heads,
    surviving_paths,
)
from attnpaths.kernel import PathFeatureMatrix
from attnpaths.predictor import evaluate_predictor


def _features(rng, n_heads=2, depth=2, width=4, n_ex=9, n_train=6):
    n_paths = n_heads**depth
    return PathFeatureMatrix(
        values=rng.standard_normal((n_paths, width, n_ex)) / np.sqrt(width),
        n_train=n_train, n_heads=n_heads, depth=depth)


def _paths(n_heads, depth):
    # the canonical order: h_1 is the most significant digit
    return list(itertools.product(range(n_heads), repeat=depth))


def test_head_scores_brute_force_oracle():
    rng = np.random.default_rng(0)
    for n_heads, depth in [(3, 2), (1, 1), (2, 3), (3, 3), (4, 1)]:
        n_paths = n_heads**depth
        u1 = rng.standard_normal((n_paths, n_paths))
        table = head_scores(u1, n_heads, depth)
        paths = _paths(n_heads, depth)
        for layer in range(1, depth + 1):
            for head in range(n_heads):
                want = 0.0
                for a, pa in enumerate(paths):
                    for b, pb in enumerate(paths):
                        if pa[layer - 1] == head and pb[layer - 1] == head:
                            want += abs(u1[a, b])
                assert abs(table.score(layer, head) - want) <= 1e-10 * (1 + want)
        with pytest.raises(KeyError):
            table.score(depth + 1, 0)


def test_head_scores_normalized_per_layer():
    rng = np.random.default_rng(1)
    u1 = rng.standard_normal((4, 4))
    table = head_scores(u1, 2, 2)
    for layer in (1, 2):
        mask = table.layers == layer
        assert abs(table.normalized[mask].sum() - 1.0) <= 1e-12
    assert np.all(table.normalized >= 0)
    with pytest.raises(ValueError):
        head_scores(np.eye(3), 2, 2)


def test_head_scores_concentrated_diagonal():
    # all mass on path 0 = (0, 0) scores only head 0 in both layers
    u1 = np.zeros((4, 4))
    u1[0, 0] = 5.0
    table = head_scores(u1, 2, 2)
    for layer in (1, 2):
        assert table.score(layer, 0) == 5.0
        assert table.score(layer, 1) == 0.0
        mask = table.layers == layer
        assert np.allclose(np.sort(table.normalized[mask]), [0.0, 1.0])


def test_surviving_paths_filter_oracle():
    # removing (layer, head) keeps exactly the paths avoiding it
    for n_heads, depth in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 1)]:
        paths = _paths(n_heads, depth)
        keep = surviving_paths(n_heads, depth, [(1, 0)])
        want = [i for i, p in enumerate(paths) if p[0] != 0]
        assert keep.tolist() == want
        removed = [(1, 0), (depth, 1)]
        both = surviving_paths(n_heads, depth, removed)
        want2 = [i for i, p in enumerate(paths)
                 if all(p[layer - 1] != head for layer, head in removed)]
        assert both.tolist() == want2
    with pytest.raises(ValueError, match="removed every path"):
        surviving_paths(1, 1, [(1, 0)])


def test_surviving_paths_validation():
    with pytest.raises(ValueError):
        surviving_paths(2, 2, [(3, 0)])
    with pytest.raises(ValueError):
        surviving_paths(2, 2, [(1, 2)])
    with pytest.raises(ValueError):
        surviving_paths(2, 2, [(0, 0)])
    # removing every head of a layer leaves nothing
    with pytest.raises(ValueError):
        surviving_paths(2, 2, [(1, 0), (1, 1)])


def test_prune_no_heads_is_identity():
    rng = np.random.default_rng(2)
    feats = _features(rng)
    y_train = rng.choice([-1.0, 1.0], size=6)
    eval_idx = np.arange(6, 9)
    eval_labels = rng.choice([-1, 1], size=3)
    a = rng.standard_normal((4, 4))
    u1 = a @ a.T + 4 * np.eye(4)
    full = evaluate_predictor(u1, feats, y_train, eval_idx, eval_labels, 0.1)
    for renormalize in (False, True):
        pruned = prune_heads(u1, feats, y_train, [], eval_idx, eval_labels, 0.1,
                             renormalize=renormalize)
        assert np.array_equal(pruned.means, full.means)
        assert np.array_equal(pruned.variances, full.variances)
        assert pruned.accuracy == full.accuracy


def test_prune_matches_masked_order_parameter():
    # without renormalization, pruning equals zeroing removed rows and columns of U
    rng = np.random.default_rng(3)
    feats = _features(rng)
    y_train = rng.choice([-1.0, 1.0], size=6)
    eval_idx = np.arange(6, 9)
    eval_labels = rng.choice([-1, 1], size=3)
    a = rng.standard_normal((4, 4))
    u1 = a @ a.T + 4 * np.eye(4)
    pruned = prune_heads(u1, feats, y_train, [(1, 1)], eval_idx, eval_labels, 0.1)
    keep = [0, 1]  # paths with layer-1 head 0
    u_masked = np.zeros_like(u1)
    u_masked[np.ix_(keep, keep)] = u1[np.ix_(keep, keep)]
    masked = evaluate_predictor(u_masked, feats, y_train, eval_idx, eval_labels, 0.1)
    assert np.allclose(pruned.means, masked.means, atol=1e-12)
    assert np.allclose(pruned.variances, masked.variances, atol=1e-12)


def test_prune_renormalize_rescales_kernel():
    # renormalization multiplies the kernel by H^L / n_kept, which rescales
    # means through the ridge rather than linearly; check against a direct
    # evaluation under the masked U with its kept block scaled by H^L / n_kept
    rng = np.random.default_rng(4)
    feats = _features(rng)
    y_train = rng.choice([-1.0, 1.0], size=6)
    eval_idx = np.arange(6, 9)
    eval_labels = rng.choice([-1, 1], size=3)
    a = rng.standard_normal((4, 4))
    u1 = a @ a.T + 4 * np.eye(4)
    got = prune_heads(u1, feats, y_train, [(2, 0)], eval_idx, eval_labels, 0.1,
                      renormalize=True)
    keep = np.array([1, 3])  # paths with layer-2 head 1
    u_masked = np.zeros_like(u1)
    u_masked[np.ix_(keep, keep)] = 2.0 * u1[np.ix_(keep, keep)]
    want = evaluate_predictor(u_masked, feats, y_train, eval_idx, eval_labels, 0.1)
    assert np.allclose(got.means, want.means, atol=1e-12)


def test_prune_single_surviving_path():
    rng = np.random.default_rng(5)
    feats = _features(rng)
    y_train = rng.choice([-1.0, 1.0], size=6)
    eval_idx = np.arange(6, 9)
    eval_labels = rng.choice([-1, 1], size=3)
    u1 = np.eye(4) * 2.0
    report = prune_heads(u1, feats, y_train, [(1, 1), (2, 1)], eval_idx,
                         eval_labels, 0.1, renormalize=True)
    # one path with renormalization: K = 2 phi^T phi exactly
    phi = feats.values[0]
    k = 2.0 * (phi.T @ phi)
    want = k[6:, :6] @ np.linalg.solve(k[:6, :6] + 0.1 * np.eye(6), y_train)
    assert np.allclose(report.means, want, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(n_heads=st.integers(1, 3), depth=st.integers(1, 3), renormalize=st.booleans(),
       data=st.data())
def test_prune_heads_matches_kept_path_sum_property(n_heads, depth, renormalize, data):
    # oracle: the kernel summed over kept path pairs only, divided by H^L, or
    # by the kept path count under renormalization
    removed = [(layer, head) for layer in range(1, depth + 1)
               for head in data.draw(st.lists(st.integers(0, n_heads - 1), unique=True,
                                              max_size=n_heads - 1))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    feats = _features(rng, n_heads, depth)
    n_paths = n_heads**depth
    y_train = rng.choice([-1.0, 1.0], size=6)
    eval_idx = np.arange(6, 9)
    eval_labels = rng.choice([-1, 1], size=3)
    a = rng.standard_normal((n_paths, n_paths))
    u1 = a @ a.T + n_paths * np.eye(n_paths)

    keep = [i for i, p in enumerate(_paths(n_heads, depth))
            if all((layer + 1, head) not in removed for layer, head in enumerate(p))]
    phi = feats.values
    k = sum(u1[i, j] * (phi[i].T @ phi[j]) for i in keep for j in keep)
    k = k / (len(keep) if renormalize else n_paths)
    m = k[:6, :6] + 0.1 * np.eye(6)
    k_cross = k[6:, :6]
    want_means = k_cross @ np.linalg.solve(m, y_train)
    want_vars = np.diag(k)[6:] - np.einsum("em,me->e", k_cross, np.linalg.solve(m, k_cross.T))

    got = prune_heads(u1, feats, y_train, removed, eval_idx, eval_labels, 0.1,
                      renormalize=renormalize)
    for g, w in ((got.means, want_means), (got.variances, want_vars)):
        assert np.max(np.abs(g - w)) <= 1e-12 * (1.0 + np.max(np.abs(w)))
