import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnpaths.analysis import head_scores, head_shares, prune_heads
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


def _keep(n_heads, depth, removed):
    # the (L, H) mask of the heads that stay; removed holds one-based layers
    keep = np.ones((depth, n_heads), dtype=bool)
    for layer, head in removed:
        keep[layer - 1, head] = False
    return keep


def test_head_scores_brute_force_oracle():
    rng = np.random.default_rng(0)
    for n_heads, depth in [(3, 2), (1, 1), (2, 3), (3, 3), (4, 1)]:
        n_paths = n_heads**depth
        u1 = rng.standard_normal((n_paths, n_paths))
        scores = head_scores(u1, n_heads, depth)
        assert scores.shape == (depth, n_heads)
        paths = _paths(n_heads, depth)
        for layer in range(1, depth + 1):
            for head in range(n_heads):
                want = 0.0
                for a, pa in enumerate(paths):
                    for b, pb in enumerate(paths):
                        if pa[layer - 1] == head and pb[layer - 1] == head:
                            want += abs(u1[a, b])
                assert abs(scores[layer - 1, head] - want) <= 1e-10 * (1 + want)
    with pytest.raises(ValueError):
        head_scores(np.eye(3), 2, 2)


def test_head_scores_normalized_per_layer():
    rng = np.random.default_rng(1)
    shares = head_shares(head_scores(rng.standard_normal((4, 4)), 2, 2))
    assert shares.shape == (2, 2)
    assert np.all(np.abs(shares.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(shares >= 0)
    # a layer with no mass reads 0, not NaN
    assert np.array_equal(head_shares(np.array([[0.0, 0.0], [1.0, 3.0]])), [[0.0, 0.0], [0.25, 0.75]])
    with pytest.raises(ValueError):
        head_scores(np.eye(3), 2, 2)


def test_head_scores_concentrated_diagonal():
    # all mass on path 0 = (0, 0) scores only head 0 in both layers
    u1 = np.zeros((4, 4))
    u1[0, 0] = 5.0
    assert np.array_equal(head_scores(u1, 2, 2), [[5.0, 0.0], [5.0, 0.0]])


def test_kept_paths_filter_oracle():
    # pruning with a keep mask equals evaluating U masked to exactly the paths
    # that avoid every removed head
    rng = np.random.default_rng(6)
    for n_heads, depth in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 1)]:
        n_paths = n_heads**depth
        feats = _features(rng, n_heads, depth)
        y_train = rng.choice([-1.0, 1.0], size=6)
        eval_idx = np.arange(6, 9)
        eval_labels = rng.choice([-1, 1], size=3)
        a = rng.standard_normal((n_paths, n_paths))
        u1 = a @ a.T + n_paths * np.eye(n_paths)
        for removed in ([(1, 0)], [(1, 0), (depth, 1)]):
            kept = [i for i, p in enumerate(_paths(n_heads, depth))
                    if all(p[layer - 1] != head for layer, head in removed)]
            u_masked = np.zeros_like(u1)
            u_masked[np.ix_(kept, kept)] = u1[np.ix_(kept, kept)]
            want = evaluate_predictor(u_masked, feats, y_train, eval_idx, eval_labels, 0.1)
            got = prune_heads(u1, feats, y_train, _keep(n_heads, depth, removed), eval_idx,
                              eval_labels, 0.1)
            assert np.array_equal(got.means, want.means)
            assert np.array_equal(got.variances, want.variances)


def test_prune_heads_validation():
    rng = np.random.default_rng(7)
    feats = _features(rng)
    args = (rng.choice([-1.0, 1.0], size=6), np.arange(6, 9), np.array([1, -1, 1]), 0.1)
    for shape in [(2,), (3, 2), (2, 3), (4,)]:
        with pytest.raises(ValueError, match="keep mask shape"):
            prune_heads(np.eye(4), feats, args[0], np.ones(shape, dtype=bool), *args[1:])
    # removing every head of a layer leaves nothing
    with pytest.raises(ValueError, match="removed every path"):
        prune_heads(np.eye(4), feats, args[0], _keep(2, 2, [(1, 0), (1, 1)]), *args[1:])
    lone = _features(rng, n_heads=1, depth=1)
    with pytest.raises(ValueError, match="removed every path"):
        prune_heads(np.eye(1), lone, args[0], np.zeros((1, 1), dtype=bool), *args[1:])


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
        pruned = prune_heads(u1, feats, y_train, _keep(2, 2, []), eval_idx, eval_labels, 0.1,
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
    pruned = prune_heads(u1, feats, y_train, _keep(2, 2, [(1, 1)]), eval_idx, eval_labels, 0.1)
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
    got = prune_heads(u1, feats, y_train, _keep(2, 2, [(2, 0)]), eval_idx, eval_labels, 0.1,
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
    report = prune_heads(u1, feats, y_train, _keep(2, 2, [(1, 1), (2, 1)]), eval_idx,
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

    got = prune_heads(u1, feats, y_train, _keep(n_heads, depth, removed), eval_idx,
                      eval_labels, 0.1, renormalize=renormalize)
    for g, w in ((got.means, want_means), (got.variances, want_vars)):
        assert np.max(np.abs(g - w)) <= 1e-12 * (1.0 + np.max(np.abs(w)))
