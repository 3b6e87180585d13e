"""Metamorphic relations of the saddle-point solve and the predictor.

Each relation compares two runs of the library on related inputs, so it also
catches a bug that the library and the commands share: a solve or predictor
that pairs features with the wrong labels, or that depends on the order of
the training examples or of the heads, breaks a relation without any
reference value.
Heads come from build_hmc_attention at random H and L.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import attnpaths.solver as solver_mod
from attnpaths.data import HmcTaskConfig, build_hmc_attention, gen_hmc_dataset
from attnpaths.kernel import PathFeatureMatrix, compute_features
from attnpaths.model import Readout
from attnpaths.paths import path_heads
from attnpaths.predictor import evaluate_predictor
from attnpaths.solver import (
    OrderParameterSet,
    SolverConfig,
    action,
    action_gradient,
    solve_saddle,
)

TASK = HmcTaskConfig(chain_length=4, feature_width=8, n_train=8, n_test=4)


def _problem(n_heads, depth, seed):
    dataset = gen_hmc_dataset(TASK, seed)
    logits = build_hmc_attention(TASK, n_heads, depth, seed)
    features = compute_features(dataset.tokens, logits, Readout.token(1), TASK.n_train)
    config = SolverConfig(alpha=2.0, temperature=0.1, seed=seed)
    return dataset, features, dataset.train_labels.astype(float), config


@settings(max_examples=12, deadline=None)
@given(n_heads=st.integers(1, 3), depth=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_negated_labels_negate_the_predictor_and_keep_u(n_heads, depth, seed):
    # the action reads the labels through y (K + T I)^-1 y, and IEEE rounding
    # is symmetric under negation, so U keeps every bit and the means flip exactly
    dataset, features, y, config = _problem(n_heads, depth, seed)
    params, _ = solve_saddle(features, y, config)
    negated, _ = solve_saddle(features, -y, config)
    assert [m.tobytes() for m in negated.matrices] == [m.tobytes() for m in params.matrices]
    args = (dataset.test_indices, dataset.test_labels, config.temperature)
    means = evaluate_predictor(params.u1, features, y, *args).means
    assert np.array_equal(evaluate_predictor(negated.u1, features, -y, *args).means, -means)


@settings(max_examples=12, deadline=None)
@given(n_heads=st.integers(1, 3), depth=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_training_order_does_not_move_u(n_heads, depth, seed):
    _, features, y, config = _problem(n_heads, depth, seed)
    train = features.train()
    perm = np.random.default_rng(seed).permutation(TASK.n_train)
    shuffled = PathFeatureMatrix(values=train.values[:, :, perm], n_train=TASK.n_train,
                                 n_heads=n_heads, depth=depth)
    params, _ = solve_saddle(train, y, config)
    moved, _ = solve_saddle(shuffled, y[perm], config)
    # the action and its gradient at either solution see the examples as a set
    for point in (params, moved):
        s = action(point, train, y, config)
        assert abs(action(point, shuffled, y[perm], config) - s) <= 1e-12 * abs(s)
        for g, g_moved in zip(action_gradient(point, train, y, config),
                              action_gradient(point, shuffled, y[perm], config)):
            assert np.abs(g_moved - g).max() <= 1e-12 * (1.0 + abs(s))
    # Up to depth 2 the two solves stay together.  At depth 3 (8 to 27 paths
    # on 8 examples) the action is flat along some directions of U, and the
    # rounding of the two orders carried the solves up to 3e-10 apart over
    # seeds 0-29; that spread is not bounded here.
    if depth <= 2:
        assert np.abs(moved.u1 - params.u1).max() <= 1e-12 * np.abs(params.u1).max()


@settings(max_examples=10, deadline=None)
@given(n_heads=st.integers(2, 3), depth=st.integers(1, 3), seed=st.integers(0, 2**16),
       data=st.data())
def test_swapping_two_layer_one_heads_permutes_u1(n_heads, depth, seed, data):
    a, b = data.draw(st.lists(st.integers(0, n_heads - 1), min_size=2, max_size=2, unique=True))
    dataset = gen_hmc_dataset(TASK, seed)
    logits = build_hmc_attention(TASK, n_heads, depth, seed)
    swapped = logits.copy()
    swapped[0, [a, b]] = logits[0, [b, a]]
    train = dataset.tokens[: TASK.n_train]
    features = compute_features(train, logits, Readout.token(1), TASK.n_train)
    moved_features = compute_features(train, swapped, Readout.token(1), TASK.n_train)
    # path i under the swapped heads is path perm[i] under the original ones:
    # the same path with its layer-1 head (the leading flat digit) swapped
    swap = np.arange(n_heads)
    swap[[a, b]] = b, a
    heads = path_heads(n_heads, depth)
    heads[0] = swap[heads[0]]
    perm = np.ravel_multi_index(tuple(heads), (n_heads,) * depth)
    assert np.array_equal(moved_features.values, features.values[perm])
    y = dataset.train_labels.astype(float)
    config = SolverConfig(alpha=2.0, temperature=0.1, seed=seed)

    def permuted(point):
        # the upper levels index layers 2..L only, which the swap leaves alone
        return OrderParameterSet([point.u1[np.ix_(perm, perm)], *point.matrices[1:]],
                                 n_heads, depth)

    # The two solves start from the same seeded jitter, unpermuted, so they
    # take different paths to the minimum.  At the default stop (gradient
    # 1e-7 (1 + |S|)) they ended up to 1.5e-5 apart on this 8-example task over
    # 104 draws at depth <= 2, and 1.4e-4 at depth 3, where the action is flat
    # along some directions of U; solved to 1e-9 they ended up at most 1.3e-6
    # apart over 400 draws at every depth.
    with mock.patch.object(solver_mod, "TOLERANCE", 1e-9):
        params, _ = solve_saddle(features, y, config)
        moved, _ = solve_saddle(moved_features, y, config)
    for point in (params, permuted(moved)):
        s = action(point, features, y, config)
        assert abs(action(permuted(point), moved_features, y, config) - s) <= 1e-12 * abs(s)
        g = action_gradient(point, features, y, config)
        g_moved = action_gradient(permuted(point), moved_features, y, config)
        assert np.abs(g_moved[0] - g[0][np.ix_(perm, perm)]).max() <= 1e-12 * (1.0 + abs(s))
        for level, level_moved in zip(g[1:], g_moved[1:]):
            assert np.abs(level_moved - level).max() <= 1e-12 * (1.0 + abs(s))
    # the bound of test_solve_matches_scipy_lbfgsb
    want = params.u1[np.ix_(perm, perm)]
    assert np.abs(moved.u1 - want).max() <= 1e-5 * np.abs(want).max()
