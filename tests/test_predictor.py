from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

from attnpaths.kernel import PathFeatureMatrix, total_kernel
from attnpaths.predictor import (
    DEFAULT_TEMPERATURE_GRID,
    classification_accuracy,
    evaluate_predictor,
    predictor_mean,
    predictor_variance,
    temperature_sweep,
)
from attnpaths.solver import SolverConfig, SolverFailure, pd_inverse


def _features(rng, n_heads=2, depth=2, width=5, n_ex=10, n_train=6):
    n_paths = n_heads**depth
    return PathFeatureMatrix(
        values=rng.standard_normal((n_paths, width, n_ex)) / np.sqrt(width),
        n_train=n_train, n_heads=n_heads, depth=depth)


def _kernel_setup(rng, p=6, m=3):
    a = rng.standard_normal((p + m, p + m))
    k = a @ a.T + (p + m) * np.eye(p + m)
    return k[:p, :p], k[p:, :p], np.diag(k)[p:]


def _inverse(k_train, t):
    """(K + T I)^-1 as evaluate_predictor forms it."""
    return pd_inverse(k_train + t * np.eye(len(k_train)))[0]


def test_predictor_mean_explicit_inverse_oracle():
    rng = np.random.default_rng(0)
    k_train, k_cross, _ = _kernel_setup(rng)
    y = rng.standard_normal(6)
    t = 0.2
    want = k_cross @ np.linalg.inv(k_train + t * np.eye(6)) @ y
    got = predictor_mean(_inverse(k_train, t), k_cross, y)
    assert np.max(np.abs(got - want)) <= 1e-8 * (1 + np.max(np.abs(want)))


def test_predictor_variance_explicit_inverse_oracle():
    rng = np.random.default_rng(1)
    k_train, k_cross, k_diag = _kernel_setup(rng)
    t = 0.3
    inv = np.linalg.inv(k_train + t * np.eye(6))
    want = k_diag - np.einsum("mp,pq,mq->m", k_cross, inv, k_cross)
    got = predictor_variance(_inverse(k_train, t), k_cross, k_diag)
    assert np.max(np.abs(got - want)) <= 1e-8 * (1 + np.max(np.abs(want)))


def test_predictor_interpolates_at_small_temperature():
    # evaluating on the training points themselves reproduces the labels as T -> 0
    rng = np.random.default_rng(2)
    k_train, _, _ = _kernel_setup(rng)
    y = rng.choice([-1.0, 1.0], size=6)
    means = predictor_mean(_inverse(k_train, 1e-10), k_train, y)
    assert np.max(np.abs(means - y)) <= 1e-6


def test_predictor_variance_bounds():
    # posterior variance is nonnegative and never exceeds the prior diagonal
    rng = np.random.default_rng(3)
    for _ in range(5):
        k_train, k_cross, k_diag = _kernel_setup(rng)
        var = predictor_variance(_inverse(k_train, 0.5), k_cross, k_diag)
        assert np.all(var >= -1e-10)
        assert np.all(var <= k_diag + 1e-10)


def test_predictor_mean_linear_in_labels():
    rng = np.random.default_rng(4)
    k_train, k_cross, _ = _kernel_setup(rng)
    y1 = rng.standard_normal(6)
    y2 = rng.standard_normal(6)
    inverse = _inverse(k_train, 0.1)
    m1 = predictor_mean(inverse, k_cross, y1)
    m2 = predictor_mean(inverse, k_cross, y2)
    m12 = predictor_mean(inverse, k_cross, 2.0 * y1 - 0.5 * y2)
    assert np.allclose(m12, 2.0 * m1 - 0.5 * m2, atol=1e-10)


def test_predictor_temperature_validation():
    rng = np.random.default_rng(5)
    feats = _features(rng)
    for t in (0.0, -0.1):
        with pytest.raises(ValueError, match="temperature must be > 0"):
            evaluate_predictor(np.eye(4), feats, np.ones(6), np.arange(6, 10), np.ones(4), t)


def test_classification_accuracy_rules():
    labels = np.array([1, -1, 1, -1])
    means = np.array([0.5, -0.2, -0.1, 0.3])
    assert classification_accuracy(means, labels) == 0.5
    # zero mean counts as +1
    assert classification_accuracy(np.array([0.0]), np.array([1])) == 1.0
    assert classification_accuracy(np.array([0.0]), np.array([-1])) == 0.0
    with pytest.raises(ValueError):
        classification_accuracy(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        classification_accuracy(np.array([1.0]), np.array([2]))
    with pytest.raises(ValueError):
        classification_accuracy(np.array([1.0, 2.0]), np.array([1]))


def test_evaluate_predictor_matches_manual_blocks():
    rng = np.random.default_rng(6)
    feats = _features(rng)
    y_train = rng.choice([-1.0, 1.0], size=6)
    eval_idx = np.arange(6, 10)
    eval_labels = rng.choice([-1, 1], size=4)
    u1 = np.eye(4)
    t = 0.1
    report = evaluate_predictor(u1, feats, y_train, eval_idx, eval_labels, t)
    k = total_kernel(u1, feats)
    inverse = _inverse(k[:6, :6], t)
    want_means = predictor_mean(inverse, k[6:, :6], y_train)
    want_vars = predictor_variance(inverse, k[6:, :6], np.diag(k)[6:])
    assert np.allclose(report.means, want_means, atol=1e-12)
    assert np.allclose(report.variances, want_vars, atol=1e-12)
    assert report.accuracy == classification_accuracy(want_means, eval_labels)
    assert [f.name for f in fields(report)] == ["means", "variances", "accuracy"]
    with pytest.raises(ValueError):
        evaluate_predictor(u1, feats, y_train[:5], eval_idx, eval_labels, t)


def test_evaluate_predictor_factors_the_train_kernel_once():
    # the mean and the variance read one inverse of K + T I
    import attnpaths.predictor as predictor_mod
    rng = np.random.default_rng(11)
    feats = _features(rng)
    calls = []

    def counted(m):
        calls.append(m.shape)
        return pd_inverse(m)

    with mock.patch.object(predictor_mod, "pd_inverse", counted):
        evaluate_predictor(np.eye(4), feats, rng.choice([-1.0, 1.0], size=6), np.arange(6, 10),
                           rng.choice([-1, 1], size=4), 0.1)
    assert calls == [(6, 6)]


def test_temperature_sweep_gp_limit_and_tie_break():
    # alpha = 0 uses the GP closed form; exact ties resolve to the larger T
    rng = np.random.default_rng(7)
    feats = _features(rng, n_ex=12, n_train=8)
    y_train = rng.choice([-1.0, 1.0], size=8)
    val_idx = np.arange(8, 12)
    val_labels = rng.choice([-1, 1], size=4)
    config = SolverConfig(alpha=0.0, temperature=0.1)
    result = temperature_sweep(feats, y_train, val_idx, val_labels, config,
                               grid=(0.05, 0.1))
    assert len(result.rows) == 2
    accs = [r["accuracy"] for r in result.rows]
    assert result.best_accuracy == max(accs)
    if accs[0] == accs[1]:
        assert result.best_temperature == 0.1
    for row in result.rows:
        assert row["converged"] and row["error"] == ""
    assert result.best_temperature in (0.05, 0.1)


def test_temperature_sweep_runs_solver_at_positive_alpha():
    rng = np.random.default_rng(8)
    feats = _features(rng, n_heads=2, depth=1, n_ex=8, n_train=5)
    y_train = rng.choice([-1.0, 1.0], size=5)
    val_idx = np.arange(5, 8)
    val_labels = rng.choice([-1, 1], size=3)
    config = SolverConfig(alpha=1.0, temperature=0.1, max_iter=3000)
    result = temperature_sweep(feats, y_train, val_idx, val_labels, config,
                               grid=(0.1, 0.5))
    assert len(result.rows) == 2
    assert all(r["accuracy"] is not None for r in result.rows)


def test_temperature_sweep_all_failures_raise():
    rng = np.random.default_rng(9)
    feats = _features(rng, n_heads=2, depth=1, n_ex=8, n_train=5)
    y_train = rng.choice([-1.0, 1.0], size=5)
    val_idx = np.arange(5, 8)
    val_labels = rng.choice([-1, 1], size=3)
    # NaN features make the action non-finite at every temperature
    nan_feats = PathFeatureMatrix(values=np.full_like(feats.values, np.nan), n_train=5,
                                  n_heads=2, depth=1)
    config = SolverConfig(alpha=1.0, temperature=0.1)
    with pytest.raises(SolverFailure):
        temperature_sweep(nan_feats, y_train, val_idx, val_labels, config, grid=(0.1,))
    with pytest.raises(ValueError):
        temperature_sweep(feats, y_train, val_idx, val_labels, config, grid=())


def test_temperature_sweep_records_partial_failures(monkeypatch):
    # a grid point where the solver fails is recorded with the error and skipped
    import attnpaths.predictor as predictor_mod
    from attnpaths.solver import solve_saddle as real_solve

    def flaky(features, y, config):
        if config.temperature == 0.5:
            raise SolverFailure("injected failure")
        return real_solve(features, y, config)

    monkeypatch.setattr(predictor_mod, "solve_saddle", flaky)
    rng = np.random.default_rng(10)
    feats = _features(rng, n_heads=2, depth=1, n_ex=8, n_train=5)
    y_train = rng.choice([-1.0, 1.0], size=5)
    val_idx = np.arange(5, 8)
    val_labels = rng.choice([-1, 1], size=3)
    config = SolverConfig(alpha=1.0, temperature=0.1, max_iter=3000)
    result = temperature_sweep(feats, y_train, val_idx, val_labels, config,
                               grid=(0.1, 0.5))
    assert len(result.rows) == 2
    good, failed = result.rows
    assert failed["temperature"] == 0.5
    assert failed["accuracy"] is None and not failed["converged"]
    assert "injected failure" in failed["error"]
    assert result.best_temperature == 0.1
    assert result.best_accuracy == good["accuracy"]


def test_default_grid_contents():
    assert DEFAULT_TEMPERATURE_GRID == (0.01, 0.025, 0.05, 0.075, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5)
