"""Bayesian predictor statistics from a kernel and its order parameter.

Given the training kernel K, cross kernel rows k and test diagonal, the
posterior over the scalar output has

    mean      = k (K + T I)^-1 Y
    variance  = K_test - k (K + T I)^-1 k^T   (diagonal entries)

evaluate_predictor factors K + T I once (solver.pd_inverse) and hands that
inverse to both predictor_mean and predictor_variance.  Classification
accuracy is the fraction of test examples whose predicted sign matches the
label, with sign(0) counted as +1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernel import PathFeatureMatrix, kernel_blocks
from .solver import SolverConfig, SolverFailure, pd_inverse, solve_or_gp, solve_saddle

# Grid from the temperature selection protocol: {a 10^-b} for a in
# {1, 2.5, 5, 7.5}, b in {1, 2}, plus 1.0 and 1.5.
DEFAULT_TEMPERATURE_GRID = (0.01, 0.025, 0.05, 0.075, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5)


def predictor_mean(inverse: np.ndarray, k_cross: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Posterior mean outputs k (K + T I)^-1 Y; inverse is (K + T I)^-1 and
    k_cross has shape (n_eval, P)."""
    return np.asarray(k_cross, dtype=float) @ (inverse @ np.asarray(y, dtype=float))


def predictor_variance(inverse: np.ndarray, k_cross: np.ndarray,
                       k_eval_diag: np.ndarray) -> np.ndarray:
    """Posterior variances K_test - k (K + T I)^-1 k^T, elementwise over eval
    points; inverse is (K + T I)^-1."""
    k_cross = np.asarray(k_cross, dtype=float)
    return np.asarray(k_eval_diag, dtype=float) - np.vecdot(k_cross @ inverse, k_cross)


def classification_accuracy(means: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of sign agreements; sign(0) counts as +1."""
    means = np.asarray(means, dtype=float)
    labels = np.asarray(labels)
    if means.size == 0:
        raise ValueError("cannot score an empty evaluation set")
    if means.shape != labels.shape:
        raise ValueError(f"shape mismatch: {means.shape} vs {labels.shape}")
    if not np.all(np.isin(labels, (-1, 1))):
        raise ValueError("labels must be +1 or -1")
    pred = np.where(means >= 0.0, 1, -1)
    return float(np.mean(pred == labels))


@dataclass
class PredictorReport:
    means: np.ndarray
    variances: np.ndarray
    accuracy: float


def evaluate_predictor(u1: np.ndarray, features: PathFeatureMatrix, y_train: np.ndarray,
                       eval_idx: np.ndarray, eval_labels: np.ndarray, temperature: float,
                       train: PathFeatureMatrix | None = None) -> PredictorReport:
    """Assemble kernel blocks under u1 and score the evaluation examples, with
    K + T I factored once; train, the caller's features.train() if it holds
    one, is not read again."""
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    y_train = np.asarray(y_train, dtype=float)
    k_train, k_cross, k_diag = kernel_blocks(u1, features, eval_idx, train)
    if y_train.shape != (k_train.shape[0],):
        raise ValueError(f"y_train must have shape ({k_train.shape[0]},), got {y_train.shape}")
    inverse = pd_inverse(k_train + temperature * np.eye(len(y_train)))[0]
    means = predictor_mean(inverse, k_cross, y_train)
    variances = predictor_variance(inverse, k_cross, k_diag)
    return PredictorReport(means=means, variances=variances,
                           accuracy=classification_accuracy(means, eval_labels))


@dataclass
class SweepResult:
    best_temperature: float
    best_accuracy: float
    rows: list


def temperature_sweep(features: PathFeatureMatrix, y_train: np.ndarray,
                      val_idx: np.ndarray, val_labels: np.ndarray,
                      config: SolverConfig,
                      grid: tuple = DEFAULT_TEMPERATURE_GRID) -> SweepResult:
    """Solve the saddle at every temperature on the grid and score validation accuracy.

    Ties break toward the larger temperature.  Grid points where the solver
    fails are recorded with the error and skipped.  At alpha = 0 the GP closed
    form is used and no solver runs.
    """
    if len(grid) == 0:
        raise ValueError("temperature grid is empty")
    rows = []
    best_t = None
    best_acc = -1.0
    for t in grid:
        try:
            params, trace = solve_or_gp(features, y_train, replace(config, temperature=float(t)),
                                        solve=solve_saddle)
            report = evaluate_predictor(params.u1, features, y_train, val_idx, val_labels, float(t))
        except (SolverFailure, np.linalg.LinAlgError) as err:
            rows.append({"temperature": float(t), "accuracy": None, "converged": False,
                         "error": str(err)})
            continue
        rows.append({"temperature": float(t), "accuracy": report.accuracy,
                     "converged": trace is None or trace.converged, "error": ""})
        if report.accuracy > best_acc or (report.accuracy == best_acc and t > best_t):
            best_acc = report.accuracy
            best_t = float(t)
    if best_t is None:
        raise SolverFailure("the solver failed at every temperature on the grid")
    return SweepResult(best_temperature=best_t, best_accuracy=best_acc, rows=rows)
