"""Order-parameter diagnostics: head scores and pruning.

A head is a cell of the L x H grid, and both functions here hold heads as
(L, H) arrays: entry [l, h] is head h of layer l+1.  The head score sums
|U^(1)| over ordered path pairs that both pass through the head,

    s_{l,h} = sum_{pi, pi' in Pi_{l,h}} |U1[pi, pi']|

which is the mass the posterior kernel assigns to that head's paths.  Pruning
removes heads without retraining: it zeros the rows and columns of U for every
path through a removed head and re-evaluates the predictor on the unchanged
features.  The kernel keeps its 1/H^L normalization, so pruned predictions
estimate the full model with dropped terms, unless the caller renormalizes:
scaling U by H^L / (surviving path count) builds a genuinely smaller model.
"""

from __future__ import annotations

import numpy as np

from .kernel import PathFeatureMatrix
from .paths import path_heads
from .predictor import PredictorReport, evaluate_predictor


def head_scores(u1: np.ndarray, n_heads: int, depth: int) -> np.ndarray:
    """Per-head absolute order-parameter mass as an (L, H) array."""
    u1 = np.abs(np.asarray(u1, dtype=float))
    n_paths = n_heads**depth
    if u1.shape != (n_paths, n_paths):
        raise ValueError(f"u1 shape {u1.shape} does not match H^L = {n_paths}")
    paths = path_heads(n_heads, depth)
    scores = np.empty((depth, n_heads))
    for layer, head in np.ndindex(depth, n_heads):
        flats = np.flatnonzero(paths[layer] == head)
        scores[layer, head] = u1[np.ix_(flats, flats)].sum()
    return scores


def head_shares(scores: np.ndarray) -> np.ndarray:
    """Each head score's share of its layer's total, 0 for a layer whose total is 0."""
    scores = np.asarray(scores, dtype=float)
    totals = scores.sum(axis=1, keepdims=True)
    return np.divide(scores, totals, out=np.zeros_like(scores), where=totals > 0)


def prune_heads(u1: np.ndarray, features: PathFeatureMatrix, y_train: np.ndarray,
                keep: np.ndarray, eval_idx: np.ndarray, eval_labels: np.ndarray,
                temperature: float, renormalize: bool = False) -> PredictorReport:
    """Re-evaluate the predictor on the heads of the (L, H) bool mask keep,
    without retraining."""
    depth, n_heads = features.depth, features.n_heads
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (depth, n_heads):
        raise ValueError(f"keep mask shape {keep.shape} does not match (L, H) = {(depth, n_heads)}")
    if not keep.any(axis=1).all():
        raise ValueError("pruning removed every path; at least one head must survive per layer")
    kept = keep[np.arange(depth)[:, None], path_heads(n_heads, depth)].all(axis=0)
    u = np.where(np.outer(kept, kept), np.asarray(u1, dtype=float), 0.0)
    if renormalize:
        u *= features.n_paths / kept.sum()
    return evaluate_predictor(u, features, y_train, eval_idx, eval_labels, temperature)
