"""Order-parameter diagnostics: head scores and pruning.

The layer-l head score sums |U^(1)| over ordered path pairs that both pass
through the head,

    s_{l,h} = sum_{pi, pi' in Pi_{l,h}} |U1[pi, pi']|

which is the mass the posterior kernel assigns to that head's paths.  Pruning
removes heads without retraining: it zeros the rows and columns of U for every
path through a removed head and re-evaluates the predictor on the unchanged
features.  The kernel keeps its 1/H^L normalization, so pruned predictions
estimate the full model with dropped terms, unless the caller renormalizes:
scaling U by H^L / (surviving path count) builds a genuinely smaller model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import PathFeatureMatrix
from .paths import path_heads
from .predictor import PredictorReport, evaluate_predictor


@dataclass
class HeadScoreTable:
    """Scores per (layer, head); layers one-based, heads zero-based internally."""

    layers: np.ndarray
    heads: np.ndarray
    scores: np.ndarray
    normalized: np.ndarray

    def score(self, layer: int, head: int) -> float:
        mask = (self.layers == layer) & (self.heads == head)
        if not mask.any():
            raise KeyError(f"no score for layer {layer}, head {head}")
        return float(self.scores[mask][0])


def head_scores(u1: np.ndarray, n_heads: int, depth: int) -> HeadScoreTable:
    """Per-head absolute order-parameter mass, normalized per layer."""
    u1 = np.asarray(u1, dtype=float)
    n_paths = n_heads**depth
    if u1.shape != (n_paths, n_paths):
        raise ValueError(f"u1 shape {u1.shape} does not match H^L = {n_paths}")
    paths = path_heads(n_heads, depth)
    layers, heads, scores = [], [], []
    for layer in range(1, depth + 1):
        for head in range(n_heads):
            flats = np.flatnonzero(paths[layer - 1] == head)
            block = np.abs(u1[np.ix_(flats, flats)])
            layers.append(layer)
            heads.append(head)
            scores.append(float(block.sum()))
    layers = np.array(layers)
    heads = np.array(heads)
    scores = np.array(scores)
    normalized = np.zeros_like(scores)
    for layer in range(1, depth + 1):
        mask = layers == layer
        tot = scores[mask].sum()
        normalized[mask] = scores[mask] / tot if tot > 0 else 0.0
    return HeadScoreTable(layers=layers, heads=heads, scores=scores, normalized=normalized)


def surviving_paths(n_heads: int, depth: int, heads_to_remove: list) -> np.ndarray:
    """Flat indices of paths avoiding every removed (layer, head); layer one-based."""
    paths = path_heads(n_heads, depth)
    keep = np.ones(paths.shape[1], dtype=bool)
    for layer, head in heads_to_remove:
        if not 1 <= layer <= depth or not 0 <= head < n_heads:
            raise ValueError(f"no head (layer={layer}, head={head}) in an H={n_heads}, L={depth} network")
        keep &= paths[int(layer) - 1] != head
    if not keep.any():
        raise ValueError("pruning removed every path; at least one head must survive per layer")
    return np.flatnonzero(keep)


def prune_heads(u1: np.ndarray, features: PathFeatureMatrix, y_train: np.ndarray,
                heads_to_remove: list, eval_idx: np.ndarray, eval_labels: np.ndarray,
                temperature: float, renormalize: bool = False) -> PredictorReport:
    """Re-evaluate the predictor with the given heads removed, without retraining."""
    keep = surviving_paths(features.n_heads, features.depth, heads_to_remove)
    u1 = np.asarray(u1, dtype=float)
    u = np.zeros_like(u1)
    u[np.ix_(keep, keep)] = u1[np.ix_(keep, keep)]
    if renormalize:
        u *= features.n_paths / len(keep)
    return evaluate_predictor(u, features, y_train, eval_idx, eval_labels, temperature)
