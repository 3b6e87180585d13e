"""Independent references for the network output, kept out of the package.

The package computes the output only through the path decomposition
(kernel.path_features with sampler._row_tree).  The functions here recompute
it, or its per-path pieces, by direct matrix products; shipped_output is the
package's own route on one example, the side the references are checked
against.
"""

import numpy as np

from attnpaths.model import weight_parts
from attnpaths.sampler import PosteriorSamples, empirical_predictor


def forward_layerwise(x0: np.ndarray, weights: tuple, omegas: np.ndarray, readout) -> float:
    """Scalar output of one sequence x0 (width, T) by the layer-by-layer recursion."""
    v0, values, a = weights
    n, width = v0.shape
    depth, n_heads = values.shape[:2]
    x = v0 @ x0 / np.sqrt(width)
    for layer in range(depth):
        nxt = np.zeros_like(x)
        for head in range(n_heads):
            nxt += values[layer, head] @ (x @ omegas[layer, head])
        x = nxt / np.sqrt(n * n_heads)
    z = x @ readout.column_weights(x.shape[1])
    return float(a @ z / np.sqrt(n))


def path_input(x0: np.ndarray, omegas: np.ndarray, path, readout) -> np.ndarray:
    """xi_pi = x0 @ Omega_{1,h1} @ ... @ Omega_{L,hL} @ w for readout column weights w."""
    mat = x0
    for layer, head in enumerate(path):
        mat = mat @ omegas[layer, head]
    return mat @ readout.column_weights(mat.shape[1])


def path_row(weights: tuple, path) -> np.ndarray:
    """Veff_pi = a @ V_{L,hL} @ ... @ V_{1,h1} / N^(L/2)."""
    _, values, row = weights
    depth = values.shape[0]
    for layer in reversed(range(depth)):
        row = row @ values[layer, path[layer]]
    return row / len(row) ** (depth / 2.0)


def shipped_output(x0: np.ndarray, q: np.ndarray, shape: tuple, logits: np.ndarray,
                   readout) -> float:
    """The output of flat weights q on x0 through the package's path sum:
    empirical_predictor on one kept draw, which runs compute_features and
    sampler._row_tree.  shape is (n_hidden, width, depth, n_heads)."""
    post = PosteriorSamples(
        samples=q[None], n_hidden=shape[0], width=shape[1], depth=shape[2], n_heads=shape[3],
        acceptance=np.ones(1), divergences=np.zeros(1, dtype=int),
        step_sizes=np.ones(1), potentials=np.zeros(1))
    mean, _ = empirical_predictor(post, x0[None], logits, readout)
    return float(mean[0])
