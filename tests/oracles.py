"""Independent references for the network output, kept out of the package.

The package computes the output only through the path decomposition
(kernel.path_features with sampler._row_tree).  The functions here recompute
it, or its per-path pieces, by direct matrix products; shipped_output is the
package's own route on one example (compute_features, then the row tree), the
side the references are checked against.  attention_stack_einsum is the
attention stack with each head's scores as one three-operand einsum and an
out-of-place column softmax, the reference for model's two-GEMM form and
in-place softmax; path_features_onehot is the one-hot contraction that
kernel.path_features matches bit for bit.
"""

import numpy as np

from attnpaths.kernel import compute_features
from attnpaths.model import weight_parts
from attnpaths.sampler import _row_tree


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
    return float(a @ x[:, readout.t_star] / np.sqrt(n))


def softmax_columns(scores: np.ndarray) -> np.ndarray:
    """Softmax over the first (attended) index, out of place."""
    e = np.exp(scores - scores.max(axis=-2, keepdims=True))
    return e / e.sum(axis=-2, keepdims=True)


def attention_stack_einsum(tokens: np.ndarray, logits: np.ndarray,
                           readout=None) -> np.ndarray:
    """The attention stack as one (P, L, H, T, T) array, with scores
    einsum("pws,wv,pvc->psc", x, M, x) per head; under a readout the last
    layer is built at column t_star only (0 elsewhere), without one every
    layer is built in full.  model.attention_stack_batch's (layers, read) are
    its [:, :-1] and [:, -1, :, :, t_star]."""
    n_ex, _, n_tokens = tokens.shape
    depth, n_heads = logits.shape[:2]
    omegas = np.zeros((n_ex, depth, n_heads, n_tokens, n_tokens))
    for layer in range(depth):
        cols = [readout.t_star] if readout is not None and layer == depth - 1 else slice(None)
        queries = tokens[:, :, cols]
        for head in range(n_heads):
            scores = np.einsum("pws,wv,pvc->psc", tokens, logits[layer, head], queries,
                               optimize=True)
            omegas[:, layer, head][..., cols] = softmax_columns(scores)
    return omegas


def path_input(x0: np.ndarray, omegas: np.ndarray, path, readout) -> np.ndarray:
    """xi_pi = x0 @ Omega_{1,h1} @ ... @ Omega_{L,hL} read at column t_star."""
    mat = x0
    for layer, head in enumerate(path):
        mat = mat @ omegas[layer, head]
    return mat[:, readout.t_star]


def path_features_onehot(tokens: np.ndarray, layers: np.ndarray, read: np.ndarray,
                         readout) -> np.ndarray:
    """kernel.path_features as a right-to-left contraction that starts from the
    one-hot vector of column t_star and goes through every layer, last first:
    the earlier layers, then a T x T last layer that holds read at column
    t_star and 0 elsewhere."""
    n_ex, width, n_tokens = tokens.shape
    omegas = np.zeros((n_ex, layers.shape[1] + 1, read.shape[1], n_tokens, n_tokens))
    omegas[:, :-1] = layers
    omegas[:, -1, :, :, readout.t_star] = read
    onehot = np.zeros(n_tokens)
    onehot[readout.t_star] = 1.0
    vecs = np.broadcast_to(onehot[None, :, None], (n_ex, n_tokens, 1))
    for layer in reversed(range(omegas.shape[1])):
        vecs = np.matmul(omegas[:, layer], vecs[:, None])   # (P, H, T, suffixes)
        vecs = vecs.transpose(0, 2, 1, 3).reshape(n_ex, n_tokens, -1)
    return np.matmul(tokens, vecs).transpose(2, 1, 0) / np.sqrt(width)


def path_row(weights: tuple, path) -> np.ndarray:
    """Veff_pi = a @ V_{L,hL} @ ... @ V_{1,h1} / N^(L/2)."""
    _, values, row = weights
    depth = values.shape[0]
    for layer in reversed(range(depth)):
        row = row @ values[layer, path[layer]]
    return row / len(row) ** (depth / 2.0)


def shipped_output(x0: np.ndarray, q: np.ndarray, shape: tuple, logits: np.ndarray,
                   readout) -> float:
    """The output of flat weights q on x0 through the package's path sum: the
    path features from compute_features, dotted with the effective rows of
    sampler._row_tree times V0.  shape is (n_hidden, width, depth, n_heads)."""
    n_hidden, _, depth, n_heads = shape
    v0, values, a = weight_parts(q, *shape)
    phi = compute_features(x0[None], logits, readout, 0).values[..., 0]  # (H^L, width)
    rows = _row_tree(a, values)[-1]  # N^(L/2) Veff, (H^L, N)
    return float(np.vdot(rows @ v0, phi)) / np.sqrt(n_heads**depth * n_hidden ** (depth + 1))
