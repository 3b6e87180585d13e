"""Bookkeeping for attention paths.

A path through an L-layer, H-head network picks one head per layer,
pi = (h_1, ..., h_L) with 0 <= h_l < H.  All path-indexed arrays use the
canonical flat order in which h_1 is the most significant digit:

    flat(pi) = h_1 H^(L-1) + h_2 H^(L-2) + ... + h_L

Under this order the extension of a depth-(L-l) order parameter to depth
(L-l+1) is the Kronecker product kron(I_H, U), because the leading digit
h_l only relabels blocks; solver._action_pieces builds that lift inline.
path_heads(H, L) is the one representation of the path set: an (L, H^L)
head-index array whose column i is the path with flat index i, so the paths
through head h of layer l are the columns where row l-1 equals h.  Head
indices are zero-based everywhere in code; renderings for humans (CSV
labels, reports) are one-based.
"""

from __future__ import annotations

import numpy as np

# Guard against accidental H**L blowups; arrays of this size would not fit anyway.
MAX_PATHS = 2**31


def path_heads(n_heads: int, depth: int) -> np.ndarray:
    """All H^L paths as an (L, H^L) head-index array in canonical flat order:
    column i is the path with flat index i, row l-1 holds its layer-l head."""
    if n_heads < 1 or depth < 1:
        raise ValueError(f"need n_heads >= 1 and depth >= 1, got {n_heads}, {depth}")
    if n_heads**depth > MAX_PATHS:
        raise ValueError(f"path count {n_heads}**{depth} exceeds limit {MAX_PATHS}")
    return np.indices((n_heads,) * depth).reshape(depth, -1)


def path_label(path: tuple[int, ...]) -> str:
    """Human-facing label with one-based head indices, e.g. (1,2)."""
    return "(" + ",".join(str(h + 1) for h in path) + ")"
