"""Deep multi-head linear-value self-attention networks.

Tokens live in columns: a sequence is an array x0 of shape (width, T).
Attention logits are always computed from the bare input sequence,

    logit[s, t] = x0[:, s] @ M @ x0[:, t]

with the softmax normalized over the attended index s, so every column of an
attention matrix sums to one.  One (L, H, width, width) array, logits, holds M
for every head; a (G, width) query/key pair enters as M = K^T Q / (width sqrt(G)).
Values are linear: layer l maps

    x_{l+1}[:, t] = (NH)^(-1/2) sum_h V_lh @ x_l @ Omega_lh[:, t]

from the width-N hidden sequence, after the input projection
x_1 = V_0 @ x0 / sqrt(width).  The scalar output reads one token (or the
token average) through the readout vector a:  f = a @ x_{L+1}[:, t*] / sqrt(N).

The same output decomposes over attention paths pi = (h_1, ..., h_L):

    f = (H^L N width)^(-1/2) sum_pi  Veff_pi @ V_0 @ xi_pi

with effective weights Veff_pi = N^(-L/2) a @ V_{L,h_L} @ ... @ V_{1,h_1} and
attentioned inputs xi_pi = x0 @ Omega_{1,h_1} @ ... @ Omega_{L,h_L} read out
at t*.  Both routes are implemented; they agree to floating-point accuracy.

Cost: per example and head, a full T x T attention layer takes w^2 T + w T^2
multiply-adds for token width w (x^T M x), and one column of it w^2 + w T.
Since xi_pi reads Omega_{L,h_L} only through the readout's column weights,
attention_stack_batch given a readout builds the last layer at the columns
those weights read, one column for a token readout: at L = 2 that halves the
stack.  Earlier layers are needed in full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import enumerate_paths


@dataclass(frozen=True)
class Readout:
    """Which token the scalar output reads: a single position or the average."""

    kind: str
    t_star: int = 0

    def __post_init__(self):
        if self.kind not in ("token", "average"):
            raise ValueError(f"readout kind must be 'token' or 'average', got {self.kind!r}")
        if self.kind == "token" and self.t_star < 0:
            raise ValueError(f"t_star must be nonnegative, got {self.t_star}")

    @classmethod
    def token(cls, t_star: int) -> "Readout":
        return cls(kind="token", t_star=t_star)

    @classmethod
    def average(cls) -> "Readout":
        return cls(kind="average")

    def column_weights(self, n_tokens: int) -> np.ndarray:
        """Weights w_t with sum 1 such that the readout column is x @ w."""
        if self.kind == "token":
            if self.t_star >= n_tokens:
                raise ValueError(f"t_star={self.t_star} out of range for {n_tokens} tokens")
            w = np.zeros(n_tokens)
            w[self.t_star] = 1.0
            return w
        return np.full(n_tokens, 1.0 / n_tokens)


@dataclass
class NetworkWeights:
    """All trainable weights: input projection, per-(layer, head) values, readout."""

    v0: np.ndarray        # (N, width)
    values: np.ndarray    # (L, H, N, N)
    readout: np.ndarray   # (N,)

    def __post_init__(self):
        self.v0 = np.asarray(self.v0, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.readout = np.asarray(self.readout, dtype=float)
        n = self.v0.shape[0]
        if self.values.ndim != 4 or self.values.shape[2:] != (n, n):
            raise ValueError(f"values must have shape (L, H, {n}, {n}), got {self.values.shape}")
        if self.readout.shape != (n,):
            raise ValueError(f"readout must have shape ({n},), got {self.readout.shape}")

    @property
    def n_hidden(self) -> int:
        return self.v0.shape[0]

    @property
    def width(self) -> int:
        return self.v0.shape[1]

    @property
    def depth(self) -> int:
        return self.values.shape[0]

    @property
    def n_heads(self) -> int:
        return self.values.shape[1]

    @classmethod
    def sample_prior(cls, n_hidden: int, width: int, depth: int, n_heads: int,
                     sigma2: float = 1.0, rng: np.random.Generator | int | None = None) -> "NetworkWeights":
        """Draw all weight entries iid N(0, sigma2)."""
        rng = np.random.default_rng(rng)
        s = np.sqrt(sigma2)
        return cls(
            v0=s * rng.standard_normal((n_hidden, width)),
            values=s * rng.standard_normal((depth, n_heads, n_hidden, n_hidden)),
            readout=s * rng.standard_normal(n_hidden),
        )

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.v0.ravel(), self.values.ravel(), self.readout.ravel()])

    @classmethod
    def unflatten(cls, vec: np.ndarray, n_hidden: int, width: int, depth: int, n_heads: int) -> "NetworkWeights":
        return cls(*weight_parts(vec, n_hidden, width, depth, n_heads))


def weight_parts(vec: np.ndarray, n_hidden: int, width: int, depth: int, n_heads: int):
    """(v0, values, readout) views into flat weight vectors, in flatten's order;
    leading axes of vec are kept, e.g. values of stacked draws are (S, L, H, N, N)."""
    n0 = n_hidden * width
    nv = depth * n_heads * n_hidden * n_hidden
    if vec.shape[-1] != n0 + nv + n_hidden:
        raise ValueError(f"flat vector has wrong length {vec.shape}")
    lead = vec.shape[:-1]
    return (vec[..., :n0].reshape(*lead, n_hidden, width),
            vec[..., n0:n0 + nv].reshape(*lead, depth, n_heads, n_hidden, n_hidden),
            vec[..., n0 + nv:])


def _softmax_columns(logits: np.ndarray) -> np.ndarray:
    """Softmax over the first (attended) index; columns sum to one."""
    z = logits - logits.max(axis=-2, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-2, keepdims=True)


def check_logits(logits: np.ndarray, width: int | None = None) -> None:
    """Raise ValueError unless logits is an (L, H, width, width) array of finite
    entries with L, H >= 1; a width mismatch message names both widths."""
    shape = np.shape(logits)
    if len(shape) != 4 or min(shape[:2]) < 1 or shape[2] != shape[3]:
        raise ValueError(f"attention logits must have shape (L, H, width, width), got {shape}")
    if width is not None and shape[2] != width:
        raise ValueError(f"token width {width} does not match the width {shape[2]} of the logits")
    if not np.all(np.isfinite(logits)):
        raise ValueError("attention logits must be finite")


def attention_stack_batch(tokens: np.ndarray, logits: np.ndarray,
                          readout: Readout | None = None) -> np.ndarray:
    """Attention matrices for a batch, tokens (P, width, T) -> (P, L, H, T, T).

    Scores are batched as x^T M x per example, M = logits[l, h]; heads are
    independent.  With a readout, the last layer is built only at the query
    columns the readout reads; the softmax normalizes each column on its own,
    so those columns are the full stack's, and the other columns are 0.
    Tokens and logits may come from files, so they are checked here.
    """
    tokens = np.asarray(tokens, dtype=float)
    if tokens.ndim != 3:
        raise ValueError(f"tokens must be (P, width, T), got shape {tokens.shape}")
    n_ex, width, n_tokens = tokens.shape
    logits = np.asarray(logits, dtype=float)
    check_logits(logits, width)
    depth, n_heads = logits.shape[:2]
    read = np.arange(n_tokens) if readout is None else np.flatnonzero(readout.column_weights(n_tokens))
    last_cols = slice(None) if len(read) == n_tokens else read
    omegas = np.zeros((n_ex, depth, n_heads, n_tokens, n_tokens))
    for layer in range(depth):
        cols = last_cols if layer == depth - 1 else slice(None)
        queries = tokens[:, :, cols]
        for head in range(n_heads):
            scores = np.einsum("pws,wv,pvc->psc", tokens, logits[layer, head], queries,
                               optimize=True)
            omegas[:, layer, head][..., cols] = _softmax_columns(scores)
    return omegas


def attentioned_input(x0: np.ndarray, omegas: np.ndarray, path: tuple[int, ...],
                      readout: Readout) -> np.ndarray:
    """xi_pi: the input sequence propagated through one path's attention chain.

    Equals x0 @ Omega_{1,h1} @ ... @ Omega_{L,hL} read out at the readout
    column; shape (width,).
    """
    mat = np.asarray(x0, dtype=float)
    for layer, head in enumerate(path):
        mat = mat @ omegas[layer, head]
    return mat @ readout.column_weights(mat.shape[1])


def effective_weights(weights: NetworkWeights, path: tuple[int, ...]) -> np.ndarray:
    """Veff_pi = N^(-L/2) a @ V_{L,hL} @ ... @ V_{1,h1}; shape (N,)."""
    n = weights.n_hidden
    vec = weights.readout
    for layer in reversed(range(weights.depth)):
        vec = vec @ weights.values[layer, path[layer]]
    return vec / n ** (weights.depth / 2.0)


def network_output(x0: np.ndarray, weights: NetworkWeights, omegas: np.ndarray,
                   readout: Readout) -> float:
    """Scalar output via the path decomposition."""
    n_heads = weights.n_heads
    depth = weights.depth
    width = weights.width
    n = weights.n_hidden
    total = 0.0
    for path in enumerate_paths(n_heads, depth):
        xi = attentioned_input(x0, omegas, path, readout)
        total += effective_weights(weights, path) @ (weights.v0 @ xi)
    return total / np.sqrt(n_heads**depth * n * width)


def forward_layerwise(x0: np.ndarray, weights: NetworkWeights, omegas: np.ndarray,
                      readout: Readout) -> float:
    """Scalar output via the layer-by-layer recursion; same value as network_output."""
    n = weights.n_hidden
    n_heads = weights.n_heads
    x = weights.v0 @ x0 / np.sqrt(weights.width)
    for layer in range(weights.depth):
        nxt = np.zeros_like(x)
        for head in range(n_heads):
            nxt += weights.values[layer, head] @ (x @ omegas[layer, head])
        x = nxt / np.sqrt(n * n_heads)
    z = x @ readout.column_weights(x.shape[1])
    return float(weights.readout @ z / np.sqrt(n))
