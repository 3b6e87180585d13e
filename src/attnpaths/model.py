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
x_1 = V_0 @ x0 / sqrt(width).  The scalar output reads one token t* through
the readout vector a:  f = a @ x_{L+1}[:, t*] / sqrt(N).

The same output decomposes over attention paths pi = (h_1, ..., h_L):

    f = (H^L N width)^(-1/2) sum_pi  Veff_pi @ V_0 @ xi_pi

with effective weights Veff_pi = N^(-L/2) a @ V_{L,h_L} @ ... @ V_{1,h_1} and
attentioned inputs xi_pi = x0 @ Omega_{1,h_1} @ ... @ Omega_{L,h_L} read out
at t*.  The package runs only this path route, on the (v0, values, readout)
parts of a flat weight vector (weight_parts): kernel.path_features builds
the xi_pi / sqrt(width) and sampler._row_tree the N^(L/2) Veff_pi.  The
layerwise recursion lives in tests/oracles.py as the test oracle; the two
routes agree to floating-point accuracy.

Cost: per example and head, a full T x T attention layer takes w^2 T + w T^2
multiply-adds for token width w (x^T M x), and one column of it w^2 + w T.
attention_stack_batch runs a full layer of a P-example batch as two matmuls:
one (w x w) @ (w x P T) GEMM, M^T times the tokens laid out as (w, P T), and
one batched (T x w) @ (w x T) product per example; the einsum
"pws,wv,pvc->psc" makes the same two products, bit for bit, but allocates
their operand and output anew.  Since xi_pi reads Omega_{L,h_L} only at
column t*, attention_stack_batch builds the last layer at that column
alone: at L = 2 that halves the stack.  That layer is again one GEMM, the
examples' read columns as (P, w) times M^T, and one batched product: the
einsum's bits at half its time, except in the last bit at w = 1, and at
T <= 3 for tokens that are a view of a (w, P T) operand (compute_features).
Earlier layers are needed in full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Readout:
    """The token t_star that the scalar output reads."""

    t_star: int

    def __post_init__(self):
        if self.t_star < 0:
            raise ValueError(f"t_star must be nonnegative, got {self.t_star}")

    @classmethod
    def token(cls, t_star: int) -> "Readout":
        return cls(t_star=t_star)


def weight_count(n_hidden: int, width: int, depth: int, n_heads: int) -> int:
    """Length of the flat weight vector that weight_parts splits."""
    return n_hidden * width + depth * n_heads * n_hidden * n_hidden + n_hidden


def weight_parts(vec: np.ndarray, n_hidden: int, width: int, depth: int, n_heads: int):
    """(v0, values, readout) views into flat weight vectors whose last axis holds
    v0 (N, width), values (L, H, N, N) and the readout (N,), each row-major;
    leading axes of vec are kept, e.g. values of stacked draws are (S, L, H, N, N)."""
    if vec.shape[-1] != weight_count(n_hidden, width, depth, n_heads):
        raise ValueError(f"flat vector has wrong length {vec.shape}")
    n0 = n_hidden * width
    nv = depth * n_heads * n_hidden * n_hidden
    lead = vec.shape[:-1]
    return (vec[..., :n0].reshape(*lead, n_hidden, width),
            vec[..., n0:n0 + nv].reshape(*lead, depth, n_heads, n_hidden, n_hidden),
            vec[..., n0 + nv:])


def _softmax_columns(scores: np.ndarray, out: np.ndarray) -> None:
    """Softmax over the first (attended) index of scores, written to out (which
    may be scores); columns sum to one.  scores is overwritten."""
    scores -= scores.max(axis=-2, keepdims=True)
    np.exp(scores, out=scores)
    np.divide(scores, scores.sum(axis=-2, keepdims=True), out=out)


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


def attention_stack_batch(tokens: np.ndarray, logits: np.ndarray, readout: Readout,
                          work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Attention stack of a batch, tokens (P, width, T) -> (layers, read):
    layers 0 ... L-2 in full, (P, L-1, H, T, T), and read, the last layer's
    column t* for each head, (P, H, T).

    Scores are batched as x^T M x per example, M = logits[l, h]; heads are
    independent.  Each full layer is two GEMMs: M^T times the tokens laid out
    as (width, P T), then each example's (T, width) slice of that product
    times its tokens.  work, of shape (width, >= P T), holds that product;
    without it one is allocated here, and a caller that builds many batches
    passes one array to all of them.  The layout is a view of tokens that are
    the (P, width, T) view of a (width, P T) operand, as compute_features
    passes them, and a copy of any others.  The softmax normalizes each
    column on its own, so read is that column of the full last layer.
    Tokens and logits may come from files, so they are checked here.
    """
    tokens = np.asarray(tokens, dtype=float)
    if tokens.ndim != 3:
        raise ValueError(f"tokens must be (P, width, T), got shape {tokens.shape}")
    n_ex, width, n_tokens = tokens.shape
    logits = np.asarray(logits, dtype=float)
    check_logits(logits, width)
    depth, n_heads = logits.shape[:2]
    t_star = readout.t_star
    if t_star >= n_tokens:
        raise ValueError(f"t_star={t_star} out of range for {n_tokens} tokens")
    cols = n_ex * n_tokens
    if work is None:
        work = np.empty((width, cols))
    if work.dtype != float or work.ndim != 2 or work.shape[0] != width or work.shape[1] < cols:
        raise ValueError(f"work must be a float ({width}, >= {cols}) array, got {work.shape}")
    prod = work[:, :cols]
    if np.may_share_memory(tokens, prod):  # else the first product would overwrite them
        tokens = tokens.copy()
    # a view of compute_features' operand, a C-order copy of other tokens
    xw = tokens.transpose(1, 0, 2).reshape(width, cols)
    layers = np.empty((n_ex, depth - 1, n_heads, n_tokens, n_tokens))
    for layer in range(depth - 1):
        for head in range(n_heads):
            np.matmul(logits[layer, head].T, xw, out=prod)
            scores = np.matmul(prod.reshape(width, n_ex, n_tokens).transpose(1, 2, 0), tokens)
            _softmax_columns(scores, out=layers[:, layer, head])
    read = np.empty((n_ex, n_heads, n_tokens))
    for head in range(n_heads):
        # the examples' (P, width) read columns times M^T, then one product per example
        lifted = np.ascontiguousarray(tokens[:, :, t_star]) @ logits[-1, head].T
        scores = np.matmul(lifted.reshape(n_ex, 1, width), tokens).transpose(0, 2, 1)
        _softmax_columns(scores, out=read[:, head, :, None])
    return layers, read
