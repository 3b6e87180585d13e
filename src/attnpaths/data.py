"""Task generator: the hidden-chain classification task and its attention heads.

Hidden-chain task.  Each example is a binary Markov chain q_1..q_T with
transition matrix [[1-p, p], [p, 1-p]]; class +1 uses p = 0.3 (sticky), class
-1 uses p = 0.7 (oscillating).  Token t carries the state vector v_{q_t} plus
anisotropic Gaussian noise, and a one-hot positional code of size T+1 is
concatenated, so tokens have width N0 + T + 1.  Position 0 holds a bos token
with zero features.  Classes are balanced exactly (P/2 each, P even) and
shuffled under the seed.

Generation is one pass over one (P, width, T+1) token array.  Each split is
written unshuffled into its own rows, class by class, and then shuffled in
place.  A class's Gaussian draws fill the front of its rows; the noise is
combined and stored NOISE_BLOCK examples at a time, back to front, so the
scratch memory is two blocks and peak memory the token payload plus those
blocks.  The random draws come in the order of the whole-array recipe (per
split: the +1 chains, their noise, the -1 chains, their noise, the shuffle;
train before test), and each token is the same IEEE operations on the same
draws, so a (config, seed) pair gives the same bits as that recipe.

The handcrafted attention heads follow the block parameterization
W = beta [[W_ff, W_fp], [W_pf, W_pp]] over the (feature, positional)
coordinates, with one hardness beta (HmcTaskConfig.beta, 10 by default) for
every head.

Good heads: the layer-1 head attends a query's successor token when the state
matches and the bos token otherwise.  With d = v+ - v- and v.d = N0 by
construction, W_ff = d d^T / N0^2 puts the state-match logit at exactly +-1,
the successor bonus at +1 and the bos row at 3/2, so the noiseless logit
ordering is match+successor (2) > bos (3/2) > match (1) > 0 > mismatch (-1).
The head of every later layer attends uniformly (W_pp all ones).

Random heads: blocks with iid Gaussian entries scaled per subspace so every
logit contribution is O(1): W_ff entries 1/N0, W_pp entries 1, W_fp and W_pf
entries 1/sqrt(N0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HmcTaskConfig:
    chain_length: int = 30
    feature_width: int = 200
    p_plus: float = 0.3
    p_minus: float = 0.7
    sigma_par: float = 1.0
    sigma_perp: float = 1.0
    n_train: int = 100
    n_test: int = 1000
    beta: float = 10.0

    def __post_init__(self):
        if self.chain_length < 1 or self.feature_width < 2:
            raise ValueError("need chain_length >= 1 and feature_width >= 2")
        if self.feature_width % 2 != 0:
            raise ValueError(f"feature_width must be even, got {self.feature_width}")
        for name in ("p_plus", "p_minus"):
            p = getattr(self, name)
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {p}")
        if self.sigma_par < 0 or self.sigma_perp < 0:
            raise ValueError("noise scales must be nonnegative")
        if self.n_train < 2 or self.n_test < 0:
            raise ValueError("need n_train >= 2 and n_test >= 0")
        if self.n_train % 2 or self.n_test % 2:
            raise ValueError("train and test counts must be even for exact class balance")

    @property
    def token_width(self) -> int:
        return self.feature_width + self.chain_length + 1

    @property
    def n_tokens(self) -> int:
        return self.chain_length + 1


class TokenRows:
    """Float64 rows (P, ...) left in a file from a byte offset on: a dataset's
    tokens (P, width, T) or a features file's (P, H^L, width) features.

    Slicing a contiguous row range gives the rows' view, reading nothing;
    np.asarray reads the view's rows, and assigning to a slice writes them.
    Consumers read and write row blocks, so a payload need not be in memory
    all at once.
    """

    def __init__(self, path, offset: int, shape: tuple):
        self.path, self.offset, self.shape = str(path), offset, tuple(shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice) -> "TokenRows":
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise ValueError(f"token rows are read by contiguous slices, got step {step}")
        row_bytes = math.prod(self.shape[1:]) * 8
        return TokenRows(self.path, self.offset + start * row_bytes,
                         (max(stop - start, 0), *self.shape[1:]))

    def __array__(self, dtype=None, copy=None):
        out = np.empty(self.shape)
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            got = fh.readinto(out)
        if got != out.nbytes:
            raise OSError(f"{self.path}: token rows end at byte {self.offset + got}, "
                          f"wanted {out.nbytes} bytes from byte {self.offset}")
        return out if dtype is None else out.astype(dtype, copy=False)

    def __setitem__(self, rows: slice, values) -> None:
        view = self[rows]
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != view.shape:
            raise ValueError(f"rows of shape {values.shape} written to a view of {view.shape}")
        with open(self.path, "r+b") as fh:
            fh.seek(view.offset)
            fh.write(values)


@dataclass
class SequenceDataset:
    """Tokens (P, width, T_tot), labels in {-1, +1}; first n_train are training.

    tokens is an array, or TokenRows that stay in their file."""

    tokens: np.ndarray | TokenRows
    labels: np.ndarray
    n_train: int

    def __post_init__(self):
        if not isinstance(self.tokens, TokenRows):
            self.tokens = np.asarray(self.tokens, dtype=float)
        labels = np.asarray(self.labels)
        shape = np.shape(self.tokens)
        if len(shape) != 3:
            raise ValueError(f"tokens must be (P, width, T), got {shape}")
        if labels.shape != shape[:1]:
            raise ValueError("labels length must match the example count")
        # the given values, before the int8 cast would truncate them; a Python
        # scan: a first int8 ufunc call here pages in about 0.2 MB more of
        # numpy's code, which every command's peak RSS would show
        bad = next((i for i, y in enumerate(labels.tolist()) if y not in (-1, 1)), None)
        if bad is not None:
            raise ValueError(f"labels must be -1 or +1, got {labels[bad]} at example {bad}")
        self.labels = labels.astype(np.int8, copy=False)
        if not 0 <= self.n_train <= shape[0]:
            raise ValueError(f"n_train={self.n_train} out of range")

    @property
    def n_examples(self) -> int:
        return self.tokens.shape[0]

    @property
    def token_width(self) -> int:
        return self.tokens.shape[1]

    @property
    def n_tokens(self) -> int:
        return self.tokens.shape[2]

    @property
    def train_labels(self) -> np.ndarray:
        return self.labels[: self.n_train]

    @property
    def test_labels(self) -> np.ndarray:
        return self.labels[self.n_train :]

    @property
    def test_indices(self) -> np.ndarray:
        return np.arange(self.n_train, self.n_examples)


def state_vectors(feature_width: int) -> tuple[np.ndarray, np.ndarray]:
    """v+ (sqrt 2 on the first half) and v- (sqrt 2 on the second half)."""
    if feature_width % 2 != 0:
        raise ValueError(f"feature_width must be even, got {feature_width}")
    half = feature_width // 2
    v_plus = np.zeros(feature_width)
    v_plus[:half] = np.sqrt(2.0)
    v_minus = np.zeros(feature_width)
    v_minus[half:] = np.sqrt(2.0)
    return v_plus, v_minus


def sample_hidden_chain(p_flip: float, length: int, rng: np.random.Generator) -> np.ndarray:
    """One chain of states in {0, 1}; uniform initial state, flip probability p_flip."""
    start = rng.integers(0, 2)
    flips = rng.random(length - 1) < p_flip
    states = np.empty(length, dtype=np.int64)
    states[0] = start
    states[1:] = (start + np.cumsum(flips)) % 2
    return states


NOISE_BLOCK = 16  # examples per block of the noise pass in gen_hmc_dataset


def _fill_class(rows: np.ndarray, p_flip: float, config: HmcTaskConfig,
                rng: np.random.Generator) -> None:
    """Write one class's examples into rows (n, width, T+1), a C-contiguous array."""
    n, t, n0 = len(rows), config.chain_length, config.feature_width
    v_plus, v_minus = state_vectors(n0)
    vs = np.stack([v_plus, v_minus])
    u1 = v_plus / np.linalg.norm(v_plus)
    u2 = v_minus / np.linalg.norm(v_minus)
    states = np.array([sample_hidden_chain(p_flip, t, rng) for _ in range(n)],
                      dtype=np.int64).reshape(n, t)
    # The draws g (n, T, N0) fill the front of the rows' own memory, and each
    # projection is one BLAS call over all n T tokens: a BLAS dot product's
    # bits can depend on the row count of the call it is part of.
    g = rows.reshape(-1)[: n * t * n0].reshape(n, t, n0)
    rng.standard_normal(out=g)
    c1 = np.tensordot(g, u1, axes=(-1, 0))[..., None]
    c2 = np.tensordot(g, u2, axes=(-1, 0))[..., None]
    par = np.empty((min(NOISE_BLOCK, n), t, n0))
    tmp = np.empty_like(par)
    # Example i's draws end before its row does, so a block written back to
    # front overwrites only draws already read.
    for a in reversed(range(0, n, NOISE_BLOCK)):
        b = min(a + NOISE_BLOCK, n)
        p, q = par[: b - a], tmp[: b - a]
        np.multiply(c1[a:b], u1, out=p)
        np.multiply(c2[a:b], u2, out=q)
        p += q                                # par = (g.u1) u1 + (g.u2) u2
        np.subtract(g[a:b], p, out=q)
        q *= config.sigma_perp
        p *= config.sigma_par
        p += q                                # sigma_par par + sigma_perp (g - par)
        p += np.take(vs, states[a:b], axis=0, out=q, mode="clip")  # v_q + noise
        block = rows[a:b]
        block[:, :n0, 0] = 0.0                # bos features
        block[:, :n0, 1:] = p.transpose(0, 2, 1)
        block[:, n0:] = np.eye(t + 1)         # one-hot positional code


def _permute_rows(a: np.ndarray, perm: np.ndarray) -> None:
    """a[:] = a[perm] in place, walking each cycle of perm with one row held aside."""
    perm = perm.tolist()
    done = [False] * len(perm)
    held = np.empty(a.shape[1:])
    for start in range(len(perm)):
        if done[start]:
            continue
        held[...] = a[start]
        i = start
        while perm[i] != start:
            a[i] = a[perm[i]]
            done[i], i = True, perm[i]
        a[i] = held
        done[i] = True


def gen_hmc_dataset(config: HmcTaskConfig, seed: int) -> SequenceDataset:
    """Balanced train + test splits; bit-identical for identical (config, seed).

    Draw order: train +1 chains, then their noise; train -1 chains, then their
    noise; the train shuffle; then the same for test.  Each split is written
    unshuffled into its rows of the output and shuffled there, so memory peaks
    at the token payload plus two blocks of NOISE_BLOCK examples.
    """
    rng = np.random.default_rng(seed)
    n_ex = config.n_train + config.n_test
    tokens = np.empty((n_ex, config.token_width, config.n_tokens))
    labels = np.empty(n_ex, dtype=np.int8)
    for start, n in ((0, config.n_train), (config.n_train, config.n_test)):
        split = tokens[start : start + n]
        _fill_class(split[: n // 2], config.p_plus, config, rng)
        _fill_class(split[n // 2 :], config.p_minus, config, rng)
        perm = rng.permutation(n)
        _permute_rows(split, perm)
        labels[start : start + n] = np.where(perm < n // 2, 1, -1)
    return SequenceDataset(tokens=tokens, labels=labels, n_train=config.n_train)


def build_good_heads(feature_width: int, chain_length: int, beta: float) -> list[np.ndarray]:
    """The two handcrafted logit matrices: state-matched successor/bos, then uniform."""
    n0, t = feature_width, chain_length
    v_plus, v_minus = state_vectors(n0)
    d = v_plus - v_minus
    first, later = np.zeros((2, n0 + t + 1, n0 + t + 1))
    first[:n0, :n0] = np.outer(d, d) / n0**2
    first[n0, n0:] = 1.5
    first[n0 + np.arange(1, t + 1), n0 + np.arange(t)] = 1.0
    later[n0:, n0:] = 1.0
    return [beta * first, beta * later]


def build_random_head(feature_width: int, chain_length: int, rng: np.random.Generator,
                      beta: float) -> np.ndarray:
    """One random logit matrix; block scales keep every logit contribution O(1)."""
    n0, t = feature_width, chain_length
    w_ff = rng.standard_normal((n0, n0)) / n0
    w_fp = rng.standard_normal((n0, t + 1)) / np.sqrt(n0)
    w_pf = rng.standard_normal((t + 1, n0)) / np.sqrt(n0)
    w_pp = rng.standard_normal((t + 1, t + 1))
    return beta * np.block([[w_ff, w_fp], [w_pf, w_pp]])


def build_hmc_attention(config: HmcTaskConfig, n_heads: int, depth: int,
                        seed: int) -> np.ndarray:
    """Logits (depth, n_heads, width, width), seeded.  Head 0 of layer 1 is the
    successor/bos good head and head 0 of every later layer the uniform one;
    every other head is random, drawn layer by layer, so the first L layers of
    a deeper build are the depth-L build."""
    if n_heads < 1 or depth < 1:
        raise ValueError(f"need n_heads >= 1 and depth >= 1, got {n_heads}, {depth}")
    first, later = build_good_heads(config.feature_width, config.chain_length, config.beta)
    rng = np.random.default_rng(seed)
    return np.array([[later if layer else first] + [
        build_random_head(config.feature_width, config.chain_length, rng, config.beta)
        for _ in range(1, n_heads)] for layer in range(depth)])
