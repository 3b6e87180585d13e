"""Path features and path-pair kernels.

The feature of example mu on path pi is phi = xi_pi / sqrt(width).  Stacking
features as Phi with shape (n_paths, width, n_examples), the kernel read by
the Bayesian predictor under a path-pair order parameter U is

    K = (1/H^L) sum_{pi, pi'} U[pi, pi'] Phi[pi].T @ Phi[pi']

assembled by einsum from the stacked features.  total_kernel and
kernel_blocks never materialize the H^(2L) individual pair kernels; their
memory stays O(H^L * width * P).  path_pair_gram does materialize them, for
the training block only: H^(2L) * P^2 doubles, which the solver builds once
per solve and only below its memory bound.

compute_features builds one attention stack per example, its last layer only
at the read column t* (see attnpaths.model).  path_features then takes
T^2 (H + ... + H^L) + width T H^L multiply-adds per example, under 1 % of one
full attention layer at the default sizes (H = L = 2, width 231, T = 31).
Examples go through in blocks of FEATURE_BLOCK = 32 on W worker threads, by
default one per usable CPU, the calling thread being one; every BLAS call
runs on one thread (attnpaths sets the thread variables on import), so the
workers, not BLAS, use the cores, and the score products, softmaxes and
path_features, which BLAS never spreads, run on all of them too.  Each
worker takes whole blocks and allocates its own GEMM operand and output
once, reusing them for every block it takes: 1.8 MB each at the default
sizes, so W workers hold W x 32 examples in flight, on two cores what one
64-example block held.  A block's tokens are read TOKEN_READ rows at a time
straight into its worker's operand, whose (block, width, T) view is the
block's tokens for the stack and for path_features, so no block of tokens
is held besides it.  The last bits of a feature depend on the size of its
block (up to 1e-14 relative between blocks of 32 and 256), never on the
worker that computed it, so results are reproducible at a fixed
FEATURE_BLOCK on any core count.  kernel_blocks walks the eval examples in
blocks of the same size: one GEMM per block for the cross kernel, one
batched product and vecdot for its diagonal.

A feature matrix may also stay in its file (fileio.read_features), example
by example as (P, H^L, width) rows; its rows property is that view of either
store.  compute_features fills rows block by block, into the file as it
goes, and kernel_blocks then reads the training block (or takes the one its
caller holds) and one eval block at a time, so no stage holds every
example's features.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import TokenRows
from .model import Readout, attention_stack_batch, check_logits


@dataclass
class PathFeatureMatrix:
    """Stacked path features for a set of examples.

    values is an (H^L, width, n_examples) array, one row per path in canonical
    flat order, or the example-major (n_examples, H^L, width) TokenRows of a
    features file; rows is the (n_examples, H^L, width) view of either, which
    examples and train read.  The first n_train examples are the training
    block.  Every kernel divides by the path count H^L.
    """

    values: np.ndarray | TokenRows
    n_train: int
    n_heads: int
    depth: int

    def __post_init__(self):
        if not isinstance(self.values, TokenRows):
            self.values = np.asarray(self.values, dtype=float)
        if self.n_heads < 1 or self.depth < 1:
            raise ValueError(f"need n_heads >= 1 and depth >= 1, got {self.n_heads}, {self.depth}")
        if len(self.values.shape) != 3:
            raise ValueError(f"feature values must be 3-d, got {self.values.shape}")
        if self.n_paths != self.n_heads**self.depth:
            raise ValueError(f"feature values have {self.n_paths} path rows, "
                             f"H^L = {self.n_heads**self.depth}")
        if not 0 <= self.n_train <= self.n_examples:
            raise ValueError(f"n_train={self.n_train} out of range for {self.n_examples} examples")

    @property
    def rows(self) -> np.ndarray | TokenRows:
        """(P, H^L, width) rows: a features file's TokenRows or a view of in-memory values."""
        return self.values if isinstance(self.values, TokenRows) else self.values.transpose(2, 0, 1)

    @property
    def n_paths(self) -> int:
        return self.rows.shape[1]

    @property
    def width(self) -> int:
        return self.rows.shape[2]

    @property
    def n_examples(self) -> int:
        return self.rows.shape[0]

    def train(self) -> "PathFeatureMatrix":
        """The training block as its own feature matrix, a contiguous copy in memory."""
        rows = np.asarray(self.rows[: self.n_train])
        return replace(self, values=np.ascontiguousarray(rows.transpose(1, 2, 0)))

    def examples(self, idx: np.ndarray) -> np.ndarray:
        """Feature rows (n, H^L, width) of the examples idx, a C-order array of
        its own.  A features file's rows are read one run of consecutive indices
        at a time."""
        idx = np.arange(self.n_examples)[idx]  # negative indices wrap, others past the end raise
        if not isinstance(self.values, TokenRows):
            return np.ascontiguousarray(self.rows[idx])
        if len(idx) == 0:
            return np.empty((0, self.n_paths, self.width))
        runs = np.split(idx, np.flatnonzero(np.diff(idx) != 1) + 1)
        parts = [np.asarray(self.rows[run[0] : run[-1] + 1]) for run in runs]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def path_features(tokens: np.ndarray, layers: np.ndarray, read: np.ndarray) -> np.ndarray:
    """Features (H^L, width, P) of tokens (P, width, T) under an
    attention_stack_batch stack (layers, read).

    Chains are contracted right to left: the read columns go through the
    earlier layers as matrix-vector products, so suffix products land in
    canonical flat order; one tokens contraction ends them all.
    """
    n_ex, width, n_tokens = tokens.shape
    # (P, T, suffixes); each earlier layer multiplies the suffix count by H
    vecs = read.transpose(0, 2, 1)
    for layer in reversed(range(layers.shape[1])):
        vecs = np.matmul(layers[:, layer], vecs[:, None])   # (P, H, T, suffixes)
        vecs = vecs.transpose(0, 2, 1, 3).reshape(n_ex, n_tokens, -1)
    return np.matmul(tokens, vecs).transpose(2, 1, 0) / np.sqrt(width)


FEATURE_BLOCK = 32  # examples per attention-stack batch and per eval block
TOKEN_READ = 8  # token rows read at a time into a block's GEMM operand


def compute_features(tokens: np.ndarray, logits: np.ndarray, readout: Readout,
                     n_train: int, out: TokenRows | None = None,
                     workers: int | None = None) -> PathFeatureMatrix:
    """Path features of tokens (P, width, T) under logits (L, H, width, width).

    Examples are processed in blocks of FEATURE_BLOCK rows on up to workers
    threads (default: every CPU this process may run on), the calling thread
    being one of them.  Each worker takes whole blocks one at a time: it reads
    a block's tokens TOKEN_READ rows at a time (tokens may be TokenRows left in
    their file) into its stacks' GEMM operand, laid out as (width, block, T),
    builds the block's attention stack from that operand, its last layer at
    the read column t* only, and hands the block to path_features, which
    bounds the intermediate storage by the block's (L-1, H, T, T) attention
    matrices.  Each worker allocates its GEMM operand and output, 2 width T
    FEATURE_BLOCK doubles, once and reuses them for every block it takes.  A
    block's features do not depend on the rows around it or on the worker
    that computed it, so they do not depend on workers, but their last bits
    depend on the block's size: callers that split the rows split at
    multiples of FEATURE_BLOCK.  Features are independent of all value
    weights and of N by construction.  Each block is written to the result's
    rows: given out, the (P, H^L, width) rows of a features file, as soon as
    it is computed, and the result reads its features from there; otherwise
    they are kept in memory.  An error in any worker is raised here once
    every worker has stopped.
    """
    shape = np.shape(tokens)
    if len(shape) != 3:
        raise ValueError(f"tokens must be (P, width, T), got {shape}")
    n_ex, width, n_tokens = shape
    check_logits(logits, width)
    depth, n_heads = np.shape(logits)[:2]
    if out is not None and out.shape != (n_ex, n_heads**depth, width):
        raise ValueError(f"feature rows {out.shape} do not fit {n_ex} examples of "
                         f"{n_heads**depth} paths and width {width}")
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)

    values = np.empty((n_heads**depth, width, n_ex)) if out is None else out
    result = PathFeatureMatrix(values=values, n_train=n_train, n_heads=n_heads, depth=depth)
    starts = iter(range(0, n_ex, FEATURE_BLOCK))
    taking = threading.Lock()

    def take():
        """The first row of a block no worker has taken, or None."""
        with taking:
            return next(starts, None)

    def work_through_blocks():
        work = np.empty((2, width, min(FEATURE_BLOCK, n_ex) * n_tokens))
        try:
            for start in iter(take, None):
                stop = min(start + FEATURE_BLOCK, n_ex)
                # the block's tokens, read TOKEN_READ rows at a time into the
                # stack's GEMM operand; the (block, width, T) view of it is the block
                operand = work[0, :, : (stop - start) * n_tokens].reshape(width, -1, n_tokens)
                block = operand.transpose(1, 0, 2)
                for a in range(start, stop, TOKEN_READ):
                    block[a - start : a - start + TOKEN_READ] = tokens[a : min(a + TOKEN_READ, stop)]
                layers, read = attention_stack_batch(block, logits, readout, work[1])
                feats = path_features(block, layers, read)
                result.rows[start:stop] = feats.transpose(2, 0, 1)
                del feats, layers, read
        except BaseException:
            with taking:
                for _ in starts:  # the other workers take no new block
                    pass
            raise

    n_workers = min(workers, -(-n_ex // FEATURE_BLOCK))
    with ThreadPoolExecutor(max(n_workers - 1, 1)) as pool:  # starts a thread per submit only
        others = [pool.submit(work_through_blocks) for _ in range(n_workers - 1)]
        work_through_blocks()
        for other in others:
            other.result()
    return result


def total_kernel(u1: np.ndarray, features: PathFeatureMatrix) -> np.ndarray:
    """K = (1/H^L) sum_{ab} U[a, b] Phi[a].T @ Phi[b] over all examples."""
    u1 = np.asarray(u1, dtype=float)
    if u1.shape != (features.n_paths, features.n_paths):
        raise ValueError(f"order parameter shape {u1.shape} does not match {features.n_paths} paths")
    if isinstance(features.values, TokenRows):
        raise ValueError("total_kernel reads features in memory; take features.train()")
    lifted = np.tensordot(u1, features.values, axes=(1, 0))
    k = np.einsum("aim,ain->mn", features.values, lifted, optimize=True) / features.n_paths
    return 0.5 * (k + k.T)


def path_pair_gram(features: PathFeatureMatrix) -> np.ndarray:
    """C[a, b] = Phi[a].T @ Phi[b] / H^L over the training block, shape (A, A, P, P).

    One GEMM over the stacked training features; the total training kernel
    under U is then sum_{ab} U[a, b] C[a, b].  Costs A^2 P^2 doubles for A = H^L paths.
    """
    if isinstance(features.values, TokenRows):
        raise ValueError("path_pair_gram reads features in memory; take features.train()")
    n_paths, width, p = features.n_paths, features.width, features.n_train
    phi = features.values[:, :, :p].transpose(1, 0, 2).reshape(width, n_paths * p)
    gram = (phi.T @ phi) / n_paths
    return np.ascontiguousarray(gram.reshape(n_paths, p, n_paths, p).transpose(0, 2, 1, 3))


def kernel_blocks(u1: np.ndarray, features: PathFeatureMatrix, eval_idx: np.ndarray,
                  train: PathFeatureMatrix | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(train x train, eval x train, eval diagonal) blocks of the total kernel.

    Only these blocks are computed, never the full kernel.  U is read through
    its symmetric part, as total_kernel's symmetrized result reads it, and it
    lifts the training features once: the training block is one GEMM of the
    flat training features with that lift, symmetrized, and each eval block's
    cross kernel one more.  The training block is features.train(), read here
    unless the caller already holds it and passes it as train; eval_idx holds
    integer indices (a boolean mask raises ValueError), and the eval examples
    are walked in FEATURE_BLOCK chunks, so besides the returned blocks only one
    chunk's features are held (or read from the features file) at a time.
    """
    if features.n_train == 0:
        raise ValueError("feature matrix has an empty training block")
    u = np.asarray(u1, dtype=float)
    if u.shape != (features.n_paths, features.n_paths):
        raise ValueError(f"order parameter shape {u.shape} does not match {features.n_paths} paths")
    eval_idx = np.asarray(eval_idx)
    if eval_idx.size and not np.issubdtype(eval_idx.dtype, np.integer):
        raise ValueError(f"eval_idx must hold integer indices, got dtype {eval_idx.dtype}")
    if train is None:
        train = features.train()
    u = 0.5 * (u + u.T)
    lifted = np.tensordot(u, train.values, axes=(1, 0)).reshape(-1, features.n_train)
    k_train = train.values.reshape(lifted.shape).T @ lifted / features.n_paths
    k_train = 0.5 * (k_train + k_train.T)
    k_cross = np.empty((len(eval_idx), features.n_train))
    k_diag = np.empty(len(eval_idx))
    for start in range(0, len(eval_idx), FEATURE_BLOCK):
        block = slice(start, start + FEATURE_BLOCK)
        evals = features.examples(eval_idx[block])
        flat = evals.reshape(len(evals), -1)  # (n, H^L width)
        k_cross[block] = flat @ lifted
        k_diag[block] = np.vecdot(flat, np.matmul(u, evals).reshape(flat.shape))
    k_cross /= features.n_paths
    k_diag /= features.n_paths
    return k_train, k_cross, k_diag


def kernel_task_alignment(k: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and |cosine| overlaps of eigenvectors with the labels.

    The overlaps against the full eigenbasis satisfy sum of squares = 1.
    """
    k = np.asarray(k, dtype=float)
    y = np.asarray(y, dtype=float)
    if k.shape != (len(y), len(y)):
        raise ValueError(f"kernel shape {k.shape} does not match {len(y)} labels")
    evals, evecs = np.linalg.eigh(k)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    y_norm = np.linalg.norm(y)
    if y_norm == 0:
        raise ValueError("label vector is zero")
    overlaps = np.abs(evecs.T @ y) / y_norm
    return evals, overlaps
