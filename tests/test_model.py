import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnpaths.model import (
    Readout,
    _softmax_columns,
    attention_stack_batch,
    check_logits,
    weight_count,
    weight_parts,
)
from attnpaths.data import HmcTaskConfig, build_hmc_attention
from attnpaths.paths import path_heads
from oracles import attention_stack_einsum, forward_layerwise, shipped_output


def _random_logits(rng, depth, n_heads, width):
    return 1.3 * rng.standard_normal((depth, n_heads, width, width))


def test_softmax_columns_oracle():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((5, 4)) * 10
    got = np.empty_like(logits)
    _softmax_columns(logits.copy(), out=got)
    want = np.empty_like(logits)
    for t in range(4):
        col = logits[:, t]
        e = np.exp(col - col.max())
        want[:, t] = e / e.sum()
    assert np.allclose(got, want, atol=1e-14)
    assert np.allclose(got.sum(axis=0), 1.0, atol=1e-14)


def test_softmax_extreme_logits_stable():
    logits = np.array([[1000.0, -1000.0], [0.0, 0.0]])
    got = logits.copy()
    _softmax_columns(got, out=got)  # in place: out may be scores
    assert np.all(np.isfinite(got))
    assert np.allclose(got.sum(axis=0), 1.0)
    assert got[0, 0] > 0.999
    assert got[1, 1] > 0.999


def test_two_token_logit_gap():
    # zero W gives uniform columns; a logit gap of ln 3 gives (0.75, 0.25)
    width = 2
    x0 = np.eye(2)
    w = np.diag([np.log(3.0), 0.0])
    for t in range(2):
        _, uniform = attention_stack_batch(x0[None], np.zeros((1, 1, width, width)),
                                           Readout.token(t))
        assert np.allclose(uniform, 0.5)
    column = [attention_stack_batch(x0[None], w[None, None], Readout.token(t))[1][0, 0]
              for t in range(2)]
    # column 0: logits (ln 3, 0) over the attended index
    assert np.allclose(column[0], [0.75, 0.25], atol=1e-12)
    assert np.allclose(column[1], [0.5, 0.5], atol=1e-12)


def test_attention_matrix_validation():
    logits = np.eye(3)[None, None]
    first = Readout.token(0)
    with pytest.raises(ValueError, match="token width 4 does not match the width 3"):
        attention_stack_batch(np.zeros((1, 4, 2)), logits, first)
    with pytest.raises(ValueError, match="tokens must be"):
        attention_stack_batch(np.zeros((3, 2)), logits, first)
    for bad in (np.eye(3), np.zeros((2, 3, 3)), np.zeros((1, 1, 1, 3, 3)),
                np.zeros((1, 1, 3, 4)), np.zeros((0, 1, 3, 3)), np.zeros((1, 0, 3, 3))):
        with pytest.raises(ValueError, match="must have shape"):
            attention_stack_batch(np.zeros((1, 3, 2)), bad, first)
    for value in (np.inf, -np.inf, np.nan):
        heads = np.zeros((2, 2, 3, 3))
        heads[1, 0, 2, 1] = value
        with pytest.raises(ValueError, match="must be finite"):
            attention_stack_batch(np.zeros((1, 3, 2)), heads, first)
    # without a width the check is of shape and values only
    check_logits(np.zeros((2, 3, 5, 5)))
    with pytest.raises(ValueError, match="token width 4 does not match the width 5"):
        check_logits(np.zeros((2, 3, 5, 5)), 4)


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 3), n_heads=st.integers(1, 3), width=st.integers(1, 5),
       n_tokens=st.integers(1, 5), n_ex=st.integers(1, 4), t_star=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_attention_stack_batch_matches_single(depth, n_heads, width, n_tokens, n_ex, t_star,
                                              seed):
    # each example's matrices follow the definition: logit[s, t] = x_s @ M @ x_t,
    # softmax over the attended index s; the last layer is built at t_star only
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((depth, n_heads, width, width))
    tokens = rng.standard_normal((n_ex, width, n_tokens))
    t_star %= n_tokens
    layers, read = attention_stack_batch(tokens, logits, Readout.token(t_star))
    assert layers.shape == (n_ex, depth - 1, n_heads, n_tokens, n_tokens)
    assert read.shape == (n_ex, n_heads, n_tokens)
    for p in range(n_ex):
        x0 = tokens[p]
        for layer in range(depth):
            for head in range(n_heads):
                for t in range(n_tokens) if layer < depth - 1 else [t_star]:
                    scores = [x0[:, s] @ logits[layer, head] @ x0[:, t] for s in range(n_tokens)]
                    e = np.exp(np.array(scores) - max(scores))
                    got = layers[p, layer, head, :, t] if layer < depth - 1 else read[p, head]
                    assert np.allclose(got, e / e.sum(), rtol=1e-12, atol=1e-12)
    # every column of every attention matrix is a distribution
    assert np.allclose(layers.sum(axis=-2), 1.0, atol=1e-12)
    assert np.allclose(read.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(layers >= 0) and np.all(read >= 0)


@pytest.mark.parametrize("t_star", [1, 30], ids=["token", "last-token"])
def test_two_gemm_stack_equals_the_einsum_bit_for_bit(t_star):
    # the benchmark shapes: width 231, T = 31, the sampler's 12 and 50 training
    # rows, a 32-row feature block, 64 rows, one row and 100 rows; a reused work array
    # larger than needed gives the same bits as a fresh one, and the in-place
    # softmax the same bits as the oracle's out-of-place one
    cfg = HmcTaskConfig()
    logits = build_hmc_attention(cfg, n_heads=2, depth=2, seed=0)
    readout = Readout.token(t_star)
    rng = np.random.default_rng(0)
    work = np.full((cfg.token_width, 100 * cfg.n_tokens), np.nan)
    for n_ex in (1, 12, 32, 50, 64, 100):
        tokens = rng.standard_normal((n_ex, cfg.token_width, cfg.n_tokens))
        want = attention_stack_einsum(tokens, logits, readout)
        for layers, read in (attention_stack_batch(tokens, logits, readout),
                             attention_stack_batch(tokens, logits, readout, work)):
            assert np.array_equal(layers, want[:, :-1])
            assert np.array_equal(read, want[:, -1, :, :, t_star])


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 3), n_heads=st.integers(1, 3), width=st.integers(1, 6),
       n_tokens=st.integers(1, 5), n_ex=st.integers(0, 5), spare=st.integers(0, 7),
       t_star=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_two_gemm_stack_matches_the_einsum_property(depth, n_heads, width, n_tokens, n_ex,
                                                     spare, t_star, seed):
    rng = np.random.default_rng(seed)
    logits = _random_logits(rng, depth, n_heads, width)
    tokens = rng.standard_normal((n_ex, width, n_tokens))
    readout = Readout.token(t_star % n_tokens)
    want = attention_stack_einsum(tokens, logits, readout)
    work = rng.standard_normal((width, n_ex * n_tokens + spare))
    for layers, read in (attention_stack_batch(tokens, logits, readout),
                         attention_stack_batch(tokens, logits, readout, work)):
        assert np.allclose(layers, want[:, :-1], rtol=1e-12, atol=1e-12)
        assert np.allclose(read, want[:, -1, :, :, readout.t_star], rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="work must be"):
        attention_stack_batch(tokens, logits, readout, work[:-1])
    if n_ex:
        with pytest.raises(ValueError, match="work must be"):
            attention_stack_batch(tokens, logits, readout, work[:, : n_ex * n_tokens - 1])


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 3), n_heads=st.integers(1, 3), width=st.integers(1, 5),
       n_tokens=st.integers(1, 5), n_ex=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stack_under_a_readout_builds_only_the_read_columns(depth, n_heads, width, n_tokens,
                                                             n_ex, seed):
    # the last layer is built at column t_star alone, one (T,) column per head;
    # every earlier layer is the full stack, the same bits under every t_star
    rng = np.random.default_rng(seed)
    logits = 2.0 * rng.standard_normal((depth, n_heads, width, width))
    tokens = rng.standard_normal((n_ex, width, n_tokens))
    full = attention_stack_einsum(tokens, logits)
    first, _ = attention_stack_batch(tokens, logits, Readout.token(0))
    assert np.allclose(first, full[:, :-1], rtol=1e-12, atol=1e-12)
    for t in range(n_tokens):
        layers, read = attention_stack_batch(tokens, logits, Readout.token(t))
        assert layers.shape == (n_ex, depth - 1, n_heads, n_tokens, n_tokens)
        assert read.shape == (n_ex, n_heads, n_tokens)
        assert np.array_equal(layers, first)
        assert np.allclose(read, full[:, -1, ..., t], rtol=1e-12, atol=1e-12)


def test_readout_t_star_is_checked():
    assert Readout.token(2).t_star == 2
    with pytest.raises(ValueError, match="t_star must be nonnegative"):
        Readout.token(-1)
    tokens, logits = np.zeros((1, 3, 2)), np.zeros((2, 1, 3, 3))
    attention_stack_batch(tokens, logits, Readout.token(1))
    with pytest.raises(ValueError, match="t_star=2 out of range for 2 tokens"):
        attention_stack_batch(tokens, logits, Readout.token(2))


def test_path_sum_equals_layerwise():
    # the shipped path decomposition and the layer recursion are the same function
    rng = np.random.default_rng(6)
    for trial in range(20):
        depth = int(rng.integers(1, 4))
        n_heads = int(rng.integers(1, 4))
        width = int(rng.integers(2, 6))
        n_hidden = int(rng.integers(2, 5))
        n_tokens = int(rng.integers(2, 5))
        logits = _random_logits(rng, depth, n_heads, width)
        x0 = rng.standard_normal((width, n_tokens))
        omegas = attention_stack_einsum(x0[None], logits)[0]
        shape = (n_hidden, width, depth, n_heads)
        q = rng.standard_normal(weight_count(*shape))
        readout = Readout.token(int(rng.integers(0, n_tokens)))
        a = shipped_output(x0, q, shape, logits, readout)
        b = forward_layerwise(x0, weight_parts(q, *shape), omegas, readout)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_network_output_explicit_two_layer():
    # hand-rolled double loop over paths at H=2, L=2 against the shipped path sum
    rng = np.random.default_rng(7)
    width, n_hidden, n_tokens = 3, 2, 4
    logits = _random_logits(rng, 2, 2, width)
    x0 = rng.standard_normal((width, n_tokens))
    omegas = attention_stack_einsum(x0[None], logits)[0]
    shape = (n_hidden, width, 2, 2)
    q = rng.standard_normal(weight_count(*shape))
    v0, values, a = weight_parts(q, *shape)
    readout = Readout.token(0)
    total = 0.0
    for h1 in range(2):
        for h2 in range(2):
            veff = a @ values[1, h2] @ values[0, h1] / n_hidden
            xi = (x0 @ omegas[0, h1] @ omegas[1, h2])[:, 0]
            total += veff @ v0 @ xi
    want = total / np.sqrt(4 * n_hidden * width)
    got = shipped_output(x0, q, shape, logits, readout)
    assert abs(got - want) <= 1e-12


def test_weight_parts_layout():
    # v0, then values, then the readout, each row-major; leading axes are kept
    n_hidden, width, depth, n_heads = 3, 5, 2, 2
    dim = weight_count(n_hidden, width, depth, n_heads)
    assert dim == 3 * 5 + 2 * 2 * 3 * 3 + 3
    vec = np.arange(2 * 4 * dim, dtype=float).reshape(2, 4, dim)
    v0, values, readout = weight_parts(vec, n_hidden, width, depth, n_heads)
    assert v0.shape == (2, 4, 3, 5)
    assert values.shape == (2, 4, 2, 2, 3, 3)
    assert readout.shape == (2, 4, 3)
    assert all(np.shares_memory(part, vec) for part in (v0, values, readout))
    for i, j in itertools.product(range(2), range(4)):
        flat = np.concatenate([v0[i, j].ravel(), values[i, j].ravel(), readout[i, j]])
        assert np.array_equal(flat, vec[i, j])
    with pytest.raises(ValueError, match="wrong length"):
        weight_parts(vec[..., :-1], n_hidden, width, depth, n_heads)


def test_path_enumeration_matches_model_paths():
    # the flat order used in model sums is path_heads' column order
    assert path_heads(2, 2).T.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
