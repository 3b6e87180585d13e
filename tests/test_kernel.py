import sys
import threading
import time
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnpaths import fileio, kernel
from attnpaths.data import HmcTaskConfig, TokenRows, build_hmc_attention, gen_hmc_dataset
from attnpaths.kernel import (
    FEATURE_BLOCK,
    PathFeatureMatrix,
    compute_features,
    kernel_blocks,
    kernel_task_alignment,
    path_features,
    path_pair_gram,
    total_kernel,
)
from attnpaths.model import Readout, attention_stack_batch
from attnpaths.paths import path_heads
from oracles import attention_stack_einsum, path_features_onehot, path_input


def _random_logits(rng, depth, n_heads, width):
    return 0.8 * rng.standard_normal((depth, n_heads, width, width))


def _random_features(rng, n_paths=4, width=3, n_ex=6, n_train=4, n_heads=2, depth=2):
    return PathFeatureMatrix(
        values=rng.standard_normal((n_paths, width, n_ex)),
        n_train=n_train, n_heads=n_heads, depth=depth)


def test_compute_features_matches_per_example_chains():
    # row (pi, :, mu) must equal xi_pi(x_mu) / sqrt(width) in canonical order
    rng = np.random.default_rng(0)
    depth, n_heads, width, n_tokens, n_ex = 2, 3, 4, 5, 7
    logits = _random_logits(rng, depth, n_heads, width)
    tokens = rng.standard_normal((n_ex, width, n_tokens))
    readout = Readout.token(2)
    feats = compute_features(tokens, logits, readout, n_train=4)
    assert feats.values.shape == (n_heads**depth, width, n_ex)
    assert feats.n_train == 4
    assert feats.n_paths == n_heads**depth
    paths = path_heads(n_heads, depth).T
    for mu in range(n_ex):
        omegas = attention_stack_einsum(tokens[mu][None], logits)[0]
        for i, path in enumerate(paths):
            xi = path_input(tokens[mu], omegas, path, readout)
            assert np.allclose(feats.values[i, :, mu], xi / np.sqrt(width), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n_heads=st.integers(1, 3), depth=st.integers(1, 3), width=st.integers(1, 6),
       n_tokens=st.integers(1, 5), n_ex=st.integers(1, 6), chunk=st.integers(1, 4),
       t_star=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_compute_features_matches_attentioned_input_property(
        n_heads, depth, width, n_tokens, n_ex, chunk, t_star, seed):
    rng = np.random.default_rng(seed)
    logits = _random_logits(rng, depth, n_heads, width)
    tokens = rng.standard_normal((n_ex, width, n_tokens))
    readout = Readout.token(t_star % n_tokens)
    with mock.patch.object(kernel, "FEATURE_BLOCK", chunk):
        feats = compute_features(tokens, logits, readout, n_train=n_ex)
    assert feats.values.shape == (n_heads**depth, width, n_ex)
    for mu in range(n_ex):
        omegas = attention_stack_einsum(tokens[mu][None], logits)[0]
        for i, path in enumerate(path_heads(n_heads, depth).T):
            xi = path_input(tokens[mu], omegas, path, readout)
            scale = 1e-12 * (1 + np.max(np.abs(xi)))
            assert np.allclose(feats.values[i, :, mu], xi / np.sqrt(width), rtol=0, atol=scale)


def test_compute_features_chunking_invariance():
    # a block's features do not depend on the rows around it: calls on rows
    # split at multiples of FEATURE_BLOCK give the bits of one call (the last
    # bits do depend on the block's size, through the read column's GEMM)
    rng = np.random.default_rng(1)
    logits = _random_logits(rng, 2, 2, 3)
    tokens = rng.standard_normal((9, 3, 4))
    readout = Readout.token(3)
    with mock.patch.object(kernel, "FEATURE_BLOCK", 2):
        whole = compute_features(tokens, logits, readout, n_train=5)
        parts = [compute_features(tokens[lo:hi], logits, readout, n_train=0).values
                 for lo, hi in ((0, 4), (4, 6), (6, 9))]
    assert np.array_equal(whole.values, np.concatenate(parts, axis=-1))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_path_features_equal_the_one_hot_contraction_bit_for_bit(depth):
    # at the default width 231 and T = 31, in the sampler's 12 and 50 training
    # rows, a 32-row feature block and one row: starting from the last layer's
    # read column gives the bits of the contraction from the one-hot vector
    cfg = HmcTaskConfig(n_train=50, n_test=0)
    tokens = gen_hmc_dataset(cfg, seed=0).tokens
    logits = build_hmc_attention(cfg, n_heads=2, depth=depth, seed=0)
    readout = Readout.token(1)
    for n_ex in (1, 12, 32, 50):
        layers, read = attention_stack_batch(tokens[:n_ex], logits, readout)
        want = path_features_onehot(tokens[:n_ex], layers, read, readout)
        assert path_features(tokens[:n_ex], layers, read).tobytes() == want.tobytes()


@pytest.mark.parametrize("readout", [Readout.token(1), Readout.token(6)],
                         ids=["token", "last-token"])
def test_streamed_features_match_in_memory_bit_for_bit(tmp_path, readout):
    # 22 examples in blocks of 5: four full blocks and a short last one
    cfg = HmcTaskConfig(chain_length=6, feature_width=20, n_train=10, n_test=12)
    ds = gen_hmc_dataset(cfg, seed=4)
    logits = build_hmc_attention(cfg, n_heads=2, depth=2, seed=4)
    fileio.write_dataset(tmp_path / "d.apkd", ds)
    rows, _ = fileio.read_dataset(tmp_path / "d.apkd")
    assert isinstance(rows.tokens, TokenRows)
    with mock.patch.object(kernel, "FEATURE_BLOCK", 5):
        streamed = compute_features(rows.tokens, logits, readout, ds.n_train)
        in_memory = compute_features(ds.tokens, logits, readout, ds.n_train)
        assert np.array_equal(streamed.values, in_memory.values)
        # a slice of the rows, as `sample` passes its test rows
        tail = compute_features(rows.tokens[ds.n_train:], logits, readout, 0)
        assert np.array_equal(tail.values, compute_features(ds.tokens[ds.n_train:], logits,
                                                            readout, 0).values)


class _RepeatedRows:
    """n token rows that repeat one base block; each read returns a fresh array,
    as a read of TokenRows does, and the n rows are never all in memory."""

    def __init__(self, base, n):
        self.base, self.shape = base, (n, *base.shape[1:])

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, rows):
        start, stop, _ = rows.indices(len(self))
        return np.resize(self.base, (stop - start, *self.shape[1:]))


def _traced_peak(fn, *args):
    """(result, peak bytes numpy and Python allocated during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compute_features_memory_does_not_grow_with_the_examples():
    # beyond its output, each worker holds one GEMM operand and output, the
    # block's tokens being the operand, and one block's attention stack at a
    # time: at the default widths about 5.5 MB per worker of 32 rows, 11 MB for
    # two.  The growth check runs on one worker, whose peak is the same on
    # every run; two workers' peak also depends on whether their stacks
    # happen to be built at the same time
    cfg = HmcTaskConfig()
    logits = build_hmc_attention(cfg, n_heads=2, depth=2, seed=0)
    base = np.random.default_rng(0).standard_normal((FEATURE_BLOCK, cfg.token_width,
                                                     cfg.n_tokens))
    extra = {1: [], 2: []}
    for n_blocks in (4, 16):
        rows = _RepeatedRows(base, n_blocks * FEATURE_BLOCK)
        for workers in extra:
            feats, peak = _traced_peak(partial(compute_features, workers=workers), rows, logits,
                                       Readout.token(1), 0)
            extra[workers].append(peak - feats.values.nbytes)
    assert extra[1][1] <= extra[1][0] + 64 * 1024
    assert max(extra[2]) < 20e6


def test_file_backed_features_hold_no_token_block(tmp_path):
    # a file-backed dataset's tokens are read a few rows at a time straight
    # into each worker's GEMM operand, and the features go to their file: the
    # call peaks below the GEMM operands and outputs plus one token block of
    # the examples in flight (workers x FEATURE_BLOCK), which block reads on
    # their own would add
    cfg = HmcTaskConfig(n_train=10, n_test=140)
    fileio.write_dataset(tmp_path / "d.apkd", gen_hmc_dataset(cfg, seed=0))
    dataset, _ = fileio.read_dataset(tmp_path / "d.apkd")
    logits = build_hmc_attention(cfg, n_heads=2, depth=2, seed=0)
    rows = fileio.create_features(tmp_path / "f.apkf", 2, 2, cfg.token_width,
                                  dataset.n_examples, cfg.n_train)
    workers = 2
    _, peak = _traced_peak(partial(compute_features, workers=workers), dataset.tokens, logits,
                           Readout.token(1), cfg.n_train, rows)
    in_flight = workers * FEATURE_BLOCK
    assert peak < 3 * in_flight * cfg.token_width * cfg.n_tokens * 8
    assert in_flight <= 64  # the bound is no looser than one 64-example block's


@settings(max_examples=40, deadline=None)
@given(n_heads=st.integers(1, 3), depth=st.integers(1, 3), width=st.integers(1, 6),
       n_tokens=st.integers(1, 5), n_ex=st.integers(1, 40), block=st.integers(1, 17),
       t_star=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_tokens_read_into_the_gemm_operand_property(tmp_path_factory, n_heads, depth, width,
                                                     n_tokens, n_ex, block, t_star, seed):
    # features from tokens in their file equal those from tokens in memory, bit
    # for bit, in blocks of 1-17 examples (so a short last block occurs), into
    # memory or into a features file, on one, two or three workers
    rng = np.random.default_rng(seed)
    logits = _random_logits(rng, depth, n_heads, width)
    tokens = rng.standard_normal((n_ex, width, n_tokens))
    readout = Readout.token(t_star % n_tokens)
    d = tmp_path_factory.mktemp("tokens")
    tokens.tofile(d / "t.bin")
    in_file = TokenRows(d / "t.bin", 0, tokens.shape)
    with mock.patch.object(kernel, "FEATURE_BLOCK", block):
        want = compute_features(tokens, logits, readout, 0, workers=1).values
        for workers in (1, 2, 3):
            got = compute_features(tokens, logits, readout, 0, workers=workers).values
            assert got.tobytes() == want.tobytes()
            got = compute_features(in_file, logits, readout, 0, workers=workers).values
            assert got.tobytes() == want.tobytes()
            rows = fileio.create_features(d / f"f{workers}.apkf", n_heads, depth, width, n_ex, 0)
            compute_features(in_file, logits, readout, 0, out=rows, workers=workers)
            assert np.asarray(rows).tobytes() == want.transpose(2, 0, 1).tobytes()
    # given a product buffer, tokens elsewhere give the same bits, and so do
    # tokens in the buffer itself, which the first product would overwrite
    want = [part.tobytes() for part in attention_stack_batch(tokens, logits, readout)]
    work = rng.standard_normal((width, n_ex * n_tokens))
    got = attention_stack_batch(tokens, logits, readout, work)
    assert [part.tobytes() for part in got] == want
    work[:] = tokens.reshape(width, -1)
    in_work = work.reshape(tokens.shape)  # the tokens, row-major in the product buffer
    got = attention_stack_batch(in_work, logits, readout, work)
    assert [part.tobytes() for part in got] == want


def test_workers_take_every_block_once_under_fast_thread_switching(tmp_path):
    # more workers than cores, one-example blocks and a thread switch every
    # microsecond: each block is still built once, by one worker, and every
    # row is written, in memory and into a features file
    rng = np.random.default_rng(7)
    logits = _random_logits(rng, 2, 2, 3)
    tokens = rng.standard_normal((60, 3, 4))
    built = []
    real = kernel.attention_stack_batch

    def counted(block, *args):
        built.append(len(block))  # list.append is atomic
        return real(block, *args)

    rows = fileio.create_features(tmp_path / "f.apkf", 2, 2, 3, 60, 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(kernel, "FEATURE_BLOCK", 1), \
                mock.patch.object(kernel, "attention_stack_batch", counted):
            want = compute_features(tokens, logits, Readout.token(1), 0, workers=1).values
            got = compute_features(tokens, logits, Readout.token(1), 0, workers=8).values
            compute_features(tokens, logits, Readout.token(1), 0, out=rows, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert built == [1] * 180
    assert got.tobytes() == want.tobytes()
    assert np.asarray(rows).tobytes() == want.transpose(2, 0, 1).tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_error_in_a_worker_surfaces_from_the_call(tmp_path, workers):
    # a token file cut short in its eighth block: the worker that takes a
    # block past the cut fails, and the call raises its error
    rng = np.random.default_rng(5)
    tokens = rng.standard_normal((10 * FEATURE_BLOCK, 3, 4))
    tokens[: 7 * FEATURE_BLOCK + 5].tofile(tmp_path / "t.bin")
    in_file = TokenRows(tmp_path / "t.bin", 0, tokens.shape)
    with pytest.raises(OSError, match="token rows end at byte"):
        compute_features(in_file, _random_logits(rng, 2, 2, 3), Readout.token(1), 0,
                         workers=workers)


class _ReadOffTheCallingThreadFails(_RepeatedRows):
    """Token rows whose reads fail on every thread but the calling one, where
    they are slow, so the pool's workers take blocks and fail."""

    calling_reads = 0

    def __getitem__(self, rows):
        if threading.current_thread() is not threading.main_thread():
            raise OSError("read failed on a pool worker")
        self.calling_reads += 1
        time.sleep(0.005)
        return super().__getitem__(rows)


def test_an_error_in_a_pool_worker_surfaces_from_the_call():
    # and once a worker has failed, the calling thread takes no new block
    rng = np.random.default_rng(6)
    rows = _ReadOffTheCallingThreadFails(rng.standard_normal((1, 3, 4)), 16 * FEATURE_BLOCK)
    with pytest.raises(OSError, match="read failed on a pool worker"):
        compute_features(rows, _random_logits(rng, 2, 2, 3), Readout.token(1), 0, workers=2)
    assert rows.calling_reads <= 2 * FEATURE_BLOCK // kernel.TOKEN_READ


def test_kernel_blocks_memory_does_not_grow_with_the_eval_examples():
    # the eval feature columns are copied one FEATURE_BLOCK at a time, so
    # beyond the returned blocks the memory is the same at 300 and 3000
    rng = np.random.default_rng(9)
    feats = _random_features(rng, width=231, n_ex=3100, n_train=100)
    u1 = rng.standard_normal((4, 4))
    extra = []
    for n_eval in (300, 3000):
        blocks, peak = _traced_peak(kernel_blocks, u1, feats, np.arange(100, 100 + n_eval))
        extra.append(peak - sum(b.nbytes for b in blocks))
    assert abs(extra[1] - extra[0]) <= 64 * 1024


def test_compute_features_validation():
    rng = np.random.default_rng(2)
    logits = _random_logits(rng, 1, 2, 3)
    with pytest.raises(ValueError):
        compute_features(rng.standard_normal((3, 4)), logits, Readout.token(0), 1)


def test_total_kernel_double_sum_oracle():
    # brute-force double sum over path pairs
    rng = np.random.default_rng(3)
    feats = _random_features(rng)
    a = rng.standard_normal((4, 4))
    u1 = a @ a.T
    got = total_kernel(u1, feats)
    want = np.zeros((6, 6))
    for i in range(4):
        for j in range(4):
            want += u1[i, j] * (feats.values[i].T @ feats.values[j])
    want /= 4
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(got, got.T, atol=0)


def test_path_pair_gram_pair_products():
    # training block only, divided by H^L; a pruned path has a zero row and column of U
    rng = np.random.default_rng(30)
    feats = _random_features(rng, n_ex=7, n_train=5)
    gram = path_pair_gram(feats)
    assert gram.shape == (4, 4, 5, 5)
    train = feats.values[:, :, :5]
    for i in range(4):
        for j in range(4):
            assert np.allclose(gram[i, j], train[i].T @ train[j] / 4, atol=1e-12)
    u1 = rng.standard_normal((4, 4))
    u1[1, :] = u1[:, 1] = 0.0
    k = np.einsum("ab,abmn->mn", u1, gram)
    assert np.allclose(0.5 * (k + k.T), total_kernel(u1, feats.train()), atol=1e-12)


def test_path_pair_gram_refuses_file_backed_features(tmp_path):
    # as total_kernel does: a features file's rows are read through train()
    rng = np.random.default_rng(31)
    rows = fileio.create_features(tmp_path / "f.apkf", 2, 2, 3, 7, 5)
    rows[:] = rng.standard_normal(rows.shape)
    features, _ = fileio.read_features(tmp_path / "f.apkf")
    with pytest.raises(ValueError, match="take features.train"):
        path_pair_gram(features)
    assert path_pair_gram(features.train()).shape == (4, 4, 5, 5)


def test_total_kernel_linearity_in_u():
    rng = np.random.default_rng(4)
    feats = _random_features(rng)
    u_a = rng.standard_normal((4, 4))
    u_b = rng.standard_normal((4, 4))
    k_a = total_kernel(u_a, feats)
    k_b = total_kernel(u_b, feats)
    k_sum = total_kernel(2.0 * u_a + 3.0 * u_b, feats)
    assert np.allclose(k_sum, 2.0 * k_a + 3.0 * k_b, atol=1e-10)


def test_total_kernel_psd_for_psd_u():
    rng = np.random.default_rng(5)
    for _ in range(5):
        feats = _random_features(rng)
        a = rng.standard_normal((4, 4))
        k = total_kernel(a @ a.T, feats)
        evals = np.linalg.eigvalsh(k)
        assert evals.min() >= -1e-10 * max(1.0, evals.max())


def test_total_kernel_shape_validation():
    rng = np.random.default_rng(6)
    feats = _random_features(rng)
    with pytest.raises(ValueError):
        total_kernel(np.eye(3), feats)


def test_kernel_blocks_consistent_with_total():
    rng = np.random.default_rng(7)
    feats = _random_features(rng, n_ex=8, n_train=5)
    u1 = np.eye(4)
    k = total_kernel(u1, feats)
    eval_idx = np.array([5, 7])
    k_train, k_cross, k_diag = kernel_blocks(u1, feats, eval_idx)
    assert np.allclose(k_train, k[:5, :5])
    assert np.allclose(k_cross, k[np.ix_([5, 7], range(5))])
    assert np.allclose(k_diag, [k[5, 5], k[7, 7]])
    # the caller's training block, passed on, gives the same bits
    given = kernel_blocks(u1, feats, eval_idx, feats.train())
    assert all(a.tobytes() == b.tobytes() for a, b in zip(given, (k_train, k_cross, k_diag)))
    empty = PathFeatureMatrix(values=feats.values, n_train=0, n_heads=2, depth=2)
    with pytest.raises(ValueError):
        kernel_blocks(u1, empty, eval_idx)


def test_kernel_blocks_match_total_kernel_for_nonsymmetric_u():
    rng = np.random.default_rng(17)
    feats = _random_features(rng, n_ex=9, n_train=4)
    u1 = rng.standard_normal((4, 4))
    k = total_kernel(u1, feats)
    eval_idx = np.array([8, 4, 6])
    k_train, k_cross, k_diag = kernel_blocks(u1, feats, eval_idx)
    scale = np.max(np.abs(k))
    assert np.max(np.abs(k_train - k[:4, :4])) <= 1e-13 * scale
    assert np.array_equal(k_train, k_train.T)
    assert np.max(np.abs(k_cross - k[np.ix_(eval_idx, range(4))])) <= 1e-13 * scale
    assert np.max(np.abs(k_diag - k[eval_idx, eval_idx])) <= 1e-13 * scale
    with pytest.raises(ValueError):
        kernel_blocks(np.eye(3), feats, eval_idx)


def test_kernel_blocks_rejects_a_boolean_eval_mask():
    # a mask would be read as indices 0 and 1; it is refused, and so are
    # float indices, while an empty index list gives empty blocks
    rng = np.random.default_rng(18)
    feats = _random_features(rng, n_ex=10, n_train=6)
    mask = np.arange(10) >= 6
    for eval_idx in (mask, np.arange(6.0, 10.0)):
        with pytest.raises(ValueError, match="eval_idx must hold integer indices"):
            kernel_blocks(np.eye(4), feats, eval_idx)
    _, k_cross, k_diag = kernel_blocks(np.eye(4), feats, [])
    assert k_cross.shape == (0, 6) and k_diag.shape == (0,)


def test_train_and_select_examples_views():
    rng = np.random.default_rng(8)
    feats = _random_features(rng, n_ex=6, n_train=4)
    tr = feats.train()
    assert tr.n_examples == 4 and tr.n_train == 4
    assert np.array_equal(tr.values, feats.values[:, :, :4])


def test_feature_matrix_validation():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        PathFeatureMatrix(values=rng.standard_normal((4, 3)), n_train=1, n_heads=2, depth=2)
    with pytest.raises(ValueError):
        PathFeatureMatrix(values=rng.standard_normal((4, 3, 5)), n_train=6, n_heads=2, depth=2)
    with pytest.raises(ValueError, match=r"3 path rows, H\^L = 4"):
        PathFeatureMatrix(values=rng.standard_normal((3, 3, 5)), n_train=1, n_heads=2, depth=2)
    # H^L matches the row count, but no writer makes a network without heads or layers
    for n_heads, depth, rows in ((0, 2, 0), (2, 0, 1)):
        with pytest.raises(ValueError, match="need n_heads >= 1 and depth >= 1"):
            PathFeatureMatrix(values=np.zeros((rows, 3, 5)), n_train=1, n_heads=n_heads,
                              depth=depth)


def test_kernel_task_alignment_parseval():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 6))
    k = a @ a.T
    y = rng.choice([-1.0, 1.0], size=6)
    evals, overlaps = kernel_task_alignment(k, y)
    assert np.all(np.diff(evals) <= 1e-12)
    assert abs((overlaps**2).sum() - 1.0) <= 1e-10
    assert np.all(overlaps >= 0)
    # rank-one kernel aligned with y puts all mass on the top mode
    k1 = np.outer(y, y)
    evals1, overlaps1 = kernel_task_alignment(k1, y)
    assert abs(overlaps1[0] - 1.0) <= 1e-10
    assert abs(evals1[0] - 6.0) <= 1e-10


def test_kernel_task_alignment_validation():
    with pytest.raises(ValueError):
        kernel_task_alignment(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        kernel_task_alignment(np.eye(2), np.zeros(2))
