import tracemalloc

import numpy as np
import pytest

from attnpaths import data
from attnpaths.data import (
    HmcTaskConfig,
    SequenceDataset,
    build_good_heads,
    build_hmc_attention,
    build_random_head,
    gen_hmc_dataset,
    sample_hidden_chain,
    state_vectors,
)
from oracles import attention_stack_einsum


def _small_config(**overrides):
    base = dict(chain_length=6, feature_width=10, n_train=8, n_test=4)
    base.update(overrides)
    return HmcTaskConfig(**base)


def test_state_vectors_geometry():
    v_plus, v_minus = state_vectors(10)
    assert np.dot(v_plus, v_plus) == pytest.approx(10.0)
    assert np.dot(v_minus, v_minus) == pytest.approx(10.0)
    assert np.dot(v_plus, v_minus) == 0.0
    d = v_plus - v_minus
    assert np.dot(v_plus, d) == pytest.approx(10.0)
    assert np.dot(v_minus, d) == pytest.approx(-10.0)
    with pytest.raises(ValueError):
        state_vectors(7)


def test_hidden_chain_flip_frequency():
    rng = np.random.default_rng(0)
    states = sample_hidden_chain(0.3, 100001, rng)
    assert set(np.unique(states)) <= {0, 1}
    flips = np.mean(states[1:] != states[:-1])
    assert abs(flips - 0.3) < 0.005
    sticky = sample_hidden_chain(0.7, 100001, rng)
    assert abs(np.mean(sticky[1:] != sticky[:-1]) - 0.7) < 0.005


def test_hidden_chain_uniform_start():
    rng = np.random.default_rng(1)
    starts = [sample_hidden_chain(0.5, 3, rng)[0] for _ in range(2000)]
    assert abs(np.mean(starts) - 0.5) < 0.05


def test_task_config_validation():
    with pytest.raises(ValueError):
        _small_config(feature_width=9)
    with pytest.raises(ValueError):
        _small_config(p_plus=0.0)
    with pytest.raises(ValueError):
        _small_config(p_minus=1.0)
    with pytest.raises(ValueError):
        _small_config(n_train=7)
    with pytest.raises(ValueError):
        _small_config(n_test=3)
    with pytest.raises(ValueError):
        _small_config(sigma_par=-1.0)
    cfg = _small_config()
    assert cfg.token_width == 10 + 6 + 1
    assert cfg.n_tokens == 7


def test_dataset_shapes_and_balance():
    cfg = _small_config()
    ds = gen_hmc_dataset(cfg, seed=3)
    assert ds.tokens.shape == (12, cfg.token_width, cfg.n_tokens)
    assert ds.n_examples == 12 and ds.n_train == 8
    assert set(np.unique(ds.labels)) == {-1, 1}
    # exact class balance within each split
    assert ds.train_labels.sum() == 0
    assert ds.test_labels.sum() == 0
    assert np.array_equal(ds.test_indices, np.arange(8, 12))


def test_dataset_token_layout():
    cfg = _small_config()
    ds = gen_hmc_dataset(cfg, seed=4)
    n0, t = cfg.feature_width, cfg.chain_length
    # bos token: zero features, one-hot position 0
    assert np.all(ds.tokens[:, :n0, 0] == 0.0)
    # positional block is exactly one-hot per token
    pos = ds.tokens[:, n0:, :]
    want = np.broadcast_to(np.eye(t + 1), (12, t + 1, t + 1))
    assert np.array_equal(pos, want)


def test_noiseless_tokens_are_state_vectors():
    cfg = _small_config(sigma_par=0.0, sigma_perp=0.0)
    ds = gen_hmc_dataset(cfg, seed=5)
    v_plus, v_minus = state_vectors(cfg.feature_width)
    feats = ds.tokens[:, : cfg.feature_width, 1:]
    for mu in range(ds.n_examples):
        for t in range(cfg.chain_length):
            col = feats[mu, :, t]
            assert np.array_equal(col, v_plus) or np.array_equal(col, v_minus)


def test_noise_parallel_perpendicular_split():
    # zero perpendicular noise keeps features in span(v+, v-); zero parallel
    # noise keeps the projections exactly at the clean state values
    cfg = _small_config(sigma_perp=0.0)
    ds = gen_hmc_dataset(cfg, seed=6)
    v_plus, v_minus = state_vectors(cfg.feature_width)
    basis = np.stack([v_plus / np.linalg.norm(v_plus), v_minus / np.linalg.norm(v_minus)])
    feats = ds.tokens[:, : cfg.feature_width, 1:]
    recon = np.einsum("bw,bmt->mwt", basis, np.einsum("bw,mwt->bmt", basis, feats))
    assert np.allclose(recon, feats, atol=1e-10)

    cfg2 = _small_config(sigma_par=0.0)
    ds2 = gen_hmc_dataset(cfg2, seed=6)
    feats2 = ds2.tokens[:, : cfg2.feature_width, 1:]
    # v+ . v+ = N0 and v+ . v- = 0, so each projection is exactly 1 or 0
    proj_plus = np.einsum("w,mwt->mt", v_plus, feats2) / cfg2.feature_width
    dist = np.minimum(np.abs(proj_plus - 1.0), np.abs(proj_plus))
    assert np.max(dist) <= 1e-10


def test_dataset_determinism_and_seed_sensitivity():
    cfg = _small_config()
    a = gen_hmc_dataset(cfg, seed=7)
    b = gen_hmc_dataset(cfg, seed=7)
    c = gen_hmc_dataset(cfg, seed=8)
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.tokens, c.tokens)


def test_dataset_validation():
    with pytest.raises(ValueError, match="tokens must be"):
        SequenceDataset(tokens=np.zeros((3, 4)), labels=np.ones(3), n_train=1)
    with pytest.raises(ValueError, match="labels length"):
        SequenceDataset(tokens=np.zeros((3, 4, 5)), labels=np.ones(2), n_train=1)
    with pytest.raises(ValueError, match="n_train=4 out of range"):
        SequenceDataset(tokens=np.zeros((3, 4, 5)), labels=np.ones(3), n_train=4)


@pytest.mark.parametrize("labels", [[1, -1, 0], [5, 1, -1], [1, 1, -2]])
def test_dataset_rejects_labels_other_than_plus_minus_one(labels):
    with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
        SequenceDataset(tokens=np.zeros((3, 4, 5)), labels=labels, n_train=2)
    SequenceDataset(tokens=np.zeros((3, 4, 5)), labels=[1, -1, 1], n_train=2)


def test_dataset_checks_labels_before_the_int8_cast():
    # float labels are checked as given, not as their truncation to int8
    for labels in ([1.7, -1.2, 1.0], [1, -1, 257]):
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            SequenceDataset(tokens=np.zeros((3, 4, 5)), labels=labels, n_train=2)
    ds = SequenceDataset(tokens=np.zeros((3, 4, 5)), labels=[1.0, -1.0, 1.0], n_train=2)
    assert ds.labels.dtype == np.int8 and ds.labels.tolist() == [1, -1, 1]


def _oracle_noise(shape, v_plus, v_minus, sigma_par, sigma_perp, rng):
    g = rng.standard_normal(shape)
    u1 = v_plus / np.linalg.norm(v_plus)
    u2 = v_minus / np.linalg.norm(v_minus)
    par = np.tensordot(g, u1, axes=(-1, 0))[..., None] * u1 \
        + np.tensordot(g, u2, axes=(-1, 0))[..., None] * u2
    return sigma_par * par + sigma_perp * (g - par)


def _oracle_class_block(n, p_flip, config, rng):
    t = config.chain_length
    n0 = config.feature_width
    v_plus, v_minus = state_vectors(n0)
    vs = np.stack([v_plus, v_minus])
    states = np.stack([sample_hidden_chain(p_flip, t, rng) for _ in range(n)])
    feats = vs[states] + _oracle_noise((n, t, n0), v_plus, v_minus,
                                       config.sigma_par, config.sigma_perp, rng)
    tokens = np.zeros((n, config.token_width, t + 1))
    tokens[:, :n0, 1:] = feats.transpose(0, 2, 1)
    for pos in range(t + 1):
        tokens[:, n0 + pos, pos] = 1.0
    return tokens


def _oracle_gen_hmc_dataset(config, seed):
    """The whole-array generator: each class block with all its noise at once,
    concatenated, then shuffled.  gen_hmc_dataset must reproduce its tokens
    and labels bit for bit."""
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for n in (config.n_train, config.n_test):
        if n == 0:
            continue
        plus = _oracle_class_block(n // 2, config.p_plus, config, rng)
        minus = _oracle_class_block(n - n // 2, config.p_minus, config, rng)
        lab = np.concatenate([np.ones(n // 2, dtype=np.int8),
                              -np.ones(n - n // 2, dtype=np.int8)])
        perm = rng.permutation(n)
        blocks.append(np.concatenate([plus, minus])[perm])
        labels.append(lab[perm])
    return np.concatenate(blocks), np.concatenate(labels)


@pytest.mark.parametrize("noise_block", [1, 7, data.NOISE_BLOCK, 10_000])
@pytest.mark.parametrize("overrides", [
    {},
    {"n_test": 0},
    {"n_train": 6, "n_test": 10},                  # odd class halves
    {"sigma_par": 0.0},
    {"sigma_perp": 0.0},
    {"chain_length": 30, "feature_width": 200, "n_train": 10, "n_test": 6},
])
def test_dataset_matches_whole_array_oracle(monkeypatch, noise_block, overrides):
    cfg = _small_config(**overrides)
    monkeypatch.setattr(data, "NOISE_BLOCK", noise_block)
    for seed in (0, 3):
        ds = gen_hmc_dataset(cfg, seed)
        tokens, labels = _oracle_gen_hmc_dataset(cfg, seed)
        assert ds.tokens.tobytes() == tokens.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()


def test_dataset_memory_peak_is_about_one_token_payload():
    # the splits are shuffled in place: no second copy of a split, let alone
    # of the payload (the whole-array generator peaks at 2.9 payloads)
    tracemalloc.start()
    try:
        ds = gen_hmc_dataset(HmcTaskConfig(), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ds.tokens.nbytes


def test_good_head_logit_structure():
    n0, t, beta = 10, 5, 10.0
    layer1, layer2 = build_good_heads(n0, t, beta)
    v_plus, v_minus = state_vectors(n0)
    d = v_plus - v_minus
    w = layer1
    # feature block is rank one with v.d = n0 giving unit match logits
    ff = w[:n0, :n0]
    assert np.linalg.matrix_rank(ff) == 1
    assert v_plus @ ff @ v_plus == pytest.approx(beta * 1.0)
    assert v_minus @ ff @ v_minus == pytest.approx(beta * 1.0)
    assert v_plus @ ff @ v_minus == pytest.approx(beta * -1.0)
    # bos row 3/2, successor subdiagonal 1
    pp = w[n0:, n0:]
    assert np.all(pp[0, :] == beta * 1.5)
    assert np.all(pp[np.arange(1, t + 1), np.arange(t)] == beta * 1.0)
    assert pp.sum() == pytest.approx(beta * (1.5 * (t + 1) + t))
    # cross blocks vanish
    assert np.all(w[:n0, n0:] == 0.0)
    assert np.all(w[n0:, :n0] == 0.0)
    # layer 2: positions all ones, features zero
    w2 = layer2
    assert np.all(w2[:n0, :] == 0.0)
    assert np.all(w2[:, :n0] == 0.0)
    assert np.all(w2[n0:, n0:] == beta * 1.0)


def test_good_layer2_attends_uniformly():
    # with one-hot positional coordinates every column of the layer-2
    # attention matrix is uniform regardless of the features
    rng = np.random.default_rng(9)
    cfg = _small_config()
    ds = gen_hmc_dataset(cfg, seed=10)
    _, layer2 = build_good_heads(cfg.feature_width, cfg.chain_length, cfg.beta)
    omega = attention_stack_einsum(ds.tokens[:1], layer2[None, None])[0, 0, 0]
    assert np.allclose(omega, 1.0 / cfg.n_tokens, atol=1e-12)


def test_good_layer1_noiseless_attention():
    # on noiseless tokens the layer-1 head routes each query to its matching
    # successor, or to bos when the state flips
    cfg = _small_config(sigma_par=0.0, sigma_perp=0.0, chain_length=8)
    ds = gen_hmc_dataset(cfg, seed=11)
    layer1, _ = build_good_heads(cfg.feature_width, cfg.chain_length, cfg.beta)
    v_plus, _ = state_vectors(cfg.feature_width)
    n0, t = cfg.feature_width, cfg.chain_length
    omega = attention_stack_einsum(ds.tokens[:1], layer1[None, None])[0, 0, 0]
    states = (ds.tokens[0, :n0, 1:].T @ v_plus / n0 < 1.0).astype(int)
    for q in range(1, t):  # query position q holds chain step q-1
        same = states[q - 1] == states[q]
        top = int(np.argmax(omega[:, q]))
        # match+successor logit 2 beats bos 3/2; on a flip bos wins
        assert top == (q + 1 if same else 0)


def test_random_head_block_scales():
    rng = np.random.default_rng(12)
    n0, t, beta = 400, 30, 10.0
    w = build_random_head(n0, t, rng, beta=beta)
    assert abs(w[:n0, :n0].std() * n0 - beta * 1.0) < beta * 0.05
    assert abs(w[:n0, n0:].std() * np.sqrt(n0) - beta * 1.0) < beta * 0.05
    assert abs(w[n0:, :n0].std() * np.sqrt(n0) - beta * 1.0) < beta * 0.05
    assert abs(w[n0:, n0:].std() - beta * 1.0) < beta * 0.05


def test_build_hmc_attention_layout():
    cfg = _small_config()
    logits = build_hmc_attention(cfg, n_heads=3, depth=2, seed=13)
    assert logits.shape == (2, 3, cfg.token_width, cfg.token_width)
    good = build_good_heads(cfg.feature_width, cfg.chain_length, cfg.beta)
    for layer in range(2):
        assert np.array_equal(logits[layer, 0], good[layer])
    again = build_hmc_attention(cfg, n_heads=3, depth=2, seed=13)
    assert np.array_equal(logits, again)
    other = build_hmc_attention(cfg, n_heads=3, depth=2, seed=14)
    assert not np.array_equal(logits[0, 1], other[0, 1])


@pytest.mark.parametrize("n_heads", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("seed", [0, 7])
def test_a_deeper_build_extends_the_shallower_one(n_heads, depth, seed):
    # heads are drawn layer by layer, so one more layer leaves the first ones as they were
    cfg = _small_config()
    deeper = build_hmc_attention(cfg, n_heads, depth + 1, seed)
    assert deeper.shape == (depth + 1, n_heads, cfg.token_width, cfg.token_width)
    assert np.array_equal(deeper[:depth], build_hmc_attention(cfg, n_heads, depth, seed))


def test_every_later_layer_has_the_uniform_good_head():
    cfg = _small_config()
    first, later = build_good_heads(cfg.feature_width, cfg.chain_length, cfg.beta)
    logits = build_hmc_attention(cfg, n_heads=2, depth=4, seed=5)
    assert np.array_equal(logits[0, 0], first)
    for layer in range(1, 4):
        assert np.array_equal(logits[layer, 0], later)
        assert not np.array_equal(logits[layer, 1], logits[layer - 1, 1])


@pytest.mark.parametrize("n_heads,depth", [(0, 2), (2, 0)])
def test_build_hmc_attention_needs_a_head_and_a_layer(n_heads, depth):
    with pytest.raises(ValueError, match="need n_heads >= 1 and depth >= 1"):
        build_hmc_attention(_small_config(), n_heads, depth, seed=0)
