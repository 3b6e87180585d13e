import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnpaths.kernel import compute_features, path_features
from attnpaths.model import (
    Readout,
    attention_stack_batch,
    weight_count,
    weight_parts,
)
from attnpaths.paths import path_heads
from attnpaths.sampler import (
    MAX_ENERGY_ERROR,
    TARGET_ACCEPT,
    HmcConfig,
    PosteriorSamples,
    _row_tree,
    empirical_order_parameter,
    empirical_predictor,
    hmc_sample,
    leapfrog,
    log_posterior,
    run_hmc,
)
from oracles import attention_stack_einsum, forward_layerwise, path_row


def _setup(rng, n_ex=3, width=4, n_tokens=3, depth=2, n_heads=2, n_hidden=2,
           readout=Readout.token(1)):
    tokens = rng.standard_normal((n_ex, width, n_tokens))
    logits = rng.standard_normal((depth, n_heads, width, width))
    omegas = attention_stack_einsum(tokens, logits)  # the oracle's full stacks
    labels = rng.choice([-1.0, 1.0], size=n_ex)
    shape = (n_hidden, width, depth, n_heads)
    q = rng.standard_normal(weight_count(*shape))
    layers, read = attention_stack_batch(tokens, logits, readout)
    phi = path_features(tokens, layers, read).reshape(-1, n_ex)
    return tokens, omegas, labels, q, phi, shape


def test_log_posterior_value():
    # one training example at a time, so each path-space output is checked
    # against the layerwise recursion on its own
    rng = np.random.default_rng(1)
    t, sigma2 = 0.1, 1.5
    readout = Readout.token(1)
    tokens, omegas, labels, q, phi, shape = _setup(rng, n_ex=5, readout=readout)
    for mu in range(5):
        logp, _ = log_posterior(q, shape, phi[:, mu:mu + 1], labels[mu:mu + 1], t, sigma2)
        f = forward_layerwise(tokens[mu], weight_parts(q, *shape), omegas[mu], readout)
        want = -0.5 * (f - labels[mu]) ** 2 / t - 0.5 * float(np.sum(q**2)) / sigma2
        assert abs(logp - want) <= 1e-10 * (1 + abs(want))


def test_log_posterior_gradient_finite_differences():
    # two chains in one batch; a coordinate is moved in both rows at once
    rng = np.random.default_rng(2)
    t, sigma2, eps = 0.2, 0.8, 1e-6
    for n_heads, depth in [(1, 1), (2, 2), (3, 2), (2, 3)]:
        _, _, labels, q, phi, shape = _setup(
            rng, n_ex=4, n_heads=n_heads, depth=depth, n_hidden=3)
        qs = np.stack([q, rng.standard_normal(q.shape)])
        _, g = log_posterior(qs, shape, phi, labels, t, sigma2)
        assert g.shape == qs.shape
        for i in range(len(q)):
            up, dn = qs.copy(), qs.copy()
            up[:, i] += eps
            dn[:, i] -= eps
            fd = (log_posterior(up, shape, phi, labels, t, sigma2)[0]
                  - log_posterior(dn, shape, phi, labels, t, sigma2)[0]) / (2 * eps)
            for c in range(2):
                assert abs(fd[c] - g[c, i]) <= 1e-5 * (1 + abs(g[c, i])), (
                    n_heads, depth, c, i)


@settings(max_examples=40, deadline=None)
@given(n_hidden=st.integers(1, 4), width=st.integers(1, 5), depth=st.integers(1, 3),
       n_heads=st.integers(1, 3), n_chains=st.integers(1, 5), n_ex=st.integers(1, 4),
       prior_only=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_batched_log_posterior_rows_match_single_calls(n_hidden, width, depth, n_heads,
                                                       n_chains, n_ex, prior_only, seed):
    # each row of a batched call is bit-identical to a call on that row alone,
    # so a chain's draws do not depend on the chains batched beside it
    rng = np.random.default_rng(seed)
    shape = (n_hidden, width, depth, n_heads)
    qs = rng.standard_normal((n_chains, weight_count(*shape)))
    phi = None if prior_only else rng.standard_normal((n_heads**depth * width, n_ex))
    labels = rng.choice([-1.0, 1.0], size=n_ex)
    logp, grad = log_posterior(qs, shape, phi, labels, 0.3, 1.2)
    assert logp.shape == (n_chains,) and grad.shape == qs.shape
    for c in range(n_chains):
        one_logp, one_grad = log_posterior(qs[c], shape, phi, labels, 0.3, 1.2)
        assert np.array_equal(logp[c], one_logp)
        assert np.array_equal(grad[c], one_grad)


def test_log_posterior_prior_only():
    rng = np.random.default_rng(3)
    q = rng.standard_normal(2 * 4 + 2 * 2 * 2 * 2 + 2)
    sigma2 = 2.0
    logp, grad = log_posterior(q, (2, 4, 2, 2), None, np.ones(3), temperature=0.1,
                               sigma2=sigma2)
    assert abs(logp + 0.5 * np.sum(q**2) / sigma2) <= 1e-12 * (1 + np.sum(q**2))
    assert np.allclose(grad, -q / sigma2, atol=1e-14)


def test_leapfrog_energy_error_scales_with_step():
    # standard Gaussian potential; the energy error of a fixed-time trajectory
    # shrinks like eps^2
    rng = np.random.default_rng(4)
    q0 = rng.standard_normal(5)
    p0 = rng.standard_normal(5)

    def logp_and_grad(q):
        return -0.5 * float(q @ q), -q

    def h(q, p):
        return 0.5 * float(q @ q) + 0.5 * float(p @ p)

    errs = []
    for eps, n in ((0.1, 10), (0.01, 100), (0.001, 1000)):
        q1, p1, _, _ = leapfrog(logp_and_grad, q0, p0, -q0, eps, n)
        errs.append(abs(h(q1, p1) - h(q0, p0)))
    assert errs[0] < 1e-2
    assert errs[1] < 1e-4
    assert errs[2] < 1e-6


def test_leapfrog_reversibility():
    rng = np.random.default_rng(5)
    q0 = rng.standard_normal(4)
    p0 = rng.standard_normal(4)
    a = rng.standard_normal((4, 4))
    prec = a @ a.T + 4 * np.eye(4)

    def logp_and_grad(q):
        return -0.5 * float(q @ prec @ q), -prec @ q

    q_save, p_save = q0.copy(), p0.copy()
    q1, p1, _, g1 = leapfrog(logp_and_grad, q0, p0, -prec @ q0, 0.05, 30)
    q2, p2, _, _ = leapfrog(logp_and_grad, q1, -p1, g1, 0.05, 30)
    assert np.max(np.abs(q2 - q0)) <= 1e-10
    assert np.max(np.abs(p2 + p0)) <= 1e-10
    # inputs are not mutated
    assert np.array_equal(q0, q_save)
    assert np.array_equal(p0, p_save)


@dataclass
class _OracleChain:
    samples: np.ndarray
    potentials: np.ndarray
    acceptance: float
    divergences: int
    step_size: float


def _oracle_chain(logp_and_grad, q0, config, rng):
    """One chain on its own, with a scalar step and a one-point density: the
    reference that run_hmc's lockstep chains must reproduce bit for bit."""
    q = q0.copy()
    logp, grad = logp_and_grad(q)
    gamma, t0, kappa = 0.05, 10.0, 0.75
    mu = np.log(10.0 * config.step_size)
    log_eps = np.log(config.step_size)
    log_eps_bar = log_eps
    h_bar = 0.0
    kept, potentials = [], []
    n_accept = n_diverge = 0
    for it in range(1, config.n_warmup + config.n_samples + 1):
        warming = it <= config.n_warmup
        eps = float(np.exp(log_eps)) if warming else float(np.exp(log_eps_bar))
        p0 = rng.standard_normal(q.shape)
        h0 = -logp + 0.5 * float(p0 @ p0)
        with np.errstate(over="ignore", invalid="ignore"):
            q_new, p_new, logp_new, grad_new = leapfrog(logp_and_grad, q, p0, grad, eps,
                                                        config.n_leapfrog)
            h_new = -logp_new + 0.5 * float(p_new @ p_new)
        delta = h_new - h0
        diverged = not np.isfinite(delta) or delta > MAX_ENERGY_ERROR
        accept_prob = 0.0 if diverged else float(np.exp(min(0.0, -delta)))
        if diverged:
            n_diverge += 1
        elif rng.random() < accept_prob:
            q, logp, grad = q_new, logp_new, grad_new
            if not warming:
                n_accept += 1
        if warming:
            h_bar = (1.0 - 1.0 / (it + t0)) * h_bar + (TARGET_ACCEPT - accept_prob) / (it + t0)
            log_eps = mu - np.sqrt(it) / gamma * h_bar
            eta = it**-kappa
            log_eps_bar = eta * log_eps + (1.0 - eta) * log_eps_bar
        elif (it - config.n_warmup) % config.thin == 0:
            kept.append(q.copy())
            potentials.append(-logp)
    return _OracleChain(
        samples=np.array(kept), potentials=np.array(potentials),
        acceptance=n_accept / config.n_samples, divergences=n_diverge,
        step_size=float(np.exp(log_eps_bar)) if config.n_warmup > 0 else config.step_size)


def _oracle_log_posterior(q, shape, phi, labels, temperature, sigma2):
    """log_posterior on one weight vector, with 1-D products and dot products:
    the reference for the bits of each batched row."""
    v0, values, readout = weight_parts(q, *shape)
    logp = -0.5 * (float(np.sum(v0**2)) + float(np.sum(values**2))
                   + float(np.sum(readout**2))) / sigma2
    grad = -q / sigma2
    if phi is None:
        return logp, grad
    n, width, depth, n_heads = shape
    levels = _row_tree(readout, values)
    scale = (n_heads**depth * n ** (depth + 1)) ** -0.5
    resid = scale * ((levels[-1] @ v0).ravel() @ phi) - labels
    logp -= 0.5 * float(resid @ resid) / temperature
    d_m = (-scale / temperature) * (phi @ resid).reshape(-1, width)
    g_v0, g_values, g_readout = weight_parts(grad, *shape)
    g_v0 += levels[-1].T @ d_m
    d_rows = d_m @ v0.T
    for layer in range(depth):
        d3 = d_rows.reshape(n_heads, -1, n)
        g_values[layer] += levels[depth - 1 - layer].T @ d3
        d_rows = np.matmul(d3, values[layer].transpose(0, 2, 1)).sum(axis=0)
    g_readout += d_rows[0]
    return logp, grad


def _oracle_hmc(logp_and_grad, q0s, config):
    rngs = np.random.default_rng(config.seed).spawn(len(q0s))
    return [_oracle_chain(logp_and_grad, q0, config, rng) for q0, rng in zip(q0s, rngs)]


def _standard_normal(q):
    """log density and gradient of a standard normal, row by row."""
    return -0.5 * np.vecdot(q, q), -q


def test_run_hmc_two_dimensional_gaussian():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    prec = np.linalg.inv(cov)

    def logp_and_grad(q):
        d = q - mean
        return -0.5 * np.vecdot(d, d @ prec), -d @ prec

    config = HmcConfig(n_hidden=1, temperature=1.0, n_chains=4, n_warmup=300,
                       n_samples=1500, thin=1, n_leapfrog=16, step_size=0.2, seed=0)
    rng = np.random.default_rng(1)
    q0 = np.array([rng.standard_normal(2) for _ in range(4)])
    chains = run_hmc(logp_and_grad, q0, config)
    assert chains.samples.shape == (4, 1500, 2)
    samples = chains.samples.reshape(-1, 2)
    assert np.max(np.abs(samples.mean(axis=0) - mean)) <= 0.05
    assert np.max(np.abs(np.cov(samples.T) - cov)) <= 0.25
    for acceptance, step_size in zip(chains.acceptance, chains.step_sizes):
        assert 0.5 <= acceptance <= 1.0
        assert step_size > 0


def test_run_hmc_deterministic():
    config = HmcConfig(n_hidden=1, temperature=1.0, n_chains=2, n_warmup=50,
                       n_samples=100, thin=2, seed=7)
    q0 = np.array([np.zeros(3), np.ones(3)])
    a = run_hmc(_standard_normal, q0, config)
    b = run_hmc(_standard_normal, q0, config)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.acceptance, b.acceptance)
    # chains use distinct substreams
    assert not np.array_equal(a.samples[0, -1], a.samples[1, -1])


def test_run_hmc_evaluates_each_trajectory_point_once():
    # one evaluation at the chains' start, then one per leapfrog step, each on
    # all chains at once: the start of a trajectory reuses the end of the last
    # accepted one
    calls = []

    def logp_and_grad(q):
        calls.append(q.shape)
        return _standard_normal(q)

    config = HmcConfig(n_hidden=1, temperature=1.0, n_chains=3, n_warmup=7, n_samples=5,
                       thin=1, n_leapfrog=4, step_size=0.3, seed=2)
    chains = run_hmc(logp_and_grad, np.array([np.full(2, float(i)) for i in range(3)]), config)
    assert calls == [(3, 2)] * (1 + (7 + 5) * 4)
    # the carried density is the current point's, after accepts and rejects alike
    assert np.array_equal(chains.potentials, -_standard_normal(chains.samples)[0])


def test_run_hmc_large_energy_drop_raises_no_overflow_warning():
    # from q0 = 100 one unit step lowers the energy by about 940, beyond where
    # exp(-delta) overflows; the proposal is simply accepted
    config = HmcConfig(n_hidden=1, temperature=1.0, n_chains=1, n_warmup=0, n_samples=1,
                       thin=1, n_leapfrog=1, step_size=1.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        chains = run_hmc(_standard_normal, np.array([[100.0]]), config)
    assert chains.acceptance[0] == 1.0
    assert chains.divergences[0] == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergences_counted_and_position_held():
    # an enormous fixed step explodes every trajectory; all proposals are
    # rejected as divergent and the chain never moves
    config = HmcConfig(n_hidden=1, temperature=1.0, n_chains=1, n_warmup=0,
                       n_samples=20, thin=1, n_leapfrog=8, step_size=1e10, seed=3)
    q0 = np.array([[0.5, -0.5]])
    chains = run_hmc(_standard_normal, q0, config)
    assert chains.divergences[0] == 20
    assert chains.acceptance[0] == 0.0
    assert chains.step_sizes[0] == 1e10  # no warmup, no adaptation
    assert np.all(chains.samples[0] == q0)


def test_run_hmc_matches_per_chain_oracle_on_a_toy_density():
    # warmup, thinning and a step large enough that some proposals diverge
    config = HmcConfig(n_hidden=1, temperature=1.0, n_chains=3, n_warmup=30, n_samples=30,
                       thin=3, n_leapfrog=5, step_size=2.5, seed=9)
    rng = np.random.default_rng(14)
    q0 = 3.0 * rng.standard_normal((3, 4))
    chains = run_hmc(_standard_normal, q0, config)
    assert 0 < chains.divergences.min() and chains.divergences.max() < 60
    oracle = _oracle_hmc(_standard_normal, list(q0), config)
    assert np.array_equal(chains.samples, np.stack([r.samples for r in oracle]))
    assert np.array_equal(chains.potentials, np.stack([r.potentials for r in oracle]))
    assert np.array_equal(chains.step_sizes, [r.step_size for r in oracle])
    assert np.array_equal(chains.acceptance, [r.acceptance for r in oracle])
    assert np.array_equal(chains.divergences, [r.divergences for r in oracle])


def _task(rng, n_ex, width=4, n_tokens=3, depth=2, n_heads=2):
    tokens = rng.standard_normal((n_ex, width, n_tokens))
    logits = rng.standard_normal((depth, n_heads, width, width))
    return tokens, logits, rng.choice([-1.0, 1.0], size=n_ex), Readout.token(1)


def test_hmc_sample_bookkeeping():
    rng = np.random.default_rng(6)
    tokens, logits, labels, readout = _task(rng, n_ex=4)
    config = HmcConfig(n_hidden=2, temperature=0.5, n_chains=3, n_warmup=20,
                       n_samples=30, thin=10, seed=4)
    post = hmc_sample(tokens, labels, logits, readout, config)
    assert post.n_kept == 3 * 3  # n_samples // thin per chain
    dim = 2 * 4 + 2 * 2 * 2 * 2 + 2
    assert post.samples.shape == (9, dim)
    assert post.acceptance.shape == (3,)
    assert post.divergences.shape == (3,)
    assert post.step_sizes.shape == (3,)
    assert post.potentials.shape == (9,)
    v0, values, a = post.parts()
    assert v0.shape == (9, 2, 4) and values.shape == (9, 2, 2, 2, 2) and a.shape == (9, 2)
    # rerun is bit-identical
    again = hmc_sample(tokens, labels, logits, readout, config)
    assert np.array_equal(post.samples, again.samples)


def test_hmc_sample_momenta_do_not_repeat_initial_points(monkeypatch):
    # the initial points and the chains' momenta come from distinct substreams
    import attnpaths.sampler as sampler_mod

    calls = []

    def recording_leapfrog(logp_and_grad, q, p, grad, step_size, n_steps):
        calls.append((q.copy(), p.copy(), step_size.shape))
        return leapfrog(logp_and_grad, q, p, grad, step_size, n_steps)

    monkeypatch.setattr(sampler_mod, "leapfrog", recording_leapfrog)
    rng = np.random.default_rng(11)
    tokens, logits, labels, readout = _task(rng, n_ex=2)
    config = HmcConfig(n_hidden=2, n_chains=2, n_warmup=0, n_samples=1, thin=1,
                       prior_only=True, seed=3)
    hmc_sample(tokens, labels, logits, readout, config)
    # one call advances both chains, each with its own step size
    ((q, p, step_shape),) = calls
    assert q.shape == p.shape == (2, 2 * 4 + 2 * 2 * 2 * 2 + 2)
    assert step_shape == (2, 1)
    for q_chain, p_chain in zip(q, p):
        assert not np.allclose(q_chain, p_chain)


@pytest.mark.parametrize("prior_only", [False, True])
def test_hmc_sample_matches_per_chain_oracle(prior_only):
    # draws, potentials, step sizes, acceptances and divergences of the
    # lockstep chains equal those of each chain run on its own, on the
    # one-vector density, bit for bit
    rng = np.random.default_rng(12)
    tokens, logits, labels, readout = _task(rng, n_ex=40)
    config = HmcConfig(n_hidden=3, temperature=0.05, n_chains=3, n_warmup=25, n_samples=30,
                       thin=3, n_leapfrog=6, step_size=0.5, prior_only=prior_only, seed=4)
    post = hmc_sample(tokens, labels, logits, readout, config)

    shape = (3, 4, 2, 2)
    phi = None
    if not prior_only:
        layers, read = attention_stack_batch(tokens, logits, readout)
        phi = path_features(tokens, layers, read).reshape(-1, len(tokens))
    root = np.random.default_rng(config.seed)
    root.spawn(3)
    q0s = [r.standard_normal(weight_count(*shape)) for r in root.spawn(3)]
    oracle = _oracle_hmc(
        lambda q: _oracle_log_posterior(q, shape, phi, labels, config.temperature,
                                        config.sigma2),
        q0s, config)
    assert sum(r.divergences for r in oracle) > 0
    assert np.array_equal(post.samples, np.concatenate([r.samples for r in oracle]))
    assert np.array_equal(post.potentials, np.concatenate([r.potentials for r in oracle]))
    assert np.array_equal(post.step_sizes, [r.step_size for r in oracle])
    assert np.array_equal(post.acceptance, [r.acceptance for r in oracle])
    assert np.array_equal(post.divergences, [r.divergences for r in oracle])


def test_overflowing_chain_leaves_its_batch_neighbour_alone():
    # chain 1 starts where the likelihood is finite but every trajectory
    # overflows; chain 0 runs as it would alone
    rng = np.random.default_rng(13)
    _, _, labels, q, phi, shape = _setup(rng, n_ex=4)

    def logp_and_grad(qs):
        return log_posterior(qs, shape, phi, labels, 0.2)

    config = HmcConfig(n_hidden=2, temperature=0.2, n_chains=2, n_warmup=10, n_samples=10,
                       thin=1, n_leapfrog=5, step_size=0.05, seed=1)
    q0 = np.stack([q, np.full_like(q, 1e30)])
    assert np.all(np.isfinite(logp_and_grad(q0)[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        both = run_hmc(logp_and_grad, q0, config)
    assert both.divergences[1] == 20
    assert np.all(both.samples[1] == q0[1])
    alone = run_hmc(logp_and_grad, q0[:1], config)
    assert both.divergences[0] < 20
    assert np.array_equal(both.samples[0], alone.samples[0])
    assert np.array_equal(both.potentials[0], alone.potentials[0])
    assert both.step_sizes[0] == alone.step_sizes[0]
    assert both.acceptance[0] == alone.acceptance[0]
    assert both.divergences[0] == alone.divergences[0]


def test_hmc_sample_prior_only_moments():
    rng = np.random.default_rng(7)
    tokens, logits, labels, readout = _task(rng, n_ex=2)
    config = HmcConfig(n_hidden=3, temperature=0.01, sigma2=1.0, n_chains=4,
                       n_warmup=100, n_samples=500, thin=2, prior_only=True, seed=5)
    post = hmc_sample(tokens, labels, logits, readout, config)
    flat = post.samples.ravel()
    assert abs(flat.mean()) <= 0.05
    assert abs(flat.var() - 1.0) <= 0.1


def _manual_samples(rng, n_draws=3, n_hidden=3, width=4, depth=2, n_heads=2):
    shape = (n_hidden, width, depth, n_heads)
    samples = rng.standard_normal((n_draws, weight_count(*shape)))
    return [weight_parts(q, *shape) for q in samples], PosteriorSamples(
        samples=samples,
        n_hidden=n_hidden, width=width, depth=depth, n_heads=n_heads,
        acceptance=np.ones(1), divergences=np.zeros(1, dtype=int),
        step_sizes=np.full(1, 0.01), potentials=np.zeros(n_draws),
        phi=np.empty((n_heads**depth * width, 0)), labels=np.empty(0),
        temperature=0.01, sigma2=1.0)


def test_effective_rows_match_path_products():
    rng = np.random.default_rng(8)
    draws, post = _manual_samples(rng)
    _, values, readout = post.parts()
    batched = _row_tree(readout, values)[-1]
    assert batched.shape == (3, 4, 3)
    for w, stacked in zip(draws, batched):
        _, w_values, w_readout = w
        tree = _row_tree(w_readout, w_values)[-1]
        assert np.allclose(tree, stacked, atol=1e-12)
        rows = tree / post.n_hidden ** (post.depth / 2.0)
        for i, path in enumerate(path_heads(post.n_heads, post.depth).T):
            assert np.allclose(rows[i], path_row(w, path), atol=1e-12)


def test_empirical_order_parameter_oracle():
    rng = np.random.default_rng(9)
    draws, post = _manual_samples(rng)
    want = np.zeros((4, 4))
    for w in draws:
        veff = np.stack([path_row(w, p) for p in path_heads(2, 2).T])
        want += veff @ veff.T / post.n_hidden
    want /= len(draws)
    got, per = empirical_order_parameter(post, return_samples=True)
    assert np.allclose(got, want, atol=1e-12)
    assert per.shape == (3, 4, 4)
    assert np.allclose(per.mean(axis=0), got, atol=1e-12)


def _ridge_predictor(post, config, tokens, labels, logits, readout):
    """Per-draw posterior means and variances of the output on tokens[len(labels):],
    V0 integrated out by a ridge solve in N * width dimensions.  The output is
    B v0, with B's columns the layerwise outputs of the unit V0 vectors, so given
    the other weights V0 has precision I / sigma^2 + B_train^T B_train / T."""
    omegas = attention_stack_einsum(tokens, logits)
    eye = np.eye(config.n_hidden * tokens.shape[1])
    t = config.temperature
    draw_means, draw_vars = [], []
    for _, values, a in zip(*post.parts()):
        b = np.array([[forward_layerwise(x, (e.reshape(config.n_hidden, -1), values, a), om,
                                         readout) for e in eye]
                      for x, om in zip(tokens, omegas)])
        b_train, b_test = b[: len(labels)], b[len(labels) :]
        cov = np.linalg.inv(eye / config.sigma2 + b_train.T @ b_train / t)
        draw_means.append(b_test @ cov @ b_train.T @ labels / t)
        draw_vars.append(np.vecdot(b_test @ cov, b_test))
    return np.array(draw_means), np.array(draw_vars)


def test_empirical_predictor_oracle():
    # V0 integrated out, against a ridge solve that reads no kernel code; 35
    # test examples and 14 draws cross the example and the draw blocks.  Under
    # prior_only no training example enters, and the mean is exactly 0.
    rng = np.random.default_rng(10)
    readout = Readout.token(0)
    n_train, n_test = 4, 35
    tokens = rng.standard_normal((n_train + n_test, 3, 3))
    logits = rng.standard_normal((2, 2, 3, 3))
    labels = rng.choice([-1.0, 1.0], size=n_train)
    test = compute_features(tokens[n_train:], logits, readout, 0)
    for prior_only in (False, True):
        config = HmcConfig(n_hidden=2, temperature=0.3, sigma2=0.7, n_chains=2, n_warmup=3,
                           n_samples=7, thin=1, n_leapfrog=3, prior_only=prior_only, seed=5)
        post = hmc_sample(tokens[:n_train], labels, logits, readout, config)
        assert post.n_kept == 14
        means, variances = empirical_predictor(post, test)
        n_seen = 0 if prior_only else n_train  # training rows the likelihood reads
        draw_means, draw_vars = _ridge_predictor(
            post, config, np.concatenate([tokens[:n_seen], tokens[n_train:]]), labels[:n_seen],
            logits, readout)
        want_means = draw_means.mean(axis=0)
        want_vars = draw_vars.mean(axis=0) + draw_means.var(axis=0)
        for got, want in ((means, want_means), (variances, want_vars)):
            assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))
        if prior_only:
            assert np.all(means == 0.0)
        else:
            assert np.min(np.abs(want_means)) > 1e-3  # the labels do reach the mean


def test_hmc_config_validation():
    with pytest.raises(ValueError):
        HmcConfig(n_hidden=0)
    with pytest.raises(ValueError):
        HmcConfig(n_hidden=2, temperature=0.0)
    HmcConfig(n_hidden=2, temperature=-1.0, prior_only=True)  # allowed: unused
    with pytest.raises(ValueError):
        HmcConfig(n_hidden=2, sigma2=0.0)
    with pytest.raises(ValueError):
        HmcConfig(n_hidden=2, n_chains=0)
    with pytest.raises(ValueError):
        HmcConfig(n_hidden=2, thin=0)
    with pytest.raises(ValueError):
        HmcConfig(n_hidden=2, n_warmup=-1)
    with pytest.raises(ValueError):
        HmcConfig(n_hidden=2, step_size=0.0)
    with pytest.raises(ValueError, match="thin exceeds n_samples"):
        HmcConfig(n_hidden=2, n_samples=5, thin=6)
    HmcConfig(n_hidden=2, n_samples=5, thin=5)  # one draw kept
