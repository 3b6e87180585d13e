import itertools
import warnings

import numpy as np
import pytest

from attnpaths.kernel import path_features
from attnpaths.model import (
    Readout,
    attention_stack_batch,
    effective_weights,
    forward_layerwise,
    network_output,
    weight_count,
    weight_parts,
)
from attnpaths.paths import path_heads
from attnpaths.sampler import (
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


def _setup(rng, n_ex=3, width=4, n_tokens=3, depth=2, n_heads=2, n_hidden=2,
           readout=Readout.token(1)):
    tokens = rng.standard_normal((n_ex, width, n_tokens))
    logits = rng.standard_normal((depth, n_heads, width, width))
    omegas = attention_stack_batch(tokens, logits)
    labels = rng.choice([-1.0, 1.0], size=n_ex)
    shape = (n_hidden, width, depth, n_heads)
    q = rng.standard_normal(weight_count(*shape))
    phi = path_features(tokens, omegas, readout).reshape(-1, n_ex)
    return tokens, omegas, labels, q, phi, shape


READOUTS = (Readout.token(1), Readout.average())


def test_log_posterior_value():
    # one training example at a time, so each path-space output is checked
    # against the layerwise recursion on its own
    rng = np.random.default_rng(1)
    t, sigma2 = 0.1, 1.5
    for readout in READOUTS:
        tokens, omegas, labels, q, phi, shape = _setup(rng, n_ex=5, readout=readout)
        for mu in range(5):
            logp, _ = log_posterior(q, shape, phi[:, mu:mu + 1],
                                    labels[mu:mu + 1], t, sigma2)
            f = forward_layerwise(tokens[mu], weight_parts(q, *shape), omegas[mu], readout)
            want = -0.5 * (f - labels[mu]) ** 2 / t - 0.5 * float(np.sum(q**2)) / sigma2
            assert abs(logp - want) <= 1e-10 * (1 + abs(want))


def test_log_posterior_gradient_finite_differences():
    rng = np.random.default_rng(2)
    t, sigma2, eps = 0.2, 0.8, 1e-6
    for (n_heads, depth), readout in itertools.product(
            [(1, 1), (2, 2), (3, 2), (2, 3)], READOUTS):
        _, _, labels, q, phi, shape = _setup(
            rng, n_ex=4, n_heads=n_heads, depth=depth, n_hidden=3, readout=readout)
        _, g = log_posterior(q, shape, phi, labels, t, sigma2)
        assert g.shape == q.shape
        for i in range(len(q)):
            up, dn = q.copy(), q.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (log_posterior(up, shape, phi, labels, t, sigma2)[0]
                  - log_posterior(dn, shape, phi, labels, t, sigma2)[0]) / (2 * eps)
            assert abs(fd - g[i]) <= 1e-5 * (1 + abs(g[i])), (n_heads, depth, readout, i)


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


def test_run_hmc_two_dimensional_gaussian():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    prec = np.linalg.inv(cov)

    def logp_and_grad(q):
        d = q - mean
        return -0.5 * float(d @ prec @ d), -prec @ d

    config = HmcConfig(n_hidden=1, temperature=1.0, n_chains=4, n_warmup=300,
                       n_samples=1500, thin=1, n_leapfrog=16, step_size=0.2, seed=0)
    rng = np.random.default_rng(1)
    q0s = [rng.standard_normal(2) for _ in range(4)]
    results = run_hmc(logp_and_grad, q0s, config)
    samples = np.concatenate([r.samples for r in results])
    assert samples.shape == (4 * 1500, 2)
    assert np.max(np.abs(samples.mean(axis=0) - mean)) <= 0.05
    assert np.max(np.abs(np.cov(samples.T) - cov)) <= 0.25
    for r in results:
        assert 0.5 <= r.acceptance <= 1.0
        assert r.step_size > 0


def test_run_hmc_deterministic():
    def logp_and_grad(q):
        return -0.5 * float(q @ q), -q

    config = HmcConfig(n_hidden=1, temperature=1.0, n_chains=2, n_warmup=50,
                       n_samples=100, thin=2, seed=7)
    q0s = [np.zeros(3), np.ones(3)]
    a = run_hmc(logp_and_grad, q0s, config)
    b = run_hmc(logp_and_grad, q0s, config)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.samples, rb.samples)
        assert ra.acceptance == rb.acceptance
    # chains use distinct substreams
    assert not np.array_equal(a[0].samples[-1], a[1].samples[-1])


def test_run_hmc_evaluates_each_trajectory_point_once():
    # one evaluation at each chain's start, then one per leapfrog step: the
    # start of a trajectory reuses the end of the last accepted one
    calls = []

    def logp_and_grad(q):
        calls.append(1)
        return -0.5 * float(q @ q), -q

    config = HmcConfig(n_hidden=1, temperature=1.0, n_chains=3, n_warmup=7, n_samples=5,
                       thin=1, n_leapfrog=4, step_size=0.3, seed=2)
    results = run_hmc(logp_and_grad, [np.full(2, float(i)) for i in range(3)], config)
    assert len(calls) == 3 * (1 + (7 + 5) * 4)
    # the carried density is the current point's, after accepts and rejects alike
    for r in results:
        for q, u in zip(r.samples, r.potentials):
            assert u == 0.5 * float(q @ q)


def test_run_hmc_large_energy_drop_raises_no_overflow_warning():
    # from q0 = 100 one unit step lowers the energy by about 940, beyond where
    # exp(-delta) overflows; the proposal is simply accepted
    def logp_and_grad(q):
        return -0.5 * float(q @ q), -q

    config = HmcConfig(n_hidden=1, temperature=1.0, n_chains=1, n_warmup=0, n_samples=1,
                       thin=1, n_leapfrog=1, step_size=1.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (result,) = run_hmc(logp_and_grad, [np.array([100.0])], config)
    assert result.acceptance == 1.0
    assert result.divergences == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergences_counted_and_position_held():
    # an enormous fixed step explodes every trajectory; all proposals are
    # rejected as divergent and the chain never moves
    def logp_and_grad(q):
        return -0.5 * float(q @ q), -q

    config = HmcConfig(n_hidden=1, temperature=1.0, n_chains=1, n_warmup=0,
                       n_samples=20, thin=1, n_leapfrog=8, step_size=1e10, seed=3)
    q0 = np.array([0.5, -0.5])
    (result,) = run_hmc(logp_and_grad, [q0], config)
    assert result.divergences == 20
    assert result.acceptance == 0.0
    assert result.step_size == 1e10  # no warmup, no adaptation
    assert np.all(result.samples == q0)


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
        calls.append((q.copy(), p.copy()))
        return leapfrog(logp_and_grad, q, p, grad, step_size, n_steps)

    monkeypatch.setattr(sampler_mod, "leapfrog", recording_leapfrog)
    rng = np.random.default_rng(11)
    tokens, logits, labels, readout = _task(rng, n_ex=2)
    config = HmcConfig(n_hidden=2, n_chains=2, n_warmup=0, n_samples=1, thin=1,
                       prior_only=True, seed=3)
    hmc_sample(tokens, labels, logits, readout, config)
    q, p = calls[0]
    assert not np.allclose(q, p)


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
    config = HmcConfig(n_hidden=n_hidden)
    return [weight_parts(q, *shape) for q in samples], PosteriorSamples(
        samples=samples,
        n_hidden=n_hidden, width=width, depth=depth, n_heads=n_heads,
        acceptance=np.ones(1), divergences=np.zeros(1, dtype=int),
        step_sizes=np.full(1, 0.01), potentials=np.zeros(n_draws), config=config)


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
            assert np.allclose(rows[i], effective_weights(w, path), atol=1e-12)


def test_empirical_order_parameter_oracle():
    rng = np.random.default_rng(9)
    draws, post = _manual_samples(rng)
    want = np.zeros((4, 4))
    for w in draws:
        veff = np.stack([effective_weights(w, p) for p in path_heads(2, 2).T])
        want += veff @ veff.T / post.n_hidden
    want /= len(draws)
    got, per = empirical_order_parameter(post, return_samples=True)
    assert np.allclose(got, want, atol=1e-12)
    assert per.shape == (3, 4, 4)
    assert np.allclose(per.mean(axis=0), got, atol=1e-12)


def test_empirical_predictor_oracle():
    rng = np.random.default_rng(10)
    draws, post = _manual_samples(rng)
    tokens = rng.standard_normal((5, 4, 3))
    logits = rng.standard_normal((2, 2, 4, 4))
    readout = Readout.token(0)
    means, variances = empirical_predictor(post, tokens, logits, readout)
    omegas = attention_stack_batch(tokens, logits)
    outs = np.array([[network_output(tokens[mu], w, omegas[mu], readout)
                      for mu in range(5)] for w in draws])
    assert np.allclose(means, outs.mean(axis=0), atol=1e-10)
    assert np.allclose(variances, outs.var(axis=0), atol=1e-10)


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
