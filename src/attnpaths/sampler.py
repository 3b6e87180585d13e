"""Posterior sampling over network weights with Hamiltonian Monte Carlo.

The Gibbs posterior over all weights Theta = (V0, {V_lh}, a) is

    log p(Theta) = -(1/2T) sum_mu (f(x_mu; Theta) - y_mu)^2 - (1/2 sigma^2) |Theta|^2

up to a constant; attention matrices are fixed by the (frozen) logits, so
only the linear-value path is sampled, and the output is exactly linear in
the path features Phi (kernel.path_features), computed once per training set:

    f = (H^L N)^(-1/2) sum_pi (Veff_pi @ V0) . Phi_pi

The log posterior and its analytic gradient run in this path space, through
a product tree over layers for the effective rows Veff, never through the
layerwise network.  The sampler is plain fixed-length leapfrog HMC with identity
mass and dual-averaging step-size adaptation during warmup (target acceptance
0.8); a proposal whose energy error exceeds the divergence threshold is
rejected and counted.  Chains are independent and start at prior draws.  They
run in lockstep: every chain takes the same number of leapfrog steps, so each
step evaluates the log posterior of all chains in one batched call, and each
chain's draws are bit-identical to those of a run of that chain alone.
Streams are spawned from one root seed: the first n_chains substreams drive
the chains (momenta and accept tests), the next n_chains draw the initial
points, so no chain's momenta repeat its own starting point.

The sampled order parameter is the empirical second moment of the per-path
effective weights, U_est[pi, pi'] = (1/N) < Veff_pi . Veff_pi' >_samples,
which converges to sigma^(2(L+1)) delta_{pi pi'} under the prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import PathFeatureMatrix, path_features
from .model import Readout, attention_stack_batch, weight_count, weight_parts

TARGET_ACCEPT = 0.8
MAX_ENERGY_ERROR = 1000.0


@dataclass(frozen=True)
class HmcConfig:
    n_hidden: int
    temperature: float = 0.01
    sigma2: float = 1.0
    n_chains: int = 10
    n_warmup: int = 1000
    n_samples: int = 1000
    thin: int = 10
    n_leapfrog: int = 32
    step_size: float = 0.01
    prior_only: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_hidden < 1:
            raise ValueError(f"n_hidden must be >= 1, got {self.n_hidden}")
        if self.temperature <= 0 and not self.prior_only:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        if min(self.n_chains, self.n_samples, self.thin, self.n_leapfrog) < 1 or self.n_warmup < 0:
            raise ValueError("invalid sampler sizes")
        if self.thin > self.n_samples:
            raise ValueError("thin exceeds n_samples: no draws would be kept")
        if self.step_size <= 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")


def _row_tree(readout: np.ndarray, values: np.ndarray) -> list:
    """Levels of the effective-row product tree; level k is a @ V_L @ ... @ V_{L-k+1}
    for every head suffix, (..., H^k, N) in canonical order, so the last level is
    N^(L/2) Veff.  readout is (..., N) and values (..., L, H, N, N)."""
    levels = [readout[..., None, :]]
    for layer in reversed(range(values.shape[-4])):
        nxt = np.matmul(levels[-1][..., None, :, :], values[..., layer, :, :, :])
        levels.append(nxt.reshape(*nxt.shape[:-3], -1, nxt.shape[-1]))
    return levels


def log_posterior(q: np.ndarray, shape: tuple, phi: np.ndarray | None, labels: np.ndarray,
                  temperature: float, sigma2: float = 1.0):
    """Gibbs log posterior (up to a constant) and its gradient, on flat weights.

    q is (..., D): one weight vector or a batch of them (one per chain), and the
    log posterior has q's leading shape.  shape is (n_hidden, width, depth,
    n_heads) of the flattened weights.  phi holds the training path features
    flattened to (H^L * width, P); with phi None the likelihood is off and only
    the Gaussian prior remains.  Each row's value and gradient are bit-identical
    to a call on that row alone: sums run over each row's trailing axes, and
    the products with phi are stacked matrix-vector products, never one GEMM
    across rows, whose blocking would move the last bits.
    """
    v0, values, readout = weight_parts(q, *shape)
    # summed part by part, in a fixed order: warmup's step-size adaptation
    # amplifies a last-bit change in the potential into a different chain
    logp = -0.5 * (np.sum(v0**2, axis=(-2, -1)) + np.sum(values**2, axis=(-4, -3, -2, -1))
                   + np.sum(readout**2, axis=-1)) / sigma2
    grad = -q / sigma2
    if phi is None:
        return logp, grad
    n, width, depth, n_heads = shape
    levels = _row_tree(readout, values)
    scale = (n_heads**depth * n ** (depth + 1)) ** -0.5
    rows = (levels[-1] @ v0).reshape(*q.shape[:-1], 1, -1)
    resid = scale * (rows @ phi)[..., 0, :] - labels
    logp -= 0.5 * np.vecdot(resid, resid) / temperature
    # d logp / d(rows @ v0), then back through v0 and the tree
    d_m = (-scale / temperature) * (phi @ resid[..., None]).reshape(*q.shape[:-1], -1, width)
    g_v0, g_values, g_readout = weight_parts(grad, *shape)
    g_v0 += levels[-1].swapaxes(-1, -2) @ d_m
    d_rows = d_m @ v0.swapaxes(-1, -2)
    for layer in range(depth):
        d3 = d_rows.reshape(*d_rows.shape[:-2], n_heads, -1, n)
        level_t = levels[depth - 1 - layer].swapaxes(-1, -2)[..., None, :, :]
        g_values[..., layer, :, :, :] += level_t @ d3
        d_rows = np.matmul(d3, values[..., layer, :, :, :].swapaxes(-1, -2)).sum(axis=-3)
    g_readout += d_rows[..., 0, :]
    return logp, grad


def leapfrog(logp_and_grad, q: np.ndarray, p: np.ndarray, grad: np.ndarray,
             step_size: float | np.ndarray, n_steps: int):
    """Standard leapfrog for H = -logp(q) + |p|^2/2; time-reversible.

    logp_and_grad(q) returns the log density and its gradient, and grad is that
    gradient at the start point q.  q and p are (C, D) for C chains advanced
    together, with step_size a (C, 1) column of per-chain steps, or one point
    with a scalar step.  Each step evaluates the density once; the result is
    (q, p, logp, grad) at the end point.
    """
    q = q.copy()
    p = p + 0.5 * step_size * grad
    for i in range(n_steps):
        q += step_size * p
        logp, grad = logp_and_grad(q)
        if i < n_steps - 1:
            p += step_size * grad
        else:
            p += 0.5 * step_size * grad
    return q, p, logp, grad


@dataclass
class _Chains:
    """Per-chain results of run_hmc, chain along the first axis."""

    samples: np.ndarray  # (C, n_kept, D)
    potentials: np.ndarray  # (C, n_kept)
    acceptance: np.ndarray
    divergences: np.ndarray
    step_sizes: np.ndarray


def run_hmc(logp_and_grad, q0: np.ndarray, config: HmcConfig) -> _Chains:
    """Independent chains from the initial points q0 (C, D), advanced in lockstep.

    logp_and_grad maps a (C, D) batch to its (C,) log densities and (C, D)
    gradients, row by row.  Every chain runs the same number of leapfrog steps,
    so each step makes one batched density call.  Momenta and accept draws come
    from per-chain seed substreams, and step-size adaptation, the accept test
    and the divergence test run on each chain's own scalars, so a chain's draws
    do not depend on the chains beside it.
    """
    n_chains = len(q0)
    rngs = np.random.default_rng(config.seed).spawn(n_chains)
    q = np.array(q0, dtype=float)
    logp, grad = logp_and_grad(q)
    p0 = np.empty_like(q)

    # dual averaging constants (gamma, t0, kappa as in the standard scheme)
    gamma, t0, kappa = 0.05, 10.0, 0.75
    mu = np.log(10.0 * config.step_size)
    log_eps = [np.log(config.step_size)] * n_chains
    log_eps_bar = list(log_eps)
    h_bar = [0.0] * n_chains

    n_kept = config.n_samples // config.thin
    samples = np.empty((n_chains, n_kept, q.shape[1]))
    potentials = np.empty((n_chains, n_kept))
    n_accept = [0] * n_chains
    n_diverge = [0] * n_chains
    kept = 0
    for it in range(1, config.n_warmup + config.n_samples + 1):
        warming = it <= config.n_warmup
        # exp one chain at a time: an array exp may take a vector path with other bits
        eps = np.array([[float(np.exp(x))] for x in (log_eps if warming else log_eps_bar)])
        for rng, row in zip(rngs, p0):
            rng.standard_normal(out=row)
        h0 = -logp + 0.5 * np.vecdot(p0, p0)
        # overflow in an exploding trajectory is caught by the divergence check
        with np.errstate(over="ignore", invalid="ignore"):
            q_new, p_new, logp_new, grad_new = leapfrog(logp_and_grad, q, p0, grad, eps,
                                                        config.n_leapfrog)
            delta = (-logp_new + 0.5 * np.vecdot(p_new, p_new) - h0).tolist()
        accept = np.zeros(n_chains, dtype=bool)
        for c, rng in enumerate(rngs):
            diverged = not np.isfinite(delta[c]) or delta[c] > MAX_ENERGY_ERROR
            # min(1, exp(-delta)) without exp overflowing when the energy drops
            # by more than 709
            accept_prob = 0.0 if diverged else float(np.exp(min(0.0, -delta[c])))
            if diverged:
                n_diverge[c] += 1
            elif rng.random() < accept_prob:
                accept[c] = True
                if not warming:
                    n_accept[c] += 1
            if warming:
                h_bar[c] = ((1.0 - 1.0 / (it + t0)) * h_bar[c]
                            + (TARGET_ACCEPT - accept_prob) / (it + t0))
                log_eps[c] = mu - np.sqrt(it) / gamma * h_bar[c]
                eta = it**-kappa
                log_eps_bar[c] = eta * log_eps[c] + (1.0 - eta) * log_eps_bar[c]
        q[accept] = q_new[accept]
        logp[accept] = logp_new[accept]
        grad[accept] = grad_new[accept]
        if not warming and (it - config.n_warmup) % config.thin == 0:
            samples[:, kept] = q
            potentials[:, kept] = -logp
            kept += 1
    return _Chains(
        samples=samples, potentials=potentials,
        acceptance=np.array(n_accept) / config.n_samples, divergences=np.array(n_diverge),
        step_sizes=np.array([float(np.exp(x)) if config.n_warmup > 0 else config.step_size
                             for x in log_eps_bar]),
    )


@dataclass
class PosteriorSamples:
    """Kept posterior draws (flattened weights) with per-chain diagnostics."""

    samples: np.ndarray
    n_hidden: int
    width: int
    depth: int
    n_heads: int
    acceptance: np.ndarray
    divergences: np.ndarray
    step_sizes: np.ndarray
    potentials: np.ndarray

    @property
    def n_kept(self) -> int:
        return self.samples.shape[0]

    def parts(self):
        """(v0, values, readout) of every kept draw, stacked along a leading axis."""
        return weight_parts(self.samples, self.n_hidden, self.width, self.depth, self.n_heads)


def hmc_sample(tokens: np.ndarray, labels: np.ndarray, logits: np.ndarray,
               readout: Readout, config: HmcConfig) -> PosteriorSamples:
    """Sample the weight posterior on the given training set.

    tokens: (P, width, T).  Attention matrices and path features are computed
    once from the logits and stay fixed; with prior_only the likelihood is
    switched off (the infinite-temperature limit), no attention or features
    are computed, and tokens are only used for shapes.
    """
    tokens = np.asarray(tokens, dtype=float)
    labels = np.asarray(labels, dtype=float)
    depth, n_heads = np.shape(logits)[:2]
    width = tokens.shape[1]
    n = config.n_hidden
    shape = (n, width, depth, n_heads)
    phi = None
    if not config.prior_only:
        layers, read = attention_stack_batch(tokens, logits, readout)
        phi = path_features(tokens, layers, read).reshape(-1, len(tokens))

    def logp_and_grad(q):
        return log_posterior(q, shape, phi, labels, config.temperature, config.sigma2)

    root = np.random.default_rng(config.seed)
    root.spawn(config.n_chains)  # the chain streams, which run_hmc spawns again
    q0 = np.empty((config.n_chains, weight_count(*shape)))
    for r, row in zip(root.spawn(config.n_chains), q0):
        row[:] = np.sqrt(config.sigma2) * r.standard_normal(len(row))
    chains = run_hmc(logp_and_grad, q0, config)
    return PosteriorSamples(
        samples=chains.samples.reshape(-1, q0.shape[1]),
        n_hidden=n, width=width, depth=depth, n_heads=n_heads,
        acceptance=chains.acceptance, divergences=chains.divergences,
        step_sizes=chains.step_sizes, potentials=chains.potentials.ravel(),
    )


def empirical_order_parameter(samples: PosteriorSamples, return_samples: bool = False):
    """U_est[pi, pi'] = (1/N) mean over samples of Veff_pi . Veff_pi'."""
    _, values, readout = samples.parts()
    rows = _row_tree(readout, values)[-1]
    per = rows @ rows.transpose(0, 2, 1) / samples.n_hidden ** (samples.depth + 1)
    u_est = per.mean(axis=0)
    if return_samples:
        return u_est, per
    return u_est


def empirical_predictor(samples: PosteriorSamples, features: PathFeatureMatrix):
    """Posterior mean and variance of the output on new examples, all draws at
    once; features are the examples' in-memory path features (compute_features)."""
    phi = features.values.reshape(-1, features.n_examples)
    v0, values, a = samples.parts()
    m = _row_tree(a, values)[-1] @ v0
    scale = (samples.n_heads**samples.depth * samples.n_hidden ** (samples.depth + 1)) ** -0.5
    outs = scale * (m.reshape(samples.n_kept, -1) @ phi)
    return outs.mean(axis=0), outs.var(axis=0)
