"""Acceptance suite: one test per shipped guarantee, one pass/fail line each.

The first block covers closed-form and property guarantees (GP fixed point,
gradients, forward equivalence, ridge oracle).  The hidden-chain block pins a
seeded task instance (dataset seed 100, attention seed 9) and checks the
headline numbers: good-path accuracy, chance-level lone random paths, the
renormalized-vs-GP gap with adversarial-path suppression, sampler agreement,
and prior moments.  The last block checks kernel invariants and pruning
determinism.  Full module runtime is a few minutes, dominated by the sampler
agreement run.
"""

import numpy as np
import pytest

from attnpaths.data import HmcTaskConfig, build_hmc_attention, gen_hmc_dataset
from attnpaths.kernel import PathFeatureMatrix, compute_features, kernel_task_alignment, total_kernel
from attnpaths.model import (
    Readout,
    weight_count,
    weight_parts,
)
from attnpaths.analysis import head_scores, prune_heads
from attnpaths.predictor import evaluate_predictor
from attnpaths.sampler import (
    HmcConfig,
    empirical_order_parameter,
    empirical_predictor,
    hmc_sample,
)
from attnpaths.solver import (
    OrderParameterSet,
    SolverConfig,
    action,
    action_gradient,
    solve_saddle,
)
from oracles import attention_stack_einsum, forward_layerwise, shipped_output

READOUT = Readout.token(1)
TEMPERATURE = 0.01


def _report(num, label, ok, detail):
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{label}]: {detail}"


def _random_features(rng, n_heads, depth, width=5, n_ex=8):
    n_paths = n_heads**depth
    return PathFeatureMatrix(
        values=rng.standard_normal((n_paths, width, n_ex)) / np.sqrt(width),
        n_train=n_ex, n_heads=n_heads, depth=depth)


def _one_path_u(flat, n_paths=4):
    """U of a network that keeps one path, renormalized: its kernel is Phi[flat].T @ Phi[flat]."""
    u = np.zeros((n_paths, n_paths))
    u[flat, flat] = n_paths
    return u


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


@pytest.fixture(scope="module")
def hmc_instance():
    """The pinned hidden-chain instance: P=100 train, 1000 test."""
    task = HmcTaskConfig()
    ds = gen_hmc_dataset(task, seed=100)
    logits = build_hmc_attention(task, n_heads=2, depth=2, seed=9)
    feats = compute_features(ds.tokens, logits, READOUT, ds.n_train)
    return ds, logits, feats


@pytest.fixture(scope="module")
def solved_instance(hmc_instance):
    """The saddle point of the pinned instance at alpha = P/N = 10."""
    ds, _, feats = hmc_instance
    config = SolverConfig(alpha=10.0, temperature=TEMPERATURE, seed=0)
    params, trace = solve_saddle(feats, ds.train_labels.astype(float), config)
    return params, trace


def test_criterion_01_gp_fixed_point():
    rng = np.random.default_rng(0)
    worst_dev = 0.0
    worst_grad = 0.0
    for n_heads, depth in ((2, 2), (4, 2), (3, 3)):
        feats = _random_features(rng, n_heads, depth, n_ex=6)
        y = rng.choice([-1.0, 1.0], size=6)
        config = SolverConfig(alpha=0.0, temperature=0.1, seed=0)
        params, trace = solve_saddle(feats, y, config)
        assert trace.converged
        worst_dev = max(worst_dev, float(np.max(np.abs(params.u1 - np.eye(n_heads**depth)))))
        gp = OrderParameterSet.gp_solution(n_heads, depth)
        grads = action_gradient(gp, feats, y, config)
        worst_grad = max(worst_grad, max(float(np.max(np.abs(g))) for g in grads))
    ok = worst_dev <= 1e-4 and worst_grad <= 1e-8
    _report(1, "GP fixed point", ok,
            f"max |U1 - I| = {worst_dev:.3g}, stationarity grad = {worst_grad:.3g}")


def test_criterion_02_gradient_finite_differences():
    rng = np.random.default_rng(1)
    feats = _random_features(rng, 2, 2, width=5, n_ex=8)
    y = rng.choice([-1.0, 1.0], size=8)
    config = SolverConfig(alpha=2.0, temperature=0.15, sigma2=0.9)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        mats = [_spd(rng, 4), _spd(rng, 2), _spd(rng, 1)]
        params = OrderParameterSet(matrices=mats, n_heads=2, depth=2)
        grads = action_gradient(params, feats, y, config)
        for lvl, g in enumerate(grads):
            n = g.shape[0]
            for i in range(n):
                for j in range(n):
                    up = [m.copy() for m in mats]
                    dn = [m.copy() for m in mats]
                    up[lvl][i, j] += eps
                    dn[lvl][i, j] -= eps
                    s_up = action(OrderParameterSet(up, 2, 2), feats, y, config)
                    s_dn = action(OrderParameterSet(dn, 2, 2), feats, y, config)
                    fd = (s_up - s_dn) / (2 * eps)
                    worst = max(worst, abs(fd - g[i, j]) / (1 + abs(g[i, j])))
    ok = worst <= 1e-5
    _report(2, "gradient vs finite differences", ok,
            f"worst relative error {worst:.3g} over 20 SPD points")


def test_criterion_03_path_layer_equivalence():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 4))
        n_heads = int(rng.integers(1, 4))
        width = int(rng.integers(2, 6))
        n_hidden = int(rng.integers(2, 5))
        n_tokens = int(rng.integers(2, 5))
        logits = rng.standard_normal((depth, n_heads, width, width))
        x0 = rng.standard_normal((width, n_tokens))
        omegas = attention_stack_einsum(x0[None], logits)[0]
        shape = (n_hidden, width, depth, n_heads)
        q = rng.standard_normal(weight_count(*shape))
        readout = Readout.token(int(rng.integers(0, n_tokens)))
        # the path sum pipeline and sample run, against the layer recursion
        a = shipped_output(x0, q, shape, logits, readout)
        b = forward_layerwise(x0, weight_parts(q, *shape), omegas, readout)
        worst = max(worst, abs(a - b) / max(1e-30, abs(a)))
    ok = worst <= 1e-10
    _report(3, "path/layer forward equivalence", ok,
            f"worst relative gap {worst:.3g} over 100 instances")


def test_criterion_04_good_path_gp_accuracy(hmc_instance):
    ds, _, feats = hmc_instance
    report = evaluate_predictor(_one_path_u(0), feats, ds.train_labels.astype(float),
                                ds.test_indices, ds.test_labels, TEMPERATURE)
    ok = 0.91 <= report.accuracy <= 0.97
    _report(4, "good-path GP accuracy", ok,
            f"accuracy {report.accuracy:.3f}, band 0.94 +- 0.03")


def test_criterion_05_lone_random_paths_chance_level(hmc_instance):
    ds, _, feats = hmc_instance
    accs = []
    for flat in (1, 2, 3):
        report = evaluate_predictor(_one_path_u(flat), feats, ds.train_labels.astype(float),
                                    ds.test_indices, ds.test_labels, TEMPERATURE)
        accs.append(report.accuracy)
    ok = all(0.46 <= a <= 0.54 for a in accs)
    _report(5, "lone non-good paths at chance", ok,
            "accuracies " + ", ".join(f"{a:.3f}" for a in accs) + ", band 0.50 +- 0.04")


def test_criterion_06_renormalized_beats_gp_and_suppresses_adversarial(
        hmc_instance, solved_instance):
    ds, _, feats = hmc_instance
    params, trace = solved_instance
    y = ds.train_labels.astype(float)
    renorm = evaluate_predictor(params.u1, feats, y, ds.test_indices,
                                ds.test_labels, TEMPERATURE)
    gp = evaluate_predictor(np.eye(4), feats, y, ds.test_indices,
                            ds.test_labels, TEMPERATURE)
    # paths with a random layer-2 head are the adversarial ones here
    good_diag = params.u1[0, 0]
    adv_fracs = [params.u1[f, f] / good_diag for f in (1, 3)]
    ok = renorm.accuracy > gp.accuracy and all(f < 0.25 for f in adv_fracs)
    _report(6, "renormalized vs GP with suppression", ok,
            f"renormalized {renorm.accuracy:.3f} vs GP {gp.accuracy:.3f}; "
            f"adversarial diagonals at {adv_fracs[0]:.1%} and {adv_fracs[1]:.1%} of good")


def test_criterion_07_kernel_ridge_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        feats = PathFeatureMatrix(
            values=rng.standard_normal((4, 6, 26)) / np.sqrt(6),
            n_train=20, n_heads=2, depth=2)
        u1 = _spd(rng, 4)
        y = rng.choice([-1.0, 1.0], size=20)
        t = 0.1
        k = total_kernel(u1, feats)
        means = evaluate_predictor(u1, feats, y, np.arange(20, 26), np.ones(6), t).means
        ridge = k[20:, :20] @ np.linalg.solve(k[:20, :20] + t * np.eye(20), y)
        worst = max(worst, float(np.max(np.abs(means - ridge))
                                 / max(1e-30, np.max(np.abs(ridge)))))
    ok = worst <= 1e-8
    _report(7, "kernel ridge oracle", ok,
            f"worst relative deviation {worst:.3g} on P=20 instances")


def test_criterion_08_sampler_theory_agreement():
    task = HmcTaskConfig(n_train=50, n_test=100)
    ds = gen_hmc_dataset(task, seed=100)
    logits = build_hmc_attention(task, n_heads=2, depth=2, seed=9)
    feats = compute_features(ds.tokens, logits, READOUT, ds.n_train)
    y = ds.train_labels.astype(float)

    solver = SolverConfig(alpha=5.0, temperature=TEMPERATURE, seed=0)
    params, _ = solve_saddle(feats, y, solver)

    hmc = HmcConfig(n_hidden=10, temperature=TEMPERATURE, n_chains=2,
                    n_warmup=200, n_samples=200, thin=5, seed=3)
    post = hmc_sample(ds.tokens[:50], y, logits, READOUT, hmc)
    u_est = empirical_order_parameter(post)

    # compare signs on the off-diagonals the theory calls significant
    off = np.abs(params.u1.copy())
    np.fill_diagonal(off, 0.0)
    threshold = 0.25 * off.max()
    sig = [(i, j) for i in range(4) for j in range(i + 1, 4) if off[i, j] >= threshold]
    signs_ok = all(np.sign(u_est[i, j]) == np.sign(params.u1[i, j]) for i, j in sig)

    theory = evaluate_predictor(params.u1, feats, y, ds.test_indices,
                                ds.test_labels, TEMPERATURE).means
    sampled, _ = empirical_predictor(post, compute_features(ds.tokens[50:], logits, READOUT, 0))
    corr = float(np.corrcoef(theory, sampled)[0, 1])
    ok = signs_ok and corr >= 0.95
    _report(8, "sampler vs theory", ok,
            f"sign match on {len(sig)} significant off-diagonals: {signs_ok}; "
            f"predictor correlation {corr:.3f} over 100 test points")


def test_criterion_09_prior_moment_sanity():
    rng = np.random.default_rng(4)
    tokens = rng.standard_normal((2, 20, 5))
    logits = rng.standard_normal((2, 2, 20, 20))
    labels = np.array([1.0, -1.0])
    config = HmcConfig(n_hidden=10, temperature=TEMPERATURE, n_chains=2,
                       n_warmup=100, n_samples=500, thin=1, prior_only=True, seed=4)
    post = hmc_sample(tokens, labels, logits, READOUT, config)
    _, per = empirical_order_parameter(post, return_samples=True)
    n_batches = 10
    batch = per.reshape(n_batches, -1, 4, 4).mean(axis=1)
    se = batch.std(axis=0, ddof=1) / np.sqrt(n_batches)
    dev = float(np.max(np.abs(per.mean(axis=0) - np.eye(4)) / se))
    ok = dev <= 3.0
    _report(9, "prior moments", ok,
            f"max deviation from identity {dev:.2f} batch-means standard errors")


def test_criterion_10_psd_and_alignment_invariants(hmc_instance, solved_instance):
    ds, _, feats = hmc_instance
    params, _ = solved_instance
    y = ds.train_labels.astype(float)
    worst_eig = 0.0
    for u1 in (params.u1, np.eye(4)):
        k = total_kernel(u1, feats.train())
        evals = np.linalg.eigvalsh(k)
        worst_eig = max(worst_eig, float(-evals.min() / max(1e-300, evals.max())))
    k_solved = total_kernel(params.u1, feats.train())
    _, overlaps = kernel_task_alignment(k_solved, y)
    parseval = float(abs((overlaps**2).sum() - 1.0))
    ok = worst_eig <= 1e-8 and parseval <= 1e-8
    _report(10, "PSD and alignment invariants", ok,
            f"worst negative-eigenvalue fraction {worst_eig:.3g}, "
            f"|sum overlaps^2 - 1| = {parseval:.3g}")


def test_criterion_11_pruning_determinism():
    rng = np.random.default_rng(5)
    feats = _random_features(rng, 2, 2, width=5, n_ex=12)
    feats = PathFeatureMatrix(values=feats.values, n_train=8, n_heads=2, depth=2)
    y = rng.choice([-1.0, 1.0], size=8)
    eval_idx = np.arange(8, 12)
    eval_labels = rng.choice([-1, 1], size=4)
    config = SolverConfig(alpha=2.0, temperature=0.1, seed=0)

    def run_once():
        params, _ = solve_saddle(feats, y, config)
        full = evaluate_predictor(params.u1, feats, y, eval_idx, eval_labels, 0.1)
        keep = np.ones((2, 2), dtype=bool)
        noop = prune_heads(params.u1, feats, y, keep, eval_idx, eval_labels, 0.1)
        weakest = np.argmin(head_scores(params.u1, 2, 2), axis=1)
        keep[np.arange(2), weakest] = False
        order = [(layer + 1, int(head)) for layer, head in enumerate(weakest)]
        pruned = prune_heads(params.u1, feats, y, keep, eval_idx, eval_labels, 0.1)
        return full, noop, order, pruned

    full_a, noop_a, order_a, pruned_a = run_once()
    full_b, noop_b, order_b, pruned_b = run_once()
    noop_identity = (np.array_equal(noop_a.means, full_a.means)
                     and np.array_equal(noop_a.variances, full_a.variances)
                     and noop_a.accuracy == full_a.accuracy)
    reproducible = (order_a == order_b
                    and np.array_equal(pruned_a.means, pruned_b.means)
                    and np.array_equal(pruned_a.variances, pruned_b.variances)
                    and np.array_equal(noop_a.means, noop_b.means))
    ok = noop_identity and reproducible
    _report(11, "pruning determinism", ok,
            f"no-op identity: {noop_identity}; ordered rerun identical: {reproducible} "
            f"(removed {order_a})")
