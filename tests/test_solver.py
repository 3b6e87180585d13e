import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import attnpaths.solver as solver_mod
from attnpaths.data import HmcTaskConfig, build_hmc_attention, gen_hmc_dataset
from attnpaths.kernel import PathFeatureMatrix, compute_features, path_pair_gram, total_kernel
from attnpaths.model import Readout
from attnpaths.paths import path_heads
from attnpaths.solver import (
    OrderParameterSet,
    SolverConfig,
    SolverFailure,
    SolveTrace,
    action,
    action_gradient,
    solve_saddle,
)


def _features(rng, n_heads, depth, width=5, n_ex=8, n_train=None):
    n_train = n_ex if n_train is None else n_train
    n_paths = n_heads**depth
    return PathFeatureMatrix(
        values=rng.standard_normal((n_paths, width, n_ex)) / np.sqrt(width),
        n_train=n_train, n_heads=n_heads, depth=depth)


def _labels(rng, p):
    return rng.choice([-1.0, 1.0], size=p)


def _spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def _energy(u1, features, y, temperature):
    """The energy term that _action_pieces computes at U^(1) = u1, the other
    levels at their GP values, which the energy does not read."""
    mats = OrderParameterSet.gp_solution(features.n_heads, features.depth).matrices
    config = SolverConfig(alpha=1.0, temperature=temperature)
    return solver_mod._action_pieces([u1] + mats[1:], features, y, config)[2]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), log_cond=st.floats(0.0, 8.0), log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_pd_inverse_matches_numpy_property(n, log_cond, log_scale, seed):
    # a random symmetric positive-definite matrix with eigenvalues spread over
    # log_cond decades; both results are backward stable, so they may differ
    # by n eps cond(m) in the inverse and by n eps (cond(m) + |ln det m|) in
    # ln det, each times 8 (measured worst over 5000 draws: 1.7 and 0.83)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = 10.0 ** (log_scale + rng.uniform(0.0, log_cond, n))
    m = (q * eigs) @ q.T
    m = 0.5 * (m + m.T)
    eps, cond = np.finfo(float).eps, np.linalg.cond(m)
    inv, logdet = solver_mod.pd_inverse(m)
    want = np.linalg.inv(m)
    assert np.abs(inv - want).max() <= 8 * n * eps * cond * np.abs(want).max()
    sign, want_logdet = np.linalg.slogdet(m)
    assert sign == 1.0
    assert abs(logdet - want_logdet) <= 8 * n * eps * (cond + abs(want_logdet))
    assert np.array_equal(inv, inv.T)
    # one eigenvalue turned negative, far beyond the rounding of the others
    eigs[rng.integers(n)] *= -1.0
    bad = (q * eigs) @ q.T
    with pytest.raises(np.linalg.LinAlgError):
        solver_mod.pd_inverse(0.5 * (bad + bad.T))


def test_energy_term_explicit_inverse_oracle():
    rng = np.random.default_rng(2)
    feats = _features(rng, 2, 2, n_ex=6)
    y = _labels(rng, 6)
    u1 = _spd(rng, 4)
    t = 0.07
    k = total_kernel(u1, feats)
    m = k + t * np.eye(6)
    want = (np.linalg.slogdet(m)[1] + y @ np.linalg.solve(m, y)) / 6
    got = _energy(u1, feats, y, t)
    assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_energy_term_zero_kernel_closed_form():
    # zero features kill the kernel: energy = ln T + 1/T for +-1 labels
    rng = np.random.default_rng(3)
    feats = PathFeatureMatrix(values=np.zeros((2, 5, 5)), n_train=5, n_heads=2, depth=1)
    y = _labels(rng, 5)
    for t in (0.01, 0.5, 2.0):
        got = _energy(np.eye(2), feats, y, t)
        assert abs(got - (np.log(t) + 1.0 / t)) <= 1e-10


def test_energy_term_scaled_identity_kernel_closed_form():
    # features chosen so the kernel is exactly c * I
    p, width, c = 4, 6, 2.5
    values = np.zeros((1, width, p))
    values[0, :p, :p] = np.sqrt(c) * np.eye(p)
    feats = PathFeatureMatrix(values=values, n_train=p, n_heads=1, depth=1)
    y = np.array([1.0, -1.0, 1.0, 1.0])
    u, t = 1.7, 0.3
    want = np.log(u * c + t) + 1.0 / (u * c + t)
    assert abs(_energy(u * np.eye(1), feats, y, t) - want) <= 1e-12


def test_gp_solution_levels():
    gp = OrderParameterSet.gp_solution(2, 2, sigma2=1.0)
    assert [m.shape[0] for m in gp.matrices] == [4, 2, 1]
    for m in gp.matrices:
        assert np.array_equal(m, np.eye(m.shape[0]))
    gp2 = OrderParameterSet.gp_solution(3, 1, sigma2=2.0)
    assert np.array_equal(gp2.matrices[0], 4.0 * np.eye(3))
    assert np.array_equal(gp2.matrices[1], 2.0 * np.eye(1))
    assert np.array_equal(gp2.u1, gp2.matrices[0])


def test_order_parameter_set_validation():
    with pytest.raises(ValueError):
        OrderParameterSet(matrices=[np.eye(4), np.eye(2)], n_heads=2, depth=2)
    with pytest.raises(ValueError):
        OrderParameterSet(matrices=[np.eye(3), np.eye(2), np.eye(1)], n_heads=2, depth=2)
    # the level sides match, but no writer makes a network without heads or layers
    for mats, n_heads, depth in (([np.eye(0), np.eye(1)], 0, 1), ([np.eye(1)], 2, 0)):
        with pytest.raises(ValueError, match="need n_heads >= 1 and depth >= 1"):
            OrderParameterSet(matrices=mats, n_heads=n_heads, depth=depth)


def _entropy(m, sigma2):
    """Lterm(M) = tr(M) / sigma^2 - ln det M; M need not be symmetric, but its
    determinant must be positive."""
    sign, logdet = np.linalg.slogdet(m)
    assert sign > 0
    return np.trace(m) / sigma2 - logdet


def _lift(u_next, n_heads, depth):
    """U_ext[a, b] = delta_{h_a h_b} U_next[j_a, j_b] over depth-head partial
    paths a = (h_a, j_a), entry by entry from path_heads."""
    heads = path_heads(n_heads, depth)
    rest = n_heads ** np.arange(depth - 2, -1, -1) @ heads[1:]
    n = heads.shape[1]
    ext = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if heads[0, a] == heads[0, b]:
                ext[a, b] = u_next[rest[a], rest[b]]
    return ext


def test_action_term_by_term_oracle():
    # the action rebuilt from its definition: entropy terms by slogdet over the
    # level chain, each lift entry by entry, and the energy by slogdet and solve
    rng = np.random.default_rng(5)
    for n_heads, depth in [(2, 2), (3, 2), (2, 3), (1, 1)]:
        feats = _features(rng, n_heads, depth, n_ex=6)
        y = _labels(rng, 6)
        config = SolverConfig(alpha=1.3, temperature=0.2, sigma2=1.4)
        mats = [_spd(rng, n_heads ** (depth - i)) for i in range(depth + 1)]
        params = OrderParameterSet(matrices=mats, n_heads=n_heads, depth=depth)
        want = _entropy(mats[-1], config.sigma2)
        for i in range(depth):
            ext = _lift(mats[i + 1], n_heads, depth - i)
            want += _entropy(mats[i] @ np.linalg.inv(ext), config.sigma2)
        m = total_kernel(mats[0], feats) + config.temperature * np.eye(6)
        want += config.alpha * (np.linalg.slogdet(m)[1] + y @ np.linalg.solve(m, y)) / 6
        got = action(params, feats, y, config)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_action_gp_point_alpha_zero_counts_dimensions():
    # at sigma = 1 and alpha = 0 the GP point gives exactly sum of level sizes
    rng = np.random.default_rng(6)
    for n_heads, depth in [(2, 2), (3, 2), (2, 3)]:
        feats = _features(rng, n_heads, depth, n_ex=4)
        y = _labels(rng, 4)
        config = SolverConfig(alpha=0.0, temperature=0.1, sigma2=1.0)
        gp = OrderParameterSet.gp_solution(n_heads, depth)
        want = sum(n_heads ** (depth - i) for i in range(depth + 1))
        assert abs(action(gp, feats, y, config) - want) <= 1e-10


def test_action_invariant_under_symmetrization():
    rng = np.random.default_rng(7)
    feats = _features(rng, 2, 2, n_ex=5)
    y = _labels(rng, 5)
    config = SolverConfig(alpha=0.7, temperature=0.3)
    mats = [_spd(rng, 4), _spd(rng, 2), _spd(rng, 1)]
    skew = [m + 0.1 * (lambda s: s - s.T)(rng.standard_normal(m.shape)) for m in mats]
    p_skew = OrderParameterSet(matrices=skew, n_heads=2, depth=2)
    p_sym = OrderParameterSet(matrices=[0.5 * (m + m.T) for m in skew], n_heads=2, depth=2)
    assert abs(action(p_skew, feats, y, config) - action(p_sym, feats, y, config)) <= 1e-12


def _fd_check(params, feats, y, config, eps=1e-5):
    """Worst relative error of central differences against the analytic gradient."""
    grads = action_gradient(params, feats, y, config)
    worst = 0.0
    for lvl, g in enumerate(grads):
        n = g.shape[0]
        for i in range(n):
            for j in range(n):
                up = [m.copy() for m in params.matrices]
                dn = [m.copy() for m in params.matrices]
                up[lvl][i, j] += eps
                dn[lvl][i, j] -= eps
                s_up = action(OrderParameterSet(up, params.n_heads, params.depth), feats, y, config)
                s_dn = action(OrderParameterSet(dn, params.n_heads, params.depth), feats, y, config)
                fd = (s_up - s_dn) / (2 * eps)
                worst = max(worst, abs(fd - g[i, j]) / (1 + abs(g[i, j])))
    return worst


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for n_heads, depth in [(1, 1), (2, 2)]:
        feats = _features(rng, n_heads, depth, n_ex=5)
        y = _labels(rng, 5)
        config = SolverConfig(alpha=2.0, temperature=0.15, sigma2=0.8)
        for _ in range(3):
            mats = [_spd(rng, n_heads ** (depth - i)) for i in range(depth + 1)]
            params = OrderParameterSet(matrices=mats, n_heads=n_heads, depth=depth)
            worst = _fd_check(params, feats, y, config)
            assert worst <= 1e-5


def test_gradient_zero_at_gp_point_alpha_zero():
    rng = np.random.default_rng(9)
    for n_heads, depth, sigma2 in [(2, 2, 1.0), (3, 2, 1.0), (2, 2, 1.7)]:
        feats = _features(rng, n_heads, depth, n_ex=4)
        y = _labels(rng, 4)
        config = SolverConfig(alpha=0.0, temperature=0.1, sigma2=sigma2)
        gp = OrderParameterSet.gp_solution(n_heads, depth, sigma2)
        grads = action_gradient(gp, feats, y, config)
        assert max(np.max(np.abs(g)) for g in grads) <= 1e-8


def test_solve_alpha_zero_recovers_gp_point():
    rng = np.random.default_rng(10)
    feats = _features(rng, 2, 2, n_ex=8)
    y = _labels(rng, 8)
    config = SolverConfig(alpha=0.0, temperature=0.1, seed=1)
    params, trace = solve_saddle(feats, y, config)
    assert trace.converged
    gp = OrderParameterSet.gp_solution(2, 2)
    for got, want in zip(params.matrices, gp.matrices):
        assert np.max(np.abs(got - want)) <= 1e-4


def test_solve_one_head_one_layer_grid_oracle():
    # H=1, L=1: stationarity in u2 gives u2 = sqrt(u1) exactly, so the solved
    # u1 must match the minimizer of the restricted one-variable action on a
    # fine log grid
    rng = np.random.default_rng(11)
    p, width = 4, 6
    feats = _features(rng, 1, 1, width=width, n_ex=p)
    y = _labels(rng, p)
    config = SolverConfig(alpha=3.0, temperature=0.2, seed=2)
    params, trace = solve_saddle(feats, y, config)
    assert trace.converged
    u1_solved = float(params.u1[0, 0])
    u2_solved = float(params.matrices[1][0, 0])
    assert abs(u2_solved - np.sqrt(u1_solved)) <= 1e-4 * (1 + np.sqrt(u1_solved))

    gram = feats.values[0].T @ feats.values[0]
    grid = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 20001))

    def restricted(u1):
        u2 = np.sqrt(u1)
        ent = u2 - np.log(u2) + u1 / u2 - np.log(u1 / u2)
        m = u1 * gram + config.temperature * np.eye(p)
        ene = (np.linalg.slogdet(m)[1] + y @ np.linalg.solve(m, y)) / p
        return ent + config.alpha * ene

    vals = np.array([restricted(u) for u in grid])
    u_star = grid[np.argmin(vals)]
    assert abs(u1_solved - u_star) <= 1e-3 * u_star


def test_solve_trace_consistency():
    rng = np.random.default_rng(12)
    feats = _features(rng, 2, 2, n_ex=6)
    y = _labels(rng, 6)
    config = SolverConfig(alpha=1.0, temperature=0.1, seed=3)
    params, trace = solve_saddle(feats, y, config)
    assert isinstance(trace, SolveTrace)
    assert trace.n_iter == len(trace.actions)
    assert np.allclose(trace.actions, trace.entropies + config.alpha * trace.energies,
                       atol=1e-10)
    assert trace.actions[-1] <= trace.actions[0]
    if trace.converged:
        assert trace.grad_norms[-1] <= solver_mod.TOLERANCE * (1 + abs(trace.actions[-1]))
    # the returned matrices are symmetric positive definite
    for m in params.matrices:
        assert np.allclose(m, m.T, atol=1e-12)
        assert np.linalg.eigvalsh(m).min() > 0


def test_solve_deterministic_reruns():
    rng = np.random.default_rng(13)
    feats = _features(rng, 2, 2, n_ex=6)
    y = _labels(rng, 6)
    config = SolverConfig(alpha=1.0, temperature=0.1, seed=4, max_iter=500)
    p1, t1 = solve_saddle(feats, y, config)
    p2, t2 = solve_saddle(feats, y, config)
    for a, b in zip(p1.matrices, p2.matrices):
        assert np.array_equal(a, b)
    assert np.array_equal(t1.actions, t2.actions)


def test_solve_head_permutation_equivariance(monkeypatch):
    # relabeling layer-1 heads permutes u1 by blocks; with zero jitter the
    # whole optimization is equivariant
    monkeypatch.setattr(solver_mod, "JITTER", 0.0)
    rng = np.random.default_rng(14)
    n_heads, depth, p = 2, 2, 6
    feats = _features(rng, n_heads, depth, n_ex=p)
    y = _labels(rng, p)
    config = SolverConfig(alpha=2.0, temperature=0.1, seed=5)
    params, _ = solve_saddle(feats, y, config)

    # swapping the layer-1 head swaps the leading flat digit: rows (0,1,2,3) -> (2,3,0,1)
    perm = np.array([2, 3, 0, 1])
    feats_perm = PathFeatureMatrix(values=feats.values[perm], n_train=p,
                                   n_heads=n_heads, depth=depth)
    params_perm, _ = solve_saddle(feats_perm, y, config)
    want = params.u1[np.ix_(perm, perm)]
    assert np.max(np.abs(params_perm.u1 - want)) <= 1e-6


def test_solve_nonfinite_action_raises_solver_failure(monkeypatch):
    rng = np.random.default_rng(15)
    feats = _features(rng, 2, 1, n_ex=4)
    y = _labels(rng, 4)
    config = SolverConfig(alpha=1.0, temperature=0.1)
    nan_feats = PathFeatureMatrix(values=np.full_like(feats.values, np.nan), n_train=4,
                                  n_heads=2, depth=1)
    with pytest.raises(SolverFailure):
        solve_saddle(nan_feats, y, config)

    # a finite input whose kernel turns non-finite, on the Gram route and on
    # the fallback that contracts the features at each evaluation
    monkeypatch.setattr(solver_mod, "path_pair_gram",
                        lambda features: np.full_like(path_pair_gram(features), np.nan))
    with pytest.raises(SolverFailure):
        solve_saddle(feats, y, config)

    monkeypatch.setattr(solver_mod, "GRAM_MAX_DOUBLES", 0)
    monkeypatch.setattr(solver_mod, "total_kernel",
                        lambda u1, features: np.full_like(total_kernel(u1, features), np.nan))
    with pytest.raises(SolverFailure):
        solve_saddle(feats, y, config)


@settings(max_examples=25, deadline=None)
@given(n_heads=st.integers(1, 3), depth=st.integers(1, 2), p=st.integers(1, 9),
       width=st.integers(1, 6), pruned=st.booleans(), seed=st.integers(0, 2**16))
def test_gram_route_matches_feature_contraction_property(n_heads, depth, p, width, pruned, seed):
    # the path-pair Gram and the direct contraction give the same action and
    # gradients, also with pruned paths and a nonsymmetric U
    rng = np.random.default_rng(seed)
    feats = _features(rng, n_heads, depth, width=width, n_ex=p + 2, n_train=p)
    n_paths = feats.n_paths
    if pruned and n_paths > 1:
        # pruned paths keep their rows, as zeros
        n_keep = int(rng.integers(1, n_paths))
        values = feats.values.copy()
        values[rng.choice(n_paths, size=n_paths - n_keep, replace=False)] = 0.0
        feats = PathFeatureMatrix(values=values, n_train=p, n_heads=n_heads, depth=depth)
    train = feats.train()
    y = _labels(rng, p)
    config = SolverConfig(alpha=1.7, temperature=0.3, sigma2=1.2)
    mats = [_spd(rng, n_heads ** (depth - i)) for i in range(depth + 1)]
    mats[0] = mats[0] + 0.3 * rng.standard_normal(mats[0].shape)
    direct = solver_mod._action_pieces(mats, train, y, config)
    via_gram = solver_mod._action_pieces(mats, train, y, config, path_pair_gram(feats))
    assert via_gram[0] == pytest.approx(direct[0], rel=1e-12, abs=1e-12)
    for got, want in zip(via_gram[3], direct[3]):
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def test_solve_gram_and_fallback_agree(monkeypatch):
    rng = np.random.default_rng(19)
    feats = _features(rng, 2, 2, n_ex=10, n_train=8)
    y = _labels(rng, 8)
    config = SolverConfig(alpha=2.0, temperature=0.1)
    params, trace = solve_saddle(feats, y, config)
    monkeypatch.setattr(solver_mod, "path_pair_gram", None)   # must not be reached
    monkeypatch.setattr(solver_mod, "GRAM_MAX_DOUBLES", 0)
    params_fb, trace_fb = solve_saddle(feats, y, config)
    assert trace.converged and trace_fb.converged
    assert trace.n_iter == trace_fb.n_iter
    assert np.max(np.abs(params.u1 - params_fb.u1)) <= 1e-10 * np.max(np.abs(params.u1))


def test_solve_seeds_agree():
    # the action has one minimum here: every jittered start reaches the same U1
    rng = np.random.default_rng(16)
    feats = _features(rng, 2, 2, n_ex=8)
    y = _labels(rng, 8)
    solved = []
    for seed in range(4):
        params, trace = solve_saddle(feats, y, SolverConfig(alpha=2.0, temperature=0.1, seed=seed))
        assert trace.converged
        solved.append(params.u1)
    for u1 in solved[1:]:
        assert np.max(np.abs(u1 - solved[0])) <= 1e-5


def test_solve_max_iter_caps_iterates():
    rng = np.random.default_rng(17)
    feats = _features(rng, 2, 2, n_ex=8)
    y = _labels(rng, 8)
    for max_iter in (1, 2, 3):
        config = SolverConfig(alpha=2.0, temperature=0.1, max_iter=max_iter)
        _, trace = solve_saddle(feats, y, config)
        assert not trace.converged
        assert trace.n_iter == len(trace.actions) == max_iter
        assert trace.n_eval >= trace.n_iter


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=-1.0, temperature=0.1)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0, temperature=0.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0, temperature=0.1, sigma2=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0, temperature=0.1, max_iter=0)


def test_solve_input_validation():
    rng = np.random.default_rng(18)
    feats = _features(rng, 2, 1, n_ex=4)
    config = SolverConfig(alpha=0.0, temperature=0.1)
    with pytest.raises(ValueError):
        solve_saddle(feats, np.ones(3), config)
    empty = PathFeatureMatrix(values=feats.values, n_train=0, n_heads=2, depth=1)
    with pytest.raises(ValueError):
        solve_saddle(empty, np.ones(0), config)


def _scipy_solve(features, y, config):
    """The final (action, U1, converged) of scipy's L-BFGS-B on the same objective,
    from the same start, stopped by the same gradient test."""
    from scipy.optimize import minimize

    train = features.train()
    gram = path_pair_gram(train)
    raws = solver_mod._init_raws(features.n_heads, features.depth, config,
                                 np.random.default_rng(config.seed))
    sizes = [r.shape[0] for r in raws]
    x0 = np.concatenate([r.ravel() for r in raws])

    def evaluate(x):
        return solver_mod._evaluate(x, sizes, train, y, config, gram)

    def objective(x):
        point = evaluate(x)
        return (np.inf, np.zeros_like(x)) if point is None else (point[0][0], point[2])

    def converged(point):
        act, _, _, gmax = point[0]
        return gmax <= solver_mod.TOLERANCE * (1.0 + abs(act))

    last = [evaluate(x0)]

    def accept(intermediate_result):
        last.append(evaluate(intermediate_result.x))
        if converged(last[-1]):
            raise StopIteration

    minimize(objective, x0, jac=True, method="L-BFGS-B", callback=accept,
             options={"maxiter": config.max_iter, "maxfun": 20 * config.max_iter,
                      "ftol": 0.0, "gtol": 0.0})
    return last[-1][0][0], last[-1][1][0], converged(last[-1])


@pytest.mark.parametrize("data_seed, attention_seed, n_heads", [
    (0, 0, 2),     # the default pipeline's instance
    (100, 9, 2),   # the acceptance suite's criterion-6 instance
    (0, 0, 4),
], ids=["pinned", "criterion-6", "four-heads"])
def test_solve_matches_scipy_lbfgsb(data_seed, attention_seed, n_heads):
    task = HmcTaskConfig()
    ds = gen_hmc_dataset(task, seed=data_seed)
    logits = build_hmc_attention(task, n_heads=n_heads, depth=2, seed=attention_seed)
    # the solve reads the training block only
    feats = compute_features(ds.tokens[: ds.n_train], logits, Readout.token(1), ds.n_train)
    y = ds.train_labels.astype(float)
    config = SolverConfig(alpha=ds.n_train / 10, temperature=0.01, seed=0)
    params, trace = solve_saddle(feats, y, config)
    want_action, want_u1, want_converged = _scipy_solve(feats, y, config)
    assert trace.converged and want_converged
    assert abs(trace.actions[-1] - want_action) <= 1e-9 * abs(want_action)
    assert np.max(np.abs(params.u1 - want_u1)) <= 1e-5 * np.max(np.abs(want_u1))


def test_solve_never_accepts_a_nonfinite_trial_point(monkeypatch):
    # the action turns non-finite past a distance from the start that the
    # minimum lies beyond: line searches shorten their steps, and the solve
    # ends at an accepted iterate inside without raising
    rng = np.random.default_rng(20)
    feats = _features(rng, 2, 2, n_ex=8)
    y = _labels(rng, 8)
    config = SolverConfig(alpha=2.0, temperature=0.1, max_iter=300)
    free, _ = solve_saddle(feats, y, config)
    radius = 0.5 * np.max(np.abs(free.u1 - np.eye(4)))
    pieces = solver_mod._action_pieces
    refused = []

    def walled(mats, *args):
        act, ent, ene, grads = pieces(mats, *args)
        if np.max(np.abs(mats[0] - np.eye(4))) > radius:
            refused.append(act)
            act = np.nan
        return act, ent, ene, grads

    monkeypatch.setattr(solver_mod, "_action_pieces", walled)
    params, trace = solve_saddle(feats, y, config)
    assert refused and trace.n_iter > 2
    assert np.all(np.isfinite(trace.actions))
    assert np.all(np.diff(trace.actions) < 0)
    assert np.max(np.abs(params.u1 - np.eye(4))) <= radius
    assert not trace.converged
    assert trace.n_eval >= trace.n_iter + len(refused)


def test_solve_stops_when_no_trial_lowers_the_action(monkeypatch):
    # every trial point past the start has a non-finite action: the one line
    # search spends all its halvings, and the solve returns the start
    rng = np.random.default_rng(21)
    feats = _features(rng, 2, 2, n_ex=8)
    y = _labels(rng, 8)
    pieces = solver_mod._action_pieces
    seen = []

    def start_only(mats, *args):
        act, ent, ene, grads = pieces(mats, *args)
        seen.append(mats)
        return (act if len(seen) == 1 else np.nan), ent, ene, grads

    monkeypatch.setattr(solver_mod, "_action_pieces", start_only)
    params, trace = solve_saddle(feats, y, SolverConfig(alpha=2.0, temperature=0.1))
    assert trace.n_iter == 1 and not trace.converged
    assert trace.n_eval == len(seen) == 1 + solver_mod.LINE_SEARCH_TRIALS
    for got, want in zip(params.matrices, seen[0]):
        assert np.array_equal(got, want)


def test_solve_memory_does_not_grow_with_its_iterations(monkeypatch):
    # a solve keeps the four trace scalars of each accepted iterate and drops
    # its U levels and gradient: at H = 4, L = 3 those are about 70 KB per
    # iterate, and the peak is the same after 10 and 50 iterations
    rng = np.random.default_rng(22)
    feats = _features(rng, 4, 3, n_ex=8)
    y = _labels(rng, 8)
    monkeypatch.setattr(solver_mod, "TOLERANCE", 0.0)  # run to max_iter
    peaks = []
    for max_iter in (10, 50):
        tracemalloc.start()
        try:
            _, trace = solve_saddle(feats, y, SolverConfig(alpha=5.0, temperature=0.1,
                                                           max_iter=max_iter))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert trace.n_iter == max_iter
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024


@settings(max_examples=25, deadline=None)
@given(n_heads=st.integers(1, 3), depth=st.integers(1, 2), p=st.integers(2, 8),
       alpha=st.floats(0.1, 10.0), temperature=st.floats(0.01, 1.0),
       seed=st.integers(0, 2**16))
# Armijo alone accepts two steps of this solve that leave the action unchanged
@example(n_heads=2, depth=2, p=2, alpha=8.0, temperature=0.01171875, seed=19133)
def test_solve_invariants_property(n_heads, depth, p, alpha, temperature, seed):
    rng = np.random.default_rng(seed)
    feats = _features(rng, n_heads, depth, n_ex=p)
    y = _labels(rng, p)
    config = SolverConfig(alpha=alpha, temperature=temperature, seed=seed, max_iter=400)
    params, trace = solve_saddle(feats, y, config)
    assert np.all(np.diff(trace.actions) < 0)
    assert trace.n_eval >= trace.n_iter == len(trace.actions)
    if trace.converged:
        # the returned iterate passes the gradient test, also recomputed
        # through the feature contraction in place of the Gram
        act = trace.actions[-1]
        assert trace.grad_norms[-1] <= solver_mod.TOLERANCE * (1 + abs(act))
        assert action(params, feats, y, config) == pytest.approx(act, rel=1e-10, abs=1e-10)
        gmax = max(np.max(np.abs(g)) for g in action_gradient(params, feats, y, config))
        assert gmax <= 1.01 * solver_mod.TOLERANCE * (1 + abs(act))
    for m in params.matrices:
        assert np.allclose(m, m.T, atol=1e-12)
        assert np.linalg.eigvalsh(m).min() > 0
