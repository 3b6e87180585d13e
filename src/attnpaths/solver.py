"""Saddle-point solver for the path-pair order parameters.

The posterior order parameters U^(1), ..., U^(L+1) (sizes H^L down to 1)
minimize the action

    S = Lterm(U^(L+1)) + sum_{l=1..L} Lterm(U^(l) @ Uext^(l+1)^-1) + alpha * E(U^(1))

with Lterm(M) = sigma^-2 tr(M) - ln det M, Uext the Kronecker lift of the next
level's order parameter, alpha = P/N, and the energy

    E(U) = (1/P) ln det(K + T I) + (1/P) Y^T (K + T I)^-1 Y

built from the training-block total kernel K.  At alpha = 0 the unique minimum
is the Gaussian-process point U^(l) = sigma^(2(L+2-l)) I.

Minimization works on square factors U = F F^T, every entry free (Burer &
Monteiro, Math. Programming 95, 2003); a finite action needs every level
positive definite, so every accepted iterate is.  The factors of all levels
are flattened into one vector and minimized by limited-memory BFGS (Nocedal &
Wright, Numerical Optimization, 2nd ed., Alg. 7.4-7.5) with a backtracking
Armijo line search (Alg. 3.1); the action is smooth in these parameters and
has no bounds.  Gradients are analytic.  Each positive-definite matrix an
evaluation reads (every level, and K + T I) is factored once by Cholesky and
inverted once from that factor (pd_inverse); every solve is a product with
that inverse.

solve_saddle builds the path-pair Gram once, with one GEMM; each evaluation
then forms the training kernel and dE/dU1 as matrix-vector products with it.
Above GRAM_MAX_DOUBLES the Gram is not built and evaluations contract the
features directly, as action and action_gradient always do (one evaluation
never repays the Gram).  Everything here runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import PathFeatureMatrix, path_pair_gram, total_kernel

# Largest path-pair Gram (H^(2L) * P^2 doubles, 64 MiB) a solve builds; above
# it each evaluation contracts the O(H^L * width * P) features instead.
GRAM_MAX_DOUBLES = 2**23

# convergence threshold on the U-space gradient inf-norm, relative to
# 1 + |action|, and the scale of the seeded noise on the starting factors
TOLERANCE = 1e-7
JITTER = 1e-3

# L-BFGS correction pairs kept, trial steps per line search (each half the
# last), and the Armijo constant of sufficient decrease
LBFGS_MEMORY = 10
LINE_SEARCH_TRIALS = 20
ARMIJO_C1 = 1e-4


class SolverFailure(RuntimeError):
    """Raised when no usable saddle point can be produced."""


@dataclass
class OrderParameterSet:
    """The solved hierarchy: matrices[i] is U^(i+1) of size H^(L-i), down to 1x1."""

    matrices: list
    n_heads: int
    depth: int

    def __post_init__(self):
        self.matrices = [np.asarray(m, dtype=float) for m in self.matrices]
        if self.n_heads < 1 or self.depth < 1:
            raise ValueError(f"need n_heads >= 1 and depth >= 1, got {self.n_heads}, {self.depth}")
        if len(self.matrices) != self.depth + 1:
            raise ValueError(f"need {self.depth + 1} levels, got {len(self.matrices)}")
        for i, m in enumerate(self.matrices):
            want = self.n_heads ** (self.depth - i)
            if m.shape != (want, want):
                raise ValueError(f"level {i + 1} must be {want}x{want}, got {m.shape}")

    @property
    def u1(self) -> np.ndarray:
        return self.matrices[0]

    @classmethod
    def gp_solution(cls, n_heads: int, depth: int, sigma2: float = 1.0) -> "OrderParameterSet":
        """The alpha = 0 fixed point U^(l) = sigma^(2(L+2-l)) I."""
        mats = [sigma2 ** (depth + 1 - i) * np.eye(n_heads ** (depth - i)) for i in range(depth + 1)]
        return cls(matrices=mats, n_heads=n_heads, depth=depth)


@dataclass
class SolverConfig:
    alpha: float
    temperature: float
    sigma2: float = 1.0
    max_iter: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class SolveTrace:
    """One row per accepted iterate, the starting point first; n_iter rows in all.

    n_eval counts action+gradient evaluations, line-search trial points included.
    """

    actions: np.ndarray
    entropies: np.ndarray
    energies: np.ndarray
    grad_norms: np.ndarray
    converged: bool
    n_iter: int
    n_eval: int


def pd_inverse(m: np.ndarray) -> tuple[np.ndarray, float]:
    """(m^-1, ln det m) of a symmetric positive-definite m from one Cholesky
    factor c: ln det from its diagonal, and c^-T c^-1 symmetrized, so the
    inverse is exactly symmetric.  np.linalg.LinAlgError if m is not PD."""
    c = np.linalg.cholesky(m)
    c_inv = np.linalg.inv(c)
    inv = c_inv.T @ c_inv
    return 0.5 * (inv + inv.T), 2.0 * float(np.sum(np.log(np.diag(c))))


def _block_trace(m: np.ndarray, n_blocks: int) -> np.ndarray:
    """Sum of the n_blocks diagonal blocks of a (n_blocks*b, n_blocks*b) matrix."""
    b = m.shape[0] // n_blocks
    out = np.zeros((b, b))
    for h in range(n_blocks):
        out += m[h * b : (h + 1) * b, h * b : (h + 1) * b]
    return out


def _action_pieces(mats: list, features: PathFeatureMatrix, y: np.ndarray,
                   config: SolverConfig, gram: np.ndarray | None = None):
    """Action, entropy, energy and per-level gradients.

    Each level is read through its symmetric part, so the action is invariant
    under U -> (U + U^T)/2 and the gradients (symmetric by construction) match
    entry-wise central finite differences of the action at any point.  gram,
    when given, is path_pair_gram(features) and the kernel is read from it;
    otherwise the features are contracted directly.
    """
    s2inv = 1.0 / config.sigma2
    depth = len(mats) - 1
    mats = [0.5 * (m + m.T) for m in mats]
    grads = [np.zeros_like(m) for m in mats]
    # each level factored and inverted once; np.linalg.LinAlgError on non-PD
    # input is the domain error.  Level 0's inverse serves only the gradient.
    invs, logdets = zip(*(pd_inverse(m) for m in mats))

    top = mats[-1]
    entropy = s2inv * float(np.trace(top)) - logdets[-1]
    grads[-1] += s2inv * np.eye(top.shape[0]) - invs[-1]

    for i in range(depth):
        u = mats[i]
        n_heads_lift = u.shape[0] // mats[i + 1].shape[0]
        e_inv = np.kron(np.eye(n_heads_lift), invs[i + 1])
        entropy += (s2inv * float(np.sum(u * e_inv)) - logdets[i]
                    + n_heads_lift * logdets[i + 1])
        grads[i] += s2inv * e_inv - invs[i]
        full = -s2inv * (e_inv @ u @ e_inv) + e_inv
        grads[i + 1] += _block_trace(full, n_heads_lift)

    p = features.n_examples
    if gram is None:
        k = total_kernel(mats[0], features)
    else:
        k = (mats[0].ravel() @ gram.reshape(-1, p * p)).reshape(p, p)
        k = 0.5 * (k + k.T)
    m_inv, logdet_m = pd_inverse(k + config.temperature * np.eye(p))
    alpha_vec = m_inv @ y
    energy = (logdet_m + float(y @ alpha_vec)) / p
    if config.alpha != 0.0:
        g_k = (m_inv - np.outer(alpha_vec, alpha_vec)) / p
        if gram is None:
            lifted = np.einsum("mn,bin->bim", g_k, features.values, optimize=True)
            g_u = np.einsum("aim,bim->ab", features.values, lifted, optimize=True) / features.n_paths
        else:
            g_u = (gram.reshape(-1, p * p) @ g_k.ravel()).reshape(mats[0].shape)
        grads[0] += config.alpha * g_u

    act = entropy + config.alpha * energy
    return act, entropy, energy, grads


def action(params: OrderParameterSet, features: PathFeatureMatrix, y: np.ndarray,
           config: SolverConfig) -> float:
    """The order-parameter action over the examples in `features`."""
    y = np.asarray(y, dtype=float)
    act, _, _, _ = _action_pieces(params.matrices, features, y, config)
    return act


def action_gradient(params: OrderParameterSet, features: PathFeatureMatrix, y: np.ndarray,
                    config: SolverConfig) -> list:
    """Entry-wise gradient of the action at each level, same shapes as params."""
    y = np.asarray(y, dtype=float)
    _, _, _, grads = _action_pieces(params.matrices, features, y, config)
    return grads


def _start_factors(n_heads: int, depth: int, config: SolverConfig,
                   rng: np.random.Generator) -> list:
    """Square roots of the GP point's (diagonal) levels plus seeded noise of
    scale JITTER, drawn level by level."""
    gp = OrderParameterSet.gp_solution(n_heads, depth, config.sigma2)
    return [np.sqrt(u) + JITTER * rng.standard_normal(u.shape) for u in gp.matrices]


def _grad_inf_norm(grads: list) -> float:
    return max(float(np.max(np.abs(g))) for g in grads)


def _split(x: np.ndarray, sizes: list) -> list:
    """The square per-level factors packed one after another in x."""
    ends = np.cumsum([n * n for n in sizes])
    return [x[end - n * n : end].reshape(n, n) for end, n in zip(ends, sizes)]


def _evaluate(x: np.ndarray, sizes: list, features: PathFeatureMatrix, y: np.ndarray,
              config: SolverConfig, gram: np.ndarray | None):
    """The action at the flat factors x, or None where it is not finite.

    Returns ((action, entropy, energy, U-space gradient inf-norm), U levels,
    gradient with respect to x).
    """
    factors = _split(x, sizes)
    mats = [f @ f.T for f in factors]
    try:
        act, ent, ene, grads = _action_pieces(mats, features, y, config, gram)
    except np.linalg.LinAlgError:
        # factors blew up or collapsed past float precision
        return None
    gmax = _grad_inf_norm(grads)
    if not np.isfinite(act) or not np.isfinite(gmax):
        return None
    # chain rule through U = F F^T: dS/dF = (g + g^T) F
    flat = np.concatenate([((g + g.T) @ f).ravel() for g, f in zip(grads, factors)])
    return (act, ent, ene, gmax), mats, flat


def _lbfgs_direction(grad: np.ndarray, pairs: list) -> np.ndarray:
    """-H grad by the two-loop recursion (Nocedal & Wright Alg. 7.4).

    pairs holds (s, y, 1 / s.y) oldest first; the initial H is (s.y / y.y) I
    from the newest pair, or I when there is none.
    """
    q = grad.copy()
    coeffs = []
    for s, y, rho in reversed(pairs):
        coeffs.append(rho * (s @ q))
        q -= coeffs[-1] * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), coeff in zip(pairs, reversed(coeffs)):
        q += (coeff - rho * (y @ q)) * s
    return -q


def solve_saddle(features: PathFeatureMatrix, y: np.ndarray,
                 config: SolverConfig) -> tuple[OrderParameterSet, SolveTrace]:
    """Minimize the action; returns the order parameters and the full trace.

    Starts at the GP fixed point plus seeded noise of scale JITTER on the
    factors and runs L-BFGS over the flattened factors.  It stops at the first
    iterate whose U-space action gradient infinity norm is at most
    TOLERANCE * (1 + |action|), after max_iter iterates, or when
    LINE_SEARCH_TRIALS halvings find no sufficient decrease (a trial point
    where the action is not finite, or not below the last, counts as none),
    so accepted actions strictly decrease.  converged reports the
    gradient test at the returned iterate, which is the last one accepted.  A
    starting point where the action is not finite raises SolverFailure.
    Identical (features, y, config) reruns are bit-identical.
    """
    y = np.asarray(y, dtype=float)
    feats = features.train()
    if feats.n_examples < 1:
        raise ValueError("need at least one training example")
    if y.shape != (feats.n_examples,):
        raise ValueError(f"labels must have shape ({feats.n_examples},), got {y.shape}")

    fits = (feats.n_paths * feats.n_examples) ** 2 <= GRAM_MAX_DOUBLES
    gram = path_pair_gram(feats) if fits else None
    factors = _start_factors(features.n_heads, features.depth, config,
                             np.random.default_rng(config.seed))
    sizes = [f.shape[0] for f in factors]
    x = np.concatenate([f.ravel() for f in factors])
    point = _evaluate(x, sizes, feats, y, config, gram)
    if point is None:
        raise SolverFailure("the action is not finite at the starting point")
    n_eval = 1

    def converged(point):
        act, _, _, gmax = point[0]
        return gmax <= TOLERANCE * (1.0 + abs(act))

    rows = [point[0]]  # the trace scalars of each accepted iterate, all a solve keeps of it
    pairs = []
    while not converged(point) and len(rows) < config.max_iter:
        grad = point[2]
        direction = _lbfgs_direction(grad, pairs)
        if grad @ direction >= 0:
            # rounding in the pairs cost descent; start over from steepest descent
            pairs, direction = [], -grad

        # without pairs H = I sets no scale, so the first trial step has unit length
        step = 1.0 if pairs else 1.0 / float(np.linalg.norm(direction))
        f0, slope0 = point[0][0], float(grad @ direction)
        for _ in range(LINE_SEARCH_TRIALS):
            n_eval += 1
            x_new = x + step * direction
            got = _evaluate(x_new, sizes, feats, y, config, gram)
            # Armijo alone accepts an equal action once its decrease term is
            # below half an ulp of the action
            if got is not None and got[0][0] < f0 and got[0][0] <= f0 + ARMIJO_C1 * step * slope0:
                break
            step *= 0.5
        else:
            break
        point = got
        s, dy = x_new - x, point[2] - grad
        sy = float(s @ dy)
        if sy > 0:
            pairs = (pairs + [(s, dy, 1.0 / sy)])[-LBFGS_MEMORY:]
        x = x_new
        rows.append(point[0])

    rows = np.array(rows)
    params = OrderParameterSet(matrices=point[1], n_heads=features.n_heads, depth=features.depth)
    trace = SolveTrace(
        actions=rows[:, 0], entropies=rows[:, 1], energies=rows[:, 2], grad_norms=rows[:, 3],
        converged=converged(point), n_iter=len(rows), n_eval=n_eval,
    )
    return params, trace


def solve_or_gp(features: PathFeatureMatrix, y: np.ndarray, config: SolverConfig, *, solve):
    """The order parameters a predictor reads, and the solve's trace.

    alpha alone picks the route: at alpha = 0 the GP closed form is the
    minimum, it stands in for the solve and the trace is None.  Otherwise
    solve(features, y, config) runs; callers pass the solve_saddle they import,
    so a patched or wrapped solve_saddle in their module is the one that runs.
    """
    if config.alpha == 0.0:
        return OrderParameterSet.gp_solution(features.n_heads, features.depth, config.sigma2), None
    return solve(features, y, config)
