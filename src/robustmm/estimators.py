"""S and MM estimators for regression and location.

The joint estimate theta = (xi_S, xi_MM, sigma) solves three stacked
score equations: the MM score equation at the fixed S-scale, the S score
equation, and the M-scale equation. The S stage minimizes the M-scale of
the residuals over elemental-subsample candidates; the MM stage descends
the bounded loss objective at the fixed scale from the S solution. Both
refine by one loop, ``_descend``: reweighted least squares with step
halving. At its IRWLS_MAX_ITER cap an S refinement reports itself
unconverged, while the MM stage raises ConvergenceError.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ConvergenceError, DomainError, FitError
from .model import (AugmentedParam, Dataset, RegressionModel,
                    augmented_grad_rows, location_model, residuals)
from .mscale import (DECIDE_TOL, SCALE_MAX_ITER, SCALE_TOL, _loss_eval, _mean_loss,
                     _mscale_batch, _mscale_scalar, mscale, mscale_objective)
from .rho import (DEFAULT_DELTA, DEFAULT_K0, DEFAULT_K1, RhoFunction,
                  bisquare, verify_r1)

__all__ = ["FitConfig", "FitResult", "fit", "fit_s", "fit_mm", "fit_location"]

#: scale ties below this are broken by parameter norm, then candidate index
TIE_TOL = 1e-12
MAX_HALVINGS = 30
#: scale-reweighted passes over all candidates before ranking them
REFINE_STEPS = 2
#: best-ranked candidates refined to full tolerance
N_BEST = 5
#: relative parameter step that ends a full S refinement or the MM stage
IRWLS_TOL = 1e-10
#: iteration cap of a full S refinement and of the MM stage
IRWLS_MAX_ITER = 200
#: elements per block of the quick refine's weights and normal equations
STEP_BLOCK_POINTS = 2 ** 17


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the joint S/MM fit.

    The search constants (REFINE_STEPS, N_BEST, IRWLS_TOL,
    IRWLS_MAX_ITER) are fixed by the algorithm, not configured here.
    ``rho0`` drives the M-scale and the S stage; ``rho1`` drives the MM
    stage and must be pointwise below ``rho0`` (checked on a grid at
    construction). ``seed`` feeds a counter-based generator so candidate
    draws are reproducible.
    """

    delta: float = DEFAULT_DELTA
    rho0: RhoFunction = field(default_factory=lambda: bisquare(DEFAULT_K0))
    rho1: RhoFunction = field(default_factory=lambda: bisquare(DEFAULT_K1))
    n_subsamples: int = 500
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.n_subsamples < 1:
            raise ValueError("n_subsamples must be positive")
        grid = np.linspace(0.0, max(self.rho0.k, self.rho1.k), 512)
        if np.any(self.rho1.rho(grid) > self.rho0.rho(grid) + 1e-12):
            raise ValueError("rho1 must be majorized by rho0 (rho1 <= rho0 pointwise)")
        # user-supplied losses must satisfy the shape conditions the
        # uniqueness theory needs; the built-in family is known to
        for name in ("rho0", "rho1"):
            f = getattr(self, name)
            if f.kind != "bisquare" and not verify_r1(f):
                raise ValueError(f"{name} fails the loss shape conditions "
                                 "(log-concavity inside the tuning window, "
                                 "saturation at 1 outside)")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed))


@dataclass(frozen=True)
class FitResult:
    """Joint solution with diagnostics.

    ``objective_s`` is the attained minimum scale (equals ``sigma``);
    ``objective_mm`` is the bounded-loss objective of the MM stage at the
    fixed scale. ``equation_residuals`` stores the sup norms of the three
    stacked score equations at the solution (MM score, S score, scale),
    and ``certified`` says they are all below 1e-6.
    """

    xi_s: AugmentedParam
    xi_mm: AugmentedParam
    sigma: float
    objective_s: float
    objective_mm: float
    converged_s: bool
    converged_mm: bool
    iterations_s: int
    iterations_mm: int
    candidates_evaluated: int
    exact_fit: bool
    equation_residuals: tuple = (np.nan, np.nan, np.nan)
    certified: bool = False

    @property
    def q(self) -> int:
        return self.xi_s.beta.size

    def theta_vector(self) -> np.ndarray:
        """Flat (2q+3,) vector (xi_S, xi_MM, sigma)."""
        return np.concatenate([self.xi_s.as_array(), self.xi_mm.as_array(),
                               [self.sigma]])


# ---------------------------------------------------------------------------
# candidate generation

def _elemental_candidates(d: Dataset, m: RegressionModel, n_sub: int,
                          rng: np.random.Generator) -> np.ndarray:
    """(C, q+1) exact-fit solutions of seeded size-(q+1) subsamples,
    singular ones dropped (linear path)."""
    size = m.q + 1
    out = []
    for _ in range(n_sub):
        idx = rng.choice(d.n, size=size, replace=False)
        A = np.column_stack([d.x[idx], np.ones(size)])
        try:
            xi = np.linalg.solve(A, d.y[idx])
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(xi)):
            out.append(xi)
    return np.asarray(out, dtype=float).reshape(len(out), size)


def _box_candidates(d: Dataset, m: RegressionModel, n_sub: int,
                    rng: np.random.Generator) -> np.ndarray:
    """(C, q+1) random coefficient draws inside the model's compact box,
    with the intercept set to the median residual; draws with a
    non-finite model value are dropped (nonlinear path)."""
    B = rng.uniform(m.bounds[:, 0], m.bounds[:, 1], size=(n_sub, m.q))
    fitted = m.eval_batch(d.x, B)
    ok = np.all(np.isfinite(fitted), axis=1)
    R = fitted[ok]
    alpha = np.median(np.subtract(d.y, R, out=R), axis=1, overwrite_input=True)
    return np.column_stack([B[ok], alpha])


# ---------------------------------------------------------------------------
# residual / weighted-step helpers

def _residual_matrix(d: Dataset, m: RegressionModel, XI: np.ndarray) -> np.ndarray:
    """(C, n) residuals for a stack of candidate parameters."""
    R = m.eval_batch(d.x, XI[:, :m.q])
    np.subtract(d.y, R, out=R)
    R -= XI[:, m.q, None]
    return R


def _jacobian(d: Dataset, m: RegressionModel, xi: np.ndarray) -> np.ndarray:
    """(n, q+1) augmented gradient rows at the flat parameter xi, or
    (C, n, q+1) at a (C, q+1) stack."""
    G = m.grad_rows(d.x, xi[..., :m.q])
    return np.concatenate([G, np.ones(G.shape[:-1] + (1,))], axis=-1)


def _wls_step(J: np.ndarray, w: np.ndarray, r: np.ndarray) -> Optional[np.ndarray]:
    """One weighted least-squares update direction; None when the weighted
    normal equations are singular (too many zero weights)."""
    Jw = J * w[:, None]
    A = Jw.T @ J
    b = Jw.T @ r
    try:
        step = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(step)):
        return None
    return step


def _project(m: RegressionModel, xi: np.ndarray) -> np.ndarray:
    """xi, or a stack of them, with beta clipped into the model's box."""
    if m.bounds is None:
        return xi
    out = xi.copy()
    out[..., :m.q] = m.project(out[..., :m.q])
    return out


def _rank_scales(R: np.ndarray, prev: np.ndarray, cfg: FitConfig) -> np.ndarray:
    """Batch M-scales of the rows of R that can rank among the N_BEST
    smallest, inf for the others (Salibian-Barrera & Yohai 2006). The N_BEST
    rows with the smallest ``prev`` have roots at or below s_k, the largest
    upper end of their brackets; a row whose mean rho0(|r| / s_k) exceeds
    delta + DECIDE_TOL has a larger root. Exact fits always pass; if s_k = 0
    or a seed has status 2 (its bracket bounds nothing), all rows are kept."""
    seeds = np.argsort(prev, kind="stable")[:N_BEST]
    _, _, hi, status = _mscale_batch(R[seeds], cfg.rho0, cfg.delta, 1e-8, 150)
    keep = np.ones(len(R), dtype=bool)  # R[keep] is a copy, which the solve overwrites
    if hi.max() > 0.0 and not np.any(status == 2):
        rows, s_k = np.arange(len(R)), np.full(len(R), hi.max())
        keep = _mean_loss(R, rows, s_k, _loss_eval(cfg.rho0)) - cfg.delta <= DECIDE_TOL
        keep[seeds] = True
    sigma, _, _, status = _mscale_batch(R[keep], cfg.rho0, cfg.delta, 1e-8, 150,
                                        overwrite_input=True)
    out = np.full(len(R), np.inf)
    out[keep] = np.where(status == 1, 0.0, sigma)
    return out


def _refine_pass(d: Dataset, m: RegressionModel, XI: np.ndarray, R: np.ndarray,
                 sigma: np.ndarray, rho: RhoFunction) -> None:
    """One weighted least-squares step of every candidate, in place, with
    the weights rho.weight(R / sigma) of one block of candidates at a
    time, so no (m, n) weight matrix exists. With a shared Jacobian J, a
    block of STEP_BLOCK_POINTS elements has A = W @ K, where K holds the
    rows' outer products J_i J_i', and b = (W R) @ J; other models stack
    a block's Jacobians, STEP_BLOCK_POINTS elements of them, and take the
    products of ``_wls_step`` slice by slice. One stacked solve follows.
    A singular system or a non-finite step leaves its candidate in place."""
    n, q1 = R.shape[1], m.q + 1
    if m.shared_jacobian:
        J = _jacobian(d, m, XI[0])
        K = (J[:, :, None] * J[:, None, :]).reshape(n, q1 * q1)
        size = max(1, STEP_BLOCK_POINTS // n)
    else:
        size = max(1, STEP_BLOCK_POINTS // (n * q1))
    for i in range(0, len(XI), size):
        blk, Rb = XI[i:i + size], R[i:i + size]
        W = rho.weight(Rb / sigma[i:i + size, None])
        if m.shared_jacobian:
            A = (W @ K).reshape(-1, q1, q1)
            b = np.multiply(W, Rb, out=W) @ J
        else:
            Jb = _jacobian(d, m, blk)
            JwT = (Jb * W[..., None]).transpose(0, 2, 1)
            A = JwT @ Jb
            b = (JwT @ Rb[..., None])[..., 0]
        try:
            steps = np.linalg.solve(A, b[..., None])[..., 0]
        except np.linalg.LinAlgError:  # some system is singular: one by one
            steps = np.full_like(b, np.nan)
            for j in range(len(A)):
                with contextlib.suppress(np.linalg.LinAlgError):
                    steps[j] = np.linalg.solve(A[j], b[j])
        ok = np.all(np.isfinite(steps), axis=1)
        blk[ok] = _project(m, blk[ok] + steps[ok])


def _quick_refine(d: Dataset, m: RegressionModel, XI: np.ndarray,
                  cfg: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """REFINE_STEPS scale-reweighted least-squares passes over all
    candidates at once (``_refine_pass``). Returns the refined stack and
    scales that only rank it: inf for rows that cannot rank among the
    N_BEST (``_rank_scales``)."""
    for _ in range(REFINE_STEPS):
        R = _residual_matrix(d, m, XI)
        sigma, _, _, status = _mscale_batch(R, cfg.rho0, cfg.delta, 1e-8, 150)
        if np.any(status == 1):  # exact fits cannot be beaten
            return XI, np.where(status == 1, 0.0, sigma)
        _refine_pass(d, m, XI, R, sigma, cfg.rho0)
        del R  # so the next residual matrix does not coexist with it
    return XI, _rank_scales(_residual_matrix(d, m, XI), sigma, cfg)


def _descend(d: Dataset, m: RegressionModel, rho: RhoFunction, xi: np.ndarray,
             r: np.ndarray, sigma: float, level: float, slack: float,
             step_tol: float, update) -> tuple:
    """The reweighted least-squares descent of the S refinement and the
    MM stage. Each iteration takes the weighted step of ``rho`` at
    ``sigma`` from ``xi`` (residuals ``r``) and halves it until the trial
    passes one loss check, mean rho(|r| / gate) <= level with gate =
    sigma (1 + slack); ``update(r_trial, that mean, sigma, gate)`` then
    gives the next (sigma, level). A model with a shared Jacobian has it
    built once. Stops converged on a singular step, a step no halving
    accepts, sigma = 0 or a step below ``step_tol`` relative, and
    unconverged at IRWLS_MAX_ITER iterations. Returns (xi, sigma, level,
    iterations, converged)."""
    loss = _loss_eval(rho)
    J = _jacobian(d, m, xi) if m.shared_jacobian else None
    for it in range(1, IRWLS_MAX_ITER + 1):
        step = _wls_step(_jacobian(d, m, xi) if J is None else J, rho.weight(r / sigma), r)
        if step is None:
            return xi, sigma, level, it, True
        gate = sigma * (1.0 + slack)
        for _ in range(MAX_HALVINGS + 1):
            trial = _project(m, xi + step)
            r_trial = residuals(d, m, AugmentedParam.from_array(trial))
            value = float(loss(np.abs(r_trial) / gate).mean())
            if value <= level:
                break
            step = 0.5 * step
        else:
            return xi, sigma, level, it, True
        moved = np.linalg.norm(trial - xi)
        sigma, level = update(r_trial, value, sigma, gate)
        xi, r = trial, r_trial
        if sigma == 0.0 or moved <= step_tol * (1.0 + np.linalg.norm(xi)):
            return xi, sigma, level, it, True
    return xi, sigma, level, IRWLS_MAX_ITER, False


def _refine_s_full(d: Dataset, m: RegressionModel, xi: np.ndarray,
                   cfg: FitConfig, step_tol: float) -> tuple[np.ndarray, float, int, bool]:
    """Descend the M-scale from ``xi``: ``_descend`` on rho0 at level
    delta, so a trial passes iff its scale is at most the gate, whose
    slack is the scale solver's own resolution (without it steps would
    stall before the fixed point); sigma is then re-solved on the warm
    bracket [sigma / 4, gate], with the gap at the gate that the check
    has just computed, so the gate costs the solver no loss pass.
    Returns (xi, sigma, iterations, converged); converged is False at
    the IRWLS_MAX_ITER cap."""
    solve_tol = max(SCALE_TOL, min(1e-8, step_tol))
    xi = xi.copy()
    r = residuals(d, m, AugmentedParam.from_array(xi))
    sigma = _mscale_scalar(r, cfg.rho0, cfg.delta, solve_tol, SCALE_MAX_ITER)
    if sigma == 0.0:
        return xi, 0.0, 0, True

    def rescale(r_trial, value, sigma, gate):
        return _mscale_scalar(r_trial, cfg.rho0, cfg.delta, solve_tol, SCALE_MAX_ITER,
                              lo_init=0.25 * sigma, hi_init=gate,
                              hi_gap=value - cfg.delta), cfg.delta

    xi, sigma, _, its, converged = _descend(d, m, cfg.rho0, xi, r, sigma, cfg.delta,
                                            10.0 * solve_tol, step_tol, rescale)
    return xi, sigma, its, converged


def _pick_best(XI: np.ndarray, sigma: np.ndarray) -> int:
    """Smallest scale wins; ties within TIE_TOL go to the smallest
    parameter norm, then to the smallest candidate index."""
    s_min = sigma.min()
    close = np.flatnonzero(sigma <= s_min + TIE_TOL * max(1.0, s_min))
    norms = np.linalg.norm(XI[close], axis=1)
    return int(close[np.argmin(norms)])


# ---------------------------------------------------------------------------
# public stages

def _fit_s_stage(d: Dataset, m: RegressionModel, cfg: FitConfig):
    if d.n < m.q + 2:
        raise ValueError(f"need at least q + 2 = {m.q + 2} observations, got {d.n}")
    rng = cfg.rng()
    if m.bounds is None:
        XI = _elemental_candidates(d, m, cfg.n_subsamples, rng)
        cause = "every subsample was singular"
    else:
        XI = _box_candidates(d, m, cfg.n_subsamples, rng)
        cause = "every draw in the box gave a non-finite model value"
    if not len(XI):
        raise FitError(f"no usable candidate: {cause}")
    XI, sigma = _quick_refine(d, m, XI, cfg)

    # two-phase refinement of the best candidates: a coarse (1e-4) pass over
    # all of them, deduplication of those that reached the same minimum,
    # then full-tolerance refinement of the distinct representatives
    order = np.argsort(sigma, kind="stable")[:N_BEST]
    coarse = []
    iters_total = 0
    for c in order:
        xi_f, s_f, its, _ = _refine_s_full(d, m, XI[c], cfg, 1e-4)
        coarse.append((xi_f, s_f))
        iters_total += its
        if s_f == 0.0:
            break
    reps = []
    for xi_f, s_f in coarse:
        for j, (xi_r, s_r) in enumerate(reps):
            if np.linalg.norm(xi_f - xi_r) <= 1e-3 * (1.0 + np.linalg.norm(xi_r)):
                if s_f < s_r:
                    reps[j] = (xi_f, s_f)
                break
        else:
            reps.append((xi_f, s_f))
    XI_f, sig_f, its, conv = zip(*(_refine_s_full(d, m, xi_f, cfg, IRWLS_TOL)
                                   for xi_f, _ in reps))
    best = _pick_best(np.asarray(XI_f), np.asarray(sig_f))
    xi_best = XI_f[best]
    # the certified public solve; 0 on an exact fit, like the refinement
    sigma_hat = mscale(residuals(d, m, AugmentedParam.from_array(xi_best)),
                       cfg.rho0, cfg.delta)
    return (AugmentedParam.from_array(xi_best), sigma_hat, len(XI),
            iters_total + sum(its), conv[best])


def fit_s(d: Dataset, m: RegressionModel, cfg: FitConfig):
    """S-estimate: the candidate minimizing the M-scale of its residuals,
    together with the attained scale. A zero scale flags an exact fit."""
    return _fit_s_stage(d, m, cfg)[:2]


def _mm_objective(r: np.ndarray, rho1: RhoFunction, sigma: float) -> float:
    return float(np.mean(rho1.rho(r / sigma)))


def fit_mm(d: Dataset, m: RegressionModel, cfg: FitConfig, sigma: float,
           start: AugmentedParam) -> AugmentedParam:
    """MM stage: descend mean rho1(r / sigma) at fixed sigma from the S
    solution; raises ConvergenceError, carrying the last iterate, at
    IRWLS_MAX_ITER iterations."""
    xi, _, _ = _fit_mm_stage(d, m, cfg, sigma, start)
    return xi


def _fit_mm_stage(d: Dataset, m: RegressionModel, cfg: FitConfig, sigma: float,
                  start: AugmentedParam):
    """``_descend`` on rho1 at fixed sigma with the current objective as
    the level. Returns (xi, iterations, objective)."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = residuals(d, m, start)
    xi, _, obj, its, converged = _descend(
        d, m, cfg.rho1, start.as_array(), r, sigma, _mm_objective(r, cfg.rho1, sigma),
        0.0, IRWLS_TOL, lambda r_trial, value, sigma, gate: (sigma, value))
    if not converged:
        raise ConvergenceError(f"MM stage did not converge in {IRWLS_MAX_ITER} iterations",
                               last=AugmentedParam.from_array(xi))
    return AugmentedParam.from_array(xi), its, obj


def _equation_residuals(d: Dataset, m: RegressionModel, cfg: FitConfig,
                        xi_s: AugmentedParam, xi_mm: AugmentedParam,
                        sigma: float) -> tuple:
    """Sup norms of the three stacked score equations at the solution."""
    r_s = residuals(d, m, xi_s)
    r_mm = residuals(d, m, xi_mm)
    J_s = augmented_grad_rows(m, d.x, xi_s)
    J_mm = augmented_grad_rows(m, d.x, xi_mm)
    g1 = (cfg.rho1.psi(r_mm / sigma)[:, None] * J_mm).mean(axis=0)
    g2 = (cfg.rho0.psi(r_s / sigma)[:, None] * J_s).mean(axis=0)
    g3 = mscale_objective(r_s, cfg.rho0, sigma) - cfg.delta
    return (float(np.abs(g1).max()), float(np.abs(g2).max()), float(abs(g3)))


def fit(d: Dataset, m: RegressionModel, cfg: FitConfig) -> FitResult:
    """Joint S then MM fit with score-equation certificates.

    An exact S fit (zero scale) short-circuits the MM stage: the MM
    solution is the S solution and the result is flagged. Both stages run
    ``_descend``; at its IRWLS_MAX_ITER cap ``converged_s`` turns False
    (for the chosen S candidate's full refinement), while the MM stage
    raises ConvergenceError.
    """
    xi_s, sigma, n_cands, iters_s, conv_s = _fit_s_stage(d, m, cfg)
    exact = sigma == 0.0
    if exact:
        xi_mm, iters_mm, obj_mm, eqs = xi_s, 0, 0.0, (0.0, 0.0, 0.0)
    else:
        xi_mm, iters_mm, obj_mm = _fit_mm_stage(d, m, cfg, sigma, xi_s)
        eqs = _equation_residuals(d, m, cfg, xi_s, xi_mm, sigma)
    return FitResult(xi_s=xi_s, xi_mm=xi_mm, sigma=sigma, objective_s=sigma,
                     objective_mm=obj_mm, converged_s=conv_s, converged_mm=True,
                     iterations_s=iters_s, iterations_mm=iters_mm,
                     candidates_evaluated=n_cands, exact_fit=exact,
                     equation_residuals=eqs, certified=not exact and bool(max(eqs) <= 1e-6))


def fit_location(y, cfg: FitConfig) -> FitResult:
    """Location specialization: no regressors, xi reduces to alpha."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size < 2:
        raise ValueError("location fit needs at least 2 observations")
    if not np.all(np.isfinite(y)):
        raise DomainError("observations must be finite")
    d = Dataset(x=np.zeros((y.size, 0)), y=y)
    return fit(d, location_model(), cfg)
