"""S and MM estimators for regression and location.

The joint estimate theta = (xi_S, xi_MM, sigma) solves three stacked
score equations: the MM score equation at the fixed S-scale, the S score
equation, and the M-scale equation. The S stage minimizes the M-scale of
the residuals over elemental-subsample candidates refined by iteratively
reweighted least squares on the scale; the MM stage descends the bounded
loss objective at the fixed scale, started from the S solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ConvergenceError, DomainError, FitError
from .model import (AugmentedParam, Dataset, RegressionModel,
                    augmented_grad_rows, location_model, residuals)
from .mscale import (SCALE_MAX_ITER, SCALE_TOL, _loss_eval, _mscale_batch,
                     _mscale_scalar, mscale, mscale_objective)
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
                          rng: np.random.Generator) -> list[np.ndarray]:
    """Exact-fit solutions of seeded size-(q+1) subsamples (linear path)."""
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
    return out


def _box_candidates(d: Dataset, m: RegressionModel, n_sub: int,
                    rng: np.random.Generator) -> list[np.ndarray]:
    """Random coefficient draws inside the model's compact box, with the
    intercept set to the median residual (nonlinear path)."""
    lo, hi = m.bounds[:, 0], m.bounds[:, 1]
    out = []
    for _ in range(n_sub):
        beta = rng.uniform(lo, hi)
        fitted = m.eval_batch(d.x, beta)
        if not np.all(np.isfinite(fitted)):
            continue
        alpha = float(np.median(d.y - fitted))
        out.append(np.concatenate([beta, [alpha]]))
    return out


# ---------------------------------------------------------------------------
# residual / weighted-step helpers

def _residual_matrix(d: Dataset, m: RegressionModel, XI: np.ndarray) -> np.ndarray:
    """(C, n) residuals for a stack of candidate parameters."""
    R = np.empty((len(XI), d.n))
    for c, xi in enumerate(XI):
        R[c] = d.y - m.eval_batch(d.x, xi[:m.q]) - xi[m.q]
    return R


def _jacobian(d: Dataset, m: RegressionModel, xi: np.ndarray) -> np.ndarray:
    """(n, q+1) augmented gradient rows at the flat parameter xi."""
    return augmented_grad_rows(m, d.x, AugmentedParam.from_array(xi))


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
    if m.bounds is None:
        return xi
    out = xi.copy()
    out[:m.q] = m.project(out[:m.q])
    return out


def _quick_refine(d: Dataset, m: RegressionModel, XI: np.ndarray,
                  cfg: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """A fixed number of scale-reweighted least-squares passes over all
    candidates at once. Returns the refined stack and its scales, which
    only need enough accuracy to rank candidates."""
    refine_tol = 1e-8
    sigma = np.full(len(XI), np.inf)
    for _ in range(REFINE_STEPS):
        R = _residual_matrix(d, m, XI)
        sigma, _, _, status = _mscale_batch(R, cfg.rho0, cfg.delta, refine_tol, 150)
        if np.any(status == 1):          # exact fit found, nothing can beat it
            return XI, np.where(status == 1, 0.0, sigma)
        W = cfg.rho0.weight(R / sigma[:, None])
        for c in range(len(XI)):
            step = _wls_step(_jacobian(d, m, XI[c]), W[c], R[c])
            if step is not None:
                XI[c] = _project(m, XI[c] + step)
    R = _residual_matrix(d, m, XI)
    sigma, _, _, status = _mscale_batch(R, cfg.rho0, cfg.delta, refine_tol, 150)
    sigma = np.where(status == 1, 0.0, sigma)
    return XI, sigma


def _refine_s_full(d: Dataset, m: RegressionModel, xi: np.ndarray,
                   cfg: FitConfig, step_tol: float) -> tuple[np.ndarray, float, int, bool]:
    """Iterate scale-reweighted least squares until the parameter step
    falls below ``step_tol``, halving any step that would increase the
    scale."""
    loss = _loss_eval(cfg.rho0)
    solve_tol = max(SCALE_TOL, min(1e-8, step_tol))
    xi = xi.copy()
    r = residuals(d, m, AugmentedParam.from_array(xi))
    sigma = _mscale_scalar(r, cfg.rho0, cfg.delta, solve_tol, SCALE_MAX_ITER)
    if sigma == 0.0:
        return xi, 0.0, 0, True
    for it in range(1, IRWLS_MAX_ITER + 1):
        w = cfg.rho0.weight(r / sigma)
        step = _wls_step(_jacobian(d, m, xi), w, r)
        if step is None:
            return xi, sigma, it, True
        # descent gate: sigma(trial) <= s* iff the mean loss at s* is at
        # most the scale level, so one loss evaluation decides it; s*
        # carries a slack of the scale solver's own resolution, or steps
        # would stall before the fixed point
        gate = sigma * (1.0 + 10.0 * solve_tol)
        improved = False
        for _ in range(MAX_HALVINGS + 1):
            trial = _project(m, xi + step)
            r_trial = residuals(d, m, AugmentedParam.from_array(trial))
            if float(loss(np.abs(r_trial) / gate).mean()) <= cfg.delta:
                improved = True
                break
            step = 0.5 * step
        if not improved:
            return xi, sigma, it, True
        sigma_new = _mscale_scalar(r_trial, cfg.rho0, cfg.delta, solve_tol,
                                   SCALE_MAX_ITER, lo_init=0.25 * sigma,
                                   hi_init=gate)
        moved = np.linalg.norm(trial - xi)
        xi, sigma, r = trial, sigma_new, r_trial
        if sigma == 0.0:
            return xi, 0.0, it, True
        if moved <= step_tol * (1.0 + np.linalg.norm(xi)):
            return xi, sigma, it, True
    return xi, sigma, IRWLS_MAX_ITER, False


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
        cands = _elemental_candidates(d, m, cfg.n_subsamples, rng)
    else:
        cands = _box_candidates(d, m, cfg.n_subsamples, rng)
    if not cands:
        raise FitError("no usable candidate: every subsample was singular")

    XI = np.asarray(cands, dtype=float)
    XI, sigma = _quick_refine(d, m, XI, cfg)

    # two-phase refinement of the best candidates: a coarse pass over all
    # of them, deduplication of those that reached the same minimum, then
    # full-tolerance refinement of the distinct representatives
    order = np.argsort(sigma, kind="stable")[:N_BEST]
    coarse_tol = 1e-4
    coarse = []
    iters_total = 0
    for c in order:
        xi_f, s_f, its, _ = _refine_s_full(d, m, XI[c], cfg, coarse_tol)
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
    refined = []
    for xi_f, s_f in reps:
        if s_f == 0.0:
            refined.append((xi_f, s_f, True))
            continue
        xi_r, s_r, its, conv = _refine_s_full(d, m, xi_f, cfg, IRWLS_TOL)
        refined.append((xi_r, s_r, conv))
        iters_total += its
    XI_f = np.asarray([xi for xi, _, _ in refined])
    sig_f = np.asarray([s for _, s, _ in refined])
    best = _pick_best(XI_f, sig_f)
    xi_best = XI_f[best]
    exact = sig_f[best] == 0.0
    converged = refined[best][2]
    if exact:
        sigma_hat = 0.0
    else:
        sigma_hat = mscale(residuals(d, m, AugmentedParam.from_array(xi_best)),
                           cfg.rho0, cfg.delta)
    xi_s = AugmentedParam.from_array(xi_best)
    return xi_s, sigma_hat, len(cands), iters_total, exact, converged


def fit_s(d: Dataset, m: RegressionModel, cfg: FitConfig):
    """S-estimate: the candidate minimizing the M-scale of its residuals,
    together with the attained scale. A zero scale flags an exact fit."""
    xi_s, sigma_hat, _, _, _, _ = _fit_s_stage(d, m, cfg)
    return xi_s, sigma_hat


def _mm_objective(r: np.ndarray, rho1: RhoFunction, sigma: float) -> float:
    return float(np.mean(rho1.rho(r / sigma)))


def fit_mm(d: Dataset, m: RegressionModel, cfg: FitConfig, sigma: float,
           start: AugmentedParam) -> AugmentedParam:
    """MM stage: descend mean rho1(r / sigma) at fixed sigma by reweighted
    least squares with step halving, starting from the S solution."""
    xi, _, _ = _fit_mm_stage(d, m, cfg, sigma, start)
    return xi


def _fit_mm_stage(d: Dataset, m: RegressionModel, cfg: FitConfig, sigma: float,
                  start: AugmentedParam):
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    xi = start.as_array().copy()
    r = residuals(d, m, start)
    obj = _mm_objective(r, cfg.rho1, sigma)
    for it in range(1, IRWLS_MAX_ITER + 1):
        w = cfg.rho1.weight(r / sigma)
        step = _wls_step(_jacobian(d, m, xi), w, r)
        if step is None:
            return AugmentedParam.from_array(xi), it, True
        improved = False
        for _ in range(MAX_HALVINGS + 1):
            trial = _project(m, xi + step)
            r_trial = residuals(d, m, AugmentedParam.from_array(trial))
            obj_new = _mm_objective(r_trial, cfg.rho1, sigma)
            if obj_new <= obj:
                improved = True
                break
            step = 0.5 * step
        if not improved:
            return AugmentedParam.from_array(xi), it, True
        moved = np.linalg.norm(trial - xi)
        xi, obj, r = trial, obj_new, r_trial
        if moved <= IRWLS_TOL * (1.0 + np.linalg.norm(xi)):
            return AugmentedParam.from_array(xi), it, True
    raise ConvergenceError(
        f"MM stage did not converge in {IRWLS_MAX_ITER} iterations",
        last=AugmentedParam.from_array(xi))


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
    solution is set to the S solution and the result is flagged.
    ``converged_s`` is False when the full-tolerance refinement of the
    chosen S candidate stopped at IRWLS_MAX_ITER iterations; the MM
    stage raises ConvergenceError at that cap.
    """
    xi_s, sigma, n_cands, iters_s, exact, conv_s = _fit_s_stage(d, m, cfg)
    if exact or sigma == 0.0:
        return FitResult(xi_s=xi_s, xi_mm=xi_s, sigma=0.0, objective_s=0.0,
                         objective_mm=0.0, converged_s=True, converged_mm=True,
                         iterations_s=iters_s, iterations_mm=0,
                         candidates_evaluated=n_cands, exact_fit=True,
                         equation_residuals=(0.0, 0.0, 0.0), certified=False)
    xi_mm, iters_mm, conv_mm = _fit_mm_stage(d, m, cfg, sigma, xi_s)
    obj_mm = _mm_objective(residuals(d, m, xi_mm), cfg.rho1, sigma)
    eqs = _equation_residuals(d, m, cfg, xi_s, xi_mm, sigma)
    return FitResult(xi_s=xi_s, xi_mm=xi_mm, sigma=sigma, objective_s=sigma,
                     objective_mm=obj_mm, converged_s=conv_s, converged_mm=conv_mm,
                     iterations_s=iters_s, iterations_mm=iters_mm,
                     candidates_evaluated=n_cands, exact_fit=False,
                     equation_residuals=eqs,
                     certified=bool(max(eqs) <= 1e-6))


def fit_location(y, cfg: FitConfig) -> FitResult:
    """Location specialization: no regressors, xi reduces to alpha."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size < 2:
        raise ValueError("location fit needs at least 2 observations")
    if not np.all(np.isfinite(y)):
        raise DomainError("observations must be finite")
    d = Dataset(x=np.zeros((y.size, 0)), y=y)
    return fit(d, location_model(), cfg)
