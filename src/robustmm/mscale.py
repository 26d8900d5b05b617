"""M-scale of a residual vector.

The scale sigma solves  mean rho0(r_i / sigma) = delta.  The left side is
nonincreasing in sigma, so a bracketed bisection is unconditionally
convergent; the returned value always carries an objective-level
certificate |mean rho0(r/sigma) - delta| <= 1e-10 when positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DomainError
from .rho import DEFAULT_DELTA, RhoFunction

__all__ = ["MScaleConfig", "mscale", "mscale_objective"]

#: absolute tolerance of the root certificate on the objective
CERT_TOL = 1e-10


@dataclass(frozen=True)
class MScaleConfig:
    delta: float = DEFAULT_DELTA
    tol: float = 1e-12  # relative tolerance on sigma
    max_iter: int = 200

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


def mscale_objective(residuals, rho0: RhoFunction, sigma: float) -> float:
    """mean rho0(r_i / sigma); strictly decreasing in sigma while some
    residual is inside the descending part of the loss."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residual vector must be nonempty")
    if not np.all(np.isfinite(r)):
        raise DomainError("residuals must be finite")
    return float(np.mean(rho0.rho(r / sigma)))


def _loss_eval(rho0: RhoFunction):
    """Unchecked vectorized loss for the solver's hot loop; the caller
    guarantees finiteness of the residuals."""
    if rho0.kind == "bisquare":
        k = rho0.k

        def ev(t):
            u2 = np.minimum((t / k) ** 2, 1.0)
            v = 1.0 - u2
            return 1.0 - v * v * v

        return ev
    return rho0.rho


#: a computed mean loss this far from delta decides the bisection steps
#: it was not evaluated at; its rounding error is below 1e-14
DECIDE_TOL = 1e-12


def _mscale_scalar(r: np.ndarray, rho0: RhoFunction, delta: float,
                   tol: float, max_iter: int,
                   lo_init: float | None = None,
                   hi_init: float | None = None) -> float:
    """Low-overhead scalar variant of the batch solver for hot loops.

    Same bracket-then-bisect scheme, and the same answer bit for bit, as
    the plain bisection; the caller guarantees finite residuals. The mean
    loss does not increase with sigma, so a point where it exceeds delta
    by more than DECIDE_TOL decides every smaller midpoint, and one where
    it falls short by as much decides every larger one. Midpoints are
    evaluated only when no such point decides them.
    """
    a = np.abs(np.asarray(r, dtype=float))
    if (a == 0.0).mean() >= 1.0 - delta:
        return 0.0
    loss = _loss_eval(rho0)
    k = rho0.k
    n = a.size
    t = np.empty_like(a)
    below, above = -np.inf, np.inf  # sigmas known to lie below / above the root

    def gap(s):
        # mean rho0(a / s) - delta; add.reduce / n is what ndarray.mean
        # computes, without its per-call overhead
        nonlocal below, above
        g = float(np.add.reduce(loss(np.divide(a, s, out=t)))) / n - delta
        if g > DECIDE_TOL:
            below = max(below, s)
        elif g < -DECIDE_TOL:
            above = min(above, s)
        return g

    if lo_init is None:
        med = float(np.median(a))
        lo = (med if med > 0.0 else float(a[a > 0.0].min())) / k
    else:
        lo = float(lo_init)
    hi = float(a.max() * k * 10.0) if hi_init is None else float(hi_init)

    for _ in range(max_iter):
        g_lo = gap(lo)
        if g_lo >= 0.0:
            break
        lo *= 0.5
    for _ in range(max_iter):
        g_hi = gap(hi)
        if g_hi <= 0.0:
            break
        hi *= 2.0

    # locate the root by a few regula falsi steps (Illinois variant)
    x0, g0, x1, g1, side = lo, g_lo, hi, g_hi, 0
    for _ in range(12):
        if above - below <= tol * below:
            break
        x = x1 - g1 * (x1 - x0) / (g1 - g0) if g0 > g1 else x0
        if not x0 < x < x1:
            x = 0.5 * (x0 + x1)
        g = gap(x)
        if abs(g) <= DECIDE_TOL:
            # x is too close to the root to decide anything: probe
            # either side of it instead
            gap(x * (1.0 - 0.25 * tol))
            gap(x * (1.0 + 0.25 * tol))
            break
        if g > 0.0:
            x0, g0 = x, g
            if side > 0:
                g1 *= 0.5
            side = 1
        else:
            x1, g1 = x, g
            if side < 0:
                g0 *= 0.5
            side = -1

    for _ in range(max_iter):
        if hi - lo <= tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid <= below or (mid < above and gap(mid) >= 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mscale_batch(R: np.ndarray, rho0: RhoFunction, delta: float,
                  tol: float, max_iter: int, lo_init=None, hi_init=None):
    """Vectorized bisection over the rows of a residual matrix.

    Returns (sigma, lo, hi, status) arrays; status 0 = root certified,
    1 = degenerate zero-residual row (sigma = 0), 2 = not converged.
    Rows are solved independently, so batched and one-row-at-a-time
    calls produce identical results. ``lo_init``/``hi_init`` are warm
    bracket guesses; they are expanded whenever they do not straddle the
    root, so a bad guess costs iterations, never correctness.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[1] == 0:
        raise ValueError("expected a nonempty 2-d residual matrix")
    m, n = R.shape
    absR = np.abs(R)
    k = rho0.k
    loss = _loss_eval(rho0)

    def objective(A, s):
        return loss(A / s[:, None]).mean(axis=1)

    sigma = np.zeros(m)
    lo = np.zeros(m)
    hi = np.zeros(m)
    status = np.zeros(m, dtype=int)

    zero_frac = (absR == 0.0).mean(axis=1)
    degenerate = zero_frac >= 1.0 - delta
    status[degenerate] = 1
    active = ~degenerate
    if not np.any(active):
        return sigma, lo, hi, status

    A = absR[active]
    if lo_init is None:
        med = np.median(A, axis=1)
        min_pos = np.where(A > 0.0, A, np.inf).min(axis=1)
        lo_a = np.where(med > 0.0, med, min_pos) / k
    else:
        lo_a = np.broadcast_to(np.asarray(lo_init, dtype=float),
                               (active.sum(),)).copy()
    if hi_init is None:
        hi_a = A.max(axis=1) * k * 10.0
    else:
        hi_a = np.broadcast_to(np.asarray(hi_init, dtype=float),
                               (active.sum(),)).copy()

    # expand geometrically until objective(lo) >= delta >= objective(hi)
    for _ in range(max_iter):
        bad = objective(A, lo_a) < delta
        if not np.any(bad):
            break
        lo_a[bad] *= 0.5
    for _ in range(max_iter):
        bad = objective(A, hi_a) > delta
        if not np.any(bad):
            break
        hi_a[bad] *= 2.0

    for _ in range(max_iter):
        if np.all(hi_a - lo_a <= tol * hi_a):
            break
        mid = 0.5 * (lo_a + hi_a)
        above = objective(A, mid) >= delta
        lo_a = np.where(above, mid, lo_a)
        hi_a = np.where(above, hi_a, mid)

    sig_a = 0.5 * (lo_a + hi_a)
    certified = np.abs(objective(A, sig_a) - delta) <= CERT_TOL
    st_a = np.where(certified, 0, 2)

    sigma[active] = sig_a
    lo[active] = lo_a
    hi[active] = hi_a
    status[active] = st_a
    return sigma, lo, hi, status


def mscale(residuals, rho0: RhoFunction, cfg: MScaleConfig | None = None,
           return_bracket: bool = False):
    """Solve mean rho0(r_i / sigma) = delta for sigma >= 0.

    Returns 0 when the fraction of exactly-zero residuals reaches
    1 - delta, in which case the equation has no positive root and the
    caller should treat the input as an exact fit. Deterministic: the
    same inputs always produce the same bracket sequence and root.
    """
    cfg = cfg or MScaleConfig()
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 1:
        r = r.reshape(-1)
    if r.size == 0:
        raise ValueError("residual vector must be nonempty")
    if not np.all(np.isfinite(r)):
        raise DomainError("residuals must be finite")

    sigma, lo, hi, status = _mscale_batch(r[None, :], rho0, cfg.delta,
                                          cfg.tol, cfg.max_iter)
    if status[0] == 2:
        raise ConvergenceError(
            f"M-scale bisection did not certify a root within {cfg.max_iter} iterations",
            bracket=(float(lo[0]), float(hi[0])))
    if return_bracket:
        return float(sigma[0]), (float(lo[0]), float(hi[0]))
    return float(sigma[0])
