"""M-scale of a residual vector.

The scale sigma solves  mean rho0(r_i / sigma) = delta.  The left side is
nonincreasing in sigma, so a bracketed bisection is unconditionally
convergent; the public ``mscale`` certifies its root at the objective
level, |mean rho0(r/sigma) - delta| <= CERT_TOL, whenever it is positive.

Both solvers return exactly the sigma of a plain bracket-then-bisect
scheme, but evaluate the loss only at the bisection midpoints that no
earlier evaluation decides. The computed mean loss is within 1e-14 of
the true one, so a point where it exceeds delta by more than DECIDE_TOL
lies below the root and decides every smaller midpoint, and one where
it falls short by as much decides every larger one. A few regula falsi
steps place such points close to the root on both sides before the
bisection starts.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConvergenceError, DomainError
from .rho import DEFAULT_DELTA, RhoFunction

__all__ = ["mscale", "mscale_objective"]

#: absolute tolerance of the root certificate on the objective
CERT_TOL = 1e-10
#: relative tolerance on sigma of the public solve
SCALE_TOL = 1e-12
#: cap on bracket expansions and on bisection steps
SCALE_MAX_ITER = 200


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
    """Unchecked vectorized loss for the solvers' hot loops; the caller
    guarantees finite input. The returned callable may overwrite its
    argument, so callers pass it scratch arrays or temporaries: the
    bisquare loss is computed in place, with the operations of
    ``RhoFunction.rho`` in the same order, so its values are the same
    bit for bit."""
    if rho0.kind == "bisquare":
        k = rho0.k
        work = np.empty(0)

        def ev(t):
            nonlocal work
            if work.size < t.size:
                work = np.empty(t.size)
            v2 = work[:t.size].reshape(t.shape)
            np.divide(t, k, out=t)
            np.square(t, out=t)
            np.minimum(t, 1.0, out=t)
            v = np.subtract(1.0, t, out=t)
            np.multiply(v, v, out=v2)
            return np.subtract(1.0, np.multiply(v2, v, out=t), out=t)

        return ev
    return rho0.rho


#: a computed mean loss this far from delta decides the bisection steps
#: it was not evaluated at; its rounding error is below 1e-14
DECIDE_TOL = 1e-12
#: cap on the regula falsi steps that precede the bisection
REGULA_FALSI_STEPS = 12


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
    for _ in range(REGULA_FALSI_STEPS):
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
    """M-scale of every row of a residual matrix.

    Returns (sigma, lo, hi, status) arrays; status 0 = the row's bracket
    met ``tol``, 1 = degenerate zero-residual row (sigma = 0), 2 = the
    bracket never straddled the root or did not meet ``tol`` within
    ``max_iter`` bisection steps. The root is not certified against the
    objective; ``mscale`` does that for its one row.

    The answer is bit for bit that of a plain batch bisection: expand each
    row's bracket until mean rho0(|r|/lo) >= delta >= mean rho0(|r|/hi),
    then bisect all rows together until every row meets ``tol``. So a
    row's sigma depends on the other rows of the batch: it stays inside
    the bracket of its one-row solve, within ``tol`` relative of that
    answer, but is not equal to it bit for bit. A one-row call gives the
    same sigma as ``_mscale_scalar`` bit for bit. ``lo_init``/``hi_init``
    are warm bracket guesses; they are expanded whenever they do not
    straddle the root, so a bad guess costs iterations, never correctness.

    The loss is evaluated only where the answer needs it: during the
    expansion on the rows whose bracket is still bad, during the
    bisection on the rows whose midpoint no earlier point decides
    (module docstring), always in place in one preallocated (m, n)
    buffer. In between, up to REGULA_FALSI_STEPS Illinois steps per row
    place deciding points close to each root on both sides. They step in
    log sigma because a cold bracket spans about two decades: on the
    500 x 5000 quick-refine matrices of a 5000-row linear fit a call then
    takes about 13 loss passes over the matrix, against about 19 with the
    same steps in sigma and 39 for plain bisection.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[1] == 0:
        raise ValueError("expected a nonempty 2-d residual matrix")
    m, n = R.shape
    absR = np.abs(R)
    k = rho0.k
    loss = _loss_eval(rho0)

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

    A = absR if active.all() else absR[active]
    ma = len(A)
    if lo_init is None:
        med = np.median(A, axis=1)
        min_pos = np.where(A > 0.0, A, np.inf).min(axis=1)
        lo_a = np.where(med > 0.0, med, min_pos) / k
    else:
        lo_a = np.broadcast_to(np.asarray(lo_init, dtype=float), (ma,)).copy()
    if hi_init is None:
        hi_a = A.max(axis=1) * k * 10.0
    else:
        hi_a = np.broadcast_to(np.asarray(hi_init, dtype=float), (ma,)).copy()

    buf = np.empty_like(A)
    below = np.full(ma, -np.inf)  # sigmas known to lie below / above the root
    above = np.full(ma, np.inf)

    def gap(rows, s):
        # mean rho0(A[rows] / s) - delta, row by row; sum / n is what
        # ndarray.mean computes, and a row's sum does not depend on which
        # other rows are evaluated with it; take with mode "clip" writes
        # straight into buf, where mode "raise" would buffer
        t = np.take(A, rows, axis=0, out=buf[:rows.size], mode="clip")
        g = np.add.reduce(loss(np.divide(t, s[:, None], out=t)), axis=1) / n - delta
        hit = g > DECIDE_TOL
        below[rows[hit]] = np.maximum(below[rows[hit]], s[hit])
        hit = g < -DECIDE_TOL
        above[rows[hit]] = np.minimum(above[rows[hit]], s[hit])
        return g

    # expand geometrically until mean loss(lo) >= delta >= mean loss(hi)
    everyone = np.arange(ma)
    stuck = np.zeros(ma, dtype=bool)
    g_lo = np.zeros(ma)
    g_hi = np.zeros(ma)
    rows = everyone
    for _ in range(max_iter):
        g_lo[rows] = gap(rows, lo_a[rows])
        rows = rows[g_lo[rows] < 0.0]
        if rows.size == 0:
            break
        lo_a[rows] *= 0.5
    stuck[rows] = True
    rows = everyone
    for _ in range(max_iter):
        g_hi[rows] = gap(rows, hi_a[rows])
        rows = rows[g_hi[rows] > 0.0]
        if rows.size == 0:
            break
        hi_a[rows] *= 2.0
    stuck[rows] = True

    # locate each root by regula falsi (Illinois variant) in log sigma
    x0, g0, x1, g1 = np.log(lo_a), g_lo, np.log(hi_a), g_hi
    side = np.zeros(ma)
    rows = everyone
    for _ in range(REGULA_FALSI_STEPS):
        rows = rows[~(above[rows] - below[rows] <= tol * below[rows])]
        if rows.size == 0:
            break
        a, ga, b, gb = x0[rows], g0[rows], x1[rows], g1[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = b - gb * (b - a) / (gb - ga)
        x = np.where((ga > gb) & (a < x) & (x < b), x, 0.5 * (a + b))
        s = np.exp(x)
        g = gap(rows, s)
        close = np.abs(g) <= DECIDE_TOL
        if np.any(close):
            # too close to the root to decide anything: probe either
            # side of it instead
            gap(rows[close], s[close] * (1.0 - 0.25 * tol))
            gap(rows[close], s[close] * (1.0 + 0.25 * tol))
        pos, neg = g > DECIDE_TOL, g < -DECIDE_TOL
        r = rows[pos]
        x0[r], g0[r] = x[pos], g[pos]
        g1[r[side[r] > 0]] *= 0.5
        side[r] = 1
        r = rows[neg]
        x1[r], g1[r] = x[neg], g[neg]
        g0[r[side[r] < 0]] *= 0.5
        side[r] = -1
        rows = rows[pos | neg]

    for _ in range(max_iter):
        if np.all(hi_a - lo_a <= tol * hi_a):
            break
        mid = 0.5 * (lo_a + hi_a)
        up = mid <= below
        rows = np.flatnonzero(~up & (mid < above))
        if rows.size:
            up[rows] = gap(rows, mid[rows]) >= 0.0
        lo_a = np.where(up, mid, lo_a)
        hi_a = np.where(up, hi_a, mid)

    met = (hi_a - lo_a <= tol * hi_a) & ~stuck
    sigma[active] = 0.5 * (lo_a + hi_a)
    lo[active] = lo_a
    hi[active] = hi_a
    status[active] = np.where(met, 0, 2)
    return sigma, lo, hi, status


def mscale(residuals, rho0: RhoFunction, delta: float = DEFAULT_DELTA) -> float:
    """Solve mean rho0(r_i / sigma) = delta for sigma >= 0, to relative
    tolerance SCALE_TOL.

    Returns 0 when the fraction of exactly-zero residuals reaches
    1 - delta, in which case the equation has no positive root and the
    caller should treat the input as an exact fit. Raises
    ConvergenceError, carrying the final bracket, when a positive root
    misses the certificate |mean rho0(r/sigma) - delta| <= CERT_TOL.
    Deterministic: the same inputs always produce the same bracket
    sequence and root.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 1:
        r = r.reshape(-1)
    if r.size == 0:
        raise ValueError("residual vector must be nonempty")
    if not np.all(np.isfinite(r)):
        raise DomainError("residuals must be finite")

    sigma, lo, hi, status = _mscale_batch(r[None, :], rho0, delta,
                                          SCALE_TOL, SCALE_MAX_ITER)
    s = float(sigma[0])
    if status[0] == 2 or (status[0] == 0 and
                          abs(mscale_objective(r, rho0, s) - delta) > CERT_TOL):
        raise ConvergenceError(
            f"M-scale bisection did not certify a root within {SCALE_MAX_ITER} iterations",
            bracket=(float(lo[0]), float(hi[0])))
    return s
