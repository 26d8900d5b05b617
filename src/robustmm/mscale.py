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

import math

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
#: elements per block of a batch loss pass, which then stays in cache
CHUNK_POINTS = 2 ** 15


def _mean_loss(A, rows, s, loss, buf=None):
    """mean loss(A[rows[i]] / s[i]), in buf in blocks of CHUNK_POINTS elements;
    add.reduce / n, which is ndarray.mean, sums each row alone, as in one pass."""
    n = A.shape[1]
    buf = np.empty((max(1, min(rows.size, CHUNK_POINTS // n)), n)) if buf is None else buf
    out = np.empty(rows.size)
    for i in range(0, rows.size, len(buf)):
        r = rows[i:i + len(buf)]
        t = np.take(A, r, axis=0, out=buf[:r.size], mode="clip")  # "raise" would buffer
        t = loss(np.divide(t, s[i:i + r.size, None], out=t))
        out[i:i + r.size] = np.add.reduce(t, axis=1)
    return out / n


def _mscale_scalar(r: np.ndarray, rho0: RhoFunction, delta: float,
                   tol: float, max_iter: int,
                   lo_init: float | None = None,
                   hi_init: float | None = None,
                   hi_gap: float | None = None) -> float:
    """Low-overhead scalar variant of the batch solver for hot loops: a
    one-row ``_mscale_batch`` call gives the same sigma, but costs about
    0.7 ms more per warm solve of the S refinement in per-step numpy
    overhead (0.74 ms against 0.06 ms on a 2-vCPU host).

    Same bracket-then-bisect scheme, and the same answer bit for bit, as
    the plain bisection; the caller guarantees finite residuals. The mean
    loss does not increase with sigma, so a point where it exceeds delta
    by more than DECIDE_TOL decides every smaller midpoint, and one where
    it falls short by as much decides every larger one. Midpoints are
    evaluated only when no such point decides them.

    ``hi_gap`` is mean rho0(|r| / hi_init) - delta as this module computes
    it, for a caller that has already evaluated it; when it is at most 0
    the upper end costs no pass and is not expanded. Illinois steps in
    log sigma place deciding points from the upper end; their lower end
    starts from the bound 1 - delta on the gap (the loss is at most 1),
    so the lower end is evaluated, and expanded, only when no deciding
    point lies at or above it, or when the first three steps all land
    above the root. A point within DECIDE_TOL of the root is followed by
    two probes spaced to clear DECIDE_TOL. On the S refinements of two
    sim-small scenarios, a warm solve on [sigma / 4, gate] with the
    gate's gap known took 4.1 loss passes on average, and a cold solve
    9.7, against 7.8 and 16.8 with both ends evaluated and the steps in
    sigma; plain bisection takes about 33 at tol 1e-10.
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

    def expand_lo():
        # the plain scheme's lower end: halve it until its gap is >= 0
        nonlocal lo
        for _ in range(max_iter):
            g = gap(lo)
            if g >= 0.0:
                break
            lo *= 0.5
        return g

    if lo_init is None:
        med = float(np.median(a))
        lo = (med if med > 0.0 else float(a[a > 0.0].min())) / k
    else:
        lo = float(lo_init)
    hi = float(a.max() * k * 10.0) if hi_init is None else float(hi_init)

    if hi_gap is not None and hi_gap <= 0.0:
        g_hi = hi_gap
        if g_hi < -DECIDE_TOL:
            above = hi
    else:
        for _ in range(max_iter):
            g_hi = gap(hi)
            if g_hi <= 0.0:
                break
            hi *= 2.0

    # place deciding points near the root by regula falsi (Illinois
    # variant) in log sigma, unless the upper end is already that near;
    # the gap at lo starts as its bound 1 - delta (the loss is at most 1)
    x0, g0, x1, g1, side = math.log(lo), 1.0 - delta, math.log(hi), g_hi, 0
    close = hi if abs(g_hi) <= DECIDE_TOL else None
    lo_done = False
    for step in range(0 if close is not None else REGULA_FALSI_STEPS):
        if above - below <= tol * below or not x0 < x1:
            break
        x = x1 - g1 * (x1 - x0) / (g1 - g0)
        if not x0 < x < x1:
            x = 0.5 * (x0 + x1)
        s = math.exp(x)
        g = gap(s)
        if abs(g) <= DECIDE_TOL:
            close = s
            break
        if g > 0.0:
            x0, g0 = x, g
            if side > 0:
                g1 *= 0.5
            side = 1
        else:
            x1, g1 = x, g
            if step >= 2 and below < lo and not lo_done:
                # three steps above the root and none below it: lo may lie
                # above the root too, so evaluate and expand it now
                g0, lo_done = expand_lo(), True
                x0 = math.log(lo)
            elif side < 0:
                g0 *= 0.5
            side = -1
    if close is not None:
        # too near the root to decide anything: probe either side of it,
        # just far enough for the secant slope to carry the gap past
        # DECIDE_TOL, and farther where the slope was overestimated; the
        # closer a probe that decides its side lies, the more bisection
        # midpoints it decides
        h = max(0.01 * tol, 4.0 * DECIDE_TOL * (x1 - x0) / (g0 - g1))
        for _ in range(4):
            if below < close * (1.0 - h):
                gap(close * (1.0 - h))
            if above > close * (1.0 + h):
                gap(close * (1.0 + h))
            if below >= close * (1.0 - h) and above <= close * (1.0 + h):
                break
            h *= 8.0

    # expand the lower end unless a deciding point already lies at or
    # above it (the mean loss there is then above delta)
    if below < lo and not lo_done:
        expand_lo()

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
                  tol: float, max_iter: int, lo_init=None, hi_init=None,
                  overwrite_input: bool = False):
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
    With ``overwrite_input`` the absolute residuals are taken in R itself,
    which saves an R-sized copy.

    The loss is evaluated only where the answer needs it: during the
    expansion on the rows whose bracket is still bad, during the
    bisection on the rows whose midpoint no earlier point decides
    (module docstring), in place in cache-sized blocks (``_mean_loss``)
    that leave every row's sum as it is. In between, up to
    REGULA_FALSI_STEPS Illinois steps per row place deciding points close
    to each root on both sides; a step that lands within DECIDE_TOL of
    the root is followed by probes at tol / 100 either side of it. They
    step in log sigma because a cold bracket spans about two decades: on
    the 500 x 5000 quick-refine matrices of a 5000-row linear fit a call
    then takes about 11.3 loss passes over the matrix, against 12.9 with
    the probes at tol / 4, about 19 with the steps in sigma and 39 for
    plain bisection.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[1] == 0:
        raise ValueError("expected a nonempty 2-d residual matrix")
    m, n = R.shape
    absR = np.abs(R, out=R if overwrite_input else None)
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
    buf = np.empty((max(1, min(ma, CHUNK_POINTS // n)), n))
    if lo_init is None:
        # np.median bit for bit: its order statistics and (a + b) / 2
        h, med = n // 2, np.empty(ma)
        for i in range(0, ma, len(buf)):
            t = buf[:min(len(buf), ma - i)]
            np.copyto(t, A[i:i + len(t)])
            t.partition(h, axis=1)
            med[i:i + len(t)] = t[:, h] if n % 2 else (t[:, :h].max(axis=1) + t[:, h]) / 2
        zero = ~(med > 0.0)
        med[zero] = np.where(A[zero] > 0.0, A[zero], np.inf).min(axis=1)
        lo_a = med / k
    else:
        lo_a = np.broadcast_to(np.asarray(lo_init, dtype=float), (ma,)).copy()
    if hi_init is None:
        hi_a = A.max(axis=1) * k * 10.0
    else:
        hi_a = np.broadcast_to(np.asarray(hi_init, dtype=float), (ma,)).copy()

    below = np.full(ma, -np.inf)  # sigmas known to lie below / above the root
    above = np.full(ma, np.inf)

    def gap(rows, s):
        g = _mean_loss(A, rows, s, loss, buf) - delta
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
            gap(rows[close], s[close] * (1.0 - 0.01 * tol))
            gap(rows[close], s[close] * (1.0 + 0.01 * tol))
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
