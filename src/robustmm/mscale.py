"""M-scale of a residual vector.

The scale sigma solves  mean rho0(r_i / sigma) = delta.  The left side is
nonincreasing in sigma, so a bracketed bisection is unconditionally
convergent; the public ``mscale`` certifies its root at the objective
level, |mean rho0(r/sigma) - delta| <= CERT_TOL, whenever it is positive.

``_mscale_scalar`` solves one residual vector, ``_mscale_batch`` the rows
of a matrix. Both return exactly the sigma of a plain bracket-then-bisect
scheme, which expands each bracket end at most SCALE_MAX_ITER times and
then bisects until the bracket meets ``tol``, however many binary orders
it spans (``_bisection_steps``). Only a bracket that no expansion makes
straddle the root, or one whose subnormal ends stall, misses ``tol``: a
batch row with status 2. Both solvers evaluate the loss only where that
scheme's answer needs it. The computed mean loss is within 1e-14 of the
true one, so a point where it exceeds delta by more than DECIDE_TOL lies
below the root: it decides every smaller bisection midpoint, and proves
that a lower bracket end at or below it is kept as it is. A point where
the mean loss falls short of delta by as much decides every larger
midpoint and every upper end at or above it. Steps in log sigma place such
points close to the root on both sides before the bisection starts. The
batch solver starts each row near its root and evaluates a cold bracket
end, and expands it, only where no such point decides it; the scalar
solver steps from its upper end.
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
#: cap on the expansions of each bracket end, and on the bisection steps
#: of a bracket whose end is zero or not finite
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
    guarantees finite input t >= 0. The returned callable may overwrite
    its argument, so callers pass it scratch arrays or temporaries: the
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
            np.minimum(t, k, out=t)  # so that squaring cannot overflow
            np.divide(t, k, out=t)
            np.square(t, out=t)
            v = np.subtract(1.0, t, out=t)
            np.multiply(v, v, out=v2)
            return np.subtract(1.0, np.multiply(v2, v, out=t), out=t)

        return ev
    return rho0.rho


#: a computed mean loss this far from delta decides the bisection steps
#: it was not evaluated at; its rounding error is below 1e-14
DECIDE_TOL = 1e-12
#: cap on the Illinois or secant steps that precede the bisection
SEARCH_STEPS = 12
#: elements per block of a batch loss pass, which then stays in cache
CHUNK_POINTS = 2 ** 15


def _bisection_steps(span: float, tol: float) -> int:
    """Bisection steps that shrink a bracket spanning ``span`` binary
    orders, log2 hi - log2 lo, to relative width ``tol``, 2 of them for
    rounding; SCALE_MAX_ITER when an end is zero or not finite."""
    return math.ceil(span - math.log2(tol)) + 2 if math.isfinite(span) else SCALE_MAX_ITER


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


def _mscale_scalar(r: np.ndarray, rho0: RhoFunction, delta: float, tol: float,
                   lo_init: float | None = None,
                   hi_init: float | None = None,
                   hi_gap: float | None = None) -> float:
    """M-scale of one residual vector, the solver of the S refinement and
    of ``mscale``. A one-row ``_mscale_batch`` call gives the same sigma,
    but costs more in per-step numpy overhead (2-vCPU host): 0.74 ms
    against 0.06 ms per warm solve of the S refinement, and 1.6-2.3 ms
    against 0.19-0.63 ms per certified solve of 200-5000 residuals.

    The same answer bit for bit as the plain scheme, without a status: a
    caller that needs the root certifies it, as ``mscale`` does. The
    caller guarantees finite residuals. The mean loss does not
    increase with sigma, so a point where it exceeds delta by more than
    DECIDE_TOL decides every smaller midpoint, and one where it falls
    short by as much decides every larger one. Midpoints are evaluated
    only when no such point decides them.

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
        for _ in range(SCALE_MAX_ITER):
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
        for _ in range(SCALE_MAX_ITER):
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
    for step in range(0 if close is not None else SEARCH_STEPS):
        if above - below <= tol * below or not x0 < x1:
            break
        x = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else math.nan
        if not x0 < x < x1:  # equal gaps too: the midpoint
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

    span = math.log2(hi) - math.log2(lo) if lo > 0.0 else math.inf
    for _ in range(_bisection_steps(span, tol)):
        if hi - lo <= tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid <= below or (mid < above and gap(mid) >= 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mscale_batch(R: np.ndarray, rho0: RhoFunction, delta: float,
                  tol: float, lo_init=None, hi_init=None,
                  overwrite_input: bool = False):
    """M-scale of every row of a residual matrix.

    Returns (sigma, lo, hi, status) arrays; status 0 = the row's bracket
    met ``tol``, 1 = degenerate zero-residual row (sigma = 0), 2 = the
    bracket never straddled the root within SCALE_MAX_ITER expansions, or
    its subnormal ends stalled before ``tol`` (module docstring). The root
    is not certified against the objective.

    The answer is bit for bit that of a plain batch bisection, which
    expands each row's cold or warm bracket until mean rho0(|r|/lo) >=
    delta >= mean rho0(|r|/hi), then bisects all rows together until every
    row meets ``tol``. So a row's sigma depends on the other rows of the
    batch: it stays inside the bracket of its one-row solve, within ``tol``
    relative of that answer, but is not equal to it bit for bit. A one-row
    call gives the same sigma as ``_mscale_scalar`` bit for bit.
    ``lo_init``/``hi_init`` are warm bracket guesses; they are expanded
    whenever they do not straddle the root, so a bad guess costs
    iterations, never correctness. With ``overwrite_input`` the absolute
    residuals are taken in R itself, which saves an R-sized copy.

    The loss is evaluated in place in cache-sized blocks (``_mean_loss``)
    that leave every row's sum as it is, and only at points that can
    decide something. Each row starts at 1.4826 median |r|, or at the
    middle of its warm bracket in log sigma, steps the gap over a slope of
    -0.4 per unit of log sigma next, and then takes secant steps in log
    sigma, up to SEARCH_STEPS points in all. A secant step whose error
    estimate is below tol / 100, or a point that lands within DECIDE_TOL
    of the root, gives way to probes at tol / 100 either side of it. After
    that a row evaluates a bracket end, and expands it, only where no
    deciding point proves it (module docstring); the bisection evaluates
    only the midpoints that no point decides. On the 500 x 5000
    quick-refine matrices of a 5000-row linear fit a call takes about 5.9
    loss passes over the matrix, against 11.3 when every row evaluated
    both cold ends first and took Illinois steps from them, and 39 for
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

    below = np.zeros(ma)  # sigmas known to lie below / above the root
    above = np.full(ma, np.inf)

    def gap(rows, s):
        g = _mean_loss(A, rows, s, loss, buf) - delta
        hit = g > DECIDE_TOL
        below[rows[hit]] = np.maximum(below[rows[hit]], s[hit])
        hit = g < -DECIDE_TOL
        above[rows[hit]] = np.minimum(above[rows[hit]], s[hit])
        return g

    # place deciding points near each root: 1.4826 median |r| (near it at
    # delta 0.5) or the middle of a warm bracket, a step of the gap over a
    # slope of -0.4 per unit of log sigma, then secant steps in log sigma
    # on the two latest points, strictly inside the points decided so far
    # and at most 3 from the latest while a side is unknown
    xb = np.log(1.4826 * med) if lo_init is None else 0.5 * (np.log(lo_a) + np.log(hi_a))
    xa, ga, gb = np.zeros(ma), np.zeros(ma), np.zeros(ma)
    h = 0.01 * tol  # probe spacing: enough to clear DECIDE_TOL at tol 1e-8
    rows = np.arange(ma)
    for step in range(SEARCH_STEPS):
        rows = rows[~(above[rows] - below[rows] <= tol * below[rows])]
        if rows.size == 0:
            break
        a, b, g1 = xa[rows], xb[rows], gb[rows]
        if step == 0:
            x = b
        elif step == 1:
            x = b + np.clip(g1 / 0.4, -0.7, 0.7)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                x = b - g1 * (b - a) / (g1 - ga[rows])
                lb, ub = np.log(below[rows]), np.log(above[rows])
            x = np.clip(np.where((lb < x) & (x < ub), x, 0.5 * (lb + ub)), b - 3.0, b + 3.0)
        # a secant step misses the root by about |f''/2f'| |x - b| |x - a|,
        # and that ratio is below 1 here: where the product is below h, or
        # where x proves within DECIDE_TOL of the root, probe either side of
        # x instead
        pair = (step >= 2) & (np.abs(x - b) * np.abs(x - a) <= h)
        s, g = np.exp(x), np.zeros(rows.size)
        g[~pair] = gap(rows[~pair], s[~pair])
        pair |= np.abs(g) <= DECIDE_TOL
        xa[rows], ga[rows], xb[rows], gb[rows] = b, g1, x, g
        r = rows[pair]
        xa[r], ga[r] = x[pair] + math.log1p(-h), gap(r, s[pair] * (1.0 - h))
        xb[r], gb[r] = x[pair] + math.log1p(h), gap(r, s[pair] * (1.0 + h))
        # go on where the latest points decided something
        rows = rows[(np.abs(gb[rows]) > DECIDE_TOL) | pair & (np.abs(ga[rows]) > DECIDE_TOL)]

    # the plain scheme's ends: a deciding point at or above lo proves
    # mean loss(lo) > delta, one at or below hi proves mean loss(hi) < delta;
    # the other rows evaluate their end and expand it geometrically
    stuck = np.zeros(ma, dtype=bool)
    for end, known, bad, factor in ((lo_a, below, np.less, 0.5),
                                    (hi_a, above, np.greater, 2.0)):
        rows = np.flatnonzero(bad(known, end))
        for _ in range(SCALE_MAX_ITER):
            rows = rows[bad(gap(rows, end[rows]), 0.0)]
            if rows.size == 0:
                break
            end[rows] *= factor
        stuck[rows] = True

    with np.errstate(divide="ignore"):  # a zero lower end: span inf
        span = float(np.max(np.log2(hi_a) - np.log2(lo_a)))
    for _ in range(_bisection_steps(span, tol)):
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
    ConvergenceError when a positive root misses the certificate
    |mean rho0(r/sigma) - delta| <= CERT_TOL; its bracket, sigma (1 +-
    SCALE_TOL), contains the final bisection bracket. Deterministic: the
    same inputs always produce the same bracket sequence and root.
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

    s = _mscale_scalar(r, rho0, delta, SCALE_TOL)
    if s > 0.0 and abs(mscale_objective(r, rho0, s) - delta) > CERT_TOL:
        raise ConvergenceError("M-scale bisection did not certify a root",
                               bracket=(s * (1.0 - SCALE_TOL), s * (1.0 + SCALE_TOL)))
    return s
