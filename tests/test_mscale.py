import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustmm import bisquare, custom_rho, mscale, mscale_objective
from robustmm.exceptions import ConvergenceError, DomainError

mscale_module = importlib.import_module("robustmm.mscale")

RHO = bisquare(1.547)
DELTA = 0.5


def bisect_oracle(residuals, rho0, delta, lo=1e-12, hi=1e12, iters=200):
    """Independent high-precision bisection, no bracket heuristics."""
    r = np.asarray(residuals, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.mean(rho0.rho(r / mid)) >= delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestObjective:
    def test_all_equal_at_saturation(self):
        r = np.full(7, 3.0)
        assert mscale_objective(r, RHO, 3.0 / RHO.k) == pytest.approx(1.0, abs=1e-14)

    def test_vanishes_for_huge_sigma(self):
        r = np.array([1.0, -2.0, 0.5])
        assert mscale_objective(r, RHO, 1e9 * 2.0) < 1e-9

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        r = rng.normal(size=37)
        sigma = 0.8
        direct = sum(RHO.rho(ri / sigma) for ri in r) / len(r)
        assert mscale_objective(r, RHO, sigma) == pytest.approx(direct, abs=1e-15)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            mscale_objective([1.0], RHO, 0.0)

    def test_zero_residuals_no_division(self):
        assert mscale_objective(np.zeros(4), RHO, 1.0) == 0.0


class TestMScale:
    def test_all_zero_residuals(self):
        assert mscale(np.zeros(10), RHO, DELTA) == 0.0

    def test_single_residual_analytic(self):
        # invert 1 - (1 - u^2)^3 = 1/2 by hand for one residual equal to 1
        expected = 1.0 / (RHO.k * np.sqrt(1.0 - 0.5 ** (1.0 / 3.0)))
        got = mscale(np.array([1.0]), RHO, DELTA)
        assert got == pytest.approx(expected, rel=1e-10)
        assert got == pytest.approx(1.42318, abs=1e-5)
        assert got == pytest.approx(bisect_oracle([1.0], RHO, 0.5), rel=1e-10)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = rng.normal(size=rng.integers(5, 80))
            assert mscale(r, RHO, DELTA) == pytest.approx(
                bisect_oracle(r, RHO, 0.5), rel=1e-9)

    def test_root_certificate(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = rng.standard_t(df=2, size=rng.integers(5, 200))
            s = mscale(r, RHO, DELTA)
            if s > 0:
                assert abs(mscale_objective(r, RHO, s) - DELTA) <= 1e-10

    def test_scale_equivariance(self):
        rng = np.random.default_rng(13)
        r = rng.normal(size=40)
        base = mscale(r, RHO, DELTA)
        for c in [1e-6, 0.37, 2.0, 1e7]:
            assert mscale(c * r, RHO, DELTA) == pytest.approx(c * base, rel=1e-12)

    def test_sign_invariance(self):
        rng = np.random.default_rng(17)
        r = rng.normal(size=25)
        assert mscale(-r, RHO, DELTA) == mscale(r, RHO, DELTA)

    def test_monotone_bracket(self):
        rng = np.random.default_rng(19)
        r = rng.normal(size=30)
        s = mscale(r, RHO, DELTA)
        _, (lo,), (hi,), _ = mscale_module._mscale_batch(
            r[None, :], RHO, DELTA, mscale_module.SCALE_TOL)
        assert lo <= s <= hi
        assert mscale_objective(r, RHO, lo) >= DELTA >= mscale_objective(r, RHO, hi)

    def test_breakdown_zero_padding(self):
        # once zeros exceed fraction 1 - delta the equation has no positive root
        rng = np.random.default_rng(23)
        r = rng.normal(size=10)
        assert mscale(r, RHO, DELTA) > 0
        padded = np.concatenate([r, np.zeros(11)])  # 11/21 > 1 - 0.5
        assert mscale(padded, RHO, DELTA) == 0.0

    def test_boundary_zero_fraction(self):
        # exactly 1 - delta zeros also degenerates
        r = np.array([0.0, 0.0, 1.0, 2.0])
        assert mscale(r, RHO, 0.5) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mscale(np.array([]), RHO, DELTA)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            mscale(np.array([1.0, np.nan]), RHO, DELTA)

    def test_uncertified_root_raises_with_bracket(self):
        # a step loss jumps across delta at sigma = 3, so the bisection
        # meets its sigma tolerance where no sigma solves the equation
        step = custom_rho(1.0, lambda t: (np.abs(t) >= 1.0).astype(float),
                          np.zeros_like, np.zeros_like)
        with pytest.raises(ConvergenceError) as err:
            mscale(np.array([1.0, 2.0, 3.0, 4.0]), step, 0.4)
        lo, hi = err.value.bracket
        assert lo <= 3.0 < hi

    def test_wide_bracket_bisected_to_tolerance(self):
        # 6 of 30 residuals at 1e50: the cold bracket [median / k, 1e51 k]
        # needs about 210 bisection steps to shrink to SCALE_TOL
        rng = np.random.default_rng(19)
        r = rng.normal(size=30)
        r[:6] = 1e50
        s = mscale(r, RHO, DELTA)
        assert abs(mscale_objective(r, RHO, s) - DELTA) <= mscale_module.CERT_TOL
        assert abs(s - bisect_oracle(r, RHO, DELTA)) <= 1e-10 * s

    def test_other_delta(self):
        rng = np.random.default_rng(29)
        r = rng.normal(size=60)
        for delta in (0.1, 0.25, 0.75):
            s = mscale(r, RHO, delta)
            assert abs(mscale_objective(r, RHO, s) - delta) <= 1e-10


#: cap on the expansions of each bracket end of the plain schemes
EXPANSIONS = 200


def plain_bisection(r, rho0, delta, tol, lo=None, hi=None):
    """The bracket-then-bisect scheme of the scalar solver, evaluating
    every midpoint, bisecting until the bracket meets ``tol`` or stops
    shrinking."""
    a = np.abs(r)
    if lo is None:
        med = float(np.median(a))
        lo = (med if med > 0.0 else float(a[a > 0.0].min())) / rho0.k
    if hi is None:
        hi = float(a.max() * rho0.k * 10.0)
    for _ in range(EXPANSIONS):
        if float(rho0.rho(a / lo).mean()) >= delta:
            break
        lo *= 0.5
    for _ in range(EXPANSIONS):
        if float(rho0.rho(a / hi).mean()) <= delta:
            break
        hi *= 2.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if float(rho0.rho(a / mid).mean()) >= delta:
            lo, moved = mid, mid != lo
        else:
            hi, moved = mid, mid != hi
        if not moved:
            break
    return 0.5 * (lo + hi)


class TestScalarSolver:
    """The hot-loop solver used by the S refinement: it skips the
    bisection midpoints that earlier evaluations decide, so it must give
    plain bisection's answer bit for bit with fewer loss evaluations."""

    TOL = 1e-10

    def _cases(self):
        rng = np.random.default_rng(31)
        for i in range(40):
            n = int(rng.integers(5, 400))
            r = rng.standard_t(df=2, size=n) if i % 2 else rng.normal(size=n)
            if i % 5 == 0:
                r[: n // 3] = 0.0
            yield r * rng.uniform(1e-3, 1e3)

    def test_same_answer_as_plain_bisection(self):
        rng = np.random.default_rng(41)
        for i, r in enumerate(self._cases()):
            if i % 4 == 3:
                r = np.round(r, 1)  # ties
            root = bisect_oracle(r, RHO, 0.5)
            for tol in (1e-12, 1e-10, 1e-8, 1e-4):
                assert mscale_module._mscale_scalar(r, RHO, 0.5, tol) == \
                    plain_bisection(r, RHO, 0.5, tol)
                lo, hi = root * rng.uniform(0.1, 1.2), root * rng.uniform(0.9, 3.0)
                assert mscale_module._mscale_scalar(r, RHO, 0.5, tol,
                                                    lo_init=lo, hi_init=hi) == \
                    plain_bisection(r, RHO, 0.5, tol, lo=lo, hi=hi)

    def test_cold_bracket_matches_oracle(self):
        for r in self._cases():
            root = bisect_oracle(r, RHO, 0.5)
            s = mscale_module._mscale_scalar(r, RHO, 0.5, self.TOL)
            assert abs(s - root) <= self.TOL * root

    def test_warm_brackets_match_oracle(self):
        # the refinement passes [sigma / 4, gate]; also brackets that miss
        # the root on either side and must be widened first
        for r in self._cases():
            root = bisect_oracle(r, RHO, 0.5)
            for lo, hi in ((0.25 * root, root * (1 + 1e-9)),
                           (0.25 * root * 1.001, root * 1.001),
                           (2.0 * root, 3.0 * root),
                           (0.1 * root, 0.5 * root)):
                s = mscale_module._mscale_scalar(r, RHO, 0.5, self.TOL,
                                                 lo_init=lo, hi_init=hi)
                assert abs(s - root) <= self.TOL * root

    def test_degenerate_is_zero(self):
        r = np.array([0.0, 0.0, 1.0, 2.0])
        assert mscale_module._mscale_scalar(r, RHO, 0.5, self.TOL) == 0.0

    def test_fewer_loss_calls_than_bisection(self, monkeypatch):
        # plain bisection needs about 33 calls to shrink [sigma / 4, sigma]
        # to 1e-10 relative width
        calls = []
        factory = mscale_module._loss_eval

        def counting(rho0):
            loss = factory(rho0)

            def ev(t):
                calls.append(1)
                return loss(t)
            return ev

        monkeypatch.setattr(mscale_module, "_loss_eval", counting)
        rng = np.random.default_rng(37)
        r = rng.normal(size=300)
        root = bisect_oracle(r, RHO, 0.5)
        mscale_module._mscale_scalar(r, RHO, 0.5, self.TOL,
                                     lo_init=0.25 * root, hi_init=root * (1 + 1e-9))
        assert len(calls) <= 12

    @staticmethod
    def _gap(r, delta, s):
        return float(RHO.rho(np.abs(r) / s).mean()) - delta

    def _known_gap_cases(self):
        """(r, delta, lo, hi, gap at hi): gaps below -DECIDE_TOL, within
        it and exactly 0, and a root below lo, so that lo is expanded."""
        for r in self._cases():
            root = bisect_oracle(r, RHO, 0.5)
            lo = 0.25 * root
            for hi in (root * (1 + 1e-9), root * 1.5):  # below -DECIDE_TOL
                yield r, 0.5, lo, hi, self._gap(r, 0.5, hi)
            hi = root * (1 + 1e-9)
            mean = float(RHO.rho(np.abs(r) / hi).mean())
            # delta that puts the gap at hi within DECIDE_TOL, or at exactly 0
            yield r, mean + 0.5 * mscale_module.DECIDE_TOL, lo, hi, \
                self._gap(r, mean + 0.5 * mscale_module.DECIDE_TOL, hi)
            yield r, mean, lo, hi, self._gap(r, mean, hi)
            # the root lies below lo, which must be expanded
            yield r, 0.5, 1.25 * root, 1.5 * root, self._gap(r, 0.5, 1.5 * root)

    def test_known_gap_same_answer_as_plain_bisection(self):
        kinds = set()
        for r, delta, lo, hi, g in self._known_gap_cases():
            assert g <= 0.0
            kinds.add(-1 if g < -mscale_module.DECIDE_TOL else int(g == 0.0))
            for tol in (1e-8, 1e-10):
                assert mscale_module._mscale_scalar(r, RHO, delta, tol, lo_init=lo,
                                                    hi_init=hi, hi_gap=g) == \
                    plain_bisection(r, RHO, delta, tol, lo=lo, hi=hi)
        assert kinds == {-1, 0, 1}

    def test_positive_gap_is_not_trusted(self):
        # a gap above 0 says hi is below the root; hi is then evaluated and
        # expanded as if no gap had been given
        for r in self._cases():
            root = bisect_oracle(r, RHO, 0.5)
            lo, hi = 0.1 * root, 0.5 * root
            assert mscale_module._mscale_scalar(r, RHO, 0.5, self.TOL, lo_init=lo,
                                                hi_init=hi, hi_gap=self._gap(r, 0.5, hi)) == \
                plain_bisection(r, RHO, 0.5, self.TOL, lo=lo, hi=hi)

    def test_equal_gaps_take_the_midpoint(self):
        # 8 of 40 residuals at 1e150 saturate the loss all over the warm
        # bracket, so the gap is the same at both ends of an Illinois step
        rng = np.random.default_rng(89)
        r = rng.normal(size=40)
        r[::5] = 1e150
        lo, hi = 1e90, 4e90
        g = self._gap(r, 0.5, hi)
        assert g == self._gap(r, 0.5, 0.5 * (lo + hi)) < 0.0
        for tol in (1e-8, 1e-10):
            assert mscale_module._mscale_scalar(r, RHO, 0.5, tol, lo_init=lo,
                                                hi_init=hi, hi_gap=g) == \
                plain_bisection(r, RHO, 0.5, tol, lo=lo, hi=hi)

    @staticmethod
    def _count_loss_calls(monkeypatch):
        calls = []
        factory = mscale_module._loss_eval

        def counting(rho0):
            loss = factory(rho0)

            def ev(t):
                calls.append(1)
                return loss(t)
            return ev

        monkeypatch.setattr(mscale_module, "_loss_eval", counting)
        return calls

    def test_known_gap_few_loss_calls(self, monkeypatch):
        # refinement-shaped warm solves: [sigma / 4, sigma (1 + 1e-9)] with
        # the gap at the upper end known; with both ends evaluated and
        # regula falsi steps in sigma these took 8.4 calls per solve
        calls = self._count_loss_calls(monkeypatch)
        solves = 0
        for r in self._cases():
            root = bisect_oracle(r, RHO, 0.5)
            hi = root * (1 + 1e-9)
            mscale_module._mscale_scalar(r, RHO, 0.5, self.TOL, lo_init=0.25 * root,
                                         hi_init=hi, hi_gap=self._gap(r, 0.5, hi))
            solves += 1
        assert len(calls) / solves <= 5.0
        # an upper end within DECIDE_TOL of the root: the probes around it
        # must decide both sides, however the secant misjudges the slope
        for r in self._cases():
            hi = bisect_oracle(r, RHO, 0.5) * (1 + 1e-9)
            mean = float(RHO.rho(np.abs(r) / hi).mean())
            for delta in (mean, mean + 0.5 * mscale_module.DECIDE_TOL):
                calls.clear()
                mscale_module._mscale_scalar(r, RHO, delta, self.TOL, lo_init=0.25 * hi,
                                             hi_init=hi, hi_gap=self._gap(r, delta, hi))
                assert len(calls) <= 8

    def test_lower_end_above_root_few_loss_calls(self, monkeypatch):
        # the steps start from a bound on the gap at the lower end, not its
        # value; where the lower end lies above the root they must not run
        # to the step cap before it is evaluated (that took 48 calls per
        # warm solve and 34 per cold one at delta 0.9, against 23 and 11
        # with both ends evaluated first)
        calls = self._count_loss_calls(monkeypatch)
        solves = 0
        for r in self._cases():
            root = bisect_oracle(r, RHO, 0.5)
            hi = 1.5 * root
            mscale_module._mscale_scalar(r, RHO, 0.5, self.TOL, lo_init=1.25 * root,
                                         hi_init=hi, hi_gap=self._gap(r, 0.5, hi))
            solves += 1
        assert len(calls) / solves <= 16.0
        calls.clear()
        for r in self._cases():
            mscale_module._mscale_scalar(r, RHO, 0.9, 1e-8)
        assert len(calls) / solves <= 16.0


def plain_batch_bisection(R, rho0, delta, tol, lo_init=None, hi_init=None, loss=None):
    """The batch solver as a plain bisection that evaluates every row at
    every step: expand each row's bracket, then bisect all rows together
    until every row meets ``tol`` or no bracket shrinks. Status 2 marks a
    row whose bracket never straddled the root or missed ``tol``. (Where
    subnormal rows stall beside rows that still shrink, the solver stops
    at its step bound instead, so no test mixes the two.)"""
    loss = rho0.rho if loss is None else loss
    absR = np.abs(np.asarray(R, dtype=float))
    m, n = absR.shape
    k = rho0.k

    def objective(A, s):
        return loss(A / s[:, None]).mean(axis=1)

    sigma, lo, hi = np.zeros(m), np.zeros(m), np.zeros(m)
    status = np.zeros(m, dtype=int)
    degenerate = (absR == 0.0).mean(axis=1) >= 1.0 - delta
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
        lo_a = np.broadcast_to(np.asarray(lo_init, dtype=float), (len(A),)).copy()
    if hi_init is None:
        hi_a = A.max(axis=1) * k * 10.0
    else:
        hi_a = np.broadcast_to(np.asarray(hi_init, dtype=float), (len(A),)).copy()

    stuck = np.zeros(len(A), dtype=bool)
    for _ in range(EXPANSIONS):
        bad = objective(A, lo_a) < delta
        if not np.any(bad):
            break
        lo_a[bad] *= 0.5
    else:
        stuck |= bad
    for _ in range(EXPANSIONS):
        bad = objective(A, hi_a) > delta
        if not np.any(bad):
            break
        hi_a[bad] *= 2.0
    else:
        stuck |= bad

    while not np.all(hi_a - lo_a <= tol * hi_a):
        mid = 0.5 * (lo_a + hi_a)
        above = objective(A, mid) >= delta
        moved = np.where(above, mid != lo_a, mid != hi_a)
        lo_a = np.where(above, mid, lo_a)
        hi_a = np.where(above, hi_a, mid)
        if not moved.any():
            break

    met = (hi_a - lo_a <= tol * hi_a) & ~stuck
    sigma[active] = 0.5 * (lo_a + hi_a)
    lo[active] = lo_a
    hi[active] = hi_a
    status[active] = np.where(met, 0, 2)
    return sigma, lo, hi, status


def assert_same_solve(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


class TestBatchSolver:
    """The quick-refine solver: it skips the loss evaluations that earlier
    points decide, so it must give plain batch bisection's four outputs
    bit for bit with fewer loss points. A one-row call matches the scalar
    solver bit for bit, but a row solved inside a batch keeps bisecting
    until every row meets the tolerance, so it moves within that
    tolerance."""

    TOL = 1e-8

    def _matrices(self):
        rng = np.random.default_rng(53)
        for i in range(24):
            m, n = int(rng.integers(1, 30)), int(rng.integers(2, 400))
            R = rng.standard_t(df=2, size=(m, n)) if i % 2 else rng.normal(size=(m, n))
            R *= rng.uniform(1e-3, 1e3, size=(m, 1))
            if i % 3 == 1:
                R = np.round(R, 1)  # ties
            if i % 3 == 2:
                for row, zeros in zip(R, rng.integers(0, n + 1, size=m)):
                    row[:zeros] = 0.0  # degenerate once zeros reach 1 - delta
            yield R
        # loss passes over at least three CHUNK_POINTS blocks, the last
        # one partial, also after dropping degenerate rows
        for m, n in ((37, 2501), (40, 2500)):
            assert m * n > 2 * mscale_module.CHUNK_POINTS
            R = rng.standard_t(df=3, size=(m, n)) * rng.uniform(0.1, 10.0, size=(m, 1))
            R[::7, : n // 2 + 1] = 0.0
            yield R

    def test_same_answer_as_plain_bisection(self):
        rng = np.random.default_rng(59)
        for R in self._matrices():
            live = (R == 0.0).mean(axis=1) < 0.5
            root = np.array([bisect_oracle(r, RHO, 0.5) for r in R[live]])
            # cold, straddling and missing warm brackets
            warm = ((None, None),
                    (root * rng.uniform(0.1, 1.0, root.size),
                     root * rng.uniform(1.0, 3.0, root.size)),
                    (root * rng.uniform(1.5, 4.0, root.size),
                     root * rng.uniform(0.2, 0.8, root.size)))
            for tol in (1e-12, 1e-10, 1e-8, 1e-4):
                for lo, hi in warm:
                    want = plain_batch_bisection(R, RHO, 0.5, tol, lo, hi)
                    assert_same_solve(mscale_module._mscale_batch(
                        R, RHO, 0.5, tol, lo_init=lo, hi_init=hi), want)

    def test_zero_median_rows_in_blocks(self):
        # at delta = 0.25 a row is degenerate from 75 % zeros on, so rows
        # with 50-74 % zeros have median 0 and start their bracket from
        # the smallest positive residual
        rng = np.random.default_rng(83)
        R = rng.normal(size=(37, 2501)) * rng.uniform(0.1, 10.0, size=(37, 1))
        for row, share in zip(R[::4], rng.uniform(0.5, 0.74, size=10)):
            row[: int(share * row.size) + 1] = 0.0
        assert np.all(np.median(np.abs(R[::4]), axis=1) == 0.0)
        for tol in (1e-12, 1e-8):
            got = mscale_module._mscale_batch(R, RHO, 0.25, tol)
            assert_same_solve(got, plain_batch_bisection(R, RHO, 0.25, tol))
            assert np.all(got[3] == 0)

    def test_status_two_only_when_tol_missed(self):
        rng = np.random.default_rng(61)
        R = rng.normal(size=(6, 50))
        ok = mscale_module._mscale_batch(R, RHO, 0.5, self.TOL)
        assert np.all(ok[3] == 0)
        # a lower end that SCALE_MAX_ITER halvings cannot bring below the
        # root, and subnormal rows, whose brackets stall before tol
        far = mscale_module._mscale_batch(R, RHO, 0.5, 1e-4, lo_init=1e100)
        assert_same_solve(far, plain_batch_bisection(R, RHO, 0.5, 1e-4, 1e100))
        assert np.all(far[3] == 2)
        tiny = mscale_module._mscale_batch(R * 1e-318, RHO, 0.5, self.TOL)
        assert_same_solve(tiny, plain_batch_bisection(R * 1e-318, RHO, 0.5, self.TOL))
        assert np.all(tiny[3] == 2)

    def test_wide_brackets_bisected_to_tolerance(self):
        # 6 of 30 residuals at 1e100 or 1e300: the cold bracket spans 340 or
        # 1,000 binary orders, more than a fixed cap of 200 bisection steps
        rng = np.random.default_rng(19)
        r = rng.normal(size=30)
        root = bisect_oracle(r[6:].tolist() + [1e3] * 6, RHO, 0.5)
        for magnitude in (1e100, 1e300):
            r[:6] = magnitude
            for tol in (1e-12, 1e-10, 1e-8):
                want = plain_bisection(r, RHO, 0.5, tol)
                assert abs(want - root) <= tol * root
                assert mscale_module._mscale_scalar(r, RHO, 0.5, tol) == want
                got = mscale_module._mscale_batch(r[None, :], RHO, 0.5, tol)
                assert_same_solve(got, plain_batch_bisection(r[None, :], RHO, 0.5, tol))
                assert got[0][0] == want and got[3][0] == 0

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(R=arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 60)),
                    elements=st.one_of(
                        st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5]),
                        st.floats(-1e4, 1e4, allow_subnormal=False))),
           tol=st.sampled_from([1e-12, 1e-8, 1e-4]),
           delta=st.sampled_from([0.25, 0.5, 0.75]))
    def test_property_same_as_plain_bisection(self, R, tol, delta):
        assert_same_solve(mscale_module._mscale_batch(R, RHO, delta, tol),
                          plain_batch_bisection(R, RHO, delta, tol))

    def test_half_the_loss_points_of_plain_bisection(self, monkeypatch):
        points = []
        factory = mscale_module._loss_eval

        def counting(rho0):
            loss = factory(rho0)

            def ev(t):
                points.append(t.size)
                return loss(t)
            return ev

        rng = np.random.default_rng(67)
        R = rng.standard_t(df=3, size=(100, 2000)) * rng.uniform(0.5, 2.0, size=(100, 1))
        R[:, :400] += rng.normal(40.0, 5.0, size=(100, 400))  # outliers
        want = plain_batch_bisection(R, RHO, 0.5, self.TOL,
                                     loss=counting(RHO))
        plain = sum(points)
        points.clear()
        monkeypatch.setattr(mscale_module, "_loss_eval", counting)
        got = mscale_module._mscale_batch(R, RHO, 0.5, self.TOL)
        assert_same_solve(got, want)
        assert sum(points) <= 0.5 * plain

    #: loss points over ``_matrices()`` at tol 1e-8 and delta 0.25, 0.5 and
    #: 0.75 of the solver that evaluated both cold ends of every row first
    BOTH_ENDS_POINTS = {0.25: 3058038, 0.5: 2240670, 0.75: 2239980}

    def test_loss_points_pinned(self, monkeypatch):
        points = []
        factory = mscale_module._loss_eval

        def counting(rho0):
            loss = factory(rho0)

            def ev(t):
                points.append(t.size)
                return loss(t)
            return ev

        monkeypatch.setattr(mscale_module, "_loss_eval", counting)
        rng = np.random.default_rng(67)  # the outlier matrix above
        R = rng.standard_t(df=3, size=(100, 2000)) * rng.uniform(0.5, 2.0, size=(100, 1))
        R[:, :400] += rng.normal(40.0, 5.0, size=(100, 400))
        mscale_module._mscale_batch(R, RHO, 0.5, self.TOL)
        assert sum(points) <= 8 * R.size
        for delta, before in self.BOTH_ENDS_POINTS.items():
            points.clear()
            for R in self._matrices():
                assert_same_solve(mscale_module._mscale_batch(R, RHO, delta, self.TOL),
                                  plain_batch_bisection(R, RHO, delta, self.TOL))
            assert sum(points) <= before

    def test_one_row_calls_equal_scalar(self):
        rng = np.random.default_rng(43)
        for i in range(40):
            r = rng.normal(size=int(rng.integers(5, 300))) * rng.uniform(1e-3, 1e3)
            if i % 4 == 3:
                r = np.round(r, 1)  # ties
            root = bisect_oracle(r, RHO, 0.5)
            for lo, hi in ((None, None), (0.25 * root, root * (1 + 1e-9)),
                           (2.0 * root, 3.0 * root)):
                one = mscale_module._mscale_batch(r[None, :], RHO, 0.5, self.TOL,
                                                  lo_init=lo, hi_init=hi)[0][0]
                assert one == mscale_module._mscale_scalar(
                    r, RHO, 0.5, self.TOL, lo_init=lo, hi_init=hi)

    def test_batched_rows_move_within_tolerance(self):
        rng = np.random.default_rng(47)
        R = rng.normal(size=(50, 100)) * rng.uniform(0.1, 10.0, size=(50, 1))
        batched = mscale_module._mscale_batch(R, RHO, 0.5, self.TOL)[0]
        one_row = np.array([mscale_module._mscale_batch(r[None, :], RHO, 0.5, self.TOL)[0][0]
                            for r in R])
        assert np.all(np.abs(batched - one_row) <= self.TOL * one_row)
        assert np.count_nonzero(batched != one_row) > 0


class TestConfig:
    def test_delta_validated(self):
        with pytest.raises(ValueError):
            mscale(np.ones(3), RHO, 0.0)
        with pytest.raises(ValueError):
            mscale(np.ones(3), RHO, 1.0)
