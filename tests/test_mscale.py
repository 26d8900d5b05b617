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
            r[None, :], RHO, DELTA, mscale_module.SCALE_TOL,
            mscale_module.SCALE_MAX_ITER)
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

    def test_other_delta(self):
        rng = np.random.default_rng(29)
        r = rng.normal(size=60)
        for delta in (0.1, 0.25, 0.75):
            s = mscale(r, RHO, delta)
            assert abs(mscale_objective(r, RHO, s) - delta) <= 1e-10


def plain_bisection(r, rho0, delta, tol, max_iter, lo=None, hi=None):
    """The bracket-then-bisect scheme of the scalar solver, evaluating
    every midpoint."""
    a = np.abs(r)
    if lo is None:
        med = float(np.median(a))
        lo = (med if med > 0.0 else float(a[a > 0.0].min())) / rho0.k
    if hi is None:
        hi = float(a.max() * rho0.k * 10.0)
    for _ in range(max_iter):
        if float(rho0.rho(a / lo).mean()) >= delta:
            break
        lo *= 0.5
    for _ in range(max_iter):
        if float(rho0.rho(a / hi).mean()) <= delta:
            break
        hi *= 2.0
    for _ in range(max_iter):
        if hi - lo <= tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if float(rho0.rho(a / mid).mean()) >= delta:
            lo = mid
        else:
            hi = mid
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
                assert mscale_module._mscale_scalar(r, RHO, 0.5, tol, 200) == \
                    plain_bisection(r, RHO, 0.5, tol, 200)
                lo, hi = root * rng.uniform(0.1, 1.2), root * rng.uniform(0.9, 3.0)
                assert mscale_module._mscale_scalar(r, RHO, 0.5, tol, 200,
                                                    lo_init=lo, hi_init=hi) == \
                    plain_bisection(r, RHO, 0.5, tol, 200, lo=lo, hi=hi)

    def test_cold_bracket_matches_oracle(self):
        for r in self._cases():
            root = bisect_oracle(r, RHO, 0.5)
            s = mscale_module._mscale_scalar(r, RHO, 0.5, self.TOL, 200)
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
                s = mscale_module._mscale_scalar(r, RHO, 0.5, self.TOL, 200,
                                                 lo_init=lo, hi_init=hi)
                assert abs(s - root) <= self.TOL * root

    def test_degenerate_is_zero(self):
        r = np.array([0.0, 0.0, 1.0, 2.0])
        assert mscale_module._mscale_scalar(r, RHO, 0.5, self.TOL, 200) == 0.0

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
        mscale_module._mscale_scalar(r, RHO, 0.5, self.TOL, 200,
                                     lo_init=0.25 * root, hi_init=root * (1 + 1e-9))
        assert len(calls) <= 12


def plain_batch_bisection(R, rho0, delta, tol, max_iter, lo_init=None,
                          hi_init=None, loss=None):
    """The batch solver as a plain bisection that evaluates every row at
    every step: expand each row's bracket, then bisect all rows together
    until every row meets ``tol``. Status 2 marks a row whose bracket
    never straddled the root or missed ``tol``."""
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
    for _ in range(max_iter):
        bad = objective(A, lo_a) < delta
        if not np.any(bad):
            break
        lo_a[bad] *= 0.5
    else:
        stuck |= bad
    for _ in range(max_iter):
        bad = objective(A, hi_a) > delta
        if not np.any(bad):
            break
        hi_a[bad] *= 2.0
    else:
        stuck |= bad

    for _ in range(max_iter):
        if np.all(hi_a - lo_a <= tol * hi_a):
            break
        mid = 0.5 * (lo_a + hi_a)
        above = objective(A, mid) >= delta
        lo_a = np.where(above, mid, lo_a)
        hi_a = np.where(above, hi_a, mid)

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
                    want = plain_batch_bisection(R, RHO, 0.5, tol, 150, lo, hi)
                    assert_same_solve(mscale_module._mscale_batch(
                        R, RHO, 0.5, tol, 150, lo_init=lo, hi_init=hi), want)

    def test_status_two_only_when_tol_missed(self):
        rng = np.random.default_rng(61)
        R = rng.normal(size=(6, 50))
        ok = mscale_module._mscale_batch(R, RHO, 0.5, self.TOL, 150)
        assert np.all(ok[3] == 0)
        # too few bisection steps, and a bracket too far off to expand
        short = mscale_module._mscale_batch(R, RHO, 0.5, 1e-12, 10)
        assert_same_solve(short, plain_batch_bisection(R, RHO, 0.5, 1e-12, 10))
        assert np.all(short[3] == 2)
        far = mscale_module._mscale_batch(R, RHO, 0.5, 1e-4, 10, lo_init=1e6)
        assert_same_solve(far, plain_batch_bisection(R, RHO, 0.5, 1e-4, 10, 1e6))
        assert np.all(far[3] == 2)

    # a row mixing tiny and large residuals overflows (t / k)^2 to inf,
    # which the loss saturates to 1 in both solvers
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(R=arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 60)),
                    elements=st.one_of(
                        st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5]),
                        st.floats(-1e4, 1e4, allow_subnormal=False))),
           tol=st.sampled_from([1e-12, 1e-8, 1e-4]),
           delta=st.sampled_from([0.25, 0.5, 0.75]))
    def test_property_same_as_plain_bisection(self, R, tol, delta):
        assert_same_solve(mscale_module._mscale_batch(R, RHO, delta, tol, 150),
                          plain_batch_bisection(R, RHO, delta, tol, 150))

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
        want = plain_batch_bisection(R, RHO, 0.5, self.TOL, 150,
                                     loss=counting(RHO))
        plain = sum(points)
        points.clear()
        monkeypatch.setattr(mscale_module, "_loss_eval", counting)
        got = mscale_module._mscale_batch(R, RHO, 0.5, self.TOL, 150)
        assert_same_solve(got, want)
        assert sum(points) <= 0.5 * plain

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
                                                  150, lo_init=lo, hi_init=hi)[0][0]
                assert one == mscale_module._mscale_scalar(
                    r, RHO, 0.5, self.TOL, 150, lo_init=lo, hi_init=hi)

    def test_batched_rows_move_within_tolerance(self):
        rng = np.random.default_rng(47)
        R = rng.normal(size=(50, 100)) * rng.uniform(0.1, 10.0, size=(50, 1))
        batched = mscale_module._mscale_batch(R, RHO, 0.5, self.TOL, 150)[0]
        one_row = np.array([mscale_module._mscale_batch(r[None, :], RHO, 0.5,
                                                        self.TOL, 150)[0][0]
                            for r in R])
        assert np.all(np.abs(batched - one_row) <= self.TOL * one_row)
        assert np.count_nonzero(batched != one_row) > 0


class TestConfig:
    def test_delta_validated(self):
        with pytest.raises(ValueError):
            mscale(np.ones(3), RHO, 0.0)
        with pytest.raises(ValueError):
            mscale(np.ones(3), RHO, 1.0)
