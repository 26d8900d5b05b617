import importlib

import numpy as np
import pytest

from robustmm import MScaleConfig, bisquare, mscale, mscale_objective
from robustmm.exceptions import DomainError

mscale_module = importlib.import_module("robustmm.mscale")

RHO = bisquare(1.547)
CFG = MScaleConfig(delta=0.5)


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
        assert mscale(np.zeros(10), RHO, CFG) == 0.0

    def test_single_residual_analytic(self):
        # invert 1 - (1 - u^2)^3 = 1/2 by hand for one residual equal to 1
        expected = 1.0 / (RHO.k * np.sqrt(1.0 - 0.5 ** (1.0 / 3.0)))
        got = mscale(np.array([1.0]), RHO, CFG)
        assert got == pytest.approx(expected, rel=1e-10)
        assert got == pytest.approx(1.42318, abs=1e-5)
        assert got == pytest.approx(bisect_oracle([1.0], RHO, 0.5), rel=1e-10)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = rng.normal(size=rng.integers(5, 80))
            assert mscale(r, RHO, CFG) == pytest.approx(
                bisect_oracle(r, RHO, 0.5), rel=1e-9)

    def test_root_certificate(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = rng.standard_t(df=2, size=rng.integers(5, 200))
            s = mscale(r, RHO, CFG)
            if s > 0:
                assert abs(mscale_objective(r, RHO, s) - CFG.delta) <= 1e-10

    def test_scale_equivariance(self):
        rng = np.random.default_rng(13)
        r = rng.normal(size=40)
        base = mscale(r, RHO, CFG)
        for c in [1e-6, 0.37, 2.0, 1e7]:
            assert mscale(c * r, RHO, CFG) == pytest.approx(c * base, rel=1e-12)

    def test_sign_invariance(self):
        rng = np.random.default_rng(17)
        r = rng.normal(size=25)
        assert mscale(-r, RHO, CFG) == mscale(r, RHO, CFG)

    def test_monotone_bracket(self):
        rng = np.random.default_rng(19)
        r = rng.normal(size=30)
        s, (lo, hi) = mscale(r, RHO, CFG, return_bracket=True)
        assert lo <= s <= hi
        assert mscale_objective(r, RHO, lo) >= CFG.delta >= mscale_objective(r, RHO, hi)

    def test_breakdown_zero_padding(self):
        # once zeros exceed fraction 1 - delta the equation has no positive root
        rng = np.random.default_rng(23)
        r = rng.normal(size=10)
        assert mscale(r, RHO, CFG) > 0
        padded = np.concatenate([r, np.zeros(11)])  # 11/21 > 1 - 0.5
        assert mscale(padded, RHO, CFG) == 0.0

    def test_boundary_zero_fraction(self):
        # exactly 1 - delta zeros also degenerates
        r = np.array([0.0, 0.0, 1.0, 2.0])
        assert mscale(r, RHO, MScaleConfig(delta=0.5)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mscale(np.array([]), RHO, CFG)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            mscale(np.array([1.0, np.nan]), RHO, CFG)

    def test_other_delta(self):
        rng = np.random.default_rng(29)
        r = rng.normal(size=60)
        for delta in (0.1, 0.25, 0.75):
            cfg = MScaleConfig(delta=delta)
            s = mscale(r, RHO, cfg)
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


class TestConfig:
    def test_delta_validated(self):
        with pytest.raises(ValueError):
            MScaleConfig(delta=0.0)
        with pytest.raises(ValueError):
            MScaleConfig(delta=1.0)

    def test_tol_validated(self):
        with pytest.raises(ValueError):
            MScaleConfig(tol=0.0)
