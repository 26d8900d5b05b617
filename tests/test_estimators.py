import warnings

import numpy as np
import pytest

from robustmm import (AugmentedParam, Dataset, FitConfig, asymptotic_cov, bisquare,
                      fd_model, fit, linear_model, location_model, exp_model, mscale,
                      residuals)
from robustmm.estimators import _fit_mm_stage, _fit_s_stage
from robustmm.exceptions import FitError
from robustmm.montecarlo import SimScenario, _generate
from robustmm.mscale import mscale_objective

from gridoracle import grid_location_oracle, grid_mm_oracle, grid_s_oracle

CFG = FitConfig(n_subsamples=60, seed=42)


def location_fit(y, cfg):
    """``fit`` with the location model: a design of zero columns."""
    y = np.asarray(y, dtype=float)
    return fit(Dataset(x=np.zeros((y.size, 0)), y=y), location_model(), cfg)


def make_linear(rng, n, p, beta, alpha, noise=1.0):
    X = rng.normal(size=(n, p))
    y = X @ np.asarray(beta) + alpha + noise * rng.normal(size=n)
    return Dataset(x=X, y=y)


class TestFitConfig:
    def test_majorization_enforced(self):
        with pytest.raises(ValueError, match="majorized"):
            FitConfig(rho0=bisquare(4.685), rho1=bisquare(1.5476))

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            FitConfig(delta=1.5)

    def test_custom_rho_must_satisfy_shape_conditions(self):
        from robustmm import custom_rho
        base = bisquare(4.685)

        def bad_rho(t):
            t = np.asarray(t, dtype=float)
            vals = np.asarray(base.rho(t))
            flat = (np.abs(t) > 1.0) & (np.abs(t) < 2.0)
            return np.where(flat, base.rho(1.0), vals)

        bad = custom_rho(4.685, bad_rho, base.psi, base.psi_prime)
        with pytest.raises(ValueError, match="shape conditions"):
            FitConfig(rho1=bad)

    def test_valid_custom_rho_accepted(self):
        from robustmm import custom_rho
        base = bisquare(4.685)
        good = custom_rho(4.685, base.rho, base.psi, base.psi_prime)
        cfg = FitConfig(rho1=good)
        assert cfg.rho1.kind == "custom"


class TestFitS:
    def test_exact_fit_recovers_truth(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        beta0, alpha0 = np.array([1.5, -2.0]), 0.7
        d = Dataset(x=X, y=X @ beta0 + alpha0)
        xi, sigma = _fit_s_stage(d, linear_model(2), CFG)[:2]
        assert sigma == 0.0
        assert np.allclose(xi.beta, beta0, atol=1e-8)
        assert xi.alpha == pytest.approx(alpha0, abs=1e-8)

    def test_minimizer_property(self):
        rng = np.random.default_rng(1)
        beta0, alpha0 = [2.0], 1.0
        d = make_linear(rng, 50, 1, beta0, alpha0)
        xi, sigma = _fit_s_stage(d, linear_model(1), CFG)[:2]
        at_truth = mscale(residuals(d, linear_model(1),
                                    AugmentedParam(beta0, alpha0)),
                          CFG.rho0, CFG.delta)
        assert sigma <= at_truth + 1e-12

    def test_scale_is_mscale_at_solution(self):
        rng = np.random.default_rng(2)
        d = make_linear(rng, 60, 2, [1.0, -1.0], 0.0)
        m = linear_model(2)
        xi, sigma = _fit_s_stage(d, m, CFG)[:2]
        again = mscale(residuals(d, m, xi), CFG.rho0, CFG.delta)
        assert sigma == pytest.approx(again, rel=1e-10)

    def test_tiny_instance_grid_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.5, 1.5, size=8)
        y = 0.8 * x - 0.3 + 0.4 * rng.normal(size=8)
        d = Dataset(x=x.reshape(-1, 1), y=y)
        cfg = FitConfig(n_subsamples=100, seed=7)
        xi, sigma = _fit_s_stage(d, linear_model(1), cfg)[:2]
        (b_g, a_g), sig_g = grid_s_oracle(x, y, cfg.rho0.k, cfg.delta)
        assert sigma <= sig_g + 1e-4
        assert abs(xi.beta[0] - b_g) <= 1e-3
        assert abs(xi.alpha - a_g) <= 1e-3


class TestFitMM:
    def test_stationary_start_returns_immediately(self):
        # mirrored sample: the center is an exact stationary point
        base = np.array([0.4, 1.1, 2.3, 0.9])
        y = np.concatenate([3.0 + base, 3.0 - base])
        d = Dataset(x=np.zeros((8, 0)), y=y)
        from robustmm.model import location_model
        m = location_model()
        sigma = mscale(y - 3.0, CFG.rho0, CFG.delta)
        got = _fit_mm_stage(d, m, CFG, sigma, AugmentedParam(np.zeros(0), 3.0))[0]
        assert got.alpha == pytest.approx(3.0, abs=1e-10)

    def test_tiny_instance_grid_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.5, 1.5, size=8)
        y = 0.5 * x + 0.2 + 0.3 * rng.normal(size=8)
        d = Dataset(x=x.reshape(-1, 1), y=y)
        m = linear_model(1)
        cfg = FitConfig(n_subsamples=100, seed=11)
        res = fit(d, m, cfg)
        (b_g, a_g), obj_g = grid_mm_oracle(x, y, res.sigma, cfg.rho1.k)
        assert res.objective_mm <= obj_g + 1e-6
        assert abs(res.xi_mm.beta[0] - b_g) <= 1e-3
        assert abs(res.xi_mm.alpha - a_g) <= 1e-3

    def test_sigma_must_be_positive(self):
        d = Dataset(x=np.zeros((5, 1)), y=np.arange(5.0))
        with pytest.raises(ValueError):
            _fit_mm_stage(d, linear_model(1), CFG, 0.0, AugmentedParam([0.0], 0.0))


class TestFit:
    def test_objective_chain(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            d = make_linear(np.random.default_rng(seed), 80, 2, [1.0, 0.5], -1.0)
            res = fit(d, linear_model(2), CFG)
            r_s = residuals(d, linear_model(2), res.xi_s)
            mid = float(np.mean(CFG.rho1.rho(r_s / res.sigma)))
            top = mscale_objective(r_s, CFG.rho0, res.sigma)
            assert res.objective_mm <= mid + 1e-12
            assert mid <= top + 1e-12
            assert top == pytest.approx(CFG.delta, abs=1e-8)

    def test_equation_certificates(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            d = make_linear(np.random.default_rng(100 + seed), 70, 2, [2.0, -1.0], 0.3)
            res = fit(d, linear_model(2), CFG)
            assert res.certified
            assert max(res.equation_residuals) <= 1e-6

    def test_scale_equation_certificate(self):
        d = make_linear(np.random.default_rng(7), 90, 1, [1.0], 2.0)
        res = fit(d, linear_model(1), CFG)
        assert res.equation_residuals[2] <= 1e-8

    def test_exact_fit_short_circuit(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 1))
        d = Dataset(x=X, y=2.0 * X[:, 0] + 1.0)
        res = fit(d, linear_model(1), CFG)
        assert res.exact_fit
        assert res.sigma == 0.0
        assert np.array_equal(res.xi_mm.as_array(), res.xi_s.as_array())

    def test_exp_model_pipeline(self):
        rng = np.random.default_rng(9)
        n = 200
        X = rng.uniform(0.0, 2.0, size=(n, 1))
        beta0 = np.array([2.0, 0.5])
        m = exp_model()
        y = m.eval_batch(X, beta0) + 0.1 * rng.normal(size=n)
        d = Dataset(x=X, y=y)
        res = fit(d, m, FitConfig(n_subsamples=200, seed=5))
        assert np.all(np.abs(res.xi_mm.beta - beta0) < 0.2)

    def test_deterministic_given_seed(self):
        d = make_linear(np.random.default_rng(10), 50, 2, [1.0, 1.0], 0.0)
        r1 = fit(d, linear_model(2), CFG)
        r2 = fit(d, linear_model(2), CFG)
        assert np.array_equal(r1.theta_vector(), r2.theta_vector())


class TestStopPolicies:
    """The S refinement and the MM stage share one descent loop, but act
    differently at its iteration cap: an S refinement reports itself
    unconverged, the MM stage raises ConvergenceError."""

    def test_s_refinement_unconverged_at_cap(self, monkeypatch):
        import robustmm.estimators as est
        monkeypatch.setattr(est, "IRWLS_MAX_ITER", 2)
        d = make_linear(np.random.default_rng(11), 80, 2, [1.0, -0.5], 0.3)
        xi, sigma, its, converged = est._refine_s_full(
            d, linear_model(2), np.array([5.0, 5.0, -5.0]), CFG, est.IRWLS_TOL)
        assert (its, converged) == (2, False)
        assert sigma > 0.0 and np.all(np.isfinite(xi))

    def test_mm_stage_raises_at_cap_with_last_iterate(self, monkeypatch):
        import robustmm.estimators as est
        from robustmm.exceptions import ConvergenceError
        d = make_linear(np.random.default_rng(12), 80, 2, [1.0, -0.5], 0.3)
        m = linear_model(2)
        res = fit(d, m, CFG)
        start = AugmentedParam(res.xi_s.beta + 0.5, res.xi_s.alpha - 0.5)
        monkeypatch.setattr(est, "IRWLS_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="MM stage") as err:
            _fit_mm_stage(d, m, CFG, res.sigma, start)
        last = err.value.last
        assert isinstance(last, AugmentedParam)
        # the one accepted step descended the objective
        obj = [est._mm_objective(residuals(d, m, xi), CFG.rho1, res.sigma)
               for xi in (start, last)]
        assert obj[1] < obj[0]

    @pytest.mark.parametrize("case", ["linear", "exp", "location"])
    def test_objective_mm_is_the_objective_at_xi_mm(self, case):
        from robustmm.estimators import _mm_objective
        from robustmm.model import location_model
        rng = np.random.default_rng(13)
        if case == "linear":
            d, m = make_linear(rng, 60, 2, [1.0, 2.0], -1.0), linear_model(2)
        elif case == "exp":
            x = rng.uniform(0.0, 2.0, size=(80, 1))
            d = Dataset(x=x, y=2.0 * np.exp(0.5 * x[:, 0]) + 0.1 * rng.normal(size=80))
            m = exp_model()
        else:
            d, m = Dataset(x=np.zeros((50, 0)), y=rng.normal(size=50)), location_model()
        res = fit(d, m, CFG)
        assert not res.exact_fit
        assert res.objective_mm == _mm_objective(residuals(d, m, res.xi_mm),
                                                 CFG.rho1, res.sigma)


class TestFitLocation:
    def test_symmetric_sample_center(self):
        rng = np.random.default_rng(11)
        half = rng.normal(size=25)
        y = np.concatenate([3.0 + half, 3.0 - half])
        res = location_fit(y, CFG)
        assert res.xi_s.alpha == pytest.approx(3.0, abs=1e-8)
        assert res.xi_mm.alpha == pytest.approx(3.0, abs=1e-8)

    def test_constant_sample_exact_fit(self):
        res = location_fit(np.full(12, 4.2), CFG)
        assert res.exact_fit
        assert res.sigma == 0.0
        assert res.xi_mm.alpha == pytest.approx(4.2, abs=1e-12)

    def test_skewed_sample_matches_grid(self):
        rng = np.random.default_rng(12)
        y = rng.exponential(scale=1.0, size=60)
        res = location_fit(y, CFG)
        t_g, _ = grid_location_oracle(y, res.sigma, CFG.rho1.k,
                                      res.xi_mm.alpha - 0.3,
                                      res.xi_mm.alpha + 0.3)
        assert abs(res.xi_mm.alpha - t_g) <= 1e-4

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            location_fit([1.0], CFG)


class TestEquivariance:
    def test_regression_equivariance(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 2))
        y = X @ [1.0, -0.5] + 0.2 + rng.normal(size=60)
        b, c = np.array([2.0, 1.0]), 3.0
        m = linear_model(2)
        base = fit(Dataset(x=X, y=y), m, CFG)
        moved = fit(Dataset(x=X, y=y + X @ b + c), m, CFG)
        assert np.allclose(moved.xi_s.beta, base.xi_s.beta + b, atol=1e-8)
        assert moved.xi_s.alpha == pytest.approx(base.xi_s.alpha + c, abs=1e-8)
        assert np.allclose(moved.xi_mm.beta, base.xi_mm.beta + b, atol=1e-8)
        assert moved.xi_mm.alpha == pytest.approx(base.xi_mm.alpha + c, abs=1e-8)
        assert moved.sigma == pytest.approx(base.sigma, abs=1e-8)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 1))
        y = 2.0 * X[:, 0] + rng.normal(size=50)
        m = linear_model(1)
        base = fit(Dataset(x=X, y=y), m, CFG)
        c = 7.5
        scaled = fit(Dataset(x=X, y=c * y), m, CFG)
        assert np.allclose(scaled.xi_mm.as_array(), c * base.xi_mm.as_array(),
                           rtol=1e-8, atol=1e-10)
        assert scaled.sigma == pytest.approx(c * base.sigma, rel=1e-8)

    def test_affine_x_equivariance(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(60, 2))
        y = X @ [1.0, 2.0] + rng.normal(size=60)
        A = np.array([[2.0, 0.3], [-0.5, 1.5]])
        m = linear_model(2)
        base = fit(Dataset(x=X, y=y), m, CFG)
        mapped = fit(Dataset(x=X @ A, y=y), m, CFG)
        assert np.allclose(mapped.xi_mm.beta, np.linalg.solve(A, base.xi_mm.beta),
                           atol=1e-6)


class TestRobustness:
    def test_bounded_under_contamination(self):
        rng = np.random.default_rng(16)
        n = 100
        X = rng.normal(size=(n, 1))
        y = 2.0 * X[:, 0] + 1.0 + rng.normal(size=n)
        m = linear_model(1)
        cfg = FitConfig(n_subsamples=100, seed=3)
        clean = fit(Dataset(x=X, y=y), m, cfg)
        y_bad = y.copy()
        y_bad[:40] = 1e6
        dirty = fit(Dataset(x=X, y=y_bad), m, cfg)
        # a rough clean-data standard error for the slope
        se = np.std(y - X[:, 0] * clean.xi_mm.beta[0] - clean.xi_mm.alpha) / np.sqrt(n)
        assert abs(dirty.xi_mm.beta[0] - clean.xi_mm.beta[0]) < 10 * se


    def test_far_outliers_certified(self):
        # 6 of 30 responses at 1e50 put the certified M-scale's cold upper
        # end near 1e51, wider than 200 bisection steps shrink
        rng = np.random.default_rng(18)
        X = rng.normal(size=(30, 1))
        y = X[:, 0] + rng.normal(size=30)
        y[:6] = 1e50
        res = fit(Dataset(x=X, y=y), linear_model(1), FitConfig(n_subsamples=50, seed=4))
        assert res.certified
        assert abs(res.xi_mm.beta[0] - 1.0) < 1.0

    def test_saturating_outliers_certified(self):
        # replication 0 of a contamination run (p = 1, n = 30, 10 subsamples)
        # with 6 responses at a magnitude: from 1e150 on, a cold scale solve
        # of the S refinement spans more binary orders than 200 bisection
        # steps halve, and (t / k)^2 in the loss overflows
        scen = SimScenario(kind="contamination", p=1, sizes=(30,), replications=1,
                           n_subsamples=10, contamination_fractions=(0.2,))
        rng = scen.stream(0)
        d = _generate(scen, 30, rng)
        bad = rng.permutation(30)[:6]
        m, cfg = scen.build_model(), scen.fit_config(scen.fit_seed(0))

        def refit(magnitude):
            y = d.y.copy()
            y[bad] = magnitude
            dirty = Dataset(x=d.x, y=y)
            res = fit(dirty, m, cfg)
            asymptotic_cov(dirty, m, res, cfg)
            return res

        base = refit(1e50)
        assert base.certified
        for magnitude in (1e150, 1e200, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = refit(magnitude)
            assert res.certified, (magnitude, res.equation_residuals)
            assert abs(res.xi_mm.beta[0] - base.xi_mm.beta[0]) <= 1e-6

def _box_loop(d, m, n_sub, rng):
    """Box candidates one draw at a time, as the search drew them before
    it was batched."""
    lo, hi = m.bounds[:, 0], m.bounds[:, 1]
    out = []
    for _ in range(n_sub):
        beta = rng.uniform(lo, hi)
        fitted = m.eval_batch(d.x, beta)
        if not np.all(np.isfinite(fitted)):
            continue
        out.append(np.concatenate([beta, [float(np.median(d.y - fitted))]]))
    return np.asarray(out, dtype=float).reshape(len(out), m.q + 1)


def _exp_row(x, b):
    return float(b[0] * np.exp(b[1] * x[0]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestCandidates:
    """The batched candidate draws equal the one-at-a-time draws."""

    @pytest.mark.parametrize("n", [41, 60])
    @pytest.mark.parametrize("x_max", [2.0, 300.0])  # at 300 some draws overflow
    def test_box_candidates_equal_per_draw_loop(self, n, x_max):
        import robustmm.estimators as est
        rng = np.random.default_rng(101)
        x = rng.uniform(0.0, x_max, size=(n, 1))
        y = 2.0 * np.exp(0.7 * np.minimum(x[:, 0], 2.0)) + rng.normal(size=n)
        d = Dataset(x=x, y=y)
        for m in (exp_model(), fd_model("exp-fd", 2, _exp_row, bounds=exp_model().bounds)):
            got = est._box_candidates(d, m, 50, FitConfig(seed=n).rng())
            want = _box_loop(d, m, 50, FitConfig(seed=n).rng())
            assert np.array_equal(got, want)
            assert (len(got) < 50) == (x_max > 100.0)

    def test_all_non_finite_box(self):
        import robustmm.estimators as est
        x = np.linspace(250.0, 300.0, 30)[:, None]
        d = Dataset(x=x, y=np.ones(30))
        m = exp_model(bounds=((1.0, 2.0), (3.0, 4.0)))
        got = est._box_candidates(d, m, 20, CFG.rng())
        assert got.shape == (0, 3) and _box_loop(d, m, 20, CFG.rng()).shape == (0, 3)
        with pytest.raises(FitError, match="non-finite model value"):
            fit(d, m, CFG)

    def test_all_singular_subsamples(self):
        import robustmm.estimators as est
        d = Dataset(x=np.ones((30, 1)), y=np.arange(30.0))
        assert est._elemental_candidates(d, linear_model(1), 20, CFG.rng()).shape == (0, 2)
        with pytest.raises(FitError, match="every subsample was singular"):
            fit(d, linear_model(1), CFG)


def _full_last_pass(d, m, XI):
    """The last quick-refine pass without the screen: every row solved."""
    import robustmm.estimators as est
    R = est._residual_matrix(d, m, XI)
    sigma, _, _, status = est._mscale_batch(R, CFG.rho0, CFG.delta, 1e-8)
    return np.where(status == 1, 0.0, sigma), status


def _quick_refine_inputs(count):
    """(kind, dataset, model, candidate stack) of every kind in turn."""
    import robustmm.estimators as est
    from robustmm.model import location_model
    rng = np.random.default_rng(71)
    for i in range(count):
        kind = ("outliers", "duplicates", "exact", "few", "exp", "tiny")[i % 6]
        n, p = int(rng.integers(20, 100)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.standard_t(df=3, size=n)
        bad = rng.random(n) < 0.2
        y[bad] += rng.normal(25.0, 5.0, size=bad.sum())
        d, m, n_sub = Dataset(x=X, y=y), linear_model(p), int(rng.integers(6, 40))
        if kind == "exact":
            # a location sample that is constant on most of its points:
            # candidates that start far enough off reach the exact fit only
            # in the last pass
            ne = int(rng.uniform(0.55, 0.8) * n)
            y = np.concatenate([np.full(ne, 3.0), rng.normal(rng.uniform(5.0, 50.0), 5.0,
                                                             n - ne)])
            d, m = Dataset(x=np.zeros((n, 0)), y=y), location_model()
            yield kind, d, m, 3.0 + rng.normal(0.0, rng.uniform(2.0, 8.0), (40, 1))
            continue
        if kind == "exp":
            x = rng.uniform(0.0, 2.0, size=(n, 1))
            y = 2.0 * np.exp(0.7 * x[:, 0]) + 0.3 * rng.normal(size=n)
            y[bad] += 20.0
            d, m = Dataset(x=x, y=y), exp_model()
            yield kind, d, m, np.asarray(est._box_candidates(d, m, n_sub, rng))
            continue
        if kind == "few":
            n_sub = int(rng.integers(1, 5))
        if kind == "tiny":
            # subnormal residuals: no bracket meets the tolerance (status 2)
            d, n_sub = Dataset(x=X, y=y * 1e-318), int(rng.integers(2, 9))
        XI = np.asarray(est._elemental_candidates(d, m, n_sub, rng))
        if kind == "duplicates":
            XI = XI[rng.integers(0, len(XI), size=len(XI) + 10)]
        yield kind, d, m, XI


class TestRankingScreen:
    """The last quick-refine pass only ranks the candidates: it solves the
    rows that can rank among the N_BEST smallest scales and gives the
    others inf. The N_BEST best must come out as from solving every row,
    in the same order."""

    def test_same_ranking_as_the_full_last_pass(self, monkeypatch):
        import robustmm.estimators as est
        ranked = []
        rank = est._rank_scales
        monkeypatch.setattr(est, "_rank_scales",
                            lambda R, prev, cfg: ranked.append(rank(R, prev, cfg)) or ranked[-1])
        seen = dict.fromkeys(("outliers", "duplicates", "exact", "few", "exp", "tiny",
                              "screened", "exact_above_n_best", "status_2_seed"), 0)
        for kind, d, m, XI in _quick_refine_inputs(240):
            ranked.clear()
            XI, sigma = est._quick_refine(d, m, XI, CFG)
            want, status = _full_last_pass(d, m, XI)
            np.testing.assert_array_equal(np.argsort(sigma, kind="stable")[:est.N_BEST],
                                          np.argsort(want, kind="stable")[:est.N_BEST])
            if ranked:  # not stopped early by an exact fit
                seen[kind] += 1
                seen["screened"] += bool(np.any(np.isinf(sigma)))
                seen["exact_above_n_best"] += np.count_nonzero(sigma == 0.0) > est.N_BEST
                seen["status_2_seed"] += bool(np.all(status == 2))
        assert min(seen.values()) > 0, seen

    def test_every_row_that_can_rank_is_kept(self):
        import robustmm.estimators as est
        rng = np.random.default_rng(73)
        for i in range(60):
            m, n = int(rng.integers(2, 60)), int(rng.integers(5, 300))
            R = rng.standard_t(df=2, size=(m, n)) * rng.uniform(0.5, 2.0, size=(m, 1))
            if i % 3 == 1:
                R[rng.integers(0, m, size=m // 2)] = R[0]  # duplicate rows
            if i % 3 == 2:
                for row in R[rng.random(m) < 0.3]:
                    row[: int(0.6 * n)] = 0.0  # exact fits
            got = est._rank_scales(R, rng.uniform(0.5, 2.0, size=m), CFG)
            sigma, _, _, status = est._mscale_batch(R, CFG.rho0, CFG.delta, 1e-8)
            want = np.where(status == 1, 0.0, sigma)
            best = np.sort(want)[min(est.N_BEST, m) - 1]
            assert np.all(np.isfinite(got[want <= best]))
            # the kept rows are solved in a smaller batch: within its tolerance
            kept = np.isfinite(got)
            assert np.all(np.abs(got[kept] - want[kept]) <= 1.01e-8 * want[kept])

    def test_unbounded_seed_keeps_every_row(self):
        import robustmm.estimators as est
        rng = np.random.default_rng(79)
        R = rng.normal(size=(30, 80)) * rng.uniform(0.5, 20.0, size=(30, 1))
        R[3] *= 1e-318  # subnormal: its bracket cannot meet the tolerance
        assert est._mscale_batch(R[3:4], CFG.rho0, CFG.delta, 1e-8)[3][0] == 2
        prev = np.arange(30.0)
        prev[3] = 100.0  # not a seed
        assert np.any(np.isinf(est._rank_scales(R, prev, CFG)))
        prev[3] = -1.0  # now a seed
        assert np.all(np.isfinite(est._rank_scales(R, prev, CFG)))


def _pinned_linear(seed, n, p, n_sub, outliers=0.2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X @ np.arange(1.0, p + 1) - 0.5 + rng.normal(size=n)
    bad = rng.random(n) < outliers
    y[bad] += rng.normal(30.0, 5.0, size=bad.sum())
    return fit(Dataset(x=X, y=y), linear_model(p), FitConfig(n_subsamples=n_sub, seed=seed))


def _pinned_exp(seed, n, n_sub):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0, size=(n, 1))
    y = 2.0 * np.exp(0.7 * x[:, 0]) + 0.3 * rng.normal(size=n)
    y[rng.random(n) < 0.1] += 20.0
    return fit(Dataset(x=x, y=y), exp_model(), FitConfig(n_subsamples=n_sub, seed=seed))


def _pinned_location(seed, n, n_sub):
    rng = np.random.default_rng(seed)
    y = rng.standard_t(df=3, size=n) + 4.0
    y[: n // 10] += 25.0
    return location_fit(y, FitConfig(n_subsamples=n_sub, seed=seed))


def _pinned_exact(seed, n, n_sub):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = X @ np.array([1.5, -2.0]) + 0.7
    y[: n // 5] += rng.normal(10.0, 1.0, size=n // 5)
    return fit(Dataset(x=X, y=y), linear_model(2), FitConfig(n_subsamples=n_sub, seed=seed))


#: theta_vector() of fixed-seed fits whose S refinements all converge, as
#: the code gave them before the last quick-refine pass was screened
PINNED = {
    "linear-p1": (lambda: _pinned_linear(101, 200, 1, 80), [
        0.9038326243120136, -0.4701567021075067, 0.9576369086075913,
        -0.5047581120414454, 1.2862532642360907]),
    "linear-p2": (lambda: _pinned_linear(102, 300, 2, 100), [
        0.9988859133345879, 2.0121296235813046, -0.6302663297072642,
        1.0157013569321447, 2.028765834827018, -0.6471235687205523,
        1.3071329956651883]),
    "linear-p3": (lambda: _pinned_linear(103, 400, 3, 120), [
        0.9797536540485727, 2.0923961844992522, 2.9529411926751292,
        -0.5522176151924328, 1.0242983018847962, 2.061772594702879,
        3.0556305342074905, -0.5165959847620346, 1.3012981577910265]),
    "linear-p3-clean": (lambda: _pinned_linear(108, 250, 3, 60, outliers=0.0), [
        0.9059521323953623, 2.095760329059969, 3.0834598670643105,
        -0.4626645098947691, 1.0356914380670645, 2.0215701742077634,
        3.012910564574417, -0.5096737537858506, 0.9768824170232453]),
    "fewer-subsamples-than-n-best": (lambda: _pinned_linear(104, 150, 2, 3), [
        0.7498894382408753, 1.9870810056102473, -0.5433674921455394,
        0.7360322463694882, 2.014875536240017, -0.45262471218868816,
        1.2069350243888766]),
    "exp": (lambda: _pinned_exp(105, 200, 80), [
        1.7436141025464635, 0.7418670679081535, 0.3570112619141709,
        1.6987393010260434, 0.7567819177429508, 0.4046552447091203,
        0.2995707967837976]),
    "location": (lambda: _pinned_location(106, 150, 40), [
        4.010643213804262, 3.9870587179823334, 1.2425472857265019]),
    "exact": (lambda: _pinned_exact(107, 60, 40), [
        1.5, -2.0, 0.7, 1.5, -2.0, 0.7, 0.0]),
}


class TestPinnedAnswers:
    """Speed-ups of the S search must not move the answer: theta of a few
    fixed-seed fits stays at its pinned value to 1e-12 relative."""

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_theta_is_pinned(self, case):
        run, want = PINNED[case]
        res = run()
        assert res.converged_s and res.exact_fit == (case == "exact")
        want = np.asarray(want)
        assert np.all(np.abs(res.theta_vector() - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _loop_pass(d, m, XI, R, sigma):
    """The quick-refine pass one candidate at a time: ``_wls_step`` on each
    candidate's own weights, the candidate kept where it returns None."""
    import robustmm.estimators as est
    W = CFG.rho0.weight(R / sigma[:, None])
    XI = XI.copy()
    for c in range(len(XI)):
        step = est._wls_step(est.augmented_grad_rows(m, d.x, XI[c, :m.q]), W[c], R[c])
        if step is not None:
            XI[c] = est._project(m, XI[c] + step)
    return XI


class TestBatchedRefine:
    """Models that declare a shared Jacobian take the quick-refine steps of
    all candidates from blocked products and one stacked solve; other
    models stack their blocks' Jacobians and take the steps of
    ``_wls_step`` bit for bit."""

    def _stack(self, kind, rng):
        import robustmm.estimators as est
        from robustmm.model import location_model
        n = 700
        if kind == "location":
            y = rng.standard_t(df=3, size=n) + 2.0
            d, m = Dataset(x=np.zeros((n, 0)), y=y), location_model()
            XI = 2.0 + rng.normal(0.0, 3.0, size=(60, 1))
        else:
            X = rng.normal(size=(n, 3))
            X[:40] = 0.0  # the rows that make the last candidate's system singular
            y = X @ np.array([1.0, -2.0, 0.5]) + 0.3 + rng.normal(size=n)
            y[rng.random(n) < 0.2] += 30.0
            d, m = Dataset(x=X, y=y), linear_model(3)
            XI = np.asarray(est._elemental_candidates(d, m, 60, CFG.rng()))
        R = est._residual_matrix(d, m, XI)
        sigma = est._mscale_batch(R, CFG.rho0, CFG.delta, 1e-8)[0]
        # weight only on rows where the Jacobian cannot span: for the
        # linear model the zero rows of X, for location none at all
        far = np.full(n, 1e6)
        if kind == "linear":
            far[:40] = rng.normal(size=40)
        R[-1], sigma[-1] = far, 1.0
        return d, m, XI, R, sigma

    @pytest.mark.parametrize("kind", ["linear", "location"])
    def test_steps_match_per_candidate_wls(self, kind, monkeypatch):
        import robustmm.estimators as est
        rng = np.random.default_rng(83)
        d, m, XI, R, sigma = self._stack(kind, rng)
        assert m.shared_jacobian
        want = _loop_pass(d, m, XI, R, sigma)
        # small blocks, so that several blocks and a partial last one run
        monkeypatch.setattr(est, "STEP_BLOCK_POINTS", 7 * d.n)
        got = XI.copy()
        est._refine_pass(d, m, got, R, sigma, CFG.rho0)
        np.testing.assert_array_equal(got[-1], XI[-1])  # singular: kept as it was
        step_got, step_want = got - XI, want - XI
        assert np.all(np.linalg.norm(step_got - step_want, axis=1)
                      <= 1e-10 * np.linalg.norm(step_want, axis=1))

    @pytest.mark.parametrize("kind", ["exp", "fd"])
    def test_stacked_steps_equal_wls_bit_for_bit(self, kind, monkeypatch):
        import robustmm.estimators as est
        rng = np.random.default_rng(87)
        n = 700 if kind == "exp" else 150
        x = rng.uniform(0.0, 2.0, size=(n, 1))
        x[:40] = 0.0  # the rows that make the last candidate's system singular
        y = 2.0 * np.exp(0.7 * x[:, 0]) + 0.5 + 0.3 * rng.normal(size=n)
        y[rng.random(n) < 0.1] += 20.0
        d = Dataset(x=x, y=y)
        m = exp_model() if kind == "exp" else fd_model("exp-fd", 2, _exp_row,
                                                       bounds=exp_model().bounds)
        assert not m.shared_jacobian
        XI = est._box_candidates(d, m, 60, CFG.rng())
        R = est._residual_matrix(d, m, XI)
        sigma = est._mscale_batch(R, CFG.rho0, CFG.delta, 1e-8)[0]
        # weight only on the rows x = 0, where (e, b1 x e, 1) spans one direction
        R[-1], sigma[-1] = np.where(x[:, 0] == 0.0, rng.normal(size=n), 1e6), 1.0
        want = _loop_pass(d, m, XI, R, sigma)
        # small blocks, so that several blocks and a partial last one run
        monkeypatch.setattr(est, "STEP_BLOCK_POINTS", 7 * d.n * (m.q + 1))
        got = XI.copy()
        est._refine_pass(d, m, got, R, sigma, CFG.rho0)
        assert np.array_equal(got[-1], XI[-1])  # singular: kept as it was
        assert np.count_nonzero(np.any(got != XI, axis=1)) == len(XI) - 1
        assert np.array_equal(got, want)

    def test_undeclared_shared_jacobian_agrees(self):
        import dataclasses
        rng = np.random.default_rng(89)
        d = make_linear(rng, 400, 2, [1.0, -1.0], 0.5)
        y = d.y.copy()
        y[rng.random(400) < 0.2] += 25.0
        d = Dataset(x=d.x, y=y)
        m = linear_model(2)
        plain = dataclasses.replace(m, shared_jacobian=False)
        want = fit(d, m, CFG).theta_vector()
        got = fit(d, plain, CFG).theta_vector()
        assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))

    def test_hoisted_jacobian_descends_bit_for_bit(self, monkeypatch):
        # a declared shared Jacobian is built once per descent, and the
        # descent is the same as with one Jacobian per iteration
        import dataclasses
        import robustmm.estimators as est
        rng = np.random.default_rng(91)
        d = make_linear(rng, 300, 2, [1.0, -1.0], 0.5)
        y = d.y.copy()
        y[rng.random(300) < 0.2] += 25.0
        d = Dataset(x=d.x, y=y)
        m = linear_model(2)
        plain = dataclasses.replace(m, shared_jacobian=False)
        built = []
        jacobian = est.augmented_grad_rows
        monkeypatch.setattr(est, "augmented_grad_rows",
                            lambda *a: built.append(1) or jacobian(*a))
        for start in ([0.0, 0.0, 0.0], [5.0, 5.0, -5.0], [1.1, -0.9, 0.4]):
            for step_tol in (1e-4, est.IRWLS_TOL):
                built.clear()
                got = est._refine_s_full(d, m, np.array(start), CFG, step_tol)
                assert len(built) == 1
                built.clear()
                want = est._refine_s_full(d, plain, np.array(start), CFG, step_tol)
                assert len(built) == want[2]
                np.testing.assert_array_equal(got[0], want[0])
                assert got[1:] == want[1:]
            built.clear()
            got = est._fit_mm_stage(d, m, CFG, got[1], AugmentedParam.from_array(got[0]))
            assert len(built) == 1
            want = est._fit_mm_stage(d, plain, CFG, want[1],
                                     AugmentedParam.from_array(want[0]))
            np.testing.assert_array_equal(got[0].as_array(), want[0].as_array())
            assert got[1:] == want[1:]

    def test_quick_refine_memory_peak(self):
        import tracemalloc
        import robustmm.estimators as est
        rng = np.random.default_rng(97)
        d = make_linear(rng, 5000, 5, [1.0, 2.0, -1.0, 0.5, 3.0], 1.0)
        m = linear_model(5)
        XI = np.asarray(est._elemental_candidates(d, m, 200, CFG.rng()))
        matrix = XI.shape[0] * d.n * 8
        tracemalloc.start()
        try:
            est._quick_refine(d, m, XI, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * matrix, peak / matrix

    def test_exp_quick_refine_memory_peak(self):
        # a block's stacked Jacobians stay within STEP_BLOCK_POINTS
        # elements, and no two residual matrices of the passes coexist
        import tracemalloc
        import robustmm.estimators as est
        rng = np.random.default_rng(99)
        x = rng.uniform(0.0, 2.0, size=(5000, 1))
        y = 2.0 * np.exp(0.7 * x[:, 0]) + 0.3 * rng.normal(size=5000)
        y[rng.random(5000) < 0.1] += 20.0
        d, m = Dataset(x=x, y=y), exp_model()
        XI = est._box_candidates(d, m, 200, CFG.rng())
        matrix = XI.shape[0] * d.n * 8
        tracemalloc.start()
        try:
            est._quick_refine(d, m, XI, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * matrix, peak / matrix
