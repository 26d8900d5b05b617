import numpy as np
import pytest

from robustmm import (AugmentedParam, Dataset, FitConfig, bisquare, fit,
                      fit_location, fit_mm, fit_s, linear_model, exp_model,
                      mscale, residuals)
from robustmm.mscale import mscale_objective

from gridoracle import grid_location_oracle, grid_mm_oracle, grid_s_oracle

CFG = FitConfig(n_subsamples=60, seed=42)


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
        xi, sigma = fit_s(d, linear_model(2), CFG)
        assert sigma == 0.0
        assert np.allclose(xi.beta, beta0, atol=1e-8)
        assert xi.alpha == pytest.approx(alpha0, abs=1e-8)

    def test_minimizer_property(self):
        rng = np.random.default_rng(1)
        beta0, alpha0 = [2.0], 1.0
        d = make_linear(rng, 50, 1, beta0, alpha0)
        xi, sigma = fit_s(d, linear_model(1), CFG)
        at_truth = mscale(residuals(d, linear_model(1),
                                    AugmentedParam(beta0, alpha0)),
                          CFG.rho0, CFG.delta)
        assert sigma <= at_truth + 1e-12

    def test_scale_is_mscale_at_solution(self):
        rng = np.random.default_rng(2)
        d = make_linear(rng, 60, 2, [1.0, -1.0], 0.0)
        m = linear_model(2)
        xi, sigma = fit_s(d, m, CFG)
        again = mscale(residuals(d, m, xi), CFG.rho0, CFG.delta)
        assert sigma == pytest.approx(again, rel=1e-10)

    def test_tiny_instance_grid_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.5, 1.5, size=8)
        y = 0.8 * x - 0.3 + 0.4 * rng.normal(size=8)
        d = Dataset(x=x.reshape(-1, 1), y=y)
        cfg = FitConfig(n_subsamples=100, seed=7)
        xi, sigma = fit_s(d, linear_model(1), cfg)
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
        got = fit_mm(d, m, CFG, sigma, AugmentedParam(np.zeros(0), 3.0))
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
            fit_mm(d, linear_model(1), CFG, 0.0, AugmentedParam([0.0], 0.0))


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


class TestFitLocation:
    def test_symmetric_sample_center(self):
        rng = np.random.default_rng(11)
        half = rng.normal(size=25)
        y = np.concatenate([3.0 + half, 3.0 - half])
        res = fit_location(y, CFG)
        assert res.xi_s.alpha == pytest.approx(3.0, abs=1e-8)
        assert res.xi_mm.alpha == pytest.approx(3.0, abs=1e-8)

    def test_constant_sample_exact_fit(self):
        res = fit_location(np.full(12, 4.2), CFG)
        assert res.exact_fit
        assert res.sigma == 0.0
        assert res.xi_mm.alpha == pytest.approx(4.2, abs=1e-12)

    def test_skewed_sample_matches_grid(self):
        rng = np.random.default_rng(12)
        y = rng.exponential(scale=1.0, size=60)
        res = fit_location(y, CFG)
        t_g, _ = grid_location_oracle(y, res.sigma, CFG.rho1.k,
                                      res.xi_mm.alpha - 0.3,
                                      res.xi_mm.alpha + 0.3)
        assert abs(res.xi_mm.alpha - t_g) <= 1e-4

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_location([1.0], CFG)


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
