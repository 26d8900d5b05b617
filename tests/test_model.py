import numpy as np
import pytest

from robustmm import (AugmentedParam, Dataset, FitConfig, asymptotic_cov,
                      check_identifiability, exp_model, fd_model, fit,
                      linear_model, load_csv, location_model, residuals)
from robustmm.exceptions import DomainError
from robustmm.model import augmented_grad_rows, augmented_hess_rows


def fd_grad(fn, v, h=1e-6):
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    for j in range(v.size):
        e = np.zeros_like(v)
        e[j] = h
        out[j] = (fn(v + e) - fn(v - e)) / (2.0 * h)
    return out


class TestLinearModel:
    def test_eval_grad_hess(self):
        m = linear_model(2)
        X = np.array([[1.0, 2.0]])
        beta = np.array([3.0, 4.0])
        assert m.value(X, beta)[0] == 11.0
        assert np.array_equal(m.grad(X, beta)[0], X[0])
        assert np.array_equal(m.hess(X, beta)[0], np.zeros((2, 2)))

    def test_grad_matches_fd(self):
        m = linear_model(3)
        rng = np.random.default_rng(0)
        X = rng.normal(size=3)[None]
        beta = rng.normal(size=3)
        got = m.grad(X, beta)[0]
        want = fd_grad(lambda b: m.value(X, b)[0], beta)
        assert np.allclose(got, want, rtol=1e-5)

    def test_p_validated(self):
        with pytest.raises(ValueError):
            linear_model(0)


class TestExpModel:
    def test_flat_exponent(self):
        m = exp_model()
        assert m.value(np.array([[1.3]]), np.array([1.0, 0.0]))[0] == 1.0

    def test_substitution(self):
        m = exp_model()
        X = np.array([[0.0]])
        beta = np.array([2.0, 0.5])
        assert m.value(X, beta)[0] == 2.0
        assert np.allclose(m.grad(X, beta)[0], [1.0, 0.0])

    def test_derivatives_match_fd(self):
        m = exp_model()
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = rng.uniform(-1, 2, size=1)[None]
            beta = rng.uniform([-3, -1], [3, 1])
            g = m.grad(X, beta)[0]
            g_fd = fd_grad(lambda b: m.value(X, b)[0], beta)
            assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-8)
            H = m.hess(X, beta)[0]
            assert np.allclose(H, H.T, atol=1e-10)
            for j in range(2):
                col_fd = fd_grad(lambda b: m.grad(X, b)[0, j], beta)
                assert np.allclose(H[j], col_fd, rtol=1e-4, atol=1e-7)

    def test_batch_agrees_with_rows(self):
        m = exp_model()
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(15, 1))
        beta = np.array([1.5, 0.7])
        assert np.allclose(m.eval_batch(X, beta),
                           [m.value(x[None], beta)[0] for x in X])
        assert np.allclose(m.grad_rows(X, beta),
                           [m.grad(x[None], beta)[0] for x in X])


class TestResiduals:
    def test_exact_fit_is_zero(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        xi = AugmentedParam(beta=[1.0, -2.0], alpha=0.5)
        y = X @ xi.beta + xi.alpha
        d = Dataset(x=X, y=y)
        assert np.allclose(residuals(d, linear_model(2), xi), 0.0, atol=1e-14)

    def test_alpha_shift(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 1))
        y = rng.normal(size=10)
        d = Dataset(x=X, y=y)
        m = linear_model(1)
        xi = AugmentedParam(beta=[0.3], alpha=1.0)
        shifted = AugmentedParam(beta=[0.3], alpha=1.0 + 2.5)
        assert np.allclose(residuals(d, m, shifted), residuals(d, m, xi) - 2.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        d = Dataset(x=X, y=y)
        m = linear_model(2)
        xi = AugmentedParam(beta=[0.7, -0.2], alpha=0.1)
        want = np.array([y[i] - m.value(X[i:i + 1], xi.beta)[0] - xi.alpha for i in range(12)])
        assert np.allclose(residuals(d, m, xi), want, rtol=1e-14, atol=1e-15)

    def test_regression_equivariance(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        b = np.array([1.0, 2.0])
        m = linear_model(2)
        xi = AugmentedParam(beta=[0.5, 0.5], alpha=0.0)
        xi_b = AugmentedParam(beta=xi.beta + b, alpha=0.0)
        r1 = residuals(Dataset(x=X, y=y + X @ b), m, xi_b)
        r2 = residuals(Dataset(x=X, y=y), m, xi)
        assert np.allclose(r1, r2, atol=1e-12)


class TestAugmented:
    def test_linear_augmented(self):
        m = linear_model(2)
        X = np.array([[3.0, -1.0]])
        xi = AugmentedParam(beta=[1.0, 1.0], alpha=0.0)
        assert np.array_equal(augmented_grad_rows(m, X, xi.beta)[0], [3.0, -1.0, 1.0])
        assert np.array_equal(augmented_hess_rows(m, X, xi)[0], np.zeros((3, 3)))

    def test_alpha_component_is_one(self):
        m = exp_model()
        xi = AugmentedParam(beta=[2.0, 0.3], alpha=5.0)
        g = augmented_grad_rows(m, np.array([[0.7]]), xi.beta)[0]
        assert g[-1] == 1.0

    def test_fd_consistency(self):
        m = exp_model()
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=1)[None]
        xi = AugmentedParam(beta=[1.2, -0.4], alpha=0.3)

        def gbar(v):
            return m.value(X, v[:2])[0] + v[2]

        got = augmented_grad_rows(m, X, xi.beta)[0]
        want = fd_grad(gbar, xi.as_array())
        assert np.allclose(got, want, rtol=1e-5, atol=1e-8)

    def test_grad_rows_stack(self):
        m = linear_model(2)
        X = np.arange(8.0).reshape(4, 2)
        xi = AugmentedParam(beta=[1.0, 1.0], alpha=0.0)
        J = augmented_grad_rows(m, X, xi.beta)
        assert J.shape == (4, 3)
        assert np.array_equal(J[:, :2], X)
        assert np.array_equal(J[:, 2], np.ones(4))

    def test_beta_stack(self):
        m = exp_model()
        X = np.linspace(-1.0, 1.0, 5)[:, None]
        B = np.array([[1.2, -0.4], [0.5, 0.3], [-2.0, 1.0]])
        J = augmented_grad_rows(m, X, B)
        assert J.shape == (3, 5, 3)
        for b, Jb in zip(B, J):
            assert np.array_equal(Jb, augmented_grad_rows(m, X, b))


def exp_row(x, beta):
    """Per-row form of the exp mean function, as a user would write it."""
    return float(beta[0] * np.exp(beta[1] * x[0]))


#: name -> (factory, p, beta, tolerance of the Hessian against central
#: differences of the gradient); the finite-difference model's Hessian is
#: itself a difference of differences, good to about 1e-4
MODELS = {
    "linear": (lambda: linear_model(3), 3, np.array([0.4, -1.1, 2.0]), 1e-6),
    "location": (location_model, 0, np.zeros(0), 1e-6),
    "exp": (exp_model, 1, np.array([1.4, -0.6]), 1e-6),
    "fd-exp": (lambda: fd_model("exp-fd", 2, exp_row), 1, np.array([1.4, -0.6]), 1e-3),
}


class TestBatchContract:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_shapes_and_symmetry(self, name):
        make, p, beta, _ = MODELS[name]
        m = make()
        X = np.random.default_rng(30).uniform(-1, 1, size=(7, p))
        assert m.value(X, beta).shape == (7,)
        assert m.grad(X, beta).shape == (7, m.q)
        H = m.hess(X, beta)
        assert H.shape == (7, m.q, m.q)
        assert np.array_equal(H, H.transpose(0, 2, 1))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_hess_matches_fd_of_grad(self, name):
        make, p, beta, tol = MODELS[name]
        m = make()
        X = np.random.default_rng(31).uniform(-1, 1, size=(7, p))
        H = m.hess(X, beta)
        h = 1e-5
        for j in range(m.q):
            e = np.zeros(m.q)
            e[j] = h
            col_fd = (m.grad(X, beta + e) - m.grad(X, beta - e)) / (2.0 * h)
            assert np.allclose(H[:, j], col_fd, rtol=tol, atol=tol)


class TestStackedBeta:
    """``eval_batch`` and ``grad_rows`` on a stack of coefficient vectors
    give each vector's own call, bit for bit."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("lead", [(9,), (2, 3), (0,)])
    def test_stack_equals_per_beta_calls(self, name, lead):
        make, p, beta, _ = MODELS[name]
        m = make()
        rng = np.random.default_rng(32)
        X = rng.uniform(-1, 2, size=(11, p))
        B = beta + rng.uniform(-1, 1, size=lead + (m.q,))
        G, J = m.eval_batch(X, B), m.grad_rows(X, B)
        assert G.shape == lead + (11,) and J.shape == lead + (11, m.q)
        for idx in np.ndindex(*lead):
            assert np.array_equal(G[idx], m.eval_batch(X, B[idx]))
            assert np.array_equal(J[idx], m.grad_rows(X, B[idx]))


    def test_linear_slices_equal_plain_product(self):
        m = linear_model(4)
        rng = np.random.default_rng(34)
        X, B = rng.normal(size=(50, 4)), rng.normal(size=(7, 4))
        G = m.eval_batch(X, B)
        for c in range(7):
            assert np.array_equal(G[c], X @ B[c])


class TestFdModel:
    def test_matches_analytic_derivatives(self):
        ref = exp_model()
        m = fd_model("exp-fd", 2, exp_row)
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, size=1)[None]
        beta = np.array([1.4, -0.6])
        assert np.allclose(m.grad(X, beta), ref.grad(X, beta), rtol=1e-5, atol=1e-8)
        assert np.allclose(m.hess(X, beta), ref.hess(X, beta), rtol=1e-3, atol=1e-4)
        assert not m.certified_derivatives

    @pytest.mark.parametrize("label", ["linear", "location"])
    def test_name_does_not_change_fit(self, label):
        rng = np.random.default_rng(12)
        X = rng.uniform(0.0, 2.0, size=(60, 1))
        y = 1.5 * np.exp(0.7 * X[:, 0]) + 0.5 + 0.2 * rng.normal(size=60)
        d = Dataset(x=X, y=y)
        bounds = exp_model().bounds
        cfg = FitConfig(n_subsamples=30, seed=4)
        want = fit(d, fd_model("exp-fd", 2, exp_row, bounds=bounds), cfg)
        got = fit(d, fd_model(label, 2, exp_row, bounds=bounds), cfg)
        assert np.array_equal(got.theta_vector(), want.theta_vector())

    def test_inference_warns(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 1))
        y = 2.0 * X[:, 0] + 0.5 + 0.5 * rng.normal(size=60)
        d = Dataset(x=X, y=y)
        m = fd_model("linear-fd", 1, lambda x, b: float(x @ b), bounds=[(-10.0, 10.0)])
        cfg = FitConfig(n_subsamples=40, seed=2)
        res = fit(d, m, cfg)
        with pytest.warns(UserWarning, match="not certified"):
            asymptotic_cov(d, m, res, cfg)


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(DomainError, match="row 1"):
            Dataset(x=np.array([[1.0], [np.nan]]), y=np.array([0.0, 0.0]))

    def test_rejects_inf_response(self):
        with pytest.raises(DomainError, match="row 0"):
            Dataset(x=np.ones((2, 1)), y=np.array([np.inf, 0.0]))

    def test_location_shape(self):
        d = Dataset(x=np.zeros((5, 0)), y=np.arange(5.0))
        assert d.p == 0 and d.n == 5


class TestIdentifiability:
    def test_constant_column_flagged(self):
        rng = np.random.default_rng(8)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        rep = check_identifiability(Dataset(x=X, y=rng.normal(size=30)))
        assert rep.at_risk
        assert 0 in rep.constant_columns

    def test_random_design_passes(self):
        rng = np.random.default_rng(9)
        d = Dataset(x=rng.normal(size=(50, 3)), y=rng.normal(size=50))
        rep = check_identifiability(d)
        assert not rep.at_risk
        assert rep.rank == 4

    def test_rank_ignores_column_scale(self):
        # at 1e200 the predictors would put the intercept column below the
        # rank tolerance; a constant or a duplicated column still counts
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 2)) * 1e200
        rep = check_identifiability(Dataset(x=X, y=rng.normal(size=50)))
        assert not rep.at_risk and rep.rank == 3
        for bad in (np.column_stack([X, np.full(50, 1e200)]),
                    np.column_stack([X, X[:, 0]])):
            rep = check_identifiability(Dataset(x=bad, y=rng.normal(size=50)))
            assert rep.at_risk and rep.rank == 3

    def test_duplicated_point_flagged(self):
        X = np.tile([[1.0, 2.0]], (25, 1))
        rep = check_identifiability(Dataset(x=X, y=np.zeros(25)))
        assert rep.at_risk
        assert rep.max_duplicate_fraction == 1.0


class TestCsv:
    def test_with_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        d = load_csv(f, y_col="y", x_cols=["x1", "x2"])
        assert d.n == 2 and d.p == 2
        assert np.array_equal(d.y, [1.0, 4.0])

    def test_without_header_indices(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0\n3.0,4.0\n")
        d = load_csv(f, y_col=0)
        assert np.array_equal(d.y, [1.0, 3.0])
        assert np.array_equal(d.x[:, 0], [2.0, 4.0])

    def test_nan_cell_named(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\n1.0,nan\n")
        with pytest.raises(DomainError, match="row 2"):
            load_csv(f, y_col="y")

    def test_bad_cell_named(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0\n1.0,oops\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(f, y_col=0)

    def test_bad_cell_before_short_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\n1.0,2.0\n1.0,oops\n3.0\n")
        with pytest.raises(ValueError, match=r"row 3, column 1: cannot parse 'oops'"):
            load_csv(f, y_col="y")

    def test_short_row_before_bad_cell(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\n3.0\n1.0,oops\n")
        with pytest.raises(ValueError, match="row 2: expected 2 fields, got 1"):
            load_csv(f, y_col="y")

    def test_every_row_too_long(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(ValueError, match="row 2: expected 2 fields, got 3"):
            load_csv(f, y_col="y")

    def test_inf_cell_named(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0\n3.0,4.0\n-inf,5.0\n")
        with pytest.raises(DomainError, match="row 3, column 0: non-finite value '-inf'"):
            load_csv(f, y_col=0)

    def test_first_of_two_bad_cells_named(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\n1.0,2.0,3.0\n1.0,2.0,bad\nnan,2.0,3.0\n")
        with pytest.raises(ValueError, match="row 3, column 2"):
            load_csv(f, y_col="y")

    def test_quotes_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text('y,x\n"1.0",2.0\n')
        with pytest.raises(ValueError, match="quoted"):
            load_csv(f, y_col="y")

    def test_missing_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\n1.0,2.0\n")
        with pytest.raises(ValueError, match="not found"):
            load_csv(f, y_col="z")
