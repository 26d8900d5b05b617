import numpy as np
import pytest

from robustmm import (Dataset, FitConfig, InferenceConstants, PsiSystem,
                      asymptotic_cov, bisquare, closed_form_c0_inv,
                      closed_form_d0, closed_form_d0_inv, fit, fit_location,
                      influence_full, influence_location, influence_mm,
                      linear_model, location_model, plugin_constants)
from robustmm.exceptions import SingularityError
from robustmm.inference import d0_determinant_factor

RHO0 = bisquare(1.5476)
RHO1 = bisquare(4.685)
CFG = FitConfig(n_subsamples=60, seed=21)


def random_constants(rng, q):
    """Well-conditioned synthetic constant sets."""
    b0 = rng.normal(size=q)
    M = rng.normal(size=(q, q))
    A0 = M @ M.T + 0.5 * np.eye(q)
    return InferenceConstants(
        a00=rng.uniform(0.3, 1.0), a01=rng.uniform(0.3, 1.0),
        e00=rng.normal() * 0.3, e01=rng.normal() * 0.3,
        d0=rng.uniform(0.2, 0.8), b0=b0, A0=A0,
        sigma0=rng.uniform(0.5, 2.0),
        alpha00=rng.normal() * 0.5, alpha01=rng.normal() * 0.5,
        rho0=RHO0, rho1=RHO1, delta=0.5)


def fitted_instance(seed=0, n=120, p=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    beta0 = np.arange(1.0, p + 1.0)
    y = X @ beta0 + 0.5 + rng.normal(size=n)
    d = Dataset(x=X, y=y)
    m = linear_model(p)
    res = fit(d, m, CFG)
    return d, m, res


class TestPsiStack:
    def test_exact_fit_observation(self):
        m = linear_model(1)
        sys = PsiSystem(m, RHO0, RHO1, 0.5)
        theta = np.array([2.0, 1.0, 2.0, 1.0, 0.7])
        x, y = np.array([0.5]), 2.0 * 0.5 + 1.0
        got = sys.psi(x, y, theta)
        assert np.allclose(got[:-1], 0.0, atol=1e-15)
        assert got[-1] == pytest.approx(-0.5, abs=1e-15)

    def test_mean_scale_row_vanishes_at_fit(self):
        d, m, res = fitted_instance(1)
        sys = PsiSystem(m, CFG.rho0, CFG.rho1, CFG.delta)
        Psi = sys.psi_matrix(d, res.theta_vector())
        assert abs(Psi[:, -1].mean()) <= 1e-8

    def test_matches_hand_evaluation(self):
        m = linear_model(2)
        sys = PsiSystem(m, RHO0, RHO1, 0.5)
        rng = np.random.default_rng(2)
        x = rng.normal(size=2)
        y = float(rng.normal())
        theta = np.array([0.5, -0.2, 0.1, 0.4, -0.1, 0.2, 0.9])
        t_s = (y - x @ theta[:2] - theta[2]) / theta[6]
        t_mm = (y - x @ theta[3:5] - theta[5]) / theta[6]
        want = np.concatenate([
            RHO0.psi(t_s) * np.array([x[0], x[1], 1.0]),
            RHO1.psi(t_mm) * np.array([x[0], x[1], 1.0]),
            [RHO0.rho(t_s) - 0.5],
        ])
        assert np.allclose(sys.psi(x, y, theta), want, atol=1e-14)

    def test_row_stack_matches_single(self):
        d, m, res = fitted_instance(3, n=25)
        sys = PsiSystem(m, CFG.rho0, CFG.rho1, CFG.delta)
        theta = res.theta_vector()
        Psi = sys.psi_matrix(d, theta)
        for i in range(5):
            assert np.allclose(Psi[i], sys.psi(d.x[i], d.y[i], theta),
                               rtol=1e-12, atol=1e-14)


class TestPsiJacobian:
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_finite_differences(self, p):
        rng = np.random.default_rng(4)
        m = linear_model(p)
        sys = PsiSystem(m, RHO0, RHO1, 0.5)
        dim = 2 * p + 3
        for _ in range(25):
            theta = np.concatenate([rng.normal(size=dim - 1) * 0.5,
                                    [rng.uniform(0.6, 1.5)]])
            x = rng.normal(size=p)
            y = float(rng.normal())
            J = sys.psi_jacobian(x, y, theta)
            h = 1e-6
            J_fd = np.empty_like(J)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                J_fd[:, j] = (sys.psi(x, y, theta + e) - sys.psi(x, y, theta - e)) / (2 * h)
            assert np.allclose(J, J_fd, rtol=1e-4, atol=1e-6)

    def test_zero_blocks(self):
        rng = np.random.default_rng(5)
        m = linear_model(2)
        sys = PsiSystem(m, RHO0, RHO1, 0.5)
        q1 = 3
        for _ in range(20):
            theta = np.concatenate([rng.normal(size=6), [rng.uniform(0.5, 2.0)]])
            J = sys.psi_jacobian(rng.normal(size=2), float(rng.normal()), theta)
            assert np.all(J[:q1, q1:2 * q1] == 0.0)
            assert np.all(J[q1:2 * q1, :q1] == 0.0)
            assert J[2 * q1, q1:2 * q1] @ np.ones(q1) == 0.0

    def test_linear_block_form(self):
        m = linear_model(1)
        sys = PsiSystem(m, RHO0, RHO1, 0.5)
        theta = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        x, y = np.array([0.7]), 1.2
        J = sys.psi_jacobian(x, y, theta)
        gbar = np.array([0.7, 1.0])
        t_s = (y - 0.7) / 1.0
        want = -RHO0.psi_prime(t_s) * np.outer(gbar, gbar)
        assert np.allclose(J[:2, :2], want, atol=1e-14)


class TestClosedForms:
    def test_c0_inverse_blocks(self):
        rng = np.random.default_rng(6)
        for q in (1, 2, 4):
            c = random_constants(rng, q)
            got = closed_form_c0_inv(c)
            want = np.linalg.inv(c.C0)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_d0_inverse_blocks(self):
        rng = np.random.default_rng(7)
        for q in (1, 2, 3):
            c = random_constants(rng, q)
            got = closed_form_d0_inv(c)
            want = np.linalg.inv(closed_form_d0(c))
            assert np.allclose(got, want, rtol=1e-8, atol=1e-10)

    def test_determinant_identity(self):
        rng = np.random.default_rng(8)
        for q in (0, 1, 2, 3):
            c = random_constants(rng, q)
            det = np.linalg.det(closed_form_d0(c))
            assert det == pytest.approx(d0_determinant_factor(c), rel=1e-8)

    def test_location_triangular_reduction(self):
        rng = np.random.default_rng(9)
        c = random_constants(rng, 0)
        D = closed_form_d0(c)
        want = -np.array([[c.a00, 0.0, c.e00],
                          [0.0, c.a01, c.e01],
                          [0.0, 0.0, c.d0]]) / c.sigma0
        assert np.allclose(D, want, atol=1e-14)

    def test_c0_invertible_iff_a0(self):
        rng = np.random.default_rng(10)
        c = random_constants(rng, 3)
        assert np.linalg.det(c.C0) == pytest.approx(np.linalg.det(c.A0), rel=1e-9)


class TestInfluence:
    def test_closed_form_equals_generic(self):
        rng = np.random.default_rng(11)
        m = linear_model(2)
        sys = PsiSystem(m, RHO0, RHO1, 0.5)
        for _ in range(50):
            c = random_constants(rng, 2)
            beta = rng.normal(size=2)
            theta = np.concatenate([beta, [c.alpha00], beta, [c.alpha01], [c.sigma0]])
            x = rng.normal(size=2)
            y = float(rng.normal() * 2.0)
            closed = influence_full(x, y, m, beta, c)
            generic = -np.linalg.solve(closed_form_d0(c), sys.psi(x, y, theta))
            assert np.allclose(closed, generic, rtol=1e-8,
                               atol=1e-8 * (1 + np.abs(generic).max()))

    def test_zero_at_null_observation(self):
        rng = np.random.default_rng(12)
        c = random_constants(rng, 1)
        m = linear_model(1)
        beta = np.array([1.0])
        # MM residual zero and the scale row exactly at its target
        y = float(m.value(np.array([[0.3]]), beta)[0] + c.alpha01)
        got = influence_mm(np.array([0.3]), y, m, beta, c)
        t_s = (y - m.value(np.array([[0.3]]), beta)[0] - c.alpha00) / c.sigma0
        if abs(RHO0.rho(t_s) - 0.5) < 1e-12:
            assert np.allclose(got, 0.0, atol=1e-12)
        else:
            # the score part vanishes, only the scale-route term survives
            expected_alpha = -(c.sigma0 * c.e01 / (c.a01 * c.d0)) * (RHO0.rho(t_s) - 0.5)
            assert np.allclose(got[:-1], 0.0, atol=1e-12)
            assert got[-1] == pytest.approx(expected_alpha, rel=1e-10)

    def test_symmetric_case_drops_scale_term(self):
        rng = np.random.default_rng(13)
        base = random_constants(rng, 2)
        c = InferenceConstants(a00=base.a00, a01=base.a01, e00=base.e00, e01=0.0,
                               d0=base.d0, b0=base.b0, A0=base.A0,
                               sigma0=base.sigma0, alpha00=0.0, alpha01=0.0,
                               rho0=RHO0, rho1=RHO1, delta=0.5)
        m = linear_model(2)
        beta = np.array([1.0, -1.0])
        x = rng.normal(size=2)
        y = float(rng.normal())
        got = influence_mm(x, y, m, beta, c)
        t = (y - m.value(x[None], beta)[0]) / c.sigma0
        lead = c.sigma0 / c.a01 * RHO1.psi(t)
        want_beta = lead * np.linalg.solve(c.A0, m.grad(x[None], beta)[0] - c.b0)
        assert np.allclose(got[:-1], want_beta, rtol=1e-10)

    def test_location_matches_generic(self):
        rng = np.random.default_rng(14)
        m = location_model()
        sys = PsiSystem(m, RHO0, RHO1, 0.5)
        for _ in range(30):
            c = random_constants(rng, 0)
            theta = np.array([c.alpha00, c.alpha01, c.sigma0])
            y = float(rng.normal() * 2.0)
            got = influence_location(y, c)
            generic = -np.linalg.solve(closed_form_d0(c), sys.psi(np.zeros(0), y, theta))
            assert got == pytest.approx(generic[1], rel=1e-10, abs=1e-10)

    def test_degenerate_constants_error(self):
        rng = np.random.default_rng(15)
        base = random_constants(rng, 1)
        bad = InferenceConstants(a00=base.a00, a01=0.0, e00=base.e00, e01=base.e01,
                                 d0=base.d0, b0=base.b0, A0=base.A0,
                                 sigma0=base.sigma0, alpha00=0.0, alpha01=0.0,
                                 rho0=RHO0, rho1=RHO1, delta=0.5)
        with pytest.raises(SingularityError) as err:
            influence_mm(np.array([0.1]), 1.0, linear_model(1), np.array([1.0]), bad)
        assert err.value.factor == "a01"


class TestEmpiricalD0:
    def test_matches_closed_form_at_fit(self):
        # agreement is sampling-noise limited and shrinks like 1/sqrt(n)
        rng = np.random.default_rng(16)
        n = 20000
        X = rng.normal(size=(n, 2))
        y = X @ [1.0, 2.0] + 0.5 + rng.normal(size=n)
        d = Dataset(x=X, y=y)
        m = linear_model(2)
        res = fit(d, m, FitConfig(n_subsamples=10, seed=21))
        sys = PsiSystem(m, CFG.rho0, CFG.rho1, CFG.delta)
        D_emp = sys.empirical_d0(d, res.theta_vector())
        c = plugin_constants(d, m, res, FitConfig(n_subsamples=10, seed=21))
        D_closed = closed_form_d0(c)
        rel = np.linalg.norm(D_emp - D_closed) / np.linalg.norm(D_closed)
        assert rel < 5e-2

    def test_exact_for_location(self):
        rng = np.random.default_rng(17)
        y = rng.normal(size=200)
        res = fit_location(y, CFG)
        d = Dataset(x=np.zeros((200, 0)), y=y)
        m = location_model()
        sys = PsiSystem(m, CFG.rho0, CFG.rho1, CFG.delta)
        D_emp = sys.empirical_d0(d, res.theta_vector())
        c = plugin_constants(d, m, res, CFG)
        D_closed = closed_form_d0(c)
        # constant design: every entry matches except the score-mean cells,
        # which vanish only through the fitted score equations
        assert np.allclose(np.diag(D_emp), np.diag(D_closed), rtol=1e-12)
        assert abs(D_emp[2, 0]) <= 1e-6
        assert np.allclose(D_emp[:, 2], D_closed[:, 2], rtol=1e-12, atol=1e-14)

    def test_fd_of_mean_psi(self):
        d, m, res = fitted_instance(18, n=40)
        sys = PsiSystem(m, CFG.rho0, CFG.rho1, CFG.delta)
        theta = res.theta_vector()
        D = sys.empirical_d0(d, theta)
        h = 1e-6
        dim = theta.size
        D_fd = np.empty_like(D)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            up = sys.psi_matrix(d, theta + e).mean(axis=0)
            dn = sys.psi_matrix(d, theta - e).mean(axis=0)
            D_fd[:, j] = (up - dn) / (2 * h)
        assert np.allclose(D, D_fd, rtol=1e-4, atol=1e-6)


class TestAsymptoticCov:
    def test_mean_influence_vanishes(self):
        d, m, res = fitted_instance(19)
        rep = asymptotic_cov(d, m, res, CFG)
        assert np.abs(rep.influence.mean(axis=0)).max() <= 1e-6

    def test_v_symmetric_psd(self):
        d, m, res = fitted_instance(20)
        rep = asymptotic_cov(d, m, res, CFG)
        assert np.allclose(rep.V, rep.V.T, atol=1e-10)
        eigs = np.linalg.eigvalsh(rep.V)
        assert np.all(eigs >= -1e-10 * max(1.0, eigs.max()))
        assert np.allclose(rep.std_errors, np.sqrt(np.diag(rep.V) / d.n))

    def test_scaling_in_y(self):
        d, m, res = fitted_instance(21)
        rep = asymptotic_cov(d, m, res, CFG)
        c = 3.0
        d2 = Dataset(x=d.x, y=c * d.y)
        res2 = fit(d2, m, CFG)
        rep2 = asymptotic_cov(d2, m, res2, CFG)
        assert np.allclose(rep2.V, c * c * rep.V, rtol=1e-6)

    def test_symmetric_route_close_at_normal(self):
        rng = np.random.default_rng(22)
        y = rng.normal(size=1000)
        res = fit_location(y, CFG)
        d = Dataset(x=np.zeros((1000, 0)), y=y)
        rep = asymptotic_cov(d, location_model(), res, CFG, symmetric=True)
        assert rep.symmetric_discrepancy < 0.10

    def test_exact_fit_rejected(self):
        X = np.arange(10.0).reshape(-1, 1)
        d = Dataset(x=X, y=2.0 * X[:, 0])
        res = fit(d, linear_model(1), CFG)
        with pytest.raises(ValueError):
            asymptotic_cov(d, linear_model(1), res, CFG)
