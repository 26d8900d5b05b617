"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to watch the lines appear.
The Monte Carlo criteria honor ROBUSTMM_THREADS; with 2 workers the whole
module finishes in roughly ten minutes.
"""

import json
import time

import numpy as np
import pytest

from robustmm import (Dataset, FitConfig, InferenceConstants, MScaleConfig,
                      PsiSystem, bisquare, fit, linear_model, location_model,
                      mscale, mscale_objective, verify_r1)
from robustmm.cli import main as cli_main
from robustmm.inference import (closed_form_c0_inv, closed_form_d0,
                                closed_form_d0_inv, d0_determinant_factor,
                                influence_full)
from robustmm.montecarlo import SimScenario, run_consistency, \
    run_contamination, run_expansion_check, run_normality

from gridoracle import grid_mm_oracle, grid_s_oracle

RHO0 = bisquare(1.5476)
RHO1 = bisquare(4.685)


def report(cid, t0, budget, detail):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {cid}: PASS ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert elapsed < budget, f"{cid} exceeded its runtime budget"


def test_c1_mscale_certificate():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_cert = 0.0
    worst_equiv = 0.0
    positive = 0
    for i in range(1000):
        n = int(rng.integers(5, 501))
        kind = i % 4
        if kind == 0:
            r = rng.normal(size=n)
        elif kind == 1:
            r = rng.standard_t(df=2, size=n)
        elif kind == 2:
            r = rng.normal(size=n) * rng.uniform(1e-3, 1e3)
        else:
            r = rng.normal(size=n)
            r[: n // 3] = 0.0
        delta = (0.25, 0.5, 0.75)[i % 3]
        cfg = MScaleConfig(delta=delta)
        s = mscale(r, RHO0, cfg)
        if s > 0.0:
            positive += 1
            worst_cert = max(worst_cert, abs(mscale_objective(r, RHO0, s) - delta))
            if i % 3 == 0:
                c = float(rng.uniform(1e-3, 1e3))
                s_c = mscale(c * r, RHO0, cfg)
                worst_equiv = max(worst_equiv, abs(s_c - c * s) / (c * s))
    assert worst_cert <= 1e-10
    assert worst_equiv <= 1e-12
    report("C1 m-scale certificate", t0, 5.0,
           f"worst |objective - delta| = {worst_cert:.2e}, "
           f"worst equivariance gap = {worst_equiv:.2e} over {positive} solves")


def test_c2_derivative_chain():
    t0 = time.time()
    worst_psi = 0.0
    worst_psip = 0.0
    for k in (1.547, 4.685):
        f = bisquare(k)
        t = np.linspace(-1.6 * k, 1.6 * k, 10_000)
        h = 1e-6
        fd_rho = (f.rho(t + h) - f.rho(t - h)) / (2 * h)
        fd_psi = (f.psi(t + h) - f.psi(t - h)) / (2 * h)
        gap_psi = np.abs(f.psi(t) - fd_rho) / (1.0 + np.abs(f.psi(t)))
        gap_psip = np.abs(f.psi_prime(t) - fd_psi) / (1.0 + np.abs(f.psi_prime(t)))
        worst_psi = max(worst_psi, gap_psi.max())
        worst_psip = max(worst_psip, gap_psip.max())
        assert verify_r1(f, 1001)
    assert worst_psi <= 1e-7
    assert worst_psip <= 1e-6
    report("C2 derivative chain", t0, 2.0,
           f"max psi gap {worst_psi:.2e}, max psi' gap {worst_psip:.2e}, "
           "shape conditions verified for both tuning constants")


def test_c3_estimating_equations():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    fits = 0
    for i in range(100):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(10 * p + 30, 200))
        X = rng.normal(size=(n, p))
        beta = rng.uniform(-3, 3, size=p)
        alpha = float(rng.uniform(-2, 2))
        noise = rng.standard_t(df=3, size=n) if i % 3 == 0 else rng.normal(size=n)
        y = X @ beta + alpha + noise
        cfg = FitConfig(n_subsamples=50, seed=1000 + i)
        res = fit(Dataset(x=X, y=y), linear_model(p), cfg)
        if res.exact_fit or not (res.converged_s and res.converged_mm):
            continue
        fits += 1
        system = PsiSystem(linear_model(p), cfg.rho0, cfg.rho1, cfg.delta)
        mean_psi = system.psi_matrix(Dataset(x=X, y=y), res.theta_vector()).mean(axis=0)
        worst = max(worst, float(np.abs(mean_psi).max()))
    assert fits >= 99
    assert worst <= 1e-6
    report("C3 estimating equations", t0, 30.0,
           f"max |mean score| = {worst:.2e} over {fits} converged fits")


def _random_constants(rng, q):
    b0 = rng.normal(size=q)
    M = rng.normal(size=(q, q))
    return InferenceConstants(
        a00=float(rng.uniform(0.3, 1.0)), a01=float(rng.uniform(0.3, 1.0)),
        e00=float(rng.normal() * 0.3), e01=float(rng.normal() * 0.3),
        d0=float(rng.uniform(0.2, 0.8)), b0=b0,
        A0=M @ M.T + 0.5 * np.eye(q), sigma0=float(rng.uniform(0.5, 2.0)),
        alpha00=float(rng.normal() * 0.5), alpha01=float(rng.normal() * 0.5),
        rho0=RHO0, rho1=RHO1, delta=0.5)


def test_c4_closed_form_algebra():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst_det = 0.0
    worst_inv = 0.0
    for i in range(50):
        q = int(rng.integers(0, 5))
        c = _random_constants(rng, q)
        D = closed_form_d0(c)
        det = np.linalg.det(D)
        factor = d0_determinant_factor(c)
        worst_det = max(worst_det, abs(det - factor) / abs(factor))
        D_inv = closed_form_d0_inv(c)
        gap_d = np.abs(D_inv - np.linalg.inv(D)).max() / max(1.0, np.abs(D_inv).max())
        worst_inv = max(worst_inv, gap_d)
        C_inv = closed_form_c0_inv(c)
        gap_c = np.abs(C_inv - np.linalg.inv(c.C0)).max() / max(1.0, np.abs(C_inv).max())
        worst_inv = max(worst_inv, gap_c)
    assert worst_det <= 1e-8
    assert worst_inv <= 1e-8
    report("C4 closed-form algebra", t0, 5.0,
           f"worst determinant gap {worst_det:.2e}, worst inverse gap {worst_inv:.2e} "
           "over 50 synthetic constant sets")


def test_c5_influence_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for i in range(1000):
        q = int(rng.integers(0, 4)) if i % 5 else 0
        m = linear_model(q) if q else location_model()
        c = _random_constants(rng, q)
        beta = rng.normal(size=q)
        theta = np.concatenate([beta, [c.alpha00], beta, [c.alpha01], [c.sigma0]])
        x = rng.normal(size=q)
        y = float(rng.normal() * 2.0)
        closed = influence_full(x, y, m, beta, c)
        system = PsiSystem(m, RHO0, RHO1, 0.5)
        generic = -np.linalg.solve(closed_form_d0(c), system.psi(x, y, theta))
        gap = np.abs(closed - generic).max() / (1.0 + np.abs(generic).max())
        worst = max(worst, float(gap))
    assert worst <= 1e-8
    report("C5 influence equivalence", t0, 5.0,
           f"worst closed-form vs generic gap {worst:.2e} over 1000 observations")


def test_c6_grid_oracle_equivalence():
    # The fine-loss stage is defined as the local minimum reached from the
    # scale-minimizing start. Tiny samples can place the global minimum of
    # the fine loss in a different basin (a half-sample interpolation
    # artifact of redescending losses), where no local method is meant to
    # find it, so instances are screened with an oracle-only check that
    # the two grid minimizers share a basin. The screen never looks at
    # the fit under test.
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst_s = 0.0
    worst_mm = 0.0
    accepted = 0
    tried = 0
    while accepted < 10:
        tried += 1
        assert tried <= 40, "instance screening should accept 10 of the first 40"
        x = rng.uniform(-1.5, 1.5, size=8)
        beta = float(rng.uniform(-1.2, 1.2))
        alpha = float(rng.uniform(-1.0, 1.0))
        y = beta * x + alpha + 0.35 * rng.normal(size=8)

        (b_s, a_s), sig_g = grid_s_oracle(x, y, RHO0.k, 0.5)
        (b_m0, a_m0), _ = grid_mm_oracle(x, y, sig_g, RHO1.k)
        if max(abs(b_m0 - b_s), abs(a_m0 - a_s)) > 0.15:
            continue
        accepted += 1

        d = Dataset(x=x.reshape(-1, 1), y=y)
        res = fit(d, linear_model(1), FitConfig(n_subsamples=150, seed=3000 + tried))
        assert res.sigma <= sig_g + 1e-4
        gap_s = max(abs(res.xi_s.beta[0] - b_s), abs(res.xi_s.alpha - a_s))
        worst_s = max(worst_s, gap_s)

        (b_m, a_m), obj_g = grid_mm_oracle(x, y, res.sigma, RHO1.k)
        assert res.objective_mm <= obj_g + 1e-6
        gap_m = max(abs(res.xi_mm.beta[0] - b_m), abs(res.xi_mm.alpha - a_m))
        worst_mm = max(worst_mm, gap_m)
    assert worst_s <= 1e-3
    assert worst_mm <= 1e-3
    report("C6 grid oracle equivalence", t0, 60.0,
           f"worst parameter gap: S {worst_s:.2e}, MM {worst_mm:.2e} over "
           f"10 instances ({tried} screened)")


@pytest.mark.slow
def test_c7_consistency_shadow():
    t0 = time.time()
    details = []
    for errors in ("normal", "shifted-exponential"):
        s = SimScenario(kind="consistency", model="linear", p=3,
                        beta0=(1.0, -0.5, 2.0), alpha0=0.0, errors=errors,
                        sizes=(100, 400, 1600), replications=200, seed=1234,
                        n_subsamples=20)
        rep = run_consistency(s)
        assert rep.passed is True, f"{errors}: {[c.to_dict() for c in rep.claims]}"
        details.append(f"{errors} ratios " +
                       "/".join(f"{v:.3f}" for v in rep.summary["ratios"]))
    report("C7 consistency shadow", t0, 600.0, "; ".join(details))


@pytest.mark.slow
def test_c8_normality_shadow():
    t0 = time.time()
    details = []
    for model, p, beta0, seed in (("location", 0, (), 777),
                                  ("linear", 2, (1.0, -1.0), 778)):
        s = SimScenario(kind="normality", model=model, p=p, beta0=beta0,
                        alpha0=0.0, errors="normal", sizes=(400,),
                        replications=1000, seed=seed, n_subsamples=20)
        rep = run_normality(s)
        assert rep.passed is True, f"{model}: {[c.to_dict() for c in rep.claims]}"
        eff = rep.summary["efficiency_empirical"]
        assert abs(eff - 0.95) <= 0.05
        details.append(f"{model} efficiency {eff:.3f}")
    report("C8 normality shadow", t0, 600.0, "; ".join(details))


@pytest.mark.slow
def test_c9_expansion_shadow():
    t0 = time.time()
    details = []
    for model, p, beta0, nsub in (("location", 0, (), 10),
                                  ("linear", 2, (1.0, -1.0), 20)):
        s = SimScenario(kind="expansion", model=model, p=p, beta0=beta0,
                        alpha0=0.0, errors="normal", sizes=(200, 800, 3200),
                        replications=300, seed=991, n_subsamples=nsub)
        rep = run_expansion_check(s)
        assert rep.passed is True, f"{model}: {[c.to_dict() for c in rep.claims]}"
        ratio = [c for c in rep.claims if c.name == "remainder_ratio_at_largest_n"]
        details.append(f"{model} final ratio {ratio[0].value:.3f}")
    report("C9 expansion shadow", t0, 600.0, "; ".join(details))


def test_c10_robustness_shadow():
    t0 = time.time()
    s = SimScenario(kind="contamination", model="linear", p=1, beta0=(2.0,),
                    alpha0=1.0, errors="normal", sizes=(200,), replications=3,
                    seed=555, n_subsamples=100,
                    contamination_fractions=(0.1, 0.2, 0.3, 0.4),
                    outlier_magnitudes=(1e2, 1e4, 1e6))
    rep = run_contamination(s)
    assert rep.passed is True, [c.to_dict() for c in rep.claims]
    report("C10 robustness shadow", t0, 300.0,
           f"worst deviation {rep.summary['worst_se_multiple']:.2f} clean SEs, "
           f"growth 1e4->1e6 x{rep.summary['worst_magnitude_growth']:.6f}")


def test_c11_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    from importlib import resources
    scen = str(resources.files("robustmm") / "scenarios" / "contamination-smoke.cfg")

    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 2))
    y = X @ [1.0, -2.0] + rng.normal(size=80)
    lines = ["y,x1,x2"] + [
        ",".join(repr(float(v)) for v in (y[i], X[i, 0], X[i, 1]))
        for i in range(80)]
    csv_file = tmp_path / "d.csv"
    csv_file.write_text("\n".join(lines) + "\n")

    outs = [tmp_path / f"r{i}.json" for i in range(4)]
    fit_args = ["fit", "--input", str(csv_file), "--y-col", "y", "--seed", "5",
                "--n-subsamples", "60"]
    assert cli_main(fit_args + ["--out", str(outs[0])]) == 0
    assert cli_main(fit_args + ["--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()

    monkeypatch.setenv("ROBUSTMM_THREADS", "1")
    assert cli_main(["simulate", "--scenario", scen, "--out", str(outs[2])]) == 0
    monkeypatch.setenv("ROBUSTMM_THREADS", "2")
    assert cli_main(["simulate", "--scenario", scen, "--out", str(outs[3])]) == 0
    assert outs[2].read_bytes() == outs[3].read_bytes()
    assert json.loads(outs[2].read_text())["passed"] is True
    report("C11 determinism", t0, 60.0,
           "fit reruns and serial-vs-parallel simulate reports byte-identical")
