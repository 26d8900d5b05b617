import numpy as np
import pytest
from scipy import integrate

from robustmm import bisquare, k_for_breakdown
from robustmm.exceptions import ScenarioError
from robustmm import montecarlo
from robustmm.montecarlo import (SimScenario, load_scenario, make_error_law,
                                 population_centers, population_constants,
                                 run_consistency, run_contamination,
                                 run_expansion_check, run_scenario)

RHO0 = bisquare(1.5476)
RHO1 = bisquare(4.685)


class TestErrorLaws:
    @pytest.mark.parametrize("name,kwargs", [
        ("normal", {}),
        ("shifted-exponential", {"shift": -1.0}),
        ("contaminated-normal", {"eps": 0.1, "outlier_scale": 5.0}),
        ("bimodal-normal", {"shift": 3.0}),
    ])
    def test_pdf_integrates_to_one(self, name, kwargs):
        law = make_error_law(name, **kwargs)
        lo, hi = law.plausible_range()
        total, _ = integrate.quad(law.pdf, lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_cdf_matches_pdf(self):
        law = make_error_law("contaminated-normal", eps=0.2, outlier_scale=4.0)
        for u in (-2.0, 0.0, 1.5):
            val, _ = integrate.quad(law.pdf, -60.0, u, limit=200)
            assert law.cdf(u) == pytest.approx(val, abs=1e-8)

    def test_sampling_moments(self):
        law = make_error_law("shifted-exponential", scale=2.0, shift=1.0)
        rng = np.random.default_rng(0)
        s = law.sample(rng, 200_000)
        assert s.min() >= 1.0
        assert s.mean() == pytest.approx(3.0, abs=0.02)
        assert s.var() == pytest.approx(law.variance(), rel=0.02)

    def test_unknown_law(self):
        with pytest.raises(ScenarioError):
            make_error_law("cauchy")

    def test_bimodal_not_strongly_unimodal(self):
        assert not make_error_law("bimodal-normal", shift=2.0).strongly_unimodal
        assert make_error_law("normal").strongly_unimodal


class TestPopulationCenters:
    def test_symmetric_laws_center_at_zero(self):
        for law in (make_error_law("normal"),
                    make_error_law("contaminated-normal", eps=0.15, outlier_scale=4.0)):
            sigma0, a00, a01 = population_centers(law, RHO0, RHO1, 0.5)
            assert abs(a00) <= 1e-8
            assert abs(a01) <= 1e-8
            assert sigma0 > 0

    def test_exact_breakdown_constant_gives_unit_scale(self):
        k0 = k_for_breakdown(0.5)
        law = make_error_law("normal")
        sigma0, _, _ = population_centers(law, bisquare(k0), RHO1, 0.5)
        assert sigma0 == pytest.approx(1.0, abs=1e-6)

    def test_asymmetric_center_satisfies_score_equation(self):
        # independent check: the fine-loss center must zero the expected score
        law = make_error_law("shifted-exponential", scale=1.0, shift=0.0)
        sigma0, _, a01 = population_centers(law, RHO0, RHO1, 0.5)
        val, _ = integrate.quad(
            lambda u: RHO1.psi((u - a01) / sigma0) * law.pdf(u),
            max(a01 - RHO1.k * sigma0, 0.0), a01 + RHO1.k * sigma0, limit=200)
        assert abs(val) <= 1e-8

    def test_scale_equation_holds(self):
        law = make_error_law("shifted-exponential", scale=1.0, shift=0.0)
        sigma0, a00, _ = population_centers(law, RHO0, RHO1, 0.5)
        k = RHO0.k
        inside, _ = integrate.quad(
            lambda u: RHO0.rho((u - a00) / sigma0) * law.pdf(u),
            max(a00 - k * sigma0, 0.0), a00 + k * sigma0, limit=200)
        outside = law.cdf(a00 - k * sigma0) + 1.0 - law.cdf(a00 + k * sigma0)
        assert inside + outside == pytest.approx(0.5, abs=1e-9)

    def test_oracle_variance_is_inverse_efficiency_at_normal(self):
        # the fine loss is tuned for 95 percent efficiency, so the oracle
        # variance factor at standard normal errors must be about 1/0.95
        from robustmm.montecarlo import _oracle_mm_variance
        law = make_error_law("normal")
        c = population_constants(law, RHO0, RHO1, 0.5, np.zeros(0), np.zeros((0, 0)))
        V = _oracle_mm_variance(law, c)
        assert V[0, 0] == pytest.approx(1.0 / 0.95, rel=2e-3)

    def test_constants_match_plugin_at_scale(self):
        # population constants should agree with plug-in estimates from a
        # very large sample fitted at the truth
        law = make_error_law("normal")
        c = population_constants(law, RHO0, RHO1, 0.5, np.zeros(0), np.zeros((0, 0)))
        rng = np.random.default_rng(42)
        u = law.sample(rng, 400_000)
        t = (u - c.alpha00) / c.sigma0
        assert np.mean(RHO0.psi_prime(t)) == pytest.approx(c.a00, abs=5e-3)
        assert np.mean(t * RHO0.psi(t)) == pytest.approx(c.d0, abs=5e-3)
        t1 = (u - c.alpha01) / c.sigma0
        assert np.mean(RHO1.psi_prime(t1)) == pytest.approx(c.a01, abs=5e-3)


class TestScenario:
    def test_parse_file(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text(
            "kind = consistency\nmodel = linear\np = 2\nbeta0 = 1.0, -0.5\n"
            "errors = normal\nsizes = 50, 200, 800\nreplications = 5\n"
            "seed = 3\nthreshold.ratio_lo = 0.2\n# a comment\n")
        s = load_scenario(f)
        assert s.kind == "consistency"
        assert s.beta0 == (1.0, -0.5)
        assert s.thresholds["ratio_lo"] == 0.2
        assert s.thresholds["ratio_hi"] == 0.72

    def test_unknown_key_named(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("kind = consistency\nmodell = linear\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(f)
        assert err.value.key == "modell"

    def test_zero_replications_rejected(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("kind = contamination\nmodel = linear\np = 1\nbeta0 = 1.0\n"
                     "sizes = 50\nreplications = 0\n")
        with pytest.raises(ScenarioError):
            load_scenario(f)

    def test_beta_dimension_checked(self):
        with pytest.raises(ScenarioError):
            SimScenario(kind="consistency", model="linear", p=2, beta0=(1.0,),
                        sizes=(50, 200, 800))

    def test_normality_needs_symmetric_errors(self):
        with pytest.raises(ScenarioError):
            SimScenario(kind="normality", model="location", p=0, beta0=(),
                        errors="shifted-exponential", sizes=(100,))

    def test_unknown_threshold_rejected(self):
        with pytest.raises(ScenarioError):
            SimScenario(kind="consistency", model="linear", p=1, beta0=(1.0,),
                        sizes=(50, 200, 800), thresholds={"nope": 1.0})


SMALL = dict(kind="consistency", model="linear", p=1, beta0=(2.0,), alpha0=0.0,
             errors="normal", sizes=(40, 160, 640), replications=6, seed=9,
             n_subsamples=15)


class TestRunners:
    def test_consistency_report_shape(self):
        rep = run_consistency(SimScenario(**SMALL))
        assert rep.kind == "consistency"
        assert len(rep.summary["median_slope_error"]) == 3
        assert rep.failures == 0
        names = [c.name for c in rep.claims]
        assert "failure_rate" in names
        header, rows = rep.csv_rows()
        assert "n" in header and len(rows) == 18

    def test_bit_exact_repeatability(self):
        r1 = run_consistency(SimScenario(**SMALL))
        r2 = run_consistency(SimScenario(**SMALL))
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_serial_equals_parallel(self, monkeypatch):
        monkeypatch.setenv("ROBUSTMM_THREADS", "1")
        serial = run_consistency(SimScenario(**SMALL))
        monkeypatch.setenv("ROBUSTMM_THREADS", "2")
        parallel = run_consistency(SimScenario(**SMALL))
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_error_scaling_equivariance(self):
        base = run_consistency(SimScenario(**SMALL))
        doubled = run_consistency(SimScenario(**{**SMALL, "error_scale": 2.0}))
        m1 = np.array(base.summary["median_slope_error"])
        m2 = np.array(doubled.summary["median_slope_error"])
        assert np.allclose(m2, 2.0 * m1, rtol=1e-6)

    def test_expansion_single_replication_flagged(self):
        s = SimScenario(kind="expansion", model="location", p=0, beta0=(),
                        errors="normal", sizes=(50, 100), replications=1,
                        seed=4, n_subsamples=10)
        rep = run_expansion_check(s)
        assert rep.passed is None
        assert any(c.passed is None for c in rep.claims)

    def test_expansion_small_run(self):
        s = SimScenario(kind="expansion", model="location", p=0, beta0=(),
                        errors="normal", sizes=(100, 400), replications=40,
                        seed=5, n_subsamples=10)
        rep = run_expansion_check(s)
        med = rep.summary["median_remainder"]
        assert med[1] < med[0]

    def test_contamination_zero_fraction_identical(self):
        s = SimScenario(kind="contamination", model="linear", p=1, beta0=(2.0,),
                        alpha0=1.0, errors="normal", sizes=(80,), replications=2,
                        seed=6, n_subsamples=40,
                        contamination_fractions=(0.0, 0.3),
                        outlier_magnitudes=(1e2, 1e4, 1e6))
        rep = run_contamination(s)
        zero_rows = [r for r in rep.per_replication if r["fraction"] == 0.0]
        assert zero_rows
        assert all(r["slope_deviation"] == 0.0 for r in zero_rows)
        assert rep.passed is True

    def test_contamination_fraction_capped_by_delta(self):
        with pytest.raises(ScenarioError):
            run_contamination(SimScenario(
                kind="contamination", model="linear", p=1, beta0=(1.0,),
                sizes=(50,), replications=1, contamination_fractions=(0.55,)))

    def test_bimodal_law_warns(self):
        s = SimScenario(**{**SMALL, "errors": "bimodal-normal",
                           "error_shift": 2.0})
        rep = run_consistency(s)
        assert any("unimodal" in w for w in rep.warnings)

    def test_run_scenario_dispatch(self):
        rep = run_scenario(SimScenario(**SMALL))
        assert rep.kind == "consistency"


class TestWorkerCount:
    """Worker-count resolution only; no pool is started."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)

    @pytest.mark.parametrize("raw, tasks, want", [
        (None, 100, 1), ("1", 100, 1), ("2", 100, 2), ("0", 100, 4),
        ("64", 100, 4), ("1000000", 100, 4), ("3", 2, 2), ("0", 3, 3),
        (" 2 ", 100, 2)])
    def test_clamped(self, monkeypatch, raw, tasks, want):
        if raw is None:
            monkeypatch.delenv("ROBUSTMM_THREADS", raising=False)
        else:
            monkeypatch.setenv("ROBUSTMM_THREADS", raw)
        assert montecarlo._worker_count(tasks) == want

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        monkeypatch.setenv("ROBUSTMM_THREADS", "0")
        assert montecarlo._worker_count(100) == 1

    @pytest.mark.parametrize("raw", ["two", "", "1.5", "-1", "-64"])
    def test_invalid_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("ROBUSTMM_THREADS", raw)
        with pytest.raises(ScenarioError) as err:
            montecarlo._worker_count(100)
        assert err.value.key == "ROBUSTMM_THREADS"
