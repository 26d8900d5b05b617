import json
import math
from importlib import resources

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

#: one parameter set that every law reads a different part of
LAW_PARAMS = {"scale": 1.3, "shift": -3.0, "eps": 0.1, "outlier_scale": 5.0}


def written_out_law(law):
    """(pdf, cdf, sample, support, plausible_range, symmetric) of ``law``
    as closed formulas per law name: the reference the table-driven
    ErrorLaw must reproduce bit for bit."""
    from scipy import stats
    name, s, shift, eps, big = law.name, law.scale, law.shift, law.eps, law.outlier_scale
    root_2pi = math.sqrt(2.0 * math.pi)

    def e(u, loc, scale):
        z = (u - loc) / scale
        return np.exp(-0.5 * z * z)

    if name == "normal":
        return (lambda u: e(u, 0.0, s) / (s * root_2pi),
                lambda u: stats.norm.cdf(u, scale=s),
                lambda rng, n: s * rng.standard_normal(n),
                (-np.inf, np.inf), (-12.0 * s, 12.0 * s), True)
    if name == "shifted-exponential":
        lam = 1.0 / s
        return (lambda u: np.where(u >= shift, lam * np.exp(-lam * (u - shift)), 0.0),
                lambda u: stats.expon.cdf(u, loc=shift, scale=s),
                lambda rng, n: shift + rng.exponential(s, n),
                (shift, np.inf), (shift - 5.0 * s, shift + 25.0 * s), False)
    if name == "contaminated-normal":
        def sample(rng, n):
            mask = rng.random(n) < eps
            base = rng.standard_normal(n)
            return np.where(mask, big * base, s * base)
        width = 12.0 * max(s, big)
        return (lambda u: ((1 - eps) * e(u, 0.0, s) / (s * root_2pi)
                           + eps * e(u, 0.0, big) / (big * root_2pi)),
                lambda u: ((1 - eps) * stats.norm.cdf(u, scale=s)
                           + eps * stats.norm.cdf(u, scale=big)),
                sample, (-np.inf, np.inf), (-width, width), True)
    assert name == "bimodal-normal"

    def sample(rng, n):
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        return signs * shift + s * rng.standard_normal(n)
    width = 12.0 * s + 3.0 * abs(shift)
    return (lambda u: 0.5 * (e(u, shift, s) + e(u, -shift, s)) / (s * root_2pi),
            lambda u: 0.5 * (stats.norm.cdf(u, loc=shift, scale=s)
                             + stats.norm.cdf(u, loc=-shift, scale=s)),
            sample, (-np.inf, np.inf), (-width, width), True)


class TestErrorLaws:
    @pytest.mark.parametrize("name,kwargs", [(name, LAW_PARAMS) for name in montecarlo._LAWS])
    def test_pdf_integrates_to_one(self, name, kwargs):
        law = make_error_law(name, **kwargs)
        lo, hi = law.plausible_range()
        total, _ = integrate.quad(law.pdf, lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("params", [{}, LAW_PARAMS], ids=["defaults", "all-set"])
    @pytest.mark.parametrize("name", list(montecarlo._LAWS))
    def test_table_matches_written_out_law(self, name, params):
        law = make_error_law(name, **params)
        pdf, cdf, sample, support, window, symmetric = written_out_law(law)
        lo, hi = law.plausible_range()
        u = np.concatenate([np.linspace(lo - 5.0, hi + 5.0, 20_001), [law.shift, 0.0]])
        # bimodal halves are weighted before they are summed, not after
        pdf_rtol = 4e-16 if name == "bimodal-normal" and law.shift != 0.0 else 0.0
        for v in (u, *u[::2000]):  # the grid, and scalars as quadrature passes them
            np.testing.assert_allclose(law.pdf(v), pdf(v), rtol=pdf_rtol, atol=0.0)
            assert np.array_equal(law.cdf(v), cdf(v))
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        assert np.array_equal(law.sample(rng, 10_000), sample(ref_rng, 10_000))
        assert rng.random() == ref_rng.random()  # same number of draws taken
        assert (law.support, (lo, hi), law.symmetric) == (support, window, symmetric)

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
        assert s.var() == pytest.approx(4.0, rel=0.02)

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

    @pytest.mark.parametrize("law", [make_error_law("normal"),
                                     make_error_law("contaminated-normal", eps=0.1)])
    @pytest.mark.parametrize("k0, delta", [(1.5476, 0.5), (2.5, 0.3)])
    def test_unimodal_shortcut_equals_scan(self, law, k0, delta):
        # the scan that symmetric, strongly unimodal laws skip, written out
        from scipy import optimize
        from robustmm.montecarlo import _center_root, _scale_at
        rho0 = bisquare(k0)
        lo, hi = law.plausible_range()
        res = optimize.minimize_scalar(lambda t: _scale_at(law, rho0, delta, t),
                                       bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-9})
        alpha00, sigma0 = float(res.x), float(res.fun)
        for _ in range(3):
            alpha00 = _center_root(law, rho0, sigma0, alpha00)
            sigma0 = _scale_at(law, rho0, delta, alpha00)
        want = (sigma0, alpha00, _center_root(law, RHO1, sigma0, alpha00))
        assert population_centers(law, rho0, RHO1, delta) == want

    def test_bimodal_scale_minimum_off_center(self):
        # symmetric but not unimodal: the population scale is smallest away
        # from the symmetry center, so the scan must run for this law
        from robustmm.montecarlo import _scale_at
        law = make_error_law("bimodal-normal", shift=3.0)
        assert law.symmetric and not law.strongly_unimodal
        sigma0, a00, _ = population_centers(law, RHO0, RHO1, 0.5)
        assert a00 > 1.0
        assert sigma0 < _scale_at(law, RHO0, 0.5, 0.0) - 1e-3

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

    @pytest.mark.parametrize("name", ["contamination-smoke.cfg",
                                      "linear-consistency.cfg",
                                      "location-normal.cfg"])
    def test_bundled_round_trip(self, tmp_path, name):
        s = load_scenario(resources.files("robustmm") / "scenarios" / name)
        lines = []
        for key, val in s.to_dict().items():
            if key == "thresholds":
                lines += [f"threshold.{k} = {v}" for k, v in val.items()]
            elif isinstance(val, tuple):
                lines.append(f"{key} = {', '.join(str(v) for v in val)}")
            else:
                lines.append(f"{key} = {val}")
        f = tmp_path / name
        f.write_text("\n".join(lines) + "\n")
        assert load_scenario(f) == s

    @pytest.mark.parametrize("key", ["refine_steps", "n_best", "irwls_tol",
                                     "irwls_max_iter"])
    def test_solver_constants_not_keys(self, tmp_path, key):
        f = tmp_path / "s.cfg"
        f.write_text(f"kind = consistency\n{key} = 2\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(f)
        assert err.value.key == key

    @pytest.mark.parametrize("key,value", [("sizes", "30, 60, 120"),
                                           ("threshold.ratio_lo", "0.2")],
                             ids=["sizes", "threshold"])
    def test_repeated_key_rejected(self, tmp_path, key, value):
        f = tmp_path / "s.cfg"
        f.write_text(f"kind = consistency\n{key} = {value}\n{key} = {value}\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(f)
        assert err.value.key == key

    @pytest.mark.parametrize("overrides,key", [
        ({"error_scale": -1.0}, "error_scale"),
        ({"error_scale": float("nan")}, "error_scale"),
        ({"error_shift": float("inf")}, "error_shift"),
        ({"errors": "contaminated-normal", "error_eps": 0.2,
          "error_outlier_scale": 0.0}, "error_outlier_scale"),
        ({"errors": "contaminated-normal", "error_eps": 1.5}, "error_eps"),
    ], ids=["negative-scale", "nan-scale", "inf-shift", "zero-outlier-scale",
            "eps-above-1"])
    def test_error_law_checked_at_construction(self, overrides, key):
        with pytest.raises(ScenarioError) as err:
            SimScenario(**{**SMALL, **overrides})
        assert err.value.key == key

    def test_sizes_below_q_plus_2_rejected(self):
        # 4 slopes and an intercept: a fit needs q + 2 = 6 observations
        with pytest.raises(ScenarioError) as err:
            SimScenario(kind="consistency", model="linear", p=4, beta0=(1.0,) * 4,
                        sizes=(5, 10, 20))
        assert err.value.key == "sizes"
        assert "q + 2 = 6" in str(err.value)
        SimScenario(kind="consistency", model="linear", p=4, beta0=(1.0,) * 4,
                    sizes=(6, 12, 24))

    @pytest.mark.parametrize("key", ["contamination_fractions", "outlier_magnitudes"])
    def test_empty_contamination_sweep_rejected(self, key):
        base = dict(kind="contamination", model="linear", p=1, beta0=(1.0,),
                    sizes=(50,), replications=1)
        with pytest.raises(ScenarioError) as err:
            SimScenario(**base, **{key: ()})
        assert err.value.key == key
        # only a contamination run sweeps
        SimScenario(**{**SMALL, key: ()})


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

    @pytest.mark.parametrize("fractions", [(-0.1,), (0.1, 0.5), (math.nan,)],
                             ids=["negative", "at-1-minus-delta", "nan"])
    def test_contamination_fraction_checked_at_construction(self, fractions):
        base = dict(kind="contamination", model="linear", p=1, beta0=(1.0,),
                    sizes=(50,), replications=1)
        with pytest.raises(ScenarioError) as err:
            SimScenario(**base, contamination_fractions=fractions)
        assert err.value.key == "contamination_fractions"
        SimScenario(**base, contamination_fractions=(0.0, 0.49))
        # only a contamination run sweeps
        SimScenario(**{**SMALL, "contamination_fractions": fractions})

    @staticmethod
    def _failing_grid(monkeypatch, failed):
        """Make _run_grid report the fits where failed(size_idx, rep) as failed."""
        grid = montecarlo._run_grid

        def run_grid(scenario, sizes):
            return [{**r, "failed": True, "error": "forced"}
                    if failed(r["size_idx"], r["rep"]) else r for r in grid(scenario, sizes)]

        monkeypatch.setattr(montecarlo, "_run_grid", run_grid)

    @pytest.mark.parametrize("failed,decided", [
        (lambda si, rep: si == 0, False),
        (lambda si, rep: si == 1 and rep > 0, False),
        (lambda si, rep: si == 1 and rep == 2, True),
    ], ids=["size-all-failed", "size-one-fit", "size-two-fits"])
    def test_expansion_counts_successful_fits_per_size(self, monkeypatch, failed, decided):
        self._failing_grid(monkeypatch, failed)
        s = SimScenario(kind="expansion", model="location", p=0, beta0=(),
                        errors="normal", sizes=(50, 100), replications=3,
                        seed=4, n_subsamples=10)
        rep = run_expansion_check(s)
        names = [c.name for c in rep.claims]
        if decided:
            assert names == ["failure_rate", "remainder_decreasing",
                             "remainder_ratio_at_largest_n"]
        else:
            assert names == ["failure_rate", "expansion_remainder"]
            assert rep.claims[1].passed is None
            assert rep.claims[1].detail == "insufficient replications"
        med = rep.summary["median_remainder"]
        assert (med[0] is None) == failed(0, 0) and med[1] is not None
        json.dumps(rep.to_json_dict(), allow_nan=False)

    def test_consistency_size_without_fits_is_undecided(self, monkeypatch):
        self._failing_grid(monkeypatch, lambda si, rep: si == 1)
        rep = run_consistency(SimScenario(**SMALL))
        assert rep.summary["median_slope_error"][1] is None
        assert rep.summary["ratios"] == [None, None]
        assert [c.passed for c in rep.claims[1:]] == [None, None]
        json.dumps(rep.to_json_dict(), allow_nan=False)

    def test_bimodal_law_warns(self):
        s = SimScenario(**{**SMALL, "errors": "bimodal-normal",
                           "error_shift": 2.0})
        rep = run_consistency(s)
        assert any("unimodal" in w for w in rep.warnings)

    def test_run_scenario_dispatch(self):
        rep = run_scenario(SimScenario(**SMALL))
        assert rep.kind == "consistency"

    NORMALITY = dict(kind="normality", model="location", p=0, beta0=(),
                     errors="normal", sizes=(60,), replications=1, seed=3,
                     n_subsamples=10)

    def test_normality_single_replication_undecided(self):
        rep = montecarlo.run_normality(SimScenario(**self.NORMALITY))
        assert rep.passed is None
        assert [c.name for c in rep.claims] == ["failure_rate", "normality"]
        claim = rep.claims[1]
        assert claim.passed is None and claim.value == 1
        assert claim.detail == "insufficient replications"
        assert rep.summary["efficiency_empirical"] is None
        json.dumps(rep.to_json_dict(), allow_nan=False)

    def test_normality_counts_successful_fits(self, monkeypatch):
        grid = montecarlo._run_grid

        def all_failed(scenario, sizes):
            return [{**r, "failed": True, "error": "forced"} for r in grid(scenario, sizes)]

        monkeypatch.setattr(montecarlo, "_run_grid", all_failed)
        rep = montecarlo.run_normality(SimScenario(**{**self.NORMALITY, "replications": 3}))
        assert rep.passed is False
        assert rep.failures == 3
        assert rep.claims[1].passed is None and rep.claims[1].value == 0
        json.dumps(rep.to_json_dict(), allow_nan=False)


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
