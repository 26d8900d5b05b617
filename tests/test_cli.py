import json
from importlib import resources

import numpy as np
import pytest

from robustmm import Dataset, FitConfig, fit, linear_model
from robustmm.cli import main


def write_csv(path, n=60, seed=0, with_header=True, nan_at=None, const_col=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    if const_col:
        X[:, 1] = 1.0
    y = X @ [2.0, -1.0] + 0.5 + rng.normal(size=n)
    lines = ["y,x1,x2"] if with_header else []
    for i in range(n):
        cells = [f"{y[i]:.12g}", f"{X[i, 0]:.12g}", f"{X[i, 1]:.12g}"]
        if nan_at == i:
            cells[1] = "nan"
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


def scenario_path(name):
    return resources.files("robustmm") / "scenarios" / name


def strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity are rejected."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestCheckRho:
    @pytest.mark.parametrize("k", ["1.547", "4.685"])
    def test_bisquare_passes(self, k, capsys):
        assert main(["check-rho", "--k", k]) == 0
        assert "pass" in capsys.readouterr().out

    def test_unknown_family(self, capsys):
        assert main(["check-rho", "--family", "huber", "--k", "1.345"]) == 3
        assert "error: input" in capsys.readouterr().err

    def test_corrupted_table_fails(self, tmp_path, capsys):
        # flat spot then jump inside (-k, k)
        t = np.linspace(-2.0, 2.0, 401)
        u2 = np.minimum((t / 2.0) ** 2, 1.0)
        vals = 1.0 - (1.0 - u2) ** 3
        vals[(t > 0.5) & (t < 1.0)] = vals[np.searchsorted(t, 0.5)]
        table = tmp_path / "rho.csv"
        table.write_text("\n".join(f"{a},{b}" for a, b in zip(t, vals)))
        assert main(["check-rho", "--k", "2.0", "--table", str(table)]) == 1

    def test_grid_below_3_exit_3(self, capsys):
        assert main(["check-rho", "--k", "1.5", "--grid", "2"]) == 3
        assert capsys.readouterr().err == "error: input: grid_size must be at least 3\n"

    def test_good_table_passes(self, tmp_path):
        t = np.linspace(-2.0, 2.0, 2001)
        u2 = np.minimum((t / 2.0) ** 2, 1.0)
        vals = 1.0 - (1.0 - u2) ** 3
        table = tmp_path / "rho.csv"
        table.write_text("\n".join(f"{a},{b}" for a, b in zip(t, vals)))
        assert main(["check-rho", "--k", "2.0", "--table", str(table),
                     "--grid", "199"]) == 0


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "data.csv", "--y-col", "y", "--model", "foo"],
        ["fit", "--input", "data.csv", "--y-col", "y", "--k0", "abc"],
        ["fit", "--y-col", "y"],
        ["check-rho", "--k", "1.5", "--grid", "abc"],
        ["walrus"],
        [],
    ], ids=["unknown-model", "bad-k0", "missing-input", "bad-grid", "unknown-command",
            "no-command"])
    def test_usage_error_exit_3_one_line(self, argv, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: input: ")
        assert err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        assert "--model" in capsys.readouterr().out


class TestFit:
    def test_linear_fit_schema(self, tmp_path):
        csv_file = write_csv(tmp_path / "d.csv")
        out = tmp_path / "report.json"
        code = main(["fit", "--input", str(csv_file), "--y-col", "y",
                     "--x-cols", "x1,x2", "--seed", "3",
                     "--n-subsamples", "50", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        for key in ("sigma", "beta_mm", "alpha_mm", "std_errors", "V",
                    "constants", "beta_s", "alpha_s", "converged",
                    "equation_residuals", "identifiability"):
            assert key in report
        assert report["schema_version"] == 1
        assert len(report["beta_mm"]) == 2
        assert len(report["std_errors"]) == 3
        assert abs(report["beta_mm"][0] - 2.0) < 0.5
        assert report["certified"] is True
        assert "meta" not in report

    def test_nan_cell_exit_3(self, tmp_path, capsys):
        csv_file = write_csv(tmp_path / "d.csv", nan_at=4)
        code = main(["fit", "--input", str(csv_file), "--y-col", "y"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: input:")
        assert "row 6" in err  # header + 1-based data row

    def test_constant_column_warns(self, tmp_path):
        csv_file = write_csv(tmp_path / "d.csv", const_col=True)
        out = tmp_path / "r.json"
        code = main(["fit", "--input", str(csv_file), "--y-col", "y",
                     "--n-subsamples", "50", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["identifiability"]["at_risk"] is True
        assert report["warnings"]

    def test_missing_file_exit_3(self, capsys):
        assert main(["fit", "--input", "/nonexistent.csv", "--y-col", "y"]) == 3

    def test_byte_identical_reruns(self, tmp_path):
        csv_file = write_csv(tmp_path / "d.csv")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["fit", "--input", str(csv_file), "--y-col", "y", "--seed", "11",
                "--n-subsamples", "40"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exact_fit_flagged(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 1))
        y = 3.0 * X[:, 0] + 2.0
        lines = ["y,x1"] + [f"{float(y[i])!r},{float(X[i, 0])!r}" for i in range(30)]
        f = tmp_path / "exact.csv"
        f.write_text("\n".join(lines))
        out = tmp_path / "r.json"
        assert main(["fit", "--input", str(f), "--y-col", "y",
                     "--n-subsamples", "30", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["exact_fit"] is True
        assert report["sigma"] == 0.0
        assert report["std_errors"] is None


    def test_s_iteration_cap_reported(self, tmp_path):
        # the 27th instance of acceptance criterion C3: its chosen S
        # candidate stops at the 200-iteration refinement cap
        rng = np.random.default_rng(303)
        for i in range(27):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(10 * p + 30, 200))
            X = rng.normal(size=(n, p))
            beta = rng.uniform(-3, 3, size=p)
            alpha = float(rng.uniform(-2, 2))
            noise = rng.standard_t(df=3, size=n) if i % 3 == 0 else rng.normal(size=n)
        y = X @ beta + alpha + noise
        assert (p, n) == (1, 144)

        res = fit(Dataset(x=X, y=y), linear_model(1), FitConfig(n_subsamples=50, seed=1026))
        assert res.converged_s is False
        assert res.converged_mm is True

        lines = ["y,x1"] + [f"{float(y[k])!r},{float(X[k, 0])!r}" for k in range(n)]
        f = tmp_path / "capped.csv"
        f.write_text("\n".join(lines))
        out = tmp_path / "r.json"
        assert main(["fit", "--input", str(f), "--y-col", "y", "--seed", "1026",
                     "--n-subsamples", "50", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["converged"] == {"s": False, "mm": True}
        assert report["beta_s"] == res.xi_s.beta.tolist()

    @pytest.mark.parametrize("x_scale,y_scale,symmetric,warning", [
        (1e200, 1.0, False, "inference unavailable: singular factor A0"),
        (1.0, 1e300, False, "inference unavailable: non-finite covariance"),
        (1.0, 1e300, True, "inference unavailable: non-finite covariance"),
    ], ids=["huge-predictors", "huge-response", "huge-response-symmetric"])
    def test_non_finite_covariance_unavailable(self, tmp_path, x_scale, y_scale, symmetric,
                                               warning):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2)) * x_scale
        y = (X / x_scale @ [2.0, -1.0] + 0.5 + rng.normal(size=50)) * y_scale
        lines = ["y,x1,x2"] + [",".join(repr(float(v)) for v in (y[i], *X[i]))
                               for i in range(50)]
        f = tmp_path / "huge.csv"
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        argv = ["fit", "--input", str(f), "--y-col", "y", "--n-subsamples", "50",
                "--out", str(out)]
        assert main(argv + ["--symmetric"] * symmetric) == 0
        report = strict_json(out.read_text())
        assert warning in report["warnings"]
        assert report["std_errors"] is None and report["V"] is None
        assert report["constants"] is None
        if symmetric:
            assert report["V_symmetric"] is None
            assert report["symmetric_discrepancy"] is None


class TestSimulate:
    def test_contamination_smoke_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        csv_out = tmp_path / "rep.csv"
        code = main(["simulate", "--scenario", str(scenario_path("contamination-smoke.cfg")),
                     "--out", str(out), "--csv", str(csv_out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert csv_out.exists()
        header = csv_out.read_text().splitlines()[0]
        assert "slope_deviation" in header

    def test_byte_identical_and_parallel(self, tmp_path, monkeypatch):
        out1, out2, out3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        scen = str(scenario_path("contamination-smoke.cfg"))
        monkeypatch.setenv("ROBUSTMM_THREADS", "1")
        assert main(["simulate", "--scenario", scen, "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", scen, "--out", str(out2)]) == 0
        monkeypatch.setenv("ROBUSTMM_THREADS", "2")
        assert main(["simulate", "--scenario", scen, "--out", str(out3)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() == out3.read_bytes()

    def test_malformed_scenario_names_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("kind = consistency\nwalrus = 7\n")
        assert main(["simulate", "--scenario", str(bad)]) == 3
        assert "walrus" in capsys.readouterr().err

    def test_zero_replications_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("kind = contamination\nmodel = linear\np = 1\n"
                       "beta0 = 1.0\nsizes = 50\nreplications = 0\n")
        assert main(["simulate", "--scenario", str(bad)]) == 3
        assert "replications" in capsys.readouterr().err

    @pytest.mark.parametrize("lines,key", [
        ("error_scale = -1\n", "error_scale"),
        ("error_scale = nan\n", "error_scale"),
        ("errors = contaminated-normal\nerror_eps = 0.2\n"
         "error_outlier_scale = 0\n", "error_outlier_scale"),
        ("errors = contaminated-normal\nerror_eps = 1.5\n", "error_eps"),
        ("errors = contaminated-normal\nerror_eps = 0.2\n"
         "error_outlier_scale = 1e300\n", "error_outlier_scale"),
        ("refine_steps = 3\n", "refine_steps"),
        ("sizes = 60\n", "sizes"),
        ("delta = 1.5\n", "delta"),
        ("k0 = -1\n", "k0"),
        ("k1 = 1.0\n", "k1"),
        ("n_subsamples = 0\n", "n_subsamples"),
        ("p = 0\nbeta0 =\n", "p"),
        ("model = exp\np = 7\nbeta0 = 1.0, 0.5\n", "p"),
        ("model = location\np = 3\nbeta0 =\n", "p"),
        ("seed = -1\n", "seed"),
        (f"seed = {2 ** 128}\n", "seed"),
        ("beta0 = nan\n", "beta0"),
        ("alpha0 = inf\n", "alpha0"),
        ("contamination_fractions = 0.1, -0.1\n", "contamination_fractions"),
        ("delta = 0.6\ncontamination_fractions = 0.1, 0.4\n", "contamination_fractions"),
    ], ids=["negative-scale", "nan-scale", "zero-outlier-scale", "eps-above-1",
            "huge-outlier-scale",
            "solver-constant", "repeated-key", "delta-above-1", "negative-k0",
            "k1-below-k0", "no-subsamples", "no-predictors", "exp-p-not-1",
            "location-p-not-0", "negative-seed", "huge-seed",
            "nan-beta0", "inf-alpha0", "negative-fraction", "fraction-at-1-minus-delta"])
    def test_bad_scenario_value_exit_3(self, tmp_path, capsys, lines, key):
        # model = linear, p = 1 and beta0 = 1.0 are the defaults, so the
        # cases can set them
        bad = tmp_path / "bad.cfg"
        bad.write_text("kind = contamination\nsizes = 50\nreplications = 1\n" + lines)
        assert main(["simulate", "--scenario", str(bad)]) == 3
        assert f"(key: {key})" in capsys.readouterr().err

    def test_runtime_scenario_error_exit_3(self, tmp_path, capsys):
        # parses, but the consistency run itself rejects two sizes
        bad = tmp_path / "two-sizes.cfg"
        bad.write_text("kind = consistency\nmodel = linear\np = 1\nbeta0 = 1.0\n"
                       "sizes = 100, 400\nreplications = 2\n")
        assert main(["simulate", "--scenario", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err == ("error: input: consistency runs need at least 3 sizes "
                       "(key: sizes)\n")

    def test_bad_thread_count_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ROBUSTMM_THREADS", "lots")
        code = main(["simulate", "--scenario", str(scenario_path("contamination-smoke.cfg")),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 3
        assert "(key: ROBUSTMM_THREADS)" in capsys.readouterr().err

    def test_one_magnitude_growth_undecided(self, tmp_path):
        scen = tmp_path / "one-magnitude.cfg"
        scen.write_text("kind = contamination\nmodel = linear\np = 1\n"
                        "beta0 = 1.0\nsizes = 60\nreplications = 1\n"
                        "n_subsamples = 20\ncontamination_fractions = 0.0, 0.2\n"
                        "outlier_magnitudes = 100\n")
        out = tmp_path / "rep.json"
        # an undecided claim makes the report undecided, which is not a pass
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is None
        claims = {c["name"]: c for c in report["claims"]}
        growth = claims["deviation_growth_large_magnitudes"]
        assert growth["passed"] is None
        assert growth["detail"] == "needs two magnitudes"
        assert claims["max_deviation_vs_clean_se"]["passed"] is True
        assert report["summary"]["worst_magnitude_growth"] is None

    def test_missing_scenario_exit_3(self):
        assert main(["simulate", "--scenario", "/nope.cfg"]) == 3

    def test_sizes_below_q_plus_2_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "small.cfg"
        bad.write_text("kind = consistency\nmodel = linear\np = 4\n"
                       "beta0 = 1.0, 1.0, 1.0, 1.0\nsizes = 5, 10, 20\nreplications = 1\n")
        assert main(["simulate", "--scenario", str(bad)]) == 3
        assert "(key: sizes)" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["contamination_fractions", "outlier_magnitudes"])
    def test_empty_contamination_sweep_exit_3(self, tmp_path, capsys, key):
        bad = tmp_path / "empty.cfg"
        bad.write_text(f"kind = contamination\nsizes = 50\nreplications = 1\n{key} =\n")
        assert main(["simulate", "--scenario", str(bad)]) == 3
        assert f"(key: {key})" in capsys.readouterr().err

    def test_normality_single_replication_strict_json(self, tmp_path):
        scen = tmp_path / "one-rep.cfg"
        scen.write_text("kind = normality\nmodel = location\np = 0\nbeta0 =\n"
                        "sizes = 60\nreplications = 1\nn_subsamples = 10\n")
        out = tmp_path / "rep.json"
        # undecided, so not a pass
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 1

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["passed"] is None
        claims = {c["name"]: c for c in report["claims"]}
        assert claims["normality"]["detail"] == "insufficient replications"

    @pytest.mark.parametrize("text,err", [
        ("kind = normality\nmodel = location\np = 0\nbeta0 =\nerror_scale = 1e-300\n"
         "sizes = 20\nreplications = 2\n",
         "error: input: error_scale must lie in [1e-6, 1e100] (key: error_scale)\n"),
        ("kind = expansion\np = 1\nk0 = 1e-8\nk1 = 1e-8\nsizes = 20, 40\nreplications = 2\n",
         "error: input: population constant a00 is numerically zero\n"),
        ("kind = expansion\np = 1\nerror_scale = 1e300\nsizes = 20, 40\nreplications = 2\n",
         "error: input: error_scale must lie in [1e-6, 1e100] (key: error_scale)\n"),
    ], ids=["tiny-error-scale", "zero-population-constants", "huge-error-scale"])
    def test_degenerate_scenario_exit_3(self, tmp_path, capsys, text, err):
        scen = tmp_path / "degenerate.cfg"
        scen.write_text(text)
        assert main(["simulate", "--scenario", str(scen)]) == 3
        assert capsys.readouterr().err == err

    def test_zero_median_error_ratio_undecided(self, tmp_path):
        # at beta0 = 1e300 every slope error is exactly 0
        scen = tmp_path / "huge-slope.cfg"
        scen.write_text("kind = consistency\np = 1\nbeta0 = 1e300\nsizes = 20, 40, 80\n"
                        "replications = 2\n")
        out = tmp_path / "rep.json"
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 1
        report = strict_json(out.read_text())
        assert report["passed"] is None
        assert report["summary"]["median_slope_error"] == [0.0, 0.0, 0.0]
        assert [c["passed"] for c in report["claims"][1:]] == [None, None]

    def test_failed_contaminated_refit_strict_json(self, tmp_path):
        # 20 % of the responses at 1.7e308: the refit overflows to a
        # non-finite residual and raises, its deviation is inf
        scen = tmp_path / "refit-fails.cfg"
        scen.write_text("kind = contamination\np = 1\nsizes = 30\nreplications = 1\n"
                        "n_subsamples = 10\ncontamination_fractions = 0.2\n"
                        "outlier_magnitudes = 100, 1.7e308\n")
        out = tmp_path / "rep.json"
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 1
        report = strict_json(out.read_text())
        claims = {c["name"]: c for c in report["claims"]}
        worst = claims["max_deviation_vs_clean_se"]
        assert worst["passed"] is False and worst["value"] is None
        assert worst["detail"] == "a contaminated refit failed"
        assert report["summary"]["worst_se_multiple"] is None

    def test_saturating_outliers_give_a_report(self, tmp_path):
        # outliers at 1e150 and 1e200 saturate the loss over whole warm
        # brackets of the S refinement's scale solves
        scen = tmp_path / "saturating.cfg"
        scen.write_text("kind = contamination\np = 1\nsizes = 40\nreplications = 2\n"
                        "contamination_fractions = 0.2, 0.4\n"
                        "outlier_magnitudes = 1e150, 1e200\n")
        out = tmp_path / "rep.json"
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) in (0, 1)
        assert strict_json(out.read_text())["kind"] == "contamination"

    def test_location_normal_bundled(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["simulate", "--scenario", str(scenario_path("location-normal.cfg")),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "normality"
        assert report["passed"] is True
