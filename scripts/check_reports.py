"""Compare the simulation and fit reports of two checkouts byte for byte.

    python3 scripts/check_reports.py OTHER_CHECKOUT

It runs ``robustmm simulate --out --csv`` on the bundled scenarios and
on the small scenarios in ``SMALL`` (at least one per run kind), and
``robustmm fit --out`` on the two CSV files that ``fit_runs`` writes,
once with this checkout's ``src`` on ``PYTHONPATH`` and once with
OTHER_CHECKOUT's. Both read the same input files, written by this
checkout. It prints ``same`` or ``differs`` for every JSON and CSV
report, and for a JSON report that differs, the keys that differ and
the largest absolute difference between their numbers. It exits 1 when
any report differs or is missing. A change that must not move the
answers of the Monte Carlo harness or of a fit is checked with this.
Reports do not depend on ROBUSTMM_THREADS, which is passed through.
Both checkouts together take about a minute on a 2-vCPU machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent

#: scenario name -> file text; small and fast, one branch of a driver each
SMALL = {
    "expansion-p2": "kind = expansion\nmodel = linear\np = 2\nbeta0 = 1.0, -1.0\n"
                    "sizes = 60, 120\nreplications = 4\nseed = 11\nn_subsamples = 10\n",
    "expansion-location-one-rep": "kind = expansion\nmodel = location\np = 0\nbeta0 =\n"
                                  "sizes = 50, 100\nreplications = 1\nseed = 4\n"
                                  "n_subsamples = 10\n",
    "normality-p1": "kind = normality\nmodel = linear\np = 1\nbeta0 = 2.0\nalpha0 = 0.5\n"
                    "sizes = 80\nreplications = 12\nseed = 12\nn_subsamples = 10\n",
    "consistency-exp-bimodal": "kind = consistency\nmodel = exp\np = 1\nbeta0 = 1.0, 0.5\n"
                               "errors = bimodal-normal\nerror_shift = 1.5\n"
                               "sizes = 40, 80, 160\nreplications = 3\nseed = 13\n"
                               "n_subsamples = 10\n",
    "contamination-one-magnitude": "kind = contamination\nmodel = linear\np = 1\n"
                                   "beta0 = 1.0\nsizes = 60\nreplications = 2\n"
                                   "n_subsamples = 20\ncontamination_fractions = 0.0, 0.2\n"
                                   "outlier_magnitudes = 100\n",
    # far outliers: their M-scale brackets span hundreds of binary orders
    "contamination-saturating": "kind = contamination\np = 1\nsizes = 40\nreplications = 2\n"
                                "contamination_fractions = 0.2, 0.4\n"
                                "outlier_magnitudes = 1e150, 1e200\n",
}


def simulate_runs(workdir: Path) -> dict:
    """Report name -> ``robustmm simulate`` arguments: the bundled scenario
    files, then ``SMALL`` written out."""
    paths = {p.stem: p for p in sorted((HERE / "src/robustmm/scenarios").glob("*.cfg"))}
    for name, text in SMALL.items():
        paths[name] = workdir / f"{name}.cfg"
        paths[name].write_text(text)
    return {name: ["simulate", "--scenario", str(path)] for name, path in paths.items()}


def fit_runs(workdir: Path) -> dict:
    """Report name -> ``robustmm fit`` arguments: a linear p = 2 dataset with
    20 % outliers and an exp dataset with 10 %, each fitted with and
    without ``--symmetric``."""
    rng = np.random.default_rng(5)
    n = 200
    X = rng.normal(size=(n, 2))
    y = X @ [2.0, -1.0] + 0.5 + rng.normal(size=n)
    y[rng.random(n) < 0.2] += 25.0
    x = rng.uniform(0.0, 2.0, size=(n, 1))
    z = 2.0 * np.exp(0.7 * x[:, 0]) + 0.3 * rng.normal(size=n)
    z[rng.random(n) < 0.1] += 20.0
    runs = {}
    for model, response, design in (("linear", y, X), ("exp", z, x)):
        path = workdir / f"fit-{model}.csv"
        rows = (",".join(repr(float(v)) for v in (r, *xs)) for r, xs in zip(response, design))
        path.write_text("\n".join(["y," + ",".join(f"x{j}" for j in range(design.shape[1])),
                                   *rows]) + "\n")
        argv = ["fit", "--input", str(path), "--y-col", "y", "--model", model,
                "--n-subsamples", "100", "--seed", "3"]
        runs[f"fit-{model}"] = argv
        runs[f"fit-{model}-symmetric"] = argv + ["--symmetric"]
    return runs


def run(checkout: Path, argv: list, out: Path) -> int:
    """Exit code of ``robustmm`` with ``argv``, reports under ``out``: a
    JSON report, and a CSV table for ``simulate``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    reports = ["--out", str(out.with_suffix(".json"))]
    if argv[0] == "simulate":
        reports += ["--csv", str(out.with_suffix(".csv"))]
    return subprocess.run([sys.executable, "-m", "robustmm.cli", *argv, *reports],
                          env=env, stdout=subprocess.DEVNULL).returncode


def _leaves(obj, path=""):
    """(dotted path, value) for every scalar in a parsed JSON report."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaves(val, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _leaves(val, f"{path}.{i}")
    else:
        yield path, obj


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_difference(mine: Path, theirs: Path) -> str:
    """The top-level keys whose values differ between two JSON reports, and
    the largest absolute difference between the numbers that differ."""
    a, b = (dict(_leaves(json.loads(p.read_text()))) for p in (mine, theirs))
    paths = sorted(p for p in a.keys() | b.keys()
                   if p not in a or p not in b or a[p] != b[p])
    gaps = [abs(a[p] - b[p]) for p in paths
            if p in a and p in b and _is_number(a[p]) and _is_number(b[p])]
    keys = ", ".join(dict.fromkeys(p.split(".")[0] for p in paths))
    return f"keys {keys}; largest absolute difference {max(gaps, default=0.0):.3g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sides = {work / "this": HERE, work / "other": other}
        for out in sides:
            out.mkdir()
        for name, args in {**simulate_runs(work), **fit_runs(work)}.items():
            codes = [run(checkout, args, out / name) for out, checkout in sides.items()]
            for suffix in (".json", ".csv") if args[0] == "simulate" else (".json",):
                mine, theirs = (out / f"{name}{suffix}" for out in sides)
                same = mine.exists() and theirs.exists() and mine.read_bytes() == theirs.read_bytes()
                differs |= not same
                detail = ""
                if not same and suffix == ".json" and mine.exists() and theirs.exists():
                    detail = f": {json_difference(mine, theirs)}"
                print(f"{name}{suffix}: {'same' if same else 'differs'}{detail}"
                      + ("" if codes[0] == codes[1] else f" (exit {codes[0]} vs {codes[1]})"),
                      flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
