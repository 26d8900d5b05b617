"""Compare the simulation reports of two checkouts byte for byte.

    python3 scripts/check_reports.py OTHER_CHECKOUT

It runs ``robustmm simulate --out --csv`` on the bundled scenarios and
on the small scenarios in ``SMALL`` (at least one per run kind), once
with this checkout's ``src`` on ``PYTHONPATH`` and once with
OTHER_CHECKOUT's. Both read the same scenario files, this checkout's.
It prints ``same`` or ``differs`` for every JSON and CSV report and
exits 1 when any report differs or is missing. A change to the Monte
Carlo harness that must not move its answers is checked with this.
Reports do not depend on ROBUSTMM_THREADS, which is passed through.
Both checkouts together take about a minute on a 2-vCPU machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
}


def scenarios(workdir: Path) -> dict:
    """Scenario name -> path: the bundled files, then ``SMALL`` written out."""
    paths = {p.stem: p for p in sorted((HERE / "src/robustmm/scenarios").glob("*.cfg"))}
    for name, text in SMALL.items():
        paths[name] = workdir / f"{name}.cfg"
        paths[name].write_text(text)
    return paths


def simulate(checkout: Path, scenario: Path, out: Path) -> int:
    """Exit code of ``robustmm simulate`` on one scenario, reports under ``out``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    return subprocess.run(
        [sys.executable, "-m", "robustmm.cli", "simulate", "--scenario", str(scenario),
         "--out", str(out.with_suffix(".json")), "--csv", str(out.with_suffix(".csv"))],
        env=env, stdout=subprocess.DEVNULL).returncode


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
        for name, scenario in scenarios(work).items():
            codes = [simulate(checkout, scenario, out / name) for out, checkout in sides.items()]
            for suffix in (".json", ".csv"):
                mine, theirs = (out / f"{name}{suffix}" for out in sides)
                same = mine.exists() and theirs.exists() and mine.read_bytes() == theirs.read_bytes()
                differs |= not same
                print(f"{name}{suffix}: {'same' if same else 'differs'}"
                      + ("" if codes[0] == codes[1] else f" (exit {codes[0]} vs {codes[1]})"),
                      flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
