"""The benchmark's workloads: seeded inputs, one timed operation each, and
the answer each operation produced.

An operation is one user-level call:

* ``fit-linear-large`` / ``fit-exp``: one ``robustmm fit`` run in-process
  through ``robustmm.cli.main`` on a CSV file written during set-up. It
  covers CSV load, the joint S/MM fit, ``asymptotic_cov`` and the JSON
  write. One operation is one fit.
* ``sim-small`` / ``sim-parallel``: one ``run_scenario`` call on an
  expansion scenario. Every (size, replication) task is one fit.

The answer of a fit is theta = (xi_S, xi_MM, sigma). ``--seed`` selects
input case ``seed % N_CASES``; every case has a committed reference
theta in ``reference.json`` (see ``make_reference.py``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import robustmm.cli
import robustmm.montecarlo

N_CASES = 64
#: an answer misses when |theta - theta_ref| > THETA_TOL * max(1, |theta_ref|)
THETA_TOL = 1e-6
REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class OpResult:
    """What one operation did: its wall time and, per fit, theta and
    whether the fit completed with a certificate (None when it did not)."""

    wall_s: float
    thetas: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def fits(self) -> int:
        return len(self.thetas)


def _rng(workload: str, case: int, index: int = 0) -> np.random.Generator:
    key = sum(ord(ch) * 31 ** i for i, ch in enumerate(workload)) % 2 ** 32
    return np.random.default_rng([key, case, index])


def _write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> list[str]:
    names = [f"x{j + 1}" for j in range(x.shape[1])]
    table = np.column_stack([y, x])
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header=",".join(["y"] + names), comments="")
    return names


class CliFit:
    """``robustmm fit`` on benchmark-written CSV files, cycled in order."""

    def __init__(self, name: str, model: str, n: int, p: int,
                 outlier_frac: float, datasets: int):
        self.name = name
        self.model = model
        self.n = n
        self.p = p
        self.outlier_frac = outlier_frac
        self.datasets = datasets
        self.reference_key = name
        self.argvs: list[list[str]] = []
        self.outs: list[Path] = []

    def _data(self, rng: np.random.Generator, n: int):
        if self.model == "linear":
            x = rng.standard_normal((n, self.p))
            beta = rng.uniform(-2.0, 2.0, self.p)
            y = x @ beta + rng.uniform(-1.0, 1.0) + rng.standard_normal(n)
            shift = rng.normal(40.0, 5.0, n)
        else:
            x = rng.uniform(0.0, 2.0, (n, 1))
            b1, b2 = rng.uniform(1.5, 3.0), rng.uniform(0.4, 1.0)
            y = b1 * np.exp(b2 * x[:, 0]) + 0.5 * rng.standard_normal(n)
            shift = rng.uniform(15.0, 25.0, n)
        bad = rng.choice(n, int(round(self.outlier_frac * n)), replace=False)
        y[bad] += shift[bad]
        return x, y

    def _argv(self, csv_path: Path, names: list[str], out: Path, seed: int):
        return ["fit", "--input", str(csv_path), "--y-col", "y",
                "--x-cols", ",".join(names), "--model", self.model,
                "--seed", str(seed), "--out", str(out)]

    def setup(self, case: int, workdir: Path) -> None:
        """Write the case's CSV files and warm the fit path on a 200-row
        dataset of the same shape."""
        for j in range(self.datasets):
            x, y = self._data(_rng(self.name, case, j), self.n)
            csv_path = workdir / f"{self.name}-{j}.csv"
            out = workdir / f"{self.name}-{j}.json"
            self.argvs.append(self._argv(csv_path, _write_csv(csv_path, x, y),
                                         out, case))
            self.outs.append(out)
        # the warm-up input is the same for every case, so it is known to fit
        x, y = self._data(_rng(self.name + "-warm-up", 0), 200)
        warm_csv = workdir / "warm.csv"
        warm_argv = self._argv(warm_csv, _write_csv(warm_csv, x, y),
                               workdir / "warm.json", 0)
        if robustmm.cli.main(warm_argv) != 0:
            raise RuntimeError(f"{self.name}: warm-up fit failed")

    def run_op(self, index: int) -> OpResult:
        j = index % len(self.argvs)
        t0 = time.perf_counter()
        code = robustmm.cli.main(self.argvs[j])
        wall = time.perf_counter() - t0
        if code != 0:
            return OpResult(wall, [None], [f"robustmm fit exited with {code}"])
        report = json.loads(self.outs[j].read_text())
        if not report["certified"]:
            return OpResult(wall, [None], ["fit not certified"])
        theta = np.array(list(report["beta_s"]) + [report["alpha_s"]]
                         + list(report["beta_mm"]) + [report["alpha_mm"]]
                         + [report["sigma"]], dtype=float)
        return OpResult(wall, [theta], [None])

    def reference_slot(self, index: int) -> int:
        return index % self.datasets


class Simulation:
    """``run_scenario`` on expansion scenarios shaped like acceptance
    criterion C9 (linear model, p = 2, sizes 200/800/3200, 20 subsamples,
    normal errors), cycled in order. Case c has SCENARIOS of them, with
    scenario seeds c, c + N_CASES, c + 2 N_CASES, ... ``threads`` is the
    ROBUSTMM_THREADS setting."""

    #: scenarios per case; one scenario's fit times vary with its data by
    #: about 8 % from case to case, and cycling several averages that out
    SCENARIOS = 4

    def __init__(self, threads: int, replications: int):
        self.threads = threads
        self.replications = replications
        self.reference_key = "sim"
        self.scenarios: list = []
        self._captured: list = []

    def _scenario(self, seed: int, sizes, replications: int):
        return robustmm.montecarlo.SimScenario(
            kind="expansion", model="linear", p=2, beta0=(1.0, -1.0),
            alpha0=0.0, errors="normal", sizes=sizes,
            replications=replications, seed=seed, n_subsamples=20)

    def _capture_tasks(self) -> None:
        """Keep the per-task results of ``_run_grid``: the report itself
        carries no per-replication theta. One wrapper call per operation."""
        grid = robustmm.montecarlo._run_grid
        grid = getattr(grid, "__wrapped__", grid)
        captured = self._captured

        def run_grid(scenario, sizes):
            results = grid(scenario, sizes)
            captured.append(results)
            return results

        run_grid.__wrapped__ = grid
        robustmm.montecarlo._run_grid = run_grid

    def setup(self, case: int, workdir: Path) -> None:
        """Build the scenarios and warm the quadrature oracle and the fit
        path with one small serial run."""
        os.environ["ROBUSTMM_THREADS"] = str(self.threads)
        self._capture_tasks()
        self.scenarios = [self._scenario(case + j * N_CASES, (200, 800, 3200),
                                         self.replications)
                          for j in range(self.SCENARIOS)]
        robustmm.montecarlo.run_scenario(self._scenario(0, (40, 80), 1))
        self._captured.clear()

    def run_op(self, index: int) -> OpResult:
        self._captured.clear()
        t0 = time.perf_counter()
        robustmm.montecarlo.run_scenario(self.scenarios[index % self.SCENARIOS])
        wall = time.perf_counter() - t0
        (tasks,) = self._captured
        thetas, errors = [], []
        for task in tasks:
            if task["failed"]:
                thetas.append(None)
                errors.append(task["error"])
            elif not task["certified"]:
                thetas.append(None)
                errors.append(f"size {task['n']} rep {task['rep']}: not certified")
            else:
                thetas.append(np.asarray(task["theta"], dtype=float))
                errors.append(None)
        return OpResult(wall, thetas, errors)

    def reference_slot(self, index: int) -> int:
        return index % self.SCENARIOS


WORKLOADS = {
    "fit-linear-large": lambda: CliFit("fit-linear-large", "linear", n=5000,
                                       p=5, outlier_frac=0.2, datasets=1),
    "fit-exp": lambda: CliFit("fit-exp", "exp", n=500, p=1,
                              outlier_frac=0.1, datasets=4),
    "sim-small": lambda: Simulation(threads=1, replications=4),
    "sim-parallel": lambda: Simulation(threads=2, replications=4),
}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def theta_miss(theta, ref) -> float:
    """Largest |theta - ref| scaled by max(1, |ref|); inf on shape mismatch."""
    ref = np.asarray(ref, dtype=float)
    if theta is None or theta.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(theta - ref) / np.maximum(1.0, np.abs(ref))))
