"""One measured benchmark process: set up a workload, run its timed phase,
check every answer, and print one JSON result as the last stdout line.

Started by ``run.py``, which passes the process start time in
``PERFBENCH_T0`` (``time.monotonic()`` of the parent, a clock shared by
all processes) so that set-up time includes interpreter start and the
imports. ``--setup-only`` stops after set-up and reports only its time.
"""

from __future__ import annotations

import os

# BLAS threads would compete with the simulation's worker processes;
# pin them before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import robustmm from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import robustmm
    where = Path(robustmm.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"robustmm imported from {where}, not from {SRC}")


def _environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "ROBUSTMM_THREADS")},
    }


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest
    # reaped child (the simulation's pool workers)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def _run_op(workload, index: int):
    """One operation; one that raises is recorded as a failed fit."""
    from workloads import OpResult
    t0 = time.perf_counter()
    try:
        return workload.run_op(index)
    except Exception as exc:  # noqa: BLE001 - the benchmark must report it
        return OpResult(time.perf_counter() - t0, [None],
                        [f"{type(exc).__name__}: {exc}"])


def _run_phase(workload, seconds: float) -> tuple:
    """Run operations until ``seconds`` have passed, at least one."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(_run_op(workload, len(results)))
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return results, elapsed


class Checker:
    """Answer checks; every fit that misses one counts as failed."""

    def __init__(self, workload, case: int):
        from workloads import load_reference
        self.workload = workload
        ref = load_reference()["workloads"][workload.reference_key]
        self.reference = ref[str(case)]
        self.max_dtheta = 0.0
        self.problems: list[str] = []

    def failed_fits(self, results) -> int:
        from workloads import THETA_TOL, theta_miss
        failed = 0
        for i, res in enumerate(results):
            ref = self.reference[self.workload.reference_slot(i)]
            if len(ref) != res.fits:
                self.problems.append(f"op {i}: {res.fits} fits, reference has {len(ref)}")
                failed += res.fits
                continue
            for theta, err, theta_ref in zip(res.thetas, res.errors, ref):
                miss = theta_miss(theta, theta_ref)
                if theta is not None:
                    self.max_dtheta = max(self.max_dtheta, miss)
                if err is not None or miss > THETA_TOL:
                    failed += 1
                    if len(self.problems) < 5:
                        self.problems.append(f"op {i}: {err or f'theta miss {miss:.3g}'}")
        return failed

    def same_answers(self, what: str, a, b) -> None:
        """Require bit-identical theta between two runs of the same inputs."""
        import numpy as np
        for i, (ra, rb) in enumerate(zip(a, b)):
            for ta, tb in zip(ra.thetas, rb.thetas):
                if ta is None or tb is None or not np.array_equal(ta, tb):
                    self.problems.append(f"{what}: op {i} theta differs")
                    return

    def repeat_answers(self, results) -> None:
        """Operations on the same input within one run must agree exactly."""
        first = {}
        for i, res in enumerate(results):
            slot = self.workload.reference_slot(i)
            if slot in first:
                self.same_answers(f"repeat of slot {slot}", [first[slot]], [res])
            else:
                first[slot] = res


#: per-layer metrics that must be non-zero on the workload named for them
MUST_MOVE = {
    "fit-linear-large": (
        "rho.loss_points", "rho.loss_s", "rho.method_calls", "rho.method_s",
        "mscale.batch_calls", "mscale.batch_rows", "mscale.batch_s",
        "mscale.scalar_calls", "mscale.scalar_s", "mscale.loss_calls_per_solve",
        "model.residuals_calls", "model.grad_rows_calls",
        "model.eval_batch_calls", "model.load_csv_s",
        "estimators.candidates_drawn", "estimators.candidates_usable",
        "estimators.candidates_s", "estimators.quick_refine_s",
        "estimators.refine_full_calls", "estimators.refine_full_iters",
        "estimators.refine_full_s", "estimators.wls_calls", "estimators.wls_s",
        "estimators.mm_iters", "estimators.mm_s", "estimators.certify_s",
        "inference.cov_s", "inference.constants_s", "inference.psi_matrix_s",
        "cli.main_s", "cli.identifiability_s", "cli.emit_s"),
    "fit-exp": (
        "rho.loss_points", "mscale.batch_rows", "mscale.scalar_calls",
        "model.residuals_calls", "model.residuals_s", "model.grad_rows_calls",
        "model.grad_rows_s", "model.eval_batch_calls", "model.eval_batch_s",
        "model.load_csv_s", "estimators.candidates_drawn",
        "estimators.quick_refine_s", "estimators.refine_full_s",
        "estimators.mm_s", "inference.cov_s", "cli.main_s", "cli.emit_s"),
    "sim-small": (
        "rho.loss_points", "rho.method_calls", "mscale.batch_rows",
        "mscale.scalar_calls", "mscale.scalar_s", "mscale.loss_calls_per_solve",
        "model.residuals_calls", "estimators.candidates_drawn",
        "estimators.refine_full_calls", "estimators.refine_full_s",
        "estimators.mm_s", "inference.psi_matrix_s", "montecarlo.tasks",
        "montecarlo.generate_s", "montecarlo.population_s",
        "montecarlo.map_s", "montecarlo.report_s"),
    "sim-parallel": (
        "rho.method_calls", "inference.psi_matrix_s", "montecarlo.tasks",
        "montecarlo.generate_s", "montecarlo.population_s",
        "montecarlo.map_s", "montecarlo.report_s"),
}


def _end_to_end(results, wall: float, cpu: float, setup_s: float) -> dict:
    fits = sum(r.fits for r in results)
    per_fit = statistics.median(r.wall_s / r.fits for r in results)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "fits_per_s": {"value": fits / wall, "unit": "1/s"},
        "fit_p50_s": {"value": per_fit, "unit": "s"},
        "cpu_s_per_fit": {"value": cpu / fits, "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }


def _unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_per_solve"):
        return "calls/solve"
    return "count"


def _traced(workload, name: str, seconds: float, checker) -> tuple:
    """Untraced operations for half the time, then the same operations
    traced; returns (untraced results, per-layer metrics, layer split)."""
    from tracing import Tracer
    plain, _ = _run_phase(workload, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for i in range(len(plain)):
            traced.append(_run_op(workload, i))
            tracer.fold()
    finally:
        tracer.uninstall()
    checker.same_answers("traced vs untraced", plain, traced)
    ops = len(plain)
    metrics = tracer.metrics(ops)
    overhead = (sum(r.wall_s for r in traced) - sum(r.wall_s for r in plain)) / ops
    metrics["trace.overhead_s"] = overhead
    zero = [m for m in MUST_MOVE[name] if not metrics[m] > 0.0]
    if zero:
        checker.problems.append("per-layer metrics read 0 on the workload meant "
                                "to move them: " + ", ".join(zero))
    split = tracer.layer_split(ops)
    split["untraced"] = sum(r.wall_s for r in traced) / ops - sum(split.values())
    return plain, {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}, split


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import N_CASES, WORKLOADS
    workload = WORKLOADS[args.workload]()
    case = args.seed % N_CASES
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        workload.setup(case, workdir)
        setup_s = time.monotonic() - float(os.environ["PERFBENCH_T0"])
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        checker = Checker(workload, case)
        environment = _environment()
        if args.trace:
            results, metrics, split = _traced(workload, args.workload,
                                              args.seconds, checker)
            print("layer self time per op (s): " + json.dumps(
                {k: round(v, 6) for k, v in split.items()}))
        else:
            cpu0 = _cpu_s()
            results, wall = _run_phase(workload, args.seconds)
            cpu = _cpu_s() - cpu0
            metrics = _end_to_end(results, wall, cpu, setup_s)
        failed = checker.failed_fits(results)
        checker.repeat_answers(results)
        threads = getattr(workload, "threads", None)
        if threads is not None:
            # serial and parallel runs must agree bit for bit
            os.environ["ROBUSTMM_THREADS"] = "2" if threads == 1 else "1"
            checker.same_answers("serial vs parallel", results[:1],
                                 [_run_op(workload, 0)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.fits for r in results)
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(f"case {case} (seed {args.seed}), {len(results)} ops, {attempted} fits, "
          f"max |dtheta| vs reference {checker.max_dtheta:.3g}")
    for problem in checker.problems:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": failed == 0 and not checker.problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
