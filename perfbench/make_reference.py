"""Regenerate reference.json: theta of every fit of every input case.

    python3 perfbench/make_reference.py

Run it only on a commit whose answers are the ones to keep; every later
benchmark run compares its answers with this file. It fits all
``N_CASES`` cases of every workload and takes about twenty minutes on
one core.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import (N_CASES, REFERENCE_FILE, THETA_TOL,  # noqa: E402
                       WORKLOADS)


def _case(name: str, case: int, workdir: Path) -> list:
    """theta of every fit, per operation slot, for one input case."""
    w = WORKLOADS[name]()
    workdir.mkdir(parents=True)
    try:
        w.setup(case, workdir)
        slots = []
        i = 0
        while w.reference_slot(i) == i:
            res = w.run_op(i)
            bad = [e for e in res.errors if e is not None]
            if bad:
                raise RuntimeError(f"{name} case {case} op {i}: {bad[0]}")
            slots.append([[float(v) for v in t] for t in res.thetas])
            i += 1
        return slots
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    table = {}
    # sim-parallel shares sim-small's reference: same scenarios, same answers
    for name in ("fit-linear-large", "fit-exp", "sim-small"):
        per_case = table.setdefault(WORKLOADS[name]().reference_key, {})
        for case in range(N_CASES):
            per_case[str(case)] = _case(name, case, WORK / f"reference-{os.getpid()}")
            print(f"{name} case {case}: {len(per_case[str(case)])} ops", flush=True)
    REFERENCE_FILE.write_text(json.dumps(
        {"theta_tol": THETA_TOL,
         "theta": "(xi_S, xi_MM, sigma) per fit, per operation slot",
         "workloads": table}, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
