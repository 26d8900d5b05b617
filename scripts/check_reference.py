"""Sweep every input case of the benchmark and compare theta with the reference.

    python3 scripts/check_reference.py [fit-linear-large,fit-exp,sim-small]

For each workload (all three by default) it fits every one of the
``N_CASES`` input cases as ``perfbench/make_reference.py`` does, and
prints, per workload, the largest ``theta_miss`` against
``perfbench/reference.json`` and the case where it occurs. The miss is
printed to the last digit, so two checkouts that answer bit for bit
print the same number. A single benchmark run checks one case; a change
to the S search can move theta past the tolerance on a case no run
happens to pick, and this finds it.
It exits 1 when any miss exceeds ``THETA_TOL``. All three workloads take
about six minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from make_reference import WORK, _case  # noqa: E402  (sets the BLAS threads)
from workloads import (N_CASES, THETA_TOL, WORKLOADS, load_reference,  # noqa: E402
                       theta_miss)

import numpy as np  # noqa: E402


def case_miss(name: str, case: int, ref_slots: list) -> float:
    """Largest theta_miss over the fits of one case; inf when a fit fails
    or the case has another number of fits than its reference."""
    try:
        slots = _case(name, case, WORK / f"check-{os.getpid()}")
    except RuntimeError as exc:
        print(f"{name} case {case}: {exc}", flush=True)
        return float("inf")
    if [len(s) for s in slots] != [len(s) for s in ref_slots]:
        return float("inf")
    return max(theta_miss(np.asarray(theta), want)
               for got, ref_slot in zip(slots, ref_slots)
               for theta, want in zip(got, ref_slot))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    names = argv[0].split(",") if argv else ["fit-linear-large", "fit-exp", "sim-small"]
    reference = load_reference()["workloads"]
    failed = False
    for name in names:
        t0 = time.monotonic()
        ref = reference[WORKLOADS[name]().reference_key]
        misses = [case_miss(name, case, ref[str(case)]) for case in range(N_CASES)]
        case = int(np.argmax(misses))
        worst = misses[case]
        failed |= worst > THETA_TOL
        print(f"{name}: largest theta miss {worst!r} (case {case}) over {N_CASES} "
              f"cases, {time.monotonic() - t0:.0f} s"
              + ("" if worst <= THETA_TOL else f"  ABOVE {THETA_TOL:g}"), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
