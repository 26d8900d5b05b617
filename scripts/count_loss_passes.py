"""Count the M-scale solvers' loss passes on the benchmark's inputs.

    python3 scripts/count_loss_passes.py [fit-linear-large,fit-exp,sim-small] [case]

For each workload (all three by default) it runs every operation of one
input case (``case``, default 1) as ``perfbench/make_reference.py`` does,
and prints the loss points per solved row: the elements the loss was
evaluated at inside ``_mscale_batch`` divided by the elements of the rows
it solved, and the same for ``_mscale_scalar``. One loss pass over a row
is one point per element, so the figure reads as loss passes per row,
whatever the block size the solver evaluates the loss in. The
workload's warm-up fit is not counted. The counts are deterministic:
two checkouts that place the same points print the same numbers.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from make_reference import WORK  # noqa: E402  (sets the BLAS threads)
from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402

SOLVERS = ("_mscale_batch", "_mscale_scalar")


class Counter:
    """Loss points and row elements per solver, taken by wrapping the
    solvers under every name a robustmm module holds them by, and the
    loss factory the solvers call."""

    def __init__(self):
        self.points = dict.fromkeys(SOLVERS, 0)
        self.elements = dict.fromkeys(SOLVERS, 0)
        self.rows = dict.fromkeys(SOLVERS, 0)
        self.inside = None

    def install(self) -> None:
        mscale = sys.modules["robustmm.mscale"]
        modules = [m for name, m in sys.modules.items()
                   if m is not None and name.startswith("robustmm")]
        for name in SOLVERS:
            fn = getattr(mscale, name)
            wrapped = self._solver(name, fn)
            for m in modules:
                if getattr(m, name, None) is fn:
                    setattr(m, name, wrapped)
        factory = mscale._loss_eval

        def counting_factory(rho0):
            loss = factory(rho0)

            def ev(t):
                if self.inside is not None:
                    self.points[self.inside] += t.size
                return loss(t)
            return ev
        mscale._loss_eval = counting_factory

    def _solver(self, name, fn):
        def wrapper(R, *args, **kwargs):
            shape = np.shape(R)
            self.rows[name] += shape[0] if len(shape) == 2 else 1
            self.elements[name] += int(np.prod(shape))
            outer, self.inside = self.inside, self.inside or name
            try:
                return fn(R, *args, **kwargs)
            finally:
                self.inside = outer
        return wrapper

    def reset(self) -> None:
        for table in (self.points, self.elements, self.rows):
            for name in SOLVERS:
                table[name] = 0

    def line(self, name: str) -> str:
        if not self.rows[name]:
            return f"{name}: no solves"
        return (f"{name}: {self.points[name] / self.elements[name]:.2f} loss "
                f"passes per row over {self.rows[name]} rows")


def count(name: str, case: int, counter: Counter) -> None:
    w = WORKLOADS[name]()
    workdir = WORK / f"count-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w.setup(case, workdir)
        counter.reset()
        i = 0
        while w.reference_slot(i) == i:
            bad = [e for e in w.run_op(i).errors if e is not None]
            if bad:
                raise RuntimeError(f"{name} case {case} op {i}: {bad[0]}")
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{name} case {case}: " + "; ".join(counter.line(s) for s in SOLVERS),
          flush=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    names = argv[0].split(",") if argv else ["fit-linear-large", "fit-exp", "sim-small"]
    case = int(argv[1]) if len(argv) > 1 else 1
    counter = Counter()
    counter.install()
    for name in names:
        count(name, case, counter)
    return 0


if __name__ == "__main__":
    sys.exit(main())
