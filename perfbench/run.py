"""Run one robustmm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-exp --seed 3 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give the environment, the answer-check summary and, when
traced, the self time of each layer. See README.md in this directory.

Each run starts fresh worker processes (``worker.py``). With ``--trace
0`` the workload is set up SETUPS times, each in a new process, and
``setup_s`` is the median; the last process goes on to the timed phase.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit-linear-large", "fit-exp", "sim-small", "sim-parallel")
SETUPS = 5
#: the whole run, all processes included, must end within this
DEADLINE_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(argv: list, env: dict, deadline: float) -> str:
    env = dict(env, PERFBENCH_T0=repr(time.monotonic()))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("benchmark process exceeded the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "robustmm" / "__init__.py").is_file():
        print(f"error: no robustmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = _child_env()
    workroot = ROOT / ".perfbench_work" / str(os.getpid())
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    try:
        for i in range(SETUPS - 1 if args.trace == 0 else 0):
            out = _run_child(common + ["--setup-only", "--workdir",
                                       str(workroot / f"setup-{i}")],
                             env, deadline)
            setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        out = _run_child(common + ["--workdir", str(workroot / "run")],
                         env, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if args.trace == 0:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        print(f"setup_s of {len(setups)} processes: "
              + ", ".join(f"{s:.4f}" for s in setups))
        setup["value"] = statistics.median(setups)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
