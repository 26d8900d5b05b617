"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads fit-exp,sim-small]
                                [--seconds 25] [--trace 0] [--json out.json]
                                [--against ../parent]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
(Q3 - Q1) / median and the sample count, and it reports every run that
was not correct or had failed operations.

``--against`` names a second checkout, such as the parent commit. The two
are then run as pairs, one after the other for each seed, and which one
runs first alternates from seed to seed, so a slow spell of the host
falls on both alike. For each metric it prints both medians and how
much worse this checkout's median is, as a share of the other's, next
to the metric's bound. ``--against .`` compares the checkout with
itself: the check that two sets of the same code agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "n": len(values)}


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if better == "lower" else -change


def _run(root: Path, label: str, workload: str, seed: int, args) -> dict | None:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        capture_output=True, text=True, cwd=root, timeout=600)
    if proc.returncode != 0:
        print(f"{label} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{label} {workload} seed {seed} ({time.monotonic() - t0:.0f} s): " + ", ".join(
        f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    if not result["correct"] or result["failed"]:
        print(f"{label} {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}\n{proc.stdout}")
    return result


def _print_summary(title: str, metrics: dict) -> None:
    print(f"\n{title}: median [Q1, Q3] spread (n)")
    for name, s in metrics.items():
        print(f"  {name:32s} {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
              f"{s['spread']:.3f} ({s['n']})")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", default=None,
                    help="a second checkout to run in pairs with this one")
    ap.add_argument("--json", default=None, help="also write the summary here")
    args = ap.parse_args(argv)

    sides = [("this", ROOT)]
    if args.against:
        sides.append(("against", Path(args.against).resolve()))
    summary = {}
    bad = 0
    for workload in args.workloads.split(","):
        runs = {label: [] for label, _ in sides}
        for k, seed in enumerate(_seeds(args.seeds)):
            for label, root in (sides if k % 2 == 0 else sides[::-1]):
                result = _run(root, label, workload, seed, args)
                if result is None or not result["correct"] or result["failed"]:
                    bad += 1
                if result is not None:
                    runs[label].append(result)
        per_side = {}
        for label, results in runs.items():
            per_side[label] = {
                name: summarise([r["metrics"][name]["value"] for r in results])
                for name in (results[0]["metrics"] if results else {})}
            _print_summary(f"{workload} ({label})" if args.against else workload,
                           per_side[label])
        if not args.against:
            summary[workload] = per_side["this"]
            print(flush=True)
            continue
        change = {}
        print(f"\n{workload}: this vs against, worse by (bound)")
        for name, s in per_side["this"].items():
            other = per_side["against"].get(name)
            if other is None:
                continue
            spec = declared.get(name, {})
            change[name] = worse_by(s["median"], other["median"],
                                    spec.get("better", "lower"))
            bound = spec.get("bound")
            flag = " OVER" if bound is not None and change[name] > bound else ""
            print(f"  {name:32s} {s['median']:.6g} vs {other['median']:.6g}: "
                  f"{change[name]:+.3f} ({bound}){flag}")
        summary[workload] = dict(per_side, worse_by=change)
        print(flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
