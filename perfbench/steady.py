"""Steadiness of the benchmark: run each workload N times and compare spreads with the bounds.

Usage (from the root of a tactica checkout):

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--save FILE] [--against FILE]

Each run uses its own seed (seed0, seed0+1, ...) and the ``run_seconds`` of
BENCHMARK.json; the workloads take turns, one run each.  For every end-to-end metric the command prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``), the
spread (q3 - q1) / median and that spread as a share of the metric's bound.
``--against`` compares the medians with a set saved earlier by ``--save``, in
both orders: it prints how much worse one set's median is than the other's,
as a share of the better one, and marks a gap beyond the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _worse(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    names = [w["name"] for w in spec["workloads"]]
    results = {workload: [] for workload in names}
    # Workloads take turns, so a slow phase of the machine lasting minutes
    # falls on a few runs of every workload rather than on all runs of one.
    for i in range(args.runs):
        for workload in names:
            results[workload].append(run_once(workload, args.seed0 + i, spec["run_seconds"]))
            print(f"  {workload} seed {args.seed0 + i}: "
                  + ", ".join(f"{k}={v['value']:.5g}"
                              for k, v in results[workload][-1]["metrics"].items()),
                  flush=True)
    saved = {}
    for workload in names:
        runs = results[workload]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {args.runs} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        saved[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            line = (f"  {name:12s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                    f"spread {spread:.4f} = {spread / bound['bound']:.2f} of bound "
                    f"{bound['bound']}")
            before = earlier.get(workload, {}).get(name)
            if before is not None:
                worse = max(_worse(before, median, bound["better"]),
                            _worse(median, before, bound["better"]))
                line += (f"; earlier median {before:.6g}, one set worse than the other by "
                         f"{worse:.4f}{'  BEYOND BOUND' if worse > bound['bound'] else ''}")
            print(line, flush=True)
            saved[workload][name] = median
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(saved, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
