"""Reproduce a projection fault that the timed workloads leave out.

Usage (from the root of a tactica checkout):

    python3 perfbench/known_fault.py [--seed 2]

Writes the ``repdyn-project`` kind of Heisenberg scenario at matrix dimension
6 (a block sum of two 3x3 representations) conjugated by I + 0.2 N(0, 1),
with the four derivation rates a, b, c, d free unit-amplitude sinusoids, and
runs ``tactica repdyn`` on it.  Seed 2 stops at t = 1.65
with exit 3, "projection did not converge".  ``project_to_variety`` takes
undamped minimum-norm Gauss-Newton steps on a rank-deficient Jacobian (rank
83 of 108 at the failing step), and the residual hovers above the 1e-9
tolerance instead of converging: 1.5e-8 raw, 1.4e-9 at best, 7.2e-9 after
the 50-iteration cap.  A timed workload would show the mended run as a
``wall_s`` change, so the case is kept here rather than in a workload.
Prints the CLI's output and exits with its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "tactica" / "cli.py").is_file():
        print(f"error: {root} is not a tactica checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / "known-fault"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rng = random.Random(f"known-fault:{args.seed}")
        doc, _ = workloads.heisenberg_doc(rng, "heisenberg-conjugated", dim=6, conjugate=0.2)
        doc["repdyn"]["control"] = [
            f"sin({rng.uniform(0.5, 2.0)!r}*t + {rng.uniform(0.0, 6.283185)!r})"
            for _ in range(4)]
        scenario = workloads._write(work / "heisenberg_conjugated.yaml", doc)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-m", "tactica.cli", "repdyn",
                               "--scenario", str(scenario), "--out", str(work / "out")],
                              cwd=root, env=env, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):      # another run may still use it
            work.parent.rmdir()
    sys.stdout.write(proc.stdout)
    sys.stdout.write(proc.stderr)
    print(f"exit code {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
