"""tactica benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a tactica checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition ("round") of the workload runs in a fresh interpreter, which
imports ``tactica.cli`` and issues the workload's CLI invocations one after
another, so import, YAML parsing and expression compilation are paid as a CLI
user pays them.  Rounds repeat until ``--seconds`` have been measured.  Every
round's artifacts are checked: the first round against closed forms and
method properties (``checks.py``), later rounds for byte-identity with the
first, since tactica's artifacts are deterministic.

Times are given at a fixed reference speed.  The host's speed moves by up to
half again on a scale of seconds, so a round's wall time is scaled by how
fast the CPU ran during it: the child times a fixed reference loop every
0.1 s (``child.py``), and a round's factor is the mean of ``REFERENCE_S``
over those samples.  Raw wall times are printed on standard error.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (medians over rounds); with ``--trace 1`` the run is made of
pairs of one untraced and one traced round, and the metrics are the per-layer
ones (medians over the traced rounds) and the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
# A run must end within 180 s; stop starting rounds well before that.
RUN_LIMIT_S = 170.0
# The reference loop's duration at the reference speed (close to this host's
# typical figure): a time t measured while the loop took r is reported as
# t * REFERENCE_S / r.
REFERENCE_S = 1.0e-3


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Bench:
    def __init__(self, root: Path, ops: list[workloads.Op], work: Path, deadline: float):
        self.root = root
        self.ops = ops
        self.work = work
        self.deadline = deadline
        self.baseline: dict[str, str] = {}       # op name -> artifact digest of round 1
        self.bad: set[str] = set()              # ops that failed their checks in round 1
        self.steps = 0
        self.artifact_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.missing: set[str] = set()           # wrapped functions the program lacks

    def round(self, trace: bool) -> tuple[float, dict]:
        """Run one repetition; return its wall time at the reference speed and
        the child's result, with ``setup_s`` scaled the same way."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        for op in self.ops:
            op.out.mkdir(parents=True, exist_ok=True)
        plan_path = self.work / "plan.json"
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        plan_path.write_text(json.dumps({
            "src": str(self.root / "src"),
            "trace": trace,
            "result": str(result_path),
            "invocations": [op.argv for op in self.ops],
        }))
        with open(self.work / "child.out", "w") as out_fh, \
                open(self.work / "child.err", "w") as err_fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(plan_path)],
                                    cwd=self.root, stdout=out_fh, stderr=err_fh)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise SystemExit("error: a round did not finish within the run's time limit")
            wall = time.perf_counter() - start
        if proc.returncode != 0 or not result_path.exists():
            sys.stderr.write((self.work / "child.err").read_text()[-4000:])
            raise SystemExit(f"error: the workload process exited with {proc.returncode}")
        result = json.loads(result_path.read_text())
        new_missing = set(result["missing"]) - self.missing
        if new_missing:
            self.missing |= new_missing
            print("note: not found, so not wrapped: " + ", ".join(sorted(new_missing)),
                  file=sys.stderr)
        self._check(result["codes"])
        scale = statistics.mean(REFERENCE_S / r for r in result["reference_s"])
        result["raw_wall_s"] = wall
        if "setup_s" in result:
            result["setup_s"] *= scale
        return wall * scale, result

    def _check(self, codes: list[int]) -> None:
        first = not self.baseline
        for op, code in zip(self.ops, codes):
            self.attempted += 1
            if first:
                problems = checks.failures(checks.run_checks(op, code))
                if problems:
                    self.bad.add(op.name)
                    print(f"check failed: {op.name}: {'; '.join(problems)}", file=sys.stderr)
                self.baseline[op.name] = digest(op.out)
                self.steps += checks.steps_recorded(op)
                self.artifact_bytes += sum(p.stat().st_size for p in op.out.rglob("*")
                                           if p.is_file())
                ok = not problems
            else:
                ok = (op.name not in self.bad and code == op.expect_exit
                      and digest(op.out) == self.baseline[op.name])
                if not ok:
                    print(f"check failed: {op.name}: exit {code} or artifacts differ "
                          "from the first round", file=sys.stderr)
            self.failed += 0 if ok else 1


def measure(bench: Bench, seconds: float, unit) -> list:
    """Call ``unit(i)`` for i = 0, 1, ... until ``seconds`` are measured.

    A unit is started only when it is expected to end nearer the target than
    stopping now would, so every run attempts whole units.
    """
    results, durations = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        results.append(unit(len(results)))
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        typical = statistics.mean(durations)
        if (elapsed + typical / 2 >= seconds
                or time.monotonic() + 2 * typical > bench.deadline):
            return results


def untraced_round(bench: Bench):
    def unit(i):
        wall, result = bench.round(trace=False)
        print(f"round {i + 1}: wall {wall:.4f} s at reference speed "
              f"({result['raw_wall_s']:.4f} s measured), setup {result['setup_s']:.4f} s, "
              f"peak rss {result['peak_rss_mb']:.1f} MB", file=sys.stderr)
        return wall, result
    return unit


def traced_pair(bench: Bench):
    """One untraced and one traced round; the order alternates from pair to pair,
    so that a drift in the machine's speed does not favour either side."""
    def unit(i):
        order = (False, True) if i % 2 == 0 else (True, False)
        rounds = {trace: bench.round(trace) for trace in order}
        (untraced, _), (traced, _) = rounds[False], rounds[True]
        print(f"pair {i + 1} at reference speed: untraced {untraced:.4f} s, "
              f"traced {traced:.4f} s",
              file=sys.stderr)
        return rounds
    return unit


def layer_metrics(bench: Bench, pairs) -> dict:
    """Median over the traced rounds of each per-layer metric, and the tracing
    overhead as the median of traced minus untraced wall time within a pair."""
    per_round = [tracer.per_layer(p[True][1]["trace"], 1e3 * p[True][1]["import_s"],
                                  bench.artifact_bytes) for p in pairs]
    metrics = {name: (statistics.median(m[name][0] for m in per_round), unit)
               for name, (_, unit) in per_round[0].items()
               if all(name in m for m in per_round)}
    metrics["trace.overhead_s"] = (
        statistics.median(p[True][0] - p[False][0] for p in pairs), "s")
    return metrics


def end_to_end(bench: Bench, rounds) -> dict:
    walls = [w for w, _ in rounds]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for _, r in rounds), "unit": "s"},
        "steps_per_s": {"value": statistics.median(bench.steps / w for w in walls),
                        "unit": "steps/s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for _, r in rounds),
                        "unit": "MB"},
    }


def _measures_what_it_claims(workload: str, metrics: dict) -> bool:
    """repdyn-project exists to time projection: most of its steps must project."""
    if workload != "repdyn-project":
        return True
    if "repdyn.projections_per_step" not in metrics:
        print("warning: projections per step not traced; cannot confirm that most "
              "repdyn-project steps project", file=sys.stderr)
        return True
    share = metrics["repdyn.projections_per_step"][0]
    if share <= 0.5:
        print(f"error: only {share:.3f} projections per step on repdyn-project",
              file=sys.stderr)
    return share > 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "tactica" / "cli.py").is_file() or not (root / "scenarios").is_dir():
        print(f"error: {root} is not a tactica checkout (src/tactica and scenarios/ needed)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench-work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, root, work)
        from tactica.scenario import ScenarioError, load_scenario
        for op in ops:
            try:
                load_scenario(op.scenario)
            except ScenarioError as exc:
                print(f"error: input {op.scenario.name} does not load: {exc}", file=sys.stderr)
                return 2
        compileall.compile_dir(str(root / "src"), quiet=1)

        bench = Bench(root, ops, work, deadline)
        if args.trace:
            metrics = layer_metrics(bench, measure(bench, args.seconds, traced_pair(bench)))
            purpose_met = _measures_what_it_claims(args.workload, metrics)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        else:
            metrics = end_to_end(bench, measure(bench, args.seconds, untraced_round(bench)))
            purpose_met = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):      # another run may still use it
            work.parent.rmdir()

    print(json.dumps({"correct": bench.failed == 0 and purpose_met,
                      "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
