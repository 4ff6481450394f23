"""Command-line front end: one scenario file drives one command family.

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 terminal
insolvable-class error.  Identical inputs produce byte-identical artifacts;
wall-clock timings go to stdout only, never into the artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import exports
from .games import SimulationError, check_indeterminate_invariants
from .prediction import strategic_pipeline, unravel_by_filtering
from .repdyn import (StrandedClassError, integrate_repdyn, integrate_scalar_reference,
                     run_tactical_repdyn, solve_inverse_problem)
from .scenario import COMMANDS, Scenario, ScenarioError, load_scenario
from .tactics import run_synthesized
from .verbalization import (detect_partition, fit_recurrence, verify_recurrence,
                            windows_from_trajectory)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_INSOLVABLE = 3

TOLERANCE_ENV = "TACTICA_TOLERANCE"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tactica",
        description="Simulation and analysis engine for interactive games, "
                    "verbalization, tactics and representative dynamics")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", help="scenario file (YAML key/value tree)")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--dt", type=float, default=None, help="override the run step")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the run report")
    parser.add_argument("--batch", default=None,
                        help="comma-separated scenario files run one after another, "
                             "each into its own subdirectory of --out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.batch is None and args.scenario is None:
        print("error: --scenario or --batch is required", file=sys.stderr)
        return EXIT_VALIDATION
    if args.batch is not None:
        if args.scenario is not None:
            print("validation: --batch: runs its own scenario files; drop --scenario",
                  file=sys.stderr)
            return EXIT_VALIDATION
        paths = [p.strip() for p in args.batch.split(",") if p.strip()]
        if not paths:
            print("validation: --batch: no scenario files given", file=sys.stderr)
            return EXIT_VALIDATION
        dirs = [Path(args.out) / Path(path).stem for path in paths]
        for i, out_dir in enumerate(dirs):      # checked before any entry runs
            if out_dir in dirs[:i]:
                print(f"validation: --batch: {paths[dirs.index(out_dir)]} and {paths[i]} both "
                      f"write into {out_dir}", file=sys.stderr)
                return EXIT_VALIDATION
        return max(run_command(args.command, path, out_dir, args.dt, args.seed)
                   for path, out_dir in zip(paths, dirs))
    return run_command(args.command, args.scenario, Path(args.out), args.dt, args.seed)


def run_command(command: str, scenario_path, out_dir: Path, dt_override: float | None,
                seed: int) -> int:
    started = time.perf_counter()
    try:
        scenario = load_scenario(scenario_path, dt=dt_override)
    except ScenarioError as exc:
        for line in exc.errors:
            print(f"validation: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    if not scenario.supports(command):
        supported = ", ".join(scenario.supported_commands()) or "none"
        gap = scenario.plans["system"].slow_gap if "system" in scenario.plans else ""
        print(f"usage: scenario {scenario.title!r} does not support {command!r}; "
              f"it supports: {supported}" + (f" ({gap})" if gap else ""), file=sys.stderr)
        return EXIT_VALIDATION

    tolerance = scenario.tolerance if scenario.tolerance is not None else 1e-9
    env_tol = os.environ.get(TOLERANCE_ENV)
    if env_tol is not None:
        try:
            tolerance = float(env_tol)
        except ValueError:
            tolerance = math.nan
        if not 0.0 < tolerance < math.inf:      # false for NaN too
            print(f"validation: {TOLERANCE_ENV}: expected a positive finite number, "
                  f"got {env_tol!r}", file=sys.stderr)
            return EXIT_VALIDATION
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"validation: --out: {exc.strerror or exc}: {out_dir}", file=sys.stderr)
        return EXIT_VALIDATION

    report = {
        "schema": 1,
        "command": command,
        "scenario": scenario.title,
        "digest": hashlib.sha256(Path(scenario_path).read_bytes()).hexdigest(),
        "seed": seed,
        "dt": scenario.run.dt,
        "tolerance": tolerance,
        "summaries": {},
        "checks": [],
    }
    try:
        # Numeric faults are reported by the divergence and finiteness checks,
        # not as numpy warnings on stderr.
        with np.errstate(all="ignore"):
            exit_code = _RUNNERS[command](scenario, out_dir, tolerance, report)
        exports.write_json(report, out_dir / "report.json")
    except StrandedClassError as exc:
        print(f"insolvable: {exc}", file=sys.stderr)
        return EXIT_INSOLVABLE
    # Every library complaint is a ValueError (LinAlgError from the projection too);
    # arithmetic faults and math domain errors come from compiled expressions.
    except (ValueError, ArithmeticError, SimulationError) as exc:
        print(f"runtime: {scenario.title}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    duration = time.perf_counter() - started
    checks = report["checks"]
    status = ("insolvable" if exit_code == EXIT_INSOLVABLE else
              "ok" if all(c["passed"] for c in checks) else "checks failed")
    print(f"{command} {scenario.title}: {status} "
          f"({len(checks)} checks, {duration:.3f}s, artifacts in {out_dir})")
    return exit_code


def _add_check(report: dict, name: str, value: float, tol: float) -> None:
    report["checks"].append({
        "name": name,
        "value": float(value),
        "tolerance": float(tol),
        "passed": bool(value <= tol),
    })


# ---------------------------------------------------------------------------
# Command runners
# ---------------------------------------------------------------------------

def _run_simulate(scenario: Scenario, out: Path, tolerance: float, report: dict) -> int:
    system, _, _ = scenario.build_system()
    traj = scenario.simulate()
    chunks = exports.write_trajectory_csv(traj, out / "trajectory.csv")
    exports.write_trajectory_json(chunks, out / "trajectory.json")
    report["summaries"]["final_state"] = traj.phi[-1]
    report["summaries"]["samples"] = len(traj.t)
    if system.invariant_constraints:
        drifts = check_indeterminate_invariants(traj, system.invariant_constraints)
        report["summaries"]["invariants"] = [
            {"label": d.label, "drift": d.drift, "violated": d.drift > tolerance}
            for d in drifts]
        for d in drifts:
            _add_check(report, f"invariant {d.label}", d.drift, tolerance)
    return EXIT_OK


def _run_verbalize(scenario: Scenario, out: Path, tolerance: float, report: dict) -> int:
    traj = scenario.simulate()
    plan = scenario.verbalization_plan()
    records = windows_from_trajectory(traj, plan.grid, plan.omega_functionals,
                                      plan.v_functionals, plan.cells)
    exports.write_trajectory_csv(traj, out / "trajectory.csv")
    exports.write_windows_csv(records, out / "windows.csv")
    exports.write_windows_json(records, out / "windows.json")
    report["summaries"]["windows"] = len(records)
    if plan.cells is not None:
        transitions = detect_partition(traj.t, traj.eps, plan.cells)
        report["summaries"]["transitions"] = transitions
    tol = plan.recurrence_tol
    if plan.recurrence is not None:
        residuals = verify_recurrence(records, plan.recurrence)
        report["summaries"]["recurrence"] = {"family": "declared", "residuals": residuals}
        _add_check(report, "recurrence residual", np.max(residuals), tol)
    if plan.fit_windows is not None:
        k = plan.fit_windows
        fitted = fit_recurrence(records[:k])
        holdout = verify_recurrence(records[k - 1:], fitted)
        report["summaries"]["recurrence"] = {
            "family": "fitted-affine",
            "coeff_omega": fitted.coeff_omega,
            "coeff_v": fitted.coeff_v,
            "intercept": fitted.intercept,
            "rank_deficient": fitted.rank_deficient,
            "fit_residual": fitted.fit_residual,
            "holdout_residuals": holdout,
        }
        _add_check(report, "recurrence holdout residual", np.max(holdout), tol)
    return EXIT_OK


def _run_tactics(scenario: Scenario, out: Path, tolerance: float, report: dict) -> int:
    plan = scenario.tactics_plan()
    runs = run_synthesized(plan.games, plan.rule)
    report["summaries"]["mode"] = plan.mode
    report["summaries"]["games"] = len(runs)
    for j, game_run in enumerate(runs):
        suffix = "" if len(runs) == 1 else f"_{j + 1}"
        exports.write_trajectory_csv(game_run.trajectory, out / f"trajectory{suffix}.csv")
        exports.write_windows_csv(game_run.windows, out / f"windows{suffix}.csv")
        exports.write_comments_jsonl(game_run.comments, out / f"comments{suffix}.jsonl")
        report["summaries"][f"final_theta{suffix or '_1'}"] = game_run.comments[-1].vector
    return EXIT_OK


def _run_predict(scenario: Scenario, out: Path, tolerance: float, report: dict) -> int:
    system, initial, slow = scenario.build_system()
    run = scenario.run
    traj = scenario.simulate()
    plan = scenario.prediction_plan()
    exports.write_trajectory_csv(traj, out / "trajectory.csv")
    if plan.filter is not None:
        result = unravel_by_filtering(traj, plan.filter, plan.family)
        header = ["t"] + [f"u0_{i}" for i in range(result.u0.shape[1])] \
            + [f"residual_{i}" for i in range(result.residual.shape[1])]
        exports.write_float_csv(out / "unravel.csv", header,
                                [traj.t[:, None], result.u0, result.residual])
        summary: dict = {"max_residual": float(np.max(np.abs(result.residual)))}
        if result.estimate is not None:
            summary["family"] = list(result.estimate.family)
            summary["coefficients"] = result.estimate.coefficients
            summary["fit_residual_norm"] = result.estimate.residual_norm
        report["summaries"]["unravel"] = summary
    if plan.assumed_eps is not None:
        prognosis = strategic_pipeline(system, initial, run.t0, run.t1, run.dt,
                                       plan.assumed_eps, plan.horizon, truth=traj, slow=slow)
        exports.write_prognosis_json(prognosis, out / "prognosis.json")
        report["summaries"]["pipeline"] = {
            "horizon": plan.horizon,
            "mean_long_error": float(np.mean(prognosis.long_error)),
            "mean_blended_error": float(np.mean(prognosis.blended_error)),
            "max_blended_error": float(np.max(prognosis.blended_error)),
        }
    return EXIT_OK


def _run_repdyn(scenario: Scenario, out: Path, tolerance: float, report: dict) -> int:
    plan = scenario.repdyn_plan()
    run = scenario.run
    if plan.mode == "integrate":
        result = integrate_repdyn(plan.spec, plan.control, run.t0, run.t1, run.dt, plan.start)
        exports.write_residuals_csv(result.times, result.residuals,
                                    out / "residuals.csv")
        exports.write_json({
            "initial": exports.matrix_tuple_to_json(plan.start, run.t0),
            "final": exports.matrix_tuple_to_json(result.states[-1], float(result.times[-1])),
        }, out / "tuples.json")
        report["summaries"]["max_residual"] = float(np.max(result.residuals))
        _add_check(report, "relation residual", float(np.max(result.residuals)),
                   plan.spec.insolvable_threshold)
        if result.insolvable is not None:
            report["summaries"]["insolvable"] = dataclasses.asdict(result.insolvable)
            print(f"insolvable: integration insolvable in the declared class at "
                  f"t={result.insolvable.time!r}",
                  file=sys.stderr)
            return EXIT_INSOLVABLE
        return EXIT_OK
    result = run_tactical_repdyn(plan.tactical, plan.windows, run.dt)
    exports.write_residuals_csv(result.times, result.residuals, out / "residuals.csv")
    exports.write_comments_jsonl(result.class_stream, out / "comments.jsonl",
                                 delta_label=plan.tactical.delta.label)
    exports.write_windows_csv(result.windows, out / "windows.csv")
    report["summaries"]["transitions"] = [
        {"time": tr.time, "window": tr.window_index, "from": tr.from_class,
         "to": tr.to_class, "residual": tr.residual} for tr in result.transitions]
    report["summaries"]["classes"] = [dataclasses.asdict(c) for c in result.classes]
    report["summaries"]["equivalence"] = (
        "registry-label equality; a conservative stand-in for isomorphism-based "
        "pair equivalence")
    report["summaries"]["max_residual"] = float(np.max(result.residuals))
    _add_check(report, "relation residual", float(np.max(result.residuals)),
               plan.tactical.insolvable_threshold)
    return EXIT_OK


def _run_invert(scenario: Scenario, out: Path, tolerance: float, report: dict) -> int:
    plan = scenario.invert_plan()
    run = scenario.run
    construction = solve_inverse_problem(
        plan.rhs, plan.x0, control_dim=plan.control_dim, matrix_dim=plan.matrix_dim,
        designated_slot=plan.designated_slot, lift_constants=plan.lift_constants,
        tolerance=tolerance)
    result = integrate_repdyn(construction.spec, plan.u_schedule, run.t0, run.t1, run.dt,
                              construction.start)
    times, reference = integrate_scalar_reference(plan.rhs, plan.x0, plan.u_schedule,
                                                  run.t0, run.t1, run.dt,
                                                  control_dim=plan.control_dim)
    slot = construction.designated_slot
    slots = result.states[:, :, slot, slot].real
    deviation = float(np.max(np.abs(slots - reference)))
    header = ["t"] + [f"slot_{i}" for i in range(len(plan.rhs))] \
        + [f"reference_{i}" for i in range(len(plan.rhs))]
    exports.write_float_csv(out / "slot_trace.csv", header, [times[:, None], slots, reference])
    exports.write_residuals_csv(result.times, result.residuals, out / "residuals.csv")
    report["summaries"]["symbolic_match"] = construction.symbolic_match
    report["summaries"]["control_names"] = list(construction.control_names)
    report["summaries"]["slot_vs_scalar_deviation"] = deviation
    _add_check(report, "slot vs scalar deviation", deviation, 1e-9)
    if result.insolvable is not None:
        print("insolvable: integration insolvable during the inverse verification run",
              file=sys.stderr)
        return EXIT_INSOLVABLE
    return EXIT_OK


_RUNNERS = {
    "simulate": _run_simulate,
    "verbalize": _run_verbalize,
    "tactics": _run_tactics,
    "predict": _run_predict,
    "repdyn": _run_repdyn,
    "invert": _run_invert,
}


if __name__ == "__main__":
    sys.exit(main())
