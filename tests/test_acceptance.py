"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configured elsewhere.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import weyl_value
from tactica.algebra import WeylSymbol, WeylTerm, stack_tuple
from tactica.cli import EXIT_INSOLVABLE, main
from tactica.games import coalition_simulate, replay_with_recorded_eps, simulate
from tactica.prediction import unravel_by_filtering
from tactica.repdyn import (integrate_repdyn, integrate_scalar_reference,
                            run_tactical_repdyn, solve_inverse_problem)
from tactica.scenario import load_scenario
from tactica.tactics import (CommentedGame, SynthesisRule, commented_as_synthesis,
                             interaction_as_synthesis, run_synthesized)
from tactica.verbalization import (WindowFunctional, WindowRecord, detect_partition,
                                   fit_recurrence, verify_recurrence)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def run_scenario(name):
    scenario = load_scenario(SCENARIOS / name)
    system, initial, slow = scenario.build_system()
    run = scenario.run
    if system.coalitions:
        traj = coalition_simulate(system, initial, run.t0, run.t1, run.dt, slow=slow)
    else:
        traj = simulate(system, initial, run.t0, run.t1, run.dt, slow=slow)
    return scenario, system, traj


def test_criterion_01_epsilon_round_trip():
    names = ["linear_decay.yaml", "logistic_sin.yaml", "two_player.yaml",
             "rotation_invariant.yaml", "coalition_pair.yaml"]
    with criterion(1, "hidden-parameter replay reproduces 5 scripted runs "
                      "within 1e-12 in under 5 s"):
        started = time.perf_counter()
        for name in names:
            scenario, system, traj = run_scenario(name)
            run = scenario.run
            replayed = replay_with_recorded_eps(
                system, traj, run.t0, run.t1, run.dt,
                use_coalitions=bool(system.coalitions))
            assert np.max(np.abs(replayed.phi - traj.phi)) <= 1e-12, name
        assert time.perf_counter() - started < 5.0


def test_criterion_02_integrator_order():
    with criterion(2, "linear decay shows 4th-order self-convergence "
                      "(ratio 16 within a factor of 2)"):
        scenario = load_scenario(SCENARIOS / "linear_decay.yaml")
        system, initial, _ = scenario.build_system()
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            traj = simulate(system, initial, 0.0, 1.0, dt, record_tape=False)
            errors.append(abs(traj.phi[-1, 0] - math.exp(-1.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 8.0 <= coarse / fine <= 32.0


def test_criterion_03_verbalization_partition():
    with criterion(3, "sine-driven partition transitions within one sample "
                      "step of k*pi; constant run yields none"):
        scenario, _, traj = run_scenario("sine_partition.yaml")
        cells = scenario.verbalization_plan().cells
        transitions = detect_partition(traj.t, traj.eps, cells)
        assert len(transitions) == 3
        for found, expected in zip(transitions, (0.0, math.pi, 2.0 * math.pi)):
            assert abs(found - expected) <= scenario.run.dt
        scenario2, _, traj2 = run_scenario("constant_eps.yaml")
        cells2 = scenario2.verbalization_plan().cells
        assert detect_partition(traj2.t, traj2.eps, cells2) == []


def test_criterion_04_recurrence_identification():
    with criterion(4, "affine recurrence recovered within 1e-9; holdout "
                      "residual below 1e-6 on 4 windows"):
        windows = [WindowRecord(0, 0.0, 1.0, np.array([0.3]), np.array([0.0]))]
        omega = 0.3
        for n in range(1, 13):
            v = math.sin(0.7 * n)
            omega = 2.0 * omega + v
            windows.append(WindowRecord(n, float(n), float(n + 1),
                                        np.array([omega]), np.array([v])))
        fitted = fit_recurrence(windows[:9])
        assert abs(fitted.coeff_omega[0, 0] - 2.0) <= 1e-9
        assert abs(fitted.coeff_v[0, 0] - 1.0) <= 1e-9
        assert abs(fitted.intercept[0]) <= 1e-9
        holdout = verify_recurrence(windows[8:], fitted)
        assert len(holdout) == 4
        assert np.max(holdout) <= 1e-6


def _coupled_pair(grid):
    from tactica.games import InteractiveSystem
    from conftest import make_player

    def trivial():
        return InteractiveSystem(
            dim=1, dynamics=lambda t, phi, u, lam: [0.0],
            players=(make_player(lambda t: np.zeros(1)),))

    def game(theta0):
        return CommentedGame(
            system=trivial(), initial=np.zeros(1), dt=0.05,
            omega_functionals=(WindowFunctional("mean", "state"),),
            v_functionals=(WindowFunctional("mean", "u0"),),
            theta0=np.array([theta0]), window_grid=grid)

    return game(1.0), game(2.0)


def test_criterion_05_tactics_degenerations():
    with criterion(5, "interaction and synthesis degenerations are exact; "
                      "coupled comments match the matrix power within 1e-12"):
        grid = tuple(float(k) for k in range(21))
        a1, c12, a2, c21 = 0.9, 0.1, 0.8, 0.05
        rule1 = lambda th, om, v: a1 * th  # noqa: E731
        rule2 = lambda th, om, v: a2 * th  # noqa: E731
        zero = lambda own, other, om, v: np.zeros_like(own)  # noqa: E731
        g1, g2 = _coupled_pair(grid)

        # zero interaction == uncoupled, stream-wise exact
        zero_runs = run_synthesized([g1, g2], interaction_as_synthesis(
            rule1, rule2, zero, zero))
        solo1 = run_synthesized([g1], commented_as_synthesis(rule1))[0]
        solo2 = run_synthesized([g2], commented_as_synthesis(rule2))[0]
        assert np.array_equal(zero_runs[0].theta_values, solo1.theta_values)
        assert np.array_equal(zero_runs[1].theta_values, solo2.theta_values)

        # identity synthesis == uncoupled, stream-wise exact
        synthesis = SynthesisRule(
            forms=(lambda th, om, v: rule1(th[0], om[0], v[0]),
                   lambda th, om, v: rule2(th[1], om[1], v[1])),
            masks=(frozenset({0}), frozenset({1})))
        synth_runs = run_synthesized([g1, g2], synthesis)
        assert np.array_equal(synth_runs[0].theta_values, solo1.theta_values)
        assert np.array_equal(synth_runs[1].theta_values, solo2.theta_values)

        # linear coupled comments vs the matrix-power oracle
        term12 = lambda own, other, om, v: c12 * other  # noqa: E731
        term21 = lambda own, other, om, v: c21 * other  # noqa: E731
        runs = run_synthesized([g1, g2], interaction_as_synthesis(
            rule1, rule2, term12, term21))
        matrix = np.array([[a1, c12], [c21, a2]])
        theta = np.array([1.0, 2.0])
        for n in range(20):
            theta = matrix @ theta
            assert abs(runs[0].comments[n].vector[0] - theta[0]) <= 1e-12
            assert abs(runs[1].comments[n].vector[0] - theta[1]) <= 1e-12


def test_criterion_06_weyl_evaluation():
    with criterion(6, "Weyl averaging is permutation-exact on 100 random "
                      "monomials and collapses on diagonals within 1e-12"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            X = stack_tuple(tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                                  for _ in range(3)))
            degree = int(rng.integers(1, 4))
            word = tuple(int(i) for i in rng.integers(0, 3, size=degree))
            base = weyl_value(WeylSymbol((WeylTerm(1.0, word),)), X)
            permuted = tuple(int(i) for i in rng.permutation(word))
            other = weyl_value(WeylSymbol((WeylTerm(1.0, permuted),)), X)
            assert np.array_equal(base, other)

        diag = stack_tuple(tuple(np.diag(rng.normal(size=3)).astype(complex)
                                 for _ in range(3)))
        sym = WeylSymbol((WeylTerm(0.4, (0, 1, 2)), WeylTerm(-1.2, (1, 1))))
        values = [np.diag(m).real for m in diag]
        pointwise = np.diag(0.4 * values[0] * values[1] * values[2]
                            - 1.2 * values[1] ** 2)
        assert np.max(np.abs(weyl_value(sym, diag) - pointwise)) <= 1e-12


def test_criterion_07_representation_conservation():
    with criterion(7, "Heisenberg run keeps the relation residual below 1e-8 "
                      "over [0, 10] in under 10 s"):
        scenario = load_scenario(SCENARIOS / "repdyn_heisenberg.yaml")
        plan = scenario.repdyn_plan()
        started = time.perf_counter()
        result = integrate_repdyn(plan.spec, plan.control, 0.0, 10.0, 1e-3, plan.start)
        elapsed = time.perf_counter() - started
        assert result.insolvable is None
        assert np.max(result.residuals) < 1e-8
        assert elapsed < 10.0


def test_criterion_08_inverse_problem_fidelity():
    with criterion(8, "inverse constructions track direct scalar integration "
                      "within 1e-9 (plain and constant-lift)"):
        for name in ("invert_logistic.yaml", "invert_lifted.yaml"):
            scenario = load_scenario(SCENARIOS / name)
            plan = scenario.invert_plan()
            construction = solve_inverse_problem(
                plan.rhs, plan.x0, control_dim=plan.control_dim,
                matrix_dim=plan.matrix_dim, lift_constants=plan.lift_constants)
            assert construction.symbolic_match
            schedule = construction.control_schedule(plan.u_schedule)
            run = scenario.run
            result = integrate_repdyn(construction.spec, schedule, run.t0, run.t1,
                                      run.dt, construction.start)
            _, reference = integrate_scalar_reference(
                plan.rhs, plan.x0, plan.u_schedule, run.t0, run.t1, run.dt,
                control_dim=plan.control_dim)
            slots = result.states[:, 0, 0, 0].real
            assert np.max(np.abs(slots - reference[:, 0])) <= 1e-9, name


def test_criterion_09_dialectical_class_transition(tmp_path):
    with criterion(9, "commutativity-breaking run transitions exactly once to "
                      "the Heisenberg class; the stranded variant exits 3"):
        scenario = load_scenario(SCENARIOS / "repdyn_transition.yaml")
        plan = scenario.repdyn_plan()
        result = run_tactical_repdyn(plan.tactical, plan.windows, scenario.run.dt)
        assert len(result.transitions) == 1
        event = result.transitions[0]
        assert (event.from_class, event.to_class) == ("commutative", "heisenberg")
        after = result.residuals[np.searchsorted(result.times, event.time):]
        assert np.max(after) < 1e-8

        code = main(["repdyn", "--scenario", str(SCENARIOS / "repdyn_stranded.yaml"),
                     "--out", str(tmp_path / "stranded")])
        assert code == EXIT_INSOLVABLE


def test_criterion_10_filtering_unravel():
    with criterion(10, "low-pass unravel recovers the pure control within 1e-3 "
                       "and the planted coefficient 0.3 within 5e-2"):
        scenario, _, traj = run_scenario("filter_unravel.yaml")
        plan = scenario.prediction_plan()
        result = unravel_by_filtering(traj, plan.filter, plan.family)
        n = len(traj.t)
        interior = slice(n // 10, -n // 10)
        assert np.max(np.abs(result.u0[interior, 0] - 1.0)) < 1e-3
        assert abs(result.estimate.coefficients[0, 0] - 0.3) <= 5e-2


COMMANDS = {
    "linear_decay.yaml": "simulate",
    "logistic_sin.yaml": "simulate",
    "two_player.yaml": "simulate",
    "rotation_invariant.yaml": "simulate",
    "coalition_pair.yaml": "simulate",
    "sine_partition.yaml": "verbalize",
    "constant_eps.yaml": "verbalize",
    "verbalize_fit.yaml": "verbalize",
    "tactics_coupled.yaml": "tactics",
    "tactics_commented.yaml": "tactics",
    "tactics_synthesis.yaml": "tactics",
    "filter_unravel.yaml": "predict",
    "repdyn_heisenberg.yaml": "repdyn",
    "repdyn_transition.yaml": "repdyn",
    "repdyn_stranded.yaml": "repdyn",
    "invert_logistic.yaml": "invert",
    "invert_lifted.yaml": "invert",
}


def test_criterion_11_reproducibility(tmp_path):
    with criterion(11, "repeated CLI runs on every acceptance scenario produce "
                       "byte-identical artifacts"):
        names = sorted(p.name for p in SCENARIOS.glob("*.yaml"))
        assert set(names) == set(COMMANDS), "command map must cover all scenarios"
        for name in names:
            command = COMMANDS[name]
            dirs = []
            codes = []
            for attempt in ("first", "second"):
                out = tmp_path / name.replace(".yaml", "") / attempt
                codes.append(main([command, "--scenario", str(SCENARIOS / name),
                                   "--out", str(out)]))
                dirs.append(out)
            assert codes[0] == codes[1], name
            first = sorted(p.name for p in dirs[0].glob("*"))
            second = sorted(p.name for p in dirs[1].glob("*"))
            assert first == second, name
            for artifact in first:
                assert (dirs[0] / artifact).read_bytes() == \
                    (dirs[1] / artifact).read_bytes(), f"{name}:{artifact}"
