import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_player
from tactica.expr import compile_expression
from tactica.games import ConfigurationError, InteractiveSystem, SimulationError, simulate
from tactica.verbalization import (REFINE_ITERATIONS, Cell, CellComplex, CellCondition,
                                   DialogueSpec, DomainError, IntentionField, RecurrenceMap,
                                   WindowFunctional, WindowRecord, detect_partition,
                                   fit_recurrence, simulate_dialogue, verify_recurrence,
                                   windows_from_trajectory)


def check_windows_tile(windows):
    """Raise unless each window starts where the one before it ends."""
    for a, b in zip(windows, windows[1:]):
        if a.t_end != b.t_start:
            raise ConfigurationError(
                f"windows {a.index} and {b.index} do not abut: {a.t_end!r} vs {b.t_start!r}")


def sign_complex(box=((-2.0, 2.0),)):
    cells = (
        Cell("negative", (CellCondition("eps[0]", "<"),)),
        Cell("zero", (CellCondition("eps[0]", "<="), CellCondition("eps[0]", ">="))),
        Cell("positive", (CellCondition("eps[0]", ">"),)),
    )
    return CellComplex(dim=1, cells=cells, box=box)


def quadrant_complex():
    cells = (
        Cell("pp", (CellCondition("eps[0]", ">="), CellCondition("eps[1]", ">="))),
        Cell("np", (CellCondition("0 - eps[0]", ">"), CellCondition("eps[1]", ">="))),
        Cell("nn", (CellCondition("0 - eps[0]", ">"), CellCondition("0 - eps[1]", ">"))),
        Cell("pn", (CellCondition("eps[0]", ">="), CellCondition("0 - eps[1]", ">"))),
    )
    return CellComplex(dim=2, cells=cells, box=((-2.0, 2.0), (-2.0, 2.0)))


def eps_driven_system(eps_of_t):
    return InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: [0.0],
        players=(make_player(
            lambda t: np.zeros(1),
            eps_form=lambda t, u0, phi: np.array([eps_of_t(t)]), eps_dim=1),))


# ---------------------------------------------------------------------------
# Partition detection
# ---------------------------------------------------------------------------

def test_sine_transitions_near_multiples_of_pi():
    traj = simulate(eps_driven_system(math.sin), [0.0], 0.0, 7.0, 1e-3,
                    record_tape=False)
    transitions = detect_partition(traj.t, traj.eps, sign_complex())
    assert len(transitions) == 3
    for found, expected in zip(transitions, (0.0, math.pi, 2 * math.pi)):
        assert abs(found - expected) <= 1e-3


def test_constant_trace_has_no_transitions():
    traj = simulate(eps_driven_system(lambda t: 0.5), [0.0], 0.0, 4.0, 1e-2,
                    record_tape=False)
    assert detect_partition(traj.t, traj.eps, sign_complex()) == []


def test_quadrant_crossings_match_analytic_times():
    dt = 1e-3
    times = np.arange(0, 7.0 + dt / 2, dt)
    eps = np.column_stack([np.cos(times), np.sin(times)])
    transitions = detect_partition(times, eps, quadrant_complex())
    expected = [k * math.pi / 2 for k in range(1, 5)]
    assert len(transitions) == len(expected)
    for found, target in zip(transitions, expected):
        assert abs(found - target) <= dt


def test_sample_outside_box_raises_domain_error():
    times = np.array([0.0, 1.0])
    eps = np.array([[0.0], [5.0]])
    with pytest.raises(DomainError, match="t=1.0"):
        detect_partition(times, eps, sign_complex())


def test_transitions_are_bracketed_by_label_changes():
    traj = simulate(eps_driven_system(lambda t: math.sin(3 * t)), [0.0], 0.0, 5.0,
                    2e-3, record_tape=False)
    complex_ = sign_complex()
    transitions = detect_partition(traj.t, traj.eps, complex_)
    labels = [complex_.locate(traj.eps[k]) for k in range(len(traj.t))]
    changes = [k for k in range(len(labels) - 1) if labels[k] != labels[k + 1]]
    assert len(transitions) == len(changes)
    for t_star, k in zip(transitions, changes):
        assert traj.t[k] <= t_star <= traj.t[k + 1]


def test_overlapping_cells_are_rejected():
    cells = (Cell("a", (CellCondition("eps[0]", "<="),)),
             Cell("b", (CellCondition("eps[0]", ">="),)))
    complex_ = CellComplex(dim=1, cells=cells, box=((-1.0, 1.0),))
    with pytest.raises(ConfigurationError, match="2 cells"):
        complex_.locate([0.0])
    assert complex_.coverage_errors(points_per_axis=3)


# A reference for detect_partition: every sample located on its own, each cell's
# conditions evaluated through their own compiled expressions.
_REFERENCE_OPS = {"<": lambda x: x < 0.0, "<=": lambda x: x <= 0.0,
                  ">": lambda x: x > 0.0, ">=": lambda x: x >= 0.0}


@lru_cache(maxsize=None)
def _reference_condition(expression: str, dim: int):
    return compile_expression(expression, vectors={"eps": dim})


def _reference_contains(complex_: CellComplex, cell: Cell, eps) -> bool:
    return all(_REFERENCE_OPS[c.op](_reference_condition(c.expression, complex_.dim)(eps))
               for c in cell.conditions)


def reference_locate(complex_: CellComplex, eps, time=None) -> str:
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    at = "" if time is None else f" at t={float(time)!r}"
    for k, (lo, hi) in enumerate(complex_.box):
        if not lo <= eps[k] <= hi:
            raise DomainError(
                f"parameter sample {eps.tolist()} outside the admissible box{at}")
    matches = [cell.label for cell in complex_.cells if _reference_contains(complex_, cell, eps)]
    if len(matches) != 1:
        raise ConfigurationError(f"sample {eps.tolist()} lies in {len(matches)} cells{at}; "
                                 "cells must be disjoint and cover the box")
    return matches[0]


def reference_detect_partition(times, eps_values, complex_: CellComplex) -> list[float]:
    times = np.asarray(times, dtype=float)
    eps_values = np.atleast_2d(np.asarray(eps_values, dtype=float))
    labels = [reference_locate(complex_, eps_values[k], times[k]) for k in range(len(times))]
    transitions = []
    for k in range(len(times) - 1):
        if labels[k] == labels[k + 1]:
            continue
        left, right = 0.0, 1.0
        a, b = eps_values[k], eps_values[k + 1]
        for _ in range(REFINE_ITERATIONS):
            mid = 0.5 * (left + right)
            if reference_locate(complex_, a + mid * (b - a)) == labels[k]:
                left = mid
            else:
                right = mid
        s = 0.5 * (left + right)
        transitions.append(float(times[k] + s * (times[k + 1] - times[k])))
    return transitions


_LEVELS = st.sampled_from(["0", "0.5", "1", "1.5"])


@st.composite
def conditions(draw, dim: int):
    i, level = draw(st.integers(0, dim - 1)), draw(_LEVELS)
    expression = draw(st.sampled_from([f"eps[{i}] - {level}", f"-1 * eps[{i}] + {level}",
                                       f"tanh(eps[{i}]) - {level}",
                                       f"eps[0] * eps[{dim - 1}] - {level}"]))
    return CellCondition(expression, draw(st.sampled_from(sorted(_REFERENCE_OPS))))


@st.composite
def cell_complexes(draw):
    """Either bands between thresholds on eps[0], which cover the box once, or random
    cells, which may overlap or leave gaps."""
    dim = draw(st.integers(1, 2))
    box = tuple((lo, lo + width) for lo, width in
                draw(st.lists(st.tuples(st.sampled_from([-2.0, -1.0, 0.0]),
                                        st.sampled_from([0.5, 2.0, 3.0])),
                              min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        levels = sorted(set(draw(st.lists(_LEVELS, min_size=1, max_size=3))), key=float)
        bounds = [None, *levels, None]
        cells = tuple(Cell(f"band{j}", tuple(
            CellCondition(f"eps[0] - {level}", op)
            for level, op in ((lo, ">="), (hi, "<")) if level is not None))
            for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])))
    else:
        cells = tuple(Cell(f"c{j}", tuple(draw(st.lists(conditions(dim), min_size=1,
                                                        max_size=3))))
                      for j in range(draw(st.integers(1, 4))))
    return CellComplex(dim=dim, cells=cells, box=box)


@st.composite
def traces(draw, complex_: CellComplex):
    """Samples inside the box, or, for half the traces, mixed with the box's edges and with
    NaN, infinite and outside-the-box samples."""
    n, mixed = draw(st.integers(1, 12)), draw(st.booleans())
    columns = []
    for lo, hi in complex_.box:
        inside = st.floats(lo, hi, allow_nan=False)
        special = st.sampled_from([math.nan, math.inf, -math.inf, lo - 0.25, hi + 1e-12,
                                   lo, hi])
        sample = st.one_of(*[inside] * 5, special) if mixed else inside
        columns.append(draw(st.lists(sample, min_size=n, max_size=n)))
    times = np.cumsum(draw(st.lists(st.sampled_from([0.1, 0.25, 1.0]), min_size=n,
                                    max_size=n)))
    return times, np.array(columns).T.reshape(n, complex_.dim)


def _outcome(run):
    try:
        return "transitions", run()
    except Exception as exc:  # noqa: BLE001 - the exception itself is the outcome compared
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_detect_partition_matches_locating_each_sample(data):
    complex_ = data.draw(cell_complexes())
    times, eps = data.draw(traces(complex_))
    assert (_outcome(lambda: detect_partition(times, eps, complex_))
            == _outcome(lambda: reference_detect_partition(times, eps, complex_)))
    for k in range(len(times)):
        assert (_outcome(lambda: complex_.locate(eps[k], times[k]))
                == _outcome(lambda: reference_locate(complex_, eps[k], times[k])))
    hits = [f"point {p} lies in {n} cells" for p, n in _reference_coverage(complex_)]
    assert complex_.coverage_errors(points_per_axis=4) == hits


def test_a_trace_narrower_than_the_box_fails_as_locate_does():
    times, eps = np.array([0.0, 1.0]), np.array([[0.5], [-0.5]])
    assert (_outcome(lambda: detect_partition(times, eps, quadrant_complex()))
            == _outcome(lambda: reference_detect_partition(times, eps, quadrant_complex()))
            == (IndexError, "index 1 is out of bounds for axis 0 with size 1"))


def _reference_coverage(complex_: CellComplex):
    axes = [np.linspace(lo, hi, 4) for lo, hi in complex_.box]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    for point in grid:
        hits = sum(_reference_contains(complex_, cell, point) for cell in complex_.cells)
        if hits != 1:
            yield point.tolist(), hits


# ---------------------------------------------------------------------------
# Window records and functionals
# ---------------------------------------------------------------------------

def test_window_mean_of_constant_is_exact():
    traj = simulate(eps_driven_system(lambda t: 0.75), [0.0], 0.0, 3.0, 1e-2,
                    record_tape=False)
    records = windows_from_trajectory(traj, [0.0, 1.0, 2.0, 3.0],
                                      [WindowFunctional("mean", "eps")],
                                      [WindowFunctional("mean", "u0")])
    for rec in records:
        assert rec.omega[0] == 0.75
    check_windows_tile(records)


def test_window_mean_of_linear_ramp():
    traj = simulate(eps_driven_system(lambda t: t), [0.0], 0.0, 2.0, 1e-3,
                    record_tape=False)
    records = windows_from_trajectory(traj, [0.0, 1.0, 2.0],
                                      [WindowFunctional("mean", "eps")],
                                      [WindowFunctional("mean", "u0")])
    assert records[0].omega[0] == pytest.approx(0.5, abs=1e-12)
    assert records[1].omega[0] == pytest.approx(1.5, abs=1e-12)


def test_window_grid_must_lie_on_samples():
    traj = simulate(eps_driven_system(lambda t: t), [0.0], 0.0, 1.0, 0.01,
                    record_tape=False)
    with pytest.raises(ConfigurationError):
        windows_from_trajectory(traj, [0.0, 0.505, 1.0],
                                [WindowFunctional("mean", "eps")],
                                [WindowFunctional("mean", "u0")])


def test_windows_tile_detects_gaps():
    a = WindowRecord(1, 0.0, 1.0, np.zeros(1), np.zeros(1))
    b = WindowRecord(2, 1.5, 2.0, np.zeros(1), np.zeros(1))
    with pytest.raises(ConfigurationError):
        check_windows_tile([a, b])


def test_functional_kinds():
    t = np.linspace(0.0, 1.0, 101)
    data = t.reshape(-1, 1)
    assert WindowFunctional("integral", "eps").evaluate(t, data)[0] == pytest.approx(0.5)
    assert WindowFunctional("endpoint", "eps").evaluate(t, data)[0] == 1.0
    assert WindowFunctional("second_moment", "eps").evaluate(t, data)[0] == \
        pytest.approx(1.0 / 3.0, abs=1e-4)


# ---------------------------------------------------------------------------
# Recurrence maps
# ---------------------------------------------------------------------------

def _affine_windows(a, b, c, v_values, omega0=0.3):
    windows = [WindowRecord(0, 0.0, 1.0, np.array([omega0]), np.array([0.0]))]
    omega = omega0
    for n, v in enumerate(v_values, start=1):
        omega = a * omega + b * v + c
        windows.append(WindowRecord(n, float(n - 1) + 1.0, float(n) + 1.0,
                                    np.array([omega]), np.array([v])))
    return windows


def test_verify_recurrence_by_construction():
    windows = _affine_windows(1.0, 1.0, 0.0, [0.1 * k for k in range(10)])
    rmap = RecurrenceMap(family="declared", form=lambda om, v: om + v)
    report = verify_recurrence(windows, rmap)
    assert report.max_residual < 1e-12


def test_verify_recurrence_identity_map_residual_is_v_norm():
    windows = _affine_windows(1.0, 1.0, 0.0, [0.5, 0.25, 0.125])
    rmap = RecurrenceMap(family="declared", form=lambda om, v: om)
    report = verify_recurrence(windows, rmap)
    assert np.allclose(report.residuals, [0.5, 0.25, 0.125], atol=1e-15)


def test_fit_recovers_affine_law():
    v_values = [math.sin(0.7 * k) for k in range(12)]
    windows = _affine_windows(2.0, 1.0, 0.0, v_values)
    fitted = fit_recurrence(windows)

    # Normal-equations oracle, solved independently of lstsq.
    rows = np.array([[w_prev.omega[0], w.v[0], 1.0]
                     for w_prev, w in zip(windows, windows[1:])])
    targets = np.array([w.omega[0] for w in windows[1:]])
    oracle = np.linalg.solve(rows.T @ rows, rows.T @ targets)

    assert abs(fitted.coeff_omega[0, 0] - 2.0) < 1e-9
    assert abs(fitted.coeff_v[0, 0] - 1.0) < 1e-9
    assert abs(fitted.intercept[0]) < 1e-9
    assert np.allclose([fitted.coeff_omega[0, 0], fitted.coeff_v[0, 0],
                        fitted.intercept[0]], oracle, atol=1e-9)
    assert not fitted.rank_deficient


def test_fit_flags_degenerate_design():
    windows = [WindowRecord(n, float(n), float(n + 1), np.array([1.0]), np.array([1.0]))
               for n in range(8)]
    fitted = fit_recurrence(windows)
    assert fitted.rank_deficient


def test_fit_with_small_noise_stays_close_to_noiseless_fit():
    rng = np.random.default_rng(7)
    v_values = [math.sin(0.7 * k) for k in range(16)]
    clean = _affine_windows(0.8, 0.5, 0.1, v_values)
    noisy = [WindowRecord(w.index, w.t_start, w.t_end,
                          w.omega + rng.normal(0.0, 1e-6, size=1), w.v)
             for w in clean]
    fit_clean = fit_recurrence(clean)
    fit_noisy = fit_recurrence(noisy)
    assert abs(fit_noisy.coeff_omega[0, 0] - fit_clean.coeff_omega[0, 0]) < 1e-4
    assert abs(fit_noisy.coeff_v[0, 0] - fit_clean.coeff_v[0, 0]) < 1e-4
    assert abs(fit_noisy.intercept[0] - fit_clean.intercept[0]) < 1e-4


def test_fit_requires_enough_windows():
    windows = _affine_windows(1.0, 1.0, 0.0, [0.1])
    with pytest.raises(ConfigurationError):
        fit_recurrence(windows)


def test_fit_then_verify_on_holdout():
    v_values = [math.cos(0.3 * k) for k in range(12)]
    windows = _affine_windows(0.9, 0.4, 0.05, v_values)
    fitted = fit_recurrence(windows[:9])
    assert fitted.fit_residual < 1e-9
    holdout = verify_recurrence(windows[8:], fitted)
    assert holdout.max_residual <= 1e-6


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-1.5, 1.5), b=st.floats(-1.5, 1.5), c=st.floats(-1.0, 1.0))
def test_fit_consistency_property(a, b, c):
    v_values = [math.sin(1.1 * k + 0.2) for k in range(10)]
    windows = _affine_windows(a, b, c, v_values)
    fitted = fit_recurrence(windows)
    assert fitted.fit_residual < 1e-8
    report = verify_recurrence(windows, fitted)
    assert report.max_residual <= 1e-7


# ---------------------------------------------------------------------------
# Dialogues
# ---------------------------------------------------------------------------

def _dialogue(eps_of_t, u0_value, phi0, state_kind="mean", control_kind="integral"):
    field = IntentionField(dim=1, dynamics=lambda t, xi, controls: [0.0])
    players = (make_player(
        lambda t: np.array([u0_value]),
        eps_form=lambda t, u0, phi: np.array([eps_of_t(t)]), eps_dim=1),)
    return DialogueSpec(
        field=field, players=players,
        state_functionals=(WindowFunctional(state_kind, "eps"),),
        control_functionals=(WindowFunctional(control_kind, "u0"),),
        step_map=lambda phi_prev, v: phi_prev + v,
        phi0=np.array([phi0]), xi0=np.array([0.0]), dt=1e-3)


def test_constant_field_dialogue():
    dialogue = _dialogue(lambda t: 0.6, u0_value=0.0, phi0=0.0)
    result = simulate_dialogue(dialogue, [0.0, 1.0, 2.0, 3.0])
    for phi_n in result.phi[1:]:
        assert phi_n[0] == 0.6


def test_linear_ramp_window_means():
    dialogue = _dialogue(lambda t: t, u0_value=0.0, phi0=0.0)
    result = simulate_dialogue(dialogue, [0.0, 1.0, 2.0])
    assert result.phi[1][0] == pytest.approx(0.5, abs=1e-12)
    assert result.phi[2][0] == pytest.approx(1.5, abs=1e-12)


def test_crafted_dialogue_is_consistent():
    # eps = c*t makes successive window means differ by exactly c, matching
    # the additive step map with v = window integral of u0 = c.
    c = 0.8
    dialogue = _dialogue(lambda t: c * t, u0_value=c, phi0=-c / 2)
    result = simulate_dialogue(dialogue, [0.0, 1.0, 2.0, 3.0, 4.0], tol=1e-9)
    assert result.is_dialogue
    assert np.max(result.residuals) < 1e-9


def test_inconsistent_dialogue_reports_diagnostic():
    dialogue = _dialogue(lambda t: 1.0, u0_value=0.0, phi0=0.0)
    result = simulate_dialogue(dialogue, [0.0, 1.0, 2.0], tol=1e-9)
    assert not result.is_dialogue
    assert result.diagnostics
    assert "not a dialogue" in result.diagnostics[0]


def test_a_non_finite_step_map_value_is_a_simulation_error_naming_the_window():
    dialogue = replace(_dialogue(lambda t: 0.6, u0_value=0.0, phi0=0.0),
                       step_map=lambda phi_prev, v: phi_prev / phi_prev)
    with np.errstate(invalid="ignore"), pytest.raises(
            SimulationError, match=r"^recurrence: non-finite value \[nan\] predicting "
                                   r"window 1$"):
        simulate_dialogue(dialogue, [0.0, 1.0, 2.0])


def test_a_step_map_failing_at_a_later_window_names_that_window():
    # Window means of eps = t are 0.5, 1.5, 2.5: the map fails from phi_prev = 1.5 on.
    dialogue = replace(_dialogue(lambda t: t, u0_value=0.0, phi0=0.0),
                       step_map=lambda phi_prev, v: phi_prev + v if phi_prev[0] < 1.0
                       else phi_prev * np.inf)
    with pytest.raises(SimulationError,
                       match=r"^recurrence: non-finite value \[inf\] predicting window 3$"):
        simulate_dialogue(dialogue, [0.0, 1.0, 2.0, 3.0])


def test_dialogue_residuals_are_the_step_map_gaps():
    dialogue = _dialogue(lambda t: t * t, u0_value=0.25, phi0=0.1)
    result = simulate_dialogue(dialogue, [0.0, 1.0, 2.0, 3.0], tol=1e-9)
    expected = [float(np.linalg.norm(phi - dialogue.step_map(prev, v)))
                for prev, phi, v in zip(result.phi, result.phi[1:], result.v)]
    assert result.residuals.tolist() == expected
    assert result.diagnostics == [
        f"window {k}: functional state deviates from the step map by {r:.3e}; not a "
        f"dialogue under the declared maps" for k, r in enumerate(expected, 1)]


def test_intention_field_drives_windows():
    # xi' = u with u = u0 = 1: xi = t; endpoint functional reads xi.
    field = IntentionField(dim=1, dynamics=lambda t, xi, controls: controls[0])
    players = (make_player(lambda t: np.ones(1)),)
    dialogue = DialogueSpec(
        field=field, players=players,
        state_functionals=(WindowFunctional("endpoint", "state"),),
        control_functionals=(WindowFunctional("mean", "u0"),),
        step_map=lambda phi_prev, v: phi_prev + v,
        phi0=np.array([0.0]), xi0=np.array([0.0]), dt=1e-3)
    result = simulate_dialogue(dialogue, [0.0, 1.0, 2.0])
    assert result.phi[1][0] == pytest.approx(1.0, abs=1e-10)
    assert result.phi[2][0] == pytest.approx(2.0, abs=1e-10)
    assert result.is_dialogue
