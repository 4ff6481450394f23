import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_player
from tactica.games import ConfigurationError, InteractiveSystem, simulate
from tactica.verbalization import (Cell, CellComplex, CellCondition, DialogueSpec,
                                   DomainError, IntentionField, RecurrenceMap,
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
    report = verify_recurrence(windows, rmap, tol=1e-12)
    assert report.passed
    assert report.max_residual < 1e-12


def test_verify_recurrence_identity_map_residual_is_v_norm():
    windows = _affine_windows(1.0, 1.0, 0.0, [0.5, 0.25, 0.125])
    rmap = RecurrenceMap(family="declared", form=lambda om, v: om)
    report = verify_recurrence(windows, rmap, tol=1e-12)
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
    holdout = verify_recurrence(windows[8:], fitted, tol=1e-6)
    assert holdout.passed


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-1.5, 1.5), b=st.floats(-1.5, 1.5), c=st.floats(-1.0, 1.0))
def test_fit_consistency_property(a, b, c):
    v_values = [math.sin(1.1 * k + 0.2) for k in range(10)]
    windows = _affine_windows(a, b, c, v_values)
    fitted = fit_recurrence(windows)
    assert fitted.fit_residual < 1e-8
    report = verify_recurrence(windows, fitted, tol=1e-7)
    assert report.passed


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


def test_dialogue_window_records_export_shape():
    dialogue = _dialogue(lambda t: 0.5, u0_value=0.0, phi0=0.0)
    grid = [0.0, 1.0, 2.0]
    result = simulate_dialogue(dialogue, grid)
    records = result.window_records(grid)
    assert [r.index for r in records] == [1, 2]
    assert records[0].t_end == records[1].t_start
    assert records[0].omega[0] == 0.5
