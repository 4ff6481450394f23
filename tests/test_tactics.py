import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_player
from tactica.games import (ConfigurationError, InteractiveSystem, SimulationError, SlowControl,
                           simulate)
from tactica.tactics import (CommentedGame, SynthesisRule, commented_as_synthesis,
                             interaction_as_synthesis, run_synthesized)
from tactica.verbalization import WindowFunctional, evaluate_functionals


def eps_system(eps_of_t, dynamics=None, coupling=None):
    if dynamics is None:
        dynamics = lambda t, phi, u, lam: [0.0]  # noqa: E731
    return InteractiveSystem(
        dim=1, dynamics=dynamics,
        players=(make_player(
            lambda t: np.zeros(1), known_form=coupling,
            eps_form=lambda t, u0, phi: np.array([eps_of_t(t)]), eps_dim=1),))


def commented(system, theta0, grid, dt=1e-2,
              omega=(WindowFunctional("mean", "eps"),),
              v=(WindowFunctional("mean", "u0"),), initial=(0.0,)):
    return CommentedGame(system=system, initial=np.asarray(initial, dtype=float),
                         dt=dt, omega_functionals=tuple(omega), v_functionals=tuple(v),
                         theta0=np.asarray(theta0, dtype=float),
                         window_grid=tuple(grid))


UNIT_GRID = tuple(float(k) for k in range(6))


def zero_term(own, other, omega, v):
    return np.zeros_like(own)


def test_frozen_comment_equals_constant_parameter_run():
    system = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: [-lam[0] * phi[0]],
        players=(make_player(lambda t: np.zeros(1)),))
    theta0 = [0.7]
    game = commented(system, theta0, UNIT_GRID, initial=[1.0],
                     omega=(WindowFunctional("mean", "state"),))
    run = run_synthesized([game], commented_as_synthesis(lambda th, om, v: th))[0]
    plain = simulate(system, [1.0], 0.0, 5.0, 1e-2,
                     slow=SlowControl(schedule=lambda t: theta0), record_tape=False)
    assert np.array_equal(run.trajectory.phi, plain.phi)
    assert all(c.vector[0] == 0.7 for c in run.comments)


def test_additive_comment_is_arithmetic_progression():
    game = commented(eps_system(lambda t: 1.0), [0.25], UNIT_GRID)
    run = run_synthesized([game], commented_as_synthesis(lambda th, om, v: th + om))[0]
    for n, comment in enumerate(run.comments, start=1):
        assert comment.vector[0] == pytest.approx(0.25 + n, abs=1e-12)


def test_gain_scheduling_matches_hand_stepped_evaluation():
    # Phi = -theta*phi; theta increments whenever the window mean of eps > 0.5.
    def dynamics(t, phi, u, lam):
        return [-lam[0] * phi[0]]

    def rule(theta, omega, v):
        return theta + (1.0 if omega[0] > 0.5 else 0.0)

    system = eps_system(lambda t: math.sin(t), dynamics=dynamics)
    game = commented(system, [0.5], UNIT_GRID, dt=1e-2, initial=[1.0])
    run = run_synthesized([game], commented_as_synthesis(rule))[0]

    # Manual window-by-window forward evaluation through plain simulate calls.
    theta = np.array([0.5])
    phi = np.array([1.0])
    for n in range(1, 6):
        seg = simulate(system, phi, float(n - 1), float(n), 1e-2,
                       slow=SlowControl(schedule=lambda t, _th=theta: _th),
                       record_tape=False)
        omega_n = evaluate_functionals([WindowFunctional("mean", "eps")], seg, 0,
                                       len(seg.t) - 1)
        theta = rule(theta, omega_n, None)
        phi = seg.phi[-1]
    assert abs(run.trajectory.phi[-1, 0] - phi[0]) < 1e-9
    assert run.comments[-1].vector[0] == pytest.approx(theta[0], abs=1e-12)


def test_comment_feeds_couplings_as_parameter():
    # The coupling reads lambda: u = u0 + lam[0], Phi = u.
    system = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: u[0],
        players=(make_player(
            lambda t: np.zeros(1),
            known_form=lambda t, u0, phi, derivs, eps, lam: u0 + lam),))
    game = commented(system, [0.5], (0.0, 1.0), omega=(WindowFunctional("mean", "state"),))
    run = run_synthesized([game], commented_as_synthesis(lambda th, om, v: th))[0]
    assert run.trajectory.phi[-1, 0] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Interaction
# ---------------------------------------------------------------------------

def _pair(theta1, theta2):
    g1 = commented(eps_system(lambda t: 1.0), theta1, UNIT_GRID)
    g2 = commented(eps_system(lambda t: 1.0), theta2, UNIT_GRID)
    return g1, g2


def test_zero_interaction_equals_uncoupled_runs():
    rule1 = lambda th, om, v: 0.9 * th + om  # noqa: E731
    rule2 = lambda th, om, v: 0.8 * th - v  # noqa: E731
    g1, g2 = _pair([1.0], [2.0])
    coupled = run_synthesized([g1, g2], interaction_as_synthesis(
        rule1, rule2, zero_term, zero_term))
    solo1 = run_synthesized([g1], commented_as_synthesis(rule1))[0]
    solo2 = run_synthesized([g2], commented_as_synthesis(rule2))[0]
    assert np.array_equal(coupled[0].theta_values, solo1.theta_values)
    assert np.array_equal(coupled[1].theta_values, solo2.theta_values)


def test_pure_exchange_swaps_streams():
    zero = lambda th, om, v: np.zeros_like(th)  # noqa: E731
    g1, g2 = _pair([1.0], [2.0])
    swap = lambda own, other, om, v: other  # noqa: E731
    runs = run_synthesized([g1, g2], interaction_as_synthesis(zero, zero, swap, swap))
    assert [c.vector[0] for c in runs[0].comments] == [2.0, 1.0, 2.0, 1.0, 2.0]
    assert [c.vector[0] for c in runs[1].comments] == [1.0, 2.0, 1.0, 2.0, 1.0]


def test_linear_coupling_matches_matrix_power():
    a1, c12, a2, c21 = 0.9, 0.1, 0.8, 0.05
    g1, g2 = _pair([1.0], [2.0])
    term12 = lambda own, other, om, v: c12 * other  # noqa: E731
    term21 = lambda own, other, om, v: c21 * other  # noqa: E731
    runs = run_synthesized([g1, g2], interaction_as_synthesis(
        lambda th, om, v: a1 * th, lambda th, om, v: a2 * th, term12, term21))

    matrix = np.array([[a1, c12], [c21, a2]])
    theta = np.array([1.0, 2.0])
    for n in range(5):
        theta = matrix @ theta
        assert abs(runs[0].comments[n].vector[0] - theta[0]) < 1e-12
        assert abs(runs[1].comments[n].vector[0] - theta[1]) < 1e-12


@pytest.mark.parametrize("slot", ["update1", "update2", "term12", "term21"])
@pytest.mark.parametrize("value, shown", [(["0.5"], "value ['0.5'] is not real numeric"),
                                          ([1j], "complex value [1j]")], ids=["str", "complex"])
def test_an_interaction_value_that_is_not_real_numeric_names_its_callable(slot, value, shown):
    # Not numpy's bare error from the sum of update and term, nor the sum's.
    forms = {"update1": lambda th, om, v: th, "update2": lambda th, om, v: th,
             "term12": zero_term, "term21": zero_term}
    forms[slot] = lambda *args: value
    with pytest.raises(SimulationError, match=rf"^{slot}: {re.escape(shown)}$"):
        run_synthesized(list(_pair([1.0], [2.0])), interaction_as_synthesis(**forms))


def test_mismatched_window_grids_rejected():
    g1 = commented(eps_system(lambda t: 1.0), [0.0], (0.0, 1.0, 2.0))
    g2 = commented(eps_system(lambda t: 1.0), [0.0], (0.0, 0.5, 1.0))
    identity = lambda th, om, v: th  # noqa: E731
    with pytest.raises(ConfigurationError, match="shared grid"):
        run_synthesized([g1, g2], interaction_as_synthesis(
            identity, identity, zero_term, zero_term))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def test_identity_synthesis_equals_independent_runs():
    rule1 = lambda th, om, v: 0.5 * th + om  # noqa: E731
    rule2 = lambda th, om, v: th - 0.1 * v  # noqa: E731
    g1, g2 = _pair([1.0], [2.0])
    synthesis = SynthesisRule(
        forms=(lambda th, om, v: rule1(th[0], om[0], v[0]),
               lambda th, om, v: rule2(th[1], om[1], v[1])),
        masks=(frozenset({0}), frozenset({1})))
    runs = run_synthesized([g1, g2], synthesis)
    solo1 = run_synthesized([g1], commented_as_synthesis(rule1))[0]
    solo2 = run_synthesized([g2], commented_as_synthesis(rule2))[0]
    assert np.array_equal(runs[0].theta_values, solo1.theta_values)
    assert np.array_equal(runs[1].theta_values, solo2.theta_values)


def test_interaction_is_a_synthesis_specialization():
    rule1 = lambda th, om, v: 0.9 * th  # noqa: E731
    rule2 = lambda th, om, v: 0.8 * th  # noqa: E731
    term12 = lambda own, other, om, v: 0.1 * other  # noqa: E731
    term21 = lambda own, other, om, v: 0.05 * other  # noqa: E731
    g1, g2 = _pair([1.0], [2.0])
    via_interaction = run_synthesized([g1, g2], interaction_as_synthesis(
        rule1, rule2, term12, term21))
    synthesis = SynthesisRule(
        forms=(lambda th, om, v: rule1(th[0], om[0], v[0])
               + term12(th[0], th[1], om[0], v[0]),
               lambda th, om, v: rule2(th[1], om[1], v[1])
               + term21(th[1], th[0], om[1], v[1])),
        masks=(frozenset({0, 1}), frozenset({0, 1})))
    via_synthesis = run_synthesized([g1, g2], synthesis)
    for a, b in zip(via_interaction, via_synthesis):
        assert np.array_equal(a.theta_values, b.theta_values)


def test_three_game_hierarchical_mask():
    games = [commented(eps_system(lambda t: 1.0), [float(j)], UNIT_GRID) for j in range(3)]

    def form3(thetas, omegas, vs):
        return 0.5 * (thetas[0] + thetas[1]) + omegas[2]

    synthesis = SynthesisRule(
        forms=(lambda th, om, v: th[0] + om[0],
               lambda th, om, v: th[1] + om[1],
               form3),
        masks=(frozenset({0}), frozenset({1}), frozenset({0, 1, 2})))
    runs = run_synthesized(games, synthesis)

    theta = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
    for n in range(5):
        omega = np.array([1.0])
        theta = [theta[0] + omega, theta[1] + omega,
                 0.5 * (theta[0] + theta[1]) + omega]
        for j in range(3):
            assert abs(runs[j].comments[n].vector[0] - theta[j][0]) < 1e-12


def test_form_reading_outside_mask_is_rejected():
    g1, g2 = _pair([1.0], [2.0])
    synthesis = SynthesisRule(
        forms=(lambda th, om, v: th[1],  # mask only allows game 0
               lambda th, om, v: th[1]),
        masks=(frozenset({0}), frozenset({1})))
    with pytest.raises(ConfigurationError, match="outside"):
        run_synthesized([g1, g2], synthesis)


def test_mask_referencing_absent_game_rejected():
    with pytest.raises(ConfigurationError, match="absent game index"):
        SynthesisRule(forms=(lambda th, om, v: th[0],), masks=(frozenset({3}),))


def test_comment_causality():
    # theta_n depends only on data up to window n: permuting later window
    # summaries leaves the stream prefix unchanged.
    rule = commented_as_synthesis(lambda th, om, v: 0.7 * th + om - 0.2 * v)
    omegas = [np.array([math.sin(k)]) for k in range(8)]
    vs = [np.array([math.cos(k)]) for k in range(8)]

    def roll(omega_seq, v_seq):
        theta = np.array([1.0])
        out = []
        for om, v in zip(omega_seq, v_seq):
            (theta,) = rule.step([theta], [om], [v])
            out.append(theta)
        return out

    base = roll(omegas, vs)
    permuted = roll(omegas[:4] + omegas[4:][::-1], vs[:4] + vs[4:][::-1])
    for n in range(4):
        assert np.array_equal(base[n], permuted[n])


@st.composite
def affine_commented_games(draw):
    """An affine comment rule and a commented game for it; comment, omega and v have
    1-2 components.

    The state has one component per omega entry and is driven towards ``M theta``;
    the pure control has one sinusoid per v entry.
    """
    d_theta, d_omega, d_v = (draw(st.integers(1, 2)) for _ in range(3))

    def matrix(rows, cols):
        entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * cols,
                                max_size=rows * cols))
        return np.array(entries).reshape(rows, cols)

    p, q, r, c = (matrix(d_theta, d_theta), matrix(d_theta, d_omega),
                  matrix(d_theta, d_v), matrix(d_theta, 1)[:, 0])
    m, rates, theta0 = matrix(d_omega, d_theta), 1.0 + matrix(d_v, 1)[:, 0], matrix(d_theta, 1)
    system = InteractiveSystem(
        dim=d_omega, dynamics=lambda t, phi, u, lam: m @ lam - phi,
        players=(make_player(lambda t: np.sin(rates * t)),))
    rule = lambda th, om, v: p @ th + q @ om + r @ v + c  # noqa: E731
    return rule, commented(system, theta0[:, 0], (0.0, 0.5, 1.0, 1.5), dt=0.05,
                           omega=(WindowFunctional("mean", "state"),),
                           initial=np.zeros(d_omega))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(affine_commented_games())
def test_commented_run_equals_its_one_form_synthesis_bitwise(rule_and_game):
    rule, game = rule_and_game
    solo = run_synthesized([game], commented_as_synthesis(rule))[0]
    one_form = SynthesisRule(forms=(lambda th, om, v: rule(th[0], om[0], v[0]),),
                             masks=(frozenset({0}),))
    (synthesized,) = run_synthesized([game], one_form)
    assert solo.theta_values.tobytes() == synthesized.theta_values.tobytes()
    assert solo.trajectory.phi.tobytes() == synthesized.trajectory.phi.tobytes()

