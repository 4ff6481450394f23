import math
import re

import numpy as np
import pytest

from conftest import linear_decay_system, logistic_system, make_player
from tactica.games import (Coalition, ConfigurationError, DivergenceError,
                           EpsilonProcess, FeedbackCoupling, InteractiveSystem,
                           InvariantConstraint, Player, SimulationError, SlowControl,
                           associated_ordinary_game, check_indeterminate_invariants,
                           coalition_simulate, replay_with_recorded_eps, simulate)
from tactica.repdyn import solve_inverse_problem
from tactica.tactics import SynthesisRule
from tactica.verbalization import RecurrenceMap

# Fine-step (dt=1e-5) reference for the logistic run with u0=1, eps=0,
# phi(0)=0.1, t1=5; the closed form 1/(1+9e^-5) agrees to 6e-15.
LOGISTIC_REFERENCE_T5 = 0.9428256185740211


def test_zero_field_constant_trajectory():
    system = InteractiveSystem(
        dim=2, dynamics=lambda t, phi, u, lam: np.zeros(2),
        players=(make_player(lambda t: np.zeros(1)),))
    traj = simulate(system, [3.0, -1.0], 0.0, 1.0, 0.01)
    assert np.all(traj.phi == [3.0, -1.0])


def test_linear_decay_matches_exponential():
    traj = simulate(linear_decay_system(), [1.0], 0.0, 1.0, 1e-3)
    assert abs(traj.phi[-1, 0] - math.exp(-1.0)) < 1e-8


def test_logistic_matches_fine_step_reference():
    traj = simulate(logistic_system(), [0.1], 0.0, 5.0, 1e-3)
    assert abs(traj.phi[-1, 0] - LOGISTIC_REFERENCE_T5) < 1e-7


def test_trajectory_records_all_traces():
    traj = simulate(linear_decay_system(), [1.0], 0.0, 0.1, 0.01)
    assert traj.phi.shape == (11, 1)
    assert traj.u0.shape == (11, 1)
    assert traj.eps.shape == (11, 1)
    assert traj.u.shape == (11, 1)
    assert np.all(traj.eps == -1.0)
    # u = u0 + eps*phi at every sample
    assert np.allclose(traj.u[:, 0], traj.u0[:, 0] - traj.phi[:, 0], atol=0)


def test_determinism_bit_identical():
    a = simulate(logistic_system(), [0.1], 0.0, 1.0, 1e-3, record_tape=False)
    b = simulate(logistic_system(), [0.1], 0.0, 1.0, 1e-3, record_tape=False)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.u, b.u)


def test_divergence_carries_last_valid_time():
    system = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: [phi[0] ** 3],
        players=(make_player(lambda t: np.zeros(1)),))
    # phi**3 overflows to inf on the way out; numpy warns of it.
    with pytest.raises(DivergenceError) as err, pytest.warns(RuntimeWarning, match="overflow"):
        simulate(system, [5.0], 0.0, 10.0, 0.1)
    assert 0.0 <= err.value.last_valid_time < 10.0


def test_grid_must_divide_interval():
    with pytest.raises(ConfigurationError):
        simulate(linear_decay_system(), [1.0], 0.0, 1.0, 0.3)


def test_derivative_order_above_one_rejected():
    with pytest.raises(ConfigurationError):
        FeedbackCoupling(known_form=lambda *a: a, derivative_order=2)


def test_derivative_substitution_semantics():
    # u = u0 + c*phidot with one substitution pass seeded at zero:
    # phidot_pre = u0, so u = u0*(1 + c) exactly.
    c = 0.25
    system = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: u[0],
        players=(make_player(
            lambda t: np.array([2.0]),
            known_form=lambda t, u0, phi, derivs, eps, lam: u0 + c * derivs[0],
            derivative_order=1),))
    traj = simulate(system, [0.0], 0.0, 0.1, 0.01)
    assert traj.u[0, 0] == pytest.approx(2.0 * (1 + c), abs=0)


def test_slow_control_discrete_schedule():
    schedule = SlowControl(schedule=((0, (1.0,)), (5, (2.0,))))
    assert schedule.value(0.0, 0)[0] == 1.0
    assert schedule.value(0.0, 4)[0] == 1.0
    assert schedule.value(0.0, 5)[0] == 2.0
    with pytest.raises(ConfigurationError):
        SlowControl(schedule=((5, (1.0,)), (5, (2.0,))))


@pytest.mark.parametrize("values, shown", [(("0.5",), "['0.5']"), ((1j,), "[1j]"),
                                           (np.array([0.5], dtype=object), "[0.5]")],
                         ids=["str", "complex", "object"])
def test_a_slow_step_schedule_that_is_not_real_numeric_is_a_configuration_error(values, shown):
    # Each held vector is checked when the schedule is built, not parsed at each stage.
    with pytest.raises(ConfigurationError, match=r"^slow schedule step 5: .*value "
                       rf"{re.escape(shown)}"):
        SlowControl(schedule=((0, (1.0,)), (5, values)))


# Each library boundary that converts a callable's value to a float array, and the name
# its fault gives: a string or an object array is refused there as a complex value is.
_BOUNDARIES = {
    "slow-schedule": (lambda value: SlowControl(lambda t: value).value(0.25, 0),
                      "slow", " at t=0.25"),
    "synthesis-form": (lambda value: SynthesisRule(
        forms=(lambda thetas, omegas, vs: value,), masks=(frozenset({0}),)).value(
            0, [np.zeros(1)], [np.zeros(2)], [np.zeros(1)]), "synthesis form 0", ""),
    "recurrence": (lambda value: RecurrenceMap("declared", form=lambda omega, v: value).apply(
        [0.0, 0.0], [0.0]), "recurrence", ""),
    "invert-control": (lambda value: solve_inverse_problem(
        ["u1*x1"], x0=[1.0], matrix_dim=2).control_schedule(lambda t: value)(0.25),
                       "invert.control", " at t=0.25")}


@pytest.mark.parametrize("value, shown", [(["0.5"], "['0.5']"), ("0.5", "'0.5'"),
                                          (np.array([0.5], dtype=object), "[0.5]")],
                         ids=["str-list", "str", "object"])
@pytest.mark.parametrize("boundary", sorted(_BOUNDARIES))
def test_a_string_at_a_library_boundary_is_named(boundary, value, shown):
    call, leaf, at = _BOUNDARIES[boundary]
    with pytest.raises(SimulationError, match=rf"^{re.escape(leaf)}: value {re.escape(shown)} "
                       rf"is not real numeric{re.escape(at)}$"):
        call(value)


# ---------------------------------------------------------------------------
# Associated ordinary game and the replay round trip
# ---------------------------------------------------------------------------

def test_replay_constant_eps():
    traj = simulate(linear_decay_system(), [1.0], 0.0, 1.0, 1e-3)
    replayed = replay_with_recorded_eps(linear_decay_system(), traj, 0.0, 1.0, 1e-3)
    assert np.max(np.abs(replayed.phi - traj.phi)) < 1e-12


def test_associated_game_doubles_control_slots():
    players = (
        make_player(lambda t: np.zeros(1),
                    eps_form=lambda t, u0, phi: np.zeros(1), eps_dim=1),
        make_player(lambda t: np.zeros(1),
                    eps_form=lambda t, u0, phi: np.zeros(1), eps_dim=1),
    )
    system = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: [u[0][0] + u[1][0]],
        players=players)
    ordinary = associated_ordinary_game(system)
    assert ordinary.n_players == 4
    traj = simulate(ordinary, [0.0], 0.0, 0.5, 0.01)
    assert traj.u0.shape[1] == 4


def test_replay_logistic_sine_eps():
    system = logistic_system(
        eps_form=lambda t, u0, phi: np.array([math.sin(t)]), eps_dim=1)
    traj = simulate(system, [0.1], 0.0, 5.0, 1e-3)
    replayed = replay_with_recorded_eps(system, traj, 0.0, 5.0, 1e-3)
    assert np.max(np.abs(replayed.phi - traj.phi)) < 1e-12


def test_replay_state_dependent_eps_is_exact():
    # The eps truth reads the state, so only stage-tape playback can reproduce it.
    system = logistic_system(
        eps_form=lambda t, u0, phi: np.array([0.2 * phi[0] - 0.1 * math.cos(t)]),
        eps_dim=1)
    traj = simulate(system, [0.3], 0.0, 2.0, 1e-3)
    replayed = replay_with_recorded_eps(system, traj, 0.0, 2.0, 1e-3)
    assert np.array_equal(replayed.phi, traj.phi)


def test_associated_game_rejects_derivative_couplings():
    system = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: u[0],
        players=(make_player(
            lambda t: np.zeros(1),
            known_form=lambda t, u0, phi, derivs, eps, lam: u0 + derivs[0],
            derivative_order=1),))
    with pytest.raises(ConfigurationError):
        associated_ordinary_game(system)


# ---------------------------------------------------------------------------
# Indeterminate invariants
# ---------------------------------------------------------------------------

def test_coupling_identity_invariant_has_zero_drift():
    system = linear_decay_system()
    constraint = InvariantConstraint(
        fn=lambda t, u, u0, eps, phi, dphi: u[0] - u0[0] - eps[0] * phi[0],
        label="identity")
    traj = simulate(system, [1.0], 0.0, 1.0, 1e-3)
    drifts = check_indeterminate_invariants(traj, [constraint])
    assert drifts[0].drift < 1e-10
    assert not drifts[0].drift > 1e-10


def test_nonconserved_quantity_reports_positive_drift():
    system = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: u[0],
        players=(make_player(
            lambda t: np.array([1.0]),
            known_form=lambda t, u0, phi, derivs, eps, lam: u0 + phi),))
    traj = simulate(system, [1.0], 0.0, 1.0, 0.01)
    constraint = InvariantConstraint(
        fn=lambda t, u, u0, eps, phi, dphi: u[0] * u0[0], label="u.u0")
    drifts = check_indeterminate_invariants(traj, [constraint])
    assert drifts[0].drift > 0.1
    assert drifts[0].drift > 1e-9


def test_conserved_quadratic_on_rotation():
    # phi' = omega(t) J phi preserves |phi|^2 for any omega(t).
    system = InteractiveSystem(
        dim=2,
        dynamics=lambda t, phi, u, lam: [-u[0][0] * phi[1], u[0][0] * phi[0]],
        players=(make_player(
            lambda t: np.array([1.0]),
            known_form=lambda t, u0, phi, derivs, eps, lam: u0 + eps,
            eps_form=lambda t, u0, phi: np.array([0.3 * math.sin(2 * t)]),
            eps_dim=1),))
    traj = simulate(system, [1.0, 0.0], 0.0, 4.0, 1e-3)
    constraint = InvariantConstraint(
        fn=lambda t, u, u0, eps, phi, dphi: phi[0] ** 2 + phi[1] ** 2, label="radius")
    drifts = check_indeterminate_invariants(traj, [constraint])
    assert drifts[0].drift < 1e-6


_OBJECT = object()


@pytest.mark.parametrize("value, shown", [
    (["0.5"], "value '0.5' is not real numeric"), ("0.5", "value '0.5' is not real numeric"),
    (np.array([0.5, 0.7]), "returned shape (2,), not one value"),
    ([_OBJECT], f"value {_OBJECT!r} is not real numeric"), (np.array([1j]), "complex value 1j"),
    ([math.inf], "non-finite value inf"),
    ([[1.0], [2.0, 3.0]], "returned shape (2,), not one value")],
    ids=["str-list", "str", "two-values", "object", "complex", "non-finite", "ragged"])
def test_a_library_invariant_value_that_is_not_one_real_number_is_named_at_its_sample(
        value, shown):
    # The value turns bad at t=0.02; it is neither parsed, broadcast nor a bare error.
    traj = simulate(linear_decay_system(), [1.0], 0.0, 0.05, 0.01)
    constraint = InvariantConstraint(fn=lambda t, *_: value if t > 0.015 else [0.5],
                                     label="q")
    with pytest.raises(SimulationError,
                       match=rf"^invariant 'q': {re.escape(shown)} at t=0\.02$"):
        check_indeterminate_invariants(traj, [constraint])


def test_a_library_invariant_may_mix_scalars_and_one_element_vectors():
    traj = simulate(linear_decay_system(), [1.0], 0.0, 0.05, 0.01)
    constraint = InvariantConstraint(fn=lambda t, *_: [t] if t > 0.015 else t, label="t")
    assert check_indeterminate_invariants(traj, [constraint])[0].drift == traj.t[-1]


# ---------------------------------------------------------------------------
# Coalitions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [0, 1])
def test_singleton_coalitions_equal_plain_simulate(order):
    def known(t, u0, phi, derivs, eps, lam):
        # Under order 1, derivs holds the substituted state derivative.
        return u0 + eps * phi + (0.25 * derivs[0] if derivs else 0.0)

    def eps_form(t, u0, phi):
        return np.array([-0.5 * u0[0]])

    players = (make_player(lambda t: np.array([0.4]), known_form=known,
                           eps_form=eps_form, eps_dim=1, derivative_order=order),)
    coalition = Coalition(
        members=(1,),
        coupling=FeedbackCoupling(
            lambda t, u0s, phi, derivs, eps, lam: known(t, u0s[0], phi, derivs, eps, lam),
            derivative_order=order),
        epsilon=EpsilonProcess(form=lambda t, u0s, phi: eps_form(t, u0s[0], phi), dim=1))
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: u[0],
                               players=players, coalitions=(coalition,))
    plain = simulate(system, [1.0], 0.0, 1.0, 1e-3, record_tape=False)
    grouped = coalition_simulate(system, [1.0], 0.0, 1.0, 1e-3, record_tape=False)
    assert np.array_equal(plain.phi, grouped.phi)
    assert np.array_equal(plain.u, grouped.u)


def test_grand_coalition_sum_equals_summed_signal():
    players = (make_player(lambda t: np.array([0.3])),
               make_player(lambda t: np.array([0.2 * math.sin(t)])))
    coalition = Coalition(
        members=(1, 2),
        coupling=FeedbackCoupling(lambda t, u0s, phi, derivs, eps, lam: u0s[0] + u0s[1]))
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: u[0],
                               players=players, coalitions=(coalition,))
    grouped = coalition_simulate(system, [0.0], 0.0, 2.0, 1e-3, record_tape=False)

    single = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: u[0],
        players=(make_player(lambda t: np.array([0.3 + 0.2 * math.sin(t)])),))
    reference = simulate(single, [0.0], 0.0, 2.0, 1e-3, record_tape=False)
    assert np.max(np.abs(grouped.phi - reference.phi)) < 1e-12


def test_overlapping_coalitions_match_hand_assembled_field():
    players = (make_player(lambda t: np.array([0.4])),
               make_player(lambda t: np.array([0.2 * math.sin(t)])),
               make_player(lambda t: np.array([0.1])))
    coalitions = (
        Coalition(members=(1, 2), coupling=FeedbackCoupling(
            lambda t, u0s, phi, derivs, eps, lam: u0s[0] + u0s[1])),
        Coalition(members=(2, 3), coupling=FeedbackCoupling(
            lambda t, u0s, phi, derivs, eps, lam: u0s[0] * u0s[1])),
    )
    system = InteractiveSystem(
        dim=1,
        dynamics=lambda t, phi, u, lam: [u[0][0] - u[1][0] - 0.5 * phi[0]],
        players=players, coalitions=coalitions)
    grouped = coalition_simulate(system, [0.5], 0.0, 1.0, 1e-3, record_tape=False)

    # Direct evaluation oracle: assemble the same field without coalitions.
    def direct(t, phi, u, lam):
        a = 0.4 + 0.2 * math.sin(t)
        b = 0.2 * math.sin(t) * 0.1
        return [a - b - 0.5 * phi[0]]

    reference_system = InteractiveSystem(
        dim=1, dynamics=direct, players=(make_player(lambda t: np.zeros(1)),))
    reference = simulate(reference_system, [0.5], 0.0, 1.0, 1e-3, record_tape=False)
    assert np.max(np.abs(grouped.phi - reference.phi)) < 1e-12


def test_coalition_member_out_of_range_rejected():
    with pytest.raises(ConfigurationError):
        InteractiveSystem(
            dim=1, dynamics=lambda t, phi, u, lam: u[0],
            players=(make_player(lambda t: np.zeros(1)),),
            coalitions=(Coalition(members=(2,),
                                  coupling=FeedbackCoupling(lambda *a: np.zeros(1))),))


def test_coalition_replay_round_trip():
    coalition = Coalition(
        members=(1,),
        coupling=FeedbackCoupling(lambda t, u0s, phi, derivs, eps, lam: u0s[0] + eps * phi),
        epsilon=EpsilonProcess(form=lambda t, u0s, phi: np.array([-phi[0]]),
                               dim=1))
    system = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: u[0],
        players=(make_player(lambda t: np.array([0.5])),),
        coalitions=(coalition,))
    traj = coalition_simulate(system, [1.0], 0.0, 1.0, 1e-3)
    replayed = replay_with_recorded_eps(system, traj, 0.0, 1.0, 1e-3,
                                        use_coalitions=True)
    assert np.array_equal(replayed.phi, traj.phi)


# ---------------------------------------------------------------------------
# Order of accuracy
# ---------------------------------------------------------------------------

def test_step_halving_is_fourth_order():
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = simulate(linear_decay_system(), [1.0], 0.0, 1.0, dt, record_tape=False)
        errors.append(abs(traj.phi[-1, 0] - math.exp(-1.0)))
    for coarse, fine in zip(errors, errors[1:]):
        ratio = coarse / fine
        assert 8.0 <= ratio <= 32.0


from hypothesis import given, settings, strategies as st


@settings(max_examples=20, deadline=None)
@given(gain=st.floats(-1.0, 1.0), phase=st.floats(0.0, 3.0),
       initial=st.floats(0.2, 2.0))
def test_round_trip_property(gain, phase, initial):
    # Replaying the recorded hidden parameters through the associated
    # ordinary game reproduces the state trace exactly, whatever the truth.
    system = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: u[0],
        players=(make_player(
            lambda t: np.array([0.1]),
            known_form=lambda t, u0, phi, derivs, eps, lam: u0 + eps * phi,
            eps_form=lambda t, u0, phi, g=gain, p=phase:
                np.array([g * math.sin(t + p) - 0.2 * phi[0]]),
            eps_dim=1),))
    traj = simulate(system, [initial], 0.0, 0.5, 0.01)
    replayed = replay_with_recorded_eps(system, traj, 0.0, 0.5, 0.01)
    assert np.array_equal(replayed.phi, traj.phi)
