"""The generated stage and step against the compositions they replaced.

``reference_stage`` evaluates one stage the way the integrator did before the stage
was generated: each leaf is a separate callable, a scenario's coalition forms and
dynamics read ``np.concatenate(..., dtype=float)`` of the controls, and an associated
ordinary game calls the original couplings from inside its dynamics.  Its faults are
the stage's: an arithmetic, type or value error, or a complex derivative, which is a
type error rather than its real part.

``reference_integrate`` runs a system the way the integrator did before the step was
generated: the stage once per RK4 stage, ``rk4_step``'s array arithmetic, and one
record row per sample.
"""

import ast
import math
import re
import tracemalloc
from decimal import Decimal
from functools import lru_cache
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_expr import _grammar

from tactica import expr, games
from tactica.algebra import WeylSymbol, WeylTerm, compile_symbols
from tactica.expr import VectorExpression, compile_expression, compile_vector
from tactica.games import (Coalition, ConfigurationError, EpsilonProcess, FeedbackCoupling,
                           InteractiveSystem, OrdinaryDynamics, Player, SimulationError,
                           SlowControl, StageTape, associated_ordinary_game, coalition_simulate,
                           compile_stage, compile_step, identity_coupling,
                           replay_with_recorded_eps, rk4_step, simulate, step_count,
                           zero_epsilon)
from tactica.prediction import strategic_pipeline
from tactica.repdyn import _compile_coefficient_map
from tactica.scenario import load_scenario
from tactica.tactics import run_synthesized

from conftest import make_player

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _epsilon(process, coalition):
    f = process.form
    if not isinstance(f, VectorExpression):
        return f
    if coalition:
        return lambda t, u0s, phi: f(t, np.concatenate(u0s, dtype=float), phi)
    return f


def _coupling(coupling, coalition):
    f = coupling.known_form
    if not isinstance(f, VectorExpression):
        return f
    if coalition:
        return lambda t, u0s, phi, derivs, eps, lam: f(
            t, np.concatenate(u0s, dtype=float), phi, eps, lam)
    return lambda t, u0, phi, derivs, eps, lam: f(t, u0, phi, eps, lam)


def _picks(system, use_coalitions):
    if use_coalitions:
        return [lambda u0s, _m=tuple(m - 1 for m in c.members): tuple(u0s[i] for i in _m)
                for c in system.coalitions]
    return [itemgetter(i) for i in range(system.n_players)]


def _dynamics(system):
    dyn = system.dynamics
    if isinstance(dyn, VectorExpression):
        return lambda t, phi, controls, lam: dyn(
            t, phi, np.concatenate(controls, dtype=float), lam)
    if isinstance(dyn, OrdinaryDynamics):
        inner, n = dyn.system, dyn.system.n_players
        slots = inner.coalitions if dyn.use_coalitions else inner.players
        couplings = [(pick, _coupling(s.coupling, dyn.use_coalitions))
                     for pick, s in zip(_picks(inner, dyn.use_coalitions), slots)]
        old = _dynamics(inner)

        def assoc(t, phi, controls, lam):
            u = [c(t, pick(controls[:n]), phi, (), eps, lam)
                 for (pick, c), eps in zip(couplings, controls[n:])]
            return old(t, phi, u, lam)
        return assoc
    return dyn


def _derivative(values):
    if any(np.iscomplexobj(v) for v in values):
        raise TypeError("complex derivative")
    return np.asarray(values, dtype=float)


def reference_stage(system, use_coalitions=False):
    slots = system.coalitions if use_coalitions else system.players
    signals = [p.signal for p in system.players]
    picks = _picks(system, use_coalitions)
    forms = [_epsilon(s.epsilon, use_coalitions) for s in slots]
    couplings = [_coupling(s.coupling, use_coalitions) for s in slots]
    dynamics = _dynamics(system)
    max_k = max(s.coupling.derivative_order for s in slots)
    pre_derivs = (np.zeros(system.dim),)

    def stage(t, state, lam):
        try:
            u0s = [signal(t) for signal in signals]
            args = [pick(u0s) for pick in picks]
            eps = [form(t, a, state) for form, a in zip(forms, args)]
            derivs = ()
            if max_k:
                u = [c(t, a, state, pre_derivs, e, lam) for c, a, e in zip(couplings, args, eps)]
                derivs = (_derivative(dynamics(t, state, u, lam)),)
            u = [c(t, a, state, derivs, e, lam) for c, a, e in zip(couplings, args, eps)]
            dphi = _derivative(dynamics(t, state, u, lam))
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise SimulationError(f"{exc} at t={t!r}") from exc
        return (u0s, eps, u), dphi
    return stage


def _bits(value):
    """Type and bytes of every number in a nested stage value: equal means bit-identical."""
    if isinstance(value, np.ndarray):
        return "ndarray", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_bits(v) for v in value]
    return type(value).__name__, np.array(value).tobytes()


def _outcome(stage, t, phi, lam):
    try:
        with np.errstate(all="ignore"):
            return _bits(stage(t, phi, lam))
    except Exception as exc:  # the leaf that fails first decides, in both stages
        root = exc
        while root.__cause__ is not None:   # past the ValueError a vector's call adds
            root = root.__cause__
        return type(exc), type(root)


_CONSTANTS = ["0", "0.5", "2", "3.25", "1e308"]
_VALUES = st.one_of(st.floats(-3.0, 3.0),
                    st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))


@lru_cache(maxsize=None)
def _trees(leaves: tuple):
    """Expressions over ``leaves``, built once per leaf set: hypothesis validates a new
    strategy at its first draw."""
    return st.recursive(st.sampled_from(leaves + tuple(_CONSTANTS)), _grammar, max_leaves=5)


def _sources(draw, leaves, count):
    return draw(st.lists(_trees(tuple(leaves)), min_size=count, max_size=count))


def _leaf(draw, path, count, scalars, vectors):
    leaves = list(scalars) + [f"{name}[{i}]" for name, dim in vectors.items()
                              for i in range(dim)]
    return compile_vector(_sources(draw, leaves, count), scalars, vectors, path)


def _library_player(order):
    """A player built in Python, with an order-0 or order-1 coupling; an order-0 coupling
    sees the derivative too when another coupling has order 1."""
    def coupling(t, u0, phi, derivs, eps, lam):
        return np.array([u0[0] + eps[0] + (derivs[0][0] if order or derivs else 0.0)])

    return make_player(lambda t: np.array([0.5 * t - 1.0]), known_form=coupling,
                       eps_form=lambda t, u0, phi: np.array([u0[0] * phi[0]]), eps_dim=1,
                       derivative_order=order)


def _library_dynamics(dim):
    return lambda t, phi, controls, lam: [phi[i] * 0.5 + np.sum(controls[-1]) + lam[0]
                                          for i in range(dim)]


@st.composite
def systems(draw):
    """A random system of scenario and library leaves, and the slots to run."""
    dim, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    state = {"phi": dim}
    players, u0_dims, control_dims = [], [], []
    for k in range(n):
        path = f"system.players[{k}]"
        if draw(st.integers(0, 3)) == 0:
            players.append(_library_player(draw(st.integers(0, 1))))
            u0_dims.append(1)
            control_dims.append(1)
            continue
        signal = _leaf(draw, f"{path}.signal", draw(st.integers(1, 2)), ("t",), {})
        u0 = {"u0": signal.dim, **state}
        truth = _leaf(draw, f"{path}.epsilon.truth", 1, ("t",), u0) if draw(st.booleans()) \
            else None
        coupling = _leaf(draw, f"{path}.coupling", draw(st.integers(1, 2)), ("t",),
                         {**u0, "eps": truth.dim if truth else 0, "lambda": 1})
        players.append(Player(signal, FeedbackCoupling(coupling),
                              zero_epsilon() if truth is None else EpsilonProcess(truth, 1)))
        u0_dims.append(signal.dim)
        control_dims.append(coupling.dim)
    use_coalitions = draw(st.booleans())
    coalitions = []
    if use_coalitions:
        control_dims = []
        for j in range(draw(st.integers(1, 2))):
            members = draw(st.lists(st.integers(1, n), min_size=1, max_size=2))
            path = f"system.coalitions[{j}]"
            u0 = {"u0": sum(u0_dims[m - 1] for m in members), **state}
            truth = _leaf(draw, f"{path}.epsilon.truth", 1, ("t",), u0) \
                if draw(st.booleans()) else None
            coupling = _leaf(draw, f"{path}.coupling", 1, ("t",),
                             {**u0, "eps": truth.dim if truth else 0, "lambda": 1})
            coalitions.append(Coalition(tuple(members), FeedbackCoupling(coupling),
                                        zero_epsilon() if truth is None
                                        else EpsilonProcess(truth, 1)))
            control_dims.append(1)
    dynamics = _library_dynamics(dim) if draw(st.integers(0, 3)) == 0 else _leaf(
        draw, "system.dynamics", dim, ("t",), {**state, "u": sum(control_dims), "lambda": 1})
    system = InteractiveSystem(dim=dim, dynamics=dynamics, players=tuple(players),
                               coalitions=tuple(coalitions))
    return system, use_coalitions


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(drawn=systems(), t=_VALUES, phi=st.lists(_VALUES, min_size=2, max_size=2),
       lam=_VALUES, ordinary=st.booleans())
def test_generated_stage_is_the_per_slot_composition_bit_for_bit(drawn, t, phi, lam, ordinary):
    system, use_coalitions = _ordinary(*drawn, phi[1]) if ordinary else drawn
    state, lam = np.array(phi[:system.dim]), np.array([lam])
    assert (_outcome(compile_stage(system, use_coalitions), t, state, lam)
            == _outcome(reference_stage(system, use_coalitions), t, state, lam))


def _ordinary(system, use_coalitions, held):
    """The associated ordinary game, its hidden parameters held at ``held``; a system with
    an order-1 coupling has none and is returned as it is."""
    slots = system.coalitions if use_coalitions else system.players
    if any(s.coupling.derivative_order for s in slots):
        return system, use_coalitions
    values = [np.full(s.epsilon.dim, held) for s in slots]
    return associated_ordinary_game(system, eps_policies=[lambda t, _v=v: _v for v in values],
                                    use_coalitions=use_coalitions), False


# ---------------------------------------------------------------------------
# The generated step against compile_stage plus rk4_step
# ---------------------------------------------------------------------------

def reference_integrate(system, use_coalitions, initial, t0, t1, dt, slow, record_tape):
    n_steps = step_count(t0, t1, dt)
    phi = np.asarray(initial, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise games.ConfigurationError("initial state must be finite")
    compiled = compile_stage(system, use_coalitions)
    tape = StageTape() if record_tape else None

    def stage(t, state, lam):
        out = compiled(t, state, lam)
        if tape is not None:
            tape.times.append(t)
            tape.values.append(tuple(out[0][1]))
        return out

    lam_at = (lambda t, step: games._EMPTY) if slow is None else slow.value
    lam0 = lam_at(t0, 0)
    values, dphi = stage(t0, phi, lam0)
    n = n_steps + 1
    rec_t, rec_phi, rec_dphi = np.empty(n), np.empty((n, system.dim)), np.empty((n, system.dim))
    rec_lam = np.empty((n, len(lam0)))
    slot_recs = [[np.empty((n, np.size(x))) for x in block] for block in values]
    for k in range(n):
        t = t0 + k * dt
        lam = lam_at(t, k)
        values, dphi = stage(t, phi, lam)
        rec_t[k], rec_phi[k], rec_dphi[k], rec_lam[k] = t, phi, dphi, lam
        try:
            for recs, slot_values in zip(slot_recs, values):
                for rec, x in zip(recs, slot_values):
                    rec[k] = x
        except TypeError as exc:
            raise SimulationError(f"{exc} at t={float(t)!r}") from exc
        if k < n_steps:
            phi = rk4_step(lambda s, state: stage(s, state, lam_at(s, k))[1], t, phi, dt, dphi)
            if not all(map(math.isfinite, phi.tolist())):
                raise games.DivergenceError(last_valid_time=t)
    rec_u0, rec_eps, rec_u = (np.concatenate(recs, axis=1) for recs in slot_recs)
    for name, rec in (("u0", rec_u0), ("eps", rec_eps), ("u", rec_u), ("dphi", rec_dphi),
                      ("lambda", rec_lam)):
        bad_rows, bad_columns = np.nonzero(~np.isfinite(rec))
        if len(bad_rows):
            raise SimulationError(
                f"non-finite {name}_{bad_columns[0]} at t={float(rec_t[bad_rows[0]])!r}")
    return games.StateTrajectory(t=rec_t, phi=rec_phi, dphi=rec_dphi, u0=rec_u0, eps=rec_eps,
                                 u=rec_u, lam=rec_lam, eps_dims=tuple(map(np.size, values[1])),
                                 stage_tape=tape)


def _run(integrate, *args):
    """The bits of a run's records and stage tape, or its exception's type and message; the
    column leaf a non-finite record names is left out."""
    try:
        with np.errstate(all="ignore"):
            run = integrate(*args)
    except Exception as exc:  # the outcome compared
        return type(exc), re.sub(r"^(non-finite \w+) \(.*\)( at t=)", r"\1\2", str(exc))
    tape = run.stage_tape and (run.stage_tape.times, run.stage_tape.values)
    return _bits([run.t, run.phi, run.dphi, run.u0, run.eps, run.u, run.lam, run.eps_dims,
                  tape])


_STATES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-0.0, 1e308, -1e308, math.inf]))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(drawn=systems(), phi=st.lists(_STATES, min_size=2, max_size=2),
       lam=st.lists(_VALUES, min_size=2, max_size=2),
       slow=st.sampled_from([None, "schedule", "steps", "held"]), t0=st.floats(-1.0, 1.0),
       dt=st.sampled_from([0.25, 0.5, 1e-3]),
       n_steps=st.integers(1, 3), ordinary=st.booleans(), tape=st.booleans())
def test_generated_step_is_compile_stage_plus_rk4_step_bit_for_bit(drawn, phi, lam, slow, t0,
                                                                   dt, n_steps, ordinary, tape):
    system, use_coalitions = _ordinary(*drawn, lam[1]) if ordinary else drawn
    if slow == "schedule":
        slow = SlowControl(lambda t: [t * lam[0]])
    elif slow == "steps":
        slow = SlowControl(((0, (lam[0],)), (1, (lam[1],))))
    elif slow == "held":
        slow = SlowControl(((0, (lam[0],)),))
    args = (system, use_coalitions, phi[:system.dim], t0, t0 + n_steps * dt, dt, slow, tape)
    assert _run(games._integrate, *args) == _run(reference_integrate, *args)


@pytest.mark.parametrize("slow", [
    SlowControl(compile_vector(["1.0 + 0.5*t"], ("t",), {}, "system.slow.schedule")),
    SlowControl(((0, (1.0,)), (40, (2.0,))))], ids=["schedule", "steps"])
def test_a_replay_under_a_slow_parameter_is_bit_identical(slow):
    def leaf(path, sources, **vectors):
        return compile_vector(sources, ("t",), vectors, f"system.{path}")

    player = Player(leaf("players[0].signal", ["0.3*sin(t)"]),
                    FeedbackCoupling(leaf("players[0].coupling", ["u0[0] + eps[0]*phi[0]"],
                                          u0=1, phi=1, eps=1)),
                    EpsilonProcess(leaf("players[0].epsilon.truth", ["-0.5 + 0.2*phi[0]"],
                                        u0=1, phi=1), 1))
    system = InteractiveSystem(dim=1, players=(player,), dynamics=leaf(
        "dynamics", ["lambda[0] - phi[0] + u[0]"], phi=1, u=1, **{"lambda": 1}))
    run = simulate(system, [0.2], 0.0, 1.0, 0.01, slow=slow)
    assert len(run.stage_tape) == 4 * 100 + 2
    assert run.lam[0, 0] != run.lam[-1, 0]
    replayed = replay_with_recorded_eps(system, run, 0.0, 1.0, 0.01, slow=slow)
    assert replayed.phi.tobytes() == run.phi.tobytes()


@pytest.mark.parametrize("schedule, calls", [
    (((0, (1.0,)),), 1), (((5, (1.0,)),), 1), (((0, (1.0,)), (3, (2.0,))), 4 * 10 + 2)],
    ids=["one-entry", "one-entry-from-step-5", "two-entries"])
def test_a_one_entry_schedule_is_read_once_per_integration(monkeypatch, schedule, calls):
    # A run reads its slow control once per stage and once at the probe, unless one
    # vector holds for the whole run.
    counted = []
    value = SlowControl.value
    monkeypatch.setattr(SlowControl, "value",
                        lambda self, t, step: counted.append(step) or value(self, t, step))
    system = InteractiveSystem(dim=1, players=(
        Player(lambda t: [0.0], identity_coupling(), zero_epsilon()),),
        dynamics=compile_vector(["lambda[0] - phi[0] + u[0]"], ("t",),
                                {"phi": 1, "u": 1, "lambda": 1}, "system.dynamics"))
    slow = SlowControl(schedule)
    for runs in (1, 2):
        run = simulate(system, [0.2], 0.0, 0.1, 0.01, slow=slow)
        assert len(counted) == runs * calls
    assert run.lam[:3, 0].tolist() == [1.0, 1.0, 1.0]
    assert run.lam[-1, 0] == schedule[-1][1][0]


def test_recording_a_run_stays_memory_neutral():
    # The samples go straight into float64 arrays: a run's allocations peak at 1.55 times
    # the arrays it returns before the step was generated, and at about 6 times with a
    # list of scalar objects per column.
    scenario = load_scenario(SCENARIOS / "verbalize_fit.yaml")
    scenario.simulate()             # generates the stage and the step
    tracemalloc.start()
    try:
        run = scenario.simulate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in (run.t, run.phi, run.dphi, run.u0, run.eps, run.u, run.lam))
    assert len(run.t) == 12001 and peak <= 2.5 * arrays


def test_a_library_leaf_is_named_by_its_slot():
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: u[0],
                               players=(make_player(lambda t: [1.0 / t]),))
    with pytest.raises(SimulationError, match=r"^players\[0\]\.signal: float division by zero "
                                              r"at t=0\.0$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


def test_a_complex_control_of_a_callable_is_a_simulation_error():
    # The scenario dynamics read every control as np.float64; this one comes from a
    # callable, so the stage converts the controls as one concatenation.  A complex
    # vector names the callable that returned it, here the player's coupling, which turns
    # complex after the probe stage has checked its first value.
    dynamics = compile_vector(["u[0]"], ("t",), {"phi": 1, "u": 1}, "system.dynamics")
    player = make_player(lambda t: [0.1], known_form=lambda t, *_: [1j] if t > 0.015 else [0.1])
    system = InteractiveSystem(dim=1, dynamics=dynamics, players=(player,))
    with pytest.raises(SimulationError,
                       match=r"^players\[0\]\.coupling: complex value \[1j\] at t=0\.02$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


def test_the_probe_names_the_callable_that_first_returns_a_complex_value():
    # The coupling passes the signal's complex value on; the signal returned it first.
    dynamics = compile_vector(["u[0]"], ("t",), {"phi": 1, "u": 1}, "system.dynamics")
    system = InteractiveSystem(dim=1, dynamics=dynamics, players=(make_player(lambda t: [1j]),))
    with pytest.raises(SimulationError,
                       match=r"^players\[0\]\.signal: complex value \[1j\] at t=0\.0$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


def test_a_complex_signal_under_an_identity_coupling_names_the_signal():
    dynamics = compile_vector(["u[0]"], ("t",), {"phi": 1, "u": 1}, "system.dynamics")
    player = Player(lambda t: [1j], identity_coupling(), zero_epsilon())
    system = InteractiveSystem(dim=1, dynamics=dynamics, players=(player,))
    with pytest.raises(SimulationError,
                       match=r"^players\[0\]\.signal: complex value \[1j\] at t=0\.0$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


def test_a_complex_recorded_hidden_parameter_is_a_simulation_error():
    # Nothing reads this hidden parameter; the probe stage checks it where it is returned.
    player = make_player(lambda t: [0.1], eps_form=lambda t, u0, phi: [1j], eps_dim=1)
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: [0.0], players=(player,))
    with pytest.raises(SimulationError,
                       match=r"^players\[0\]\.epsilon: complex value \[1j\] at t=0\.0$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


@pytest.mark.parametrize("value, shown", [(np.array([0.1 + 1j]), "complex value [(0.1+1j)]"),
                                          (["0.1"], "value ['0.1'] is not real numeric"),
                                          (np.array(["0.1"]), "value ['0.1'] is not real numeric"),
                                          (np.array([0.1], dtype=object),
                                           "value [0.1] is not real numeric")],
                         ids=["complex128", "str-list", "str-array", "object"])
@pytest.mark.parametrize("slot", ["signal", "epsilon"])
def test_a_library_vector_that_is_not_real_numeric_is_named_at_its_sample(value, shown, slot):
    # A complex array is no longer recorded by its real part, nor a string parsed as a number;
    # the fault comes at the first sample whose value is bad, worded as the probe words it.
    def bad(t, *_):
        return value if t > 0.015 else [0.1]

    player = (make_player(bad) if slot == "signal" else
              make_player(lambda t: [0.1], eps_form=bad, eps_dim=1))
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: [0.0], players=(player,))
    with pytest.raises(SimulationError,
                       match=rf"^players\[0\]\.{slot}: {re.escape(shown)} at t=0\.02$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


@pytest.mark.parametrize("value", [["0.5"], np.array([0.5], dtype=object)])
def test_a_callable_derivative_that_is_not_real_numeric_is_named(value):
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: value,
                               players=(make_player(lambda t: [0.1]),))
    with pytest.raises(SimulationError,
                       match=rf"^dynamics: value {re.escape(repr(list(value)))} is not real "
                             r"numeric at t=0\.0$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


def test_a_hidden_parameter_wider_than_its_declared_dim_is_a_configuration_error():
    player = make_player(lambda t: [0.1], eps_form=lambda t, u0, phi: [0.1, 0.2], eps_dim=1)
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: [0.0], players=(player,))
    with pytest.raises(ConfigurationError, match=r"^players\[0\]\.epsilon: returned 2 values, "
                       r"but its declared dim is 1$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


@pytest.mark.parametrize("value, shape", [([], r"\(0,\)"), ([0.1, 0.2], r"\(2,\)"),
                                          (0.1, r"\(\)")], ids=["empty", "wider", "0-d"])
def test_a_derivative_not_of_the_system_width_is_a_configuration_error(value, shape):
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: value,
                               players=(make_player(lambda t: [0.1]),))
    with pytest.raises(ConfigurationError,
                       match=rf"^dynamics: returned shape {shape}, but the system's dim is 1$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


@pytest.mark.parametrize("value, shown", [(np.complex128(1j), "1j"),
                                          (np.array([], complex), r"\[\]")], ids=["0-d", "empty"])
def test_a_callable_derivative_turning_complex_after_the_probe_is_named(value, shown):
    system = InteractiveSystem(dim=1, dynamics=lambda t, *_: [0.1] if t < 0.015 else value,
                               players=(make_player(lambda t: [0.1]),))
    with pytest.raises(SimulationError, match=rf"^dynamics: complex value {shown} at t=0\.015$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


@pytest.mark.parametrize("value", [0.2, [0.1, 0.2], []], ids=["0-d", "wider", "empty"])
def test_a_callable_derivative_changing_shape_after_the_probe_is_named(value):
    system = InteractiveSystem(dim=1, dynamics=lambda t, *_: [0.1] if t < 0.015 else value,
                               players=(make_player(lambda t: [0.1]),))
    with pytest.raises(SimulationError, match=r"^dynamics: .* at t=0\.015$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


def test_a_complex_component_of_a_callable_derivative_is_a_simulation_error():
    # The callable's derivative is one leaf; its second component is the complex one.
    system = InteractiveSystem(
        dim=2, dynamics=lambda t, phi, u, lam: [phi[0], phi[0] * (-1) ** 0.5],
        players=(make_player(lambda t: [0.0]),))
    with pytest.raises(SimulationError, match=r"^dynamics: complex value \[\(1\+0j\), .*\+1j\)\] "
                                              r"at t=0\.0$"):
        simulate(system, [1.0, 0.0], 0.0, 0.1, 0.01)


def test_a_lambda_element_the_run_does_not_feed_is_named():
    # The run is given no slow control, so lambda is empty.
    dynamics = compile_vector(["lambda[0] - phi[0] + u[0]"], ("t",),
                              {"phi": 1, "u": 1, "lambda": 1}, "system.dynamics")
    system = InteractiveSystem(dim=1, dynamics=dynamics, players=(make_player(lambda t: [0.3]),))
    with pytest.raises(SimulationError, match=r"^lambda\[0\]: index 0 is out of bounds .* "
                                              r"at t=0\.0$"):
        simulate(system, [0.0], 0.0, 1.0, 0.01)


# The library slots a constant value can come from, and the leaf a fault there names.
_LIBRARY_LEAVES = {"signal": "players[0].signal", "epsilon": "players[0].epsilon",
                   "coupling": "players[0].coupling", "dynamics": "dynamics"}
_ELEMENTS = {"float64": np.float64, "float32": np.float32, "int": int, "bool": bool,
             "complex": complex, "str": str, "object": float}


@st.composite
def _constants(draw):
    """A constant library value: a list, tuple or array of one element type, or a 0-d one,
    of the slot's width or not."""
    kind = draw(st.sampled_from(sorted(_ELEMENTS)))
    numbers = st.sampled_from([0, 1, -2] if kind in ("int", "bool") else [0.0, -0.0, 0.1, -2.5])
    elements = [_ELEMENTS[kind](x) for x in draw(st.lists(numbers, min_size=0, max_size=2))]
    dtype = object if kind == "object" else np.dtype(_ELEMENTS[kind])
    shape = draw(st.sampled_from(["list", "tuple", "array", "scalar", "0-d array"]))
    if shape in ("scalar", "0-d array"):
        element = elements[0] if elements else _ELEMENTS[kind](1)
        return element if shape == "scalar" else np.array(element, dtype=dtype)
    return {"list": list, "tuple": tuple}.get(shape, lambda v: np.array(v, dtype=dtype))(elements)


def _library_system(slot, value):
    """phi' = u - phi under u = u0 + eps, eps = phi/4 and u0 = 1/2, with the callable of
    ``slot`` returning ``value`` instead.  The others return float64 arrays, so numpy
    promotes a float32 value they read to float64 (a Python float would not)."""
    callables = {"signal": lambda t: np.array([0.5]),
                 "epsilon": lambda t, u0, phi: np.array([0.25 * phi[0]]),
                 "coupling": lambda t, u0, phi, derivs, eps, lam: np.array([u0[0] + eps[0]]),
                 "dynamics": lambda t, phi, u, lam: [u[0][0] - phi[0]]}
    callables[slot] = lambda *args: value
    player = make_player(callables["signal"], known_form=callables["coupling"],
                         eps_form=callables["epsilon"], eps_dim=1)
    return InteractiveSystem(dim=1, dynamics=callables["dynamics"], players=(player,))


def _ending(slot, value):
    """The bits of the run's records, or its exception's type, the leaf it names and the
    time: which Python error a callable raised inside is the callable's own affair.  The
    run keeps no stage tape, which holds the hidden parameters as the callable returned
    them."""
    outcome = _run(simulate, _library_system(slot, value), [1.0], 0.0, 0.02, 0.01, None, False)
    if isinstance(outcome[0], type):
        return outcome[0], outcome[1].partition(":")[0], re.findall(r" at t=\S+$", outcome[1])
    return outcome


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(slot=st.sampled_from(sorted(_LIBRARY_LEAVES)), value=_constants())
def test_a_library_constant_runs_as_its_float_array_or_fails_naming_its_slot(slot, value):
    # pytest turns every warning into an error, so no case may warn either.
    outcome = _ending(slot, value)
    failed = isinstance(outcome[0], type)
    assert not failed or (outcome[0] in (SimulationError, ConfigurationError)
                          and outcome[1] in _LIBRARY_LEAVES.values()), outcome
    try:     # a complex value has no float array to run instead
        real = None if np.iscomplexobj(value) else np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        real = None
    if real is None or outcome != _ending(slot, real):
        assert failed and outcome[1] == _LIBRARY_LEAVES[slot], outcome


# Values of a slot's width, or 0-d, whose dtype is not real numeric.
_NOT_REAL = [[0.1 + 1j], np.array([1j]), np.complex128(0.5), [complex(0.5)], ["0.1"],
             np.array(["0.1"]), "0.1", np.array([b"0.1"]), np.array([0.1], dtype=object),
             [Decimal("0.1")]]


def _turning_system(slot, use_coalitions, value, after, width=1):
    """phi' = u - phi under u = u0 + eps, eps = phi/4 and u0 = 1/2, every vector of
    ``width`` elements, in a player's slot or in a one-member coalition's, with the callable
    of ``slot`` returning ``value`` at every stage time above ``after``."""
    callables = {"signal": lambda t: np.full(width, 0.5),
                 "epsilon": lambda t, u0, phi: 0.25 * phi,
                 "coupling": lambda t, u0, phi, derivs, eps, lam: np.ravel(u0) + eps,
                 "dynamics": lambda t, phi, u, lam: u[0] - phi}
    good = callables[slot]
    callables[slot] = lambda t, *args: value if t > after else good(t, *args)
    slot_forms = {"known_form": callables["coupling"], "eps_form": callables["epsilon"],
                  "eps_dim": width}
    if not use_coalitions:
        return InteractiveSystem(dim=width, dynamics=callables["dynamics"],
                                 players=(make_player(callables["signal"], **slot_forms),))
    coalition = Coalition((1,), FeedbackCoupling(callables["coupling"]),
                          EpsilonProcess(callables["epsilon"], width))
    return InteractiveSystem(dim=width, dynamics=callables["dynamics"],
                             players=(make_player(callables["signal"]),),
                             coalitions=(coalition,))


# Real values of a shape other than the probe's width: wider, narrower, 0-d where the width
# is 2 or more, and 2-d.
_MISSHAPEN = {1: [[0.5, 0.5], [], [[0.5]]], 2: [[0.5] * 3, [0.5], 0.5, [[0.5, 0.5]]]}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(slot=st.sampled_from(sorted(_LIBRARY_LEAVES)), use_coalitions=st.booleans(),
       width=st.sampled_from([1, 2]), bad=st.integers(0, len(_NOT_REAL) + 3),
       k=st.integers(0, 2), stage=st.sampled_from(["k2", "k4"]), dt=st.sampled_from([0.01, 0.25]))
def test_a_library_value_turning_bad_at_an_inner_stage_is_named_by_its_callable(
        slot, use_coalitions, width, bad, k, stage, dt):
    # The value is first returned at the k2 stage (t + dt/2) or the k4 stage (t + dt) of
    # step k, which no probe and no record sees; every stage checks it where it is returned,
    # before another callable reads it.
    values = _NOT_REAL + _MISSHAPEN[width]
    bad %= len(values)
    value = values[bad]
    tk = 0.0 + k * dt
    after, t_bad = (tk + dt / 4, tk + dt / 2.0) if stage == "k2" else (tk + 3 * dt / 4, tk + dt)
    system = _turning_system(slot, use_coalitions, value, after, width)
    leaf = ("players[0].signal" if slot == "signal" else "dynamics" if slot == "dynamics"
            else f"{'coalitions' if use_coalitions else 'players'}[0].{slot}")
    fault = ("complex value .*|value .* is not real numeric" if bad < len(_NOT_REAL) else
             rf"returned shape {re.escape(str(np.shape(value)))}, not \({width},\)")
    integrate = coalition_simulate if use_coalitions else simulate
    with pytest.raises(SimulationError) as info:
        integrate(system, [1.0] * width, 0.0, 3 * dt, dt, record_tape=False)
    assert re.fullmatch(rf"{re.escape(leaf)}: ({fault}) at t={re.escape(repr(t_bad))}",
                        str(info.value)), str(info.value)


def test_every_library_call_in_the_stage_and_the_step_is_checked(monkeypatch):
    # A call of a bound object (_o<n>) is a library callable's: every one, at the probe and
    # at each of the step's four stages, is wrapped in _numeric on a line naming its slot.
    compiled, function = [], expr.Emitter.function

    def recording(self, lines):
        compiled.append(list(lines))
        return function(self, lines)

    monkeypatch.setattr(expr.Emitter, "function", recording)
    for use_coalitions in (False, True):
        for slot in _LIBRARY_LEAVES:
            system = _turning_system(slot, use_coalitions, [0.5], math.inf)
            (coalition_simulate if use_coalitions else simulate)(system, [1.0], 0.0, 0.02, 0.01)
    ordinary = associated_ordinary_game(_turning_system("signal", False, [0.5], math.inf),
                                        eps_policies=[lambda t: [0.1]])
    simulate(ordinary, [1.0], 0.0, 0.02, 0.01)
    calls = {"stage": 0, "step": 0}
    for lines in compiled:
        name = lines[0][0].split()[1].partition("(")[0]
        for text, leaf in lines:
            for match in re.finditer(r"(\S*)\b_o\d+\(", text):
                assert match.group(1).endswith("_numeric(") and leaf, (name, text, leaf)
                calls[name] += 1
    assert calls == {"stage": 36, "step": 4 * 36}, calls     # four callables in each of 9 systems


# ---------------------------------------------------------------------------
# One compilation per system
# ---------------------------------------------------------------------------

@pytest.fixture
def compiled(monkeypatch):
    """The systems the stage and the step builders compile, one entry per compilation."""
    systems = {"compile_stage": [], "compile_step": []}

    def counting(name):
        builder = getattr(games, name)

        def count(system, *args):
            systems[name].append(system)
            return builder(system, *args)
        monkeypatch.setattr(games, name, count)

    counting("compile_stage")
    counting("compile_step")
    return systems


def test_a_pipeline_compiles_each_system_once(compiled):
    system = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: u[0],
        players=(make_player(lambda t: np.array([0.1]),
                             known_form=lambda t, u0, phi, derivs, eps, lam: u0 + eps * phi,
                             eps_form=lambda t, u0, phi: np.array([-phi[0]]), eps_dim=1),))
    report = strategic_pipeline(system, [1.0], 0.0, 1.0, 0.01,
                                [lambda t: np.array([-1.0])], horizon=0.05)
    assert report.short_mask.sum() == 100       # 20 short-term segments
    # The truth, the long-term ordinary game and the one anchored game.
    stages, steps = compiled["compile_stage"], compiled["compile_step"]
    assert len(stages) == len({id(s) for s in stages}) == 3
    assert list(map(id, steps)) == list(map(id, stages))


def test_a_pipeline_keeps_no_stage_tape(monkeypatch):
    # Nothing reads a pipeline run's stage tape, the truth run's included.
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs.get("record_tape", True))
        return simulate(*args, **kwargs)

    monkeypatch.setattr("tactica.prediction.simulate", recording)
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: u[0] - phi[0],
                               players=(make_player(lambda t: [0.1]),))
    strategic_pipeline(system, [1.0], 0.0, 0.2, 0.01, [lambda t: []], horizon=0.05)
    assert calls == [False] * 6     # the truth, the long-term run and four segments


def test_a_synthesized_run_compiles_each_system_once(compiled):
    plan = load_scenario(SCENARIOS / "tactics_coupled.yaml").tactics_plan()
    runs = run_synthesized(plan.games, plan.rule)
    assert sum(len(r.windows) for r in runs) >= 10
    stages, steps = compiled["compile_stage"], compiled["compile_step"]
    assert len(stages) == len({id(g.system) for g in plan.games})
    assert list(map(id, steps)) == list(map(id, stages))


def test_only_called_expressions_are_compiled(monkeypatch):
    bodies = []
    function = expr.Emitter.function

    def counting(emitter, lines):
        # Expression and vector functions only; the stage and step go through the emitter too.
        if lines[0][0].startswith(("def expression(", "def vector(")):
            bodies.append("\n".join(text for text, _ in lines))
        return function(emitter, lines)

    monkeypatch.setattr(expr.Emitter, "function", counting)
    # The stage inlines every system leaf.
    load_scenario(SCENARIOS / "two_player.yaml").simulate()
    assert bodies == []
    # A comment rule is called once per window, and compiled at the first call.
    plan = load_scenario(SCENARIOS / "tactics_commented.yaml").tactics_plan()
    assert bodies == []
    runs = run_synthesized(plan.games, plan.rule)
    assert len(runs[0].windows) == 5
    assert len(bodies) == 1 and "_v_theta[0]" in bodies[0]


def _builtin_calls(node, scope=()):
    """(enclosing class and function, name) of each call of exec, eval or the builtin
    compile under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                and child.func.id in ("exec", "eval", "compile"):
            yield ".".join(scope), child.func.id
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
        yield from _builtin_calls(child, (*scope, child.name) if named else scope)


def test_every_generated_function_runs_from_the_one_emitter():
    calls = sorted((path.name, *call) for path in Path(games.__file__).parent.glob("*.py")
                   for call in _builtin_calls(ast.parse(path.read_text())))
    assert calls == [("expr.py", "Emitter.function", "compile"),
                     ("expr.py", "Emitter.function", "exec")]
    system, initial, _ = load_scenario(SCENARIOS / "two_player.yaml").build_system()
    stage = compile_stage(system)
    values, _ = stage(0.0, initial, games._EMPTY)
    dims = (*(tuple(map(np.size, block)) for block in values), 0)
    functions = [compile_expression("sin(t)", ("t",)), compile_vector(["t"], ("t",))._compiled[0],
                 stage, compile_step(system, False, dims)[0],
                 compile_symbols((WeylSymbol((WeylTerm(1.0, (0,)),)),), 1, 2),
                 _compile_coefficient_map([(0, (), [(1.0, (0,))])])]
    assert [f.__globals__["__builtins__"] for f in functions] == [{}] * 6
