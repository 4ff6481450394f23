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
                           SlowControl, StageTape, associated_ordinary_game, compile_stage,
                           compile_step, identity_coupling, replay_with_recorded_eps, rk4_step,
                           simulate, step_count, zero_epsilon)
from tactica.prediction import predict, rolling_predictions, strategic_pipeline
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
       slow=st.sampled_from([None, "schedule", "steps"]), t0=st.floats(-1.0, 1.0),
       dt=st.sampled_from([0.25, 0.5, 1e-3]),
       n_steps=st.integers(1, 3), ordinary=st.booleans(), tape=st.booleans())
def test_generated_step_is_compile_stage_plus_rk4_step_bit_for_bit(drawn, phi, lam, slow, t0,
                                                                   dt, n_steps, ordinary, tape):
    system, use_coalitions = _ordinary(*drawn, lam[1]) if ordinary else drawn
    if slow == "schedule":
        slow = SlowControl(lambda t: [t * lam[0]])
    elif slow == "steps":
        slow = SlowControl(((0, (lam[0],)), (1, (lam[1],))))
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
    # vector names the callable that returned it, here the player's coupling.
    dynamics = compile_vector(["u[0]"], ("t",), {"phi": 1, "u": 1}, "system.dynamics")
    system = InteractiveSystem(dim=1, dynamics=dynamics, players=(make_player(lambda t: [1j]),))
    with pytest.raises(SimulationError,
                       match=r"^players\[0\]\.coupling: complex value \[1j\] at t=0\.0$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


def test_a_complex_signal_under_an_identity_coupling_names_the_signal():
    dynamics = compile_vector(["u[0]"], ("t",), {"phi": 1, "u": 1}, "system.dynamics")
    player = Player(lambda t: [1j], identity_coupling(), zero_epsilon())
    system = InteractiveSystem(dim=1, dynamics=dynamics, players=(player,))
    with pytest.raises(SimulationError,
                       match=r"^players\[0\]\.signal: complex value \[1j\] at t=0\.0$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


def test_a_complex_recorded_hidden_parameter_is_a_simulation_error():
    # The step runs without builtins: its record writes catch the stage's fault types.
    player = make_player(lambda t: [0.1], eps_form=lambda t, u0, phi: [1j], eps_dim=1)
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: [0.0], players=(player,))
    with pytest.raises(SimulationError, match=r"^players\[0\]\.epsilon: Cannot cast array data "
                       r"from dtype\('complex128'\) .* 'same_kind' at t=0\.0$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


@pytest.mark.parametrize("value, dtype", [(np.array([0.1 + 1j]), "complex128"),
                                          (["0.1"], "<U3"), (np.array(["0.1"]), "<U3"),
                                          (np.array([0.1], dtype=object), "O")])
@pytest.mark.parametrize("slot", ["signal", "epsilon"])
def test_a_library_vector_that_is_not_real_numeric_is_named_at_its_sample(value, dtype, slot):
    # A complex array is no longer recorded by its real part, nor a string parsed as a number;
    # the fault comes at the first sample whose value is bad.
    def bad(t, *_):
        return value if t > 0.015 else [0.1]

    player = (make_player(bad) if slot == "signal" else
              make_player(lambda t: [0.1], eps_form=bad, eps_dim=1))
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: [0.0], players=(player,))
    with pytest.raises(SimulationError, match=rf"^players\[0\]\.{slot}: Cannot cast array data "
                       rf"from dtype\('{re.escape(dtype)}'\) .* at t=0\.02$"):
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


def test_a_complex_component_of_a_callable_derivative_is_a_simulation_error():
    # The callable's derivative is one leaf; its second component is the complex one.
    system = InteractiveSystem(
        dim=2, dynamics=lambda t, phi, u, lam: [phi[0], phi[0] * (-1) ** 0.5],
        players=(make_player(lambda t: [0.0]),))
    with pytest.raises(SimulationError, match=r"^dynamics: complex value \[\(1\+0j\), .*\+1j\)\] "
                                              r"at t=0\.0$"):
        simulate(system, [1.0, 0.0], 0.0, 0.1, 0.01)


@pytest.mark.parametrize("call", ["simulate", "rolling_predictions"])
def test_a_lambda_element_the_run_does_not_feed_is_named(call):
    # Neither call is given a slow control, so lambda is empty.
    dynamics = compile_vector(["lambda[0] - phi[0] + u[0]"], ("t",),
                              {"phi": 1, "u": 1, "lambda": 1}, "system.dynamics")
    system = InteractiveSystem(dim=1, dynamics=dynamics, players=(make_player(lambda t: [0.3]),))
    with pytest.raises(SimulationError, match=r"^lambda\[0\]: index 0 is out of bounds .* "
                                              r"at t=0\.0$"):
        if call == "simulate":
            simulate(system, [0.0], 0.0, 1.0, 0.01)
        else:
            run = simulate(system, [0.0], 0.0, 1.0, 0.01, slow=games.SlowControl(lambda t: [1.0]))
            rolling_predictions(system, run, {1: lambda t: [0.3]}, [0.0], 0.1, 0.01)


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


RECORDS = ("t", "phi", "dphi", "u0", "eps", "u", "lam")


def test_rolling_predictions_compile_the_assumed_system_once(compiled):
    scenario = load_scenario(SCENARIOS / "two_player.yaml")
    system, _, _ = scenario.build_system()
    run = scenario.simulate()
    compiled["compile_stage"].clear()
    compiled["compile_step"].clear()
    assumed = {2: compile_vector(["0.1 + 0.05*t"], ("t",), path="assumed[0]")}
    bases = run.t[:1900:100]
    predictions = rolling_predictions(system, run, assumed, bases, 0.1, 0.001)
    assert len(predictions) == 19
    assert len(compiled["compile_stage"]) == len(compiled["compile_step"]) == 1
    # Each prediction is the one predict gives from its base alone.
    for base, prediction in zip(bases, predictions):
        k = run.index_of(base)
        alone = predict(system, assumed, run.phi[k], float(run.t[k]), 0.1, 0.001)
        assert prediction.base_time == alone.base_time and prediction.horizon == alone.horizon
        assert _bits([getattr(prediction.trajectory, name) for name in RECORDS]) == \
            _bits([getattr(alone.trajectory, name) for name in RECORDS])


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
