"""The generated stage against the per-slot composition it replaced.

``reference_stage`` evaluates one stage the way the integrator did before the stage
was generated: each leaf is a separate callable, a scenario's coalition forms and
dynamics read ``np.concatenate(..., dtype=float)`` of the controls, and an associated
ordinary game calls the original couplings from inside its dynamics.  Its faults are
the stage's: an arithmetic, type or value error, or a complex derivative, which is a
type error rather than its real part.
"""

import math
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_expr import _grammar

from tactica import expr, games
from tactica.expr import VectorExpression, compile_vector
from tactica.games import (Coalition, EpsilonProcess, FeedbackCoupling, InteractiveSystem,
                           OrdinaryDynamics, Player, SimulationError, associated_ordinary_game,
                           compile_stage, simulate, zero_epsilon)
from tactica.prediction import rolling_predictions, strategic_pipeline
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


def _sources(draw, leaves, count):
    tree = st.recursive(st.sampled_from(leaves + _CONSTANTS), _grammar, max_leaves=5)
    return draw(st.lists(tree, min_size=count, max_size=count))


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
    system, use_coalitions = drawn
    slots = system.coalitions if use_coalitions else system.players
    if ordinary and not any(s.coupling.derivative_order for s in slots):
        # The hidden parameters become controls, held at values drawn with the state.
        held = [np.full(s.epsilon.dim, phi[1]) for s in slots]
        system = associated_ordinary_game(
            system, eps_policies=[lambda t, _v=v: _v for v in held],
            use_coalitions=use_coalitions)
        use_coalitions = False
    state, lam = np.array(phi[:system.dim]), np.array([lam])
    assert (_outcome(compile_stage(system, use_coalitions), t, state, lam)
            == _outcome(reference_stage(system, use_coalitions), t, state, lam))


def test_a_library_leaf_is_named_by_its_slot():
    system = InteractiveSystem(dim=1, dynamics=lambda t, phi, u, lam: u[0],
                               players=(make_player(lambda t: [1.0 / t]),))
    with pytest.raises(SimulationError, match=r"^players\[0\]\.signal: float division by zero "
                                              r"at t=0\.0$"):
        simulate(system, [1.0], 0.0, 0.1, 0.01)


def test_a_complex_control_of_a_callable_is_a_simulation_error():
    # The scenario dynamics read every control as np.float64; this one comes from a
    # callable, so the stage converts the controls as one concatenation.
    dynamics = compile_vector(["u[0]"], ("t",), {"phi": 1, "u": 1}, "system.dynamics")
    system = InteractiveSystem(dim=1, dynamics=dynamics, players=(make_player(lambda t: [1j]),))
    with pytest.raises(SimulationError, match=r"^system\.dynamics: Cannot cast array data from "
                                              r"dtype\('complex128'\) .* at t=0\.0$"):
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
    """The systems the stage builder compiles, one entry per compilation."""
    systems = []

    def counting(system, use_coalitions=False):
        systems.append(system)
        return compile_stage(system, use_coalitions)

    monkeypatch.setattr(games, "compile_stage", counting)
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
    assert len(compiled) == len({id(s) for s in compiled}) == 3


def test_a_synthesized_run_compiles_each_system_once(compiled):
    plan = load_scenario(SCENARIOS / "tactics_coupled.yaml").tactics_plan()
    runs = run_synthesized(plan.games, plan.rule)
    assert sum(len(r.windows) for r in runs) >= 10
    assert len(compiled) == len({id(g.system) for g in plan.games})


def test_only_called_expressions_are_compiled(monkeypatch):
    bodies = []
    compile_ = expr._compile
    monkeypatch.setattr(expr, "_compile",
                        lambda body, arguments: bodies.append(body) or compile_(body, arguments))
    # The stage inlines every system leaf.
    load_scenario(SCENARIOS / "two_player.yaml").simulate()
    assert bodies == []
    # A comment rule is called once per window, and compiled at the first call.
    plan = load_scenario(SCENARIOS / "tactics_commented.yaml").tactics_plan()
    assert bodies == []
    runs = run_synthesized(plan.games, plan.rule)
    assert len(runs[0].windows) == 5
    assert len(bodies) == 1 and "_v_theta[0]" in bodies[0]
