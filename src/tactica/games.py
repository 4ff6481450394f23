"""Differential interactive systems with hidden feedback parameters.

A system couples each player's independent (pure) control with the state
through a known coupling form and a hidden parameter process.  Simulation
evaluates the chain pure control -> hidden parameter -> interactive control ->
vector field consistently at every integrator stage and records all four
traces.  A fixed-step classical 4th-order scheme is used throughout so that
recorded runs can be replayed bit-identically.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .expr import _FUNC_NS, VectorExpression, _emit, parse


class ConfigurationError(ValueError):
    """A system, scenario or argument is malformed."""


class SimulationError(RuntimeError):
    """Raised when a run cannot be completed."""


class DivergenceError(SimulationError):
    """State became non-finite; carries the last time with a finite state."""

    def __init__(self, last_valid_time: float):
        super().__init__(f"state diverged; last finite state at t={float(last_valid_time)!r}")
        self.last_valid_time = last_valid_time


_EMPTY = np.zeros(0)


def real_array(values, leaf: str, t: float | None = None) -> np.ndarray:
    """``np.asarray(values, dtype=float)``; a complex value is a :class:`SimulationError`
    naming ``leaf`` (and the time ``t``, if given) instead of passing as its real part."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        at = "" if t is None else f" at t={float(t)!r}"
        raise SimulationError(f"{leaf}: complex value {arr.tolist()!r}{at}")
    return np.asarray(arr, dtype=float)


def whole_steps(t0: float, t1: float, dt: float) -> int | None:
    """The number of ``dt`` steps spanning [t0, t1], or None unless it is a positive
    whole number (to 1e-9 relative to ``t1``)."""
    ratio = (t1 - t0) / dt
    n = int(round(ratio)) if abs(ratio) < 2.0 ** 53 else 0
    return n if n >= 1 and abs(t0 + n * dt - t1) <= 1e-9 * max(1.0, abs(t1)) else None


def step_count(t0: float, t1: float, dt: float) -> int:
    """The number of ``dt`` steps spanning [t0, t1]; raises unless it is a whole number."""
    if not t0 < t1:
        raise ConfigurationError("t0 must be strictly below t1")
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    n_steps = whole_steps(t0, t1, dt)
    if n_steps is None:
        raise ConfigurationError("t1 - t0 must be an integer number of steps")
    return n_steps


@lru_cache(maxsize=64)
def _rk4_weights(dt: float) -> tuple[np.ndarray, ...]:
    """``dt/2``, ``dt``, ``2`` and ``dt/6`` as 0-d arrays: numpy multiplies an array by a
    0-d array faster than by a Python float, and to the same bits."""
    return tuple(np.array(w) for w in (dt / 2.0, dt, 2.0, dt / 6.0))


def rk4_step(f: Callable, t: float, y: np.ndarray, dt: float, k1: np.ndarray) -> np.ndarray:
    """One classical 4th-order step of ``y' = f(t, y)`` from ``y``, given ``k1 = f(t, y)``.
    Stage times stay Python floats."""
    half, step, two, sixth = _rk4_weights(dt)
    mid = t + dt / 2.0
    k2 = f(mid, y + half * k1)
    k3 = f(mid, y + half * k2)
    k4 = f(t + dt, y + step * k3)
    return y + sixth * (k1 + two * k2 + two * k3 + k4)


@dataclass(frozen=True)
class EpsilonProcess:
    """Hidden feedback parameter as a function of pure control and state.

    ``form(t, u0, phi)`` returns the parameter vector; for coalition slots
    ``u0`` is the tuple of member pure controls.  A scenario's form is a
    :class:`VectorExpression` that the stage inlines; its ``u0`` is then the flat
    vector of the members' controls.  ``ground_truth`` distinguishes the simulation
    truth from fitted estimates, which must not drive a truth run.
    """

    form: Callable
    dim: int
    ground_truth: bool = True


def _no_epsilon(t, u0, phi):
    return _EMPTY


def zero_epsilon() -> EpsilonProcess:
    return EpsilonProcess(form=_no_epsilon, dim=0)


@dataclass(frozen=True)
class FeedbackCoupling:
    """Known coupling producing the interactive control.

    ``known_form(t, u0, phi, derivs, eps, lam)`` -> control vector, or a
    scenario's :class:`VectorExpression` over ``t, u0, phi, eps, lambda``, which
    the stage inlines.  ``derivative_order`` 0 or 1; order 1 is evaluated by
    substituting the vector field for the state derivative (one substitution
    pass, seeded with a zero derivative).
    """

    known_form: Callable
    derivative_order: int = 0

    def __post_init__(self):
        if self.derivative_order not in (0, 1):
            raise ConfigurationError(
                f"derivative order {self.derivative_order} exceeds the supported "
                "substitution depth (max 1)")


def _identity(t, u0, phi, derivs, eps, lam):
    return u0


def identity_coupling() -> FeedbackCoupling:
    return FeedbackCoupling(known_form=_identity)


@dataclass(frozen=True)
class Player:
    """One player: its independent (pure) control signal ``signal(t)`` (or a scenario's
    :class:`VectorExpression` over ``t``), the coupling that makes it interactive, and
    its hidden parameter."""

    signal: Callable[[float], Sequence[float]]
    coupling: FeedbackCoupling
    epsilon: EpsilonProcess


@dataclass(frozen=True)
class Coalition:
    """Subset of players whose pure controls feed one coupled control slot.

    The coupling's and the hidden parameter's ``u0`` argument is the tuple of
    member pure controls in member order.
    """

    members: tuple[int, ...]
    coupling: FeedbackCoupling
    epsilon: EpsilonProcess = field(default_factory=zero_epsilon)


@dataclass(frozen=True)
class InvariantConstraint:
    """Time-independent quantity of the indeterminate game variant.

    ``fn(t, u, u0, eps, phi, dphi)`` -> scalar, with flat concatenated control
    rows and the recorded state derivative.
    """

    fn: Callable
    label: str = ""


@dataclass(frozen=True)
class InteractiveSystem:
    """Evolution law with per-player feedback couplings.

    ``dynamics(t, phi, controls, lam)`` maps the state and the list of per-slot
    interactive control vectors to the state derivative.  ``lam`` is the
    slow-parameter vector (empty when absent).  A scenario's dynamics is a
    :class:`VectorExpression` over ``t, phi, u, lambda`` with ``u`` the flat control
    vector, and an associated ordinary game's is an :class:`OrdinaryDynamics`; the
    stage inlines both.  The stage is compiled at the first run of each slot kind
    and kept here.
    """

    dim: int
    dynamics: Callable | VectorExpression | OrdinaryDynamics
    players: tuple[Player, ...]
    coalitions: tuple[Coalition, ...] = ()
    invariant_constraints: tuple[InvariantConstraint, ...] = ()
    _stages: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.players)
        if n == 0:
            raise ConfigurationError("a system needs at least one player")
        for c in self.coalitions:
            if not c.members:
                raise ConfigurationError("coalition member set must be nonempty")
            for m in c.members:
                if not 1 <= m <= n:
                    raise ConfigurationError(
                        f"coalition member index {m} outside [1..{n}]")

    @property
    def n_players(self) -> int:
        return len(self.players)


@dataclass(frozen=True)
class SlowControl:
    """External slow parameter; continuous map of time or a held step schedule."""

    schedule: Callable[[float], Sequence[float]] | tuple[tuple[int, tuple], ...]

    def __post_init__(self):
        if not callable(self.schedule):
            steps = [s for s, _ in self.schedule]
            if any(b <= a for a, b in zip(steps, steps[1:])):
                raise ConfigurationError("discrete schedule step indices must be strictly increasing")

    def value(self, t: float, step: int) -> np.ndarray:
        if callable(self.schedule):
            return real_array(self.schedule(t), getattr(self.schedule, "path", "slow"), t)
        pos = bisect.bisect_right(self.schedule, step, key=itemgetter(0)) - 1
        return np.asarray(self.schedule[max(pos, 0)][1], dtype=float)


@dataclass
class StageTape:
    """Hidden-parameter values at every integrator stage, in evaluation order: per
    slot, the value its epsilon form produced."""

    times: list[float] = field(default_factory=list)
    values: list[tuple] = field(default_factory=list)

    def __len__(self):
        return len(self.times)


class TapeSignal:
    """Single-shot policy replaying one slot of a recorded stage tape."""

    def __init__(self, tape: StageTape, slot: int):
        self._tape = tape
        self._slot = slot
        self._cursor = 0

    def __call__(self, t: float):
        if self._cursor >= len(self._tape):
            raise SimulationError("stage tape exhausted; replay must use the same grid")
        recorded_t = self._tape.times[self._cursor]
        if abs(recorded_t - t) > 1e-9 * max(1.0, abs(t)):
            raise SimulationError(
                f"stage tape misaligned: expected t={recorded_t!r}, got t={t!r}")
        value = self._tape.values[self._cursor][self._slot]
        self._cursor += 1
        return value


@dataclass(frozen=True)
class StateTrajectory:
    """Uniformly sampled run: state, controls, hidden parameters, derivatives."""

    t: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    u0: np.ndarray
    eps: np.ndarray
    u: np.ndarray
    lam: np.ndarray
    eps_dims: tuple[int, ...]
    stage_tape: StageTape | None = None

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if len(self.t) > 1 else 0.0

    def index_of(self, time: float) -> int:
        """Grid index of ``time``; raises if it is not a sample point."""
        if len(self.t) == 1:
            idx = 0
        else:
            idx = int(round((time - self.t[0]) / self.dt))
        if idx < 0 or idx >= len(self.t) or abs(self.t[idx] - time) > 1e-9 * max(1.0, abs(time)):
            raise ConfigurationError(f"time {time!r} is not on the sample grid")
        return idx

    def eps_of(self, slot: int) -> np.ndarray:
        """Hidden-parameter trace of a control slot (0-based)."""
        start = sum(self.eps_dims[:slot])
        return self.eps[:, start:start + self.eps_dims[slot]]


@dataclass(frozen=True)
class OrdinaryDynamics:
    """The dynamics of an associated ordinary game.

    The game's first ``system.n_players`` controls are the pure controls of
    ``system``, the others its former hidden parameters, one per slot; ``system``'s
    couplings make its interactive controls of them, and its dynamics the derivative.
    """

    system: InteractiveSystem
    use_coalitions: bool = False


# An element as the np.float64 that np.concatenate(..., dtype=float) makes of it: a
# float64 is kept, a float converted, and anything else concatenated, so that a complex
# value is the same TypeError.
_AS_FLOAT64 = ("{0} if {0}.__class__ is _F64 else _F64({0}) if {0}.__class__ is float "
               "else _floats(([{0}],))[0]")


def _floats(vectors) -> np.ndarray:
    """``np.concatenate(vectors, dtype=float)``.  Not called directly by the stage, which
    runs without builtins: numpy imports the error of a complex value through them."""
    return np.concatenate(vectors, dtype=float)


def _real(values, leaves: Sequence[str]) -> np.ndarray:
    """``np.asarray(values, dtype=float)`` for a derivative that is not float64 already.  A
    complex value is a TypeError naming its leaf: an inlined vector's first complex
    component, or the one leaf of a callable's whole derivative."""
    arr = np.asarray(values)
    if not np.iscomplexobj(arr):
        return np.asarray(arr, dtype=float)
    if len(leaves) < len(arr):
        raise TypeError(f"{leaves[0]}: complex value {arr.tolist()!r}")
    k = next(i for i, x in enumerate(values) if np.iscomplexobj(x))
    raise TypeError(f"{leaves[k]}: complex value {complex(values[k])!r}")


def _listed(vector: _Vector) -> str:
    """``vector`` as an expression: its local, or a list of its elements."""
    return vector.name or f"[{', '.join(vector.items)}]"


def _fault(exc: BaseException, t: float, leaves: dict) -> SimulationError:
    """The error of a stage fault, naming the leaf evaluated on the failing line."""
    leaf, t = leaves.get(exc.__traceback__.tb_lineno), float(t)
    return SimulationError(f"{leaf}: {exc} at t={t!r}" if leaf else f"{exc} at t={t!r}")


class _Vector:
    """A vector the stage computes: the local holding it and, when the stage computes it
    element by element, the element locals and the leaf each comes from.  An inlined
    leaf's list gets a local only when a callable reads it whole."""

    def __init__(self, name: str | None, items: list[str] | None = None,
                 leaves: Sequence[str] = ()):
        self.name, self.items, self.leaves = name, items, leaves

    def __getitem__(self, i: int) -> str:
        return f"{self.name}[{i}]" if self.items is None else self.items[i]


class _StageSource:
    """The straight-line source of one stage, and the leaf each of its lines evaluates.

    A scenario leaf (a :class:`VectorExpression`) is inlined one component per line,
    its grammar variables read from locals; any other callable is called by name.
    """

    def __init__(self):
        self.body: list[str] = []
        self.leaves: dict[int, str] = {}        # line number -> "path 'source'"
        self.elements: dict[tuple[str, int], str] = {}
        self.namespace = {"__builtins__": {}, **_FUNC_NS, "_F64": np.float64,
                          "_asarray": np.asarray, "_floats": _floats, "float": float,
                          "_F64D": np.dtype(float), "_real": _real, "_EMPTY": _EMPTY,
                          "_faults": (ArithmeticError, IndexError, TypeError, ValueError),
                          "_fault": _fault, "_leaves": self.leaves}

    def line(self, stem: str, value: str, leaf: str = "") -> str:
        """Append ``<fresh local> = value``; return the local."""
        name = f"{stem}{len(self.body)}"
        if leaf:
            self.leaves[len(self.body) + 3] = leaf      # below the def and try lines
        self.body.append(f"{name} = {value}")
        return name

    def ref(self, obj) -> str:
        name = f"_o{len(self.namespace)}"
        self.namespace[name] = obj
        return name

    def element(self, name: str, i: int) -> str:
        """``phi[i]`` or ``lambda[i]`` (the stage's ``lam``), read into a local at its first
        use on a line of that leaf, so a missing element fails naming it."""
        if (name, i) not in self.elements:
            vector = "lam" if name == "lambda" else name
            self.elements[name, i] = self.line(vector[0], f"{vector}[{i}]", f"{name}[{i}]")
        return self.elements[name, i]

    def inline(self, leaf: VectorExpression, **vectors: _Vector) -> _Vector:
        def read(name: str, index: int | None) -> str:
            if index is None:
                return "t"
            if name in ("phi", "lambda"):
                return self.element(name, index)
            return vectors[name][index]

        leaves = [f"{leaf.path}[{k}] {src!r}" for k, src in enumerate(leaf.sources)]
        items = [self.line("x", _emit(parse(src), read), where)
                 for src, where in zip(leaf.sources, leaves)]
        return _Vector(None, items, leaves)

    def whole(self, vector: _Vector) -> str:
        """The local holding ``vector``, an inlined leaf's list built at its first use."""
        if vector.name is None:
            vector.name = self.line("x", _listed(vector))
        return vector.name

    def flat(self, vectors: Sequence[_Vector], leaf: str) -> _Vector:
        """The np.float64 elements of ``vectors`` laid end to end, as
        ``np.concatenate(vectors, dtype=float)`` makes them."""
        if any(v.items is None for v in vectors):
            listed = ", ".join(map(self.whole, vectors))
            return _Vector(self.line("f", f"_floats([{listed}])", leaf))
        return _Vector(None, [self.line("f", _AS_FLOAT64.format(x), where)
                              for v in vectors for x, where in zip(v.items, v.leaves)],
                       [where for v in vectors for where in v.leaves])

    def signal(self, k: int, signal) -> _Vector:
        if isinstance(signal, VectorExpression):
            return self.inline(signal)
        return _Vector(self.line("s", f"{self.ref(signal)}(t)", f"players[{k}].signal"))

    def library_u0(self, arg: _Vector | tuple) -> _Vector:
        """``u0`` as a callable reads it: the control, or a tuple of the members' controls."""
        if isinstance(arg, _Vector):
            return arg
        return _Vector(self.line("a", f"({', '.join(map(self.whole, arg))},)"))

    def scenario_u0(self, arg: _Vector | tuple, leaf: str) -> _Vector:
        """``u0`` as an expression reads it: the control, or the members' controls as one
        flat vector."""
        return arg if isinstance(arg, _Vector) else self.flat(arg, leaf)

    def epsilon(self, where: str, process: EpsilonProcess, arg) -> _Vector:
        form = process.form
        if form is _no_epsilon:
            return _Vector("_EMPTY", [])
        if isinstance(form, VectorExpression):
            return self.inline(form, u0=self.scenario_u0(arg, form.path))
        return _Vector(self.line("e", f"{self.ref(form)}(t, {self.whole(self.library_u0(arg))}, "
                                      "phi)", f"{where}.epsilon"))

    def coupling(self, where: str, coupling: FeedbackCoupling, arg, eps: _Vector,
                 derivs: str) -> _Vector:
        form = coupling.known_form
        if form is _identity:
            return self.library_u0(arg)
        if isinstance(form, VectorExpression):
            return self.inline(form, u0=self.scenario_u0(arg, form.path), eps=eps)
        return _Vector(self.line("c", f"{self.ref(form)}(t, {self.whole(self.library_u0(arg))}, "
                                      f"phi, {derivs}, {self.whole(eps)}, lam)",
                                 f"{where}.coupling"))

    def slots(self, system: InteractiveSystem, use_coalitions: bool,
              pure: Sequence[_Vector]) -> list[tuple[str, Player | Coalition, _Vector | tuple]]:
        """Each slot's name, declaration and ``u0`` argument."""
        if use_coalitions:
            return [(f"coalitions[{j}]", c, tuple(pure[m - 1] for m in c.members))
                    for j, c in enumerate(system.coalitions)]
        return [(f"players[{k}]", p, pure[k]) for k, p in enumerate(system.players)]

    def controls(self, slots, eps: Sequence[_Vector], derivs: str) -> list[_Vector]:
        return [self.coupling(where, slot.coupling, arg, e, derivs)
                for (where, slot, arg), e in zip(slots, eps)]

    def dynamics(self, system: InteractiveSystem, controls: Sequence[_Vector]) -> str:
        dyn = system.dynamics
        if isinstance(dyn, OrdinaryDynamics):
            inner = dyn.system
            slots = self.slots(inner, dyn.use_coalitions, controls[:inner.n_players])
            # A former hidden parameter reaches the couplings as np.float64 elements, as
            # from a policy returning np.asarray(..., dtype=float).
            eps = [e if e.items is None else self.flat([e], "")
                   for e in controls[inner.n_players:]]
            return self.dynamics(inner, self.controls(slots, eps, "()"))
        if isinstance(dyn, VectorExpression):
            values = self.inline(dyn, u=self.flat(controls, dyn.path))
            return self.real(_listed(values), values.leaves, dyn.path)
        listed = ", ".join(map(self.whole, controls))
        values = self.line("c", f"{self.ref(dyn)}(t, phi, [{listed}], lam)", "dynamics")
        return self.real(values, ("dynamics",), "dynamics")

    def real(self, values: str, leaves: Sequence[str], leaf: str) -> str:
        """``np.asarray(values, dtype=float)``, checked by dtype identity; a complex element
        of ``values`` fails naming its leaf."""
        name = self.line("d", f"_asarray({values})", leaf)
        self.body.append(f"if {name}.dtype is not _F64D: "
                         f"{name} = _real({values}, {self.ref(tuple(leaves))})")
        return name

    def function(self, returned: str) -> Callable:
        source = "\n".join(["def stage(t, phi, lam, values=True):", "    try:",
                            *(f"        {line}" for line in self.body),
                            "    except _faults as exc:",
                            "        raise _fault(exc, t, _leaves) from exc",
                            f"    return {returned}"])
        # Built from validated expression trees and generated names only.
        exec(compile(source, "<stage>", "exec"), self.namespace)     # noqa: S102
        return self.namespace["stage"]


def compile_stage(system: InteractiveSystem, use_coalitions: bool = False) -> Callable:
    """Generate ``stage(t, phi, lam) -> ((u0s, eps, u), dphi)`` for the system's player
    (or coalition) slots; ``stage(t, phi, lam, False)`` returns ``dphi`` alone.

    One straight-line function evaluates the chain pure controls -> hidden parameters
    -> interactive controls -> vector field, each per slot and in slot order.  A
    player's forms see its signal's raw list; a scenario's coalition forms and
    dynamics see np.float64 elements, as ``np.concatenate(..., dtype=float)`` gives
    them.  With an order-1 coupling every coupling runs twice: first seeded with a
    zero derivative, then with the derivative the dynamics give under the first pass.
    An ``ArithmeticError``, ``IndexError`` (a ``lambda`` element the run does not feed),
    ``TypeError`` or ``ValueError`` (a math domain error, say) is raised as a
    :class:`SimulationError` naming the leaf and the stage time; so is a complex
    derivative.
    """
    out = _StageSource()
    pure = [out.signal(k, p.signal) for k, p in enumerate(system.players)]
    slots = out.slots(system, use_coalitions, pure)
    eps = [out.epsilon(where, slot.epsilon, arg) for where, slot, arg in slots]
    derivs = "()"
    if any(slot.coupling.derivative_order for _, slot, _ in slots):
        seeded = out.controls(slots, eps, out.ref((np.zeros(system.dim),)))
        derivs = out.line("g", f"({out.dynamics(system, seeded)},)")
    u = out.controls(slots, eps, derivs)
    dphi = out.dynamics(system, u)
    blocks = (", ".join(map(_listed, block)) for block in (pure, eps, u))
    return out.function("(([{}], [{}], [{}]), {}) if values else {}".format(*blocks, dphi, dphi))


def _check_ground_truth(slots: Sequence[Player | Coalition]):
    for k, slot in enumerate(slots):
        if not slot.epsilon.ground_truth:
            raise ConfigurationError(
                f"slot {k}: hidden-parameter process is an estimate, not simulation truth")


def _integrate(system: InteractiveSystem, use_coalitions: bool, initial, t0, t1, dt,
               slow: SlowControl | None, record_tape: bool) -> StateTrajectory:
    n_steps = step_count(t0, t1, dt)

    phi = np.asarray(initial, dtype=float)
    if phi.shape != (system.dim,):
        raise ConfigurationError(f"initial state must have dimension {system.dim}")
    if not np.all(np.isfinite(phi)):
        raise ConfigurationError("initial state must be finite")

    stage = system._stages.get(use_coalitions)
    if stage is None:
        stage = system._stages[use_coalitions] = compile_stage(system, use_coalitions)
    tape = StageTape() if record_tape else None
    if tape is not None:
        compiled = stage

        def stage(t: float, state: np.ndarray, lam: np.ndarray, values: bool = True):
            out = compiled(t, state, lam)
            tape.times.append(t)
            tape.values.append(tuple(out[0][1]))
            return out if values else out[1]

    lam_at = (lambda t, step: _EMPTY) if slow is None else slow.value

    # Size the record arrays from a probe evaluation at the initial point.
    # The probe stays on the tape: replay runs perform the same probe, so the
    # stage sequences of the two runs line up one to one.
    lam0 = lam_at(t0, 0)
    values, dphi = stage(t0, phi, lam0)
    u0_dims, eps_dims, u_dims = (tuple(np.size(x) for x in block) for block in values)

    n_samples = n_steps + 1
    rec_t = np.empty(n_samples)
    rec_phi = np.empty((n_samples, system.dim))
    rec_dphi = np.empty((n_samples, system.dim))
    rec_lam = np.empty((n_samples, len(lam0)))
    # One array per slot of each block; they are joined into the block's columns after
    # the run.
    slot_recs = [[np.empty((n_samples, d)) for d in dims] for dims in (u0_dims, eps_dims, u_dims)]

    def derivative(s: float, state: np.ndarray) -> np.ndarray:
        return stage(s, state, lam_at(s, k), False)

    for k in range(n_samples):
        t = t0 + k * dt
        lam = lam_at(t, k)
        values, dphi = stage(t, phi, lam)
        rec_t[k] = t
        rec_phi[k] = phi
        rec_dphi[k] = dphi
        rec_lam[k] = lam
        try:
            for recs, slot_values in zip(slot_recs, values):
                for rec, x in zip(recs, slot_values):
                    rec[k] = x
        except TypeError as exc:        # a complex control or hidden-parameter value
            raise SimulationError(f"{exc} at t={float(t)!r}") from exc
        if k < n_steps:
            phi = rk4_step(derivative, t, phi, dt, dphi)
            if not all(map(math.isfinite, phi.tolist())):
                raise DivergenceError(last_valid_time=t)

    rec_u0, rec_eps, rec_u = (np.concatenate(recs, axis=1) for recs in slot_recs)
    for name, rec in (("u0", rec_u0), ("eps", rec_eps), ("u", rec_u), ("dphi", rec_dphi),
                      ("lambda", rec_lam)):
        bad_rows, bad_columns = np.nonzero(~np.isfinite(rec))
        if len(bad_rows):
            raise SimulationError(
                f"non-finite {name}_{bad_columns[0]} at t={float(rec_t[bad_rows[0]])!r}")

    return StateTrajectory(t=rec_t, phi=rec_phi, dphi=rec_dphi, u0=rec_u0, eps=rec_eps,
                           u=rec_u, lam=rec_lam, eps_dims=eps_dims, stage_tape=tape)


def simulate(system: InteractiveSystem, initial, t0: float, t1: float, dt: float,
             slow: SlowControl | None = None, record_tape: bool = True) -> StateTrajectory:
    """Integrate the interactive system, recording phi, u0, eps and u traces."""
    _check_ground_truth(system.players)
    return _integrate(system, False, initial, t0, t1, dt, slow, record_tape)


def coalition_simulate(system: InteractiveSystem, initial, t0: float, t1: float,
                       dt: float, slow: SlowControl | None = None,
                       record_tape: bool = True) -> StateTrajectory:
    """As :func:`simulate`, with control slots filled by the coalition couplings."""
    if not system.coalitions:
        raise ConfigurationError("system declares no coalitions")
    _check_ground_truth(system.coalitions)
    return _integrate(system, True, initial, t0, t1, dt, slow, record_tape)


def associated_ordinary_game(system: InteractiveSystem,
                             eps_policies: Sequence[Callable] | None = None,
                             use_coalitions: bool = False) -> InteractiveSystem:
    """Promote every hidden parameter to an independent control slot.

    The result is an ordinary game: couplings are identities, the original
    coupling forms move into the dynamics, and each former hidden parameter is
    driven by a free policy (zero unless ``eps_policies`` is given).
    Couplings involving state derivatives are not representable this way.
    """
    slots = system.coalitions if use_coalitions else system.players
    for k, slot in enumerate(slots):
        if slot.coupling.derivative_order != 0:
            raise ConfigurationError(
                f"slot {k}: derivatives must be excluded from feedbacks to form "
                "the associated ordinary game")

    if eps_policies is None:
        eps_policies = [(lambda t, _d=slot.epsilon.dim: np.zeros(_d)) for slot in slots]
    signals = [p.signal for p in system.players] + [eps_policies[j] for j in range(len(slots))]
    players = [Player(signal, identity_coupling(), zero_epsilon()) for signal in signals]

    return InteractiveSystem(dim=system.dim, dynamics=OrdinaryDynamics(system, use_coalitions),
                             players=tuple(players),
                             invariant_constraints=system.invariant_constraints)


def replay_with_recorded_eps(system: InteractiveSystem, recorded: StateTrajectory,
                             t0: float, t1: float, dt: float,
                             slow: SlowControl | None = None,
                             use_coalitions: bool = False) -> StateTrajectory:
    """Re-run the associated ordinary game with the recorded hidden parameters.

    Stage-tape playback aligns every integrator stage with the original run,
    so the state trace is reproduced bit-identically on the same grid.
    """
    if recorded.stage_tape is None:
        raise ConfigurationError("recorded run carries no stage tape; "
                                 "simulate with record_tape=True")
    n_slots = len(recorded.eps_dims)
    policies = [TapeSignal(recorded.stage_tape, j) for j in range(n_slots)]
    ordinary = associated_ordinary_game(system, eps_policies=policies,
                                        use_coalitions=use_coalitions)
    return simulate(ordinary, recorded.phi[0], t0, t1, dt, slow=slow, record_tape=False)


@dataclass(frozen=True)
class InvariantDrift:
    label: str
    drift: float
    violated: bool


def check_indeterminate_invariants(trajectory: StateTrajectory,
                                   constraints: Sequence[InvariantConstraint],
                                   tol: float = 1e-9) -> list[InvariantDrift]:
    """Maximum drift of each declared time-independent quantity over the run."""
    results = []
    for c in constraints:
        values = np.array([
            c.fn(trajectory.t[k], trajectory.u[k], trajectory.u0[k],
                 trajectory.eps[k], trajectory.phi[k], trajectory.dphi[k])
            for k in range(len(trajectory.t))
        ], dtype=float)
        drift = float(np.max(np.abs(values - values[0])))
        results.append(InvariantDrift(label=c.label, drift=drift, violated=drift > tol))
    return results
