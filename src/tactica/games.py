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
import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .expr import Emitter, VectorExpression, _emit, parse


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


def _unreal(arr: np.ndarray) -> str:
    """Why ``arr``, whose dtype is not bool, integer or float, is not real numeric."""
    if arr.dtype.kind == "c":
        return f"complex value {arr.tolist()!r}"
    return f"value {arr.tolist()!r} is not real numeric"


def real_array(values, leaf: str, t: float | None = None) -> np.ndarray:
    """``np.asarray(values, dtype=float)`` of a real numeric value; any other (complex, a
    string, an object array) is a :class:`SimulationError` naming ``leaf`` (and the time
    ``t``, if given) in :func:`_numeric`'s words, not its real part or a parsed number."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        at = "" if t is None else f" at t={float(t)!r}"
        raise SimulationError(f"{leaf}: {_unreal(arr)}{at}")
    return arr.astype(float, copy=False)


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
    vector of the members' controls.
    """

    form: Callable
    dim: int


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
    rows and the recorded state derivative.  A scenario's ``fn`` is a one-component
    :class:`VectorExpression`, whose call returns ``[value]``.
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
    stage inlines both.  ``_stages`` keeps what the first run generates: the stage
    (:func:`compile_stage`) of each slot kind, and the step (:func:`compile_step`) of
    each slot kind and record width.
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
            for step, values in self.schedule:
                arr = np.asarray(values)
                if arr.dtype.kind not in "biuf":
                    raise ConfigurationError(f"slow schedule step {step}: {_unreal(arr)}")

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


def _floats(vectors, leaves=(), t=0.0) -> np.ndarray:
    """``np.concatenate(vectors, dtype=float)``.  Not called directly by the stage, which
    runs without builtins: numpy imports the error of a complex value through them.  A
    complex vector is a :class:`SimulationError` naming its leaf, one of ``leaves``."""
    try:
        return np.concatenate(vectors, dtype=float)
    except TypeError:
        for vector, leaf in zip(vectors, leaves):
            real_array(vector, leaf, t)
        raise


def _real(values, leaves: Sequence[str]) -> np.ndarray:
    """``np.asarray(values, dtype=float)`` for a derivative that is not float64 already.  A
    callable's derivative has passed :func:`_numeric`, so only an inlined vector can be
    complex here: that is a TypeError naming its first complex component's leaf."""
    arr = np.asarray(values)
    if arr.dtype.kind in "biuf":
        return np.asarray(arr, dtype=float)
    k = next(i for i, x in enumerate(values) if np.iscomplexobj(x))
    raise TypeError(f"{leaves[k]}: complex value {complex(values[k])!r}")


def _numeric(value, shapes=()):
    """A library callable's ``value`` if it is real numeric (bool, integer or float), else a
    TypeError worded as :func:`real_array` words it; and, when ``shapes`` are given, if its
    shape is one of them, else a ValueError naming its shape and the first."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise TypeError(_unreal(arr))
    if shapes and arr.shape not in shapes:
        raise ValueError(f"returned shape {arr.shape}, not {shapes[0]}")
    return value


def _listed(vector: _Vector) -> str:
    """``vector`` as an expression: its local, or a list of its elements."""
    return vector.name or f"[{', '.join(vector.items)}]"


def _fault(exc: BaseException, t: float, leaves: dict) -> SimulationError:
    """The error of a stage fault, naming the leaf evaluated on the failing line."""
    leaf, t = leaves.get(exc.__traceback__.tb_lineno), float(t)
    return SimulationError(f"{leaf}: {exc} at t={t!r}" if leaf else f"{exc} at t={t!r}")


class _Vector:
    """A vector the stage computes: the local holding it and, when the stage computes it
    element by element, the element locals and the leaf each comes from; ``leaf`` names
    the whole.  An inlined leaf's list gets a local only when a callable reads it whole."""

    def __init__(self, name: str | None, items: list[str] | None = None,
                 leaves: Sequence[str] = (), leaf: str = ""):
        self.name, self.items, self.leaves, self.leaf = name, items, leaves, leaf

    def __getitem__(self, i: int) -> str:
        return f"{self.name}[{i}]" if self.items is None else self.items[i]


class _StageSource(Emitter):
    """The straight-line source of one stage, and the leaf each of its lines evaluates; its
    namespace, :meth:`ref` and :meth:`function` are those of :class:`expr.Emitter`.

    A scenario leaf (a :class:`VectorExpression`) is inlined one component per line,
    its grammar variables read from locals; any other callable is called by name, and its
    value passes :func:`_numeric` on the line that called it, against the shapes
    ``shapes`` holds for its leaf, if any.  The body reads ``t``,
    ``lam`` and the state: each element of ``phi`` on a line of its own, and ``phi`` whole
    where a callable reads it.
    """

    def __init__(self, shapes: dict[str, tuple] | None = None):
        self.shapes = shapes or {}              # leaf -> the shapes its callable may return
        self.body: list[str] = []
        self.leaves: dict[int, str] = {}        # body line -> "path 'source'"
        self.state: dict[int, int] = {}         # body line -> the phi element it reads
        self.elements: dict[tuple[str, int], str] = {}
        super().__init__(_F64=np.float64, _asarray=np.asarray, _floats=_floats, float=float,
                         _F64D=np.dtype(float), _real=_real, _EMPTY=_EMPTY,
                         _faults=(ArithmeticError, IndexError, TypeError, ValueError),
                         _fault=_fault, _array=np.array, _isfinite=math.isfinite,
                         _numeric=_numeric, _diverged=DivergenceError,
                         range=range)

    def line(self, stem: str, value: str, leaf: str = "") -> str:
        """Append ``<fresh local> = value``; return the local."""
        name = f"{stem}{len(self.body)}"
        if leaf:
            self.leaves[len(self.body)] = leaf
        self.body.append(f"{name} = {value}")
        return name

    def element(self, name: str, i: int) -> str:
        """``phi[i]`` or ``lambda[i]`` (the stage's ``lam``), read into a local at its first
        use on a line of that leaf, so a missing element fails naming it."""
        if (name, i) not in self.elements:
            vector = "lam" if name == "lambda" else name
            if name == "phi":
                self.state[len(self.body)] = i
            self.elements[name, i] = self.line(vector[0], f"{vector}[{i}]", f"{name}[{i}]")
        return self.elements[name, i]

    def inline(self, leaf: VectorExpression, **vectors: _Vector) -> _Vector:
        def read(name: str, index: int | None) -> str:
            if index is None:
                return "t"
            if name in ("phi", "lambda"):
                return self.element(name, index)
            return vectors[name][index]

        leaves = leaf.leaves
        items = [self.line("x", _emit(parse(src), read), where)
                 for src, where in zip(leaf.sources, leaves)]
        return _Vector(None, items, leaves, leaf.path)

    def call(self, stem: str, fn, arguments: str, leaf: str) -> _Vector:
        shapes = f", {self.shapes[leaf]}" if leaf in self.shapes else ""
        return _Vector(self.line(stem, f"_numeric({self.ref(fn)}({arguments}){shapes})", leaf),
                       leaf=leaf)

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
            named = self.ref(tuple(v.leaf for v in vectors))
            return _Vector(self.line("f", f"_floats([{listed}], {named}, t)", leaf))
        return _Vector(None, [self.line("f", _AS_FLOAT64.format(x), where)
                              for v in vectors for x, where in zip(v.items, v.leaves)],
                       [where for v in vectors for where in v.leaves])

    def signal(self, k: int, signal) -> _Vector:
        if isinstance(signal, VectorExpression):
            return self.inline(signal)
        return self.call("s", signal, "t", f"players[{k}].signal")

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
        return self.call("e", form, f"t, {self.whole(self.library_u0(arg))}, phi",
                         f"{where}.epsilon")

    def coupling(self, where: str, coupling: FeedbackCoupling, arg, eps: _Vector,
                 derivs: str) -> _Vector:
        form = coupling.known_form
        if form is _identity:
            return self.library_u0(arg)
        if isinstance(form, VectorExpression):
            return self.inline(form, u0=self.scenario_u0(arg, form.path), eps=eps)
        return self.call("c", form, f"t, {self.whole(self.library_u0(arg))}, phi, {derivs}, "
                                    f"{self.whole(eps)}, lam", f"{where}.coupling")

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

    def dynamics(self, system: InteractiveSystem, controls: Sequence[_Vector]) -> _Vector:
        """The values of the vector field, before they become the derivative."""
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
            return self.inline(dyn, u=self.flat(controls, dyn.path))
        listed = ", ".join(map(self.whole, controls))
        return self.call("c", dyn, f"t, phi, [{listed}], lam", "dynamics")

    def real(self, values: _Vector) -> str:
        """The derivative: ``np.asarray(values, dtype=float)``, checked by dtype identity; a
        complex element of an inlined vector fails naming its leaf."""
        listed, leaves = _listed(values), tuple(values.leaves)
        name = self.line("d", f"_asarray({listed})", values.leaf)
        self.body.append(f"if {name}.dtype is not _F64D: "
                         f"{name} = _real({listed}, {self.ref(leaves)})")
        return name

    def lines(self, indent: str, state: Sequence[str] = ()) -> list[tuple[str, str]]:
        """The body at ``indent``, each line with its leaf; element i of the state is read
        from the local ``state[i]`` when one is given."""
        out = []
        for n, text in enumerate(self.body):
            i = self.state.get(n, len(state))
            if i < len(state):
                text = f"{text.partition(' = ')[0]} = {state[i]}"
            out.append((indent + text, self.leaves.get(n, "")))
        return out

    def step(self, dim: int, blocks, values: _Vector, dims) -> tuple[Callable, dict, dict]:
        """:func:`compile_step`'s function over this body, the column of each record in a
        row, and the leaf that feeds each column of the dphi, u0, eps and u records."""
        if values.items is None:
            derivative = self.real(values)
        else:
            # A float's value is its np.float64's, and so is its sum or product with one.
            fast = " and ".join(f"({x}.__class__ is _F64 or {x}.__class__ is float)"
                                for x in values.items) or "True"
            derivative = (f"({''.join(x + ', ' for x in values.items)}) if {fast} else "
                          f"_real({_listed(values)}, {self.ref(tuple(values.leaves))})")
        y, z = [f"y_{i}" for i in range(dim)], [f"z_{i}" for i in range(dim)]
        k1, k2, k3, k4 = ([f"k{j}_{i}" for i in range(dim)] for j in range(1, 5))
        # One record row: t, phi, dphi, the u0, eps and u blocks, lambda.
        writes = [f"R[b + {c}] = {x}" for c, x in enumerate(["t", *y, *k1])]
        leaves = {"dphi": values.leaves or [values.leaf] * dim}
        columns = {"t": 0, "phi": slice(1, 1 + dim), "dphi": slice(1 + dim, 1 + 2 * dim)}
        col = 1 + 2 * dim
        for name, block, widths in zip(("u0", "eps", "u"), blocks, dims):
            start, leaves[name] = col, []
            for vector, width in zip(block, widths):
                if vector.items is not None:
                    writes += [f"R[b + {col + i}] = {x}" for i, x in enumerate(vector.items)]
                elif width:
                    writes.append(f"R[b + {col}:b + {col + width}] = {vector.name}")
                leaves[name] += vector.leaves or [vector.leaf] * width
                col += width
            columns[name] = slice(start, col)
        columns["lambda"] = slice(col, col + dims[3])
        if dims[3]:
            writes.insert(1 + 2 * dim, f"R[b + {col}:b + {col + dims[3]}] = lam")
        tape = "".join(f"{_listed(e)}, " for e in blocks[1])
        # A callable, or an element beyond the state, reads phi whole.
        reads_phi = any(re.search(r"\bphi\b", text) for text, _ in self.lines("", y))

        def stage(state, k, t):
            return [(f"        t = {t}", ""), ("        lam = lam_at(t, k)", ""),
                    *[(f"        phi = _array([{', '.join(state)}])", "")] * reads_phi,
                    ("        try:", ""), *self.lines(" " * 12, state),
                    (f"            [{', '.join(k)}] = {derivative}", ""),
                    ("        except _faults as exc:", ""),
                    ("            raise _fault(exc, t, _leaves) from exc", ""),
                    (f"        if tape is not None: tape_t(t); tape_v(({tape}))", "")]

        def advance(weight, k):
            return [(f"        {s} = {x} + {weight} * {d}", "") for s, x, d in zip(z, y, k)]

        finite = " and ".join(f"_isfinite({x})" for x in y) or "True"
        return self.function([
            ("def step(y, t0, dt, n, lam_at, R, tape):", ""),
            ("    half, full, two, sixth = _F64(dt / 2.0), _F64(dt), _F64(2.0), _F64(dt / 6.0)",
             ""),
            (f"    [{', '.join(y)}] = y", ""),
            ("    if tape is not None: tape_t, tape_v = tape.times.append, tape.values.append",
             ""),
            ("    for k in range(n + 1):", ""),
            (f"        b = k * {col + dims[3]}", ""),
            ("        tk = t0 + k * dt", ""),
            *stage(y, k1, "tk"),
            ("        try:", ""), *((f"            {w}", "") for w in writes),
            ("        except _faults as exc:", ""),
            ("            raise _fault(exc, t, _leaves) from exc", ""),
            ("        if k == n: return", ""),
            *advance("half", k1), *stage(z, k2, "tm = tk + dt / 2.0"),
            *advance("half", k2), *stage(z, k3, "tm"),
            *advance("full", k3), *stage(z, k4, "tk + dt"),
            *((f"        {x} = {x} + sixth * ({a} + two * {b} + two * {c} + {d})", "")
              for x, a, b, c, d in zip(y, k1, k2, k3, k4)),
            (f"        if not ({finite}): raise _diverged(tk)", "")])[0], columns, leaves


def _chain(out: _StageSource, system: InteractiveSystem, use_coalitions: bool):
    """Emit the chain pure controls -> hidden parameters -> interactive controls -> vector
    field into ``out``; return the recorded blocks ``(u0s, eps, u)`` and the values of the
    vector field."""
    pure = [out.signal(k, p.signal) for k, p in enumerate(system.players)]
    slots = out.slots(system, use_coalitions, pure)
    eps = [out.epsilon(where, slot.epsilon, arg) for where, slot, arg in slots]
    derivs = "()"
    if any(slot.coupling.derivative_order for _, slot, _ in slots):
        seeded = out.controls(slots, eps, out.ref((np.zeros(system.dim),)))
        derivs = out.line("g", f"({out.real(out.dynamics(system, seeded))},)")
    u = out.controls(slots, eps, derivs)
    return (pure, eps, u), out.dynamics(system, u)


def compile_stage(system: InteractiveSystem, use_coalitions: bool = False) -> Callable:
    """Generate ``stage(t, phi, lam) -> ((u0s, eps, u), dphi)`` for the system's player
    (or coalition) slots.

    One straight-line function evaluates the chain pure controls -> hidden parameters
    -> interactive controls -> vector field, each per slot and in slot order.  A
    player's forms see its signal's raw list; a scenario's coalition forms and
    dynamics see np.float64 elements, as ``np.concatenate(..., dtype=float)`` gives
    them.  With an order-1 coupling every coupling runs twice: first seeded with a
    zero derivative, then with the derivative the dynamics give under the first pass.
    An ``ArithmeticError``, ``IndexError`` (a ``lambda`` element the run does not feed),
    ``TypeError`` or ``ValueError`` (a math domain error, say) is raised as a
    :class:`SimulationError` naming the leaf and the stage time; so is a complex
    derivative, and a library callable's value that is not real numeric (:func:`_numeric`,
    on the line that called it).  A run evaluates it once, at its initial point;
    :func:`compile_step` inlines the same body, with the same checks, four times per step.
    """
    out = _StageSource()
    blocks, values = _chain(out, system, use_coalitions)
    dphi = out.real(values)
    listed = (", ".join(map(_listed, block)) for block in blocks)
    return out.function([("def stage(t, phi, lam):", ""), ("    try:", ""),
                         *out.lines(" " * 8),
                         ("    except _faults as exc:", ""),
                         ("        raise _fault(exc, t, _leaves) from exc", ""),
                         ("    return (([{}], [{}], [{}]), {})".format(*listed, dphi), "")])[0]


def compile_step(system: InteractiveSystem, use_coalitions: bool,
                 dims: tuple) -> tuple[Callable, dict, dict]:
    """Generate ``step(y, t0, dt, n, lam_at, R, tape)``: ``n`` classical RK4 steps from the
    state ``y``, recording the ``n + 1`` samples row by row into the flat float64 array
    ``R``; ``dims`` are the probe's slot widths of the u0, eps and u blocks and the width
    of ``lambda``.  Return the step, the row's column of each record and the leaf that
    feeds each column of the dphi, u0, eps and u records.

    The stage body of :func:`compile_stage` is inlined four times per step; element i of
    the state is the np.float64 local ``y_i``, ``z_i`` at the inner stages.  The first
    stage records its values and the other three yield only their derivative.  The
    combination ``y + dt/6*(k1 + 2*k2 + 2*k3 + k4)`` is written per component in
    :func:`rk4_step`'s operation order on np.float64 elements, which round as numpy's array
    loops do, so the state is bit for bit the one :func:`rk4_step` gives.  Each stage calls
    ``lam_at(stage time, step index)`` and, when a tape is given, appends its time and its
    hidden parameters.  A non-finite state raises :class:`DivergenceError` at the step's
    start; a stage fault is named as in the stage, and a complex recorded control or hidden
    parameter is a :class:`SimulationError` at the sample time.  Each stage checks a library
    callable's value as the probe does and, on the same line, checks its shape: a recorded
    vector has its probe width (a scalar passes where that is 1) and a derivative is the
    state's shape.  So a callable's whole vector, recorded by a slice write, always fits.
    """
    kind = "coalitions" if use_coalitions else "players"
    widths = {f"players[{k}].signal": w for k, w in enumerate(dims[0])}
    for j, (slot, eps, u) in enumerate(zip(getattr(system, kind), dims[1], dims[2])):
        widths[f"{kind}[{j}].epsilon"] = eps
        # An identity coupling is not called; an ordinary game's inner couplings use its leaf.
        if slot.coupling.known_form is not _identity:
            widths[f"{kind}[{j}].coupling"] = u
    out = _StageSource({"dynamics": ((system.dim,),), **{
        leaf: ((w,), ()) if w == 1 else ((w,),) for leaf, w in widths.items()}})
    blocks, values = _chain(out, system, use_coalitions)
    return out.step(system.dim, blocks, values, dims)


def _integrate(system: InteractiveSystem, use_coalitions: bool, initial, t0, t1, dt,
               slow: SlowControl | None, record_tape: bool) -> StateTrajectory:
    """Run the system's generated step (:func:`compile_step`) over ``[t0, t1]``.

    A probe stage at the initial point sizes the record; a hidden parameter whose width
    is not its declared ``dim``, or a derivative whose width is not the system's, is a
    :class:`ConfigurationError` there.  The probe stays on the tape: replay runs perform
    the same probe, so the stage sequences of the two runs line up one to one.  The step
    writes every sample into one float64 array, of which the trajectory's arrays are
    column blocks.  A non-finite recorded value is a :class:`SimulationError` naming its
    column and the leaf that fed it.
    """
    n_steps = step_count(t0, t1, dt)

    phi = np.asarray(initial, dtype=float)
    if phi.shape != (system.dim,):
        raise ConfigurationError(f"initial state must have dimension {system.dim}")
    if not np.all(np.isfinite(phi)):
        raise ConfigurationError("initial state must be finite")

    stage = system._stages.get(use_coalitions)
    if stage is None:
        stage = system._stages[use_coalitions] = compile_stage(system, use_coalitions)
    schedule = getattr(slow, "schedule", ())
    # No schedule, or a one-entry one, holds one lambda vector for the whole run.
    held = _EMPTY if slow is None else None if callable(schedule) or len(schedule) != 1 \
        else slow.value(t0, 0)
    lam_at = slow.value if held is None else lambda t, step: held
    lam0 = lam_at(t0, 0)
    values, dphi = stage(t0, phi, lam0)
    if np.shape(dphi) != phi.shape:
        raise ConfigurationError(f"dynamics: returned shape {np.shape(dphi)}, but the "
                                 f"system's dim is {system.dim}")
    tape = StageTape([t0], [tuple(values[1])]) if record_tape else None
    dims = (*(tuple(map(np.size, block)) for block in values), len(lam0))
    kind = "coalitions" if use_coalitions else "players"
    for k, (slot, width) in enumerate(zip(getattr(system, kind), dims[1])):
        if width != slot.epsilon.dim:
            raise ConfigurationError(f"{kind}[{k}].epsilon: returned {width} values, but its "
                                     f"declared dim is {slot.epsilon.dim}")
    if (use_coalitions, dims) not in system._stages:
        system._stages[use_coalitions, dims] = compile_step(system, use_coalitions, dims)
    step, columns, leaves = system._stages[use_coalitions, dims]

    rows = np.empty((n_steps + 1, columns["lambda"].stop))
    step(phi, t0, dt, n_steps, lam_at, rows.reshape(-1), tape)
    rec = {name: rows[:, cols] for name, cols in columns.items()}
    if not np.isfinite(rows).all():     # the time and state columns are finite here
        leaves = {**leaves, "lambda": schedule.leaves if isinstance(schedule, VectorExpression)
                  else [getattr(schedule, "path", "slow")] * len(lam0)}
        for name in ("u0", "eps", "u", "dphi", "lambda"):
            bad_rows, bad_columns = np.nonzero(~np.isfinite(rec[name]))
            if len(bad_rows):
                raise SimulationError(f"non-finite {name}_{bad_columns[0]} "
                                      f"({leaves[name][bad_columns[0]]}) "
                                      f"at t={float(rec['t'][bad_rows[0]])!r}")

    return StateTrajectory(t=rec["t"], phi=rec["phi"], dphi=rec["dphi"], u0=rec["u0"],
                           eps=rec["eps"], u=rec["u"], lam=rec["lambda"], eps_dims=dims[1],
                           stage_tape=tape)


def simulate(system: InteractiveSystem, initial, t0: float, t1: float, dt: float,
             slow: SlowControl | None = None, record_tape: bool = True) -> StateTrajectory:
    """Integrate the interactive system, recording phi, u0, eps and u traces."""
    return _integrate(system, False, initial, t0, t1, dt, slow, record_tape)


def coalition_simulate(system: InteractiveSystem, initial, t0: float, t1: float,
                       dt: float, slow: SlowControl | None = None,
                       record_tape: bool = True) -> StateTrajectory:
    """As :func:`simulate`, with control slots filled by the coalition couplings."""
    if not system.coalitions:
        raise ConfigurationError("system declares no coalitions")
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


def _invariant_value(c: InvariantConstraint, value, t) -> float:
    """``c``'s value at ``t`` as a float if it is one finite real numeric value (a scalar or
    a one-element vector), else a :class:`SimulationError` naming its label, leaf and ``t``."""
    try:
        arr = np.asarray(value)
    except ValueError:      # a ragged sequence
        arr = np.asarray(value, dtype=object)
    if arr.size != 1 or arr.ndim > 1:
        problem = f"returned shape {arr.shape}, not one value"
    elif (arr := arr.reshape(())).dtype.kind not in "biuf":
        problem = _unreal(arr)
    elif not math.isfinite(arr):
        problem = f"non-finite value {float(arr)!r}"
    else:
        return float(arr)
    leaf = f" ({c.fn.leaves[0]})" if isinstance(c.fn, VectorExpression) else ""
    raise SimulationError(f"invariant {c.label!r}{leaf}: {problem} at t={float(t)!r}")


def check_indeterminate_invariants(trajectory: StateTrajectory,
                                   constraints: Sequence[InvariantConstraint]
                                   ) -> list[InvariantDrift]:
    """Maximum drift of each declared time-independent quantity over the run.

    Each value must be one real numeric value, a scalar or a one-element vector.  One
    ``np.asarray`` checks a quantity's whole column; only when it fails are the samples
    searched, and the first bad one (not one value, not real numeric, or non-finite) is
    a :class:`SimulationError` naming the invariant's label, its leaf and the time.
    """
    n, results = len(trajectory.t), []
    for c in constraints:
        raw = [c.fn(*row) for row in zip(trajectory.t, trajectory.u, trajectory.u0,
                                         trajectory.eps, trajectory.phi, trajectory.dphi)]
        try:
            values = np.asarray(raw)
        except ValueError:      # values of unequal shapes
            values = _EMPTY
        if values.dtype.kind not in "biuf" or values.shape not in ((n,), (n, 1)) \
                or not np.isfinite(values).all():
            values = np.array([_invariant_value(c, v, t) for v, t in zip(raw, trajectory.t)])
        values = values.astype(float, copy=False)
        results.append(InvariantDrift(c.label, float(np.max(np.abs(values - values[0])))))
    return results
