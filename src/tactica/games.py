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
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np


class ConfigurationError(ValueError):
    """A system, scenario or argument is malformed."""


class SimulationError(RuntimeError):
    """Raised when a run cannot be completed."""


class DivergenceError(SimulationError):
    """State became non-finite; carries the last time with a finite state."""

    def __init__(self, last_valid_time: float):
        super().__init__(f"state diverged; last finite state at t={last_valid_time!r}")
        self.last_valid_time = last_valid_time


_EMPTY = np.zeros(0)


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


def rk4_step(f: Callable, t: float, y: np.ndarray, dt: float, k1: np.ndarray) -> np.ndarray:
    """One classical 4th-order step of ``y' = f(t, y)`` from ``y``, given ``k1 = f(t, y)``."""
    half = dt / 2.0
    k2 = f(t + half, y + half * k1)
    k3 = f(t + half, y + half * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class EpsilonProcess:
    """Hidden feedback parameter as a function of pure control and state.

    ``form(t, u0, phi)`` returns the parameter vector; for coalition slots
    ``u0`` is the tuple of member pure controls.  ``ground_truth``
    distinguishes the simulation truth from fitted estimates, which must not
    drive a truth run.
    """

    form: Callable
    dim: int
    ground_truth: bool = True


def zero_epsilon() -> EpsilonProcess:
    return EpsilonProcess(form=lambda t, u0, phi: _EMPTY, dim=0)


@dataclass(frozen=True)
class FeedbackCoupling:
    """Known coupling producing the interactive control.

    ``known_form(t, u0, phi, derivs, eps, lam)`` -> control vector.
    ``derivative_order`` 0 or 1; order 1 is evaluated by substituting the
    vector field for the state derivative (one substitution pass, seeded with
    a zero derivative).
    """

    known_form: Callable
    derivative_order: int = 0

    def __post_init__(self):
        if self.derivative_order not in (0, 1):
            raise ConfigurationError(
                f"derivative order {self.derivative_order} exceeds the supported "
                "substitution depth (max 1)")


def identity_coupling() -> FeedbackCoupling:
    return FeedbackCoupling(known_form=lambda t, u0, phi, derivs, eps, lam: u0)


@dataclass(frozen=True)
class Player:
    """One player: its independent (pure) control signal ``signal(t)``, the coupling
    that makes it interactive, and its hidden parameter."""

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
    rows.  ``required_order`` > 1 cannot be served by recorded trajectories.
    """

    fn: Callable
    label: str = ""
    required_order: int = 0


@dataclass(frozen=True)
class InteractiveSystem:
    """Evolution law with per-player feedback couplings.

    ``dynamics(t, phi, controls, lam)`` maps the state and the list of per-slot
    interactive control vectors to the state derivative.  ``lam`` is the
    slow-parameter vector (empty when absent).
    """

    dim: int
    dynamics: Callable
    players: tuple[Player, ...]
    coalitions: tuple[Coalition, ...] = ()
    invariant_constraints: tuple[InvariantConstraint, ...] = ()

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
            return np.asarray(self.schedule(t), dtype=float)
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
class _Slot:
    """Internal control slot: shared evaluation path for players and coalitions.
    ``u0_argument`` picks a player's control or the tuple of a coalition's members'."""

    u0_argument: Callable
    coupling: FeedbackCoupling
    epsilon: EpsilonProcess


def _player_slots(system: InteractiveSystem) -> list[_Slot]:
    return [_Slot(itemgetter(i), p.coupling, p.epsilon) for i, p in enumerate(system.players)]


def _coalition_slots(system: InteractiveSystem) -> list[_Slot]:
    return [
        _Slot(lambda u0s, _m=tuple(m - 1 for m in c.members): tuple(u0s[i] for i in _m),
              c.coupling, c.epsilon)
        for c in system.coalitions
    ]


def _check_ground_truth(slots: Sequence[_Slot]):
    for k, slot in enumerate(slots):
        if not slot.epsilon.ground_truth:
            raise ConfigurationError(
                f"slot {k}: hidden-parameter process is an estimate, not simulation truth")


def _integrate(system: InteractiveSystem, slots: list[_Slot], initial, t0, t1, dt,
               slow: SlowControl | None, record_tape: bool) -> StateTrajectory:
    n_steps = step_count(t0, t1, dt)

    phi = np.asarray(initial, dtype=float)
    if phi.shape != (system.dim,):
        raise ConfigurationError(f"initial state must have dimension {system.dim}")
    if not np.all(np.isfinite(phi)):
        raise ConfigurationError("initial state must be finite")

    signals = [p.signal for p in system.players]
    picks = [s.u0_argument for s in slots]
    forms = [s.epsilon.form for s in slots]
    couplings = [s.coupling.known_form for s in slots]
    dynamics = system.dynamics
    max_k = max(s.coupling.derivative_order for s in slots)
    pre_derivs = (np.zeros(system.dim),)
    tape = StageTape() if record_tape else None
    lam_at = (lambda t, step: _EMPTY) if slow is None else slow.value

    def stage(t: float, state: np.ndarray, lam: np.ndarray):
        try:
            u0s = [signal(t) for signal in signals]
            args = [pick(u0s) for pick in picks]
            eps = [form(t, a, state) for form, a in zip(forms, args)]
            derivs: tuple = ()
            if max_k:
                u = [c(t, a, state, pre_derivs, e, lam) for c, a, e in zip(couplings, args, eps)]
                derivs = (np.asarray(dynamics(t, state, u, lam), dtype=float),)
            u = [c(t, a, state, derivs, e, lam) for c, a, e in zip(couplings, args, eps)]
            dphi = np.asarray(dynamics(t, state, u, lam), dtype=float)
        # A TypeError here is a complex value (a negative base raised to a
        # fractional power) reaching a real-only function or array.
        except (ArithmeticError, TypeError) as exc:
            raise SimulationError(f"{exc} at t={t!r}") from exc
        if tape is not None:
            tape.times.append(t)
            tape.values.append(tuple(eps))
        return (u0s, eps, u), dphi

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
    rec_u0 = np.empty((n_samples, sum(u0_dims)))
    rec_eps = np.empty((n_samples, sum(eps_dims)))
    rec_u = np.empty((n_samples, sum(u_dims)))
    rec_lam = np.empty((n_samples, len(lam0)))
    # Each slot's value is written into its own column block of the record row.
    blocks = [(rec, [slice(a - d, a) for d, a in zip(dims, np.cumsum(dims))])
              for rec, dims in ((rec_u0, u0_dims), (rec_eps, eps_dims), (rec_u, u_dims))]

    def record(k, t, state, values, dphi, lam):
        rec_t[k] = t
        rec_phi[k] = state
        rec_dphi[k] = dphi
        rec_lam[k] = lam
        try:
            for (rec, cols), slot_values in zip(blocks, values):
                row = rec[k]
                for col, x in zip(cols, slot_values):
                    row[col] = x
        except TypeError as exc:        # a complex control or hidden-parameter value
            raise SimulationError(f"{exc} at t={t!r}") from exc

    def derivative(s: float, state: np.ndarray) -> np.ndarray:
        return stage(s, state, lam_at(s, k))[1]

    for k in range(n_steps):
        t = t0 + k * dt
        lam = lam_at(t, k)
        values, k1 = stage(t, phi, lam)
        record(k, t, phi, values, k1, lam)
        phi = rk4_step(derivative, t, phi, dt, k1)
        if not np.isfinite(phi).all():
            raise DivergenceError(last_valid_time=t)

    t_end = t0 + n_steps * dt
    lam = lam_at(t_end, n_steps)
    values, dphi = stage(t_end, phi, lam)
    record(n_steps, t_end, phi, values, dphi, lam)
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
    slots = _player_slots(system)
    _check_ground_truth(slots)
    return _integrate(system, slots, initial, t0, t1, dt, slow, record_tape)


def coalition_simulate(system: InteractiveSystem, initial, t0: float, t1: float,
                       dt: float, slow: SlowControl | None = None,
                       record_tape: bool = True) -> StateTrajectory:
    """As :func:`simulate`, with control slots filled by the coalition couplings."""
    if not system.coalitions:
        raise ConfigurationError("system declares no coalitions")
    slots = _coalition_slots(system)
    _check_ground_truth(slots)
    return _integrate(system, slots, initial, t0, t1, dt, slow, record_tape)


def associated_ordinary_game(system: InteractiveSystem,
                             eps_policies: Sequence[Callable] | None = None,
                             use_coalitions: bool = False) -> InteractiveSystem:
    """Promote every hidden parameter to an independent control slot.

    The result is an ordinary game: couplings are identities, the original
    coupling forms move into the dynamics, and each former hidden parameter is
    driven by a free policy (zero unless ``eps_policies`` is given).
    Couplings involving state derivatives are not representable this way.
    """
    slots = _coalition_slots(system) if use_coalitions else _player_slots(system)
    for k, slot in enumerate(slots):
        if slot.coupling.derivative_order != 0:
            raise ConfigurationError(
                f"slot {k}: derivatives must be excluded from feedbacks to form "
                "the associated ordinary game")

    n_policies = system.n_players
    old_dynamics = system.dynamics
    couplings = [(slot.u0_argument, slot.coupling.known_form) for slot in slots]

    def assoc_dynamics(t, phi, controls, lam):
        u0s = controls[:n_policies]
        u = [c(t, pick(u0s), phi, (), eps, lam)
             for (pick, c), eps in zip(couplings, controls[n_policies:])]
        return old_dynamics(t, phi, u, lam)

    if eps_policies is None:
        eps_policies = [(lambda t, _d=slot.epsilon.dim: np.zeros(_d)) for slot in slots]
    signals = [p.signal for p in system.players] + [eps_policies[j] for j in range(len(slots))]
    players = [Player(signal, identity_coupling(), zero_epsilon()) for signal in signals]

    return InteractiveSystem(dim=system.dim, dynamics=assoc_dynamics,
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
        if c.required_order > 1:
            raise ConfigurationError(
                f"constraint {c.label!r} needs derivative order {c.required_order}, "
                "but trajectories record order 1 only")
        values = np.array([
            c.fn(trajectory.t[k], trajectory.u[k], trajectory.u0[k],
                 trajectory.eps[k], trajectory.phi[k],
                 trajectory.dphi[k] if c.required_order >= 1 else None)
            for k in range(len(trajectory.t))
        ], dtype=float)
        drift = float(np.max(np.abs(values - values[0])))
        results.append(InvariantDrift(label=c.label, drift=drift, violated=drift > tol))
    return results
