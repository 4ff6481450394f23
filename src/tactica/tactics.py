"""Comment recursions over verbalized games.

A commented game feeds its window comments back into the dynamics and the
feedback couplings as the slow parameter of the next window.  Every comment
recursion is a synthesis rule, one form per game under an argument mask, and
:func:`run_synthesized` advances any of them on the games' shared window grid:
a single commented game is :func:`commented_as_synthesis`, one form with mask
``{0}``, and the additive interaction of two games is
:func:`interaction_as_synthesis`.  A form reads only the games of its argument
mask; the scenario loader checks each declared form against its mask.
Dialectical objects are configured class-transition tables; they drive the
class stream of :func:`tactica.repdyn.run_tactical_repdyn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .games import (ConfigurationError, InteractiveSystem, SlowControl, StateTrajectory,
                    real_array, simulate)
from .verbalization import WindowFunctional, WindowRecord, evaluate_functionals


@dataclass(frozen=True)
class CommentState:
    """One element of a comment stream: a vector or a (class label, eta) pair."""

    index: int
    vector: np.ndarray | None = None
    class_label: str | None = None
    eta: np.ndarray | None = None


@dataclass(frozen=True)
class TransitionRule:
    """One row of a dialectical object's transition table."""

    from_class: str
    trigger: str            # "insolvable": the class left no admissible step
    to_class: str
    eta_update: Callable | None = None      # (eta, diagnostics) -> eta'
    tuple_map: Callable | None = None  # representation embedding, used by repdyn


@dataclass(frozen=True)
class DialecticalObject:
    """Class-transition rules standing in for a self-describing object."""

    label: str
    transitions: tuple[TransitionRule, ...] = ()

    def __post_init__(self):
        keys = [(t.from_class, t.trigger) for t in self.transitions]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(
                f"dialectical object {self.label!r}: transition table keys must be unique")

    def referenced_classes(self) -> set[str]:
        return {c for t in self.transitions for c in (t.from_class, t.to_class)}

    def find(self, from_class: str, trigger_name: str) -> TransitionRule | None:
        for t in self.transitions:
            if t.from_class == from_class and t.trigger == trigger_name:
                return t
        return None


class _Masked(dict):
    """The games of a synthesis mask by game index; reading any other game is an error."""

    def __init__(self, items: Sequence, mask: frozenset[int], what: str):
        super().__init__((i, items[i]) for i in mask)
        self.what = what

    def __missing__(self, index: int):
        raise ConfigurationError(
            f"synthesis form reads {self.what} of game {index}, which is outside "
            f"its declared argument mask {sorted(self)}")


@dataclass(frozen=True)
class SynthesisRule:
    """Unified comment recursion over several games.

    ``forms[j](thetas, omegas, vs)`` produces game j's next comment from the
    previous comments and current window summaries of all games; each form may
    only read the indices in its mask.
    """

    forms: tuple[Callable, ...]
    masks: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.forms) != len(self.masks):
            raise ConfigurationError("one argument mask per synthesis form is required")
        n = len(self.forms)
        for j, mask in enumerate(self.masks):
            for idx in mask:
                if not 0 <= idx < n:
                    raise ConfigurationError(
                        f"synthesis form {j}: mask references absent game index {idx}")

    def value(self, j: int, thetas: Sequence[np.ndarray], omegas: Sequence[np.ndarray],
              vs: Sequence[np.ndarray]) -> np.ndarray:
        """Game j's next comment, its form reading the games of its mask only; a complex
        comment is a :class:`SimulationError`."""
        mask = self.masks[j]
        return np.atleast_1d(real_array(self.forms[j](
            _Masked(thetas, mask, "comment"), _Masked(omegas, mask, "window state"),
            _Masked(vs, mask, "window control")), f"synthesis form {j}"))

    def step(self, thetas: Sequence[np.ndarray], omegas: Sequence[np.ndarray],
             vs: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [self.value(j, thetas, omegas, vs) for j in range(len(self.forms))]


# ---------------------------------------------------------------------------
# Commented runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommentedGame:
    """Verbalizable parametric scenario whose slow parameter is its comment."""

    system: InteractiveSystem
    initial: np.ndarray
    dt: float
    omega_functionals: tuple[WindowFunctional, ...]
    v_functionals: tuple[WindowFunctional, ...]
    theta0: np.ndarray
    window_grid: tuple[float, ...]


@dataclass
class CommentedRun:
    trajectory: StateTrajectory
    windows: list[WindowRecord]
    comments: list[CommentState]

    @property
    def theta_values(self) -> np.ndarray:
        return np.array([c.vector for c in self.comments])


def concat_trajectories(segments: Sequence[StateTrajectory]) -> StateTrajectory:
    """Stitch abutting window segments, dropping duplicated boundary samples."""
    first = segments[0]

    def merge(attr):
        arrays = [getattr(first, attr)]
        arrays += [getattr(seg, attr)[1:] for seg in segments[1:]]
        return np.concatenate(arrays, axis=0)

    return StateTrajectory(t=merge("t"), phi=merge("phi"), dphi=merge("dphi"),
                           u0=merge("u0"), eps=merge("eps"), u=merge("u"),
                           lam=merge("lam"), eps_dims=first.eps_dims, stage_tape=None)


def _shared_grid(games: Sequence[CommentedGame]) -> tuple[float, ...]:
    grid = tuple(games[0].window_grid)
    if any(tuple(g.window_grid) != grid for g in games[1:]):
        raise ConfigurationError(
            "games declare mismatched window grids; a shared grid is required "
            "(no resampling is performed)")
    return grid


def commented_as_synthesis(update: Callable) -> SynthesisRule:
    """The one-form rule of a single commented game: ``update(theta_prev, omega, v)``."""
    return SynthesisRule(forms=(lambda thetas, omegas, vs: update(thetas[0], omegas[0], vs[0]),),
                         masks=(frozenset({0}),))


def interaction_as_synthesis(update1: Callable, update2: Callable, term12: Callable,
                             term21: Callable) -> SynthesisRule:
    """The synthesis rule of two comment recursions coupled additively.

    Game 1's next comment is ``update1(theta1, omega1, v1) + term12(theta1, theta2,
    omega1, v1)``, and game 2's the same with the roles exchanged.
    """
    def coupled(update, term, own, other):
        def form(thetas, omegas, vs):
            return (np.atleast_1d(np.asarray(update(thetas[own], omegas[own], vs[own])))
                    + np.atleast_1d(np.asarray(term(thetas[own], thetas[other], omegas[own],
                                                    vs[own]))))
        return form

    both = frozenset({0, 1})
    return SynthesisRule(forms=(coupled(update1, term12, 0, 1), coupled(update2, term21, 1, 0)),
                         masks=(both, both))


def run_synthesized(games: list[CommentedGame], rule: SynthesisRule) -> list[CommentedRun]:
    """Advance all games on their shared window grid under a unified recursion.

    Window n integrates each game under its comment n-1; the rule then maps the
    comments and window summaries of all games to their comments n.
    """
    if len(games) != len(rule.forms):
        raise ConfigurationError("one synthesis form per game is required")
    grid = _shared_grid(games)
    thetas = [np.atleast_1d(np.asarray(g.theta0, dtype=float)) for g in games]
    phis = [np.asarray(g.initial, dtype=float) for g in games]
    segments: list[list[StateTrajectory]] = [[] for _ in games]
    windows: list[list[WindowRecord]] = [[] for _ in games]
    comments: list[list[CommentState]] = [[] for _ in games]

    for n in range(1, len(grid)):
        omegas_n = []
        vs_n = []
        for j, game in enumerate(games):
            # The comment is held from the window's first step.
            seg = simulate(game.system, phis[j], grid[n - 1], grid[n], game.dt,
                           slow=SlowControl(((0, thetas[j]),)), record_tape=False)
            omegas_n.append(evaluate_functionals(game.omega_functionals, seg, 0,
                                                 len(seg.t) - 1))
            vs_n.append(evaluate_functionals(game.v_functionals, seg, 0, len(seg.t) - 1))
            segments[j].append(seg)
            phis[j] = seg.phi[-1]
        thetas = rule.step(thetas, omegas_n, vs_n)
        for j in range(len(games)):
            windows[j].append(WindowRecord(index=n, t_start=grid[n - 1], t_end=grid[n],
                                           omega=omegas_n[j], v=vs_n[j]))
            comments[j].append(CommentState(index=n, vector=thetas[j]))

    return [CommentedRun(trajectory=concat_trajectories(segments[j]),
                         windows=windows[j], comments=comments[j])
            for j in range(len(games))]
