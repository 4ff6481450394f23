"""Dialogues, window functionals and the verbalizability recurrence.

A continuous run is summarized over a window grid by declared functionals
(time means, integrals, endpoint values, quadratic moments) of its recorded
traces; window transitions are located by cell changes of the hidden
parameters inside a declared cell complex.  The window recurrence can be
declared in closed form or identified by affine least squares.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .expr import compile_expression
from .expr import variables as expr_variables
from .games import (ConfigurationError, InteractiveSystem, Player, SimulationError,
                    StateTrajectory, real_array, simulate)


class DomainError(ValueError):
    """A hidden-parameter sample left the declared admissible box."""


FUNCTIONAL_KINDS = ("mean", "integral", "endpoint", "second_moment")
FUNCTIONAL_SOURCES = ("eps", "u0", "u", "state")


def _trapezoid_mean(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Anchored at the first sample so a constant trace yields that constant
    # exactly, not up to summation rounding.
    width = t[-1] - t[0]
    if width <= 0:
        return np.array(values[-1], dtype=float)
    anchor = values[0]
    return anchor + np.trapezoid(values - anchor, t, axis=0) / width


@dataclass(frozen=True)
class WindowFunctional:
    """One component block of a window summary."""

    kind: str
    source: str

    def __post_init__(self):
        if self.kind not in FUNCTIONAL_KINDS:
            raise ConfigurationError(f"unknown window functional kind {self.kind!r}")
        if self.source not in FUNCTIONAL_SOURCES:
            raise ConfigurationError(f"unknown window functional source {self.source!r}")

    def evaluate(self, t: np.ndarray, data: np.ndarray) -> np.ndarray:
        if self.kind == "mean":
            return _trapezoid_mean(t, data)
        if self.kind == "integral":
            return np.trapezoid(data, t, axis=0)
        if self.kind == "endpoint":
            return np.array(data[-1], dtype=float)
        return _trapezoid_mean(t, data * data)


def _source_data(traj: StateTrajectory, source: str) -> np.ndarray:
    if source == "eps":
        return traj.eps
    if source == "u0":
        return traj.u0
    if source == "u":
        return traj.u
    return traj.phi


def evaluate_functionals(functionals: Sequence[WindowFunctional], traj: StateTrajectory,
                         start: int, stop: int) -> np.ndarray:
    """Concatenated functional values over the sample range [start, stop]."""
    t = traj.t[start:stop + 1]
    parts = [f.evaluate(t, _source_data(traj, f.source)[start:stop + 1])
             for f in functionals]
    if not parts:
        return np.zeros(0)
    return np.concatenate([np.atleast_1d(p) for p in parts])


# ---------------------------------------------------------------------------
# Cell complexes over the hidden-parameter space
# ---------------------------------------------------------------------------

_COMPARATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class CellCondition:
    """Sign condition ``expression OP 0`` over the parameter vector ``eps``."""

    expression: str
    op: str
    _fn: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.op not in _COMPARATORS:
            raise ConfigurationError(f"unknown comparison operator {self.op!r}")
        # Any eps index compiles here; the cell complex bounds them by its dimension.
        width = 1 + max((i for _, i in expr_variables(self.expression) if i is not None),
                        default=-1)
        object.__setattr__(self, "_fn",
                           compile_expression(self.expression, vectors={"eps": width}))


@dataclass(frozen=True)
class Cell:
    label: str
    conditions: tuple[CellCondition, ...]


def _cell_matcher(cells: Sequence[Cell]) -> Callable:
    """``matches(eps)``: the labels of the cells whose conditions all hold at ``eps``, each
    cell's conditions evaluated in declaration order up to the first that fails."""
    flat = tuple((cell.label, tuple((c._fn, _COMPARATORS[c.op]) for c in cell.conditions))
                 for cell in cells)

    def matches(eps) -> list[str]:
        found = []
        for label, conditions in flat:
            for fn, compare in conditions:
                if not compare(fn(eps), 0.0):
                    break
            else:
                found.append(label)
        return found

    return matches


@dataclass(frozen=True)
class CellComplex:
    """Disjoint sign-condition cells covering an admissible box in R^p."""

    dim: int
    cells: tuple[Cell, ...]
    box: tuple[tuple[float, float], ...]
    _matches: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.box) != self.dim:
            raise ConfigurationError("admissible box must match the parameter dimension")
        for k, (lo, hi) in enumerate(self.box):
            if lo > hi:
                raise ConfigurationError(f"admissible box axis {k} is reversed: {lo!r} > {hi!r}")
        labels = [c.label for c in self.cells]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("cell labels must be unique")
        for cell in self.cells:
            for cond in cell.conditions:
                for name, index in expr_variables(cond.expression):
                    if name != "eps" or index is None or index >= self.dim:
                        raise ConfigurationError(
                            f"cell {cell.label!r}: condition {cond.expression!r} must "
                            f"reference eps[0..{self.dim - 1}] only")
        object.__setattr__(self, "_matches", _cell_matcher(self.cells))

    def locate(self, eps, time: float | None = None) -> str:
        eps = np.atleast_1d(np.asarray(eps, dtype=float))
        for k, (lo, hi) in enumerate(self.box):
            if not lo <= eps[k] <= hi:
                at = "" if time is None else f" at t={float(time)!r}"
                raise DomainError(
                    f"parameter sample {eps.tolist()} outside the admissible box{at}")
        matches = self._matches(eps)
        if len(matches) != 1:
            at = "" if time is None else f" at t={float(time)!r}"
            raise ConfigurationError(
                f"sample {eps.tolist()} lies in {len(matches)} cells{at}; "
                "cells must be disjoint and cover the box")
        return matches[0]

    def coverage_errors(self, points_per_axis: int = 7) -> list[str]:
        """Sample the box on a grid and report points not in exactly one cell."""
        axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in self.box]
        mesh = np.meshgrid(*axes, indexing="ij") if axes else []
        errors = []
        grid = np.stack([m.ravel() for m in mesh], axis=-1) if axes else np.zeros((0, 0))
        with np.errstate(all="ignore"):     # a condition's fault is its error, not a warning
            for point in grid:
                hits = len(self._matches(point))
                if hits != 1:
                    errors.append(f"point {point.tolist()} lies in {hits} cells")
        return errors


# Bisection steps locating a cell change inside its sample pair: 48 halvings of
# the unit interval resolve the transition time to below one part in 1e14.
REFINE_ITERATIONS = 48


def detect_partition(times: np.ndarray, eps_values: np.ndarray,
                     complex_: CellComplex) -> list[float]:
    """Times where the containing cell of the parameter trace changes.

    Each sample is labelled as :meth:`CellComplex.locate` labels it: one box comparison
    covers the whole trace, then the cell conditions run per sample.  A sample outside
    the box or not in exactly one cell is located again, so the first such sample
    raises ``locate``'s error at its time.  Transition times are located inside the
    bracketing sample pair by bisection on the cell label of the linearly interpolated
    parameters; the result is strictly increasing.
    """
    times = np.asarray(times, dtype=float)
    eps_values = np.atleast_2d(np.asarray(eps_values, dtype=float))
    if eps_values.shape[0] != len(times):
        raise ConfigurationError("parameter trace and time grid lengths differ")
    lo, hi = np.array(complex_.box, dtype=float).reshape(-1, 2).T
    boxed = eps_values[:, :complex_.dim]
    # A trace narrower than the box fails locate's check at its first sample.
    inside = (((lo <= boxed) & (boxed <= hi)).all(axis=1) if boxed.shape[1] == complex_.dim
              else np.zeros(len(times), bool))
    labels = []
    for k, (row, ok) in enumerate(zip(eps_values, inside.tolist())):
        found = complex_._matches(row) if ok else ()
        labels.append(found[0] if len(found) == 1 else complex_.locate(row, times[k]))
    transitions: list[float] = []
    for k in range(len(times) - 1):
        if labels[k] == labels[k + 1]:
            continue
        left, right = 0.0, 1.0
        a, b = eps_values[k], eps_values[k + 1]
        for _ in range(REFINE_ITERATIONS):
            mid = 0.5 * (left + right)
            if complex_.locate(a + mid * (b - a)) == labels[k]:
                left = mid
            else:
                right = mid
        s = 0.5 * (left + right)
        transitions.append(float(times[k] + s * (times[k + 1] - times[k])))
    return transitions


# ---------------------------------------------------------------------------
# Window records and the recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowRecord:
    index: int
    t_start: float
    t_end: float
    omega: np.ndarray
    v: np.ndarray
    cell_label: str | None = None


def windows_from_trajectory(traj: StateTrajectory, t_grid: Sequence[float],
                            omega_functionals: Sequence[WindowFunctional],
                            v_functionals: Sequence[WindowFunctional],
                            cells: CellComplex | None = None) -> list[WindowRecord]:
    """Summarize a recorded run over the window grid ``t_grid``.

    Every grid point must be a sample of the run; windows are the closed
    intervals between consecutive grid points.
    """
    if len(t_grid) < 2:
        raise ConfigurationError("a window grid needs at least two points")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ConfigurationError("window grid must be strictly increasing")
    indices = [traj.index_of(tn) for tn in t_grid]
    records = []
    for n in range(1, len(t_grid)):
        i0, i1 = indices[n - 1], indices[n]
        omega = evaluate_functionals(omega_functionals, traj, i0, i1)
        v = evaluate_functionals(v_functionals, traj, i0, i1)
        label = None
        if cells is not None:
            label = cells.locate(traj.eps[i0], traj.t[i0])
        records.append(WindowRecord(index=n, t_start=float(traj.t[i0]),
                                    t_end=float(traj.t[i1]), omega=omega, v=v,
                                    cell_label=label))
    return records


@dataclass(frozen=True)
class RecurrenceMap:
    """Window recurrence: declared closed form or fitted affine map."""

    family: str
    form: Callable | None = None        # (omega_prev, v) -> omega
    coeff_omega: np.ndarray | None = None
    coeff_v: np.ndarray | None = None
    intercept: np.ndarray | None = None
    rank_deficient: bool = False
    fit_residual: float = 0.0

    def __post_init__(self):
        if self.family not in ("declared", "fitted-affine"):
            raise ConfigurationError(f"unknown recurrence family {self.family!r}")
        if self.family == "declared" and self.form is None:
            raise ConfigurationError("declared recurrence needs a form")
        if self.family == "fitted-affine" and self.coeff_omega is None:
            raise ConfigurationError("fitted-affine recurrence needs coefficients")

    def apply(self, omega_prev, v) -> np.ndarray:
        omega_prev = np.atleast_1d(np.asarray(omega_prev, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if self.family == "declared":
            return np.atleast_1d(real_array(self.form(omega_prev, v),
                                            getattr(self.form, "path", "recurrence")))
        return self.coeff_omega @ omega_prev + self.coeff_v @ v + self.intercept


def verify_recurrence(windows: Sequence[WindowRecord], rmap: RecurrenceMap) -> np.ndarray:
    """The residual of the recurrence against the recorded summaries, one per window after
    the first.  A non-finite prediction is a :class:`SimulationError` naming the form and
    the window."""
    if len(windows) < 2:
        raise ConfigurationError("verification needs at least two windows")
    residuals = []
    for prev, cur in zip(windows, windows[1:]):
        predicted = rmap.apply(prev.omega, cur.v)
        if not np.isfinite(predicted).all():
            raise SimulationError(f"{getattr(rmap.form, 'path', 'recurrence')}: non-finite "
                                  f"value {predicted.tolist()!r} predicting window {cur.index}")
        residuals.append(float(np.linalg.norm(cur.omega - predicted)))
    return np.array(residuals)


def fit_recurrence(windows: Sequence[WindowRecord]) -> RecurrenceMap:
    """Least-squares affine map from (omega_{n-1}, v_n) to omega_n.

    Rank-deficient regressions are flagged and resolved with the minimum-norm
    solution.
    """
    if not windows:
        raise ConfigurationError("no windows to fit")
    dim_omega = len(np.atleast_1d(windows[0].omega))
    dim_v = len(np.atleast_1d(windows[0].v))
    if len(windows) < dim_omega + dim_v + 1:
        raise ConfigurationError(
            f"need at least {dim_omega + dim_v + 1} windows to determine the affine "
            f"coefficients, got {len(windows)}")
    rows = []
    targets = []
    for prev, cur in zip(windows, windows[1:]):
        rows.append(np.concatenate([np.atleast_1d(prev.omega), np.atleast_1d(cur.v), [1.0]]))
        targets.append(np.atleast_1d(cur.omega))
    design = np.array(rows)
    target = np.array(targets)
    solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.linalg.norm(design @ solution - target))
    return RecurrenceMap(
        family="fitted-affine",
        coeff_omega=solution[:dim_omega].T.copy(),
        coeff_v=solution[dim_omega:dim_omega + dim_v].T.copy(),
        intercept=solution[-1].copy(),
        rank_deficient=rank < design.shape[1],
        fit_residual=residual,
    )


# ---------------------------------------------------------------------------
# Dialogues
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntentionField:
    """Continuous auxiliary state mediating a discrete-time dialogue."""

    dim: int
    dynamics: Callable  # (t, xi, controls) -> dxi


@dataclass(frozen=True)
class DialogueSpec:
    field: IntentionField
    players: tuple[Player, ...]
    state_functionals: tuple[WindowFunctional, ...]
    control_functionals: tuple[WindowFunctional, ...]
    step_map: Callable  # (phi_prev, v) -> phi_next
    phi0: np.ndarray
    xi0: np.ndarray
    dt: float

    def continuous_system(self) -> InteractiveSystem:
        fld = self.field
        return InteractiveSystem(
            dim=fld.dim,
            dynamics=lambda t, xi, controls, lam: fld.dynamics(t, xi, controls),
            players=self.players)


@dataclass
class DialogueResult:
    phi: list[np.ndarray]
    v: list[np.ndarray]
    residuals: np.ndarray
    is_dialogue: bool
    diagnostics: list[str]


def simulate_dialogue(dialogue: DialogueSpec, t_grid: Sequence[float],
                      tol: float = 1e-9) -> DialogueResult:
    """Integrate the intention field and roll the discrete dialogue over it.

    The discrete states are the declared window functionals of the hidden
    parameters and the field; :func:`verify_recurrence` checks each against the
    declared step map, from ``phi0`` on.  A mismatch is reported as a diagnostic,
    not an error: the run is then not a dialogue under the declared maps.  A
    non-finite step-map value is a :class:`SimulationError` naming the window.
    """
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ConfigurationError("window grid must be strictly increasing")
    system = dialogue.continuous_system()
    traj = simulate(system, dialogue.xi0, float(t_grid[0]), float(t_grid[-1]),
                    dialogue.dt, record_tape=False)
    windows = windows_from_trajectory(traj, t_grid, dialogue.state_functionals,
                                      dialogue.control_functionals)
    phi0 = np.atleast_1d(np.asarray(dialogue.phi0, dtype=float))
    residuals = verify_recurrence(
        [WindowRecord(index=0, t_start=float(t_grid[0]), t_end=float(t_grid[0]), omega=phi0,
                      v=np.zeros(0)), *windows],
        RecurrenceMap("declared", form=dialogue.step_map))
    diagnostics = [f"window {w.index}: functional state deviates from the step map by "
                   f"{r:.3e}; not a dialogue under the declared maps"
                   for w, r in zip(windows, residuals) if r > tol]
    return DialogueResult(phi=[phi0] + [w.omega for w in windows], v=[w.v for w in windows],
                          residuals=residuals, is_dialogue=not diagnostics,
                          diagnostics=diagnostics)
