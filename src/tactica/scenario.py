"""Scenario files: a YAML key/value tree describing one run.

Closed-form signals, couplings and dynamics are expression strings over the fixed
grammar (see :mod:`tactica.expr`); every context has a declared variable set.  Loading
walks each section once, recording **all** problems with their paths while it compiles
the section's plan; facts that depend on the step are checked under the effective step.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import yaml

from . import expr
from .algebra import (MAX_GENERATORS, MAX_MATRIX_DIM, AlgebraClassRegistry,
                      AlgebraPresentation, WeylSymbol, WeylTerm, default_registry, parse_relation,
                      stack_tuple)
from .expr import VectorExpression
from .games import (Coalition, EpsilonProcess, FeedbackCoupling, InteractiveSystem,
                    InvariantConstraint, Player, SlowControl, StateTrajectory,
                    coalition_simulate, simulate, whole_steps, zero_epsilon)
from .prediction import FilterSpec
from .repdyn import (ClassDynamics, RepDynSpec, TacticalRepDyn, _parse_polynomial_rhs,
                     check_start, tuple_map)
from .tactics import (CommentedGame, DialecticalObject, SynthesisRule, TransitionRule,
                      commented_as_synthesis, interaction_as_synthesis)
from .verbalization import Cell, CellComplex, CellCondition, RecurrenceMap, WindowFunctional

SCHEMA_VERSION = 1

COMMANDS = ("simulate", "verbalize", "tactics", "predict", "repdyn", "invert")

# The sections each command runs; a scenario supports a command that finds them all.
_NEEDS = {"simulate": ("system",), "verbalize": ("system", "verbalization"),
          "tactics": ("system", "verbalization", "tactics"),
          "predict": ("system", "prediction"), "repdyn": ("repdyn",), "invert": ("invert",)}


class ScenarioError(ValueError):
    """All validation problems of a scenario, collected in one pass."""

    def __init__(self, errors: Sequence[str]):
        super().__init__("scenario validation failed:\n  " + "\n  ".join(errors))
        self.errors = list(errors)


def _is_number(value) -> bool:
    """A finite int or float as YAML reads it (booleans excluded)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _length(value) -> int:
    return len(value) if isinstance(value, list) else 0


class _Check:
    """Error accumulator with dotted-path context."""

    def __init__(self):
        self.errors: list[str] = []

    def add(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def require(self, path: str, ok, message: str) -> bool:
        """Record ``message`` at ``path`` unless ``ok``; return whether it held."""
        if not ok:
            self.add(path, message)
        return bool(ok)

    def build(self, path: str, make: Callable, *args, **kwargs):
        """Call a library constructor; record its complaint (a ValueError) or arithmetic
        fault at ``path``."""
        try:
            return make(*args, **kwargs)
        except (ValueError, ArithmeticError) as exc:
            self.add(path, str(exc))
            return None

    def mapping(self, path: str, value) -> bool:
        return self.require(path, isinstance(value, dict), "expected a mapping")

    def entries(self, path: str, value) -> list[tuple[int, str, dict]]:
        """(index, path, item) for each mapping of a list; anything else is recorded."""
        if not self.require(path, isinstance(value, list), "expected a list of mappings"):
            return []
        return [(k, f"{path}[{k}]", item) for k, item in enumerate(value)
                if self.mapping(f"{path}[{k}]", item)]

    def expression(self, path: str, source, scalars=(), vectors=None) -> bool:
        """Whether ``source`` is an expression over the context's variables."""
        return self.require(path, isinstance(source, str), "expected an expression string, "
                            f"got {type(source).__name__}") and self.build(
            path, lambda: expr.validate(source, scalars, vectors or {}) or True) is True

    def expressions(self, path: str, sources, scalars=(),
                    vectors=None) -> VectorExpression | None:
        """Validate a nonempty list of expression strings, each once, as one vector."""
        if not self.require(path, isinstance(sources, list) and sources,
                            "expected a nonempty list of expression strings"):
            return None
        ok = all([self.expression(f"{path}[{k}]", src, scalars, vectors)
                  for k, src in enumerate(sources)])
        return VectorExpression(tuple(sources), (*scalars, *(vectors or {})), path) if ok else None

    def number(self, path: str, value, positive=False) -> bool:
        if not self.require(path, _is_number(value), f"expected a number, got {value!r}"):
            return False
        return not positive or self.require(path, value > 0, f"must be positive, got {value!r}")

    def integer(self, path: str, value, low=1) -> bool:
        kind = "positive" if low == 1 else "nonnegative"
        return self.require(path, isinstance(value, int) and not isinstance(value, bool)
                            and value >= low, f"expected a {kind} integer, got {value!r}")

    def vector(self, path: str, value, dim=None) -> bool:
        if not self.require(path, isinstance(value, list) and all(map(_is_number, value)),
                            "expected a list of numbers"):
            return False
        return dim is None or self.require(path, len(value) == dim,
                                           f"expected {dim} components, got {len(value)}")


@dataclass(frozen=True)
class RunParams:
    t0: float
    t1: float
    dt: float

    def on_grid(self, time: float) -> bool:
        """Whether ``time`` is a sample of the run, as ``StateTrajectory.index_of`` finds it."""
        idx = int(round((time - self.t0) / ((self.t0 + self.dt) - self.t0)))
        return (0 <= idx <= whole_steps(self.t0, self.t1, self.dt)
                and abs(self.t0 + idx * self.dt - time) <= 1e-9 * max(1.0, abs(time)))


@dataclass
class SystemPlan:
    system: InteractiveSystem
    initial: np.ndarray
    slow: SlowControl | None
    slow_gap: str = ""      # why system.slow misses lambda; only tactics then runs the system


@dataclass
class VerbalizationPlan:
    grid: tuple[float, ...]
    omega_functionals: tuple[WindowFunctional, ...]
    v_functionals: tuple[WindowFunctional, ...]
    cells: CellComplex | None
    recurrence: RecurrenceMap | None = None     # a declared closed form
    fit_windows: int | None = None              # or: fit on this many windows
    recurrence_tol: float = 1e-6


@dataclass
class TacticsPlan:
    mode: str
    games: list[CommentedGame]
    rule: SynthesisRule         # every mode compiles to one form per game


@dataclass
class PredictionPlan:
    filter: FilterSpec | None
    family: tuple[str, ...]
    assumed_eps: list[VectorExpression] | None = None   # the pipeline's, with its horizon
    horizon: float = 0.0


@dataclass
class RepdynPlan:
    mode: str
    spec: RepDynSpec | None = None
    start: np.ndarray | None = None     # the integrate mode's (m, n, n) initial tuple
    tactical: TacticalRepDyn | None = None
    windows: tuple[float, ...] = ()
    control: VectorExpression | None = None


@dataclass
class InvertPlan:
    rhs: tuple[str, ...]
    x0: tuple[float, ...]
    control_dim: int
    matrix_dim: int
    designated_slot: int
    lift_constants: bool
    u_schedule: VectorExpression


@dataclass
class Scenario:
    """A loaded scenario: its run and the plans compiled from its sections."""

    path: Path
    title: str
    run: RunParams
    tolerance: float | None = None
    plans: dict = field(default_factory=dict)

    def supports(self, command: str) -> bool:
        needs = _NEEDS.get(command, ("unknown",))
        return all(s in self.plans for s in needs) and (  # tactics feeds its comment as lambda
            command == "tactics" or "system" not in needs or not self.plans["system"].slow_gap)

    def supported_commands(self) -> list[str]:
        return [c for c in COMMANDS if self.supports(c)]

    def build_system(self) -> tuple[InteractiveSystem, np.ndarray, SlowControl | None]:
        plan = self.plans["system"]
        return plan.system, plan.initial, plan.slow

    def simulate(self) -> StateTrajectory:
        """Integrate the declared system over the run, on its coalitions if it declares any.

        No stage tape is kept: the commands export traces and never replay them."""
        plan, run = self.plans["system"], self.run
        integrate = coalition_simulate if plan.system.coalitions else simulate
        return integrate(plan.system, plan.initial, run.t0, run.t1, run.dt,
                         slow=plan.slow, record_tape=False)

    def verbalization_plan(self) -> VerbalizationPlan:
        return self.plans["verbalization"]

    def tactics_plan(self) -> TacticsPlan:
        return self.plans["tactics"]

    def prediction_plan(self) -> PredictionPlan:
        return self.plans["prediction"]

    def repdyn_plan(self) -> RepdynPlan:
        return self.plans["repdyn"]

    def invert_plan(self) -> InvertPlan:
        return self.plans["invert"]


@dataclass
class _Context:
    """What the section walks share: the run, the trace dimensions and earlier plans."""

    run: RunParams | None       # None when the run section is malformed
    tolerance: float | None
    sections: frozenset[str]
    dims: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)


def load_scenario(path, dt: float | None = None) -> Scenario:
    """Parse a scenario file, validating and compiling every section in one walk.

    ``dt`` overrides the declared step; facts that depend on the step are checked
    under the effective one.  Raises :class:`ScenarioError` with every problem found.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError([f"{path}: file does not exist"])
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"),
                        Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ScenarioError([f"{path}: cannot be read: {exc.strerror or exc}"])
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"])
    except (yaml.YAMLError, ValueError) as exc:    # ValueError: a tagged or dated scalar
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        raise ScenarioError([f"{path}: parse error: {where}{exc}"])
    if not isinstance(raw, dict):
        raise ScenarioError([f"{path}: scenario must be a key/value tree"])
    check = _Check()
    check.require("schema", raw.get("schema") == SCHEMA_VERSION,
                  f"unrecognized schema version {raw.get('schema')!r}; "
                  f"expected {SCHEMA_VERSION}")
    tolerance = raw.get("tolerance")
    if tolerance is not None and not check.number("tolerance", tolerance, positive=True):
        tolerance = None
    ctx = _Context(run=_run(raw.get("run"), dt, check), tolerance=tolerance,
                   sections=frozenset(k for k in raw if k in _WALKS))
    # The comment dimension: the length of the first declared theta0.
    tactics = raw.get("tactics") if isinstance(raw.get("tactics"), dict) else {}
    games = tactics.get("games") if isinstance(tactics.get("games"), list) else []
    first = games[0] if tactics.get("theta0") is None and games else tactics
    theta0 = first.get("theta0") if isinstance(first, dict) else None
    ctx.dims["theta"] = len(theta0) if isinstance(theta0, list) else None
    for name, walk in _WALKS.items():
        needs_system = name in ("verbalization", "tactics", "prediction")
        if name not in raw or not check.mapping(name, raw[name]) or needs_system and not (
                check.require(name, "system" in raw, "needs a system section")
                and "phi" in ctx.dims):     # else the system section's own errors stand
            continue
        ctx.plans[name] = walk(raw[name], ctx, check)
    check.require("scenario", ctx.sections & {"system", "repdyn", "invert"},
                  "no runnable section (system, repdyn or invert) declared")
    if check.errors:
        raise ScenarioError([f"{path.name}: {e}" for e in check.errors])
    return Scenario(path=path, title=str(raw.get("title", path.stem)), run=ctx.run,
                    tolerance=float(tolerance) if tolerance is not None else None,
                    plans=ctx.plans)


def _run(spec, dt, check: _Check) -> RunParams | None:
    """The run interval at the effective step (the declared one unless ``dt`` is given)."""
    if not check.require("run", isinstance(spec, dict), "required section {t0, t1, dt} is missing"):
        return None
    t0, t1 = spec.get("t0", 0.0), spec.get("t1")
    ok = check.number("run.t0", t0) & check.number("run.t1", t1)
    ok &= check.number("run.dt", spec.get("dt"), positive=True)
    if not ok or dt is not None and not check.number("--dt", dt, positive=True):
        return None
    run = RunParams(t0=float(t0), t1=float(t1), dt=float(spec["dt"] if dt is None else dt))
    if not check.require("run", run.t1 > run.t0, f"t1 ({run.t1!r}) must exceed t0 ({run.t0!r})"):
        return None
    return run if check.require("run.dt", whole_steps(run.t0, run.t1, run.dt),
                                f"t1 - t0 = {run.t1 - run.t0!r} is not a whole number of "
                                f"steps of dt {run.dt!r}") else None


def _as_grid(spec, path: str, check: _Check) -> list[float] | None:
    if isinstance(spec, list):
        if not check.vector(path, spec) or not check.require(
                path, len(spec) >= 2 and all(b > a for a, b in zip(spec, spec[1:])),
                "window grid must be strictly increasing with >= 2 points"):
            return None
        return [float(x) for x in spec]
    if not check.require(path, isinstance(spec, dict),
                         "expected a list of times or {start, stop, count}"):
        return None
    start, stop, count = spec.get("start"), spec.get("stop"), spec.get("count")
    ok = check.number(f"{path}.start", start) & check.number(f"{path}.stop", stop)
    if not check.integer(f"{path}.count", count) or not ok \
            or not check.require(path, stop > start, "stop must exceed start"):
        return None
    return list(np.linspace(start, stop, count + 1))


def _parse_complex(value, path: str, check: _Check) -> complex:
    pair = isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))
    if check.require(path, pair or _is_number(value),
                     f"expected a number or [re, im] pair, got {value!r}"):
        return complex(*value) if pair else complex(value)
    return 0j


def _parse_matrix(value, path: str, check: _Check) -> np.ndarray | None:
    if not check.require(path, isinstance(value, list) and value, "expected a nested list matrix"):
        return None
    start, n = len(check.errors), len(value)
    out = np.zeros((n, n), dtype=complex)
    for r, row in enumerate(value):
        if not check.require(f"{path}[{r}]", isinstance(row, list) and len(row) == n,
                             f"expected a row of {n} entries"):
            return None
        for c, cell in enumerate(row):
            out[r, c] = _parse_complex(cell, f"{path}[{r}][{c}]", check)
    return out if len(check.errors) == start else None


def _functionals(spec, path: str, check: _Check) -> tuple[WindowFunctional, ...] | None:
    if not check.require(path, isinstance(spec, list) and spec,
                         "expected a nonempty list of {kind, source} entries"):
        return None
    out = tuple(check.build(base, WindowFunctional, kind=item.get("kind", ""),
                            source=item.get("source", ""))
                for _, base, item in check.entries(path, spec))
    return out if None not in out and len(out) == len(spec) else None


def _system(spec: dict, ctx: _Context, check: _Check) -> SystemPlan | None:
    """Walk the system section; record the trace dimensions of its runs in ``ctx.dims``."""
    start, dim, players = len(check.errors), spec.get("dim"), spec.get("players")
    if not check.integer("system.dim", dim):
        return None
    check.vector("system.initial", spec.get("initial"), dim)
    if not check.require("system.players", isinstance(players, list) and players,
                         "at least one player is required"):
        return None
    slow, fed = _slow(spec["slow"], check) if "slow" in spec else (None, 0)
    # A malformed system.slow bounds no lambda index, so that its fault is the only one
    # reported.  A commented run feeds its comment as slow parameter.
    lam = ctx.dims["theta"] if ctx.dims["theta"] is not None else (
        sys.maxsize if fed is None else fed)
    u0_dims = [_length(p.get("signal")) if isinstance(p, dict) else 0 for p in players]
    built, player_slots = [], []
    for k, base, p in check.entries("system.players", players):
        signal = check.expressions(f"{base}.signal", p.get("signal"), ("t",))
        truth, coupling, slot = _slot(base, p, u0_dims[k], dim, lam, check)
        player_slots.append(slot)
        if signal and coupling:
            built.append(Player(signal, FeedbackCoupling(coupling), _epsilon(truth)))
    coalitions, by_players = spec.get("coalitions", []), ctx.sections & {"tactics", "prediction"}
    check.require("system.coalitions", not (coalitions and by_players),
                  f"coalitions cannot be combined with a {' or '.join(sorted(by_players))} "
                  "section, which integrates player slots")
    built_coalitions, coalition_slots = [], []
    for k, base, c in check.entries("system.coalitions", coalitions):
        members = c.get("members")
        if not check.require(f"{base}.members", isinstance(members, list) and members and all(
                isinstance(m, int) and 1 <= m <= len(players) for m in members),
                f"expected a nonempty list of player indices in [1..{len(players)}]"):
            continue
        truth, coupling, slot = _slot(base, c, sum(u0_dims[m - 1] for m in members), dim,
                                      lam, check)
        coalition_slots.append(slot)
        if coupling:
            built_coalitions.append(Coalition(tuple(members), FeedbackCoupling(coupling),
                                              _epsilon(truth)))
    slots, dims = coalition_slots if coalitions else player_slots, ctx.dims
    dims.update(u=sum(u for u, _ in slots), u0=sum(u0_dims), eps=sum(e for _, e in slots),
                phi=dim)
    dyn = check.expressions("system.dynamics", spec.get("dynamics"), ("t",),
                            {"phi": dim, "u": dims["u"], "lambda": lam})
    check.require("system.dynamics", dyn is None or dyn.dim == dim,
                  f"expected {dim} component expressions")
    trace = {"u": dims["u"], "u0": dims["u0"], "eps": dims["eps"], "phi": dim, "dphi": dim}
    invariants = []
    for k, base, inv in check.entries("system.invariants", spec.get("invariants", [])):
        src = inv.get("expression")
        if check.expression(f"{base}.expression", src, ("t",), trace):
            invariants.append(InvariantConstraint(fn=VectorExpression(
                (src,), ("t", *trace), f"{base}.expression"), label=inv.get("label", f"F{k}")))
    if len(check.errors) > start:
        return None
    # The stage inlines every expression vector; see games.compile_stage for the types
    # each one reads.
    system = check.build("system", InteractiveSystem, dim=dim, dynamics=dyn,
                         players=tuple(built), coalitions=tuple(built_coalitions),
                         invariant_constraints=tuple(invariants))
    read = max([i + 1 for vec in (dyn, *(s.coupling.known_form for s in built + built_coalitions))
                for src in vec.sources for name, i in expr.variables(src) if name == "lambda"],
               default=0)
    gap = f"system.slow feeds {fed} of the {read} lambda components read" if read > fed else ""
    return system and SystemPlan(system=system, slow=slow, slow_gap=gap,
                                 initial=np.asarray(spec["initial"], dtype=float))


def _epsilon(truth: VectorExpression | None) -> EpsilonProcess:
    return zero_epsilon() if truth is None else EpsilonProcess(truth, truth.dim)


def _slot(path: str, spec: dict, u0_dim: int, dim: int, lam: int, check: _Check):
    """A player's or coalition's compiled truth and coupling, and (control, eps) sizes."""
    eps, truth, eps_dim = spec.get("epsilon"), None, 0
    if eps is not None and check.mapping(f"{path}.epsilon", eps):
        truth = check.expressions(f"{path}.epsilon.truth", eps.get("truth"), ("t",),
                                  {"u0": u0_dim, "phi": dim})
        eps_dim = _length(eps.get("truth"))
    coupling = check.expressions(f"{path}.coupling", spec.get("coupling"), ("t",),
                                 {"u0": u0_dim, "phi": dim, "eps": eps_dim, "lambda": lam})
    return truth, coupling, (_length(spec.get("coupling")), eps_dim)


def _slow(spec, check: _Check) -> tuple[SlowControl | None, int | None]:
    """The external slow parameter and the number of lambda components it feeds: the
    length of its schedule or of every step's values.  A malformed spec feeds None."""
    if isinstance(spec, dict) and "schedule" in spec:
        vec = check.expressions("system.slow.schedule", spec["schedule"], ("t",))
        return (SlowControl(vec), vec.dim) if vec else (None, None)
    steps = spec.get("steps") if isinstance(spec, dict) else None
    if not check.require("system.slow", isinstance(steps, list) and all(
            isinstance(s, list) and len(s) == 2 and isinstance(s[0], int)
            and isinstance(s[1], list) and all(map(_is_number, s[1])) for s in steps),
            "needs either a schedule or steps [[index, [values]], ...]"):
        return None, None
    schedule = tuple((int(s), tuple(float(x) for x in v)) for s, v in steps)
    sizes = sorted({len(v) for _, v in schedule})
    if not check.require("system.slow.steps", len(sizes) <= 1,
                         f"every step needs the same number of values, got {sizes}"):
        return None, None
    return check.build("system.slow.steps", SlowControl, schedule=schedule), max(sizes, default=0)


def _verbalization(spec: dict, ctx: _Context, check: _Check) -> VerbalizationPlan | None:
    """Walk the verbalization section; record the window summary sizes in ``ctx.dims``."""
    start, run, dims = len(check.errors), ctx.run, ctx.dims
    grid = _as_grid(spec.get("windows"), "verbalization.windows", check)
    off_grid = [float(x) for x in grid or () if run is not None and not run.on_grid(x)]
    check.require("verbalization.windows", not off_grid, f"window points {off_grid} are "
                  f"not samples of the run at dt {run and run.dt!r}")
    omega = _functionals(spec.get("omega"), "verbalization.omega", check)
    v = _functionals(spec.get("v"), "verbalization.v", check)
    sizes = {"eps": dims["eps"], "u0": dims["u0"], "u": dims["u"], "state": dims["phi"]}
    dims.update(omega=sum(sizes[f.source] for f in omega or ()),
                v=sum(sizes[f.source] for f in v or ()))
    cells = _cells(spec["cells"], dims["eps"], check) if "cells" in spec else None
    recurrence, rec = {}, spec.get("recurrence")
    if "recurrence" in spec and check.mapping("verbalization.recurrence", rec):
        recurrence = _recurrence(rec, dims, len(grid or ()) - 1, check)
    if len(check.errors) > start:
        return None
    return VerbalizationPlan(grid=tuple(grid), omega_functionals=omega, v_functionals=v,
                             cells=cells, **recurrence)


def _recurrence(spec: dict, dims: dict, n_windows: int, check: _Check) -> dict:
    path, tol, family = "verbalization.recurrence", spec.get("tol", 1e-6), spec.get("family")
    if not check.number(f"{path}.tol", tol, positive=True) or not check.require(
            f"{path}.family", family in ("declared", "fit"),
            f"expected 'declared' or 'fit', got {family!r}"):
        return {}
    if family == "declared":
        check.require(path, n_windows != 1, "a declared recurrence is verified between "
                      "consecutive windows; the window grid has only one")
        fn = check.expressions(f"{path}.expression", spec.get("expression"), (),
                               {"omega": dims["omega"], "v": dims["v"]})
        return fn and {"recurrence_tol": float(tol), "recurrence": RecurrenceMap(
            family="declared", form=fn)} or {}
    k, low = spec.get("fit_windows"), dims["omega"] + dims["v"] + 1
    check.require(f"{path}.fit_windows", isinstance(k, int) and low <= k < n_windows,
                  f"expected an integer in [{low}..{n_windows - 1}]: one window per fitted "
                  f"coefficient, and two left to verify, got {k!r}")
    return {"fit_windows": k, "recurrence_tol": float(tol)}


def _cells(spec, eps_dim: int, check: _Check) -> CellComplex | None:
    path = "verbalization.cells"
    if not check.mapping(path, spec):
        return None
    start, dim, box = len(check.errors), spec.get("dim"), spec.get("box")
    dim_ok = check.integer(f"{path}.dim", dim) and check.require(
        f"{path}.dim", dim <= eps_dim, f"{dim} exceeds the hidden-parameter width {eps_dim}")
    check.require(f"{path}.box", isinstance(box, list) and (not dim_ok or len(box) == dim)
                  and all(isinstance(b, list) and len(b) == 2 and all(map(_is_number, b))
                          for b in box), "expected one [lo, hi] pair per axis")
    cells = []
    for _, base, c in check.entries(f"{path}.cells", spec.get("cells")):
        check.require(f"{base}.label", isinstance(c.get("label"), str), "expected a string label")
        conditions = []
        for _, where, cond in check.entries(f"{base}.conditions", c.get("conditions", [])):
            op = cond.get("op")
            op_ok = check.require(f"{where}.op", op in ("<", "<=", ">", ">="),
                                  f"unknown comparison {op!r}")
            if dim_ok and check.expression(f"{where}.expr", cond.get("expr"),
                                           vectors={"eps": dim}) and op_ok:
                conditions.append(CellCondition(expression=cond["expr"], op=op))
        cells.append(Cell(label=c.get("label"), conditions=tuple(conditions)))
    if len(check.errors) > start:
        return None
    complex_ = check.build(path, CellComplex, dim=dim, cells=tuple(cells),
                           box=tuple((float(lo), float(hi)) for lo, hi in box))
    for problem in complex_ and check.build(path, complex_.coverage_errors, 5) or ():
        check.add(path, problem)
    return complex_


def _tactics(spec: dict, ctx: _Context, check: _Check) -> TacticsPlan | None:
    mode, games, dims = spec.get("mode", "commented"), spec.get("games"), ctx.dims
    n = 1 if mode == "commented" else _length(games)
    if not (check.require("tactics", "verbalization" in ctx.sections,
                          "a tactics scenario needs a verbalization section")
            and check.require("tactics.mode", mode in ("commented", "interaction", "synthesis"),
                              f"unknown mode {mode!r}")
            and check.require("tactics.games", mode == "commented" or n >= 2,
                              "expected at least two game declarations")
            and check.require("tactics.games", mode != "interaction" or n == 2,
                              "interaction couples exactly two games")):
        return None
    start = len(check.errors)
    entries = check.entries("tactics.games", games) if n > 1 else [(0, "tactics", spec)]
    theta, omega, v = dims["theta"] or 0, dims.get("omega", 0), dims.get("v", 0)
    rule_vectors = {"theta": theta, "omega": omega, "v": v}
    form_vectors = {f"{name}{i}": rule_vectors[name]
                    for i in range(1, n + 1) for name in ("theta", "omega", "v")}
    rules, terms, forms = [], [], []
    for _, base, g in entries:
        check.vector(f"{base}.theta0", g.get("theta0"), dims["theta"])
        if mode == "synthesis":
            # A game's synthesis form may read only the games of its mask.
            mask = g.get("mask")
            form = check.require(f"{base}.mask", isinstance(mask, list) and mask and all(
                isinstance(i, int) and 1 <= i <= n for i in mask),
                f"expected a list of 1-based game indices in [1..{n}]") and check.expressions(
                f"{base}.form", g.get("form"), (), form_vectors)
            forms.append(form)
            for name, _ in sorted(set().union(*map(expr.variables, g["form"])), key=str) \
                    if form else ():
                idx = int("".join(ch for ch in name if ch.isdigit()) or 0)
                check.require(f"{base}.form", idx in mask, f"variable {name!r} reads game "
                              f"{idx}, outside the declared mask {sorted(set(mask))}")
            continue
        rules.append(check.expressions(f"{base}.rule", g.get("rule"), (), rule_vectors))
        check.require(f"{base}.rule", _length(g.get("rule")) in (0, theta),
                      "one expression per comment component")
        if mode == "interaction":
            other = {"theta": theta, "other": theta, "omega": omega, "v": v}
            terms.append(check.expressions(f"{base}.interaction", g.get("interaction"), (), other))
    system, verb, run = ctx.plans.get("system"), ctx.plans.get("verbalization"), ctx.run
    if len(check.errors) > start or system is None or verb is None or run is None:
        return None
    plays = [CommentedGame(system=system.system, initial=system.initial, dt=run.dt,
                           omega_functionals=verb.omega_functionals,
                           v_functionals=verb.v_functionals, window_grid=verb.grid,
                           theta0=np.asarray(g["theta0"], dtype=float))
             for _, _, g in entries]
    if mode == "commented":
        return TacticsPlan(mode=mode, games=plays, rule=commented_as_synthesis(rules[0]))
    if mode == "interaction":
        return TacticsPlan(mode=mode, games=plays, rule=interaction_as_synthesis(*rules, *terms))
    zeros = (np.zeros(theta), np.zeros(omega), np.zeros(v))
    masks = tuple(frozenset(i - 1 for i in g["mask"]) for _, _, g in entries)
    # A form reads (theta, omega, v) of each game in its mask, and zeros for the others.
    rule = check.build("tactics.games", SynthesisRule, masks=masks, forms=tuple(
        lambda th, om, vs, _f=f, _m=m: _f(*[x[i] if i in _m else zero for i in range(n)
                                               for x, zero in zip((th, om, vs), zeros)])
        for f, m in zip(forms, masks)))
    return rule and TacticsPlan(mode=mode, games=plays, rule=rule)


def _prediction(spec: dict, ctx: _Context, check: _Check) -> PredictionPlan | None:
    start, dims, run, filter_spec = len(check.errors), ctx.dims, ctx.run, None
    f, family = spec.get("filter"), spec.get("family", [])
    if "filter" in spec and check.mapping("prediction.filter", f):
        cutoff, half, bands = f.get("cutoff"), f.get("band_halfwidth"), f.get("bands", [])
        ok = cutoff is None or check.number("prediction.filter.cutoff", cutoff, positive=True)
        if ok and cutoff is not None and f.get("kind", "lowpass") == "lowpass" and run is not None:
            nyquist = np.pi / ((run.t0 + run.dt) - run.t0)     # at the step the run records
            check.require("prediction.filter.cutoff", cutoff <= nyquist, f"cutoff "
                          f"{float(cutoff)!r} above the Nyquist rate {nyquist!r} at dt {run.dt!r}")
        ok &= check.vector("prediction.filter.bands", bands) and (
            half is None or check.number("prediction.filter.band_halfwidth", half, True))
        filter_spec = ok and check.build("prediction.filter", FilterSpec, cutoff=cutoff,
                                         kind=f.get("kind", "lowpass"), bands=tuple(bands),
                                         band_halfwidth=half)
    if not check.require("prediction.family", isinstance(family, list),
                         "expected a list of expression strings"):
        family = []
    for k, src in enumerate(family):
        # Regressors read the state and the filtered controls, one per control column.
        check.expression(f"prediction.family[{k}]", src, (), {"phi": dims["phi"], "u0": dims["u"]})
    pipe, path, horizon, signals = spec.get("pipeline"), "prediction.pipeline", 0.0, None
    if "pipeline" in spec and check.mapping(path, pipe):
        horizon, assumed, system = pipe.get("horizon"), pipe.get("assumed_eps"), ctx.plans["system"]
        if check.number(f"{path}.horizon", horizon) and horizon > 0 and run is not None:
            check.require(f"{path}.horizon", whole_steps(0.0, horizon, run.dt),
                          f"horizon {horizon!r} is not a whole number of steps of dt {run.dt!r}")
        slots = len(system.system.players) if system is not None else _length(assumed)
        if check.require(f"{path}.assumed_eps", isinstance(assumed, list) and assumed and len(
                assumed) == slots, "expected one signal declaration per hidden-parameter slot"):
            widths = [p.epsilon.dim for p in system.system.players] if system else [None] * slots
            signals = [_assumed_eps(f"{path}.assumed_eps[{k}]", sources, width, check)
                       for k, (sources, width) in enumerate(zip(assumed, widths))]
    if len(check.errors) > start:
        return None
    return PredictionPlan(filter=filter_spec or None, family=tuple(family), horizon=float(horizon),
                          assumed_eps=signals)


def _assumed_eps(path: str, sources, width: int | None,
                 check: _Check) -> VectorExpression | None:
    """A slot's assumed hidden parameter: ``width`` expressions of ``t``, or [] for a slot
    without one.  A width of None (a malformed system) is not checked."""
    if width == 0 and sources == []:
        return expr.compile_vector((), ("t",), path=path)
    vec = check.expressions(path, sources, ("t",))
    return vec if check.require(path, vec is None or width in (None, vec.dim),
                                f"expected {width} expressions, one per component of the "
                                "slot's hidden parameter") else None


def _repdyn(spec: dict, ctx: _Context, check: _Check) -> RepdynPlan | None:
    start, mode = len(check.errors), spec.get("mode", "integrate")
    registry = _registry(spec.get("classes", {}), check)
    mats, initial = spec.get("tuple"), None
    if check.require("repdyn.tuple", isinstance(mats, list) and mats,
                     "expected a list of matrices"):
        parsed = [_parse_matrix(m, f"repdyn.tuple[{k}]", check) for k, m in enumerate(mats)]
        if all(m is not None for m in parsed):
            initial = check.build("repdyn.tuple", stack_tuple, parsed)
    if not check.require("repdyn.mode", mode in ("integrate", "tactical"),
                         f"unknown mode {mode!r}"):
        return None
    control, control_dim = None, _length(spec.get("control"))
    if "control" in spec:
        control = check.expressions("repdyn.control", spec["control"], ("t",))
    tol, threshold = spec.get("tolerance", ctx.tolerance or 1e-9), spec.get("threshold", 1e-5)
    if check.number("repdyn.tolerance", tol, True) & check.number("repdyn.threshold", threshold,
                                                                   True):
        tol, threshold = float(tol), float(threshold)
    limits = {"control_dim": control_dim, "tolerance": tol, "insolvable_threshold": threshold}
    if mode == "integrate":
        dynamics, pres = _dynamics(spec, "repdyn", control_dim, check), None
        decl = spec.get("presentation")
        if "presentation" in spec:
            label = decl.get("label", "scenario") if isinstance(decl, dict) else None
            pres = _presentation(decl, "repdyn.presentation", label, check)
        elif check.require("repdyn", "class" in spec,
                           "integrate mode needs a presentation or class") and initial is not None:
            pres = check.build("repdyn.class", registry.presentation, str(spec["class"]),
                               initial.shape[0])
        if len(check.errors) > start:
            return None
        made = check.build("repdyn", RepDynSpec, symbols=dynamics.symbols, presentation=pres,
                           n=initial.shape[1], constants=dynamics.constants, **limits)
        if made is None or check.build("repdyn", check_start, made, initial) is None:
            return None
        return RepdynPlan(mode=mode, spec=made, start=initial, control=control)

    class_dynamics, declared = {}, spec.get("class_dynamics")
    for label, decl in declared.items() if check.mapping("repdyn.class_dynamics",
                                                         declared) else ():
        path = f"repdyn.class_dynamics.{label}"
        check.require(path, label in registry.labels(), "unresolved class label")
        class_dynamics[label] = _dynamics(decl, path, control_dim, check)
    transitions = _transitions(spec.get("transitions", []), check)
    eta0, run = spec.get("eta0", [0.0]), ctx.run
    check.vector("repdyn.eta0", eta0)
    grid = _as_grid(spec.get("windows"), "repdyn.windows", check)
    bad = [(float(a), float(b)) for a, b in zip(grid or (), (grid or ())[1:])
           if run is not None and not whole_steps(a, b, run.dt)]
    check.require("repdyn.windows", not bad, f"windows {bad} do not span whole steps of dt "
                  f"{run and run.dt!r}")
    if len(check.errors) > start:
        return None
    delta = check.build("repdyn.transitions", DialecticalObject,
                        label=spec.get("delta_label", "scenario"), transitions=transitions)
    game = delta and check.build(
        "repdyn", TacticalRepDyn, registry=registry, class_dynamics=class_dynamics,
        initial_class=spec.get("initial_class"), initial=initial, delta=delta,
        eta0=np.asarray(eta0, dtype=float), control=control, **limits)
    return game and RepdynPlan(mode=mode, tactical=game, windows=tuple(grid), control=control)


def _registry(spec, check: _Check) -> AlgebraClassRegistry:
    """The builtin algebra classes plus the scenario's own; a malformed class is left out."""
    classes = dict(default_registry().classes)
    for label, decl in spec.items() if check.mapping("repdyn.classes", spec) else ():
        if decl == "builtin":
            check.require(f"repdyn.classes.{label}", label in classes, "not a builtin class")
        elif pres := _presentation(decl, f"repdyn.classes.{label}", label, check):
            classes[label] = (pres,)
    return AlgebraClassRegistry(classes=classes)


def _presentation(decl, path: str, label, check: _Check) -> AlgebraPresentation | None:
    gens = decl.get("generators") if isinstance(decl, dict) else None
    relations = decl.get("relations", []) if isinstance(decl, dict) else None
    if not check.require(f"{path}.generators", isinstance(gens, int)
                         and 1 <= gens <= MAX_GENERATORS,
                         f"expected an integer in [1..{MAX_GENERATORS}], got {gens!r}") \
            or not check.require(f"{path}.relations", isinstance(relations, list) and all(
                isinstance(r, str) for r in relations), "expected a list of relation strings"):
        return None
    polys = [check.build(f"{path}.relations[{k}]", parse_relation, rel, gens)
             for k, rel in enumerate(relations)]
    return None if None in polys else check.build(
        path, AlgebraPresentation, label=label, generators=gens, relations=tuple(polys))


def _dynamics(decl, path: str, control_dim: int, check: _Check) -> ClassDynamics | None:
    """Weyl symbols, one term list per tuple slot, and the constant matrices they name.

    A term is ``coeff * a[control] * word``; letters ``x<k>`` are tuple slots, others constants.
    """
    if not check.mapping(path, decl):
        return None
    start, symbols, constants = len(check.errors), decl.get("symbols"), decl.get("constants", {})
    if not check.require(f"{path}.symbols", isinstance(symbols, list) and symbols,
                         "expected one term list per tuple slot"):
        symbols = []
    built = []
    for k, terms in enumerate(symbols):
        made = []
        for _, where, term in check.entries(f"{path}.symbols[{k}]", terms):
            word, control = term.get("word", []), term.get("control")
            if not check.require(f"{where}.word", isinstance(word, list) and len(word) <= 3
                                 and all(isinstance(x, str) for x in word),
                                 "expected a letter list of degree <= 3"):
                continue
            letters = tuple(int(x[1:]) - 1 if x[:1] == "x" and x[1:].isdecimal() else x
                            for x in word)
            check.require(f"{where}.word", -1 not in letters, "generator letters start at x1")
            check.require(f"{where}.control", control is None or (
                isinstance(control, int) and 0 <= control < control_dim),
                f"control index {control!r} outside the declared schedule")
            coeff = _parse_complex(term.get("coeff", 1.0), f"{where}.coeff", check)
            made.append(WeylTerm(coefficient=coeff, word=letters, control=control))
        built.append(WeylSymbol(terms=tuple(made)))
    matrices = {name: _parse_matrix(mat, f"{path}.constants.{name}", check)
                for name, mat in (constants.items()
                                  if check.mapping(f"{path}.constants", constants) else ())}
    return None if len(check.errors) > start else ClassDynamics(symbols=tuple(built),
                                                                 constants=matrices)


def _transitions(spec, check: _Check) -> tuple[TransitionRule, ...]:
    out = []
    for _, base, t in check.entries("repdyn.transitions", spec):
        for key in ("from", "to"):
            check.require(f"{base}.{key}", isinstance(t.get(key), str),
                          f"expected a class label, got {t.get(key)!r}")
        check.require(f"{base}.trigger", t.get("trigger") == "insolvable",
                      "scenario transitions support the 'insolvable' trigger")
        mapper, embed = None, t.get("embed")
        if "embed" in t and check.mapping(f"{base}.embed", embed) and check.require(
                f"{base}.embed.args", isinstance(embed.get("args", []), list) and all(
                    isinstance(a, int) and a >= 1 for a in embed.get("args", [])),
                "expected a list of 1-based slot indices"):
            mapper = check.build(f"{base}.embed", tuple_map, embed.get("name"),
                                 *embed.get("args", []))
        out.append(TransitionRule(from_class=t.get("from"), trigger=t.get("trigger"),
                                  to_class=t.get("to"), tuple_map=mapper))
    return tuple(out)


def _invert(spec: dict, ctx: _Context, check: _Check) -> InvertPlan | None:
    start, rhs, control_dim = len(check.errors), spec.get("rhs"), spec.get("control_dim", 1)
    if not check.require("invert.rhs", isinstance(rhs, list) and rhs,
                         "expected one polynomial per state component") \
            or not check.integer("invert.control_dim", control_dim, low=0):
        return None
    check.require("invert.rhs", len(rhs) <= MAX_GENERATORS, f"{len(rhs)} state components "
                  f"exceed the generator cap {MAX_GENERATORS}, one generator per component")
    scalars = tuple(f"x{i + 1}" for i in range(len(rhs))) + \
        tuple(f"u{j + 1}" for j in range(control_dim))
    for k, src in enumerate(rhs):
        if check.expression(f"invert.rhs[{k}]", src, scalars=scalars):
            check.build(f"invert.rhs[{k}]", _parse_polynomial_rhs, [src], len(rhs), control_dim)
    check.vector("invert.x0", spec.get("x0"), len(rhs))
    vec = None
    # An autonomous system (control_dim 0) needs no control schedule: its control is empty.
    if control_dim or "control" in spec:
        vec = check.expressions("invert.control", spec.get("control"), ("t",))
        check.require("invert.control", _length(spec.get("control")) in (0, control_dim),
                      f"expected {control_dim} control expressions")
    matrix_dim, slot = spec.get("matrix_dim", 2), spec.get("designated_slot", 0)
    dim_ok = check.integer("invert.matrix_dim", matrix_dim) and check.require(
        "invert.matrix_dim", matrix_dim <= MAX_MATRIX_DIM,
        f"matrix dimension {matrix_dim} exceeds the desk-scale cap {MAX_MATRIX_DIM}")
    if check.integer("invert.designated_slot", slot, low=0) and dim_ok:
        check.require("invert.designated_slot", slot < matrix_dim,
                      f"slot {slot} is outside the matrix dimension {matrix_dim}")
    if len(check.errors) > start:
        return None
    return InvertPlan(rhs=tuple(rhs), x0=tuple(float(x) for x in spec["x0"]),
                      control_dim=control_dim, matrix_dim=matrix_dim, designated_slot=slot,
                      lift_constants=bool(spec.get("lift_constants", False)),
                      u_schedule=vec or expr.compile_vector((), ("t",), path="invert.control"))


# Section walks in dependency order: later walks read the dims and plans of earlier ones.
_WALKS = {"system": _system, "verbalization": _verbalization, "tactics": _tactics,
          "prediction": _prediction, "repdyn": _repdyn, "invert": _invert}
