"""Representative dynamics: constrained matrix ODE integration and its inverses.

The matrix tuple evolves under Weyl-symbol dynamics while a Gauss-Newton
projection holds it on the relation variety of the current algebra
presentation after every step.  The run raises the "insolvable in current
class" signal when a raw step leaves the variety beyond the declared
consistency threshold or when the projection stalls; in the tactical variant
that signal drives class transitions through a configured dialectical object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .algebra import (AlgebraClassRegistry, AlgebraPresentation, MatrixTuple, WeylSymbol,
                      WeylTerm, commutative_presentation, compile_symbols, identity,
                      relation_values, weyl_eval_tuple)
from .expr import Emitter, NCPoly, VectorExpression, _tokenize, nc_evaluate, validate
from .games import (ConfigurationError, InteractiveSystem, Player, SimulationError,
                    identity_coupling, real_array, rk4_step, simulate, step_count, zero_epsilon)
from .tactics import CommentState, DialecticalObject, TransitionRule
from .verbalization import WindowRecord

# Relative singular-value cutoff of the projection's least-squares step.  Relation
# Jacobians are rank-deficient (83 of 108 on conjugated dim-6 Heisenberg tuples); numpy's
# default cutoff keeps their numerically-zero singular values, whose minimum-norm step
# amplifies rounding noise so the residual stalls above the tolerance.
PROJECTION_RCOND = 1e-12
MAX_TRANSITIONS_PER_WINDOW = 8      # more in one window: the scenario does not settle
# Complex entries per batch of Jacobian outer products (64 KiB).  Larger temporaries pass
# glibc's default mmap threshold and are faulted in afresh on every call: at n = 6 one
# batch per level took up to twice the time of the per-word loop.
JACOBIAN_BATCH_ENTRIES = 4096


class StrandedClassError(SimulationError):
    """Insolvable signal with no transition entry for the current class."""

    def __init__(self, class_label: str, window_index: int, time: float):
        super().__init__(
            f"integration insolvable in class {class_label!r} during window "
            f"{window_index} (t={time!r}) and the transition table has no entry")
        self.class_label = class_label
        self.window_index = window_index
        self.time = time


@dataclass(frozen=True)
class InsolvableSignal:
    time: float
    residual: float
    reason: str


@dataclass(frozen=True)
class RepDynSpec:
    """One algebra class's dynamics: Weyl symbols and the representation constraint.

    The tuple has one ``n x n`` matrix per generator of ``presentation``.
    ``insolvable_threshold`` bounds the raw (pre-projection) residual a step
    may produce before the run is declared insolvable in the current class;
    the projection itself must reach ``tolerance``.  ``plan`` is the symbols'
    evaluator (:func:`compile_symbols`) for the tuple shape, the constants and
    ``control_dim``.
    """

    symbols: tuple[WeylSymbol, ...]
    presentation: AlgebraPresentation
    n: int
    constants: Mapping[str, np.ndarray] = field(default_factory=dict)
    control_dim: int = 0
    tolerance: float = 1e-9
    insolvable_threshold: float = 1e-5
    plan: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "constants",
                           {k: np.asarray(v, dtype=complex)
                            for k, v in dict(self.constants).items()})
        m = self.presentation.generators
        if len(self.symbols) != m:
            raise ConfigurationError(f"{len(self.symbols)} symbols declared, presentation "
                                     f"{self.presentation.label!r} has {m} generators")
        object.__setattr__(self, "plan", compile_symbols(
            self.symbols, m, self.n, self.constants, self.control_dim))


def check_start(spec: RepDynSpec, stacked: np.ndarray) -> float:
    """The relation residual of a start tuple, which must be ``(m, n, n)`` and on the variety."""
    shape = (spec.presentation.generators, spec.n, spec.n)
    if np.shape(stacked) != shape:
        raise ConfigurationError(
            f"initial tuple has shape {np.shape(stacked)}, the presentation needs {shape}")
    residual = relation_values(spec.presentation, stacked)[1]
    if not residual <= spec.tolerance:
        raise ConfigurationError(
            f"initial tuple violates the constraint: residual "
            f"{residual:.3e} > tolerance {spec.tolerance:.3e}")
    return residual


@dataclass
class RepDynResult:
    """Accepted samples: ``states[k]`` is the ``(m, n, n)`` tuple at ``times[k]``."""

    times: np.ndarray
    states: np.ndarray
    residuals: np.ndarray
    insolvable: InsolvableSignal | None = None

    @property
    def tuples(self) -> list[MatrixTuple]:
        return [MatrixTuple.from_stacked(state) for state in self.states]

    @property
    def final(self) -> MatrixTuple:
        return MatrixTuple.from_stacked(self.states[-1])


def _relation_jacobian(pres: AlgebraPresentation, stacked: np.ndarray,
                       m: int, n: int) -> np.ndarray:
    """Complex Jacobian of the stacked relation entries w.r.t. tuple entries.

    Relations are holomorphic in the entries, so complex least squares on this
    Jacobian is equivalent to the stacked real/imaginary problem.  Letter j of
    a word ``P X_j Q`` contributes ``kron(P, Q.T)`` to its block; the block is
    viewed as ``(n, n, n, n)`` and takes that Kronecker product as the outer
    product ``P[i, j] * Q.T[k, l]`` at ``[i, k, j, l]``.  All words' ``P`` and ``Q``
    are built with one stacked product per length; each level of ``pair_levels``
    adds one term to each of its blocks, so every block sums its terms in order.
    """
    plan, eye = pres.plan, identity(n)[None]
    prefixes, suffixes = [eye], [eye]
    for position, longer, tail in zip(plan.letters, plan.letters[1:], plan.tails):
        count = len(longer)     # the words with a letter after this position
        prefixes.append(prefixes[-1][:count] @ stacked.take(position[:count], 0))
        suffixes.append(stacked.take(tail, 0) @ suffixes[-1][:count])
    prefixes, suffixes = np.concatenate(prefixes), np.concatenate(suffixes).swapaxes(1, 2)
    jac = np.zeros((plan.relations, n, n, m, n, n), dtype=complex)
    step = max(1, JACOBIAN_BATCH_ENTRIES // n ** 4)
    for level in plan.pair_levels:
        for start in range(0, len(level[0]), step):
            prefix, suffix, coeffs, relations, letters = (a[start:start + step] for a in level)
            pre, suf = prefixes.take(prefix, 0), suffixes.take(suffix, 0)
            jac[relations, :, :, letters] += coeffs * (pre[:, :, None, :, None]
                                                       * suf[:, None, :, None, :])
    return jac.reshape(plan.relations * n * n, m * n * n)


def project_to_variety(pres: AlgebraPresentation, stacked: np.ndarray, tolerance: float,
                       cap: int = 50, values: tuple[np.ndarray, float] | None = None
                       ) -> tuple[np.ndarray, float, bool]:
    """Gauss-Newton projection of an ``(m, n, n)`` tuple onto the relation variety.

    Returns (projected tuple, residual, converged).  Each iteration takes the
    minimum-norm least-squares step of the linearized relations in all tuple
    entries.  An iterate with a non-finite residual stops it unconverged.
    ``values`` is ``relation_values(pres, stacked)`` when the caller holds it.
    """
    m, n = stacked.shape[0], stacked.shape[1]
    scale = max(1.0, float(np.max(np.abs(stacked))))
    residual_vec, residual = relation_values(pres, stacked) if values is None else values
    for _ in range(cap):
        if residual <= tolerance or not math.isfinite(residual):
            break
        jac = _relation_jacobian(pres, stacked, m, n)
        delta, _, _, _ = np.linalg.lstsq(jac, -residual_vec, rcond=PROJECTION_RCOND)
        if float(np.max(np.abs(delta))) < 1e-16 * scale:
            break
        stacked = stacked + delta.reshape(m, n, n)
        residual_vec, residual = relation_values(pres, stacked)
    return stacked, residual, residual <= tolerance


def _settle(pres: AlgebraPresentation, stacked: np.ndarray, tolerance: float,
            values: tuple[np.ndarray, float], t: float) -> tuple[np.ndarray, float, bool]:
    """(tuple, residual, converged): ``stacked`` if its relation ``values`` are within
    ``tolerance``, else its projection, which raises at a non-finite (say NaN) residual."""
    if values[1] <= tolerance:
        return stacked, values[1], True
    stacked, residual, converged = project_to_variety(pres, stacked, tolerance, values=values)
    if not math.isfinite(residual):
        raise SimulationError(f"relation residual turned non-finite in presentation "
                              f"{pres.label!r} at t={t!r}")
    return stacked, residual, converged


def integrate_repdyn(spec: RepDynSpec, control: Callable[[float], Sequence[float]] | None,
                     t0: float, t1: float, dt: float, start: np.ndarray) -> RepDynResult:
    """Fixed-step 4th-order integration with per-step projection.

    The run starts from ``start``, an ``(m, n, n)`` tuple on the variety.  On
    an insolvable step the result carries the samples accepted so far plus
    the signal; the failing step is not applied.
    """
    n_steps = step_count(t0, t1, dt)
    plan, control_dim, presentation = spec.plan, spec.control_dim, spec.presentation
    if control is None and control_dim:
        raise ConfigurationError("spec declares controls but no schedule given")

    a_time, a = None, None

    def rhs(t: float, stacked: np.ndarray) -> np.ndarray:
        nonlocal a_time, a
        if control is not None and t != a_time:     # the two middle stages share t
            a_time, a = t, control(t)
            if isinstance(control, VectorExpression):   # a scenario's control is real
                a = real_array(a, control.path, t)
            a = np.asarray(a, dtype=complex)
            if len(a) != control_dim:
                raise ConfigurationError(
                    f"control schedule returns {len(a)} components, spec declares "
                    f"{control_dim}")
        return weyl_eval_tuple(plan, stacked, a)

    residuals = [check_start(spec, start)]
    stacked = start
    states = np.empty((n_steps + 1,) + stacked.shape, dtype=complex)
    states[0] = stacked
    times = [t0]

    def result(insolvable: InsolvableSignal | None = None) -> RepDynResult:
        return RepDynResult(times=np.array(times), states=states[:len(times)],
                            residuals=np.array(residuals), insolvable=insolvable)

    for k in range(n_steps):
        t = t0 + k * dt
        candidate = rk4_step(rhs, t, stacked, dt, rhs(t, stacked))
        t_next = t0 + (k + 1) * dt
        if not np.isfinite(candidate).all():
            stages = []     # the step retaken, each stage's time and symbol values kept
            keep = lambda s, y: stages.append((s, rhs(s, y))) or stages[-1][1]  # noqa: E731
            rk4_step(keep, t, stacked, dt, keep(t, stacked))
            bad = np.argwhere(~np.isfinite([values for _, values in stages]).all(axis=(2, 3)))
            symbol = "".join(f": symbols[{s}] (the dynamics of x{s + 1}) non-finite at stage "
                             f"time t={stages[j][0]!r}" for j, s in bad[:1])
            raise SimulationError(f"matrix tuple diverged in presentation "
                                  f"{presentation.label!r} at t={t_next!r}{symbol}")
        raw = relation_values(presentation, candidate)
        if raw[1] > spec.insolvable_threshold:
            return result(InsolvableSignal(
                time=t_next, residual=raw[1],
                reason="raw step residual exceeded the insolvability threshold"))
        stacked, residual, converged = _settle(presentation, candidate, spec.tolerance, raw,
                                               t_next)
        if not converged:
            return result(InsolvableSignal(
                time=t_next, residual=residual,
                reason="projection did not converge within the iteration cap"))
        times.append(t_next)
        states[k + 1] = stacked
        residuals.append(residual)
    return result()


# ---------------------------------------------------------------------------
# Dynamical inverse problem (commutative-diagonal mode)
# ---------------------------------------------------------------------------

def _parse_polynomial_rhs(sources: Sequence[str], state_dim: int,
                          control_dim: int) -> list[dict[tuple, list[tuple[complex, tuple]]]]:
    """Expand each rhs into x-monomials with u-dependent coefficients.

    Returns one mapping per state slot: sorted x-word -> list of
    (coefficient, sorted u-word).
    """
    letters = {f"{kind}{i + 1}": NCPoly.letter((kind, i))
               for kind, dim in (("x", state_dim), ("u", control_dim)) for i in range(dim)}
    out = []
    for src in sources:
        poly = nc_evaluate(src, letters)
        slots: dict[tuple, list[tuple[complex, tuple]]] = {}
        for word, coeff in poly.terms.items():
            x_word = tuple(sorted(l[1] for l in word if l[0] == "x"))
            u_word = tuple(sorted(l[1] for l in word if l[0] == "u"))
            if len(x_word) > 3:
                raise ConfigurationError(
                    f"rhs {src!r} has degree {len(x_word)} in the state; cap is 3")
            slots.setdefault(x_word, []).append((coeff, u_word))
        out.append(slots)
    return out


@dataclass(frozen=True)
class InverseConstruction:
    """Representative dynamics realizing a polynomial controlled system."""

    spec: RepDynSpec
    start: np.ndarray   # the (m, n, n) diagonal tuple carrying x0
    control_names: tuple[str, ...]
    coefficient_map: Callable  # a(u) -> control vector for the symbols
    designated_slot: int
    symbolic_match: bool

    def control_schedule(self, u_schedule: Callable[[float], Sequence[float]]
                         ) -> Callable[[float], np.ndarray]:
        """The symbols' control vector at ``t``; a complex ``u`` is a SimulationError."""
        return lambda t: self.coefficient_map(real_array(u_schedule(t), "invert.control", t))


def solve_inverse_problem(rhs: Sequence[str], x0: Sequence[float], control_dim: int = 1,
                          matrix_dim: int = 2, designated_slot: int = 0,
                          parallel_initial: Sequence[Sequence[float]] | None = None,
                          lift_constants: bool = False,
                          tolerance: float = 1e-9) -> InverseConstruction:
    """Construct the commutative-diagonal representative dynamics of a system.

    Each state component rides the designated diagonal slot of one diagonal
    matrix; the symbol coefficients are the (control-dependent) polynomial
    coefficients of the right-hand side, exposed through ``coefficient_map``.
    With ``lift_constants`` the control-free constant term of each component
    becomes a constant matrix letter instead of a coefficient.
    """
    state_dim = len(rhs)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (state_dim,):
        raise ConfigurationError("initial state must match the number of rhs components")
    if not 0 <= designated_slot < matrix_dim:
        raise ConfigurationError("designated slot outside the matrix dimension")
    parsed = _parse_polynomial_rhs(rhs, state_dim, control_dim)

    control_entries: list[tuple[int, tuple, tuple[tuple[complex, tuple], ...]]] = []
    symbols: list[WeylSymbol] = []
    constants: dict[str, np.ndarray] = {}
    names: list[str] = []
    for slot, slots in enumerate(parsed):
        terms = []
        for x_word in sorted(slots):
            contributions = tuple(slots[x_word])
            constant_only = all(u_word == () for _, u_word in contributions)
            if lift_constants and x_word == () and constant_only:
                value = sum(c for c, _ in contributions)
                name = f"C{slot}"
                constants[name] = value * np.eye(matrix_dim, dtype=complex)
                terms.append(WeylTerm(coefficient=1.0, word=(name,)))
                continue
            index = len(control_entries)
            control_entries.append((slot, x_word, contributions))
            mono = "*".join(f"x{i + 1}" for i in x_word) if x_word else "1"
            names.append(f"a[{index}] := coeff of {mono} in rhs[{slot}]")
            terms.append(WeylTerm(coefficient=1.0, word=x_word, control=index))
        symbols.append(WeylSymbol(terms=tuple(terms)))

    if parallel_initial is not None:
        diagonals = np.asarray(parallel_initial, dtype=float)
        if diagonals.shape != (state_dim, matrix_dim):
            raise ConfigurationError("parallel initial data must be (state, matrix_dim)")
        if not np.allclose(diagonals[:, designated_slot], x0):
            raise ConfigurationError("designated slot of the parallel data must carry x0")
    else:
        diagonals = np.repeat(x0[:, None], matrix_dim, axis=1)
    initial = MatrixTuple(matrices=tuple(np.diag(diagonals[i].astype(complex))
                                         for i in range(state_dim)))

    spec = RepDynSpec(symbols=tuple(symbols), presentation=commutative_presentation(state_dim),
                      n=initial.n, constants=constants, control_dim=len(control_entries),
                      tolerance=tolerance)
    symbolic_match = _verify_symbolic(parsed, symbols, control_entries, constants)
    return InverseConstruction(spec=spec, start=initial.stacked(), control_names=tuple(names),
                               coefficient_map=_compile_coefficient_map(control_entries),
                               designated_slot=designated_slot,
                               symbolic_match=symbolic_match)


def _compile_coefficient_map(control_entries) -> Callable[[Sequence[float]], np.ndarray]:
    """The symbols' control vector as one generated function of ``u``: entry k is
    ``0j + c1*u[i]*u[j] + c2 ...`` over its contributions, each product and sum in order."""
    emit = Emitter(asarray=np.asarray, array=np.array, complex=complex)
    entries = []
    for _, _, contributions in control_entries:
        terms = ["0j"]
        for coeff, u_word in contributions:
            terms.append("*".join([emit.ref(complex(coeff)), *(f"u[{j}]" for j in u_word)]))
        entries.append(" + ".join(terms))
    return emit.function([("def coefficient_map(u):", ""),
                          ("    u = asarray(u, dtype=complex).ravel().tolist()", ""),
                          (f"    return array([{', '.join(entries)}], dtype=complex)", "")])[0]


def _by_u_word(contributions) -> dict[tuple, complex]:
    total: dict[tuple, complex] = {}
    for c, uw in contributions:
        total[uw] = total.get(uw, 0j) + complex(c)
    return total


def _verify_symbolic(parsed, symbols, control_entries, constants) -> bool:
    """Check the constructed symbol reproduces the rhs monomial-by-monomial."""
    for slot, slots in enumerate(parsed):
        reconstructed: dict[tuple, list[tuple[complex, tuple]]] = {}
        for term in symbols[slot].terms:
            if term.control is None:
                name = term.word[0] if term.word else None
                if name not in constants:
                    return False
                word, contributions = (), ((constants[name][0, 0], ()),)
            else:
                src_slot, word, contributions = control_entries[term.control]
                if (src_slot, word) != (slot, term.word):
                    return False
            reconstructed.setdefault(word, []).extend(
                (term.coefficient * c, uw) for c, uw in contributions)
        for w, contributions in slots.items():
            got = _by_u_word(reconstructed.get(w, ()))
            if w not in reconstructed or any(abs(got.get(uw, 0j) - c) > 1e-12 for uw, c
                                             in _by_u_word(contributions).items()):
                return False
    return True


def _respelled(src: str, names: Mapping[str, str]) -> str:
    """``src`` validated over the scalars ``names``, each of its name tokens respelled."""
    validate(src, tuple(names), {})
    for kind, text, pos in reversed(_tokenize(src)):
        if kind == "name" and text in names:
            src = src[:pos] + names[text] + src[pos + len(text):]
    return src


def integrate_scalar_reference(rhs: Sequence[str], x0: Sequence[float],
                               u_schedule: Callable[[float], Sequence[float]],
                               t0: float, t1: float, dt: float,
                               control_dim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Direct fixed-step 4th-order run of ``xdot = rhs(x, u)``: :func:`simulate` of one player
    with signal ``u_schedule`` and the rhs over ``phi`` and ``u`` as dynamics (``invert.rhs``)."""
    names = {**{f"x{i + 1}": f"phi[{i}]" for i in range(len(rhs))},
             **{f"u{j + 1}": f"u[{j}]" for j in range(control_dim)}}
    sources = tuple(_respelled(src, names) for src in rhs)
    dynamics = VectorExpression(sources, ("t", "phi", "u", "lambda"), "invert.rhs")
    player = Player(u_schedule, identity_coupling(), zero_epsilon())
    run = simulate(InteractiveSystem(len(rhs), dynamics, (player,)), x0, t0, t1, dt,
                   record_tape=False)
    return run.t, run.phi


# ---------------------------------------------------------------------------
# Tactical representative dynamics
# ---------------------------------------------------------------------------

def _append_commutator(i: int, j: int):
    """Append [X_i, X_j] (1-based slots) as a new generator image."""

    def apply(X: np.ndarray) -> np.ndarray:
        if not (1 <= i <= len(X) and 1 <= j <= len(X)):
            raise ConfigurationError(f"append_commutator({i}, {j}) needs slots of a tuple of "
                                     f"{len(X)}")
        a, b = X[i - 1], X[j - 1]
        return np.concatenate((X, (a @ b - b @ a)[None]))

    return apply


# The named tuple embeddings a transition may declare: name -> factory of the map.  A map
# takes and returns a stacked ``(m, n, n)`` complex tuple.
TUPLE_MAPS: dict[str, Callable[..., Callable[[np.ndarray], np.ndarray]]] = {
    "identity": lambda: lambda X: X, "append_commutator": _append_commutator}


def tuple_map(name: str, *args) -> Callable[[np.ndarray], np.ndarray]:
    factory = TUPLE_MAPS.get(name) if isinstance(name, str) else None
    if factory is None:
        raise ConfigurationError(f"unknown tuple embedding {name!r}")
    if len(args) != factory.__code__.co_argcount:
        raise ConfigurationError(f"tuple embedding {name!r} takes "
                                 f"{factory.__code__.co_argcount} arguments, got {len(args)}")
    return factory(*args)


@dataclass(frozen=True)
class ClassDynamics:
    """Per-class dynamics symbols (tuple sizes differ between classes)."""

    symbols: tuple[WeylSymbol, ...]
    constants: Mapping[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class TacticalRepDyn:
    """A tactical run whose ``specs`` hold one compiled spec per class it can reach.

    ``initial`` is the stacked ``(m, n, n)`` start tuple.  A rule leaving a reached
    class, whatever its trigger, reaches its target at the shape its tuple map
    gives a zero tuple of the source's shape.
    """

    registry: AlgebraClassRegistry
    class_dynamics: Mapping[str, ClassDynamics]
    initial_class: str
    initial: np.ndarray
    eta0: np.ndarray
    delta: DialecticalObject
    control_dim: int = 0
    control: Callable[[float], Sequence[float]] | None = None
    tolerance: float = 1e-9
    insolvable_threshold: float = 1e-5
    specs: Mapping[str, RepDynSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.initial_class not in self.registry.labels():
            raise ConfigurationError(f"unknown initial class {self.initial_class!r}")
        known = set(self.registry.labels())
        missing = self.delta.referenced_classes() - known
        if missing:
            raise ConfigurationError(
                f"dialectical object references classes outside the registry: "
                f"{sorted(missing)}")
        for label in self.delta.referenced_classes() | {self.initial_class}:
            if label not in self.class_dynamics:
                raise ConfigurationError(f"no dynamics declared for class {label!r}")
        if np.ndim(self.initial) != 3:
            raise ConfigurationError(f"initial tuple has shape {np.shape(self.initial)}, "
                                     "expected (m, n, n)")
        specs: dict[str, RepDynSpec] = {}
        shapes = {self.initial_class: np.shape(self.initial)}
        reached = [self.initial_class]
        for label in reached:       # grows while it is walked
            m, n, _ = shape = shapes[label]
            presentation = self.registry.presentation(label, m)    # names the class
            dynamics = self.class_dynamics[label]
            try:
                specs[label] = RepDynSpec(
                    symbols=dynamics.symbols, presentation=presentation, n=n,
                    constants=dynamics.constants, control_dim=self.control_dim,
                    tolerance=self.tolerance, insolvable_threshold=self.insolvable_threshold)
                if label == self.initial_class:
                    check_start(specs[label], self.initial)
                for rule in self.delta.transitions:
                    if rule.from_class != label:
                        continue
                    target = shape if rule.tuple_map is None else np.shape(
                        rule.tuple_map(np.zeros(shape, dtype=complex)))
                    if rule.to_class not in shapes:
                        reached.append(rule.to_class)
                    if shapes.setdefault(rule.to_class, target) != target:
                        raise ConfigurationError(f"class {rule.to_class!r} is also reached "
                                                 f"with a tuple of shape {target}")
            except ConfigurationError as exc:
                raise ConfigurationError(f"class {label!r}: {exc}") from None
        object.__setattr__(self, "specs", specs)


@dataclass(frozen=True)
class TransitionEvent:
    time: float
    window_index: int
    from_class: str
    to_class: str
    residual: float


@dataclass
class TacticalRepdynResult:
    times: np.ndarray
    residuals: np.ndarray
    class_stream: list[CommentState]
    transitions: list[TransitionEvent]
    windows: list[WindowRecord]


def _window_summaries(residuals, norms, a_values) -> tuple[np.ndarray, np.ndarray]:
    omega = np.array([float(np.max(residuals)), float(np.mean(norms))])
    v = np.mean(a_values, axis=0) if len(a_values) else np.zeros(0)
    return omega, np.atleast_1d(v)


def run_tactical_repdyn(game: TacticalRepDyn, window_grid: Sequence[float],
                        dt: float) -> TacticalRepdynResult:
    """Integrate per window under the current class, transitioning on insolvability.

    The comment stream pairs the class label with the auxiliary vector eta,
    one entry per window; window summaries are (max residual, mean tuple norm)
    and the mean control.  Each class's spec is read from ``game.specs``.
    """
    if len(window_grid) < 2:
        raise ConfigurationError("window grid needs at least two points")
    label, stacked = game.initial_class, game.initial
    eta = np.atleast_1d(np.asarray(game.eta0, dtype=float))
    all_times: list[float] = []
    all_residuals: list[float] = []
    stream: list[CommentState] = []
    transitions: list[TransitionEvent] = []
    windows: list[WindowRecord] = []

    for n in range(1, len(window_grid)):
        t_a, t_b = float(window_grid[n - 1]), float(window_grid[n])
        t_cursor, fired = t_a, 0
        window_res: list[float] = []
        window_norms: list[float] = []
        window_a: list[np.ndarray] = []
        while True:
            try:
                result = integrate_repdyn(game.specs[label], game.control, t_cursor, t_b, dt,
                                          stacked)
            except SimulationError as exc:
                raise SimulationError(f"class {label!r}: {exc}") from None
            start = 1 if all_times and result.times[0] == all_times[-1] else 0
            all_times.extend(float(t) for t in result.times[start:])
            all_residuals.extend(float(r) for r in result.residuals[start:])
            window_res.extend(result.residuals.tolist())
            window_norms.extend(float(np.linalg.norm(state)) for state in result.states)
            if game.control is not None:
                window_a.extend(np.atleast_1d(real_array(
                    game.control(float(t)), getattr(game.control, "path", "control"), t))
                    for t in result.times)
            stacked = result.states[-1]
            if result.insolvable is None:
                break
            fired += 1
            if fired > MAX_TRANSITIONS_PER_WINDOW:
                raise SimulationError(
                    f"more than {MAX_TRANSITIONS_PER_WINDOW} class transitions "
                    f"inside window {n}; the scenario does not settle")
            rule = game.delta.find(label, "insolvable")
            if rule is None:
                raise StrandedClassError(label, n, result.insolvable.time)
            stacked, eta, label = _apply_transition(
                game, rule, stacked, eta, result.insolvable, transitions, n)
            t_cursor = float(result.times[-1])
            if t_cursor >= t_b:
                break
        omega_n, v_n = _window_summaries(window_res, window_norms, window_a)
        windows.append(WindowRecord(index=n, t_start=t_a, t_end=t_b,
                                    omega=omega_n, v=v_n, cell_label=label))
        stream.append(CommentState(index=n, class_label=label, eta=eta))

    return TacticalRepdynResult(times=np.array(all_times),
                                residuals=np.array(all_residuals),
                                class_stream=stream, transitions=transitions,
                                windows=windows)


def _apply_transition(game: TacticalRepDyn, rule: TransitionRule, stacked: np.ndarray,
                      eta: np.ndarray, signal: InsolvableSignal,
                      transitions: list[TransitionEvent], window_index: int):
    if rule.tuple_map is not None:
        stacked = rule.tuple_map(stacked)
    if rule.eta_update is not None:
        eta = np.atleast_1d(np.asarray(
            rule.eta_update(eta, {"time": signal.time, "residual": signal.residual}),
            dtype=float))
    spec = game.specs[rule.to_class]
    try:
        stacked, residual, converged = _settle(spec.presentation, stacked, spec.tolerance,
                                               relation_values(spec.presentation, stacked),
                                               signal.time)
    except SimulationError as exc:
        raise SimulationError(f"class {rule.to_class!r}: {exc}") from None
    if not converged:
        raise StrandedClassError(rule.to_class, window_index, signal.time)
    transitions.append(TransitionEvent(time=signal.time, window_index=window_index,
                                       from_class=rule.from_class, to_class=rule.to_class,
                                       residual=residual))
    return stacked, eta, rule.to_class
