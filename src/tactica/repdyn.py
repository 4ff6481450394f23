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

from .algebra import (AlgebraClassRegistry, AlgebraPresentation, LabeledInterval, WeylSymbol,
                      WeylTerm, commutative_presentation, equivalence_partition, identity,
                      relation_values, stack_tuple, weyl_eval_tuple, weyl_source)
from .expr import NCPoly, VectorExpression, _tokenize, nc_evaluate, validate
from .games import (ConfigurationError, InteractiveSystem, Player, SimulationError, _rk4_weights,
                    identity_coupling, real_array, rk4_source, rk4_step, simulate, step_count,
                    zero_epsilon)
from .tactics import CommentState, DialecticalObject, TransitionRule
from .verbalization import WindowRecord

# A least-squares result whose residual is within this becomes the kept factor's anchor:
# there the Jacobian's numerically-zero singular values fall below every cutoff.
ANCHOR_RESIDUAL = 1e-12
PROJECTION_CAP = 50                 # Gauss-Newton iterations per projection
PROJECTION_CONTRACTION = 0.1        # the residual cut a kept-factor step must make
MAX_TRANSITIONS_PER_WINDOW = 8      # more in one window: the scenario does not settle
# Complex entries per batch of Jacobian outer products, and per stacked temporary of a run's
# relation check (64 KiB).  Larger temporaries pass glibc's default mmap threshold and are
# faulted in afresh on every call: at n = 6 one batch per level took up to twice the time
# of the per-word loop.
BATCH_ENTRIES = 4096


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


def compile_run(symbols: Sequence[WeylSymbol], m: int, n: int,
                constants: Mapping[str, np.ndarray] | None = None,
                control_dim: int = 0, coefficients: Sequence | None = None
                ) -> tuple[Callable, Callable, Callable]:
    """Generate ``evaluate(x, a)``, ``run(states, k, end, t0, dt, get, read, swallow)`` and
    ``scalars(a)`` for ``symbols``, in one source through :class:`expr.Emitter`.

    ``scalars(a)`` is the tuple of the symbols' control-dependent scalars at the control
    vector ``a``, a complex array or a list of Python floats; with ``coefficients`` ``a`` is
    ``u``, and ``scalars`` first makes that vector as a list, entry k ``0j + c1*u[i]*u[j] +
    c2 ...`` over ``coefficients[k]`` in order.  A list of floats gives the scalars of its
    complex array bit for bit on CPython 3.10 to 3.13 (``requires-python``), whose product
    of a complex and a float is the complex product with ``complex(f, 0.0)``, as numpy's
    complex128 product is; a divided scalar is a numpy division either way
    (:func:`weyl_source`).
    ``evaluate`` maps an ``(m, n, n)`` tuple and ``a`` to one ``(n, n)`` value per symbol:
    the level sums of :func:`weyl_source`, over ``scalars(a)``.  ``run`` takes RK4 steps
    ``k`` to ``end - 1`` of ``y' = evaluate(y, a(t))`` from ``states[k]``, writing the state
    after step s into ``states[s + 1]``; step s starts at ``t0 + s * dt``.  Each stage
    inlines the level sums from the same body lines, and the combination is
    :func:`games.rk4_source`'s, with :func:`rk4_step`'s 0-d weights, so a step is
    :func:`rk4_step` of ``evaluate`` bit for bit.  Each distinct stage time's memo entry
    ``(value, vector, scalars)`` is ``get(t)``, or ``read(t)`` where that is None; the
    k3 stage reuses the k2 stage's scalars, and a step whose start equals the step end
    before reuses that end's.  ``run`` returns ``end``; an exception in step s is raised,
    or with ``swallow`` ends the run there, returning s.
    """
    for j in {j for entry in coefficients or () for _, u_word in entry for j in u_word}:
        if not 0 <= j < control_dim:
            raise ConfigurationError(f"coefficient needs control component {j}, "
                                     f"control dimension is {control_dim}")
    emit, scalars, body = weyl_source(symbols, m, n, constants, control_dim
                                      if coefficients is None else len(coefficients))
    entries = [" + ".join(["0j", *("*".join([emit.ref(complex(c)), *(f"u[{j}]" for j in u_word)])
                                 for c, u_word in entry)]) for entry in coefficients or ()]
    mapped = [] if coefficients is None else [
        "u = a if a.__class__ is list else a.tolist()", f"a = [{', '.join(entries)}]"]
    emit.namespace.update(_weights=_rk4_weights, range=range, Exception=Exception, list=list)
    targets = "".join(f"s{j}, " for j in range(len(scalars)))
    unpack = [f"{targets}= e[2]"] * bool(scalars)
    indent = " " * 12

    def stage(x, k, time):
        """The stage at ``time`` from the tuple ``x[0]`` into ``k[0]``; a time of its own
        reads its memo entry first."""
        name, _, value = time.rpartition(" = ")
        read = []
        if name or not value.isidentifier():    # not the stage before's time
            name = name or "te"
            read = [f"{name} = {value}", f"e = get({name}) or read({name})", *unpack]
        return [(indent + line, "") for line in
                (*read, *(f"x = {x[0]}",) * (x[0] != "x"), *body, f"{k[0]} = out")]

    lines = [
        ("def evaluate(x, a):", ""),
        *((f"    {line}", "") for line in
          (*[f"{targets}= scalars(a)"] * bool(scalars), *body, "return out")),
        ("def run(states, k, end, t0, dt, get, read, swallow):", ""),
        ("    half, full, two, sixth = _weights(dt)", ""),
        ("    y, te = states[k], None", ""),
        ("    try:", ""),
        ("        for s in range(k, end):", ""),
        ("            tk = t0 + s * dt", ""),
        ("            if tk != te:", ""),
        ("                e = get(tk) or read(tk)", ""),
        *((f"                {line}", "") for line in unpack),
        *stage(["y"], ["k1"], "tk"),
        *rk4_source(indent, ["y"], ["x"], (["k1"], ["k2"], ["k3"], ["k4"]), stage),
        ("            states[s + 1] = y", ""),
        ("    except Exception:", ""),
        ("        if swallow:", ""),
        ("            return s", ""),
        ("        raise", ""),
        ("    return end", ""),
        ("def scalars(a):", ""),
        *((f"    {line}", "") for line in mapped),
        (f"    return ({''.join(f'{value}, ' for value in scalars)})", "")]
    return emit.function(lines)[0], emit.namespace["run"], emit.namespace["scalars"]


@dataclass(frozen=True)
class RepDynSpec:
    """One algebra class's dynamics: Weyl symbols and the representation constraint.

    The tuple has one ``n x n`` matrix per generator of ``presentation``.
    ``insolvable_threshold`` bounds the raw (pre-projection) residual a step
    may produce before the run is declared insolvable in the current class;
    the projection itself must reach ``tolerance``.  ``plan``, ``run`` and ``scalars``
    are the symbols' evaluator, RK4 run and control scalars for the tuple shape, the
    constants, ``control_dim`` and ``coefficients``, generated in :func:`compile_run`'s one
    source.  ``coefficients`` (an inverse construction's) holds each entry of the symbols'
    control vector as ``(coefficient, u indices)`` pairs; the control then gives ``u``.
    """

    symbols: tuple[WeylSymbol, ...]
    presentation: AlgebraPresentation
    n: int
    constants: Mapping[str, np.ndarray] = field(default_factory=dict)
    control_dim: int = 0
    tolerance: float = 1e-9
    insolvable_threshold: float = 1e-5
    coefficients: tuple | None = None
    plan: Callable = field(init=False, repr=False, compare=False)
    run: Callable = field(init=False, repr=False, compare=False)
    scalars: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "constants",
                           {k: np.asarray(v, dtype=complex)
                            for k, v in dict(self.constants).items()})
        m = self.presentation.generators
        if len(self.symbols) != m:
            raise ConfigurationError(f"{len(self.symbols)} symbols declared, presentation "
                                     f"{self.presentation.label!r} has {m} generators")
        for name, value in zip(("plan", "run", "scalars"), compile_run(
                self.symbols, m, self.n, self.constants, self.control_dim, self.coefficients)):
            object.__setattr__(self, name, value)


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
    """Accepted samples: ``states[k]`` is the ``(m, n, n)`` tuple at ``times[k]``, and
    ``controls[k]`` the control as the schedule returned it there (empty without one)."""

    times: np.ndarray
    states: np.ndarray
    residuals: np.ndarray
    insolvable: InsolvableSignal | None = None
    controls: list = field(default_factory=list)


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
    plan, eye = pres.plan, identity(n)
    prefixes, suffixes = [eye[None]], [eye[None]]
    if plan.tails:          # words of two letters or more; their first level is identity-led
        prefixes.append((eye @ stacked).take(plan.letters[0][:len(plan.letters[1])], 0))
        suffixes.append((stacked @ eye).take(plan.tails[0], 0))
    for position, longer, tail in zip(plan.letters[1:], plan.letters[2:], plan.tails[1:]):
        count = len(longer)     # the words with a letter after this position
        prefixes.append(prefixes[-1][:count] @ stacked.take(position[:count], 0))
        suffixes.append(stacked.take(tail, 0) @ suffixes[-1][:count])
    prefixes, suffixes = np.concatenate(prefixes), np.concatenate(suffixes).swapaxes(1, 2)
    jac = np.zeros((plan.relations, n, n, m, n, n), dtype=complex)
    step = max(1, BATCH_ENTRIES // n ** 4)
    for level in plan.pair_levels:
        for start in range(0, len(level[0]), step):
            prefix, suffix, coeffs, relations, letters = (a[start:start + step] for a in level)
            pre, suf = prefixes.take(prefix, 0), suffixes.take(suffix, 0)
            jac[relations, :, :, letters] += coeffs * (pre[:, :, None, :, None]
                                                       * suf[:, None, :, None, :])
    return jac.reshape(plan.relations * n * n, m * n * n)


def project_to_variety(pres: AlgebraPresentation, stacked: np.ndarray, tolerance: float,
                       values: tuple[np.ndarray, float] | None = None,
                       anchor: list | None = None) -> tuple[np.ndarray, float, bool]:
    """Gauss-Newton projection of an ``(m, n, n)`` tuple onto the relation variety.

    Returns (projected tuple, residual, converged).  Each iteration takes the
    minimum-norm least-squares step of the linearized relations in all tuple
    entries.  An iterate with a non-finite residual stops it unconverged.
    ``values`` is ``relation_values(pres, stacked)`` when the caller holds it.

    The step treats as zero the singular values of the relation Jacobian below
    ``tolerance * scale`` of the largest, ``scale`` being the tuple's largest entry modulus
    (at least 1).  On the variety the Jacobian is zero along the variety's tangent
    directions; off it, and through rounding, those singular values are lifted (to 1.9e-9,
    3e-10 of the largest, on a conjugated Heisenberg tuple of scale 4).  Cancelling the
    residual along a lifted direction slides the tuple along the variety, by up to 54,000
    times its residual under a fixed 1e-12 cutoff: no projection moves that way (Hairer,
    Lubich and Wanner, *Geometric Numerical Integration*, 2nd ed., section IV.4, project
    along the normal directions).  The rule draws the line at the tolerance, the size to
    which the relations must be cancelled, for a tuple of unit scale, and raises it with
    larger entries, whose products the relations carry with proportionally more rounding.
    The normal directions keep singular values of order one relative to the largest (0.08
    at the smallest on those tuples), far above the line.

    ``anchor`` is a list a run keeps over its projections: the simplified Newton
    iteration of projection methods (ibid.).  The least-squares iteration leaves in it
    ``[result, None]`` when the tuple it returned has a residual within
    ``ANCHOR_RESIDUAL``, and empties it otherwise.  A later projection builds the
    pseudo-inverse of the Jacobian there, with the same cutoff, in place of ``None`` and
    first takes kept steps with it, at most ``PROJECTION_CAP``, each accepted only if it
    cuts the residual to ``PROJECTION_CONTRACTION`` of the last.  Kept steps that reach
    ``tolerance`` are the projection.  At the first that does not contract, the
    least-squares iteration projects ``stacked`` as it does without an anchor.
    """
    m, n = stacked.shape[0], stacked.shape[1]
    scale = max(1.0, float(np.max(np.abs(stacked))))
    cutoff = tolerance * scale
    residual_vec, residual = relation_values(pres, stacked) if values is None else values
    if anchor and residual > tolerance:
        if anchor[1] is None:
            anchor[1] = np.linalg.pinv(_relation_jacobian(pres, anchor[0], m, n), rcond=cutoff)
        kept, kept_vec, kept_residual = stacked, residual_vec, residual
        for _ in range(PROJECTION_CAP):
            step = kept - (anchor[1] @ kept_vec).reshape(m, n, n)
            step_vec, step_residual = relation_values(pres, step)
            if not step_residual <= PROJECTION_CONTRACTION * kept_residual:
                break
            kept, kept_vec, kept_residual = step, step_vec, step_residual
            if kept_residual <= tolerance:
                return kept, kept_residual, True
    for _ in range(PROJECTION_CAP):
        if residual <= tolerance or not math.isfinite(residual):
            break
        jac = _relation_jacobian(pres, stacked, m, n)
        delta, _, _, _ = np.linalg.lstsq(jac, -residual_vec, rcond=cutoff)
        if float(np.max(np.abs(delta))) < 1e-16 * scale:
            break
        stacked = stacked + delta.reshape(m, n, n)
        residual_vec, residual = relation_values(pres, stacked)
        if anchor is not None:
            anchor[:] = (stacked, None) if residual <= ANCHOR_RESIDUAL else ()
    return stacked, residual, residual <= tolerance


def _settle(pres: AlgebraPresentation, stacked: np.ndarray, tolerance: float,
            values: tuple[np.ndarray, float], t: float,
            anchor: list | None = None) -> tuple[np.ndarray, float, bool]:
    """(tuple, residual, converged): ``stacked`` if its relation ``values`` are within
    ``tolerance``, else its projection (with the run's ``anchor``), which raises at a
    non-finite (say NaN) residual."""
    if values[1] <= tolerance:
        return stacked, values[1], True
    stacked, residual, converged = project_to_variety(pres, stacked, tolerance, values=values,
                                                      anchor=anchor)
    if not math.isfinite(residual):
        raise SimulationError(f"relation residual turned non-finite in presentation "
                              f"{pres.label!r} at t={t!r}")
    return stacked, residual, converged


def integrate_repdyn(spec: RepDynSpec, control: Callable[[float], Sequence[float]] | None,
                     t0: float, t1: float, dt: float, start: np.ndarray,
                     memo: dict | None = None) -> RepDynResult:
    """Fixed-step 4th-order integration with per-step projection.

    The run starts from ``start``, an ``(m, n, n)`` tuple on the variety.  On an insolvable
    step the result carries the samples accepted so far plus the signal; the failing step
    is not applied.  The control is evaluated once per stage time: a memo maps each stage
    time from the current step's on to the value the control returned there, its vector
    and the spec's control scalars of that vector (``spec.scalars``), and a sample keeps
    the value of its step's first stage.  A list of ``control_dim`` Python floats, as a
    :class:`VectorExpression` whose components evaluate to floats returns, is its own
    vector.  Any other value (a complex or int entry, numpy numbers, an array) is checked,
    and its vector is its complex array: a scenario's control (a :class:`VectorExpression`)
    and a spec's ``u`` (with ``coefficients``) must be real (:func:`real_array`, named by
    its ``path`` or ``invert.control``), and a value that is not numbers, or not of the
    declared shape, is a :class:`ConfigurationError`.  Their samples are float64 arrays,
    made once per accepted sample.  A caller passes its own ``memo`` to carry it into the
    next integration with the same control, whose first step starts at the last sample's
    time; the scalars it holds are made again for the spec at hand.

    Steps are taken by ``spec.run`` (:func:`compile_run`): a lone step is a run of one.
    Raw steps are taken in runs, each from the last, and one stacked evaluation
    checks a run's candidates against the relations.  The candidates before the
    first that is non-finite or beyond ``tolerance`` are accepted as they are; that
    one is checked, and projected, as a lone step is, and the steps after it are
    discarded, to be retaken from its projection with the control values the memo
    holds for them.
    A run takes as many steps as have come out clean since the last projection, so
    runs double while they stay clean and steps go alone while they project; the
    longest run keeps the check's temporaries within ``BATCH_ENTRIES``.  A run's
    steps after its first, and its check, ignore numpy's floating-point errors, and
    a control that raises there ends the run before that step: a step the lone-step
    loop would not take warns of nothing and raises nothing, and the failing step is
    taken or checked again alone, where it does.  The result is the lone-step loop's
    bit for bit.  The control scalars of a stage time are computed once, at its first
    read, so they warn there or, in a run, not at all.
    """
    n_steps = step_count(t0, t1, dt)
    run, control_dim, presentation = spec.run, spec.control_dim, spec.presentation
    if control is None and (control_dim or spec.coefficients):     # the map reads u
        raise ConfigurationError("spec declares controls but no schedule given")
    # The longest run: its largest stacked temporary, the words' products, is one batch.
    longest = BATCH_ENTRIES // (max(len(presentation.plan.coeffs), presentation.generators)
                                * spec.n ** 2)
    seen = {} if memo is None else memo     # stage time -> (value, vector, scalars)
    scalars = spec.scalars
    for t, (value, vector, _) in seen.items():
        seen[t] = value, vector, scalars(vector)
    anchor = []     # the projections' kept factor: see project_to_variety
    real = isinstance(control, VectorExpression) or spec.coefficients is not None
    path = getattr(control, "path", "invert.control")
    floats = [float] * control_dim      # the classes of a scenario control's value
    sample = np.array if real else lambda value: value      # a real control's: float64

    def read(t: float) -> tuple:
        value = control(t)
        if value.__class__ is list and [*map(type, value)] == floats:
            vector = value      # ``scalars`` indexes the floats themselves
        else:
            vector = np.asarray(value)
            if real:
                vector = real_array(vector, path, t)
            if vector.dtype.kind not in "biufc":        # not parsed from strings
                raise ConfigurationError(f"control schedule returns {vector.tolist()!r}, "
                                         "which is not numeric")
            if vector.shape != (control_dim,):
                got = f"{len(vector)} components" if vector.ndim == 1 else f"shape {vector.shape}"
                raise ConfigurationError(f"control schedule returns {got}, spec declares "
                                         f"{control_dim}")
            if real:    # its sample is the float64 array
                value = vector
            vector = vector.astype(complex, copy=False)
        entry = seen[t] = value, vector, scalars(vector)
        return entry

    get = seen.get if control is not None else lambda t: (None, None, ())    # reads nothing

    def at(t: float) -> tuple:
        return get(t) or read(t)

    residuals = [check_start(spec, start)]
    states = np.empty((n_steps + 1,) + start.shape, dtype=complex)
    states[0] = start
    times = [t0]
    controls = []

    def result(insolvable: InsolvableSignal | None = None) -> RepDynResult:
        return RepDynResult(times=np.array(times), states=states[:len(times)],
                            residuals=np.array(residuals), insolvable=insolvable,
                            controls=controls)

    k, streak = 0, 0      # streak: the clean steps since the last projection
    tolerance = spec.tolerance
    while k < n_steps:
        t = t0 + k * dt
        run(states, k, k + 1, t0, dt, get, read, False)
        if control is not None:     # the sample keeps its step's first control
            controls.append(sample(seen[t][0]))
            for s in [s for s in seen if s < t]:    # the memo holds at most a run's times
                del seen[s]
        raw, end = None, k + 1
        if streak > 1:
            end = k + min(streak, longest, n_steps - k)
        if end > k + 1:     # a run: more steps, each from the last
            with np.errstate(all="ignore"):
                end = run(states, k + 1, end, t0, dt, get, read, True)  # ends before a fault
                values, norms = relation_values(presentation, states[k + 1:end + 1])
            finite = np.isfinite(states[k + 1:end + 1]).all(axis=(1, 2, 3))
            clean = (finite & (norms <= tolerance)).tolist()
            j = clean.index(False) if False in clean else len(clean)
            times.extend(t0 + (s + 1) * dt for s in range(k, k + j))
            residuals.extend(norms[:j].tolist())
            if control is not None:
                controls.extend(sample(seen[t0 + s * dt][0])
                                for s in range(k + 1, min(k + j + 1, end)))
            k += j
            if j == len(clean):     # all clean; a step that raised is retaken alone
                streak += j
                continue
            if finite[j] and math.isfinite(norms[j]):    # else checked again, alone
                raw = values[j], float(norms[j])
        # A lone step, or the run's first that is not clean: checked as a lone step is.
        candidate, t_next = states[k + 1], t0 + (k + 1) * dt
        if not np.isfinite(candidate).all():
            stages = []     # the step retaken, each stage's time and symbol values kept
            keep = lambda s, y: stages.append(  # noqa: E731
                (s, weyl_eval_tuple(spec.plan, y, at(s)[1]))) or stages[-1][1]
            rk4_step(keep, t0 + k * dt, states[k], dt, keep(t0 + k * dt, states[k]))
            bad = np.argwhere(~np.isfinite([v for _, v in stages]).all(axis=(2, 3)))
            symbol = "".join(f": symbols[{s}] (the dynamics of x{s + 1}) non-finite at stage "
                             f"time t={stages[i][0]!r}" for i, s in bad[:1])
            raise SimulationError(f"matrix tuple diverged in presentation "
                                  f"{presentation.label!r} at t={t_next!r}{symbol}")
        if raw is None:
            raw = relation_values(presentation, candidate)
        if raw[1] > spec.insolvable_threshold:
            return result(InsolvableSignal(
                time=t_next, residual=raw[1],
                reason="raw step residual exceeded the insolvability threshold"))
        settled, residual, converged = _settle(presentation, candidate, tolerance, raw, t_next,
                                               anchor)
        if not converged:
            return result(InsolvableSignal(
                time=t_next, residual=residual,
                reason="projection did not converge within the iteration cap"))
        times.append(t_next)
        states[k + 1] = settled
        residuals.append(residual)
        k += 1
        streak = streak + 1 if raw[1] <= tolerance else 0
    if control is not None:     # the last stage's time can differ from t_next in its last bit
        controls.append(sample(at(times[-1])[0]))
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
    """Representative dynamics realizing a polynomial controlled system; ``spec`` reads the
    system's ``u`` schedule as it is, and ``control_names[k]`` names its ``coefficients[k]``."""

    spec: RepDynSpec
    start: np.ndarray   # the (m, n, n) diagonal tuple carrying x0
    control_names: tuple[str, ...]
    designated_slot: int
    symbolic_match: bool


def solve_inverse_problem(rhs: Sequence[str], x0: Sequence[float], control_dim: int = 1,
                          matrix_dim: int = 2, designated_slot: int = 0,
                          parallel_initial: Sequence[Sequence[float]] | None = None,
                          lift_constants: bool = False,
                          tolerance: float = 1e-9) -> InverseConstruction:
    """Construct the commutative-diagonal representative dynamics of a system.

    Each state component rides the designated diagonal slot of one diagonal
    matrix; the symbol coefficients are the (control-dependent) polynomial
    coefficients of the right-hand side, which the spec's ``coefficients`` make of ``u``
    in its one generated source (:func:`compile_run`).  With ``lift_constants`` the
    control-free constant term of each component becomes a constant matrix letter instead
    of a coefficient.
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
    initial = stack_tuple([np.diag(diagonals[i]) for i in range(state_dim)])

    spec = RepDynSpec(symbols=tuple(symbols), presentation=commutative_presentation(state_dim),
                      n=initial.shape[1], constants=constants, control_dim=control_dim,
                      tolerance=tolerance,
                      coefficients=tuple(entry for _, _, entry in control_entries))
    symbolic_match = _verify_symbolic(parsed, symbols, control_entries, constants)
    return InverseConstruction(spec=spec, start=initial, control_names=tuple(names),
                               designated_slot=designated_slot,
                               symbolic_match=symbolic_match)


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
    """``classes`` partitions the accepted samples into intervals of one class each."""

    times: np.ndarray
    residuals: np.ndarray
    class_stream: list[CommentState]
    transitions: list[TransitionEvent]
    windows: list[WindowRecord]
    classes: list[LabeledInterval]


def run_tactical_repdyn(game: TacticalRepDyn, window_grid: Sequence[float],
                        dt: float) -> TacticalRepdynResult:
    """Integrate per window under the current class, transitioning on insolvability.

    The comment stream pairs the class label with the auxiliary vector eta,
    one entry per window; window summaries are (max residual, mean tuple norm)
    and the mean control.  Each accepted sample carries the class it was
    integrated in, and the result partitions them into class intervals.  Each
    class's spec is read from ``game.specs``.
    """
    if len(window_grid) < 2:
        raise ConfigurationError("window grid needs at least two points")
    label, stacked = game.initial_class, game.initial
    eta = np.atleast_1d(np.asarray(game.eta0, dtype=float))
    all_times: list[float] = []
    all_residuals: list[float] = []
    all_labels: list[str] = []
    stream: list[CommentState] = []
    transitions: list[TransitionEvent] = []
    windows: list[WindowRecord] = []

    memo = {}       # one control memo: a window's first step reads its last sample's time
    for n in range(1, len(window_grid)):
        t_a, t_b = float(window_grid[n - 1]), float(window_grid[n])
        fired = 0
        window_res, window_norms, window_a = [], [], []
        while True:
            # Each integration after the first starts at the last accepted sample, its first.
            start = 1 if all_times else 0
            try:
                result = integrate_repdyn(game.specs[label], game.control,
                                          all_times[-1] if start else t_a, t_b, dt, stacked, memo)
            except SimulationError as exc:
                raise SimulationError(f"class {label!r}: {exc}") from None
            all_times.extend(float(t) for t in result.times[start:])
            all_residuals.extend(float(r) for r in result.residuals[start:])
            all_labels.extend([label] * (len(result.times) - start))
            own = 1 if fired else 0     # a restart's first sample repeats the last one's time
            window_res.extend(result.residuals[own:].tolist())
            window_norms.extend(float(np.linalg.norm(state)) for state in result.states[own:])
            window_a.extend(np.atleast_1d(real_array(
                a, getattr(game.control, "path", "control"), t))
                for t, a in zip(result.times[own:], result.controls[own:]))
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
            if all_times[-1] >= t_b:
                break
        omega_n = np.array([float(np.max(window_res)), float(np.mean(window_norms))])
        v_n = np.mean(window_a, axis=0) if window_a else np.zeros(0)
        windows.append(WindowRecord(index=n, t_start=t_a, t_end=t_b, omega=omega_n,
                                    v=np.atleast_1d(v_n), cell_label=label))
        stream.append(CommentState(index=n, class_label=label, eta=eta))

    return TacticalRepdynResult(times=np.array(all_times),
                                residuals=np.array(all_residuals),
                                class_stream=stream, transitions=transitions,
                                windows=windows,
                                classes=equivalence_partition(list(zip(all_times, all_labels))))


def _apply_transition(game: TacticalRepDyn, rule: TransitionRule, stacked: np.ndarray,
                      eta: np.ndarray, signal: InsolvableSignal,
                      transitions: list[TransitionEvent], window_index: int):
    if rule.tuple_map is not None:
        stacked = rule.tuple_map(stacked)
    if rule.eta_update is not None:
        eta = np.atleast_1d(real_array(
            rule.eta_update(eta, {"time": signal.time, "residual": signal.residual}),
            f"transition {rule.from_class!r} -> {rule.to_class!r}: eta_update", signal.time))
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
