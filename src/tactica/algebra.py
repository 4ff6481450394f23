"""Finitely presented associative algebras and matrix tuples at desk scale.

Presentations are lists of noncommutative polynomials in the generators;
a matrix tuple realizes a presentation when every relation evaluates to the
zero matrix under ordinary (non-symmetrized) products.  Dynamics symbols are
evaluated in Weyl form: every monomial is averaged over all orderings of its
letters.  Scale caps (generators <= 4, matrix dimension <= 6, degree <= 3)
keep the symmetrization and the projection Jacobians small.

Both evaluators run on compiled plans, so at run time they only multiply and
add.  A presentation compiles its relations into a level-batched
:class:`RelationPlan` when it is built: one stacked product per letter
position drives the relation values and the projection Jacobian alike, and
each relation sums its terms through slices of the word products.
``weyl_source`` emits the straight-line level sums of a symbol tuple, which
``repdyn.compile_run`` generates, with the RK4 run that inlines them, in one
source: level j adds the j-th term of every symbol, its linear terms as one
broadcast product and each higher term's orderings as one stacked product per
letter position.  Unknown slots, unknown constants and missing control
components are rejected there, once, not during evaluation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import Emitter, NCPoly, nc_evaluate
from .games import ConfigurationError

MAX_GENERATORS = 4
MAX_MATRIX_DIM = 6
MAX_DEGREE = 3


def stack_tuple(matrices: Sequence) -> np.ndarray:
    """The ``(m, n, n)`` complex stack of same-sized, finite, square matrices."""
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise ConfigurationError("a matrix tuple needs at least one matrix")
    n = mats[0].shape[0]
    if n > MAX_MATRIX_DIM:
        raise ConfigurationError(
            f"matrix dimension {n} exceeds the desk-scale cap {MAX_MATRIX_DIM}")
    for k, m in enumerate(mats):
        if m.shape != (n, n):
            raise ConfigurationError(f"matrix {k} has shape {m.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ConfigurationError(f"matrix {k} has non-finite entries")
    return np.stack(mats)


def parse_relation(source: str, generators: int) -> NCPoly:
    """Read a noncommutative polynomial over ``x1..xm`` from its string form."""
    letters = {f"x{i + 1}": NCPoly.letter(i) for i in range(generators)}
    poly = nc_evaluate(source, letters)
    if poly.degree() > MAX_DEGREE:
        raise ConfigurationError(
            f"relation {source!r} has degree {poly.degree()}, cap is {MAX_DEGREE}")
    return poly


@functools.lru_cache(maxsize=None)
def identity(n: int) -> np.ndarray:
    """The read-only complex ``n x n`` identity shared by every evaluation."""
    eye = np.eye(n, dtype=complex)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class RelationPlan:
    """Relations compiled into level batches; nothing in it depends on the matrix size.

    The words are sorted by length, longest first, then by their place in their
    relation and by relation, so ``letters[k]``, the letters at position k,
    belong to the first words; ``tails[d - 1]`` holds the letter d places from
    the end of each word longer than d.  Each of ``runs`` is a slice of the
    sorted words holding the j-th terms of the relations it names, ordered by
    j.  Level j of ``pair_levels`` holds the j-th (word, letter position) pair
    of every (relation, letter) Jacobian block that has one, as (prefix rows,
    suffix rows, coefficients, relations, letters); the rows index the prefix
    and suffix chains (the identity, then the chains of length 1, 2, ...).
    """

    relations: int
    letters: tuple[np.ndarray, ...]
    tails: tuple[np.ndarray, ...]
    coeffs: np.ndarray              # (words, 1, 1)
    runs: tuple[tuple[slice, slice | np.ndarray], ...]
    pair_levels: tuple[tuple[np.ndarray, ...], ...]


def compile_relations(relations: Sequence[NCPoly]) -> RelationPlan:
    """The :class:`RelationPlan` of ``relations``."""
    terms = [(r, j, word, coeff) for r, rel in enumerate(relations)
             for j, (word, coeff) in enumerate(rel.terms.items())]
    order = sorted(range(len(terms)), key=lambda k: (-len(terms[k][2]), terms[k][1], terms[k][0]))
    words = [terms[k][2] for k in order]
    longest = len(words[0]) if words else 0
    letters = tuple(np.array([w[k] for w in words if len(w) > k], dtype=np.intp)
                    for k in range(max(longest, 1)))
    tails = tuple(np.array([w[-d] for w in words if len(w) > d], dtype=np.intp)
                  for d in range(1, longest))
    # The j-th terms of one length are consecutive and in relation order: one run each.
    runs = []
    for (_, j), group in itertools.groupby(
            range(len(order)), lambda i: (len(words[i]), terms[order[i]][1])):
        group = list(group)
        rel = [terms[order[i]][0] for i in group]
        contiguous = rel == list(range(rel[0], rel[-1] + 1))
        runs.append((j, slice(group[0], group[-1] + 1),
                     slice(rel[0], rel[-1] + 1) if contiguous else np.array(rel, dtype=np.intp)))
    # Chain level k >= 1 starts at row offsets[k - 1]: one row per word longer than k.
    offsets = np.cumsum([1] + [len(idx) for idx in letters[1:]])
    rank = {k: i for i, k in enumerate(order)}
    blocks: dict[tuple[int, int], int] = {}     # (relation, letter) -> level of its last pair
    levels: list[list[tuple]] = []
    for k, (r, _, word, coeff) in enumerate(terms):
        for j, letter in enumerate(word):
            level = blocks[r, letter] = blocks.get((r, letter), -1) + 1
            if level == len(levels):
                levels.append([])
            tail = len(word) - 1 - j
            levels[level].append((offsets[j - 1] + rank[k] if j else 0,
                                  offsets[tail - 1] + rank[k] if tail else 0, coeff, r, letter))
    return RelationPlan(
        relations=len(relations), letters=letters, tails=tails,
        coeffs=np.array([terms[k][3] for k in order], dtype=complex).reshape(-1, 1, 1),
        runs=tuple((words, rel) for _, words, rel in sorted(runs, key=lambda run: run[0])),
        pair_levels=tuple(
            (np.array(pre, dtype=np.intp), np.array(suf, dtype=np.intp),
             np.array(coeff, dtype=complex).reshape(-1, 1, 1, 1, 1),
             np.array(rel, dtype=np.intp), np.array(let, dtype=np.intp))
            for pre, suf, coeff, rel, let in (zip(*level) for level in levels)))


@dataclass(frozen=True)
class AlgebraPresentation:
    """Finitely presented associative algebra: generator count plus relations.

    ``plan`` is the compiled form the evaluators read.
    """

    label: str
    generators: int
    relations: tuple[NCPoly, ...] = ()
    plan: RelationPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.generators <= MAX_GENERATORS:
            raise ConfigurationError(
                f"generator count {self.generators} outside [1..{MAX_GENERATORS}]")
        for rel in self.relations:
            for word in rel.terms:
                for letter in word:
                    if not isinstance(letter, int) or not 0 <= letter < self.generators:
                        raise ConfigurationError(
                            f"presentation {self.label!r}: relation letter {letter!r} "
                            f"outside generators [1..{self.generators}]")
        object.__setattr__(self, "plan", compile_relations(self.relations))

    @classmethod
    def from_strings(cls, label: str, generators: int,
                     relations: Sequence[str]) -> "AlgebraPresentation":
        polys = tuple(parse_relation(src, generators) for src in relations)
        return cls(label=label, generators=generators, relations=polys)


def poly_eval(plan: RelationPlan, stacked: np.ndarray) -> np.ndarray:
    """Evaluate compiled relations at an ``(m, n, n)`` tuple, one ``(n, n)`` value each, or
    at each tuple of a ``(K, m, n, n)`` stack, ``(K, relations, n, n)``.

    Every product starts from the identity, taken once per generator: that leading
    product turns a ``-0.0`` entry into ``+0.0`` and an infinite entry into NaNs, and
    the residual bytes depend on both.  Stacked products equal the per-word ones bit
    for bit, and each relation adds its terms to a +0.0 start in order.  A stack is
    evaluated with its tuples on the second axis, so every gather stays on the first.
    """
    n, coeffs = stacked.shape[-1], plan.coeffs
    out = total = np.zeros((*stacked.shape[:-3], plan.relations, n, n), dtype=complex)
    if stacked.ndim == 4:
        stacked, total, coeffs = stacked.swapaxes(0, 1), out.swapaxes(0, 1), coeffs[:, None]
    if not plan.runs:       # no words: every relation is zero
        return out
    eye = identity(n)
    lead, *rest = plan.letters
    led = eye @ stacked
    if len(lead) == len(coeffs):
        products = led.take(lead, 0)
    else:                   # the empty words
        products = np.empty((len(coeffs), *stacked.shape[1:]), dtype=complex)
        products[len(lead):] = eye
        products[:len(lead)] = led.take(lead, 0)
    for idx in rest:
        products[:len(idx)] = products[:len(idx)] @ stacked.take(idx, 0)
    np.multiply(coeffs, products, out=products)
    for words, relations in plan.runs:
        total[relations] += products[words]
    return out


def relation_values(pres: AlgebraPresentation, stacked: np.ndarray) -> tuple:
    """The relations evaluated at an ``(m, n, n)`` tuple: (flat entries, worst Frobenius
    norm); at a ``(K, m, n, n)`` stack, each tuple's: ``(K, entries)`` and ``(K,)`` norms.

    The worst norm is NaN when any is, so a tuple with a NaN or infinite entry
    never reads as on the variety.
    """
    values = poly_eval(pres.plan, stacked)
    *batch, relations, n, _ = values.shape
    flat = values.reshape(*batch, relations, n * n)
    squares = np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag)  # as row .dot
    entries = values.reshape(*batch, relations * n * n)
    # sqrt is monotone, so the worst norm is the root of the largest square; max() keeps NaN.
    if batch:
        return entries, np.sqrt(squares.max(1)) if relations else np.zeros(batch[0])
    return entries, math.sqrt(squares.max()) if relations else 0.0


def commutative_presentation(generators: int, label: str = "commutative") -> AlgebraPresentation:
    relations = [f"x{i + 1}*x{j + 1} - x{j + 1}*x{i + 1}"
                 for i in range(generators) for j in range(i + 1, generators)]
    return AlgebraPresentation.from_strings(label, generators, relations)


def heisenberg_presentation(label: str = "heisenberg") -> AlgebraPresentation:
    return AlgebraPresentation.from_strings(label, 3, [
        "x1*x2 - x2*x1 - x3",
        "x1*x3 - x3*x1",
        "x2*x3 - x3*x2",
    ])


@dataclass(frozen=True)
class AlgebraClassRegistry:
    """Named families of presentations, one member per generator count."""

    classes: Mapping[str, tuple[AlgebraPresentation, ...]]

    def __post_init__(self):
        object.__setattr__(self, "classes", MappingProxyType(dict(self.classes)))
        for label, family in self.classes.items():
            if not family:
                raise ConfigurationError(f"class {label!r} has an empty family")

    def labels(self) -> tuple[str, ...]:
        return tuple(self.classes)

    def presentation(self, label: str, generators: int) -> AlgebraPresentation:
        if label not in self.classes:
            raise ConfigurationError(f"unknown algebra class {label!r}")
        for pres in self.classes[label]:
            if pres.generators == generators:
                return pres
        raise ConfigurationError(
            f"class {label!r} has no member with {generators} generators")


@functools.cache
def default_registry() -> AlgebraClassRegistry:
    """Commutative families for 1..4 generators plus the Heisenberg class, built once."""
    return AlgebraClassRegistry(classes={
        "commutative": tuple(commutative_presentation(m, f"commutative-m{m}")
                             for m in range(1, MAX_GENERATORS + 1)),
        "heisenberg": (heisenberg_presentation(),),
    })


# ---------------------------------------------------------------------------
# Weyl symbols
# ---------------------------------------------------------------------------

def _letter_key(letter):
    return (0, letter, "") if isinstance(letter, int) else (1, -1, letter)


@dataclass(frozen=True)
class WeylTerm:
    """``coefficient * a[control] * word`` with symmetrized evaluation.

    Word letters are generator slots (int) or names of lifted constant
    matrices (str); ``control`` of None means a control-independent term.
    """

    coefficient: complex
    word: tuple
    control: int | None = None

    def __post_init__(self):
        if len(self.word) > MAX_DEGREE:
            raise ConfigurationError(
                f"symbol monomial degree {len(self.word)} exceeds cap {MAX_DEGREE}")


@dataclass(frozen=True)
class WeylSymbol:
    terms: tuple[WeylTerm, ...]

    def constant_names(self) -> set[str]:
        return {l for t in self.terms for l in t.word if isinstance(l, str)}


def weyl_source(symbols: Sequence[WeylSymbol], m: int, n: int,
                constants: Mapping[str, np.ndarray] | None = None,
                control_dim: int = 0) -> tuple[Emitter, list[str], list[str]]:
    """The straight-line Weyl level sums of ``symbols``: the :class:`expr.Emitter` whose
    namespace they read, the expressions of their control-dependent scalars over the control
    vector ``a`` (a complex array, or a list of floats), and the body lines.  The body reads
    an ``(m, n, n)`` tuple from the local ``x`` and scalar j from the local ``s<j>``, and
    leaves one ``(n, n)`` value per symbol in ``out``.

    Raises ConfigurationError for a slot beyond the tuple, an unknown or wrongly
    sized constant, or a control component beyond ``control_dim``.  Letters are
    sorted canonically and index the pool ``[*tuple, *constants, identity]``.
    Every symbol starts at +0.0; level j adds the j-th term of every symbol that
    has one: its terms of degree <= 1 as one broadcast product of their scalars
    (``coefficient * a[control]``, gathered by ``array``, or one constant array when none
    reads a control) with their letters, each term of degree d >= 2 as ``scalar / d!``
    times ``0 + P1 + P2 ...`` over the d! orderings in permutation order, one stacked
    matmul per letter position.  A control-dependent ``scalar / d!`` divides a
    ``complex128``: numpy multiplies by the reciprocal where Python's complex divides.  A
    term reading neither the tuple nor a control is a constant computed here.
    """
    constants = constants or {}
    names = sorted({name for sym in symbols for name in sym.constant_names()})
    for name in names:
        if name not in constants:
            raise ConfigurationError(f"symbol references unknown constant {name!r}")
        if np.shape(constants[name]) != (n, n):
            raise ConfigurationError(
                f"constant {name!r} must have the ambient dimension {n}")
    index = {name: m + k for k, name in enumerate(names)}
    fixed = [constants[name] for name in names] + [identity(n)]

    def compile_term(term: WeylTerm):
        if term.control is not None and term.control >= control_dim:
            raise ConfigurationError(f"symbol needs control component {term.control}, "
                                     f"control dimension is {control_dim}")
        for letter in term.word:
            if isinstance(letter, int) and not 0 <= letter < m:
                raise ConfigurationError(f"symbol references slot {letter + 1}, "
                                         f"tuple has {m}")
        letters = [index.get(letter, letter) for letter in sorted(term.word, key=_letter_key)]
        return complex(term.coefficient), term.control, letters or [m + len(names)]

    compiled = [[compile_term(t) for t in sym.terms] for sym in symbols]
    # ``zero``: added like the scalar 0, without numpy's slower path for Python scalars
    emit = Emitter(array=np.array, concatenate=np.concatenate, zeros=np.zeros,
                   complex=complex, complex128=np.complex128, zero=np.zeros((), dtype=complex))
    shape, sizes = (len(symbols), n, n), {"x": m, "p": m + len(fixed), "out": len(symbols)}
    scalars: list[str] = []

    def scalar(coeff, control) -> str:
        return emit.ref(coeff) if control is None else f"{emit.ref(coeff)}*a[{control}]"

    def local(value: str) -> str:      # a control-dependent scalar is read from its local
        if "a[" not in value:
            return value
        scalars.append(value)
        return f"s{len(scalars) - 1}"

    def rows(array: str, idx: Sequence[int]) -> str:     # one, all, a slice or a gather
        if len(idx) == 1 and (sizes[array] > 1 or sizes["out"] > 1):
            return f"{array}[{idx[0]}]"
        if list(idx) != list(range(idx[0], idx[0] + len(idx))):
            return f"{array}[{emit.ref(np.array(idx, dtype=np.intp))}]"
        return array if len(idx) == sizes[array] else f"{array}[{idx[0]}:{idx[-1] + 1}]"

    body, added, reads_fixed = [], [], False

    def add(target: str, value: str) -> None:
        if target == "out" and not added:       # the first term of every symbol: 0 + t1
            body.append(f"out = {emit.ref(np.zeros(shape, dtype=complex))} + {value}")
        else:
            body.append(f"{target} += {value}")
        added.append(target)

    for level in range(max(map(len, compiled), default=0)):
        linear, folded = [], []
        for s, terms in enumerate(compiled):
            if level >= len(terms):
                continue
            coeff, control, letters = terms[level]
            pool = "p" if max(letters) >= m else "x"
            if len(letters) == 1 and control is None and pool == "p":
                with np.errstate(all="ignore"):     # an overflow shows when the run diverges
                    folded.append((s, coeff * fixed[letters[0] - m]))
            elif len(letters) == 1:
                linear.append((s, coeff, control, letters[0]))
                reads_fixed |= pool == "p"
            else:
                orderings = list(itertools.permutations(letters))
                unique = list(dict.fromkeys(orderings))
                factors = (rows(pool, [o[k] for o in unique]) for k in range(len(letters)))
                total = " + ".join(["zero", *("P" if len(unique) == 1 else f"P[{unique.index(o)}]"
                                              for o in orderings)])
                scale = emit.ref(coeff / len(orderings)) if control is None \
                    else local(f"complex128({scalar(coeff, control)})/{len(orderings)}")
                body.append(f"P = {' @ '.join(factors)}")
                add(rows("out", [s]), f"{scale} * ({total})")
                reads_fixed |= pool == "p"
        if folded:
            at, values = zip(*folded)
            add(rows("out", at), emit.ref(np.stack(values) if len(values) > 1 else values[0]))
        if linear:
            at, coeffs, controls, letters = zip(*linear)
            if len(linear) > 1 and controls == (None,) * len(linear):   # a constant array
                scale = emit.ref(np.array(coeffs)[:, None, None])
            else:
                terms = list(map(scalar, coeffs, controls))
                scale = local(terms[0] if len(linear) == 1
                              else f"array([{', '.join(terms)}])[:, None, None]")
            add(rows("out", at), f"({scale}) * {rows('p' if max(letters) >= m else 'x', letters)}")
    head = [f"p = concatenate((x, {emit.ref(np.stack(fixed))}))"] if reads_fixed else []
    if added[:1] != ["out"]:
        head.append(f"out = zeros({shape}, complex)")
    return emit, scalars, head + body


def weyl_eval_tuple(evaluate: Callable, stacked: np.ndarray,
                    a: np.ndarray | None = None) -> np.ndarray:
    """Symmetrized evaluation of every symbol of an ``evaluate`` that
    :func:`repdyn.compile_run` generates in its one source, at an ``(m, n, n)`` tuple.

    Each monomial averages the products over all orderings of its letters;
    ``a`` holds the control components the terms scale by.
    """
    return evaluate(stacked, a)


# ---------------------------------------------------------------------------
# Equivalence partition of a labeled control trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledInterval:
    label: str
    t_start: float
    t_end: float
    closed_end: bool = False


def equivalence_partition(samples: Sequence[tuple[float, str | None]]) -> list[LabeledInterval]:
    """Merge adjacent equal class labels into maximal closed-open intervals.

    The final interval is closed on the right so the intervals cover the whole
    sampled range.  Registry-label equality stands in for pair equivalence.
    """
    if not samples:
        return []
    for t, label in samples:
        if label is None:
            raise ConfigurationError(f"sample at t={t!r} carries no class label")
    intervals = []
    start_t, current = samples[0]
    for t, label in samples[1:]:
        if label != current:
            intervals.append(LabeledInterval(label=current, t_start=float(start_t),
                                             t_end=float(t)))
            start_t, current = t, label
    intervals.append(LabeledInterval(label=current, t_start=float(start_t),
                                     t_end=float(samples[-1][0]), closed_end=True))
    return intervals
