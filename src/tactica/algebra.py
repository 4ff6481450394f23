"""Finitely presented associative algebras and matrix tuples at desk scale.

Presentations are lists of noncommutative polynomials in the generators;
a matrix tuple realizes a presentation when every relation evaluates to the
zero matrix under ordinary (non-symmetrized) products.  Dynamics symbols are
evaluated in Weyl form: every monomial is averaged over all orderings of its
letters.  Scale caps (generators <= 4, matrix dimension <= 6, degree <= 3)
keep the symmetrization and the projection Jacobians small.

Both evaluators run on compiled plans, so their loops only multiply and add.
A presentation compiles its relations into a level-batched
:class:`RelationPlan` when it is built: one stacked product per letter
position drives the relation values and the projection Jacobian alike.
``compile_symbols`` turns a symbol tuple into a
:class:`WeylPlan`: per term the coefficient, the control index and every
ordering of its sorted letters as indices into the tuple's matrices, the
constant matrices and one shared identity.  Unknown slots, unknown
constants and missing control components are rejected there, once, not
during evaluation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .expr import NCPoly, nc_evaluate
from .games import ConfigurationError

MAX_GENERATORS = 4
MAX_MATRIX_DIM = 6
MAX_DEGREE = 3


@dataclass(frozen=True)
class MatrixTuple:
    """Ordered tuple of same-sized complex square matrices."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=complex) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        if not mats:
            raise ConfigurationError("a matrix tuple needs at least one matrix")
        n = mats[0].shape[0]
        if n > MAX_MATRIX_DIM:
            raise ConfigurationError(
                f"matrix dimension {n} exceeds the desk-scale cap {MAX_MATRIX_DIM}")
        for k, m in enumerate(mats):
            if m.shape != (n, n):
                raise ConfigurationError(
                    f"matrix {k} has shape {m.shape}, expected ({n}, {n})")
            if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
                raise ConfigurationError(f"matrix {k} has non-finite entries")

    @property
    def m(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    def stacked(self) -> np.ndarray:
        return np.stack(self.matrices)

    @classmethod
    def from_stacked(cls, stacked: np.ndarray) -> "MatrixTuple":
        return cls(matrices=tuple(stacked[k] for k in range(stacked.shape[0])))


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

    The words are sorted by length, longest first and in their order otherwise,
    so ``letters[k]``, the letters at position k, belong to the first words;
    ``tails[d - 1]`` holds the letter d places from the end of each word longer
    than d.  The j-th term of relation r goes to row ``(j, r)`` of a ``(depth,
    relations)`` buffer, at ``slots``; the rows ``(0, r)`` stay zero.  Level j
    of ``pair_levels`` holds the j-th (word, letter position) pair of every
    (relation, letter) Jacobian block that has one, as (prefix rows, suffix
    rows, coefficients, relations, letters); the rows index the prefix and
    suffix chains (the identity, then the chains of length 1, 2, ...).
    """

    relations: int
    letters: tuple[np.ndarray, ...]
    tails: tuple[np.ndarray, ...]
    coeffs: np.ndarray              # (words, 1, 1)
    slots: np.ndarray
    depth: int
    pair_levels: tuple[tuple[np.ndarray, ...], ...]


def compile_relations(relations: Sequence[NCPoly]) -> RelationPlan:
    """The :class:`RelationPlan` of ``relations``."""
    terms = [(r, word, coeff) for r, rel in enumerate(relations)
             for word, coeff in rel.terms.items()]
    order = sorted(range(len(terms)), key=lambda k: -len(terms[k][1]))    # stable
    words = [terms[k][1] for k in order]
    longest = len(words[0]) if words else 0
    letters = tuple(np.array([w[k] for w in words if len(w) > k], dtype=np.intp)
                    for k in range(max(longest, 1)))
    tails = tuple(np.array([w[-d] for w in words if len(w) > d], dtype=np.intp)
                  for d in range(1, longest))
    # Chain level k >= 1 starts at row offsets[k - 1]: one row per word longer than k.
    offsets = np.cumsum([1] + [len(idx) for idx in letters[1:]])
    rank = {k: i for i, k in enumerate(order)}
    seen, slots = [0] * len(relations), []
    blocks: dict[tuple[int, int], int] = {}     # (relation, letter) -> level of its last pair
    levels: list[list[tuple]] = []
    for k, (r, word, coeff) in enumerate(terms):
        seen[r] += 1
        slots.append(seen[r] * len(relations) + r)
        for j, letter in enumerate(word):
            level = blocks[r, letter] = blocks.get((r, letter), -1) + 1
            if level == len(levels):
                levels.append([])
            tail = len(word) - 1 - j
            levels[level].append((offsets[j - 1] + rank[k] if j else 0,
                                  offsets[tail - 1] + rank[k] if tail else 0, coeff, r, letter))
    return RelationPlan(
        relations=len(relations), letters=letters, tails=tails,
        coeffs=np.array([terms[k][2] for k in order], dtype=complex).reshape(-1, 1, 1),
        slots=np.array([slots[k] for k in order], dtype=np.intp), depth=1 + max(seen, default=0),
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
    """Evaluate compiled relations at an ``(m, n, n)`` tuple, one ``(n, n)`` value each.

    Every product starts from the identity: that leading product turns a
    ``-0.0`` entry into ``+0.0`` and an infinite entry into NaNs, and the
    residual bytes depend on both.  Stacked products equal the per-word ones
    bit for bit, and the terms are added in each relation's order.
    """
    n = stacked.shape[1]
    eye = identity(n)
    lead, *rest = plan.letters
    products = np.empty((len(plan.coeffs), n, n), dtype=complex)
    products[len(lead):] = eye      # the empty words
    products[:len(lead)] = eye @ stacked.take(lead, 0)
    for idx in rest:
        products[:len(idx)] = products[:len(idx)] @ stacked.take(idx, 0)
    buffer = np.zeros((plan.depth * plan.relations, n, n), dtype=complex)
    buffer[plan.slots] = plan.coeffs * products
    total, *later = buffer.reshape(plan.depth, plan.relations, n, n)
    for row in later:   # row by row: np.add.reduce adds four rows and more pairwise
        total += row
    return total


def relation_values(pres: AlgebraPresentation,
                    stacked: np.ndarray) -> tuple[np.ndarray, float]:
    """The relations evaluated at an ``(m, n, n)`` tuple: (flat entries, worst Frobenius norm).

    The worst norm is NaN when any is, so a tuple with a NaN or infinite entry
    never reads as on the variety.
    """
    values = poly_eval(pres.plan, stacked)
    worst = 0.0
    for row in values.reshape(-1, values.shape[-1] ** 2):
        norm = math.sqrt(row.real.dot(row.real) + row.imag.dot(row.imag))    # as np.linalg.norm
        if norm > worst or norm != norm:    # max() would skip a NaN norm
            worst = norm
    return values.reshape(-1), worst


def relation_residual(pres: AlgebraPresentation, X: MatrixTuple) -> float:
    """Maximum Frobenius norm of the relation polynomials evaluated at X."""
    if X.m != pres.generators:
        raise ConfigurationError(
            f"tuple has {X.m} matrices, presentation {pres.label!r} expects "
            f"{pres.generators}")
    return relation_values(pres, X.stacked())[1]


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
        object.__setattr__(self, "classes", dict(self.classes))
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


def default_registry() -> AlgebraClassRegistry:
    """Commutative families for 1..4 generators plus the Heisenberg class."""
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


@dataclass(frozen=True)
class WeylPlan:
    """Weyl symbols compiled for one tuple size, matrix dimension and control dimension.

    ``symbols[k]`` lists the terms of the k-th symbol as ``(coefficient,
    control, orderings)``.  An ordering is a tuple of indices into the pool
    ``[*tuple matrices, *fixed]``; ``fixed`` holds the constant matrices the
    symbols name, then the identity, so an empty word has the identity as
    its one factor.  A monomial of degree d >= 2 has all d! orderings of its
    canonically sorted letters, repeats included.
    """

    shape: tuple[int, int, int]
    fixed: tuple[np.ndarray, ...]
    symbols: tuple[tuple[tuple[complex, int | None, tuple[tuple[int, ...], ...]], ...], ...]


def compile_symbols(symbols: Sequence[WeylSymbol], m: int, n: int,
                    constants: Mapping[str, np.ndarray] | None = None,
                    control_dim: int = 0) -> WeylPlan:
    """Resolve the slots, constants and controls of ``symbols`` against an ``(m, n, n)`` tuple.

    Raises ConfigurationError for a slot beyond the tuple, an unknown or
    wrongly sized constant, or a control component beyond ``control_dim``.
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
    eye = m + len(names)

    def compile_term(term: WeylTerm):
        if term.control is not None and term.control >= control_dim:
            raise ConfigurationError(f"symbol needs control component {term.control}, "
                                     f"control dimension is {control_dim}")
        for letter in term.word:
            if isinstance(letter, int) and not 0 <= letter < m:
                raise ConfigurationError(f"symbol references slot {letter + 1}, "
                                         f"tuple has {m}")
        canonical = [index.get(letter, letter)
                     for letter in sorted(term.word, key=_letter_key)]
        orderings = tuple(tuple(canonical[i] for i in order)
                          for order in itertools.permutations(range(len(canonical))))
        return complex(term.coefficient), term.control, orderings if canonical else ((eye,),)

    return WeylPlan(shape=(len(symbols), n, n),
                    fixed=tuple(constants[name] for name in names) + (identity(n),),
                    symbols=tuple(tuple(compile_term(t) for t in sym.terms)
                                  for sym in symbols))


def weyl_eval_tuple(plan: WeylPlan, stacked, a: np.ndarray | None = None) -> np.ndarray:
    """Symmetrized evaluation of every symbol of ``plan`` at an ``(m, n, n)`` tuple.

    Each monomial averages the products over all orderings of its letters;
    ``stacked`` may also be the sequence of the tuple's matrices, and ``a``
    holds the control components the terms scale by.
    """
    pool = [*stacked, *plan.fixed]
    out = np.zeros(plan.shape, dtype=complex)
    for acc, terms in zip(out, plan.symbols):
        for coeff, control, orderings in terms:
            if control is not None:
                coeff = coeff * a[control]
            if len(orderings) == 1:
                acc += coeff * pool[orderings[0][0]]
                continue
            total = 0       # a +0.0 start: a lone -0.0 entry sums to +0.0
            for first, *rest in orderings:
                prod = pool[first]
                for i in rest:
                    prod = prod @ pool[i]
                total = total + prod
            acc += (coeff / len(orderings)) * total
    return out


def weyl_eval(symbol: WeylSymbol, X: MatrixTuple,
              constants: Mapping[str, np.ndarray] | None = None,
              a: np.ndarray | None = None) -> np.ndarray:
    """Symmetrized evaluation of one symbol at X: each monomial averages all orderings.

    Words are canonicalized by sorting before the orderings are enumerated, so
    the result is bit-identical under any permutation of a monomial's letters.
    """
    plan = compile_symbols((symbol,), X.m, X.n, constants, 0 if a is None else len(a))
    return weyl_eval_tuple(plan, X.matrices, a)[0]


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
