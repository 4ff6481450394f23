"""Finitely presented associative algebras and matrix tuples at desk scale.

Presentations are lists of noncommutative polynomials in the generators;
a matrix tuple realizes a presentation when every relation evaluates to the
zero matrix under ordinary (non-symmetrized) products.  Dynamics symbols are
evaluated in Weyl form: every monomial is averaged over all orderings of its
letters.  Scale caps (generators <= 4, matrix dimension <= 6, degree <= 3)
keep the symmetrization and the projection Jacobians small.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .expr import NCPoly, nc_evaluate
from .games import ConfigurationError

MAX_GENERATORS = 4
MAX_MATRIX_DIM = 6
MAX_DEGREE = 3


@dataclass(frozen=True)
class MatrixTuple:
    """Ordered tuple of same-sized complex square matrices with a time tag."""

    matrices: tuple[np.ndarray, ...]
    time: float = 0.0

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
    def from_stacked(cls, stacked: np.ndarray, time: float = 0.0) -> "MatrixTuple":
        return cls(matrices=tuple(stacked[k] for k in range(stacked.shape[0])), time=time)


def parse_relation(source: str, generators: int) -> NCPoly:
    """Read a noncommutative polynomial over ``x1..xm`` from its string form."""
    letters = {f"x{i + 1}": NCPoly.letter(i) for i in range(generators)}
    poly = nc_evaluate(source, letters)
    if poly.degree() > MAX_DEGREE:
        raise ConfigurationError(
            f"relation {source!r} has degree {poly.degree()}, cap is {MAX_DEGREE}")
    return poly


@dataclass(frozen=True)
class AlgebraPresentation:
    """Finitely presented associative algebra: generator count plus relations."""

    label: str
    generators: int
    relations: tuple[NCPoly, ...] = ()
    relation_sources: tuple[str, ...] = ()

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

    @classmethod
    def from_strings(cls, label: str, generators: int,
                     relations: Sequence[str]) -> "AlgebraPresentation":
        polys = tuple(parse_relation(src, generators) for src in relations)
        return cls(label=label, generators=generators, relations=polys,
                   relation_sources=tuple(relations))


def poly_eval(poly: NCPoly, matrices: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Evaluate with ordinary matrix products; the empty word is coeff * identity."""
    acc = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for word, coeff in poly.terms.items():
        prod = eye
        for letter in word:
            prod = prod @ matrices[letter]
        acc = acc + coeff * prod
    return acc


def relation_values(pres: AlgebraPresentation,
                    stacked: np.ndarray) -> tuple[np.ndarray, float]:
    """The relations evaluated at an ``(m, n, n)`` tuple: (flat entries, worst Frobenius norm).

    ``stacked`` may also be the sequence of the tuple's matrices.
    """
    n = stacked[0].shape[0]
    values = []
    worst = 0.0
    for rel in pres.relations:
        value = poly_eval(rel, stacked, n)
        values.append(value.reshape(-1))
        worst = max(worst, float(np.linalg.norm(value)))
    if not values:
        return np.zeros(0, dtype=complex), 0.0
    return np.concatenate(values), worst


def relation_residual(pres: AlgebraPresentation, X: MatrixTuple) -> float:
    """Maximum Frobenius norm of the relation polynomials evaluated at X."""
    if X.m != pres.generators:
        raise ConfigurationError(
            f"tuple has {X.m} matrices, presentation {pres.label!r} expects "
            f"{pres.generators}")
    return relation_values(pres, X.matrices)[1]


def admissible_check(pres: AlgebraPresentation, X: MatrixTuple, tol: float) -> bool:
    return relation_residual(pres, X) <= tol


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
    order: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "classes", dict(self.classes))
        for label, family in self.classes.items():
            if not family:
                raise ConfigurationError(f"class {label!r} has an empty family")
        if not self.order:
            object.__setattr__(self, "order", tuple(self.classes))
        for label in self.order:
            if label not in self.classes:
                raise ConfigurationError(f"ordering references unknown class {label!r}")

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
    }, order=("commutative", "heisenberg"))


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

    def max_slot(self) -> int:
        slots = [l for t in self.terms for l in t.word if isinstance(l, int)]
        return max(slots) if slots else -1

    def max_control(self) -> int:
        controls = [t.control for t in self.terms if t.control is not None]
        return max(controls) if controls else -1

    def constant_names(self) -> set[str]:
        return {l for t in self.terms for l in t.word if isinstance(l, str)}


def weyl_eval(symbol: WeylSymbol, X: MatrixTuple,
              constants: Mapping[str, np.ndarray] | None = None,
              a: np.ndarray | None = None) -> np.ndarray:
    """Symmetrized evaluation: each monomial averages all orderings of its word.

    Words are canonicalized by sorting before the orderings are enumerated, so
    the result is bit-identical under any permutation of a monomial's letters.
    """
    return _weyl_eval(symbol, X.matrices, constants, a)


def _weyl_eval(symbol: WeylSymbol, stacked, constants: Mapping[str, np.ndarray] | None,
               a: np.ndarray | None) -> np.ndarray:
    """:func:`weyl_eval` over the matrices ``stacked[0..m-1]`` of an ``(m, n, n)`` tuple."""
    m = len(stacked)
    n = stacked[0].shape[0]
    constants = constants or {}
    acc = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)

    def resolve(letter) -> np.ndarray:
        if isinstance(letter, int):
            if not 0 <= letter < m:
                raise ConfigurationError(f"symbol references slot {letter + 1}, "
                                         f"tuple has {m}")
            return stacked[letter]
        try:
            return constants[letter]
        except KeyError:
            raise ConfigurationError(f"symbol references unknown constant {letter!r}")

    for term in symbol.terms:
        coeff = complex(term.coefficient)
        if term.control is not None:
            if a is None or term.control >= len(a):
                raise ConfigurationError(
                    f"symbol needs control component {term.control}, "
                    f"schedule provides {0 if a is None else len(a)}")
            coeff *= a[term.control]
        if not term.word:
            acc = acc + coeff * eye
            continue
        canonical = tuple(sorted(term.word, key=_letter_key))
        mats = [resolve(letter) for letter in canonical]
        if len(mats) == 1:
            acc = acc + coeff * mats[0]
            continue
        total = np.zeros((n, n), dtype=complex)
        for order in itertools.permutations(range(len(mats))):
            prod = mats[order[0]]
            for idx in order[1:]:
                prod = prod @ mats[idx]
            total = total + prod
        acc = acc + (coeff / math.factorial(len(mats))) * total
    return acc


def weyl_eval_tuple(symbols: Sequence[WeylSymbol], stacked: np.ndarray,
                    constants: Mapping[str, np.ndarray] | None = None,
                    a: np.ndarray | None = None) -> np.ndarray:
    """Stacked symmetrized evaluation of one symbol per slot of an ``(m, n, n)`` tuple."""
    return np.stack([_weyl_eval(s, stacked, constants, a) for s in symbols])


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
