import itertools
import math
import re
import warnings
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tactica.algebra
import tactica.expr
import tactica.repdyn
from tactica.algebra import (AlgebraClassRegistry, AlgebraPresentation, WeylSymbol, WeylTerm,
                             commutative_presentation, default_registry,
                             equivalence_partition, heisenberg_presentation, parse_relation,
                             poly_eval, relation_values, stack_tuple, weyl_eval_tuple)
from conftest import weyl_value
from tactica.expr import Emitter, NCPoly, VectorExpression, compile_expression, compile_vector
from tactica.games import (ConfigurationError, DivergenceError, SimulationError, real_array,
                           rk4_step, step_count)
from tactica.repdyn import (ClassDynamics, InsolvableSignal, RepDynResult, RepDynSpec,
                            StrandedClassError, TacticalRepDyn, _apply_transition,
                            _parse_polynomial_rhs, _relation_jacobian, _settle, check_start,
                            compile_run, integrate_repdyn,
                            integrate_scalar_reference,
                            project_to_variety, run_tactical_repdyn,
                            solve_inverse_problem, tuple_map)
from tactica.scenario import load_scenario
from tactica.tactics import DialecticalObject, TransitionRule

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def E(i, j, n=3):
    out = np.zeros((n, n), dtype=complex)
    out[i - 1, j - 1] = 1.0
    return out


def bits(x):
    """The raw bytes of a complex array, so signed zeros and NaN payloads count."""
    return np.ascontiguousarray(x).view(np.uint64)


def entries(rng, shape):
    """Complex entries mixing normals with signed zeros, units and tiny values."""
    pool = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -2.5])
    parts = [np.where(rng.random(shape) < 0.4, rng.choice(pool, shape), rng.normal(size=shape))
             for _ in range(2)]
    return parts[0] + 1j * parts[1]


HEISENBERG_TUPLE = stack_tuple((E(1, 2), E(2, 3), E(1, 3)))


# ---------------------------------------------------------------------------
# Weyl evaluation
# ---------------------------------------------------------------------------

def test_degree_one_symbol_returns_slot():
    X = stack_tuple((E(1, 2, 2), E(2, 1, 2)))
    sym = WeylSymbol((WeylTerm(1.0, (0,)),))
    assert np.array_equal(weyl_value(sym, X), X[0])


def test_weyl_x1x2_on_elementary_pair():
    X = stack_tuple((E(1, 2, 2), E(2, 1, 2)))
    sym = WeylSymbol((WeylTerm(1.0, (0, 1)),))
    # Explicit 2x2 oracle: (E12@E21 + E21@E12)/2 = I/2.
    oracle = (E(1, 2, 2) @ E(2, 1, 2) + E(2, 1, 2) @ E(1, 2, 2)) / 2.0
    value = weyl_value(sym, X)
    assert np.array_equal(value, oracle)
    assert np.allclose(value, np.eye(2) / 2.0, atol=0)


def test_weyl_on_commuting_diagonals_is_pointwise():
    X = stack_tuple((np.diag([1.0, 2.0]).astype(complex),
                     np.diag([3.0, 4.0]).astype(complex)))
    sym = WeylSymbol((WeylTerm(1.0, (0, 0, 1)),))
    # Pointwise oracle: x1^2 * x2 on each diagonal entry.
    assert np.allclose(weyl_value(sym, X), np.diag([3.0, 16.0]), atol=1e-15)


def test_weyl_permutation_invariance_is_exact():
    rng = np.random.default_rng(11)
    X = stack_tuple(tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                          for _ in range(3)))
    base = weyl_value(WeylSymbol((WeylTerm(1.3 - 0.2j, (0, 1, 2)),)), X)
    for word in [(1, 0, 2), (2, 1, 0), (0, 2, 1), (2, 0, 1), (1, 2, 0)]:
        other = weyl_value(WeylSymbol((WeylTerm(1.3 - 0.2j, word),)), X)
        assert np.array_equal(base, other)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=3), st.integers(0, 2 ** 31 - 1))
def test_weyl_permutation_invariance_property(word, seed):
    rng = np.random.default_rng(seed)
    X = stack_tuple(tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                          for _ in range(3)))
    base = weyl_value(WeylSymbol((WeylTerm(1.0, tuple(word)),)), X)
    permuted = tuple(rng.permutation(word).tolist())
    other = weyl_value(WeylSymbol((WeylTerm(1.0, permuted),)), X)
    assert np.array_equal(base, other)


def test_weyl_commutative_collapse_on_diagonals():
    rng = np.random.default_rng(5)
    X = stack_tuple(tuple(np.diag(rng.normal(size=4)).astype(complex) for _ in range(3)))
    sym = WeylSymbol((WeylTerm(0.7, (0, 1, 2)), WeylTerm(-0.2, (2, 2)),
                      WeylTerm(1.1, (1,))))
    diag = [np.diag(m).real for m in X]
    expected = np.diag(0.7 * diag[0] * diag[1] * diag[2] - 0.2 * diag[2] ** 2
                       + 1.1 * diag[1])
    assert np.max(np.abs(weyl_value(sym, X) - expected)) < 1e-12


def test_weyl_constant_letters_and_controls():
    X = stack_tuple((np.eye(2, dtype=complex),))
    sym = WeylSymbol((WeylTerm(2.0, ("C",), control=0),))
    value = weyl_value(sym, X, constants={"C": np.array([[0, 1], [0, 0]], dtype=complex)},
                      a=np.array([3.0]))
    assert np.array_equal(value, 6.0 * np.array([[0, 1], [0, 0]]))
    with pytest.raises(ConfigurationError):
        weyl_value(sym, X, constants={}, a=np.array([3.0]))


def weyl_reference(terms, matrices, constants, a, n):
    """Permutation average of each sorted word, term by term, as a plain loop."""
    acc = np.zeros((n, n), dtype=complex)
    for term in terms:
        coeff = complex(term.coefficient)
        if term.control is not None:
            coeff *= a[term.control]
        if not term.word:
            acc = acc + coeff * np.eye(n, dtype=complex)
            continue
        letters = sorted(term.word, key=lambda x: (0, x, "") if isinstance(x, int) else (1, -1, x))
        mats = [matrices[x] if isinstance(x, int) else constants[x] for x in letters]
        if len(mats) == 1:
            acc = acc + coeff * mats[0]
            continue
        total = np.zeros((n, n), dtype=complex)
        for order in itertools.permutations(mats):
            prod = order[0]
            for mat in order[1:]:
                prod = prod @ mat
            total = total + prod
        acc = acc + (coeff / math.factorial(len(mats))) * total
    return acc


@st.composite
def weyl_cases(draw):
    m, n, control_dim = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(0, 2))
    letters = st.one_of(st.integers(0, m - 1), st.sampled_from(["C", "D"]))
    term = st.builds(WeylTerm,
                     coefficient=st.complex_numbers(max_magnitude=1e3, allow_nan=False),
                     word=st.lists(letters, max_size=3).map(tuple),
                     control=st.none() if not control_dim
                     else st.one_of(st.none(), st.integers(0, control_dim - 1)))
    symbols = draw(st.lists(st.lists(term, max_size=4).map(
        lambda terms: WeylSymbol(tuple(terms))), min_size=1, max_size=4))
    return m, n, control_dim, symbols, draw(st.integers(0, 2 ** 31 - 1)), draw(st.booleans())


def T(coeff, word, control=None):
    return WeylTerm(coeff, tuple(word), control)


# Every level mixes terms of degree 0-3; constants sit inside words of two and three letters.
MIXED_SYMBOLS = [
    WeylSymbol((T(0.5, [0], 0), T(2.0, [1, 0]), T(1.0, []))),
    WeylSymbol((T(1.5j, [2, 1], 1), T(-1.0, ["C"]), T(0.25, [0, "D"], 0), T(-2.0, [3], 1))),
    WeylSymbol((T(1.0, [0, 1, 2]), T(3.0, [1], 1), T(0.5, [3, 3]))),
    WeylSymbol((T(1.0 - 1j, ["C", 0, "D"], 0), T(2.0, [], 1), T(1.0, ["D", "C"]))),
    WeylSymbol(()),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weyl_cases())
@example((2, 3, 0, [WeylSymbol(()), WeylSymbol((T(1.0, [0]),)), WeylSymbol(())], 1, False))
@example((4, 6, 2, MIXED_SYMBOLS, 2, False))
@example((4, 3, 2, MIXED_SYMBOLS, 3, True))
@example((1, 2, 1, [WeylSymbol((T(1.0, [0], 0), T(-1.0, [0, 0], 0)))], 4, True))
def test_compiled_weyl_matches_permutation_average_bitwise(case):
    m, n, control_dim, symbols, seed, special = case
    rng = np.random.default_rng(seed)
    stacked = entries(rng, (m, n, n))
    constants = {"C": entries(rng, (n, n)), "D": entries(rng, (n, n))}
    a = entries(rng, (control_dim,))
    if special:     # +-inf and NaN entries in the tuple, the constants and the controls
        for x in (stacked, *constants.values(), a):
            mask = rng.random(x.shape) < 0.15
            x[mask] = rng.choice([np.inf, -np.inf, np.nan], mask.sum())
    plan = compile_run(symbols, m, n, constants, control_dim)[0]
    with np.errstate(all="ignore"):
        got = weyl_eval_tuple(plan, stacked, a)
        expected = np.stack([weyl_reference(sym.terms, stacked, constants, a, n)
                             for sym in symbols])
    assert np.array_equal(nan_bits(got), nan_bits(expected))
    if not special:
        assert np.array_equal(bits(got), bits(expected))


def test_compile_rejects_unknown_slot_constant_and_control():
    X = stack_tuple((np.eye(2, dtype=complex),))
    with pytest.raises(ConfigurationError, match="slot 2, tuple has 1"):
        compile_run((WeylSymbol((WeylTerm(1.0, (1,)),)),), 1, 2)
    with pytest.raises(ConfigurationError, match="unknown constant 'C'"):
        compile_run((WeylSymbol((WeylTerm(1.0, ("C",)),)),), 1, 2, {"D": X[0]})
    with pytest.raises(ConfigurationError, match="control component 1, control dimension is 1"):
        compile_run((WeylSymbol((WeylTerm(1.0, (0,), control=1),)),), 1, 2, None, 1)
    # With coefficients a term's control indexes an entry, and an entry's u word indexes u.
    reads_entry_1 = (WeylSymbol((WeylTerm(1.0, (0,), control=1),)),)
    with pytest.raises(ConfigurationError, match="control component 1, control dimension is 1"):
        compile_run(reads_entry_1, 1, 2, None, 2, coefficients=(((1.0, (0,)),),))
    with pytest.raises(ConfigurationError, match="^coefficient needs control component 2, "
                       "control dimension is 2$"):
        compile_run(reads_entry_1, 1, 2, None, 2, coefficients=((), ((1.0, (0, 2)),)))


def test_symbol_degree_cap():
    with pytest.raises(ConfigurationError):
        WeylTerm(1.0, (0, 0, 0, 0))


# ---------------------------------------------------------------------------
# Presentations and residuals
# ---------------------------------------------------------------------------

def test_heisenberg_triple_is_exact_representation():
    residual = relation_values(heisenberg_presentation(), HEISENBERG_TUPLE)[1]
    assert residual == 0.0
    assert residual <= 1e-12


def test_perturbed_triple_has_expected_residual():
    perturbed = stack_tuple((E(1, 2), E(2, 3), E(1, 3) + 0.1 * E(1, 2)))
    # [X1,X2] - X3 = -0.1 E12, Frobenius norm 0.1.
    residual = relation_values(heisenberg_presentation(), perturbed)[1]
    assert residual == pytest.approx(0.1)
    assert not residual <= 1e-3


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_entry_has_nan_residual(value):
    stacked = HEISENBERG_TUPLE.copy()
    stacked[2, 1, 0] = value
    with np.errstate(invalid="ignore"):
        assert math.isnan(relation_values(heisenberg_presentation(), stacked)[1])


def test_empty_presentation_is_vacuous():
    pres = AlgebraPresentation(label="free", generators=2)
    X = stack_tuple((E(1, 2), E(2, 1)))
    residual = relation_values(pres, X)[1]
    assert residual == 0.0
    assert residual <= 0.0


def test_stacked_matmul_equals_per_pair_bitwise():
    # The relation kernel multiplies whole levels at once; its bytes equal the
    # word-by-word products only because this numpy build's stacked matmul,
    # broadcast identity included, does per pair what ``@`` does.
    rng = np.random.default_rng(7)
    idx = np.array([3, 0, 1, 1, 2])
    for n in range(1, 7):
        X, P = entries(rng, (4, n, n)), entries(rng, (5, n, n))
        eye = np.eye(n, dtype=complex)
        for stacked, pairs in [
                (eye @ X[idx], [eye @ X[i] for i in idx]),
                (eye[None] @ X[idx], [eye @ X[i] for i in idx]),
                (X[idx] @ eye[None], [X[i] @ eye for i in idx]),
                (P @ X[idx], [P[k] @ X[i] for k, i in enumerate(idx)]),
                (X[idx] @ P, [X[i] @ P[k] for k, i in enumerate(idx)])]:
            assert np.array_equal(bits(stacked), bits(np.stack(pairs)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_vecdot_row_norms_equal_per_row_dot_bitwise(n, rows, seed):
    # relation_values takes every squared norm with one np.vecdot per part; its bytes equal
    # the per-row dot products only because this numpy build runs each strided row through
    # the same dot loop.
    rng = np.random.default_rng(seed)
    values = entries(rng, (rows, n * n)) * rng.choice([1e-200, 1e-3, 1.0, 1e3, 1e160],
                                                      (rows, n * n))
    with np.errstate(over="ignore"):
        for part in (values.real, values.imag):
            expected = np.array([row.dot(row) for row in part])
            assert np.array_equal(np.vecdot(part, part).view(np.uint64),
                                  expected.view(np.uint64))


def loop_relations(pres, stacked):
    """The relations evaluated word by word from an identity, terms added in order."""
    n = stacked.shape[1]
    eye = np.eye(n, dtype=complex)
    out = np.zeros((len(pres.relations), n, n), dtype=complex)
    for acc, rel in zip(out, pres.relations):
        for word, coeff in rel.terms.items():
            prod = eye
            for letter in word:
                prod = prod @ stacked[letter]
            acc += coeff * prod
    norms = [float(np.linalg.norm(value)) for value in out]
    return out, math.nan if any(map(math.isnan, norms)) else max(norms, default=0.0)


def nan_bits(x):
    """``bits`` with every NaN replaced by one NaN.

    numpy's vector and scalar add loops keep the NaN of different operands, so
    a NaN's sign depends on where its entry falls in the array; a NaN only
    ever marks a tuple as off the variety.
    """
    x = np.array(x, dtype=complex)
    x.real[np.isnan(x.real)] = np.nan
    x.imag[np.isnan(x.imag)] = np.nan
    return bits(x)


@st.composite
def presentations(draw):
    m = draw(st.integers(1, 4))
    word = st.lists(st.integers(0, m - 1), max_size=3).map(tuple)
    coeff = st.sampled_from([1.0, -1.0, 0.5, -0.0 + 2j]) | st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    relation = st.dictionaries(word, coeff, max_size=6).map(NCPoly)
    return AlgebraPresentation("drawn", m, tuple(draw(st.lists(relation, max_size=4))))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(presentations(), st.integers(1, 6), st.integers(0, 2 ** 31 - 1), st.booleans())
@example(commutative_presentation(1), 3, 0, True)     # no relations
@example(AlgebraPresentation.from_strings("short", 1, ["x1*x1 + 1 + x1"]), 1, 1, False)
def test_relation_plan_equals_the_word_loop(pres, n, seed, special):
    rng = np.random.default_rng(seed)
    stacked = entries(rng, (pres.generators, n, n))
    if special:
        mask = rng.random(stacked.shape) < 0.1
        stacked[mask] = rng.choice([np.inf, -np.inf, np.nan], mask.sum())
    with np.errstate(all="ignore"):
        values, worst = relation_values(pres, stacked)
        expected, expected_worst = loop_relations(pres, stacked)
        assert np.array_equal(nan_bits(poly_eval(pres.plan, stacked)), nan_bits(expected))
    assert np.array_equal(nan_bits(values), nan_bits(expected.reshape(-1)))
    assert worst == expected_worst or math.isnan(worst) and math.isnan(expected_worst)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(presentations(), st.integers(1, 6), st.integers(1, 9), st.integers(0, 2 ** 31 - 1),
       st.booleans())
@example(commutative_presentation(1), 2, 3, 0, False)     # no relations
@example(AlgebraPresentation.from_strings("short", 1, ["x1*x1 + 1 + x1"]), 2, 4, 1, True)
def test_a_stack_of_tuples_evaluates_as_each_tuple_alone(pres, n, count, seed, special):
    rng = np.random.default_rng(seed)
    stack = entries(rng, (count, pres.generators, n, n))
    if special:
        mask = rng.random(stack.shape) < 0.05
        stack[mask] = rng.choice([np.inf, -np.inf, np.nan], mask.sum())
    with np.errstate(all="ignore"):
        values, norms = relation_values(pres, stack)
        evaluated = poly_eval(pres.plan, stack)
        alone = [relation_values(pres, stacked) for stacked in stack]
        assert evaluated.shape == (count, len(pres.relations), n, n)
        for k, stacked in enumerate(stack):
            assert np.array_equal(nan_bits(evaluated[k]), nan_bits(poly_eval(pres.plan, stacked)))
    assert values.shape == (count, len(pres.relations) * n * n) and norms.shape == (count,)
    for k, (flat, worst) in enumerate(alone):
        assert np.array_equal(nan_bits(values[k]), nan_bits(flat))
        assert norms[k] == worst or math.isnan(norms[k]) and math.isnan(worst)


def test_repdyn_loads_share_the_builtin_classes(tmp_path):
    text = (SCENARIOS / "repdyn_transition.yaml").read_text()
    own = tmp_path / "own.yaml"
    own.write_text(text.replace("  mode: tactical\n", "  mode: tactical\n  classes:\n"
                                "    mine: {generators: 2, relations: []}\n"))
    first, second, third = (load_scenario(path).repdyn_plan().tactical.registry
                            for path in (SCENARIOS / "repdyn_transition.yaml", own,
                                         SCENARIOS / "repdyn_transition.yaml"))
    assert "mine" in second.labels() and "mine" not in third.labels()
    assert first.labels() == third.labels() == default_registry().labels()
    for label in first.labels():
        assert first.classes[label] is second.classes[label] is third.classes[label]
    with pytest.raises(TypeError):
        default_registry().classes["mine"] = second.classes["mine"]


def test_relation_parsing_respects_caps():
    with pytest.raises(ConfigurationError):
        parse_relation("x1*x1*x1*x1", 1)
    with pytest.raises(Exception):
        parse_relation("x3", 2)


def test_registry_lookup_by_generator_count():
    registry = default_registry()
    assert registry.presentation("commutative", 2).generators == 2
    assert registry.presentation("heisenberg", 3).generators == 3
    with pytest.raises(ConfigurationError):
        registry.presentation("heisenberg", 2)
    with pytest.raises(ConfigurationError):
        registry.presentation("nonsense", 2)


# ---------------------------------------------------------------------------
# Constrained integration
# ---------------------------------------------------------------------------

def test_frozen_dynamics_keeps_tuple_constant():
    spec = RepDynSpec(symbols=(WeylSymbol(()),) * 3, n=3,
                      presentation=heisenberg_presentation())
    result = integrate_repdyn(spec, None, 0.0, 1.0, 0.01, HEISENBERG_TUPLE)
    assert result.insolvable is None
    assert np.array_equal(result.states[-1], HEISENBERG_TUPLE)
    assert np.all(result.residuals == result.residuals[0])


def test_commutative_diagonal_slots_follow_scalar_logistic():
    diag0 = np.array([0.1, 0.25, 0.5])
    X0 = stack_tuple((np.diag(diag0).astype(complex),))
    sym = WeylSymbol((WeylTerm(1.0, (0,), control=0), WeylTerm(-1.0, (0, 0), control=0)))
    spec = RepDynSpec(symbols=(sym,), n=3,
                      presentation=commutative_presentation(1), control_dim=1)
    result = integrate_repdyn(spec, lambda t: [1.0], 0.0, 3.0, 1e-3, X0)
    assert result.insolvable is None
    # Fine-step scalar oracle per diagonal slot.
    for slot in range(3):
        _, ref = integrate_scalar_reference(["u1*(x1 - x1*x1)"], [diag0[slot]],
                                            lambda t: [1.0], 0.0, 3.0, 1e-4)
        slot_trace = result.states[-1, 0, slot, slot].real
        assert abs(slot_trace - ref[-1, 0]) < 1e-7


def test_heisenberg_scaling_flow_conserves_relations():
    symbols = (WeylSymbol((WeylTerm(1.0, (0,), control=0),)),
               WeylSymbol((WeylTerm(1.0, (1,), control=1),)),
               WeylSymbol((WeylTerm(1.0, (2,), control=0),
                           WeylTerm(1.0, (2,), control=1))))
    spec = RepDynSpec(symbols=symbols, n=3,
                      presentation=heisenberg_presentation(), control_dim=2)
    control = lambda t: np.array([0.1 * math.sin(t), 0.05 * math.cos(t)])  # noqa: E731
    result = integrate_repdyn(spec, control, 0.0, 2.0, 1e-3, HEISENBERG_TUPLE)
    assert result.insolvable is None
    assert np.max(result.residuals) < 1e-8


def test_projection_contract_residuals_bounded():
    # A mildly non-tangent drift: projection must keep every recorded
    # residual at tolerance as long as no signal is raised.
    symbols = (WeylSymbol((WeylTerm(0.05, ("D",)),)),
               WeylSymbol((WeylTerm(1.0, (1,), control=0),)))
    X0 = stack_tuple((np.diag([1.0, 2.0]).astype(complex),
                      np.diag([0.5, 1.5]).astype(complex)))
    spec = RepDynSpec(symbols=symbols, n=2,
                      presentation=commutative_presentation(2),
                      constants={"D": np.array([[0.0, 1.0], [0.0, 0.0]])},
                      control_dim=1, tolerance=1e-9, insolvable_threshold=1e-3)
    result = integrate_repdyn(spec, lambda t: [0.02], 0.0, 1.0, 1e-2, X0)
    assert result.insolvable is None
    assert np.max(result.residuals) <= 1e-9


@pytest.mark.parametrize("second, suffix", [
    # The cubic's k2 stage, at t + dt/2, overflows.
    (WeylTerm(1e200, (1, 1, 1)), ": symbols[1] (the dynamics of x2) non-finite at stage time "
                                 "t=0.005"),
    # Every stage is finite; only the step's combination 2*k2 overflows.
    (WeylTerm(1e308, ()), "")], ids=["symbol", "combination"])
def test_a_divergence_names_the_first_non_finite_symbol(second, suffix):
    symbols = (WeylSymbol((WeylTerm(1.0, (0,)),)), WeylSymbol((second,)))
    spec = RepDynSpec(symbols=symbols, n=2, presentation=commutative_presentation(2))
    start = np.stack([np.diag([1.0, 2.0]), np.diag([0.5, 1.5])]).astype(complex)
    with np.errstate(all="ignore"), pytest.raises(SimulationError) as info:
        integrate_repdyn(spec, None, 0.0, 0.1, 0.01, start)
    assert str(info.value) == ("matrix tuple diverged in presentation 'commutative' at "
                               "t=0.01" + suffix)


def test_initial_violation_rejected():
    bad = stack_tuple((E(1, 2), E(2, 3), E(1, 3) + 0.5 * E(1, 2)))
    with pytest.raises(ConfigurationError, match="initial tuple violates"):
        check_start(RepDynSpec(symbols=(WeylSymbol(()),) * 3, n=3,
                               presentation=heisenberg_presentation()), bad)


def test_projection_pulls_perturbed_tuple_back():
    perturbed = stack_tuple((E(1, 2), E(2, 3), E(1, 3) + 1e-3 * E(1, 2)))
    projected, residual, converged = project_to_variety(
        heisenberg_presentation(), perturbed, tolerance=1e-9)
    assert converged
    assert residual <= 1e-9
    assert np.max(np.abs(projected[2] - E(1, 3))) < 1e-2


def kron_jacobian(pres, stacked):
    """The Gauss-Newton Jacobian with one ``np.kron(prefix, suffix.T)`` per letter."""
    m, n = stacked.shape[0], stacked.shape[1]
    n2 = n * n
    jac = np.zeros((len(pres.relations) * n2, m * n2), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for r, rel in enumerate(pres.relations):
        for word, coeff in rel.terms.items():
            for j, letter in enumerate(word):
                prefix = eye
                for x in word[:j]:
                    prefix = prefix @ stacked[x]
                suffix = eye
                for x in reversed(word[j + 1:]):
                    suffix = stacked[x] @ suffix
                jac[r * n2:(r + 1) * n2, letter * n2:(letter + 1) * n2] += coeff * np.kron(
                    prefix, suffix.T)
    return jac


@pytest.mark.parametrize("pres", [
    heisenberg_presentation(), commutative_presentation(2), commutative_presentation(4),
    AlgebraPresentation.from_strings("cubic", 2, ["x1*x2*x1 - 1.7*x2*x2 + 0.5", "0.3*x2*x1*x1"]),
    AlgebraPresentation.from_strings("cubic-m3", 3, [
        "x1*x2*x3 - x3*x2*x1 + 0.5*x2", "x3*x3*x1 - 2*x1*x2*x2 + x2*x1*x3 - x3 + 1",
        "x2*x2*x2 - 0.25*x1*x3"]),
], ids=["heisenberg", "commutative-m2", "commutative-m4", "cubic", "cubic-m3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relation_jacobian_equals_kron_reference_bitwise(pres, seed):
    rng = np.random.default_rng(seed)
    for n in (1, 3, 4, 6):
        stacked = entries(rng, (pres.generators, n, n))
        jac = _relation_jacobian(pres, stacked, pres.generators, n)
        assert np.array_equal(bits(jac), bits(kron_jacobian(pres, stacked)))


def count_relation_work(monkeypatch):
    counts = {"evaluations": 0, "jacobians": 0}

    def counted(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(tactica.algebra, "poly_eval",
                        counted(tactica.algebra.poly_eval, "evaluations"))
    monkeypatch.setattr(tactica.repdyn, "_relation_jacobian",
                        counted(tactica.repdyn._relation_jacobian, "jacobians"))
    return counts


def reference_integrate(spec, control, t0, t1, dt, start):
    """``integrate_repdyn`` as a step-by-step loop: each raw step checked alone, before the next
    is taken."""
    n_steps = step_count(t0, t1, dt)
    plan, control_dim, presentation = spec.plan, spec.control_dim, spec.presentation
    if control is None and control_dim:
        raise ConfigurationError("spec declares controls but no schedule given")
    a_time, returned, a = None, None, None

    def evaluate_control(t):
        nonlocal a_time, returned, a
        if t != a_time:
            a_time, returned = t, control(t)
            if isinstance(control, VectorExpression):
                returned = real_array(returned, control.path, t)
            a = np.asarray(returned, dtype=complex)
            if len(a) != control_dim:
                raise ConfigurationError(
                    f"control schedule returns {len(a)} components, spec declares "
                    f"{control_dim}")

    def rhs(t, stacked):
        if control is not None:
            evaluate_control(t)
        return weyl_eval_tuple(plan, stacked, a)

    residuals = [check_start(spec, start)]
    stacked = start
    states = np.empty((n_steps + 1,) + stacked.shape, dtype=complex)
    states[0] = stacked
    times = [t0]
    controls = []
    anchor = []

    def result(insolvable=None):
        return RepDynResult(times=np.array(times), states=states[:len(times)],
                            residuals=np.array(residuals), insolvable=insolvable,
                            controls=controls)

    for k in range(n_steps):
        t = t0 + k * dt
        first = rhs(t, stacked)
        if control is not None:
            controls.append(returned)
        candidate = rk4_step(rhs, t, stacked, dt, first)
        t_next = t0 + (k + 1) * dt
        if not np.isfinite(candidate).all():
            stages = []
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
                                               t_next, anchor)
        if not converged:
            return result(InsolvableSignal(
                time=t_next, residual=residual,
                reason="projection did not converge within the iteration cap"))
        times.append(t_next)
        states[k + 1] = stacked
        residuals.append(residual)
    if control is not None:
        evaluate_control(times[-1])
        controls.append(returned)
    return result()


def assert_same_run(got, expected):
    """The two outcomes of a run are one bit for bit: its samples, controls and signal, or
    its exception's type and message."""
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    assert np.array_equal(bits(got.states), bits(expected.states))
    assert np.array_equal(got.times.view(np.uint64), expected.times.view(np.uint64))
    assert np.array_equal(got.residuals.view(np.uint64), expected.residuals.view(np.uint64))
    assert got.controls == expected.controls
    assert got.insolvable == expected.insolvable


def outcome(integrate, *args):
    with np.errstate(all="ignore"):
        try:
            return integrate(*args)
        except Exception as exc:      # compared by type and message
            return type(exc), str(exc)


PROJECTING_SYMBOLS = (WeylSymbol((T(1.0, [0], 0), T(1.0, [1], 1))),
                      WeylSymbol((T(1.0, [0], 2), T(1.0, [1], 3))),
                      WeylSymbol((T(1.0, [2], 0), T(1.0, [2], 3))))


def projecting_control(t):
    """With ``PROJECTING_SYMBOLS`` on the Heisenberg triple at dt 0.05, about one raw step in
    five leaves the variety beyond the tolerance."""
    return [0.3 * math.sin(t), 0.5 * (1.0 + 0.2 * math.sin(0.7 * t)),
            -0.5 * (1.0 + 0.2 * math.sin(0.7 * t)), 0.3 * math.sin(1.3 * t)]


@pytest.mark.parametrize("case", ["free", "projecting"])
def test_integrate_evaluates_the_control_once_per_stage_time(case, monkeypatch):
    times = []
    if case == "free":
        symbols = (WeylSymbol((T(0.5, [0], 0), T(-0.25j, [0, 1], 1))),
                   WeylSymbol((T(1.0, [1, 1, 0], 0), T(0.1, []))))
        spec = RepDynSpec(symbols=symbols, presentation=AlgebraPresentation("free", 2), n=2,
                          control_dim=2)
        start, dt, n_steps = 0.1 * entries(np.random.default_rng(3), (2, 2, 2)), 0.01, 30
        schedule = lambda t: [math.sin(3 * t), 0.5 - t]    # noqa: E731
    else:
        spec = RepDynSpec(symbols=PROJECTING_SYMBOLS, presentation=heisenberg_presentation(),
                          n=3, control_dim=4)
        start, dt, n_steps, schedule = HEISENBERG_TUPLE, 0.05, 200, projecting_control

    def control(t):
        times.append(t)
        return schedule(t)

    projections = []

    def counted(*args, **kwargs):
        projections.append(args)
        return project_to_variety(*args, **kwargs)

    monkeypatch.setattr(tactica.repdyn, "project_to_variety", counted)
    result = integrate_repdyn(spec, control, 0.0, n_steps * dt, dt, start)
    assert len(result.times) == n_steps + 1 and len(times) <= 3 * n_steps
    assert len(set(times)) == len(times)        # no stage time is evaluated twice
    assert len(projections) == (0 if case == "free" else 42)
    # Each sample keeps the control its step's first stage read; the last one its own.
    assert result.controls == [schedule(t) for t in result.times]
    assert_same_run(result, reference_integrate(spec, schedule, 0.0, n_steps * dt, dt, start))

    if case == "projecting":
        return

    def rhs(t, stacked):    # a fresh control vector at every stage
        return weyl_eval_tuple(spec.plan, stacked, np.asarray(schedule(t), dtype=complex))

    stacked = start
    for k, state in enumerate(result.states[1:]):
        stacked = rk4_step(rhs, 0.0 + k * dt, stacked, dt, rhs(0.0 + k * dt, stacked))
        assert np.array_equal(bits(state), bits(stacked))


def _on_variety_start(draw, pres, n):
    """A start tuple on ``pres``'s variety."""
    m = pres.generators
    if pres.label == "heisenberg":
        a, b = draw(st.sampled_from([1.0, 0.5, -2.0])), draw(st.sampled_from([1.0, 1.5]))
        return stack_tuple((a * E(1, 2), b * E(2, 3), a * b * E(1, 3)))
    if pres.label.startswith("commutative"):
        diagonal = st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.0]), min_size=n,
                            max_size=n)
        return np.stack([np.diag(draw(diagonal)) for _ in range(m)]).astype(complex)
    if pres.relations:      # drawn relations without a constant term: zero is on them
        return np.zeros((m, n, n), dtype=complex)
    if m == 1:
        return np.diag(draw(st.lists(st.sampled_from([0.5, 1.0, -0.5]), min_size=n,
                                     max_size=n)))[None].astype(complex)
    return 0.5 * entries(np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1))), (m, n, n))


@st.composite
def repdyn_runs(draw):
    """A spec, control schedule, times and a start on the variety, from one of four families:
    Heisenberg under a rotation that leaves the variety on some steps; a drift off it that
    its control switches on now and then (some steps project, a larger drift crosses the
    threshold); ``x' = c x^3``, which diverges after runs of clean steps; and drawn symbols
    over drawn presentations, with relations or none."""
    family = draw(st.sampled_from(["rotation", "switched", "blow-up", "drawn"]))
    dt = draw(st.sampled_from([0.01, 0.05, 0.1]))
    t0 = draw(st.sampled_from([0.0, 0.25]))
    phase = draw(st.sampled_from([0.0, 0.4, 2.0]))
    amplitude = draw(st.sampled_from([1e-4, 0.05, 0.5, 2.0, 50.0]))
    threshold = draw(st.sampled_from([1e-5, 1e-3, 1e-1, 1e3]))
    if family == "rotation":
        pres, n, symbols = heisenberg_presentation(), 3, PROJECTING_SYMBOLS

        def control(t):
            rate = amplitude * (1.0 + 0.2 * math.sin(0.7 * t + phase))
            return [0.3 * math.sin(t), rate, -rate, 0.3 * math.sin(1.3 * t)]
    else:
        if family == "blow-up":
            pres = draw(st.sampled_from([AlgebraPresentation("free", 1),
                                         commutative_presentation(1)]))
        elif family == "switched":
            pres = draw(st.sampled_from([heisenberg_presentation(), commutative_presentation(2),
                                         commutative_presentation(3)]))
        else:
            pres = draw(st.sampled_from([
                heisenberg_presentation(), commutative_presentation(1),
                commutative_presentation(2), commutative_presentation(3),
                AlgebraPresentation("free", 2)]) | presentations().filter(
                    lambda p: p.relations and all(() not in rel.terms for rel in p.relations)))
        n = 3 if pres.label == "heisenberg" else draw(st.integers(2 if family == "switched"
                                                                  else 1, 3))
        m = pres.generators
        if family == "blow-up":
            symbols = (WeylSymbol((T(draw(st.sampled_from([1.0, 4.0, 20.0])), [0, 0, 0]),
                                   T(0.1, [0], 0))),)
        elif family == "switched":      # along the variety, plus the switched drift
            symbols = tuple(WeylSymbol((T(0.5, [i], 0), T(1.0, ["D"], 2))) for i in range(m))
        else:
            coeff = st.sampled_from([1.0, -0.5, 0.3, 2.0, 0.5j, 0.02, 1e-4, 1e200])
            word = st.lists(st.sampled_from([*range(m), "D"]), max_size=3).map(tuple)
            term = st.builds(WeylTerm, coeff, word, st.none() | st.integers(0, 3))
            symbols = tuple(WeylSymbol(tuple(draw(st.lists(term, max_size=3))))
                            for _ in range(m))

        def control(t):
            switched = amplitude if math.sin(20 * t + phase) > 0.8 else 0.0
            return [math.sin(t + phase), 0.5 * math.cos(3 * t), switched, phase]
    start = _on_variety_start(draw, pres, n)
    drift = np.eye(n, k=1) if n > 1 else np.ones((1, 1))
    spec = RepDynSpec(symbols=symbols, presentation=pres, n=n, control_dim=4,
                      constants={"D": drift}, insolvable_threshold=threshold)
    return spec, control, t0, t0 + draw(st.integers(1, 60)) * dt, dt, start


@settings(max_examples=200, derandomize=True, deadline=None)
@given(repdyn_runs())
def test_runs_of_steps_equal_the_step_by_step_loop(run):
    assert_same_run(outcome(integrate_repdyn, *run), outcome(reference_integrate, *run))


@st.composite
def generated_runs(draw):
    """A spec over a drawn presentation whose relations have no constant term, with drawn
    symbols of degree 0 to 3 over its slots and two constants, some terms scaled by one of
    four control components; a control whose entries turn +-inf or NaN at drawn times; and
    a start on the variety (a free tuple, or a zero one) with -0.0 entries."""
    pres = draw(st.sampled_from([AlgebraPresentation("free", 1), AlgebraPresentation("free", 2),
                                 commutative_presentation(2)]) | presentations().filter(
        lambda p: all(() not in rel.terms for rel in p.relations)))
    m, n = pres.generators, draw(st.integers(1, 3))
    coeff = st.sampled_from([1.0, -0.5, 0.3, 2.0, 0.5j, 0.02, -0.0, 1e200])
    word = st.lists(st.sampled_from([*range(m), "C", "D"]), max_size=3).map(tuple)
    term = st.builds(WeylTerm, coeff, word, st.none() | st.integers(0, 3))
    symbols = tuple(WeylSymbol(tuple(draw(st.lists(term, max_size=4)))) for _ in range(m))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    constants = {"C": entries(rng, (n, n)), "D": 0.1 * np.eye(n, k=1)}
    special = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    onset, slot = draw(st.sampled_from([0.0, 0.12, 0.5, 9.0])), draw(st.integers(0, 3))

    def control(t):
        value = [math.sin(t), 0.5 * math.cos(3 * t), 0.25, -1.0]
        if t >= onset:
            value[slot] = special
        return value

    start = np.zeros((m, n, n), dtype=complex) if pres.relations else 0.5 * entries(rng, (m, n, n))
    signs = rng.random(start.shape) < 0.5
    start.real[signs & (start.real == 0)] = -0.0
    start.imag[signs & (start.imag == 0)] = -0.0
    spec = RepDynSpec(symbols=symbols, presentation=pres, n=n, control_dim=4,
                      constants=constants, insolvable_threshold=draw(st.sampled_from([1e-5, 1e3])))
    dt = draw(st.sampled_from([0.01, 0.05]))
    return spec, control, 0.0, draw(st.integers(1, 40)) * dt, dt, start


@settings(max_examples=200, derandomize=True, deadline=None)
@given(generated_runs(), st.integers(1, 6))
def test_the_generated_run_is_the_rk4_step_loop_bit_for_bit(run, steps):
    # The whole integration against the step-by-step loop of rk4_step over the evaluator:
    # states, residuals, controls, and the insolvable or diverged outcome.
    spec, control, t0, _, dt, start = run
    assert_same_run(outcome(integrate_repdyn, *run), outcome(reference_integrate, *run))
    # One call of the generated run for several steps (and one for a lone step), from a
    # tuple with non-finite entries too, against rk4_step.
    memo = {}

    def rhs(t, x):
        return weyl_eval_tuple(spec.plan, x, np.asarray(control(t), dtype=complex))

    def read(t):
        a = np.asarray(control(t), dtype=complex)
        memo[t] = None, a, spec.scalars(a)
        return memo[t]

    for y in (start, np.where(np.abs(start.real) < 0.3, np.nan, start) * (1 - 1e308j)):
        states = np.empty((steps + 1, *start.shape), dtype=complex)
        states[0] = y
        with np.errstate(all="ignore"):
            assert spec.run(states, 0, 1, t0, dt, memo.get, read, False) == 1
            assert spec.run(states, 1, steps, t0, dt, memo.get, read, False) == steps
            for k in range(steps):
                t = t0 + k * dt
                y = rk4_step(rhs, t, y, dt, rhs(t, y))
                assert np.array_equal(nan_bits(states[k + 1]), nan_bits(y))


@pytest.mark.parametrize("case", ["diverging", "overflowing-relations"])
def test_a_run_warns_as_the_step_by_step_loop_does(case):
    # Both runs grow long before they fail.  "diverging": x' = x^3 from 0.5 overflows near
    # t = 2; the discarded steps past the first non-finite one (inf * 0, inf - inf) add no
    # warning.  "overflowing-relations": x' = 1000 x keeps a commuting pair finite while
    # its commutator's products overflow; that candidate is checked again outside the run,
    # so its relation check warns as it does alone.
    if case == "diverging":
        spec = RepDynSpec(symbols=(WeylSymbol((T(1.0, [0, 0, 0]),)),), n=2,
                          presentation=AlgebraPresentation("free", 1))
        start, t1, expected = 0.5 * np.eye(2, dtype=complex)[None], 3.0, "diverged"
    else:
        spec = RepDynSpec(symbols=(WeylSymbol((T(1000.0, [0]),)),) * 2, n=2,
                          presentation=commutative_presentation(2), insolvable_threshold=1e300)
        start = np.stack([np.diag([1.0, 2.0]), np.diag([0.5, 1.5])]).astype(complex)
        t1, expected = 1.0, "relation residual turned non-finite"
    caught = {}
    for integrate in (integrate_repdyn, reference_integrate):
        with warnings.catch_warnings(record=True) as seen, np.errstate(all="warn"):
            warnings.simplefilter("always")
            with pytest.raises(SimulationError, match=expected) as info:
                integrate(spec, None, 0.0, t1, 0.01, start)
        caught[integrate] = str(info.value), Counter((w.category, str(w.message)) for w in seen)
    (message, got), (reference, loop) = caught[integrate_repdyn], caught[reference_integrate]
    assert message == reference and got.keys() == loop.keys() and got <= loop and got


@pytest.mark.parametrize("case", ["reached", "beyond-the-signal"])
def test_a_control_that_raises_in_a_run_raises_where_the_loop_does(case):
    # Runs of clean steps grow long before step 40, whose last stage reads a control that
    # raises.  "reached": the loop reaches it; the step is retaken alone, reading again only
    # the time that raised.  "beyond-the-signal": a drift switched on in step 35, in the same
    # run, crosses the threshold first, so the loop never reads that control; the run's
    # steps past it, which do, are discarded.
    failing = 40 * 0.01 + 0.01
    onset = 0.355 if case == "beyond-the-signal" else 1.0
    spec = RepDynSpec(symbols=(WeylSymbol((T(1.0, ["D"], 0),)),) * 2, n=2, control_dim=1,
                      presentation=commutative_presentation(2), constants={"D": E(1, 2, 2)})
    start = np.stack([np.diag([1.0, 2.0]), np.diag([0.5, 3.0])]).astype(complex)
    calls, runs = {}, {}
    for integrate in (integrate_repdyn, reference_integrate):
        times = calls[integrate] = []

        def control(t):
            times.append(t)
            if t >= failing:
                raise ValueError(f"no control at t={t!r}")
            return [100.0 if t >= onset else 0.0]

        runs[integrate] = outcome(integrate, spec, control, 0.0, 1.0, 0.01, start)
    assert_same_run(runs[integrate_repdyn], runs[reference_integrate])
    counts = Counter(calls[integrate_repdyn])
    if case == "reached":
        assert runs[integrate_repdyn] == (ValueError, f"no control at t={failing!r}")
        assert counts == Counter(calls[reference_integrate] + [failing])
    else:
        assert runs[integrate_repdyn].insolvable.time == 36 * 0.01
        assert failing in counts and max(counts.values()) == 1


@pytest.mark.parametrize("value, got", [
    ([[0.5, 2.0]], "shape (1, 2)"), (0.5, "shape ()"), ([0.5, 2.0], "2 components")],
    ids=["row", "scalar", "too-long"])
def test_a_control_not_of_the_declared_shape_is_a_configuration_error(value, got):
    # A row would broadcast over the tuple's columns, and a scalar has no length.
    spec = RepDynSpec(symbols=(WeylSymbol((T(1.0, [0], 0),)),), n=2, control_dim=1,
                      presentation=AlgebraPresentation("free", 1))
    start = np.diag([1.0, 2.0])[None].astype(complex)
    with pytest.raises(ConfigurationError) as info:
        integrate_repdyn(spec, lambda t: value, 0.0, 0.1, 0.01, start)
    assert str(info.value) == f"control schedule returns {got}, spec declares 1"


@pytest.mark.parametrize("value, shown", [(["0.5"], "['0.5']"),
                                          (np.array([0.5], dtype=object), "[0.5]")],
                         ids=["str", "object"])
def test_a_control_that_is_not_numbers_is_a_configuration_error(value, shown):
    # np.asarray(..., dtype=complex) would parse "0.5"; a complex control stays allowed.
    spec = RepDynSpec(symbols=(WeylSymbol((T(1.0, [0], 0),)),), n=2, control_dim=1,
                      presentation=AlgebraPresentation("free", 1))
    start = np.diag([1.0, 2.0])[None].astype(complex)
    with pytest.raises(ConfigurationError) as info:
        integrate_repdyn(spec, lambda t: value, 0.0, 0.1, 0.01, start)
    assert str(info.value) == f"control schedule returns {shown}, which is not numeric"
    result = integrate_repdyn(spec, lambda t: [0.5j], 0.0, 0.1, 0.01, start)
    assert result.controls == [[0.5j]] * 11


class WeakList(list):
    """A control value that a weak reference can follow."""


def test_the_control_memo_holds_at_most_a_run_of_stage_times():
    # No relations, so every step is clean and runs grow to the longest.  A value returned at
    # a half-step time is no sample's control, so only the memo can keep it alive.
    n, dt = 8, 1 / 64
    longest = tactica.repdyn.BATCH_ENTRIES // n ** 2    # one generator, no relation words
    n_steps = 4 * longest
    spec = RepDynSpec(symbols=(WeylSymbol((T(1.0, [0], 0),)),), n=n, control_dim=1,
                      presentation=AlgebraPresentation("free", 1))
    off_grid, live = [], []

    def control(t):
        value = WeakList([0.1 * math.sin(t)])
        if t / dt % 1:
            off_grid.append(weakref.ref(value))
        live.append(sum(ref() is not None for ref in off_grid))
        return value

    result = integrate_repdyn(spec, control, 0.0, n_steps * dt, dt,
                              np.eye(n, dtype=complex)[None])
    assert len(result.times) == n_steps + 1 and len(off_grid) == n_steps
    assert max(live) <= 2 * longest


def test_a_projecting_step_evaluates_the_relations_twice(monkeypatch):
    # A constant drift moves X1 off the Heisenberg variety; one Gauss-Newton
    # iteration brings the step back.  The projection reuses the raw check's values.
    spec = RepDynSpec(symbols=(WeylSymbol((WeylTerm(0.05, ("D",)),)),) + (WeylSymbol(()),) * 2,
                      n=3, presentation=heisenberg_presentation(), constants={"D": E(2, 1)},
                      insolvable_threshold=1e-1)
    counts = count_relation_work(monkeypatch)
    result = integrate_repdyn(spec, None, 0.0, 0.01, 0.01, HEISENBERG_TUPLE)
    assert result.insolvable is None and 0.0 < result.residuals[1] <= 1e-9
    # The start check, then the step's raw check and its post-projection check.
    assert counts == {"evaluations": 1 + 2, "jacobians": 1}


def test_a_projecting_transition_evaluates_the_relations_twice(monkeypatch):
    off_variety = TransitionRule(from_class="commutative", trigger="insolvable",
                                 to_class="heisenberg",
                                 tuple_map=lambda X: np.concatenate((X, E(1, 3)[None])))
    game = TacticalRepDyn(
        registry=default_registry(),
        class_dynamics={"commutative": _drift_dynamics(), "heisenberg": _scaling_dynamics()},
        initial_class="commutative", initial=_zero_pair(), eta0=np.zeros(1),
        delta=DialecticalObject(label="off-variety", transitions=(off_variety,)))
    counts = count_relation_work(monkeypatch)
    transitions = []
    stacked, _, label = _apply_transition(
        game, off_variety, _zero_pair(), np.zeros(1),
        InsolvableSignal(time=0.5, residual=1.0, reason="test"), transitions, 1)
    assert label == "heisenberg" and transitions[0].residual <= 1e-9
    # The post-transition check, then the projection's check after its one iteration.
    assert counts == {"evaluations": 2, "jacobians": 1}


def test_projection_stalls_on_infeasible_relations():
    # [X1,X2] = 1 has no finite-dimensional solution (trace obstruction):
    # Gauss-Newton must stop at a positive residual without converging.
    pres = AlgebraPresentation.from_strings("canonical-pair", 2,
                                            ["x1*x2 - x2*x1 - 1"])
    X = stack_tuple((E(1, 2, 2), E(2, 1, 2)))
    _, residual, converged = project_to_variety(pres, X, tolerance=1e-9)
    assert not converged
    assert residual > 1e-3


def test_a_lone_projection_leaves_its_result_as_the_anchor(monkeypatch):
    # The factor is built by the next projection that needs it, never by this one.
    perturbed = stack_tuple((E(1, 2), E(2, 3), E(1, 3) + 1e-3 * E(1, 2)))
    counts = count_relation_work(monkeypatch)
    alone = project_to_variety(heisenberg_presentation(), perturbed, 1e-9)
    work, anchor = dict(counts), []
    got = project_to_variety(heisenberg_presentation(), perturbed, 1e-9, anchor=anchor)
    assert got[1] <= tactica.repdyn.ANCHOR_RESIDUAL and np.array_equal(bits(got[0]),
                                                                        bits(alone[0]))
    assert anchor[0] is got[0] and anchor[1] is None
    assert {key: counts[key] - work[key] for key in counts} == work


def test_a_stalled_projection_from_a_kept_factor_is_the_least_squares_one():
    # On [X1,X2] = 1 no kept step cuts the residual tenfold, so the projection is the
    # least-squares iteration from the candidate, stopped by the cap as it is without a
    # kept factor.  Its result, far off the variety, is no anchor.
    pres = AlgebraPresentation.from_strings("canonical-pair", 2, ["x1*x2 - x2*x1 - 1"])
    X = stack_tuple((E(1, 2, 2), E(2, 1, 2)))
    anchor = [X, None]
    got = project_to_variety(pres, 0.5 * X, 1e-9, anchor=anchor)
    alone = project_to_variety(pres, 0.5 * X, 1e-9)
    assert not got[2] and got[1] == alone[1] and np.array_equal(bits(got[0]), bits(alone[0]))
    assert anchor == []


@st.composite
def projecting_runs(draw):
    """A spec, control schedule, times and start whose raw steps leave the variety on many
    steps: the Heisenberg triple, or a conjugate of it, under the drifting rotation of
    ``PROJECTING_SYMBOLS``; or, over drawn relations without a constant term, each with a
    word of two letters or more, drawn symbols plus a drift of each generator along a
    random constant matrix, from the zero tuple, every raw step projected."""
    family = draw(st.sampled_from(["drifting", "conjugated", "drawn"]))
    dt = draw(st.sampled_from([0.02, 0.05, 0.1]))
    phase = draw(st.sampled_from([0.0, 0.4, 2.0]))
    amplitude = draw(st.sampled_from([0.5, 1.0, 2.0]))
    constants = {}
    if family == "drawn":
        n, m = 3, draw(st.integers(1, 4))
        word = st.lists(st.integers(0, m - 1), min_size=1, max_size=3).map(tuple)
        coeff = st.sampled_from([1.0, -1.0, 0.5, 2j]) | st.complex_numbers(
            max_magnitude=1e3, allow_nan=False, allow_infinity=False)
        relation = st.builds(lambda lead, c, rest: NCPoly({**rest, lead: c}),
                             st.lists(st.integers(0, m - 1), min_size=2, max_size=3).map(tuple),
                             st.sampled_from([1.0, -0.5, 2j, 300.0]),
                             st.dictionaries(word, coeff, max_size=4))
        relations = draw(st.lists(relation, min_size=1, max_size=3))
        pres = AlgebraPresentation("drawn", m, tuple(relations))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
        constants = {f"R{i}": rng.normal(size=(n, n)) for i in range(m)}
        coeff = st.sampled_from([1.0, -0.5, 0.3, 2.0, 0.5j, 0.02])
        word = st.lists(st.sampled_from(range(m)), max_size=3).map(tuple)
        term = st.builds(WeylTerm, coeff, word, st.none() | st.integers(0, 3))
        symbols = tuple(WeylSymbol((T(0.01, [f"R{i}"], 2), *draw(st.lists(term, max_size=2))))
                        for i in range(m))
        start = np.zeros((m, n, n), dtype=complex)

        def control(t):
            return [math.sin(t + phase), 0.5 * math.cos(3 * t), amplitude, phase]
    else:
        pres, n, symbols, start = heisenberg_presentation(), 3, PROJECTING_SYMBOLS, \
            HEISENBERG_TUPLE
        if family == "conjugated":
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
            p = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
            start = p @ start @ np.linalg.inv(p)

        def control(t):
            rate = amplitude * (1.0 + 0.2 * math.sin(0.7 * t + phase))
            return [0.3 * math.sin(t), rate, -rate, 0.3 * math.sin(1.3 * t)]
    spec = RepDynSpec(symbols=symbols, presentation=pres, n=n, control_dim=4,
                      constants=constants, insolvable_threshold=1e3 if family == "drawn"
                      else draw(st.sampled_from([1e-5, 1e-3])))
    return spec, control, 0.0, draw(st.integers(1, 60)) * dt, dt, start


@settings(max_examples=150, derandomize=True, deadline=None)
@given(projecting_runs())
def test_a_kept_factor_projects_near_the_least_squares_projection(run):
    # Each projection of a run, which may start from the run's kept factor, is compared with
    # the least-squares iteration alone on the same candidate.  It is that iteration's result
    # bit for bit, so it converges or stops at the cap as that does, or it converged on kept
    # steps alone, near that result.  On Heisenberg tuples the two lie within 1.5
    # least-squares corrections (1.24 at most over 24,000 kept-step projections of random
    # examples, 0.76 on the benchmark's runs).  Drawn relations are projected near the zero
    # tuple, a singular point of their variety, where the gap reached 8.3 corrections.
    pairs = []

    def compared(pres, stacked, tolerance, values=None, anchor=None):
        got = project_to_variety(pres, stacked, tolerance, values, anchor)
        pairs.append((stacked, got, project_to_variety(pres, stacked, tolerance, values)))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tactica.repdyn, "project_to_variety", compared)
        result = outcome(integrate_repdyn, *run)
    for candidate, (got, residual, converged), alone in pairs:
        if not np.array_equal(bits(got), bits(alone[0])):
            assert converged and residual <= run[0].tolerance
            correction = np.max(np.abs(alone[0] - candidate))
            bound = 20.0 if run[0].presentation.label == "drawn" else 1.5
            assert np.max(np.abs(got - alone[0])) <= bound * correction
    if not isinstance(result, tuple):
        assert np.max(result.residuals) <= run[0].tolerance


def test_a_projecting_stretch_keeps_its_factor(monkeypatch):
    # At dt 0.1 nearly every step projects.  After the first, a projection starts from the
    # pseudo-inverse kept at the last least-squares result, and refreshes it only when a
    # kept step fails to cut the residual tenfold.
    spec = RepDynSpec(symbols=PROJECTING_SYMBOLS, presentation=heisenberg_presentation(),
                      n=3, control_dim=4)
    counts = count_relation_work(monkeypatch)
    projections = []

    def counted(*args, **kwargs):
        projections.append(args)
        return project_to_variety(*args, **kwargs)

    monkeypatch.setattr(tactica.repdyn, "project_to_variety", counted)
    result = integrate_repdyn(spec, projecting_control, 0.0, 10.0, 0.1, HEISENBERG_TUPLE)
    assert result.insolvable is None and np.max(result.residuals) <= spec.tolerance
    assert len(projections) == 89 and counts["jacobians"] <= len(projections) // 4


def conjugated_heisenberg(seed, dim):
    """The Heisenberg triple summed ``dim // 3`` times and conjugated by I + 0.2 N(0, 1), under
    the derivation flow of ``PROJECTING_SYMBOLS`` with four free unit sinusoids
    ``sin(w t + ph)`` as its rates.  The exact flow stays on the variety; at dt 0.05 nearly
    every raw step leaves it beyond the tolerance.  Returns the start, the control, w, ph."""
    rng = np.random.default_rng(seed)
    alpha, beta = rng.uniform(0.5, 1.5, 2)
    blocks = np.eye(dim // 3)
    p = np.eye(dim) + 0.2 * rng.normal(size=(dim, dim))
    start = stack_tuple([p @ np.kron(blocks, x) @ np.linalg.inv(p)
                         for x in (alpha * E(1, 2), beta * E(2, 3), alpha * beta * E(1, 3))])
    w, ph = rng.uniform(0.5, 2.0, 4).tolist(), rng.uniform(0.0, 2 * math.pi, 4).tolist()
    return start, lambda t: [math.sin(w[i] * t + ph[i]) for i in range(4)], w, ph


def exact_derivation_flow(start, w, ph, t1):
    """The tuple at ``t1`` under X1' = a0 X1 + a1 X2, X2' = a2 X1 + a3 X2, X3' = (a0 + a3) X3
    with ``a_i = sin(w_i t + ph_i)``: the 2x2 fundamental matrix by RK4 at 1/1280, X3's
    factor in closed form."""
    def f(t, y):
        a = [math.sin(w[i] * t + ph[i]) for i in range(4)]
        return [a[0] * y[0] + a[1] * y[2], a[0] * y[1] + a[1] * y[3],
                a[2] * y[0] + a[3] * y[2], a[2] * y[1] + a[3] * y[3]]

    fundamental, h = [1.0, 0.0, 0.0, 1.0], 1 / 1280
    for k in range(round(t1 / h)):
        t = k * h
        k1 = f(t, fundamental)
        k2 = f(t + h / 2, [y + h / 2 * d for y, d in zip(fundamental, k1)])
        k3 = f(t + h / 2, [y + h / 2 * d for y, d in zip(fundamental, k2)])
        k4 = f(t + h, [y + h * d for y, d in zip(fundamental, k3)])
        fundamental = [y + h / 6 * (a + 2 * b + 2 * c + d)
                       for y, a, b, c, d in zip(fundamental, k1, k2, k3, k4)]
    growth = sum((math.cos(ph[i]) - math.cos(w[i] * t1 + ph[i])) / w[i] for i in (0, 3))
    (f11, f12, f21, f22), (x1, x2, x3) = fundamental, start
    return np.stack([f11 * x1 + f12 * x2, f21 * x1 + f22 * x2, math.exp(growth) * x3])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([3, 6]), st.integers(20, 40))
def test_a_projection_moves_a_conjugated_tuple_no_further_than_its_residual(seed, dim, n_steps):
    # The least-squares cutoff leaves out the tangent directions whose zero singular values
    # the candidate's distance from the variety lifts; under a 1e-12 cutoff, steps along
    # them moved these candidates by up to thousands of times their residual.
    start, control, _, _ = conjugated_heisenberg(seed, dim)
    spec = RepDynSpec(symbols=PROJECTING_SYMBOLS, presentation=heisenberg_presentation(),
                      n=dim, control_dim=4)
    moves = []

    def measured(pres, stacked, tolerance, values=None, anchor=None):
        got = project_to_variety(pres, stacked, tolerance, values, anchor)
        moves.append((float(np.linalg.norm(got[0] - stacked)), values[1]))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tactica.repdyn, "project_to_variety", measured)
        result = integrate_repdyn(spec, control, 0.0, n_steps * 0.05, 0.05, start)
    assert result.insolvable is None
    assert all(move <= 4.0 * residual for move, residual in moves), max(
        move / residual for move, residual in moves)


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_a_conjugated_dim_6_run_keeps_to_the_exact_flow(seed):
    # Under a fixed 1e-12 cutoff the final tuples of seeds 2, 3 and 4 were 7.5e-7, 3.9e-6 and
    # 7.0e-5 off, relative; the fourth-order error of the step is about 1e-7 here.
    start, control, w, ph = conjugated_heisenberg(seed, 6)
    spec = RepDynSpec(symbols=PROJECTING_SYMBOLS, presentation=heisenberg_presentation(), n=6,
                      control_dim=4)
    result = integrate_repdyn(spec, control, 0.0, 10.0, 0.05, start)
    assert result.insolvable is None and result.times[-1] == 10.0
    exact = exact_derivation_flow(start, w, ph, 10.0)
    assert np.linalg.norm(result.states[-1] - exact) <= 5e-7 * np.linalg.norm(exact)


# ---------------------------------------------------------------------------
# Equivalence partition
# ---------------------------------------------------------------------------

def test_constant_label_single_interval():
    samples = [(0.0, "a"), (0.5, "a"), (1.0, "a")]
    intervals = equivalence_partition(samples)
    assert len(intervals) == 1
    assert (intervals[0].t_start, intervals[0].t_end) == (0.0, 1.0)
    assert intervals[0].closed_end


def test_midpoint_switch_two_intervals():
    samples = [(0.0, "a"), (0.5, "a"), (1.0, "b"), (1.5, "b")]
    intervals = equivalence_partition(samples)
    assert [(i.label, i.t_start, i.t_end) for i in intervals] == \
        [("a", 0.0, 1.0), ("b", 1.0, 1.5)]


def test_alternating_labels_fragment_maximally():
    samples = [(0.0, "a"), (1.0, "b"), (2.0, "a")]
    intervals = equivalence_partition(samples)
    assert len(intervals) == 3


def test_unlabeled_sample_is_a_data_error():
    with pytest.raises(ConfigurationError):
        equivalence_partition([(0.0, "a"), (1.0, None)])


# ---------------------------------------------------------------------------
# Dynamical inverse problem
# ---------------------------------------------------------------------------

def test_inverse_linear_scalar_closed_form():
    construction = solve_inverse_problem(["u1*x1"], x0=[1.0], control_dim=1,
                                         matrix_dim=2)
    assert construction.symbolic_match
    schedule = lambda t: [0.7]  # noqa: E731
    result = integrate_repdyn(construction.spec, schedule, 0.0, 2.0, 1e-3, construction.start)
    slot = result.states[-1, 0, 0, 0].real
    assert abs(slot - math.exp(0.7 * 2.0)) < 1e-9


def test_inverse_logistic_matches_direct_integration():
    construction = solve_inverse_problem(["u1*(x1 - x1*x1)"], x0=[0.1],
                                         control_dim=1, matrix_dim=2)
    schedule = lambda t: [1.0]  # noqa: E731
    result = integrate_repdyn(construction.spec, schedule, 0.0, 5.0, 1e-3, construction.start)
    _, ref = integrate_scalar_reference(["u1*(x1 - x1*x1)"], [0.1],
                                        lambda t: [1.0], 0.0, 5.0, 1e-3)
    slots = result.states[:, 0, 0, 0].real
    assert np.max(np.abs(slots - ref[:, 0])) < 1e-9


def test_inverse_constant_lift():
    construction = solve_inverse_problem(["0.5 + u1*x1"], x0=[1.0], control_dim=1,
                                         matrix_dim=2, lift_constants=True)
    assert "C0" in construction.spec.constants
    assert np.array_equal(construction.spec.constants["C0"],
                          0.5 * np.eye(2, dtype=complex))
    schedule = lambda t: [0.3]  # noqa: E731
    result = integrate_repdyn(construction.spec, schedule, 0.0, 2.0, 1e-3, construction.start)
    _, ref = integrate_scalar_reference(["0.5 + u1*x1"], [1.0], lambda t: [0.3],
                                        0.0, 2.0, 1e-3)
    slots = result.states[:, 0, 0, 0].real
    assert np.max(np.abs(slots - ref[:, 0])) < 1e-9


def test_inverse_parallel_initial_data():
    construction = solve_inverse_problem(
        ["u1*(x1 - x1*x1)"], x0=[0.1], control_dim=1, matrix_dim=3,
        parallel_initial=[[0.1, 0.3, 0.6]])
    schedule = lambda t: [1.0]  # noqa: E731
    result = integrate_repdyn(construction.spec, schedule, 0.0, 1.0, 1e-3, construction.start)
    for slot, x0 in enumerate([0.1, 0.3, 0.6]):
        _, ref = integrate_scalar_reference(["u1*(x1 - x1*x1)"], [x0],
                                            lambda t: [1.0], 0.0, 1.0, 1e-3)
        assert abs(result.states[-1, 0, slot, slot].real - ref[-1, 0]) < 1e-9


def loop_coefficients(rhs, control_dim, u, lift_constants):
    """The symbols' control vector, entry by entry: ``total = 0j`` plus each coefficient
    times its u letters, in order."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    out = []
    for slots in _parse_polynomial_rhs(rhs, len(rhs), control_dim):
        for x_word in sorted(slots):
            contributions = slots[x_word]
            if lift_constants and x_word == () and all(uw == () for _, uw in contributions):
                continue
            total = 0j
            for coeff, u_word in contributions:
                value = coeff
                for j in u_word:
                    value *= u[j]
                total += value
            out.append(total)
    return np.array(out, dtype=complex)


@st.composite
def polynomial_systems(draw):
    state_dim, control_dim = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    coeff = st.sampled_from(["1", "-0.5", "2.5", "-3", "0.1", "1e-3", "7e5"])
    term = st.tuples(coeff, st.lists(st.integers(1, state_dim), max_size=3),
                     st.lists(st.integers(1, control_dim), max_size=2))
    rhs = [" + ".join("*".join([f"({c})", *(f"x{i}" for i in xs), *(f"u{j}" for j in us)])
                      for c, xs, us in terms)
           for terms in draw(st.lists(st.lists(term, min_size=1, max_size=5),
                                      min_size=state_dim, max_size=state_dim))]
    u = draw(st.lists(st.floats(-1e3, 1e3) | st.sampled_from([-0.0, 0.0, 1e-300]),
                      min_size=control_dim, max_size=control_dim))
    return rhs, control_dim, u


@settings(max_examples=100, derandomize=True, deadline=None)
@given(polynomial_systems(), st.booleans())
def test_the_spec_scalars_of_u_are_those_of_the_loop_coefficients_bitwise(system,
                                                                          lift_constants):
    # The coefficients the spec's scalars make of u are the loop's, bit for bit: the scalars
    # of a spec without coefficients, read at the loop's vector, are the same.
    rhs, control_dim, u = system
    construction = solve_inverse_problem(rhs, x0=[0.5] * len(rhs), control_dim=control_dim,
                                         lift_constants=lift_constants)
    assert construction.symbolic_match
    spec = construction.spec
    plain = compile_run(spec.symbols, len(rhs), spec.n, spec.constants,
                        len(spec.coefficients))[2]
    expected = plain(loop_coefficients(rhs, control_dim, u, lift_constants))
    got = spec.scalars(np.array(u, dtype=complex))
    assert len(got) == len(expected)
    for value, want in zip(got, expected):
        assert np.array_equal(bits(np.asarray(value)), bits(np.asarray(want)))


def test_inverse_rejects_non_polynomial_rhs():
    with pytest.raises(Exception):
        solve_inverse_problem(["sin(x1)"], x0=[0.0])


def test_inverse_rejects_high_state_degree():
    with pytest.raises(ConfigurationError, match="degree"):
        solve_inverse_problem(["x1*x1*x1*x1"], x0=[0.1], control_dim=0)


def test_inverse_two_dimensional_system():
    rhs = ["u1*x2", "-u1*x1"]
    construction = solve_inverse_problem(rhs, x0=[1.0, 0.0], control_dim=1,
                                         matrix_dim=2)
    schedule = lambda t: [1.0]  # noqa: E731
    result = integrate_repdyn(construction.spec, schedule, 0.0, 2.0, 1e-3, construction.start)
    _, ref = integrate_scalar_reference(rhs, [1.0, 0.0], lambda t: [1.0],
                                        0.0, 2.0, 1e-3)
    for i in range(2):
        assert abs(result.states[-1, i, 0, 0].real - ref[-1, i]) < 1e-9


def loop_scalar_reference(rhs, x0, u_schedule, t0, t1, dt, control_dim=1):
    """``integrate_scalar_reference`` as it ran before it used the generated interactive
    step: each rhs component compiled alone over ``x1.., u1..``, the control checked at
    every stage, and ``rk4_step`` on the state array.  Also returns that rhs, ``f(t, x)``."""
    state_dim = len(rhs)
    scalars = tuple(f"x{i + 1}" for i in range(state_dim)) + \
        tuple(f"u{j + 1}" for j in range(control_dim))
    fns = [compile_expression(src, scalars=scalars) for src in rhs]

    def f(t, x):
        u = np.atleast_1d(real_array(u_schedule(t), "invert.control", t))
        args = tuple(x) + tuple(u)
        return np.array([fn(*args) for fn in fns])

    n_steps = step_count(t0, t1, dt)
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, state_dim))
    x = np.asarray(x0, dtype=float)
    times[0] = t0
    states[0] = x
    for k in range(n_steps):
        t = t0 + k * dt
        x = rk4_step(f, t, x, dt, f(t, x))
        times[k + 1] = t0 + (k + 1) * dt
        states[k + 1] = x
    return times, states, f


@st.composite
def scalar_systems(draw):
    """A polynomial system of state degree <= 3, its start, and its control schedule as a
    ``VectorExpression`` or a plain lambda."""
    state_dim, control_dim = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    coeff = st.sampled_from(["1", "-0.5", "2.5", "-3", "0.1", "1e-3", "7e5"])
    term = st.tuples(coeff, st.lists(st.integers(1, state_dim), max_size=3),
                     st.lists(st.integers(1, max(control_dim, 1)),
                              max_size=2 if control_dim else 0))
    rhs = [" + ".join("*".join([f"({c})", *(f"x{i}" for i in xs), *(f"u{j}" for j in us)])
                      for c, xs, us in terms)
           for terms in draw(st.lists(st.lists(term, min_size=1, max_size=4),
                                      min_size=state_dim, max_size=state_dim))]
    x0 = draw(st.lists(st.floats(-3.0, 3.0) | st.just(-0.0), min_size=state_dim,
                       max_size=state_dim))
    if draw(st.integers(0, 3)) == 0:    # one start component that overflows under the rhs
        x0[draw(st.integers(0, state_dim - 1))] = draw(st.sampled_from([3e102, -1e103, 1e300]))
    c = draw(st.lists(st.floats(-3.0, 3.0), min_size=control_dim, max_size=control_dim))
    if draw(st.booleans()):
        schedule = compile_vector([f"({c[j]!r})*sin(t + {j})" for j in range(control_dim)],
                                  ("t",), path="invert.control")
    else:
        schedule = lambda t: [c[j] * math.cos(t + j) for j in range(control_dim)]  # noqa: E731
    return rhs, x0, schedule, control_dim


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(scalar_systems(), st.floats(-1.0, 1.0), st.sampled_from([0.01, 0.1, 0.25]),
       st.integers(1, 40))
# Every stage's derivative is finite, the last sample's overflows in its second component.
@example((["x1", "(1e-300)*x1*x1*x1"], [1.2e200, 0.0], lambda t: [], 0), 0.0, 10.0, 1)
def test_scalar_reference_is_the_rk4_loop_bit_for_bit(system, t0, dt, n_steps):
    rhs, x0, schedule, control_dim = system
    args = (rhs, x0, schedule, t0, t0 + n_steps * dt, dt, control_dim)
    with np.errstate(all="ignore"):
        loop_t, loop_x, f = loop_scalar_reference(*args)
        try:
            t, x = integrate_scalar_reference(*args)
        except DivergenceError as exc:
            # The loop returned non-finite rows; the run stops at the step that made them.
            bad = np.flatnonzero(~np.isfinite(loop_x).all(axis=1))
            assert len(bad) and exc.last_valid_time == loop_t[bad[0] - 1]
            return
        except SimulationError as exc:
            # The run also records the derivative at its last sample, which the loop never
            # evaluated.
            assert np.isfinite(loop_x).all() and not np.isfinite(f(loop_t[-1], loop_x[-1])).all()
            assert str(exc).startswith("non-finite dphi_")
            assert str(exc).endswith(f" at t={float(loop_t[-1])!r}")
            return
    assert np.array_equal(bits(t), bits(loop_t)) and np.array_equal(bits(x), bits(loop_x))


def test_scalar_reference_divergence_names_its_time():
    with np.errstate(all="ignore"), pytest.raises(
            DivergenceError, match=r"^state diverged; last finite state at t=1\.25$") as info:
        integrate_scalar_reference(["x1*x1"], [1.0], lambda t: [], 0.0, 3.0, 0.125,
                                   control_dim=0)
    assert info.value.last_valid_time == 1.25


# ---------------------------------------------------------------------------
# Tactical representative dynamics
# ---------------------------------------------------------------------------

def _zero_pair():
    return np.zeros((2, 3, 3), dtype=complex)


def _drift_dynamics():
    return ClassDynamics(
        symbols=(WeylSymbol((WeylTerm(1.0, ("D1",)),)),
                 WeylSymbol((WeylTerm(1.0, ("D2",)),))),
        constants={"D1": E(1, 2), "D2": E(2, 3)})


def _scaling_dynamics():
    return ClassDynamics(symbols=(
        WeylSymbol((WeylTerm(0.2, (0,)),)),
        WeylSymbol((WeylTerm(0.1, (1,)),)),
        WeylSymbol((WeylTerm(0.2, (2,)), WeylTerm(0.1, (2,))))))


def _transition_delta():
    return DialecticalObject(label="enlarge", transitions=(
        TransitionRule(from_class="commutative", trigger="insolvable",
                       to_class="heisenberg",
                       tuple_map=tuple_map("append_commutator", 1, 2),
                       eta_update=lambda eta, diag: np.array([diag["time"]])),))


def test_tangent_commutative_flow_never_transitions():
    diag_dyn = ClassDynamics(symbols=(
        WeylSymbol((WeylTerm(0.3, (0,)),)), WeylSymbol((WeylTerm(-0.2, (1,)),))))
    game = TacticalRepDyn(
        registry=default_registry(), class_dynamics={"commutative": diag_dyn},
        initial_class="commutative",
        initial=np.stack((np.diag([1.0, 2.0, 3.0]), np.diag([0.5, 0.2, 0.1]))).astype(complex),
        eta0=np.zeros(1), delta=DialecticalObject(label="noop"))
    result = run_tactical_repdyn(game, [0.0, 1.0, 2.0, 3.0], 1e-2)
    assert [c.class_label for c in result.class_stream] == ["commutative"] * 3
    assert len(result.class_stream) == 3
    assert not result.transitions


def test_commutativity_breaking_transition_fires_once():
    game = TacticalRepDyn(
        registry=default_registry(),
        class_dynamics={"commutative": _drift_dynamics(),
                        "heisenberg": _scaling_dynamics()},
        initial_class="commutative", initial=_zero_pair(), eta0=np.zeros(1),
        delta=_transition_delta(), insolvable_threshold=1e-6)
    result = run_tactical_repdyn(game, [0.0, 1.0, 2.0, 3.0], 1e-3)
    assert len(result.transitions) == 1
    event = result.transitions[0]
    assert (event.from_class, event.to_class) == ("commutative", "heisenberg")
    after = result.residuals[np.searchsorted(result.times, event.time):]
    assert np.max(after) < 1e-8
    assert [c.class_label for c in result.class_stream] == ["heisenberg"] * 3
    # eta update recorded the transition time
    assert result.class_stream[0].eta[0] == pytest.approx(event.time)


@pytest.mark.parametrize("value, shown", [
    (["0.5"], "value ['0.5'] is not real numeric"),
    (np.array([0.5 + 1j]), "complex value [(0.5+1j)]"), ([1j, 2j], "complex value [1j, 2j]")],
    ids=["str-list", "complex-array", "complex-list"])
def test_an_eta_update_that_is_not_real_numeric_is_named_at_the_signal_time(value, shown):
    # Not parsed, cut to its real part or a bare TypeError.
    rule = _transition_delta().transitions[0]
    game = TacticalRepDyn(
        registry=default_registry(),
        class_dynamics={"commutative": _drift_dynamics(), "heisenberg": _scaling_dynamics()},
        initial_class="commutative", initial=_zero_pair(), eta0=np.zeros(1),
        delta=DialecticalObject(label="enlarge", transitions=(TransitionRule(
            rule.from_class, rule.trigger, rule.to_class, lambda eta, diag: value,
            rule.tuple_map),)), insolvable_threshold=1e-6)
    with pytest.raises(SimulationError, match=rf"^transition 'commutative' -> 'heisenberg': "
                       rf"eta_update: {re.escape(shown)} at t=0\.002$"):
        run_tactical_repdyn(game, [0.0, 1.0, 2.0, 3.0], 1e-3)


def _enlarge_then_free(control):
    """Commutative until its drift breaks commutativity, then Heisenberg until a drift of
    X3 that grows with the control ``a(t) = t`` leaves the variety, then free."""
    registry = AlgebraClassRegistry(classes={**default_registry().classes,
                                             "free": (AlgebraPresentation("free", 3),)})
    heisenberg = ClassDynamics(symbols=(WeylSymbol(()), WeylSymbol(()),
                                        WeylSymbol((WeylTerm(2e-3, ("D",), control=0),))),
                               constants={"D": E(1, 3)})
    return TacticalRepDyn(
        registry=registry,
        class_dynamics={"commutative": _drift_dynamics(), "heisenberg": heisenberg,
                        "free": ClassDynamics(symbols=(WeylSymbol(()),) * 3)},
        initial_class="commutative", initial=_zero_pair(), eta0=np.zeros(1),
        delta=DialecticalObject(label="enlarge-then-free", transitions=(
            _transition_delta().transitions[0],
            TransitionRule(from_class="heisenberg", trigger="insolvable", to_class="free"))),
        insolvable_threshold=1e-6, control_dim=1, control=control)


def test_each_transition_starts_a_class_interval():
    result = run_tactical_repdyn(_enlarge_then_free(lambda t: [t]), [0.0, 1.0, 2.0], 1e-3)
    first, second = result.transitions
    assert [(i.label, i.t_start, i.t_end, i.closed_end) for i in result.classes] == [
        ("commutative", 0.0, first.time, False), ("heisenberg", first.time, second.time, False),
        ("free", second.time, 2.0, True)]
    assert 0.0 < first.time < second.time < 1.0
    assert {first.time, second.time} <= set(result.times.tolist())
    # The window mean of a(t) = t over samples on the dt grid.
    assert result.windows[1].v[0] == pytest.approx(1.5, abs=1e-12)


def test_a_window_counts_each_restart_sample_once():
    # Both transitions fire in window 1; each restart sample is the last sample of the
    # segment before it, so the window mean of a(t) = t runs over the 1001 grid samples.
    result = run_tactical_repdyn(_enlarge_then_free(lambda t: [t]), [0.0, 1.0, 2.0], 1e-3)
    assert [e.window_index for e in result.transitions] == [1, 1]
    assert result.windows[0].v[0] == pytest.approx(0.5, abs=1e-12)


def test_a_run_without_transitions_is_one_closed_class_interval():
    game = TacticalRepDyn(
        registry=default_registry(), class_dynamics={"commutative": ClassDynamics(
            symbols=(WeylSymbol((WeylTerm(0.3, (0,)),)), WeylSymbol(())))},
        initial_class="commutative",
        initial=np.stack((np.diag([1.0, 2.0, 3.0]), np.eye(3))).astype(complex),
        eta0=np.zeros(1), delta=DialecticalObject(label="noop"))
    result = run_tactical_repdyn(game, [0.5, 1.0, 2.0], 1e-2)
    assert [(i.label, i.t_start, i.t_end, i.closed_end) for i in result.classes] == [
        ("commutative", 0.5, 2.0, True)]
    assert result.times[0] == 0.5 and result.times[-1] == 2.0


def test_an_insolvable_segment_keeps_one_control_per_sample():
    spec = RepDynSpec(symbols=(WeylSymbol((WeylTerm(1.0, ("D1",), control=0),)),
                               WeylSymbol((WeylTerm(1.0, ("D2",)),))),
                      presentation=commutative_presentation(2), n=3,
                      constants={"D1": E(1, 2), "D2": E(2, 3)}, control_dim=1,
                      insolvable_threshold=1e-5)
    result = integrate_repdyn(spec, lambda t: [1.0 + t], 0.0, 1.0, 1e-3, _zero_pair())
    assert result.insolvable is not None and 1 < len(result.times) < 1001
    assert result.controls == [[1.0 + t] for t in result.times]


def _drifting_commutative(control):
    """A commutative pair under a controlled drift that never leaves the variety."""
    return TacticalRepDyn(
        registry=default_registry(), initial_class="commutative",
        class_dynamics={"commutative": ClassDynamics(symbols=(
            WeylSymbol((WeylTerm(1.0, (0,), control=0),)), WeylSymbol((WeylTerm(-0.2, (1,)),))))},
        initial=np.stack((np.diag([1.0, 2.0]), np.diag([0.5, 0.2]))).astype(complex),
        eta0=np.zeros(1), delta=DialecticalObject(label="noop"), control_dim=1, control=control)


def test_a_tactical_run_reads_the_control_once_per_stage_time():
    # Ten windows of ten steps: each window's first step starts at the last sample of the
    # window before, whose control the run's one memo holds, so no boundary is a stage
    # time of its own.
    times = []

    def control(t):
        times.append(t)
        return [0.5 + t]

    result = run_tactical_repdyn(_drifting_commutative(control), np.linspace(0.0, 1.0, 11), 0.01)
    assert len(result.windows) == 10 and not result.transitions
    assert len(times) == 217 and len(set(times)) == len(times)      # 226 with a memo per window


def test_each_window_starts_at_the_last_sample_of_the_window_before(monkeypatch):
    # The grid's 0.6 is 0.6000000000000001, one bit above 0.6, the time of the sixth
    # window's last sample; the seventh window starts at that sample, so no two samples
    # are a bit apart.
    runs = []

    def recorded(*args):
        runs.append(integrate_repdyn(*args))
        return runs[-1]

    monkeypatch.setattr(tactica.repdyn, "integrate_repdyn", recorded)
    result = run_tactical_repdyn(_drifting_commutative(lambda t: [0.5 + t]),
                                 np.linspace(0.0, 1.0, 11), 0.01)
    assert len(runs) == 10 and all(len(run.times) == 11 for run in runs)
    assert all(b.times[0] == a.times[-1] for a, b in zip(runs, runs[1:]))
    assert len(result.times) == 101 and np.all(np.diff(result.times) > 0)


def test_an_uncontrolled_run_keeps_no_controls():
    spec = RepDynSpec(symbols=(WeylSymbol(()),) * 3, n=3,
                      presentation=heisenberg_presentation())
    result = integrate_repdyn(spec, None, 0.0, 0.1, 0.01, HEISENBERG_TUPLE)
    assert result.controls == [] and len(result.times) == 11


def test_a_complex_library_control_fails_its_window_mean():
    with pytest.raises(SimulationError, match=r"^control: complex value \[0j\] at t=0\.0$"):
        run_tactical_repdyn(_enlarge_then_free(lambda t: [1j * t]), [0.0, 1.0], 1e-3)


def test_empty_transition_table_strands_the_run():
    game = TacticalRepDyn(
        registry=default_registry(), class_dynamics={"commutative": _drift_dynamics()},
        initial_class="commutative", initial=_zero_pair(), eta0=np.zeros(1),
        delta=DialecticalObject(label="empty"), insolvable_threshold=1e-6)
    with pytest.raises(StrandedClassError) as err:
        run_tactical_repdyn(game, [0.0, 1.0, 2.0], 1e-3)
    assert err.value.class_label == "commutative"
    assert err.value.window_index == 1


def test_class_stream_causality():
    # The class stream up to window n is unchanged by later-window dynamics:
    # run the same game over a longer grid and compare the prefix.
    def build(grid_stop):
        return TacticalRepDyn(
            registry=default_registry(),
            class_dynamics={"commutative": _drift_dynamics(),
                            "heisenberg": _scaling_dynamics()},
            initial_class="commutative", initial=_zero_pair(), eta0=np.zeros(1),
            delta=_transition_delta(), insolvable_threshold=1e-6)

    short = run_tactical_repdyn(build(2), [0.0, 1.0, 2.0], 1e-3)
    long = run_tactical_repdyn(build(4), [0.0, 1.0, 2.0, 3.0, 4.0], 1e-3)
    assert [c.class_label for c in short.class_stream] == \
        [c.class_label for c in long.class_stream[:2]]


def test_tactical_start_must_be_a_stacked_tuple():
    with pytest.raises(ConfigurationError, match=r"shape \(3, 3\), expected \(m, n, n\)"):
        TacticalRepDyn(registry=default_registry(),
                       class_dynamics={"commutative": _drift_dynamics()},
                       initial_class="commutative", initial=np.zeros((3, 3), dtype=complex),
                       eta0=np.zeros(1), delta=DialecticalObject(label="noop"))


def test_unknown_tuple_map_rejected():
    with pytest.raises(ConfigurationError):
        tuple_map("unknown_embedding")


def test_tuple_map_rejects_bad_arguments_and_slots():
    with pytest.raises(ConfigurationError):
        tuple_map("append_commutator", 1)
    embed = tuple_map("append_commutator", 1, 5)
    with pytest.raises(ConfigurationError):
        embed(_zero_pair())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_projection_after_a_transition_is_a_runtime_error(monkeypatch, value):
    def step(jac, rhs, rcond=None):
        return np.full(jac.shape[1], value, dtype=complex), None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", step)
    # The first step is insolvable; the mapped tuple is off the Heisenberg variety.
    off_variety = DialecticalObject(label="off-variety", transitions=(
        TransitionRule(from_class="commutative", trigger="insolvable", to_class="heisenberg",
                       tuple_map=lambda X: np.concatenate((X, E(1, 3)[None]))),))
    game = TacticalRepDyn(
        registry=default_registry(),
        class_dynamics={"commutative": _drift_dynamics(), "heisenberg": _scaling_dynamics()},
        initial_class="commutative", initial=_zero_pair(), eta0=np.zeros(1),
        delta=off_variety, insolvable_threshold=1e-7)
    with pytest.raises(SimulationError, match=r"^class 'heisenberg': relation residual turned "
                       r"non-finite in presentation 'heisenberg' at t=0\.001$"), \
            np.errstate(invalid="ignore"):
        run_tactical_repdyn(game, [0.0, 1.0], 1e-3)


def test_tactical_run_compiles_and_looks_up_nothing(monkeypatch):
    scenario = load_scenario(SCENARIOS / "repdyn_transition.yaml")
    plan = scenario.repdyn_plan()

    def fail(*args, **kwargs):
        raise AssertionError("a class was compiled or looked up during the run")

    monkeypatch.setattr(tactica.repdyn, "compile_run", fail)
    monkeypatch.setattr(Emitter, "function", fail)
    monkeypatch.setattr(AlgebraClassRegistry, "presentation", fail)
    result = run_tactical_repdyn(plan.tactical, plan.windows, scenario.run.dt)
    assert [(e.from_class, e.to_class) for e in result.transitions] == \
        [("commutative", "heisenberg")]


@pytest.mark.parametrize("stem", ["repdyn_heisenberg", "invert_logistic"])
def test_an_integration_compiles_nothing(monkeypatch, stem):
    # The spec's evaluator, run and scalars are generated when it is built; a scenario's
    # control compiles its vector at its first call, once.
    scenario = load_scenario(SCENARIOS / f"{stem}.yaml")
    run = scenario.run
    if stem == "repdyn_heisenberg":
        plan = scenario.repdyn_plan()
        spec, control, start = plan.spec, plan.control, plan.start
    else:
        plan = scenario.invert_plan()
        construction = solve_inverse_problem(plan.rhs, plan.x0, control_dim=plan.control_dim)
        spec, start = construction.spec, construction.start
        control = plan.u_schedule
    control(run.t0)
    compiled = []
    function = Emitter.function
    monkeypatch.setattr(Emitter, "function",
                        lambda self, lines: compiled.append(lines[0]) or function(self, lines))
    result = integrate_repdyn(spec, control, run.t0, run.t1, run.dt, start)
    assert result.insolvable is None and compiled == []


def recorded_sources(build):
    """``build()`` and the ``(source, leaf)`` lines of each function ``Emitter.function``
    compiles while it runs."""
    sources, function = [], Emitter.function
    with mock.patch.object(Emitter, "function",
                           lambda self, lines: sources.append(lines) or function(self, lines)):
        return build(), sources


def test_building_a_spec_compiles_one_source():
    # The evaluator, the run and the scalars come from one emitter, in one call.
    symbols = tuple(MIXED_SYMBOLS[:4])
    constants = {"C": E(1, 2, 2), "D": E(2, 1, 2)}
    spec, sources = recorded_sources(lambda: RepDynSpec(
        symbols=symbols, presentation=commutative_presentation(4), n=2,
        constants=constants, control_dim=2))
    assert len(sources) == 1 and sources[0][0][0] == "def evaluate(x, a):"
    assert spec.plan.__globals__ is spec.run.__globals__ is spec.scalars.__globals__


def test_solving_an_inverse_problem_compiles_one_source():
    # The coefficients are entries of the spec's one source, not a function of their own.
    construction, sources = recorded_sources(lambda: solve_inverse_problem(
        ["u1*(x1 - x1*x1) + u2", "0.5 + x1*x2"], x0=[0.1, 0.2], control_dim=2))
    assert len(sources) == 1 and sources[0][0][0] == "def evaluate(x, a):"
    assert construction.spec.coefficients is not None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weyl_cases())
@example((3, 3, 0, [WeylSymbol((T(0.5, [0]),)), WeylSymbol((T(-0.5, [1]),)),
                    WeylSymbol((T(0.2, [2]), T(0.1, [2])))], 0, False))
def test_a_generated_line_gathers_scalars_only_where_it_reads_the_control(case):
    # A level whose linear terms read no control scales by one constant array, made when the
    # run is compiled, not gathered at every stage.
    m, n, control_dim, symbols, seed, _ = case
    rng = np.random.default_rng(seed)
    constants = {"C": entries(rng, (n, n)), "D": entries(rng, (n, n))}
    _, (lines,) = recorded_sources(lambda: compile_run(symbols, m, n, constants, control_dim))
    assert [text for text, _ in lines if "array([" in text and "a[" not in text] == []


@pytest.mark.parametrize("source, error, message", [
    ("1/(abs(t) - 0.05)", ValueError,
     "repdyn.control[0] '1/(abs(t) - 0.05)': float division by zero at t=0.05"),
    ("(0.04 - abs(t)) ^ 0.5", SimulationError,
     "repdyn.control: complex value [(6.123233995736766e-18+0.1j)] at t=0.05")],
    ids=["raises", "complex"])
def test_a_failing_scenario_control_is_read_once_at_its_stage_time(monkeypatch, source,
                                                                   error, message):
    # The control's vector calls the counting abs once per evaluation.
    times, absolute = [], abs
    monkeypatch.setitem(tactica.expr._FUNC_NS, "_f_abs",
                        lambda x: times.append(x) or absolute(x))
    control = compile_vector([source], ("t",), path="repdyn.control")
    spec = RepDynSpec(symbols=(WeylSymbol((T(1.0, [0], 0),)),), n=2, control_dim=1,
                      presentation=AlgebraPresentation("free", 1))
    start = np.diag([1.0, 2.0])[None].astype(complex)
    with pytest.raises(error) as info:
        integrate_repdyn(spec, control, 0.0, 0.2, 0.1, start)
    assert str(info.value) == message
    assert times == [0.0, 0.05]


CONTROL_FLOATS = st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]) \
    | st.floats()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weyl_cases(), st.lists(CONTROL_FLOATS, min_size=2, max_size=2))
@example((2, 2, 2, [WeylSymbol((T(1.0 + 2j, [0, 0, 1], 1), T(-0.5, [0, 1], 0))),
                    WeylSymbol((T(2.0, [1], 1),))], 0, False), [0.3, 0.7])
@example((2, 3, 2, [WeylSymbol((T(1.0, [0, "C", 1], 1),)), WeylSymbol((T(2.0, [0], 0),))], 1,
          False), [-0.0, 1e308])
def test_the_scalars_of_a_list_of_floats_are_those_of_its_complex_array_bitwise(case, values):
    """A scenario control's list of floats gives the scalars of its complex array, bit for
    bit.  This relies on the mixed complex/float arithmetic of CPython 3.10 to 3.13, the
    versions ``requires-python`` admits: ``c * f`` is the complex product with
    ``complex(f, 0.0)``, as numpy's complex128 product is.  Python 3.14 multiplies ``f``
    into each part instead, which differs at signed zeros, infinities and NaN
    (``inf * 0.0``).  A divided scalar (``/2``, ``/6``) is numpy's division either way:
    numpy multiplies by the reciprocal where Python's complex divides."""
    m, n, control_dim, symbols, seed, _ = case
    values = values[:control_dim]
    rng = np.random.default_rng(seed)
    constants = {"C": entries(rng, (n, n)), "D": entries(rng, (n, n))}
    scalars = compile_run(symbols, m, n, constants, control_dim)[2]
    with np.errstate(all="ignore"):
        got, expected = scalars(values), scalars(np.array(values, dtype=complex))
    assert len(got) == len(expected)
    for value, want in zip(got, expected):
        assert np.array_equal(bits(np.asarray(value)), bits(np.asarray(want)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polynomial_systems(), st.lists(CONTROL_FLOATS, min_size=2, max_size=2), st.booleans())
def test_the_scalars_of_u_as_floats_are_those_of_its_complex_array_bitwise(system, values,
                                                                            lift_constants):
    # As above, for a spec whose coefficients make its control vector of u.
    rhs, control_dim, _ = system
    spec = solve_inverse_problem(rhs, x0=[0.5] * len(rhs), control_dim=control_dim,
                                 lift_constants=lift_constants).spec
    u = values[:control_dim]
    with np.errstate(all="ignore"):
        got, expected = spec.scalars(u), spec.scalars(np.array(u, dtype=complex))
    assert len(got) == len(expected)
    for value, want in zip(got, expected):
        assert np.array_equal(bits(np.asarray(value)), bits(np.asarray(want)))


def counting_numpy(monkeypatch, calls):
    """Put a numpy into ``tactica.repdyn`` whose ``asarray`` records each call in ``calls``,
    and a ``real_array`` that does the same."""
    counted = type(np)("numpy")
    counted.__getattr__ = lambda name: getattr(np, name)
    counted.asarray = lambda *args, **kwargs: calls.append("asarray") or np.asarray(*args,
                                                                                    **kwargs)
    monkeypatch.setattr(tactica.repdyn, "np", counted)
    monkeypatch.setattr(tactica.repdyn, "real_array", lambda *args: calls.append("real_array")
                        or real_array(*args))


def test_a_scenario_control_is_read_without_an_array(monkeypatch):
    # repdyn_heisenberg's control returns a list of Python floats: read as it is, with no
    # np.asarray or real_array per stage time; each sample is still a float64 array.
    plan = load_scenario(SCENARIOS / "repdyn_heisenberg.yaml").plans["repdyn"]
    calls = []
    counting_numpy(monkeypatch, calls)
    result = integrate_repdyn(plan.spec, plan.control, 0.0, 1.0, 1e-3, plan.start)
    assert calls == [] and len(result.times) == 1001
    assert all(a.dtype == np.float64 for a in result.controls)
    assert [a.tolist() for a in result.controls] == [plan.control(t) for t in result.times]


@pytest.mark.parametrize("retype", [lambda value: [value[0], int(value[1])],
                                    lambda value: [np.float64(x) for x in value]],
                         ids=["int-entry", "float64-entries"])
def test_a_control_of_other_numbers_takes_the_checked_path_to_the_same_run(monkeypatch,
                                                                           retype):
    plan = load_scenario(SCENARIOS / "repdyn_heisenberg.yaml").plans["repdyn"]
    control = compile_vector(["0.1*sin(t)", "1.0"], ("t",), path="repdyn.control")
    reads = []

    class Retyped(VectorExpression):
        def __call__(self, t):
            reads.append(t)
            return retype(super().__call__(t))

    lists = integrate_repdyn(plan.spec, control, 0.0, 0.5, 1e-3, plan.start)
    calls = []
    counting_numpy(monkeypatch, calls)
    retyped = Retyped(control.sources, control.arguments, control.path)
    checked = integrate_repdyn(plan.spec, retyped, 0.0, 0.5, 1e-3, plan.start)
    assert len(reads) > 1000 and calls == ["asarray", "real_array"] * len(reads)
    assert np.array_equal(bits(checked.states), bits(lists.states))
    assert np.array_equal(checked.residuals, lists.residuals)
    assert all(a.dtype == b.dtype == np.float64 and np.array_equal(a, b)
               for a, b in zip(checked.controls, lists.controls, strict=True))
