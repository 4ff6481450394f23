import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tactica.algebra
import tactica.repdyn
from tactica.algebra import (AlgebraClassRegistry, AlgebraPresentation, MatrixTuple,
                             WeylSymbol, WeylTerm, commutative_presentation,
                             compile_symbols, default_registry, equivalence_partition,
                             heisenberg_presentation, parse_relation, poly_eval,
                             relation_values, weyl_eval_tuple)
from conftest import weyl_value
from tactica.expr import NCPoly
from tactica.games import ConfigurationError, SimulationError, rk4_step
from tactica.repdyn import (ClassDynamics, InsolvableSignal, RepDynSpec, StrandedClassError,
                            TacticalRepDyn, _apply_transition, _parse_polynomial_rhs,
                            _relation_jacobian, check_start, integrate_repdyn,
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


HEISENBERG_TUPLE = MatrixTuple((E(1, 2), E(2, 3), E(1, 3)))


# ---------------------------------------------------------------------------
# Weyl evaluation
# ---------------------------------------------------------------------------

def test_degree_one_symbol_returns_slot():
    X = MatrixTuple((E(1, 2, 2), E(2, 1, 2)))
    sym = WeylSymbol((WeylTerm(1.0, (0,)),))
    assert np.array_equal(weyl_value(sym, X), X.matrices[0])


def test_weyl_x1x2_on_elementary_pair():
    X = MatrixTuple((E(1, 2, 2), E(2, 1, 2)))
    sym = WeylSymbol((WeylTerm(1.0, (0, 1)),))
    # Explicit 2x2 oracle: (E12@E21 + E21@E12)/2 = I/2.
    oracle = (E(1, 2, 2) @ E(2, 1, 2) + E(2, 1, 2) @ E(1, 2, 2)) / 2.0
    value = weyl_value(sym, X)
    assert np.array_equal(value, oracle)
    assert np.allclose(value, np.eye(2) / 2.0, atol=0)


def test_weyl_on_commuting_diagonals_is_pointwise():
    X = MatrixTuple((np.diag([1.0, 2.0]).astype(complex),
                     np.diag([3.0, 4.0]).astype(complex)))
    sym = WeylSymbol((WeylTerm(1.0, (0, 0, 1)),))
    # Pointwise oracle: x1^2 * x2 on each diagonal entry.
    assert np.allclose(weyl_value(sym, X), np.diag([3.0, 16.0]), atol=1e-15)


def test_weyl_permutation_invariance_is_exact():
    rng = np.random.default_rng(11)
    X = MatrixTuple(tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                          for _ in range(3)))
    base = weyl_value(WeylSymbol((WeylTerm(1.3 - 0.2j, (0, 1, 2)),)), X)
    for word in [(1, 0, 2), (2, 1, 0), (0, 2, 1), (2, 0, 1), (1, 2, 0)]:
        other = weyl_value(WeylSymbol((WeylTerm(1.3 - 0.2j, word),)), X)
        assert np.array_equal(base, other)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=3), st.integers(0, 2 ** 31 - 1))
def test_weyl_permutation_invariance_property(word, seed):
    rng = np.random.default_rng(seed)
    X = MatrixTuple(tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                          for _ in range(3)))
    base = weyl_value(WeylSymbol((WeylTerm(1.0, tuple(word)),)), X)
    permuted = tuple(rng.permutation(word).tolist())
    other = weyl_value(WeylSymbol((WeylTerm(1.0, permuted),)), X)
    assert np.array_equal(base, other)


def test_weyl_commutative_collapse_on_diagonals():
    rng = np.random.default_rng(5)
    X = MatrixTuple(tuple(np.diag(rng.normal(size=4)).astype(complex) for _ in range(3)))
    sym = WeylSymbol((WeylTerm(0.7, (0, 1, 2)), WeylTerm(-0.2, (2, 2)),
                      WeylTerm(1.1, (1,))))
    diag = [np.diag(m).real for m in X.matrices]
    expected = np.diag(0.7 * diag[0] * diag[1] * diag[2] - 0.2 * diag[2] ** 2
                       + 1.1 * diag[1])
    assert np.max(np.abs(weyl_value(sym, X) - expected)) < 1e-12


def test_weyl_constant_letters_and_controls():
    X = MatrixTuple((np.eye(2, dtype=complex),))
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
    plan = compile_symbols(symbols, m, n, constants, control_dim)
    with np.errstate(all="ignore"):
        got = weyl_eval_tuple(plan, stacked, a)
        expected = np.stack([weyl_reference(sym.terms, stacked, constants, a, n)
                             for sym in symbols])
    assert np.array_equal(nan_bits(got), nan_bits(expected))
    if not special:
        assert np.array_equal(bits(got), bits(expected))


def test_compile_rejects_unknown_slot_constant_and_control():
    X = MatrixTuple((np.eye(2, dtype=complex),))
    with pytest.raises(ConfigurationError, match="slot 2, tuple has 1"):
        compile_symbols((WeylSymbol((WeylTerm(1.0, (1,)),)),), 1, 2)
    with pytest.raises(ConfigurationError, match="unknown constant 'C'"):
        compile_symbols((WeylSymbol((WeylTerm(1.0, ("C",)),)),), 1, 2, {"D": X.matrices[0]})
    with pytest.raises(ConfigurationError, match="control component 1, control dimension is 1"):
        compile_symbols((WeylSymbol((WeylTerm(1.0, (0,), control=1),)),), 1, 2, None, 1)


def test_symbol_degree_cap():
    with pytest.raises(ConfigurationError):
        WeylTerm(1.0, (0, 0, 0, 0))


# ---------------------------------------------------------------------------
# Presentations and residuals
# ---------------------------------------------------------------------------

def test_heisenberg_triple_is_exact_representation():
    residual = relation_values(heisenberg_presentation(), HEISENBERG_TUPLE.stacked())[1]
    assert residual == 0.0
    assert residual <= 1e-12


def test_perturbed_triple_has_expected_residual():
    perturbed = MatrixTuple((E(1, 2), E(2, 3), E(1, 3) + 0.1 * E(1, 2)))
    # [X1,X2] - X3 = -0.1 E12, Frobenius norm 0.1.
    residual = relation_values(heisenberg_presentation(), perturbed.stacked())[1]
    assert residual == pytest.approx(0.1)
    assert not residual <= 1e-3


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_entry_has_nan_residual(value):
    stacked = HEISENBERG_TUPLE.stacked()
    stacked[2, 1, 0] = value
    with np.errstate(invalid="ignore"):
        assert math.isnan(relation_values(heisenberg_presentation(), stacked)[1])


def test_empty_presentation_is_vacuous():
    pres = AlgebraPresentation(label="free", generators=2)
    X = MatrixTuple((E(1, 2), E(2, 1)))
    residual = relation_values(pres, X.stacked())[1]
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
    result = integrate_repdyn(spec, None, 0.0, 1.0, 0.01, HEISENBERG_TUPLE.stacked())
    assert result.insolvable is None
    assert np.array_equal(result.final.matrices[0], HEISENBERG_TUPLE.matrices[0])
    assert np.all(result.residuals == result.residuals[0])


def test_commutative_diagonal_slots_follow_scalar_logistic():
    diag0 = np.array([0.1, 0.25, 0.5])
    X0 = MatrixTuple((np.diag(diag0).astype(complex),))
    sym = WeylSymbol((WeylTerm(1.0, (0,), control=0), WeylTerm(-1.0, (0, 0), control=0)))
    spec = RepDynSpec(symbols=(sym,), n=3,
                      presentation=commutative_presentation(1), control_dim=1)
    result = integrate_repdyn(spec, lambda t: [1.0], 0.0, 3.0, 1e-3, X0.stacked())
    assert result.insolvable is None
    # Fine-step scalar oracle per diagonal slot.
    for slot in range(3):
        _, ref = integrate_scalar_reference(["u1*(x1 - x1*x1)"], [diag0[slot]],
                                            lambda t: [1.0], 0.0, 3.0, 1e-4)
        slot_trace = result.final.matrices[0][slot, slot].real
        assert abs(slot_trace - ref[-1, 0]) < 1e-7


def test_heisenberg_scaling_flow_conserves_relations():
    symbols = (WeylSymbol((WeylTerm(1.0, (0,), control=0),)),
               WeylSymbol((WeylTerm(1.0, (1,), control=1),)),
               WeylSymbol((WeylTerm(1.0, (2,), control=0),
                           WeylTerm(1.0, (2,), control=1))))
    spec = RepDynSpec(symbols=symbols, n=3,
                      presentation=heisenberg_presentation(), control_dim=2)
    control = lambda t: np.array([0.1 * math.sin(t), 0.05 * math.cos(t)])  # noqa: E731
    result = integrate_repdyn(spec, control, 0.0, 2.0, 1e-3, HEISENBERG_TUPLE.stacked())
    assert result.insolvable is None
    assert np.max(result.residuals) < 1e-8


def test_projection_contract_residuals_bounded():
    # A mildly non-tangent drift: projection must keep every recorded
    # residual at tolerance as long as no signal is raised.
    symbols = (WeylSymbol((WeylTerm(0.05, ("D",)),)),
               WeylSymbol((WeylTerm(1.0, (1,), control=0),)))
    X0 = MatrixTuple((np.diag([1.0, 2.0]).astype(complex),
                      np.diag([0.5, 1.5]).astype(complex)))
    spec = RepDynSpec(symbols=symbols, n=2,
                      presentation=commutative_presentation(2),
                      constants={"D": np.array([[0.0, 1.0], [0.0, 0.0]])},
                      control_dim=1, tolerance=1e-9, insolvable_threshold=1e-3)
    result = integrate_repdyn(spec, lambda t: [0.02], 0.0, 1.0, 1e-2, X0.stacked())
    assert result.insolvable is None
    assert np.max(result.residuals) <= 1e-9


def test_initial_violation_rejected():
    bad = MatrixTuple((E(1, 2), E(2, 3), E(1, 3) + 0.5 * E(1, 2)))
    with pytest.raises(ConfigurationError, match="initial tuple violates"):
        check_start(RepDynSpec(symbols=(WeylSymbol(()),) * 3, n=3,
                               presentation=heisenberg_presentation()), bad.stacked())


def test_projection_pulls_perturbed_tuple_back():
    perturbed = MatrixTuple((E(1, 2), E(2, 3), E(1, 3) + 1e-3 * E(1, 2)))
    projected, residual, converged = project_to_variety(
        heisenberg_presentation(), perturbed.stacked(), tolerance=1e-9)
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


def test_integrate_evaluates_the_control_once_per_stage_time():
    times = []

    def control(t):
        times.append(t)
        return [math.sin(3 * t), 0.5 - t]

    symbols = (WeylSymbol((T(0.5, [0], 0), T(-0.25j, [0, 1], 1))),
               WeylSymbol((T(1.0, [1, 1, 0], 0), T(0.1, []))))
    spec = RepDynSpec(symbols=symbols, presentation=AlgebraPresentation("free", 2), n=2,
                      control_dim=2)
    start = 0.1 * entries(np.random.default_rng(3), (2, 2, 2))
    result = integrate_repdyn(spec, control, 0.0, 0.3, 0.01, start)
    assert len(result.times) == 31 and len(times) <= 3 * 30
    assert all(t != u for t, u in zip(times, times[1:]))

    def rhs(t, stacked):    # a fresh control vector at every stage
        return weyl_eval_tuple(spec.plan, stacked, np.asarray(control(t), dtype=complex))

    stacked = start
    for k, state in enumerate(result.states[1:]):
        stacked = rk4_step(rhs, 0.0 + k * 0.01, stacked, 0.01, rhs(0.0 + k * 0.01, stacked))
        assert np.array_equal(bits(state), bits(stacked))


def test_a_projecting_step_evaluates_the_relations_twice(monkeypatch):
    # A constant drift moves X1 off the Heisenberg variety; one Gauss-Newton
    # iteration brings the step back.  The projection reuses the raw check's values.
    spec = RepDynSpec(symbols=(WeylSymbol((WeylTerm(0.05, ("D",)),)),) + (WeylSymbol(()),) * 2,
                      n=3, presentation=heisenberg_presentation(), constants={"D": E(2, 1)},
                      insolvable_threshold=1e-1)
    counts = count_relation_work(monkeypatch)
    result = integrate_repdyn(spec, None, 0.0, 0.01, 0.01, HEISENBERG_TUPLE.stacked())
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
    X = MatrixTuple((E(1, 2, 2), E(2, 1, 2)))
    _, residual, converged = project_to_variety(pres, X.stacked(), tolerance=1e-9, cap=50)
    assert not converged
    assert residual > 1e-3


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
    schedule = construction.control_schedule(lambda t: [0.7])
    result = integrate_repdyn(construction.spec, schedule, 0.0, 2.0, 1e-3, construction.start)
    slot = result.final.matrices[0][0, 0].real
    assert abs(slot - math.exp(0.7 * 2.0)) < 1e-9


def test_inverse_logistic_matches_direct_integration():
    construction = solve_inverse_problem(["u1*(x1 - x1*x1)"], x0=[0.1],
                                         control_dim=1, matrix_dim=2)
    schedule = construction.control_schedule(lambda t: [1.0])
    result = integrate_repdyn(construction.spec, schedule, 0.0, 5.0, 1e-3, construction.start)
    _, ref = integrate_scalar_reference(["u1*(x1 - x1*x1)"], [0.1],
                                        lambda t: [1.0], 0.0, 5.0, 1e-3)
    slots = np.array([T.matrices[0][0, 0].real for T in result.tuples])
    assert np.max(np.abs(slots - ref[:, 0])) < 1e-9


def test_inverse_constant_lift():
    construction = solve_inverse_problem(["0.5 + u1*x1"], x0=[1.0], control_dim=1,
                                         matrix_dim=2, lift_constants=True)
    assert "C0" in construction.spec.constants
    assert np.array_equal(construction.spec.constants["C0"],
                          0.5 * np.eye(2, dtype=complex))
    schedule = construction.control_schedule(lambda t: [0.3])
    result = integrate_repdyn(construction.spec, schedule, 0.0, 2.0, 1e-3, construction.start)
    _, ref = integrate_scalar_reference(["0.5 + u1*x1"], [1.0], lambda t: [0.3],
                                        0.0, 2.0, 1e-3)
    slots = np.array([T.matrices[0][0, 0].real for T in result.tuples])
    assert np.max(np.abs(slots - ref[:, 0])) < 1e-9


def test_inverse_parallel_initial_data():
    construction = solve_inverse_problem(
        ["u1*(x1 - x1*x1)"], x0=[0.1], control_dim=1, matrix_dim=3,
        parallel_initial=[[0.1, 0.3, 0.6]])
    schedule = construction.control_schedule(lambda t: [1.0])
    result = integrate_repdyn(construction.spec, schedule, 0.0, 1.0, 1e-3, construction.start)
    for slot, x0 in enumerate([0.1, 0.3, 0.6]):
        _, ref = integrate_scalar_reference(["u1*(x1 - x1*x1)"], [x0],
                                            lambda t: [1.0], 0.0, 1.0, 1e-3)
        assert abs(result.final.matrices[0][slot, slot].real - ref[-1, 0]) < 1e-9


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
def test_compiled_coefficient_map_equals_the_loop_bitwise(system, lift_constants):
    rhs, control_dim, u = system
    construction = solve_inverse_problem(rhs, x0=[0.5] * len(rhs), control_dim=control_dim,
                                         lift_constants=lift_constants)
    assert construction.symbolic_match
    expected = loop_coefficients(rhs, control_dim, u, lift_constants)
    assert np.array_equal(bits(construction.coefficient_map(u)), bits(expected))
    assert np.array_equal(bits(construction.coefficient_map(np.array(u))), bits(expected))


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
    schedule = construction.control_schedule(lambda t: [1.0])
    result = integrate_repdyn(construction.spec, schedule, 0.0, 2.0, 1e-3, construction.start)
    _, ref = integrate_scalar_reference(rhs, [1.0, 0.0], lambda t: [1.0],
                                        0.0, 2.0, 1e-3)
    for i in range(2):
        assert abs(result.final.matrices[i][0, 0].real - ref[-1, i]) < 1e-9


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

    monkeypatch.setattr(tactica.repdyn, "compile_symbols", fail)
    monkeypatch.setattr(AlgebraClassRegistry, "presentation", fail)
    result = run_tactical_repdyn(plan.tactical, plan.windows, scenario.run.dt)
    assert [(e.from_class, e.to_class) for e in result.transitions] == \
        [("commutative", "heisenberg")]
