import copy
import functools
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from tactica.scenario import ScenarioError, load_scenario
from tactica.tactics import SynthesisRule

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
schema: 1
title: minimal
run: {t0: 0.0, t1: 1.0, dt: 0.01}
system:
  dim: 1
  initial: [0.0]
  dynamics: ["0.0"]
  players:
    - signal: ["0.0"]
      coupling: ["u0[0]"]
"""


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


def test_minimal_scenario_loads(tmp_path):
    scenario = load_scenario(write(tmp_path, MINIMAL))
    assert scenario.title == "minimal"
    assert scenario.run.dt == 0.01
    assert scenario.supports("simulate")
    assert not scenario.supports("verbalize")
    system, initial, slow = scenario.build_system()
    assert system.dim == 1
    assert slow is None


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(ScenarioError, match="does not exist"):
        load_scenario(tmp_path / "absent.yaml")


@pytest.fixture(params=[pytest.param("libyaml", marks=pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML is built without libyaml")), "pure"])
def loader(request, monkeypatch):
    """The parser load_scenario uses: libyaml, or the pure-Python one when PyYAML has no
    ``CSafeLoader``."""
    if request.param == "pure":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return request.param


# Both parsers put these faults at the same line and column, though their wording differs
# and only the pure-Python one quotes the source.
@pytest.mark.parametrize("text, position, problem", [
    ("run: {t0: 0.0\n  t1: 1.0\n", "line 2, column 5", "while parsing a flow mapping"),
    ("title: a: b\n", "line 1, column 9", "mapping values are not allowed"),
    ("system:\n  dim: 1\n dynamics: [x]\n", "line 3, column 2",
     "while parsing a block mapping"),
    ("system:\n\tdim: 1\n", "line 2, column 1", "that cannot start any token"),
    ('title: "abc\n', "line 2, column 1", "while scanning a quoted scalar"),
    ("title: a\n---\ntitle: b\n", "line 2, column 1",
     "expected a single document in the stream"),
], ids=["unclosed-flow", "mapping-in-scalar", "indent", "tab", "unclosed-quote", "two-documents"])
def test_parse_error_carries_line_and_column(tmp_path, loader, text, position, problem):
    path = write(tmp_path, text)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    message, = err.value.errors
    assert message.startswith(f"{path}: parse error: {position}: ")
    assert problem in message
    assert ("^" in message) == (loader == "pure")    # only the pure parser quotes the source


# Texts only one parser reads: libyaml takes a tab after a comma in a flow collection, and
# rejects an unknown directive that the pure-Python parser skips.
@pytest.mark.parametrize("text, rejected", [
    (MINIMAL.replace("t0: 0.0, t1", "t0: 0.0,\tt1"), {"pure": "line 4, column 15"}),
    ("%FOO bar\n---" + MINIMAL, {"libyaml": "line 1, column 5"}),
], ids=["tab-after-flow-comma", "unknown-directive"])
def test_the_loaders_differ_on_a_flow_tab_and_an_unknown_directive(tmp_path, capsys, loader,
                                                                     text, rejected):
    from tactica.cli import EXIT_OK, EXIT_VALIDATION, main
    path = write(tmp_path, text)
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if loader in rejected:
        assert code == EXIT_VALIDATION
        assert err.startswith(f"validation: {path}: parse error: {rejected[loader]}: ")
    else:
        assert code == EXIT_OK and err == ""


def test_unresolved_class_label_is_named(tmp_path):
    path = write(tmp_path, """
    schema: 1
    run: {t0: 0.0, t1: 1.0, dt: 0.01}
    repdyn:
      mode: integrate
      class: hyperbolic
      tuple: [[[1.0]]]
      symbols: [[{coeff: 1.0, word: [x1]}]]
    """)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert len(err.value.errors) == 1
    assert "hyperbolic" in err.value.errors[0]


def test_three_independent_errors_reported_together(tmp_path):
    path = write(tmp_path, """
    schema: 1
    run: {t0: 0.0, t1: 1.0, dt: 0.01}
    system:
      dim: 1
      initial: [0.0, 1.0]
      dynamics: ["q[0]"]
      players:
        - signal: ["sin(t,t)"]
          coupling: ["u0[0]"]
    """)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    text = "\n".join(err.value.errors)
    assert len(err.value.errors) == 3
    assert "initial" in text          # wrong dimension
    assert "q" in text                # unknown variable
    assert "sin" in text              # wrong arity


def test_expression_error_names_offending_token(tmp_path):
    path = write(tmp_path, """
    schema: 1
    run: {t0: 0.0, t1: 1.0, dt: 0.01}
    system:
      dim: 1
      initial: [0.0]
      dynamics: ["phi[0] $ 2"]
      players:
        - signal: ["0.0"]
          coupling: ["u0[0]"]
    """)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "$" in err.value.errors[0]


def test_schema_version_is_checked(tmp_path):
    path = write(tmp_path, MINIMAL.replace("schema: 1", "schema: 2"))
    with pytest.raises(ScenarioError, match="schema"):
        load_scenario(path)


def test_coupling_referencing_undeclared_eps_rejected(tmp_path):
    path = write(tmp_path, """
    schema: 1
    run: {t0: 0.0, t1: 1.0, dt: 0.01}
    system:
      dim: 1
      initial: [0.0]
      dynamics: ["u[0]"]
      players:
        - signal: ["0.0"]
          coupling: ["u0[0] + eps[0]"]
    """)
    with pytest.raises(ScenarioError, match="eps"):
        load_scenario(path)


def test_synthesis_mask_violation_detected(tmp_path):
    path = write(tmp_path, """
    schema: 1
    run: {t0: 0.0, t1: 2.0, dt: 0.1}
    system:
      dim: 1
      initial: [0.0]
      dynamics: ["0.0"]
      players:
        - signal: ["0.0"]
          coupling: ["u0[0]"]
    verbalization:
      windows: [0.0, 1.0, 2.0]
      omega: [{kind: mean, source: state}]
      v: [{kind: mean, source: u0}]
    tactics:
      mode: synthesis
      games:
        - theta0: [1.0]
          mask: [1]
          form: ["theta2[0]"]
        - theta0: [1.0]
          mask: [2]
          form: ["theta2[0]"]
    """)
    with pytest.raises(ScenarioError, match="mask"):
        load_scenario(path)


def test_cell_coverage_gap_detected(tmp_path):
    path = write(tmp_path, """
    schema: 1
    run: {t0: 0.0, t1: 1.0, dt: 0.01}
    system:
      dim: 1
      initial: [0.0]
      dynamics: ["0.0"]
      players:
        - signal: ["0.0"]
          coupling: ["u0[0]"]
          epsilon:
            truth: ["sin(t)"]
            box: [[-2.0, 2.0]]
    verbalization:
      windows: [0.0, 1.0]
      omega: [{kind: mean, source: eps}]
      v: [{kind: mean, source: u0}]
      cells:
        dim: 1
        box: [[-2.0, 2.0]]
        cells:
          - label: negative
            conditions: [{expr: "eps[0]", op: "<"}]
          - label: positive
            conditions: [{expr: "eps[0]", op: ">"}]
    """)
    with pytest.raises(ScenarioError, match="0 cells"):
        load_scenario(path)


def test_all_shipped_scenarios_validate():
    for path in sorted(SCENARIOS.glob("*.yaml")):
        scenario = load_scenario(path)
        assert scenario.supported_commands(), path.name


@pytest.mark.parametrize("name, mode, games", [
    ("tactics_commented.yaml", "commented", 1),
    ("tactics_coupled.yaml", "interaction", 2),
    ("tactics_synthesis.yaml", "synthesis", 2),
])
def test_every_tactics_mode_compiles_to_a_synthesis_rule(name, mode, games):
    plan = load_scenario(SCENARIOS / name).tactics_plan()
    assert plan.mode == mode
    assert isinstance(plan.rule, SynthesisRule)
    assert len(plan.rule.forms) == len(plan.rule.masks) == len(plan.games) == games


COMMENTED_PAIR = """
verbalization:
  windows: [0.0, 0.5, 1.0]
  omega: [{kind: mean, source: state}]
  v: [{kind: mean, source: u0}]
tactics:
  theta0: [1.0, 2.0]
  rule: ["theta[0]", "theta[1]"]
"""


@pytest.mark.parametrize("dynamics, slow, supported", [
    ("lambda[1]", "", False), ("0.0", "", True),
    ("lambda[1]", 'slow: {schedule: ["0.5"]}', False),
    ("lambda[1]", 'slow: {schedule: ["0.5", "1"]}', True),
    ("lambda[1]", "slow: {steps: [[0, [1.0]], [5, [3.0]]]}", False),
    ("lambda[1]", "slow: {steps: [[0, [1.0, 2.0]], [5, [3.0, 4.0]]]}", True),
], ids=["none", "none-unread", "schedule-short", "schedule", "steps-short", "steps"])
def test_only_tactics_runs_a_system_whose_slow_schedule_misses_lambda(tmp_path, dynamics, slow,
                                                                      supported):
    # lambda gets its width, 2, from the comment.
    scenario = load_scenario(write(tmp_path, MINIMAL.replace(
        'dynamics: ["0.0"]', f'dynamics: ["{dynamics}"]\n  {slow}') + COMMENTED_PAIR))
    assert scenario.supports("simulate") is supported
    assert (scenario.plans["system"].slow_gap == "") is supported


def test_slow_steps_imply_their_lambda_dimension(tmp_path):
    scenario = load_scenario(write(tmp_path, MINIMAL.replace(
        'dynamics: ["0.0"]',
        'dynamics: ["lambda[0] - phi[0]"]\n  slow: {steps: [[0, [1.0]], [50, [2.0]]]}')))
    assert scenario.supports("simulate")
    lam = scenario.simulate().lam
    assert lam.shape == (101, 1)
    assert set(lam[:50, 0]) == {1.0} and set(lam[50:, 0]) == {2.0}


@pytest.mark.parametrize("slow, fault", [
    ("{steps: [[0, [1.0]], [50, [2.0, 3.0]]]}",
     "system.slow.steps: every step needs the same number of values, got [1, 2]"),
    ("3", "system.slow: needs either a schedule or steps [[index, [values]], ...]"),
    ("{schedule: 5}", "system.slow.schedule: expected a nonempty list of expression strings"),
], ids=["unequal-steps", "scalar", "scalar-schedule"])
def test_unequal_slow_steps_are_the_only_fault_reported(tmp_path, capsys, slow, fault):
    from tactica.cli import EXIT_VALIDATION, main
    path = write(tmp_path, MINIMAL.replace(
        'dynamics: ["0.0"]', f'dynamics: ["lambda[0] - phi[0]"]\n  slow: {slow}'))
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("validation:")]
    assert code == EXIT_VALIDATION
    assert lines == [f"validation: scenario.yaml: {fault}"]


@pytest.mark.parametrize("slow, fault", [
    ("{steps: [[0, [1.0]], [50, [2.0, 3.0]]]}",
     "system.slow.steps: every step needs the same number of values, got [1, 2]"),
    ("3", "system.slow: needs either a schedule or steps [[index, [values]], ...]"),
], ids=["unequal-steps", "scalar"])
def test_a_malformed_slow_bounds_no_lambda_index(tmp_path, slow, fault):
    path = write(tmp_path, MINIMAL.replace(
        'dynamics: ["0.0"]', f'dynamics: ["lambda[3] - phi[0]"]\n  slow: {slow}').replace(
        'coupling: ["u0[0]"]', 'coupling: ["u0[0] + lambda[5]"]'))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.errors == [f"scenario.yaml: {fault}"]


def test_each_expression_source_is_validated_once(monkeypatch):
    from tactica import expr
    sources = []
    validate = expr.validate
    monkeypatch.setattr(expr, "validate", lambda src, *args: sources.append(src) or validate(
        src, *args))
    load_scenario(SCENARIOS / "two_player.yaml")
    # Two dynamics, and a signal, a coupling and a hidden-parameter truth per player.
    assert sorted(sources) == sorted(["u[0] - 0.5*phi[0]", "u[1] - 0.2*phi[1]", "0.2*cos(t)",
                                      "u0[0] + eps[0]*phi[0]", "-0.4 + 0.1*phi[1]", "0.1",
                                      "u0[0] + eps[0]*phi[1]", "0.2*u0[0] - 0.3"])


def test_slow_control_feeds_couplings(tmp_path):
    path = write(tmp_path, """
    schema: 1
    run: {t0: 0.0, t1: 1.0, dt: 0.01}
    system:
      dim: 1
      initial: [0.0]
      dynamics: ["u[0]"]
      slow: {schedule: ["0.5"]}
      players:
        - signal: ["1.0"]
          coupling: ["u0[0] + lambda[0]"]
    """)
    scenario = load_scenario(path)
    system, initial, slow = scenario.build_system()
    from tactica.games import simulate
    traj = simulate(system, initial, 0.0, 1.0, 0.01, slow=slow)
    assert abs(traj.phi[-1, 0] - 1.5) < 1e-12
    assert traj.lam.shape[1] == 1


def test_pipeline_with_coalitions_rejected_at_coalitions(tmp_path):
    text = (SCENARIOS / "coalition_pair.yaml").read_text() + """
prediction:
  pipeline: {horizon: 0.1, assumed_eps: [["0.0"], ["0.0"], ["0.0"]]}
"""
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, text))
    assert err.value.errors == ["scenario.yaml: system.coalitions: coalitions cannot be "
                                "combined with a prediction section, which integrates "
                                "player slots"]


WINDOWED = MINIMAL + """
verbalization:
  windows: [0.0, 0.505, 1.0]
  omega: [{kind: mean, source: state}]
  v: [{kind: mean, source: u0}]
"""

INVERT = """
schema: 1
title: inverse
run: {{t0: 0.0, t1: 1.0, dt: 0.01}}
invert:
  rhs: ["{rhs}"]
  x0: [0.1]
  control: ["1.0"]
"""


REPDYN = """
schema: 1
title: tuple
run: {{t0: 0.0, t1: 1.0, dt: 0.01}}
repdyn:
  class: commutative
  tuple: {tuple}
  symbols: [[], []]
"""


# MINIMAL with a two-component hidden parameter.
EPSILON = MINIMAL.replace('coupling: ["u0[0]"]',
                          'coupling: ["u0[0]"]\n      epsilon: {truth: ["0.1", "0.2"]}')


@pytest.mark.parametrize("text, argv, message", [
    (MINIMAL + "  coalitions: [5]\n", [], "system.coalitions[0]: expected a mapping"),
    (MINIMAL + "  slow: 3\n", [], "system.slow: needs either a schedule or steps"),
    (MINIMAL.replace("dt: 0.01", "dt: 0.3"), [],
     "run.dt: t1 - t0 = 1.0 is not a whole number of steps of dt 0.3"),
    (WINDOWED, [], "verbalization.windows: window points [0.505] are not samples of the "
                   "run at dt 0.01"),
    ((SCENARIOS / "linear_decay.yaml").read_text(), ["--dt", "0.3"],
     "run.dt: t1 - t0 = 1.0 is not a whole number of steps of dt 0.3"),
    (MINIMAL + "prediction:\n  filter: {kind: lowpass, cutoff: 1.0}\n"
               "  family: [\"u0[200]\"]\n", [],
     "prediction.family[0]: index 200 out of range for 'u0' (dimension 1)"),
    (INVERT.format(rhs="sin(x1)"), [],
     "invert.rhs[0]: function 'sin' not allowed in polynomial context"),
    (INVERT.format(rhs="u1*x1^4"), [],
     "invert.rhs[0]: rhs 'u1*x1^4' has degree 4 in the state; cap is 3"),
    (MINIMAL + "verbalization:\n  windows: [0.0, 1.0]\n  omega: [{kind: mean, source: state}]\n"
               "  v: [{kind: mean, source: u0}]\n"
               "  recurrence: {family: declared, expression: [\"omega[0]\"]}\n", [],
     "verbalization.recurrence: a declared recurrence is verified between consecutive "
     "windows; the window grid has only one"),
    (INVERT.format(rhs="u1*x1") + "  matrix_dim: 2\n  designated_slot: 2\n", [],
     "invert.designated_slot: slot 2 is outside the matrix dimension 2"),
    (INVERT.format(rhs="u1*x1") + "  matrix_dim: 7\n", [],
     "invert.matrix_dim: matrix dimension 7 exceeds the desk-scale cap 6"),
    (MINIMAL + "prediction:\n  pipeline: {horizon: 0.1, assumed_eps: [[\"0.5\"]]}\n", [],
     "prediction.pipeline.assumed_eps[0]: expected 0 expressions, one per component of the "
     "slot's hidden parameter"),
    (EPSILON + "prediction:\n  pipeline: {horizon: 0.1, assumed_eps: [[\"0.5\"]]}\n", [],
     "prediction.pipeline.assumed_eps[0]: expected 2 expressions, one per component of the "
     "slot's hidden parameter"),
    (EPSILON + "prediction:\n  pipeline: {horizon: 0.1, assumed_eps: [[\"t\", \"t\", \"t\"]]}\n",
     [], "prediction.pipeline.assumed_eps[0]: expected 2 expressions"),
    (EPSILON + "verbalization:\n  windows: [0.0, 1.0]\n  omega: [{kind: mean, source: state}]\n"
               "  v: [{kind: mean, source: u0}]\n"
               "  cells: {dim: 3, box: [[-1, 1], [-1, 1], [-1, 1]], cells: [{label: all}]}\n",
     [], "verbalization.cells.dim: 3 exceeds the hidden-parameter width 2"),
    ((SCENARIOS / "sine_partition.yaml").read_text().replace(
        'expr: "eps[0]", op: "<"', 'expr: "sin(eps[0]*1e308*10)", op: "<"'), [],
     "verbalization.cells: math domain error"),
    ((SCENARIOS / "sine_partition.yaml").read_text().replace(
        "    box: [[-2.0, 2.0]]\n    cells:", "    box: [[2.0, -2.0]]\n    cells:"), [],
     "verbalization.cells: admissible box axis 0 is reversed: 2.0 > -2.0"),
    (INVERT.format(rhs='u1*x1", "x2", "x3", "x4", "x5').replace("[0.1]", "[0.1, 0, 0, 0, 0]"),
     [],
     "invert.rhs: 5 state components exceed the generator cap 4, one generator per component"),
    (MINIMAL + "prediction:\n  filter: {kind: lowpass, cutoff: 200}\n", ["--dt", "0.02"],
     "prediction.filter.cutoff: cutoff 200.0 above the Nyquist rate 157.07963267948966 at "
     "dt 0.02"),
    (REPDYN.format(tuple="[[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]"), [],
     "repdyn.tuple: matrix 1 has shape (3, 3), expected (2, 2)"),
    (REPDYN.format(tuple=[[[int(i == j) for j in range(7)] for i in range(7)]]), [],
     "repdyn.tuple: matrix dimension 7 exceeds the desk-scale cap 6"),
    # A quoted "false" is a string, not the boolean, and would lift the constant.
    (INVERT.format(rhs="0.5 + x1") + '  lift_constants: "false"\n', [],
     "invert.lift_constants: expected true or false, got 'false'"),
    # YAML reads these keys as numbers, which ``repdyn.class: 5`` would never find.
    (REPDYN.format(tuple="[[[1, 0], [0, 1]], [[1, 0], [0, 1]]]").replace(
        "class: commutative", "class: 5\n  classes: {5: {generators: 2, relations: []}}"), [],
     "repdyn.classes.5: expected a string label, got 5"),
    ((SCENARIOS / "repdyn_transition.yaml").read_text().replace(
        "    heisenberg:\n      symbols:", "    5:\n      symbols:"), [],
     "repdyn.class_dynamics.5: expected a string label, got 5"),
], ids=["coalition-not-mapping", "slow-not-mapping", "dt-off-interval", "window-off-grid",
        "dt-override-off-interval", "family-index-out-of-range", "invert-rhs-not-polynomial",
        "invert-rhs-degree-above-cap", "declared-recurrence-one-window",
        "invert-slot-outside-matrix", "invert-matrix-dim-above-cap",
        "assumed-eps-without-epsilon", "assumed-eps-narrower", "assumed-eps-wider",
        "cells-wider-than-eps", "cell-condition-domain", "cells-box-reversed",
        "invert-rhs-above-generator-cap",
        "lowpass-cutoff-above-nyquist", "repdyn-tuple-mixed-sizes",
        "repdyn-tuple-above-dimension-cap", "invert-lift-constants-not-boolean",
        "repdyn-class-label-number", "repdyn-class-dynamics-label-number"])
def test_malformed_inputs_exit_1_naming_the_path(tmp_path, capsys, text, argv, message):
    from tactica.cli import EXIT_VALIDATION, main
    path = write(tmp_path, text)
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")] + argv)
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert f"validation: scenario.yaml: {message}" in err
    assert "Traceback" not in err


def test_a_player_without_epsilon_assumes_none(tmp_path):
    from tactica.cli import EXIT_OK, main
    path = write(tmp_path, """
    schema: 1
    run: {t0: 0.0, t1: 1.0, dt: 0.01}
    system:
      dim: 1
      initial: [0.0]
      dynamics: ["u[0] + u[1] - phi[0]"]
      players:
        - signal: ["0.3"]
          coupling: ["u0[0]"]
        - signal: ["0.0"]
          coupling: ["u0[0] + eps[0]*eps[1]"]
          epsilon: {truth: ["0.1", "0.2"]}
    prediction:
      pipeline: {horizon: 0.1, assumed_eps: [[], ["0.1", "t"]]}
    """)
    plan = load_scenario(path).prediction_plan()
    assert [vec.dim for vec in plan.assumed_eps] == [0, 2]
    assert main(["predict", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK


def test_keys_beside_epsilon_truth_are_ignored(tmp_path):
    # Generated benchmark scenarios write `epsilon: {truth, box}`; the box changes nothing.
    from tactica.cli import EXIT_OK, main
    text = MINIMAL.replace('coupling: ["u0[0]"]',
                           'coupling: ["u0[0] + eps[0]"]\n      epsilon: {truth: ["sin(t)"]}')
    boxed = text.replace('epsilon: {truth: ["sin(t)"]}',
                         'epsilon: {truth: ["sin(t)"], box: [[-2.0, 2.0]]}')
    assert boxed != text
    out = {}
    for name, body in (("plain", text), ("boxed", boxed)):
        path = write(tmp_path, body, f"{name}.yaml")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / name)]) \
            == EXIT_OK
        out[name] = (tmp_path / name / "trajectory.csv").read_bytes()
    assert out["plain"] == out["boxed"]


def test_no_shipped_scenario_carries_an_epsilon_box():
    for path in sorted(SCENARIOS.glob("*.yaml")):
        for player in yaml.safe_load(path.read_text()).get("system", {}).get("players", []):
            assert set(player.get("epsilon") or {}) <= {"truth"}, path.name


def _node_paths(node, prefix=()):
    if prefix:
        yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, prefix + (key,))


SHIPPED = {path.name: yaml.safe_load(path.read_text())
           for path in sorted(SCENARIOS.glob("*.yaml"))}
REPLACEMENTS = st.one_of(
    st.integers(-3, 30), st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="x0123 .,+-*/^()[]eptuhiv", max_size=8), st.none(),
    st.lists(st.integers(-1, 3), max_size=3), st.dictionaries(
        st.sampled_from(["dim", "t1", "word", "truth"]), st.integers(0, 2), max_size=2))


@st.composite
def mutated_scenarios(draw, trees=SHIPPED):
    tree = copy.deepcopy(trees[draw(st.sampled_from(sorted(trees)))])
    path = draw(st.sampled_from(list(_node_paths(tree))))
    parent = functools.reduce(lambda node, key: node[key], path[:-1], tree)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(REPLACEMENTS)
    return tree


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=mutated_scenarios())
def test_mutated_shipped_scenarios_load_or_raise_scenario_error(tmp_path, tree):
    path = tmp_path / "mutated.yaml"
    path.write_text(yaml.safe_dump(tree))
    try:
        assert load_scenario(path).supported_commands()
    except ScenarioError as exc:
        assert exc.errors


@pytest.mark.parametrize("scalar, problem", [
    ("2024-13-01", "month must be in 1..12"),
    ("!!int x", "invalid literal for int() with base 10: 'x'"),
], ids=["impossible-date", "tagged-int"])
def test_a_scalar_the_constructor_cannot_build_is_a_parse_error(tmp_path, loader, scalar,
                                                                 problem):
    path = write(tmp_path, MINIMAL.replace("title: minimal", f"title: {scalar}"))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.errors == [f"{path}: parse error: {problem}"]


def _loaded_by_both(text):
    """The trees libyaml and the pure-Python parser build from ``text``, as their reprs
    (so that NaN equals NaN, and 1, 1.0 and True stay apart)."""
    return (repr(yaml.load(text, Loader=yaml.CSafeLoader)),
            repr(yaml.load(text, Loader=yaml.SafeLoader)))


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML is built without libyaml")
@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_both_loaders_build_each_shipped_scenario_alike(name):
    c_tree, py_tree = _loaded_by_both((SCENARIOS / name).read_text(encoding="utf-8"))
    assert c_tree == py_tree


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML is built without libyaml")
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(tree=mutated_scenarios(), flow=st.sampled_from([False, None, True]))
def test_both_loaders_build_mutated_scenarios_alike(tree, flow):
    c_tree, py_tree = _loaded_by_both(yaml.safe_dump(tree, default_flow_style=flow,
                                                     sort_keys=False))
    assert c_tree == py_tree == repr(tree)


# Faults in the classes a tactical run can reach, found when the scenario loads.
@pytest.mark.parametrize("edits, message", [
    ({("class_dynamics", "heisenberg", "symbols", 0, 0, "word"): ["x4"]},
     "class 'heisenberg': symbol references slot 4, tuple has 3"),
    # The threshold is never crossed, so the run would never enter the class.
    ({("threshold",): 1.0, ("class_dynamics", "heisenberg", "symbols"):
      [[{"coeff": 0.2, "word": ["x1"]}], [{"coeff": 0.1, "word": ["x2"]}]]},
     "class 'heisenberg': 2 symbols declared, presentation 'heisenberg' has 3 generators"),
    ({("tuple", 0, 0, 1): 1, ("tuple", 1, 1, 2): 1},
     "class 'commutative': initial tuple violates the constraint: residual 1.000e+00"),
    ({("transitions", 0, "embed", "args"): [1, 5]},
     "class 'commutative': append_commutator(1, 5) needs slots of a tuple of 2"),
], ids=["slot-beyond-tuple", "symbol-count-unreached", "initial-off-variety", "embed-slot"])
def test_reachable_class_faults_exit_1_at_load(tmp_path, capsys, edits, message):
    from tactica.cli import EXIT_VALIDATION, main
    tree = copy.deepcopy(SHIPPED["repdyn_transition.yaml"])
    for path, value in edits.items():
        functools.reduce(lambda node, key: node[key], path[:-1], tree["repdyn"])[path[-1]] = value
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(tree))
    code = main(["repdyn", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert f"validation: scenario.yaml: repdyn: {message}" in err
    assert "Traceback" not in err
