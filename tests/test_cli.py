import copy
import hashlib
import importlib.util
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from test_scenario import SHIPPED, mutated_scenarios

from tactica.cli import (EXIT_INSOLVABLE, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, build_parser,
                         main)
from tactica.scenario import COMMANDS, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def read_csv_column(path, column):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index(column)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


def test_parser_accepts_all_commands():
    parser = build_parser()
    for command in ("simulate", "verbalize", "tactics", "predict", "repdyn", "invert"):
        args = parser.parse_args([command, "--scenario", "s.yaml", "--out", "o"])
        assert args.command == command
        assert args.scenario == "s.yaml"
        assert args.out == "o"
        assert args.dt is None
        assert args.seed == 0


def test_simulate_writes_expected_final_state(tmp_path):
    code = main(["simulate", "--scenario", str(SCENARIOS / "linear_decay.yaml"),
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    phi = read_csv_column(tmp_path / "trajectory.csv", "phi_0")
    assert abs(phi[-1] - math.exp(-1.0)) < 1e-8
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "trajectory.json").exists()


def test_scenario_validation_failure_is_exit_1(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema: 1\nrun: {t0: 0.0, t1: 1.0, dt: 0.01}\n")
    code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION


def test_unsupported_command_is_exit_1(tmp_path, capsys):
    code = main(["repdyn", "--scenario", str(SCENARIOS / "linear_decay.yaml"),
                 "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "simulate" in err  # lists what the scenario supports


def test_stranded_class_is_exit_3(tmp_path):
    code = main(["repdyn", "--scenario", str(SCENARIOS / "repdyn_stranded.yaml"),
                 "--out", str(tmp_path)])
    assert code == EXIT_INSOLVABLE


def test_dt_override(tmp_path):
    code = main(["simulate", "--scenario", str(SCENARIOS / "linear_decay.yaml"),
                 "--out", str(tmp_path), "--dt", "0.01"])
    assert code == EXIT_OK
    phi = read_csv_column(tmp_path / "trajectory.csv", "phi_0")
    assert len(phi) == 101


def test_tolerance_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TACTICA_TOLERANCE", "0.5")
    code = main(["simulate", "--scenario", str(SCENARIOS / "linear_decay.yaml"),
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = (tmp_path / "report.json").read_text()
    assert '"tolerance": 0.5' in report


def test_batch_runs_into_subdirectories(tmp_path):
    scenarios = ",".join([str(SCENARIOS / "linear_decay.yaml"),
                          str(SCENARIOS / "rotation_invariant.yaml")])
    code = main(["simulate", "--batch", scenarios, "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "linear_decay" / "trajectory.csv").exists()
    assert (tmp_path / "rotation_invariant" / "trajectory.csv").exists()


def test_batch_entries_sharing_a_directory_run_nothing(tmp_path, capsys):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.yaml").write_text((SCENARIOS / "linear_decay.yaml").read_text())
    first, second = tmp_path / "a" / "x.yaml", tmp_path / "b" / "x.yaml"
    code = main(["simulate", "--batch", f"{first},{second}", "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"validation: --batch: {first} and {second} both write "
                                       f"into {tmp_path / 'out' / 'x'}\n")
    assert not (tmp_path / "out").exists()


def test_repeated_runs_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        code = main(["verbalize", "--scenario", str(SCENARIOS / "sine_partition.yaml"),
                     "--out", str(tmp_path / sub)])
        assert code == EXIT_OK
    for name in ("trajectory.csv", "windows.csv", "windows.json", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# sha256 of the numeric artifacts of the shipped repdyn and invert scenarios.  The
# repdyn kernels (Weyl evaluation, relation values, projection Jacobian) keep the
# products and sums of their plain-loop form, so these bytes stay fixed; a change
# that moves one of them changes the numerics and must say so.
REPDYN_DIGESTS = {
    ("repdyn", "repdyn_heisenberg"): {
        "residuals.csv": "512f67da09ce29256e0c0aac687f3d0e5f5429f61c31d804e3ce2332e129fff0",
        "tuples.json": "00d0126e47a985141b1778a96eb6818814249e5127a81f6424588f2276b430c9"},
    ("repdyn", "repdyn_transition"): {
        "residuals.csv": "0a57ec8e4d37445bab8565ebf48a9db9049cb53986b1744315688b024c05b460",
        "windows.csv": "5f153722aa9abba8c782581ab4e2302e0a4275726ca7a866e37253b9548ae216",
        "comments.jsonl": "6742767e9643bff5c2bedad55d7e1f92e7237beb56ef53ec8033dfc3e2e799e6"},
    ("invert", "invert_lifted"): {
        "residuals.csv": "345f5bfbd800e9fcd0978dbfa7a31bd372872d3ca78a9bbb26b79ee378e87c7f",
        "slot_trace.csv": "771fd3ce447cfd3c6104a3aa8aae79bab506dfae9a9580ab32fd811113a2b99c"},
    ("invert", "invert_logistic"): {
        "residuals.csv": "21e7f502a1278d5a09d22ee0a784ee61ff3aa68ec194f741e17fec0d75f521a6",
        "slot_trace.csv": "4089a6fba41064afbe3890b318ceaaa334e01d93053474bd7752b068c48fb6fc"},
}


@pytest.mark.parametrize("command, stem", sorted(REPDYN_DIGESTS), ids=lambda x: x)
def test_repdyn_artifacts_keep_their_digests(tmp_path, command, stem):
    code = main([command, "--scenario", str(SCENARIOS / f"{stem}.yaml"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in REPDYN_DIGESTS[command, stem]} == REPDYN_DIGESTS[command, stem]


def _load_tool(name):
    path = SCENARIOS.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ARTIFACT_DIGESTS = _load_tool("artifact_digests")
# sha256 of the numeric artifacts of tools/artifact_digests.py's variants of the shipped
# scenarios (its VARIANTS), which no shipped scenario covers: a prognosis pipeline, a
# two-state invert run and a repdyn run that projects about one step in five.
VARIANT_DIGESTS = {
    "two_player_pipeline": {
        "prognosis.json": "2d6b88e5a8d7bd2373e024636504c5d4cee4ccb55525bdbae54774b640228e1a"},
    "invert_two_state": {
        "residuals.csv": "345f5bfbd800e9fcd0978dbfa7a31bd372872d3ca78a9bbb26b79ee378e87c7f",
        "slot_trace.csv": "b12dfcddd04fd8d8054a69a9f8c3601dd07c2e25a49dd6b531f69cd0c5702c8a"},
    "repdyn_projecting": {
        "residuals.csv": "e29e74c57a8e76bb093a34245f0c664a17f4fdfecb98ffebc024aba45849726a",
        "tuples.json": "c81f1e9103ad103b03f3a6291a5f028a3b1ec7aaa284019a0c08e56fe590509d"},
}


@pytest.mark.parametrize("variant", ARTIFACT_DIGESTS.VARIANTS, ids=lambda v: v[1])
def test_the_digest_tools_variants_keep_their_digests(tmp_path, variant):
    source, name, command, changes = variant
    scenario = ARTIFACT_DIGESTS.write_variant(tmp_path, source, name, changes)
    lines = [line.split() for line in ARTIFACT_DIGESTS.digests(scenario, [command])]
    assert {code for _, _, code, _, _ in lines} == {str(EXIT_OK)}
    assert {file: digest for _, _, _, file, digest in lines
            if file in VARIANT_DIGESTS[name]} == VARIANT_DIGESTS[name]


def test_a_controlled_tactical_run_keeps_its_window_means(tmp_path):
    # The window mean reads the control the integration evaluated at each sample.
    doc = yaml.safe_load((SCENARIOS / "repdyn_transition.yaml").read_text())
    doc["repdyn"]["control"] = ["0.1*sin(t)"]
    doc["repdyn"]["class_dynamics"]["heisenberg"]["symbols"][2] = [
        {"coeff": 0.2, "word": ["x3"]}, {"coeff": 0.1, "word": ["x3"], "control": 0}]
    scenario = tmp_path / "controlled.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    assert main(["repdyn", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) \
        == EXIT_OK
    assert hashlib.sha256((tmp_path / "out" / "windows.csv").read_bytes()).hexdigest() == \
        "3f917a85eb3ec7e4e060d339e3824c01b0eba925b1115547b3fbd00c4b3c6bf1"


def test_a_tactical_report_partitions_the_run_into_class_intervals(tmp_path):
    scenario = load_scenario(SCENARIOS / "repdyn_transition.yaml")
    assert main(["repdyn", "--scenario", str(SCENARIOS / "repdyn_transition.yaml"),
                 "--out", str(tmp_path)]) == EXIT_OK
    summaries = json.loads((tmp_path / "report.json").read_text())["summaries"]
    (transition,) = summaries["transitions"]
    assert summaries["classes"] == [
        {"label": "commutative", "t_start": 0.0, "t_end": transition["time"],
         "closed_end": False},
        {"label": transition["to"], "t_start": transition["time"], "t_end": scenario.run.t1,
         "closed_end": True}]
    assert transition["from"] == scenario.repdyn_plan().tactical.initial_class
    times = read_csv_column(tmp_path / "residuals.csv", "t")
    assert transition["time"] in times


# sha256 of the trajectory that `simulate` writes for shipped scenarios covering
# coalition slots, two players, a time-varying hidden parameter and an invariant.  A
# change to the integrator stage must leave these bytes fixed.
SIMULATE_DIGESTS = {
    "coalition_pair": "f316a22e9302d4f5163b59f92260060e6ddc61f97e21055a92d6ccdf9c3ee107",
    "linear_decay": "cfcc04de8e084ea9e52303c43cbd274c33cfc62a91e166ff00fb4abb74422e54",
    "logistic_sin": "4571f83ded8e90642534c8a3025eb95b57f57345f477dea10bf2055c46164616",
    "rotation_invariant": "efe0b3b9f0d5e2ed2062760f86e0496fb0e96500845ae99056afebe32c155df8",
    "two_player": "f700ffb094346049efdef337948c2a76b06810f2257879ea5a0e60c071e44bbe",
}


@pytest.mark.parametrize("stem", sorted(SIMULATE_DIGESTS))
def test_simulate_trajectory_keeps_its_digest(tmp_path, stem):
    code = main(["simulate", "--scenario", str(SCENARIOS / f"{stem}.yaml"),
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == SIMULATE_DIGESTS[stem]


def test_autonomous_invert_needs_no_control(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("schema: 1\nrun: {t0: 0.0, t1: 1.0, dt: 0.01}\n"
                        "invert: {rhs: [\"x1 - x1*x1\"], x0: [0.1], control_dim: 0}\n")
    code = main(["invert", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == [("slot vs scalar deviation", True)]


# sha256 of the per-game traces of the shipped tactics scenarios, one per mode.  Every
# mode runs through the same window loop, so a change to how a mode is compiled or
# dispatched must leave these bytes fixed.
TACTICS_DIGESTS = {
    "tactics_commented": {
        "comments.jsonl": "7255884e61e7e04a1db108174a1eca54cbbbc84cd4f4b63679f7af1f015a067a",
        "trajectory.csv": "7953baa854eb4bc9cf201e9f105bba722937056fec5639cbe47ef52bfce060f7",
        "windows.csv": "ea915e5b369409c47f07eb9cd08ba6dd8aa92dfbc40fb5be4746c82a5e47a82e"},
    "tactics_coupled": {
        "comments_1.jsonl": "3741a5557e5218179b96c4a3c17705d70d0ff22ecfe4871fdecacffcd1c322a1",
        "comments_2.jsonl": "b22441095dfd86a696f4f3216ac270c7f91df1eede16b0821113cd3d73e18caf",
        "trajectory_1.csv": "bb246eeda8686aad23f8937e0a31cb7af0551544cb8553cdc2d99d58f659ab59",
        "trajectory_2.csv": "6383ad1a1220aba7af6676b26b1e3b8b0575da4269409c3243ef8d262db7a981",
        "windows_1.csv": "5a099b1fadccdbda71b0a6bca515eef5f2a46798e4bcb98c58858a8b3c119b6c",
        "windows_2.csv": "5a099b1fadccdbda71b0a6bca515eef5f2a46798e4bcb98c58858a8b3c119b6c"},
    "tactics_synthesis": {
        "comments_1.jsonl": "0fa31a11c6b2bf427def2dd3d8b4f07e2f57c85d877fcdddf2341374d510354f",
        "comments_2.jsonl": "0d9d7b85fce9567e3bdfd8d73d4fd16cb3fc52a61e95c64175e17906d0b432a1",
        "trajectory_1.csv": "89135053a810fabbf172da5fbc665ce9869953654de9559b33dd76df0af2f24e",
        "trajectory_2.csv": "eba3a3eaf8190f9e4f345c91fc1cf465b72177911e611ba9e8e25b2ab138b68b",
        "windows_1.csv": "e4288685c89b9fc19c469736dae985c6b7a217b645dab6010c2b10286c24c60f",
        "windows_2.csv": "7909c9865c62ad161464c51d69097a9e9f1353dbdf6c926c6068e3742632cd50"},
}


@pytest.mark.parametrize("stem", sorted(TACTICS_DIGESTS))
def test_tactics_artifacts_keep_their_digests(tmp_path, stem):
    code = main(["tactics", "--scenario", str(SCENARIOS / f"{stem}.yaml"), "--out",
                 str(tmp_path)])
    assert code == EXIT_OK
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in TACTICS_DIGESTS[stem]} == TACTICS_DIGESTS[stem]


# A pipeline whose hidden parameters follow the state, so that each short-term segment
# holds different values, and whose assumed parameters are not the truth.
PIPELINE = """
schema: 1
title: held-parameter-pipeline
run: {t0: 0.0, t1: 0.5, dt: 0.01}
system:
  dim: 2
  initial: [1.0, -0.5]
  dynamics: ["-1.2*phi[0] + 0.3*phi[1] + u[0]", "0.2*phi[0] - phi[1] + u[1]"]
  players:
    - signal: ["0.5*sin(t)"]
      coupling: ["u0[0] + eps[0]*phi[0]"]
      epsilon: {truth: ["0.2*cos(3*t) - 0.1*phi[1]"]}
    - signal: ["0.3"]
      coupling: ["u0[0] + eps[0]*phi[1]"]
      epsilon: {truth: ["-0.2 + 0.1*phi[0]^2"]}
prediction:
  pipeline: {horizon: 0.05, assumed_eps: [["0.1"], ["-0.2"]]}
"""

# sha256 of artifacts of the verbalize and predict commands, which integrate the system
# through the same stage as simulate; None stands for the PIPELINE scenario above.
ANALYSIS_DIGESTS = {
    ("verbalize", "sine_partition"): {
        "trajectory.csv": "312feb46f20c82321202e0f8f707ea8771edaece2241b81fbd124bdcca774dd5",
        "windows.csv": "f7b53a678735e1a9fd4f9eded25bd236c483839e519f0c0a7727d85d9e6dfed8",
        "windows.json": "643012225fae3b5328e1b11f5acec71a0f70bedcc9e7989454a2cd9f3ad82454"},
    ("predict", "filter_unravel"): {
        "trajectory.csv": "380494957daac9938d952cb75b1a7ea9d4898ba45b8bacf5cb1d3575338bbb67",
        "unravel.csv": "78804b1848ff891a9aade9927dde10ec776840a86dc6427aab8da3a34f0a42eb"},
    ("predict", None): {
        "prognosis.json": "2f6c7295af279c11a1e479379be6833503b8714a551f3e50f9e54c024d8e49ba",
        "trajectory.csv": "06e9197453f0b941516fa23665c95ccb18894722a7ccde17099f9b4737a0ef05"},
}


@pytest.mark.parametrize("command, stem", list(ANALYSIS_DIGESTS),
                         ids=["verbalize-sine_partition", "predict-filter_unravel",
                              "predict-pipeline"])
def test_analysis_artifacts_keep_their_digests(tmp_path, command, stem):
    scenario = tmp_path / "pipeline.yaml" if stem is None else SCENARIOS / f"{stem}.yaml"
    if stem is None:
        scenario.write_text(PIPELINE)
    code = main([command, "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    expected = ANALYSIS_DIGESTS[command, stem]
    assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in expected} == expected


def test_floats_round_trip_through_csv(tmp_path):
    code = main(["simulate", "--scenario", str(SCENARIOS / "logistic_sin.yaml"),
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    phi = read_csv_column(tmp_path / "trajectory.csv", "phi_0")
    # 17 significant digits guarantee exact round-trip of the final value.
    from tactica.scenario import load_scenario
    from tactica.games import simulate
    scenario = load_scenario(SCENARIOS / "logistic_sin.yaml")
    system, initial, slow = scenario.build_system()
    traj = simulate(system, initial, scenario.run.t0, scenario.run.t1,
                    scenario.run.dt, slow=slow)
    assert phi[-1] == traj.phi[-1, 0]


def test_tactics_honours_dt_override(tmp_path):
    code = main(["tactics", "--scenario", str(SCENARIOS / "tactics_coupled.yaml"),
                 "--out", str(tmp_path), "--dt", "0.01"])
    assert code == EXIT_OK
    assert len(read_csv_column(tmp_path / "trajectory_1.csv", "t")) == 2001


def test_verbalize_integrates_coalition_slots_like_simulate(tmp_path):
    scenario = tmp_path / "coalition_windows.yaml"
    scenario.write_text((SCENARIOS / "coalition_pair.yaml").read_text() + """
verbalization:
  windows: [0.0, 0.5, 1.0]
  omega: [{kind: mean, source: eps}]
  v: [{kind: mean, source: u0}]
""")
    for command in ("simulate", "verbalize"):
        assert main([command, "--scenario", str(scenario), "--out",
                     str(tmp_path / command)]) == EXIT_OK
    trajectory = (tmp_path / "verbalize" / "trajectory.csv").read_bytes()
    assert trajectory.splitlines()[0] == b"t,phi_0,u_0,u_1,eps_0,eps_1,u0_0,u0_1,u0_2"
    assert trajectory == (tmp_path / "simulate" / "trajectory.csv").read_bytes()


SYSTEM = """
schema: 1
title: faulty
run: {{t0: 0.0, t1: 1.0, dt: 0.01}}
system:
  dim: 1
  initial: [0.0]
  dynamics: ["{dynamics}"]
  players:
    - signal: ["0.0"]
      coupling: ["u0[0]"]
  {extra}
"""

# Two noncommuting constant drifts: every raw step leaves the commutative class.
DRIFT = """
schema: 1
title: commutator-drift
run: {t0: 0.0, t1: 0.002, dt: 0.001}
repdyn:
  mode: integrate
  class: commutative
  tuple:
    - [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    - [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
  constants:
    D1: [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    D2: [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
  symbols:
    - [{word: [D1]}]
    - [{word: [D2]}]
"""

# A cubic symbol with a huge coefficient overflows inside the first RK step.
OVERFLOW = """
schema: 1
title: stage-overflow
run: {t0: 0, t1: 0.1, dt: 0.01}
repdyn:
  mode: integrate
  class: commutative
  tuple:
    - [[1, 0], [0, 2]]
  symbols:
    - [{coeff: 1.0e+200, word: [x1, x1, x1]}]
"""


# One player whose signal and hidden parameter are given; the state stays at 1.
PLAYER = """
schema: 1
title: {title}
run: {{t0: 0.0, t1: 0.01, dt: 0.001}}
system:
  dim: 1
  initial: [1.0]
  dynamics: ["u[0]"]
  players:
    - signal: ["{signal}"]
      coupling: ["u0[0]"]
      epsilon:
        truth: ["{eps}"]
"""


COMMENTED = (SCENARIOS / "tactics_commented.yaml").read_text()
INVARIANT = (SCENARIOS / "rotation_invariant.yaml").read_text()
COMMENT_RULE = "0.5*theta[0] + 0.5*omega[0] + v[0]"


@pytest.mark.parametrize("command, text, expected, message, options", [
    ("simulate", SYSTEM.format(dynamics="0.0", extra="coalitions: [5]"), EXIT_VALIDATION,
     "validation: scenario.yaml: system.coalitions[0]: expected a mapping", {}),
    ("simulate", SYSTEM.format(dynamics="0^-1", extra=""), EXIT_RUNTIME,
     "runtime: faulty: system.dynamics[0] '0^-1': 0.0 cannot be raised to a negative power "
     "at t=0.0", {}),
    ("simulate", SYSTEM.format(dynamics="exp(exp(exp(100*phi[0]+100)))", extra=""),
     EXIT_RUNTIME, "runtime: faulty: system.dynamics[0] 'exp(exp(exp(100*phi[0]+100)))': "
     "math range error at t=0.0", {}),
    ("repdyn", DRIFT + "  threshold: 1.0e-7\n", EXIT_INSOLVABLE,
     "insolvable in the declared class at t=0.001", {}),
    ("repdyn", OVERFLOW, EXIT_RUNTIME,
     "runtime: stage-overflow: matrix tuple diverged in presentation 'commutative-m1' at "
     "t=0.01: symbols[0] (the dynamics of x1) non-finite at stage time t=0.005\n", {}),
    # After the transition the Heisenberg class's first step overflows.
    ("repdyn", (SCENARIOS / "repdyn_transition.yaml").read_text().replace(
        "{coeff: 0.2, word: [x1]}", "{coeff: 1.0e+308, word: [x1]}"), EXIT_RUNTIME,
     "runtime: commutativity-breaking-transition: class 'heisenberg': matrix tuple diverged in "
     "presentation 'heisenberg' at t=0.002: symbols[0] (the dynamics of x1) non-finite at "
     "stage time t=0.0015\n", {}),
    # The signal divides by zero in the k4 stage of the step from t=0.004.
    ("simulate", PLAYER.format(title="zerodiv", signal="1.0/(t - 0.005)", eps="0.0"),
     EXIT_RUNTIME, "runtime: zerodiv: system.players[0].signal[0] '1.0/(t - 0.005)': float "
     "division by zero at t=0.005", {}),
    # The hidden parameter overflows to inf while the state stays finite.
    ("simulate", PLAYER.format(title="eps-overflow", signal="0.0", eps="phi[0]*1e308*10"),
     EXIT_RUNTIME, "runtime: eps-overflow: non-finite eps_0 (system.players[0].epsilon.truth[0] "
     "'phi[0]*1e308*10') at t=0.0\n", {}),
    # A negative float base to a fractional power is complex; the dynamics, which read
    # the control as np.float64, reject the coupling's complex value.
    ("simulate", PLAYER.format(title="complex-power", signal="(t - 1)^0.5", eps="0.0"),
     EXIT_RUNTIME, "runtime: complex-power: system.players[0].coupling[0] 'u0[0]': Cannot cast "
     "array data from dtype('complex128') to dtype('float64') according to the rule "
     "'same_kind' at t=0.0", {}),
    # Inputs from outside the scenario: the environment and the command line.
    ("simulate", SYSTEM.format(dynamics="0.0", extra=""), EXIT_VALIDATION,
     "validation: TACTICA_TOLERANCE: expected a positive finite number, got 'abc'",
     {"env": {"TACTICA_TOLERANCE": "abc"}}),
    ("simulate", SYSTEM.format(dynamics="0.0", extra=""), EXIT_VALIDATION,
     "validation: TACTICA_TOLERANCE: expected a positive finite number, got 'nan'",
     {"env": {"TACTICA_TOLERANCE": "nan"}}),
    ("invert", (SCENARIOS / "invert_logistic.yaml").read_text(), EXIT_VALIDATION,
     "validation: TACTICA_TOLERANCE: expected a positive finite number, got '-1'",
     {"env": {"TACTICA_TOLERANCE": "-1"}}),
    ("simulate", None, EXIT_VALIDATION, "scenario.yaml: cannot be read: Is a directory", {}),
    ("simulate", b"title: \xff\n", EXIT_VALIDATION,
     "scenario.yaml: not UTF-8 text: invalid start byte at byte 7", {}),
    ("simulate", SYSTEM.format(dynamics="0.0", extra=""), EXIT_VALIDATION,
     "validation: --out: File exists", {"out_is_file": True}),
    ("simulate", SYSTEM.format(dynamics="0.0", extra=""), EXIT_VALIDATION,
     "validation: --batch: no scenario files given", {"argv": ["--batch", ","]}),
    ("simulate", SYSTEM.format(dynamics="0.0", extra=""), EXIT_VALIDATION,
     "validation: --batch: a/x.yaml and b/x.yaml both write into ",
     {"argv": ["--batch", "a/x.yaml,b/x.yaml"]}),
    ("simulate", SYSTEM.format(dynamics="0.0", extra=""), EXIT_VALIDATION,
     "validation: --batch: runs its own scenario files; drop --scenario",
     {"argv": ["--scenario", "scenario.yaml", "--batch", "a.yaml"]}),
    # Only tactics feeds lambda (its comment) when no system.slow schedule does.
    ("simulate", "\n".join(line for line in (SCENARIOS / "tactics_commented.yaml").read_text()
                           .splitlines() if "slow:" not in line), EXIT_VALIDATION,
     "it supports: tactics (system.slow feeds 0 of the 1 lambda components read)", {}),
    ("simulate", SYSTEM.format(dynamics="0.0",
                               extra="slow: {steps: [[0, [1.0]], [50, [2.0, 3.0]]]}"),
     EXIT_VALIDATION, "validation: scenario.yaml: system.slow.steps: every step needs the "
     "same number of values, got [1, 2]", {}),
    # A complex derivative or comment fails instead of passing as its real part.
    ("simulate", SYSTEM.format(dynamics="phi[0]*(0 - 1)^0.5", extra=""), EXIT_RUNTIME,
     "runtime: faulty: system.dynamics[0] 'phi[0]*(0 - 1)^0.5': complex value 0j at t=0.0", {}),
    ("tactics", COMMENTED.replace(COMMENT_RULE, "theta[0]*(0 - 1)^0.5"), EXIT_RUNTIME,
     "runtime: commented-setpoint: synthesis form 0: complex value [(", {}),
    ("simulate", SYSTEM.format(dynamics="lambda[0]", extra='slow: {schedule: ["(0 - 1)^0.5"]}'),
     EXIT_RUNTIME, "runtime: faulty: system.slow.schedule: complex value [(", {}),
    ("repdyn", (SCENARIOS / "repdyn_heisenberg.yaml").read_text().replace(
        '"0.1*sin(t)"', '"0.1*sin(t)*(0 - 1)^0.5"'), EXIT_RUNTIME,
     "runtime: heisenberg-scaling-flow: repdyn.control: complex value [0j, (0.05+0j)] at t=0.0",
     {}),
    ("verbalize", (SCENARIOS / "verbalize_fit.yaml").read_text().replace(
        "family: fit\n    fit_windows: 8",
        'family: declared\n    expression: ["omega[0]*(0 - 1)^0.5"]'),
     EXIT_RUNTIME, "runtime: exponential-window-recurrence: verbalization.recurrence.expression: "
     "complex value [(", {}),
    # The slow schedule overflows to inf; lambda is recorded though no form reads it.
    ("simulate", SYSTEM.format(dynamics="-phi[0]",
                               extra='slow: {schedule: ["1.0e+308*10*(t + 1)"]}'),
     EXIT_RUNTIME, "runtime: faulty: non-finite lambda_0 (system.slow.schedule[0] "
     "'1.0e+308*10*(t + 1)') at t=0.0\n", {}),
    # sin and cos of an infinite argument are math domain errors.
    ("simulate", PLAYER.format(title="signal-domain", signal="sin(1e308*10)", eps="0.0"),
     EXIT_RUNTIME, "runtime: signal-domain: system.players[0].signal[0] 'sin(1e308*10)': math "
     "domain error at t=0.0", {}),
    ("simulate", SYSTEM.format(dynamics="lambda[0]",
                               extra='slow: {schedule: ["cos(1e308*10)"]}'),
     EXIT_RUNTIME, "runtime: faulty: system.slow.schedule[0] 'cos(1e308*10)': math domain "
     "error at t=0.0", {}),
    ("tactics", COMMENTED.replace(COMMENT_RULE, "sin(theta[0]*1e308*10)"), EXIT_RUNTIME,
     "runtime: commented-setpoint: tactics.rule[0] 'sin(theta[0]*1e308*10)': math domain "
     "error\n", {}),
    ("verbalize", (SCENARIOS / "verbalize_fit.yaml").read_text().replace(
        "family: fit\n    fit_windows: 8",
        'family: declared\n    expression: ["sin(omega[0]*1e308*10)"]'),
     EXIT_RUNTIME, "runtime: exponential-window-recurrence: verbalization.recurrence.expression[0] "
     "'sin(omega[0]*1e308*10)': math domain error\n", {}),
    ("repdyn", (SCENARIOS / "repdyn_heisenberg.yaml").read_text().replace(
        '"0.1*sin(t)"', '"0.1*sin(t)/(t - 0.001)"'), EXIT_RUNTIME,
     "runtime: heisenberg-scaling-flow: repdyn.control[0] '0.1*sin(t)/(t - 0.001)': float "
     "division by zero at t=0.001", {}),
    ("invert", (SCENARIOS / "invert_logistic.yaml").read_text().replace(
        '["1.0"]', '["1.0/(t - 0.002)"]'), EXIT_RUNTIME,
     "runtime: logistic-inverse-problem: invert.control[0] '1.0/(t - 0.002)': float division "
     "by zero at t=0.002", {}),
    ("invert", (SCENARIOS / "invert_logistic.yaml").read_text().replace(
        '["1.0"]', '["(0 - 1)^0.5"]'), EXIT_RUNTIME,
     "runtime: logistic-inverse-problem: invert.control: complex value "
     "[(6.123233995736766e-17+1j)] at t=0.0\n", {}),
    # Invariants and a declared recurrence are evaluated after the run; a fault, or a
    # value that report.json could not hold, names the source.
    ("simulate", INVARIANT.replace("phi[1]^2", "1/(phi[1] - phi[1])"), EXIT_RUNTIME,
     "runtime: rotation-with-first-integral: invariant 'radius-squared' (system.invariants[0]"
     ".expression[0] 'phi[0]^2 + 1/(phi[1] - phi[1])'): non-finite value inf at t=0.0\n", {}),
    ("simulate", INVARIANT.replace("phi[1]^2", "(0 - 1)^0.5"), EXIT_RUNTIME,
     "runtime: rotation-with-first-integral: invariant 'radius-squared' (system.invariants[0]"
     ".expression[0] 'phi[0]^2 + (0 - 1)^0.5'): complex value (1+1j) at t=0.0\n", {}),
    ("simulate", INVARIANT.replace("phi[1]^2", "exp(1000*phi[0])"), EXIT_RUNTIME,
     "runtime: rotation-with-first-integral: system.invariants[0].expression[0] "
     "'phi[0]^2 + exp(1000*phi[0])': math range error at t=0.0\n", {}),
    ("verbalize", (SCENARIOS / "constant_eps.yaml").read_text()
     + '  recurrence: {family: declared, expression: ["omega[0]/(v[0] - v[0])"]}\n',
     EXIT_RUNTIME, "runtime: constant-parameter-control: verbalization.recurrence.expression: "
     "non-finite value [inf] predicting window 2\n", {}),
    # The window grid's times are np.float64; the message prints them as floats.
    ("tactics", COMMENTED.replace('u[0]"]', 'u[0] + 1e300*max(t - 2.5, 0)*1e300"]'),
     EXIT_RUNTIME, "runtime: commented-setpoint: state diverged; last finite state at t=2.5",
     {}),
    # lambda is as wide as the comment; no key widens it.
    ("tactics", COMMENTED.replace("lambda[0] - phi[0]", "lambda[1] - phi[0]").replace(
        "  slow:", "  lambda_dim: 2\n  slow:"), EXIT_VALIDATION,
     "validation: scenario.yaml: system.dynamics[0]: index 1 out of range for 'lambda' "
     "(dimension 1)", {}),
], ids=["validation", "zero-division", "overflow", "insolvable", "repdyn-stage-overflow",
        "tactical-stage-overflow", "stage-time", "non-finite-eps", "complex-power",
        "tolerance-env-text", "tolerance-env-nan", "tolerance-env-negative", "scenario-directory",
        "scenario-not-utf8", "out-is-a-file", "empty-batch", "batch-shared-directory",
        "batch-with-scenario",
        "slow-schedule-missing", "slow-steps-unequal", "complex-dynamics", "complex-comment",
        "complex-slow-schedule", "complex-repdyn-control", "complex-recurrence",
        "non-finite-lambda", "signal-domain", "slow-domain", "rule-domain", "recurrence-domain",
        "repdyn-control-zero-division", "invert-control-zero-division", "complex-invert-control",
        "invariant-non-finite", "invariant-complex", "invariant-range", "recurrence-non-finite",
        "window-time", "lambda-wider-than-comment"])
def test_exit_codes_end_without_traceback(tmp_path, capsys, recwarn, monkeypatch, command, text,
                                          expected, message, options):
    scenario, out_dir = tmp_path / "scenario.yaml", tmp_path / "out"
    if text is None:
        scenario.mkdir()
    elif isinstance(text, bytes):
        scenario.write_bytes(text)
    else:
        scenario.write_text(text)
    if options.get("out_is_file"):
        out_dir.write_text("")
    for name, value in options.get("env", {}).items():
        monkeypatch.setenv(name, value)
    argv = options.get("argv", ["--scenario", str(scenario)])
    code = main([command, *argv, "--out", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == expected
    assert message in err
    assert "Traceback" not in err
    assert ": ok (" not in out
    # Under pytest warnings are recorded instead of printed, so check both.
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("coupling, assumed", [
    ("u0[0] + tanh(eps[0]^400)", "10.0"), ("u0[0] + 1/(1/eps[0])", "0.0")],
    ids=["overflow-to-inf", "division-by-zero-to-inf"])
def test_pipeline_policies_reach_the_couplings_as_float64(tmp_path, coupling, assumed):
    # A float64 overflows or divides by zero to inf where a Python float raises.
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(PLAYER.format(title="policy-types", signal="0.0", eps="0.1").replace(
        '"u0[0]"', f'"{coupling}"') + f'prediction:\n  pipeline: {{horizon: 0.005, '
        f'assumed_eps: [["{assumed}"]]}}\n')
    assert main(["predict", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) \
        == EXIT_OK


@pytest.mark.parametrize("slow", ['{schedule: ["1.0 + 0.5*sin(t)"]}',
                                  "{steps: [[0, [1.0]], [37, [2.0]], [55, [-1.0]]]}"],
                         ids=["schedule", "steps"])
def test_the_pipeline_feeds_the_slow_parameter_of_each_step(tmp_path, slow):
    # The assumed parameter is the truth and is constant, so every prognosis is exact
    # when each run (the long-term one and every segment) reads lambda at its own step.
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SYSTEM.format(dynamics="lambda[0] - phi[0] + u[0]",
                                      extra=f"slow: {slow}").replace(
        'coupling: ["u0[0]"]', 'coupling: ["u0[0] + eps[0]*phi[0]"]\n'
        '      epsilon: {truth: ["0.3"]}') + "prediction:\n"
        '  pipeline: {horizon: 0.1, assumed_eps: [["0.3"]]}\n')
    assert main(["predict", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) \
        == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summaries"]["pipeline"]["max_blended_error"] == 0.0


def test_an_insolvable_integrate_run_writes_its_report_once(tmp_path, monkeypatch):
    from tactica import exports
    written, write_json = [], exports.write_json
    monkeypatch.setattr(exports, "write_json",
                        lambda value, path: written.append(path.name) or write_json(value, path))
    scenario = tmp_path / "drift.yaml"
    scenario.write_text(DRIFT + "  threshold: 1.0e-7\n")
    assert main(["repdyn", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) \
        == EXIT_INSOLVABLE
    assert written == ["tuples.json", "report.json"]


def test_an_invariant_reading_dphi_is_checked_against_the_recorded_derivative(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SYSTEM.format(dynamics="u[0]",
                                      extra='invariants: [{expression: "dphi[0] - u[0]"}]'))
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) \
        == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [(c["name"], c["value"], c["passed"]) for c in report["checks"]] == [
        ("invariant F0", 0.0, True)]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_projection_iterate_is_a_runtime_error(tmp_path, capsys, monkeypatch, value):
    def step(jac, rhs, rcond=None):
        return np.full(jac.shape[1], value, dtype=complex), None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", step)
    scenario = tmp_path / "drift.yaml"
    scenario.write_text(DRIFT)
    code = main(["repdyn", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert ("runtime: commutator-drift: relation residual turned non-finite in presentation "
            "'commutative-m2' at t=0.001\n") in err
    assert "Traceback" not in err


def test_tuples_json_initial_time_is_the_run_start(tmp_path):
    scenario = tmp_path / "drift.yaml"
    scenario.write_text(DRIFT.replace("t0: 0.0, t1: 0.002", "t0: 1.0, t1: 1.002"))
    code = main(["repdyn", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    tuples = json.loads((tmp_path / "out" / "tuples.json").read_text())
    assert tuples["initial"]["t"] == 1.0
    assert read_csv_column(tmp_path / "out" / "residuals.csv", "t")[0] == 1.0


def test_projection_linalg_failure_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", fail)
    scenario = tmp_path / "drift.yaml"
    scenario.write_text(DRIFT)
    code = main(["repdyn", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert "runtime: commutator-drift: SVD did not converge" in err
    assert "Traceback" not in err


def conjugated_heisenberg_dim6(seed: int) -> dict:
    """A dim-6 Heisenberg integrate scenario whose projection Jacobian is rank-deficient.

    The tuple is a block sum of two scaled 3x3 Heisenberg representations
    conjugated by I + 0.2 N(0, 1); it flows under the derivation
    X1' = a X1 + b X2, X2' = c X1 + d X2, X3' = (a + d) X3 with the four rates
    free unit-amplitude sinusoids.  The draws follow the seeded generator of
    ``perfbench/known_fault.py``, so seed 2 is the input it reproduces.
    """
    rng = random.Random(f"known-fault:{seed}")
    alpha, beta = (round(rng.uniform(0.5, 1.5), 6) for _ in range(2))
    p = np.eye(6) + 0.2 * np.array([[rng.gauss(0.0, 1.0) for _ in range(6)] for _ in range(6)])
    for _ in range(6):      # the generator's rotation-rate draws, replaced below
        rng.uniform(0.0, 1.0)
    rng.choice((1.0, -1.0))
    control = [f"sin({rng.uniform(0.5, 2.0)!r}*t + {rng.uniform(0.0, 6.283185)!r})"
               for _ in range(4)]

    def block_sum(i, j, scale):
        x = np.zeros((6, 6))
        x[i, j] = x[i + 3, j + 3] = scale
        return (p @ x @ np.linalg.inv(p)).tolist()

    def term(letter, control):
        return {"coeff": 1.0, "word": [letter], "control": control}

    return {"schema": 1, "title": "heisenberg-conjugated",
            "run": {"t0": 0.0, "t1": 2.0, "dt": 0.05},
            "repdyn": {"mode": "integrate", "class": "heisenberg",
                       "tuple": [block_sum(0, 1, alpha), block_sum(1, 2, beta),
                                 block_sum(0, 2, alpha * beta)],
                       "control": control,
                       "symbols": [[term("x1", 0), term("x2", 1)],
                                   [term("x1", 2), term("x2", 3)],
                                   [term("x3", 0), term("x3", 3)]],
                       "tolerance": 1.0e-9, "threshold": 1.0e-5}}


def test_rank_deficient_projection_converges(tmp_path):
    # With numpy's default lstsq cutoff the projection stalls near 1e-8 at t = 1.65
    # (Jacobian rank 83 of 108) and the run exits 3.
    scenario = tmp_path / "heisenberg_dim6.yaml"
    scenario.write_text(yaml.safe_dump(conjugated_heisenberg_dim6(seed=2)))
    code = main(["repdyn", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert read_csv_column(tmp_path / "out" / "residuals.csv", "t")[-1] == 2.0
    assert read_csv_column(tmp_path / "out" / "residuals.csv", "residual")[-1] <= 1e-9


def _clipped(tree):
    """``tree`` with its run cut to 1000 steps, unless a section declares windows."""
    tree = copy.deepcopy(tree)
    run = tree["run"]
    if not any("windows" in section for section in tree.values() if isinstance(section, dict)):
        run["t1"] = min(run["t1"], run["t0"] + 1000 * run["dt"])
    return tree


CLIPPED = {name: _clipped(tree) for name, tree in SHIPPED.items()}

# A regressor that is infinite at every sample: should it reach the least-squares fit,
# LAPACK prints its complaints on stdout ahead of the runtime line.
NON_FINITE_FAMILY = {**CLIPPED["filter_unravel.yaml"], "prediction": {
    "filter": {"kind": "lowpass", "cutoff": 10.0},
    "family": ["phi[0]", "1/(phi[0] - phi[0])"]}}


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=mutated_scenarios(CLIPPED))
@example(tree=NON_FINITE_FAMILY)
def test_mutated_shipped_scenarios_keep_the_exit_code_contract(tmp_path_factory, capfd, tree):
    # capfd, not capsys: it sees what C and Fortran code print too.
    scenario = tmp_path_factory.mktemp("mutated") / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(tree))
    for command in COMMANDS:
        code = main([command, "--scenario", str(scenario), "--out", str(scenario.parent / command)])
        out, err = capfd.readouterr()
        assert EXIT_OK <= code <= EXIT_INSOLVABLE
        assert "Traceback" not in err
        assert all(line.startswith(("validation:", "runtime:", "insolvable:", "usage:"))
                   for line in err.splitlines()), err
        assert all(line.startswith(f"{command} ") for line in out.splitlines()), out


def test_clipped_shipped_scenarios_support_their_commands(tmp_path):
    for name, tree in CLIPPED.items():
        (tmp_path / name).write_text(yaml.safe_dump(tree))
        assert (load_scenario(tmp_path / name).supported_commands()
                == load_scenario(SCENARIOS / name).supported_commands())
