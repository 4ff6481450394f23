"""Print the sha256 of every artifact the shipped scenarios produce.

Runs every scenario in ``scenarios/`` under every command it supports through
``tactica.cli.main``, each into its own temporary directory, and prints one
line per artifact.  No shipped scenario declares a prognosis pipeline, so the
``two_player`` system is also run under ``predict`` with ``prediction.pipeline``
added, as the scenario ``two_player_pipeline``.  Every shipped ``invert`` scenario
has one state and one control, so ``invert_logistic`` is also run with the
two-state, two-control system ``INVERT_TWO_STATE``, as ``invert_two_state``.  The
shipped repdyn runs almost never project, so ``repdyn_heisenberg`` is also run at
``dt`` 0.05 with the four controls and mixed symbols of ``REPDYN_PROJECTING`` (the
whole ``repdyn`` section), as ``repdyn_projecting``, where about one step in five
projects onto the variety::

    <scenario> <command> <exit code> <file name> <sha256>

A run that writes no artifact prints ``-`` for the file name and digest.  The
``tactica`` package is imported from this checkout's ``src/``, so running the
script in two checkouts and diffing the outputs shows whether a change moved
any output byte or exit code::

    python tools/artifact_digests.py > digests.txt

With ``--generated`` the script runs the same matrix and prints, instead, one line
per function that ``expr.Emitter.function`` compiles during each run, in the order
they are compiled::

    <scenario> <command> <function> <sha256>

The digest covers each line of the function's source with the leaf its faults name.
The ``_o<n>`` names the emitter binds objects to are renumbered in order of first
use, so two checkouts whose emitters bind a different number of objects print the
same line for the same code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tactica import cli, expr  # noqa: E402
from tactica.scenario import ScenarioError, load_scenario  # noqa: E402


PIPELINE = {"horizon": 0.05, "assumed_eps": [["0.1"], ["-0.2"]]}
INVERT_TWO_STATE = {"rhs": ["x2", "u1*x1 - u2*x2 + 0.1*x1*x2"], "x0": [1.0, 0.0],
                    "control_dim": 2, "control": ["-1.0", "0.5*cos(t)"], "matrix_dim": 3,
                    "designated_slot": 1}
REPDYN_PROJECTING = {
    "mode": "integrate", "class": "heisenberg", "tolerance": 1.0e-9, "threshold": 1.0e-5,
    "tuple": [[[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
              [[0, 0, 1], [0, 0, 0], [0, 0, 0]]],
    "control": ["0.3*sin(t)", "0.5*(1.0 + 0.2*sin(0.7*t))", "-0.5*(1.0 + 0.2*sin(0.7*t))",
                "0.3*sin(1.3*t)"],
    "symbols": [[{"coeff": 1.0, "word": [f"x{x}"], "control": c} for x, c in pairs]
                for pairs in ([(1, 0), (2, 1)], [(1, 2), (2, 3)], [(3, 0), (3, 3)])]}
# (shipped scenario, variant name, command, the top-level sections the variant replaces)
VARIANTS = [("two_player", "two_player_pipeline", "predict",
             {"prediction": {"pipeline": PIPELINE}}),
            ("invert_logistic", "invert_two_state", "invert",
             {"run": {"t0": 0.0, "t1": 2.0, "dt": 0.001}, "invert": INVERT_TWO_STATE}),
            ("repdyn_heisenberg", "repdyn_projecting", "repdyn",
             {"run": {"t0": 0.0, "t1": 10.0, "dt": 0.05}, "repdyn": REPDYN_PROJECTING})]

BOUND = re.compile(r"\b_o\d+\b")     # a name expr.Emitter.ref binds


def function_digest(lines) -> tuple[str, str]:
    """The name of the function ``lines`` define, each ``(source, leaf)``, and the sha256
    of its lines with their leaves, its ``_o<n>`` names renumbered in order of first use."""
    names: dict[str, str] = {}

    def renumber(match: re.Match) -> str:
        return names.setdefault(match.group(), f"_o{len(names)}")

    text = "\n".join(f"{BOUND.sub(renumber, source)}\t{leaf}" for source, leaf in lines)
    return lines[0][0].split()[1].partition("(")[0], hashlib.sha256(text.encode()).hexdigest()


def write_variant(directory: Path, source: str, name: str, changes: dict) -> Path:
    """The scenario file ``name`` in ``directory``: the shipped ``source`` with the
    sections of ``changes`` in place of its own."""
    doc = yaml.safe_load((ROOT / "scenarios" / f"{source}.yaml").read_text())
    scenario = directory / f"{name}.yaml"
    scenario.write_text(yaml.safe_dump({**doc, **changes}))
    return scenario


def digests(scenario: Path, commands=None, generated: list | None = None) -> list[str]:
    """The artifact lines of ``scenario`` under ``commands`` (its supported commands by
    default); with ``generated``, the list the emitter appends each function's lines to,
    the function lines instead."""
    if commands is None:
        try:
            commands = load_scenario(scenario).supported_commands()
        except ScenarioError:
            commands = []
    lines = []
    for command in commands:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            sink = io.StringIO()
            if generated is not None:
                generated.clear()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([command, "--scenario", str(scenario), "--out", str(out)])
            if generated is not None:
                lines += [f"{scenario.stem} {command} {' '.join(function_digest(function))}"
                          for function in generated]
                continue
            files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
            for path in files:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{scenario.stem} {command} {code} "
                             f"{path.relative_to(out).as_posix()} {digest}")
            if not files:
                lines.append(f"{scenario.stem} {command} {code} - -")
    return lines


def main(argv: list[str]) -> int:
    generated = None
    if argv == ["--generated"]:
        generated, function = [], expr.Emitter.function

        def recording(self, lines):
            generated.append(list(lines))
            return function(self, lines)

        expr.Emitter.function = recording
    elif argv:
        print("usage: artifact_digests.py [--generated]", file=sys.stderr)
        return 2
    for scenario in sorted((ROOT / "scenarios").glob("*.yaml")):
        for line in digests(scenario, generated=generated):
            print(line, flush=True)
    for source, name, command, changes in VARIANTS:
        with tempfile.TemporaryDirectory() as tmp:
            scenario = write_variant(Path(tmp), source, name, changes)
            for line in digests(scenario, [command], generated):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
