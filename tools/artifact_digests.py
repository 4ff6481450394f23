"""Print the sha256 of every artifact the shipped scenarios produce.

Runs every scenario in ``scenarios/`` under every command it supports through
``tactica.cli.main``, each into its own temporary directory, and prints one
line per artifact.  No shipped scenario declares a prognosis pipeline, so the
``two_player`` system is also run under ``predict`` with ``prediction.pipeline``
added, as the scenario ``two_player_pipeline``::

    <scenario> <command> <exit code> <file name> <sha256>

A run that writes no artifact prints ``-`` for the file name and digest.  The
``tactica`` package is imported from this checkout's ``src/``, so running the
script in two checkouts and diffing the outputs shows whether a change moved
any output byte or exit code::

    python tools/artifact_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tactica import cli  # noqa: E402
from tactica.scenario import ScenarioError, load_scenario  # noqa: E402


PIPELINE = {"horizon": 0.05, "assumed_eps": [["0.1"], ["-0.2"]]}


def digests(scenario: Path, commands=None) -> list[str]:
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
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([command, "--scenario", str(scenario), "--out", str(out)])
            files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
            for path in files:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{scenario.stem} {command} {code} "
                             f"{path.relative_to(out).as_posix()} {digest}")
            if not files:
                lines.append(f"{scenario.stem} {command} {code} - -")
    return lines


def main() -> int:
    for scenario in sorted((ROOT / "scenarios").glob("*.yaml")):
        for line in digests(scenario):
            print(line, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        doc = yaml.safe_load((ROOT / "scenarios" / "two_player.yaml").read_text())
        scenario = Path(tmp) / "two_player_pipeline.yaml"
        scenario.write_text(yaml.safe_dump({**doc, "prediction": {"pipeline": PIPELINE}}))
        for line in digests(scenario, ["predict"]):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
