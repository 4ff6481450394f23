"""Print the sha256 of every artifact the shipped scenarios produce.

Runs every scenario in ``scenarios/`` under every command it supports through
``tactica.cli.main``, each into its own temporary directory, and prints one
line per artifact::

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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tactica import cli  # noqa: E402
from tactica.scenario import ScenarioError, load_scenario  # noqa: E402


def digests(scenario: Path) -> list[str]:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
