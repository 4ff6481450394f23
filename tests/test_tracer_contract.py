"""The benchmark's traced run reads every per-layer metric ``BENCHMARK.json`` declares.

``perfbench/tracer.py`` builds each per-layer metric on the tactica functions it wraps,
and leaves a metric out when a function it rests on no longer exists.  Renaming or
removing a wrapped function therefore drops declared metrics from a traced run.  The
tracer patches module globals, so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json
import tactica.cli
import tracer
recorder = tracer.Tracer()
missing = recorder.install()
print(json.dumps({"metrics": sorted(tracer.per_layer(recorder.dump(), 0.0, 0)),
                  "missing": missing}))
"""


def test_a_traced_run_reads_every_declared_per_layer_metric():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout.splitlines()[-1])
    # run.py adds the tracing overhead itself, from the untraced round of each pair.
    assert declared - {*traced["metrics"], "trace.overhead_s"} == set(), traced["missing"]
