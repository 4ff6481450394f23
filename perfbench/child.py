"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py PLAN.json

The plan names the source directory, the CLI invocations and whether to
trace.  The interpreter imports ``tactica.cli`` (timed), then issues the
invocations one after another through ``tactica.cli.main`` and writes a
result file: import time, set-up time, exit codes, peak resident set, the
reference-loop samples and, when traced, the recorded spans.

The process is pinned to one CPU, and after the import a sampler thread
times a fixed reference loop on it every ``SAMPLE_PERIOD_S``.  The host's
speed moves by up to half again on a scale of seconds; the samples say how
fast the CPU ran while the workload did, so that ``run.py`` can give times
at a fixed reference speed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
import traceback

SAMPLE_PERIOD_S = 0.1


def reference_loop() -> None:
    """About 1 ms on the machine in README.md: two thirds interpreter
    arithmetic, one third 3x3 numpy products, a mix like tactica's own.
    Beside a busy main thread no sample took over 1.6 ms, so the interpreter
    lock stays with the sampler for a whole sample.

    The mix matters.  Over rounds of one workload, a slowdown of the host
    stretched the rounds about 1.3 times as much (in logarithm) as a purely
    interpreted loop, and about 0.6 times as much as the numpy products alone;
    scaled by this mix, the round times spread least.
    """
    import numpy as np
    x = 0.0
    for i in range(10000):
        x += i * 0.5
    a = np.full((3, 3), 0.1)
    m = a
    for _ in range(170):
        m = m @ a + a


class SpeedSampler(threading.Thread):
    """Times ``reference_loop`` when started, every ``SAMPLE_PERIOD_S`` and when stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.halt = threading.Event()
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def run(self) -> None:
        while not self.halt.wait(SAMPLE_PERIOD_S):
            self.sample()

    def stop(self) -> list[float]:
        self.halt.set()
        self.join()
        self.sample()
        return self.samples


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    # Both threads stay on the CPU the process started on (field 39 of
    # /proc/self/stat), so the samples time the CPU the workload runs on.
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, plan["src"])
    start = time.perf_counter()
    import tactica.cli as cli
    import_s = time.perf_counter() - start
    # Started after the import, whose time the numpy import of the reference
    # loop would otherwise shorten.
    sampler = SpeedSampler()
    sampler.sample()
    sampler.start()

    import tracer
    recorder = tracer.Tracer() if plan["trace"] else tracer.SetupClock()
    missing = recorder.install()

    codes = []
    for argv in plan["invocations"]:
        try:
            code = recorder.call("cli.main", cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is what a CLI user would see: exit 1
            traceback.print_exc()
            code = 1
        codes.append(code)

    result = {
        "reference_s": sampler.stop(),
        "import_s": import_s,
        "codes": codes,
        "missing": missing,
        # ru_maxrss is in kilobytes on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if plan["trace"]:
        result["trace"] = recorder.dump()
    else:
        result["setup_s"] = import_s + recorder.seconds
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
