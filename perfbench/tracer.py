"""Spans around the calls into each tactica module, recorded from outside the program.

Every target is a public function (or a ``Scenario`` method).  A function is
patched under every name a tactica module binds it to, so callers that
imported it by name (``cli`` imports ``simulate``, ``integrate_repdyn``, ...)
reach the wrapper too.  A target that no longer exists is skipped and the
metrics built on it are left out; nothing under ``src/`` changes.

Two recorders share the target table:

* ``SetupClock`` (untraced runs) times only the set-up calls -- scenario
  load, build and plan methods, expression compiles -- counting the
  outermost call on each thread, for the ``setup_s`` end-to-end metric.
* ``Tracer`` (traced runs) keeps every span (name, start, end, parent) in
  memory and writes them when the run ends; ``summarize`` turns them into the
  per-layer metrics, self time being a span's duration minus the part of it
  its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict


def _steps(result, bound):
    return len(result.t) - 1


def _windows(result, bound):
    runs = result if isinstance(result, list) else [result]
    return sum(len(r.windows) for r in runs)


def _segments(result, bound):
    per_segment = int(round(bound.arguments["horizon"] / bound.arguments["dt"]))
    return int(result.short_mask.sum()) // per_segment if per_segment else 0


def _repdyn_steps(result, bound):
    return len(result.times) - 1


def _transitions(result, bound):
    return len(result.transitions)


def _one(result, bound):
    return 1


# (module, attribute or Class.method, span name, counter name, counter)
TARGETS = (
    ("tactica.scenario", "load_scenario", "scenario.load", None, None),
    ("tactica.scenario", "Scenario.build_system", "scenario.build", None, None),
    ("tactica.scenario", "Scenario.verbalization_plan", "scenario.build", None, None),
    ("tactica.scenario", "Scenario.tactics_plan", "scenario.build", None, None),
    ("tactica.scenario", "Scenario.prediction_plan", "scenario.build", None, None),
    ("tactica.scenario", "Scenario.repdyn_plan", "scenario.build", None, None),
    ("tactica.scenario", "Scenario.invert_plan", "scenario.build", None, None),
    ("tactica.expr", "compile_vector", "expr.compile", None, None),
    ("tactica.expr", "compile_expression", "expr.compile", "expr.compiles", _one),
    ("tactica.games", "simulate", "games.integrate", "games.steps", _steps),
    ("tactica.games", "coalition_simulate", "games.integrate", "games.steps", _steps),
    ("tactica.games", "check_indeterminate_invariants", "games.invariants", None, None),
    ("tactica.verbalization", "windows_from_trajectory", "verbalization.windows", None, None),
    ("tactica.verbalization", "evaluate_functionals", "verbalization.windows", None, None),
    ("tactica.verbalization", "detect_partition", "verbalization.partition", None, None),
    ("tactica.verbalization", "fit_recurrence", "verbalization.recurrence", None, None),
    ("tactica.verbalization", "verify_recurrence", "verbalization.recurrence", None, None),
    ("tactica.tactics", "run_commented_game", "tactics.run", "tactics.windows", _windows),
    ("tactica.tactics", "run_synthesized", "tactics.run", "tactics.windows", _windows),
    ("tactica.prediction", "unravel_by_filtering", "prediction.unravel", None, None),
    ("tactica.prediction", "strategic_pipeline", "prediction.pipeline",
     "prediction.segments", _segments),
    ("tactica.algebra", "weyl_eval_tuple", "algebra.rhs", None, None),
    ("tactica.algebra", "relation_residual", "algebra.residual", None, None),
    ("tactica.algebra", "poly_eval", "algebra.residual", None, None),
    ("tactica.repdyn", "integrate_repdyn", "repdyn.integrate", "repdyn.steps", _repdyn_steps),
    ("tactica.repdyn", "project_to_variety", "repdyn.project", None, None),
    ("tactica.repdyn", "run_tactical_repdyn", "repdyn.tactical", "repdyn.transitions",
     _transitions),
    ("tactica.repdyn", "solve_inverse_problem", "repdyn.inverse", None, None),
    ("tactica.repdyn", "integrate_scalar_reference", "repdyn.inverse", None, None),
    ("tactica.exports", "write_json", "exports.write", None, None),
    ("tactica.exports", "write_csv", "exports.write", None, None),
    ("tactica.exports", "write_trajectory_csv", "exports.write", None, None),
    ("tactica.exports", "write_trajectory_json", "exports.write", None, None),
    ("tactica.exports", "write_windows_csv", "exports.write", None, None),
    ("tactica.exports", "write_windows_json", "exports.write", None, None),
    ("tactica.exports", "write_comments_jsonl", "exports.write", None, None),
    ("tactica.exports", "write_residuals_csv", "exports.write", None, None),
    ("tactica.exports", "write_prognosis_json", "exports.write", None, None),
)

SETUP_SPANS = ("scenario.load", "scenario.build", "expr.compile")


def patch(module_name: str, qualname: str, make_wrapper) -> bool:
    """Replace a function by ``make_wrapper(original)`` wherever tactica binds it."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        original = getattr(owner, "__dict__", {}).get(attr)
        if not callable(original):
            return False
        setattr(owner, attr, make_wrapper(original))
        return True
    original = getattr(module, attr, None)
    if not callable(original):
        return False
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name == "tactica" or name.startswith("tactica."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return True


class SetupClock:
    """Sums the outermost set-up calls per thread; nothing else is wrapped."""

    def __init__(self):
        self.seconds = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self) -> list[str]:
        missing = []
        for module, qualname, span, _, _ in TARGETS:
            if span in SETUP_SPANS and not patch(module, qualname, self._wrap):
                missing.append(f"{module}.{qualname}")
        return missing

    def _wrap(self, fn):
        local = self._local

        def timed(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            if depth:
                local.depth = depth + 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    local.depth = depth
            local.depth = 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                local.depth = 0
                with self._lock:
                    self.seconds += elapsed

        return timed

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """In-memory span recorder; spans are written out once, at the end of the run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []          # [name index, parent, start ns, end ns]
        self.counters: dict[str, int] = defaultdict(int)
        self.broken: set[str] = set()
        self.installed: set[str] = set()
        self._name_ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = -1

    def install(self) -> list[str]:
        missing = []
        for module, qualname, span, counter, count in TARGETS:
            if patch(module, qualname,
                     lambda fn, s=span, c=counter, f=count: self._wrap(s, fn, c, f)):
                self.installed.add(span)
                if counter:
                    self.installed.add(counter)
            else:
                missing.append(f"{module}.{qualname}")
        return missing

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            ident = self._name_ids.setdefault(name, len(self._name_ids))
            if ident == len(self.names):
                self.names.append(name)
            index = len(self.spans)
            # Work handed to another thread (the CLI batch pool) starts with an
            # empty stack; it belongs to the invocation that is open.
            self.spans.append([ident, stack[-1] if stack else self._root, 0, 0])
        stack.append(index)
        self.spans[index][2] = time.perf_counter_ns()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack().pop()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter, count):
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter and counter not in self.broken:
                try:
                    value = count(result, signature.bind(*args, **kwargs))
                except (AttributeError, TypeError, KeyError, ValueError):
                    self.broken.add(counter)
                else:
                    with self._lock:
                        self.counters[counter] += value
            return result

        return traced

    def call(self, name, fn, *args):
        """Run one top-level call (a CLI invocation) as a root span."""
        index = self._open(name)
        self._root = index
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._root = -1

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": dict(self.counters),
                "broken": sorted(self.broken), "installed": sorted(self.installed)}


# ---------------------------------------------------------------------------
# Summary (computed from the written spans, in the benchmark process)
# ---------------------------------------------------------------------------

def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def span_totals(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy ms (outermost calls of that name), self ms."""
    names = trace["names"]
    spans = trace["spans"]
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for ident, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = {n: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0} for n in names}
    for index, (ident, parent, start, end) in enumerate(spans):
        entry = totals[names[ident]]
        entry["calls"] += 1
        entry["self_ms"] += (end - start - _covered(start, end, children.get(index, []))) / 1e6
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != ident:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["busy_ms"] += (end - start) / 1e6
    return totals


def per_layer(trace: dict, import_ms: float, artifact_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each as (value, unit).

    A metric is left out when a function it rests on no longer exists or a
    counter could not be read from a result; a layer that does no work on a
    workload reads 0.
    """
    totals = span_totals(trace)
    have = set(trace["installed"]) - set(trace["broken"])
    counters = trace["counters"]
    out: dict[str, tuple[float, str]] = {"cli.import_ms": (import_ms, "ms")}

    def t(name, key="busy_ms"):
        return totals.get(name, {}).get(key, 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def per(a, b):
        return a / b if b else 0.0

    def put(metric, needs, value, unit):
        if all(n in have for n in needs):
            out[metric] = (float(value()), unit)

    out["cli.self_ms"] = (t("cli.main", "self_ms"), "ms")
    put("scenario.load_ms", ["scenario.load"], lambda: t("scenario.load"), "ms")
    put("scenario.build_ms", ["scenario.build"], lambda: t("scenario.build"), "ms")
    put("scenario.loads", ["scenario.load"], lambda: calls("scenario.load"), "count")
    put("expr.compile_ms", ["expr.compile"], lambda: t("expr.compile"), "ms")
    put("expr.compiles", ["expr.compiles"], lambda: counters.get("expr.compiles", 0), "count")
    steps = counters.get("games.steps", 0)
    put("games.integrate_ms", ["games.integrate"], lambda: t("games.integrate"), "ms")
    put("games.calls", ["games.integrate"], lambda: calls("games.integrate"), "count")
    put("games.steps", ["games.steps"], lambda: steps, "count")
    # Four RK stages per step, plus the probe and final-sample stages of each call.
    put("games.stage_us", ["games.integrate", "games.steps"],
        lambda: per(1e3 * t("games.integrate"), 4 * steps + 2 * calls("games.integrate")), "us")
    put("games.invariants_ms", ["games.invariants"], lambda: t("games.invariants"), "ms")
    put("verbalization.windows_ms", ["verbalization.windows"],
        lambda: t("verbalization.windows"), "ms")
    put("verbalization.partition_ms", ["verbalization.partition"],
        lambda: t("verbalization.partition"), "ms")
    put("verbalization.recurrence_ms", ["verbalization.recurrence"],
        lambda: t("verbalization.recurrence"), "ms")
    put("tactics.self_ms", ["tactics.run"], lambda: t("tactics.run", "self_ms"), "ms")
    put("tactics.windows", ["tactics.windows"], lambda: counters.get("tactics.windows", 0),
        "count")
    put("prediction.unravel_ms", ["prediction.unravel"], lambda: t("prediction.unravel"), "ms")
    put("prediction.pipeline_self_ms", ["prediction.pipeline"],
        lambda: t("prediction.pipeline", "self_ms"), "ms")
    put("prediction.segments", ["prediction.segments"],
        lambda: counters.get("prediction.segments", 0), "count")
    put("algebra.rhs_calls", ["algebra.rhs"], lambda: calls("algebra.rhs"), "count")
    put("algebra.rhs_us", ["algebra.rhs"],
        lambda: per(1e3 * t("algebra.rhs"), calls("algebra.rhs")), "us")
    put("algebra.residual_ms", ["algebra.residual"], lambda: t("algebra.residual"), "ms")
    rsteps = counters.get("repdyn.steps", 0)
    put("repdyn.integrate_self_ms", ["repdyn.integrate"],
        lambda: t("repdyn.integrate", "self_ms"), "ms")
    put("repdyn.steps", ["repdyn.steps"], lambda: rsteps, "count")
    put("repdyn.step_us", ["repdyn.integrate", "repdyn.steps"],
        lambda: per(1e3 * t("repdyn.integrate"), rsteps), "us")
    put("repdyn.projections", ["repdyn.project"], lambda: calls("repdyn.project"), "count")
    put("repdyn.projection_us", ["repdyn.project"],
        lambda: per(1e3 * t("repdyn.project"), calls("repdyn.project")), "us")
    put("repdyn.projections_per_step", ["repdyn.project", "repdyn.steps"],
        lambda: per(calls("repdyn.project"), rsteps), "ratio")
    put("repdyn.tactical_self_ms", ["repdyn.tactical"],
        lambda: t("repdyn.tactical", "self_ms"), "ms")
    put("repdyn.transitions", ["repdyn.transitions"],
        lambda: counters.get("repdyn.transitions", 0), "count")
    put("repdyn.inverse_ms", ["repdyn.inverse"], lambda: t("repdyn.inverse"), "ms")
    put("exports.write_ms", ["exports.write"], lambda: t("exports.write"), "ms")
    out["exports.bytes"] = (float(artifact_bytes), "bytes")
    put("exports.mb_per_s", ["exports.write"],
        lambda: per(artifact_bytes / 1e6, t("exports.write") / 1e3), "MB/s")
    return out
