"""The four benchmark workloads: which scenarios run, and how generated inputs are made.

A workload is a list of operations, each one scenario run through one
``tactica.cli.main`` call.  Generated scenarios are written as YAML
into the run's work directory; the program sees only those files.  The
parameters behind each generated file stay with the operation so that the
checks can compare the artifacts against closed forms computed apart from
the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

WORKLOADS = ("interactive-long", "interactive-short", "repdyn-flow", "repdyn-project")

# (command, shipped scenario stem, expected exit code)
INTERACTIVE_LONG = (
    ("simulate", "coalition_pair", 0),
    ("simulate", "linear_decay", 0),
    ("simulate", "logistic_sin", 0),
    ("simulate", "rotation_invariant", 0),
    ("simulate", "two_player", 0),
    ("verbalize", "constant_eps", 0),
    ("verbalize", "sine_partition", 0),
    ("verbalize", "verbalize_fit", 0),
    ("predict", "filter_unravel", 0),
    ("tactics", "tactics_coupled", 0),
)

REPDYN_FLOW = (
    ("repdyn", "repdyn_heisenberg", 0),
    # No transition is declared for the class the run leaves: exit 3 is the
    # documented, successful outcome of this scenario.
    ("repdyn", "repdyn_stranded", 3),
    ("repdyn", "repdyn_transition", 0),
    ("invert", "invert_lifted", 0),
    ("invert", "invert_logistic", 0),
)

# interactive-short: (command, kind of generated scenario), one invocation each.
# The CLI's ``--batch`` pool is not used: a round's process is pinned to one
# CPU so that the speed samples describe the CPU the work ran on (child.py),
# and the pool's two threads would only take turns on it.
SHORT_RUNS = (
    ("predict", "pipeline"), ("predict", "pipeline"),
    ("tactics", "commented"), ("tactics", "synthesis"),
    ("simulate", "linear"), ("simulate", "linear"),
    ("simulate", "linear"), ("simulate", "linear"),
    ("tactics", "commented"), ("tactics", "synthesis"),
    ("simulate", "linear"), ("simulate", "linear"),
)
SHORT_DT = 1e-3
PIPELINE_T1 = 2.0
PIPELINE_HORIZON = 0.02      # 100 short-term segments of 20 steps
TACTICS_T1 = 1.0
TACTICS_WINDOWS = 50         # 50 window integrations of 20 steps
SIMULATE_T1 = 0.2            # 200 steps

# repdyn-project: Heisenberg integrate runs of 200 steps at dt 0.05.
PROJECT_COUNT = 12
PROJECT_DT = 0.05
PROJECT_T1 = 10.0
PROJECT_AMPLITUDE = 2.0
PROJECT_TOLERANCE = 1e-9
PROJECT_THRESHOLD = 1e-5


@dataclass
class Op:
    """One scenario run: its command, input, output directory and expected outcome."""

    command: str
    name: str
    scenario: Path
    out: Path
    expect_exit: int = 0
    check: str = ""                   # key into checks.CHECKS; the name when empty
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.check = self.check or self.name

    @property
    def argv(self) -> list[str]:
        return [self.command, "--scenario", str(self.scenario), "--out", str(self.out)]


def build(name: str, seed: int, root: Path, work: Path) -> list[Op]:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    out = work / "out"
    gen = work / "inputs"
    gen.mkdir(parents=True, exist_ok=True)
    if name == "interactive-long":
        return _singles(INTERACTIVE_LONG, root, out)
    if name == "repdyn-flow":
        return _singles(REPDYN_FLOW, root, out)
    if name == "interactive-short":
        return _interactive_short(seed, gen, out)
    if name == "repdyn-project":
        return _repdyn_project(seed, gen, out)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _singles(table, root: Path, out: Path) -> list[Op]:
    return [Op(command, stem, root / "scenarios" / f"{stem}.yaml", out / stem, code)
            for command, stem, code in table]


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    """A coefficient as the expression grammar reads it (no signed literals)."""
    return f"({x!r})" if x < 0 else repr(x)


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _write(path: Path, doc: dict) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def _linear_system(rng: random.Random) -> tuple[dict, dict]:
    """A stable two-dimensional affine system with constant hidden parameters.

    phi' = A phi + diag(c) phi + b, so phi(t) = expm(M t) applied to the
    augmented state; diagonal entries of A + diag(c) are at most -0.7 and the
    off-diagonal ones at most 0.3 in size, so every eigenvalue has real part
    at most -0.4.
    """
    a = [[_draw(rng, -1.5, -1.0), _draw(rng, -0.3, 0.3)],
         [_draw(rng, -0.3, 0.3), _draw(rng, -1.5, -1.0)]]
    c = [_draw(rng, -0.3, 0.3), _draw(rng, -0.3, 0.3)]
    b = [_draw(rng, -1.0, 1.0), _draw(rng, -1.0, 1.0)]
    phi0 = [_draw(rng, -1.0, 1.0), _draw(rng, -1.0, 1.0)]
    system = {
        "dim": 2,
        "initial": phi0,
        "dynamics": [f"{_num(a[0][0])}*phi[0] + {_num(a[0][1])}*phi[1] + u[0]",
                     f"{_num(a[1][0])}*phi[0] + {_num(a[1][1])}*phi[1] + u[1]"],
        "players": [
            {"signal": [_num(b[0])],
             "coupling": ["u0[0] + eps[0]*phi[0]"],
             "epsilon": {"truth": [_num(c[0])], "box": [[-1.0, 1.0]]}},
            {"signal": [_num(b[1])],
             "coupling": ["u0[0] + eps[0]*phi[1]"],
             "epsilon": {"truth": [_num(c[1])], "box": [[-1.0, 1.0]]}},
        ],
    }
    params = {"a": a, "c": c, "b": b, "phi0": phi0}
    return system, params


def _pipeline_doc(rng, title):
    system, params = _linear_system(rng)
    doc = {"schema": 1, "title": title,
           "run": {"t0": 0.0, "t1": PIPELINE_T1, "dt": SHORT_DT},
           "system": system,
           # The assumed hidden parameters are the truth, so the prognosis is exact.
           "prediction": {"pipeline": {"horizon": PIPELINE_HORIZON,
                                       "assumed_eps": [p["epsilon"]["truth"]
                                                       for p in system["players"]]}}}
    params["t1"] = PIPELINE_T1
    return doc, params


def _simulate_doc(rng, title):
    system, params = _linear_system(rng)
    params["t1"] = SIMULATE_T1
    return {"schema": 1, "title": title,
            "run": {"t0": 0.0, "t1": SIMULATE_T1, "dt": SHORT_DT},
            "system": system}, params


def _tactics_base(rng, title):
    k = _draw(rng, 0.5, 2.0)
    return {"schema": 1, "title": title,
            "run": {"t0": 0.0, "t1": TACTICS_T1, "dt": SHORT_DT},
            "system": {"dim": 1, "initial": [_draw(rng, -1.0, 1.0)],
                       "dynamics": [f"{k!r}*(lambda[0] - phi[0])"],
                       "players": [{"signal": ["0.0"], "coupling": ["u0[0]"]}]},
            "verbalization": {"windows": {"start": 0.0, "stop": TACTICS_T1,
                                          "count": TACTICS_WINDOWS},
                              "omega": [{"kind": "mean", "source": "state"}],
                              "v": [{"kind": "mean", "source": "u0"}]}}


def _commented_doc(rng, title):
    doc = _tactics_base(rng, title)
    r = _draw(rng, 0.85, 0.99)
    theta0 = _draw(rng, 0.5, 2.0)
    doc["tactics"] = {"mode": "commented", "theta0": [theta0], "rule": [f"{r!r}*theta[0]"]}
    return doc, {"matrix": [[r]], "theta0": [theta0]}


def _synthesis_doc(rng, title):
    doc = _tactics_base(rng, title)
    # Row sums below 0.95 keep the linear recursion contracting.
    m = [[_draw(rng, 0.5, 0.8), _draw(rng, 0.0, 0.15)],
         [_draw(rng, 0.0, 0.15), _draw(rng, 0.5, 0.8)]]
    theta0 = [_draw(rng, 0.5, 2.0), _draw(rng, 0.5, 2.0)]
    doc["tactics"] = {"mode": "synthesis", "games": [
        {"theta0": [theta0[0]], "mask": [1, 2],
         "form": [f"{m[0][0]!r}*theta1[0] + {m[0][1]!r}*theta2[0]"]},
        {"theta0": [theta0[1]], "mask": [1, 2],
         "form": [f"{m[1][0]!r}*theta1[0] + {m[1][1]!r}*theta2[0]"]},
    ]}
    return doc, {"matrix": m, "theta0": theta0}


_SHORT_KINDS = {
    "pipeline": (_pipeline_doc, "pipeline"),
    "linear": (_simulate_doc, "linear"),
    "commented": (_commented_doc, "geometric"),
    "synthesis": (_synthesis_doc, "geometric"),
}


def _interactive_short(seed: int, gen: Path, out: Path) -> list[Op]:
    ops = []
    for k, (command, kind) in enumerate(SHORT_RUNS):
        stem = f"{kind}_{k:02d}"
        rng = random.Random(f"interactive-short:{seed}:{stem}")
        make, check = _SHORT_KINDS[kind]
        doc, params = make(rng, stem)
        ops.append(Op(command, stem, _write(gen / f"{stem}.yaml", doc), out / stem, 0,
                      check, params))
    return ops


def heisenberg_doc(rng: random.Random, title: str, dim: int = 3,
                   conjugate: float = 0.0) -> tuple[dict, dict]:
    """A Heisenberg integrate scenario whose flow is a derivation of the algebra.

    X1' = a X1 + b X2, X2' = -b X1 + d X2, X3' = (a + d) X3 keeps
    [X1, X2] = X3 and [X1, X3] = [X2, X3] = 0, so the exact flow stays on the
    relation variety.  The fourth-order step leaves it by O(dt^5) per step;
    with the rotation rate b of size PROJECT_AMPLITUDE at dt 0.05 that raw
    residual exceeds the 1e-9 tolerance on nearly every step, so nearly every
    step is projected.  ``dim`` is a multiple of 3 (a block sum of the 3x3
    representation); ``conjugate`` > 0 conjugates the tuple by
    I + conjugate * N(0, 1).  Returns the document and the drawn parameters,
    from which the checks compute the exact flow.
    """
    alpha, beta = _draw(rng, 0.5, 1.5), _draw(rng, 0.5, 1.5)

    def unit(i, j):
        return [[1.0 if (r, c) == (i, j) else 0.0 for c in range(dim)] for r in range(dim)]

    def block_sum(i, j, scale):
        mats = [unit(3 * k + i, 3 * k + j) for k in range(dim // 3)]
        return [[scale * sum(m[r][c] for m in mats) for c in range(dim)] for r in range(dim)]

    tuple_ = [block_sum(0, 1, alpha), block_sum(1, 2, beta), block_sum(0, 2, alpha * beta)]
    if conjugate:
        import numpy as np
        p = np.eye(dim) + conjugate * np.array(
            [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(dim)])
        p_inv = np.linalg.inv(p)
        tuple_ = [(p @ np.array(x) @ p_inv).tolist() for x in tuple_]
    w = [_draw(rng, 0.5, 2.0) for _ in range(3)]
    ph = [_draw(rng, 0.0, 6.283185) for _ in range(3)]
    sign = rng.choice((1.0, -1.0))
    rate = f"(1.0 + 0.2*sin({w[1]!r}*t + {ph[1]!r}))"
    control = [f"0.3*sin({w[0]!r}*t + {ph[0]!r})", f"{_num(PROJECT_AMPLITUDE * sign)}*{rate}",
               f"{_num(-PROJECT_AMPLITUDE * sign)}*{rate}",
               f"0.3*sin({w[2]!r}*t + {ph[2]!r})"]

    def term(letter, control):
        return {"coeff": 1.0, "word": [letter], "control": control}

    symbols = [[term("x1", 0), term("x2", 1)],
               [term("x1", 2), term("x2", 3)],
               [term("x3", 0), term("x3", 3)]]
    doc = {"schema": 1, "title": title,
           "run": {"t0": 0.0, "t1": PROJECT_T1, "dt": PROJECT_DT},
           "repdyn": {"mode": "integrate", "class": "heisenberg", "tuple": tuple_,
                      "control": control, "symbols": symbols,
                      "tolerance": PROJECT_TOLERANCE, "threshold": PROJECT_THRESHOLD}}
    params = {"alpha": alpha, "beta": beta, "w": w, "ph": ph,
              "rotation": PROJECT_AMPLITUDE * sign, "t1": PROJECT_T1,
              "tolerance": PROJECT_TOLERANCE}
    return doc, params


def _repdyn_project(seed: int, gen: Path, out: Path) -> list[Op]:
    ops = []
    for k in range(PROJECT_COUNT):
        stem = f"heisenberg_{k:02d}"
        rng = random.Random(f"repdyn-project:{seed}:{stem}")
        doc, params = heisenberg_doc(rng, stem)
        ops.append(Op("repdyn", stem, _write(gen / f"{stem}.yaml", doc), out / stem, 0,
                      "projected", params))
    return ops
