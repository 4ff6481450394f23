"""Deterministic artifact writers.

All floating-point output is printed with 17 significant digits so values
round-trip exactly; identical inputs therefore produce byte-identical CSV and
JSON artifacts.  Complex matrix entries are written as [re, im] pairs.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

import numpy as np

from .games import StateTrajectory
from .tactics import CommentState
from .verbalization import WindowRecord


def format_float(value: float) -> str:
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {value!r} cannot be exported")
    return f"{value:.17g}"


def _float_rows(block: np.ndarray, sep: str) -> Iterable[str]:
    """The rows of a 2-D float block, each as its exported cells joined by ``sep``.

    Finiteness is checked once for the whole block; a non-finite entry raises
    the error :func:`format_float` gives for the first one in row order.
    """
    finite = np.isfinite(block)
    if not finite.all():
        format_float(block[~finite][0])
    return (sep.join(map("{:.17g}".format, row)) for row in block.tolist())


def _serialize(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64 and value.ndim in (1, 2):
            rows = [f"[{row}]" for row in _float_rows(np.atleast_2d(value), ", ")]
            return rows[0] if value.ndim == 1 else f"[{', '.join(rows)}]"
        return _serialize(value.tolist())
    if isinstance(value, Mapping):
        items = ", ".join(f"{json.dumps(str(k), ensure_ascii=False)}: {_serialize(v)}"
                          for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_serialize(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_json(value) -> str:
    return _serialize(value) + "\n"


def write_json(value, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(dumps_json(value))


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def write_float_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Side-by-side 2-D float blocks as CSV, stacked and formatted 256 rows at a time
    so that neither a copy of the whole table nor its text is held at once."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), 256):
            chunk = np.hstack([c[start:start + 256] for c in columns])
            fh.writelines(row + "\n" for row in _float_rows(chunk, ","))


def write_trajectory_csv(traj: StateTrajectory, path) -> None:
    blocks = {"phi": traj.phi, "u": traj.u, "eps": traj.eps, "u0": traj.u0, "lambda": traj.lam}
    header = ["t"] + [f"{name}_{i}" for name, b in blocks.items() for i in range(b.shape[1])]
    write_float_csv(path, header, [traj.t[:, None], *blocks.values()])


def write_trajectory_json(traj: StateTrajectory, path) -> None:
    write_json({"t": traj.t, "phi": traj.phi, "u": traj.u, "eps": traj.eps, "u0": traj.u0,
                "lambda": traj.lam}, path)


# ---------------------------------------------------------------------------
# Windows and comment streams
# ---------------------------------------------------------------------------

def write_windows_csv(windows: Sequence[WindowRecord], path) -> None:
    """n, the window's times, omega and v through the block formatter, then the cell label."""
    header = ["n", "t_start", "t_end"]
    if windows:
        header += ([f"omega_{i}" for i in range(np.size(windows[0].omega))]
                   + [f"v_{i}" for i in range(np.size(windows[0].v))])
    block = np.array([[w.index, w.t_start, w.t_end, *np.atleast_1d(w.omega),
                       *np.atleast_1d(w.v)] for w in windows], dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header + ["cell_label"]) + "\n")
        fh.writelines(f"{row},{w.cell_label or ''}\n"
                      for row, w in zip(_float_rows(block, ","), windows))


def write_windows_json(windows: Sequence[WindowRecord], path) -> None:
    write_json([{"n": w.index, "t_start": w.t_start, "t_end": w.t_end,
                 "omega": np.atleast_1d(w.omega), "v": np.atleast_1d(w.v),
                 "cell_label": w.cell_label} for w in windows], path)


def write_comments_jsonl(comments: Sequence[CommentState], path,
                         delta_label: str | None = None) -> None:
    """One JSON record per window: n, theta, class_label?, eta?, delta_label?"""
    with open(path, "w", newline="") as fh:
        for c in comments:
            record: dict = {"n": c.index}
            if c.vector is not None:
                record["theta"] = c.vector
            if c.class_label is not None:
                record["class_label"] = c.class_label
            if c.eta is not None:
                record["eta"] = c.eta
            if delta_label is not None:
                record["delta_label"] = delta_label
            fh.write(_serialize(record) + "\n")


# ---------------------------------------------------------------------------
# Representative dynamics
# ---------------------------------------------------------------------------

def matrix_tuple_to_json(matrices: Sequence[np.ndarray], time: float) -> dict:
    """The tuple at ``time``, each complex entry an [re, im] pair."""
    stacked = np.asarray(matrices, dtype=complex)
    return {"t": time, "matrices": np.stack([stacked.real, stacked.imag], -1)}


def write_residuals_csv(times: np.ndarray, residuals: np.ndarray, path) -> None:
    write_float_csv(path, ["t", "residual"], [np.column_stack([times, residuals])])


# ---------------------------------------------------------------------------
# Prognosis reports
# ---------------------------------------------------------------------------

def write_prognosis_json(report, path) -> None:
    """One record per sample, its t, long_term, short_term and blended rows each formatted
    as one whole-run block; short_term reads null outside ``short_mask``."""
    mask = report.short_mask
    short = np.where(mask[:, None], report.short_term, 0.0)
    rows = (_float_rows(block, ", ") for block in (report.t[:, None], report.long_term,
                                                   short, report.blended))
    records = (f'{{"t": {t}, "long_term": [{long}], "short_term": '
               f'{f"[{s}]" if m else "null"}, "blended": [{b}]}}'
               for t, long, s, b, m in zip(*rows, mask.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("[" + ", ".join(records) + "]\n")
