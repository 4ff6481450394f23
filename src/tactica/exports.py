"""Deterministic artifact writers.

All floating-point output is printed with 17 significant digits so values
round-trip exactly; identical inputs therefore produce byte-identical CSV and
JSON artifacts.  Complex matrix entries are written as [re, im] pairs.

Float arrays pass through one block formatter, :func:`_float_chunks`: a block is
checked for finiteness once, then formatted 256 rows at a time by one ``%``
operation whose template holds a ``%.17g`` per cell.  ``%.17g`` prints through
CPython's one double-to-string routine, as :func:`format_float`'s ``{:.17g}`` does,
so each cell is the string :func:`format_float` gives.  A run's ``trajectory.csv``
and ``trajectory.json`` are written from the same block chunks: the CSV writer
returns them and the JSON writer takes them, so each trajectory value is formatted
once.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

from .games import StateTrajectory
from .tactics import CommentState
from .verbalization import WindowRecord


def format_float(value: float) -> str:
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {value!r} cannot be exported")
    return f"{value:.17g}"


CHUNK_ROWS = 256


def _check_finite(block: np.ndarray) -> None:
    """Raise :func:`format_float`'s error for the first non-finite entry in row order."""
    finite = np.isfinite(block)
    if not finite.all():
        format_float(block[~finite][0])


def _float_chunks(block: np.ndarray, sep: str) -> list[str]:
    """The rows of a 2-D float block, ``CHUNK_ROWS`` at a time: each chunk is its rows
    joined by newlines, each row its exported cells joined by ``sep``.  Finiteness is
    checked once for the whole block; each chunk is one ``%`` operation."""
    _check_finite(block)
    chunks = []
    for start in range(0, len(block), CHUNK_ROWS):
        chunk = block[start:start + CHUNK_ROWS]
        if start == 0 or len(chunk) < CHUNK_ROWS:
            template = "\n".join([sep.join(["%.17g"] * chunk.shape[1])] * len(chunk))
        chunks.append(template % tuple(chunk.ravel().tolist()))
    return chunks


def _float_rows(block: np.ndarray, sep: str) -> list[str]:
    """The rows of :func:`_float_chunks`, one string each."""
    return [row for chunk in _float_chunks(block, sep) for row in chunk.split("\n")]


def _nested(chunks: Sequence[str]) -> str:
    """The JSON list of the rows in ``chunks``, each row a list."""
    return "[[" + "\n".join(chunks).replace("\n", "], [") + "]]" if chunks else "[]"


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
        if value.dtype == np.float64 and value.ndim > 2:
            return "[" + ", ".join(map(_serialize, value)) + "]"
        if value.dtype == np.float64 and value.ndim == 2:
            return _nested(_float_chunks(value, ", "))
        if value.dtype == np.float64 and value.ndim == 1:
            return "[" + "".join(_float_chunks(value[None], ", ")) + "]"
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
    """Side-by-side 2-D float blocks as CSV, stacked and formatted ``CHUNK_ROWS`` rows at a
    time so that neither a copy of the whole table nor its text is held at once."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            chunk = np.hstack([c[start:start + CHUNK_ROWS] for c in columns])
            fh.write(_float_chunks(chunk, ",")[0] + "\n")


def write_trajectory_csv(traj: StateTrajectory, path) -> dict[str, list[str]]:
    """The trajectory as CSV, one row per sample: t, then the phi, u, eps, u0 and lambda
    columns.  A non-finite value raises for the first one in the CSV's row order.  Return
    each block's :func:`_float_chunks`, its cells joined by commas, for
    :func:`write_trajectory_json`."""
    blocks = {"t": traj.t[:, None], "phi": traj.phi, "u": traj.u, "eps": traj.eps,
              "u0": traj.u0, "lambda": traj.lam}
    if not all(np.isfinite(b).all() for b in blocks.values()):
        _check_finite(np.hstack(list(blocks.values())))
    chunks = {name: _float_chunks(block, ",") for name, block in blocks.items()}
    header = ["t"] + [f"{name}_{i}" for name, b in list(blocks.items())[1:]
                      for i in range(b.shape[1])]
    written = [chunks[name] for name, b in blocks.items() if b.shape[1]]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for pieces in zip(*written):
            rows = zip(*(piece.split("\n") for piece in pieces))
            fh.write("\n".join(map(",".join, rows)) + "\n")
    return chunks


def write_trajectory_json(chunks: dict[str, list[str]], path) -> None:
    """The trajectory as one JSON object of its t, phi, u, eps, u0 and lambda blocks, from
    the ``chunks`` :func:`write_trajectory_csv` returned for it; no value is formatted or
    checked again."""
    t = "\n".join(chunks["t"]).replace("\n", ", ")
    blocks = ", ".join(f'"{name}": {_nested([c.replace(",", ", ") for c in chunks[name]])}'
                       for name in ("phi", "u", "eps", "u0", "lambda"))
    with open(path, "w", newline="") as fh:
        fh.write(f'{{"t": [{t}], {blocks}}}\n')


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
