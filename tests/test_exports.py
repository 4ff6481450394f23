import math

import numpy as np
import pytest

from tactica.exports import (dumps_json, format_float, matrix_tuple_to_json, write_prognosis_json,
                             write_trajectory_csv, write_windows_csv)
from tactica.games import StateTrajectory
from tactica.prediction import PrognosisReport
from tactica.verbalization import WindowRecord

# Signed zero, the smallest subnormal, a sum that is not 0.3, a float above 2**53
# and the largest finite double.
EDGE_VALUES = [-0.0, 5e-324, 0.1 + 0.2, 1e16, 1.7976931348623157e308]


def _trajectory(values) -> StateTrajectory:
    n = len(values)
    column = np.array(values)[:, None]
    return StateTrajectory(t=np.arange(n, dtype=float), phi=column, dphi=column, u0=column,
                           eps=column, u=column, lam=np.empty((n, 0)), eps_dims=(1,))


def test_float_arrays_export_each_value_as_format_float():
    cells = [format_float(v) for v in EDGE_VALUES]
    assert dumps_json(np.array(EDGE_VALUES)) == "[" + ", ".join(cells) + "]\n"
    block = np.array([EDGE_VALUES, EDGE_VALUES[::-1]])
    rows = ["[" + ", ".join(format_float(v) for v in row) + "]" for row in block.tolist()]
    assert dumps_json(block) == "[" + ", ".join(rows) + "]\n"
    assert dumps_json(np.empty((0, 2))) == dumps_json(np.empty(0)) == "[]\n"


def test_trajectory_csv_rows_format_each_value_as_format_float(tmp_path):
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(_trajectory(EDGE_VALUES), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,phi_0,u_0,eps_0,u0_0"
    for k, value in enumerate(EDGE_VALUES):
        assert lines[k + 1] == ",".join([format_float(k)] + [format_float(value)] * 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_not_exported(tmp_path, bad):
    values = EDGE_VALUES + [bad]
    message = f"non-finite value {bad!r} cannot be exported"
    with pytest.raises(ValueError, match=message):
        dumps_json(np.array(values))
    with pytest.raises(ValueError, match=message):
        dumps_json(np.array([values, values]))
    with pytest.raises(ValueError, match=message):
        write_trajectory_csv(_trajectory(values), tmp_path / "trajectory.csv")


def test_an_empty_window_list_writes_only_the_header(tmp_path):
    path = tmp_path / "windows.csv"
    write_windows_csv([], path)
    assert path.read_text() == "n,t_start,t_end,cell_label\n"


def test_window_rows_format_each_value_as_format_float(tmp_path):
    path = tmp_path / "windows.csv"
    windows = [WindowRecord(index=1, t_start=-0.0, t_end=1 / 3, omega=np.array(EDGE_VALUES[:2]),
                            v=np.array([EDGE_VALUES[2]]), cell_label="left"),
               WindowRecord(index=2, t_start=1 / 3, t_end=1e16, omega=np.array(EDGE_VALUES[3:]),
                            v=np.array([-0.0]))]
    write_windows_csv(windows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,t_start,t_end,omega_0,omega_1,v_0,cell_label"
    for line, w in zip(lines[1:], windows):
        cells = [w.index, w.t_start, w.t_end, *w.omega, *w.v]
        assert line == ",".join([*map(format_float, cells), w.cell_label or ""])
    assert len(lines) == 3


def test_tuple_entries_export_as_format_float_pairs():
    entries = [-0.0, 5e-324, 1 / 3, -1 / 3]
    matrix = np.array([[complex(a, b) for b in entries] for a in entries])
    text = dumps_json(matrix_tuple_to_json([matrix, matrix.T], 0.5))
    rows = [", ".join(f"[{format_float(z.real)}, {format_float(z.imag)}]" for z in row)
            for row in matrix.tolist()]
    transposed = [", ".join(f"[{format_float(z.real)}, {format_float(z.imag)}]" for z in row)
                  for row in matrix.T.tolist()]
    assert text == ('{"t": 0.5, "matrices": [[' + ", ".join(f"[{r}]" for r in rows) + "], ["
                    + ", ".join(f"[{r}]" for r in transposed) + "]]}\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_window_values_are_not_exported(tmp_path, bad):
    window = WindowRecord(index=1, t_start=0.0, t_end=1.0, omega=np.array([0.5, bad]),
                          v=np.zeros(0))
    with pytest.raises(ValueError, match=f"non-finite value {bad!r} cannot be exported"):
        write_windows_csv([window], tmp_path / "windows.csv")


def _prognosis(short_term, short_mask) -> PrognosisReport:
    block = np.column_stack([EDGE_VALUES, EDGE_VALUES[::-1]])
    zeros = np.zeros(len(EDGE_VALUES))
    return PrognosisReport(t=np.array(EDGE_VALUES), long_term=block, short_term=short_term,
                           short_mask=short_mask, blended=-block, truth=block,
                           long_error=zeros, blended_error=zeros)


def test_prognosis_records_format_each_value_as_format_float(tmp_path):
    mask = np.array([True, False, False, True, True])
    short = np.where(mask[:, None], np.column_stack([EDGE_VALUES[::-1], EDGE_VALUES]), np.nan)
    report = _prognosis(short, mask)
    path = tmp_path / "prognosis.json"
    write_prognosis_json(report, path)

    def row(block, k):
        return "[" + ", ".join(map(format_float, block[k])) + "]"

    records = [f'{{"t": {format_float(t)}, "long_term": {row(report.long_term, k)}, '
               f'"short_term": {row(short, k) if mask[k] else "null"}, '
               f'"blended": {row(report.blended, k)}}}' for k, t in enumerate(EDGE_VALUES)]
    assert path.read_text() == "[" + ", ".join(records) + "]\n"
    assert path.read_text().count('"short_term": null') == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_short_term_values_under_the_mask_are_not_exported(tmp_path, bad):
    mask = np.array([False, True, False, True, False])
    short = np.ones((len(mask), 2))
    short[~mask], short[3, 1] = np.nan, bad
    with pytest.raises(ValueError, match=f"non-finite value {bad!r} cannot be exported"):
        write_prognosis_json(_prognosis(short, mask), tmp_path / "prognosis.json")
