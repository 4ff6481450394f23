import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tactica.exports import (CHUNK_ROWS, _float_chunks, _float_rows, dumps_json, format_float,
                             matrix_tuple_to_json, write_prognosis_json, write_trajectory_csv,
                             write_trajectory_json, write_windows_csv)
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
                           short_mask=short_mask, blended=-block, long_error=zeros,
                           blended_error=zeros)


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


# ---------------------------------------------------------------------------
# The block formatter against format_float's "{:.17g}".format
# ---------------------------------------------------------------------------

# The bit patterns of +-0, the smallest subnormal (5e-324), the largest subnormal, the
# smallest normal and +-max.
_SPECIAL_BITS = [0x0, 0x8000000000000000, 0x1, 0x800FFFFFFFFFFFFF, 0x0010000000000000,
                 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF]
_BITS = st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(_SPECIAL_BITS))


@st.composite
def float_blocks(draw):
    """A float64 block of random bit patterns, finite or not, whose row count is 0, 1, a
    whole number of chunks or not."""
    rows = draw(st.sampled_from([0, 1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                 2 * CHUNK_ROWS + 45]))
    width = draw(st.integers(0, 3))
    return draw(arrays(np.uint64, (rows, width), elements=_BITS)).view(np.float64)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(block=float_blocks(), sep=st.sampled_from([",", ", "]))
def test_the_block_formatter_prints_each_cell_as_format_does(block, sep):
    bad = [v for row in block.tolist() for v in row if not math.isfinite(v)]
    if bad:
        with pytest.raises(ValueError) as caught:
            format_float(bad[0])
        with pytest.raises(ValueError, match=f"^{re.escape(str(caught.value))}$"):
            _float_chunks(block, sep)
        return
    expected = [sep.join(map("{:.17g}".format, row)) for row in block.tolist()]
    assert _float_rows(block, sep) == expected
    chunks = _float_chunks(block, sep)
    assert len(chunks) == -(-len(block) // CHUNK_ROWS)
    assert chunks == ["\n".join(expected[k:k + CHUNK_ROWS])
                      for k in range(0, len(block), CHUNK_ROWS)]


# ---------------------------------------------------------------------------
# trajectory.csv and trajectory.json of one run
# ---------------------------------------------------------------------------

def _block_trajectory(n: int) -> StateTrajectory:
    """Blocks of widths 1 to 3 holding signed zeros, subnormals and extremes, and a
    lambda block of width 2."""
    values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES] + [1 / 3, -2.5])
    cells = values[np.arange(n * 11) % len(values)].reshape(n, 11)
    return StateTrajectory(t=np.arange(n) * 0.25, phi=cells[:, :2], dphi=cells[:, :2],
                           u0=cells[:, 2:3], eps=cells[:, 3:6], u=cells[:, 6:9],
                           lam=cells[:, 9:], eps_dims=(3,))


@pytest.mark.parametrize("n", [1, CHUNK_ROWS + 3])
@pytest.mark.parametrize("make", [_block_trajectory, _trajectory],
                         ids=["widths-1-to-3", "edge-values"])
def test_trajectory_csv_and_json_hold_the_same_cells(tmp_path, make, n):
    traj = make(n) if make is _block_trajectory else make((EDGE_VALUES * n)[:n])
    chunks = write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    write_trajectory_json(chunks, tmp_path / "trajectory.json")

    with open(tmp_path / "trajectory.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    # Every number is kept as its text, so "-0" stays "-0".
    parsed = json.loads((tmp_path / "trajectory.json").read_text(), parse_float=str,
                        parse_int=str)
    names = ["phi", "u", "eps", "u0", "lambda"]
    assert list(parsed) == ["t", *names]
    assert header == ["t"] + [f"{name}_{i}" for name in names
                              for i in range(len(parsed[name][0]))]
    assert rows == [[parsed["t"][k]] + [cell for name in names for cell in parsed[name][k]]
                    for k in range(n)]
    assert "-0" in {cell for row in rows for cell in row}
    assert rows[0][0] == format_float(traj.t[0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("block", ["phi", "eps", "lam"])
def test_a_non_finite_trajectory_cell_raises_the_same_message_from_both_writers(
        tmp_path, bad, block):
    traj = _block_trajectory(CHUNK_ROWS + 3)
    getattr(traj, block)[CHUNK_ROWS + 1, -1] = bad
    message = f"^non-finite value {re.escape(repr(bad))} cannot be exported$"
    with pytest.raises(ValueError, match=message):
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
