import math

import numpy as np
import pytest

from tactica.exports import dumps_json, format_float, write_trajectory_csv
from tactica.games import StateTrajectory

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
