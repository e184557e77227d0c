import csv
import io

import numpy as np
import pytest

from xmfg.ensembles import TrajectoryEnsemble
from xmfg.hjb import GridConfig, ValueGrid
from xmfg.io import write_trajectory_csv, write_value_csv

# Awkward doubles: signed zero, tiny normal and subnormal values, a value
# with 17 significant digits and one near the top of the range.
AWKWARD = np.array([-0.0, 1e-300, -2.5e-310, 1.0 / 3.0, -1.7976931348623157e308, 0.0])


def reference_value_csv(vg):
    """The row-by-row writer the streamed one replaced."""

    def fmt(x):
        return "%.17g" % float(x)

    lines = ["t,x,u,du_dx"]
    for m, t in enumerate(vg.times):
        ts = fmt(t)
        for i, x in enumerate(vg.x):
            lines.append(f"{ts},{fmt(x)},{fmt(vg.u[m, i])},{fmt(vg.grad[m, i])}")
    return "\n".join(lines) + "\n"


def reference_trajectory_csv(traj):
    """The csv.writer export the streamed one replaced."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "sample_index", "x", "v", "p"])
    p = traj.costates
    for m, t in enumerate(traj.times):
        for i in range(traj.n):
            writer.writerow(
                [
                    "%.17g" % t,
                    str(i),
                    "%.17g" % traj.states[m, i, 0],
                    "%.17g" % traj.velocities[m, i, 0],
                    "%.17g" % (p[m, i, 0] if p is not None else float("nan")),
                ]
            )
    return buf.getvalue()


def test_streamed_value_csv_matches_row_writer(tmp_path):
    cfg = GridConfig(-1e-300, 1.0 / 3.0, AWKWARD.size, 2, 1.0)
    times = np.array([-0.0, 1e-300, 0.1, 1.0 / 3.0])
    u = np.stack([np.roll(AWKWARD, k) for k in range(times.size)])
    vg = ValueGrid(config=cfg, times=times, u=u)
    with np.errstate(over="ignore"):  # du_dx overflows to inf where u jumps by 1.8e308
        vg.grad  # derived on first read
    path = tmp_path / "value.csv"
    write_value_csv(path, vg)
    assert path.read_bytes() == reference_value_csv(vg).encode()


@pytest.mark.parametrize("with_costates", [False, True])
def test_streamed_trajectory_csv_matches_row_writer(tmp_path, with_costates):
    times = np.array([0.0, 1e-300, 0.1, 1.0 / 3.0])
    states = np.stack([np.roll(AWKWARD, k) for k in range(times.size)])[:, :, None]
    costates = 0.5 * states[::-1] if with_costates else None
    traj = TrajectoryEnsemble(times, states, -states, costates)
    expected = reference_trajectory_csv(traj)
    assert with_costates or ",nan\n" in expected
    assert traj.to_csv() == expected
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, traj)
    assert path.read_bytes() == expected.encode()


def test_value_csv_writes_non_finite_and_subnormal_cells(tmp_path):
    cfg = GridConfig(-1.0, 1.0, 7, 2, 1.0)
    u = np.array([[np.nan, np.inf, -np.inf, 5e-324, -0.0, 1e-323, 1.0 / 3.0]] * 2)
    vg = ValueGrid(config=cfg, times=np.array([0.0, 0.5]), u=u)
    path = tmp_path / "value.csv"
    write_value_csv(path, vg)
    assert path.read_bytes() == reference_value_csv(vg).encode()
    data = path.read_bytes()
    # the derived du_dx holds nan, inf, -inf and a subnormal too
    assert b",inf,nan\n" in data and b",-inf,-inf\n" in data
    assert b",4.9406564584124654e-324,inf\n" in data and b",-0,9.8813129168249309e-324\n" in data
