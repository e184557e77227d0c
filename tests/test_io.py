import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xmfg
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


SECOND_WRITE_FAULTS = """
import resource, sys
from pathlib import Path
import numpy as np
from xmfg.hjb import GridConfig, ValueGrid
from xmfg.io import write_value_csv
rng = np.random.default_rng(7)
times = np.linspace(0.0, 1.0, 201)
u = rng.standard_normal((201, 201)) * 10.0 ** rng.integers(-3, 4, (201, 201))
vg = ValueGrid(config=GridConfig(-2.0, 2.0, 201, 2, 4.0), times=times, u=u)
vg.grad
path = Path(sys.argv[1])
write_value_csv(path, vg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
write_value_csv(path, vg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="faults as Linux counts them")
def test_a_value_csv_write_faults_its_scratch_in_once(tmp_path):
    # 201 slices of 201 nodes are ten blocks of 8192 cells.  The write reuses
    # one arena for all of them, so its pages fault in about once per write
    # (758-767 faults on Linux x86-64); scratch allocated block by block,
    # which glibc hands back to the kernel between blocks, took 7630-7652.
    pytest.importorskip("resource")
    src = str(Path(xmfg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", SECOND_WRITE_FAULTS, str(tmp_path / "value.csv")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert int(out.stdout) < 2000
