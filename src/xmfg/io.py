"""Result-bundle writers: lossless CSV tables plus a JSON run summary.

Numeric cells are printed with 17 significant digits so a double survives the
round trip bit-for-bit; the only timestamp lives in meta.json, keeping every
CSV byte-reproducible for identical inputs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from ._cells import cell_text, csv_rows, int_text, slice_rows
from .ensembles import TrajectoryEnsemble
from .hjb import ValueGrid


def write_csv(path: Path, header: str, cells, *texts) -> None:
    """One header line, then rows of the text columns and the float cells."""
    path.write_bytes(header.encode() + b"\n" + csv_rows(cells, *texts))


def write_value_csv(path: Path, vg: ValueGrid) -> None:
    """Stream t,x,u,du_dx a few time slices at a time."""
    with path.open("wb") as out:
        out.write(b"t,x,u,du_dx\n")
        out.writelines(slice_rows(vg.times, cell_text(vg.x), (vg.u, vg.grad)))


def write_trajectory_csv(path: Path, traj: TrajectoryEnsemble) -> None:
    with path.open("wb") as out:
        out.writelines(traj.csv_lines())


def _history_columns(history):
    """The iteration numbers as text and the (phi, traj) residuals as cells."""
    cells = np.array([row[1:] for row in history], dtype=float).reshape(-1, 2)
    return cells, int_text([row[0] for row in history])


def write_residuals_csv(path: Path, history) -> None:
    write_csv(path, "iter,phi_residual,traj_residual", *_history_columns(history))


def write_plot_bundle(plot_dir: Path, vg: ValueGrid, traj: TrajectoryEnsemble, history) -> None:
    """Two-column CSVs any plotting tool can ingest directly."""
    plot_dir.mkdir(parents=True, exist_ok=True)
    write_csv(plot_dir / "u_vs_x_at_t0.csv", "x,u", np.stack((vg.x, vg.u[0]), axis=1))
    means = traj.states[:, :, 0].mean(axis=1)
    write_csv(plot_dir / "mean_trajectory.csv", "t,mean_x", np.stack((traj.times, means), axis=1))
    cells, iters = _history_columns(history)
    write_csv(plot_dir / "residuals.csv", "iter,phi_residual", cells[:, :1], iters)


def write_meta(path: Path, payload: dict, started: float) -> None:
    """Write the run summary with its clock time and elapsed seconds.

    ``started`` is a ``time.perf_counter`` reading.  meta.json is the last
    file of every bundle, so ``wall_time_s`` covers writing all the others.
    """
    payload = dict(payload)
    payload["wall_time_s"] = round(time.perf_counter() - started, 6)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    write_json(path, payload)


def write_json(path: Path, payload) -> None:
    """Strict JSON: a NaN or inf raises, so callers write null for a missing number."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_solution_bundle(
    out_dir: Path, value: ValueGrid, traj: TrajectoryEnsemble, history, meta: dict, started: float
) -> None:
    """value.csv, trajectory.csv, residuals.csv and plot/, then meta.json last."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_value_csv(out_dir / "value.csv", value)
    write_trajectory_csv(out_dir / "trajectory.csv", traj)
    write_residuals_csv(out_dir / "residuals.csv", history)
    write_plot_bundle(out_dir / "plot", value, traj, history)
    write_meta(out_dir / "meta.json", meta, started)
