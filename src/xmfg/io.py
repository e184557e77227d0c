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

from .ensembles import FLOAT_FMT, TrajectoryEnsemble
from .hjb import ValueGrid


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


def write_value_csv(path: Path, vg: ValueGrid) -> None:
    """Stream t,x,u,du_dx one time slice at a time, one ``%`` per slice: the
    time cell joins row tails that carry the node."""
    tails = [f",{FLOAT_FMT % x},{FLOAT_FMT},{FLOAT_FMT}\n" for x in vg.x.tolist()]
    with path.open("w") as out:
        out.write("t,x,u,du_dx\n")
        for m, t in enumerate(vg.times.tolist()):
            cells = np.stack((vg.u[m], vg.grad[m]), axis=1).ravel().tolist()
            t_cell = FLOAT_FMT % t
            out.write((t_cell + t_cell.join(tails)) % tuple(cells))


def write_trajectory_csv(path: Path, traj: TrajectoryEnsemble) -> None:
    with path.open("w") as out:
        out.writelines(traj.csv_lines())


def write_residuals_csv(path: Path, history) -> None:
    lines = ["iter,phi_residual,traj_residual"]
    for k, phi_res, traj_res in history:
        lines.append(f"{k},{_fmt(phi_res)},{_fmt(traj_res)}")
    path.write_text("\n".join(lines) + "\n")


def write_lq_coefficients_csv(path: Path, state) -> None:
    lines = ["t,gamma,theta,zeta"]
    for m, t in enumerate(state.times):
        lines.append(
            f"{_fmt(t)},{_fmt(state.gamma[m])},{_fmt(state.theta[m])},{_fmt(state.zeta[m])}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_quartic_coefficients_csv(path: Path, state) -> None:
    lines = ["t,p,q"]
    for m, t in enumerate(state.times):
        lines.append(f"{_fmt(t)},{_fmt(state.p[m])},{_fmt(state.q[m])}")
    path.write_text("\n".join(lines) + "\n")


def write_plot_bundle(plot_dir: Path, vg: ValueGrid, traj: TrajectoryEnsemble, history) -> None:
    """Two-column CSVs any plotting tool can ingest directly."""
    plot_dir.mkdir(parents=True, exist_ok=True)
    lines = ["x,u"]
    for i, x in enumerate(vg.x):
        lines.append(f"{_fmt(x)},{_fmt(vg.u[0, i])}")
    (plot_dir / "u_vs_x_at_t0.csv").write_text("\n".join(lines) + "\n")

    means = traj.states[:, :, 0].mean(axis=1)
    lines = ["t,mean_x"]
    for t, mval in zip(traj.times, means):
        lines.append(f"{_fmt(t)},{_fmt(mval)}")
    (plot_dir / "mean_trajectory.csv").write_text("\n".join(lines) + "\n")

    lines = ["iter,phi_residual"]
    for k, phi_res, _ in history:
        lines.append(f"{k},{_fmt(phi_res)}")
    (plot_dir / "residuals.csv").write_text("\n".join(lines) + "\n")


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


def write_solution_bundle(out_dir: Path, sol, meta: dict, started: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_value_csv(out_dir / "value.csv", sol.value)
    write_trajectory_csv(out_dir / "trajectory.csv", sol.traj)
    write_residuals_csv(out_dir / "residuals.csv", sol.residual_history)
    write_plot_bundle(out_dir / "plot", sol.value, sol.traj, sol.residual_history)
    write_meta(out_dir / "meta.json", meta, started)
