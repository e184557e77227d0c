"""Self-consistent Hamiltonian flow of the population ensemble.

Integrates, with classical fixed-step RK4, the coupled per-sample system

    X_i' = G(X, P, X)_i,
    P_i' = D_xH(X_i, P_i, X, G(X, P, X)),
    X(0) = X_0,  P(0) = Phi'(X_0),

where G solves the velocity equation Z = -D_pH(x, p, Y, Z).  The expectation
inside G couples all samples, so G is re-solved at every RK stage rather than
lagged from the previous step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, TrajectoryEnsemble
from .errors import FlowBlowupError
from .families import HamiltonianFamily, solve_velocity

logger = logging.getLogger(__name__)

__all__ = [
    "integrate_flow",
    "separation_diagnostic",
    "SeparationReport",
]

_OVERFLOW_GUARD = 1e12


def integrate_flow(
    fam: HamiltonianFamily,
    x0: Ensemble,
    phi,
    horizon: float,
    steps: int,
) -> TrajectoryEnsemble:
    """RK4 integration of the coupled state/costate ensemble system.

    ``phi`` provides the seed costates through ``gradient_at``; any value
    slice (grid-backed or analytic) works.  Duplicate initial samples are
    legal - they ride identical characteristics - and are merely worth
    knowing about when reading separation diagnostics downstream.
    """
    if steps < 1 or horizon <= 0:
        raise ValueError("flow requires steps >= 1 and a positive horizon")
    n_dup = x0.n - np.unique(x0.samples[:, 0]).size
    if n_dup:
        # atoms in the initial law: legal, but separation diagnostics will
        # skip the coincident pairs
        logger.warning("initial ensemble carries %d duplicate sample(s)", n_dup)
    q, n = x0.q, x0.n
    dt = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)

    # The RK stage input (x, p) lives in one (2, N) buffer; the state and
    # costate laws are read-only views of it, built once per call and valid
    # for a family only during the call they are passed to.
    stage = np.empty((2, n))
    stage[0] = x0.samples[:, 0]
    stage[1] = phi.gradient_at(stage[0])
    x_ens = Ensemble._view(stage[0][:, None], q)
    p_ens = Ensemble._view(stage[1][:, None], q)
    x, p = x_ens.samples[:, 0], p_ens.samples[:, 0]
    # stage rates (z, D_xH), unchecked: a non-finite rate carries into the
    # step, whose test turns it into FlowBlowupError
    k = np.empty((4, 2, n))
    path = np.empty((3, steps + 1, n))

    def rates(out):
        z_ens = solve_velocity(fam, x, p_ens, x_ens)
        out[0] = z_ens.samples[:, 0]
        out[1] = fam.dx_hamiltonian(x, p, x_ens, z_ens)  # a scalar broadcasts here

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values fail the guards
        for m in range(steps + 1):
            y = path[:2, m]
            y[...] = stage
            rates(k[0])
            path[2, m] = k[0, 0]
            if m == steps:
                if not np.all(np.isfinite(k[0, 0])):
                    raise FlowBlowupError(
                        f"flow velocity is not finite at the final time t={times[m]:.4g}", step=m
                    )
                break
            for i, c in ((1, 0.5 * dt), (2, 0.5 * dt), (3, dt)):
                np.multiply(k[i - 1], c, out=stage)
                np.add(y, stage, out=stage)
                rates(k[i])
            k[1:3] *= 2  # y + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order
            for k_i in k[1:]:
                k[0] += k_i
            k[0] *= dt / 6.0
            np.add(y, k[0], out=stage)
            if not np.abs(stage, out=k[0]).max() <= _OVERFLOW_GUARD:  # NaN fails it too
                raise FlowBlowupError(
                    f"flow blew up advancing step {m} -> {m + 1} (t={times[m]:.4g})",
                    step=m,
                )

    states, costates, velocities = path[..., None]
    return TrajectoryEnsemble(
        times=times, states=states, velocities=velocities, costates=costates, q=q
    )


@dataclass(frozen=True)
class SeparationReport:
    """Worst pairwise contraction of inter-sample gaps along a trajectory."""

    min_ratio: float
    pair: tuple[int, int]
    time_index: int
    skipped_pairs: int


def separation_diagnostic(
    traj: TrajectoryEnsemble, t_max: float | None = None
) -> SeparationReport:
    """min over pairs and times of |X_i(t) - X_j(t)| / |X_i(0) - X_j(0)|.

    A strictly positive ratio is numerical evidence that characteristics do
    not cross, hence that the population law stays absolutely continuous.
    Pairs that start at identical positions are excluded from the ratio and
    counted in ``skipped_pairs``.
    """
    xs = traj.states[:, :, 0]
    if t_max is not None:
        keep = traj.times <= t_max + 1e-12
        xs = xs[keep]
    n = xs.shape[1]
    iu, ju = np.triu_indices(n, k=1)
    gap0 = np.abs(xs[0, iu] - xs[0, ju])
    valid = gap0 > 0.0
    skipped = int(np.count_nonzero(~valid))
    if not np.any(valid):
        return SeparationReport(float("nan"), (-1, -1), 0, skipped)
    gaps = np.abs(xs[:, iu[valid]] - xs[:, ju[valid]]) / gap0[valid]
    flat = int(np.argmin(gaps))
    m, k = np.unravel_index(flat, gaps.shape)
    pair = (int(iu[valid][k]), int(ju[valid][k]))
    return SeparationReport(float(gaps[m, k]), pair, int(m), skipped)
