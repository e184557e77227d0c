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
    "gronwall_envelope",
    "GronwallReport",
]

_OVERFLOW_GUARD = 1e12


def _stage_rates(fam: HamiltonianFamily, y: np.ndarray, q: float) -> np.ndarray:
    # (z, D_xH) at y = (x, p) on unchecked views: a non-finite stage rate
    # carries into the step sum, which integrate_flow tests after every step.
    x, p = y
    x_ens = Ensemble._view(x[:, None], q)
    p_ens = Ensemble._view(p[:, None], q)
    z_ens = solve_velocity(fam, x, p_ens, x_ens)
    rates = np.empty_like(y)
    rates[0] = z_ens.samples[:, 0]
    rates[1] = fam.dx_hamiltonian(x, p, x_ens, z_ens)  # a scalar broadcasts here
    return rates


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
    if x0.dim != 1:
        raise ValueError("flow integration operates on 1-d ensembles")
    if steps < 1 or horizon <= 0:
        raise ValueError("flow requires steps >= 1 and a positive horizon")
    n_dup = x0.n - np.unique(x0.samples[:, 0]).size
    if n_dup:
        # atoms in the initial law: legal, but separation diagnostics will
        # skip the coincident pairs
        logger.warning("initial ensemble carries %d duplicate sample(s)", n_dup)
    q = x0.q
    n = x0.n
    dt = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)

    # y stacks states and costates, so each RK combination is one ufunc
    y = np.empty((2, n))
    y[0] = x0.samples[:, 0]
    y[1] = phi.gradient_at(y[0])
    path = np.empty((3, steps + 1, n))

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values fail the guards
        for m in range(steps + 1):
            k1 = _stage_rates(fam, y, q)
            path[:2, m] = y
            path[2, m] = k1[0]
            if m == steps:
                if not np.all(np.isfinite(k1[0])):
                    raise FlowBlowupError(
                        f"flow velocity is not finite at the final time t={times[m]:.4g}", step=m
                    )
                break
            k2 = _stage_rates(fam, y + 0.5 * dt * k1, q)
            k3 = _stage_rates(fam, y + 0.5 * dt * k2, q)
            k4 = _stage_rates(fam, y + dt * k3, q)
            y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.max(np.abs(y)) <= _OVERFLOW_GUARD:  # NaN fails it too
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
    if traj.dim != 1:
        raise ValueError("separation diagnostic is 1-d only")
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


@dataclass(frozen=True)
class GronwallReport:
    """Measured growth envelope ||(X,P)(t)|| <= C (1 + ||(X,P)(0)||)."""

    c_half: float
    c_full: float
    within_envelope: bool


def gronwall_envelope(traj: TrajectoryEnsemble, slack: float = 10.0) -> GronwallReport:
    """Fit the growth constant on the first half horizon and check the rest.

    The joint norm is the empirical L^q norm of (X, P).  ``within_envelope``
    reports whether the full-horizon constant stays within ``slack`` times
    the half-horizon fit.
    """
    if traj.costates is None:
        raise ValueError("gronwall envelope needs the costate record")
    q = traj.q
    joint = np.abs(traj.states[:, :, 0]) ** q + np.abs(traj.costates[:, :, 0]) ** q
    norms = np.mean(joint, axis=1) ** (1.0 / q)
    denom = 1.0 + norms[0]
    cs = norms / denom
    half = traj.times <= traj.times[0] + 0.5 * traj.horizon + 1e-12
    c_half = float(np.max(cs[half]))
    c_full = float(np.max(cs))
    return GronwallReport(c_half, c_full, c_full <= slack * max(c_half, 1e-30))
