"""Self-consistent Hamiltonian flow of the population ensemble.

Integrates, with classical fixed-step RK4, the coupled per-sample system

    X_i' = G(X, P, X)_i,
    P_i' = D_xH(X_i, P_i, X, G(X, P, X)),
    X(0) = X_0,  P(0) = Phi'(X_0),

where G solves the velocity equation Z = -D_pH(x, p, Y, Z).  The expectation
inside G couples all samples, so G is re-solved at every RK stage rather than
lagged from the previous step.  A step spans ``stride`` output rows and ends
on the rows the backward sweep reads (:func:`~xmfg.hjb.stride_rows`); the
rows inside a step are its cubic Hermite dense output, with G solved anew
at each of them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, TrajectoryEnsemble
from .errors import FlowBlowupError
from .families import HamiltonianFamily, solve_velocity
from .hjb import stride_rows

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
    stride: int = 1,
) -> TrajectoryEnsemble:
    """RK4 integration of the coupled state/costate ensemble system.

    ``phi`` provides the seed costates through ``gradient_at``; any value
    slice (grid-backed or analytic) works.  Duplicate initial samples are
    legal - they ride identical characteristics - and are merely worth
    knowing about when reading separation diagnostics downstream.

    RK4 steps run between the rows ``stride_rows(steps, stride)``: ``0``,
    then ``steps mod stride`` (the short step) and every ``stride`` rows on
    to ``steps``; a step over ``j`` rows has ``h = j dt``.  The path still
    has ``steps + 1`` rows.
    A row inside a step takes the cubic Hermite interpolant in time of ``x``
    (rate ``z``) and of ``p`` (rate ``D_xH``) between the step's ends, whose
    rates are the first RK stages, and its velocity solves the velocity
    equation at that ``(x, p)``.  ``stride = 1`` steps every row.
    """
    if steps < 1 or horizon <= 0:
        raise ValueError("flow requires steps >= 1 and a positive horizon")
    if stride < 1:
        raise ValueError("flow requires stride >= 1")
    n_dup = x0.n - np.unique(x0.samples[:, 0]).size
    if n_dup:
        # atoms in the initial law: legal, but separation diagnostics will
        # skip the coincident pairs
        logger.warning("initial ensemble carries %d duplicate sample(s)", n_dup)
    q, n = x0.q, x0.n
    dt = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)
    ends = stride_rows(steps, stride)

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
    dxh = np.empty((len(ends), n))  # D_xH at the step ends, for the dense output

    def rates(out):
        z_ens = solve_velocity(fam, x, p_ens, x_ens)
        out[0] = z_ens.samples[:, 0]
        out[1] = fam.dx_hamiltonian(x, p, x_ens, z_ens)  # a scalar broadcasts here

    def blowup(a, b):
        return FlowBlowupError(
            f"flow blew up advancing step {a} -> {b} (t={times[a]:.4g})", step=a
        )

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values fail the guards
        for j, m in enumerate(ends):
            y = path[:2, m]
            y[...] = stage
            rates(k[0])
            path[2, m] = k[0, 0]
            dxh[j] = k[0, 1]
            if m == steps:
                if not np.all(np.isfinite(k[0, 0])):
                    raise FlowBlowupError(
                        f"flow velocity is not finite at the final time t={times[m]:.4g}", step=m
                    )
                break
            h = (ends[j + 1] - m) * dt
            for i, c in ((1, 0.5 * h), (2, 0.5 * h), (3, h)):
                np.multiply(k[i - 1], c, out=stage)
                np.add(y, stage, out=stage)
                rates(k[i])
            k[1:3] *= 2  # y + h/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order
            for k_i in k[1:]:
                k[0] += k_i
            k[0] *= h / 6.0
            np.add(y, k[0], out=stage)
            if not np.abs(stage, out=k[0]).max() <= _OVERFLOW_GUARD:  # NaN fails it too
                raise blowup(m, ends[j + 1])

        if stride > 1:  # Hermite dense output on the rows inside the steps
            ends = np.asarray(ends)
            rows = np.setdiff1d(np.arange(steps), ends)
            j = np.searchsorted(ends, rows)  # the step of each row ends at ends[j]
            lo, hi = ends[j - 1], ends[j]
            theta = ((rows - lo) / (hi - lo))[:, None]
            h = ((hi - lo) * dt)[:, None]
            h00 = (1 + 2 * theta) * (1 - theta) ** 2
            h10 = h * theta * (1 - theta) ** 2
            h01 = theta**2 * (3 - 2 * theta)
            h11 = h * theta**2 * (theta - 1)
            xs, ps, zs = path
            xs[rows] = h00 * xs[lo] + h10 * zs[lo] + h01 * xs[hi] + h11 * zs[hi]
            ps[rows] = h00 * ps[lo] + h10 * dxh[j - 1] + h01 * ps[hi] + h11 * dxh[j]
            for m, a, b in zip(rows, lo, hi):  # G is solved, not interpolated
                stage[...] = path[:2, m]
                zs[m] = solve_velocity(fam, x, p_ens, x_ens).samples[:, 0]
                if not np.isfinite(path[:, m]).all():
                    raise blowup(int(a), int(b))

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
