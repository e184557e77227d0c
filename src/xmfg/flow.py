"""Self-consistent Hamiltonian flow of the population ensemble.

Integrates the coupled per-sample system

    X_i' = G(X, P, X)_i,
    P_i' = D_xH(X_i, P_i, X, G(X, P, X)),
    X(0) = X_0,  P(0) = P_0,

where G solves the velocity equation Z = -D_pH(x, p, Y, Z), and the caller
hands over the seed costates P_0: the fixed-point map (:mod:`xmfg.mfg`) reads
P_0 = Phi'(X_0) off its value profile Phi.  The expectation
inside G couples all samples, so G is re-solved at every stage rather than
lagged from the previous step; a stage writes G and D_xH straight into its
rate buffer, and a step forms its stage weights h A once.  The integrator is
the embedded Dormand-Prince 5(4) pair (Dormand & Prince 1980), whose error
estimate picks each step, so the steps are not tied to the output rows.
Each row is read from the continuous extension of the accepted step that
holds its time (Shampine 1986), and its velocity is solved anew at the row's
(x, p), all rows in one call: ``velocity_closed_form`` when the family has a
closed form, else one :func:`~xmfg.families.solve_velocity` on the stack of
rows.  The same flow, seeded by the terminal slope psi'(X_0, X_0) at its
default tolerance, sizes a state-scaled grid (:func:`~xmfg.mfg.canonical_grid`).
"""

from __future__ import annotations

import logging
import math
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
#: the flow stops at the time it reached once a step would be shorter than
#: this fraction of the horizon, or after this many rejected steps in a row
_STEP_FLOOR = 1e-10
_MAX_REJECTIONS = 12
#: a smaller tolerance is raised to this: the error estimate of a step cannot
#: resolve much less than the rounding of its stages
_TOL_FLOOR = 1e-13

# Dormand-Prince 5(4): row i of _A weights the rates of stages 0..i-1 in the
# input of stage i, and its last row is the 5th-order step, so the last stage
# is the first of the next step; _E is the 5th- minus the 4th-order weights.
# Shampine's continuous extension is y(t + theta h) = y + h sum_j theta^j
# (_P k)_j, j = 1..4.
_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
]).T


def _rms(a) -> float:
    return math.sqrt(np.vdot(a, a) / a.size)


def _velocity(fam: HamiltonianFamily, x, p, y: Ensemble) -> np.ndarray:
    """G at the rows (..., N) of x and p with laws y, in one call on all rows."""
    z = fam.velocity_closed_form(x, p, y)
    if z is None:
        z = solve_velocity(fam, x, Ensemble._view(p[..., None]), y).samples[..., 0]
    return z


def integrate_flow(
    fam: HamiltonianFamily,
    x0: Ensemble,
    p0,
    horizon: float,
    steps: int,
    tol: float = 1e-9,
) -> TrajectoryEnsemble:
    """Adaptive Dormand-Prince 5(4) integration of the coupled state/costate
    ensemble system, recorded on the ``steps + 1`` rows ``t = m horizon / steps``.

    ``p0`` holds the seed costates ``P(0)``: a scalar or an ``(N,)`` array
    aligned with ``x0``.  A step is accepted when the RMS
    over ``(x, p)`` of its error estimate, each scaled by ``tol (1 + |y|)``
    with ``tol`` at least ``1e-13``, is at most 1; the first step spans one
    row.  A step is rejected when its stages or solution are not finite or
    exceed ``1e12``, or, under state-scaled dynamics, reach ``x <= 0``.  A step
    shorter than ``1e-10 horizon`` or too short to advance ``t``, a 13th
    rejection in a row, a seed whose rates are not finite, or a row whose
    velocity is not finite or whose state-scaled ``x`` is not positive raises
    :class:`FlowBlowupError` naming the time reached; its ``step`` is the last
    row reached.
    """
    if steps < 1 or horizon <= 0:
        raise ValueError("flow requires steps >= 1 and a positive horizon")
    if not tol > 0:
        raise ValueError("flow requires a positive tolerance")
    tol = max(tol, _TOL_FLOOR)
    n = x0.n
    times = np.linspace(0.0, horizon, steps + 1)
    positive = fam.speed is not None  # dx/dt = g(x) v is defined for x > 0 only

    # The stage input (x, p) lives in one (2, N) buffer and stage i writes its
    # rates (z, D_xH) into k[i]; the state law and the velocity laws are
    # read-only views of them, built once per call and valid for a family only
    # during the call they are passed to.  Rates are unchecked: a non-finite
    # rate makes the step's error estimate non-finite, which rejects the step.
    stage = np.empty((2, n))
    stage[0], stage[1] = x0.samples[:, 0], p0  # a non-finite seed fails the first rates
    x_ens = Ensemble._view(stage[0][:, None])
    x, p = x_ens.samples[:, 0], Ensemble._view(stage[1][:, None]).samples[:, 0]
    k = np.empty((7, 2, n))
    z_ens = [Ensemble._view(k_i[0][:, None]) for k_i in k]
    path = np.empty((3, steps + 1, n))
    k_flat, stage_flat = k.reshape(7, -1), stage.reshape(-1)
    evals = 0

    def rates(i):
        nonlocal evals
        evals += 1
        k[i, 0] = _velocity(fam, x, p, x_ens)
        k[i, 1] = fam.dx_hamiltonian(x, p, x_ens, z_ens[i])  # a scalar broadcasts here

    def stall(t, row, reason):
        return FlowBlowupError(f"flow cannot advance past t={t:.4g}: {reason}", step=row)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        path[:2, 0] = y = stage.copy()  # the solution at the time reached
        y_flat = y.reshape(-1)
        rates(0)
        if not np.isfinite(k[0]).all():
            raise stall(0.0, 0, "its rates are not finite")
        path[2, 0] = k[0, 0]
        # the first step spans one row; the controller grows it from there
        h, floor = horizon / steps, _STEP_FLOOR * horizon
        t, m, grow, accepted, rejected = 0.0, 1, 5.0, 0, 0
        reason = "its step falls below the floor"
        while m <= steps:
            if t + 1.01 * h >= horizon:  # land on the horizon, leaving no sliver
                h = horizon - t
            if h < floor or t + h == t or rejected > _MAX_REJECTIONS:
                raise stall(t, m - 1, reason)  # rows up to m - 1 are written
            err, reason = math.inf, "the flow leaves the representable range"
            h_a = h * _A
            for i in range(1, 7):
                np.add(y_flat, np.dot(h_a[i, :i], k_flat[:i]), out=stage_flat)
                if positive and not x.min() > 0:  # NaN fails it too
                    reason = "the state-scaled flow reaches x <= 0"
                    break
                rates(i)
            else:  # stage 6 is the step's solution
                if np.abs(stage).max() <= _OVERFLOW_GUARD:
                    scale = tol * (1 + np.maximum(np.abs(y_flat), np.abs(stage_flat)))
                    err = _rms(h * np.dot(_E, k_flat) / scale)
                    if math.isfinite(err):
                        reason = "its error stays above the tolerance"
                    else:
                        err = math.inf
            factor = 0.9 * max(err, 1e-10) ** -0.2
            if err > 1:
                h *= max(0.2, factor)
                rejected, grow = rejected + 1, 1.0  # no growth right after a rejection
                continue
            # the rows in (t, t + h] from the continuous extension, in one pass
            end = steps + 1 if h == horizon - t else int(np.searchsorted(times, t + h, "right"))
            theta = ((times[m:end] - t) / h)[:, None]
            dense = np.dot(theta ** np.arange(1, 5), np.dot(_P, k_flat)) * h + y_flat
            path[:2, m:end] = dense.reshape(-1, 2, n).swapaxes(0, 1)
            t = horizon if end == steps + 1 else t + h
            y[...], k[0] = stage, k[6]
            m, accepted, rejected = end, accepted + 1, 0
            h *= min(grow, max(0.2, factor))
            grow = 5.0

        # G is solved, not interpolated: one call on the (M, N) rows and their laws
        xs, ps, zs = path
        zs[1:] = z = _velocity(fam, xs[1:], ps[1:], Ensemble._view(xs[1:, :, None]))
        ok = np.isfinite(z).all(1) & (xs[1:].min(1) > 0 if positive else True)
        if not ok.all():  # the first bad row names its time
            m = int(np.argmin(ok)) + 1
            raise stall(times[m], m, f"row {m} has a non-finite velocity or a state x <= 0")
    logger.debug("flow: %d accepted steps, %d rate evaluations", accepted, evals)

    states, costates, velocities = path[..., None]
    return TrajectoryEnsemble(times=times, states=states, velocities=velocities, costates=costates)


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
    counted in ``skipped_pairs``.  The window ``t <= t_max`` is chosen by row
    index, with the relative tolerance (1e-12) of the regularity report's
    window, so it does not depend on the size of the horizon.
    """
    xs = traj.states[:, :, 0]
    if t_max is not None and traj.steps:
        rows = (t_max - traj.times[0]) / traj.horizon * traj.steps * (1 + 1e-12)
        xs = xs[: int(np.clip(np.floor(rows), 0, traj.steps)) + 1]
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
