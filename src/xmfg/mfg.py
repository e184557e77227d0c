"""Outer fixed point coupling the population flow with the backward value solve.

The map at the heart of the solver sends a candidate initial value profile
Phi to the time-zero slice of the value function computed along the
population trajectory that Phi seeds:

    F: Phi  ->  u(., 0),
        where (X, P) flow from P(0) = Phi'(X_0)
        and u solves the backward equation along (X, X').

Phi lives as its values on the grid nodes; the seed P(0) is its central
difference (:class:`~xmfg.hjb.ValueGrid`'s rule) interpolated at X_0.

Solutions of the coupled game are fixed points of F.  They are searched by
safeguarded Anderson mixing of Picard steps, undamped until the safeguard
first rejects one; existence theory guarantees a fixed point but no
contraction rate, so non-convergence is a reportable outcome, never hidden.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .ensembles import Ensemble, TrajectoryEnsemble, power_root

# unused here, but perfbench/layers.py traces the gap layer under this name
from .ensembles import wasserstein_1d as ensemble_distance  # noqa: F401
from .errors import (
    ControlSaturationError,
    DomainTooSmallError,
    FlowBlowupError,
    ValueBlowupError,
    XmfgError,
)
from .families import HamiltonianFamily
from .flow import integrate_flow
from .hjb import GridConfig, RegularityReport, ValueGrid, regularity_report, solve_backward


__all__ = [
    "SolverConfig",
    "ProblemSpec",
    "MfgSolution",
    "canonical_grid",
    "apply_F",
    "solve_mfg",
    "master_value",
    "master_consistency_residual",
    "uniqueness_probe",
    "UniquenessProbeResult",
]

#: residual differences kept by the Anderson mixing of the outer iteration
ANDERSON_MEMORY = 5
#: Tikhonov weight of the Anderson normal equations on unit-norm columns
ANDERSON_REGULARIZATION = 1e-10
#: errors that drop a trial Phi for the damped step instead of ending the solve
_EXTRAPOLATION_FAILURES = (ControlSaturationError, DomainTooSmallError, FlowBlowupError)
#: the flow's local error tolerance per unit of ``tol_traj``: the trajectory
#: residual is measured well above the integration error
_FLOW_TOL = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and outer-iteration knobs."""

    nx: int = 201
    time_steps: int = 200
    nv: int = 201  # validated (nv >= 2); changes no number
    v_max: float | None = None  # None selects from coercivity
    damping: float = 0.5  # mixing weight of the fallback and of every step after it
    tol_fix: float = 1e-6
    tol_traj: float = 1e-6
    max_outer: int = 60

    def __post_init__(self):
        if min(self.nx, self.time_steps, self.nv, self.max_outer) < 1:
            raise ValueError("all solver sizes must be positive")
        if self.nx < 3 or self.nv < 2:
            raise ValueError("the grid needs nx >= 3 and nv >= 2")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.v_max is not None and not (self.v_max > 0):
            raise ValueError("v_max must be positive when given")
        if not (self.tol_fix > 0 and self.tol_traj > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class ProblemSpec:
    """A game instance: cost family, horizon, initial population and the
    moment exponent q of its space L^q, which sets the trajectory residual W_q."""

    family: HamiltonianFamily
    horizon: float
    initial: Ensemble
    q: float = 2.0

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        if not (self.q >= 1.0 and math.isfinite(self.q)):
            raise ValueError("moment exponent q must be a finite real >= 1")


@dataclass
class MfgSolution:
    """Best iterate of the outer iteration plus its full residual record.

    ``value`` holds every time row.  ``residual_history`` rows are (k,
    ||F(Phi_k) - Phi_k||_inf, trajectory W_q to the previous iterate);
    ``restarts`` counts safeguard fallbacks.  ``regularity_history`` holds
    each iteration's :func:`regularity_report` of its evaluation's swept rows.
    """

    value: ValueGrid
    traj: TrajectoryEnsemble
    residual_history: list[tuple[int, float, float]]
    converged: bool
    final_phi_residual: float
    final_traj_residual: float
    iterations: int
    restarts: int
    regularity_history: list[RegularityReport] = field(default_factory=list)


def _auto_v_max(fam: HamiltonianFamily, x0: Ensemble) -> float:
    """Coercivity-based control cap: controls beyond it are never optimal.

    Finds the smallest speed for which the running cost at speed v dominates
    the flat cost plus the terminal slope times v on probe points around the
    initial hull, then doubles it.
    """
    lo, hi = float(np.min(x0.samples)), float(np.max(x0.samples))
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    half = max(half, 0.5)
    rest = Ensemble(np.zeros_like(x0.samples))
    with np.errstate(all="ignore"):  # a slope that overflows against every speed raises below
        probes = np.linspace(center - 1.5 * half, center + 1.5 * half, 9)
        psi_vals = np.asarray(fam.terminal(probes, x0), dtype=float)
        if not np.all(np.isfinite(psi_vals)):
            raise XmfgError("the terminal cost is not finite near X_0; declare v_max explicitly")
        lip = max(float(np.max(np.abs(np.diff(psi_vals))) / (probes[1] - probes[0])), 1e-6)
        base = np.asarray(fam.lagrangian(probes, 0.0, x0, rest), dtype=float)
        for v in np.geomspace(1e-3, 1e6, 400):
            cost = np.asarray(fam.lagrangian(probes, v, x0, rest), dtype=float)
            cost_neg = np.asarray(fam.lagrangian(probes, -v, x0, rest), dtype=float)
            if np.all(cost >= base + lip * v) and np.all(cost_neg >= base + lip * v):
                return 2.0 * v
    raise XmfgError("could not select v_max from coercivity; declare it explicitly")


def canonical_grid(
    problem: ProblemSpec,
    cfg: SolverConfig,
    include: tuple[float, float] | None = None,
) -> GridConfig:
    """Deterministic spatial grid for a problem/config pair.

    Linear dynamics pad the initial hull by v_max * T + 3 dx so no
    characteristic with admissible speed can exit; the padding belt is
    sacrificial (saturation there is tolerated).  State-scaled dynamics
    instead bracket, multiplicatively, the hull swept by the flow that the
    terminal slope psi'(., X_0) seeds, keeping the domain away from x = 0.
    That flow runs at :func:`integrate_flow`'s default tolerance, so the grid
    does not move with ``tol_traj``.
    """
    fam = problem.family
    x0 = problem.initial
    v_max = cfg.v_max if cfg.v_max is not None else _auto_v_max(fam, x0)
    lo, hi = float(np.min(x0.samples)), float(np.max(x0.samples))
    if include is not None:
        lo, hi = min(lo, float(include[0])), max(hi, float(include[1]))
    if fam.speed is None:  # linear dynamics dx/dt = v
        pad = v_max * problem.horizon
        dx0 = (hi - lo + 2 * pad) / (cfg.nx - 1)
        if not math.isfinite(dx0):
            raise XmfgError(f"grid padding v_max * T = {pad:g} overflows; reduce v_max or T")
        if not dx0 > 2 * np.spacing(max(-lo, hi) + pad):  # else the nodes would coincide
            raise XmfgError(f"grid spacing {dx0:g} does not resolve x near {max(-lo, hi):g}")
        pad += 3 * dx0
        return GridConfig(
            x_lo=lo - pad,
            x_hi=hi + pad,
            nx=cfg.nx,
            nv=cfg.nv,
            v_max=v_max,
            core_lo=lo - 3 * dx0,
            core_hi=hi + 3 * dx0,
        )
    with np.errstate(all="ignore"):  # a non-finite seed slope fails the flow's first rates
        p0 = fam.terminal.gradient(x0.samples[:, 0], x0)
    path = integrate_flow(fam, x0, p0, problem.horizon, cfg.time_steps).states
    # the path starts on X_0, so this is the hull of the path and the included span
    swept_lo, swept_hi = min(lo, float(path.min())), max(hi, float(path.max()))
    if swept_lo <= 0:
        raise XmfgError("state-scaled dynamics swept through x <= 0; problem ill-posed here")
    x_lo, x_hi = 0.5 * swept_lo, 1.5 * swept_hi
    dx0 = (x_hi - x_lo) / (cfg.nx - 1)
    return GridConfig(
        x_lo=max(x_lo - 3 * dx0, 0.25 * swept_lo),
        x_hi=x_hi + 3 * dx0,
        nx=cfg.nx,
        nv=cfg.nv,
        v_max=v_max,
        core_lo=swept_lo,
        core_hi=swept_hi,
    )


def _compose_once(
    problem: ProblemSpec, phi: np.ndarray, grid: GridConfig, cfg: SolverConfig
) -> tuple[ValueGrid, TrajectoryEnsemble]:
    """F at the profile ``phi`` on the grid's nodes: the flow from
    P(0) = Phi'(X_0), read off the one-row table of ``phi``, then the sweep."""
    x0 = problem.initial
    p0 = ValueGrid(grid, [0.0], phi[None]).gradient_at(x0.samples[:, 0], 0)
    traj = integrate_flow(
        problem.family, x0, p0, problem.horizon, cfg.time_steps, tol=_FLOW_TOL * cfg.tol_traj
    )
    vg = solve_backward(problem.family, traj, grid)
    return vg, traj


def apply_F(problem: ProblemSpec, phi0, cfg: SolverConfig) -> ValueGrid:
    """One application of the fixed-point map: flow from Phi, then solve back.

    ``phi0``, a callable of the nodes of the canonical grid of the
    problem/config, gives Phi there.  The returned grid holds the swept rows;
    F(Phi) is its ``u[0]``.
    """
    problem.family._require_running_cost()
    grid = canonical_grid(problem, cfg)
    vg, _ = _compose_once(problem, np.asarray(phi0(grid.nodes()), dtype=float), grid, cfg)
    return vg


def _trajectory_gap(a: TrajectoryEnsemble, b: TrajectoryEnsemble, q: float) -> float:
    # max over times of W_q between sorted 1-d paths; the root is monotone, so
    # taking it after the max keeps the bits of the per-time distances' max;
    # each path is sorted once, when it is first compared
    gaps = np.abs(a.sorted_states - b.sorted_states)
    return power_root(gaps, q, lambda g: np.max(np.mean(g, axis=1)))


def _anderson_step(
    phi: np.ndarray, f: np.ndarray, d_phi, d_f, lam: float
) -> np.ndarray:
    """Type-II Anderson update of Phi from its residual f = F(Phi) - Phi.

    ``d_phi``/``d_f`` hold the differences of the last accepted iterates and
    of their residuals.  gamma minimizes ||f - dF gamma||_2 through the
    regularized normal equations (at most ANDERSON_MEMORY unknowns), and the
    step is Phi + lam f - (dPhi + lam dF) gamma.  Without history this is
    the Picard step Phi + lam f, undamped at lam = 1.
    """
    step = phi + lam * f
    if not d_f:
        return step
    df = np.array(d_f)
    # unit-norm columns keep the regularization relative to every column,
    # not just to the oldest and largest residual differences
    norms = np.sqrt(np.einsum("ij,ij->i", df, df))
    norms[norms == 0.0] = 1.0
    unit = df / norms[:, None]
    gram = unit @ unit.T
    gram[np.diag_indices_from(gram)] += ANDERSON_REGULARIZATION
    gamma = np.linalg.solve(gram, unit @ f) / norms
    return step - gamma @ (np.array(d_phi) + lam * df)


def solve_mfg(
    problem: ProblemSpec,
    cfg: SolverConfig,
    phi0=None,
    include: tuple[float, float] | None = None,
) -> MfgSolution:
    """Safeguarded Anderson iteration on the fixed point Phi = F(Phi).

    Works on the canonical grid of the problem/config, widened to cover
    ``include``, and starts from Phi_0 = psi(., X_0) unless ``phi0``, a
    callable of the grid nodes, is supplied.  Each step mixes the last
    ANDERSON_MEMORY residuals f = F(Phi) - Phi (see :func:`_anderson_step`)
    with unit weight until the first rejection, and with lam = ``cfg.damping``
    from then on.  A unit step, and every step with history, is a trial: it
    is dropped for the damped step Phi_a + lam f_a from the last accepted
    iterate, with the history cleared, when its residual ||f||_inf exceeds
    that of Phi_a or when the flow or the backward sweep rejects it;
    ``restarts`` counts these fallbacks.  A damped step is always accepted and
    its errors propagate, so a game evaluates F at most once more than under
    damping alone; at lam = 1 no step changes.

    Convergence requires, from the second iterate on, both the fixed-point
    residual ||F(Phi_k) - Phi_k||_inf <= tol_fix and the trajectory residual
    max_t W_q(X_k, X_{k-1}) <= tol_traj; reaching max_outer first returns the
    best iterate with ``converged=False``.  F is deterministic, so an iterate
    equal to the last one evaluated reuses that flow and sweep.  Only the
    returned iterate is blended to every time row (:meth:`ValueGrid.dense`).
    """
    fam = problem.family
    fam._require_running_cost()  # before the seed flow of a state-scaled grid
    grid = canonical_grid(problem, cfg, include=include)
    nodes = grid.nodes()
    with np.errstate(all="ignore"):  # a non-finite profile raises below
        if phi0 is None:
            phi_vals = np.asarray(fam.terminal(nodes, problem.initial), dtype=float)
        else:
            phi_vals = np.asarray(phi0(nodes), dtype=float)
    if not np.all(np.isfinite(phi_vals)):
        raise ValueBlowupError("the starting value profile is not finite on the grid")

    lam = cfg.damping
    history: list[tuple[int, float, float]] = []
    reg_history: list[RegularityReport] = []
    best = None
    best_score = math.inf
    prev_traj = None
    converged = False
    d_phi: deque[np.ndarray] = deque(maxlen=ANDERSON_MEMORY)
    d_f: deque[np.ndarray] = deque(maxlen=ANDERSON_MEMORY)
    accepted = None  # (phi, f, ||f||_inf) of the last accepted iterate
    extrapolated = False
    restarts = 0
    weight = 1.0  # the mixing weight: 1 until the first rejection, then lam for good
    k = 0
    last = None  # (phi, vg, traj, report) of the last evaluation of F, which is deterministic

    while k < cfg.max_outer:
        try:
            if last is None or not np.array_equal(last[0], phi_vals):
                vg, traj = _compose_once(problem, phi_vals, grid, cfg)
                last = (phi_vals, vg, traj, regularity_report(vg))
            _, vg, traj, report = last
        except _EXTRAPOLATION_FAILURES:
            if not extrapolated:
                raise
            rejected = True
        else:
            k += 1
            f = vg.u[0] - phi_vals
            fix_res = float(np.max(np.abs(f)))
            traj_res = math.nan
            if prev_traj is not None:
                traj_res = _trajectory_gap(traj, prev_traj, problem.q)
            history.append((k, fix_res, traj_res))
            reg_history.append(report)
            if fix_res <= best_score:
                best_score = fix_res
                best = (vg, traj, fix_res, traj_res)
            if k >= 2 and fix_res <= cfg.tol_fix and traj_res <= cfg.tol_traj:
                converged = True
                break
            prev_traj = traj
            rejected = extrapolated and fix_res > accepted[2]
        if rejected:
            restarts += 1
            weight = lam
            d_phi.clear()
            d_f.clear()
            phi_vals = accepted[0] + lam * accepted[1]
            extrapolated = False
            continue
        if accepted is not None:
            d_phi.append(phi_vals - accepted[0])
            d_f.append(f - accepted[1])
        accepted = (phi_vals, f, fix_res)
        phi_vals = _anderson_step(phi_vals, f, d_phi, d_f, weight)
        extrapolated = bool(d_f) or weight > lam

    vg, traj, fix_res, traj_res = best
    return MfgSolution(
        value=vg.dense(),
        traj=traj,
        residual_history=history,
        converged=converged,
        final_phi_residual=fix_res,
        final_traj_residual=traj_res,
        iterations=k,
        restarts=restarts,
        regularity_history=reg_history,
    )


def _restart_row(problem: ProblemSpec, t: float, cfg: SolverConfig) -> int:
    """The time row a restart at t snaps to: the nearest, short of the last."""
    return min(int(round(t / (problem.horizon / cfg.time_steps))), cfg.time_steps - 1)


def _restart_problem(
    problem: ProblemSpec, y: Ensemble, t: float, cfg: SolverConfig
) -> tuple[ProblemSpec, SolverConfig]:
    """The game on [t, T] from population Y, with t snapped to the time grid."""
    if not (0.0 <= t < problem.horizon):
        raise ValueError("master evaluation requires 0 <= t < horizon")
    dt = problem.horizon / cfg.time_steps
    sub_steps = cfg.time_steps - _restart_row(problem, t, cfg)
    return replace(problem, horizon=sub_steps * dt, initial=y), replace(cfg, time_steps=sub_steps)


def master_value(problem: ProblemSpec, x, y: Ensemble, t: float, cfg: SolverConfig):
    """Candidate master-equation value: solve the game on [t, T] from Y.

    The restart time snaps to the solver time grid so the sub-problem shares
    the step size; the value is read at x on the time-t slice (time 0 of the
    sub-problem).  At t -> T this reproduces the terminal cost.  ``x`` may be
    a float (a float is returned) or an array, read off one sub-solve whose
    grid covers every point.
    """
    xs = np.asarray(x, dtype=float)
    sub_problem, sub_cfg = _restart_problem(problem, y, t, cfg)
    sol = solve_mfg(sub_problem, sub_cfg, include=(float(np.min(xs)), float(np.max(xs))))
    values = sol.value.value_at(xs, 0)
    return float(values) if xs.ndim == 0 else values


def master_consistency_residual(
    sol: MfgSolution, problem: ProblemSpec, cfg: SolverConfig, probe_points
) -> float:
    """max over probes (x, t) of |u(x, t) - V(x, X(t), t)|.

    Both sides approximate the same value, one through the full-horizon
    solve, the other through a restart at time t from the solved population
    state; the gap stacks the two discretizations.  The probes are grouped
    by the time row their restart snaps to, and each row is read off one
    :func:`master_value` sub-solve whose grid covers all of its points.
    """
    dt = problem.horizon / cfg.time_steps
    rows: dict[int, list[float]] = {}
    for x, t in probe_points:
        rows.setdefault(_restart_row(problem, float(t), cfg), []).append(float(x))
    worst = 0.0
    for m_t, xs in rows.items():
        xs = np.asarray(xs)
        u_here = sol.value.value_at(xs, m_t)
        v_here = master_value(problem, xs, sol.traj.ensemble(m_t), m_t * dt, cfg)
        worst = max(worst, float(np.max(np.abs(u_here - v_here))))
    return worst


@dataclass(frozen=True)
class UniquenessProbeResult:
    """Spread of fixed points reached from randomized initial profiles."""

    status: str  # "conclusive" | "inconclusive"
    max_pairwise: float
    run_residuals: list[float]


def uniqueness_probe(
    problem: ProblemSpec,
    cfg: SolverConfig,
    k: int = 3,
    rng_seed: int = 0,
) -> UniquenessProbeResult:
    """Solve from k >= 2 random 2-Lipschitz initial profiles and compare.

    All runs converging to (numerically) the same profile is evidence for
    uniqueness; any non-converged run makes the probe inconclusive rather
    than a claim either way.  Each profile is a sum of three sines handed to
    :func:`solve_mfg` as a callable, evaluated on the nodes of its grid.
    Fewer than two runs compare nothing, so ``k < 2`` raises ``ValueError``.
    """
    if k < 2:
        raise ValueError(f"a uniqueness probe compares at least 2 runs, not k={k}")
    rng = np.random.default_rng(rng_seed)
    finals = []
    residuals = []
    for _ in range(k):
        amps = rng.uniform(-1.0, 1.0, size=3)
        freqs = rng.uniform(0.2, 1.5, size=3)
        phases = rng.uniform(0.0, 2 * np.pi, size=3)
        weight = np.sum(np.abs(amps * freqs))
        scale = 2.0 / max(weight, 1e-12)

        def phi0(nodes):
            waves = np.sin(freqs[:, None] * nodes[None, :] + phases[:, None])
            return scale * np.sum(amps[:, None] * waves, axis=0)

        try:
            sol = solve_mfg(problem, cfg, phi0=phi0)
        except XmfgError:
            # a run that blows up or saturates is no evidence either way
            residuals.append(math.nan)
            return UniquenessProbeResult("inconclusive", math.nan, residuals)
        residuals.append(sol.final_phi_residual)
        if not sol.converged:
            return UniquenessProbeResult("inconclusive", math.nan, residuals)
        finals.append(sol.value.u[0])
    worst = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            worst = max(worst, float(np.max(np.abs(finals[i] - finals[j]))))
    return UniquenessProbeResult("conclusive", worst, residuals)
