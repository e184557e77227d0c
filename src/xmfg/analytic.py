"""Closed-form and ODE oracles for the two exactly solvable game families.

Linear-quadratic family: separation of variables u(x,t) = G(t)/2 x^2 +
Th(t) x + z(t) turns the value equation into the scalar backward system

    G' = G^2 + a(X),      G(T) = m(X(T)),
    Th' = G (Th + beta E X') + b(X),   Th(T) = n(X(T)),
    z' = |Th + beta E X'|^2 / 2 + c(X),  z(T) = q0(X(T)),

coupled to the forward ensemble equation

    X' = -G X - Th/(1+beta) + beta/(1+beta) G E X.

The Riccati convention above follows from direct substitution of the ansatz
into the value equation (the 1/2 G^2 variant fails the substitution and is
arbitrated against the generic grid solver in the tests).

Quartic family: u(x,t) = p(t) x^4 + q(t) with

    p' - 8 p^2 + 1 = 0,  p(T) = A,   X' = -4 p X,   q' = -U(X, X'),

whose coefficient has the closed form
p(t) = (1 + c e^{4 sqrt2 t}) / (2 sqrt2 (1 - c e^{4 sqrt2 t})).

Backward paths are integrated on a half-step grid so the forward RK4 sweep
has exact stage data, and an 8x refined reference run separates oracle error
from solver error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, TrajectoryEnsemble
from .errors import (
    FlowBlowupError,
    RiccatiBlowupError,
    RootSolveError,
    SingularCouplingError,
    SingularDenominatorError,
)
from .families import as_coefficient

__all__ = [
    "LQCoefficients",
    "LQState",
    "lq_solve",
    "riccati_closed_form",
    "QuarticState",
    "quartic_solve",
    "quartic_p_closed_form",
    "quartic_coefficient_constant",
]

_GAMMA_GUARD = 1e9
#: the LQ oracle's passes stop when the state path moves by <= LQ_TOL, or at LQ_MAX_PASSES
LQ_TOL = 1e-11
LQ_MAX_PASSES = 100
SQRT2 = float(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# linear-quadratic oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LQCoefficients:
    """Running (a, b, c) and terminal (m, n, q0) maps; constants allowed."""

    a: object = 0.0
    b: object = 0.0
    c: object = 0.0
    m: object = 0.0
    n: object = 0.0
    q0: object = 0.0

    def resolved(self):
        return tuple(
            as_coefficient(v) for v in (self.a, self.b, self.c, self.m, self.n, self.q0)
        )


@dataclass
class LQState:
    """Quadratic value coefficients on the solver time grid."""

    times: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    zeta: np.ndarray
    beta: float
    passes: int
    converged: bool
    refinement_gap: float

    def value_table(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=float)
        return (
            0.5 * self.gamma[:, None] * nodes[None, :] ** 2
            + self.theta[:, None] * nodes[None, :]
            + self.zeta[:, None]
        )


def riccati_closed_form(m: float, horizon: float, t):
    """Exact G(t) = m / (1 + m (T - t)) for the a = 0 scalar equation."""
    t = np.asarray(t, dtype=float)
    return m / (1.0 + m * (horizon - t))


def _rk4_backward_lq(fine_times, a_vals, b_vals, c_vals, beta, m_path, terminal):
    """Integrate (G, Th, z) from T down to 0 on the fine grid.

    The loop runs on Python floats: every operation is the IEEE one numpy
    would do on the 3-vector, in the same order, without the per-stage arrays.
    """
    k = len(fine_times) - 1
    h = float(fine_times[1] - fine_times[0])
    # tabulated (a, b, c, E X) at the fine nodes and, averaged, at their midpoints
    data = np.stack([a_vals, b_vals, c_vals, m_path], axis=1)
    nodes, mids = data.tolist(), (0.5 * data[:-1] + 0.5 * data[1:]).tolist()
    out = np.empty((k + 1, 3))
    out[k] = terminal

    def rhs(y, tab):
        g, th, _ = y
        exdot = -(g * tab[3] + th) / (1.0 + beta)
        drift = th + beta * exdot
        try:
            square = drift**2
        except OverflowError:  # a Python float power raises where numpy gives inf
            square = math.inf  # which fails the guard below
        return g * g + tab[0], g * drift + tab[1], 0.5 * square + tab[2]

    y = out[k].tolist()
    for j in range(k, 0, -1):
        k1 = rhs(y, nodes[j])
        k2 = rhs([yi - 0.5 * h * ki for yi, ki in zip(y, k1)], mids[j - 1])
        k3 = rhs([yi - 0.5 * h * ki for yi, ki in zip(y, k2)], mids[j - 1])
        k4 = rhs([yi - h * ki for yi, ki in zip(y, k3)], nodes[j - 1])
        y = [yi - h / 6.0 * (a + 2 * b + 2 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        if not all(map(math.isfinite, y)) or abs(y[0]) > _GAMMA_GUARD:
            raise RiccatiBlowupError(
                f"Riccati path escaped before t=0 (around t={fine_times[j - 1]:.6g})",
                blowup_time=float(fine_times[j - 1]),
            )
        out[j - 1] = y
    return out[:, 0], out[:, 1], out[:, 2]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state raises below
def _rk4_forward_states(times, sub, gamma_f, theta_f, beta, x_init):
    """Forward RK4 of the coupled ensemble equation on the solver grid.

    gamma_f/theta_f live on the fine grid (sub points per solver step) so
    every RK stage reads exact backward data.  A state that is not finite
    after a step raises :class:`FlowBlowupError` naming the step.
    """
    steps = len(times) - 1
    dt = times[1] - times[0]
    states = np.empty((steps + 1, len(x_init)))
    states[0] = x_init

    def rhs(j_fine, x):
        g, th = gamma_f[j_fine], theta_f[j_fine]
        return -g * x - th / (1.0 + beta) + beta / (1.0 + beta) * g * x.mean()

    half = sub // 2
    x = x_init.copy()
    for m in range(steps):
        j = m * sub
        k1 = rhs(j, x)
        k2 = rhs(j + half, x + 0.5 * dt * k1)
        k3 = rhs(j + half, x + 0.5 * dt * k2)
        k4 = rhs(j + sub, x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise FlowBlowupError(
                f"LQ oracle flow blew up advancing step {m} -> {m + 1} (t={times[m]:.4g})",
                step=m,
            )
        states[m + 1] = x
    return states


def _lq_paths(coeffs_fns, states, beta, horizon, steps, sub):
    """Iterate backward-forward passes from the frozen (M+1, N) seed path ``states``."""
    a_fn, b_fn, c_fn, m_fn, n_fn, q_fn = coeffs_fns
    times = np.linspace(0.0, horizon, steps + 1)
    k_fine = steps * sub
    fine_times = np.linspace(0.0, horizon, k_fine + 1)
    x_init = states[0]
    converged = False
    for passes in range(1, LQ_MAX_PASSES + 1):
        # coefficient and mean paths sampled on the fine grid from the frozen states
        idx = fine_times / horizon * steps
        lo = np.minimum(idx.astype(int), steps - 1)
        w = idx - lo
        fine_states = (1 - w)[:, None] * states[lo] + w[:, None] * states[lo + 1]
        # checked once per pass; the coefficient maps read unchecked views
        if not np.all(np.isfinite(fine_states)):
            raise ValueError("every sample coordinate must be finite")
        ens = [Ensemble._view(row) for row in fine_states[:, :, None]]
        a_vals = np.array([a_fn(e) for e in ens])
        b_vals = np.array([b_fn(e) for e in ens])
        c_vals = np.array([c_fn(e) for e in ens])
        with np.errstate(over="ignore"):  # an overflowing mean blows up the paths below
            m_path = fine_states.mean(axis=1)
        terminal = (m_fn(ens[-1]), n_fn(ens[-1]), q_fn(ens[-1]))

        gamma_f, theta_f, zeta_f = _rk4_backward_lq(
            fine_times, a_vals, b_vals, c_vals, beta, m_path, terminal
        )
        new_states = _rk4_forward_states(times, sub, gamma_f, theta_f, beta, x_init)
        gap = float(np.max(np.abs(new_states - states)))
        states = new_states
        if gap <= LQ_TOL:
            converged = True
            break

    node_ix = np.arange(0, k_fine + 1, sub)
    return times, gamma_f[node_ix], theta_f[node_ix], zeta_f[node_ix], states, converged, passes


def lq_solve(
    coeffs: LQCoefficients,
    x0: Ensemble,
    beta: float,
    horizon: float,
    steps: int,
):
    """Backward-forward solve of the quadratic-ansatz system.

    Ensemble-dependent coefficients are handled by freezing the trajectory,
    solving backward then forward, and iterating until the state path moves
    by at most LQ_TOL, within LQ_MAX_PASSES passes; constant coefficients
    with a centered population settle on the first pass.  The passes run at
    2 RK4 substeps per row; ``refinement_gap`` compares them with passes at
    16 substeps that start from the settled path.  Returns the
    coefficient paths and the population trajectory (with velocities and
    costates P = G X + Th).
    """
    if beta == -1.0:
        raise SingularCouplingError("mean-coupled forward equation is singular at beta = -1")
    fns = coeffs.resolved()
    resting = np.tile(x0.samples[:, 0], (steps + 1, 1))
    times, gamma, theta, zeta, states, converged, passes = _lq_paths(
        fns, resting, beta, horizon, steps, sub=2
    )
    _, gamma_r, theta_r, zeta_r, states_r, _, _ = _lq_paths(
        fns, states, beta, horizon, steps, sub=16
    )
    refinement_gap = float(
        max(
            np.max(np.abs(gamma - gamma_r)),
            np.max(np.abs(theta - theta_r)),
            np.max(np.abs(zeta - zeta_r)),
            np.max(np.abs(states - states_r)),
        )
    )

    mean_path = states.mean(axis=1)
    velocities = (
        -gamma[:, None] * states
        - theta[:, None] / (1.0 + beta)
        + beta / (1.0 + beta) * (gamma * mean_path)[:, None]
    )
    costates = gamma[:, None] * states + theta[:, None]

    traj = TrajectoryEnsemble(
        times=times,
        states=states[:, :, None],
        velocities=velocities[:, :, None],
        costates=costates[:, :, None],
    )
    state = LQState(
        times=times,
        gamma=gamma,
        theta=theta,
        zeta=zeta,
        beta=beta,
        passes=passes,
        converged=converged,
        refinement_gap=refinement_gap,
    )
    return state, traj


# ---------------------------------------------------------------------------
# quartic oracle
# ---------------------------------------------------------------------------


def quartic_coefficient_constant(a_terminal: float, horizon: float) -> float:
    """Integration constant c pinned by p(T) = A."""
    denom = 2.0 * SQRT2 * a_terminal + 1.0
    if abs(denom) < 1e-14:
        raise RootSolveError(
            "terminal coefficient A = -1/(2 sqrt 2) is outside the closed-form range"
        )
    return (2.0 * SQRT2 * a_terminal - 1.0) / (denom * np.exp(4.0 * SQRT2 * horizon))


def quartic_p_closed_form(c: float, t):
    t = np.asarray(t, dtype=float)
    e = c * np.exp(4.0 * SQRT2 * t)
    return (1.0 + e) / (2.0 * SQRT2 * (1.0 - e))


@dataclass
class QuarticState:
    """Quartic value coefficients p, q on the solver grid plus cross-checks."""

    times: np.ndarray
    p: np.ndarray
    q: np.ndarray
    c: float
    p_ode: np.ndarray
    p_cross_check_gap: float

    def value_table(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=float)
        return self.p[:, None] * nodes[None, :] ** 4 + self.q[:, None]


@np.errstate(all="ignore")  # a non-finite closed form raises below
def quartic_solve(
    a_terminal: float,
    b_terminal,
    coupling,
    x0: Ensemble,
    horizon: float,
    steps: int,
):
    """Quartic-game oracle: closed-form p, RK4 cross-check, state and q paths.

    ``a_terminal`` must be a constant (ensemble-dependent terminal coupling
    for p is unsupported); ``b_terminal`` may be a constant or a coefficient
    map evaluated at X(T); ``coupling`` is U(X, Z) or None for zero.
    """
    x_init = x0.samples[:, 0]
    if np.min(x_init) <= 0.0:
        raise ValueError("quartic oracle requires samples strictly above 0")
    c = quartic_coefficient_constant(float(a_terminal), horizon)
    # pole of 1 - c e^{4 sqrt2 t} inside the horizon
    if c > 0:
        t_pole = np.log(1.0 / c) / (4.0 * SQRT2)
        if -1e-12 <= t_pole <= horizon + 1e-12:
            raise SingularDenominatorError(
                f"closed-form denominator vanishes at t={t_pole:.6g} inside [0, {horizon:g}]"
            )

    times = np.linspace(0.0, horizon, steps + 1)
    sub = 8
    fine_times = np.linspace(0.0, horizon, steps * sub + 1)
    p_fine = quartic_p_closed_form(c, fine_times)
    p_nodes = p_fine[::sub]

    # backward RK4 of p' = 8 p^2 - 1 from p(T) = A on the fine grid
    p_ode_fine = np.empty_like(fine_times)
    p_ode_fine[-1] = float(a_terminal)
    h = fine_times[1] - fine_times[0]
    y = float(a_terminal)
    for j in range(len(fine_times) - 1, 0, -1):
        k1 = 8 * y**2 - 1
        y2 = y - 0.5 * h * k1
        k2 = 8 * y2**2 - 1
        y3 = y - 0.5 * h * k2
        k3 = 8 * y3**2 - 1
        y4 = y - h * k3
        k4 = 8 * y4**2 - 1
        y = y - h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        p_ode_fine[j - 1] = y
    p_ode = p_ode_fine[::sub]
    cross_gap = float(np.max(np.abs(p_fine - p_ode_fine)))

    # forward X' = -4 p X per sample, stages on the fine grid
    states = np.empty((steps + 1, x0.n))
    states[0] = x_init
    dt = times[1] - times[0]
    half = sub // 2
    x = x_init.copy()
    for m in range(steps):
        j = m * sub
        k1 = -4 * p_fine[j] * x
        k2 = -4 * p_fine[j + half] * (x + 0.5 * dt * k1)
        k3 = -4 * p_fine[j + half] * (x + 0.5 * dt * k2)
        k4 = -4 * p_fine[j + sub] * (x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        states[m + 1] = x
    velocities = -4.0 * p_nodes[:, None] * states
    costates = 4.0 * p_nodes[:, None] * states**3
    if not (np.all(np.isfinite(p_fine)) and np.all(np.isfinite(costates))):
        raise RootSolveError(f"quartic closed form is not finite on the horizon T={horizon:g}")

    # q' = -U(X, X') integrated backward with trapezoid on the solver grid
    b_fn = as_coefficient(b_terminal)
    q_terminal = float(b_fn(Ensemble(states[-1])))
    if coupling is None:
        u_vals = np.zeros(steps + 1)
    else:
        pairs = zip(states, velocities)
        u_vals = np.array([float(coupling(Ensemble(x), Ensemble(z))) for x, z in pairs])
    q_path = np.empty(steps + 1)
    q_path[-1] = q_terminal
    for m in range(steps - 1, -1, -1):
        q_path[m] = q_path[m + 1] + 0.5 * dt * (u_vals[m] + u_vals[m + 1])

    traj = TrajectoryEnsemble(
        times=times,
        states=states[:, :, None],
        velocities=velocities[:, :, None],
        costates=costates[:, :, None],
    )
    state = QuarticState(
        times=times,
        p=p_nodes,
        q=q_path,
        c=c,
        p_ode=p_ode,
        p_cross_check_gap=cross_gap,
    )
    return state, traj
