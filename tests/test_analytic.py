import numpy as np
import pytest

import xmfg.analytic as analytic
from xmfg.analytic import (
    LQCoefficients,
    lq_solve,
    quartic_coefficient_constant,
    quartic_p_closed_form,
    quartic_solve,
    riccati_closed_form,
)
from xmfg.ensembles import Ensemble
from xmfg.errors import (
    FlowBlowupError,
    RiccatiBlowupError,
    RootSolveError,
    SingularCouplingError,
    SingularDenominatorError,
)
from xmfg.families import LQFamily, MeanSquareVelocityCoupling, QuarticFamily

SQRT2 = np.sqrt(2.0)


def spread_ensemble(n=16, lo=-1.0, hi=1.0):
    return Ensemble(lo + (hi - lo) * (np.arange(n) + 0.5) / n)


def test_scalar_riccati_against_closed_form():
    # backward G' = G^2 with G(T) = m integrates to m / (1 + m (T - t))
    x0 = spread_ensemble()
    state, _ = lq_solve(LQCoefficients(m=1.0), x0, beta=0.0, horizon=1.0, steps=100)
    np.testing.assert_allclose(
        state.gamma, riccati_closed_form(1.0, 1.0, state.times), atol=1e-10
    )
    assert state.converged
    assert state.refinement_gap <= 1e-9


def test_scalar_forward_state_closed_form():
    # dX/dt = -G X integrates to x (1 + m (T - t)) / (1 + m T)
    m = 1.0
    x0 = spread_ensemble(8)
    _, traj = lq_solve(LQCoefficients(m=m), x0, beta=0.0, horizon=1.0, steps=100)
    expected = x0.samples[:, 0][None, :] * (1 + m * (1.0 - traj.times[:, None])) / (1 + m)
    np.testing.assert_allclose(traj.states[:, :, 0], expected, atol=1e-10)


def test_decoupled_constants():
    # a = m = 0, b = n = 0: G = Th = 0 and z' = c, so z(t) = q0 - c (T - t);
    # the running cost enters the player's integrand as -c, checked against
    # the control definition: u(x, 0) = inf_v int (v^2/2 - c) + q0 at v = 0.
    x0 = spread_ensemble(4)
    state, traj = lq_solve(
        LQCoefficients(c=0.7, q0=2.0), x0, beta=0.0, horizon=2.0, steps=50
    )
    np.testing.assert_allclose(state.gamma, 0.0, atol=1e-14)
    np.testing.assert_allclose(state.theta, 0.0, atol=1e-14)
    np.testing.assert_allclose(state.zeta, 2.0 - 0.7 * (2.0 - state.times), atol=1e-12)
    np.testing.assert_allclose(traj.states, np.broadcast_to(traj.states[0], traj.states.shape))


def test_terminal_conditions_with_ensemble_maps():
    # m(X) = E|X|^2 couples the terminal data to the solved path
    x0 = spread_ensemble(8, lo=0.5, hi=1.5)
    coeffs = LQCoefficients(a=0.2, m=lambda e: e.moment(2.0), n=0.1, q0=0.3)
    state, traj = lq_solve(coeffs, x0, beta=0.4, horizon=0.8, steps=80)
    assert state.converged
    terminal_ens = traj.ensemble(traj.steps)
    assert state.gamma[-1] == pytest.approx(terminal_ens.moment(2.0), abs=1e-9)
    assert state.theta[-1] == pytest.approx(0.1)
    assert state.zeta[-1] == pytest.approx(0.3)


def test_lq_value_even_symmetry():
    x0 = spread_ensemble(10)  # symmetric about 0
    state, _ = lq_solve(LQCoefficients(a=0.5, m=1.0), x0, beta=0.6, horizon=1.0, steps=60)
    nodes = np.linspace(-2, 2, 41)
    table = state.value_table(nodes)
    np.testing.assert_allclose(table, table[:, ::-1], atol=1e-10)


def test_lq_costates_and_velocities_consistent():
    x0 = spread_ensemble(6)
    state, traj = lq_solve(LQCoefficients(a=0.3, m=1.0), x0, beta=0.5, horizon=1.0, steps=40)
    np.testing.assert_allclose(
        traj.costates[:, :, 0],
        state.gamma[:, None] * traj.states[:, :, 0] + state.theta[:, None],
        atol=1e-12,
    )
    fd = np.diff(traj.states[:, :, 0], axis=0) / traj.dt
    assert np.max(np.abs(fd - traj.velocities[:-1, :, 0])) <= 0.05


def test_riccati_blowup_detected():
    x0 = spread_ensemble(4)
    with pytest.raises(RiccatiBlowupError):
        lq_solve(LQCoefficients(a=-25.0, m=-10.0), x0, beta=0.0, horizon=1.0, steps=200)


def test_lq_rejects_singular_beta():
    with pytest.raises(SingularCouplingError):
        lq_solve(LQCoefficients(m=1.0), spread_ensemble(4), beta=-1.0, horizon=1.0, steps=10)


def test_lq_oracle_satisfies_discrete_hjb_residual():
    # substitute the oracle into -u_t + (u_x)^2/2 + V with central differences
    x0 = spread_ensemble(16)
    steps = 80
    state, traj = lq_solve(LQCoefficients(a=0.4, m=1.0), x0, beta=0.0, horizon=1.0, steps=steps)
    nodes = np.linspace(-1.5, 1.5, 121)
    dx = nodes[1] - nodes[0]
    dt = 1.0 / steps
    u = state.value_table(nodes)
    u_t = (u[2:, :] - u[:-2, :]) / (2 * dt)
    u_x = (u[:, 2:] - u[:, :-2]) / (2 * dx)
    v_run = 0.5 * 0.4 * nodes[None, 1:-1] ** 2
    residual = -u_t[:, 1:-1] + 0.5 * u_x[1:-1, :] ** 2 + v_run
    assert np.max(np.abs(residual)) <= 10 * (dx**2 + dt**2)


# ---------------------------------------------------------------------------
# quartic oracle
# ---------------------------------------------------------------------------


def test_quartic_steady_state():
    # A = 1/(2 sqrt 2) pins c = 0 and p constant with 8 p^2 = 1
    a = 1.0 / (2 * SQRT2)
    x0 = spread_ensemble(8, lo=0.5, hi=1.5)
    state, _ = quartic_solve(a, 0.0, None, x0, horizon=0.5, steps=50)
    assert state.c == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(state.p, 0.3535533905932738, atol=1e-14)
    np.testing.assert_allclose(8 * state.p**2 - 1.0, 0.0, atol=1e-13)


def test_quartic_steady_value_is_pure_quartic():
    a = 1.0 / (2 * SQRT2)
    x0 = spread_ensemble(8, lo=0.5, hi=1.5)
    state, _ = quartic_solve(a, 0.0, None, x0, horizon=0.5, steps=50)
    nodes = np.linspace(0.5, 1.5, 11)
    np.testing.assert_allclose(
        state.value_table(nodes), np.tile(nodes**4 / (2 * SQRT2), (51, 1)), atol=1e-12
    )
    np.testing.assert_allclose(state.q, 0.0, atol=1e-15)


def test_quartic_constant_from_terminal_condition():
    # c = (2 sqrt2 A - 1) / ((2 sqrt2 A + 1) e^{4 sqrt2 T}) for A = 1, T = 1
    expected = (2 * SQRT2 - 1) / ((2 * SQRT2 + 1) * np.exp(4 * SQRT2))
    assert quartic_coefficient_constant(1.0, 1.0) == pytest.approx(expected, rel=1e-14)
    p_t = quartic_p_closed_form(expected, np.array([1.0]))[0]
    assert p_t == pytest.approx(1.0, rel=1e-12)


def test_quartic_closed_form_vs_backward_rk4():
    x0 = spread_ensemble(8, lo=0.5, hi=1.5)
    state, _ = quartic_solve(1.0, 0.0, None, x0, horizon=1.0, steps=200)
    assert state.p_cross_check_gap <= 1e-8
    np.testing.assert_allclose(state.p, state.p_ode, atol=1e-8)


def test_quartic_state_follows_ode_not_separable_formula():
    # the state path of record is the ODE X' = -4 p X, which on the steady
    # coefficient p = 1/(2 sqrt 2) contracts as x0 exp(-sqrt2 t)
    a = 1.0 / (2 * SQRT2)
    x0 = spread_ensemble(8, lo=0.5, hi=1.5)
    _, traj = quartic_solve(a, 0.0, None, x0, horizon=0.5, steps=100)
    expected = x0.samples[:, 0][None, :] * np.exp(-SQRT2 * traj.times[:, None])
    np.testing.assert_allclose(traj.states[:, :, 0], expected, atol=1e-9)


def test_quartic_q_path_against_dense_quadrature():
    coupling = MeanSquareVelocityCoupling(0.3)
    x0 = spread_ensemble(8, lo=0.5, hi=1.5)
    state, traj = quartic_solve(0.5, 1.0, coupling, x0, horizon=0.5, steps=100)
    fine_state, fine_traj = quartic_solve(0.5, 1.0, coupling, x0, horizon=0.5, steps=1600)
    np.testing.assert_allclose(state.q, fine_state.q[::16], atol=1e-5)
    assert state.q[-1] == pytest.approx(1.0)


def test_quartic_guard_rails():
    x0 = spread_ensemble(4, lo=0.5, hi=1.5)
    with pytest.raises(RootSolveError):
        quartic_solve(-1.0 / (2 * SQRT2), 0.0, None, x0, horizon=1.0, steps=10)
    with pytest.raises(SingularDenominatorError):
        quartic_solve(-1.0, 0.0, None, x0, horizon=1.0, steps=10)
    with pytest.raises(ValueError):
        quartic_solve(1.0, 0.0, None, Ensemble([-0.5, 1.0]), horizon=1.0, steps=10)


def test_quartic_oracle_satisfies_discrete_hjb_residual():
    # -u_t + (u_x)^2/(2 x^2) - x^4 with u = p x^4 + q vanishes identically;
    # central differences leave a second-order remainder, so refining both
    # steps by 2 should shrink the residual by about 4
    x0 = spread_ensemble(8, lo=0.5, hi=1.5)

    def residual(steps, nx):
        state, _ = quartic_solve(1.0, 0.0, None, x0, horizon=0.5, steps=steps)
        nodes = np.linspace(0.4, 1.6, nx)
        dx = nodes[1] - nodes[0]
        dt = 0.5 / steps
        u = state.value_table(nodes)
        u_t = (u[2:, :] - u[:-2, :]) / (2 * dt)
        u_x = (u[:, 2:] - u[:, :-2]) / (2 * dx)
        return np.max(
            np.abs(
                -u_t[:, 1:-1]
                + 0.5 * u_x[1:-1, :] ** 2 / nodes[None, 1:-1] ** 2
                - nodes[None, 1:-1] ** 4
            )
        )

    coarse, fine = residual(100, 121), residual(200, 241)
    assert coarse / fine >= 3.0
    assert fine <= 0.02


def test_quartic_family_consistent_with_oracle_dynamics():
    # population velocity from the family equals -4 p X on the oracle path
    a = 1.0 / (2 * SQRT2)
    fam = QuarticFamily(a)
    x0 = spread_ensemble(6, lo=0.5, hi=1.5)
    state, traj = quartic_solve(a, 0.0, None, x0, horizon=0.5, steps=50)
    m = 10
    xs = traj.states[m, :, 0]
    ps = traj.costates[m, :, 0]
    np.testing.assert_allclose(
        -fam.dp_hamiltonian(xs, ps, traj.ensemble(m), traj.velocity_ensemble(m)),
        traj.velocities[m, :, 0],
        atol=1e-12,
    )


def former_rk4_backward_lq(fine_times, a_vals, b_vals, c_vals, beta, m_path, terminal):
    """The numpy 3-vector loop the Python-float one replaced, kept as the reference."""
    k = len(fine_times) - 1
    h = fine_times[1] - fine_times[0]
    gamma, theta, zeta = np.empty(k + 1), np.empty(k + 1), np.empty(k + 1)
    gamma[k], theta[k], zeta[k] = terminal

    def rhs(j_lo, w, y):
        def tab(vals):
            if w == 0.0:
                return vals[j_lo]
            return (1 - w) * vals[j_lo] + w * vals[j_lo + 1]

        g, th, _ = y
        exdot = -(g * tab(m_path) + th) / (1.0 + beta)
        drift = th + beta * exdot
        return np.array(
            [g * g + tab(a_vals), g * drift + tab(b_vals), 0.5 * drift**2 + tab(c_vals)]
        )

    y = np.array([gamma[k], theta[k], zeta[k]])
    for j in range(k, 0, -1):
        k1 = rhs(j, 0.0, y)
        k2 = rhs(j - 1, 0.5, y - 0.5 * h * k1)
        k3 = rhs(j - 1, 0.5, y - 0.5 * h * k2)
        k4 = rhs(j - 1, 0.0, y - h * k3)
        y = y - h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)) or abs(y[0]) > analytic._GAMMA_GUARD:
            raise RiccatiBlowupError(
                f"Riccati path escaped before t=0 (around t={fine_times[j - 1]:.6g})",
                blowup_time=float(fine_times[j - 1]),
            )
        gamma[j - 1], theta[j - 1], zeta[j - 1] = y
    return gamma, theta, zeta


def lq_outcome(coeffs, x0, beta, horizon, steps):
    """Every output of lq_solve as bytes, or the error it ends in."""
    try:
        state, traj = lq_solve(coeffs, x0, beta, horizon, steps)
    except (RiccatiBlowupError, FlowBlowupError) as exc:
        return type(exc), str(exc)
    arrays = (state.gamma, state.theta, state.zeta, traj.states, traj.velocities, traj.costates)
    return [a.tobytes() for a in arrays], state.passes, state.converged, state.refinement_gap


LQ_PARITY_CASES = {
    "offcentre": (LQCoefficients(b=0.3, m=1.0, n=0.2), (16, 0.5, 1.5), 0.5, 1.0, 40),
    "ensemble-maps": (
        LQCoefficients(
            a=lambda e: 0.1 * e.mean_scalar() ** 2,
            b=lambda e: -0.2 * e.mean_scalar(),
            c=lambda e: 0.1 * e.moment(2.0),
            m=0.7,
            n=lambda e: 0.1 * e.mean_scalar(),
        ),
        (12, -0.3, 1.1),
        -0.4,
        1.0,
        20,
    ),
    "terminal-moment": (
        LQCoefficients(a=0.2, m=lambda e: e.moment(2.0), n=0.1, q0=0.3),
        (8, 0.5, 1.5),
        0.4,
        0.8,
        20,
    ),
    "riccati-blowup": (LQCoefficients(a=-25.0, m=-10.0), (4, -1.0, 1.0), 0.0, 1.0, 50),
    "non-finite-path": (LQCoefficients(a=-1e8, m=-1e4), (6, 0.5, 1.5), 0.0, 1.0, 40),
}


@pytest.mark.parametrize("case", LQ_PARITY_CASES.values(), ids=LQ_PARITY_CASES.keys())
def test_lq_oracle_keeps_the_former_bits(monkeypatch, case):
    coeffs, (n, lo, hi), beta, horizon, steps = case
    x0 = spread_ensemble(n, lo, hi)
    fast = lq_outcome(coeffs, x0, beta, horizon, steps)
    # the former oracle: the numpy loop, and a validated copy for every fine node
    monkeypatch.setattr(analytic, "_rk4_backward_lq", former_rk4_backward_lq)
    monkeypatch.setattr(Ensemble, "_view", classmethod(lambda cls, samples: cls(samples)))
    assert fast == lq_outcome(coeffs, x0, beta, horizon, steps)


def test_a_stiff_lq_oracle_flow_is_a_flow_blowup():
    # G stays at 1e8, under the Riccati guard, and the forward RK4 overflows;
    # it used to warn twice and end in a ValueError on the next pass
    coeffs = LQCoefficients(a=-1e16, m=1e8)
    with pytest.raises(FlowBlowupError, match=r"advancing step 12 -> 13 \(t=0.3\)") as err:
        lq_solve(coeffs, spread_ensemble(12), beta=0.0, horizon=1.0, steps=40)
    assert err.value.step == 12
