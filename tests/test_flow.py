import numpy as np
import pytest

from xmfg.ensembles import Ensemble
from xmfg.errors import FlowBlowupError
from xmfg.families import (
    CustomVelocityFamily,
    LQFamily,
    MomentQuadraticPotential,
    QuadraticCoupledFamily,
    QuarticFamily,
    solve_velocity,
)
from xmfg.flow import gronwall_envelope, integrate_flow, separation_diagnostic
from xmfg.hjb import AnalyticSlice


def spread_ensemble(n=8, lo=-1.0, hi=1.0):
    return Ensemble(lo + (hi - lo) * (np.arange(n) + 0.5) / n)


def test_uncoupled_flow_is_straight_lines():
    alpha = 0.7
    fam = QuadraticCoupledFamily(beta=0.0)
    x0 = spread_ensemble()
    phi = AnalyticSlice(lambda x: np.full_like(x, alpha))
    traj = integrate_flow(fam, x0, phi, 1.0, 40)
    expected = x0.samples[:, 0][None, :] - alpha * traj.times[:, None]
    np.testing.assert_allclose(traj.states[:, :, 0], expected, atol=1e-12)
    np.testing.assert_allclose(traj.costates[:, :, 0], alpha, atol=1e-12)


def test_coupled_flow_with_frozen_costates():
    # beta=1, no potential: P frozen, X_i(t) = x_i - t (P_i - mean(P)/2)
    fam = QuadraticCoupledFamily(beta=1.0)
    x0 = spread_ensemble(6)
    phi = AnalyticSlice(lambda x: x)  # P_i = x_i
    traj = integrate_flow(fam, x0, phi, 1.0, 50)
    p0 = x0.samples[:, 0]
    expected = p0[None, :] - traj.times[:, None] * (p0 - p0.mean() / 2.0)[None, :]
    np.testing.assert_allclose(traj.states[:, :, 0], expected, atol=1e-12)


def test_symmetric_population_keeps_zero_mean():
    fam = QuadraticCoupledFamily(beta=0.8, potential=MomentQuadraticPotential(1.0))
    x0 = spread_ensemble(10)  # symmetric about 0
    phi = AnalyticSlice(lambda x: np.tanh(x))  # odd gradient
    traj = integrate_flow(fam, x0, phi, 1.0, 60)
    means = traj.states[:, :, 0].mean(axis=1)
    assert np.max(np.abs(means)) <= 1e-12


def test_velocity_record_matches_recomputation():
    fam = QuadraticCoupledFamily(beta=0.5, potential=MomentQuadraticPotential(0.5))
    x0 = spread_ensemble(7)
    phi = AnalyticSlice(lambda x: 0.5 * x)
    traj = integrate_flow(fam, x0, phi, 0.8, 30)
    for m in (0, 11, 30):
        z = solve_velocity(fam, traj.states[m, :, 0], traj.costate_ensemble(m), traj.ensemble(m))
        np.testing.assert_array_equal(traj.velocities[m], z.samples)


@pytest.mark.parametrize(
    "fam",
    [LQFamily(beta=0.5, b=0.3, m=1.0), LQFamily(beta=-0.5, a=1.0, n=0.2), QuarticFamily(0.4)],
)
def test_recorded_velocities_solve_the_velocity_equation(fam):
    # the flow does not evaluate this residual per RK stage, so check it here
    x0 = spread_ensemble(16, 0.5, 1.5)
    traj = integrate_flow(fam, x0, AnalyticSlice(lambda x: 0.2 * x), 0.5, 40)
    for m in range(traj.steps + 1):
        x_ens, z_ens = traj.ensemble(m), traj.velocity_ensemble(m)
        dp = fam.dp_hamiltonian(x_ens.samples[:, 0], traj.costates[m, :, 0], x_ens, z_ens)
        np.testing.assert_allclose(z_ens.samples[:, 0], -dp, rtol=0, atol=1e-12)


def test_finite_difference_consistency_is_first_order():
    fam = QuadraticCoupledFamily(beta=0.5, potential=MomentQuadraticPotential(0.5))
    x0 = spread_ensemble(6)
    phi = AnalyticSlice(lambda x: 0.5 * x)

    def fd_gap(steps):
        traj = integrate_flow(fam, x0, phi, 1.0, steps)
        fd = np.diff(traj.states[:, :, 0], axis=0) / traj.dt
        return np.max(np.abs(fd - traj.velocities[:-1, :, 0]))

    ratio = fd_gap(40) / fd_gap(80)
    assert 1.6 <= ratio <= 2.4


def test_rk4_order_on_smooth_problem():
    fam = LQFamily(beta=0.5, a=1.0, m=1.0)
    x0 = spread_ensemble(6)
    phi = AnalyticSlice(lambda x: x)

    def terminal_state(steps):
        return integrate_flow(fam, x0, phi, 1.0, steps).states[-1, :, 0]

    ref = terminal_state(400)
    err_coarse = np.max(np.abs(terminal_state(25) - ref))
    err_fine = np.max(np.abs(terminal_state(50) - ref))
    assert err_coarse / err_fine >= 8.0


def test_separation_translation_flow():
    fam = QuadraticCoupledFamily(beta=0.0)
    x0 = spread_ensemble(5)
    phi = AnalyticSlice(lambda x: np.full_like(x, 2.0))  # equal costates
    traj = integrate_flow(fam, x0, phi, 1.0, 20)
    rep = separation_diagnostic(traj)
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.skipped_pairs == 0


def test_separation_contracting_linear_flow():
    # dX/dt = -X via a velocity equation with no costate feedback
    fam = CustomVelocityFamily(
        dp_h=lambda x, p, y, z: x, dx_h=lambda x, p, X, Z: np.zeros_like(x)
    )
    x0 = spread_ensemble(4)
    phi = AnalyticSlice(lambda x: np.zeros_like(x))
    traj = integrate_flow(fam, x0, phi, 1.0, 80)
    rep = separation_diagnostic(traj)
    assert rep.min_ratio == pytest.approx(np.exp(-1.0), abs=1e-7)


def test_separation_skips_duplicate_starts():
    fam = QuadraticCoupledFamily(beta=0.0)
    x0 = Ensemble([0.0, 0.0, 1.0])
    phi = AnalyticSlice(lambda x: x)
    traj = integrate_flow(fam, x0, phi, 0.5, 10)
    rep = separation_diagnostic(traj)
    assert rep.skipped_pairs == 1
    assert rep.min_ratio > 0


def test_separation_positive_on_lq_defaults():
    fam = LQFamily(beta=0.0, m=1.0)
    x0 = spread_ensemble(16)
    phi = AnalyticSlice(lambda x: 0.5 * x)
    traj = integrate_flow(fam, x0, phi, 1.0, 100)
    assert separation_diagnostic(traj).min_ratio > 0


def test_gronwall_envelope_within_slack():
    fam = LQFamily(beta=0.3, a=0.5, m=1.0)
    x0 = spread_ensemble(8)
    phi = AnalyticSlice(lambda x: x)
    traj = integrate_flow(fam, x0, phi, 1.0, 80)
    rep = gronwall_envelope(traj)
    assert rep.within_envelope
    assert rep.c_full >= rep.c_half > 0


def test_flow_blowup_reports_step():
    fam = CustomVelocityFamily(
        dp_h=lambda x, p, y, z: np.zeros_like(x),
        dx_h=lambda x, p, X, Z: 1e3 * p**2,
    )
    x0 = spread_ensemble(3)
    phi = AnalyticSlice(lambda x: np.ones_like(x))
    with pytest.raises(FlowBlowupError) as err:
        integrate_flow(fam, x0, phi, 1.0, 50)
    assert err.value.step is not None


def test_non_finite_final_velocity_is_a_flow_blowup():
    # RK4 solves the velocity equation 4 times per step and once more at the
    # final time; only that last velocity escapes the per-step state test
    steps = 10

    class LastVelocityOverflows(QuadraticCoupledFamily):
        calls = 0

        def velocity_closed_form(self, x, p, y_ens):
            self.calls += 1
            z = super().velocity_closed_form(x, p, y_ens)
            return z if self.calls <= 4 * steps else np.full_like(z, np.inf)

    with pytest.raises(FlowBlowupError) as err:
        integrate_flow(
            LastVelocityOverflows(), spread_ensemble(3), AnalyticSlice(lambda x: x), 1.0, steps
        )
    assert err.value.step == steps


def test_flow_input_validation():
    fam = QuadraticCoupledFamily(beta=0.0)
    phi = AnalyticSlice(lambda x: x)
    with pytest.raises(ValueError):
        integrate_flow(fam, spread_ensemble(3), phi, 0.0, 10)
    with pytest.raises(ValueError):
        integrate_flow(fam, Ensemble([[1.0, 2.0]]), phi, 1.0, 10)
