import dataclasses
import functools
import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmfg.ensembles import Ensemble, TrajectoryEnsemble
from xmfg.errors import FlowBlowupError
from xmfg.families import (
    CustomVelocityFamily,
    LQFamily,
    MeanSquareVelocityCoupling,
    MomentQuadraticPotential,
    QuadraticCoupledFamily,
    QuadraticFormPotential,
    QuarticFamily,
    solve_velocity,
)
from xmfg import flow
from xmfg.analytic import LQCoefficients, lq_solve
from xmfg.flow import integrate_flow, separation_diagnostic
from xmfg.mfg import ProblemSpec, SolverConfig, canonical_grid


def spread_ensemble(n=8, lo=-1.0, hi=1.0):
    return Ensemble(lo + (hi - lo) * (np.arange(n) + 0.5) / n)


NAMES = ("states", "costates", "velocities")


def test_uncoupled_flow_is_straight_lines():
    alpha = 0.7
    fam = QuadraticCoupledFamily(beta=0.0)
    x0 = spread_ensemble()
    traj = integrate_flow(fam, x0, alpha, 1.0, 40)  # one costate for every sample
    expected = x0.samples[:, 0][None, :] - alpha * traj.times[:, None]
    np.testing.assert_allclose(traj.states[:, :, 0], expected, atol=1e-12)
    np.testing.assert_allclose(traj.costates[:, :, 0], alpha, atol=1e-12)


def test_coupled_flow_with_frozen_costates():
    # beta=1, no potential: P frozen, X_i(t) = x_i - t (P_i - mean(P)/2)
    fam = QuadraticCoupledFamily(beta=1.0)
    x0 = spread_ensemble(6)
    p0 = x0.samples[:, 0]  # P_i = x_i
    traj = integrate_flow(fam, x0, p0, 1.0, 50)
    expected = p0[None, :] - traj.times[:, None] * (p0 - p0.mean() / 2.0)[None, :]
    np.testing.assert_allclose(traj.states[:, :, 0], expected, atol=1e-12)


def test_symmetric_population_keeps_zero_mean():
    fam = QuadraticCoupledFamily(beta=0.8, potential=MomentQuadraticPotential(1.0))
    x0 = spread_ensemble(10)  # symmetric about 0
    traj = integrate_flow(fam, x0, np.tanh(x0.samples[:, 0]), 1.0, 60)  # odd gradient
    means = traj.states[:, :, 0].mean(axis=1)
    assert np.max(np.abs(means)) <= 1e-12


def test_velocity_record_matches_recomputation():
    fam = QuadraticCoupledFamily(beta=0.5, potential=MomentQuadraticPotential(0.5))
    x0 = spread_ensemble(7)
    traj = integrate_flow(fam, x0, 0.5 * x0.samples[:, 0], 0.8, 30)
    for m in (0, 11, 30):  # the first stage, a row inside a step, the last row
        x, p, y = traj.states[m, :, 0], traj.costate_ensemble(m), traj.ensemble(m)
        z = solve_velocity(fam, x, p, y)
        np.testing.assert_array_equal(traj.velocities[m], z.samples)


@pytest.mark.parametrize(
    "fam",
    [LQFamily(beta=0.5, b=0.3, m=1.0), LQFamily(beta=-0.5, a=1.0, n=0.2), QuarticFamily(0.4)],
)
def test_recorded_velocities_solve_the_velocity_equation(fam):
    # the flow does not evaluate this residual per stage, so check it here
    x0 = spread_ensemble(16, 0.5, 1.5)
    traj = integrate_flow(fam, x0, 0.2 * x0.samples[:, 0], 0.5, 40)
    for m in range(traj.steps + 1):
        x_ens, z_ens = traj.ensemble(m), traj.velocity_ensemble(m)
        dp = fam.dp_hamiltonian(x_ens.samples[:, 0], traj.costates[m, :, 0], x_ens, z_ens)
        np.testing.assert_allclose(z_ens.samples[:, 0], -dp, rtol=0, atol=1e-12)


class CountedClosedForm(LQFamily):
    """Records the shape of the costates of each closed-form velocity call."""

    def __init__(self, **coeffs):
        super().__init__(**(coeffs or dict(beta=0.5, a=1.0, b=0.3, m=1.0)))
        self.shapes = []

    def velocity_closed_form(self, x, p, y_ens):
        self.shapes.append(np.shape(p))
        return super().velocity_closed_form(x, p, y_ens)


def test_linear_dynamics_flow_reads_only_the_potential_gradient(monkeypatch):
    # under dx/dt = v, D_xH is the potential's gradient call alone: evaluating
    # the g' term with g = 1 as well made solve_mfg 21-29% slower on the three
    # benchmark documents (2 vCPU)
    fam = CountedClosedForm()
    calls = {"drift": 0, "gradient": 0}

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)

        return spy

    monkeypatch.setattr(fam, "drift", counted("drift", fam.drift))
    monkeypatch.setattr(fam.potential, "gradient", counted("gradient", fam.potential.gradient))
    x0 = spread_ensemble()
    integrate_flow(fam, x0, 0.5 * x0.samples[:, 0], 1.0, 10)
    assert fam.speed is None and fam.dx_speed is None  # no g or g' to call
    # one per stage: every closed-form call but the one on all rows
    assert calls == {"drift": 0, "gradient": len(fam.shapes) - 1}


def test_finite_difference_consistency_is_first_order():
    fam = QuadraticCoupledFamily(beta=0.5, potential=MomentQuadraticPotential(0.5))
    x0 = spread_ensemble(6)
    p0 = 0.5 * x0.samples[:, 0]

    def fd_gap(steps):
        traj = integrate_flow(fam, x0, p0, 1.0, steps)
        fd = np.diff(traj.states[:, :, 0], axis=0) / traj.dt
        return np.max(np.abs(fd - traj.velocities[:-1, :, 0]))

    ratio = fd_gap(40) / fd_gap(80)
    assert 1.6 <= ratio <= 2.4


def test_separation_translation_flow():
    fam = QuadraticCoupledFamily(beta=0.0)
    x0 = spread_ensemble(5)
    traj = integrate_flow(fam, x0, 2.0, 1.0, 20)  # equal costates
    rep = separation_diagnostic(traj)
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.skipped_pairs == 0


def test_separation_contracting_linear_flow():
    # dX/dt = -X via a velocity equation with no costate feedback
    fam = CustomVelocityFamily(
        dp_h=lambda x, p, y, z: x, dx_h=lambda x, p, X, Z: np.zeros_like(x)
    )
    x0 = spread_ensemble(4)
    traj = integrate_flow(fam, x0, 0.0, 1.0, 80)
    rep = separation_diagnostic(traj)
    assert rep.min_ratio == pytest.approx(np.exp(-1.0), abs=1e-7)


def test_separation_skips_duplicate_starts():
    fam = QuadraticCoupledFamily(beta=0.0)
    x0 = Ensemble([0.0, 0.0, 1.0])
    traj = integrate_flow(fam, x0, x0.samples[:, 0], 0.5, 10)
    rep = separation_diagnostic(traj)
    assert rep.skipped_pairs == 1
    assert rep.min_ratio > 0


@pytest.mark.parametrize("horizon, steps, last", [(1e-12, 10, 9), (1e6, 30, 27), (1.0, 200, 180)])
def test_the_separation_window_is_chosen_by_row(horizon, steps, last):
    # the gap of the two samples shrinks every row, so the worst ratio sits
    # on the last row of the window t <= 0.9 T, whatever the size of T
    gap = 1.0 - 0.5 * np.arange(steps + 1) / steps
    states = np.stack([np.zeros(steps + 1), gap], axis=1)[..., None]
    times = np.linspace(0.0, horizon, steps + 1)
    traj = TrajectoryEnsemble(times=times, states=states, velocities=np.zeros_like(states))
    assert separation_diagnostic(traj, t_max=0.9 * horizon).time_index == last


def test_separation_positive_on_lq_defaults():
    fam = LQFamily(beta=0.0, m=1.0)
    x0 = spread_ensemble(16)
    traj = integrate_flow(fam, x0, 0.5 * x0.samples[:, 0], 1.0, 100)
    assert separation_diagnostic(traj).min_ratio > 0


def test_law_views_are_built_once_per_integration(monkeypatch):
    real = Ensemble._view.__func__
    calls = []

    def counting_view(cls, samples):
        calls.append(samples.shape)
        return real(cls, samples)

    monkeypatch.setattr(Ensemble, "_view", classmethod(counting_view))
    steps = 10
    fam = LQFamily(beta=0.5, a=1.0, b=0.3, m=1.0)
    x0 = spread_ensemble(8)
    integrate_flow(fam, x0, x0.samples[:, 0], 1.0, steps)
    # the state and costate laws, one velocity law per stage slot, one stack of row laws
    assert calls == [(8, 1)] * (2 + 7) + [(steps, 8, 1)]


def test_flow_input_validation():
    fam = QuadraticCoupledFamily(beta=0.0)
    x0 = spread_ensemble(3)
    with pytest.raises(ValueError):
        integrate_flow(fam, x0, x0.samples[:, 0], 0.0, 10)
    with pytest.raises(ValueError):
        integrate_flow(fam, Ensemble([[1.0, 2.0]]), 1.0, 1.0, 10)
    # the seed costates align with the samples: numpy's broadcast rejects any other length
    with pytest.raises(ValueError):
        integrate_flow(fam, x0, np.ones(x0.n + 1), 1.0, 10)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
def test_flow_rejects_a_tolerance_that_is_not_positive(tol):
    fam = QuadraticCoupledFamily(beta=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        integrate_flow(fam, spread_ensemble(3), 1.0, 1.0, 10, tol=tol)


# ---------------------------------------------------------------------------
# accuracy and step control
# ---------------------------------------------------------------------------


def test_a_tolerance_below_the_floor_steps_as_the_floor():
    # below the rounding of the error estimate a tolerance only shrinks the steps
    fam = LQFamily(beta=-0.5, a=1.0, n=0.2)
    x0 = spread_ensemble(8)
    p0 = 0.3 * x0.samples[:, 0] + np.sin(x0.samples[:, 0])
    tiny, floor = (integrate_flow(fam, x0, p0, 1.0, 20, tol=t) for t in (1e-300, 1e-13))
    for name in NAMES:
        np.testing.assert_array_equal(getattr(tiny, name), getattr(floor, name))


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize(
    "coeffs",
    [dict(b=0.3, m=1.0, n=0.2), dict(a=1.0, b=0.3, m=1.0, n=0.2), dict(a=-1.0, m=1.0)],
    ids=["polynomial", "curved", "growing"],
)
def test_every_row_matches_the_riccati_oracle(coeffs, tol):
    # seeded with the exact slope Phi' = gamma(0) x + theta(0), the flow follows
    # the oracle's characteristics; the uncoupled oracle is exact to ~1e-12 at M = 200
    x0 = spread_ensemble(16, -0.5, 1.5)
    state, oracle = lq_solve(LQCoefficients(**coeffs), x0, 0.0, 1.0, 200)
    p0 = state.gamma[0] * x0.samples[:, 0] + state.theta[0]
    traj = integrate_flow(LQFamily(**coeffs), x0, p0, 1.0, 200, tol=tol)
    for name in ("states", "costates", "velocities"):
        err = np.max(np.abs(getattr(traj, name) - getattr(oracle, name)))
        assert err <= 10 * tol, name


def test_the_error_follows_the_tolerance():
    fam = LQFamily(beta=-0.5, a=1.0, n=0.2)
    x0 = spread_ensemble(16, -1.0, 1.5)
    p0 = 0.3 * x0.samples[:, 0] + np.sin(x0.samples[:, 0])
    ref = integrate_flow(fam, x0, p0, 2.0, 120, tol=1e-13)

    def error(tol):
        traj = integrate_flow(fam, x0, p0, 2.0, 120, tol=tol)
        return max(
            np.max(np.abs(getattr(traj, name) - getattr(ref, name)))
            for name in ("states", "costates", "velocities")
        )

    coarse, fine = error(1e-5), error(1e-8)
    assert 0 < fine <= 1e-7 and coarse <= 1e-4
    assert coarse / fine >= 100  # 1000-fold tolerance, the error at least 100-fold smaller


#: a polynomial game (no potential gradient: P is linear and X quadratic in
#: t) is integrated exactly by every step, so the step grows 5-fold each time
#: from one row of 200: 1/200, 1/40, 1/8, 5/8, then the 0.22 left
POLYNOMIAL_STEP_BOUND = 5


def test_a_polynomial_lq_flow_takes_few_steps(caplog):
    fam = CountedClosedForm(beta=0.5, b=0.3, m=1.0, n=0.2)
    x0 = spread_ensemble(64, 0.5, 1.5)
    with caplog.at_level(logging.DEBUG, logger="xmfg.flow"):
        integrate_flow(fam, x0, 1.2 * x0.samples[:, 0] + 0.3, 1.0, 200)
    accepted, evals = map(int, re.search(r"(\d+) accepted steps, (\d+) rate", caplog.text).groups())
    assert 1 <= accepted <= POLYNOMIAL_STEP_BOUND
    assert evals == 1 + 6 * accepted  # the first stage, then no rejection
    assert len(fam.shapes) == evals + 1


#: an LQ game with law-dependent velocities, one with a growing potential, and
#: a state-scaled game, all smooth on [0, 0.5] from samples in [0.5, 1.5]
ROW_FAMILIES = [
    LQFamily(beta=0.5, a=1.0, b=0.3, m=1.0),
    QuarticFamily(0.4),
    LQFamily(beta=-0.5, a=1.0, n=0.2),
]


@pytest.mark.parametrize("fam", ROW_FAMILIES)
def test_the_rows_do_not_depend_on_how_many_there_are(fam):
    # the first step spans one row, so the 20- and 60-row paths take different
    # steps; at the times they share they agree within the tolerance's reach
    tol = 1e-9
    x0 = spread_ensemble(9, 0.5, 1.5)
    p0 = 0.2 * x0.samples[:, 0]
    coarse, fine = (integrate_flow(fam, x0, p0, 0.5, m, tol=tol) for m in (20, 60))
    for name in ("states", "costates", "velocities"):
        a, b = getattr(coarse, name), getattr(fine, name)[::3]
        np.testing.assert_allclose(a, b, rtol=0, atol=10 * tol * (1 + np.max(np.abs(b))))


# ---------------------------------------------------------------------------
# blow-ups end the flow and name the time reached
# ---------------------------------------------------------------------------


def stalled_time(err):
    return float(re.search(r"cannot advance past t=(\S+): ", str(err.value)).group(1))


@pytest.mark.parametrize("blowup", [0.05, 0.55, 0.95])
def test_flow_blowup_reports_step(blowup):
    # P' = P^2 / t* from P = 1: P = 1 / (1 - t / t*) blows up at t*, and the
    # error names t* and the last of the 50 rows before it
    fam = CustomVelocityFamily(
        dp_h=lambda x, p, y, z: np.zeros_like(x),
        dx_h=lambda x, p, X, Z: p**2 / blowup,
    )
    with pytest.raises(FlowBlowupError) as err:
        integrate_flow(fam, spread_ensemble(3), 1.0, 1.0, 50)
    assert stalled_time(err) == pytest.approx(blowup, rel=1e-3)
    assert err.value.step == int(blowup * 50)


def test_a_blowup_names_the_time_it_reached():
    # P' = 1000 P^2 from P = 1: P = 1 / (1 - 1000 t) blows up at t = 1e-3,
    # inside the first of 50 rows; the steps shrink until the floor stops them
    fam = CustomVelocityFamily(
        dp_h=lambda x, p, y, z: np.zeros_like(x),
        dx_h=lambda x, p, X, Z: 1e3 * p**2,
    )
    with pytest.raises(FlowBlowupError) as err:
        integrate_flow(fam, spread_ensemble(3), 1.0, 1.0, 50)
    assert stalled_time(err) == pytest.approx(1e-3, rel=1e-3)
    assert err.value.step == 0


class VelocityRowOverflows(QuadraticCoupledFamily):
    """The velocity of row ``row`` is inf in the call on all rows."""

    def __init__(self, row):
        super().__init__(0.5, MomentQuadraticPotential(0.5))
        self.row = row

    def velocity_closed_form(self, x, p, y_ens):
        z = super().velocity_closed_form(x, p, y_ens)
        if np.ndim(p) == 2:
            z[self.row - 1] = np.inf  # the rows call holds rows 1..M
        return z


@pytest.mark.parametrize("row", [1, 7, 10])
def test_a_non_finite_row_velocity_names_its_row(row):
    fam, x0 = VelocityRowOverflows(row), spread_ensemble(3)
    with pytest.raises(FlowBlowupError, match=rf"t={row / 10:.4g}: row {row} ") as err:
        integrate_flow(fam, x0, x0.samples[:, 0], 1.0, 10)
    assert err.value.step == row


class CostateRateOverflows(QuadraticCoupledFamily):
    """Finite until the ``D_xH`` evaluation after ``finite_calls`` returns inf."""

    def __init__(self, finite_calls):
        super().__init__(0.5, MomentQuadraticPotential(0.5))
        self.finite_calls = finite_calls
        self.calls = 0

    def dx_hamiltonian(self, x, p, x_ens, z_ens):
        self.calls += 1
        rate = super().dx_hamiltonian(x, p, x_ens, z_ens)
        return rate if self.calls <= self.finite_calls else np.full_like(x, np.inf)


@pytest.mark.parametrize("finite_calls", [2, 8, 14])
def test_a_run_of_rejected_steps_ends_the_flow(finite_calls):
    # after the first stage and k accepted steps every rate is inf: each later
    # step is rejected and the flow stops at the time of the k accepted steps
    # after 13 attempts, not shrinking its step forever
    # (the finite flow takes 15 steps on these 20 rows, none rejected)
    fam, x0 = CostateRateOverflows(finite_calls), spread_ensemble(3)
    with pytest.raises(FlowBlowupError, match="leaves the representable range") as err:
        integrate_flow(fam, x0, x0.samples[:, 0], 1.0, 20)
    assert fam.calls <= finite_calls + 6 * (flow._MAX_REJECTIONS + 1)
    accepted = (finite_calls - 1) // 6
    assert (stalled_time(err) == 0.0) == (accepted == 0)
    assert err.value.step == int(stalled_time(err) * 20)


@pytest.mark.parametrize("steps", [1, 20, 37, 200])
def test_a_state_scaled_flow_stops_where_its_lowest_path_reaches_zero(steps):
    # steps that would carry a quartic path to x <= 0 are rejected until the
    # floor: H = P^2 / (2 X^2) - X^4 is conserved, so X^2 hits 0 at
    # t* = asinh(x0^2 / sqrt(H)) / (2 sqrt 2) for x0 = 0.5625 and P = 0.5,
    # whatever the output rows
    with pytest.raises(FlowBlowupError, match="state-scaled flow reaches x <= 0") as err:
        integrate_flow(QuarticFamily(0.4), spread_ensemble(8, 0.5, 1.5), 0.5, 1.0, steps)
    low = 0.5625
    energy = 0.5**2 / (2 * low**2) - low**4
    crossing = np.arcsinh(low**2 / np.sqrt(energy)) / (2 * np.sqrt(2.0))
    assert stalled_time(err) == pytest.approx(crossing, abs=1e-4)
    assert err.value.step == int(crossing * steps)  # the last row reached


def test_non_finite_starting_rates_are_a_blowup_at_time_zero():
    fam = LQFamily(beta=0.5, a=1e305, m=1.0)  # D_xH = a x overflows at x = 1e4
    with pytest.raises(FlowBlowupError, match=r"t=0: ") as err:
        integrate_flow(fam, Ensemble([1e4, 2e4]), np.array([1e4, 2e4]), 1.0, 10)
    assert err.value.step == 0


@pytest.mark.parametrize("steps", [2, 40])
def test_a_step_that_cannot_advance_the_time_ends_the_flow(steps):
    # at the least positive horizon the first step, horizon / steps, and the
    # floor, 1e-10 horizon, both underflow to 0: a zero step was accepted
    # forever; now the flow stops before its first step
    fam = CostateRateOverflows(finite_calls=10**6)
    x0 = spread_ensemble(3)
    with pytest.raises(FlowBlowupError, match=r"t=0: its step falls below the floor") as err:
        integrate_flow(fam, x0, x0.samples[:, 0], 5e-324, steps)
    assert fam.calls == 1  # the seed's rates only
    assert err.value.step == 0  # only row 0 was written, though rows 0..steps/2 share t = 0
    # one row of that horizon is one step that does advance
    assert integrate_flow(fam, x0, x0.samples[:, 0], 5e-324, 1).times[-1] == 5e-324


def test_a_stall_names_the_last_row_written_not_the_last_row_at_its_time():
    # at horizon 5e-324 the 41 row times are 0 (rows 0-20) and 5e-324: a
    # stall before the first step names row 0, not row 20
    fam, x0 = LQFamily(beta=0.5, m=1.0), Ensemble([0.1, 0.5, 0.9])
    with pytest.raises(FlowBlowupError, match=r"t=0: ") as err:
        integrate_flow(fam, x0, x0.samples[:, 0], 5e-324, 40)
    assert err.value.step == 0


# ---------------------------------------------------------------------------
# the flow against a fine fixed-step reference
# ---------------------------------------------------------------------------


def reference_flow(fam, x0, p0, horizon, steps):
    """Classical RK4 with fixed steps on separate x and p arrays, every stage's
    arrays and laws built afresh.  A step that leaves ``1e12`` or, under
    state-scaled dynamics, reaches ``x <= 0`` raises :class:`FlowBlowupError`."""

    def stage_rates(x, p):
        x_ens = Ensemble._view(x[:, None])
        p_ens = Ensemble._view(p[:, None])
        z_ens = solve_velocity(fam, x, p_ens, x_ens)
        dp = np.asarray(fam.dx_hamiltonian(x, p, x_ens, z_ens), dtype=float)
        return z_ens.samples[:, 0], np.broadcast_to(dp, p.shape)

    n, dt = x0.n, horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)
    x = x0.samples[:, 0].copy()
    p = np.broadcast_to(np.asarray(p0, dtype=float), x.shape).copy()
    states = np.empty((steps + 1, n, 1))
    costates = np.empty_like(states)
    velocities = np.empty_like(states)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m in range(steps + 1):
            if fam.speed is not None and not np.min(x) > 0:
                raise FlowBlowupError(f"state-scaled flow crossed x <= 0 by step {m}", step=m)
            k1x, k1p = stage_rates(x, p)
            states[m, :, 0] = x
            costates[m, :, 0] = p
            velocities[m, :, 0] = k1x
            if m == steps:
                if not np.all(np.isfinite(k1x)):
                    raise FlowBlowupError("flow velocity is not finite at the final time", step=m)
                break
            k2x, k2p = stage_rates(x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
            k3x, k3p = stage_rates(x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
            k4x, k4p = stage_rates(x + dt * k3x, p + dt * k3p)
            x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
            p = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
            if not (np.max(np.abs(x)) <= 1e12 and np.max(np.abs(p)) <= 1e12):
                raise FlowBlowupError(f"flow blew up advancing step {m} -> {m + 1}", step=m)
    return TrajectoryEnsemble(
        times=times, states=states, velocities=velocities, costates=costates
    )


BETAS = st.sampled_from([-0.5, 0.0, 0.5])
COEFF = st.floats(-2.0, 2.0, allow_nan=False)
#: reference steps over the horizon for randomized games: RK4 at h <= 2/120
#: meets the comparison's tolerance unless a path grows fast, and then its
#: own error is measured and allowed for
FINE = 120


class SolvedInClosedForm(CustomVelocityFamily):
    """A custom family whose velocity the reference reads off ``velocity(p)``."""

    def __init__(self, velocity, **fns):
        super().__init__(**fns)
        self.velocity = velocity

    def velocity_closed_form(self, x, p, y_ens):
        return self.velocity(p)


@st.composite
def flow_problems(draw):
    """(kind, family factory, the reference's family factory, samples, seed
    costate slope and offset, horizon, steps)."""
    kind = draw(st.sampled_from(["lq", "lq-law", "moment", "quartic", "iterative", "overflow"]))
    n = draw(st.integers(1, 12))
    steps = draw(st.integers(1, 12))
    lo = 0.5 if kind in ("quartic", "overflow") else -2.0
    samples = draw(st.lists(st.floats(lo, 2.0), min_size=n, max_size=n))
    beta = draw(BETAS)
    slope, offset = draw(COEFF), draw(COEFF)
    make_ref = None
    if kind == "lq":
        a, b, m = draw(COEFF), draw(COEFF), draw(COEFF)
        make = lambda: LQFamily(beta=beta, a=a, b=b, m=m)  # noqa: E731
    elif kind == "lq-law":
        # coefficient maps read the law, which the flow hands over as a view
        # of a buffer it reuses from stage to stage; some paths blow up in
        # finite time
        a, b, m = draw(COEFF), draw(COEFF), draw(COEFF)
        make = lambda: LQFamily(  # noqa: E731
            beta,
            a=lambda ens: a + ens.mean_scalar(),
            b=lambda ens: b * float(np.mean(ens.samples**2)),
            m=m,
        )
    elif kind == "moment":
        scale = draw(st.floats(0.0, 2.0))
        make = lambda: QuadraticCoupledFamily(beta, MomentQuadraticPotential(scale))  # noqa: E731
    elif kind == "quartic":
        # some paths reach x = 0, where state-scaled dynamics end
        a = draw(st.floats(0.1, 1.0))
        make = lambda: QuarticFamily(a)  # noqa: E731
    elif kind == "iterative":
        weight = draw(st.floats(-0.6, 0.6))
        shift = draw(COEFF)
        fns = dict(
            dp_h=lambda x, p, y, z: weight * z.mean_scalar() + p,
            dx_h=lambda x, p, X, Z: shift * X.mean_scalar(),  # a scalar rate
        )
        make = lambda: CustomVelocityFamily(**fns)  # noqa: E731
        # the fixed point in closed form: E Z = -E P / (1 + weight), Z = -P - weight E Z;
        # the iterated solve at every fine reference stage would take most of the test
        exact = lambda p: -p + weight * np.mean(p) / (1 + weight)  # noqa: E731
        make_ref = lambda: SolvedInClosedForm(exact, **fns)  # noqa: E731
    else:
        # D_xH = huge (x + 1) is far from 0 on samples above 0: the flow must blow up
        huge = draw(st.sampled_from([1e200, 1e305, -1e305]))
        potential = QuadraticFormPotential(a=huge, b=huge)
        make = lambda: QuadraticCoupledFamily(beta, potential)  # noqa: E731
    horizon = draw(st.floats(0.1, 2.0))
    return kind, make, make_ref or make, samples, slope, offset, horizon, steps


def quartic_crossing(x0, p0):
    """The first time a coupling-free quartic path reaches x = 0, inf if none
    does: H = P^2 / (2 X^2) - X^4 is conserved, so u = X^2 obeys u'' = 8 u and
    u = u0 cosh(w t) + u0' sinh(w t) / w, w = 2 sqrt 2, u0' = -2 P / X,
    vanishes where tanh(w t) = -w u0 / u0'."""
    w = 2 * np.sqrt(2.0)
    x = np.asarray(x0, dtype=float)
    u0, du0 = x**2, -2 * np.asarray(p0, dtype=float) / x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # u0' may be subnormal
        ratio = -w * u0 / du0
        times = np.where((du0 < 0) & (ratio < 1), np.arctanh(np.minimum(ratio, 1)) / w, np.inf)
    return float(np.min(times))


def outcome(flow, *args):
    try:
        return flow(*args)
    except FlowBlowupError as exc:
        return exc


QUARTIC_GRAZE = functools.partial(QuarticFamily, 0.5)


@settings(max_examples=150, deadline=None)
@given(case=flow_problems())
# the path reaches x = 0 at t = 0.63217, 9e-5 before the horizon and inside one
# step of the 16 times finer reference, which ends at x = 0.002
@example(case=("quartic", QUARTIC_GRAZE, QUARTIC_GRAZE, [0.9349914367765682], 0.0,
               1.222506195589891, 0.6322622140080987, 1))
# a subnormal seed costate overflows the crossing judge's ratio to inf: no crossing
@example(case=("quartic", QUARTIC_GRAZE, QUARTIC_GRAZE, [2.0], 0.0, 3.7928469688338526e-308,
               1.0, 1))
def test_the_flow_matches_a_fine_fixed_step_reference(case):
    # a path that leaves the range or reaches x <= 0 ends both flows, and no
    # other path ends either
    kind, make, make_ref, samples, slope, offset, horizon, steps = case
    p0 = slope * Ensemble(samples).samples[:, 0] + offset

    def reference(refine):  # RK4 at `refine` times the fine steps
        fine = refine * -(-FINE // steps)
        args = (make_ref(), Ensemble(samples), p0, horizon, fine * steps)
        return fine, outcome(reference_flow, *args)

    traj = outcome(integrate_flow, make(), Ensemble(samples), p0, horizon, steps)
    ended = isinstance(traj, FlowBlowupError)
    if kind == "overflow":
        assert ended and "t=0: " in str(traj)
    per_row, ref = reference(1)
    if ended != isinstance(ref, FlowBlowupError):
        # a path that grazes x = 0 or the guard ends or not by the reference's
        # step, so a 16 times finer one judges
        per_row, ref = reference(16)
    if kind == "quartic":
        # a fixed step can carry RK4 over a crossing of x = 0 just before the
        # horizon, however fine the step: the closed-form crossing time judges
        crossing = quartic_crossing(samples, p0)
        assert ended == (crossing <= horizon), (traj, crossing, horizon)
    else:
        assert ended == isinstance(ref, FlowBlowupError), (traj, ref)
    if ended:
        return
    rows = [getattr(ref, name)[::per_row] for name in NAMES]
    if not all(np.allclose(getattr(traj, name), b, rtol=1e-6, atol=1e-7)
               for name, b in zip(NAMES, rows)):
        # a fast path: the reference's own error, measured by halving its step,
        # is allowed for
        finer = reference_flow(make_ref(), Ensemble(samples), p0, horizon, 2 * per_row * steps)
        for name, b in zip(NAMES, rows):
            c = getattr(finer, name)[:: 2 * per_row]
            gap = np.abs(getattr(traj, name) - c) - (1e-6 * np.abs(c) + 1e-7 + np.abs(b - c))
            assert np.max(gap) <= 0, (name, np.max(gap))


@pytest.mark.parametrize("steps", [1, 7, 12, 31, 200])
@pytest.mark.parametrize("fam", ROW_FAMILIES)
def test_rows_inside_a_step_are_its_dense_output(fam, steps):
    # the steps grow past the rows, so most rows fall inside a step and come
    # from its continuous extension; each stays within a small
    # multiple of the tolerance, scaled as the step control scales it
    tol = 1e-9
    x0 = spread_ensemble(9, 0.5, 1.5)
    p0 = 0.2 * x0.samples[:, 0]
    traj = integrate_flow(fam, x0, p0, 0.5, steps, tol=tol)
    per_row = -(-720 // steps)  # RK4 at h <= 0.5/720 is ~1e-12 accurate here
    ref = reference_flow(fam, x0, p0, 0.5, per_row * steps)
    for name in ("states", "costates", "velocities"):
        a, b = getattr(traj, name), getattr(ref, name)[::per_row]
        np.testing.assert_allclose(a, b, rtol=0, atol=10 * tol * (1 + np.max(np.abs(b))))


# ---------------------------------------------------------------------------
# a state-scaled grid is sized from the flow seeded by the terminal slope
# ---------------------------------------------------------------------------

GRID_SOLVER = SolverConfig(nx=41, time_steps=20, nv=41, v_max=4.0)


@pytest.mark.parametrize(
    "fam, include",
    [
        (QuarticFamily(0.3), None),  # the paths fall below X_0
        (QuarticFamily(-0.1), (0.3, 0.3)),  # they rise; include sets the lower end
        (QuarticFamily(0.2, coupling=MeanSquareVelocityCoupling(0.5)), (1.0, 2.5)),
    ],
)
def test_a_state_scaled_core_is_the_hull_of_the_seed_flow(fam, include):
    x0 = spread_ensemble(9, 0.5, 1.5)
    grid = canonical_grid(ProblemSpec(fam, 0.5, x0), GRID_SOLVER, include=include)
    seed = fam.terminal.gradient(x0.samples[:, 0], x0)
    states = integrate_flow(fam, x0, seed, 0.5, 20).states
    span = [*x0.samples[:, 0], *(include or ())]
    assert grid.core_interval() == (min(states.min(), *span), max(states.max(), *span))
    assert grid.core_interval() != (min(span), max(span))  # the flow moves the core


def test_a_state_scaled_grid_does_not_read_the_trajectory_tolerance():
    problem = ProblemSpec(QuarticFamily(0.3), 0.5, spread_ensemble(9, 0.5, 1.5))
    loose, tight = (
        canonical_grid(problem, dataclasses.replace(GRID_SOLVER, tol_traj=tol))
        for tol in (1e-4, 1e-10)
    )
    assert loose == tight


@pytest.mark.parametrize(
    "fam, x0, match",
    [
        # psi' = 4 a x^3 overflows at x = 1e300: the seed rates are not finite
        (QuarticFamily(0.4), Ensemble([1.0, 1e300]), r"t=0: its rates are not finite"),
        # a steeper terminal slope carries the lowest path to x <= 0 at t = 0.49
        (QuarticFamily(0.4), spread_ensemble(9, 0.5, 1.5), r"t=0.49\d*: .* reaches x <= 0"),
    ],
)
def test_a_seed_flow_that_blows_up_ends_the_grid_sizing(fam, x0, match):
    with pytest.raises(FlowBlowupError, match=match):
        canonical_grid(ProblemSpec(fam, 0.5, x0), GRID_SOLVER)


# ---------------------------------------------------------------------------
# one family call per stage, one for all rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("steps", [1, 12, 31])
def test_a_flow_calls_the_closed_form_once_per_stage_and_once_for_the_rows(monkeypatch, steps):
    iterated = []
    monkeypatch.setattr(flow, "solve_velocity", lambda *args: iterated.append(args))
    fam, n = CountedClosedForm(), 9
    x0 = spread_ensemble(n)
    integrate_flow(fam, x0, x0.samples[:, 0], 1.0, steps)
    stages = len(fam.shapes) - 1
    # the first stage, then 6 stages per attempted step
    assert stages > 1 and (stages - 1) % 6 == 0
    assert fam.shapes == [(n,)] * stages + [(steps, n)]
    assert iterated == []  # the traced name iterates; a closed form never reaches it


CONTRACTING = CustomVelocityFamily(
    dp_h=lambda x, p, y, z: p + 0.3 * z.mean() + 0.1 * y.mean(),
    dx_h=lambda x, p, X, Z: 0.5 * x - 0.2 * Z.mean(),
)


@pytest.mark.parametrize("steps", [30, 31])
def test_a_family_without_a_closed_form_solves_each_row_on_its_own(steps):
    x0 = spread_ensemble(9, 0.5, 1.5)
    p0 = 0.2 * x0.samples[:, 0]
    traj = integrate_flow(CONTRACTING, x0, p0, 0.5, steps)
    xs, ps, zs = (a[:, :, 0] for a in (traj.states, traj.costates, traj.velocities))
    for m in range(steps + 1):  # one solve per row, at the row's (x, p)
        z_m = solve_velocity(CONTRACTING, xs[m], Ensemble(ps[m]), Ensemble(xs[m]))
        np.testing.assert_array_equal(zs[m], z_m.samples[:, 0])
    ref = reference_flow(CONTRACTING, x0, p0, 0.5, 4 * steps)
    np.testing.assert_allclose(xs, ref.states[::4, :, 0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(ps, ref.costates[::4, :, 0], rtol=0, atol=1e-8)


class IteratedLQ(LQFamily):
    """An LQ family that hides its closed form, so the flow iterates its
    velocity equation; records the shapes of each D_pH call's costates and laws."""

    def __init__(self):
        super().__init__(beta=0.5, a=1.0, b=0.3, m=1.0)
        self.calls = []

    def velocity_closed_form(self, x, p, y_ens):
        return None

    def dp_hamiltonian(self, x, p, y_ens, z_ens):
        self.calls.append((np.shape(p), y_ens.samples.shape, z_ens.samples.shape))
        return super().dp_hamiltonian(x, p, y_ens, z_ens)


@pytest.mark.parametrize("steps", [1, 12, 31])
def test_a_stacking_family_solves_all_rows_with_one_call_per_iteration(monkeypatch, steps):
    fam, n = IteratedLQ(), 9
    solves = []

    def counted(fam_, x, p_ens, y):
        before = len(fam.calls)
        z, info = solve_velocity(fam_, x, p_ens, y, return_info=True)
        solves.append((p_ens.samples.shape, info["iterations"], fam.calls[before:]))
        return z

    monkeypatch.setattr(flow, "solve_velocity", counted)
    x0 = spread_ensemble(n)
    traj = integrate_flow(fam, x0, x0.samples[:, 0], 1.0, steps)
    assert fam.stacks_laws and len(fam.calls) == sum(len(calls) for *_, calls in solves)
    # every stage solves its row as a stack of one, then one solve takes the
    # (M, N) rows: one call per iteration on the rows still moving, and one
    # more on all of them for the residual
    *stages, (shape, iterations, calls) = solves
    assert len(stages) > 1 and {s[0] for s in stages} == {(n, 1)}
    assert {c for *_, cs in stages for c in cs} == {((1, n), (1, n, 1), (1, n, 1))}
    assert shape == (steps, n, 1) and len(calls) == iterations + 1
    moving = [c[0][0] for c in calls[:-1]]
    assert moving[0] == steps and moving == sorted(moving, reverse=True)
    assert all(c == ((r, n), (r, n, 1), (r, n, 1)) for r, c in zip(moving, calls))
    assert calls[-1] == ((steps, n), (steps, n, 1), (steps, n, 1))
    # each row keeps the bits of its own solve
    xs, ps, zs = (a[:, :, 0] for a in (traj.states, traj.costates, traj.velocities))
    for m in range(steps + 1):
        z_m = solve_velocity(fam, xs[m], Ensemble(ps[m]), Ensemble(xs[m]))
        np.testing.assert_array_equal(zs[m], z_m.samples[:, 0])


def test_a_custom_callable_receives_one_law_per_call():
    shapes = []

    def dp_h(x, p, y, z):
        shapes.append((np.shape(x), np.shape(p), y.samples.shape, z.samples.shape))
        return p + 0.3 * z.mean() + 0.1 * y.mean()

    n, steps = 9, 12
    x0 = spread_ensemble(n, 0.5, 1.5)
    fam = CustomVelocityFamily(dp_h, dx_h=lambda x, p, X, Z: 0.5 * x - 0.2 * Z.mean())
    integrate_flow(fam, x0, 0.2 * x0.samples[:, 0], 0.5, steps)
    assert not fam.stacks_laws and len(shapes) > steps
    assert set(shapes) == {((n,), (n,), (n, 1), (n, 1))}
