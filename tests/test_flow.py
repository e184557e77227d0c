import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmfg.ensembles import Ensemble, TrajectoryEnsemble
from xmfg.errors import FlowBlowupError
from xmfg.families import (
    CustomVelocityFamily,
    LQFamily,
    MomentQuadraticPotential,
    QuadraticCoupledFamily,
    QuadraticFormPotential,
    QuarticFamily,
    solve_velocity,
)
from xmfg import flow
from xmfg.flow import integrate_flow, separation_diagnostic
from xmfg.hjb import AnalyticSlice, GridConfig, solve_backward, sweep_stride


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
    for stride in (1, 3):  # at stride 3, row 11 lies inside a step
        traj = integrate_flow(fam, x0, phi, 0.8, 30, stride=stride)
        for m in (0, 11, 30):
            x, p, y = traj.states[m, :, 0], traj.costate_ensemble(m), traj.ensemble(m)
            z = solve_velocity(fam, x, p, y)
            np.testing.assert_array_equal(traj.velocities[m], z.samples)


@pytest.mark.parametrize(
    "fam",
    [LQFamily(beta=0.5, b=0.3, m=1.0), LQFamily(beta=-0.5, a=1.0, n=0.2), QuarticFamily(0.4)],
)
def test_recorded_velocities_solve_the_velocity_equation(fam):
    # the flow does not evaluate this residual per RK stage, so check it here;
    # at stride 3 most rows lie inside a step
    x0 = spread_ensemble(16, 0.5, 1.5)
    for stride in (1, 3):
        traj = integrate_flow(fam, x0, AnalyticSlice(lambda x: 0.2 * x), 0.5, 40, stride=stride)
        for m in range(traj.steps + 1):
            x_ens, z_ens = traj.ensemble(m), traj.velocity_ensemble(m)
            dp = fam.dp_hamiltonian(x_ens.samples[:, 0], traj.costates[m, :, 0], x_ens, z_ens)
            np.testing.assert_allclose(z_ens.samples[:, 0], -dp, rtol=0, atol=1e-12)


def test_linear_dynamics_flow_reads_only_the_potential_gradient(monkeypatch):
    # under dx/dt = v, D_xH is the potential's gradient call alone: evaluating
    # the g' term with g = 1 as well made solve_mfg 21-29% slower on the three
    # benchmark documents (2 vCPU)
    fam = LQFamily(beta=0.5, a=1.0, b=0.3, m=1.0)
    calls = {"drift": 0, "gradient": 0}

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)

        return spy

    monkeypatch.setattr(fam, "drift", counted("drift", fam.drift))
    monkeypatch.setattr(fam.potential, "gradient", counted("gradient", fam.potential.gradient))
    integrate_flow(fam, spread_ensemble(), AnalyticSlice(lambda x: 0.5 * x), 1.0, 10)
    assert fam.speed is None and fam.dx_speed is None  # no g or g' to call
    assert calls == {"drift": 0, "gradient": 4 * 10 + 1}  # one per RK stage


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


class FinalVelocityOverflows(QuadraticCoupledFamily):
    """Finite until the velocity solve after ``finite_calls`` returns inf."""

    def __init__(self, beta, finite_calls):
        super().__init__(beta)
        self.finite_calls = finite_calls
        self.calls = 0

    def velocity_closed_form(self, x, p, y_ens):
        self.calls += 1
        z = super().velocity_closed_form(x, p, y_ens)
        return z if self.calls <= self.finite_calls else np.full_like(z, np.inf)


def test_non_finite_final_velocity_is_a_flow_blowup():
    # RK4 solves the velocity equation 4 times per step and once more at the
    # final time; only that last velocity escapes the per-step state test
    steps = 10
    fam = FinalVelocityOverflows(0.0, 4 * steps)
    with pytest.raises(FlowBlowupError) as err:
        integrate_flow(fam, spread_ensemble(3), AnalyticSlice(lambda x: x), 1.0, steps)
    assert err.value.step == steps


class FinalCostateRateOverflows(QuadraticCoupledFamily):
    """Finite until the ``D_xH`` evaluation after ``finite_calls`` returns inf."""

    def __init__(self, beta, finite_calls):
        super().__init__(beta, MomentQuadraticPotential(0.5))
        self.finite_calls = finite_calls
        self.calls = 0

    def dx_hamiltonian(self, x, p, x_ens, z_ens):
        self.calls += 1
        rate = super().dx_hamiltonian(x, p, x_ens, z_ens)
        return rate if self.calls <= self.finite_calls else np.full_like(x, np.inf)


def test_non_finite_dense_output_names_the_step_it_fills():
    # stride 5 over 10 rows: two RK steps, then D_xH at the final time, which
    # only the rows inside the last step read
    fam = FinalCostateRateOverflows(0.5, 4 * 2)
    with pytest.raises(FlowBlowupError, match=r"advancing step 5 -> 10 \(t=0\.5\)") as err:
        integrate_flow(fam, spread_ensemble(3), AnalyticSlice(lambda x: x), 1.0, 10, stride=5)
    assert err.value.step == 5


def test_law_views_are_built_once_per_integration(monkeypatch):
    real = Ensemble._view.__func__
    calls = []

    def counting_view(cls, samples, q):
        calls.append(samples.shape)
        return real(cls, samples, q)

    monkeypatch.setattr(Ensemble, "_view", classmethod(counting_view))
    steps = 10
    fam = LQFamily(beta=0.5, a=1.0, b=0.3, m=1.0)
    integrate_flow(fam, spread_ensemble(8), AnalyticSlice(lambda x: x), 1.0, steps)
    # the state and costate laws once per call, at most one velocity per RK stage
    assert 0 < len(calls) <= 2 + (4 * steps + 1)


def test_flow_input_validation():
    fam = QuadraticCoupledFamily(beta=0.0)
    phi = AnalyticSlice(lambda x: x)
    with pytest.raises(ValueError):
        integrate_flow(fam, spread_ensemble(3), phi, 0.0, 10)
    with pytest.raises(ValueError):
        integrate_flow(fam, Ensemble([[1.0, 2.0]]), phi, 1.0, 10)


@pytest.mark.parametrize("stride", [0, -2])
def test_flow_rejects_a_stride_below_one(stride):
    fam = QuadraticCoupledFamily(beta=0.0)
    with pytest.raises(ValueError, match="stride"):
        integrate_flow(fam, spread_ensemble(3), AnalyticSlice(lambda x: x), 1.0, 10, stride=stride)


# ---------------------------------------------------------------------------
# bit parity with the unstacked flow
# ---------------------------------------------------------------------------


def reference_flow(fam, x0, phi, horizon, steps):
    """The flow as it was before the stacked state: separate x and p arrays,
    broadcast stage rates, and the velocity solver's fully built path."""

    def stage_rates(x, p):
        x_ens = Ensemble._view(x[:, None], q)
        p_ens = Ensemble._view(p[:, None], q)
        z_ens = solve_velocity(fam, x, p_ens, x_ens, return_info=True)[0]
        dp = np.asarray(fam.dx_hamiltonian(x, p, x_ens, z_ens), dtype=float)
        return z_ens.samples[:, 0], np.broadcast_to(dp, p.shape)

    q, n, dt = x0.q, x0.n, horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)
    x = x0.samples[:, 0].copy()
    p = np.asarray(phi.gradient_at(x), dtype=float).copy()
    states = np.empty((steps + 1, n, 1))
    costates = np.empty_like(states)
    velocities = np.empty_like(states)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps + 1):
            k1x, k1p = stage_rates(x, p)
            states[m, :, 0] = x
            costates[m, :, 0] = p
            velocities[m, :, 0] = k1x
            if m == steps:
                if not np.all(np.isfinite(k1x)):
                    raise FlowBlowupError(
                        f"flow velocity is not finite at the final time t={times[m]:.4g}", step=m
                    )
                break
            k2x, k2p = stage_rates(x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
            k3x, k3p = stage_rates(x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
            k4x, k4p = stage_rates(x + dt * k3x, p + dt * k3p)
            x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
            p = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
            if not (np.max(np.abs(x)) <= 1e12 and np.max(np.abs(p)) <= 1e12):
                raise FlowBlowupError(
                    f"flow blew up advancing step {m} -> {m + 1} (t={times[m]:.4g})", step=m
                )
    return TrajectoryEnsemble(
        times=times, states=states, velocities=velocities, costates=costates, q=q
    )


BETAS = st.sampled_from([-0.5, 0.0, 0.5])
COEFF = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def flow_problems(draw):
    """(kind, family factory, samples, phi slope and offset, horizon, steps)."""
    kind = draw(
        st.sampled_from(["lq", "lq-law", "moment", "quartic", "iterative", "overflow", "final"])
    )
    n = draw(st.integers(1, 12))
    steps = draw(st.integers(1, 12))
    lo = 0.5 if kind in ("quartic", "overflow") else -2.0
    samples = draw(st.lists(st.floats(lo, 2.0), min_size=n, max_size=n))
    beta = draw(BETAS)
    if kind == "lq":
        a, b, m = draw(COEFF), draw(COEFF), draw(COEFF)
        make = lambda: LQFamily(beta=beta, a=a, b=b, m=m)  # noqa: E731
    elif kind == "lq-law":
        # coefficient maps read the law, which the flow hands over as a view
        # of a buffer it reuses from stage to stage
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
        a = draw(st.floats(0.1, 1.0))
        make = lambda: QuarticFamily(a)  # noqa: E731
    elif kind == "iterative":
        weight = draw(st.floats(-0.6, 0.6))
        shift = draw(COEFF)
        make = lambda: CustomVelocityFamily(  # noqa: E731
            dp_h=lambda x, p, y, z: weight * z.mean_scalar() + p,
            dx_h=lambda x, p, X, Z: shift * X.mean_scalar(),  # a scalar rate
        )
    elif kind == "overflow":
        # D_xH = huge (x + 1) is far from 0 on samples above 0: the flow must blow up
        huge = draw(st.sampled_from([1e200, 1e305, -1e305]))
        potential = QuadraticFormPotential(a=huge, b=huge)
        make = lambda: QuadraticCoupledFamily(beta, potential)  # noqa: E731
    else:
        make = lambda: FinalVelocityOverflows(beta, 4 * steps)  # noqa: E731
    slope, offset = draw(COEFF), draw(COEFF)
    return kind, make, samples, slope, offset, draw(st.floats(0.1, 2.0)), steps


def run_flow(flow, make, samples, slope, offset, horizon, steps):
    phi = AnalyticSlice(lambda x: slope * x + offset)
    try:
        traj = flow(make(), Ensemble(samples), phi, horizon, steps)
    except FlowBlowupError as exc:
        return str(exc), exc.step
    return tuple(a.tobytes() for a in (traj.states, traj.velocities, traj.costates))


@settings(max_examples=150, deadline=None)
@given(case=flow_problems())
def test_stacked_flow_is_bit_identical_to_the_unstacked_flow(case):
    kind, *args = case
    new = run_flow(integrate_flow, *args)
    assert new == run_flow(reference_flow, *args)
    if kind in ("overflow", "final"):
        assert isinstance(new[0], str)  # the case really is non-finite


# ---------------------------------------------------------------------------
# the strided flow: RK4 steps of k rows, Hermite dense output in between
# ---------------------------------------------------------------------------


def coarse_rk4(fam, x0, phi, horizon, steps, stride):
    """An explicit RK4 loop on separate x and p arrays: a first step of
    ``steps mod stride`` rows (none when ``stride`` divides ``steps``), then
    steps of ``stride`` rows.  Returns the step ends and, at each, x, p and
    the rates (z, D_xH)."""

    def stage_rates(x, p):
        x_ens = Ensemble._view(x[:, None], x0.q)
        z_ens = solve_velocity(fam, x, Ensemble._view(p[:, None], x0.q), x_ens)
        dp = np.asarray(fam.dx_hamiltonian(x, p, x_ens, z_ens), dtype=float)
        return z_ens.samples[:, 0], np.broadcast_to(dp, p.shape)

    lengths = [steps % stride] * (steps % stride > 0) + [stride] * (steps // stride)
    ends = np.cumsum([0, *lengths])
    dt = horizon / steps
    x = x0.samples[:, 0].copy()
    p = np.asarray(phi.gradient_at(x), dtype=float).copy()
    record = []
    for j in range(len(ends)):
        k1x, k1p = stage_rates(x, p)
        record.append((x, p, k1x, k1p.copy()))
        if j == len(lengths):
            break
        h = lengths[j] * dt
        k2x, k2p = stage_rates(x + 0.5 * h * k1x, p + 0.5 * h * k1p)
        k3x, k3p = stage_rates(x + 0.5 * h * k2x, p + 0.5 * h * k2p)
        k4x, k4p = stage_rates(x + h * k3x, p + h * k3p)
        x = x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        p = p + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return ends, [np.array(a) for a in zip(*record)]


STRIDED_FAMILIES = [
    LQFamily(beta=0.5, a=1.0, b=0.3, m=1.0),
    LQFamily(beta=-0.5, a=1.0, n=0.2),
    QuarticFamily(0.4),
]
STRIDED_GRIDS = [(30, 3), (31, 3), (30, 5), (31, 5), (12, 12)]  # (M, k): k | M, k ∤ M, k = M


@pytest.mark.parametrize("steps, stride", STRIDED_GRIDS)
@pytest.mark.parametrize("fam", STRIDED_FAMILIES)
def test_strided_flow_steps_rk4_bit_for_bit_on_the_step_ends(fam, steps, stride):
    x0, phi = spread_ensemble(9, 0.5, 1.5), AnalyticSlice(lambda x: 0.2 * x)
    traj = integrate_flow(fam, x0, phi, 0.5, steps, stride=stride)
    ends, (x, p, z, _) = coarse_rk4(fam, x0, phi, 0.5, steps, stride)
    assert ends[0] == 0 and ends[-1] == steps and len(ends) == 1 + -(-steps // stride)
    np.testing.assert_array_equal(traj.states[ends, :, 0], x)
    np.testing.assert_array_equal(traj.costates[ends, :, 0], p)
    np.testing.assert_array_equal(traj.velocities[ends, :, 0], z)


@pytest.mark.parametrize("steps, stride", STRIDED_GRIDS)
@pytest.mark.parametrize("fam", STRIDED_FAMILIES)
def test_rows_inside_a_step_are_its_hermite_dense_output(fam, steps, stride):
    x0, phi = spread_ensemble(9, 0.5, 1.5), AnalyticSlice(lambda x: 0.2 * x)
    traj = integrate_flow(fam, x0, phi, 0.5, steps, stride=stride)
    ends, (_, _, _, dxh) = coarse_rk4(fam, x0, phi, 0.5, steps, stride)
    xs, zs, ps = (a[:, :, 0] for a in (traj.states, traj.velocities, traj.costates))
    dt = 0.5 / steps
    for j, (a, b) in enumerate(zip(ends, ends[1:])):
        rows = np.arange(a + 1, b)
        theta = ((rows - a) / (b - a))[:, None]
        h = np.full_like(theta, (b - a) * dt)
        h00 = (1 + 2 * theta) * (1 - theta) ** 2
        h10 = h * theta * (1 - theta) ** 2
        h01 = theta**2 * (3 - 2 * theta)
        h11 = h * theta**2 * (theta - 1)
        np.testing.assert_array_equal(
            xs[rows], h00 * xs[a] + h10 * zs[a] + h01 * xs[b] + h11 * zs[b]
        )
        np.testing.assert_array_equal(
            ps[rows], h00 * ps[a] + h10 * dxh[j] + h01 * ps[b] + h11 * dxh[j + 1]
        )


def test_strided_flow_error_shrinks_like_h_to_the_fourth():
    # a curved game: the potential bends the characteristics and the law of X' feeds back
    fam = LQFamily(beta=-0.5, a=1.0, n=0.2)
    x0, phi = spread_ensemble(16, -1.0, 1.5), AnalyticSlice(lambda x: 0.3 * x + np.sin(x))
    paths = [integrate_flow(fam, x0, phi, 2.0, 120, stride=s) for s in (1, 4, 8)]

    def error(traj):
        return max(
            np.max(np.abs(getattr(traj, name) - getattr(paths[0], name)))
            for name in ("states", "costates", "velocities")
        )

    coarse, fine = error(paths[2]), error(paths[1])
    assert 0 < fine < 1e-5
    assert 12.0 <= coarse / fine <= 24.0  # 2^4 = 16


def test_the_sweep_reads_only_rk_step_ends(monkeypatch):
    fam = LQFamily(beta=0.5, a=1.0, b=0.3, m=1.0)
    cfg = GridConfig(x_lo=-4.0, x_hi=4.0, nx=41, nv=41, v_max=4.0)
    steps = 31
    k = sweep_stride(fam, cfg, 1.0 / steps, steps)
    assert 1 < k < steps and steps % k
    traj = integrate_flow(fam, spread_ensemble(8), AnalyticSlice(lambda x: x), 1.0, steps, stride=k)
    read = set()
    for name in ("ensemble", "velocity_ensemble"):
        real = getattr(TrajectoryEnsemble, name)

        def spy(self, m, real=real):  # a row, or an array of rows for a stack of laws
            read.update(np.atleast_1d(m).tolist())
            return real(self, m)

        monkeypatch.setattr(TrajectoryEnsemble, name, spy)
    solve_backward(fam, traj, cfg)
    ends, _ = coarse_rk4(fam, spread_ensemble(8), AnalyticSlice(lambda x: x), 1.0, steps, k)
    assert read == set(ends.tolist())


def test_strided_blowup_names_the_rk_step_taken():
    fam = CustomVelocityFamily(
        dp_h=lambda x, p, y, z: np.zeros_like(x),
        dx_h=lambda x, p, X, Z: 1e3 * p**2,
    )
    with pytest.raises(FlowBlowupError) as err:
        integrate_flow(
            fam, spread_ensemble(3), AnalyticSlice(lambda x: np.ones_like(x)), 1.0, 53, stride=5
        )
    a, b = map(int, re.search(r"advancing step (\d+) -> (\d+) ", str(err.value)).groups())
    assert err.value.step == a and (a, b) in [(0, 3), *((e, e + 5) for e in range(3, 53, 5))]


# ---------------------------------------------------------------------------
# one family call per pass
# ---------------------------------------------------------------------------


class CountedClosedForm(LQFamily):
    """Records the shape of the costates of each closed-form velocity call."""

    def __init__(self):
        super().__init__(beta=0.5, a=1.0, b=0.3, m=1.0)
        self.shapes = []

    def velocity_closed_form(self, x, p, y_ens):
        self.shapes.append(np.shape(p))
        return super().velocity_closed_form(x, p, y_ens)


@pytest.mark.parametrize("steps, stride", [(31, 3), (30, 5), (12, 12)])
def test_a_flow_calls_the_closed_form_once_per_stage_and_once_for_the_dense_rows(
    monkeypatch, steps, stride
):
    iterated = []
    monkeypatch.setattr(flow, "solve_velocity", lambda *args: iterated.append(args))
    fam, n = CountedClosedForm(), 9
    integrate_flow(fam, spread_ensemble(n), AnalyticSlice(lambda x: x), 1.0, steps, stride=stride)
    rk_steps = -(-steps // stride)
    inside = steps + 1 - (rk_steps + 1)  # the rows that are no step end
    assert fam.shapes == [(n,)] * (4 * rk_steps + 1) + [(inside, n)]
    assert iterated == []  # the traced name iterates; a closed form never reaches it


CONTRACTING = CustomVelocityFamily(
    dp_h=lambda x, p, y, z: p + 0.3 * z.mean() + 0.1 * y.mean(),
    dx_h=lambda x, p, X, Z: 0.5 * x - 0.2 * Z.mean(),
)


@pytest.mark.parametrize("steps", [30, 31])
def test_a_family_without_a_closed_form_solves_each_row_on_its_own(steps):
    x0, phi = spread_ensemble(9, 0.5, 1.5), AnalyticSlice(lambda x: 0.2 * x)
    traj = integrate_flow(CONTRACTING, x0, phi, 0.5, steps, stride=3)
    ends, (x, p, z, _) = coarse_rk4(CONTRACTING, x0, phi, 0.5, steps, 3)
    np.testing.assert_array_equal(traj.states[ends, :, 0], x)
    np.testing.assert_array_equal(traj.costates[ends, :, 0], p)
    np.testing.assert_array_equal(traj.velocities[ends, :, 0], z)
    xs, ps, zs = (a[:, :, 0] for a in (traj.states, traj.costates, traj.velocities))
    for m in np.delete(np.arange(steps), ends[:-1]):  # one solve per row inside a step
        z_m = solve_velocity(CONTRACTING, xs[m], Ensemble(ps[m]), Ensemble(xs[m]))
        np.testing.assert_array_equal(zs[m], z_m.samples[:, 0])
