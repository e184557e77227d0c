import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmfg.ensembles import Ensemble, TrajectoryEnsemble
from xmfg.errors import ControlSaturationError, DomainTooSmallError
from xmfg.families import (
    CustomVelocityFamily,
    LinearTerminal,
    LQFamily,
    MeanSquareVelocityCoupling,
    QuadraticCoupledFamily,
    QuadraticFormPotential,
    QuarticFamily,
)
from xmfg.hjb import (
    GridConfig,
    ValueGrid,
    ValueSlice,
    _exact_minimizer,
    regularity_report,
    solve_backward,
    sweep_stride,
)


def resting_population(steps=80, n=8, horizon=1.0, level=0.0):
    times = np.linspace(0.0, horizon, steps + 1)
    states = np.full((steps + 1, n, 1), level)
    return TrajectoryEnsemble(times, states, np.zeros_like(states))


def moving_population(rng, steps, n=8, horizon=1.0, lo=-0.5, hi=0.5):
    # drifting samples with a positive mean velocity, so beta E X' != 0
    times = np.linspace(0.0, horizon, steps + 1)
    x0 = rng.uniform(lo, hi, n)
    vel = rng.uniform(0.2, 1.0, n)
    states = x0[None, :, None] + times[:, None, None] * vel[None, :, None]
    return TrajectoryEnsemble(times, states, np.broadcast_to(vel[None, :, None], states.shape))


def with_table(fam, nodes, values):
    """A copy of ``fam`` whose terminal cost is a piecewise-linear table."""
    fam = copy.copy(fam)
    fam.terminal = lambda x, ens: np.interp(x, nodes, values)
    return fam


def static_grid(u_row, x_lo=-1.0, x_hi=1.0, slices=3):
    nx = len(u_row)
    cfg = GridConfig(x_lo=x_lo, x_hi=x_hi, nx=nx, nv=5, v_max=1.0)
    u = np.tile(u_row, (slices, 1))
    g = np.gradient(u, cfg.dx, axis=1)
    return ValueGrid(config=cfg, times=np.linspace(0, 1, slices), u=u, grad=g)


def test_zero_problem_stays_zero():
    fam = QuadraticCoupledFamily(beta=0.0)
    vg = solve_backward(fam, resting_population(), GridConfig(-2, 2, 81, 41, 2.0))
    assert np.max(np.abs(vg.u)) == 0.0


def test_hopf_lax_linear_terminal():
    # optimal constant control v = -alpha gives u = alpha x - alpha^2 (T-t)/2
    alpha = 1.0
    fam = QuadraticCoupledFamily(beta=0.0, terminal=LinearTerminal(alpha))
    traj = resting_population(steps=100)
    cfg = GridConfig(-4, 4, 161, 121, 3.0)  # -alpha sits on the control grid
    vg = solve_backward(fam, traj, cfg)
    x = cfg.nodes()
    expected = alpha * x - alpha**2 * 0.5
    deep = (x > -1.5) & (x < 3.4)
    assert np.max(np.abs(vg.u[0][deep] - expected[deep])) <= 1e-12
    inner = (x > -2.6) & (x < 3.8)
    assert np.max(np.abs(vg.u[0][inner] - expected[inner])) <= 1e-2


def test_constant_running_cost_gives_time_to_go():
    # L = v^2/2 + 1 via the constant potential V = -1
    fam = QuadraticCoupledFamily(beta=0.0, potential=QuadraticFormPotential(c=-1.0))
    traj = resting_population(steps=60, horizon=1.0)
    vg = solve_backward(fam, traj, GridConfig(-2, 2, 81, 41, 2.0))
    for m, t in enumerate(traj.times):
        np.testing.assert_allclose(vg.u[m], 1.0 - t, atol=1e-12)


def test_terminal_slice_exact():
    fam = QuadraticCoupledFamily(beta=0.0, terminal=QuadraticFormPotential(a=2.0, b=-1.0))
    traj = resting_population(steps=10, level=0.5)
    cfg = GridConfig(-2, 2, 51, 21, 12.0)
    vg = solve_backward(fam, traj, cfg)
    x = cfg.nodes()
    np.testing.assert_array_equal(vg.u[-1], fam.terminal(x, traj.ensemble(10)))


def test_gradient_at_examples():
    zero = static_grid(np.zeros(41))
    assert zero.gradient_at(0.37, 0) == 0.0
    lin = static_grid(0.8 * np.linspace(-1, 1, 41))
    assert lin.gradient_at(0.2, 1) == pytest.approx(0.8)
    x = np.linspace(-1, 1, 41)
    quad = static_grid(x**2)
    assert quad.gradient_at(0.0, 0) == pytest.approx(0.0, abs=1e-12)


def test_gradient_query_clamps_then_escalates():
    lin = static_grid(np.linspace(-1, 1, 41))
    for _ in range(200):  # each call is judged on its own queries
        assert lin.gradient_at(5.0, 0) == pytest.approx(1.0)  # clamped, tolerated
    inside = np.linspace(-1.0, 1.0, 150)
    np.testing.assert_allclose(lin.gradient_at(np.append(inside, 5.0), 0), 1.0)  # 1/151
    with pytest.raises(DomainTooSmallError, match="200/200 queries"):
        lin.gradient_at(np.full(200, 5.0), 0)
    with pytest.raises(DomainTooSmallError, match="2/150 queries"):
        lin.time_slice(1).value_at(np.append(inside[:148], [-3.0, 3.0]))


@pytest.mark.parametrize("outside_first", [True, False])
def test_clamp_outcome_is_independent_of_query_history(outside_first):
    vg = static_grid(np.linspace(0.0, 1.0, 11) ** 2, x_lo=0.0, x_hi=1.0)
    edge = lambda: vg.value_at(np.array([2.0, 3.0]), 0)  # noqa: E731
    inside = lambda: vg.time_slice(0).value_at(np.linspace(0.0, 1.0, 150))  # noqa: E731
    if outside_first:
        np.testing.assert_array_equal(edge(), [1.0, 1.0])
        np.testing.assert_allclose(inside(), np.linspace(0.0, 1.0, 150) ** 2, atol=3e-3)
    else:
        np.testing.assert_allclose(inside(), np.linspace(0.0, 1.0, 150) ** 2, atol=3e-3)
        np.testing.assert_array_equal(edge(), [1.0, 1.0])
    assert not hasattr(vg, "stats") and not hasattr(vg.time_slice(0), "stats")


def test_regularity_report_zero():
    rep = regularity_report(static_grid(np.zeros(41)))
    assert (rep.max_abs, rep.lip_const, rep.semiconcavity_const) == (0.0, 0.0, 0.0)


def test_regularity_report_linear():
    alpha = 0.7
    rep = regularity_report(static_grid(alpha * np.linspace(-1, 1, 41)))
    assert rep.max_abs == pytest.approx(alpha)
    assert rep.lip_const == pytest.approx(alpha)
    assert rep.semiconcavity_const == pytest.approx(0.0, abs=1e-12)


def test_regularity_report_concave_parabola():
    x = np.linspace(-1, 1, 81)
    rep = regularity_report(static_grid(-(x**2)))
    assert rep.max_abs == pytest.approx(1.0)
    # discrete slope of -x^2 peaks at 2 - dx
    assert rep.lip_const == pytest.approx(2.0, abs=2 * (x[1] - x[0]))
    # second differences of a parabola are exact
    assert rep.semiconcavity_const == pytest.approx(-2.0, abs=1e-9)


def comparison_case(name, rng):
    """Family, trajectory and grid of one comparison-principle setting."""
    if name == "resting":
        fam = QuadraticCoupledFamily(beta=0.0)
        return fam, resting_population(steps=25), GridConfig(-2, 2, 41, 33, 8.0)
    if name == "lq-coupled":
        # beta != 0 on a drifting population: the coupling enters the running cost
        fam = LQFamily(beta=0.5, a=1.0, b=0.3)
        return fam, moving_population(rng, steps=25), GridConfig(-2, 2, 41, 33, 8.0)
    # state-scaled dynamics: the feet of a node reach more interpolation
    # pieces the closer it sits to x = 0, so nodes try different piece counts
    fam = QuarticFamily(0.2, coupling=MeanSquareVelocityCoupling(0.3))
    traj = moving_population(rng, steps=25, horizon=0.25, lo=0.8, hi=1.2)
    return fam, traj, GridConfig(0.5, 1.5, 41, 33, 30.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_comparison_principle(seed):
    # raising the terminal data pointwise can never lower any value
    rng = np.random.default_rng(seed)
    for name in ("resting", "lq-coupled", "quartic"):
        fam, traj, cfg = comparison_case(name, rng)
        nodes = np.linspace(cfg.x_lo, cfg.x_hi, 9)
        base = rng.uniform(-1, 1, size=9)
        lift = rng.uniform(0, 1, size=9)
        u_lo = solve_backward(with_table(fam, nodes, base), traj, cfg).u
        u_hi = solve_backward(with_table(fam, nodes, base + lift), traj, cfg).u
        assert np.all(u_hi >= u_lo - 1e-12), name


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_minimum_matches_dense_controls(data):
    # one step against a brute force over >= 2001 controls plus every control
    # whose foot lands on a node (the domain edges included) and +-v_max
    nx = data.draw(st.integers(3, 40), label="nx")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x_lo = rng.uniform(-2.0, 2.0)
    x = np.linspace(x_lo, x_lo + rng.uniform(0.2, 4.0), nx)
    dt = data.draw(st.floats(1e-3, 0.5), label="dt")
    v_max = data.draw(st.floats(0.1, 20.0), label="v_max")
    speed = data.draw(st.sampled_from(["unit", "state-scaled", "signed"]), label="g")
    g = {
        "unit": np.ones(nx),
        "state-scaled": 1.0 / (x - x_lo + rng.uniform(0.2, 2.0)),
        "signed": rng.choice([-1.0, 1.0], nx) * rng.uniform(0.2, 3.0, nx),
    }[speed]
    b = rng.normal(0.0, 2.0, nx) if data.draw(st.booleans(), label="b per node") else rng.normal()
    w = rng.normal(0.0, 1.0, nx)  # the potential W; the running cost is v^2/2 + b v - W
    y = rng.uniform(0.1, 10.0) * rng.normal(size=nx)  # convex or not
    u, v = _exact_minimizer(x, g, dt, v_max)(y, b, w)

    bb, ww, gg = np.broadcast_to(b, (nx,))[:, None], w[:, None], g[:, None]
    dense = np.broadcast_to(np.linspace(-v_max, v_max, 2001), (nx, 2001))
    on_nodes = np.clip((x[None, :] - x[:, None]) / (dt * gg), -v_max, v_max)
    controls = np.hstack([dense, on_nodes, np.full((nx, 2), [-v_max, v_max])])

    def objective(control):
        feet = x[:, None] + dt * gg * control
        return dt * (0.5 * control**2 + bb * control - ww) + np.interp(feet, x, y)

    brute = objective(controls).min(axis=1)
    running = 0.5 * v_max**2 + np.max(np.abs(b)) * v_max + np.max(np.abs(w))
    scale = 1.0 + np.max(np.abs(y)) + dt * running
    dv = 2.0 * v_max / 2000
    assert np.all(u <= brute + 1e-12 * scale)
    assert np.all(brute - u <= dt * dv**2 / 8 + 1e-12 * scale)
    assert np.all(np.abs(v) <= v_max)
    np.testing.assert_allclose(objective(v[:, None])[:, 0], u, rtol=0, atol=1e-12 * scale)


def test_consistency_under_refinement():
    # quadratic terminal: u(x, 0) = x^2 / (2 (1 + T)) by the min-over-lines formula
    fam = QuadraticCoupledFamily(beta=0.0, terminal=QuadraticFormPotential(a=1.0))

    def sup_error(nx, nv, steps):
        traj = resting_population(steps=steps, horizon=1.0)
        cfg = GridConfig(-3, 3, nx, nv, 4.0)
        vg = solve_backward(fam, traj, cfg)
        x = cfg.nodes()
        inner = np.abs(x) <= 1.0
        return np.max(np.abs(vg.u[0][inner] - x[inner] ** 2 / 4.0))

    coarse = sup_error(61, 41, 40)
    fine = sup_error(121, 81, 80)
    assert fine <= 1.1 * coarse


def test_a_custom_family_cannot_be_swept():
    # it supplies D_pH (and optionally D_xH and L) but declares no potential W
    fam = CustomVelocityFamily(lambda x, p, y, z: p)
    with pytest.raises(NotImplementedError):
        solve_backward(fam, resting_population(steps=4), GridConfig(-1, 1, 11, 5, 1.0))


def test_control_saturation_error():
    # steep terminal wants |v| = 4 but the box stops at 1
    fam = QuadraticCoupledFamily(beta=0.0, terminal=LinearTerminal(4.0))
    traj = resting_population(steps=20)
    with pytest.raises(ControlSaturationError):
        solve_backward(fam, traj, GridConfig(-2, 2, 41, 11, 1.0))


def test_saturation_tolerated_in_padding_belt():
    # same problem, but the pinch is confined to the sacrificial belt
    fam = QuadraticCoupledFamily(beta=0.0, terminal=QuadraticFormPotential(a=1.0))
    traj = resting_population(steps=40, horizon=1.0)
    cfg = GridConfig(-6, 6, 121, 81, 2.0, core_lo=-1.0, core_hi=1.0)
    vg = solve_backward(fam, traj, cfg)  # no ControlSaturationError
    assert np.isfinite(vg.u).all()
    with pytest.raises(ControlSaturationError):
        solve_backward(fam, traj, GridConfig(-6, 6, 121, 81, 2.0))


def test_a_step_keeps_its_results_through_the_next_step():
    # the kernel refills its work arrays on every row; what it returned for one
    # row must not change when it computes the next
    rng = np.random.default_rng(11)
    x = np.linspace(-1.0, 1.0, 21)
    step = _exact_minimizer(x, np.ones(21), 0.05, 2.0)
    u, v = step(rng.normal(size=21), 0.3, rng.normal(size=21))
    kept = u.copy(), v.copy()
    step(10.0 * rng.normal(size=21), -0.7, rng.normal(size=21))
    np.testing.assert_array_equal(u, kept[0])
    np.testing.assert_array_equal(v, kept[1])


def stepped_reference(fam, traj, cfg, k):
    """The sweep written out as a plain loop over its steps of k rows, going
    backward from row M: the lower row, values and controls of each step."""
    x = cfg.nodes()
    g = 1.0 if fam.speed is None else fam.speed(x)
    u, hi, out = fam.terminal(x, traj.ensemble(traj.steps)), traj.steps, []
    while hi > 0:
        lo = max(hi - k, 0)
        step = _exact_minimizer(x, g, (hi - lo) * traj.dt, cfg.v_max)
        x_ens, z_ens = traj.ensemble(lo), traj.velocity_ensemble(lo)
        u, v = step(u, fam.drift(x_ens, z_ens), fam.running_potential(x, x_ens, z_ens))
        out.append((lo, u, v))
        hi = lo
    return out


def row_by_row_saturation(fam, traj, cfg):
    """The sweep with a saturation test after every step, going backward:
    the lower rows of the pinned steps and the message of the first one met."""
    x = cfg.nodes()
    core_lo, core_hi = cfg.core_interval()
    core = (x >= core_lo) & (x <= core_hi)
    core[[0, -1]] = False
    n_core = max(int(np.count_nonzero(core)), 1)
    k = sweep_stride(fam, cfg, traj.dt, traj.steps)
    pinned, message = [], None
    for m, _, v in stepped_reference(fam, traj, cfg, k):
        frac = np.count_nonzero((np.abs(v) >= cfg.v_max) & core) / n_core
        if frac > 0.01:
            pinned.append(m)
            message = message or (
                f"control argmin pinned at +-v_max on {frac:.1%} of core nodes "
                f"at t={traj.times[m]:.4g}; increase v_max beyond {cfg.v_max:g}"
            )
    return pinned, message


def test_saturation_names_the_latest_pinned_row():
    # beta E Z = 3 on rows 5..12 pushes the minimizer past v_max = 1 there only;
    # going backward, the step ending on the latest such row is met first
    steps, n = 20, 8
    times = np.linspace(0.0, 1.0, steps + 1)
    states = np.zeros((steps + 1, n, 1))
    velocities = np.zeros_like(states)
    velocities[5:13] = 3.0
    traj = TrajectoryEnsemble(times, states, velocities)
    fam = QuadraticCoupledFamily(beta=1.0, terminal=QuadraticFormPotential(a=1.0))
    for nx, stride, rows, named in [
        (81, 1, list(range(12, 4, -1)), "t=0.6;"),  # Courant 1: every row is a step
        (41, 3, [11, 8, 5], "t=0.55;"),  # Courant 0.5: steps end on rows 17, 14, ..., 2, 0
    ]:
        cfg = GridConfig(-2.0, 2.0, nx, 11, 1.0, core_lo=-0.5, core_hi=0.5)
        assert sweep_stride(fam, cfg, traj.dt, steps) == stride
        pinned, message = row_by_row_saturation(fam, traj, cfg)
        assert pinned == rows
        with pytest.raises(ControlSaturationError) as err:
            solve_backward(fam, traj, cfg)
        assert str(err.value) == message
        assert named in message


def sweep_case(name, rng, steps, courant):
    """A coupled LQ game or a state-scaled quartic game on a grid of dx = 0.05,
    with the horizon set so one row has the given Courant number."""
    if name == "lq":
        fam, max_g, lo, hi = LQFamily(beta=0.5, a=1.0, b=0.3, m=1.0, n=0.2), 1.0, -0.5, 0.5
        cfg = GridConfig(-1.0, 1.0, 41, 5, 4.0)
    else:  # g = 1/x peaks at the left edge
        fam = QuarticFamily(0.2, coupling=MeanSquareVelocityCoupling(0.3))
        max_g, lo, hi = 2.0, 0.8, 1.2
        cfg = GridConfig(0.5, 2.5, 41, 5, 8.0)
    horizon = steps * courant * cfg.dx / (cfg.v_max * max_g)
    traj = moving_population(rng, steps, horizon=horizon, lo=lo, hi=hi)
    # speeding up, so the running cost differs from row to row
    speeding = traj.velocities * (1.0 + traj.times / horizon)[:, None, None]
    return fam, TrajectoryEnsemble(traj.times, traj.states, speeding), cfg


@pytest.mark.parametrize("name", ["lq", "quartic"])
@pytest.mark.parametrize("courant", [0.8, 1.4, 40.0])
def test_a_stride_of_one_steps_every_row(name, courant):
    # a Courant number above 0.75 keeps the former sweep bit for bit
    fam, traj, cfg = sweep_case(name, np.random.default_rng(5), 30, courant)
    assert sweep_stride(fam, cfg, traj.dt, traj.steps) == 1
    vg = solve_backward(fam, traj, cfg)
    reference = stepped_reference(fam, traj, cfg, 1)
    assert [m for m, _, _ in reference] == list(range(29, -1, -1))
    for m, u, _ in reference:
        np.testing.assert_array_equal(vg.u[m], u)


@pytest.mark.parametrize("name", ["lq", "quartic"])
@pytest.mark.parametrize("steps, courant, stride", [(30, 0.45, 3), (31, 0.45, 3), (30, 0.28, 5)])
def test_coarse_steps_and_the_rows_between_them(name, steps, courant, stride):
    fam, traj, cfg = sweep_case(name, np.random.default_rng(6), steps, courant)
    assert sweep_stride(fam, cfg, traj.dt, steps) == stride
    vg = solve_backward(fam, traj, cfg)
    reference = stepped_reference(fam, traj, cfg, stride)
    coarse = [steps, *(m for m, _, _ in reference)]
    # steps end on rows M - k, M - 2k, ...; a k that does not divide M ends short
    assert coarse[1:-1] == list(range(steps - stride, 0, -stride)) and coarse[-1] == 0
    for m, u, _ in reference:
        np.testing.assert_array_equal(vg.u[m], u)
    for hi, lo in zip(coarse, coarse[1:]):
        for m in range(lo + 1, hi):
            theta = (m - lo) / (hi - lo)
            np.testing.assert_array_equal(vg.u[m], (1 - theta) * vg.u[lo] + theta * vg.u[hi])


def test_coarse_steps_cut_the_diffusion():
    # the closed form of test_consistency_under_refinement at Courant 0.4:
    # three rows per step beat one interpolation per row
    fam = QuadraticCoupledFamily(beta=0.0, terminal=QuadraticFormPotential(a=1.0))
    traj = resting_population(steps=200, horizon=1.0)
    cfg = GridConfig(-3, 3, 121, 5, 4.0)
    assert sweep_stride(fam, cfg, traj.dt, traj.steps) == 3
    x = cfg.nodes()
    inner = np.abs(x) <= 1.0

    def sup_error(u0):
        return np.max(np.abs(u0[inner] - x[inner] ** 2 / 4.0))

    row_by_row = stepped_reference(fam, traj, cfg, 1)[-1][1]
    assert sup_error(solve_backward(fam, traj, cfg).u[0]) < sup_error(row_by_row)


@pytest.mark.parametrize(
    "x_hi, v_max, dt, stride",
    [
        (1.0, 1e-300, 1e-300, 20),  # the Courant number underflows to 0
        (1.0, 1e300, 0.05, 1),  # ... overflows to inf
        (1.0, np.inf, 0.0, 1),  # ... is 0 * inf = nan
        (1e300, 1.0, 0.05, 20),  # ... is 0 on a huge grid
        (1.0, 3.0, 0.05, 1),  # Courant 3
        (1.0, 0.5, 0.05, 3),  # Courant 0.5
        (1.0, 0.12, 0.05, 12),  # Courant 0.12
    ],
)
def test_the_stride_stays_within_one_and_the_row_count(x_hi, v_max, dt, stride):
    cfg = GridConfig(-1.0, x_hi, 41, 5, v_max)
    assert sweep_stride(QuadraticCoupledFamily(beta=0.0), cfg, dt, 20) == stride


def test_value_slice_blend_and_gradient():
    x = np.linspace(-1, 1, 21)
    mid = ValueSlice(x, 0.5 * x**2)
    assert mid.gradient_at(0.5) == pytest.approx(0.5, abs=0.01)
