import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmfg.ensembles import Ensemble, TrajectoryEnsemble
from xmfg.errors import ControlSaturationError, DomainTooSmallError
from xmfg.families import (
    LinearTerminal,
    LQFamily,
    MeanSquareVelocityCoupling,
    QuadraticCoupledFamily,
    QuadraticFormPotential,
    QuadraticTerminal,
    QuarticFamily,
    TabulatedTerminal,
)
from xmfg.hjb import (
    SATURATION_FRACTION,
    GridConfig,
    ValueGrid,
    ValueSlice,
    _shift_stencil,
    regularity_report,
    solve_backward,
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
    fam.terminal = TabulatedTerminal(nodes, values)
    return fam


def reference_sweep(fam, traj, cfg):
    """The backward sweep with ``np.interp`` called at every step."""
    x = cfg.nodes()
    controls = cfg.controls()
    steps, dt = traj.steps, traj.dt
    u = np.empty((steps + 1, cfg.nx))
    u[steps] = fam.terminal(x, traj.ensemble(steps))
    feet = (x[None, :] + dt * fam.control_speed(x[None, :], controls[:, None])).ravel()
    core_lo, core_hi = cfg.core_interval()
    core = (x >= core_lo) & (x <= core_hi)
    core[[0, -1]] = False
    n_core = max(int(np.count_nonzero(core)), 1)
    for m in range(steps - 1, -1, -1):
        running = fam.lagrangian(
            x[None, :], controls[:, None], traj.ensemble(m), traj.velocity_ensemble(m)
        )
        cost = dt * running + np.interp(feet, x, u[m + 1]).reshape(cfg.nv, cfg.nx)
        best = np.argmin(cost, axis=0)
        u[m] = cost[best, np.arange(cfg.nx)]
        pinned = ((best == 0) | (best == cfg.nv - 1)) & core
        frac = np.count_nonzero(pinned) / n_core
        if frac > SATURATION_FRACTION:
            raise ControlSaturationError(
                f"control argmin pinned at +-v_max on {frac:.1%} of core nodes "
                f"at t={traj.times[m]:.4g}; increase v_max beyond {cfg.v_max:g}"
            )
    return u


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
    fam = QuadraticCoupledFamily(beta=0.0, terminal=QuadraticTerminal(m=2.0, n=-1.0))
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
    # state-scaled dynamics: every control row spans several cell shifts,
    # so the sweep gathers most feet instead of reading shifted slices
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


#: terminal entries that stress the sweep: signed zeros, slopes that overflow
#: (so np.interp's NaN fallback is needed) and slopes that stay just finite
SPECIAL_TERMINALS = [-0.0, 0.0, 1e308, -1e308, np.inf, -np.inf, 1e306, -1e306]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_matches_np_interp_reference(data):
    nx = data.draw(st.integers(3, 60), label="nx")
    nv = data.draw(st.integers(2, 60), label="nv")
    steps = data.draw(st.integers(1, 15), label="steps")
    ratio = data.draw(st.floats(0.1, 3.5), label="dt*v_max/dx")
    quartic = data.draw(st.booleans(), label="quartic")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x_lo, x_hi = (0.5, 1.5) if quartic else (-1.0, 1.0)
    v_max = 4.0
    dx = (x_hi - x_lo) / (nx - 1)
    traj_kw = dict(lo=0.8, hi=1.2) if quartic else {}
    traj = moving_population(rng, steps, horizon=steps * ratio * dx / v_max, **traj_kw)
    cfg = GridConfig(x_lo, x_hi, nx, nv, v_max)
    x = cfg.nodes()
    psi = rng.uniform(-1, 1) * x + rng.uniform(-1, 1) * x**2 + rng.normal(0, 0.01, nx)
    for _ in range(data.draw(st.integers(0, 3), label="specials")):
        psi[rng.integers(nx)] = data.draw(st.sampled_from(SPECIAL_TERMINALS))
    if quartic:
        fam = QuarticFamily(0.2, coupling=MeanSquareVelocityCoupling(0.3))
    else:
        fam = LQFamily(beta=0.5, a=rng.uniform(0, 2), b=rng.uniform(-1, 1))
    fam = with_table(fam, x, psi)

    # single interpolations, compared bit for bit, so signed zeros count
    feet = x[None, :] + traj.dt * fam.control_speed(x[None, :], cfg.controls()[:, None])
    interp = _shift_stencil(x, feet)
    for y in (psi, np.full(nx, -0.0)):
        assert interp(y).tobytes() == np.interp(feet, x, y).tobytes()

    with np.errstate(all="ignore"):
        try:
            expected = reference_sweep(fam, traj, cfg)
        except ControlSaturationError as err:
            with pytest.raises(ControlSaturationError, match=re.escape(str(err))):
                solve_backward(fam, traj, cfg)
            return
        assert solve_backward(fam, traj, cfg).u.tobytes() == expected.tobytes()


def test_sweep_matches_reference_on_nan_feet():
    # the state-scaled speed v/x at x = 0 puts feet at NaN (v = 0) and +-inf;
    # one step, since the NaN value at x = 0 pins the argmin on the next one
    fam = QuarticFamily(0.2)
    traj = resting_population(steps=1, level=0.5)
    cfg = GridConfig(0.0, 1.0, 11, 5, 1.0)
    with np.errstate(all="ignore"):
        expected = reference_sweep(fam, traj, cfg)
        assert solve_backward(fam, traj, cfg).u.tobytes() == expected.tobytes()


def test_consistency_under_refinement():
    # quadratic terminal: u(x, 0) = x^2 / (2 (1 + T)) by the min-over-lines formula
    fam = QuadraticCoupledFamily(beta=0.0, terminal=QuadraticTerminal(m=1.0))

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


def test_control_saturation_error():
    # steep terminal wants |v| = 4 but the box stops at 1
    fam = QuadraticCoupledFamily(beta=0.0, terminal=LinearTerminal(4.0))
    traj = resting_population(steps=20)
    with pytest.raises(ControlSaturationError):
        solve_backward(fam, traj, GridConfig(-2, 2, 41, 11, 1.0))


def test_saturation_tolerated_in_padding_belt():
    # same problem, but the pinch is confined to the sacrificial belt
    fam = QuadraticCoupledFamily(beta=0.0, terminal=QuadraticTerminal(m=1.0))
    traj = resting_population(steps=40, horizon=1.0)
    cfg = GridConfig(-6, 6, 121, 81, 2.0, core_lo=-1.0, core_hi=1.0)
    vg = solve_backward(fam, traj, cfg)  # no ControlSaturationError
    assert np.isfinite(vg.u).all()
    with pytest.raises(ControlSaturationError):
        solve_backward(fam, traj, GridConfig(-6, 6, 121, 81, 2.0))


def test_value_slice_blend_and_gradient():
    x = np.linspace(-1, 1, 21)
    mid = ValueSlice(x, 0.5 * x**2)
    assert mid.gradient_at(0.5) == pytest.approx(0.5, abs=0.01)
