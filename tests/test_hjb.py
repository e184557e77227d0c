import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmfg.ensembles import Ensemble, TrajectoryEnsemble
from xmfg.errors import ControlSaturationError, DomainTooSmallError
from xmfg.families import (
    LinearTerminal,
    QuadraticCoupledFamily,
    QuadraticFormPotential,
    QuadraticTerminal,
    TabulatedTerminal,
)
from xmfg.hjb import (
    GridConfig,
    ValueGrid,
    ValueSlice,
    regularity_report,
    solve_backward,
)


def resting_population(steps=80, n=8, horizon=1.0, level=0.0):
    times = np.linspace(0.0, horizon, steps + 1)
    states = np.full((steps + 1, n, 1), level)
    return TrajectoryEnsemble(times, states, np.zeros_like(states))


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
    assert lin.gradient_at(5.0, 0) == pytest.approx(1.0)  # clamped, tolerated
    with pytest.raises(DomainTooSmallError):
        for _ in range(200):
            lin.gradient_at(5.0, 0)


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


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_comparison_principle(seed):
    # raising the terminal data pointwise can never lower any value
    rng = np.random.default_rng(seed)
    nodes = np.linspace(-2, 2, 9)
    base = rng.uniform(-1, 1, size=9)
    lift = rng.uniform(0, 1, size=9)
    fam_lo = QuadraticCoupledFamily(beta=0.0, terminal=TabulatedTerminal(nodes, base))
    fam_hi = QuadraticCoupledFamily(beta=0.0, terminal=TabulatedTerminal(nodes, base + lift))
    traj = resting_population(steps=25)
    cfg = GridConfig(-2, 2, 41, 33, 8.0)
    u_lo = solve_backward(fam_lo, traj, cfg).u
    u_hi = solve_backward(fam_hi, traj, cfg).u
    assert np.all(u_hi >= u_lo - 1e-12)


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
    a = ValueSlice(x, x**2)
    b = ValueSlice(x, np.zeros_like(x))
    mid = a.blend(b, 0.5)
    np.testing.assert_allclose(mid.u, 0.5 * x**2)
    assert mid.gradient_at(0.5) == pytest.approx(0.5, abs=0.01)
