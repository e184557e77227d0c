import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmfg.ensembles import Ensemble, TrajectoryEnsemble
from xmfg.errors import ControlSaturationError, DomainTooSmallError, ValueBlowupError
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


def stepped(step, y, b, w):
    """The value and control rows one step of the minimizer writes."""
    u, v = np.empty((2, np.size(y)))
    step(y, b, w, u, v)
    return u, v


def static_grid(u_row, x_lo=-1.0, x_hi=1.0, slices=3):
    nx = len(u_row)
    cfg = GridConfig(x_lo=x_lo, x_hi=x_hi, nx=nx, nv=5, v_max=1.0)
    return ValueGrid(config=cfg, times=np.linspace(0, 1, slices), u=np.tile(u_row, (slices, 1)))


def test_zero_problem_stays_zero():
    fam = QuadraticCoupledFamily(beta=0.0)
    vg = solve_backward(fam, resting_population(), GridConfig(-2, 2, 81, 41, 2.0)).dense()
    assert np.max(np.abs(vg.u)) == 0.0


def test_hopf_lax_linear_terminal():
    # optimal constant control v = -alpha gives u = alpha x - alpha^2 (T-t)/2
    alpha = 1.0
    fam = QuadraticCoupledFamily(beta=0.0, terminal=LinearTerminal(alpha))
    traj = resting_population(steps=100)
    cfg = GridConfig(-4, 4, 161, 121, 3.0)  # -alpha sits on the control grid
    vg = solve_backward(fam, traj, cfg).dense()
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
    vg = solve_backward(fam, traj, GridConfig(-2, 2, 81, 41, 2.0)).dense()
    for m, t in enumerate(traj.times):
        np.testing.assert_allclose(vg.u[m], 1.0 - t, atol=1e-12)


def test_terminal_slice_exact():
    fam = QuadraticCoupledFamily(beta=0.0, terminal=QuadraticFormPotential(a=2.0, b=-1.0))
    traj = resting_population(steps=10, level=0.5)
    cfg = GridConfig(-2, 2, 51, 21, 12.0)
    vg = solve_backward(fam, traj, cfg).dense()
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
        lin.value_at(np.append(inside[:148], [-3.0, 3.0]), 1)


@pytest.mark.parametrize("outside_first", [True, False])
def test_clamp_outcome_is_independent_of_query_history(outside_first):
    vg = static_grid(np.linspace(0.0, 1.0, 11) ** 2, x_lo=0.0, x_hi=1.0)
    edge = lambda: vg.value_at(np.array([2.0, 3.0]), 0)  # noqa: E731
    inside = lambda: vg.value_at(np.linspace(0.0, 1.0, 150), 0)  # noqa: E731
    if outside_first:
        np.testing.assert_array_equal(edge(), [1.0, 1.0])
        np.testing.assert_allclose(inside(), np.linspace(0.0, 1.0, 150) ** 2, atol=3e-3)
    else:
        np.testing.assert_allclose(inside(), np.linspace(0.0, 1.0, 150) ** 2, atol=3e-3)
        np.testing.assert_array_equal(edge(), [1.0, 1.0])
    assert not hasattr(vg, "stats")


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


@pytest.mark.parametrize(
    "horizon, steps, last",
    [(1e-12, 10, 9), (1e-12, 200, 180), (1e-9, 1000, 900), (1.0, 100, 90), (1e6, 30, 27)],
)
def test_the_semiconcavity_window_holds_the_rows_up_to_nine_tenths(horizon, steps, last):
    # row m is m x^2, whose second differences are 2 m: the report names the last row
    x = np.linspace(-1.0, 1.0, 11)
    cfg = GridConfig(-1.0, 1.0, 11, 5, 1.0)
    u = np.arange(steps + 1.0)[:, None] * x**2
    rep = regularity_report(ValueGrid(cfg, np.linspace(0.0, horizon, steps + 1), u))
    assert rep.semiconcavity_const == pytest.approx(2.0 * last, rel=1e-9)
    assert rep.t1 == pytest.approx(0.9 * horizon, rel=1e-12)


def test_the_semiconcavity_window_closes_on_the_blend_inside_a_step():
    # steps of 3 rows end on rows 1, 4, 7 and 10; row 9 = 0.9 M lies in the last
    # step, whose ends have curvature 0 and 2 c: row 9 blends them to 4 c / 3
    x, c = np.linspace(-1.0, 1.0, 21), 3.0
    cfg = GridConfig(-1.0, 1.0, 21, 5, 1.0)
    u = np.zeros((5, 21))
    u[-1] = c * x**2
    vg = ValueGrid(cfg, np.linspace(0.0, 1.0, 11), u, rows=np.array([0, 1, 4, 7, 10]))
    rep, dense = regularity_report(vg), vg.dense()
    assert rep == regularity_report(dense)
    assert rep.semiconcavity_const == pytest.approx(4.0 * c / 3.0)
    np.testing.assert_array_equal(dense.u[9], (1 - 2 / 3) * u[3] + 2 / 3 * u[4])
    with pytest.raises(ValueError):  # row 9 is not held
        vg.value_at(0.0, 9)
    u[2, 5] = np.nan
    with pytest.raises(ValueBlowupError):
        ValueGrid(cfg, vg.times, u, rows=vg.rows).dense()


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
        u_lo = solve_backward(with_table(fam, nodes, base), traj, cfg).dense().u
        u_hi = solve_backward(with_table(fam, nodes, base + lift), traj, cfg).dense().u
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
    u, v = stepped(_exact_minimizer(x, g, dt, v_max), y, b, w)

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
        vg = solve_backward(fam, traj, cfg).dense()
        x = cfg.nodes()
        inner = np.abs(x) <= 1.0
        return np.max(np.abs(vg.u[0][inner] - x[inner] ** 2 / 4.0))

    coarse = sup_error(61, 41, 40)
    fine = sup_error(121, 81, 80)
    assert fine <= 1.1 * coarse


def test_a_custom_family_cannot_be_swept():
    # it supplies D_pH (and optionally D_xH and L) but declares no potential W
    fam = CustomVelocityFamily(lambda x, p, y, z: p)
    with pytest.raises(NotImplementedError, match=r"no running_potential / dx_running_potential"):
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
    vg = solve_backward(fam, traj, cfg).dense()  # no ControlSaturationError
    assert np.isfinite(vg.u).all()
    with pytest.raises(ControlSaturationError):
        solve_backward(fam, traj, GridConfig(-6, 6, 121, 81, 2.0))


def test_a_step_keeps_its_results_through_the_next_step():
    # the kernel refills its work arrays on every row and writes the rows it is
    # handed only; what it wrote for one row must not change when it computes the next
    rng = np.random.default_rng(11)
    x = np.linspace(-1.0, 1.0, 21)
    step = _exact_minimizer(x, np.ones(21), 0.05, 2.0)
    u, v = np.full((2, 3, 21), np.nan)
    step(rng.normal(size=21), 0.3, rng.normal(size=21), u[1], v[1])
    kept = u.copy(), v.copy()
    step(10.0 * rng.normal(size=21), -0.7, rng.normal(size=21), u[2], v[2])
    np.testing.assert_array_equal(u[:2], kept[0][:2])
    np.testing.assert_array_equal(v[:2], kept[1][:2])
    assert np.isnan(u[0]).all() and np.isfinite(u[1:]).all() and np.isfinite(v[1:]).all()


@pytest.mark.parametrize("v_max", [1e-300, 1e-20, 1e-16])
def test_a_box_too_small_to_move_a_foot_still_offers_both_signs(v_max):
    # x +- dt g v_max rounds to x on every node: each tries the pieces on both
    # sides and takes the largest control, so an optimum beyond the box pins it
    x = np.linspace(1.0, 3.0, 41)
    for slope in (1.0, -1.0):
        u, v = stepped(_exact_minimizer(x, 1.0, 0.1, v_max), slope * x, 0.0, np.zeros(41))
        # the slope wants v = -slope; beyond an end node the edge piece is flat, -b = 0 its optimum
        np.testing.assert_array_equal(v[1:-1], -slope * v_max)
        assert (v[0], v[-1]) == ((0.0, -v_max) if slope > 0 else (v_max, 0.0))
        np.testing.assert_allclose(u, slope * x, rtol=0, atol=1e-15)
        # a sweep with such a box saturates on every core node
        fam = QuadraticCoupledFamily(beta=0.0, terminal=LinearTerminal(slope))
        with pytest.raises(ControlSaturationError, match="on 100.0% of core nodes"):
            solve_backward(fam, resting_population(steps=10), GridConfig(1, 3, 41, 5, v_max))


def reference_minimizer(x, g, dt, v_max):
    """The step as first written, on ``(P, nx)`` work arrays, returning fresh rows:
    the reference the in-place ``(nx, P)`` step must match bit for bit."""
    nx = x.size
    speed = dt * np.asarray(g, dtype=float)  # d(foot)/dv
    reach = np.abs(speed) * v_max
    first = np.searchsorted(x, x - reach, "right") - 1
    last = np.searchsorted(x, x + reach, "right") - 1
    piece = np.minimum(first + np.arange(np.max(last - first) + 1)[:, None], last)
    edges = np.concatenate(([-np.inf], x, [np.inf]))
    ends = (edges[piece + 1] - x) / speed, (edges[piece + 2] - x) / speed
    lo = np.maximum(np.minimum(*ends), -v_max)  # controls whose foot lands on the piece
    hi = np.minimum(np.maximum(*ends), v_max)
    anchor = np.clip(piece, 0, nx - 1)
    offset = x - x[anchor]  # foot - x[anchor] = offset + speed v
    slopes, width, cols = np.zeros(nx + 1), np.diff(x), np.arange(nx)  # edge pieces are flat
    inner, slope_index = slopes[1:-1], piece + 1
    s, v, cost, work = np.empty((4, *piece.shape))

    def step(y: np.ndarray, b, w):
        np.divide(np.subtract(y[1:], y[:-1], out=inner), width, out=inner)
        slopes.take(slope_index, out=s, mode="clip")  # indices in range: "clip" skips a copy
        # v = clip(-(s g + b), lo, hi)
        np.negative(np.add(np.multiply(s, g, out=v), b, out=v), out=v)
        np.minimum(np.maximum(v, lo, out=v), hi, out=v)
        np.multiply(np.add(np.multiply(speed, v, out=cost), offset, out=cost), s, out=cost)
        np.add(cost, y.take(anchor, out=work, mode="clip"), out=cost)
        np.add(np.multiply(v, 0.5, out=work), b, out=work)
        np.add(cost, np.multiply(np.multiply(work, dt, out=work), v, out=work), out=cost)
        best = cost.argmin(axis=0)
        return cost[best, cols] - dt * w, v[best, cols]

    return step


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_in_place_step_keeps_the_bits_of_the_reference_step(data):
    # a stride of k rows, then a last step of j < k rows, as a sweep ends on row 0
    nx = data.draw(st.integers(3, 60), label="nx")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x_lo = rng.uniform(-2.0, 2.0)
    x = np.linspace(x_lo, x_lo + rng.uniform(0.2, 4.0), nx)
    dt = data.draw(st.floats(1e-3, 0.2), label="dt")
    v_max = data.draw(st.floats(0.1, 20.0), label="v_max")
    k = data.draw(st.integers(2, 5), label="stride")
    j = data.draw(st.integers(1, k - 1), label="last step")
    g = {
        "unit": 1.0,  # what the sweep passes for a family without a speed
        "state-scaled": 1.0 / (x - x_lo + rng.uniform(0.2, 2.0)),
        "signed": rng.choice([-1.0, 1.0], nx) * rng.uniform(0.2, 3.0, nx),
    }[data.draw(st.sampled_from(["unit", "state-scaled", "signed"]), label="g")]
    per_node = data.draw(st.booleans(), label="b per node")
    y = rng.uniform(0.1, 10.0) * rng.normal(size=nx)
    for h in (k * dt, j * dt):
        b = rng.normal(0.0, 2.0, nx) if per_node else rng.normal()
        w = rng.normal(0.0, 1.0, nx)
        u, v = stepped(_exact_minimizer(x, g, h, v_max), y, b, w)
        u_ref, v_ref = reference_minimizer(x, g, h, v_max)(y, b, w)
        np.testing.assert_array_equal(bits(u), bits(u_ref))
        np.testing.assert_array_equal(bits(v), bits(v_ref))
        y = u


def reference_report(vg):
    """The regularity report as first written: the held rows up to floor(0.9 M)
    and the blended one stacked into one array."""
    dx = vg.config.dx
    t1 = float(vg.times[0]) + 0.9 * vg.horizon
    max_abs = float(np.max(np.abs(vg.u)))
    lip = float(np.max(np.abs(np.diff(vg.u, axis=1)))) / dx
    last = math.floor(0.9 * (vg.times.size - 1) * (1 + 1e-12))
    uu = vg.u[vg.rows <= last]
    if last not in vg.rows:
        uu = np.vstack((uu, vg._between(np.array([last]))))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        second = (uu[:, 2:] + uu[:, :-2] - 2.0 * uu[:, 1:-1]) / np.float64(dx) ** 2
    return max_abs, lip, float(np.max(second)), float(t1)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans())
def test_the_regularity_report_keeps_the_bits_of_the_stacked_rows(data, held):
    # swept rows 0 < ... < M in steps of k, with row floor(0.9 M) held or blended
    steps = data.draw(st.integers(2, 60), label="M")
    k = data.draw(st.integers(1, 7), label="stride")
    nx = data.draw(st.integers(3, 40), label="nx")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    last = math.floor(0.9 * steps * (1 + 1e-12))
    rows = {0, *range(steps % k or k, steps + 1, k)}
    rows = sorted(rows | {last} if held else rows - {last})
    if data.draw(st.booleans(), label="signed zeros"):  # flat rows tie at +-0
        u = rng.choice([0.0, -0.0, 1.0, -1.0], (len(rows), nx))
    else:
        u = rng.uniform(0.1, 10.0) * rng.normal(size=(len(rows), nx))
    cfg = GridConfig(-1.0, rng.uniform(-0.9, 3.0), nx, 5, 1.0)
    vg = ValueGrid(cfg, np.linspace(0.0, rng.uniform(0.1, 5.0), steps + 1), u, rows=np.array(rows))
    rep = regularity_report(vg)
    got = rep.max_abs, rep.lip_const, rep.semiconcavity_const, rep.t1
    np.testing.assert_array_equal(bits(got), bits(reference_report(vg)))


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
        u, v = stepped(step, u, fam.drift(x_ens, z_ens), fam.running_potential(x, x_ens, z_ens))
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
    vg = solve_backward(fam, traj, cfg).dense()
    reference = stepped_reference(fam, traj, cfg, 1)
    assert [m for m, _, _ in reference] == list(range(29, -1, -1))
    for m, u, _ in reference:
        np.testing.assert_array_equal(vg.u[m], u)


@pytest.mark.parametrize("name", ["lq", "quartic"])
@pytest.mark.parametrize("steps, courant, stride", [(30, 0.45, 3), (31, 0.45, 3), (30, 0.28, 5)])
def test_coarse_steps_and_the_rows_between_them(name, steps, courant, stride):
    fam, traj, cfg = sweep_case(name, np.random.default_rng(6), steps, courant)
    assert sweep_stride(fam, cfg, traj.dt, steps) == stride
    swept = solve_backward(fam, traj, cfg)
    vg = swept.dense()
    reference = stepped_reference(fam, traj, cfg, stride)
    coarse = [steps, *(m for m, _, _ in reference)]
    # steps end on rows M - k, M - 2k, ...; a k that does not divide M ends short
    assert coarse[1:-1] == list(range(steps - stride, 0, -stride)) and coarse[-1] == 0
    # the sweep keeps those rows only; its report is the dense grid's, row 27 =
    # 0.9 M blended inside a step when M is 31
    assert swept.rows.tolist() == coarse[::-1] and swept.u.shape == (len(coarse), cfg.nx)
    assert regularity_report(swept) == regularity_report(vg)
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
    assert sup_error(solve_backward(fam, traj, cfg).dense().u[0]) < sup_error(row_by_row)


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


def test_one_row_value_grid_gradient():
    x = np.linspace(-1, 1, 21)
    mid = ValueGrid(GridConfig(-1.0, 1.0, 21, 5, 1.0), [0.0], (0.5 * x**2)[None])
    assert mid.gradient_at(0.5, 0) == pytest.approx(0.5, abs=0.01)


def counting_costs(fam):
    """A copy of ``fam`` whose drift and running_potential count their calls."""
    fam, calls = copy.copy(fam), {"drift": 0, "running_potential": 0}
    for name in calls:
        def counted(*args, real=getattr(fam, name), name=name):
            calls[name] += 1
            return real(*args)

        setattr(fam, name, counted)
    return fam, calls


@pytest.mark.parametrize("name", ["lq", "quartic"])
@pytest.mark.parametrize("steps, courant", [(30, 0.45), (31, 0.45), (30, 1.4)])
def test_a_stacking_family_reads_the_running_costs_of_a_sweep_in_one_call(name, steps, courant):
    fam, traj, cfg = sweep_case(name, np.random.default_rng(7), steps, courant)
    counted, calls = counting_costs(fam)
    assert counted.stacks_laws
    vg = solve_backward(counted, traj, cfg).dense()
    assert calls == {"drift": 1, "running_potential": 1}
    for m, u, _ in stepped_reference(fam, traj, cfg, sweep_stride(fam, cfg, traj.dt, steps)):
        np.testing.assert_array_equal(vg.u[m], u)


@pytest.mark.parametrize("steps, courant, stride", [(30, 0.45, 3), (31, 0.45, 3), (30, 1.4, 1)])
def test_a_cost_on_coefficient_maps_is_read_once_per_step(steps, courant, stride):
    # callable coefficient maps take one law per call, so the sweep calls them per step
    lq, traj, cfg = sweep_case("lq", np.random.default_rng(8), steps, courant)
    potential = QuadraticFormPotential(lambda ens: 1.0 + 0.1 * ens.mean_scalar(), 0.3)
    fam, calls = counting_costs(QuadraticCoupledFamily(0.5, potential, lq.terminal))
    assert not fam.stacks_laws and sweep_stride(fam, cfg, traj.dt, steps) == stride
    vg, swept = solve_backward(fam, traj, cfg).dense(), dict(calls)
    reference = stepped_reference(fam, traj, cfg, stride)
    assert swept == {"drift": len(reference), "running_potential": len(reference)}
    for m, u, _ in reference:
        np.testing.assert_array_equal(vg.u[m], u)
