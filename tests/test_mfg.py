import functools
import logging
import math
import re
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xmfg.mfg as mfg
from xmfg.analytic import LQCoefficients, lq_solve
from xmfg.ensembles import Ensemble, TrajectoryEnsemble, wasserstein_1d
from xmfg.errors import ControlSaturationError, FlowBlowupError
from xmfg.families import (
    CustomVelocityFamily,
    LQFamily,
    MomentQuadraticPotential,
    QuadraticCoupledFamily,
    QuadraticFormPotential,
    QuarticFamily,
)
from xmfg.flow import separation_diagnostic
from xmfg.hjb import GridConfig
from xmfg.mfg import (
    ProblemSpec,
    SolverConfig,
    apply_F,
    canonical_grid,
    master_consistency_residual,
    master_value,
    solve_mfg,
    uniqueness_probe,
)

SMALL = SolverConfig(nx=81, time_steps=60, nv=81, v_max=4.0)


def spread_ensemble(n=16, lo=-1.0, hi=1.0):
    return Ensemble(lo + (hi - lo) * (np.arange(n) + 0.5) / n)


def zero_problem(n=16):
    return ProblemSpec(QuadraticCoupledFamily(beta=0.0), horizon=1.0, initial=spread_ensemble(n))


def lq_problem(beta=0.0, n=16):
    return ProblemSpec(LQFamily(beta=beta, m=1.0), horizon=1.0, initial=spread_ensemble(n))


def test_zero_problem_fixed_point():
    sol = solve_mfg(zero_problem(), SMALL)
    assert sol.converged
    assert sol.iterations <= 2
    assert np.max(np.abs(sol.value.u)) == 0.0
    np.testing.assert_allclose(sol.traj.states, np.broadcast_to(sol.traj.states[0], sol.traj.states.shape))


def test_apply_f_zero_problem():
    problem = zero_problem()
    grid = canonical_grid(problem, SMALL)
    out = apply_F(problem, np.zeros_like, SMALL)
    assert np.max(np.abs(out.u[0])) == 0.0
    np.testing.assert_array_equal(out.x, grid.nodes())


def test_apply_f_constant_running_cost():
    # L = v^2/2 + 1 and flat seed profile: stationary flow, F(phi) = T
    fam = QuadraticCoupledFamily(beta=0.0, potential=QuadraticFormPotential(c=-1.0))
    problem = ProblemSpec(fam, horizon=1.0, initial=spread_ensemble())
    out = apply_F(problem, lambda x: np.full_like(x, 5.0), SMALL)
    np.testing.assert_allclose(out.u[0], 1.0, atol=1e-12)


def test_apply_f_lq_oracle_is_near_fixed_point():
    problem = lq_problem()
    cfg = SMALL
    state, _ = lq_solve(LQCoefficients(m=1.0), problem.initial, 0.0, 1.0, cfg.time_steps)
    grid = canonical_grid(problem, cfg)
    nodes = grid.nodes()

    def oracle0(x):  # the oracle's u(., 0)
        return 0.5 * state.gamma[0] * x**2 + state.theta[0] * x + state.zeta[0]

    out = apply_F(problem, oracle0, cfg)
    err = np.abs(out.u[0] - oracle0(nodes))
    # scheme tolerance at this resolution; the padding belt is coarser
    assert np.max(err[np.abs(nodes) <= 2.0]) <= 0.05
    assert np.max(err) <= 0.12


def test_solution_value_and_trajectory_mutually_consistent():
    # re-solving the backward equation along the returned trajectory must
    # reproduce the returned value table exactly
    from xmfg.hjb import solve_backward

    problem = lq_problem(beta=0.5)
    sol = solve_mfg(problem, SMALL)
    vg = solve_backward(problem.family, sol.traj, canonical_grid(problem, SMALL)).dense()
    np.testing.assert_array_equal(vg.u, sol.value.u)


def test_solve_mfg_idempotence_at_convergence():
    cfg = SolverConfig(nx=81, time_steps=60, nv=81, v_max=4.0, tol_fix=1e-5, tol_traj=1e-5)
    sol = solve_mfg(lq_problem(beta=0.5), cfg)
    assert sol.converged
    assert sol.final_phi_residual <= 1e-5
    again = apply_F(lq_problem(beta=0.5), lambda x: sol.value.value_at(x, 0), cfg)
    assert np.max(np.abs(again.u[0] - sol.value.u[0])) <= 1e-5


def test_residual_history_shape_and_decay():
    sol = solve_mfg(lq_problem(), SMALL)
    assert sol.converged
    ks, phis, trajs = zip(*sol.residual_history)
    assert list(ks) == list(range(1, sol.iterations + 1))
    assert math.isnan(trajs[0])
    assert phis[-1] < phis[0]
    assert all(t >= 0 for t in trajs[1:])


def test_regularity_history_within_slack_of_first_iterate():
    sol = solve_mfg(lq_problem(beta=0.5), SMALL)
    first = sol.regularity_history[0]
    for rep in sol.regularity_history[1:]:
        assert rep.max_abs <= 1.5 * first.max_abs + 1e-9
        assert rep.lip_const <= 1.5 * first.lip_const + 1e-9
        assert rep.semiconcavity_const <= 1.5 * max(first.semiconcavity_const, 0.0) + 1e-9


def test_non_convergence_reported_not_raised():
    cfg = SolverConfig(nx=41, time_steps=30, nv=41, v_max=4.0, max_outer=1)
    sol = solve_mfg(lq_problem(), cfg)
    assert not sol.converged
    assert sol.iterations == 1
    assert np.isfinite(sol.final_phi_residual)


def test_master_value_zero_problem():
    problem = zero_problem()
    val = master_value(problem, 0.3, problem.initial, 0.4, SMALL)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_master_value_terminal_limit():
    # t -> T returns the terminal cost up to the O(T - t) value drift
    problem = lq_problem()
    t = 1.0 - 2.0 / SMALL.time_steps
    y = spread_ensemble(16, -0.5, 0.5)
    val = master_value(problem, 0.8, y, t, SMALL)
    assert val == pytest.approx(0.5 * 0.8**2, abs=3 * (1.0 - t))


def test_master_value_matches_lq_oracle():
    problem = lq_problem()
    cfg = SMALL
    state, otraj = lq_solve(LQCoefficients(m=1.0), problem.initial, 0.0, 1.0, cfg.time_steps)
    m = cfg.time_steps // 2
    t = state.times[m]
    val = master_value(problem, 0.5, otraj.ensemble(m), t, cfg)
    oracle = 0.5 * state.gamma[m] * 0.25 + state.theta[m] * 0.5 + state.zeta[m]
    assert val == pytest.approx(oracle, abs=0.05)


def test_master_probes_at_one_time_share_one_subsolve(monkeypatch):
    problem = lq_problem()
    sol = solve_mfg(problem, SMALL)
    m = SMALL.time_steps // 2
    t = m * problem.horizon / SMALL.time_steps
    xs = np.quantile(sol.traj.states[m, :, 0], [0.2, 0.4, 0.6, 0.8])
    separate = max(
        abs(float(sol.value.value_at(np.array([x]), m)[0])
            - master_value(problem, float(x), sol.traj.ensemble(m), t, SMALL))
        for x in xs
    )
    calls = []
    real = mfg.solve_mfg

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mfg, "solve_mfg", counting)
    residual = master_consistency_residual(sol, problem, SMALL, [(float(x), t) for x in xs])
    assert len(calls) == 1
    assert residual == separate


def count_grids(monkeypatch):
    """Record the arguments of every grid sizing."""
    calls = []
    real = mfg.canonical_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mfg, "canonical_grid", counted)
    return calls


def test_master_probes_size_one_grid_per_restart_row(monkeypatch):
    problem = lq_problem()
    sol = solve_mfg(problem, SMALL)
    grids = count_grids(monkeypatch)
    dt = problem.horizon / SMALL.time_steps
    # five probes on three rows; 0.49 dt and 0.51 dt snap to rows 0 and 1
    probes = [(0.0, 0.49 * dt), (0.2, 0.51 * dt), (-0.3, 10 * dt), (0.4, 10 * dt), (0.1, dt)]
    master_consistency_residual(sol, problem, SMALL, probes)
    assert len(grids) == 3


def test_a_uniqueness_probe_sizes_only_the_grids_it_solves_on(monkeypatch):
    grids = count_grids(monkeypatch)
    rep = uniqueness_probe(zero_problem(), SMALL, k=3, rng_seed=11)
    assert rep.status == "conclusive" and len(grids) == 3


def test_probes_on_one_row_share_one_grid_that_covers_them_all(monkeypatch):
    # one probe lies outside the population hull at its row: the row's single
    # sub-solve runs on one grid widened to it
    problem = lq_problem()
    sol = solve_mfg(problem, SMALL)
    m = SMALL.time_steps // 2
    t = m * problem.horizon / SMALL.time_steps
    hull_hi = float(np.max(sol.traj.states[m, :, 0]))
    xs = [-0.2, 0.1, hull_hi + 0.5]
    subsolves = []
    real = mfg.solve_mfg

    def recording(*args, **kwargs):
        subsolves.append(real(*args, **kwargs))
        return subsolves[-1]

    monkeypatch.setattr(mfg, "solve_mfg", recording)
    residual = master_consistency_residual(sol, problem, SMALL, [(x, t) for x in xs])
    assert len(subsolves) == 1
    grid = subsolves[0].value.config
    assert grid.core_lo <= min(xs) and max(xs) <= grid.core_hi
    u_here = sol.value.value_at(np.array(xs), m)
    assert residual == float(np.max(np.abs(u_here - subsolves[0].value.value_at(np.array(xs), 0))))


def test_master_consistency_residual_zero_problem():
    problem = zero_problem()
    sol = solve_mfg(problem, SMALL)
    probes = [(0.0, 0.0), (0.5, 0.3), (-0.7, 0.9)]
    assert master_consistency_residual(sol, problem, SMALL, probes) == pytest.approx(0.0, abs=1e-12)


def test_uniqueness_probe_zero_problem():
    rep = uniqueness_probe(zero_problem(), SMALL, k=3, rng_seed=11)
    assert rep.status == "conclusive"
    assert rep.max_pairwise <= 2 * SMALL.tol_fix


@pytest.mark.parametrize("k", [-2, 0, 1])
def test_a_uniqueness_probe_of_fewer_than_two_runs_is_refused(monkeypatch, k):
    # zero or one run compares nothing: it used to report "conclusive"
    grids = count_grids(monkeypatch)
    with pytest.raises(ValueError, match="at least 2 runs"):
        uniqueness_probe(zero_problem(), SMALL, k=k)
    assert grids == []  # refused before any solve


def test_uniqueness_probe_reports_on_nonmonotone_potential():
    # repulsive interaction: no uniqueness claim, probe must still report
    fam = QuadraticCoupledFamily(beta=0.0, potential=MomentQuadraticPotential(-1.0))
    problem = ProblemSpec(fam, horizon=1.0, initial=spread_ensemble())
    cfg = SolverConfig(nx=61, time_steps=40, nv=61, v_max=4.0, max_outer=8)
    rep = uniqueness_probe(problem, cfg, k=2, rng_seed=3)
    assert rep.status in ("conclusive", "inconclusive")
    assert len(rep.run_residuals) >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(damping=0.0)
    with pytest.raises(ValueError):
        SolverConfig(nx=0)
    with pytest.raises(ValueError):
        SolverConfig(nx=2)
    with pytest.raises(ValueError):
        SolverConfig(nv=1)
    with pytest.raises(ValueError):
        SolverConfig(v_max=-1.0)
    with pytest.raises(ValueError):
        ProblemSpec(QuadraticCoupledFamily(), horizon=-1.0, initial=spread_ensemble(4))
    with pytest.raises(ValueError):
        ProblemSpec(QuadraticCoupledFamily(), horizon=1.0, initial=Ensemble([[1.0, 2.0]]))


@pytest.mark.parametrize("field", ["tol_fix", "tol_traj", "v_max"])
def test_a_nan_solver_setting_is_rejected(field):
    # `x <= 0` is false for NaN: a NaN tol_fix ran every outer iteration unconverged
    with pytest.raises(ValueError, match="positive"):
        SolverConfig(**{field: math.nan})


def test_a_nan_horizon_is_rejected():
    with pytest.raises(ValueError, match="horizon must be positive"):
        ProblemSpec(QuadraticCoupledFamily(), horizon=math.nan, initial=spread_ensemble(4))


def test_trajectory_residual_uses_wasserstein():
    sol = solve_mfg(lq_problem(beta=0.5), SMALL)
    a = sol.traj.ensemble(10)
    assert wasserstein_1d(a, a, 2.0) == 0.0


def test_residuals_improve_on_all_shipped_problems(
    lq_setup, lq_coupled_setup, quartic_setup, zero_setup
):
    # no rate is guaranteed, but on the shipped (monotone) problems the final
    # recorded residual must beat the initial one
    for bundle in (lq_setup, lq_coupled_setup, quartic_setup, zero_setup):
        sol = bundle[2]
        phis = [row[1] for row in sol.residual_history]
        assert phis[-1] <= phis[0]


def test_value_bounds_with_reference_constants():
    # discrete shadow of the size/Lipschitz/semiconcavity bounds: constants
    # computed from the data (flat-control cost, terminal sup/slope/curvature)
    # must cover the solved grid with slack 1.5
    problem = lq_problem(beta=0.0)
    sol = solve_mfg(problem, SMALL)
    vg = sol.value
    x = vg.x
    fam = problem.family
    psi_vals = fam.terminal(x, sol.traj.ensemble(SMALL.time_steps))
    psi_sup = np.max(np.abs(psi_vals))
    psi_lip = np.max(np.abs(np.diff(psi_vals))) / vg.config.dx
    c1 = 0.0  # running cost at v = 0 vanishes for this family
    from xmfg.hjb import regularity_report

    rep = regularity_report(vg)
    assert rep.max_abs <= 1.5 * (c1 * problem.horizon + psi_sup)
    assert rep.lip_const <= 1.5 * psi_lip
    assert rep.semiconcavity_const <= 1.5 * 1.0  # terminal curvature m = 1


def offcentre_lq_problem():
    # population on [0.5, 1.5]: E X' is far from 0, so beta really couples
    fam = LQFamily(beta=0.5, b=0.3, m=1.0, n=0.2)
    return ProblemSpec(fam, horizon=1.0, initial=spread_ensemble(16, 0.5, 1.5))


def test_offcentre_coupled_lq_converges_fast_to_the_oracle():
    problem = offcentre_lq_problem()
    sol = solve_mfg(problem, SMALL)
    assert sol.converged
    assert sol.iterations <= 10  # damped Picard alone needs 29
    mean_speed = float(np.mean(sol.traj.velocities[0]))
    assert mean_speed < -0.2
    state, _ = lq_solve(
        LQCoefficients(b=0.3, m=1.0, n=0.2), problem.initial, 0.5, 1.0, SMALL.time_steps
    )
    x = sol.value.x
    lo, hi = sol.value.config.core_interval()
    core = (x >= lo) & (x <= hi)
    # the core is the authoritative part of the grid; the belt is padding
    err = np.max(np.abs(sol.value.u - state.value_table(x))[:, core])
    assert err <= 5e-2
    again = apply_F(problem, lambda x: sol.value.value_at(x, 0), SMALL)
    assert np.max(np.abs(again.u[0] - sol.value.u[0])) <= SMALL.tol_fix


def test_offcentre_core_error_falls_under_grid_refinement():
    # the coupled game, not just its symmetric shadow, must converge in dx
    problem = offcentre_lq_problem()
    state, _ = lq_solve(LQCoefficients(b=0.3, m=1.0, n=0.2), problem.initial, 0.5, 1.0, 200)
    errors = []
    for nx in (201, 401):
        sol = solve_mfg(problem, SolverConfig(nx=nx, time_steps=200, nv=nx, v_max=4.0))
        x = sol.value.x
        lo, hi = sol.value.config.core_interval()
        core = (x >= lo) & (x <= hi)
        errors.append(np.max(np.abs(sol.value.u - state.value_table(x))[:, core]))
    assert errors[1] <= 0.6 * errors[0]  # measured 1.19e-2 -> 4.65e-3


def test_the_offcentre_game_converges_at_first_order_in_value_and_path():
    # the lq-offcentre game (64 samples on [0.5, 1.5]) at nx/M 101/100, 201/200
    # and 401/400, each against the oracle at its own M; an order lost by a
    # scheme change shows here even where every absolute bound still holds
    problem = ProblemSpec(
        LQFamily(beta=0.5, b=0.3, m=1.0, n=0.2), horizon=1.0, initial=spread_ensemble(64, 0.5, 1.5)
    )
    errors = []
    for nx in (101, 201, 401):
        steps = nx - 1
        sol = solve_mfg(problem, SolverConfig(nx=nx, time_steps=steps, nv=nx, v_max=4.0))
        assert sol.converged
        state, traj = lq_solve(
            LQCoefficients(b=0.3, m=1.0, n=0.2), problem.initial, 0.5, 1.0, steps
        )
        x = sol.value.x
        lo, hi = sol.value.config.core_interval()
        core = (x >= lo) & (x <= hi)
        core_err = np.max(np.abs(sol.value.u - state.value_table(x))[:, core])
        w2_err = max(
            wasserstein_1d(sol.traj.ensemble(m), traj.ensemble(m), 2.0) for m in range(steps + 1)
        )
        errors.append((core_err, w2_err))
    # measured ratios 2.17 and 2.11 for the value, 2.13 and 2.06 for the path
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert orders.min() >= 0.9, orders


class IteratedLQ(LQFamily):
    """An LQ family that hides its closed form: the flow iterates its velocity equation."""

    def velocity_closed_form(self, x, p, y_ens):
        return None


def test_the_iterated_velocity_path_solves_the_offcentre_game_like_its_closed_form():
    # the paper's velocity equation Z = -D_pH(x, P, X, Z) solved by iteration
    # inside a whole solve, on the lq-offcentre game (E X' != 0, so beta couples)
    coeffs = dict(beta=0.5, b=0.3, m=1.0, n=0.2)
    cfg = SolverConfig(nx=41, time_steps=40, nv=41, v_max=4.0)
    x0 = spread_ensemble(64, 0.5, 1.5)
    closed, iterated = (
        solve_mfg(ProblemSpec(fam, horizon=1.0, initial=x0), cfg)
        for fam in (LQFamily(**coeffs), IteratedLQ(**coeffs))
    )
    assert closed.converged and iterated.converged
    for name in ("states", "velocities"):
        np.testing.assert_allclose(
            getattr(iterated.traj, name), getattr(closed.traj, name), rtol=0, atol=1e-12
        )
    np.testing.assert_allclose(iterated.value.u[0], closed.value.u[0], rtol=0, atol=1e-12)


def test_a_family_without_a_running_cost_fails_before_any_flow(monkeypatch):
    # the sweep reads the potential W, which a custom family does not declare;
    # solve_mfg and apply_F used to run a whole flow before the sweep raised
    flows, flow = [], mfg.integrate_flow
    monkeypatch.setattr(
        mfg, "integrate_flow", lambda *args, **kw: flows.append(args) or flow(*args, **kw)
    )
    fam = CustomVelocityFamily(
        lambda x, p, y, z: p + 0.3 * z.mean(), dx_h=lambda x, p, X, Z: 0.5 * x
    )
    problem = ProblemSpec(fam, horizon=1.0, initial=spread_ensemble(8))
    cfg = SolverConfig(nx=41, time_steps=40, nv=41, v_max=4.0)
    for solve in (solve_mfg, lambda *args: apply_F(args[0], lambda x: 0.5 * x**2, args[1])):
        with pytest.raises(NotImplementedError, match=r"CustomVelocityFamily declares no "
                           r"running_potential / dx_running_potential"):
            solve(problem, cfg)
    assert flows == []


PERMUTATION_CFG = SolverConfig(nx=61, time_steps=40, nv=61, v_max=4.0)


@functools.lru_cache(maxsize=1)
def offcentre_solution_in_sample_order():
    return solve_mfg(offcentre_lq_problem(), PERMUTATION_CFG)


@settings(max_examples=5, deadline=None)
@given(perm=st.permutations(range(16)))
def test_solve_is_invariant_under_sample_permutation(perm):
    # the game sees the initial samples only through their empirical law
    base = offcentre_solution_in_sample_order()
    problem = offcentre_lq_problem()
    shuffled = ProblemSpec(problem.family, horizon=1.0, initial=problem.initial.permuted(perm))
    sol = solve_mfg(shuffled, PERMUTATION_CFG)
    assert sol.converged and base.converged
    assert sol.iterations == base.iterations
    assert np.max(np.abs(sol.value.u - base.value.u)) <= 10 * PERMUTATION_CFG.tol_fix
    gap = np.sort(sol.traj.states, axis=1) - np.sort(base.traj.states, axis=1)
    assert np.max(np.abs(gap)) <= 10 * PERMUTATION_CFG.tol_traj


@pytest.mark.parametrize("fault", ["raise", "grow"])
def test_rejected_extrapolation_falls_back_to_damped_step(monkeypatch, fault):
    problem = offcentre_lq_problem()
    plain = solve_mfg(problem, SMALL)
    real = mfg._compose_once
    calls = []

    def faulty(*args):
        calls.append(args)
        vg, traj, costs = real(*args)
        # calls 1 and 2 evaluate Phi_0 and the unit step Phi_1; the third
        # Phi is the first one extrapolated from a residual difference
        if len(calls) == 3:
            if fault == "raise":
                raise ControlSaturationError("injected")
            vg.u[0] += 100.0  # residual far above the last accepted one
        return vg, traj, costs

    monkeypatch.setattr(mfg, "_compose_once", faulty)
    sol = solve_mfg(problem, SMALL)
    assert sol.converged
    assert sol.restarts >= 1
    assert plain.restarts == 0
    assert np.max(np.abs(sol.value.u[0] - plain.value.u[0])) <= 10 * SMALL.tol_fix


def test_state_scaled_solve_never_accepts_a_flow_through_zero():
    # a coarse quartic oracle problem whose damped iterates cross x = 0,
    # where the state-scaled dynamics dx/dt = v/x stop being defined
    problem = ProblemSpec(
        QuarticFamily(1 / (2 * math.sqrt(2))), horizon=0.5, initial=spread_ensemble(16, 0.5, 1.5)
    )
    cfg = SolverConfig(nx=61, time_steps=40, nv=61)
    try:
        sol = solve_mfg(problem, cfg)
    except FlowBlowupError:
        return
    assert sol.converged
    assert float(np.min(sol.traj.states)) > 0.0


@pytest.mark.parametrize("nx, steps", [(41, 20), (11, 100)])
def test_a_crossing_names_the_time_the_flow_reaches(nx, steps):
    # a positive seed slope drives the quartic population through x = 0; the
    # flow stops, whatever the grid and the row count, where the lowest path
    # reaches it: H = P^2 / (2 X^2) - X^4 is conserved, so X^2 hits 0 at
    # t* = asinh(x0^2 / sqrt(H)) / (2 sqrt 2) for x0 = 0.5625 and P = 0.5
    fam = QuarticFamily(0.4)
    problem = ProblemSpec(fam, horizon=1.0, initial=spread_ensemble(8, 0.5, 1.5))
    cfg = SolverConfig(nx=nx, time_steps=steps, nv=nx, v_max=1.0)
    grid = GridConfig(x_lo=0.25, x_hi=2.0, nx=nx, nv=nx, v_max=1.0)
    with pytest.raises(FlowBlowupError, match="state-scaled flow reaches x <= 0") as err:
        mfg._compose_once(problem, 0.5 * grid.nodes(), grid, cfg)
    low = 0.5625
    energy = 0.5**2 / (2 * low**2) - low**4
    crossing = math.asinh(low**2 / math.sqrt(energy)) / (2 * math.sqrt(2.0))
    reached = float(re.search(r"cannot advance past t=(\S+): ", str(err.value)).group(1))
    assert reached == pytest.approx(crossing, abs=1e-4)
    assert err.value.step == int(crossing * steps)  # the last row reached


def test_residual_history_records_the_undamped_residual():
    problem = offcentre_lq_problem()
    sol = solve_mfg(problem, SMALL)
    nodes = canonical_grid(problem, SMALL).nodes()
    phi0 = problem.family.terminal(nodes, problem.initial)
    out = apply_F(problem, lambda x: problem.family.terminal(x, problem.initial), SMALL)
    assert sol.residual_history[0][1] == float(np.max(np.abs(out.u[0] - phi0)))


def test_non_finite_stage_rate_is_a_flow_blowup():
    # a huge running cost overflows the costate rate inside the first RK step
    fam = LQFamily(beta=0.5, a=1e305, b=0.3, m=1.0, n=0.2)
    problem = ProblemSpec(fam, horizon=1.0, initial=spread_ensemble(64, 0.5, 1.5))
    cfg = SolverConfig(nx=41, time_steps=20, nv=41, v_max=4.0)
    with pytest.raises(FlowBlowupError):
        solve_mfg(problem, cfg)


def reference_gap(a, b, q):
    """The trajectory gap as it was: one exact W_q per time, then the max."""
    gaps = [wasserstein_1d(a.ensemble(m), b.ensemble(m), r=q) for m in range(a.steps + 1)]
    return float(max(gaps))


def random_path(rng, steps, n, scale):
    states = scale * rng.standard_normal((steps + 1, n, 1))
    return TrajectoryEnsemble(np.linspace(0.0, 1.0, steps + 1), states, np.zeros_like(states))


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    n=st.integers(1, 40),
    steps=st.integers(1, 30),
    scale=st.sampled_from([1e-5, 1.0, 1e5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(q=1.0, n=1, steps=5, scale=1.0, seed=1)  # single samples, for every q
@example(q=1.5, n=1, steps=5, scale=1.0, seed=2)
@example(q=2.0, n=1, steps=5, scale=1.0, seed=3)
@example(q=3.0, n=1, steps=5, scale=1.0, seed=4)
def test_sorted_trajectory_gap_is_bit_identical_to_the_per_time_max(q, n, steps, scale, seed):
    rng = np.random.default_rng(seed)
    a, b = random_path(rng, steps, n, scale), random_path(rng, steps, n, scale)
    assert mfg._trajectory_gap(a, b, q) == reference_gap(a, b, q)
    assert mfg._trajectory_gap(a, a, q) == 0.0  # identical trajectories


def exact_gap(a, b, q):
    """max over times of W_q, in 40-digit decimal arithmetic, which no power leaves."""
    with localcontext() as ctx:
        ctx.prec = 40
        rows = []
        for xs, ys in zip(a.sorted_states, b.sorted_states):
            moment = sum(Decimal(abs(float(x - y))) ** q for x, y in zip(xs, ys)) / len(xs)
            rows.append(moment ** (Decimal(1) / Decimal(q)))
        return float(max(rows))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_the_trajectory_gap_keeps_its_range_for_a_large_exponent(scale):
    # |dX|^1000 underflows at scale 1e-3 and overflows at 1e3; W_q does neither
    rng = np.random.default_rng(7)
    a, b = random_path(rng, 6, 9, scale), random_path(rng, 6, 9, scale)
    assert mfg._trajectory_gap(a, b, 1000) == pytest.approx(exact_gap(a, b, 1000), rel=1e-13)
    # as q grows, W_q tends to the largest gap, which it reads at q = 1e300
    top = float(np.max(np.abs(a.sorted_states - b.sorted_states)))
    assert mfg._trajectory_gap(a, b, 1e300) == top



def count_flows(monkeypatch, fail_at=None):
    """Record every flow the solver integrates; call ``fail_at`` raises instead."""
    calls = []
    real = mfg.integrate_flow

    def counting(*args, **kwargs):
        calls.append(args)
        if len(calls) == fail_at:
            raise ControlSaturationError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(mfg, "integrate_flow", counting)
    return calls


def test_a_repeated_iterate_reuses_the_last_evaluation(monkeypatch):
    # without a law in the costs F does not depend on Phi: the undamped step
    # lands on the fixed point, so the third iterate repeats the second bit for bit
    calls = count_flows(monkeypatch)
    sol = solve_mfg(lq_problem(), replace(SMALL, damping=1.0))
    assert sol.converged and sol.iterations == 3
    assert len(calls) == 2
    assert sol.residual_history[2] == (3, sol.residual_history[1][1], 0.0)
    assert len(sol.regularity_history) == 3


def test_each_trajectory_is_sorted_once(monkeypatch):
    # the gaps compare (2nd, 1st) and then (2nd reused, 2nd): two paths, two sorts
    sorted_paths = []
    real = TrajectoryEnsemble.sorted_states.func

    def counting(traj):
        sorted_paths.append(traj)
        return real(traj)

    counted = functools.cached_property(counting)
    counted.__set_name__(TrajectoryEnsemble, "sorted_states")
    monkeypatch.setattr(TrajectoryEnsemble, "sorted_states", counted)
    calls = count_flows(monkeypatch)
    sol = solve_mfg(lq_problem(), replace(SMALL, damping=1.0))
    assert sol.iterations == 3 and len(calls) == 2
    assert len(sorted_paths) == 2 and sorted_paths[0] is not sorted_paths[1]
    np.testing.assert_array_equal(sol.traj.sorted_states, np.sort(sol.traj.states[:, :, 0], axis=1))


@pytest.mark.parametrize("fail_at", [None, 3], ids=["plain", "failed-extrapolation"])
def test_every_distinct_iterate_is_evaluated(monkeypatch, fail_at):
    # the coupled game never repeats an iterate; at these tolerances its last
    # iterates differ by about 1e-10, so only an exact comparison may reuse F
    calls = count_flows(monkeypatch, fail_at)
    sol = solve_mfg(offcentre_lq_problem(), replace(SMALL, tol_fix=1e-10, tol_traj=1e-10))
    failed = int(fail_at is not None)
    assert sol.converged and sol.restarts == failed
    assert len(calls) == sol.iterations + failed
    assert [row[0] for row in sol.residual_history] == list(range(1, sol.iterations + 1))


@functools.lru_cache(maxsize=2)
def solution_and_oracle_error(beta):
    if beta == 0.0:
        problem, sol = lq_problem(), solve_mfg(lq_problem(), PERMUTATION_CFG)
    else:
        problem, sol = offcentre_lq_problem(), offcentre_solution_in_sample_order()
    coeffs = LQCoefficients(m=1.0) if beta == 0.0 else LQCoefficients(b=0.3, m=1.0, n=0.2)
    state, _ = lq_solve(coeffs, problem.initial, beta, 1.0, PERMUTATION_CFG.time_steps)
    x = sol.value.x
    lo, hi = sol.value.config.core_interval()
    core = (x >= lo) & (x <= hi)
    return problem, sol, float(np.max(np.abs(sol.value.u - state.value_table(x))[:, core]))


@settings(max_examples=10, deadline=None)
@given(
    beta=st.sampled_from([0.0, 0.5]),
    m=st.integers(0, PERMUTATION_CFG.time_steps - 1),
    where=st.floats(0.0, 1.0),
)
def test_master_value_matches_the_solution_within_the_discretization_gap(beta, m, where):
    # V(x, X(t), t) re-solves the game on [t, T] from the solved population;
    # it must agree with u(x, t) to within the solve's own error against the oracle
    problem, sol, oracle_err = solution_and_oracle_error(beta)
    lo, hi = np.min(sol.traj.states[m]), np.max(sol.traj.states[m])
    x = float(lo + where * (hi - lo))
    t = m * problem.horizon / PERMUTATION_CFG.time_steps
    v = master_value(problem, x, sol.traj.ensemble(m), t, PERMUTATION_CFG)
    u = float(sol.value.value_at(np.array([x]), m)[0])
    assert abs(u - v) <= oracle_err  # measured: at most 0.37 of it


def test_duplicate_initial_samples_ride_one_characteristic(caplog):
    # a parsed document logs the atoms (tests/test_cli.py); the solver, which
    # also solves the games master restarts from X(t), does not
    x0 = Ensemble([-0.5, 0.0, 0.0, 0.5])
    with caplog.at_level(logging.WARNING, logger="xmfg"):
        sol = solve_mfg(ProblemSpec(LQFamily(beta=0.0, m=1.0), 1.0, x0), SMALL)
    assert sol.iterations >= 2
    assert [r for r in caplog.records if "duplicate" in r.getMessage()] == []
    assert separation_diagnostic(sol.traj).skipped_pairs == 1


@pytest.mark.parametrize("q", [0.5, math.inf, math.nan])
def test_the_moment_exponent_of_a_game_is_a_finite_real_at_least_1(q):
    with pytest.raises(ValueError, match="moment exponent q must be a finite real >= 1"):
        ProblemSpec(LQFamily(beta=0.0, m=1.0), 1.0, spread_ensemble(4), q)
    assert ProblemSpec(LQFamily(beta=0.0, m=1.0), 1.0, spread_ensemble(4)).q == 2.0


def test_a_restart_law_takes_the_moment_exponent_of_the_game():
    # the trajectory residual of the restarted solve is a W_q with the game's q
    problem = replace(lq_problem(beta=0.5), q=3.0)
    y = spread_ensemble(8, -0.5, 1.0)
    sub_problem, _ = mfg._restart_problem(problem, y, 0.5, SMALL)
    assert sub_problem.q == problem.q == 3.0
    assert sub_problem.initial.samples.tobytes() == y.samples.tobytes()


def jittered_offcentre_problem():
    # the off-centre coupled LQ game on 64 jittered samples of [0.5, 1.5]
    cells = (np.arange(64) + np.random.default_rng(3).random(64)) / 64
    return replace(offcentre_lq_problem(), initial=Ensemble(0.5 + cells))


def crowd_problem():
    # a moment-coupled crowd of 256 Gaussian samples
    fam = QuadraticCoupledFamily(0.5, MomentQuadraticPotential(0.5), QuadraticFormPotential(1.0, 0.2))
    return ProblemSpec(fam, 1.0, Ensemble(np.random.default_rng(3).normal(0.5, 0.5, 256)))


@pytest.mark.parametrize(
    "make, evaluations",
    [(jittered_offcentre_problem, 6), (crowd_problem, 6)],
    ids=["offcentre-lq", "crowd"],
)
def test_unit_steps_until_a_rejection_save_whole_evaluations(monkeypatch, make, evaluations):
    # damped steps from the start took 7 and 8 evaluations of F on these games
    problem = make()
    reference = solve_mfg(problem, replace(SMALL, tol_fix=1e-10, tol_traj=1e-10))
    calls = count_flows(monkeypatch)
    sol = solve_mfg(problem, SMALL)
    assert sol.converged and sol.restarts == 0
    assert len(sol.residual_history) == len(calls) == evaluations
    assert np.max(np.abs(sol.value.u[0] - reference.value.u[0])) <= SMALL.tol_fix
    # with no rejection, every step is the one unit damping takes
    assert sol.residual_history == solve_mfg(problem, replace(SMALL, damping=1.0)).residual_history


def record_steps(monkeypatch):
    """Record each evaluated Phi with whether F rejected it, and each mixing weight."""
    evaluated, weights = [], []
    compose, anderson = mfg._compose_once, mfg._anderson_step

    def composing(problem, phi, grid, cfg, swept=None):
        evaluated.append([phi.copy(), True])
        out = compose(problem, phi, grid, cfg, swept)
        evaluated[-1][1] = False
        return out

    def mixing(phi, f, d_phi, d_f, lam):
        weights.append(lam)
        return anderson(phi, f, d_phi, d_f, lam)

    monkeypatch.setattr(mfg, "_compose_once", composing)
    monkeypatch.setattr(mfg, "_anderson_step", mixing)
    return evaluated, weights


def assert_one_trial_then_damped(sol, evaluated, weights, cfg):
    # Phi_0, the unit trial Phi_0 + f_0, then the iteration that damps from
    # the start, from Phi_0 on, with no unit step after it: one evaluation
    # more than that iteration, and no ping-pong
    assert sol.converged and sol.restarts == 1
    phi_0, trial, fallback = (phi for phi, _ in evaluated[:3])
    f_0 = trial - phi_0
    np.testing.assert_array_equal(fallback, phi_0 + cfg.damping * f_0)
    assert weights[0] == 1.0 and set(weights[1:]) == {cfg.damping}
    assert not any(failed for _, failed in evaluated[2:])


def test_a_trial_whose_residual_grows_falls_back_to_the_damped_step(monkeypatch):
    # started off its fixed point along x, this crowd overshoots: the unit
    # step's residual grows from about 3.1 to 5.0
    fam = QuadraticCoupledFamily(-0.3, MomentQuadraticPotential(1.0), QuadraticFormPotential(1.0, 0.2))
    problem = ProblemSpec(fam, 1.0, spread_ensemble(32, -0.5, 0.5))
    cfg = SolverConfig(nx=41, time_steps=20, nv=41, v_max=4.0)
    fixed = solve_mfg(problem, replace(cfg, tol_fix=1e-10, tol_traj=1e-10)).value
    evaluated, weights = record_steps(monkeypatch)
    sol = solve_mfg(problem, cfg, phi0=lambda x: fixed.value_at(x, 0) + 0.25 * x)
    assert sol.residual_history[1][1] > sol.residual_history[0][1]
    assert len(evaluated) == sol.iterations  # the rejected trial keeps its row
    assert_one_trial_then_damped(sol, evaluated, weights, cfg)


def test_a_trial_that_saturates_falls_back_to_the_damped_step(monkeypatch):
    # a strongly coupled crowd: the unit step's control saturates, the damped one's does not
    fam = QuadraticCoupledFamily(-0.7, MomentQuadraticPotential(1.0), QuadraticFormPotential(1.0, 0.2))
    problem = ProblemSpec(fam, 1.0, spread_ensemble(32, -0.25, 1.25))
    cfg = SolverConfig(nx=41, time_steps=20, nv=41, v_max=4.0)
    evaluated, weights = record_steps(monkeypatch)
    sol = solve_mfg(problem, cfg)
    assert [failed for _, failed in evaluated[:2]] == [False, True]
    assert len(evaluated) == sol.iterations + 1  # the rejected trial has no row
    assert_one_trial_then_damped(sol, evaluated, weights, cfg)


def test_unit_damping_keeps_every_bit(monkeypatch):
    # with damping = 1 the first step is the plain step it always was: no
    # trial, so a flow that rejects it ends the solve
    sol = solve_mfg(offcentre_lq_problem(), replace(SMALL, damping=1.0))
    assert sol.restarts == 0 and sol.residual_history[0][:2] == (1, 9.033644902166557)
    assert sol.residual_history[1:] == [
        (2, 0.5405261626490496, 0.41693204753781204),
        (3, 0.06867538059719003, 0.06910339797194119),
        (4, 7.858549033556983e-05, 0.009795779564436604),
        (5, 3.1117729264451555e-06, 4.008521967627775e-06),
        (6, 4.077943316360688e-09, 2.7509517770766034e-07),
    ]
    count_flows(monkeypatch, fail_at=2)
    with pytest.raises(ControlSaturationError, match="injected"):
        solve_mfg(offcentre_lq_problem(), replace(SMALL, damping=1.0))
