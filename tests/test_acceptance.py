"""Acceptance suite: one test per shipped criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line so the whole gate can be read off
``pytest -v tests/test_acceptance.py -s``.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from xmfg.cli import RunConfig, run
from xmfg.diagnostics import check_V_monotone, lmon_reduction_gap, monotonicity_gap
from xmfg.ensembles import Ensemble, PairedEnsemble, wasserstein_1d
from xmfg.families import (
    CustomVelocityFamily,
    MomentQuadraticPotential,
    QuadraticCoupledFamily,
    solve_velocity,
)
from xmfg.flow import separation_diagnostic
from xmfg.mfg import canonical_grid, master_consistency_residual, solve_mfg, uniqueness_probe

from conftest import PINNED_LQ_CFG, uniform_quantiles


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_lq_oracle_equivalence(lq_setup):
    problem, cfg, sol, oracle_state, oracle_traj = lq_setup
    assert sol.converged
    u_err = float(np.max(np.abs(sol.value.u - oracle_state.value_table(sol.value.x))))
    w_err = max(
        wasserstein_1d(sol.traj.ensemble(m), oracle_traj.ensemble(m), 2.0)
        for m in range(cfg.time_steps + 1)
    )
    ok = u_err <= 5e-2 and w_err <= 1e-2
    assert report(1, "lq-oracle-equivalence", ok, f"sup|u-u*|={u_err:.3e}, maxW2={w_err:.3e}")


def test_criterion_2_lq_with_coupling(lq_coupled_setup):
    problem, cfg, sol, oracle_state, oracle_traj = lq_coupled_setup
    assert sol.converged
    u_err = float(np.max(np.abs(sol.value.u - oracle_state.value_table(sol.value.x))))
    w_err = max(
        wasserstein_1d(sol.traj.ensemble(m), oracle_traj.ensemble(m), 2.0)
        for m in range(cfg.time_steps + 1)
    )
    ok = u_err <= 5e-2 and w_err <= 1e-2
    assert report(2, "lq-mean-coupled", ok, f"sup|u-u*|={u_err:.3e}, maxW2={w_err:.3e}")


def test_criterion_3_quartic_oracle(quartic_setup):
    problem, cfg, sol, oracle_state, oracle_traj = quartic_setup
    assert sol.converged
    x = sol.value.x
    band = (x >= 0.6) & (x <= 1.4)
    u_err = float(np.max(np.abs(sol.value.u[0][band] - x[band] ** 4 / (2 * np.sqrt(2.0)))))
    p_gap = oracle_state.p_cross_check_gap
    ok = u_err <= 5e-2 and p_gap <= 1e-8
    assert report(3, "quartic-oracle", ok, f"sup|u-x^4/(2sqrt2)|={u_err:.3e}, p-gap={p_gap:.2e}")


def test_criterion_4_velocity_equation():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        beta = rng.uniform(-0.9, 5.0)
        n = int(rng.integers(1, 33))
        p = Ensemble(rng.uniform(-10, 10, size=n))
        fam = QuadraticCoupledFamily(beta=beta)
        z = solve_velocity(fam, 0.0, p, Ensemble(np.zeros(n)))
        resid = z.samples[:, 0] + fam.dp_hamiltonian(0.0, p.samples[:, 0], p, z)
        worst = max(worst, float(np.sqrt(np.mean(resid**2))))

    contraction = CustomVelocityFamily(lambda x, p, y, z: 0.5 * z.mean_scalar() + p)
    _, info = solve_velocity(
        contraction, 0.0, Ensemble([3.0, 1.0, -2.0]), Ensemble(np.zeros(3)), return_info=True
    )
    worst_rate = max(info["rates"])
    ok = worst <= 1e-10 and worst_rate <= 0.55
    assert report(4, "velocity-equation", ok, f"maxL2resid={worst:.2e}, rate={worst_rate:.3f}")


def test_criterion_5_regularity_envelope(lq_setup, lq_coupled_setup, quartic_setup, zero_setup):
    problems = {
        "lq": lq_setup[2],
        "lq-coupled": lq_coupled_setup[2],
        "quartic": quartic_setup[2],
        "zero": zero_setup[2],
    }
    worst = {"name": "", "ratio": 0.0}
    ok = True
    for name, sol in problems.items():
        first = sol.regularity_history[0]
        for rep in sol.regularity_history[1:]:
            for attr in ("max_abs", "lip_const"):
                base = getattr(first, attr)
                val = getattr(rep, attr)
                ok &= val <= 1.5 * base + 1e-9
                ratio = val / base if base > 0 else 0.0
                if ratio > worst["ratio"]:
                    worst = {"name": f"{name}.{attr}", "ratio": ratio}
            base = max(first.semiconcavity_const, 0.0)
            ok &= rep.semiconcavity_const <= 1.5 * base + 1e-9
    assert report(5, "regularity-envelope", ok, f"worst ratio {worst['ratio']:.3f} at {worst['name']}")


def test_criterion_6_monotonicity_certificates():
    repulsive = MomentQuadraticPotential(-1.0)
    rep_bad = check_V_monotone(repulsive, trials=2000, rng_seed=61)
    a, b = rep_bad.certificate
    reeval_gap = abs(-monotonicity_gap(repulsive, a, b) - rep_bad.min_value)

    rep_good = check_V_monotone(MomentQuadraticPotential(1.0), trials=10_000, rng_seed=62)

    fam = QuadraticCoupledFamily(beta=0.7, potential=MomentQuadraticPotential(0.4))
    rng = np.random.default_rng(63)
    worst_identity = 0.0
    for _ in range(1000):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        pair = PairedEnsemble(rng.normal(size=n), rng.normal(size=n))
        pair_t = PairedEnsemble(rng.normal(size=m), rng.normal(size=m))
        worst_identity = max(worst_identity, lmon_reduction_gap(fam, pair, pair_t))

    ok = (
        rep_bad.verdict == "violated"
        and reeval_gap <= 1e-10
        and rep_good.verdict == "satisfied"
        and worst_identity <= 1e-10
    )
    assert report(
        6,
        "monotonicity-certificates",
        ok,
        f"certificate gap {reeval_gap:.1e}, good verdict {rep_good.verdict}, "
        f"identity gap {worst_identity:.1e}",
    )


def test_criterion_7_uniqueness_property(lq_coupled_setup):
    problem = lq_coupled_setup[0]
    cfg = replace(PINNED_LQ_CFG, tol_fix=1e-4, tol_traj=1e-4)
    probe = uniqueness_probe(problem, cfg, k=3, rng_seed=77)
    ok = probe.status == "conclusive" and probe.max_pairwise <= 2 * cfg.tol_fix
    assert report(
        7, "uniqueness-property", ok, f"{probe.status}, max pairwise {probe.max_pairwise:.2e}"
    )


def test_criterion_8_master_consistency(lq_setup):
    problem, cfg, sol, _, _ = lq_setup

    def probes_for(solution, config):
        dt = problem.horizon / config.time_steps
        pts = []
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            m = min(int(round(frac * config.time_steps)), config.time_steps - 1)
            xs = np.quantile(solution.traj.states[m, :, 0], [0.2, 0.4, 0.6, 0.8])
            pts.extend((float(x), m * dt) for x in xs)
        return pts

    fast = replace(cfg, damping=1.0)
    residual = master_consistency_residual(sol, problem, fast, probes_for(sol, cfg))

    refined = replace(cfg, nx=301, time_steps=300, nv=301, damping=1.0)
    sol_refined = solve_mfg(problem, refined)
    residual_refined = master_consistency_residual(
        sol_refined, problem, refined, probes_for(sol_refined, refined)
    )
    ok = residual <= 1e-1 and residual_refined <= residual
    assert report(
        8,
        "master-consistency",
        ok,
        f"residual {residual:.3e} -> refined {residual_refined:.3e} over 20 probes",
    )


def test_criterion_9_separation_diagnostic(lq_setup, lq_coupled_setup, quartic_setup, zero_setup):
    ok = True
    details = []
    for name, bundle in (
        ("lq", lq_setup),
        ("lq-coupled", lq_coupled_setup),
        ("quartic", quartic_setup),
        ("zero", zero_setup),
    ):
        sol = bundle[2]
        horizon = bundle[0].horizon
        rep = separation_diagnostic(sol.traj, t_max=0.9 * horizon)
        ok &= rep.min_ratio >= 1e-3
        details.append(f"{name}={rep.min_ratio:.3f}")
    assert report(9, "separation-diagnostic", ok, ", ".join(details))


def test_quartic_separation_tracks_the_oracle(quartic_setup):
    # the solver's characteristics keep the oracle's spacing, not just a
    # positive one: the ratio of criterion 9 within 10% of the oracle's
    problem, _, sol, _, oracle_traj = quartic_setup
    t_max = 0.9 * problem.horizon
    solved = separation_diagnostic(sol.traj, t_max=t_max).min_ratio
    oracle = separation_diagnostic(oracle_traj, t_max=t_max).min_ratio
    assert abs(solved - oracle) <= 0.1 * oracle, (solved, oracle)


def test_criterion_10_determinism(tmp_path):
    doc = {
        "family": "lq",
        "beta": 0.5,
        "T": 1.0,
        "terminal": {"kind": "lq_terminal", "params": {"M": 1.0}},
        "initial": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}, "N": 32},
        "solver": {"nx": 101, "M": 100, "nv": 101, "v_max": 4.0,
                   "tol_fix": 1e-5, "tol_traj": 1e-5},
    }
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(doc))
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    status_a = run(RunConfig("solve", cfg_path, out_a, seed=123))
    status_b = run(RunConfig("solve", cfg_path, out_b, seed=123))
    files = sorted(p.relative_to(out_a) for p in out_a.rglob("*.csv"))
    identical = all((out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files)
    ok = status_a == status_b == 0 and len(files) >= 6 and identical
    assert report(10, "determinism", ok, f"{len(files)} CSVs byte-identical" if ok else "mismatch")


def test_criterion_11_lq_with_active_coupling(lq_offcentre_setup):
    # the population moves, so beta E X' enters every running cost; the value
    # is measured on the core nodes, since the belt outside them is padding
    problem, cfg, sol, oracle_state, oracle_traj = lq_offcentre_setup
    assert sol.converged
    mean_velocity = sol.traj.velocity_ensemble(0).mean_scalar()
    core_lo, core_hi = canonical_grid(problem, cfg).core_interval()
    x = sol.value.x
    core = (x >= core_lo) & (x <= core_hi)
    u_err = float(np.max(np.abs(sol.value.u - oracle_state.value_table(x))[:, core]))
    w_err = max(
        wasserstein_1d(sol.traj.ensemble(m), oracle_traj.ensemble(m), 2.0)
        for m in range(cfg.time_steps + 1)
    )
    ok = mean_velocity <= -0.3 and u_err <= 1e-2 and w_err <= 4.5e-3
    assert report(
        11,
        "lq-active-coupling",
        ok,
        f"EX'(0)={mean_velocity:.3f}, core sup|u-u*|={u_err:.3e}, maxW2={w_err:.3e}",
    )
