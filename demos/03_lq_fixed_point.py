#!/usr/bin/env python3
# Full coupled solve of the scalar quadratic game vs. the Riccati oracle.
#
# The outer fixed-point iteration maps an initial-value profile Phi to the
# time-0 slice of the value computed along the population flow it seeds;
# fixed points are game solutions.  The oracle integrates the backward coefficient
# system G' = G^2 + a, Th' = G(Th + beta EX') + b, z' = |Th + beta EX'|^2/2 + c
# against the mean-coupled forward equation.

import numpy as np

from xmfg import (
    Ensemble,
    LQFamily,
    ProblemSpec,
    SolverConfig,
    solve_mfg,
    wasserstein_1d,
)
from xmfg.analytic import LQCoefficients, lq_solve

N = 64
x0 = Ensemble(-1 + 2 * (np.arange(N) + 0.5) / N)  # uniform quantiles on [-1, 1]
beta = 0.5

problem = ProblemSpec(LQFamily(beta=beta, m=1.0), horizon=1.0, initial=x0)
cfg = SolverConfig(nx=201, time_steps=200, nv=201, v_max=4.0)
sol = solve_mfg(problem, cfg)
print(f"converged={sol.converged} after {sol.iterations} sweeps, "
      f"fixed-point residual {sol.final_phi_residual:.2e}")

oracle, oracle_traj = lq_solve(LQCoefficients(m=1.0), x0, beta, 1.0, cfg.time_steps)
u_err = np.max(np.abs(sol.value.u - oracle.value_table(sol.value.x)))
w_err = max(
    wasserstein_1d(sol.traj.ensemble(m), oracle_traj.ensemble(m), 2.0)
    for m in range(cfg.time_steps + 1)
)
print(f"sup |u_solver - u_oracle| = {u_err:.3e}")
print(f"max_t W2(X_solver, X_oracle) = {w_err:.3e}")
print("residual history (first 6):")
for k, phi_res, traj_res in sol.residual_history[:6]:
    print(f"  iter {k:2d}  |dPhi|={phi_res:.3e}  W2(traj)={traj_res:.3e}")
