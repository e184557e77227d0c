#!/usr/bin/env python3
# The quartic game with state-scaled dynamics dx/dt = v/x.
#
# The value separates as u = p(t) x^4 + q(t) with p' - 8 p^2 + 1 = 0, whose
# closed form is p(t) = (1 + c e^{4 sqrt2 t}) / (2 sqrt2 (1 - c e^{4 sqrt2 t})).
# Picking the terminal coefficient A = 1/(2 sqrt 2) lands exactly on the
# steady state c = 0.  The grid solver uses the foot point x + (v/x) dt.

import numpy as np

from xmfg import Ensemble, ProblemSpec, QuarticFamily, SolverConfig, solve_mfg
from xmfg.analytic import quartic_solve

SQRT2 = np.sqrt(2.0)
A = 1 / (2 * SQRT2)
x0 = Ensemble(0.5 + (np.arange(32) + 0.5) / 32)  # 32 samples on [0.5, 1.5]

state, traj = quartic_solve(A, 0.0, None, x0, horizon=0.5, steps=200)
print("steady coefficient p:", state.p[0], " (8 p^2 - 1 =", 8 * state.p[0] ** 2 - 1, ")")
print("closed-form vs backward-RK4 gap:", f"{state.p_cross_check_gap:.2e}")

problem = ProblemSpec(QuarticFamily(A), horizon=0.5, initial=x0)
cfg = SolverConfig(nx=201, time_steps=200, nv=201)
sol = solve_mfg(problem, cfg)
x = sol.value.x
band = (x >= 0.6) & (x <= 1.4)
err = np.max(np.abs(sol.value.u[0][band] - x[band] ** 4 / (2 * SQRT2)))
print(f"grid solver vs x^4/(2 sqrt2) on [0.6, 1.4]: sup error {err:.3e}")
print("population hull over time:",
      (traj.states.min().round(3), traj.states.max().round(3)))
