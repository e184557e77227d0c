#!/usr/bin/env python3
# The master-equation view: V(x, Y, t) = value of the game restarted at time
# t from population Y.  Along the solved trajectory it must reproduce the
# original value function, u(x, t) = V(x, X(t), t); the gap stacks the two
# discretizations and shrinks under refinement.

import numpy as np

from xmfg import Ensemble, LQFamily, ProblemSpec, SolverConfig, solve_mfg
from xmfg.mfg import master_consistency_residual, master_value

N = 32
x0 = Ensemble(-1 + 2 * (np.arange(N) + 0.5) / N)
problem = ProblemSpec(LQFamily(beta=0.0, m=1.0), horizon=1.0, initial=x0)
cfg = SolverConfig(nx=101, time_steps=100, nv=101, v_max=4.0, damping=1.0)

sol = solve_mfg(problem, cfg)
print("main solve converged:", sol.converged)

# single evaluation: restart at mid-horizon from the solved population state
t = 0.5
m = 50
val = master_value(problem, 0.4, sol.traj.ensemble(m), t, cfg)
print(f"V(0.4, X(0.5), 0.5) = {val:.5f}   vs u(0.4, 0.5) = "
      f"{float(sol.value.value_at(np.array([0.4]), m)[0]):.5f}")

probes = [(x, t) for t in (0.2, 0.5, 0.8) for x in (-0.6, 0.0, 0.6)]
res = master_consistency_residual(sol, problem, cfg, probes)
print(f"consistency residual over {len(probes)} probes: {res:.3e}")
