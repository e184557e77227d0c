#!/usr/bin/env python3
# Backward semi-Lagrangian sweep along a frozen population trajectory.
#
# With running cost |v|^2/2 and terminal cost psi(x) = x^2/2 the exact value
# is u(x,t) = x^2 / (2 (1 + T - t)) -- the min-over-straight-lines formula.
# We solve on a grid and compare.

import numpy as np

from xmfg import GridConfig, QuadraticCoupledFamily, regularity_report, solve_backward
from xmfg.ensembles import TrajectoryEnsemble
from xmfg.families import QuadraticFormPotential

T, steps = 1.0, 100
times = np.linspace(0.0, T, steps + 1)
rest = np.zeros((steps + 1, 8, 1))
population = TrajectoryEnsemble(times, rest, np.zeros_like(rest))

fam = QuadraticCoupledFamily(beta=0.0, terminal=QuadraticFormPotential(a=1.0))
grid = GridConfig(x_lo=-3, x_hi=3, nx=121, nv=81, v_max=4.0, core_lo=-1.0, core_hi=1.0)
vg = solve_backward(fam, population, grid).dense()

x = vg.x
exact0 = x**2 / (2 * (1 + T))
band = np.abs(x) <= 1.0
print("sup |u - exact| at t=0 on [-1,1]:", f"{np.max(np.abs(vg.u[0][band] - exact0[band])):.2e}")

rep = regularity_report(vg)
print(f"grid constants: sup|u|={rep.max_abs:.3f}  Lip={rep.lip_const:.3f}  "
      f"semiconcavity={rep.semiconcavity_const:.3f} (window t<={rep.t1:.2f})")

out = "demos_out_value.csv"
with open(out, "w") as fh:
    fh.write("x,u_numeric,u_exact\n")
    for xi, un, ue in zip(x[band], vg.u[0][band], exact0[band]):
        fh.write(f"{xi},{un},{ue}\n")
print("wrote", out)
