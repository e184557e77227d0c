#!/usr/bin/env python3
# The self-consistent velocity equation Z = -D_pH(x, p, Y, Z).
#
# For the mean-coupled quadratic family the equation is Z = -beta*EZ - P and
# has the explicit solution Z = beta/(1+beta) EP - P.  For anything else we
# iterate Z_{k+1} = -D_pH(Z_k) from Z_0 = -P and watch the contraction.

import numpy as np

from xmfg import Ensemble, QuadraticCoupledFamily, solve_velocity
from xmfg.families import CustomVelocityFamily

rng = np.random.default_rng(1)
P = Ensemble(rng.uniform(-3, 3, size=8))

print("costates P:", np.round(P.samples[:, 0], 3))
for beta in (0.0, 0.5, 2.0):
    fam = QuadraticCoupledFamily(beta=beta)
    Z, info = solve_velocity(fam, 0.0, P, Ensemble(np.zeros(8)), return_info=True)
    print(f"beta={beta:3.1f}  EZ={Z.mean_scalar():+0.4f}  residual={info['residual']:.2e}")

# a custom coupling that contracts in Z with modulus 0.5:
# solve Z = -(0.5*EZ + P), whose exact mean is -EP/1.5
fam = CustomVelocityFamily(lambda x, p, y, z: 0.5 * z.mean_scalar() + p)
Z, info = solve_velocity(fam, 0.0, P, Ensemble(np.zeros(8)), return_info=True)
print("\ncustom family: EZ =", round(Z.mean_scalar(), 6), " exact:", round(-P.mean_scalar() / 1.5, 6))
print("iterations:", info["iterations"], " measured rates:", [round(r, 3) for r in info["rates"][:5]])
