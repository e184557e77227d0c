#!/usr/bin/env python3
# Monte Carlo certification of the uniqueness (monotonicity) conditions.
#
# Sampling cannot prove a for-all statement, so "satisfied" means no
# violation was found in the given number of trials, while "violated" comes
# with a concrete certificate pair that reproduces the offending value.

import numpy as np

from xmfg import check_L_monotone, check_psi_monotone, check_V_monotone
from xmfg.diagnostics import monotonicity_gap, second_derivative_form
from xmfg.ensembles import Ensemble
from xmfg.families import MomentQuadraticPotential, QuadraticCoupledFamily

attractive = MomentQuadraticPotential(+1.0)   # V = +E|x-X|^2
repulsive = MomentQuadraticPotential(-1.0)    # V = -E|x-X|^2

for name, pot in (("+E|x-X|^2", attractive), ("-E|x-X|^2", repulsive)):
    rep = check_V_monotone(pot, trials=4000, rng_seed=7)
    print(f"potential {name:11s}: {rep.verdict:9s} (min certified value {rep.min_value:+.3e})")
    if rep.verdict == "violated":
        a, b = rep.certificate
        print("  certificate re-evaluates to", -monotonicity_gap(pot, a, b))

rep = check_psi_monotone(repulsive, trials=4000, rng_seed=7)
print(f"terminal -E|x-X|^2: {rep.verdict} (the pairing expression is +2(EX-EXt)^2)")

fam = QuadraticCoupledFamily(beta=1.0, potential=attractive)
rep = check_L_monotone(fam, trials=2000, rng_seed=7)
print(f"running cost, beta=1 + attractive V: {rep.verdict} (min {rep.min_value:.3e})")

# curvature form behind the condition: the mean-velocity block contributes
# beta * (E Zdir)^2
probe = (0.0, 0.0, Ensemble([0.0, 0.0]), Ensemble([0.0, 0.0]))
val = second_derivative_form(fam, probe, (Ensemble([0.0, 0.0]), Ensemble([1.0, 1.0])))
print("second-derivative form along Z=1:", round(val, 6))
