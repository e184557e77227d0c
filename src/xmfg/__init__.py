"""Particle-ensemble solvers for deterministic mean-field games whose costs
couple to the population's joint state/velocity law."""

from .diagnostics import (
    MonotonicityReport,
    check_L_monotone,
    check_psi_monotone,
    check_V_monotone,
    second_derivative_form,
)
from .ensembles import (
    Ensemble,
    PairedEnsemble,
    TrajectoryEnsemble,
    wasserstein_1d,
)
from .families import (
    CustomVelocityFamily,
    HamiltonianFamily,
    LQFamily,
    MomentQuadraticPotential,
    QuadraticCoupledFamily,
    QuarticFamily,
    solve_velocity,
)
from .flow import integrate_flow, separation_diagnostic
from .hjb import GridConfig, ValueGrid, regularity_report, solve_backward
from .mfg import (
    MfgSolution,
    ProblemSpec,
    SolverConfig,
    apply_F,
    canonical_grid,
    master_consistency_residual,
    master_value,
    solve_mfg,
    uniqueness_probe,
)

__version__ = "0.1.0"

#: the oracle module and its names load on first use, so the solver and the
#: CLI start without them
_ORACLE_NAMES = ("LQCoefficients", "LQState", "QuarticState", "lq_solve", "quartic_solve")

__all__ = [name for name in dir() if not name.startswith("_")] + ["analytic", *_ORACLE_NAMES]


def __getattr__(name):
    if name == "analytic" or name in _ORACLE_NAMES:
        from importlib import import_module  # ``from . import`` would recurse into here

        analytic = import_module(".analytic", __name__)
        return analytic if name == "analytic" else getattr(analytic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
