import numpy as np
import pytest

from xmfg.analytic import LQCoefficients, lq_solve, quartic_solve
from xmfg.ensembles import Ensemble
from xmfg.families import LQFamily, QuadraticCoupledFamily, QuarticFamily
from xmfg.mfg import ProblemSpec, SolverConfig, solve_mfg

SQRT2 = np.sqrt(2.0)


def uniform_quantiles(n, lo, hi):
    return Ensemble(lo + (hi - lo) * (np.arange(n) + 0.5) / n)


PINNED_LQ_CFG = SolverConfig(nx=201, time_steps=200, nv=201, v_max=4.0)


@pytest.fixture(scope="session")
def lq_setup():
    """Scalar quadratic-terminal game: m=1, T=1, 64 uniform samples on [-1, 1]."""
    x0 = uniform_quantiles(64, -1.0, 1.0)
    problem = ProblemSpec(LQFamily(beta=0.0, m=1.0), horizon=1.0, initial=x0)
    sol = solve_mfg(problem, PINNED_LQ_CFG)
    oracle_state, oracle_traj = lq_solve(LQCoefficients(m=1.0), x0, 0.0, 1.0, 200)
    return problem, PINNED_LQ_CFG, sol, oracle_state, oracle_traj


@pytest.fixture(scope="session")
def lq_coupled_setup():
    """Same game with the mean-velocity coupling switched on (beta = 0.5)."""
    x0 = uniform_quantiles(64, -1.0, 1.0)
    problem = ProblemSpec(LQFamily(beta=0.5, m=1.0), horizon=1.0, initial=x0)
    sol = solve_mfg(problem, PINNED_LQ_CFG)
    oracle_state, oracle_traj = lq_solve(LQCoefficients(m=1.0), x0, 0.5, 1.0, 200)
    return problem, PINNED_LQ_CFG, sol, oracle_state, oracle_traj


@pytest.fixture(scope="session")
def lq_offcentre_setup():
    """Off-centre coupled LQ game: beta = 0.5, b = 0.3, m = 1, n = 0.2 on 64
    samples in [0.5, 1.5], where the population moves (E X'(0) ~ -0.32)."""
    x0 = uniform_quantiles(64, 0.5, 1.5)
    problem = ProblemSpec(LQFamily(beta=0.5, b=0.3, m=1.0, n=0.2), horizon=1.0, initial=x0)
    sol = solve_mfg(problem, PINNED_LQ_CFG)
    oracle_state, oracle_traj = lq_solve(LQCoefficients(b=0.3, m=1.0, n=0.2), x0, 0.5, 1.0, 200)
    return problem, PINNED_LQ_CFG, sol, oracle_state, oracle_traj


@pytest.fixture(scope="session")
def quartic_setup():
    """Steady-coefficient quartic game on 32 samples in [0.5, 1.5], T = 0.5."""
    a = 1.0 / (2 * SQRT2)
    x0 = uniform_quantiles(32, 0.5, 1.5)
    problem = ProblemSpec(QuarticFamily(a), horizon=0.5, initial=x0)
    cfg = SolverConfig(nx=201, time_steps=200, nv=201)
    sol = solve_mfg(problem, cfg)
    oracle_state, oracle_traj = quartic_solve(a, 0.0, None, x0, 0.5, 200)
    return problem, cfg, sol, oracle_state, oracle_traj


@pytest.fixture(scope="session")
def zero_setup():
    problem = ProblemSpec(
        QuadraticCoupledFamily(beta=0.0), horizon=1.0, initial=uniform_quantiles(32, -1.0, 1.0)
    )
    cfg = SolverConfig(nx=101, time_steps=100, nv=101, v_max=3.0)
    sol = solve_mfg(problem, cfg)
    return problem, cfg, sol
