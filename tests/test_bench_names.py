"""The benchmark's layer trace wraps module attributes by name.

``perfbench/layers.py`` replaces ``module.__dict__[attr]`` for every entry of
its ``_SPANNED`` table; a name the program stops binding would break a traced
run with a ``KeyError`` while every other test still passes.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import xmfg.mfg as mfg
from xmfg.ensembles import Ensemble
from xmfg.families import LQFamily
from xmfg.hjb import regularity_report

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NAMES = [(module_name, attr) for module_name, attr, _ in load_layers()._SPANNED]


@pytest.mark.parametrize("module_name, attr", NAMES, ids=[f"{m}:{a}" for m, a in NAMES])
def test_traced_names_are_bound(module_name, attr):
    assert attr in importlib.import_module(module_name).__dict__


# a law-free game repeats its third iterate, which reuses the second evaluation
LAW_FREE = mfg.ProblemSpec(
    LQFamily(beta=0.0, m=1.0), horizon=1.0, initial=Ensemble(np.linspace(-1.0, 1.0, 16))
)
LAW_FREE_CFG = mfg.SolverConfig(nx=41, time_steps=20, nv=41, v_max=4.0, damping=1.0)


def test_trace_counts_one_sweep_per_evaluation_of_the_fixed_point_map():
    # three iterations, two flows and two sweeps in the trace
    layers = load_layers()
    problem, cfg = LAW_FREE, LAW_FREE_CFG
    tracer = layers.Tracer()
    tracer.install()
    try:
        sol = mfg.solve_mfg(problem, cfg)
    finally:
        tracer.uninstall()
    metrics, _ = layers.layer_metrics(tracer)
    assert sol.converged and sol.iterations == 3
    assert metrics["hjb.sweeps"] == 2
    assert metrics["mfg.outer_iterations"] == 2  # counts evaluations of F, not iterations
    assert metrics["flow.rk_stages"] == 2 * (4 * cfg.time_steps + 1)
    # every RK stage solves the velocity equation through the traced name
    assert metrics["families.velocity_calls"] == metrics["flow.rk_stages"]


def test_a_reused_evaluation_reuses_its_regularity_report(monkeypatch):
    calls = []

    def counted(vg):
        calls.append(vg)
        return regularity_report(vg)

    monkeypatch.setattr(mfg, "regularity_report", counted)
    sol = mfg.solve_mfg(LAW_FREE, LAW_FREE_CFG)
    assert sol.iterations == 3 and len(calls) == 2
    assert len(sol.regularity_history) == 3
    assert sol.regularity_history[1] == sol.regularity_history[2]
