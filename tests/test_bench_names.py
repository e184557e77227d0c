"""What the benchmark reads of the program, by name and by layout.

``perfbench/layers.py`` replaces ``module.__dict__[attr]`` for every entry of
its ``_SPANNED`` table; a name the program stops binding would break a traced
run with a ``KeyError`` while every other test still passes.  Likewise
``perfbench/run.py`` builds its oracles from the ``(N, 1)`` sample column of
an ensemble and the ``(M+1, N, 1)`` state path of a trajectory.

The same small games count the work a solve does behind those names: one
sweep per evaluation of the fixed-point map, one blend of the value grid per
solve, and no gradient of the grid in a ``master`` sub-solve.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import xmfg.hjb as hjb
import xmfg.mfg as mfg
from xmfg.cli import parse_problem_document
from xmfg.ensembles import Ensemble
from xmfg.families import LQFamily
from xmfg.hjb import regularity_report, sweep_stride

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layers():
    return load_perfbench("layers")


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
    # the flow picks its own steps, so the computed flow.rk_stages (4M + 1
    # per flow) does not count them; a closed-form family writes each stage's
    # velocity into its stage buffer and those of all rows in one call, so the
    # traced name, which iterates the velocity equation on a stage's row or on
    # the stack of all rows, is never called
    steps = cfg.time_steps
    k = sweep_stride(problem.family, mfg.canonical_grid(problem, cfg), 1.0 / steps, steps)
    closed = problem.family.velocity_closed_form(np.zeros(1), np.zeros(1), None)
    assert k == 2 and closed is not None and metrics["families.velocity_calls"] == 0


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


# small versions of the benchmark's games: 16 samples, M = 20
ORACLE_DOCS = {
    "crowd": {
        "family": "quadratic",
        "beta": 0.5,
        "T": 1.0,
        "potential": {"kind": "moment_quadratic", "params": {"scale": 0.5}},
        "terminal": {"kind": "quadratic", "params": {"m": 1.0, "n": 0.2, "q0": 0.0}},
        "initial": {"kind": "gaussian_like", "params": {"mean": 0.5, "std": 0.5}, "N": 16},
        "solver": {"nx": 41, "nv": 41, "M": 20, "v_max": 4.0},
    },
    "master": {
        "family": "lq",
        "beta": 0.0,
        "T": 1.0,
        "potential": {"kind": "lq_running", "params": {"A": 0.0, "B": 0.0, "C": 0.0}},
        "terminal": {"kind": "lq_terminal", "params": {"M": 1.0, "N": 0.0, "Q": 0.0}},
        "initial": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}, "N": 16},
        "solver": {"nx": 41, "nv": 41, "M": 20, "v_max": 4.0, "damping": 1.0},
    },
}


@pytest.mark.parametrize("workload", sorted(ORACLE_DOCS))
def test_benchmark_oracle_reads_the_ensemble_layout(tmp_path, monkeypatch, workload):
    # run.py imports its siblings by bare name, as it does when run as a script
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = load_perfbench("run")
    doc_path = tmp_path / "problem.json"
    doc_path.write_text(json.dumps(ORACLE_DOCS[workload]))
    oracle = run.build_oracle(workload, doc_path)
    assert oracle["states"].shape == (21, 16)
    assert np.all(np.diff(oracle["states"], axis=1) >= 0.0)
    assert oracle["u"].shape == (21, oracle["nodes"].size)
    assert np.all(np.isfinite(oracle["u"])) and np.any(oracle["core"])
    assert oracle["dt"] == 1.0 / 20


def count_work(monkeypatch):
    """Record, in order, each solve ("solve"), sweep ("sweep"), blend ("dense")
    and gradient the fixed-point iteration makes: 1 for the one-row table of a
    Phi whose gradient seeds the flow, 2 for a grid of several rows."""
    events = []

    def counted(name, real, tag=None):
        def wrapper(*args, **kwargs):
            events.append(tag(*args) if tag else name)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(mfg, "solve_mfg", counted("solve", mfg.solve_mfg))
    monkeypatch.setattr(mfg, "solve_backward", counted("sweep", mfg.solve_backward))
    monkeypatch.setattr(hjb.ValueGrid, "dense", counted("dense", hjb.ValueGrid.dense))
    gradient = counted(None, hjb._central_gradient, tag=lambda x, u: 1 if len(u) == 1 else 2)
    monkeypatch.setattr(hjb, "_central_gradient", gradient)
    return events


def test_a_solve_blends_once_and_no_evaluation_of_the_fixed_point_map_blends(monkeypatch):
    events = count_work(monkeypatch)
    sol = mfg.solve_mfg(LAW_FREE, LAW_FREE_CFG)
    # three iterations, two evaluations: the blend comes after the last sweep
    assert sol.iterations == 3
    assert events == ["solve", 1, "sweep", 1, "sweep", "dense"]
    assert sol.value.u.shape == (LAW_FREE_CFG.time_steps + 1, LAW_FREE_CFG.nx)
    sol.value.grad  # the bundle reads it: computed once, then kept
    sol.value.grad
    assert events[-1:] == [2] and events.count(2) == 1


def test_a_master_sub_solve_blends_once_and_never_takes_the_grid_gradient(monkeypatch):
    sol = mfg.solve_mfg(LAW_FREE, LAW_FREE_CFG)
    events = count_work(monkeypatch)
    probes = [(-0.5, 0.3), (0.5, 0.3), (0.0, 0.6)]
    mfg.master_consistency_residual(sol, LAW_FREE, LAW_FREE_CFG, probes)
    solves = [i for i, e in enumerate(events) if e == "solve"] + [len(events)]
    assert len(solves) == 3  # two restart times, so two sub-solves
    for start, end in zip(solves, solves[1:]):
        solve = events[start:end]
        # each evaluation takes the gradient of its Phi for the flow, then sweeps
        assert solve[-1] == "dense" and solve.count("dense") == 1
        assert solve[1:-1] == [1, "sweep"] * solve.count("sweep") and solve.count("sweep") >= 2
    assert 2 not in events


def test_apply_F_keeps_its_bits():
    problem = mfg.ProblemSpec(
        LQFamily(beta=0.5, m=1.0, n=0.2), horizon=1.0, initial=Ensemble(np.linspace(-0.5, 1.5, 16))
    )
    cfg = mfg.SolverConfig(nx=41, time_steps=20, nv=41, v_max=4.0)
    out = mfg.apply_F(problem, lambda x: 0.5 * x**2, cfg)
    digests = [hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (out.u[0], out.grad[0])]
    assert digests == ["def4970c32afc3ed", "905487ef407597ff"]


@pytest.mark.parametrize("name", ["law-free", *sorted(ORACLE_DOCS)])
def test_the_report_on_the_swept_rows_is_that_of_the_dense_grid(monkeypatch, name):
    if name == "law-free":
        problem, cfg = LAW_FREE, LAW_FREE_CFG
    else:
        parsed = parse_problem_document(ORACLE_DOCS[name])
        problem, cfg = parsed.problem, parsed.solver
    reports = []

    def both(vg):
        reports.append((regularity_report(vg), regularity_report(vg.dense())))
        return reports[-1][0]

    monkeypatch.setattr(mfg, "regularity_report", both)
    sol = mfg.solve_mfg(problem, cfg)
    assert len(reports) >= 2 and sol.regularity_history[0] is reports[0][0]
    for swept, dense in reports:
        assert swept == dense
