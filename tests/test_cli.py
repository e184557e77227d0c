import contextlib
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xmfg.io
from xmfg.cli import (
    KINDS,
    RunConfig,
    emit_problem,
    main,
    parse_problem,
    parse_problem_document,
    run,
)
from xmfg.ensembles import Ensemble
from xmfg.errors import SchemaError
from xmfg.families import (
    LinearTerminal,
    MeanSquareVelocityCoupling,
    MomentQuadraticPotential,
    QuadraticFormPotential,
    QuarticTerminal,
    ZeroCoupling,
    ZeroPotential,
)
from xmfg.mfg import solve_mfg

ZERO_DOC = {
    "family": "quadratic",
    "T": 1.0,
    "initial": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}, "N": 8},
    "solver": {"nx": 41, "M": 20, "nv": 41, "v_max": 3.0, "max_outer": 6},
}

LQ_DOC = {
    "family": "lq",
    "beta": 0.0,
    "T": 1.0,
    "terminal": {"kind": "lq_terminal", "params": {"M": 1.0}},
    "initial": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}, "N": 12},
    "solver": {"nx": 61, "M": 40, "nv": 61, "v_max": 4.0, "tol_fix": 1e-4, "tol_traj": 1e-4},
}

# the off-centre coupled LQ game with a running cost that overflows the flow
BLOWUP_DOC = {
    "family": "lq",
    "beta": 0.5,
    "T": 1.0,
    "potential": {"kind": "lq_running", "params": {"A": 1e305, "B": 0.3, "C": 0.0}},
    "terminal": {"kind": "lq_terminal", "params": {"M": 1.0, "N": 0.2, "Q": 0.0}},
    "initial": {"kind": "uniform", "params": {"lo": 0.5, "hi": 1.5}, "N": 64},
    "solver": {"nx": 41, "M": 20, "nv": 41, "v_max": 4.0},
}


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_parse_minimal_zero_problem(tmp_path):
    parsed = parse_problem(write_doc(tmp_path, ZERO_DOC))
    assert parsed.family_kind == "quadratic"
    assert parsed.problem.initial.n == 8
    assert parsed.problem.horizon == 1.0
    assert parsed.solver.nx == 41
    # defaults materialized
    assert parsed.document["potential"] == {"kind": "zero", "params": {}}
    assert parsed.document["q"] == 2.0


def test_parse_lq_document_matches_scalar_riccati_problem(tmp_path):
    parsed = parse_problem(write_doc(tmp_path, LQ_DOC))
    fam = parsed.problem.family
    x0 = parsed.problem.initial
    assert fam.terminal(2.0, x0) == pytest.approx(2.0)  # m x^2 / 2
    assert fam.potential(2.0, x0) == 0.0


def test_unknown_key_is_schema_error(tmp_path):
    doc = dict(ZERO_DOC)
    doc["sigma"] = 0.3  # correlated problems are out of scope
    with pytest.raises(SchemaError) as err:
        parse_problem(write_doc(tmp_path, doc))
    assert "sigma" in str(err.value)


def test_nested_unknown_key_and_bad_values(tmp_path):
    bad = json.loads(json.dumps(ZERO_DOC))
    bad["solver"]["warp"] = 1
    with pytest.raises(SchemaError):
        parse_problem(write_doc(tmp_path, bad))
    bad2 = json.loads(json.dumps(ZERO_DOC))
    bad2["T"] = -2.0
    with pytest.raises(SchemaError):
        parse_problem(write_doc(tmp_path, bad2))
    bad3 = json.loads(json.dumps(ZERO_DOC))
    bad3["beta"] = -1.0
    with pytest.raises(SchemaError):
        parse_problem(write_doc(tmp_path, bad3))


def test_too_small_solver_grid_is_schema_error(tmp_path, capsys):
    cfg_path = write_doc(tmp_path, ZERO_DOC)
    for override in ("solver.nx=2", "solver.nv=1"):
        argv = ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                "--override", override]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR SCHEMA:"), err


@pytest.mark.parametrize("override", ['family=["lq"]', 'potential.kind=["zero"]'])
def test_unhashable_kind_is_schema_error(tmp_path, capsys, override):
    cfg_path = write_doc(tmp_path, ZERO_DOC)
    argv = ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--override", override]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR SCHEMA:"), err


def test_quartic_schema_rules(tmp_path):
    doc = {
        "family": "quartic",
        "T": 0.5,
        "terminal": {"kind": "quartic", "params": {"A": 0.5}},
        "initial": {"kind": "uniform", "params": {"lo": 0.5, "hi": 1.5}, "N": 8},
    }
    parsed = parse_problem(write_doc(tmp_path, doc))
    assert parsed.family_kind == "quartic"
    bad_beta = dict(doc, beta=0.3)
    with pytest.raises(SchemaError):
        parse_problem(write_doc(tmp_path, bad_beta, "b.json"))
    straddles_zero = dict(doc, initial={"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}, "N": 8})
    with pytest.raises(SchemaError):
        parse_problem(write_doc(tmp_path, straddles_zero, "c.json"))


def test_initial_count_defaults_from_solver(tmp_path):
    doc = json.loads(json.dumps(ZERO_DOC))
    del doc["initial"]["N"]
    doc["solver"]["N"] = 24
    with pytest.raises(SchemaError) as err:
        parse_problem(write_doc(tmp_path, doc))
    assert err.value.field == "solver.N" and err.value.expectation == "unknown key"
    del doc["solver"]["N"]
    parsed = parse_problem(write_doc(tmp_path, doc))
    assert parsed.problem.initial.n == 64
    assert parsed.document["initial"]["N"] == 64


def test_round_trip_is_identity(tmp_path):
    parsed = parse_problem(write_doc(tmp_path, LQ_DOC))
    again = parse_problem_document(json.loads(emit_problem(parsed)))
    assert again.document == parsed.document
    assert emit_problem(again) == emit_problem(parsed)


def test_samples_inlined_on_canonicalization(tmp_path):
    csv_path = tmp_path / "x0.csv"
    csv_path.write_text("x0\n0.25\n0.75\n")
    doc = dict(ZERO_DOC)
    doc["initial"] = {"kind": "samples", "params": {"path": "x0.csv"}}
    parsed = parse_problem(write_doc(tmp_path, doc))
    assert parsed.document["initial"]["params"]["values"] == [0.25, 0.75]
    assert parsed.document["initial"]["N"] == 2


@pytest.mark.parametrize(
    "text",
    [
        "x0\n0.25\nabc\n",  # non-numeric cell
        "x\n0.25\n0.75\n",  # header other than x0
        "x0\n0.25\ninf\n",  # non-finite value
        "x0\n0.25\n0.5,0.75\n",  # ragged row
        "x0,x1\n1\n",  # a 2-column header over 1-cell rows
        "x0,x1\n1,2\n3,4\n",  # two columns
    ],
    ids=["non-numeric", "header", "inf", "ragged", "two-column-header", "two-columns"],
)
def test_malformed_sample_file_is_one_schema_line(tmp_path, capsys, text):
    (tmp_path / "x0.csv").write_text(text)
    doc = dict(ZERO_DOC, initial={"kind": "samples", "params": {"path": "x0.csv"}})
    argv = ["solve", "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR SCHEMA:"), lines
    assert "initial.params.path" in lines[0]


def test_sample_count_must_match_the_samples(tmp_path):
    doc = dict(ZERO_DOC, initial={"kind": "samples", "params": {"values": [0.25, 0.75]}, "N": 5})
    with pytest.raises(SchemaError) as err:
        parse_problem(write_doc(tmp_path, doc))
    assert err.value.field == "initial.N"
    doc["initial"]["N"] = 2
    parsed = parse_problem(write_doc(tmp_path, doc))
    assert parsed.document["initial"]["N"] == 2
    assert parse_problem_document(json.loads(emit_problem(parsed))).document == parsed.document


# every kind of the CLI table, constructed by hand with keyword arguments
DIRECT_COSTS = {
    ("quadratic", "potential", "zero"): lambda p: ZeroPotential(),
    ("quadratic", "potential", "moment_quadratic"): lambda p: MomentQuadraticPotential(
        scale=p["scale"]
    ),
    ("quadratic", "potential", "quadratic_form"): lambda p: QuadraticFormPotential(
        a=p["a"], b=p["b"], c=p["c"]
    ),
    ("quadratic", "terminal", "zero"): lambda p: ZeroPotential(),
    ("quadratic", "terminal", "quadratic"): lambda p: QuadraticFormPotential(
        a=p["m"], b=p["n"], c=p["q0"]
    ),
    ("quadratic", "terminal", "linear"): lambda p: LinearTerminal(
        slope=p["slope"], offset=p["offset"]
    ),
    ("quadratic", "terminal", "moment_quadratic"): lambda p: MomentQuadraticPotential(
        scale=p["scale"]
    ),
    ("lq", "potential", "lq_running"): lambda p: QuadraticFormPotential(
        a=p["A"], b=p["B"], c=p["C"]
    ),
    ("lq", "terminal", "lq_terminal"): lambda p: QuadraticFormPotential(
        a=p["M"], b=p["N"], c=p["Q"]
    ),
    ("quartic", "potential", "zero"): lambda p: ZeroCoupling(),
    ("quartic", "potential", "mean_square_velocity"): lambda p: MeanSquareVelocityCoupling(
        scale=p["scale"]
    ),
    ("quartic", "terminal", "quartic"): lambda p: QuarticTerminal(a=p["A"], b=p["B"]),
}

TABLE_ENTRIES = [
    (family, slot, kind)
    for family, slots in KINDS.items()
    for slot, kinds in slots.items()
    for kind in kinds
]


def test_every_table_kind_has_a_direct_construction():
    assert set(TABLE_ENTRIES) == set(DIRECT_COSTS)


@pytest.mark.parametrize("family, slot, kind", TABLE_ENTRIES, ids=map("-".join, TABLE_ENTRIES))
def test_table_kind_round_trips_and_builds_its_cost(tmp_path, family, slot, kind):
    names = KINDS[family][slot][kind][1]
    params = {name: value for name, value in zip(names, (0.7, -0.4, 1.3))}
    doc = {
        "family": family,
        "T": 1.0,
        slot: {"kind": kind, "params": params},
        "initial": {"kind": "uniform", "params": {"lo": 0.5, "hi": 1.5}, "N": 8},
    }
    parsed = parse_problem(write_doc(tmp_path, doc))
    assert parsed.document[slot] == {"kind": kind, "params": params}
    again = parse_problem_document(json.loads(emit_problem(parsed)))
    assert again.document == parsed.document
    assert emit_problem(again) == emit_problem(parsed)

    fam = parsed.problem.family
    direct = DIRECT_COSTS[family, slot, kind](params)
    xs = np.array([0.6, 0.9, 1.7])
    ens = Ensemble([0.5, 1.2, 1.4])
    if family == "quartic" and slot == "potential":
        z_ens = Ensemble([-0.3, 0.8, 2.0])
        assert fam.coupling(ens, z_ens) == direct(ens, z_ens)
    elif slot == "potential":
        np.testing.assert_array_equal(fam.potential(xs, ens), direct(xs, ens))
        np.testing.assert_array_equal(fam.potential.gradient(xs, ens), direct.gradient(xs, ens))
    else:
        np.testing.assert_array_equal(fam.terminal(xs, ens), direct(xs, ens))
        np.testing.assert_array_equal(fam.terminal.gradient(xs, ens), direct.gradient(xs, ens))
    if kind == next(iter(KINDS[family][slot])):  # the first kind is the slot's default
        del doc[slot]
        default = parse_problem(write_doc(tmp_path, doc)).document[slot]
        assert default == {"kind": kind, "params": dict.fromkeys(names, 0.0)}


POTENTIAL_ENTRIES = [(family, kind) for family, slot, kind in TABLE_ENTRIES if slot == "potential"]
#: beta values for which (beta v) EZ and (beta EZ) v round alike: 0 and powers of two
EXACT_BETAS = (0.0, 0.5, -0.5, 2.0)


# The hand-written L, H, D_pH and D_xH the two families carried before the
# base class derived them from the declared drift, potential and speed.
def former_quadratic(fam):
    beta, V = fam.beta, fam.potential
    return {
        "lagrangian": lambda x, v, X, Z: 0.5 * v**2 + beta * v * Z.mean_scalar() - V(x, X),
        "hamiltonian": lambda x, p, X, Z: 0.5 * (beta * Z.mean_scalar() + p) ** 2 + V(x, X),
        "dp_hamiltonian": lambda x, p, X, Z: p + beta * Z.mean_scalar(),
        "dx_hamiltonian": lambda x, p, X, Z: V.gradient(x, X),
    }


def former_quartic(fam):
    U = fam.coupling
    return {
        "lagrangian": lambda x, v, X, Z: 0.5 * v**2 + x**4 + U(X, Z),
        "hamiltonian": lambda x, p, X, Z: 0.5 * p**2 / x**2 - x**4 - U(X, Z),
        "dp_hamiltonian": lambda x, p, X, Z: p / x**2,
        "dx_hamiltonian": lambda x, p, X, Z: -(p**2) / x**3 - 4.0 * x**3,
    }


def quartic_term_sizes(fam, x, w, X, Z):
    """Sum of the absolute terms of each quartic formula, the scale of its round-off."""
    u = abs(fam.coupling(X, Z))
    return {
        "lagrangian": 0.5 * w**2 + x**4 + u,
        "hamiltonian": 0.5 * w**2 / x**2 + x**4 + u,
        "dp_hamiltonian": np.abs(w) / x**2,
        "dx_hamiltonian": w**2 / x**3 + 4.0 * x**3,
    }


def random_family(rng, family, kind, beta, slot="potential"):
    params = {name: rng.uniform(-2, 2) for name in KINDS[family][slot][kind][1]}
    doc = {
        "family": family,
        "beta": beta,
        "T": 1.0,
        slot: {"kind": kind, "params": params},
        "initial": {"kind": "uniform", "params": {"lo": 0.5, "hi": 1.5}, "N": 8},
    }
    return parse_problem_document(doc).problem.family


@pytest.mark.parametrize("family, kind", POTENTIAL_ENTRIES, ids=map("-".join, POTENTIAL_ENTRIES))
def test_derived_costs_match_the_former_formulas(family, kind):
    # bit for bit on the quadratic kinds, within round-off on the quartic ones
    rng = np.random.default_rng(11)
    for trial in range(40):
        if family == "quartic":
            beta = 0.0
        elif trial % 2:
            beta = float(rng.choice(EXACT_BETAS))
        else:
            beta = rng.uniform(-0.9, 3.0)
        fam = random_family(rng, family, kind, beta)
        n = int(rng.integers(1, 9))
        x_ens, z_ens = Ensemble(rng.uniform(0.2, 2.0, n)), Ensemble(rng.normal(0.0, 2.0, n))
        x, w = rng.uniform(0.2, 2.0, 16), rng.uniform(-5.0, 5.0, 16)  # w is v for L, p for H
        former = former_quartic(fam) if family == "quartic" else former_quadratic(fam)
        for name, reference in former.items():
            got = getattr(fam, name)(x, w, x_ens, z_ens)
            want = reference(x, w, x_ens, z_ens)
            if family == "quartic":
                size = quartic_term_sizes(fam, x, w, x_ens, z_ens)[name]
                assert np.all(np.abs(got - want) <= 1e-12 * size), name
            elif name == "lagrangian" and beta not in EXACT_BETAS:
                # (beta EZ) v against (beta v) EZ: one rounding apart
                b, pot = beta * z_ens.mean_scalar(), fam.potential(x, x_ens)
                size = 0.5 * w**2 + np.abs(b * w) + np.abs(pot)
                assert np.all(np.abs(got - want) <= 1e-15 * size), name
            else:
                assert np.asarray(got, dtype=float).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("family, slot, kind", TABLE_ENTRIES, ids=map("-".join, TABLE_ENTRIES))
def test_declared_gradients_match_finite_differences(family, slot, kind):
    # D_xW and g' of each family, and the gradient of each terminal cost
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(10):
        fam = random_family(rng, family, kind, 0.0, slot)
        x_ens, z_ens = Ensemble(rng.uniform(0.2, 2.0, 5)), Ensemble(rng.normal(0.0, 2.0, 5))
        x = rng.uniform(0.5, 2.0, 16)
        if slot == "terminal":
            pairs = [(lambda y: fam.terminal(y, x_ens), fam.terminal.gradient(x, x_ens))]
        else:
            pairs = [
                (
                    lambda y: fam.running_potential(y, x_ens, z_ens),
                    fam.dx_running_potential(x, x_ens, z_ens),
                )
            ]
            if family == "quartic":
                pairs.append((fam.speed, fam.dx_speed(x)))
            else:
                assert fam.speed is None and fam.dx_speed is None  # linear dynamics
        for f, gradient in pairs:
            central = (f(x + h) - f(x - h)) / (2 * h)
            np.testing.assert_allclose(gradient, central, rtol=1e-7, atol=1e-7)


def test_overrides_apply_before_validation(tmp_path):
    path = write_doc(tmp_path, ZERO_DOC)
    parsed = parse_problem(path, overrides=("solver.nx=21", "T=0.5"))
    assert parsed.solver.nx == 21
    assert parsed.problem.horizon == 0.5
    with pytest.raises(SchemaError):
        parse_problem(path, overrides=("bogus.key=1",))


def test_gaussian_like_initial_is_deterministic(tmp_path):
    doc = dict(ZERO_DOC)
    doc["initial"] = {"kind": "gaussian_like", "params": {"mean": 0.0, "std": 1.0}, "N": 33}
    a = parse_problem(write_doc(tmp_path, doc)).problem.initial.samples
    b = parse_problem(write_doc(tmp_path, doc)).problem.initial.samples
    np.testing.assert_array_equal(a, b)
    assert abs(float(a.mean())) < 0.05  # symmetric quantiles
    assert 0.8 < float(a.std()) < 1.05


def test_solve_zero_problem_writes_bundle(tmp_path):
    cfg_path = write_doc(tmp_path, ZERO_DOC)
    out = tmp_path / "out"
    status = run(RunConfig("solve", cfg_path, out, seed=0))
    assert status == 0
    value = (out / "value.csv").read_text().splitlines()
    assert value[0] == "t,x,u,du_dx"
    u_col = np.array([float(line.split(",")[2]) for line in value[1:]])
    assert np.max(np.abs(u_col)) == 0.0
    for name in ("trajectory.csv", "residuals.csv", "meta.json",
                 "plot/u_vs_x_at_t0.csv", "plot/mean_trajectory.csv", "plot/residuals.csv"):
        assert (out / name).exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["converged"] is True
    assert meta["subcommand"] == "solve"
    assert meta["restarts"] == 0


def test_meta_wall_time_covers_the_bundle_write(tmp_path, monkeypatch):
    real = xmfg.io.write_value_csv

    def slow_write(*args):
        time.sleep(0.3)
        real(*args)

    monkeypatch.setattr(xmfg.io, "write_value_csv", slow_write)
    out = tmp_path / "out"
    assert run(RunConfig("solve", write_doc(tmp_path, ZERO_DOC), out, seed=0)) == 0
    assert json.loads((out / "meta.json").read_text())["wall_time_s"] >= 0.3


def test_main_entry_and_exit_codes(tmp_path, capsys):
    cfg_path = write_doc(tmp_path, ZERO_DOC)
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o1")]) == 0
    missing = main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o2")])
    assert missing == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR SCHEMA:")


def test_oracle_then_solve_compare(tmp_path):
    cfg_path = write_doc(tmp_path, LQ_DOC)
    assert run(RunConfig("oracle", cfg_path, tmp_path / "oracle", seed=0)) == 0
    assert run(RunConfig("solve", cfg_path, tmp_path / "solve", seed=0)) == 0
    coeffs = (tmp_path / "oracle" / "coefficients.csv").read_text().splitlines()
    assert coeffs[0] == "t,gamma,theta,zeta"

    def u_at_t0(path):
        rows = [line.split(",") for line in (path / "value.csv").read_text().splitlines()[1:]]
        return np.array([float(r[2]) for r in rows if float(r[0]) == 0.0]), np.array(
            [float(r[1]) for r in rows if float(r[0]) == 0.0]
        )

    u_o, x_o = u_at_t0(tmp_path / "oracle")
    u_s, x_s = u_at_t0(tmp_path / "solve")
    np.testing.assert_array_equal(x_o, x_s)
    core = np.abs(x_o) <= 1.5
    assert np.max(np.abs(u_o[core] - u_s[core])) <= 0.1


COLD_START = """
import sys
import xmfg.cli
print(sorted({"xmfg.analytic", "argparse"} & set(sys.modules)))
print(xmfg._cells._tables.cache_info().currsize)  # no formatter table built yet
import xmfg
from xmfg import lq_solve
served = {"LQCoefficients", "LQState", "QuarticState", "lq_solve", "quartic_solve"}
print(lq_solve.__module__, served <= set(xmfg.__all__))
"""


def test_the_cli_imports_neither_the_oracles_nor_argparse():
    src = str(Path(xmfg.io.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["[]", "0", "xmfg.analytic True"]


def test_oracle_requires_closed_form_family(tmp_path, capsys):
    cfg_path = write_doc(tmp_path, ZERO_DOC)
    assert run(RunConfig("oracle", cfg_path, tmp_path / "out", seed=0)) == 1
    assert "ERROR XMFG" in capsys.readouterr().err


def test_check_reports_violation_with_exit_zero(tmp_path):
    doc = dict(ZERO_DOC)
    doc["potential"] = {"kind": "moment_quadratic", "params": {"scale": -1.0}}
    cfg_path = write_doc(tmp_path, doc)
    out = tmp_path / "check"
    assert run(RunConfig("check", cfg_path, out, seed=4)) == 0
    report = json.loads((out / "check_potential.json").read_text())
    assert report["verdict"] == "violated"
    assert report["certificate_files"]
    for name in report["certificate_files"]:
        assert (out / name).exists()
    combined = json.loads((out / "report.json").read_text())
    assert {r["condition"] for r in combined} >= {"potential-strict", "lagrangian-strict"}


#: sha256 over the name and bytes of every file `check` writes but meta.json,
#: for the crowd and lq-offcentre benchmark documents and QUARTIC_DOC at seeds
#: 1-5; taken when the trials were still evaluated one at a time
CHECK_DIGESTS = {
    "crowd-1": "bf74624042826bb4622749d390e436e9b6aa6b918cb8d348fd71ba2170f9f258",
    "crowd-2": "9bce111b7e96cab0879d0949263863ea9e1daaa60e94db3ed1a7966756f58c2b",
    "crowd-3": "f230ce6a8e0f82fc9e2093d52618a9c108449291f93f389daede9a023e98ff6e",
    "crowd-4": "22c7835e07018c900417fb7d303516fa40981b8b5f7d7c43e37f678b3b257840",
    "crowd-5": "574ac246e6781b0b175ab244098a5de354fd76817bd4e88fd53db5c6cf6d069f",
    "lq-offcentre-1": "4dae768c235c90ed57a54c6a9725814fe9444d80a417aa964c7aa8e42ed38ece",
    "lq-offcentre-2": "28a978d504f9d21cda6d175bfe728c8347a73f114b633cf6c304edb21584e5d4",
    "lq-offcentre-3": "d645d3da7e3fb37048ae03eba75494a78d87b02c338f41633c4898d6d70a986a",
    "lq-offcentre-4": "08257045fcb952a6c50ef7bb9b515500f28164ebaa8b4cddc0226561e12ccb41",
    "lq-offcentre-5": "2dfb0bf2218a315c47f0f95ba1072336bbc47f9bef33fb4bba95cb0297a03659",
    "quartic-1": "0b75b3959f4922feeb72a6a0ec40361d5a422cd67bb192613e72f47cceebcb33",
    "quartic-2": "78a1184f78972924b03a7771473b7980517d181c7388935144d5b9ea34f470bd",
    "quartic-3": "013226b3953e9f25d0c0cb626ed2901d5945482cba7847a895195243cb513486",
    "quartic-4": "6ad903aca2e4003ba89703cac749739cd325cd7840d89ae2561491091094e5db",
    "quartic-5": "41e521fe0948ec375d0fb5624e29bdd018b8b35fb0914c8835201b34605714b4",
}


@pytest.mark.parametrize("case", sorted(CHECK_DIGESTS))
def test_check_outputs_keep_their_bytes(tmp_path, case):
    from test_bench_names import load_perfbench

    name, seed = case.rsplit("-", 1)
    if name == "quartic":
        text = json.dumps(QUARTIC_DOC)
    else:
        text = load_perfbench("workloads").document(name, int(seed))
    (tmp_path / "problem.json").write_text(text)
    out = tmp_path / "out"
    assert main(["check", "--config", str(tmp_path / "problem.json"), "--out", str(out),
                 "--seed", seed]) == 0
    assert bundle_digest(out) == CHECK_DIGESTS[case]


def bundle_digest(out):
    """sha256 over the relative name and bytes of every file under `out` but meta.json."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        if name != "meta.json":
            digest.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def test_probe_uniqueness_cli(tmp_path):
    cfg_path = write_doc(tmp_path, LQ_DOC)
    out = tmp_path / "probe"
    status = run(RunConfig("probe-uniqueness", cfg_path, out, seed=1))
    payload = json.loads((out / "uniqueness.json").read_text())
    assert status in (0, 2)
    assert payload["status"] in ("conclusive", "inconclusive")
    if status == 0:
        assert payload["max_pairwise"] <= 2 * 1e-4


def test_master_cli(tmp_path):
    doc = json.loads(json.dumps(LQ_DOC))
    doc["solver"]["nx"] = 41
    doc["solver"]["M"] = 20
    doc["solver"]["nv"] = 41
    doc["solver"]["damping"] = 1.0
    cfg_path = write_doc(tmp_path, doc)
    out = tmp_path / "master"
    assert run(RunConfig("master", cfg_path, out, seed=0)) == 0
    payload = json.loads((out / "master.json").read_text())
    assert payload["n_probes"] == 20
    assert payload["residual"] < 0.5
    assert (out / "probes.csv").read_text().splitlines()[0] == "x,t"


def test_csv_outputs_byte_identical_across_runs(tmp_path):
    cfg_path = write_doc(tmp_path, LQ_DOC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(RunConfig("solve", cfg_path, out_a, seed=7)) == 0
    assert run(RunConfig("solve", cfg_path, out_b, seed=7)) == 0
    for rel in ("value.csv", "trajectory.csv", "residuals.csv",
                "plot/u_vs_x_at_t0.csv", "plot/mean_trajectory.csv", "plot/residuals.csv"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel



def test_flow_blowup_is_one_error_line(tmp_path, capsys):
    cfg_path = write_doc(tmp_path, BLOWUP_DOC)
    # record warnings instead of printing them: outside pytest they would
    # reach stderr ahead of the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("ERROR FLOW_BLOWUP:")


# a small quadratic game with the mean-velocity coupling and an interaction cost
QUADRATIC_DOC = {
    "family": "quadratic",
    "beta": 0.5,
    "T": 1.0,
    "potential": {"kind": "moment_quadratic", "params": {"scale": 0.5}},
    "terminal": {"kind": "quadratic", "params": {"m": 1.0, "n": 0.3}},
    "initial": {"kind": "uniform", "params": {"lo": 0.0, "hi": 1.0}, "N": 8},
    "solver": {"nx": 41, "M": 20, "nv": 41, "v_max": 4.0},
}


# the steady quartic game: p(t) = A = 1/(2 sqrt 2) for every horizon
QUARTIC_DOC = {
    "family": "quartic",
    "T": 0.5,
    "terminal": {"kind": "quartic", "params": {"A": 1 / (2 * np.sqrt(2.0))}},
    "initial": {"kind": "uniform", "params": {"lo": 0.5, "hi": 1.5}, "N": 16},
    "solver": {"nx": 41, "M": 20, "nv": 41},
}

# (command, overrides, code); `oracle` runs on QUARTIC_DOC, `solve` on QUADRATIC_DOC.
# 10**15 floats are 8 PB, beyond any 64-bit user address space: that
# allocation fails whatever the overcommit setting
EXTREME_INPUTS = [
    ("solve", ("T=1e308",), "XMFG"),
    ("solve", ("solver.v_max=1e308",), "XMFG"),
    ("solve", ("beta=1e308",), "CONTROL_SATURATION"),
    ("solve", ("solver.nx=1000000000000000",), "MEMORY"),
    ("solve", ("initial.N=1000000000000000",), "MEMORY"),
    ("solve", ("terminal.params.m=1e308",), "VALUE_BLOWUP"),
    # v_max selected from a terminal slope that overflows against every speed,
    # then from a terminal cost that overflows on the probes
    ("solve", ("terminal.params.m=1e308", "solver.v_max=null"), "XMFG"),
    ("solve", ("terminal.params.m=1e308", "solver.v_max=null", "initial.params.hi=3"), "XMFG"),
    ("oracle", ("T=1e308",), "ROOT_SOLVE"),
]


def _extreme_id(command, overrides, code):
    joined = "+".join(overrides)
    return f"{joined}-{code}" if command == "solve" else f"{command}-{joined}-{code}"


@pytest.mark.parametrize(
    "command, overrides, code", EXTREME_INPUTS, ids=[_extreme_id(*case) for case in EXTREME_INPUTS]
)
def test_extreme_inputs_print_only_the_error_line(tmp_path, capsys, command, overrides, code):
    cfg_path = write_doc(tmp_path, QUARTIC_DOC if command == "oracle" else QUADRATIC_DOC)
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    for override in overrides:
        argv += ["--override", override]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR {code}:"), err


def strict_json(path):
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("doc", [QUADRATIC_DOC, LQ_DOC, QUARTIC_DOC], ids=lambda d: d["family"])
def test_a_parsed_game_evaluates_its_check_in_stacks_of_laws(tmp_path, doc):
    # the quartic family used to rebuild its terminal cost from the coefficient
    # maps of the parsed one, which took it for a callable map: one law per call
    fam = parse_problem(write_doc(tmp_path, doc)).problem.family
    assert fam.terminal.stacks_laws and fam.stacks_laws


def test_quartic_oracle_document_runs(tmp_path):
    cfg_path = write_doc(tmp_path, QUARTIC_DOC)
    assert main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0


def test_non_finite_results_are_written_as_null(tmp_path, capsys):
    cfg_path = write_doc(tmp_path, QUADRATIC_DOC)
    check = tmp_path / "check"
    argv = ["check", "--config", str(cfg_path), "--out", str(check), "--override", "beta=1e308"]
    # a trial whose cost overflows ends the Lagrangian check as inconclusive
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [str(w.message) for w in caught] == []
    lagrangian = strict_json(check / "check_lagrangian.json")
    assert lagrangian["verdict"] == "inconclusive" and lagrangian["min_value"] is None
    assert lagrangian in strict_json(check / "report.json")
    strict_json(check / "meta.json")
    # every run of the probe saturates its controls, so its residual is missing
    probe = tmp_path / "probe"
    argv = ["probe-uniqueness", "--config", str(cfg_path), "--out", str(probe)]
    assert main(argv + ["--override", "solver.v_max=0.01"]) == 2
    uniqueness = strict_json(probe / "uniqueness.json")
    assert uniqueness["status"] == "inconclusive"
    assert uniqueness["max_pairwise"] is None and uniqueness["run_residuals"] == [None]
    strict_json(probe / "meta.json")
    assert capsys.readouterr().err == ""


def test_bundle_json_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        xmfg.io.write_json(tmp_path / "bad.json", {"residual": float("nan")})


def percent_reference(path):
    """The file as a ``%``-based writer prints the values it holds: '%.17g'
    for every float cell and '%d' for the iteration and sample columns."""
    header, *rows = path.read_text().splitlines()
    ints = [name in ("iter", "sample_index") for name in header.split(",")]
    lines = [header]
    for row in rows:
        cells = zip(row.split(","), ints, strict=True)
        lines.append(",".join("%d" % int(c) if i else "%.17g" % float(c) for c, i in cells))
    return "".join(line + "\n" for line in lines).encode()


VIOLATED_DOC = dict(ZERO_DOC, potential={"kind": "moment_quadratic", "params": {"scale": -1.0}})
SMALL_LQ_DOC = dict(LQ_DOC, solver=dict(LQ_DOC["solver"], nx=41, M=20, nv=41, damping=1.0))
SOLVABLE_QUARTIC_DOC = dict(QUARTIC_DOC, solver={"nx": 61, "M": 40, "nv": 61})
CSV_CASES = [
    ("solve", LQ_DOC),
    ("solve", QUADRATIC_DOC),
    ("solve", SOLVABLE_QUARTIC_DOC),
    ("oracle", LQ_DOC),
    ("oracle", QUARTIC_DOC),
    ("check", QUADRATIC_DOC),
    ("check", QUARTIC_DOC),
    ("check", VIOLATED_DOC),
    ("master", SMALL_LQ_DOC),
    ("master", QUADRATIC_DOC),
    ("master", SOLVABLE_QUARTIC_DOC),
]


#: `bundle_digest` of `solve`, `master` and `oracle` at seed 1, taken before the
#: quadratic terminal cost and the game's moment exponent were declared once
BUNDLE_DIGESTS = {
    "solve-small-lq": "56c20207cb33000e4bcf38a4a4df05fb4576b4e475aa02b152b3d630cfefb828",
    "solve-quadratic": "8d19cee04374f2148944f19420679b7915d5a98acb0d3d0e8d9a7cce36fe24c9",
    "solve-solvable-quartic": "d890d168fe2bc857183985ace96102a7d4808af8790cd8121e9771073e76d0f9",
    "master-small-lq": "69de33d3a750b15a99e9621caf2b943a9af56b1543fefb076c9dc671c06aceca",
    "oracle-lq": "7ef246c0754f76bc7fc28d2b6576565493107a67cd7cf2679c89629f30e53888",
    "oracle-quartic": "68a63755060b215a63af57d43f6947619b90b2b2898f72526ab909c08b65f833",
}
BUNDLE_DOCS = {
    "small-lq": SMALL_LQ_DOC,
    "quadratic": QUADRATIC_DOC,
    "solvable-quartic": SOLVABLE_QUARTIC_DOC,
    "lq": LQ_DOC,
    "quartic": QUARTIC_DOC,
}


@pytest.mark.parametrize("case", sorted(BUNDLE_DIGESTS))
def test_solve_master_and_oracle_outputs_keep_their_bytes(tmp_path, case):
    command, doc = case.split("-", 1)
    out = tmp_path / "out"
    assert main([command, "--config", str(write_doc(tmp_path, BUNDLE_DOCS[doc])),
                 "--out", str(out), "--seed", "1"]) == 0
    assert bundle_digest(out) == BUNDLE_DIGESTS[case]


@pytest.mark.parametrize(
    "command, doc",
    CSV_CASES,
    ids=[f"{command}-{doc['family']}-{i}" for i, (command, doc) in enumerate(CSV_CASES)],
)
def test_every_cli_csv_matches_a_percent_writer(tmp_path, command, doc):
    out = tmp_path / "out"
    assert run(RunConfig(command, write_doc(tmp_path, doc), out, seed=1)) in (0, 2)
    files = sorted(out.rglob("*.csv"))
    assert files
    for path in files:
        assert path.read_bytes() == percent_reference(path), path.relative_to(out)


def test_solve_bundle_matches_the_reference_writers(tmp_path):
    from test_io import reference_trajectory_csv, reference_value_csv

    cfg_path = write_doc(tmp_path, QUADRATIC_DOC)
    assert run(RunConfig("solve", cfg_path, tmp_path / "out", seed=1)) == 0
    parsed = parse_problem(cfg_path)
    sol = solve_mfg(parsed.problem, parsed.solver)
    assert (tmp_path / "out" / "value.csv").read_text() == reference_value_csv(sol.value)
    assert (tmp_path / "out" / "trajectory.csv").read_text() == reference_trajectory_csv(sol.traj)
    rows = [f"{k},{'%.17g' % phi},{'%.17g' % traj}" for k, phi, traj in sol.residual_history]
    expected = "\n".join(["iter,phi_residual,traj_residual", *rows]) + "\n"
    assert (tmp_path / "out" / "residuals.csv").read_text() == expected
    assert ",nan\n" in expected


# ---------------------------------------------------------------------------
# fuzzed overrides: any document ends in exit 0, 1 or 2 and never a traceback
# ---------------------------------------------------------------------------

EXTREMES = [0, -1, 1e300, -1e300, 1e-300, -1e-300]
FUZZ_VALUES = {
    "beta": [0.5, -0.5, -1.0, *EXTREMES],
    "T": [0.5, 2.0, *EXTREMES],
    "solver.v_max": [2.0, None, *EXTREMES],
    "solver.damping": [0.5, 1.0, 2.0, *EXTREMES],
    "solver.tol_fix": [1e-8, *EXTREMES],
    # integer keys stay small: a float such as 1e300 is a schema error
    "solver.max_outer": [1, 3, 8, 0, -1, 1e300],
    "initial.N": [1, 2, 16, 0, -1, 1e300],
    "initial.params.lo": [0.5, 1.0, *EXTREMES],
    "initial.params.hi": [-1.0, 1.5, *EXTREMES],
    "initial.params.mean": [0.0],
    # the LQ cost parameters; the zero document declares no cost, so there
    # they end in a schema error
    **{f"potential.params.{k}": [0.5, -0.5, *EXTREMES] for k in "ABC"},
    **{f"terminal.params.{k}": [0.5, 2.0, -1.0, *EXTREMES] for k in "MNQ"},
}


def fuzzed_runs(commands):
    @st.composite
    def runs(draw):
        keys = st.lists(st.sampled_from(sorted(FUZZ_VALUES)), min_size=1, max_size=3, unique=True)
        overrides = tuple(
            f"{k}={json.dumps(draw(st.sampled_from(FUZZ_VALUES[k])))}" for k in draw(keys)
        )
        return draw(st.sampled_from(commands)), draw(st.sampled_from(["lq", "zero"])), overrides

    return runs()


# both documents run at most 8 outer iterations on grids of at most 61 x 40;
# the LQ document spells out its zero running cost, so the fuzz can change it
FUZZ_DOCS = {
    "lq": {
        **LQ_DOC,
        "potential": {"kind": "lq_running", "params": {"A": 0.0, "B": 0.0, "C": 0.0}},
        "solver": {**LQ_DOC["solver"], "max_outer": 8},
    },
    "zero": ZERO_DOC,
}


@settings(max_examples=40, deadline=None)
@given(case=fuzzed_runs(["solve", "master"]))
# a lone sample at 5e299 (its grid nodes coincided) and a grid with dx = 5e298
# (the semiconcavity constant's dx**2 overflowed) each raised a traceback
@example(case=("solve", "zero", ("initial.N=1", "initial.params.hi=1e+300")))
@example(case=("solve", "zero", ("solver.v_max=1e+300",)))
# the sweep stride divides by the Courant number, which underflows to 0 here
@example(case=("solve", "lq", ("T=1e-300", "solver.v_max=1e-300")))
@example(case=("master", "lq", ("T=1e-300", "solver.v_max=1e-300")))
@example(case=("master", "lq", ("solver.v_max=1e+300",)))
def test_fuzzed_overrides_end_in_a_documented_exit(case):
    assert_documented_exit(*case)


@settings(max_examples=40, deadline=None)
@given(case=fuzzed_runs(["oracle", "check", "probe-uniqueness"]))
# the Riccati loop's Python float power overflowed into a traceback, and an
# oracle value table of inf and nan was written after four numpy warnings
@example(case=("oracle", "lq", ("beta=1e+300", "initial.params.hi=1e+300")))
@example(case=("oracle", "lq", ("solver.v_max=1e+300",)))
@example(case=("probe-uniqueness", "lq", ("T=1e-300", "solver.v_max=1e-300")))
@example(case=("probe-uniqueness", "lq", ("solver.v_max=1e+300",)))
# a stiff oracle flow overflowed with two warnings, then raised a ValueError
@example(case=("oracle", "lq", ("potential.params.A=-1e+16", "terminal.params.M=1e+8")))
def test_fuzzed_overrides_of_the_other_commands_end_in_a_documented_exit(case):
    assert_documented_exit(*case)


# the law-dependence spot check of `check` compared an overflowing cost's nan
# with nan: it printed numpy warnings at seed 0 and ended in a ValueError
# traceback at seed 4
@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize(
    "overrides",
    [
        ("potential.params.A=1e+308", "potential.params.B=-1e+308"),
        ("terminal.params.M=1e+308", "terminal.params.N=-1e+308"),
    ],
    ids=["potential", "terminal"],
)
def test_an_overflowing_cost_leaves_the_check_verdict_to_the_trials(overrides, seed):
    assert assert_documented_exit("check", "lq", overrides, seed) == 0


def assert_documented_exit(command, doc, overrides, seed=0):
    """Run one command and hold it to the documented exits; returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_doc(Path(tmp), FUZZ_DOCS[doc])
        argv = [command, "--config", str(cfg_path), "--out", str(Path(tmp) / "o")]
        argv += ["--seed", str(seed)]
        for override in overrides:
            argv += ["--override", override]
        # outside pytest, log records and warnings reach stderr too
        stderr = io.StringIO()
        handler = logging.StreamHandler(stderr)
        logging.getLogger("xmfg").addHandler(handler)
        try:
            with contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
        finally:
            logging.getLogger("xmfg").removeHandler(handler)
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []  # whatever the exit code
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and re.match(r"^ERROR [A-Z_]+: ", lines[0]), lines
    return code
