import contextlib
import hashlib
import importlib.util
import io
import json
import logging
import math
import os
import re
import statistics
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
from xmfg.analytic import LQ_MAX_PASSES
from xmfg.cli import (
    KINDS,
    SUBCOMMANDS,
    RunConfig,
    _quantiles,
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
from xmfg.flow import integrate_flow
from xmfg.hjb import _central_gradient
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


DEEP = "[" * 100000 + "]" * 100000  # far past the JSON decoder's recursion limit


@pytest.mark.parametrize(
    "content, overrides, field",
    [
        (b"[1, 2]", ("a=1",), "<root>"),
        (b"[1, 2]", ("a.b=1",), "<root>"),
        (b'"text"', ("a=1",), "<root>"),
        (b'"text"', ("a.b=1",), "<root>"),
        (b'{"T": "\xff"}', (), "<config>"),
        (DEEP.encode(), (), "<config>"),
        (json.dumps(ZERO_DOC).encode(), ("beta=" + DEEP,), "beta"),
        (b'{"T": ' + b"1" * 5000 + b"}", (), "<config>"),
        (json.dumps(ZERO_DOC).encode(), ("T=" + "1" * 5000,), "T"),
    ],
    ids=["array-a", "array-a.b", "string-a", "string-a.b", "not-utf8", "deep", "deep-override",
         "long-int", "long-int-override"],
)
def test_an_unreadable_document_is_one_schema_line(tmp_path, capsys, content, overrides, field):
    # each ended in a traceback: TypeError, AttributeError, UnicodeDecodeError,
    # RecursionError, or the ValueError of Python's 4300-digit integer limit
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_bytes(content)
    argv = ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR SCHEMA: field '{field}': "), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--config", "x.json"], "the following arguments are required: --out"),
        (["solve", "--config", "x.json", "--out", "o", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["bogus"], "argument subcommand: invalid choice: 'bogus'"),
        ([], "the following arguments are required: subcommand"),
    ],
    ids=["no-out", "bad-seed", "unknown-subcommand", "no-arguments"],
)
def test_a_usage_error_is_one_schema_line_with_exit_1(capsys, argv, message):
    # argparse exited 2, which the CLI keeps for a run that did not converge
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR SCHEMA: field '<args>': {message}"), err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: xmfg" in capsys.readouterr().out


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


def test_gaussian_like_samples_are_the_exact_normal_quantiles(tmp_path):
    doc = dict(ZERO_DOC)
    doc["initial"] = {"kind": "gaussian_like", "params": {"mean": 0.5, "std": 2.0}, "N": 64}
    samples = parse_problem(write_doc(tmp_path, doc)).problem.initial.samples[:, 0]
    law = statistics.NormalDist(0.5, 2.0)
    assert samples.tolist() == [law.inv_cdf((i + 0.5) / 64) for i in range(64)]


def test_a_large_moment_exponent_keeps_the_trajectory_residual(tmp_path):
    # |dX|^1000 underflowed to 0: the solve stopped on a trajectory residual
    # of 0 where the paths still differ by about 0.434.  The uncoupled game
    # has F(Phi) = F(Psi): row 2 is the undamped step to it, row 3 reuses it
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_doc(tmp_path, LQ_DOC)), "--out", str(out),
                 "--override", "q=1000"]) == 0
    rows = (out / "residuals.csv").read_text().splitlines()[1:]
    traj = [float(row.split(",")[2]) for row in rows]
    assert len(rows) == 3 and traj[2] == 0.0
    # the gap between the path seeded by psi' = M x and the solved one, each
    # later time's W_1000 taken in units of its largest gap
    problem = parse_problem(write_doc(tmp_path, LQ_DOC)).problem
    x0 = problem.initial.samples[:, 0]
    first = integrate_flow(problem.family, problem.initial, x0, 1.0, 40, tol=1e-7).states[:, :, 0]
    table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    solved = table[:, 2].reshape(41, x0.size)
    gaps = np.abs(np.sort(first, axis=1) - np.sort(solved, axis=1))[1:]  # both start on X_0
    top = gaps.max(axis=1)
    w_q = top * np.mean((gaps / top[:, None]) ** 1000, axis=1) ** (1 / 1000)
    assert traj[1] == pytest.approx(float(np.max(w_q)), rel=1e-9)
    assert traj[1] == pytest.approx(0.434, abs=1e-3)


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


# the coupling near beta = -1 keeps the LQ oracle's passes from settling
UNSETTLED_LQ_DOC = {
    "family": "lq",
    "beta": -0.9,
    "T": 1.0,
    "potential": {"kind": "lq_running", "params": {"B": 0.3}},
    "terminal": {"kind": "lq_terminal", "params": {"M": 1.0, "N": 0.2}},
    "initial": {"kind": "uniform", "params": {"lo": 0.5, "hi": 1.5}, "N": 16},
    "solver": {"nx": 81, "M": 40, "v_max": 4.0},
}


def test_an_oracle_whose_passes_do_not_settle_exits_2(tmp_path):
    # it used to exit 0 with "converged": true whatever lq_solve reported
    out = tmp_path / "oracle"
    assert run(RunConfig("oracle", write_doc(tmp_path, UNSETTLED_LQ_DOC), out, seed=0)) == 2
    meta = json.loads((out / "meta.json").read_text())
    assert meta["converged"] is False
    assert meta["passes"] == LQ_MAX_PASSES
    assert 0.0 < meta["refinement_gap"] < 1e-5
    # a settled oracle reports its passes too
    assert run(RunConfig("oracle", write_doc(tmp_path, LQ_DOC), tmp_path / "lq", seed=0)) == 0
    meta = json.loads((tmp_path / "lq" / "meta.json").read_text())
    assert meta["converged"] is True and 1 <= meta["passes"] < LQ_MAX_PASSES


COLD_START = """
import sys
import xmfg.cli
print(sorted({"xmfg.analytic", "argparse", "csv", "_csv"} & set(sys.modules)))
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


MASTER_IMPORTS = """
import sys
from pathlib import Path
from xmfg.cli import RunConfig, run
status = run(RunConfig("master", Path(sys.argv[1]), Path(sys.argv[2]), seed=1))
print(status, "numpy.ma" in sys.modules)
"""


def test_master_leaves_numpy_ma_unimported(tmp_path):
    # np.quantile would import it through np.unique, about 12 ms per process
    src = str(Path(xmfg.io.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    doc = write_doc(tmp_path, dict(LQ_DOC, solver=dict(LQ_DOC["solver"], nx=41, M=20, nv=41)))
    out = subprocess.run(
        [sys.executable, "-c", MASTER_IMPORTS, str(doc), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["0", "False"]


CHECK_IMPORTS = """
import sys
from pathlib import Path
from xmfg.cli import RunConfig, run
status = run(RunConfig("check", Path(sys.argv[1]), Path(sys.argv[2]), seed=3))
print(status, "numpy.ma" in sys.modules)
"""


def test_check_leaves_numpy_ma_unimported(tmp_path):
    # the check groups its trials by a loop over the count pairs; np.unique
    # would import numpy.ma, about 12 ms per process
    from test_bench_names import load_perfbench

    src = str(Path(xmfg.io.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    doc = tmp_path / "problem.json"
    doc.write_text(load_perfbench("workloads").document("crowd", 3))
    out = subprocess.run(
        [sys.executable, "-c", CHECK_IMPORTS, str(doc), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["0", "False"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, -1.0])),
        min_size=1, max_size=80,
    ),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
@example([-0.0], [0.2, 0.4, 0.6, 0.8])
@example([0.0, -0.0, 0.0, -0.0, 1.0], [0.0, 0.25, 0.5, 1.0])
def test_master_probe_quantiles_have_the_bits_of_np_quantile(samples, levels):
    samples = np.array(samples)
    assert _quantiles(samples, levels).tobytes() == np.quantile(samples, levels).tobytes()


def test_a_cli_solve_logs_duplicate_samples_once(tmp_path, caplog):
    # the canonical round trip checks the document without declaring the game again
    initial = {"kind": "samples", "params": {"values": [-0.5, 0.0, 0.0, 0.5]}}
    doc = dict(ZERO_DOC, initial=initial, solver=dict(ZERO_DOC["solver"], max_outer=2))
    with caplog.at_level(logging.WARNING, logger="xmfg"):
        assert run(RunConfig("solve", write_doc(tmp_path, doc), tmp_path / "out", seed=0)) in (0, 2)
    duplicates = [r.getMessage() for r in caplog.records if "duplicate" in r.getMessage()]
    assert duplicates == ["initial ensemble carries 1 duplicate sample(s)"]


def test_a_cli_master_logs_duplicate_samples_once(tmp_path, caplog):
    # the restart games start from X(t), which carries the atoms of X_0; only
    # the parsed document declares a game
    initial = {"kind": "samples", "params": {"values": [-1.0, -0.5, 0.0, 0.0, 0.5, 1.0]}}
    doc = dict(SMALL_LQ_DOC, initial=initial)
    with caplog.at_level(logging.WARNING, logger="xmfg"):
        assert run(RunConfig("master", write_doc(tmp_path, doc), tmp_path / "out", seed=0)) == 0
    duplicates = [r.getMessage() for r in caplog.records if "duplicate" in r.getMessage()]
    assert duplicates == ["initial ensemble carries 1 duplicate sample(s)"]


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
#: 1-5; taken on the declared stream of `diagnostics._draw` once the per-trial
#: reference of tests/test_diagnostics.py replayed it bit for bit
CHECK_DIGESTS = {
    "crowd-1": "5802910122a50f6cefdf504aef138cb6ae051c7bc66a5daa0d043d81bab559dc",
    "crowd-2": "1fdec0076ba3f4cee83975f19a12d1b8ce773067c45bec8cbf9e93d9dc734829",
    "crowd-3": "21dfa674ce1de340cf663537a6abf4665aad20a8b742eec2631eb7ff56228f0e",
    "crowd-4": "de0bb290601c0f77075e74b566b37f7fd3cb9fc92b2d4ab22f7d0700b657ffd8",
    "crowd-5": "75f148d77cf77c0f3311c5fec4dbeb62e141bcac51cf6ef52db7ca4e089dc423",
    "lq-offcentre-1": "ae989e3067511c8c4c0fcc76e4c90817e75ac0572b778008bd7446bf84e1bb72",
    "lq-offcentre-2": "cae3ef4283735fd9c17b3f5c0e0295e1430a95376dc3c5a75b40bc621cae60f7",
    "lq-offcentre-3": "ddf14fd9d7c158189dc2feefaa2f5a167271f00b7156d453ffd74d5e270e5b5e",
    "lq-offcentre-4": "2a7657c71970facd61a6b4aca6fab1555abef67b2e7b4f52e147c887d909fc94",
    "lq-offcentre-5": "6d33ce88e1656dd5def56bb1023ca3bb4b5b46c6fd041e968eefee75426605ab",
    "quartic-1": "6687571c8359887b97654f6b617d99579cab6c15938bc5978173d56ee7a4dc4e",
    "quartic-2": "f031630d81e10605db23f5ffcbbb501296d82991344f63348576543b149bc7f7",
    "quartic-3": "95cad68318294263c56632f82ff145b49d3dafff001fdfb639f8215a7a914d9b",
    "quartic-4": "497cec8a7b23dd1305bbdfb9ac8be832fc36ffed8a07e226b8bf25c27878e595",
    "quartic-5": "76e15bd1e2cdf5b4d246cbfe9064233bb0265244c2dac9201b62f51d11da1d5d",
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


def test_a_check_draws_each_condition_s_trials_in_one_call(tmp_path, monkeypatch):
    from test_bench_names import load_perfbench
    from test_diagnostics import count_draws

    (tmp_path / "problem.json").write_text(load_perfbench("workloads").document("crowd", 3))
    calls = count_draws(monkeypatch)
    assert main(["check", "--config", str(tmp_path / "problem.json"), "--out",
                 str(tmp_path / "out"), "--seed", "3"]) == 0
    # 2000 trials of laws of X for V and again for psi, 1000 of joint laws for L
    assert calls == [(3, 1, 2000), (3, 1, 2000), (3, 2, 1000)]


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

#: a 401-digit JSON integer: it parses (Python's limit is 4300 digits) but
#: no double holds it
BIG_INT = 10**400
BIG_SAMPLES = {"kind": "samples", "params": {"values": [BIG_INT, 1.0]}}

# (command, overrides, code); `oracle` runs on QUARTIC_DOC, the others on
# QUADRATIC_DOC.  10**15 floats are 8 PB, beyond any 64-bit user address
# space: that allocation fails whatever the overcommit setting
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
    # integers past the double range ended in an OverflowError traceback, and
    # sizes past 2**60 in numpy's ValueError
    ("solve", (f"T={BIG_INT}",), "SCHEMA"),
    ("check", (f"T={BIG_INT}",), "SCHEMA"),
    ("solve", (f"beta={BIG_INT}",), "SCHEMA"),
    ("solve", (f"solver.tol_fix={BIG_INT}",), "SCHEMA"),
    ("solve", (f"initial={json.dumps(BIG_SAMPLES)}",), "SCHEMA"),
    ("solve", (f"solver.nx={BIG_INT}",), "MEMORY"),
    ("solve", ("solver.M=100000000000000000000",), "MEMORY"),
    ("solve", ("initial.N=100000000000000000000",), "MEMORY"),
]


def _extreme_id(command, overrides, code):
    joined = "+".join(overrides).replace(str(BIG_INT), "10**400")
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


@pytest.mark.parametrize(
    "override, field",
    [(f"T={BIG_INT}", "T"), (f"q={-BIG_INT}", "q"), (f"solver.v_max={BIG_INT}", "solver.v_max"),
     (f"potential.params.scale={BIG_INT}", "potential.params.scale"),
     (f"initial={json.dumps(BIG_SAMPLES)}", "initial.params.values[0]")],
    ids=["T", "q", "v_max", "scale", "values"],
)
def test_an_integer_past_the_double_range_is_not_a_finite_number(tmp_path, override, field):
    with pytest.raises(SchemaError) as err:
        parse_problem(write_doc(tmp_path, QUADRATIC_DOC), (override,))
    assert (err.value.field, err.value.expectation) == (field, "expected a finite number")


@pytest.mark.parametrize(
    "bad",
    ["0.5", None, True, [0.5], math.inf, math.nan, BIG_INT],
    ids=["text", "null", "bool", "list", "inf", "nan", "10**400"],
)
def test_a_bad_sample_deep_in_a_long_list_is_named(tmp_path, bad):
    values = np.linspace(0.0, 1.0, 2048).tolist()
    values[1500] = bad
    values[1700] = "later"  # only the first bad entry is named
    doc = dict(QUADRATIC_DOC, initial={"kind": "samples", "params": {"values": values}})
    with pytest.raises(SchemaError) as err:
        parse_problem(write_doc(tmp_path, doc))
    assert err.value.field == "initial.params.values[1500]"
    finite = isinstance(bad, (int, float)) and not isinstance(bad, bool)
    assert err.value.expectation == ("expected a finite number" if finite else "expected a number")


def test_a_long_sample_list_keeps_its_canonical_form(tmp_path):
    values = [0.1 * i - 50 for i in range(2047)] + [7]  # an integer reads as its float
    doc = dict(QUADRATIC_DOC, initial={"kind": "samples", "params": {"values": values}})
    parsed = parse_problem(write_doc(tmp_path, doc))
    assert parsed.document["initial"]["params"]["values"] == [float(v) for v in values]
    assert all(type(v) is float for v in parsed.document["initial"]["params"]["values"])
    assert parsed.problem.initial.samples[:, 0].tolist() == [float(v) for v in values]


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


@pytest.mark.parametrize("doc", [LQ_DOC, QUARTIC_DOC], ids=["lq", "quartic"])
def test_the_oracle_gradient_is_the_central_difference_of_its_values(tmp_path, doc):
    # `oracle` and `solve` derive du_dx by one rule, bit for bit
    out = tmp_path / "o"
    assert main(["oracle", "--config", str(write_doc(tmp_path, doc)), "--out", str(out)]) == 0
    t, x, u, du_dx = np.loadtxt(out / "value.csv", delimiter=",", skiprows=1, unpack=True)
    shape = (np.unique(t).size, -1)
    nodes = x.reshape(shape)[0]
    np.testing.assert_array_equal(du_dx.reshape(shape), _central_gradient(nodes, u.reshape(shape)))


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


#: `bundle_digest` of `solve`, `master` and `oracle` at seed 1.  The `solve`
#: and `master` digests were taken since the flow steps with the adaptive
#: Dormand-Prince pair, whose paths move those outputs in their last digits;
#: the `oracle` digests since its du_dx is the central difference of `u`, as
#: in `solve`, and the quartic ones since a state-scaled grid is sized from
#: that adaptive flow.  The damped `solve` digests were taken again when the
#: outer iteration began to mix with unit weight until its first rejection
#: (within tol_fix of the damped bundles: |du| <= 2.6e-9, |dx| <= 2.8e-8)
BUNDLE_DIGESTS = {
    "solve-small-lq": "e9681c9bb65c4218dd00ec17b2d807ae17f2e4db21dda99ebd92eddcb869c763",
    "solve-quadratic": "8ed069597a78e959e6000e7e19872ca7e680cac7b0df9f29f940488d50633dab",
    "solve-solvable-quartic": "70ea509831aab73886db55210b446d0a4f34ae35a0ec1cdfc03ca0a0a5497da0",
    "master-small-lq": "ae8d2da54a9418989338aa89a85ed3cc384ecfa992ee4a0ae9f4cee2f59a1feb",
    "oracle-lq": "6d4ac6ec5fd625f7c3962e4cc3f50cdc4f4f57519bc9d2800cb327e4a5b1baed",
    "oracle-quartic": "7c5a733b57595fb4266fca97d38b9093f344d8380bd8d8b4a72a7a43f2aa625f",
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
    "solver.tol_traj": [1e-8, *EXTREMES],
    # integer keys stay small: a float such as 1e300 is a schema error
    "solver.max_outer": [1, 3, 8, 0, -1, 1e300],
    "initial.N": [1, 2, 16, 0, -1, 1e300],
    # +-1.7e308 are finite, but hi - lo overflows
    "initial.params.lo": [0.5, 1.0, -1.7e308, 1.7e308, *EXTREMES],
    "initial.params.hi": [-1.0, 1.5, -1.7e308, 1.7e308, *EXTREMES],
    "initial.params.mean": [0.0],
    # |dX|^q leaves the double range in the trajectory residual
    "q": [1.0, 3.0, 1000.0, 1e300, *EXTREMES],
    # the LQ cost parameters; the zero document declares no cost, so there
    # they end in a schema error
    **{f"potential.params.{k}": [0.5, -0.5, *EXTREMES] for k in "ABC"},
    **{f"terminal.params.{k}": [0.5, 2.0, -1.0, *EXTREMES] for k in "MNQ"},
    # the quartic terminal cost A x^4 + B
    **{f"terminal.params.{k}": [0.35, 2.0, -0.35, *EXTREMES] for k in "AB"},
}


def fuzzed_runs(commands):
    @st.composite
    def runs(draw):
        keys = st.lists(st.sampled_from(sorted(FUZZ_VALUES)), min_size=1, max_size=3, unique=True)
        overrides = tuple(
            f"{k}={json.dumps(draw(st.sampled_from(FUZZ_VALUES[k])))}" for k in draw(keys)
        )
        return draw(st.sampled_from(commands)), draw(st.sampled_from(sorted(FUZZ_DOCS))), overrides

    return runs()


HUGE_GAUSSIAN = {"kind": "gaussian_like", "params": {"mean": 1e308, "std": 1e308}}

# the documents run at most 8 outer iterations on grids of at most 61 x 40;
# the LQ document spells out its zero running cost, so the fuzz can change it,
# and the quartic one sizes a state-scaled grid from its seed flow
FUZZ_DOCS = {
    "lq": {
        **LQ_DOC,
        "potential": {"kind": "lq_running", "params": {"A": 0.0, "B": 0.0, "C": 0.0}},
        "solver": {**LQ_DOC["solver"], "max_outer": 8},
    },
    "quartic": {**QUARTIC_DOC, "solver": {"nx": 21, "M": 10, "nv": 21, "max_outer": 4}},
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
# a box too small to move a foot offered the controls v >= 0 only: 1e-20
# passed as converged
@example(case=("solve", "lq", ("solver.v_max=1e-300",)))
@example(case=("solve", "lq", ("solver.v_max=1e-20",)))
@example(case=("solve", "lq", ("solver.v_max=1e-16",)))
# the first flow step, T / M, and its floor, 1e-10 T, underflowed to 0 and a
# zero step was accepted forever: both commands hung
@example(case=("solve", "lq", ("T=5e-324",)))
@example(case=("master", "lq", ("T=5e-324",)))
# the flow's tolerance, tol_traj / 1000, overflowed its first-step estimate
# into a NaN step, and every step was rejected
@example(case=("solve", "lq", ("solver.tol_traj=1e-300",)))
# the seed flow of the quartic grid read psi' = 4 A x^3 outside its errstate
# and printed an overflow warning before its FLOW_BLOWUP line
@example(case=("solve", "quartic", ("solver.v_max=1e+300", "initial.params.hi=1e+300")))
# generated initial laws whose samples overflow raised a ValueError traceback,
# the Gaussian one after a numpy overflow warning
@example(case=("solve", "zero", ("initial.params.lo=-1.7e+308", "initial.params.hi=1.7e+308")))
@example(case=("solve", "zero", (f"initial={json.dumps(HUGE_GAUSSIAN)}",)))
# the coercivity probes of v_max spanned past the double range (inf - inf)
# and printed an invalid-value warning before their XMFG line
@example(case=("solve", "quartic", ("initial.params.lo=0.5", "initial.params.hi=1.7e+308")))
# integers past the double range raised OverflowError, and sizes past 2**60
# numpy's ValueError, as tracebacks
@example(case=("solve", "lq", (f"T={BIG_INT}",)))
@example(case=("master", "lq", (f"solver.tol_fix={BIG_INT}",)))
@example(case=("solve", "zero", (f"initial={json.dumps(BIG_SAMPLES)}",)))
@example(case=("solve", "lq", (f"solver.nx={BIG_INT}",)))
@example(case=("solve", "lq", ("solver.M=100000000000000000000",)))
@example(case=("master", "zero", ("initial.N=100000000000000000000",)))
def test_fuzzed_overrides_end_in_a_documented_exit(case):
    assert_documented_exit(*case)


@pytest.mark.parametrize("v_max", ["1e-300", "1e-20", "1e-16", "1e-8"])
def test_a_control_box_too_small_to_move_a_foot_ends_in_saturation(tmp_path, capsys, v_max):
    # below the rounding of x the sweep offered the controls v >= 0 only: on the
    # benchmark's off-centre game 1e-20 passed as converged and 1e-16 pinned
    # 49.7% of the core nodes
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(workloads.document("lq-offcentre", 3))
    argv = ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    assert main(argv + ["--override", f"solver.v_max={v_max}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "ERROR CONTROL_SATURATION: control argmin pinned at +-v_max on 100.0% of core nodes"
    ), err


@pytest.mark.parametrize("command", ["solve", "master"])
def test_a_tiny_trajectory_tolerance_still_runs_its_flows(command):
    # the flow's tolerance is raised to its floor, so no flow stalls at t = 0
    assert assert_documented_exit(command, "lq", ("solver.tol_traj=1e-300",)) != 1


@settings(max_examples=40, deadline=None)
@given(case=fuzzed_runs(["oracle", "check", "probe-uniqueness"]))
# the Riccati loop's Python float power overflowed into a traceback, and an
# oracle value table of inf and nan was written after four numpy warnings
@example(case=("oracle", "lq", ("beta=1e+300", "initial.params.hi=1e+300")))
@example(case=("oracle", "lq", ("solver.v_max=1e+300",)))
@example(case=("probe-uniqueness", "lq", ("T=1e-300", "solver.v_max=1e-300")))
@example(case=("probe-uniqueness", "lq", ("solver.v_max=1e+300",)))
# its solves' flows hung on a zero first step, as solve and master did
@example(case=("probe-uniqueness", "lq", ("T=5e-324",)))
# the trajectory residual's |dX|^q overflowed with a numpy warning
@example(case=("probe-uniqueness", "lq", ("q=1e+300",)))
# the Riccati oracle's mean of finite samples overflowed with a numpy warning
@example(case=("oracle", "lq", ("initial.params.lo=0.5", "initial.params.hi=1.7e+308")))
# an integer past the double range raised OverflowError on every command
@example(case=("check", "lq", (f"beta={BIG_INT}",)))
# a stiff oracle flow overflowed with two warnings, then raised a ValueError
@example(case=("oracle", "lq", ("potential.params.A=-1e+16", "terminal.params.M=1e+8")))
# a seed outside [0, 2**64): -1 reached numpy's generator in a ValueError traceback
@example(case=("check", "lq", (), -1))
@example(case=("probe-uniqueness", "lq", (), -1))
@example(case=("oracle", "lq", (), -1))
@example(case=("check", "lq", (), 2**64))
@example(case=("probe-uniqueness", "lq", (), 2**64))
def test_fuzzed_overrides_of_the_other_commands_end_in_a_documented_exit(case):
    assert_documented_exit(*case)


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_a_seed_outside_the_u64_range_is_a_schema_error(tmp_path, command, seed, capsys):
    # the seed is checked first, before the document is read
    assert run(RunConfig(command, tmp_path / "missing.json", tmp_path / "out", seed=seed)) == 1
    assert capsys.readouterr().err == (
        "ERROR SCHEMA: field '--seed': expected an integer in [0, 2**64)\n"
    )
    assert not (tmp_path / "out").exists()


def test_the_largest_u64_seed_runs_a_check():
    assert assert_documented_exit("check", "lq", (), 2**64 - 1) == 0


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
