import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

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
    QuadraticTerminal,
    QuarticTerminal,
    ZeroCoupling,
    ZeroPotential,
)

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
    ],
    ids=["non-numeric", "header", "inf", "ragged"],
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
    ("quadratic", "terminal", "quadratic"): lambda p: QuadraticTerminal(
        m=p["m"], n=p["n"], q0=p["q0"]
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
    ("lq", "terminal", "lq_terminal"): lambda p: QuadraticTerminal(m=p["M"], n=p["N"], q0=p["Q"]),
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
        np.testing.assert_array_equal(fam.potential_gradient(xs, ens), direct.gradient(xs, ens))
    else:
        np.testing.assert_array_equal(fam.terminal(xs, ens), direct(xs, ens))
        np.testing.assert_array_equal(fam.terminal_gradient(xs, ens), direct.gradient(xs, ens))
    if kind == next(iter(KINDS[family][slot])):  # the first kind is the slot's default
        del doc[slot]
        default = parse_problem(write_doc(tmp_path, doc)).document[slot]
        assert default == {"kind": kind, "params": dict.fromkeys(names, 0.0)}


POTENTIAL_ENTRIES = [(family, kind) for family, slot, kind in TABLE_ENTRIES if slot == "potential"]


@pytest.mark.parametrize("family, kind", POTENTIAL_ENTRIES, ids=map("-".join, POTENTIAL_ENTRIES))
def test_control_cost_is_the_lagrangian(family, kind):
    # the backward sweep reads L through control_cost: v^2/2 + b v + c
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = {name: rng.uniform(-2, 2) for name in KINDS[family]["potential"][kind][1]}
        doc = {
            "family": family,
            "beta": 0.0 if family == "quartic" else rng.uniform(-0.9, 3.0),
            "T": 1.0,
            "potential": {"kind": kind, "params": params},
            "initial": {"kind": "uniform", "params": {"lo": 0.5, "hi": 1.5}, "N": 8},
        }
        fam = parse_problem_document(doc).problem.family
        n = int(rng.integers(1, 9))
        x_ens, z_ens = Ensemble(rng.uniform(0.2, 2.0, n)), Ensemble(rng.normal(0.0, 2.0, n))
        x, v = rng.uniform(0.2, 2.0, 16), rng.uniform(-5.0, 5.0, 16)
        b, c = fam.control_cost(x, x_ens, z_ens)
        gap = 0.5 * v**2 + b * v + c - fam.lagrangian(x, v, x_ens, z_ens)
        assert np.all(np.abs(gap) <= 1e-12 * (0.5 * v**2 + np.abs(b * v) + np.abs(c)))


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

# (command, override, code); `oracle` runs on QUARTIC_DOC, `solve` on QUADRATIC_DOC.
# 10**15 floats are 8 PB, beyond any 64-bit user address space: that
# allocation fails whatever the overcommit setting
EXTREME_INPUTS = [
    ("solve", "T=1e308", "XMFG"),
    ("solve", "solver.v_max=1e308", "XMFG"),
    ("solve", "beta=1e308", "CONTROL_SATURATION"),
    ("solve", "solver.nx=1000000000000000", "MEMORY"),
    ("solve", "initial.N=1000000000000000", "MEMORY"),
    ("solve", "terminal.params.m=1e308", "VALUE_BLOWUP"),
    ("oracle", "T=1e308", "ROOT_SOLVE"),
]


@pytest.mark.parametrize(
    "command, override, code",
    EXTREME_INPUTS,
    ids=[f"{o}-{c}" if cmd == "solve" else f"{cmd}-{o}-{c}" for cmd, o, c in EXTREME_INPUTS],
)
def test_extreme_inputs_print_only_the_error_line(tmp_path, capsys, command, override, code):
    cfg_path = write_doc(tmp_path, QUARTIC_DOC if command == "oracle" else QUADRATIC_DOC)
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--override", override]
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
