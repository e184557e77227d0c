"""Batch front-end: strict JSON problem files in, CSV/JSON bundles out.

Problem documents are validated against a closed schema (unknown keys are
errors, numbers must be finite) and canonicalized, so parse(emit(parse(f)))
is the identity.  Exit codes: 0 success, 2 ran-but-did-not-converge (an
expected scientific outcome), 1 hard error; errors print one
machine-parseable line ``ERROR <code>: <message>`` on stderr.
"""

from __future__ import annotations

import json
import logging
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as bundles
from .diagnostics import check_L_monotone, check_psi_monotone, check_V_monotone
from .ensembles import Ensemble
from .errors import SchemaError, ValueBlowupError, XmfgError
from .families import (
    LinearTerminal,
    MeanSquareVelocityCoupling,
    MomentQuadraticPotential,
    QuadraticCoupledFamily,
    QuadraticFormPotential,
    QuarticFamily,
    QuarticTerminal,
    ZeroCoupling,
    ZeroPotential,
)
from .hjb import ValueGrid, sweep_stride
from .mfg import (
    ProblemSpec,
    SolverConfig,
    canonical_grid,
    master_consistency_residual,
    solve_mfg,
    uniqueness_probe,
)

logger = logging.getLogger(__name__)

SUBCOMMANDS = ("solve", "oracle", "check", "master", "probe-uniqueness")

#: family -> slot -> kind -> (constructor, parameter names in argument order);
#: the first kind of a slot is its default, and a missing parameter reads 0
KINDS = {
    "quadratic": {
        "potential": {
            "zero": (ZeroPotential, ()),
            "moment_quadratic": (MomentQuadraticPotential, ("scale",)),
            "quadratic_form": (QuadraticFormPotential, ("a", "b", "c")),
        },
        "terminal": {
            "zero": (ZeroPotential, ()),
            "quadratic": (QuadraticFormPotential, ("m", "n", "q0")),
            "linear": (LinearTerminal, ("slope", "offset")),
            "moment_quadratic": (MomentQuadraticPotential, ("scale",)),
        },
    },
    "lq": {
        "potential": {"lq_running": (QuadraticFormPotential, ("A", "B", "C"))},
        "terminal": {"lq_terminal": (QuadraticFormPotential, ("M", "N", "Q"))},
    },
    "quartic": {
        "potential": {
            "zero": (ZeroCoupling, ()),
            "mean_square_velocity": (MeanSquareVelocityCoupling, ("scale",)),
        },
        "terminal": {"quartic": (QuarticTerminal, ("A", "B"))},
    },
}

#: sample count of a generated initial law whose document gives no N
DEFAULT_SAMPLE_COUNT = 64


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    config_path: Path
    out_dir: Path
    seed: int
    overrides: tuple[str, ...] = ()


@dataclass
class ParsedProblem:
    document: dict
    family_kind: str
    problem: ProblemSpec
    solver: SolverConfig


# ---------------------------------------------------------------------------
# schema validation and canonicalization
# ---------------------------------------------------------------------------


def _require_finite_number(value, where) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(where, "expected a number")
    value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not math.isfinite(value):
        raise SchemaError(where, "expected a finite number")
    return value


def _require_int(value, where) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(where, "expected an integer")
    return value


def _require_size(value, where) -> int:
    """An array length: past 2**53 doubles take over 64 PiB, more than any
    64-bit address space holds, so the size is refused before numpy sees it."""
    if _require_int(value, where) > 2**53:
        raise MemoryError(f"field {where!r}: a size above 2**53 needs over 64 PiB of doubles")
    return value


_SOLVER_KEYS = {
    "nx": ("nx", _require_size),
    "M": ("time_steps", _require_size),
    "nv": ("nv", _require_int),
    "v_max": ("v_max", _require_finite_number),
    "damping": ("damping", _require_finite_number),  # weight after the first rejection
    "tol_fix": ("tol_fix", _require_finite_number),
    "tol_traj": ("tol_traj", _require_finite_number),
    "max_outer": ("max_outer", _require_int),
}


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{where}.{key}" if where else key, "unknown key")


def _validate_block(raw: dict, family_kind: str, slot: str) -> tuple[dict, object]:
    """Canonical ``{kind, params}`` of one cost slot and the cost it builds."""
    kinds = KINDS[family_kind][slot]
    block = raw.get(slot, {"kind": next(iter(kinds))})
    if not isinstance(block, dict):
        raise SchemaError(slot, "expected an object {kind, params}")
    _reject_unknown(block, ("kind", "params"), slot)
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise SchemaError(
            f"{slot}.kind", f"expected one of {sorted(kinds)} for family {family_kind!r}"
        )
    params = block.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"{slot}.params", "expected an object")
    constructor, names = kinds[kind]
    _reject_unknown(params, names, f"{slot}.params")
    canonical = {}
    for name in names:
        canonical[name] = _require_finite_number(params.get(name, 0.0), f"{slot}.params.{name}")
    return {"kind": kind, "params": canonical}, constructor(*canonical.values())


def _validate_initial(block, base_dir: Path, where="initial") -> tuple[dict, np.ndarray]:
    if not isinstance(block, dict):
        raise SchemaError(where, "expected an object {kind, params[, N]}")
    _reject_unknown(block, ("kind", "params", "N"), where)
    kind = block.get("kind")
    params = block.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"{where}.params", "expected an object")
    if kind == "samples":
        _reject_unknown(params, ("values", "path"), f"{where}.params")
        if "values" in params:
            values = params["values"]
            if not isinstance(values, list) or not values:
                raise SchemaError(f"{where}.params.values", "expected a non-empty list")
            # one bulk check; only a list that fails it is walked, to name its first bad entry
            numbers = set(map(type, values)) <= {float, int}
            numbers = numbers and max(map(abs, values)) <= sys.float_info.max
            samples = np.array(values, dtype=float) if numbers else None
            if samples is None or not np.isfinite(samples).all():
                samples = np.array(
                    [_require_finite_number(v, f"{where}.params.values[{i}]") for i, v in enumerate(values)]
                )
        elif "path" in params:
            path = base_dir / str(params["path"])
            if not path.exists():
                raise SchemaError(f"{where}.params.path", f"file not found: {path}")
            try:
                loaded = Ensemble.from_csv(path.read_text())
            except ValueError as exc:
                raise SchemaError(f"{where}.params.path", f"malformed sample file: {exc}") from exc
            samples = loaded.samples[:, 0]
        else:
            raise SchemaError(f"{where}.params", "samples need either values or path")
        n = samples.size
        if "N" in block and _require_int(block["N"], f"{where}.N") != n:
            raise SchemaError(f"{where}.N", f"expected {n}, the number of samples")
        canonical = {"kind": "samples", "params": {"values": samples.tolist()}, "N": n}
        return canonical, samples
    if kind in ("uniform", "gaussian_like"):
        n = _require_size(block.get("N", DEFAULT_SAMPLE_COUNT), f"{where}.N")
        if n < 1:
            raise SchemaError(f"{where}.N", "expected a positive sample count")
        quantiles = (np.arange(n) + 0.5) / n
        if kind == "uniform":
            _reject_unknown(params, ("lo", "hi"), f"{where}.params")
            lo = _require_finite_number(params.get("lo", -1.0), f"{where}.params.lo")
            hi = _require_finite_number(params.get("hi", 1.0), f"{where}.params.hi")
            if not hi > lo:
                raise SchemaError(f"{where}.params.hi", "expected hi > lo")
            samples = lo + (hi - lo) * quantiles
            canonical = {"kind": "uniform", "params": {"lo": lo, "hi": hi}, "N": n}
        else:
            _reject_unknown(params, ("mean", "std"), f"{where}.params")
            mu = _require_finite_number(params.get("mean", 0.0), f"{where}.params.mean")
            sd = _require_finite_number(params.get("std", 1.0), f"{where}.params.std")
            if sd <= 0:
                raise SchemaError(f"{where}.params.std", "expected std > 0")
            from statistics import NormalDist  # only this law needs it

            samples = np.array(list(map(NormalDist(mu, sd).inv_cdf, quantiles.tolist())))
            canonical = {"kind": "gaussian_like", "params": {"mean": mu, "std": sd}, "N": n}
        if not np.isfinite(samples).all():  # e.g. hi - lo overflows
            raise SchemaError(f"{where}.params", "the generated samples overflow")
        return canonical, samples
    raise SchemaError(f"{where}.kind", "expected one of ['samples', 'uniform', 'gaussian_like']")


def _canonicalize(raw: dict, base_dir: Path) -> tuple:
    """Every schema check of a problem document: its canonical form, cost
    family, initial samples and solver settings, without building the game."""
    if not isinstance(raw, dict):
        raise SchemaError("<root>", "expected a JSON object")
    _reject_unknown(
        raw, ("family", "beta", "T", "q", "potential", "terminal", "initial", "solver"), ""
    )
    family_kind = raw.get("family")
    if not isinstance(family_kind, str) or family_kind not in KINDS:
        raise SchemaError("family", f"expected one of {list(KINDS)}")
    horizon = _require_finite_number(raw.get("T", None), "T") if "T" in raw else None
    if horizon is None or horizon <= 0:
        raise SchemaError("T", "expected a positive horizon")
    q_exp = _require_finite_number(raw.get("q", 2.0), "q")
    if q_exp < 1.0:
        raise SchemaError("q", "expected a moment exponent >= 1")

    beta = _require_finite_number(raw.get("beta", 0.0), "beta")
    if family_kind == "quartic" and beta != 0.0:
        raise SchemaError("beta", "quartic family has no mean-velocity coupling coefficient")
    if family_kind in ("quadratic", "lq") and beta == -1.0:
        raise SchemaError("beta", "beta = -1 makes the velocity equation singular")

    potential_doc, potential = _validate_block(raw, family_kind, "potential")
    terminal_doc, terminal = _validate_block(raw, family_kind, "terminal")
    solver_raw = raw.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise SchemaError("solver", "expected an object")
    _reject_unknown(solver_raw, tuple(_SOLVER_KEYS), "solver")
    solver_kwargs = {}
    solver_doc = {}
    for key, (attr, require) in _SOLVER_KEYS.items():
        if key in solver_raw:
            if key == "v_max" and solver_raw[key] is None:
                continue
            value = require(solver_raw[key], f"solver.{key}")
            solver_kwargs[attr] = value
            solver_doc[key] = value
    try:
        solver = SolverConfig(**solver_kwargs)
    except ValueError as exc:
        raise SchemaError("solver", str(exc)) from exc

    if "initial" not in raw:
        raise SchemaError("initial", "required")
    initial_doc, samples = _validate_initial(raw["initial"], base_dir)

    if family_kind == "quartic":
        # the potential slot of the quartic family holds its coupling U(X, Z); the
        # terminal is built from the constants, so that it takes stacks of laws
        family = QuarticFamily(*terminal_doc["params"].values(), coupling=potential)
        if np.min(samples) <= 0:
            raise SchemaError("initial", "quartic family needs samples strictly above 0")
    else:
        family = QuadraticCoupledFamily(beta, potential, terminal)

    document = {
        "family": family_kind,
        "beta": beta,
        "T": horizon,
        "q": q_exp,
        "potential": potential_doc,
        "terminal": terminal_doc,
        "initial": initial_doc,
        "solver": solver_doc,
    }
    return document, family, samples, solver


def parse_problem_document(raw: dict, base_dir: Path = Path(".")) -> ParsedProblem:
    document, family, samples, solver = _canonicalize(raw, base_dir)
    problem = ProblemSpec(family, document["T"], Ensemble(samples), document["q"])
    # the one place a game is declared (a master restart from X(t) carries the
    # same atoms): equal neighbours once sorted, as np.unique imports numpy.ma
    n_dup = np.count_nonzero(np.diff(np.sort(problem.initial.samples[:, 0])) == 0)
    if n_dup:  # legal atoms, but separation diagnostics skip coincident pairs
        logger.warning("initial ensemble carries %d duplicate sample(s)", n_dup)
    return ParsedProblem(document, document["family"], problem, solver)


def parse_problem(path, overrides: tuple[str, ...] = ()) -> ParsedProblem:
    """Load, override, validate and canonicalize a problem document."""
    path = Path(path)
    if not path.exists():
        raise SchemaError("<config>", f"file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or nested too deep
        raise SchemaError("<config>", f"invalid JSON: {exc}") from exc
    if overrides and not isinstance(raw, dict):
        raise SchemaError("<root>", "expected a JSON object")
    for item in overrides:
        if "=" not in item:
            raise SchemaError("<override>", f"expected key=value, got {item!r}")
        dotted, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        except (ValueError, RecursionError) as exc:  # e.g. nested too deep
            raise SchemaError(dotted, f"invalid JSON: {exc}") from exc
        node = raw
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise SchemaError(dotted, "override path crosses a non-object")
        node[parts[-1]] = value
    return parse_problem_document(raw, base_dir=path.parent)


def emit_problem(parsed: ParsedProblem) -> str:
    """Canonical serialization; parsing it again reproduces the document."""
    return json.dumps(parsed.document, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _meta(parsed: ParsedProblem, run: RunConfig, sol=None, **extra) -> dict:
    payload = {
        "subcommand": run.subcommand,
        "seed": run.seed,
        "problem": parsed.document,
    }
    if sol is not None:  # the sweep stride is that of the solution's own grid and time step
        fam, grid, traj = parsed.problem.family, sol.value.config, sol.traj
        stride = sweep_stride(fam, grid, traj.dt, traj.steps)
        payload.update(converged=sol.converged, restarts=sol.restarts, sweep_stride=stride)
    payload.update(extra)
    return payload


def _cmd_solve(parsed: ParsedProblem, run: RunConfig) -> int:
    started = time.perf_counter()
    sol = solve_mfg(parsed.problem, parsed.solver)
    meta = _meta(parsed, run, sol, iterations=sol.iterations, phi_residual=sol.final_phi_residual)
    bundles.write_solution_bundle(
        run.out_dir, sol.value, sol.traj, sol.residual_history, meta, started
    )
    return 0 if sol.converged else 2


def _cmd_oracle(parsed: ParsedProblem, run: RunConfig) -> int:
    from .analytic import LQCoefficients, lq_solve, quartic_solve  # only this command needs them

    started = time.perf_counter()
    doc = parsed.document
    steps = parsed.solver.time_steps
    if parsed.family_kind == "lq":
        p, t = doc["potential"]["params"], doc["terminal"]["params"]
        coeffs = LQCoefficients(a=p["A"], b=p["B"], c=p["C"], m=t["M"], n=t["N"], q0=t["Q"])
        state, traj = lq_solve(coeffs, parsed.problem.initial, doc["beta"], doc["T"], steps)
        header, columns = "t,gamma,theta,zeta", (state.times, state.gamma, state.theta, state.zeta)
        report = {k: getattr(state, k) for k in ("converged", "passes", "refinement_gap")}
    elif parsed.family_kind == "quartic":
        t = doc["terminal"]["params"]
        state, traj = quartic_solve(
            t["A"], t["B"], parsed.problem.family.coupling, parsed.problem.initial, doc["T"], steps
        )
        header, columns = "t,p,q", (state.times, state.p, state.q)
        report = dict(converged=True)  # closed form, no passes
    else:
        raise XmfgError("oracle subcommand needs family 'lq' or 'quartic'")

    grid = canonical_grid(parsed.problem, parsed.solver)
    with np.errstate(all="ignore"):  # a non-finite table raises below
        vg = ValueGrid(config=grid, times=state.times, u=state.value_table(grid.nodes()))
        finite = np.isfinite(vg.u).all() and np.isfinite(vg.grad).all()
    if not finite:
        raise ValueBlowupError("the oracle value table is not finite on the grid")
    run.out_dir.mkdir(parents=True, exist_ok=True)
    bundles.write_csv(run.out_dir / "coefficients.csv", header, np.stack(columns, axis=1))
    meta = _meta(parsed, run, **report)
    bundles.write_solution_bundle(run.out_dir, vg, traj, [], meta, started)
    return 0 if report["converged"] else 2


def _report_payload(report, out_dir: Path, tag: str) -> dict:
    cert_files = []
    if report.certificate:
        for idx, ens in enumerate(report.certificate):
            name = f"certificate_{tag}_{idx}.csv"
            (out_dir / name).write_text(ens.to_csv())
            cert_files.append(name)
    payload = {
        "condition": report.condition,
        "trials": report.trials,
        "min_value": report.min_value if math.isfinite(report.min_value) else None,
        "verdict": report.verdict,
        "certificate_files": cert_files,
    }
    if report.note:
        payload["note"] = report.note
    return payload


def _cmd_check(parsed: ParsedProblem, run: RunConfig) -> int:
    started = time.perf_counter()
    run.out_dir.mkdir(parents=True, exist_ok=True)
    fam = parsed.problem.family
    reports = []
    if parsed.family_kind in ("quadratic", "lq"):
        rep = check_V_monotone(fam.potential, trials=2000, rng_seed=run.seed)
        reports.append(("potential", rep))
    rep = check_psi_monotone(fam.terminal, trials=2000, rng_seed=run.seed)
    reports.append(("terminal", rep))
    rep = check_L_monotone(fam, trials=1000, rng_seed=run.seed)
    reports.append(("lagrangian", rep))

    combined = []
    for tag, rep in reports:
        payload = _report_payload(rep, run.out_dir, tag)
        bundles.write_json(run.out_dir / f"check_{tag}.json", payload)
        combined.append(payload)
    bundles.write_json(run.out_dir / "report.json", combined)
    bundles.write_meta(run.out_dir / "meta.json", _meta(parsed, run), started)
    return 0


def _quantiles(samples: np.ndarray, levels) -> np.ndarray:
    """``np.quantile(samples, levels)`` bit for bit, from the same partition and
    interpolation without np.unique, which imports numpy.ma on first use (about 12 ms)."""
    n = np.size(samples)
    virt = (n - 1) * np.asarray(levels)
    prev = np.where(virt < n - 1, np.floor(virt), -1).astype(np.intp)  # the top past it
    nxt = np.where(prev < 0, -1, prev + 1)
    s = np.partition(samples, np.concatenate(([0, -1], prev, nxt)))
    a, b, gamma = s[prev], s[nxt], virt - prev
    return np.subtract(b, (b - a) * (1 - gamma), out=a + (b - a) * gamma, where=gamma >= 0.5)


def _cmd_master(parsed: ParsedProblem, run: RunConfig) -> int:
    started = time.perf_counter()
    sol = solve_mfg(parsed.problem, parsed.solver)
    cfg = parsed.solver
    horizon = parsed.problem.horizon
    dt = horizon / cfg.time_steps
    probes = []
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        m = min(int(round(frac * cfg.time_steps)), cfg.time_steps - 1)
        xs = _quantiles(sol.traj.states[m, :, 0], [0.2, 0.4, 0.6, 0.8])
        probes.extend((float(x), m * dt) for x in xs)
    residual = master_consistency_residual(sol, parsed.problem, cfg, probes)

    run.out_dir.mkdir(parents=True, exist_ok=True)
    bundles.write_csv(run.out_dir / "probes.csv", "x,t", probes)
    bundles.write_json(
        run.out_dir / "master.json",
        {"residual": residual, "n_probes": len(probes), "converged": sol.converged},
    )
    bundles.write_meta(run.out_dir / "meta.json", _meta(parsed, run, sol), started)
    return 0 if sol.converged else 2


def _cmd_probe_uniqueness(parsed: ParsedProblem, run: RunConfig) -> int:
    started = time.perf_counter()
    rep = uniqueness_probe(parsed.problem, parsed.solver, k=3, rng_seed=run.seed)
    run.out_dir.mkdir(parents=True, exist_ok=True)
    bundles.write_json(
        run.out_dir / "uniqueness.json",
        {
            "status": rep.status,
            "max_pairwise": None if math.isnan(rep.max_pairwise) else rep.max_pairwise,
            "run_residuals": [r if math.isfinite(r) else None for r in rep.run_residuals],
        },
    )
    bundles.write_meta(run.out_dir / "meta.json", _meta(parsed, run, status=rep.status), started)
    return 0 if rep.status == "conclusive" else 2


_HANDLERS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
    "master": _cmd_master,
    "probe-uniqueness": _cmd_probe_uniqueness,
}


def run(cfg: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    try:
        if not 0 <= cfg.seed < 2**64:  # numpy's generators take no negative seed
            raise SchemaError("--seed", "expected an integer in [0, 2**64)")
        parsed = parse_problem(cfg.config_path, cfg.overrides)
        # the document alone: a second game would log its warnings a second time
        canonical = _canonicalize(json.loads(emit_problem(parsed)), Path("."))[0]
        if canonical != parsed.document:
            raise XmfgError("canonical serialization failed to round-trip")
        return _HANDLERS[cfg.subcommand](parsed, cfg)
    except XmfgError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IO: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"ERROR MEMORY: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    import argparse  # kept off the import path of the library and of run()

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # a usage error is one SCHEMA line, not argparse's exit 2
            raise SchemaError("<args>", message)

    parser = Parser(prog="xmfg", description="Batch solver for velocity-coupled mean-field games")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="problem document (JSON)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="rng seed for randomized checks")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="key=value",
            help="dotted-path override applied to the document before validation",
        )
    try:
        args = parser.parse_args(argv)
    except SchemaError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    config, out = Path(args.config), Path(args.out)
    return run(RunConfig(args.subcommand, config, out, args.seed, tuple(args.override)))


if __name__ == "__main__":
    sys.exit(main())
