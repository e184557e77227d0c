"""xmfg benchmark: seeded workloads, accuracy-checked end-to-end metrics, layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload lq-offcentre --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One closed-loop client with one thread (BLAS and OpenMP pinned to 1): each
repetition is a fresh worker process that runs the workload's ``xmfg``
commands in order through ``xmfg.cli.run``, and the next repetition starts
when it has ended.  A worker runs only its workload, so its peak RSS is the
workload's own.  Set-up time is sampled in fresh workers across the run.
Times are reported at a fixed reference speed: each worker measures the
machine's speed while it runs and scales its wall times by it
(``perfbench/reference.py``).

Every output is checked outside the timed region: exit status 0,
``converged`` true, core-node value error and trajectory W2 against the
``lq_solve`` oracle, the master residual, and the three check verdicts.
A failed check counts as a failed operation; it does not stop the run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import COMPUTED, LAYER_UNITS
from reference import REF_CHUNK_S
from workloads import COMMANDS, WORKLOADS, document

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_FIRST = 2  # set-up samples taken before the first repetition
WORKER_TIMEOUT_S = 170

# Accuracy gates.  Criteria 1-2 of the acceptance suite bound the value error
# by 5e-2 and the trajectory W2 by 1e-2; criterion 8 bounds the master
# residual by 1e-1.
CORE_ERR_MAX = 5e-2
W2_ERR_MAX = 1e-2
MASTER_RESIDUAL_MAX = 1e-1
PROBE_LEVELS = (0.2, 0.4, 0.6, 0.8)  # quantile levels of `xmfg master` probes

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "value_err": "abs",
    "traj_err": "abs",
    "peak_rss_mb": "MB",
}

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


# ---------------------------------------------------------------------------
# oracles and output checks (outside every timed region)
# ---------------------------------------------------------------------------


def build_oracle(workload: str, doc_path: Path) -> dict:
    """LQ oracle for the workload's game, tabulated where the outputs live."""
    import numpy as np

    from xmfg.analytic import LQCoefficients, lq_solve
    from xmfg.cli import parse_problem
    from xmfg.mfg import canonical_grid

    parsed = parse_problem(doc_path)
    doc = parsed.document
    t = doc["terminal"]["params"]
    if workload == "crowd":
        # V(x, X) = s E|x - X|^2 = s x^2 - 2 s x EX + s EX^2 is an LQ running cost.
        s = doc["potential"]["params"]["scale"]
        coeffs = LQCoefficients(
            a=2.0 * s,
            b=lambda ens: -2.0 * s * ens.mean_scalar(),
            c=lambda ens: s * float(np.mean(ens.samples[:, 0] ** 2)),
            m=t["m"],
            n=t["n"],
            q0=t["q0"],
        )
    else:
        p = doc["potential"]["params"]
        coeffs = LQCoefficients(a=p["A"], b=p["B"], c=p["C"], m=t["M"], n=t["N"], q0=t["Q"])
    state, traj = lq_solve(
        coeffs, parsed.problem.initial, doc["beta"], doc["T"], parsed.solver.time_steps
    )
    grid = canonical_grid(parsed.problem, parsed.solver)
    nodes = grid.nodes()
    core_lo, core_hi = grid.core_interval()
    return {
        "nodes": nodes,
        "core": (nodes >= core_lo) & (nodes <= core_hi),
        "u": state.value_table(nodes),
        "states": np.sort(traj.states[:, :, 0], axis=1),
        "dt": doc["T"] / parsed.solver.time_steps,
    }


def check_solve(out: Path, oracle: dict) -> dict:
    import numpy as np

    meta = json.loads((out / "meta.json").read_text())
    value = np.loadtxt(out / "value.csv", delimiter=",", skiprows=1, usecols=(1, 2))
    steps_1, nx = oracle["u"].shape
    x = value[:nx, 0]
    u = value[:, 1].reshape(steps_1, nx)
    if not np.allclose(x, oracle["nodes"], rtol=0.0, atol=1e-12):
        raise BenchError("value.csv nodes differ from the canonical grid")
    core_err = float(np.max(np.abs(u - oracle["u"])[:, oracle["core"]]))
    xs = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, usecols=(2,))
    xs = np.sort(xs.reshape(steps_1, -1), axis=1)
    w2_err = float(np.max(np.sqrt(np.mean((xs - oracle["states"]) ** 2, axis=1))))
    problems = []
    if meta.get("converged") is not True:
        problems.append("converged is not true")
    if not core_err <= CORE_ERR_MAX:
        problems.append(f"core_err {core_err:.3e} > {CORE_ERR_MAX:g}")
    if not w2_err <= W2_ERR_MAX:
        problems.append(f"w2_err {w2_err:.3e} > {W2_ERR_MAX:g}")
    return {
        "problems": problems,
        "core_err": core_err,
        "w2_err": w2_err,
        "phi_residual": meta.get("phi_residual"),
        "iterations": meta.get("iterations"),
    }


def check_check(out: Path, oracle: dict) -> dict:
    reports = json.loads((out / "report.json").read_text())
    verdicts = [r.get("verdict") for r in reports]
    problems = []
    if len(verdicts) != 3 or any(v != "satisfied" for v in verdicts):
        problems.append(f"check verdicts {verdicts}, expected three 'satisfied'")
    return {"problems": problems, "verdicts": verdicts}


def check_master(out: Path, oracle: dict) -> dict:
    import numpy as np

    master = json.loads((out / "master.json").read_text())
    probes = np.loadtxt(out / "probes.csv", delimiter=",", skiprows=1, ndmin=2)
    levels = np.tile(PROBE_LEVELS, len(probes) // len(PROBE_LEVELS))
    gaps = []
    for (x, t), level in zip(probes, levels):
        m = int(round(t / oracle["dt"]))
        gaps.append(abs(x - float(np.quantile(oracle["states"][m], level))))
    residual = float(master["residual"])
    problems = []
    if master.get("converged") is not True:
        problems.append("converged is not true")
    if not residual <= MASTER_RESIDUAL_MAX:
        problems.append(f"master_residual {residual:.3e} > {MASTER_RESIDUAL_MAX:g}")
    return {"problems": problems, "master_residual": residual, "probe_err": max(gaps)}


CHECKS = {"solve": check_solve, "check": check_check, "master": check_master}


def check_op(op: dict, oracle: dict) -> dict:
    """Verdict on one command's outputs; never raises for a bad output."""
    if op["error"] is not None:
        return {"problems": [f"raised {op['error']}"]}
    if op["status"] != 0:
        return {"problems": [f"exit status {op['status']}"]}
    try:
        return CHECKS[op["command"]](Path(op["out"]), oracle)
    except (OSError, ValueError, KeyError, BenchError) as exc:
        return {"problems": [f"unreadable output: {type(exc).__name__}: {exc}"]}


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


def call_worker(req: dict, work: Path) -> dict:
    req_path = work / "request.json"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    req = dict(req, src=str(SRC), result=str(result_path))
    req_path.write_text(json.dumps(req))
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(req_path)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker exited {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text())


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set up, then repeat the workload in fresh workers for ``seconds``.

    A repetition starts only while it is expected to end within the budget,
    judged by the previous one; there is at least one, and with tracing at
    least one untraced and one traced, alternating.  Set-up samples come
    from every repetition's worker and from one more fresh worker before
    each repetition, so that they spread over the whole run.
    """
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    text = document(workload, seed)
    if document(workload, seed) != text:
        raise BenchError("workload generator is not deterministic")
    doc_path = work / "problem.json"
    doc_path.write_text(text)

    oracle = build_oracle(workload, doc_path)
    setup_only = {"doc": str(doc_path), "commands": []}
    call_worker(setup_only, work)  # fills the file cache and bytecode cache
    setup = [call_worker(setup_only, work) for _ in range(SETUP_FIRST)]
    min_reps = 2 if trace else 1
    reps = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(reps) < min_reps or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        setup.append(call_worker(setup_only, work))
        rep_dir = work / "out" / f"rep{len(reps)}"
        rep = call_worker(
            {
                "doc": str(doc_path),
                "out": str(rep_dir),
                "spans": str(work / "spans.json"),
                "commands": list(COMMANDS[workload]),
                "seed": seed,
                "trace": trace and len(reps) % 2 == 1,
            },
            work,
        )
        for op in rep["ops"]:
            op["check"] = check_op(op, oracle)
        shutil.rmtree(rep_dir, ignore_errors=True)
        setup.append(rep)
        reps.append(rep)
        last = time.perf_counter() - started
    return {"workload": workload, "seed": seed, "setup": setup, "reps": reps}


def _median(values):
    return statistics.median(values) if values else float("nan")


def _figures(run: dict) -> dict:
    """Named figures of the untraced repetitions: name -> (unit, samples).

    ``setup_s`` and the names ending in ``_ref_s`` are scaled to the
    reference speed (``perfbench/reference.py``); the other seconds are raw
    wall-clock seconds, and ``ref_chunk_ms`` is the reference chunk's median
    time during each repetition.
    """
    plain = [r for r in run["reps"] if not r["traced"]]
    figures = {
        "setup_s": ("s", [w["setup_s"] * w["setup_scale"] for w in run["setup"]]),
        "setup_raw_s": ("s", [w["setup_s"] for w in run["setup"]]),
        "ref_chunk_ms": ("ms", [1e3 * REF_CHUNK_S / r["scale"] for r in plain]),
    }
    for command in COMMANDS[run["workload"]]:
        for suffix, scaled in (("_ref_s", True), ("_s", False)):
            figures[command + suffix] = (
                "s",
                [
                    op["seconds"] * (r["scale"] if scaled else 1.0)
                    for r in plain
                    for op in r["ops"]
                    if op["command"] == command
                ],
            )
    figures["wall_ref_s"] = ("s", [r["seconds"] * r["scale"] for r in plain])
    figures["wall_s"] = ("s", [r["seconds"] for r in plain])
    figures["peak_rss_mb"] = ("MB", [r["peak_rss_mb"] for r in plain])
    checks = [op["check"] for r in plain for op in r["ops"]]
    for key, unit in (
        ("core_err", "abs"),
        ("w2_err", "abs"),
        ("master_residual", "abs"),
        ("probe_err", "abs"),
        ("phi_residual", "abs"),
        ("iterations", "count"),
    ):
        values = [c[key] for c in checks if c.get(key) is not None]
        if values:
            figures[key] = (unit, values)
    return figures


def end_to_end(run: dict) -> dict:
    fig = {name: values for name, (_, values) in _figures(run).items()}
    solve = run["workload"] != "master"
    values = {
        "setup_s": _median(fig["setup_s"]),
        "wall_ref_s": _median(fig["wall_ref_s"]),
        # NaN when no output could be read; such a run is already incorrect
        "value_err": _median(fig.get("core_err" if solve else "master_residual", [])),
        "traj_err": _median(fig.get("w2_err" if solve else "probe_err", [])),
        "peak_rss_mb": _median(fig["peak_rss_mb"]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(run: dict) -> dict:
    traced = [r for r in run["reps"] if r["traced"]]
    plain = [r for r in run["reps"] if not r["traced"]]
    # median_low keeps counts whole: it picks one of the traced repetitions'
    # values.  Seconds are brought to reference speed like the end-to-end times.
    values = {
        k: statistics.median_low(
            [r["layers"][k] * (r["scale"] if LAYER_UNITS[k] == "s" else 1) for r in traced]
        )
        for k in traced[0]["layers"]
    }
    values["trace.overhead_frac"] = (
        _median([r["seconds"] * r["scale"] for r in traced])
        / _median([r["seconds"] * r["scale"] for r in plain])
        - 1.0
    )
    return {k: {"value": values[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS}


def verdict(run: dict, trace: bool) -> dict:
    ops = [op for r in run["reps"] for op in r["ops"]]
    failed = sum(1 for op in ops if op["check"]["problems"])
    nested_ok = all(r["summary"]["children_within_parents"] for r in run["reps"] if r["traced"])
    metrics = per_layer(run) if trace else end_to_end(run)
    return {
        "correct": failed == 0 and nested_ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def print_report(run: dict, trace: bool, result: dict) -> None:
    reps = run["reps"]
    print(
        f"== {run['workload']}  seed={run['seed']}  reps={len(reps)}  "
        f"traced={sum(r['traced'] for r in reps)}  "
        "(closed loop, 1 client, 1 thread)"
    )
    for name, (unit, values) in _figures(run).items():
        if not values:
            continue
        print(
            f"  {name:<16} median {_median(values):.6g} {unit:<5} "
            f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}"
        )
    print("  repetitions (raw s/scale): " + " ".join(
        f"{r['seconds']:.3f}{'T' if r['traced'] else ''}/{r['scale']:.3f}" for r in reps
    ))
    print(
        f"  {'fail_frac':<16} {result['failed']}/{result['attempted']} "
        f"= {result['failed'] / result['attempted']:.6g}"
    )
    for r in reps:
        for op in r["ops"]:
            for problem in op["check"]["problems"]:
                print(f"  FAILED {op['command']}: {problem}")
    if trace:
        traced = [r for r in reps if r["traced"]]
        print("  per-layer (median over traced reps; counts marked * are computed):")
        for name, m in result["metrics"].items():
            mark = "*" if name in COMPUTED else " "
            print(f"   {mark}{name:<26} {m['value']:.6g} {m['unit']}")
        summary = traced[-1]["summary"]
        print("  raw self seconds by span (last traced rep):")
        for name, own in sorted(summary["self"].items(), key=lambda kv: -kv[1]):
            print(
                f"    {name:<22} self {own:9.4f} s  incl {summary['inclusive'][name]:9.4f} s"
                f"  calls {summary['calls'][name]}"
            )
        print(f"  children within parents: {summary['children_within_parents']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xmfg" / "__init__.py").is_file():
        print(f"perfbench: no xmfg sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, trace)
            results[name] = verdict(run, trace)
            print_report(run, trace, results[name])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
