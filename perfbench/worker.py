"""One benchmark worker process: a set-up sample and one repetition.

Run as ``python3 perfbench/worker.py <request.json>``; the request names the
problem document, the commands and the output directory, and the result is
written as JSON to the path it gives.  The program runs in a single thread.

The worker first times its set-up: importing ``xmfg`` and parsing and
validating the document exactly as ``xmfg.cli.run`` does.  It then runs the
requested commands (possibly none) once, in order, through the public entry
point ``xmfg.cli.run``, optionally with the layer trace installed.  Every
repetition gets a fresh process, as each ``xmfg`` command does on the
command line: the first pass through the solver in a process is slower than
later ones, and that cost is part of what a user waits for.

The worker pins itself to one CPU.  After the set-up it runs a short burst
of the reference kernel, and while the commands run a sampler thread times
the kernel every few milliseconds (``perfbench/reference.py``); the result
carries the scale factors that bring the set-up and the repetition to the
reference speed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter


def _setup(doc: Path) -> float:
    started = perf_counter()
    from xmfg import cli

    parsed = cli.parse_problem(doc)
    canonical = cli.parse_problem_document(json.loads(cli.emit_problem(parsed)))
    if canonical.document != parsed.document:
        raise RuntimeError("problem document did not round-trip")
    return perf_counter() - started


def _rep(req: dict) -> dict:
    from xmfg import cli

    from layers import Tracer, layer_metrics
    from reference import Sampler

    tracer = Tracer() if req["trace"] else None
    out = Path(req["out"])
    ops = []
    if tracer is not None:
        tracer.install()
    try:
        with Sampler() as sampler:
            for command in req["commands"]:
                config = cli.RunConfig(
                    subcommand=command,
                    config_path=Path(req["doc"]),
                    out_dir=out / command,
                    seed=req["seed"],
                )
                run = cli.run if tracer is None else tracer.span(f"cli.{command}", cli.run)
                started = perf_counter()
                try:
                    status, error = run(config), None
                except Exception as exc:  # a crash is a failed operation, not a failed run
                    status, error = None, f"{type(exc).__name__}: {exc}"
                ops.append(
                    {
                        "command": command,
                        "status": status,
                        "error": error,
                        "seconds": perf_counter() - started,
                        "out": str(out / command),
                    }
                )
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "traced": tracer is not None,
        "seconds": sum(op["seconds"] for op in ops),
        "scale": sampler.scale(),
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"], result["summary"] = layer_metrics(tracer)
        tracer.dump(Path(req["spans"]))
    return result


def main(argv: list[str]) -> int:
    req = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, req["src"])
    # the program and the sampler thread share one CPU, so the sampler
    # measures the core the program runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = {"setup_s": _setup(Path(req["doc"]))}
    from reference import burst_scale  # imported after the set-up is timed

    result["setup_scale"] = burst_scale()
    if req["commands"]:
        result.update(_rep(req))
    Path(req["result"]).write_text(json.dumps(result) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv))
