"""Seeded problem documents for the three benchmark workloads.

``document(workload, seed)`` turns a workload name and a seed into the JSON
problem document the program reads.  The seed is also the ``--seed`` of
``xmfg check``; nothing else about a run depends on it.  The same seed gives
a byte-identical document.  Only the standard library is used here, so the
documents do not depend on the numpy version installed.
"""

from __future__ import annotations

import json
import random

HORIZON = 1.0

# Why each workload is in the benchmark, and which layers it stresses.
WHY = {
    "lq-offcentre": (
        "grid-heavy LQ solve with active beta coupling (E X' != 0): the sweep takes ~60% "
        "and the flow ~34%; Riccati oracle; mechanism workload for sweep and outer-loop changes"
    ),
    "crowd": (
        "check then solve on 2048 Gaussian samples, particle-heavy and grid-light: flow, "
        "velocity, W2 gaps and a 207k-row trajectory.csv; bypass workload for sweep changes"
    ),
    "master": (
        "master on the symmetric LQ game: one base solve plus 20 restarted sub-solves of "
        "~3 iterations; bypass for Picard acceleration, mechanism for probe grouping and warm starts"
    ),
}

# Commands run per repetition, in order.
COMMANDS = {
    "lq-offcentre": ("solve",),
    "crowd": ("check", "solve"),
    "master": ("master",),
}

WORKLOADS = tuple(WHY)


def _jittered_uniform(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal cells of [lo, hi], in cell order."""
    width = (hi - lo) / n
    return [lo + width * (i + rng.random()) for i in range(n)]


def _gaussian(rng: random.Random, n: int, mean: float, sd: float) -> list[float]:
    return [rng.gauss(mean, sd) for _ in range(n)]


def _solver(nx: int, steps: int, **extra) -> dict:
    return {"nx": nx, "nv": nx, "M": steps, "v_max": 4.0, **extra}


def _samples(values: list[float]) -> dict:
    return {"kind": "samples", "params": {"values": values}}


def document(workload: str, seed: int) -> str:
    """Return the problem document text that every command of a run reads."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; expected one of {list(WHY)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lq-offcentre":
        doc = {
            "family": "lq",
            "beta": 0.5,
            "T": HORIZON,
            "potential": {"kind": "lq_running", "params": {"A": 0.0, "B": 0.3, "C": 0.0}},
            "terminal": {"kind": "lq_terminal", "params": {"M": 1.0, "N": 0.2, "Q": 0.0}},
            "initial": _samples(_jittered_uniform(rng, 64, 0.5, 1.5)),
            "solver": _solver(201, 200),
        }
    elif workload == "crowd":
        doc = {
            "family": "quadratic",
            "beta": 0.5,
            "T": HORIZON,
            "potential": {"kind": "moment_quadratic", "params": {"scale": 0.5}},
            "terminal": {"kind": "quadratic", "params": {"m": 1.0, "n": 0.2, "q0": 0.0}},
            "initial": _samples(_gaussian(rng, 2048, 0.5, 0.5)),
            "solver": _solver(81, 100),
        }
    else:
        doc = {
            "family": "lq",
            "beta": 0.0,
            "T": HORIZON,
            "potential": {"kind": "lq_running", "params": {"A": 0.0, "B": 0.0, "C": 0.0}},
            "terminal": {"kind": "lq_terminal", "params": {"M": 1.0, "N": 0.0, "Q": 0.0}},
            "initial": _samples(_jittered_uniform(rng, 64, -1.0, 1.0)),
            "solver": _solver(201, 200, damping=1.0),
        }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
