"""Outside-in layer trace: wrappers on the names callers look up.

The wrappers are installed only for a traced repetition and removed after
it.  Each call records a span ``[name, start, end, parent]`` in memory;
per-layer seconds and self times are derived from the spans afterwards.
Counts marked *computed* are worked out from call arguments or results
(e.g. ``nv * nx * M`` per backward sweep), not read from the program.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  ``mfg`` imports its collaborators by name,
# so they are wrapped where ``mfg`` looks them up.
_SPANNED = (
    ("xmfg.mfg", "integrate_flow", "flow.integrate"),
    ("xmfg.mfg", "solve_backward", "hjb.sweep"),
    ("xmfg.mfg", "ensemble_distance", "ensembles.gap"),
    ("xmfg.mfg", "regularity_report", "hjb.regularity"),
    ("xmfg.mfg", "solve_mfg", "mfg.solve"),
    ("xmfg.mfg", "master_value", "mfg.subsolve"),
    ("xmfg.flow", "solve_velocity", "families.velocity"),
    ("xmfg.cli", "solve_mfg", "mfg.solve"),
    ("xmfg.cli", "check_V_monotone", "diagnostics.V"),
    ("xmfg.cli", "check_psi_monotone", "diagnostics.psi"),
    ("xmfg.cli", "check_L_monotone", "diagnostics.L"),
    ("xmfg.cli", "parse_problem", "cli.parse"),
    ("xmfg.cli", "parse_problem_document", "cli.parse"),
    ("xmfg.io", "write_solution_bundle", "io.bundle"),
)

# Per-layer metrics reported by a traced run: name -> unit.
LAYER_UNITS = {
    "mfg.outer_iterations": "count",
    "mfg.subsolves": "count",
    "mfg.subsolve_s": "s",
    "mfg.self_s": "s",
    "hjb.sweeps": "count",
    "hjb.sweep_s": "s",
    "hjb.sl_evals": "count",
    "hjb.regularity_s": "s",
    "flow.integrate_s": "s",
    "flow.rk_stages": "count",
    "families.velocity_calls": "count",
    "families.velocity_s": "s",
    "families.lagrangian_calls": "count",
    "families.lagrangian_s": "s",
    "ensembles.constructed": "count",
    "ensembles.gap_s": "s",
    "io.bundle_s": "s",
    "io.bundle_bytes": "bytes",
    "diagnostics.V_s": "s",
    "diagnostics.psi_s": "s",
    "diagnostics.L_s": "s",
    "diagnostics.trials": "count",
    "cli.parse_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts worked out from call arguments or results rather than counted calls.
COMPUTED = {"hjb.sl_evals", "flow.rk_stages", "io.bundle_bytes", "diagnostics.trials"}


def _bundle_bytes(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())


class Tracer:
    """Span recorder plus the computed counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so that each call records a span; ``after(args, result)``
        runs after the span has closed."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter(), None, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from xmfg import ensembles, families

        def count(key, amount):
            def after(args, result):
                self.counts[key] += amount(args, result)

            return after

        computed = {
            # one backward step evaluates nv controls at nx nodes, M steps per sweep
            "hjb.sweep": count("hjb.sl_evals", lambda a, r: a[2].nv * a[2].nx * a[1].steps),
            # RK4: four stages per step plus the velocity at the final time
            "flow.integrate": count("flow.rk_stages", lambda a, r: 4 * a[4] + 1),
            "diagnostics.V": count("diagnostics.trials", lambda a, r: r.trials),
            "diagnostics.psi": count("diagnostics.trials", lambda a, r: r.trials),
            "diagnostics.L": count("diagnostics.trials", lambda a, r: r.trials),
            "io.bundle": count("io.bundle_bytes", lambda a, r: _bundle_bytes(a[0])),
        }
        for module_name, attr, name in _SPANNED:
            module = importlib.import_module(module_name)
            fn = module.__dict__[attr]
            self._patch(module, attr, self.span(name, fn, computed.get(name)))
        for cls in vars(families).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, families.HamiltonianFamily)
                and cls is not families.HamiltonianFamily
                and "lagrangian" in cls.__dict__
            ):
                self._patch(
                    cls, "lagrangian", self.span("families.lagrangian", cls.__dict__["lagrangian"])
                )
        post_init = ensembles.Ensemble.__post_init__
        counts = self.counts

        def counted_post_init(obj):
            counts["ensembles.constructed"] += 1
            post_init(obj)

        self._patch(ensembles.Ensemble, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")


def summarize(spans: list[list]) -> dict:
    """Inclusive seconds, self seconds and call counts per span name.

    Inclusive time counts only spans not nested in a span of the same name,
    so recursion through two wrapped names is not counted twice.  Self time
    is a span's duration minus the durations of its direct children.
    """
    names = [s[0] for s in spans]
    child_total = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_total[s[3]] += s[2] - s[1]
    inclusive: Counter = Counter()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    worst_excess = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        self_s[name] += duration - child_total[i]
        worst_excess = max(worst_excess, child_total[i] - duration)
        ancestor = parent
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
    return {
        "inclusive": dict(inclusive),
        "self": dict(self_s),
        "calls": dict(calls),
        "children_within_parents": worst_excess <= 0.0,
    }


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition (without the overhead ratio),
    and the span summary they were derived from."""
    summary = summarize(tracer.spans)
    inc, own, calls = summary["inclusive"], summary["self"], summary["calls"]
    spans = tracer.spans
    sweeps_in_solve = sum(
        1 for s in spans if s[0] == "hjb.sweep" and s[3] >= 0 and spans[s[3]][0] == "mfg.solve"
    )
    return {
        "mfg.outer_iterations": sweeps_in_solve,
        "mfg.subsolves": calls.get("mfg.subsolve", 0),
        "mfg.subsolve_s": inc.get("mfg.subsolve", 0.0),
        "mfg.self_s": own.get("mfg.solve", 0.0),
        "hjb.sweeps": calls.get("hjb.sweep", 0),
        "hjb.sweep_s": inc.get("hjb.sweep", 0.0),
        "hjb.sl_evals": tracer.counts["hjb.sl_evals"],
        "hjb.regularity_s": inc.get("hjb.regularity", 0.0),
        "flow.integrate_s": inc.get("flow.integrate", 0.0),
        "flow.rk_stages": tracer.counts["flow.rk_stages"],
        "families.velocity_calls": calls.get("families.velocity", 0),
        "families.velocity_s": inc.get("families.velocity", 0.0),
        "families.lagrangian_calls": calls.get("families.lagrangian", 0),
        "families.lagrangian_s": inc.get("families.lagrangian", 0.0),
        "ensembles.constructed": tracer.counts["ensembles.constructed"],
        "ensembles.gap_s": inc.get("ensembles.gap", 0.0),
        "io.bundle_s": inc.get("io.bundle", 0.0),
        "io.bundle_bytes": tracer.counts["io.bundle_bytes"],
        "diagnostics.V_s": inc.get("diagnostics.V", 0.0),
        "diagnostics.psi_s": inc.get("diagnostics.psi", 0.0),
        "diagnostics.L_s": inc.get("diagnostics.L", 0.0),
        "diagnostics.trials": tracer.counts["diagnostics.trials"],
        "cli.parse_s": inc.get("cli.parse", 0.0),
    }, summary
