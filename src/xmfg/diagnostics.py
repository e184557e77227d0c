"""Monte Carlo certification of the uniqueness (monotonicity) hypotheses.

Three sign conditions are probed over randomized ensemble pairs:

  * potential, strict:    E[V(X,X) - V(X,Xt) + V(Xt,Xt) - V(Xt,X)] < 0
  * terminal, non-strict: E[psi(X,X) - psi(X,Xt) + psi(Xt,Xt) - psi(Xt,X)] >= 0
  * Lagrangian, strict:   E[L(X,Z,X,Z) - L(Xt,Zt,X,Z)
                            + L(Xt,Zt,Xt,Zt) - L(X,Z,Xt,Zt)] > 0

Sampling cannot prove a universally quantified statement, so a "satisfied"
verdict means exactly "no violation found in `trials` samples"; a "violated"
verdict ships a certificate pair that reproduces the offending value.

A check first draws every trial's pair of laws as plain sample arrays, then
evaluates a cost that declares ``stacks_laws`` once per group of trials with
equal sample counts, on stacks of laws, and a user callable once per trial.
Every value and certificate keeps the bits of a trial-by-trial loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ensembles import Ensemble, PairedEnsemble
from .errors import NonSmoothProbeError
from .families import HamiltonianFamily, QuadraticCoupledFamily

__all__ = [
    "MonotonicityReport",
    "monotonicity_gap",
    "lagrangian_monotonicity_gap",
    "lmon_reduction_gap",
    "check_V_monotone",
    "check_psi_monotone",
    "check_L_monotone",
    "second_derivative_form",
]

_ENSEMBLE_SIZES = (1, 2, 8, 64)


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a Monte Carlo monotonicity check.

    ``min_value`` is the smallest value over all trials of the quantity the
    condition requires to stay positive (``-strict``) or nonnegative
    (``-nonstrict``); the certificate pair attains it and re-evaluates to it.
    """

    condition: str
    trials: int
    min_value: float
    certificate: tuple
    verdict: str  # "satisfied" | "violated" | "inconclusive"
    note: str = ""


def _split_means(values, n: int):
    """np.mean of values[..., :n] and of values[..., n:] along the last axis, bit
    for bit, without its wrapper."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:  # a cost that depends on the law only
        return values, values
    rest = values.shape[-1] - n
    return np.add.reduce(values[..., :n], -1) / n, np.add.reduce(values[..., n:], -1) / rest


def _plain(value):
    """One law's value as a float; a stack's values as they are."""
    return value if np.ndim(value) else float(value)


def monotonicity_gap(potential, x_ens: Ensemble, xt_ens: Ensemble):
    """Raw pairing expression E[V(X,X) - V(X,Xt) + V(Xt,Xt) - V(Xt,X)].

    ``potential`` is pointwise in x, so each law is evaluated once on the
    stacked samples of both.  On two stacks of B laws the result holds B
    values.
    """
    points = np.concatenate((x_ens.samples[..., 0], xt_ens.samples[..., 0]), axis=-1)
    x_on_x, xt_on_x = _split_means(potential(points, x_ens), x_ens.n)
    x_on_xt, xt_on_xt = _split_means(potential(points, xt_ens), x_ens.n)
    return _plain((x_on_x - x_on_xt) + (xt_on_xt - xt_on_x))


def lagrangian_monotonicity_gap(
    fam: HamiltonianFamily, pair: PairedEnsemble, pair_t: PairedEnsemble
):
    """Raw pairing expression for the running cost over joint-law pairs.

    The Lagrangian is pointwise in (x, v), so each joint law is evaluated
    once on the stacked samples of both; stacks of laws give one value each.
    """
    x = np.concatenate((pair.x[..., 0], pair_t.x[..., 0]), axis=-1)
    z = np.concatenate((pair.z[..., 0], pair_t.z[..., 0]), axis=-1)
    p_on_p, t_on_p = _split_means(fam.lagrangian(x, z, pair.state(), pair.velocity()), pair.n)
    p_on_t, t_on_t = _split_means(
        fam.lagrangian(x, z, pair_t.state(), pair_t.velocity()), pair.n
    )
    return _plain(p_on_p - t_on_p + t_on_t - p_on_t)


def lmon_reduction_gap(
    fam: QuadraticCoupledFamily, pair: PairedEnsemble, pair_t: PairedEnsemble
) -> float:
    """|L-expression - (beta |EZ - EZt|^2 - V-expression)| for the quadratic family."""
    full = lagrangian_monotonicity_gap(fam, pair, pair_t)
    ez = pair.velocity().mean_scalar()
    ezt = pair_t.velocity().mean_scalar()
    v_gap = monotonicity_gap(fam.potential, pair.state(), pair_t.state())
    return abs(full - (fam.beta * (ez - ezt) ** 2 - v_gap))


def _require_permutation_invariance(cost, rng_seed: int, what: str) -> None:
    rng = np.random.default_rng(rng_seed + 987)
    # a spread cloud, so that permuting samples is a real reordering
    ens = Ensemble(rng.normal(size=8))
    probe = rng.normal(size=5)
    with np.errstate(all="ignore"):
        before = np.asarray(cost(probe, ens), dtype=float)
        after = np.asarray(cost(probe, ens.permuted(rng.permutation(8))), dtype=float)
    # a non-finite value tells nothing here; _run_check reports it as inconclusive
    finite = np.isfinite(before) & np.isfinite(after)
    if not np.allclose(before[finite], after[finite], atol=1e-10):
        raise ValueError(
            f"{what} depends on the order of the samples, not only on their law: "
            "permuting them changed it"
        )


def _draw_samples(rng, n: int) -> np.ndarray:
    style = rng.integers(0, 3)
    if style == 0:  # point mass
        return rng.uniform(-2.0, 2.0, size=1).repeat(n)
    if style == 1:  # uniform cloud
        return rng.uniform(-2.0, 2.0) + rng.uniform(-1.0, 1.0, size=n)
    centers = rng.uniform(-2.0, 2.0, size=2)  # two clusters
    return centers[rng.integers(0, 2, size=n)] + 0.2 * rng.standard_normal(n)


def _draw_law(rng, parts: int) -> list:
    """One trial law: ``parts`` sample arrays of one random count."""
    n = _ENSEMBLE_SIZES[rng.integers(0, len(_ENSEMBLE_SIZES))]
    return [_draw_samples(rng, n) for _ in range(parts)]


def _law(parts):
    """The unchecked Ensemble (one part) or PairedEnsemble (two parts) on (..., N)
    sample arrays; the draws are finite by construction."""
    views = [Ensemble._view(part[..., None], 2.0).samples for part in parts]
    return Ensemble._view(*views, 2.0) if len(views) == 1 else PairedEnsemble._view(*views, 2.0)


@np.errstate(all="ignore")  # a non-finite trial ends the check as inconclusive
def _run_check(condition, evaluate, parts, trials, rng_seed, same, stacks):
    """Draw every trial's pair, then evaluate them: in stacks grouped by the
    sample counts when ``stacks``, else one trial at a time up to the first
    non-finite value.  ``same(a, b)`` tells, along the last axis, which pairs
    of equal counts to skip."""
    rng = np.random.default_rng(rng_seed)
    pairs = [(_draw_law(rng, parts), _draw_law(rng, parts)) for _ in range(trials)]
    values = np.full(trials, np.inf)
    skipped = np.zeros(trials, dtype=bool)
    if stacks:
        groups = {}
        for t, (a, b) in enumerate(pairs):
            groups.setdefault((a[0].size, b[0].size), []).append(t)
        for (n_a, n_b), rows in groups.items():
            a, b = ([np.stack([pairs[t][side][k] for t in rows]) for k in range(parts)]
                    for side in (0, 1))
            values[rows] = evaluate(_law(a), _law(b))
            if same is not None and n_a == n_b:
                skipped[rows] = same(a, b)
    else:
        for t, (a, b) in enumerate(pairs):
            if same is not None and a[0].size == b[0].size and same(a, b):
                skipped[t] = True
                continue
            values[t] = evaluate(_law(a), _law(b))
            if not np.isfinite(values[t]):
                break
    bad = np.flatnonzero(~(skipped | np.isfinite(values)))
    if bad.size or skipped.all():  # the first non-finite trial, or none evaluated
        pair = tuple(map(_law, pairs[bad[0]])) if bad.size else ()
        return MonotonicityReport(condition, trials, float("nan"), pair, "inconclusive")
    values[skipped] = np.inf
    best = int(np.argmin(values))
    min_value = float(values[best])
    ok = min_value > 0.0 if condition.endswith("-strict") else min_value >= 0.0
    return MonotonicityReport(
        condition, trials, min_value, tuple(map(_law, pairs[best])),
        "satisfied" if ok else "violated",
    )


def _same_law(a, b):
    """Whether equal-count laws have the same sorted samples, along the last axis."""
    return (np.sort(a[0]) == np.sort(b[0])).all(-1)


def _same_joint_law(a, b):
    """Whether equal-count joint laws agree once sorted by (x, z), along the last axis."""

    def by_x_then_z(law):
        order = np.lexsort(law[::-1])
        return [np.take_along_axis(part, order, -1) for part in law]

    (x_a, z_a), (x_b, z_b) = by_x_then_z(a), by_x_then_z(b)
    return ((x_a == x_b) & (z_a == z_b)).all(-1)


def check_V_monotone(potential, trials: int = 1000, rng_seed: int = 0) -> MonotonicityReport:
    """Probe the strict potential condition (< 0) over random ensemble pairs.

    ``min_value`` stores the minimum of the negated expression, so a
    satisfied verdict means every sampled pair gave a strictly negative raw
    expression.
    """
    _require_permutation_invariance(potential, rng_seed, "potential")
    return _run_check(
        "potential-strict", lambda a, b: -monotonicity_gap(potential, a, b), 1, trials,
        rng_seed, same=_same_law, stacks=getattr(potential, "stacks_laws", False),
    )


def check_psi_monotone(terminal, trials: int = 1000, rng_seed: int = 0) -> MonotonicityReport:
    """Probe the non-strict terminal condition (>= 0); min_value is the raw expression."""
    _require_permutation_invariance(terminal, rng_seed, "terminal cost")
    return _run_check(
        "terminal-nonstrict", lambda a, b: monotonicity_gap(terminal, a, b), 1, trials,
        rng_seed, same=None, stacks=getattr(terminal, "stacks_laws", False),
    )


def check_L_monotone(
    fam: HamiltonianFamily, trials: int = 1000, rng_seed: int = 0
) -> MonotonicityReport:
    """Probe the strict joint-law condition on L over paired-ensemble pairs."""
    report = _run_check(
        "lagrangian-strict", lambda a, b: lagrangian_monotonicity_gap(fam, a, b), 2, trials,
        rng_seed, same=_same_joint_law, stacks=getattr(fam, "stacks_laws", False),
    )
    if report.verdict == "violated" and report.min_value > -1e-12:
        # every violation found is an exact tie, which is the degenerate case
        # covered by the weaker "equality forces identical costs" condition
        note = "only exact equalities found; compatible with the equality-fallback condition"
        report = replace(report, note=note)
    return report


def second_derivative_form(
    fam: HamiltonianFamily,
    probe_point,
    directions,
    step: float = 1e-4,
) -> float:
    """Quadratic form behind the curvature reformulation of the L condition.

    Evaluates E[Z D2_vZ L Z + Y D2_xX L Y + Z D2_vX L Y + Y D2_xZ L Z] at a
    probe (x, v, X, Z) along direction ensembles (Y, Z), with the ensemble
    slots differentiated in the Gateaux sense.  Positivity over random
    directions supports uniqueness.
    """
    x, v, x_ens, z_ens = probe_point
    y_dir, z_dir = directions
    x = float(x)
    v = float(v)

    def lag(dx, dv, eps_x, eps_z):
        xs = Ensemble(x_ens.samples + eps_x * y_dir.samples, q=x_ens.q)
        zs = Ensemble(z_ens.samples + eps_z * z_dir.samples, q=z_ens.q)
        return float(fam.lagrangian(x + dx, v + dv, xs, zs))

    def mixed(point_slot: str, ens_slot: str, h: float) -> float:
        def at(sp, se):
            dx, dv = (sp, 0.0) if point_slot == "x" else (0.0, sp)
            ex, ez = (se, 0.0) if ens_slot == "X" else (0.0, se)
            return lag(dx, dv, ex, ez)

        return (at(h, h) - at(h, -h) - at(-h, h) + at(-h, -h)) / (4.0 * h * h)

    # evaluate the four blocks at two steps for a smoothness cross-check
    def full(h: float) -> float:
        ey = float(y_dir.samples.mean())
        ez = float(z_dir.samples.mean())
        return (
            ez * mixed("v", "Z", h)
            + ey * mixed("x", "X", h)
            + ez * mixed("v", "X", h)
            + ey * mixed("x", "Z", h)
        )

    coarse = full(step)
    fine = full(0.5 * step)
    if not (np.isfinite(coarse) and np.isfinite(fine)):
        raise NonSmoothProbeError("finite differences produced non-finite values at probe")
    if abs(coarse - fine) > max(1e-5, 0.05 * abs(fine)):
        raise NonSmoothProbeError(
            f"finite-difference estimates disagree ({coarse:.6g} vs {fine:.6g}); "
            "Lagrangian appears non-smooth at the probe"
        )
    return fine
