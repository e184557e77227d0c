"""Monte Carlo certification of the uniqueness (monotonicity) hypotheses.

Three sign conditions are probed over randomized ensemble pairs:

  * potential, strict:    E[V(X,X) - V(X,Xt) + V(Xt,Xt) - V(Xt,X)] < 0
  * terminal, non-strict: E[psi(X,X) - psi(X,Xt) + psi(Xt,Xt) - psi(Xt,X)] >= 0
  * Lagrangian, strict:   E[L(X,Z,X,Z) - L(Xt,Zt,X,Z)
                            + L(Xt,Zt,Xt,Zt) - L(X,Z,Xt,Zt)] > 0

Sampling cannot prove a universally quantified statement, so a "satisfied"
verdict means exactly "no violation found in `trials` samples"; a "violated"
verdict ships a certificate pair that reproduces the offending value.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    condition requires to stay positive (strict conditions) or nonnegative;
    the certificate pair attains it and re-evaluates to the same number.
    """

    condition: str
    trials: int
    min_value: float
    certificate: tuple
    verdict: str  # "satisfied" | "violated" | "inconclusive"
    strict: bool
    note: str = ""


def _split_means(values, n: int):
    """np.mean of values[:n] and of values[n:], bit for bit, without its wrapper."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:  # a cost that depends on the law only
        return values, values
    return np.add.reduce(values[:n]) / n, np.add.reduce(values[n:]) / (values.shape[0] - n)


def monotonicity_gap(potential, x_ens: Ensemble, xt_ens: Ensemble) -> float:
    """Raw pairing expression E[V(X,X) - V(X,Xt) + V(Xt,Xt) - V(Xt,X)].

    ``potential`` is pointwise in x, so each law is evaluated once on the
    stacked samples of both.
    """
    points = np.concatenate((x_ens.samples, xt_ens.samples))
    points = points[:, 0] if x_ens.dim == 1 else points
    x_on_x, xt_on_x = _split_means(potential(points, x_ens), x_ens.n)
    x_on_xt, xt_on_xt = _split_means(potential(points, xt_ens), x_ens.n)
    term = float(x_on_x - x_on_xt)
    term += float(xt_on_xt - xt_on_x)
    return term


def lagrangian_monotonicity_gap(
    fam: HamiltonianFamily, pair: PairedEnsemble, pair_t: PairedEnsemble
) -> float:
    """Raw pairing expression for the running cost over joint-law pairs.

    The Lagrangian is pointwise in (x, v), so each joint law is evaluated
    once on the stacked samples of both.
    """
    x = np.concatenate((pair.x[:, 0], pair_t.x[:, 0]))
    z = np.concatenate((pair.z[:, 0], pair_t.z[:, 0]))
    p_on_p, t_on_p = _split_means(fam.lagrangian(x, z, pair.state(), pair.velocity()), pair.n)
    p_on_t, t_on_t = _split_means(
        fam.lagrangian(x, z, pair_t.state(), pair_t.velocity()), pair.n
    )
    return float(p_on_p) - float(t_on_p) + float(t_on_t) - float(p_on_t)


def lmon_reduction_gap(
    fam: QuadraticCoupledFamily, pair: PairedEnsemble, pair_t: PairedEnsemble
) -> float:
    """|L-expression - (beta |EZ - EZt|^2 - V-expression)| for the quadratic family."""
    full = lagrangian_monotonicity_gap(fam, pair, pair_t)
    ez = pair.velocity().mean_scalar()
    ezt = pair_t.velocity().mean_scalar()
    v_gap = monotonicity_gap(fam.potential, pair.state(), pair_t.state())
    return abs(full - (fam.beta * (ez - ezt) ** 2 - v_gap))


def _law_dependence_spot_check(evaluator, dim: int, rng) -> bool:
    # a spread cloud, so that permuting samples is a real reordering
    ens = Ensemble(rng.normal(size=(8, dim)))
    probe = rng.normal(size=(5, dim))
    probe = probe[:, 0] if dim == 1 else probe
    before = np.asarray(evaluator(probe, ens), dtype=float)
    after = np.asarray(evaluator(probe, ens.permuted(rng.permutation(8))), dtype=float)
    return bool(np.allclose(before, after, atol=1e-10))


def _random_ensemble(rng, dim: int, n: int | None = None) -> Ensemble:
    n = _ENSEMBLE_SIZES[rng.integers(0, len(_ENSEMBLE_SIZES))] if n is None else n
    style = rng.integers(0, 3)
    if style == 0:  # point mass
        point = rng.uniform(-2.0, 2.0, size=dim)
        samples = np.full((n, dim), point)
    elif style == 1:  # uniform cloud
        center = rng.uniform(-2.0, 2.0, size=dim)
        samples = center + rng.uniform(-1.0, 1.0, size=(n, dim))
    else:  # two clusters
        centers = rng.uniform(-2.0, 2.0, size=(2, dim))
        pick = rng.integers(0, 2, size=n)
        samples = centers[pick] + 0.2 * rng.standard_normal((n, dim))
    return Ensemble._view(samples, 2.0)  # finite by construction


@np.errstate(all="ignore")  # a non-finite trial ends the check as inconclusive
def _run_check(condition, evaluate, sample_pair, trials, rng_seed, strict, skip_equal):
    rng = np.random.default_rng(rng_seed)
    min_value = np.inf
    certificate = None
    for _ in range(trials):
        a, b = sample_pair(rng)
        if skip_equal(a, b):
            continue
        value = evaluate(a, b)
        if not np.isfinite(value):
            return MonotonicityReport(condition, trials, float("nan"), (a, b), "inconclusive", strict)
        if value < min_value:
            min_value = float(value)
            certificate = (a, b)
    if certificate is None:
        return MonotonicityReport(condition, trials, float("nan"), (), "inconclusive", strict)
    ok = min_value > 0.0 if strict else min_value >= 0.0
    return MonotonicityReport(
        condition, trials, min_value, certificate, "satisfied" if ok else "violated", strict
    )


def check_V_monotone(
    potential, dim: int = 1, trials: int = 1000, rng_seed: int = 0
) -> MonotonicityReport:
    """Probe the strict potential condition (< 0) over random ensemble pairs.

    ``min_value`` stores the minimum of the negated expression, so a
    satisfied verdict means every sampled pair gave a strictly negative raw
    expression.
    """
    rng = np.random.default_rng(rng_seed + 987)
    if not _law_dependence_spot_check(potential, dim, rng):
        raise ValueError("potential is not law-dependent: permuting samples changed it")

    def sample(r):
        return _random_ensemble(r, dim), _random_ensemble(r, dim)

    def equal(a, b):
        return a.n == b.n and np.array_equal(np.sort(a.samples, 0), np.sort(b.samples, 0))

    return _run_check(
        "potential-strict",
        lambda a, b: -monotonicity_gap(potential, a, b),
        sample,
        trials,
        rng_seed,
        strict=True,
        skip_equal=equal,
    )


def check_psi_monotone(
    terminal, dim: int = 1, trials: int = 1000, rng_seed: int = 0
) -> MonotonicityReport:
    """Probe the non-strict terminal condition (>= 0); min_value is the raw expression."""
    rng = np.random.default_rng(rng_seed + 987)
    if not _law_dependence_spot_check(terminal, dim, rng):
        raise ValueError("terminal cost is not law-dependent: permuting samples changed it")

    def sample(r):
        return _random_ensemble(r, dim), _random_ensemble(r, dim)

    return _run_check(
        "terminal-nonstrict",
        lambda a, b: monotonicity_gap(terminal, a, b),
        sample,
        trials,
        rng_seed,
        strict=False,
        skip_equal=lambda a, b: False,
    )


def check_L_monotone(
    fam: HamiltonianFamily, trials: int = 1000, rng_seed: int = 0
) -> MonotonicityReport:
    """Probe the strict joint-law condition on L over paired-ensemble pairs."""

    def sample(r):
        def pair():  # unchecked, like the views of _random_ensemble
            n = _ENSEMBLE_SIZES[r.integers(0, len(_ENSEMBLE_SIZES))]
            x, z = _random_ensemble(r, 1, n).samples, _random_ensemble(r, 1, n).samples
            return PairedEnsemble._view(x, z, 2.0)

        return pair(), pair()

    def equal(a, b):
        if a.n != b.n:
            return False
        order_a = np.lexsort((a.z[:, 0], a.x[:, 0]))
        order_b = np.lexsort((b.z[:, 0], b.x[:, 0]))
        return np.array_equal(a.x[order_a], b.x[order_b]) and np.array_equal(
            a.z[order_a], b.z[order_b]
        )

    report = _run_check(
        "lagrangian-strict",
        lambda a, b: lagrangian_monotonicity_gap(fam, a, b),
        sample,
        trials,
        rng_seed,
        strict=True,
        skip_equal=equal,
    )
    if report.verdict == "violated" and report.min_value > -1e-12:
        # every violation found is an exact tie, which is the degenerate case
        # covered by the weaker "equality forces identical costs" condition
        report = MonotonicityReport(
            report.condition,
            report.trials,
            report.min_value,
            report.certificate,
            report.verdict,
            report.strict,
            note="only exact equalities found; compatible with the equality-fallback condition",
        )
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
