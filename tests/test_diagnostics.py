import numpy as np
import pytest

import xmfg.diagnostics as diagnostics
from xmfg.diagnostics import (
    check_L_monotone,
    check_psi_monotone,
    check_V_monotone,
    lagrangian_monotonicity_gap,
    lmon_reduction_gap,
    monotonicity_gap,
    second_derivative_form,
)
from xmfg.ensembles import Ensemble, PairedEnsemble
from xmfg.errors import NonSmoothProbeError
from xmfg.families import (
    CustomVelocityFamily,
    LinearTerminal,
    LQFamily,
    MeanSquareVelocityCoupling,
    MomentQuadraticPotential,
    QuadraticCoupledFamily,
    QuadraticFormPotential,
    QuarticFamily,
    QuarticTerminal,
    ZeroPotential,
)

POINT_0 = Ensemble([0.0])
POINT_1 = Ensemble([1.0])


def test_gap_attractive_interaction():
    # V(x, X) = E|x-X|^2 on the pair (X=0, Xt=1): 0 - 1 + 0 - 1 = -2
    assert monotonicity_gap(MomentQuadraticPotential(1.0), POINT_0, POINT_1) == pytest.approx(-2.0)


def test_gap_sign_flip():
    assert monotonicity_gap(MomentQuadraticPotential(-1.0), POINT_0, POINT_1) == pytest.approx(2.0)


def test_gap_law_independent_potential_cancels():
    assert monotonicity_gap(QuadraticFormPotential(a=1.0, b=0.5), POINT_0, POINT_1) == 0.0


def test_check_v_monotone_satisfied():
    rep = check_V_monotone(MomentQuadraticPotential(1.0), trials=2000, rng_seed=5)
    assert rep.verdict == "satisfied"
    assert rep.min_value > 0.0


def test_check_v_monotone_violated_with_reproducible_certificate():
    potential = MomentQuadraticPotential(-1.0)
    rep = check_V_monotone(potential, trials=500, rng_seed=5)
    assert rep.verdict == "violated"
    a, b = rep.certificate
    again = -monotonicity_gap(potential, a, b)
    assert abs(again - rep.min_value) <= 1e-10


def test_check_v_monotone_law_independence_is_violation():
    # no dependence on the law: the expression vanishes, failing strictness
    rep = check_V_monotone(QuadraticFormPotential(a=1.0), trials=200, rng_seed=1)
    assert rep.verdict == "violated"
    assert rep.min_value == pytest.approx(0.0, abs=1e-12)


def test_check_psi_monotone_variants():
    # the pairing expression for s * E|x-X|^2 expands to -2 s (EX - EXt)^2,
    # so the repulsive sign (s < 0) meets the >= 0 condition and the
    # attractive sign is a counterexample
    good = check_psi_monotone(MomentQuadraticPotential(-1.0), trials=500, rng_seed=2)
    assert good.verdict == "satisfied"
    # constant-in-law terminal: expression is identically 0, >= 0 still holds
    flat = check_psi_monotone(QuadraticFormPotential(a=0.3), trials=200, rng_seed=2)
    assert flat.verdict == "satisfied"
    assert flat.min_value == pytest.approx(0.0, abs=1e-12)
    bad = check_psi_monotone(MomentQuadraticPotential(1.0), trials=500, rng_seed=2)
    assert bad.verdict == "violated"
    a, b = bad.certificate
    assert abs(monotonicity_gap(MomentQuadraticPotential(1.0), a, b) - bad.min_value) <= 1e-10


def test_psi_gap_matches_hand_expansion():
    # deterministic pair (X=0, Xt=1): 0 - 1 + 0 - 1 = -2 for +E|x-X|^2
    assert monotonicity_gap(MomentQuadraticPotential(1.0), POINT_0, POINT_1) == pytest.approx(-2.0)
    assert monotonicity_gap(MomentQuadraticPotential(-1.0), POINT_0, POINT_1) == pytest.approx(2.0)


def test_lagrangian_gap_mean_velocity_term():
    # beta |EZ - EZt|^2 with EZ=1, EZt=0 and identical states
    fam = QuadraticCoupledFamily(beta=1.0)
    pair = PairedEnsemble([0.5, -0.5], [1.0, 1.0])
    pair_t = PairedEnsemble([0.5, -0.5], [0.0, 0.0])
    assert lagrangian_monotonicity_gap(fam, pair, pair_t) == pytest.approx(1.0)


def test_lagrangian_gap_vanishes_without_coupling():
    fam = QuadraticCoupledFamily(beta=0.0)
    rep = check_L_monotone(fam, trials=300, rng_seed=9)
    assert rep.verdict == "violated"
    assert rep.min_value == pytest.approx(0.0, abs=1e-12)
    assert "equality" in rep.note


def test_lagrangian_gap_strictly_positive_with_both_mechanisms():
    fam = QuadraticCoupledFamily(beta=1.0, potential=MomentQuadraticPotential(1.0))
    rng = np.random.default_rng(3)
    for _ in range(50):
        pair = PairedEnsemble(rng.normal(size=4), rng.normal(size=4))
        pair_t = PairedEnsemble(rng.normal(size=4), rng.normal(size=4))
        assert lagrangian_monotonicity_gap(fam, pair, pair_t) > 0.0


def test_reduction_identity():
    fam = QuadraticCoupledFamily(beta=0.7, potential=MomentQuadraticPotential(0.4))
    rng = np.random.default_rng(17)
    for _ in range(100):
        n, m = rng.integers(1, 9), rng.integers(1, 9)
        pair = PairedEnsemble(rng.normal(size=n), rng.normal(size=n))
        pair_t = PairedEnsemble(rng.normal(size=m), rng.normal(size=m))
        assert lmon_reduction_gap(fam, pair, pair_t) <= 1e-10


def test_seeded_determinism():
    pot = MomentQuadraticPotential(1.0)
    a = check_V_monotone(pot, trials=300, rng_seed=42)
    b = check_V_monotone(pot, trials=300, rng_seed=42)
    assert a.min_value == b.min_value
    assert a.verdict == b.verdict
    np.testing.assert_array_equal(a.certificate[0].samples, b.certificate[0].samples)


def test_law_dependence_precondition():
    class Sneaky:
        def __call__(self, x, ens):
            return np.asarray(x, float) * ens.samples[0, 0]  # depends on ordering

    with pytest.raises(ValueError):
        check_V_monotone(Sneaky(), trials=10, rng_seed=0)


def test_second_derivative_form_mean_velocity_block():
    fam = QuadraticCoupledFamily(beta=1.0)
    probe = (0.0, 0.0, Ensemble([0.0, 0.0]), Ensemble([0.0, 0.0]))
    z_dir = Ensemble([1.0, 1.0])
    y_dir = Ensemble([0.0, 0.0])
    assert second_derivative_form(fam, probe, (y_dir, z_dir)) == pytest.approx(1.0, abs=1e-6)


def test_second_derivative_form_zero_direction():
    fam = QuadraticCoupledFamily(beta=1.0, potential=MomentQuadraticPotential(1.0))
    probe = (0.3, -0.2, Ensemble([0.1, 0.4]), Ensemble([0.2, 0.0]))
    zeros = Ensemble([0.0, 0.0])
    assert second_derivative_form(fam, probe, (zeros, zeros)) == pytest.approx(0.0, abs=1e-9)


def test_second_derivative_form_uncoupled():
    fam = QuadraticCoupledFamily(beta=0.0)
    probe = (0.0, 0.5, Ensemble([0.3, -0.3]), Ensemble([0.1, 0.1]))
    rng = np.random.default_rng(0)
    for _ in range(5):
        dirs = (Ensemble(rng.normal(size=2)), Ensemble(rng.normal(size=2)))
        assert second_derivative_form(fam, probe, dirs) == pytest.approx(0.0, abs=1e-8)


def test_second_derivative_form_detects_kink():
    step = 1e-4
    fam = CustomVelocityFamily(
        dp_h=lambda x, p, y, z: p,
        lagrangian=lambda x, v, X, Z: np.abs(v) * Z.mean_scalar(),
    )
    probe = (0.0, 0.6 * step, Ensemble([0.0]), Ensemble([0.0]))
    dirs = (Ensemble([0.0]), Ensemble([1.0]))
    with pytest.raises(NonSmoothProbeError):
        second_derivative_form(fam, probe, dirs, step=step)


# --- parity of the trial loop with the per-trial reference -----------------
#
# The reference below is the trial loop as it was written before the checks
# were made lean: rng.choice for the sizes, validated Ensemble and
# PairedEnsemble objects for every trial law, four evaluator calls per trial
# and np.mean.  The lean loop must reproduce its stream and its numbers.


def reference_ensemble(rng, n=None):
    n = int(rng.choice((1, 2, 8, 64))) if n is None else n
    style = rng.integers(0, 3)
    if style == 0:
        samples = np.tile(rng.uniform(-2.0, 2.0, size=1), (n, 1))
    elif style == 1:
        samples = rng.uniform(-2.0, 2.0, size=1) + rng.uniform(-1.0, 1.0, size=(n, 1))
    else:
        centers = rng.uniform(-2.0, 2.0, size=(2, 1))
        pick = rng.integers(0, 2, size=n)
        samples = centers[pick] + 0.2 * rng.standard_normal((n, 1))
    return Ensemble(samples)


def reference_gap(potential, a, b):
    x, xt = a.samples[:, 0], b.samples[:, 0]
    term = float(np.mean(potential(x, a)) - np.mean(potential(x, b)))
    term += float(np.mean(potential(xt, b)) - np.mean(potential(xt, a)))
    return term


def reference_lagrangian_gap(fam, pair, pair_t):
    def el(points, law):
        state, velocity = Ensemble(law.x, q=law.q), Ensemble(law.z, q=law.q)
        return float(np.mean(fam.lagrangian(points.x[:, 0], points.z[:, 0], state, velocity)))

    return el(pair, pair) - el(pair_t, pair) + el(pair_t, pair_t) - el(pair, pair_t)


def reference_paired(rng):
    n = int(rng.choice((1, 2, 8, 64)))
    return PairedEnsemble(reference_ensemble(rng, n).samples, reference_ensemble(rng, n).samples)


def reference_check(kind, evaluator, trials, seed):
    """(min_value, certificate, evaluated trials) of the reference loop."""
    rng = np.random.default_rng(seed)
    best, cert, evaluated = np.inf, None, []
    for _ in range(trials):
        if kind == "L":
            a, b = reference_paired(rng), reference_paired(rng)
            if a.n == b.n:
                oa, ob = np.lexsort((a.z[:, 0], a.x[:, 0])), np.lexsort((b.z[:, 0], b.x[:, 0]))
                if np.array_equal(a.x[oa], b.x[ob]) and np.array_equal(a.z[oa], b.z[ob]):
                    continue
            value = reference_lagrangian_gap(evaluator, a, b)
        else:
            a, b = reference_ensemble(rng), reference_ensemble(rng)
            if kind == "V":
                if a.n == b.n and np.array_equal(np.sort(a.samples, 0), np.sort(b.samples, 0)):
                    continue
                value = -reference_gap(evaluator, a, b)
            else:
                value = reference_gap(evaluator, a, b)
        evaluated.append((a, b, value))
        if value < best:
            best, cert = float(value), (a, b)
    return best, cert, evaluated


def certificate_bytes(cert):
    parts = []
    for law in cert:
        if isinstance(law, PairedEnsemble):
            parts += [law.x.tobytes(), law.z.tobytes()]
        else:
            parts.append(law.samples.tobytes())
    return parts


# explicit ids: each case keeps the name the suite reports it under
PARITY_CASES = [
    pytest.param("V", MomentQuadraticPotential(1.0), id="V-evaluator0-1"),
    pytest.param("V", MomentQuadraticPotential(-1.0), id="V-evaluator1-1"),
    pytest.param(
        "V",
        QuadraticFormPotential(a=1.0, b=lambda ens: -float(ens.samples.mean()), c=0.3),
        id="V-evaluator3-1",
    ),
    pytest.param(
        "psi",
        QuadraticFormPotential(a=1.0, b=lambda ens: 0.2 + float(ens.samples.mean())),
        id="psi-evaluator4-1",
    ),
    pytest.param("L", LQFamily(beta=0.5, b=0.3, m=1.0, n=0.2), id="L-evaluator5-1"),
    pytest.param(
        "L",
        QuadraticCoupledFamily(beta=0.5, potential=MomentQuadraticPotential(0.5)),
        id="L-evaluator6-1",
    ),
    # every other cost kind the CLI builds, each on the stacked path
    pytest.param("V", ZeroPotential(), id="V-zero"),
    pytest.param("V", QuadraticFormPotential(0.7, -0.4, 1.3), id="V-quadratic-form"),
    pytest.param("psi", QuadraticFormPotential(1.0, 0.2, 0.1), id="psi-quadratic"),
    pytest.param("psi", LinearTerminal(0.7, -0.4), id="psi-linear"),
    pytest.param("psi", QuarticTerminal(0.35, 0.1), id="psi-quartic"),
    pytest.param("psi", MomentQuadraticPotential(0.5), id="psi-moment-quadratic"),
    pytest.param("L", QuarticFamily(0.35), id="L-quartic-zero"),
    pytest.param(
        "L",
        QuarticFamily(0.35, coupling=MeanSquareVelocityCoupling(0.7)),
        id="L-quartic-mean-square-velocity",
    ),
]


@pytest.mark.parametrize("seed", [0, 7, 901])
@pytest.mark.parametrize("kind, evaluator", PARITY_CASES)
def test_check_matches_the_per_trial_reference(kind, evaluator, seed):
    trials = 300
    if kind == "V":
        rep = check_V_monotone(evaluator, trials=trials, rng_seed=seed)
    elif kind == "psi":
        rep = check_psi_monotone(evaluator, trials=trials, rng_seed=seed)
    else:
        rep = check_L_monotone(evaluator, trials=trials, rng_seed=seed)
    best, cert, evaluated = reference_check(kind, evaluator, trials, seed)
    assert rep.trials == trials
    assert rep.min_value == best
    strict = kind != "psi"
    ok = best > 0.0 if strict else best >= 0.0
    assert rep.verdict == ("satisfied" if ok else "violated")
    assert certificate_bytes(rep.certificate) == certificate_bytes(cert)
    # every trial value, not only the minimum, has the reference's bits
    for a, b, value in evaluated:
        if kind == "L":
            assert lagrangian_monotonicity_gap(evaluator, a, b) == value
        else:
            assert monotonicity_gap(evaluator, a, b) == (-value if kind == "V" else value)


# --- edge cases of the grouped evaluation ------------------------------------

CHECKS = {"V": check_V_monotone, "psi": check_psi_monotone, "L": check_L_monotone}


def one_law_at_a_time(kind, cost, calls=None):
    """The same cost behind a plain callable, which the checks evaluate per
    trial; each call appends its law's shape to ``calls``."""
    calls = [] if calls is None else calls

    def counted(x, *laws):
        calls.append(laws[-1].samples.shape)
        return (cost.lagrangian if kind == "L" else cost)(x, *laws)

    if kind == "L":
        return CustomVelocityFamily(lambda x, p, y, z: p, lagrangian=counted)
    return counted


def overflowing_costs(a, b):
    """The V, psi and L costs of an LQ game whose running or terminal cost overflows."""
    return {
        "V": QuadraticFormPotential(a, b),
        "psi": QuadraticFormPotential(a, b),
        "L": LQFamily(beta=0.5, a=a, b=b, m=1.0),
    }


# the costs of the two overflowing documents of the CLI tests, where the first
# trial overflows, and a milder one whose first overflow comes later in the run
# (V, psi and L: trials 13, 13 and 4 at seed 0; 0, 0 and 110 at seed 4)
OVERFLOWING = [
    pytest.param(overflowing_costs(1e308, -1e308), 20, id="document"),
    pytest.param(overflowing_costs(1.5e306, 0.0), 120, id="later"),
]


@pytest.mark.parametrize("per_law", [False, True], ids=["stacked", "per-law"])
@pytest.mark.parametrize("kind", ["V", "psi", "L"])
@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("costs, trials", OVERFLOWING)
def test_an_overflowing_trial_is_named_as_in_the_reference(costs, trials, seed, kind, per_law):
    cost = costs[kind]
    with np.errstate(all="ignore"):
        _, _, evaluated = reference_check(kind, cost, trials, seed)
    index, first = next((i, (a, b)) for i, (a, b, value) in enumerate(evaluated)
                        if not np.isfinite(value))
    calls = []
    checked = one_law_at_a_time(kind, cost, calls) if per_law else cost
    assert getattr(checked, "stacks_laws", False) is not per_law
    rep = CHECKS[kind](checked, trials=trials, rng_seed=seed)
    assert rep.verdict == "inconclusive" and np.isnan(rep.min_value)
    assert certificate_bytes(rep.certificate) == certificate_bytes(first)
    if per_law:  # one call per law up to the first non-finite trial, after the spot check's
        assert len(calls) == (0 if kind == "L" else 2) + 2 * (index + 1)
        assert all(len(shape) == 2 for shape in calls)


def script_draws(monkeypatch, laws):
    """Replace the random trial laws by ``laws``, each a list of sample lists
    (one for a law of X, two for a joint law of (X, Z))."""
    queue = iter(laws)
    monkeypatch.setattr(
        diagnostics, "_draw_law", lambda rng, parts: [np.array(part) for part in next(queue)]
    )


@pytest.mark.parametrize("per_law", [False, True], ids=["stacked", "per-law"])
def test_a_skipped_trial_is_not_inconclusive_even_when_it_overflows(monkeypatch, per_law):
    potential = MomentQuadraticPotential(1e308)
    # trial 0 pairs one law with itself, and its expression is inf - inf;
    # trial 1 is finite and becomes the certificate
    script_draws(monkeypatch, [[[0.0, 5.0]], [[5.0, 0.0]], [[0.0]], [[1e-150]]])
    checked = one_law_at_a_time("V", potential) if per_law else potential
    rep = check_V_monotone(checked, trials=2, rng_seed=0)
    assert rep.verdict == "satisfied" and rep.min_value == pytest.approx(2e8)
    assert certificate_bytes(rep.certificate) == [b"\0" * 8, np.array([1e-150]).tobytes()]
    # the same for joint laws: trial 1 pairs (0, 1), (5, 2) with itself, while
    # trial 0 pairs the same states with other velocities and is evaluated
    fam = QuadraticCoupledFamily(0.5, potential)
    script_draws(monkeypatch, [
        [[0.0, 5.0], [1.0, 2.0]], [[5.0, 0.0], [1.0, 2.0]],
        [[0.0, 5.0], [1.0, 2.0]], [[5.0, 0.0], [2.0, 1.0]],
    ])
    rep = check_L_monotone(one_law_at_a_time("L", fam) if per_law else fam, trials=2)
    assert rep.verdict == "inconclusive"
    assert certificate_bytes(rep.certificate)[3] == np.array([1.0, 2.0]).tobytes()
    script_draws(monkeypatch, [
        [[0.0, 5.0], [1.0, 2.0]], [[5.0, 0.0], [2.0, 1.0]], [[0.0], [0.0]], [[1e-150], [1.0]],
    ])
    rep = check_L_monotone(one_law_at_a_time("L", fam) if per_law else fam, trials=2)
    assert rep.verdict == "satisfied" and rep.min_value == pytest.approx(2e8)


@pytest.mark.parametrize("per_law", [False, True], ids=["stacked", "per-law"])
def test_a_run_with_no_evaluated_trial_is_inconclusive(monkeypatch, per_law):
    potential = MomentQuadraticPotential(1.0)
    checked = one_law_at_a_time("V", potential) if per_law else potential
    for kind, cost in (("V", checked), ("psi", checked), ("L", QuadraticCoupledFamily(0.5))):
        rep = CHECKS[kind](cost, trials=0, rng_seed=3)
        assert (rep.trials, rep.verdict, rep.certificate) == (0, "inconclusive", ())
        assert np.isnan(rep.min_value)
    script_draws(monkeypatch, [[[0.5, -1.0]], [[-1.0, 0.5]], [[2.0]], [[2.0]]])  # all skipped
    rep = check_V_monotone(checked, trials=2, rng_seed=0)
    assert (rep.trials, rep.verdict, rep.certificate) == (2, "inconclusive", ())
    assert np.isnan(rep.min_value)


def test_a_user_coefficient_map_sees_one_law_per_call():
    shapes = []

    def mean_shift(ens):
        shapes.append(ens.samples.shape)
        return -float(ens.samples.mean())

    potential = QuadraticFormPotential(a=1.0, b=mean_shift, c=0.3)  # as in V-evaluator3-1
    assert not potential.stacks_laws
    rep = check_V_monotone(potential, trials=200, rng_seed=1)
    assert rep.trials == 200
    # the spot check makes two calls, and each trial one per law
    assert len(shapes) == 2 + 2 * 200
    assert all(len(shape) == 2 and shape[1] == 1 for shape in shapes)
