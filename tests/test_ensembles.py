import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmfg.ensembles import (
    Ensemble,
    PairedEnsemble,
    TrajectoryEnsemble,
    wasserstein_1d,
)

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
sample_lists = st.lists(finite, min_size=1, max_size=12)


def test_moment_symmetric_pair():
    assert Ensemble([1.0, -1.0]).moment(2.0) == pytest.approx(1.0, abs=0)


def test_moment_zero_sample():
    for r in (1.0, 2.0, 3.5):
        assert Ensemble([0.0]).moment(r) == 0.0


def test_moment_hand_sum():
    # (1 + 2 + 3) / 3
    assert Ensemble([1.0, 2.0, 3.0]).moment(1.0) == pytest.approx(2.0)


def test_mean_examples():
    assert Ensemble([1.0, 2.0, 3.0]).mean_scalar() == pytest.approx(2.0)
    assert Ensemble([[0.0], [2.0]]).mean_scalar() == pytest.approx(1.0)
    assert Ensemble([-5.0]).mean_scalar() == pytest.approx(-5.0)


def test_wasserstein_point_masses():
    assert wasserstein_1d(Ensemble([0.0]), Ensemble([1.0]), 1.0) == pytest.approx(1.0)


def test_wasserstein_identity():
    e = Ensemble([0.3, -1.2, 4.0])
    assert wasserstein_1d(e, e, 2.0) == 0.0


def test_wasserstein_sorted_coupling():
    # sorted coupling: ((|0-1|^2 + |2-3|^2) / 2) ** (1/2) = 1
    assert wasserstein_1d(Ensemble([0.0, 2.0]), Ensemble([1.0, 3.0]), 2.0) == pytest.approx(1.0)


def test_containers_reject_wider_samples_at_construction():
    wide = [[0.0, 0.0], [1.0, 1.0]]
    with pytest.raises(ValueError, match="shape"):
        Ensemble(wide)
    with pytest.raises(ValueError, match="shape"):
        Ensemble(np.zeros((2, 1, 1)))
    with pytest.raises(ValueError, match="shape"):
        PairedEnsemble(wide, wide)
    with pytest.raises(ValueError, match="shape"):
        TrajectoryEnsemble(np.linspace(0, 1, 3), np.zeros((3, 2, 2)), np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match="shape"):
        TrajectoryEnsemble(np.linspace(0, 1, 3), np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="one cell"):
        Ensemble.from_csv("x0\n1,2\n")
    # a scalar, a list and a column all become the same (N, 1) column
    assert Ensemble(1.5).samples.shape == (1, 1)
    np.testing.assert_array_equal(Ensemble([1.0, 2.0]).samples, Ensemble([[1.0], [2.0]]).samples)
    assert PairedEnsemble([1.0, 2.0], [[3.0], [4.0]]).z.shape == (2, 1)


def test_wasserstein_unequal_sizes_against_dense_quantile_oracle():
    rng = np.random.default_rng(7)
    a = Ensemble(rng.normal(size=5))
    b = Ensemble(rng.normal(size=8) + 0.5)
    r = 2.0
    # brute-force oracle: midpoint rule on the two empirical quantile functions
    thetas = (np.arange(2_000_000) + 0.5) / 2_000_000
    qa = a.sorted_1d()[np.minimum((thetas * a.n).astype(int), a.n - 1)]
    qb = b.sorted_1d()[np.minimum((thetas * b.n).astype(int), b.n - 1)]
    oracle = (np.mean(np.abs(qa - qb) ** r)) ** (1 / r)
    assert wasserstein_1d(a, b, r) == pytest.approx(oracle, rel=1e-5)


@settings(max_examples=40, deadline=None)
@given(sample_lists, st.sampled_from([1.0, 2.0, 3.0]))
def test_wasserstein_permutation_invariant(xs, r):
    e = Ensemble(xs)
    perm = np.random.default_rng(0).permutation(e.n)
    d = wasserstein_1d(e, e.permuted(perm), r)
    assert d <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([1.0, 2.0]))
def test_wasserstein_metric_properties(data, r):
    n = data.draw(st.integers(1, 8))
    fixed = st.lists(finite, min_size=n, max_size=n)
    a = Ensemble(data.draw(fixed))
    b = Ensemble(data.draw(fixed))
    c = Ensemble(data.draw(fixed))
    dab = wasserstein_1d(a, b, r)
    dba = wasserstein_1d(b, a, r)
    assert dab == pytest.approx(dba, abs=1e-12)
    assert wasserstein_1d(a, b, r) + wasserstein_1d(b, c, r) >= wasserstein_1d(a, c, r) - 1e-9
    if np.array_equal(a.sorted_1d(), b.sorted_1d()):
        assert dab == 0.0


def test_wasserstein_of_a_large_order_is_measured_in_units_of_the_largest_gap():
    # 0.2**1000 underflows and 1e10**100 overflows: the distance read 0.0 and
    # inf (with a RuntimeWarning) before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wasserstein_1d(Ensemble([0.0]), Ensemble([0.2]), r=1000) == 0.2
        assert wasserstein_1d(Ensemble([0.0]), Ensemble([1e10]), r=100) == 1e10
        assert wasserstein_1d(Ensemble([0.0, 1e10]), Ensemble([1e10, 0.0]), r=100) == 0.0
        # unequal counts: one gap of 0.2 (or 1e10) on a quantile cell of width 1/6
        a, b = Ensemble([0.0, 0.2]), Ensemble([0.0, 0.0, 0.2])
        assert wasserstein_1d(a, b, r=1000) == pytest.approx(0.2 * (1 / 6) ** 1e-3, rel=1e-14)
        a, b = Ensemble([0.0, 1e10]), Ensemble([0.0, 0.0, 1e10])
        assert wasserstein_1d(a, b, r=100) == pytest.approx(1e10 * (1 / 6) ** 1e-2, rel=1e-14)
        assert wasserstein_1d(a, b, r=1.0) == pytest.approx(1e10 / 6, rel=1e-14)


def test_wasserstein_of_samples_more_than_the_float_maximum_apart_stays_finite():
    # xs - ys overflowed to inf (with a RuntimeWarning) before the gaps were
    # rescaled; the halves' gaps, doubled, are the distance
    a, b = Ensemble([-1e308, 0.0, 0.0, 0.0]), Ensemble([1e308] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wasserstein_1d(a, b, r=1.0) == 1.25e308
        assert wasserstein_1d(a, b, r=2.0) == 1.3228756555322954e308
        # unequal counts: gaps of 2e308 on quantile cells of width 1/2, 1e308 on the rest
        a, b = Ensemble([-1e308, 0.0]), Ensemble([1e308] * 3)
        assert wasserstein_1d(a, b, r=1.0) == pytest.approx(1.5e308, rel=1e-14)
        assert wasserstein_1d(a, b, r=2.0) == pytest.approx(2.5**0.5 * 1e308, rel=1e-14)
        # a distance above the float maximum is inf, still without a warning
        assert wasserstein_1d(Ensemble([-1e308]), Ensemble([1e308])) == np.inf
        assert wasserstein_1d(Ensemble([-1e308]), Ensemble([1e308] * 3)) == np.inf


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble([np.nan])
    with pytest.raises(ValueError):
        Ensemble(np.zeros((0, 1)))


def test_a_law_carries_no_moment_exponent():
    # the exponent is the game's: ProblemSpec(..., q) (tests/test_mfg.py)
    states = np.zeros((2, 1, 1))
    for build in (
        lambda: Ensemble([1.0], q=2.0),
        lambda: PairedEnsemble([1.0], [0.0], q=2.0),
        lambda: TrajectoryEnsemble([0.0, 1.0], states, states, q=2.0),
    ):
        with pytest.raises(TypeError):
            build()


def test_ensemble_samples_frozen():
    e = Ensemble([1.0, 2.0])
    with pytest.raises(ValueError):
        e.samples[0, 0] = 5.0


def test_view_holds_a_read_only_source_as_it_is():
    source = np.arange(4.0)[:, None]
    source.flags.writeable = False
    assert Ensemble._view(source).samples is source
    writable = np.arange(4.0)[:, None]
    ens = Ensemble._view(writable)
    assert writable.flags.writeable and not ens.samples.flags.writeable
    assert np.shares_memory(ens.samples, writable)
    writable[0, 0] = -1.0  # the caller's buffer stays the caller's
    assert ens.samples[0, 0] == -1.0


def test_ensemble_csv_round_trip():
    e = Ensemble([[0.1], [-2.0], [1e-17], [3.5]])
    back = Ensemble.from_csv(e.to_csv())
    assert back.to_csv().splitlines()[0] == "x0"
    np.testing.assert_array_equal(back.samples, e.samples)


def test_paired_ensemble_csv_header_and_marginals():
    p = PairedEnsemble([[1.0], [2.0]], [[3.0], [4.0]])
    assert p.to_csv().splitlines()[0] == "x0,z0"
    np.testing.assert_array_equal(p.state().samples[:, 0], [1.0, 2.0])
    np.testing.assert_array_equal(p.velocity().samples[:, 0], [3.0, 4.0])
    with pytest.raises(ValueError):
        PairedEnsemble([[1.0]], [[1.0], [2.0]])


def test_paired_joint_permutation():
    p = PairedEnsemble([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    shuffled = p.permuted([2, 0, 1])
    np.testing.assert_array_equal(shuffled.x[:, 0], [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(shuffled.z[:, 0], [6.0, 4.0, 5.0])


def test_trajectory_validation_and_export():
    times = np.linspace(0, 1, 3)
    states = np.zeros((3, 2, 1))
    vel = np.ones_like(states)
    traj = TrajectoryEnsemble(times, states, vel)
    assert traj.steps == 2 and traj.n == 2
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,sample_index,x,v,p"
    assert len(lines) == 1 + 3 * 2
    with pytest.raises(ValueError):
        TrajectoryEnsemble(times, states, np.ones((3, 3, 1)))
    with pytest.raises(ValueError):
        TrajectoryEnsemble(times[:2], states, vel)


@pytest.mark.parametrize("path", ["states", "velocities", "costates"])
def test_trajectory_rejects_non_finite_paths(path):
    paths = {name: np.zeros((3, 2, 1)) for name in ("states", "velocities", "costates")}
    paths[path][1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TrajectoryEnsemble(np.linspace(0, 1, 3), **paths)


def test_trajectory_slices_are_read_only_views():
    states = np.arange(6.0).reshape(3, 2, 1)
    traj = TrajectoryEnsemble(np.linspace(0, 1, 3), states, states + 1.0, -states)
    for ens, path in (
        (traj.ensemble(1), traj.states),
        (traj.velocity_ensemble(1), traj.velocities),
        (traj.costate_ensemble(1), traj.costates),
    ):
        assert np.shares_memory(ens.samples, path)
        np.testing.assert_array_equal(ens.samples, path[1])
        with pytest.raises(ValueError):
            ens.samples[0, 0] = 5.0
