import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmfg.cli import KINDS
from xmfg.ensembles import Ensemble
from xmfg.errors import ContractionFailureError, SingularCouplingError
from xmfg.families import (
    VELOCITY_TOL,
    CustomVelocityFamily,
    LinearTerminal,
    LQFamily,
    MeanSquareVelocityCoupling,
    MomentQuadraticPotential,
    QuadraticCoupledFamily,
    QuadraticFormPotential,
    QuarticFamily,
    QuarticTerminal,
    ZeroCoupling,
    ZeroPotential,
    solve_velocity,
)

deterministic = lambda v, n=4: Ensemble(np.full(n, float(v)))


def test_quadratic_hamiltonian_and_lagrangian_values():
    fam = QuadraticCoupledFamily(beta=2.0, potential=MomentQuadraticPotential(1.0))
    X = Ensemble([0.0, 2.0])
    Z = Ensemble([1.0, 3.0])  # EZ = 2
    # H = (beta EZ + p)^2 / 2 + E|x - X|^2 at x=1, p=0.5: (4.5)^2/2 + (1+1)/2
    assert fam.hamiltonian(1.0, 0.5, X, Z) == pytest.approx(4.5**2 / 2 + 1.0)
    # L = v^2/2 + beta v EZ - V at v=-1: 0.5 - 4 - 1
    assert fam.lagrangian(1.0, -1.0, X, Z) == pytest.approx(0.5 - 4.0 - 1.0)


def test_legendre_duality_numeric_sup():
    fam = QuadraticCoupledFamily(beta=0.7, potential=MomentQuadraticPotential(0.3))
    X = Ensemble([-1.0, 0.5, 2.0])
    Z = Ensemble([0.2, -0.4, 1.0])
    vgrid = np.linspace(-30, 30, 120001)
    for x, p in [(0.0, 0.0), (1.3, -2.0), (-0.7, 4.0)]:
        sup = np.max(-vgrid * p - fam.lagrangian(x, vgrid, X, Z))
        assert sup == pytest.approx(fam.hamiltonian(x, p, X, Z), abs=5e-7)


def test_quartic_legendre_duality_numeric_sup():
    # H = sup_v (-p g v - L) under dx/dt = g(x) v = v/x
    fam = QuarticFamily(0.4, coupling=MeanSquareVelocityCoupling(0.3))
    X = Ensemble([0.5, 1.0, 2.0])
    Z = Ensemble([0.2, -0.4, 1.0])
    vgrid = np.linspace(-30, 30, 120001)
    for x, p in [(0.5, 0.0), (1.3, -2.0), (0.7, 4.0), (2.0, 9.0)]:
        sup = np.max(-p * vgrid / x - fam.lagrangian(x, vgrid, X, Z))
        assert sup == pytest.approx(fam.hamiltonian(x, p, X, Z), abs=5e-7)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000))
def test_law_invariance_under_permutation(n, seed):
    rng = np.random.default_rng(seed)
    fam = QuadraticCoupledFamily(
        beta=0.5,
        potential=MomentQuadraticPotential(0.8),
        terminal=QuadraticFormPotential(a=lambda e: e.moment(2.0), b=0.3),
    )
    X = Ensemble(rng.normal(size=n))
    Z = Ensemble(rng.normal(size=n))
    perm = rng.permutation(n)
    Xp, Zp = X.permuted(perm), Z.permuted(perm)
    x, p, v = 0.4, -1.1, 0.9
    assert fam.hamiltonian(x, p, X, Z) == pytest.approx(
        fam.hamiltonian(x, p, Xp, Zp), abs=1e-12
    )
    assert fam.lagrangian(x, v, X, Z) == pytest.approx(
        fam.lagrangian(x, v, Xp, Zp), abs=1e-12
    )
    assert fam.terminal(x, X) == pytest.approx(fam.terminal(x, Xp), abs=1e-12)
    g = solve_velocity(fam, x, Z, X).samples
    gp = solve_velocity(fam, x, Zp, Xp).samples
    np.testing.assert_allclose(np.sort(g, 0), np.sort(gp, 0), atol=1e-12)


def test_terminal_lipschitz_estimate_within_declared():
    psi = QuadraticFormPotential(a=1.0, b=0.5)
    X = Ensemble([0.0])
    xs = np.linspace(-3, 3, 601)
    vals = psi(xs, X)
    est = np.max(np.abs(np.diff(vals))) / (xs[1] - xs[0])
    assert est <= 1.0 * 3 + 0.5 + 1e-9  # |m| sup|x| + |n|


def test_velocity_uncoupled_reduces_to_minus_p():
    fam = QuadraticCoupledFamily(beta=0.0)
    z = solve_velocity(fam, 0.0, deterministic(2.0), deterministic(0.0))
    np.testing.assert_allclose(z.samples, -2.0)


def test_velocity_coupled_deterministic():
    # Z = -beta EZ - P with beta=1, P=2: EZ = -1 so Z = 1 - 2 = -1; residual 0
    fam = QuadraticCoupledFamily(beta=1.0)
    z, info = solve_velocity(fam, 0.0, deterministic(2.0), deterministic(0.0), return_info=True)
    np.testing.assert_allclose(z.samples, -1.0)
    assert info["residual"] <= 1e-14


def test_velocity_custom_contraction():
    # solve Z = -(0.5 EZ + p) with p = 3: 1.5 EZ = -3, Z = -2
    fam = CustomVelocityFamily(lambda x, p, y, z: 0.5 * z.mean_scalar() + p)
    z, info = solve_velocity(fam, 0.0, deterministic(3.0), deterministic(0.0), return_info=True)
    np.testing.assert_allclose(z.samples, -2.0, atol=1e-11)
    assert info["residual"] <= 1e-11
    assert all(r <= 0.55 for r in info["rates"])


def test_the_velocity_iteration_stops_on_the_rms_of_its_step():
    # the game's moment exponent does not reach the iteration: with an L^1000
    # norm, mean(|step|**1000) underflowed and the iteration stopped after 3
    # steps at [-0.25, -1.25, -2.25] with residual 0
    iterates = []

    def dp_h(x, p, y, z):
        iterates.append(z.samples[:, 0].copy())
        return p + 0.5 * z.mean()

    p = Ensemble([1.0, 2.0, 3.0])
    z, info = solve_velocity(
        CustomVelocityFamily(dp_h), 0.0, p, Ensemble(np.zeros(3)), return_info=True
    )
    np.testing.assert_allclose(z.samples[:, 0], [-1 / 3, -4 / 3, -7 / 3], rtol=0, atol=1e-11)
    # the iterate each step starts from, then the last one, for the residual
    assert len(iterates) == info["iterations"] + 1
    rms = [np.sqrt(np.mean((b - a) ** 2)) for a, b in zip(iterates, iterates[1:])]
    assert info["step_norms"] == pytest.approx(rms, rel=1e-14, abs=0)
    assert info["step_norms"][-1] <= VELOCITY_TOL < info["step_norms"][-2]


def test_velocity_singular_coupling():
    fam = QuadraticCoupledFamily(beta=-1.0)
    with pytest.raises(SingularCouplingError):
        solve_velocity(fam, 0.0, deterministic(1.0), deterministic(0.0))


def test_velocity_contraction_failure_carries_residual():
    # expansion instead of contraction: iteration drifts and must fail loudly
    fam = CustomVelocityFamily(lambda x, p, y, z: 1.5 * z.mean_scalar() + p)
    with pytest.raises(ContractionFailureError) as err:
        solve_velocity(fam, 0.0, deterministic(1.0), deterministic(0.0))
    assert err.value.residual is None or err.value.residual > 0


def test_velocity_max_iter_too_small():
    fam = CustomVelocityFamily(lambda x, p, y, z: 0.99 * z.mean_scalar() + p)
    with pytest.raises(ContractionFailureError):
        solve_velocity(fam, 0.0, deterministic(1.0), deterministic(0.0))


class IteratedCoupled(QuadraticCoupledFamily):
    """Z = -(beta EZ + p) by iteration: a family that stacks laws, closed form hidden."""

    def velocity_closed_form(self, x, p, y_ens):
        return None


@pytest.mark.parametrize(
    "fam",
    [
        IteratedCoupled(beta=0.5),
        CustomVelocityFamily(lambda x, p, y, z: p + 0.3 * z.mean_scalar() + 0.1 * y.mean_scalar()),
    ],
)
@pytest.mark.parametrize("per_row_laws", [False, True])
def test_a_stack_of_rows_keeps_the_bits_of_its_single_row_solves(fam, per_row_laws):
    # rows converge at different iterations (the last is already a fixed point
    # of the uncoupled part), and a shared law may have its own sample count
    rng = np.random.default_rng(5)
    p = rng.normal(scale=[[1.0], [1e-3], [10.0], [0.0]], size=(4, 6))
    x = rng.uniform(-1, 1, (4, 6))
    y = rng.normal(size=(4, 6, 1)) if per_row_laws else rng.normal(size=(3, 1))
    z, info = solve_velocity(
        fam, x, Ensemble._view(p[..., None]), Ensemble._view(y), return_info=True
    )
    assert z.samples.shape == (4, 6, 1)
    singles = [
        solve_velocity(fam, x[r], Ensemble(p[r]), Ensemble(y[r] if per_row_laws else y),
                       return_info=True)
        for r in range(4)
    ]
    for r, (z_r, info_r) in enumerate(singles):
        np.testing.assert_array_equal(z.samples[r], z_r.samples)
    # the info of a stack follows its worst row
    assert info["iterations"] == max(i["iterations"] for _, i in singles)
    assert len({i["iterations"] for _, i in singles}) > 1
    assert info["residual"] == max(i["residual"] for _, i in singles) <= 10 * VELOCITY_TOL


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-0.9, 5.0, allow_nan=False).filter(lambda b: abs(1 + b) > 1e-6),
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=16),
)
def test_velocity_residual_property(beta, ps):
    fam = QuadraticCoupledFamily(beta=beta)
    P = Ensemble(ps)
    z = solve_velocity(fam, 0.0, P, Ensemble(np.zeros(len(ps))))
    resid = z.samples[:, 0] + fam.dp_hamiltonian(0.0, P.samples[:, 0], P, z)
    assert np.sqrt(np.mean(resid**2)) <= 1e-10


@pytest.mark.parametrize(
    "fam, x_lo",
    [
        (LQFamily(beta=0.5, a=1.0, b=0.3, m=1.0), -3.0),
        (LQFamily(beta=-0.5, b=0.3, m=1.0), -3.0),
        (QuarticFamily(0.4), 0.5),  # state-scaled: x away from 0
    ],
)
def test_closed_form_velocity_residual_on_request(fam, x_lo):
    # the closed form's residual is computed only when asked for; pin it here
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        x = rng.uniform(x_lo, 3.0, n)
        P = Ensemble(rng.normal(scale=3.0, size=n))
        z, info = solve_velocity(fam, x, P, Ensemble(x), return_info=True)
        assert info["iterations"] == 0
        assert info["residual"] <= 1e-12
        assert z.samples.shape == (n, 1)


def test_quartic_family_structure():
    fam = QuarticFamily(a=1.0, b=2.0)
    X = Ensemble([1.0])
    Z = Ensemble([0.0])
    # H = p^2 / (2 x^2) - x^4 - U at x=2, p=4: 16/8 - 16
    assert fam.hamiltonian(2.0, 4.0, X, Z) == pytest.approx(2.0 - 16.0)
    assert fam.dp_hamiltonian(2.0, 4.0, X, Z) == pytest.approx(1.0)
    assert fam.dx_hamiltonian(2.0, 4.0, X, Z) == pytest.approx(-16.0 / 8.0 - 32.0)
    assert fam.speed(2.0) * 3.0 == pytest.approx(1.5)  # dx/dt = v/x
    assert fam.terminal(2.0, X) == pytest.approx(16.0 + 2.0)
    z = solve_velocity(fam, 2.0, deterministic(4.0), X)
    np.testing.assert_allclose(z.samples, -1.0)


def test_lq_family_potential_is_quadratic_form():
    fam = LQFamily(beta=0.0, a=2.0, b=1.0, c=-0.5, m=1.0)
    X = Ensemble([0.0])
    assert fam.potential(3.0, X) == pytest.approx(0.5 * 2 * 9 + 3 - 0.5)
    assert fam.potential.gradient(3.0, X) == pytest.approx(2 * 3 + 1)
    assert fam.terminal(3.0, X) == pytest.approx(4.5)


def test_dx_hamiltonian_matches_potential_gradient():
    fam = QuadraticCoupledFamily(beta=0.3, potential=MomentQuadraticPotential(0.7))
    X = Ensemble([0.5, 1.5])
    Z = Ensemble([0.1, -0.1])
    xs = np.linspace(-2, 2, 7)
    np.testing.assert_allclose(
        fam.dx_hamiltonian(xs, 0.0, X, Z), 2 * 0.7 * (xs - 1.0), atol=1e-12
    )


def direct_moment_potential(scale, x, samples):
    # scale * E|x - X|^2 as the plain average over samples, O(|x| N)
    diff = x[:, None] - samples[:, 0]
    return scale * np.mean(diff**2, axis=-1)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 300),
    centre=st.floats(-1e3, 1e3),
    log_spread=st.one_of(st.none(), st.floats(-6.0, 1.0)),  # None: a point mass
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, -1.0, 0.5]),
)
def test_moment_potential_matches_the_direct_mean(n, centre, log_spread, seed, scale):
    rng = np.random.default_rng(seed)
    spread = 0.0 if log_spread is None else 10.0**log_spread
    samples = centre + spread * rng.standard_normal(n)
    # points on the samples, at the centre, within a few spreads, and far off
    x = np.concatenate(
        [
            samples[:5],
            [centre],
            centre + max(spread, 1e-6) * rng.standard_normal(8),
            rng.uniform(-10.0, 10.0, size=8),
        ]
    )
    ens = Ensemble(samples)
    got = MomentQuadraticPotential(scale)(x, ens)
    want = direct_moment_potential(scale, x, ens.samples)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_moment_potential_keeps_point_shapes():
    pot = MomentQuadraticPotential(2.0)
    line = Ensemble([0.0, 2.0])
    assert pot(1.0, line) == 2.0 * 1.0
    assert pot(np.zeros((3, 4)), line).shape == (3, 4)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 4099),
    exponent=st.integers(-5, 5),
    beta=st.sampled_from([-0.5, 0.0, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_wrapper_free_means_have_the_bits_of_np_mean(n, exponent, beta, seed):
    samples = 10.0**exponent * np.random.default_rng(seed).standard_normal(n)
    ens = Ensemble(samples)
    assert np.float64(ens.mean_scalar()).tobytes() == np.mean(samples).tobytes()
    fam = QuadraticCoupledFamily(beta)
    closed = fam.velocity_closed_form(samples, samples, ens)
    assert closed.tobytes() == (beta / (1.0 + beta) * samples.mean(axis=0) - samples).tobytes()


# --- stacks of laws: one call on B laws has the bits of B single-law calls --

#: every cost constructor the CLI builds, with constant parameters
STACK_COSTS = [
    pytest.param(slot, constructor(*(0.7, -0.4, 1.3)[: len(names)]), id=f"{family}-{slot}-{kind}")
    for family, slots in KINDS.items()
    for slot, kinds in slots.items()
    for kind, (constructor, names) in kinds.items()
]
STACK_FAMILIES = [
    pytest.param(QuadraticCoupledFamily(0.7), id="quadratic-zero"),
    pytest.param(
        QuadraticCoupledFamily(0.7, MomentQuadraticPotential(0.5)), id="quadratic-moment"
    ),
    pytest.param(LQFamily(0.5, a=0.7, b=-0.4, c=1.3, m=1.0), id="lq"),
    pytest.param(QuarticFamily(0.35), id="quartic-zero"),
    pytest.param(QuarticFamily(0.35, coupling=MeanSquareVelocityCoupling(0.7)), id="quartic-msv"),
]
STACK_SHAPES = pytest.mark.parametrize("laws, n", [(1, 1), (1, 8), (3, 1), (4, 2), (5, 64)])


def stack_of_laws(rng, laws, n):
    """A (laws, n, 1) stack of laws and the single laws it holds."""
    samples = rng.uniform(-2.0, 2.0, size=(laws, n, 1)) + rng.normal(size=(laws, 1, 1))
    return Ensemble._view(samples), [Ensemble(row) for row in samples]


def assert_rows_have_the_bits(stacked, singles):
    assert len(stacked) == len(singles)
    for row, single in zip(stacked, singles):
        assert np.asarray(row).tobytes() == np.asarray(single, dtype=float).tobytes()


@STACK_SHAPES
@pytest.mark.parametrize("slot, cost", STACK_COSTS)
def test_a_cost_on_a_stack_of_laws_has_the_bits_of_single_law_calls(slot, cost, laws, n):
    rng = np.random.default_rng(laws * 100 + n)
    assert cost.stacks_laws
    stack, singles = stack_of_laws(rng, laws, n)
    if isinstance(cost, (ZeroCoupling, MeanSquareVelocityCoupling)):  # U(X, Z)
        z_stack, z_singles = stack_of_laws(rng, laws, n)
        values = cost(stack, z_stack)
        expected = [cost(x, z) for x, z in zip(singles, z_singles)]
        assert all(np.shape(value) == () for value in expected)
        assert_rows_have_the_bits(np.broadcast_to(values, (laws,)), expected)
        return
    points = rng.uniform(-3.0, 3.0, size=(laws, n + 3))
    expected = [cost(row, law) for row, law in zip(points, singles)]
    assert all(np.shape(value) == (n + 3,) for value in expected)
    assert_rows_have_the_bits(cost(points, stack), expected)
    assert np.shape(cost(0.4, singles[0])) == ()  # a single point stays a scalar


@STACK_SHAPES
@pytest.mark.parametrize("fam", STACK_FAMILIES)
def test_a_lagrangian_on_a_stack_of_laws_has_the_bits_of_single_law_calls(fam, laws, n):
    rng = np.random.default_rng(laws * 100 + n)
    assert fam.stacks_laws
    x_stack, x_singles = stack_of_laws(rng, laws, n)
    z_stack, z_singles = stack_of_laws(rng, laws, n)
    x = rng.uniform(0.5, 1.5, size=(laws, 2 * n))
    v = rng.normal(size=(laws, 2 * n))
    expected = [fam.lagrangian(*args) for args in zip(x, v, x_singles, z_singles)]
    assert all(np.shape(value) == (2 * n,) for value in expected)
    assert_rows_have_the_bits(fam.lagrangian(x, v, x_stack, z_stack), expected)
    assert np.shape(fam.lagrangian(0.9, -0.3, x_singles[0], z_singles[0])) == ()


@STACK_SHAPES
def test_law_statistics_of_a_stack_are_the_single_law_statistics(laws, n):
    stack, singles = stack_of_laws(np.random.default_rng(n), laws, n)
    assert stack.n == n
    assert_rows_have_the_bits(stack.mean(), [law.mean_scalar() for law in singles])
    assert_rows_have_the_bits(stack.moment(2.0), [law.moment(2.0) for law in singles])
    assert np.shape(singles[0].mean()) == () and isinstance(singles[0].mean_scalar(), float)


def test_a_cost_on_coefficient_maps_takes_one_law_per_call():
    constant = QuadraticFormPotential(a=1.0, b=0.2)
    mapped = QuadraticFormPotential(a=1.0, b=lambda ens: ens.mean_scalar())
    assert constant.stacks_laws and not mapped.stacks_laws
    assert not QuarticTerminal(lambda ens: 1.0).stacks_laws
    assert not LQFamily(0.5, a=lambda ens: 1.0).stacks_laws
    assert not CustomVelocityFamily(lambda x, p, y, z: p).stacks_laws
    assert ZeroPotential().stacks_laws and LinearTerminal(1.0).stacks_laws


# --- the calls of the flow and the sweep on many rows of laws ---------------

CLOSED_FORMS = [
    pytest.param(QuadraticCoupledFamily(0.0), id="beta-0"),
    pytest.param(QuadraticCoupledFamily(0.5), id="beta-0.5"),
    pytest.param(QuadraticCoupledFamily(-0.5), id="beta--0.5"),
    pytest.param(QuarticFamily(0.35), id="quartic"),
]


@STACK_SHAPES
@pytest.mark.parametrize("fam", CLOSED_FORMS)
def test_a_closed_form_on_rows_has_the_bits_of_single_row_calls(fam, laws, n):
    # the flow solves the velocities of all rows inside its RK steps in one call
    rng = np.random.default_rng(laws * 100 + n)
    x_stack, _ = stack_of_laws(rng, laws, n)
    x = np.abs(x_stack.samples[..., 0]) + 0.5  # the state-scaled game keeps x > 0
    p = rng.normal(scale=2.0, size=(laws, n))
    y = Ensemble._view(x[..., None])
    expected = [
        fam.velocity_closed_form(x_r, p_r, Ensemble(x_r)) for x_r, p_r in zip(x, p)
    ]
    assert all(np.shape(z) == (n,) for z in expected)
    stacked = fam.velocity_closed_form(x, p, y)
    assert np.shape(stacked) == (laws, n)
    assert_rows_have_the_bits(stacked, expected)


#: the families the sweep builds from each running-cost kind of the CLI table
SWEPT_FAMILIES = [
    pytest.param(
        QuarticFamily(0.35, coupling=cost)
        if family == "quartic"
        else QuadraticCoupledFamily(0.7, cost),
        id=f"{family}-{kind}",
    )
    for family, slots in KINDS.items()
    for kind, (constructor, names) in slots["potential"].items()
    for cost in [constructor(*(0.7, -0.4, 1.3)[: len(names)])]
]


@STACK_SHAPES
@pytest.mark.parametrize("fam", SWEPT_FAMILIES)
def test_running_costs_at_the_sweep_call_shape_have_the_bits_of_single_law_calls(fam, laws, n):
    # the sweep reads b and W at its (nx,) nodes for the (B, N, 1) laws of its steps
    rng = np.random.default_rng(laws * 100 + n)
    assert fam.stacks_laws
    x_stack, x_singles = stack_of_laws(rng, laws, n)
    z_stack, z_singles = stack_of_laws(rng, laws, n)
    nodes = np.linspace(0.5, 2.5, 2 * n + 3)
    drift = np.broadcast_to(fam.drift(x_stack, z_stack), (laws, 1))
    potential = np.broadcast_to(fam.running_potential(nodes, x_stack, z_stack), (laws, nodes.size))
    singles = list(zip(x_singles, z_singles))
    assert_rows_have_the_bits(drift, [np.broadcast_to(fam.drift(*law), (1,)) for law in singles])
    expected = [
        np.broadcast_to(fam.running_potential(nodes, *law), nodes.shape) for law in singles
    ]
    assert_rows_have_the_bits(potential, expected)
