"""Hamiltonian/Lagrangian families with law-dependent coupling.

A family declares its running cost L(x, v, X, Z) = |v|^2/2 + b(X, Z) v -
W(x, X, Z) and its dynamics dx/dt = g(x) v once; the base class derives H,
D_pH for the velocity equation Z = -D_pH(x, p, Y, Z) and D_xH for the costate
flow.  Cost objects carry ``__call__(x, ens)`` and ``gradient(x, ens)`` and
are plain family attributes.  Law arguments are :class:`Ensemble` objects and
enter only through empirical expectations, so evaluations are invariant under
sample permutation by construction.  The spatial state is scalar.

A cost whose ``stacks_laws`` is true also takes a (B, N, 1) stack of laws with
(B, P) or (P,) points, with the bits of B single-law calls: law statistics
reduce along the last axis.  A user callable gets one law per call.  Velocities
keep the same bits: ``velocity_closed_form`` on (R, N) rows of x and p, and
the iterated :func:`solve_velocity` on a stack of R rows, give those of R
single-row calls.
"""

from __future__ import annotations

import numpy as np

from .ensembles import Ensemble
from .errors import ContractionFailureError, SingularCouplingError

__all__ = [
    "HamiltonianFamily",
    "QuadraticCoupledFamily",
    "LQFamily",
    "QuarticFamily",
    "CustomVelocityFamily",
    "ZeroPotential",
    "MomentQuadraticPotential",
    "QuadraticFormPotential",
    "LinearTerminal",
    "QuarticTerminal",
    "ZeroCoupling",
    "MeanSquareVelocityCoupling",
    "solve_velocity",
]


def as_coefficient(value):
    """Wrap a constant as an ensemble-coefficient map; pass callables through."""
    if callable(value):
        return value
    const = float(value)
    return lambda ens: const


class _StackedCost:
    """A cost that takes stacks of laws; one on coefficient maps decides per instance."""

    stacks_laws = True


def _per_law(stat):
    """A stack's (B,) law statistic as (B, 1), to broadcast over (B, P) points;
    one law's scalar stays a scalar."""
    return stat[..., None] if np.ndim(stat) else stat


# ---------------------------------------------------------------------------
# potentials and terminals: __call__(x, ens) and gradient(x, ens), law-dependent
# through expectations
# ---------------------------------------------------------------------------


class ZeroPotential(_StackedCost):
    def __call__(self, x, ens: Ensemble):
        return np.zeros_like(np.asarray(x, dtype=float))

    def gradient(self, x, ens: Ensemble):
        return np.zeros_like(np.asarray(x, dtype=float))


class MomentQuadraticPotential(_StackedCost):
    """V(x, X) = scale * E|x - X|^2, the workhorse interaction cost.

    Evaluated through centred moments, scale * (|x - EX|^2 + E|X - EX|^2),
    in O(|x| + N).  EX is carried as the rounded mean plus the mean of the
    samples' residuals about it, so x inside a tight cloud far from 0 keeps
    the accuracy of the direct average (the expanded x^2 - 2 x EX + E X^2
    would cancel catastrophically).
    """

    def __init__(self, scale: float = 1.0):
        self.scale = float(scale)

    def __call__(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        n = ens.n
        mean = _per_law(ens.mean())
        spread = ens.samples[..., 0] - mean
        residual = _per_law(np.add.reduce(spread, axis=-1) / n)  # EX = mean + residual
        spread -= residual
        spread *= spread
        variance = _per_law(np.add.reduce(spread, axis=-1) / n)  # E|X - EX|^2
        gap = (x - mean) - residual
        gap *= gap
        return self.scale * (gap + variance)

    def gradient(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return 2.0 * self.scale * (x - ens.mean_scalar())


class QuadraticFormPotential:
    """a(X)/2 x^2 + b(X) x + c(X) with scalar coefficient maps: a potential
    V(x, X), or a terminal cost psi(x, X) = m(X)/2 x^2 + n(X) x + q0(X)."""

    def __init__(self, a=0.0, b=0.0, c=0.0):
        self.stacks_laws = not any(map(callable, (a, b, c)))  # constants broadcast
        self.a = as_coefficient(a)
        self.b = as_coefficient(b)
        self.c = as_coefficient(c)

    def __call__(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.a(ens) * x**2 + self.b(ens) * x + self.c(ens)

    def gradient(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return self.a(ens) * x + self.b(ens)


class LinearTerminal(_StackedCost):
    def __init__(self, slope: float, offset: float = 0.0):
        self.slope = float(slope)
        self.offset = float(offset)

    def __call__(self, x, ens: Ensemble):
        return self.slope * np.asarray(x, dtype=float) + self.offset

    def gradient(self, x, ens: Ensemble):
        return np.full_like(np.asarray(x, dtype=float), self.slope)


class QuarticTerminal:
    """psi(x, X) = a(X) x^4 + b(X)."""

    def __init__(self, a, b=0.0):
        self.stacks_laws = not any(map(callable, (a, b)))  # constants broadcast
        self.a = as_coefficient(a)
        self.b = as_coefficient(b)

    def __call__(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return self.a(ens) * x**4 + self.b(ens)

    def gradient(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return 4.0 * self.a(ens) * x**3


class ZeroCoupling(_StackedCost):
    """U(X, Z) = 0."""

    def __call__(self, x_ens: Ensemble, z_ens: Ensemble) -> float:
        return 0.0


class MeanSquareVelocityCoupling(_StackedCost):
    """U(X, Z) = scale * E|Z|^2."""

    def __init__(self, scale: float = 1.0):
        self.scale = float(scale)

    def __call__(self, x_ens: Ensemble, z_ens: Ensemble):
        return self.scale * z_ens.moment(2.0)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class HamiltonianFamily:
    """Running cost L(x,v,X,Z) = |v|^2/2 + b(X,Z) v - W(x,X,Z) under dx/dt = g(x) v.

    A family declares the drift b (``drift``), the potential W with its
    x-gradient (``running_potential``, ``dx_running_potential``) and, for
    state-scaled dynamics, g with g' (``speed``, ``dx_speed``).  ``speed`` is
    None for the linear dynamics dx/dt = v.  The rest is derived here from the
    Legendre dual H = sup_v (-p g v - L), attained at v = -(b + p g):

        H = (b + p g)^2/2 + W,   D_pH = g (b + p g),   D_xH = D_xW + p g' (b + p g).

    b does not depend on x, and under linear dynamics D_xH is D_xW itself.
    """

    #: g(x) and g'(x) of state-scaled dynamics; None declares dx/dt = v
    speed = None
    dx_speed = None
    #: whether ``lagrangian`` takes stacks of laws (see the module docstring)
    stacks_laws = False

    def drift(self, x_ens: Ensemble, z_ens: Ensemble):
        """b(X, Z), the coefficient of v in L; 0 unless a family declares it."""
        return 0.0

    def running_potential(self, x, x_ens: Ensemble, z_ens: Ensemble):
        """W(x, X, Z), which L subtracts and H adds."""
        raise NotImplementedError

    def dx_running_potential(self, x, x_ens: Ensemble, z_ens: Ensemble):
        raise NotImplementedError

    def _require_running_cost(self):  # the backward sweep reads W: fail before any work
        if type(self).running_potential is HamiltonianFamily.running_potential:
            raise NotImplementedError(f"{type(self).__name__} declares no running_potential / "
                                      "dx_running_potential, which the backward sweep needs")

    def _shift(self, x, p, x_ens: Ensemble, z_ens: Ensemble):
        """(g, b + p g): the speed and the negated minimizing control."""
        g = 1.0 if self.speed is None else self.speed(x)
        return g, self.drift(x_ens, z_ens) + np.asarray(p, dtype=float) * g  # p * 1.0 is p

    def lagrangian(self, x, v, x_ens: Ensemble, z_ens: Ensemble):
        v = np.asarray(v, dtype=float)
        return 0.5 * v**2 + self.drift(x_ens, z_ens) * v - self.running_potential(x, x_ens, z_ens)

    def hamiltonian(self, x, p, x_ens: Ensemble, z_ens: Ensemble):
        _, shift = self._shift(x, p, x_ens, z_ens)
        return 0.5 * shift**2 + self.running_potential(x, x_ens, z_ens)

    def dp_hamiltonian(self, x, p, y_ens: Ensemble, z_ens: Ensemble):
        g, shift = self._shift(x, p, y_ens, z_ens)
        return g * shift

    def dx_hamiltonian(self, x, p, x_ens: Ensemble, z_ens: Ensemble):
        grad = self.dx_running_potential(x, x_ens, z_ens)
        if self.speed is None:  # g' = 0: the flow's costate rate is the gradient call alone
            return grad
        _, shift = self._shift(x, p, x_ens, z_ens)
        return grad + p * self.dx_speed(x) * shift

    def velocity_closed_form(self, x, p: np.ndarray, y_ens: Ensemble):
        """Samplewise solution of Z = -D_pH, or None to use iteration."""
        return None


class QuadraticCoupledFamily(HamiltonianFamily):
    """H(x,p,X,Z) = |beta EZ + p|^2 / 2 + V(x,X), the mean-velocity coupling.

    The running cost is L(x,v,X,Z) = |v|^2/2 + beta v EZ - V(x,X), so b =
    beta EZ and W = V under dx/dt = v: for beta > 0 it rewards moving against
    the population's mean velocity.
    """

    def __init__(self, beta: float = 0.0, potential=None, terminal=None):
        self.beta = float(beta)
        self.potential = potential if potential is not None else ZeroPotential()
        self.terminal = terminal if terminal is not None else ZeroPotential()
        self.stacks_laws = getattr(self.potential, "stacks_laws", False)

    def drift(self, x_ens: Ensemble, z_ens: Ensemble):
        return self.beta * _per_law(z_ens.mean())

    def running_potential(self, x, x_ens: Ensemble, z_ens: Ensemble):
        return self.potential(x, x_ens)

    def dx_running_potential(self, x, x_ens: Ensemble, z_ens: Ensemble):
        return self.potential.gradient(x, x_ens)

    def velocity_closed_form(self, x, p: np.ndarray, y_ens: Ensemble):
        # Z = -beta EZ - P gives EZ = -EP/(1+beta), hence the mean correction.
        if self.beta == -1.0:
            raise SingularCouplingError(
                "velocity equation Z = -beta EZ - P is singular at beta = -1"
            )
        mean = np.add.reduce(p, axis=-1, keepdims=True) / p.shape[-1]  # EP of each row of p
        return self.beta / (1.0 + self.beta) * mean - p


class LQFamily(QuadraticCoupledFamily):
    """Quadratic running and terminal costs with ensemble coefficient maps.

    H(x,p,Z) = |p + beta EZ|^2/2 + a(X)/2 x^2 + b(X) x + c(X) and
    psi(x,X) = m(X)/2 x^2 + n(X) x + q0(X); constants are accepted wherever a
    coefficient map is expected.
    """

    def __init__(self, beta=0.0, a=0.0, b=0.0, c=0.0, m=0.0, n=0.0, q0=0.0):
        super().__init__(
            beta=beta,
            potential=QuadraticFormPotential(a, b, c),
            terminal=QuadraticFormPotential(m, n, q0),
        )


class QuarticFamily(HamiltonianFamily):
    """Quartic value structure under the state-scaled dynamics dx/dt = v/x.

    L(x,v,X,Z) = |v|^2/2 + x^4 + U(X,Z), i.e. b = 0, W = -(x^4 + U) and
    g(x) = 1/x, and psi(x,X) = a(X) x^4 + b(X), giving
    H(x,p,X,Z) = |p|^2/(2 x^2) - x^4 - U(X,Z).  The coupling U is a pure
    additive cost, so D_pH is Z-free and the velocity equation is explicit.
    Only x bounded away from 0 is supported.
    """

    def __init__(self, a, b=0.0, coupling=None):
        self.terminal = QuarticTerminal(a, b)
        self.coupling = coupling if coupling is not None else ZeroCoupling()
        self.stacks_laws = getattr(self.coupling, "stacks_laws", False)

    def running_potential(self, x, x_ens: Ensemble, z_ens: Ensemble):
        return -(np.asarray(x, dtype=float) ** 4 + _per_law(self.coupling(x_ens, z_ens)))

    def dx_running_potential(self, x, x_ens: Ensemble, z_ens: Ensemble):
        return -4.0 * np.asarray(x, dtype=float) ** 3

    def speed(self, x):
        return 1.0 / np.asarray(x, dtype=float)

    def dx_speed(self, x):
        return -1.0 / np.asarray(x, dtype=float) ** 2

    def velocity_closed_form(self, x, p: np.ndarray, y_ens: Ensemble):
        return -p / np.asarray(x, dtype=float) ** 2


class CustomVelocityFamily(HamiltonianFamily):
    """User-supplied D_pH, solved for Z by fixed-point iteration.

    ``dp_h(x, p, y_ens, z_ens) -> array`` must contract in the Z slot so the
    velocity fixed point converges; ``solve_velocity(..., return_info=True)``
    returns the realized step ratios.
    """

    def __init__(self, dp_h, dx_h=None, lagrangian=None, terminal=None):
        self._dp_h = dp_h
        self._dx_h = dx_h
        self._lagrangian = lagrangian
        self.terminal = terminal if terminal is not None else ZeroPotential()

    def dp_hamiltonian(self, x, p, y_ens: Ensemble, z_ens: Ensemble):
        return self._dp_h(x, p, y_ens, z_ens)

    def dx_hamiltonian(self, x, p, x_ens: Ensemble, z_ens: Ensemble):
        if self._dx_h is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return self._dx_h(x, p, x_ens, z_ens)

    def lagrangian(self, x, v, x_ens: Ensemble, z_ens: Ensemble):
        if self._lagrangian is None:
            raise NotImplementedError("custom family declared no Lagrangian")
        return self._lagrangian(x, v, x_ens, z_ens)


# ---------------------------------------------------------------------------
# velocity equation Z = -D_pH(x, p, Y, Z)
# ---------------------------------------------------------------------------


#: RMS of the step at which the velocity iteration stops, and its step budget
VELOCITY_TOL = 1e-12
VELOCITY_MAX_ITER = 200


def solve_velocity(
    fam: HamiltonianFamily, x, p_ensemble: Ensemble, y: Ensemble, return_info: bool = False
):
    """Solve the self-consistent velocity equation Z = -D_pH(x, p, Y, Z).

    ``p_ensemble`` holds one law (N, 1) of costates or a stack (R, N, 1) of
    rows, ``y`` one law for every row or a stack of one per row, and ``x``
    broadcasts to the rows (..., N).  A closed form short-circuits; else
    Z_{k+1} = -D_pH(x, p, Y, Z_k) runs from Z_0 = -p on all rows together,
    with one D_pH call per iteration on the moving rows if the family
    ``stacks_laws`` and one per moving row if not.  A row's step and residual
    are RMS over its samples, whatever the game's moment exponent; it freezes
    once its step is at most VELOCITY_TOL, so it keeps the bits of its own
    solve.  Every row must then have RMS(Z + D_pH(x, p, Y, Z)) <= 10 *
    VELOCITY_TOL, and a row still moving after VELOCITY_MAX_ITER steps fails.
    A closed form's residual is computed only for ``return_info``, whose step
    norms and residual are the largest of the rows.
    """
    shape, p = p_ensemble.samples.shape, p_ensemble.samples[..., 0]
    closed = fam.velocity_closed_form(x, p, y)
    if closed is not None and not return_info:  # unchecked: the caller tests what it keeps
        return Ensemble._view(np.asarray(closed, dtype=float).reshape(shape))
    ps = p.reshape(-1, shape[-2])
    rows, n = ps.shape
    xs = np.broadcast_to(np.asarray(x, dtype=float), p.shape).reshape(rows, n)
    ys = np.broadcast_to(y.samples, (rows, *y.samples.shape[-2:]))  # Y has its own N

    def advance(active, z):
        """-D_pH on the rows ``active`` at their velocities z, and each row's step."""
        z_next = np.empty_like(z)  # one call on all the rows if the family stacks laws
        for i, z_i, out in [(active, z, z_next)] if fam.stacks_laws else zip(active, z, z_next):
            laws = Ensemble._view(ys[i]), Ensemble._view(z_i[..., None])  # unchecked views
            np.negative(fam.dp_hamiltonian(xs[i], ps[i], *laws), out=out)
        return z_next, (np.add.reduce(np.abs(z_next - z) ** 2.0, axis=-1) / n) ** 0.5

    everyone, steps = np.arange(rows), []
    if closed is not None:
        z = np.asarray(closed, dtype=float).reshape(rows, n)
    else:
        z, active = -ps, everyone
        for k in range(VELOCITY_MAX_ITER):
            z_next, step = advance(active, z[active])
            if not np.isfinite(z_next).all():
                raise ContractionFailureError(
                    f"velocity iteration produced non-finite values at step {k}"
                )
            steps.append(float(step.max()))
            z[active] = z_next
            active = active[step > VELOCITY_TOL]
            if not active.size:
                break
        else:
            res = float(advance(active, z[active])[1].max())
            raise ContractionFailureError(
                f"velocity iteration did not reach tol={VELOCITY_TOL:g} in {VELOCITY_MAX_ITER} "
                f"steps (last residual {res:.3e})",
                residual=res,
            )
    res = float(advance(everyone, z)[1].max())  # a residual is the size of the next step
    if closed is None and res > 10.0 * VELOCITY_TOL:
        raise ContractionFailureError(
            f"velocity iterate converged in step size but residual {res:.3e} "
            f"exceeds 10*tol={10 * VELOCITY_TOL:g}",
            residual=res,
        )
    rates = [b / a for a, b in zip(steps, steps[1:]) if a > 0]
    info = {"iterations": len(steps), "step_norms": steps, "rates": rates, "residual": res}
    out = Ensemble._view(z.reshape(shape))
    return (out, info) if return_info else out
