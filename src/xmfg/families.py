"""Hamiltonian/Lagrangian families with law-dependent coupling.

Every family exposes the convex-dual pair (L, H), the terminal cost, and the
pieces the solvers need: D_pH for the self-consistent velocity equation
Z = -D_pH(x, p, Y, Z), D_xH for the costate sweep, and the control-to-speed
map of the player dynamics.  Law arguments are :class:`Ensemble` objects and
enter only through empirical expectations, so evaluations are invariant under
sample permutation by construction.

The spatial state is scalar: the grid solver and the worked families are
one-dimensional.  Ensembles of higher dimension are accepted by the generic
potential evaluators for diagnostic use.
"""

from __future__ import annotations

import numpy as np

from .ensembles import Ensemble
from .errors import (
    ContractionFailureError,
    SingularCouplingError,
    UnsupportedDimensionError,
)

__all__ = [
    "HamiltonianFamily",
    "QuadraticCoupledFamily",
    "LQFamily",
    "QuarticFamily",
    "CustomVelocityFamily",
    "ZeroPotential",
    "MomentQuadraticPotential",
    "QuadraticFormPotential",
    "QuadraticTerminal",
    "LinearTerminal",
    "QuarticTerminal",
    "ZeroCoupling",
    "MeanSquareVelocityCoupling",
    "solve_velocity",
]

_FD_STEP = 1e-6


def as_coefficient(value):
    """Wrap a constant as an ensemble-coefficient map; pass callables through."""
    if callable(value):
        return value
    const = float(value)
    return lambda ens: const


# ---------------------------------------------------------------------------
# potentials and terminals: __call__(x, ens) and gradient(x, ens), law-dependent
# through expectations
# ---------------------------------------------------------------------------


class ZeroPotential:
    def __call__(self, x, ens: Ensemble):
        return np.zeros_like(np.asarray(x, dtype=float))

    def gradient(self, x, ens: Ensemble):
        return np.zeros_like(np.asarray(x, dtype=float))


class MomentQuadraticPotential:
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
        samples = ens.samples[:, 0] if ens.dim == 1 else ens.samples
        n = ens.n
        mean = np.add.reduce(samples) / n
        spread = samples - mean
        residual = np.add.reduce(spread) / n  # EX = mean + residual
        spread -= residual
        spread *= spread
        variance = np.add.reduce(spread.ravel()) / n  # E|X - EX|^2
        gap = (x - mean) - residual
        gap *= gap
        if ens.dim > 1:
            gap = np.add.reduce(gap, axis=-1)
        return self.scale * (gap + variance)

    def gradient(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        if ens.dim == 1:
            return 2.0 * self.scale * (x - ens.mean_scalar())
        return 2.0 * self.scale * (x - ens.mean())


class QuadraticFormPotential:
    """V(x, X) = a(X)/2 x^2 + b(X) x + c(X) with scalar coefficient maps."""

    def __init__(self, a=0.0, b=0.0, c=0.0):
        self.a = as_coefficient(a)
        self.b = as_coefficient(b)
        self.c = as_coefficient(c)

    def __call__(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.a(ens) * x**2 + self.b(ens) * x + self.c(ens)

    def gradient(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return self.a(ens) * x + self.b(ens)


class QuadraticTerminal:
    """psi(x, X) = m(X)/2 x^2 + n(X) x + q0(X)."""

    def __init__(self, m=0.0, n=0.0, q0=0.0):
        self.m = as_coefficient(m)
        self.n = as_coefficient(n)
        self.q0 = as_coefficient(q0)

    def __call__(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.m(ens) * x**2 + self.n(ens) * x + self.q0(ens)

    def gradient(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return self.m(ens) * x + self.n(ens)


class LinearTerminal:
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
        self.a = as_coefficient(a)
        self.b = as_coefficient(b)

    def __call__(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return self.a(ens) * x**4 + self.b(ens)

    def gradient(self, x, ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return 4.0 * self.a(ens) * x**3


class ZeroCoupling:
    """U(X, Z) = 0."""

    def __call__(self, x_ens: Ensemble, z_ens: Ensemble) -> float:
        return 0.0


class MeanSquareVelocityCoupling:
    """U(X, Z) = scale * E|Z|^2."""

    def __init__(self, scale: float = 1.0):
        self.scale = float(scale)

    def __call__(self, x_ens: Ensemble, z_ens: Ensemble) -> float:
        return self.scale * z_ens.moment(2.0)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class HamiltonianFamily:
    """Base interface; concrete families fill in L, H and the derivatives."""

    beta = 0.0

    def lagrangian(self, x, v, x_ens: Ensemble, z_ens: Ensemble):
        raise NotImplementedError

    def hamiltonian(self, x, p, x_ens: Ensemble, z_ens: Ensemble):
        raise NotImplementedError

    def potential(self, x, x_ens: Ensemble):
        return np.zeros_like(np.asarray(x, dtype=float))

    def terminal(self, x, x_ens: Ensemble):
        raise NotImplementedError

    def terminal_gradient(self, x, x_ens: Ensemble):
        x = np.asarray(x, dtype=float)
        h = _FD_STEP
        return (self.terminal(x + h, x_ens) - self.terminal(x - h, x_ens)) / (2 * h)

    def dp_hamiltonian(self, x, p, y_ens: Ensemble, z_ens: Ensemble):
        raise NotImplementedError

    def dx_hamiltonian(self, x, p, x_ens: Ensemble, z_ens: Ensemble):
        raise NotImplementedError

    def control_cost(self, x, x_ens: Ensemble, z_ens: Ensemble):
        """(b, c) with L(x, v, X, Z) = v^2/2 + b v + c: what the backward sweep needs."""
        raise NotImplementedError

    def control_speed(self, x, v):
        """Player dynamics dx/dt = f(x, v), linear in v; identity unless overridden."""
        del x
        return np.asarray(v, dtype=float)

    def velocity_closed_form(self, x, p: np.ndarray, y_ens: Ensemble):
        """Samplewise solution of Z = -D_pH, or None to use iteration."""
        return None


class QuadraticCoupledFamily(HamiltonianFamily):
    """H(x,p,X,Z) = |beta EZ + p|^2 / 2 + V(x,X), the mean-velocity coupling.

    The dual running cost is L(x,v,X,Z) = |v|^2/2 + beta v EZ - V(x,X): for
    beta > 0 it rewards moving against the population's mean velocity.
    """

    def __init__(self, beta: float = 0.0, potential=None, terminal=None):
        self.beta = float(beta)
        self._potential = potential if potential is not None else ZeroPotential()
        self._terminal = terminal if terminal is not None else ZeroPotential()

    def potential(self, x, x_ens: Ensemble):
        return self._potential(x, x_ens)

    def potential_gradient(self, x, x_ens: Ensemble):
        return self._potential.gradient(x, x_ens)

    def terminal(self, x, x_ens: Ensemble):
        return self._terminal(x, x_ens)

    def terminal_gradient(self, x, x_ens: Ensemble):
        return self._terminal.gradient(x, x_ens)

    def lagrangian(self, x, v, x_ens: Ensemble, z_ens: Ensemble):
        v = np.asarray(v, dtype=float)
        ez = z_ens.mean_scalar()
        return 0.5 * v**2 + self.beta * v * ez - self.potential(x, x_ens)

    def control_cost(self, x, x_ens: Ensemble, z_ens: Ensemble):
        return self.beta * z_ens.mean_scalar(), -self.potential(x, x_ens)

    def hamiltonian(self, x, p, x_ens: Ensemble, z_ens: Ensemble):
        p = np.asarray(p, dtype=float)
        ez = z_ens.mean_scalar()
        return 0.5 * (self.beta * ez + p) ** 2 + self.potential(x, x_ens)

    def dp_hamiltonian(self, x, p, y_ens: Ensemble, z_ens: Ensemble):
        return np.asarray(p, dtype=float) + self.beta * z_ens.mean_scalar()

    def dx_hamiltonian(self, x, p, x_ens: Ensemble, z_ens: Ensemble):
        return self.potential_gradient(x, x_ens)

    def velocity_closed_form(self, x, p: np.ndarray, y_ens: Ensemble):
        # Z = -beta EZ - P gives EZ = -EP/(1+beta), hence the mean correction.
        if self.beta == -1.0:
            raise SingularCouplingError(
                "velocity equation Z = -beta EZ - P is singular at beta = -1"
            )
        return self.beta / (1.0 + self.beta) * (np.add.reduce(p) / p.shape[0]) - p


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
            terminal=QuadraticTerminal(m, n, q0),
        )


class QuarticFamily(HamiltonianFamily):
    """Quartic value structure under the state-scaled dynamics dx/dt = v/x.

    L(x,v,X,Z) = |v|^2/2 + x^4 + U(X,Z), psi(x,X) = a(X) x^4 + b(X), giving
    H(x,p,X,Z) = |p|^2/(2 x^2) - x^4 - U(X,Z).  The coupling U is a pure
    additive cost, so D_pH is Z-free and the velocity equation is explicit.
    Only x bounded away from 0 is supported.
    """

    def __init__(self, a, b=0.0, coupling=None):
        self._terminal = QuarticTerminal(a, b)
        self.coupling = coupling if coupling is not None else ZeroCoupling()

    def terminal(self, x, x_ens: Ensemble):
        return self._terminal(x, x_ens)

    def terminal_gradient(self, x, x_ens: Ensemble):
        return self._terminal.gradient(x, x_ens)

    def lagrangian(self, x, v, x_ens: Ensemble, z_ens: Ensemble):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return 0.5 * v**2 + x**4 + self.coupling(x_ens, z_ens)

    def control_cost(self, x, x_ens: Ensemble, z_ens: Ensemble):
        return 0.0, np.asarray(x, dtype=float) ** 4 + self.coupling(x_ens, z_ens)

    def hamiltonian(self, x, p, x_ens: Ensemble, z_ens: Ensemble):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        return 0.5 * p**2 / x**2 - x**4 - self.coupling(x_ens, z_ens)

    def dp_hamiltonian(self, x, p, y_ens: Ensemble, z_ens: Ensemble):
        x = np.asarray(x, dtype=float)
        return np.asarray(p, dtype=float) / x**2

    def dx_hamiltonian(self, x, p, x_ens: Ensemble, z_ens: Ensemble):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        return -(p**2) / x**3 - 4.0 * x**3

    def control_speed(self, x, v):
        return np.asarray(v, dtype=float) / np.asarray(x, dtype=float)

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
        self._terminal = terminal if terminal is not None else ZeroPotential()

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

    def terminal(self, x, x_ens: Ensemble):
        return self._terminal(x, x_ens)


# ---------------------------------------------------------------------------
# velocity equation Z = -D_pH(x, p, Y, Z)
# ---------------------------------------------------------------------------


def solve_velocity(
    fam: HamiltonianFamily,
    x,
    p_ensemble: Ensemble,
    y: Ensemble,
    tol: float = 1e-12,
    max_iter: int = 200,
    return_info: bool = False,
):
    """Solve the self-consistent velocity equation Z = -D_pH(x, p, Y, Z).

    ``x`` may be a single point or a per-sample array aligned with the
    costate ensemble.  Families with an explicit solution short-circuit; the
    rest run the fixed-point iteration Z_{k+1} = -D_pH(x, p, Y, Z_k) from
    Z_0 = -p, which converges geometrically when D_pH contracts in Z.  The
    returned ensemble satisfies ||Z + D_pH(x, p, Y, Z)||_{L^q} <= 10 * tol;
    for a closed form that residual is computed only when ``return_info``
    asks for it.
    """
    if p_ensemble.dim != 1:
        raise UnsupportedDimensionError("velocity solver operates on 1-d ensembles")
    p = p_ensemble.samples[:, 0]
    q = p_ensemble.q
    closed = fam.velocity_closed_form(x, p, y)
    if closed is not None and not return_info:
        # unchecked: a non-finite closed form reaches the flow's per-step test
        return Ensemble._view(np.asarray(closed, dtype=float).reshape(-1, 1), q)
    x = np.broadcast_to(np.asarray(x, dtype=float), p.shape)

    def as_ensemble(z_arr):
        # unchecked: the iteration tests its iterates
        return Ensemble._view(z_arr.reshape(-1, 1), q)

    def residual_norm(z_arr):
        r = z_arr + np.asarray(fam.dp_hamiltonian(x, p, y, as_ensemble(z_arr)), dtype=float)
        return float(np.mean(np.abs(r) ** q) ** (1.0 / q))

    if closed is not None:
        z = np.asarray(closed, dtype=float)
        info = {"iterations": 0, "step_norms": [], "rates": [], "residual": residual_norm(z)}
        return as_ensemble(z), info

    z = -p.copy()
    steps = []
    for k in range(max_iter):
        z_next = -np.asarray(fam.dp_hamiltonian(x, p, y, as_ensemble(z)), dtype=float)
        z_next = np.broadcast_to(z_next, p.shape)
        if not np.all(np.isfinite(z_next)):
            raise ContractionFailureError(
                f"velocity iteration produced non-finite values at step {k}"
            )
        step = float(np.mean(np.abs(z_next - z) ** q) ** (1.0 / q))
        steps.append(step)
        z = z_next
        if step <= tol:
            break
    else:
        res = residual_norm(z)
        raise ContractionFailureError(
            f"velocity iteration did not reach tol={tol:g} in {max_iter} steps "
            f"(last residual {res:.3e})",
            residual=res,
        )
    res = residual_norm(z)
    if res > 10.0 * tol:
        raise ContractionFailureError(
            f"velocity iterate converged in step size but residual {res:.3e} "
            f"exceeds 10*tol={10 * tol:g}",
            residual=res,
        )
    rates = [b / a for a, b in zip(steps, steps[1:]) if a > 0]
    info = {"iterations": len(steps), "step_norms": steps, "rates": rates, "residual": res}
    out = as_ensemble(z)
    return (out, info) if return_info else out
