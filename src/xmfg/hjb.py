"""Backward semi-Lagrangian sweep for the frozen-coupling value equation.

Along a given population trajectory (X(t), X'(t)) the value function solves

    -u_t + H(x, u_x, X(t), X'(t)) = 0,   u(., T) = psi(., X(T)),

on a 1-d grid.  Each backward step minimizes over a finite control set

    u[m][i] = min_v  dt * L(x_i, v, X[m], V[m]) + I[u[m+1]](x_i + f(x_i, v) dt)

with piecewise-linear interpolation I clamped at the domain edges and ties
broken toward the smallest control index.  The scheme is monotone: raising
the terminal data can never lower any value.

The feet x_i + f(x_i, v) dt are fixed, so the interpolation stencil is built
once per sweep: rows sharing a cell shift read shifted slices, other rows are
gathered by cell index, and the values are ``np.interp``'s bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ensembles import TrajectoryEnsemble
from .errors import ControlSaturationError, DomainTooSmallError
from .families import HamiltonianFamily

logger = logging.getLogger(__name__)

__all__ = [
    "GridConfig",
    "ValueSlice",
    "AnalyticSlice",
    "ValueGrid",
    "solve_backward",
    "regularity_report",
    "RegularityReport",
]

#: a query call may clamp at most this fraction of its points before escalating
CLAMP_ESCALATION_FRACTION = 0.01
#: a query call escalates only if it has at least this many points
CLAMP_ESCALATION_FLOOR = 100
#: per-slice saturation threshold on core nodes
SATURATION_FRACTION = 0.01


@dataclass(frozen=True)
class GridConfig:
    """Spatial grid plus control-set discretization for the backward sweep.

    ``core_lo``/``core_hi`` mark the sub-interval whose values are considered
    authoritative; the belt outside it is sacrificial padding where the
    control box may pinch without invalidating the solve.  They default to
    the full domain.
    """

    x_lo: float
    x_hi: float
    nx: int
    nv: int
    v_max: float
    core_lo: float | None = None
    core_hi: float | None = None

    def __post_init__(self):
        if not (self.x_hi > self.x_lo):
            raise ValueError("grid requires x_hi > x_lo")
        if self.nx < 3 or self.nv < 2:
            raise ValueError("grid requires nx >= 3 and nv >= 2")
        if not (self.v_max > 0):
            raise ValueError("v_max must be positive")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.nx - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.nx)

    def controls(self) -> np.ndarray:
        return np.linspace(-self.v_max, self.v_max, self.nv)

    def core_interval(self) -> tuple[float, float]:
        lo = self.x_lo if self.core_lo is None else self.core_lo
        hi = self.x_hi if self.core_hi is None else self.core_hi
        return lo, hi


def _interp_clamped(xq, x: np.ndarray, y: np.ndarray, label: str):
    """``np.interp`` that judges each call on its own queries: a few outside
    the grid read the edge values, too many mean the domain is too small."""
    xq = np.asarray(xq, dtype=float)
    clamped = np.count_nonzero((xq < x[0]) | (xq > x[-1]))
    if clamped:
        if xq.size >= CLAMP_ESCALATION_FLOOR and clamped > CLAMP_ESCALATION_FRACTION * xq.size:
            raise DomainTooSmallError(
                f"{label}: {clamped}/{xq.size} queries fell outside the grid; "
                "enlarge the spatial domain"
            )
        logger.warning(
            "%s: %d/%d queries outside the grid, clamped to the edge", label, clamped, xq.size
        )
    return np.interp(xq, x, y)


def _central_gradient(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    g = np.empty_like(u)
    dx = x[1] - x[0]
    g[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2 * dx)
    g[..., 0] = (u[..., 1] - u[..., 0]) / dx
    g[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return g


@dataclass
class ValueSlice:
    """One time slice of the value function with its spatial gradient."""

    x: np.ndarray
    u: np.ndarray
    grad: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.grad is None:
            self.grad = _central_gradient(self.x, self.u)
        else:
            self.grad = np.asarray(self.grad, dtype=float)

    def value_at(self, xq):
        return _interp_clamped(xq, self.x, self.u, "value slice")

    def gradient_at(self, xq):
        return _interp_clamped(xq, self.x, self.grad, "value slice")


class AnalyticSlice:
    """Duck-typed value slice backed by callables; handy seed for the flow."""

    def __init__(self, gradient, value=None):
        self._gradient = gradient
        self._value = value

    def value_at(self, xq):
        if self._value is None:
            raise ValueError("analytic slice declared no value callable")
        return np.asarray(self._value(np.asarray(xq, dtype=float)), dtype=float)

    def gradient_at(self, xq):
        xq = np.asarray(xq, dtype=float)
        return np.broadcast_to(np.asarray(self._gradient(xq), dtype=float), xq.shape).copy()


@dataclass
class ValueGrid:
    """Value function and spatial gradient on the space-time grid."""

    config: GridConfig
    times: np.ndarray
    u: np.ndarray
    grad: np.ndarray

    def __post_init__(self):
        self.x = self.config.nodes()
        self.times = np.asarray(self.times, dtype=float)

    @property
    def horizon(self) -> float:
        return float(self.times[-1] - self.times[0])

    def time_slice(self, m: int) -> ValueSlice:
        return ValueSlice(self.x, self.u[m], self.grad[m])

    def value_at(self, xq, t_index: int):
        return _interp_clamped(xq, self.x, self.u[t_index], "value grid")

    def gradient_at(self, xq, t_index: int):
        return _interp_clamped(xq, self.x, self.grad[t_index], "value grid")


def _shift_stencil(x: np.ndarray, feet: np.ndarray):
    """``interp(y)``: ``np.interp(feet, x, y)`` bit for bit; the next call may overwrite it."""
    nv, nx = feet.shape
    j = np.clip(np.searchsorted(x, feet, "right") - 1, 0, nx - 2)  # x[j] <= foot < x[j+1]
    low, high = feet < x[0], feet >= x[-1]  # np.interp reads y[0], y[-1] there
    offset = np.where(low | high, 0.0, feet - x[j])  # NaN feet stay NaN, as np.interp's
    copy = low | high | (offset == 0.0)  # a node hit reads y[j], so -0.0 survives
    shift = np.median(j - np.arange(nx), axis=1).astype(int)  # row k: mostly cell i + s_k
    whole = np.any(~copy & (j != np.arange(nx) + shift[:, None]), axis=1)  # rows off their shift
    shift[whole] = nx  # such rows are read through their cells j, in blocks of their own
    copy = np.flatnonzero(copy)
    node = np.where(low, 0, np.where(high, nx - 1, j)).ravel()[copy]
    slope_pad, y_pad = np.zeros(3 * nx), np.zeros(3 * nx)  # |shift| < nx; only copies read pads
    slope, dx, out = slope_pad[nx : 2 * nx - 1], np.diff(x), np.empty((nv, nx))
    starts = np.flatnonzero(np.diff(shift, prepend=shift[0] - 1))  # rows of one shift
    blocks = [(k0, k1, nx + shift[k0]) for k0, k1 in zip(starts, [*starts[1:], nv])]

    def interp(y: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):  # np.interp raises no floating-point warnings
            np.divide(np.subtract(y[1:], y[:-1], out=slope), dx, out=slope)
            if not np.isfinite(slope).all():  # np.interp has a NaN fallback
                return np.interp(feet, x, y)
            y_pad[nx : 2 * nx] = y
            for k0, k1, a in blocks:
                if whole[k0]:
                    np.multiply(offset[k0:k1], slope.take(j[k0:k1]), out=out[k0:k1])
                    out[k0:k1] += y.take(j[k0:k1])
                else:
                    np.multiply(offset[k0:k1], slope_pad[a : a + nx], out=out[k0:k1])
                    out[k0:k1] += y_pad[a : a + nx]
            out.reshape(-1)[copy] = y[node]
        return out

    return interp


def solve_backward(
    fam: HamiltonianFamily, traj: TrajectoryEnsemble, cfg: GridConfig
) -> ValueGrid:
    """Backward semi-Lagrangian sweep along the frozen population trajectory.

    Raises :class:`ControlSaturationError` when the control argmin sits at
    +-v_max on more than 1% of the core nodes of any slice, which signals a
    control box too small for the problem.
    """
    x = cfg.nodes()
    controls = cfg.controls()
    steps = traj.steps
    dt = traj.dt
    u = np.empty((steps + 1, cfg.nx))
    u[steps] = fam.terminal(x, traj.ensemble(steps))

    interp = _shift_stencil(x, x[None, :] + dt * fam.control_speed(x[None, :], controls[:, None]))
    cost = np.empty((cfg.nv, cfg.nx))
    core_lo, core_hi = cfg.core_interval()
    core = (x >= core_lo) & (x <= core_hi)
    core[[0, -1]] = False
    n_core = max(int(np.count_nonzero(core)), 1)

    for m in range(steps - 1, -1, -1):
        x_ens = traj.ensemble(m)
        z_ens = traj.velocity_ensemble(m)
        running = fam.lagrangian(x[None, :], controls[:, None], x_ens, z_ens)
        np.multiply(running, dt, out=cost)
        cost += interp(u[m + 1])
        best = np.argmin(cost, axis=0)  # first minimum = smallest control
        u[m] = cost[best, np.arange(cfg.nx)]
        pinned = ((best == 0) | (best == cfg.nv - 1)) & core
        frac = np.count_nonzero(pinned) / n_core
        if frac > SATURATION_FRACTION:
            raise ControlSaturationError(
                f"control argmin pinned at +-v_max on {frac:.1%} of core nodes "
                f"at t={traj.times[m]:.4g}; increase v_max beyond {cfg.v_max:g}"
            )

    grad = _central_gradient(x, u)
    return ValueGrid(config=cfg, times=traj.times, u=u, grad=grad)


@dataclass(frozen=True)
class RegularityReport:
    """Discrete size, Lipschitz and semiconcavity constants of a value grid."""

    max_abs: float
    lip_const: float
    semiconcavity_const: float
    t1: float


def regularity_report(vg: ValueGrid, t1: float | None = None) -> RegularityReport:
    """Exact grid constants: sup |u|, max slope, max second difference / dx^2.

    The semiconcavity constant is evaluated on slices with t <= t1 (default
    0.9 of the horizon measured from the initial time), mirroring the fact
    that one-sided curvature bounds degenerate at the terminal time.
    """
    dx = vg.config.dx
    t0 = float(vg.times[0])
    if t1 is None:
        t1 = t0 + 0.9 * vg.horizon
    max_abs = float(np.max(np.abs(vg.u)))
    lip = float(np.max(np.abs(np.diff(vg.u, axis=1)))) / dx
    window = vg.times <= t1 + 1e-12
    if not np.any(window):
        window = vg.times == vg.times[0]
    uu = vg.u[window]
    second = (uu[:, 2:] + uu[:, :-2] - 2.0 * uu[:, 1:-1]) / dx**2
    return RegularityReport(
        max_abs=max_abs,
        lip_const=lip,
        semiconcavity_const=float(np.max(second)),
        t1=float(t1),
    )
