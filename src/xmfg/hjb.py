"""Backward semi-Lagrangian sweep for the frozen-coupling value equation.

Along a given population trajectory (X(t), X'(t)) the value function solves

    -u_t + H(x, u_x, X(t), X'(t)) = 0,   u(., T) = psi(., X(T)),

on a 1-d grid.  Each backward step, from row m + j to row m, minimizes over
the control box (h = j dt)

    u[m][i] = min_{|v| <= v_max}  h * L(x_i, v, X[m], V[m]) + I[u[m + j]](x_i + g(x_i) v h)

with piecewise-linear interpolation I clamped at the domain edges.  The
minimum is exact: the running cost is v^2/2 + b v - W (the family's
``drift`` and ``running_potential``) and the foot is linear in v, so on a
piece of I of slope s the objective is a convex quadratic minimized at
v = -(b + s g), clipped to the controls whose foot lands on that piece.  The
pieces each node reaches are found once per step length.  A step spans
j = k rows (:func:`sweep_stride`; the last, to row 0, may span fewer), so a
foot moves about ``COURANT_TARGET`` cells and the interpolation's diffusion
is paid once per k rows; the rows inside a step are linear blends in time of
its two ends.  The scheme is monotone: raising the terminal data can never
lower any value.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .ensembles import TrajectoryEnsemble
from .errors import ControlSaturationError, DomainTooSmallError, ValueBlowupError
from .families import HamiltonianFamily

logger = logging.getLogger(__name__)

__all__ = [
    "GridConfig",
    "ValueSlice",
    "AnalyticSlice",
    "ValueGrid",
    "solve_backward",
    "sweep_stride",
    "stride_rows",
    "step_holding",
    "regularity_report",
    "RegularityReport",
]

#: a query call may clamp at most this fraction of its points before escalating
CLAMP_ESCALATION_FRACTION = 0.01
#: a query call escalates only if it has at least this many points
CLAMP_ESCALATION_FLOOR = 100
#: per-slice saturation threshold on core nodes
SATURATION_FRACTION = 0.01
#: Courant number ``v_max h max|g| / dx`` a sweep step of length ``h = k dt`` aims for
COURANT_TARGET = 1.5


@dataclass(frozen=True)
class GridConfig:
    """Spatial grid and control box ``[-v_max, v_max]`` of the backward sweep.

    ``nv`` is validated (``nv >= 2``) but changes no number: the sweep
    minimizes over the whole box.  ``core_lo``/``core_hi`` mark the
    sub-interval whose values are considered authoritative; the belt outside
    it is sacrificial padding where the control box may pinch without
    invalidating the solve.  They default to the full domain.
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


def _exact_minimizer(x: np.ndarray, g, dt: float, v_max: float):
    """``step(y, b, w) -> (u, v)``: per node ``i``, the minimum over
    ``|v| <= v_max`` of ``dt (v^2/2 + b v - w) + I[y](x_i + dt g_i v)`` and
    the control that attains it.

    Piece ``p`` of the interpolation ``I`` spans ``[x[p], x[p + 1]]``; the
    edge pieces ``p = -1`` and ``p = nx - 1`` reach out to -inf and +inf and
    read ``y[0]`` and ``y[-1]``.  Each node tries the pieces its feet reach.
    The per-piece work arrays live as long as ``step``, which returns
    fresh arrays, never one of them.
    """
    nx = x.size
    speed = dt * np.asarray(g, dtype=float)  # d(foot)/dv
    reach = np.abs(speed) * v_max
    first = np.searchsorted(x, x - reach, "right") - 1
    last = np.searchsorted(x, x + reach, "right") - 1
    piece = np.minimum(first + np.arange(np.max(last - first) + 1)[:, None], last)
    edges = np.concatenate(([-np.inf], x, [np.inf]))
    ends = (edges[piece + 1] - x) / speed, (edges[piece + 2] - x) / speed
    lo = np.maximum(np.minimum(*ends), -v_max)  # controls whose foot lands on the piece
    hi = np.minimum(np.maximum(*ends), v_max)
    anchor = np.clip(piece, 0, nx - 1)
    offset = x - x[anchor]  # foot - x[anchor] = offset + speed v
    slopes, width, cols = np.zeros(nx + 1), np.diff(x), np.arange(nx)  # edge pieces are flat
    inner, slope_index = slopes[1:-1], piece + 1
    s, v, cost, work = np.empty((4, *piece.shape))

    def step(y: np.ndarray, b, w):
        np.divide(np.subtract(y[1:], y[:-1], out=inner), width, out=inner)
        slopes.take(slope_index, out=s, mode="clip")  # indices in range: "clip" skips a copy
        # v = clip(-(s g + b), lo, hi)
        np.negative(np.add(np.multiply(s, g, out=v), b, out=v), out=v)
        np.minimum(np.maximum(v, lo, out=v), hi, out=v)
        # cost = ((speed v + offset) s + y[anchor]) + ((v/2 + b) dt) v, which is
        # (s (offset + speed v) + y[anchor]) + dt (v/2 + b) v: IEEE + and * commute
        np.multiply(np.add(np.multiply(speed, v, out=cost), offset, out=cost), s, out=cost)
        np.add(cost, y.take(anchor, out=work, mode="clip"), out=cost)
        np.add(np.multiply(v, 0.5, out=work), b, out=work)
        np.add(cost, np.multiply(np.multiply(work, dt, out=work), v, out=work), out=cost)
        best = cost.argmin(axis=0)
        return cost[best, cols] - dt * w, v[best, cols]

    return step


def sweep_stride(fam: HamiltonianFamily, cfg: GridConfig, dt: float, steps: int) -> int:
    """Output rows per step of the backward sweep, and of the population flow
    that ``solve_mfg`` integrates for it: ``floor(COURANT_TARGET / C)``
    within ``[1, steps]``, where ``C = max_i |dt g(x_i)| v_max / dx`` is the
    Courant number of one row.  ``C = 0`` takes the horizon in one step;
    ``C = inf`` or ``nan`` steps every row."""
    with np.errstate(all="ignore"):
        g = 1.0 if fam.speed is None else fam.speed(cfg.nodes())
        courant = float(np.max(np.abs(dt * np.asarray(g, dtype=float))) * cfg.v_max / cfg.dx)
    if courant * steps <= COURANT_TARGET:
        return steps
    return max(1, math.floor(COURANT_TARGET / courant)) if courant < math.inf else 1


def stride_rows(steps: int, k: int) -> list[int]:
    """The rows a pass of stride ``k`` over rows ``0..steps`` stops on, in
    ascending order: ``0`` and ``steps - j k`` for ``j = 0, 1, ...``.  The
    step from row 0 is the short one when ``k`` does not divide ``steps``."""
    return [0, *range(steps % k or k, steps + 1, k)]


def step_holding(ends, rows):
    """For each of ``rows``, the step of a pass stopping on ``ends``
    (:func:`stride_rows`) that holds it: its index ``j`` and its rows
    ``lo = ends[j - 1]`` and ``hi = ends[j]``.  A row on an end belongs to the
    step that ends there; row 0 belongs to none."""
    ends = np.asarray(ends)
    j = np.searchsorted(ends, rows)
    return j, ends[j - 1], ends[j]


def solve_backward(
    fam: HamiltonianFamily, traj: TrajectoryEnsemble, cfg: GridConfig
) -> ValueGrid:
    """Backward semi-Lagrangian sweep along the frozen population trajectory.

    The family's ``drift``, ``running_potential`` and ``terminal`` give the
    costs.  The sweep steps from row ``M`` to rows ``M - k, M - 2k, ..., 0``
    with ``k = sweep_stride(...)``; the last step is shorter when ``k`` does
    not divide ``M``.  A step reads the running cost at its lower row, and
    each row in between is the linear blend in time of the two rows around
    it.  ``k = 1`` steps every row.  Raises :class:`ControlSaturationError`
    when the minimizing control of a step reaches +-v_max on more than 1% of
    the core nodes, which signals a control box too small for the problem
    (tested once the sweep is done, naming the lower row of the latest such
    step), and :class:`ValueBlowupError` when a value is not finite.
    """
    x = cfg.nodes()
    steps, dt = traj.steps, traj.dt
    k = sweep_stride(fam, cfg, dt, steps)
    ends = stride_rows(steps, k)
    lows = ends[-2::-1]  # the lower row of each step, going backward
    u = np.empty((steps + 1, cfg.nx))
    controls = np.empty((len(lows), cfg.nx))
    core_lo, core_hi = cfg.core_interval()
    core = (x >= core_lo) & (x <= core_hi)
    core[[0, -1]] = False
    n_core = max(int(np.count_nonzero(core)), 1)

    with np.errstate(all="ignore"):  # non-finite values are tested for below
        u[steps] = fam.terminal(x, traj.ensemble(steps))
        g = 1.0 if fam.speed is None else fam.speed(x)  # dx/dt = g(x) v
        step = _exact_minimizer(x, g, k * dt, cfg.v_max)
        for j, (hi, lo) in enumerate(zip([steps, *lows], lows)):
            if hi - lo != k:  # the last step, to row 0, is shorter
                step = _exact_minimizer(x, g, (hi - lo) * dt, cfg.v_max)
            x_ens, z_ens = traj.ensemble(lo), traj.velocity_ensemble(lo)
            b, w = fam.drift(x_ens, z_ens), fam.running_potential(x, x_ens, z_ens)
            u[lo], controls[j] = step(u[hi], b, w)
        # a row inside a step blends the step's two ends linearly in time
        rows = np.delete(np.arange(steps), ends[:-1])  # np.setdiff1d imports numpy.ma
        _, lower, upper = step_holding(ends, rows)
        theta = ((rows - lower) / (upper - lower))[:, None]
        u[rows] = (1 - theta) * u[lower] + theta * u[upper]
        # the latest pinned step is reported: it is the first the backward sweep meets
        frac = np.count_nonzero((np.abs(controls) >= cfg.v_max) & core, axis=1) / n_core
    saturated = np.flatnonzero(frac > SATURATION_FRACTION)
    if saturated.size:
        j = saturated[0]
        raise ControlSaturationError(
            f"control argmin pinned at +-v_max on {frac[j]:.1%} of core nodes "
            f"at t={traj.times[lows[j]]:.4g}; increase v_max beyond {cfg.v_max:g}"
        )
    if not np.isfinite(u).all():
        raise ValueBlowupError("backward sweep produced a non-finite value")

    grad = _central_gradient(x, u)
    return ValueGrid(config=cfg, times=traj.times, u=u, grad=grad)


@dataclass(frozen=True)
class RegularityReport:
    """Discrete size, Lipschitz and semiconcavity constants of a value grid."""

    max_abs: float
    lip_const: float
    semiconcavity_const: float
    t1: float


def regularity_report(vg: ValueGrid) -> RegularityReport:
    """Exact grid constants: sup |u|, max slope, max second difference / dx^2.

    The semiconcavity constant is evaluated on slices with t <= t1, 0.9 of
    the horizon measured from the initial time, mirroring the fact that
    one-sided curvature bounds degenerate at the terminal time.
    """
    dx = vg.config.dx
    t1 = float(vg.times[0]) + 0.9 * vg.horizon
    max_abs = float(np.max(np.abs(vg.u)))
    lip = float(np.max(np.abs(np.diff(vg.u, axis=1)))) / dx
    uu = vg.u[vg.times <= t1 + 1e-12]  # holds the initial slice
    # dx**2 as a Python float raises OverflowError; an extreme dx reports 0, inf or nan instead
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        second = (uu[:, 2:] + uu[:, :-2] - 2.0 * uu[:, 1:-1]) / np.float64(dx) ** 2
    return RegularityReport(
        max_abs=max_abs,
        lip_const=lip,
        semiconcavity_const=float(np.max(second)),
        t1=float(t1),
    )
