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
pieces each node reaches are found once per step length, and each step writes
its value and control rows in place.  A box too small to move a foot off x_i
in floating point tries both sides of the node and pins its control at
+-v_max when the minimizer lies outside the box.  A step spans
j = k rows (:func:`sweep_stride`; the last, to row 0, may span fewer), so a
foot moves about ``COURANT_TARGET`` cells and the interpolation's diffusion
is paid once per k rows.  The sweep keeps the step ends only;
:meth:`ValueGrid.dense` fills the rows inside a step with linear blends in
time of its two ends.  The stride is the sweep's alone: a step reads the
population path at its lower row, and the flow (:mod:`xmfg.flow`) records
every row with steps of its own.  The scheme is monotone: raising the
terminal data can never lower any value.
"""

from __future__ import annotations

import functools
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
    "ValueGrid",
    "solve_backward",
    "sweep_costs",
    "sweep_stride",
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

    def nodes(self) -> np.ndarray:  # built once per grid, read-only
        return self._nodes

    @functools.cached_property
    def _nodes(self) -> np.ndarray:
        x = np.linspace(self.x_lo, self.x_hi, self.nx)
        x.flags.writeable = False
        return x

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
class ValueGrid:
    """Value function on the space-time grid: ``u[j]`` is time row ``rows[j]``
    (by default every row), and ``grad`` is derived from ``u`` on first read as
    its central difference in x, one-sided at the two edge nodes.  The
    accessors take a held row.  A one-row table holds a profile alone, such
    as the Phi whose gradient seeds the flow."""

    config: GridConfig
    times: np.ndarray
    u: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self):
        self.x = self.config.nodes()
        self.times = np.asarray(self.times, dtype=float)
        self.rows = np.arange(self.times.size) if self.rows is None else np.asarray(self.rows)

    @functools.cached_property
    def grad(self) -> np.ndarray:
        return _central_gradient(self.x, self.u)

    @property
    def horizon(self) -> float:
        return float(self.times[-1] - self.times[0])

    def _between(self, rows: np.ndarray) -> np.ndarray:
        """Rows inside steps, blended linearly in time from the held rows around them."""
        j = np.searchsorted(self.rows, rows)  # the step holding each row ends on rows[j]
        lower, upper = self.rows[j - 1], self.rows[j]
        theta = ((rows - lower) / (upper - lower))[:, None]
        with np.errstate(all="ignore"):  # a non-finite blend is for the caller to test
            return (1 - theta) * self.u[j - 1] + theta * self.u[j]

    def dense(self) -> ValueGrid:
        """The grid on every time row; :class:`ValueBlowupError` if a blend is not finite."""
        u = np.empty((self.times.size, self.x.size))
        u[self.rows] = self.u
        inner = np.delete(np.arange(self.times.size), self.rows)  # np.setdiff1d imports numpy.ma
        u[inner] = self._between(inner)
        if not np.isfinite(u).all():
            raise ValueBlowupError("the blended value grid holds a non-finite value")
        return ValueGrid(config=self.config, times=self.times, u=u)

    def _at(self, m: int) -> int:  # a row inside a sweep step raises ValueError
        return self.rows.tolist().index(m)

    def value_at(self, xq, t_index: int):
        return _interp_clamped(xq, self.x, self.u[self._at(t_index)], "value grid")

    def gradient_at(self, xq, t_index: int):
        return _interp_clamped(xq, self.x, self.grad[self._at(t_index)], "value grid")


def _exact_minimizer(x: np.ndarray, g, dt: float, v_max: float):
    """``step(y, b, w, u, v)`` writes into ``u`` and ``v``, per node ``i``, the
    minimum over ``|v| <= v_max`` of ``dt (v^2/2 + b v - w) + I[y](x_i + dt g_i v)``
    and the control that attains it; ``b`` is a scalar or one value per node.

    Piece ``p`` of the interpolation ``I`` spans ``[x[p], x[p + 1]]``; the
    edge pieces ``p = -1`` and ``p = nx - 1`` reach out to -inf and +inf and
    read ``y[0]`` and ``y[-1]``.  Each node tries the pieces its feet reach,
    along the last axis of ``(nx, P)`` work arrays that live as long as
    ``step``.  A node whose reach ``dt |g_i| v_max`` is below the rounding of
    ``x_i`` tries both pieces beside it and, its costs tied by rounding, takes the larger control.
    """
    nx = x.size
    speed = dt * np.asarray(g, dtype=float)  # d(foot)/dv
    reach = np.abs(speed) * v_max
    stuck = x - reach == x
    first = np.searchsorted(x, x - reach, "right") - 1 - stuck
    last = np.searchsorted(x, x + reach, "right") - 1
    piece = np.minimum(first[:, None] + np.arange(np.max(last - first) + 1), last[:, None])
    xc, speed, stuck = x[:, None], np.reshape(speed, (-1, 1)), np.flatnonzero(stuck)
    edges = np.concatenate(([-np.inf], x, [np.inf]))
    ends = (edges[piece + 1] - xc) / speed, (edges[piece + 2] - xc) / speed
    lo = np.maximum(np.minimum(*ends), -v_max)  # controls whose foot lands on the piece
    hi = np.minimum(np.maximum(*ends), v_max)
    anchor = np.clip(piece, 0, nx - 1)
    offset = xc - x[anchor]  # foot - x[anchor] = offset + speed v
    slopes, width, gc = np.zeros(nx + 1), np.diff(x), np.reshape(g, (-1, 1))  # edges are flat
    inner, slope_index, unit = slopes[1:-1], piece + 1, np.ndim(g) == 0 and g == 1.0
    starts = np.arange(0, piece.size, piece.shape[1])  # the flat index of each node's pieces
    s, v, cost, work = np.empty((4, *piece.shape))
    best, dt_w = np.empty(nx, dtype=np.intp), np.empty(nx)

    def step(y: np.ndarray, b, w, u_out: np.ndarray, v_out: np.ndarray):
        b = np.reshape(b, (-1, 1))
        np.divide(np.subtract(y[1:], y[:-1], out=inner), width, out=inner)
        slopes.take(slope_index, out=s, mode="clip")  # indices in range: "clip" skips a copy
        # v = clip(-(s g + b), lo, hi); s g = s when g is 1
        np.negative(np.add(s if unit else np.multiply(s, gc, out=v), b, out=v), out=v)
        np.minimum(np.maximum(v, lo, out=v), hi, out=v)
        # cost = ((speed v + offset) s + y[anchor]) + ((v/2 + b) dt) v, which is
        # (s (offset + speed v) + y[anchor]) + dt (v/2 + b) v: IEEE + and * commute
        np.multiply(np.add(np.multiply(speed, v, out=cost), offset, out=cost), s, out=cost)
        np.add(cost, y.take(anchor, out=work, mode="clip"), out=cost)
        np.add(np.multiply(v, 0.5, out=work), b, out=work)
        np.add(cost, np.multiply(np.multiply(work, dt, out=work), v, out=work), out=cost)
        np.add(cost.argmin(axis=1, out=best), starts, out=best)  # the flat index of each minimum
        cost.take(best, out=u_out, mode="clip")
        v.take(best, out=v_out, mode="clip")
        np.subtract(u_out, np.multiply(w, dt, out=dt_w), out=u_out)
        if stuck.size:
            v_out[stuck] = v.take(starts[stuck] + np.abs(v[stuck]).argmax(axis=1))

    return step


def sweep_stride(fam: HamiltonianFamily, cfg: GridConfig, dt: float, steps: int) -> int:
    """Output rows per step of the backward sweep: ``floor(COURANT_TARGET / C)``
    within ``[1, steps]``, where ``C = max_i |dt g(x_i)| v_max / dx`` is the
    Courant number of one row.  ``C = 0`` takes the horizon in one step;
    ``C = inf`` or ``nan`` steps every row."""
    with np.errstate(all="ignore"):
        g = 1.0 if fam.speed is None else fam.speed(cfg.nodes())
        courant = float(np.max(np.abs(dt * np.asarray(g, dtype=float))) * cfg.v_max / cfg.dx)
    if courant * steps <= COURANT_TARGET:
        return steps
    return max(1, math.floor(COURANT_TARGET / courant)) if courant < math.inf else 1


def sweep_costs(fam: HamiltonianFamily, traj: TrajectoryEnsemble, cfg: GridConfig):
    """The sweep's inputs: the terminal row psi(x, X(T)), then at the lower row of each
    step, in sweep order, the drift b as ``(S, 1)`` and the potential W as ``(S, nx)``."""
    x, steps = cfg.nodes(), traj.steps
    k = sweep_stride(fam, cfg, traj.dt, steps)
    lows = [*range(steps - k, 0, -k), 0]  # the lower row of each step, going backward
    psi, b, w = np.empty(x.size), np.empty((len(lows), 1)), np.empty((len(lows), x.size))
    with np.errstate(all="ignore"):  # the sweep tests its values for finiteness
        psi[:] = fam.terminal(x, traj.ensemble(steps))
        # a family that stacks laws writes every row in one call on all steps' laws
        for j, m in [(slice(None), lows)] if fam.stacks_laws else enumerate(lows):
            law = traj.ensemble(m), traj.velocity_ensemble(m)
            b[j], w[j] = fam.drift(*law), fam.running_potential(x, *law)
    return psi, b, w


def solve_backward(
    fam: HamiltonianFamily, traj: TrajectoryEnsemble, cfg: GridConfig, costs=None
) -> ValueGrid:
    """Backward semi-Lagrangian sweep along the frozen population trajectory.

    ``costs`` are the trajectory's :func:`sweep_costs`, computed here unless
    given.  The sweep steps from row ``M`` to rows ``M - k, M - 2k, ..., 0``
    with ``k = sweep_stride(...)``; the last step is shorter when ``k`` does
    not divide ``M``.  A step reads the running cost at its lower row.  The
    returned grid holds the swept rows only, row 0, the step ends and row
    ``M``; its :meth:`ValueGrid.dense` blends the rows in between.  ``k = 1``
    steps every row.  Raises :class:`ControlSaturationError` when the
    minimizing control of a step reaches +-v_max on more than 1% of the core
    nodes, which signals a control box too small for the problem (tested once
    the sweep is done, naming the lower row of the latest such step), and
    :class:`ValueBlowupError` when a swept value is not finite.
    """
    fam._require_running_cost()
    x, steps, dt = cfg.nodes(), traj.steps, traj.dt
    k = sweep_stride(fam, cfg, dt, steps)
    lows = [*range(steps - k, 0, -k), 0]  # the lower row of each step, going backward
    ends = [*lows[::-1], steps]  # row 0, then rows steps - j k
    u = np.empty((len(ends), cfg.nx))  # u[j] is row ends[j]
    u[-1], b, w = sweep_costs(fam, traj, cfg) if costs is None else costs
    controls = np.empty((len(lows), cfg.nx))
    core_lo, core_hi = cfg.core_interval()
    core = (x >= core_lo) & (x <= core_hi)
    core[[0, -1]] = False
    n_core = max(int(np.count_nonzero(core)), 1)

    with np.errstate(all="ignore"):  # non-finite values are tested for below
        g = 1.0 if fam.speed is None else fam.speed(x)  # dx/dt = g(x) v
        step = _exact_minimizer(x, g, k * dt, cfg.v_max)
        for j, (hi, lo) in enumerate(zip([steps, *lows], lows)):
            if hi - lo != k:  # the last step, to row 0, is shorter
                step = _exact_minimizer(x, g, (hi - lo) * dt, cfg.v_max)
            step(u[-1 - j], b[j], w[j], u[-2 - j], controls[j])
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
    return ValueGrid(config=cfg, times=traj.times, u=u, rows=np.array(ends))


@dataclass(frozen=True)
class RegularityReport:
    """Discrete size, Lipschitz and semiconcavity constants of a value grid."""

    max_abs: float
    lip_const: float
    semiconcavity_const: float
    t1: float


def regularity_report(vg: ValueGrid) -> RegularityReport:
    """Exact grid constants: sup |u|, max slope, max second difference / dx^2.

    The semiconcavity constant is evaluated on rows m <= 0.9 M (t <= t1 =
    t0 + 0.9 T), mirroring the fact that one-sided curvature bounds degenerate
    at the terminal time.  It reads the held rows, and the blend of row
    floor(0.9 M) if a sweep step holds it: a blend lies between its step's
    ends, so the constants are :meth:`ValueGrid.dense`'s up to its rounding.
    """
    dx = vg.config.dx
    t1 = float(vg.times[0]) + 0.9 * vg.horizon
    max_abs = float(np.max(np.abs(vg.u)))
    lip = float(np.max(np.abs(np.diff(vg.u, axis=1)))) / dx
    last = math.floor(0.9 * (vg.times.size - 1) * (1 + 1e-12))  # the last row with t <= t1
    held = vg.u[: np.searchsorted(vg.rows, last, "right")]  # the rows ascend from the initial row
    blend = () if last in vg.rows else (vg._between(np.array([last])),)
    # dx**2 as a Python float raises OverflowError; an extreme dx reports 0, inf or nan instead
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        second = [np.max((uu[:, 2:] + uu[:, :-2] - 2.0 * uu[:, 1:-1]) / np.float64(dx) ** 2)
                  for uu in (held, *blend)]
    return RegularityReport(
        max_abs=max_abs,
        lip_const=lip,
        semiconcavity_const=float(np.max(second)),
        t1=float(t1),
    )
