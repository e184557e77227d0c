"""Empirical random variables: equal-weight particle ensembles on the line.

An :class:`Ensemble` stands for a real random variable known through N
samples, each carrying weight 1/N.  Every expectation in the solver becomes a
finite average over samples, and two ensembles with the same sorted sample
list represent the same law.  The state space is one-dimensional: the
constructors take a scalar, an (N,) array or an (N, 1) column and store the
column; anything wider is rejected there, so nothing downstream re-checks it.
A law carries no moment exponent: the exponent q of the space L^q belongs to
the game (:class:`~xmfg.mfg.ProblemSpec`).

The unchecked ``_view`` may also wrap a (B, N, 1) stack of B laws of N samples
each.  Law statistics reduce along the sample axis, so ``mean`` and ``moment``
give one value per law, and the stack-aware costs of :mod:`xmfg.families`
evaluate B laws in one call with the bits of B single-law calls.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass

import numpy as np

from ._cells import csv_rows, int_text, slice_rows


def _as_samples(samples) -> np.ndarray:
    arr = np.array(samples, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != 1:
        raise ValueError(f"samples must have shape (N,) or (N, 1) with N >= 1, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("every sample coordinate must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Ensemble:
    """Equal-weight empirical law: N points on the line."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_samples(self.samples))

    @classmethod
    def _view(cls, samples: np.ndarray) -> "Ensemble":
        """Wrap an (N, 1) float array, or a (B, N, 1) stack of B laws, that the
        caller has already validated.

        No copy and no checks: the ensemble holds a read-only source as it
        is, and a read-only view of a writable one.  Hot loops use this; the
        public constructor validates.
        """
        if samples.flags.writeable:
            samples = samples.view()
            samples.flags.writeable = False
        ens = object.__new__(cls)
        ens.__dict__.update(samples=samples)
        return ens

    @property
    def n(self) -> int:
        return self.samples.shape[-2]

    def mean(self):
        """E X: a scalar for one law, shape (B,) for a stack; np.mean's bits."""
        return np.add.reduce(self.samples[..., 0], axis=-1) / self.n

    def mean_scalar(self) -> float:
        """Mean of the ensemble as a plain float."""
        return float(self.mean())

    def moment(self, r: float):
        """(1/N) sum |x_i|^r, one value per law like ``mean``."""
        if r < 1:
            raise ValueError("moment order r must be >= 1")
        return np.add.reduce(np.abs(self.samples[..., 0]) ** r, axis=-1) / self.n

    def permuted(self, perm) -> "Ensemble":
        return Ensemble(self.samples[np.asarray(perm)])

    def sorted_1d(self) -> np.ndarray:
        return np.sort(self.samples[:, 0])

    def to_csv(self) -> str:
        return (b"x0\n" + csv_rows(self.samples)).decode()

    @staticmethod
    def from_csv(text: str) -> "Ensemble":
        import csv  # its only user: the CLI's cold start skips it
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["x0"]:
            raise ValueError("ensemble CSV must start with the header x0")
        if any(len(row) > 1 for row in rows[1:]):
            raise ValueError("ensemble CSV rows must hold exactly one cell")
        return Ensemble([float(row[0]) for row in rows[1:] if row])


@dataclass(frozen=True)
class PairedEnsemble:
    """Joint empirical law of a (state, velocity) pair, sample-aligned."""

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_samples(self.x))
        object.__setattr__(self, "z", _as_samples(self.z))
        if self.x.shape != self.z.shape:
            raise ValueError("paired components must share N")

    @classmethod
    def _view(cls, x: np.ndarray, z: np.ndarray) -> "PairedEnsemble":
        """Pair two read-only (N, 1) arrays, or (B, N, 1) stacks, the caller has
        already validated."""
        pair = object.__new__(cls)
        pair.__dict__.update(x=x, z=z)
        return pair

    @property
    def n(self) -> int:
        return self.x.shape[-2]

    # checked once in __post_init__, so the marginals are unchecked views
    def state(self) -> Ensemble:
        return Ensemble._view(self.x)

    def velocity(self) -> Ensemble:
        return Ensemble._view(self.z)

    def permuted(self, perm) -> "PairedEnsemble":
        perm = np.asarray(perm)
        return PairedEnsemble(self.x[perm], self.z[perm])

    def to_csv(self) -> str:
        return (b"x0,z0\n" + csv_rows(np.hstack((self.x, self.z)))).decode()


def power_root(gaps: np.ndarray, r: float, average) -> float:
    """``average(gaps ** r) ** (1 / r)`` for non-negative ``gaps``, measured in
    units of the largest gap when the power leaves the normal range, so a
    large ``r`` neither underflows to 0 nor overflows to inf."""
    with np.errstate(over="ignore"):
        power = average(gaps**r)
        if not np.finfo(float).tiny <= power < np.inf:
            top = float(np.max(gaps))
            if 0.0 < top < np.inf:
                return top * float(average((gaps / top) ** r) ** (1.0 / r))
    return float(power ** (1.0 / r))


def wasserstein_1d(a: Ensemble, b: Ensemble, r: float = 2.0) -> float:
    """Exact order-r Wasserstein distance between two empirical laws.

    Equal sample counts reduce to the sorted coupling; unequal counts are
    handled exactly on the common refinement of the two quantile grids.
    """
    if r < 1:
        raise ValueError("Wasserstein order r must be >= 1")
    xs, ys = a.sorted_1d(), b.sorted_1d()
    if a.n == b.n:
        return _coupling_cost(xs, ys, r, np.mean)
    edges = np.union1d(np.arange(1, a.n) / a.n, np.arange(1, b.n) / b.n)
    edges = np.concatenate(([0.0], edges, [1.0]))
    weights = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    qa = xs[np.minimum((mids * a.n).astype(int), a.n - 1)]
    qb = ys[np.minimum((mids * b.n).astype(int), b.n - 1)]
    return _coupling_cost(qa, qb, r, lambda g: np.sum(weights * g))


def _coupling_cost(xs: np.ndarray, ys: np.ndarray, r: float, average) -> float:
    """``power_root`` of the gaps ``|xs - ys|``; finite samples more than the
    float maximum apart are measured by the gaps of their halves, doubled."""
    with np.errstate(over="ignore"):
        gaps = np.abs(xs - ys)
    if np.isfinite(gaps).all():
        return power_root(gaps, r, average)
    return 2.0 * power_root(np.abs(xs / 2 - ys / 2), r, average)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Time-indexed ensemble path with per-step velocities (and costates).

    states, velocities and costates have shape (M+1, N, 1) on the shared
    uniform time grid; velocities[m] holds the self-consistent d/dt of the
    population at times[m].  The law views take a row, or an array of rows
    for a (B, N, 1) stack of their laws.
    """

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray
    costates: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        velocities = np.asarray(self.velocities, dtype=float)
        shape = states.shape
        if len(shape) != 3 or shape[2] != 1 or min(shape) < 1 or velocities.shape != shape:
            raise ValueError(f"states and velocities must share shape (M+1, N, 1), got {shape}")
        if times.ndim != 1 or times.shape[0] != states.shape[0]:
            raise ValueError("time grid length must match the state path")
        paths = [states, velocities]
        if self.costates is not None:
            costates = np.asarray(self.costates, dtype=float)
            if costates.shape != states.shape:
                raise ValueError("costates must share shape with states")
            paths.append(costates)
            object.__setattr__(self, "costates", costates)
        # checked once here, so the per-time slices below are unchecked views
        if not all(np.isfinite(arr).all() for arr in paths):
            raise ValueError("every sample coordinate must be finite")
        for arr in (times, *paths):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "velocities", velocities)

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1] - self.times[0])

    def ensemble(self, m: int) -> Ensemble:
        return Ensemble._view(self.states[m])

    def velocity_ensemble(self, m: int) -> Ensemble:
        return Ensemble._view(self.velocities[m])

    def costate_ensemble(self, m: int) -> Ensemble:
        if self.costates is None:
            raise ValueError("trajectory carries no costate record")
        return Ensemble._view(self.costates[m])

    @functools.cached_property
    def sorted_states(self) -> np.ndarray:
        """The (M+1, N) states, sorted over the samples at each time."""
        return np.sort(self.states[:, :, 0], axis=1)

    def csv_lines(self):
        """Yield the trajectory CSV (t, sample_index, x, v, p) as bytes-like
        chunks the caller keeps, a few time slices at a time; p is ``nan``
        when there is no costate record."""
        yield b"t,sample_index,x,v,p\n"
        p = np.full(self.states.shape, np.nan) if self.costates is None else self.costates
        columns = (self.states, self.velocities, p)
        yield from slice_rows(self.times, int_text(range(self.n)), columns)

    def to_csv(self) -> str:
        return b"".join(self.csv_lines()).decode()
