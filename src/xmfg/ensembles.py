"""Empirical random variables: equal-weight particle ensembles in R^d.

An :class:`Ensemble` stands for a random variable known through N samples,
each carrying weight 1/N.  Every expectation in the solver becomes a finite
average over samples, and two ensembles with the same sorted sample list
represent the same 1-d law.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDimensionError

FLOAT_FMT = "%.17g"


def _as_samples(samples) -> np.ndarray:
    arr = np.array(samples, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"samples must have shape (N, d) with N, d >= 1, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("every sample coordinate must be finite")
    arr.flags.writeable = False
    return arr


def _check_q(q: float) -> None:
    if not (q >= 1.0 and np.isfinite(q)):
        raise ValueError("moment exponent q must be a finite real >= 1")


@dataclass(frozen=True)
class Ensemble:
    """Equal-weight empirical law: N points in R^d plus a moment exponent q."""

    samples: np.ndarray
    q: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_samples(self.samples))
        _check_q(self.q)

    @classmethod
    def _view(cls, samples: np.ndarray, q: float) -> "Ensemble":
        """Wrap an (N, d) float array the caller has already validated.

        No copy and no checks: the ensemble holds a read-only view of the
        caller's data.  Hot loops use this; the public constructor validates.
        """
        view = samples.view()
        view.flags.writeable = False
        ens = object.__new__(cls)
        object.__setattr__(ens, "samples", view)
        object.__setattr__(ens, "q", q)
        return ens

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def mean_scalar(self) -> float:
        """Mean of a 1-d ensemble as a plain float."""
        if self.dim != 1:
            raise UnsupportedDimensionError("mean_scalar requires dim == 1")
        return float(np.add.reduce(self.samples, axis=None) / self.n)  # np.mean's bits

    def moment(self, r: float) -> float:
        """(1/N) sum |x_i|^r with the Euclidean norm per sample."""
        if r < 1:
            raise ValueError("moment order r must be >= 1")
        norms = np.linalg.norm(self.samples, axis=1)
        return float(np.mean(norms**r))

    def permuted(self, perm) -> "Ensemble":
        return Ensemble(self.samples[np.asarray(perm)], q=self.q)

    def sorted_1d(self) -> np.ndarray:
        if self.dim != 1:
            raise UnsupportedDimensionError("sorted_1d requires dim == 1")
        return np.sort(self.samples[:, 0])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"x{k}" for k in range(self.dim)])
        for row in self.samples:
            writer.writerow([FLOAT_FMT % v for v in row])
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str, q: float = 2.0) -> "Ensemble":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or not rows[0] or rows[0][0] != "x0":
            raise ValueError("ensemble CSV must start with header x0,...,x{d-1}")
        data = [[float(v) for v in row] for row in rows[1:] if row]
        return Ensemble(np.array(data), q=q)


@dataclass(frozen=True)
class PairedEnsemble:
    """Joint empirical law of a (state, velocity) pair, sample-aligned."""

    x: np.ndarray
    z: np.ndarray
    q: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "x", _as_samples(self.x))
        object.__setattr__(self, "z", _as_samples(self.z))
        if self.x.shape != self.z.shape:
            raise ValueError("paired components must share N and d")
        _check_q(self.q)

    @classmethod
    def _view(cls, x: np.ndarray, z: np.ndarray, q: float) -> "PairedEnsemble":
        """Pair two read-only (N, d) arrays the caller has already validated."""
        pair = object.__new__(cls)
        pair.__dict__.update(x=x, z=z, q=q)
        return pair

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    # checked once in __post_init__, so the marginals are unchecked views
    def state(self) -> Ensemble:
        return Ensemble._view(self.x, self.q)

    def velocity(self) -> Ensemble:
        return Ensemble._view(self.z, self.q)

    def permuted(self, perm) -> "PairedEnsemble":
        perm = np.asarray(perm)
        return PairedEnsemble(self.x[perm], self.z[perm], q=self.q)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"x{k}" for k in range(self.dim)] + [f"z{k}" for k in range(self.dim)])
        for xr, zr in zip(self.x, self.z):
            writer.writerow([FLOAT_FMT % v for v in xr] + [FLOAT_FMT % v for v in zr])
        return buf.getvalue()


def wasserstein_1d(a: Ensemble, b: Ensemble, r: float = 2.0) -> float:
    """Exact order-r Wasserstein distance between two 1-d empirical laws.

    Equal sample counts reduce to the sorted coupling; unequal counts are
    handled exactly on the common refinement of the two quantile grids.
    """
    if a.dim != 1 or b.dim != 1:
        raise UnsupportedDimensionError(
            f"exact Wasserstein distance is 1-d only (got dims {a.dim}, {b.dim})"
        )
    if r < 1:
        raise ValueError("Wasserstein order r must be >= 1")
    xs, ys = a.sorted_1d(), b.sorted_1d()
    if a.n == b.n:
        return float(np.mean(np.abs(xs - ys) ** r) ** (1.0 / r))
    edges = np.union1d(np.arange(1, a.n) / a.n, np.arange(1, b.n) / b.n)
    edges = np.concatenate(([0.0], edges, [1.0]))
    weights = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    qa = xs[np.minimum((mids * a.n).astype(int), a.n - 1)]
    qb = ys[np.minimum((mids * b.n).astype(int), b.n - 1)]
    return float(np.sum(weights * np.abs(qa - qb) ** r) ** (1.0 / r))


def moment_distance(a: Ensemble, b: Ensemble) -> float:
    """Cheap proxy distance for d >= 2: gap between low-order moment vectors.

    Not a transport distance; used only where the exact 1-d metric does not
    apply (the PDE grid itself is 1-d).
    """
    first = np.linalg.norm(a.mean() - b.mean())
    second = np.linalg.norm((a.samples**2).mean(axis=0) - (b.samples**2).mean(axis=0))
    return float(first + np.sqrt(second))


def ensemble_distance(a: Ensemble, b: Ensemble, r: float = 2.0) -> float:
    """Exact W_r in 1-d, moment proxy otherwise."""
    if a.dim == 1 and b.dim == 1:
        return wasserstein_1d(a, b, r)
    return moment_distance(a, b)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Time-indexed ensemble path with per-step velocities (and costates).

    states, velocities and costates have shape (M+1, N, d) on the shared
    uniform time grid; velocities[m] holds the self-consistent d/dt of the
    population at times[m].
    """

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray
    costates: np.ndarray | None = None
    q: float = 2.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        velocities = np.asarray(self.velocities, dtype=float)
        if states.ndim != 3 or states.shape != velocities.shape or min(states.shape) < 1:
            raise ValueError("states and velocities must share shape (M+1, N, d), N, d >= 1")
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
        _check_q(self.q)
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
    def dim(self) -> int:
        return self.states.shape[2]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1] - self.times[0])

    def ensemble(self, m: int) -> Ensemble:
        return Ensemble._view(self.states[m], self.q)

    def velocity_ensemble(self, m: int) -> Ensemble:
        return Ensemble._view(self.velocities[m], self.q)

    def costate_ensemble(self, m: int) -> Ensemble:
        if self.costates is None:
            raise ValueError("trajectory carries no costate record")
        return Ensemble._view(self.costates[m], self.q)

    def csv_lines(self):
        """Yield the trajectory CSV (t, sample_index, x, v, p) one time slice
        at a time; p is ``nan`` when there is no costate record."""
        if self.dim != 1:
            raise UnsupportedDimensionError("trajectory CSV export is 1-d only")
        yield "t,sample_index,x,v,p\n"
        nan_column = [float("nan")] * self.n
        for m, t in enumerate(self.times.tolist()):
            row = f"{FLOAT_FMT % t},%d,{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT}\n"
            x = self.states[m, :, 0].tolist()
            v = self.velocities[m, :, 0].tolist()
            p = nan_column if self.costates is None else self.costates[m, :, 0].tolist()
            yield "".join(row % cells for cells in zip(range(self.n), x, v, p))

    def to_csv(self) -> str:
        return "".join(self.csv_lines())
