"""Reference kernel: a fixed piece of work that measures the machine's speed.

On a shared host the speed of one core drifts by tens of percent within
seconds and over minutes, and every repetition of a workload drifts with it.
A worker pins itself to one CPU and, while the program runs, a sampler
thread in the same process wakes every ``INTERVAL_S``, runs one chunk of this kernel and records
the chunk's thread CPU time.  The worker's times are then scaled by
``REF_CHUNK_S / t``, where ``t`` is the median chunk time over the samples
taken during that stretch.  A time so scaled reads as the seconds the worker
would have taken on a machine on which one chunk takes ``REF_CHUNK_S``: a
change to the program moves it by the same share as the raw time, while the
machine's drift largely cancels.  The sampler costs the program a few
percent, the same on every commit.

The kernel mixes what the solver spends its time on: interpolation and a
row-wise argmin over a 201 x 201 grid, and a scalar Python loop.  It uses
only numpy and never imports ``xmfg``, so no change to the program changes
it.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter, thread_time

import numpy as np

# Chunk time on a quiet 2-vCPU x86-64 virtual machine (Python 3.11, numpy
# 2.4); it only sets the scale of the reported seconds.
REF_CHUNK_S = 5.0e-4
INTERVAL_S = 0.02  # sampler period while the program runs
BURST_S = 0.05  # length of a burst of back-to-back chunks

_NODES = np.linspace(-4.0, 4.0, 201)
_VALUES = np.cos(_NODES)
_COSTS = np.random.default_rng(0).random((201, 201))
_ROWS = np.arange(201)
# The grid-sized temporary is reused: a fresh one per chunk would be large
# enough to come from mmap, and the chunk would time the allocator's state.
_GRID = np.empty_like(_COSTS)


def chunk() -> float:
    """One unit of reference work (about 0.5 ms)."""
    acc = 0.0
    for i in range(4):
        y = np.interp(_NODES + 0.01 * i, _NODES, _VALUES)
        np.add(_COSTS, y[None, :], out=_GRID)
        acc += float(_GRID[_ROWS, np.argmin(_GRID, axis=1)].sum())
    s = 0.0
    for i in range(900):
        s += (i % 7) * 0.5 - s * 1e-3
    return acc + s


def _timed_chunk() -> float:
    started = thread_time()
    chunk()
    return thread_time() - started


def burst_scale(seconds: float = BURST_S) -> float:
    """Scale factor from chunks run back to back for ``seconds``."""
    times = [_timed_chunk()]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        times.append(_timed_chunk())
    return REF_CHUNK_S / statistics.median(times)


class Sampler:
    """Samples the chunk time every ``INTERVAL_S`` while the program runs."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.times.append(_timed_chunk())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """Scale factor for the stretch sampled; a burst if it was too short."""
        if len(self.times) < 5:
            return burst_scale()
        return REF_CHUNK_S / statistics.median(self.times)
