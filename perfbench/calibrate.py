"""A fixed calibration kernel, timed in the worker next to every measured
command and set-up.

A shared host slows everything that runs on it, in phases from a few seconds
to many minutes.  run.py divides the measured times of a run by the kernel
times taken just before and just after each, and multiplies by REFERENCE_S,
so the reported seconds are those of a host running the kernel in
REFERENCE_S.  The kernel
does the three kinds of work the workloads do, with none of the program's
code, so a change to the program never moves it:

* many numpy operations on 51 x 51 arrays, where per-call overhead dominates
  (the 50 x 50 solves);
* a leapfrog-like update on 201 x 201 arrays written into a freshly
  allocated snapshot stack, where memory bandwidth dominates (the 200 x 200
  solves);
* 17-digit float formatting through ``csv.writer`` (the trace CSV writer).

It allocates about 10 MB at a time, below every workload's own peak, so it
does not move ``peak_rss_mb``.
"""

from __future__ import annotations

import csv
import time

import numpy as np

# Median kernel time on the reference host: 2 vCPU Intel Xeon (Sapphire
# Rapids, KVM), Python 3.11, numpy 2.4.6, one BLAS thread, otherwise idle.
REFERENCE_S = 0.30

SMALL_N, SMALL_STEPS = 51, 3000
LARGE_N, LARGE_STEPS, LARGE_PASSES = 201, 30, 8
TEXT_ROWS = 25000


def _small() -> None:
    u = np.linspace(0.0, 1.0, SMALL_N * SMALL_N).reshape(SMALL_N, SMALL_N)
    prev = u.copy()
    for _ in range(SMALL_STEPS):
        lap = u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4.0 * u[1:-1, 1:-1]
        nxt = 2.0 * u - prev
        nxt[1:-1, 1:-1] += 0.1 * lap
        prev, u = u, nxt * 0.999


def _large_pass() -> None:
    stack = np.empty((LARGE_STEPS + 1, LARGE_N, LARGE_N))
    stack[0] = np.linspace(0.0, 1.0, LARGE_N * LARGE_N).reshape(LARGE_N, LARGE_N)
    stack[1] = stack[0]
    for k in range(2, LARGE_STEPS + 1):
        u, nxt = stack[k - 1], stack[k]
        np.multiply(u, 2.0, out=nxt)
        nxt -= stack[k - 2]
        nxt[1:-1, 1:-1] += 0.1 * (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:]
                                  + u[1:-1, :-2] - 4.0 * u[1:-1, 1:-1])


def _large() -> None:
    for _ in range(LARGE_PASSES):
        _large_pass()


class _Discard:
    def write(self, line: str) -> None:
        pass


def _text() -> None:
    values = np.linspace(0.1, 1.7, TEXT_ROWS).tolist()
    writer = csv.writer(_Discard())
    for k, v in enumerate(values):
        writer.writerow([format(v * 0.5, ".17g"), k % 4 + 1, k, format(v, ".17g")])


def kernel_seconds() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _small()
    _large()
    _text()
    return time.perf_counter() - t0
