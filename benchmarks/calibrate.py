"""Calibration kernels: fixed work, independent of the package, whose CPU
time tracks how fast the host runs this process at the moment.

On a shared host the same code runs up to 1.7 times slower for seconds at a
time, and its speed drifts by a fifth or more over minutes, in CPU time as
much as in wall time.  A run therefore times a kernel right before every
short block of ops and scales each op's CPU time by ``REFERENCE_NS`` over
that kernel time: the op's time at the host speed at which the kernel takes
``REFERENCE_NS``.  Timed side by side, kernel and op slow down together,
and the median of the scaled times stays put where the raw times move by
half.  Each kernel does the kind of work its workloads do, so that the two
slow down alike:

* ``python``: interpreted float arithmetic and tuples;
* ``numpy``: calls on small numpy arrays, as in the n-dimensional check;
* ``tableau``: simplex pivots on a dense tableau the size of the oracle's
  LP at the default grid, which does not fit the fastest caches;
* ``process``: a fresh ``python -c pass``, the interpreter start that every
  CLI op pays.
"""

from __future__ import annotations

import math
import resource
import subprocess
import sys
import time

#: About the median CPU time of each kernel, in ns, on the host the baseline
#: was taken on (an Intel Xeon virtual machine with 2 vCPUs), so that scaled
#: times read about as the raw times there.  Fixed, so that scaled times of
#: two commits compare as the program's own speed.
REFERENCE_NS = {"python": 2_400_000, "numpy": 900_000, "tableau": 2_800_000, "process": 60_000_000}


def cpu_ns(children: bool) -> int:
    """CPU nanoseconds used by this thread, the only one the process runs,
    plus by its waited-for children when ``children`` is set.  Time the host
    gives to other guests (steal) and time spent waiting for a core is not
    counted.  (The process clock is not used: once a deadline timer has
    been armed, it advances only in whole scheduler ticks.)"""
    own = time.thread_time_ns()
    if not children:
        return own
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own + round((usage.ru_utime + usage.ru_stime) * 1e9)


def _python_kernel() -> None:
    acc = 0.0
    pairs = []
    for i in range(6000):
        x = (i % 97) * 0.5 + 1.0
        acc += math.sqrt(x) * x / (1.0 + x * x)
        pairs.append((x, acc))


class _NumpyKernel:
    def __init__(self):
        import numpy as np

        self.np = np
        i = np.arange(8)[:, None]
        j = np.arange(8)[None, :]
        self.points = 1.0 + ((i * 7 + j * 3) % 13) / 13.0
        self.weights = self.points[:, 5] / self.points[:, 5].sum()
        self.other = self.points[:, 2] / self.points[:, 2].sum()

    def __call__(self) -> None:
        np = self.np
        for _ in range(64):
            x = self.points[:, :3]
            mean_p = self.weights @ x
            mean_q = self.other @ x
            centred = x - mean_p
            cov = centred.T @ (centred * self.weights[:, None])
            float(np.trace(cov)) + float(np.dot(mean_p - mean_q, mean_p - mean_q))
            0.5 * float(np.abs(self.weights - self.other).sum())


class _TableauKernel:
    ROWS, COLS, PIVOTS = 255, 621, 4

    def __init__(self):
        import numpy as np

        self.np = np
        i = np.arange(self.ROWS)[:, None]
        j = np.arange(self.COLS)[None, :]
        self.start = 1.0 + ((i * 7 + j * 3) % 13) / 13.0

    def __call__(self) -> None:
        np = self.np
        tableau = self.start.copy()
        for k in range(self.PIVOTS):
            int(np.argmin(tableau[-1, :-1]))
            col = (k * 151) % (self.COLS - 1)
            rows = np.flatnonzero(tableau[:-1, col] > 0.5)
            int(np.argmin(tableau[rows, -1] / tableau[rows, col]))
            row = int(np.argmax(np.abs(tableau[:-1, col])))
            tableau[row, :] /= tableau[row, col]
            factors = tableau[:, col].copy()
            factors[row] = 0.0
            tableau -= np.outer(factors, tableau[row, :])


def _process_kernel() -> None:
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=30, check=True)


class Kernel:
    """One kind of kernel, warmed up; ``scale`` times it once."""

    def __init__(self, kind: str):
        if kind == "numpy":
            self.kernel = _NumpyKernel()
        elif kind == "tableau":
            self.kernel = _TableauKernel()
        else:
            self.kernel = {"python": _python_kernel, "process": _process_kernel}[kind]
        self.children = kind == "process"
        self.reference_ns = REFERENCE_NS[kind]
        self.kernel()  # warm-up, not kept

    def time_ns(self) -> int:
        """CPU time of one run of the kernel."""
        c0 = cpu_ns(self.children)
        self.kernel()
        return cpu_ns(self.children) - c0

    def scale(self) -> float:
        """Run the kernel once and return the factor that takes a CPU time
        measured now to the reference speed: ``REFERENCE_NS`` over the
        kernel's time."""
        return self.reference_ns / self.time_ns()
