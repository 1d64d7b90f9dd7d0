"""Machine-speed probe: a fixed kernel timed in the measured process, at
moments when nothing of the program runs.

On the shared 2-vCPU VM that README.md describes, the speed of fixed work
drifts by 15-35% over minutes, in phases that outlast a whole benchmark run,
and the two vCPUs often differ in speed by as much.  The medians of two sets
of runs of the same code can then differ by more than any useful bound.
Within a run the speed also swings, by up to 30% in a few seconds, so the
probe must sample all through the run, not only around it.  The drift slows
a small kernel and the pipelines together, so the benchmark reports times
scaled to the kernel's reference time::

    t * ref_s / median kernel time

A sample is taken by a SIGALRM handler, which Python runs in the main thread
between bytecodes, so no code of the program runs while it is taken.  The
program cannot move the samples:

- no sample is taken while the process has a child process alive, so pool
  workers never share the CPUs with one;
- each sample first runs the kernel once untimed, so the timed call finds
  its data in the CPU caches whatever the program left there.

A burst of samples right before and right after the measured call makes sure
that a run whose work all happens in workers still has samples.

Two kernels, both the benchmark's own code that never changes with the
program.  Each workload names the one whose work resembles its own
(``workloads.py``); setup always uses the pure-Python one.

- ``python``: a pure-Python loop, for interpreter-bound work (the MSS
  p-value calls) and for imports, since it can run before numpy is loaded.
- ``numpy``: small matrix products and ufuncs, for numpy-bound work (the
  finite-difference IMA gradient, the flow and EncoderMlp steps).

This module imports nothing that the program would not load.
"""

from __future__ import annotations

import os
import signal
import time


def _python_kernel():
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


def _numpy_kernel():
    """Return the numpy kernel; numpy is imported here, not with the module,
    so that the runner can check the BLAS thread variables first."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 8))
    w = rng.standard_normal((8, 8)) / 3.0

    def kernel():
        x = a
        for _ in range(100):
            x = np.tanh(x @ w) * 0.5 + a
        return x

    return kernel


# name: (kernel factory, median kernel time on the VM that README.md
# describes, sampling period); a sample takes about 3% of its period
KERNELS = {
    "python": (lambda: _python_kernel, 2.5e-4, 0.02),
    "numpy": (_numpy_kernel, 1.35e-3, 0.1),
}

# samples in a burst
BURST = 25


def median(samples) -> float:
    """Upper median, so that no import is needed; NaN if empty."""
    return sorted(samples)[len(samples) // 2] if samples else float("nan")


def live_children() -> int:
    """Child processes of this process that have not been reaped."""
    n = 0
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/children") as fh:
            n += len(fh.read().split())
    return n


class SpeedProbe:
    """Kernel samples: bursts on request, and one sample every ``period_s``
    seconds of wall time between :meth:`start` and :meth:`stop`.  A call
    that blocks in C delays the next sample."""

    def __init__(self, kind: str):
        make, self.ref_s, self.period_s = KERNELS[kind]
        self.kernel = make()
        self.samples = []
        self.skipped = 0  # periods in which a child process was alive
        self.busy_s = 0.0  # wall time the samples took, checks included

    def sample(self):
        t0 = time.perf_counter()
        if live_children():
            self.skipped += 1
        else:
            self.kernel()
            t1 = time.perf_counter()
            self.kernel()
            self.samples.append(time.perf_counter() - t1)
        self.busy_s += time.perf_counter() - t0

    def burst(self):
        for _ in range(BURST):
            self.sample()

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self) -> float:
        """Median kernel time; NaN before the first sample."""
        return median(self.samples)

    def scaled(self, seconds: float) -> float:
        """``seconds`` of wall time at the reference speed."""
        return seconds * self.ref_s / self.kernel_s()
