"""How fast this machine runs right now, from fixed calibration work.

The benchmark shares a small, busy host whose speed moves by up to about
2x over minutes, for processes that run no momentkit code at all.  Every
timed piece of work is therefore followed by the calibration kernel, run
for about CAL_SHARE of the piece's time, and reported times are scaled by
REFERENCE_S / (the kernel's time per call measured beside them): seconds
on a machine where the kernel takes REFERENCE_S.  The kernel is the
benchmark's own code (small complex numpy linear algebra and a Python
loop, the mix a momentkit op is made of), so no change to momentkit
changes it, and a momentkit op that takes twice as long still reads twice
as long.  The raw seconds are reported beside every scaled figure.

Work in another process does not follow the kernel's speed: not a fresh
interpreter's import (file reads, module code, loading shared libraries),
whose times are reported raw, and not a command run as a subprocess,
which is why the `cli` workload runs its commands in-process.
"""

import time

import numpy as np

# the kernel's median time per call on the 2-vCPU Xeon host the baseline
# was taken on; a constant, so scaled figures compare across runs
REFERENCE_S = 0.7e-3
CAL_SHARE = 0.15
_N = 12
_rng = np.random.default_rng(20240607)
_M = _rng.standard_normal((_N, _N)) + 1j * _rng.standard_normal((_N, _N)) + 4.0 * np.eye(_N)
_V = _rng.standard_normal(_N) + 0j


def kernel():
    """One call of the fixed calibration work."""
    acc = 0j
    x = _V
    for _ in range(30):
        x = np.linalg.solve(_M, x)
        x = x / np.linalg.norm(x)
        acc += complex(x.conj() @ (_M @ x))
    return acc + sum(k * k for k in range(2500))


class Meter:
    """Calibration time and calls accumulated beside some timed work."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def follow(self, elapsed):
        """Run the kernel for about CAL_SHARE of `elapsed` (at least once).

        A first, untimed call brings the kernel's code and data back into
        the caches, so that its time per call does not depend on how much
        work ran between two calls.  The kernel runs where the calling
        thread runs, which is where the in-process work it follows ran:
        the two CPUs of the host move their speeds independently.
        """
        calls = max(1, round(CAL_SHARE * elapsed / REFERENCE_S))
        kernel()
        start = time.perf_counter()
        for _ in range(calls):
            kernel()
        self.seconds += time.perf_counter() - start
        self.calls += calls

    def slowdown(self):
        """The kernel's time per call against REFERENCE_S (> 1: slower)."""
        return self.seconds / self.calls / REFERENCE_S


def scaled(fn):
    """Run fn(); return (result, seconds scaled to REFERENCE_S, raw seconds)."""
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    meter = Meter()
    meter.follow(elapsed)
    return result, elapsed / meter.slowdown(), elapsed

