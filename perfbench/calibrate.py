"""Fixed reference work that measures how fast the host runs right now.

The benchmark runs on a few virtual cores of a shared host.  The other
tenants' load changes the speed of the program under test by 20% and more,
from one second to the next and from one minute to the next, and a fixed
piece of work of the same kind slows and speeds up with it.  The runner
therefore takes a sample of reference work right before and right after
every timed operation (at least one, and about a tenth of the operation's
time) and reports the operation's time scaled by

    nominal / mean(sample before it, mean of the samples after it)

that is, in seconds of a host that does one reference sample in the
nominal time.  The unscaled figures are printed beside the scaled ones.
The reference work imports nothing from the package, so no change to the
program can move it.  There are two kinds, matched to the operations:

- ``compute``: an interpreted integer loop (like the stepping and
  trial-division loops) and numpy passes over an 8 MB array (like the
  wrap-bit streams and the census lanes), for the workloads' operations,
  which all run inside the benchmark's process.
- ``process``: start an interpreter that imports numpy, for the set-up
  probes, which start fresh interpreters.
"""

from __future__ import annotations

import subprocess
import sys
from statistics import fmean
from time import perf_counter

import numpy as np

_LANES = np.arange(1 << 20, dtype=np.uint64)  # 8 MB, beyond the per-core caches


def _compute_sample() -> float:
    start = perf_counter()
    q, r, wraps = 1_000_003, 1, 0
    for _ in range(150_000):
        r <<= 1
        if r >= q:
            r -= q
            wraps += 1
    x = _LANES
    for _ in range(3):
        x = (x * np.uint64(3) + np.uint64(1)) & np.uint64(0xFFFF_FFFF)
    return perf_counter() - start


def _process_sample() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return perf_counter() - start


# kind: (sampler, nominal seconds).  The nominal times are about the median
# sample on the 2-vCPU host the bounds were set on.
KINDS = {"compute": (_compute_sample, 0.030), "process": (_process_sample, 0.220)}
SHARE = 0.1  # reference time per second of timed operations, beyond the one sample


class HostClock:
    """Reference samples taken between operations, and the scales they give."""

    def __init__(self, kind: str):
        self._sample, self.nominal_s = KINDS[kind]
        self.samples = [self._sample()]
        self.spent_s = self.samples[0]

    def scale_after(self, busy_s: float) -> float:
        """Sample after an operation of busy_s seconds; return the factor that
        turns that operation's seconds into reference-host seconds."""
        before = self.samples[-1]
        after = [self._sample() for _ in range(max(1, round(SHARE * busy_s / self.nominal_s)))]
        self.samples += after
        self.spent_s += sum(after)
        return self.nominal_s / ((before + fmean(after)) / 2)
