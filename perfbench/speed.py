"""Machine-speed references, to steady run times on a shared host.

On a shared virtual machine the same scenario can take 1.5x as long from
one second to the next, because of other tenants.  A fixed piece of work
that does not touch wavelab (numpy FFTs, elementwise numpy, float
formatting and a pure-Python loop, the kinds of work the workloads do) is
timed next to every measured scenario run.  The run's wall time divided by
the reference time around it, times :data:`REFERENCE_S`, is its time at a
fixed machine speed.  Over ten 10 s runs per workload on a 2-vCPU x86-64
VM, this cut the quartile spread of the per-run medians from 0.47 to 0.09
of the median for small_mix and from 0.25 to 0.08 for variational.

Process start-up slows differently (page faults, loading shared
libraries), so fresh ``validate`` processes are rescaled by a reference
process, :data:`PROCESS_ARGS`, started around each instead: over 100 s of
alternating starts, the spread of 7-start medians fell from 0.12 to 0.04.
"""

from __future__ import annotations

import time

import numpy as np

# The references' wall times on an unloaded 2-vCPU x86-64 VM; they only set
# the scale, so normalised times read as seconds on such a machine.
REFERENCE_S = 0.005
PROCESS_ARGS = ("-c", "import numpy")
PROCESS_REFERENCE_S = 0.15

_SAMPLES = np.random.default_rng(0).standard_normal(2000)  # size no workload uses


def reference_s() -> float:
    """Wall seconds of one pass of the fixed reference work."""
    x = _SAMPLES
    start = time.perf_counter()
    for _ in range(20):
        np.fft.ifft(np.fft.fft(x))
    np.exp(-np.abs(x[:200, None] - x[None, :200])).sum()
    ",".join(f"{v:.17g}" for v in x[:400])
    total = 0
    for i in range(40000):
        total += i * i
    return time.perf_counter() - start


def normalise(elapsed: float, before: float, after: float,
              reference: float = REFERENCE_S) -> float:
    """``elapsed`` wall seconds rescaled to the reference machine speed,
    given reference times measured just before and just after."""
    return elapsed * reference / (0.5 * (before + after))
