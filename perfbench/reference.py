"""A fixed yardstick for the host's current speed.

On a shared host the same operation can run twice as slowly for seconds to
minutes while another tenant loads the hardware, and user CPU time rises
with wall time, so no clock inside the process can tell the two apart.  The
benchmark therefore times this kernel next to every operation and scales
the operation's host time by ``REFERENCE_SECONDS / kernel time``.  The
kernel touches no loopqkd code, so a change to the program cannot move it.
It is the engine's dominant kind of work, complex exponentials over a
batch-sized array.  Of the kernels tried (this one, CPython string and
tuple churn, and the two together), it followed the slow stretches most
closely on every workload, the pure-Python ones included.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's time on an unloaded core of the host the benchmark was built
# on (2-core Xeon VM, Python 3.11, NumPy 2.4): the unit the scaled host
# times are expressed in.
REFERENCE_SECONDS = 0.023

_X = np.arange(1 << 17, dtype=float)


def reference_seconds() -> float:
    """Host seconds the reference kernel takes right now."""
    t0 = perf_counter()
    for _ in range(4):
        np.exp(1j * _X).real.sum()
    return perf_counter() - t0
