"""A fixed reference task that measures how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, and their
load changes the speed of this process by up to 2x for minutes at a time;
CPU time slows as much as wall time, so no clock avoids it.  A run
therefore samples this task between its operations, and reports every time
in reference seconds: ``measured * REF_SECONDS / fastest sample``, the time
it would take on a machine where the task takes ``REF_SECONDS``.  The
measured times are floors too (each operation's fastest round), so both
sides of the ratio are taken at the quietest moments of the same run.  The
task is interpreted scalar arithmetic with some numpy, like the library,
and never calls gbmlap, so no change to the library moves it.
"""

from __future__ import annotations

import time

import numpy as np

# seconds the reference takes on a quiet 2-vCPU Intel Xeon; it sets only the scale
REF_SECONDS = 0.006
REF_EVERY = 0.1  # take a reference sample after at least this much timed work

_ARRAY = np.linspace(0.0, 1.0, 200_000)


def sample() -> float:
    """Wall seconds of one run of the reference task."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(60_000):
        x += (i * 0.5) % 7.0
    for _ in range(3):
        np.exp(_ARRAY).sum()
    return time.perf_counter() - t0


def factor(samples: list) -> float:
    """Reference seconds per wall second, from a run's samples of the task.

    The fastest sample is used: other tenants and interrupts only ever
    lengthen a sample.
    """
    return REF_SECONDS / min(samples)
