"""Speed probe: a fixed kernel that measures how fast this machine runs right now.

A small shared host switches, within tens of milliseconds, between running
the benchmark's core at full speed and at about half of it, and the share
of time in each state differs from run to run. Every op is therefore
bracketed by a probe, a fixed amount of benchmark-owned work, and the op's
time is rescaled to what it would have taken at the probe's reference
speed:

    reference ms = op ms * probe reference ms / probe ms

with the probe time taken as the mean of the probe before and the probe
after the op. The kernel never calls blindprep, so a change to the library
moves the rescaled times exactly as it moves the raw ones.

The kernel does what the library spends most of its time on: Python
bookkeeping around numpy calls on small arrays. It allocates nothing large,
because the cost of large allocations depends on the state of the process's
heap: a probe that applied gates to a fresh 14-qubit array ran 1.6 times
slower in some processes than in others, with the ops beside it unchanged.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_AMPS = np.full((2,) * 3, 8.0**-0.5, dtype=complex)

# Milliseconds per rep at full speed: the lower decile over 2 000 probes on
# a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, one BLAS thread).
# Rescaled op times are in milliseconds at this speed.
REF_MS_PER_REP = 0.31


def kernel(reps: int) -> int:
    table, acc, amps = {}, 0, _AMPS
    for i in range(20 * reps):
        key = (i & 31, "k")
        acc = (acc + table.get(key, i) * 3) % 1000003
        table[key] = acc
        axis = i % 3
        amps = np.moveaxis(np.tensordot(_H, amps, axes=([1], [axis])), 0, axis)
    return acc


class Probe:
    """``reps`` runs of the kernel, timed."""

    def __init__(self, reps: int):
        self.reps = reps
        self.ref_ms = REF_MS_PER_REP * reps

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in ms."""
        start = perf_counter()
        kernel(self.reps)
        return (perf_counter() - start) * 1e3
