"""Host speed: fixed calibration loops, timed next to each measured call.

The benchmark's host gives it two cores of a shared machine, and their
speed changes by up to 2x for tens of seconds at a time, with CPU time
equal to wall time, so no run length averages it out.
``loop_slowness`` times three fixed loops, each of one kind of work the
program does: the interpreter calling small numpy functions, a GEMM in
the L1/L2 caches, and elementwise passes over an array larger than L2.
Each loop's time over its reference time is its slowness; their mean,
``slowness``, is the host's.

The kinds of work slow down by different amounts (in the slow phase the
interpreter loop takes about 1.9x, the GEMM 1.3x, the elementwise loop
1.4x), so a workload's time moves with the host's slowness to a power
of its own, ``SENSITIVITY``.  ``at_reference`` divides a measured time
by ``slowness ** sensitivity``: the time the call would take at the
reference speed.  The loops never run the program's code, so a change to
the program moves only the measured call.
"""

from __future__ import annotations

import time

import numpy as np

# Reference time of each loop (interpreter, GEMM, elementwise): its time
# in the fast phase of the 2-vCPU KVM host the benchmark was built on
# (Xeon, 2.0 GHz nominal).  Fixed scales: changing one rescales every
# figure taken at the reference speed.
REFERENCE_S = (0.0016, 0.0018, 0.0045)

# Elasticity of each workload's time to the host's slowness: the
# exponent, to one decimal, that gave the smallest spread of the figure
# over ten or eleven runs per workload on the build host, timed against
# these loops.  Ranking and the er-uniform epochs spend most of their
# time in BLAS and memory-bound numpy calls and slow down less than the
# loops' mean; the nuclear lab and er-skewed's path sampling are
# interpreter work and slow down more.
SENSITIVITY = {
    "er-uniform": 0.7,
    "er-skewed": 1.2,
    "rank-m": 0.6,
    "nuclear": 1.2,
    "setup": 0.6,
}

_A = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)
_V = np.ones(8)
_M = np.linspace(0.0, 1.0, 1 << 18)  # 2 MB
_OUT = np.empty_like(_M)


def _interpreter() -> None:
    s = 0.0
    for _ in range(3000):
        s += float(_V.dot(_V)) * 0.5


def _gemm() -> None:
    for _ in range(20):
        _A @ _A


def _elementwise() -> None:
    for _ in range(12):
        np.exp(_M, out=_OUT).sum()


LOOPS = (_interpreter, _gemm, _elementwise)


def _best_of_two(loop) -> float:
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return best


def loop_slowness() -> list[float]:
    """Each loop's current time over its reference time."""
    return [_best_of_two(loop) / ref for loop, ref in zip(LOOPS, REFERENCE_S)]


def slowness(loops: list[float]) -> float:
    """The host's slowness from ``loop_slowness()``: 1 at the reference speed, 2 at half of it."""
    return sum(loops) / len(loops)


def at_reference(seconds: float, slow: float, kind: str) -> float:
    """``seconds`` measured at host slowness ``slow``, scaled to the reference speed."""
    return seconds / slow ** SENSITIVITY[kind]
