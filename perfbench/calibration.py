"""How fast the shared host runs right now, from a fixed reference kernel.

The benchmark host is a virtual machine whose neighbours share its
cores, caches and memory bandwidth, so the same code takes more CPU
time in a busy minute than in a quiet one (30% and more, for minutes
at a time).  A median within one run cannot remove that: the busy
stretch covers the whole run.  So every workload times this kernel
between its repetitions and scales the run's CPU time by
``NOMINAL_S / mean kernel time``: its cost at the speed the host had
when ``NOMINAL_S`` was measured.

The kernel is half pure Python (breadth-first searches over a dict of
adjacency lists, the kind of work the QCCD compilers and the service
do) and half NumPy (element-wise transcendental functions and a
gather on arrays the size of the decoders' message arrays).  It uses
nothing from the library, so no change to the library moves it.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's median CPU time on the benchmark host (two vCPUs of an
#: Intel Xeon, Python 3.11.7, numpy 2.4.6) with nothing else running.
NOMINAL_S = 0.036

_SIDE = 40
_ADJACENCY = {
    (i, j): [((i + 1) % _SIDE, j), (i, (j + 1) % _SIDE),
             ((i - 1) % _SIDE, j), (i, (j - 1) % _SIDE)]
    for i in range(_SIDE) for j in range(_SIDE)}
_RNG = np.random.default_rng(0)
_VALUES = _RNG.random((1024, 400))
_INDEX = _RNG.integers(0, 400, (1024, 400))


def _python_part() -> None:
    for source in range(18):
        seen = {(source, 0): 0}
        frontier = [(source, 0)]
        while frontier:
            following = []
            for vertex in frontier:
                for neighbour in _ADJACENCY[vertex]:
                    if neighbour not in seen:
                        seen[neighbour] = seen[vertex] + 1
                        following.append(neighbour)
            frontier = following


def _numpy_part() -> None:
    for _ in range(3):
        values = np.tanh(_VALUES * 0.5)
        gathered = np.take_along_axis(values, _INDEX, 1)
        np.log1p(np.abs(gathered), out=gathered)
        gathered.sum(axis=1)
        np.sign(gathered) * np.minimum(gathered, 0.3)


def kernel_cpu_s(runs: int = 1) -> list[tuple[float, float]]:
    """Run the kernel ``runs`` times in this thread; the CPU seconds of
    each run's Python half and NumPy half.  An untimed run goes first,
    so the timed ones find the kernel's data in the caches whatever ran
    before them."""
    _python_part()
    _numpy_part()
    times = []
    for _ in range(runs):
        started = time.thread_time()
        _python_part()
        middle = time.thread_time()
        _numpy_part()
        times.append((middle - started, time.thread_time() - middle))
    return times


def host_speed(python_s: list[float], numpy_s: list[float]) -> float:
    """How fast the host ran, as a multiple of its speed when
    :data:`NOMINAL_S` was measured: multiply a CPU time measured among
    these kernel runs by it to get the CPU time at nominal speed."""
    return NOMINAL_S * len(python_s) / (sum(python_s) + sum(numpy_s))
