"""Timed regions in host seconds and in host-speed-corrected reference seconds.

The benchmark runs on shared machines whose speed drifts by tens of percent
over tens of seconds, as other tenants load the same cores.  A fixed
pure-Python kernel, which uses nothing from the program, is timed right
before and right after every timed region (:class:`Stopwatch`).  The
region's host seconds are then scaled to *reference seconds*: the time the
region would take on a host where the kernel takes ``REFERENCE_S``.  A
change to the program cannot move the kernel, so a real speed-up or
slowdown shows at full size.

The program does not slow down one for one with the kernel: the log-log
slope of a repetition's host time against the kernel time around it,
measured over minutes of repetitions, is about 0.2-0.45 across the
workloads (lower for the numpy- and memory-heavy ``serve-stream``).  The
scale is therefore ``(REFERENCE_S / kernel) ** ELASTICITY``; see the
benchmark's README for the spreads this gives against plain host seconds.
"""

from __future__ import annotations

import gc
import time

#: The kernel time that defines the reference host.  It only sets the unit:
#: any fixed value keeps runs comparable with each other.
REFERENCE_S = 0.03
#: How much of the kernel's slowdown is taken as the program's: half, near
#: the measured slopes, and the value that gave the smallest worst-case
#: spread over the four workloads of the exponents tried (0, 0.5, 1).
ELASTICITY = 0.5


class _Probe:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def _kernel() -> int:
    table: dict = {}
    for i in range(40_000):
        table[i % 1000] = table.get(i % 1000, 0) + i * 3
    probes = [_Probe(str(i), i) for i in range(20_000)]
    index = {probe.key: probe for probe in probes}
    total = sum(index[probe.key].value for probe in probes)
    probes.sort(key=lambda probe: -probe.value)
    return total + len(table)


def calibrate() -> float:
    """Host seconds of one kernel run, with the collector paused.

    The kernel frees everything by reference counting, and pausing the
    collector keeps a large program heap from being scanned on its account.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """Times a region: ``host_s``, ``kernel_s`` around it, ``factor``, ``seconds``.

    ``seconds`` is the region in reference seconds, ``host_s * factor``.
    """

    def __enter__(self) -> "Stopwatch":
        self._kernel_before = calibrate()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.host_s = time.perf_counter() - self.start
        self.kernel_s = (self._kernel_before + calibrate()) / 2
        self.factor = (REFERENCE_S / self.kernel_s) ** ELASTICITY
        self.seconds = self.host_s * self.factor
