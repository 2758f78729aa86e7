"""CPU-speed probe: corrects timed operations for a CPU that drifts in speed.

On a shared host a vCPU can run 20-50% slower for seconds at a time while
a neighbour is busy, and that drift, not the program, then dominates the
run-to-run spread of a wall time.  While the probe is active, a SIGALRM
handler runs a fixed piece of work every PROBE_INTERVAL_S of wall time
and records its CPU time (thread CPU time, so a probe that waits
for a busy CPU still measures the CPU's speed, not the wait).

An operation's corrected time is its wall time, minus the time the probes
inside it took, scaled by REFERENCE_PROBE_S / (mean probe CPU time around
the operation): the time it would have taken on a CPU that runs the probe
in REFERENCE_PROBE_S.  Only the harness's own process runs probes (worker
processes do not inherit the interval timer); for a multi-process
operation it moves itself to each CPU in turn to probe it, using
sched_setaffinity on itself only.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
# CPU time of one probe on an unloaded 2-vCPU Xeon virtual machine (Python 3.11,
# numpy 2.4): the speed the corrected times are expressed at.
REFERENCE_PROBE_S = 0.6e-3
# Short operations see few probes; use at least this many, nearest in time.
NEAREST_PROBES = 5

_VECTOR = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5)
_ROOTS = np.exp(2j * np.pi * np.arange(len(_VECTOR)) / len(_VECTOR))


def _loop() -> None:
    """Fixed work shaped like the package's hot paths.

    A slow vCPU slows tuple- and generator-heavy Python (the candidate
    walk) more than a bare integer loop, so the probe mixes a PAF
    generator over a short cyclic vector with small numpy outer products
    (the spectrum updates of the enumeration).
    """
    n = len(_VECTOR)
    doubled = _VECTOR + _VECTOR
    seen = {}
    for k in range(60):
        half = tuple(sum(_VECTOR[i] * doubled[i + g] for i in range(n)) for g in range(1, 6))
        seen[half] = k
    spectrum = np.zeros((3, n), dtype=complex)
    for _ in range(40):
        spectrum = spectrum + np.outer(_ROOTS[:3], _ROOTS)


class SpeedProbe:
    """Context manager sampling CPU speed while timed operations run."""

    def __init__(self, every_cpu: bool = False):
        """every_cpu: probe each allowed CPU in turn, for operations whose
        worker processes keep every CPU busy while this process waits.
        A single-process operation is probed where it runs instead."""
        self.samples: list[tuple[float, float, float]] = []  # wall start, wall end, cpu
        self._cpus = sorted(os.sched_getaffinity(0))
        self._rotate = every_cpu and len(self._cpus) > 1

    def _tick(self, signum, frame) -> None:
        if self._rotate:
            cpu = self._cpus[len(self.samples) % len(self._cpus)]
            os.sched_setaffinity(0, {cpu})  # moves this process there now
        try:
            wall, cpu_time = time.perf_counter(), time.thread_time()
            _loop()
            self.samples.append((wall, time.perf_counter(), time.thread_time() - cpu_time))
        finally:
            if self._rotate:
                os.sched_setaffinity(0, self._cpus)

    def __enter__(self):
        self._tick(None, None)  # bracket the period, so even a short one has samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe CPU time around [start, end] over REFERENCE_PROBE_S."""
        inside = [cpu for s, e, cpu in self.samples if start <= s and e <= end]
        if len(inside) < NEAREST_PROBES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda p: abs((p[0] + p[1]) / 2 - middle))
            inside = [cpu for _, _, cpu in nearest[:NEAREST_PROBES]]
        return statistics.fmean(inside) / REFERENCE_PROBE_S

    def corrected(self, start: float, end: float) -> float:
        """Seconds the operation [start, end] would take at reference speed."""
        probing = sum(e - s for s, e, _ in self.samples if start <= s and e <= end)
        return (end - start - probing) / self.slowdown(start, end)
