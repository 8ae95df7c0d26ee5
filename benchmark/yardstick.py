"""Machine-speed reference: exact Fraction elimination at a fixed size.

The CPU of a small shared virtual machine changes speed by 15-25% within
seconds, inside one process and between processes, and the process is
now and then descheduled for tens of milliseconds.  Both would swamp the
differences the benchmark is for, so:

- every time is CPU time of the (single) thread (``time.thread_time``),
  which leaves out the spans in which the process did not run; the
  process clock is not used because, while an interval timer is armed,
  Linux advances it only at scheduler ticks;
- while an operation runs, an interval timer on the process's CPU time
  interrupts it every PERIOD_S and runs this reference for SLICE_S, a
  quarter of the operation's own time, so the reference samples the
  machine's speed throughout the operation; after the operation the
  reference is topped up to that share, which covers operations shorter
  than one period;
- the operation's time, without the slices, is divided by the reference's
  time per unit.

A reported time is therefore in seconds of a machine that runs one
reference unit in ``NOMINAL_UNIT_S``.  Measured on 2 vCPUs, taking the
reference only after each operation left a 10-12% quartile spread of
hrr-order round times across processes; interleaving it, and timing CPU
rather than wall time, brought every workload to a few percent.

This module imports nothing from torickit, and the garbage collector is
paused while the reference runs, so a program that grows its heap cannot
slow the yardstick.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Seconds per unit on the nominal machine; a fixed constant, so normalised
# times from different runs and commits share one scale.
NOMINAL_UNIT_S = 6.0e-4
# The reference runs for this share of the timed operation.
SHARE = 0.25
MIN_UNITS = 4
# Interleaving: every PERIOD_S of CPU time, SLICE_S goes to the reference,
# a quarter of the operation's own time.
PERIOD_S = 0.05
SLICE_S = 0.01

clock = time.thread_time

_MATRIX = (
    (4, -2, 7, 1, 3, -5),
    (3, 9, -1, 6, -4, 2),
    (-6, 5, 2, -3, 8, 1),
    (1, 7, -8, 5, 2, -9),
    (5, -4, 3, -7, 9, 6),
    (2, 1, -5, 8, -6, 4),
)


def _unit() -> Fraction:
    """Determinant of the fixed matrix by exact Fraction elimination."""
    a = [[Fraction(x, 3) for x in row] for row in _MATRIX]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


_EXPECTED = _unit()


def _run_units(target_s: float, min_units: int) -> int:
    """Run whole reference units for about ``target_s`` seconds and at least
    ``min_units`` units, with the collector paused; return the count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        units = 0
        start = clock()
        while units < min_units or clock() - start < target_s:
            if _unit() != _EXPECTED:
                raise ArithmeticError("reference computation changed its value")
            units += 1
        return units
    finally:
        if enabled:
            gc.enable()


class Yardstick:
    """Times operations with the reference interleaved (see the module
    docstring); every time is CPU time of the calling thread."""

    def __init__(self):
        self._units = 0
        self._ref_s = 0.0

    def _slice(self, _signum, _frame):
        start = clock()
        self._units += _run_units(SLICE_S, 1)
        self._ref_s += clock() - start

    def time(self, fn) -> dict:
        """Call ``fn()``; return its result with the operation's own CPU
        time (``raw_s``), its own wall time without the slices (``wall_s``),
        the CPU time with them (``span_s``), the reference's seconds per
        unit and the normalised time (``norm_s``)."""
        self._units, self._ref_s = 0, 0.0
        previous = signal.signal(signal.SIGPROF, self._slice)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S - SLICE_S, PERIOD_S)
        wall = time.perf_counter()
        start = clock()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            cpu = clock() - start
            wall = time.perf_counter() - wall
            signal.signal(signal.SIGPROF, previous)
        slices = self._ref_s
        out = self._normalise(cpu - slices)
        out.update(result=result, wall_s=wall - slices, span_s=cpu)
        return out

    def after(self, raw_s: float) -> dict:
        """Normalise a span that has already ended (the process start-up)."""
        self._units, self._ref_s = 0, 0.0
        return self._normalise(raw_s)

    def _normalise(self, raw_s: float) -> dict:
        need = SHARE * raw_s - self._ref_s
        if need > 0 or self._units < MIN_UNITS:
            start = clock()
            self._units += _run_units(max(need, 0.0), MIN_UNITS - self._units)
            self._ref_s += clock() - start
        per_unit = self._ref_s / self._units
        return {"raw_s": raw_s, "norm_s": raw_s * NOMINAL_UNIT_S / per_unit, "ref_s_per_unit": per_unit}
