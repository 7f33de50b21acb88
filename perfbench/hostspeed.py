"""The host's current speed, for reporting times at one reference speed.

The shared 2-vCPU host this benchmark was built on changes speed by up to
60 % over minutes: the same verify sweep took 5.6 s in one run and 9.1 s in
another.  Raw seconds from runs minutes apart then differ more than any
regression worth catching.  So each timed span is paired with
``calibrate()``, a fixed loop of the kinds of arithmetic flbessel does that
uses no flbessel code, run in the same process just before or after it.  A time
divided by the loop's time and multiplied by ``REFERENCE_S`` is the time the
span would take on the host running at its reference speed.  Changes to
flbessel move the span and not the loop, so they move the scaled time.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: ``calibrate()`` on the reference host (x86-64, 2 vCPUs, Python 3.11.7)
#: at its typical speed.
REFERENCE_S = 0.02


def calibrate() -> float:
    """Seconds for a fixed loop, about 20 ms.

    Half of it is exact-rational arithmetic on growing big integers, as in
    the high-precision sums; half is small-integer interpreter work, as in
    the Pochhammer brackets.  The two kinds slow down differently when
    other tenants load the host.
    """
    start = time.perf_counter()
    x = Fraction(1)
    for i in range(1, 1500):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    n = 0
    for i in range(100_000):
        n += i * i % 7
    return time.perf_counter() - start


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    return seconds * REFERENCE_S / calibration_s
