"""Host-speed calibration: a fixed unit of work timed beside every op.

On a shared host the speed a process gets moves by up to half within
seconds to minutes, with the load of other tenants, and every op of a run
moves with it. On a 2-core shared VM one kerr op, repeated for 90 s, had
an interquartile range of 0.31 of its median; its time divided by the
time of this unit taken around it had 0.10. So the worker times the unit
between ops, and reports each op's time scaled by REFERENCE_S over the
unit's time around it: seconds on a host where the unit takes REFERENCE_S.
The unit uses numpy and the interpreter only, no fockprop code, so a
change to fockprop moves the scaled times as much as the raw ones.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.008      # about the unit's time on an idle 2-core shared VM
UNITS_PER_SAMPLE = 3

_SMALL = (np.arange(64 * 64).reshape(64, 64) % 7 - 3) / 64.0 + 0j
_BIG = (np.arange(256 * 256).reshape(256, 256) % 11 - 5) / 256.0 + 0j


def unit_s():
    """Seconds for one unit: small and cache-sized matrix products and a
    pure-Python loop, the three kinds of work the ops are made of."""
    start = time.perf_counter()
    b = _SMALL
    for _ in range(30):
        b = _SMALL @ b
        b = b / np.abs(b).max()
    _BIG @ _BIG
    s = 0.0
    for i in range(30000):
        s += i * 0.5
    return time.perf_counter() - start


def sample_s():
    """The median unit time of a few units run back to back."""
    return statistics.median(unit_s() for _ in range(UNITS_PER_SAMPLE))


def scaled(seconds, unit_seconds):
    """`seconds` measured while the unit took `unit_seconds`, at reference speed."""
    return seconds * REFERENCE_S / unit_seconds
