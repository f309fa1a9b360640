"""Host-speed reference for the fddilab benchmark.

The benchmark shares a few cores of a host with other tenants, and the
host's speed swings by up to a factor of two over seconds to minutes,
so raw request times spread too much to compare two commits. Each timed
request is therefore bracketed by a fixed pure-Python computation, the
reference, which slows and speeds up with the host as the program does.
A request's calibrated time is its raw time scaled by ``REF_CALM_S``
over the reference's mean time just before and just after it: the time
the request would take on the calm host.

The reference uses only builtins and runs with the garbage collector
off, so no change to fddilab, to the standard library modules it
imports, or to the size of its heap can change the reference's time.
"""

from __future__ import annotations

import gc
from time import perf_counter

# The reference's time on a calm host: the least of 1500 calls on a
# 2-vCPU x86-64 Intel Xeon virtual machine under CPython 3.11.7. It only
# sets the scale of the calibrated times.
REF_CALM_S = 0.0042


def reference() -> int:
    """A fixed mix of dict, tuple, integer, string and list work."""
    table: dict[int, int] = {}
    words = []
    total = 0
    for i in range(7500):
        key = i % 89
        table[key] = table.get(key, 0) + i * 3 // 7
        pair = (i, key, i & 15)
        total += pair[2] - pair[1] % 5
        words.append("%d:%d" % (key, i & 15))
    bits = [c & 1 for c in range(9000)]
    flipped = [b ^ k for b, k in zip(bits, reversed(bits))]
    return total + len(",".join(words)) + sum(flipped) + len(table)


def ref_time() -> float:
    """Seconds one call of the reference takes now, with gc off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrate(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` measured between two reference times, on the calm host."""
    return seconds * REF_CALM_S * 2 / (ref_before + ref_after)
