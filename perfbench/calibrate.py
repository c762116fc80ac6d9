"""Machine-speed calibration for the end-to-end timings.

A shared machine runs the same Python code up to half again as slowly for
minutes at a time, and that drift is far wider than any useful regression
bound. So right before each timed item (and each timed interpreter start),
the benchmark times a fixed piece of pure-Python work that shares no code
with docpost, and scales the item's wall time by ``REFERENCE_S / measured``.
A reported second is then a second on a machine where the reference work
takes ``REFERENCE_S``: a change to docpost moves the item time and leaves
the reference alone, while a slow phase of the machine moves both.
"""

from __future__ import annotations

import time

# Nominal wall time of one ``reference_time()`` call: about its typical
# figure under CPython 3.11 on a 2-vCPU, 2.1 GHz x86-64 virtual machine.
REFERENCE_S = 0.010
_REPEAT = 20


def _reference_work():
    """String dynamic programming, dict and list churn, a keyed sort: the
    kinds of interpreter work docpost does, on fixed inputs."""
    a, b = "calibration reference text", "calibrated referential test"
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    table = {f"k{k}": (k, str(k) * 2) for k in range(200)}
    return prev[-1], "".join(sorted(table, key=lambda key: table[key][0] % 7))


def reference_time() -> float:
    """Wall time of the fixed reference work, now."""
    t0 = time.perf_counter()
    for _ in range(_REPEAT):
        _reference_work()
    return time.perf_counter() - t0


def scale() -> float:
    """Factor that turns a wall time measured now into reference seconds."""
    return REFERENCE_S / reference_time()
