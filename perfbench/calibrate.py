"""Machine-speed calibration: a fixed pure-Python kernel timed next to
every measured interval, so that times can be given at one reference speed.

The machine this benchmark runs on is a few cores of a shared host, and
its speed drifts by a quarter and more over seconds to minutes while the
program stays the same.  The kernel below shares no code with ``lpmln``;
it does the same kinds of work (small-int bit arithmetic, dict and set
updates, attribute access, frozenset and tuple building, function calls),
so it slows down and speeds up with the host in step with the program.
A time ``t`` measured between two kernel runs that took ``k0`` and ``k1``
seconds is reported as ``t * NOMINAL_S / ((k0 + k1) / 2)``: the time the
interval would take on a machine where the kernel takes ``NOMINAL_S``.
A change to the package moves these times exactly as it moves the raw
ones; a change of host speed moves the kernel as well and cancels out.

The kernel runs with the garbage collector off, so that its cost does not
depend on how many objects the measured program keeps alive.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Reference speed: normalised times are those of a machine on which one
# kernel run takes this long (about its time on a 2.1 GHz x86-64 core
# running CPython 3.11).
NOMINAL_S = 0.020


class _Rule:
    __slots__ = ("pos", "neg")

    def __init__(self, pos: int, neg: int):
        self.pos = pos
        self.neg = neg


def _holds(rule: _Rule, bits: int) -> bool:
    return rule.pos & bits == rule.pos and not rule.neg & bits


def _work() -> int:
    rules = [_Rule((i * 37) & 0xFFF, (i * 11) & 0xF0F & ~((i * 37) & 0xFFF))
             for i in range(48)]
    seen: set = set()
    weights: dict = {}
    acc = 0
    for bits in range(2000):
        fired = sum(1 for r in rules if _holds(r, bits))
        key = frozenset(j for j in range(12) if bits >> j & 1)
        if key not in seen:
            seen.add(key)
        weights[bits & 255] = weights.get(bits & 255, 0) + fired
        acc ^= (bits * 2654435761) & 0xFFFFFFFF
    pairs = sorted((v, k) for k, v in weights.items())
    return acc + len(seen) + pairs[-1][0]


def kernel_seconds() -> float:
    """Run the kernel once; its wall-clock time in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def normalise(times: list, kernels: list) -> list:
    """Times at the reference speed.  ``kernels`` has one entry more than
    ``times``: interval ``i`` ran between kernel runs ``i`` and ``i + 1``."""
    if len(kernels) != len(times) + 1:
        raise ValueError("need one kernel time before and after each interval")
    return [t * 2.0 * NOMINAL_S / (kernels[i] + kernels[i + 1])
            for i, t in enumerate(times)]
