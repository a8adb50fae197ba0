"""Machine-speed controls for the end-to-end metrics.

On a shared host the same code runs 10-40% faster or slower from one
second or minute to the next, and process CPU time tracks wall time, so
CPU clocks do not remove the effect.  Each timed sample is therefore
paired with a control run right after it, and reported at a fixed
reference speed:

    calibrated = measured * REF / control

A control shares no code with normgcd, so a change to normgcd moves the
sample and not its control, and it does the same kind of work as the
sample, so the host's slow phases slow both alike:

- the library workloads: ``descent_ns``, the subtract-and-halve descent
  frozen as it stood when the benchmark was written (tracking u, v and
  c), run on fixed pairs shaped like the workload's;
- the CLI workload: a bare interpreter start (measured by the harness);
- set-up: ``kernel_ns``, a Euclid loop on fixed 64-bit pairs.

Each reference is its control's typical time on the machine the bounds
were set on (2 vCPU Intel Xeon, CPython 3.11.7), so calibrated values
read as times on that machine in a quiet phase.
"""

from __future__ import annotations

import random
import time

REF_NS = {
    "lib-small": 2_400_000,
    "lib-large": 7_500_000,
    "cli-oneshot": 45_000_000,
    "setup": 2_000_000,
}

_rng = random.Random("perfbench-calibration")
_EUCLID_PAIRS = tuple((_rng.getrandbits(64) | 1, _rng.getrandbits(64)) for _ in range(800))


def _odd_first(bits: int) -> tuple[int, int]:
    a = _rng.getrandbits(bits) | 1 | (1 << (bits - 1))
    return a, _rng.randrange(1, a)


_DESCENT_PAIRS = {
    "lib-small": tuple(_odd_first(_rng.randint(16, 64)) for _ in range(128)),
    "lib-large": (_odd_first(2048),),
}


def kernel_ns() -> int:
    """Wall ns of a fixed pure-Python Euclid loop (about 2 ms)."""
    t0 = time.perf_counter_ns()
    for a, b in _EUCLID_PAIRS:
        while b:
            a, b = b, a % b
    return time.perf_counter_ns() - t0


def _descent(a: int, b: int) -> tuple[int, int, int]:
    q, r = divmod(b, a)
    u1, v1, c1 = -q, 1, r
    u2, v2, c2 = 1 + q - b, a - 1, a - r
    while c1 != 0 and c1 % 2 == 0:
        if v1 % 2 == 0:
            u1, v1, c1 = u1 // 2, v1 // 2, c1 // 2
        else:
            u1, v1, c1 = (u1 - b) // 2, (v1 + a) // 2, c1 // 2
    while c2 % 2 == 0:
        if v2 % 2 == 0:
            u2, v2, c2 = u2 // 2, v2 // 2, c2 // 2
        else:
            u2, v2, c2 = (u2 - b) // 2, (v2 + a) // 2, c2 // 2
    if c2 < c1:
        u1, v1, c1, u2, v2, c2 = u2, v2, c2, u1, v1, c1
    while c1 > 0:
        c2 -= c1
        if v2 < v1:
            v2 += a - v1
            u2 -= u1 + b
        else:
            v2 -= v1
            u2 -= u1
        while c2 != 0 and c2 % 2 == 0:
            if v2 % 2 == 0:
                u2, v2, c2 = u2 // 2, v2 // 2, c2 // 2
            else:
                u2, v2, c2 = (u2 - b) // 2, (v2 + a) // 2, c2 // 2
        if c2 < c1:
            u1, v1, c1, u2, v2, c2 = u2, v2, c2, u1, v1, c1
    return u2, v2, c2


def descent_ns(workload: str) -> int:
    """Wall ns of the frozen descent on the fixed pairs for ``workload``."""
    pairs = _DESCENT_PAIRS[workload]
    t0 = time.perf_counter_ns()
    for a, b in pairs:
        _descent(a, b)
    return time.perf_counter_ns() - t0
